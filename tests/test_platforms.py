import itertools
import json
import random
import struct

import pytest

from endo_utils import inner_point_map, trivial_endo
from nakex import braid as B
from nakex import ldops as L
from nakex import protocols as P
from nakex.braid import BraidWord, Permutation
from nakex.platforms import (
    BraidPlatform,
    IdentityEndo,
    InnerEndo,
    MultModPlatform,
    PlatformMismatch,
    PointMapEndo,
    PowerShiftEndo,
    SymmetricPlatform,
    centralizer,
    decode_element,
    encode_element,
    endo_is_idempotent,
    g_pow,
)

PLATFORMS = [BraidPlatform(4), SymmetricPlatform(4), MultModPlatform(23)]


@pytest.mark.parametrize("platform", PLATFORMS, ids=["braid", "sym", "modp"])
def test_group_axioms(platform):
    rng = random.Random(11)
    e = platform.identity()
    for _ in range(40):
        x, y, z = (platform.random_element(rng) for _ in range(3))
        assert platform.eq(platform.mul(platform.mul(x, y), z),
                           platform.mul(x, platform.mul(y, z)))
        assert platform.eq(platform.mul(x, e), x)
        assert platform.eq(platform.mul(e, x), x)
        assert platform.eq(platform.mul(x, platform.inv(x)), e)


def test_platform_examples():
    modp = MultModPlatform(23)
    assert modp.mul(5, 5) == 2
    sym = SymmetricPlatform(3)
    swap = Permutation((2, 1, 3))
    assert sym.mul(swap, swap).is_identity()
    braid_platform = BraidPlatform(3)
    assert braid_platform.eq(BraidWord(3, (1, 2, 1)), BraidWord(3, (2, 1, 2)))


def test_platform_validation():
    with pytest.raises(ValueError):
        MultModPlatform(24)
    with pytest.raises(ValueError, match="2\\^40"):
        MultModPlatform(18446744073709551557)  # the largest prime below 2^64
    with pytest.raises(PlatformMismatch):
        SymmetricPlatform(3).mul(Permutation((2, 1, 3, 4)), Permutation((2, 1, 3, 4)))
    with pytest.raises(PlatformMismatch):
        MultModPlatform(23).check(0)
    with pytest.raises(PlatformMismatch):
        BraidPlatform(3).check(BraidWord(5, (4,)))


# refusal case -> (call, exception class, message)
PLATFORM_REFUSALS = {
    "braid_check_permutation": (
        lambda: BraidPlatform(3).check(Permutation((2, 1, 3))),
        PlatformMismatch, "expected BraidWord, got Permutation",
    ),
    "braid_check_residue": (
        lambda: BraidPlatform(3).check(5), PlatformMismatch, "expected BraidWord, got int",
    ),
    "braid_check_word_too_wide": (
        lambda: BraidPlatform(3).check(BraidWord(5, (1, 4))),
        PlatformMismatch, "word needs 5 strands, platform has 3",
    ),
    "braid_0_strands": (lambda: BraidPlatform(0), ValueError, "strand count must be positive"),
    "sym_degree_0": (lambda: SymmetricPlatform(0), ValueError, "degree must be positive"),
    "mult_mod_1": (lambda: MultModPlatform(1), ValueError, "modulus 1 is not prime"),
    "power_shift_d_at_strands": (
        lambda: PowerShiftEndo(BraidPlatform(4), 4), ValueError, "need 0 < d < strand count",
    ),
}


@pytest.mark.parametrize("case", list(PLATFORM_REFUSALS))
def test_typed_refusals(case):
    call, cls, message = PLATFORM_REFUSALS[case]
    with pytest.raises(cls) as exc:
        call()
    assert type(exc.value) is cls and str(exc.value) == message


@pytest.mark.parametrize("strands, length", [(2, 4), (3, 0), (4, 8), (7, 13)])
def test_braid_random_element_is_random_braid(strands, length):
    rng, reference = random.Random(strands), random.Random(strands)
    drawn = BraidPlatform(strands).random_element(rng, length)
    assert drawn == B.random_braid(strands, length, reference)
    assert rng.getstate() == reference.getstate()


def test_one_strand_draw_is_the_identity():
    # B_1 is the trivial group: its draw is the identity, and nothing is drawn
    rng, reference = random.Random(1), random.Random(1)
    platform = BraidPlatform(1)
    for length in (0, 8):
        assert platform.random_element(rng, length) == platform.identity()
    assert rng.getstate() == reference.getstate()


@pytest.mark.parametrize(
    "platform",
    [SymmetricPlatform(4), SymmetricPlatform(7), MultModPlatform(23), L.laver_table(3)],
    ids=["s4", "s7", "modp", "laver"],
)
def test_finite_draws_ignore_length(platform):
    rng, other = random.Random(18), random.Random(18)
    for _ in range(20):
        assert platform.random_element(rng, 0) == platform.random_element(other, 8)
    assert rng.getstate() == other.getstate()


@pytest.mark.parametrize("platform", PLATFORMS, ids=["braid", "sym", "modp"])
def test_key_payload(platform):
    # a braid's key payload is its encoded normal form, any other element's its encoding
    rng = random.Random(19)
    for _ in range(20):
        x = platform.random_element(rng)
        if isinstance(platform, BraidPlatform):
            expected = B.encode_normal_form(B.normal_form(x))
        else:
            expected = encode_element(platform, x)
        assert platform.key_payload(x) == expected


def test_braid_check_lowers_a_wider_word_that_fits():
    # only the letters decide: a word declared on more strands whose letters
    # fit the platform is re-declared on the platform's strands
    word = BraidPlatform(3).check(BraidWord(5, (1, -2, 2, 1)))
    assert word == BraidWord(3, (1, -2, 2, 1)) and word.strands == 3
    assert BraidPlatform(3).check(BraidWord(2, (1,))) == BraidWord(3, (1,))


def test_values_built_from_lists_act_like_tuples():
    # the checking constructors keep a tuple, so a list from outside hashes
    p, p_list = Permutation((2, 3, 1)), Permutation([2, 3, 1])
    assert p_list == p and hash(p_list) == hash(p) and type(p_list.images) is tuple
    for degree, images in ((3, [2, 3, 1]), (7, [2, 3, 1, 5, 4, 7, 6])):
        sym, x, x_list = SymmetricPlatform(degree), Permutation(tuple(images)), Permutation(images)
        assert sym.mul(x_list, x_list) == sym.mul(x, x)
        assert sym.inv(x_list) == sym.inv(x) and sym.eq(x_list, x)
        assert decode_element(sym, encode_element(sym, x_list))[0] == x
    w, w_list = BraidWord(3, (1, 2, -1)), BraidWord(3, [1, 2, -1])
    assert w_list == w and hash(w_list) == hash(w) and type(w_list.letters) is tuple
    assert B.normal_form(w_list) == B.normal_form(w)
    braid_platform = BraidPlatform(3)
    assert braid_platform.eq(w_list, w_list) and braid_platform.eq(w_list, w)
    assert braid_platform.encode(w_list) == braid_platform.encode(w)


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
def test_tables_agree_with_direct_arithmetic(degree):
    # every product and inverse of S_n, n <= 5, as the table gives it, against
    # perm_compose / perm_inverse; operands both as enumerated and as a
    # decoder builds them (new Permutation objects the table has not seen)
    sym = SymmetricPlatform(degree)
    elements = list(sym.elements())
    built = [Permutation(x.images) for x in elements]
    for x, x_built in zip(elements, built):
        expected = B.perm_inverse(x)
        assert sym.inv(x) == expected
        assert type(sym.inv(x_built)) is Permutation
        assert sym.inv(x_built) == expected
        for y, y_built in zip(elements, built):
            expected = B.perm_compose(x, y)
            assert sym.mul(x, y) == expected
            assert sym.mul(x_built, y_built) == expected
            assert hash(sym.mul(x_built, y)) == hash(expected)


def test_degrees_past_the_tables_compute_directly():
    from nakex import platforms

    sym = SymmetricPlatform(platforms.SYM_TABLE_MAX_DEGREE + 1)
    rng = random.Random(21)
    for _ in range(300):
        x, y = sym.random_element(rng), Permutation(sym.random_element(rng).images)
        assert sym.mul(x, y) == B.perm_compose(x, y)
        assert sym.inv(y) == B.perm_inverse(y)
    assert sym.degree not in platforms._SYM_TABLES


def test_warm_table_keeps_the_degree_check():
    # a filled S_4 table must not answer for S_3 (or S_5) on S_4 elements
    s4 = SymmetricPlatform(4)
    elements = list(s4.elements())
    for x in elements:
        s4.inv(x)
        for y in elements:
            s4.mul(x, y)
    x, y = elements[5], elements[7]
    s3 = SymmetricPlatform(3)
    for platform in (s3, SymmetricPlatform(5)):
        with pytest.raises(PlatformMismatch):
            platform.mul(x, y)
        with pytest.raises(PlatformMismatch):
            platform.inv(x)
        with pytest.raises(PlatformMismatch):
            platform.mul(platform.identity(), y)
    with pytest.raises(PlatformMismatch):
        s4.mul(x, s3.identity())


def _warm_s5():
    s5 = SymmetricPlatform(5)
    elements = list(s5.elements())
    for x in elements:
        s5.inv(x)
        for y in elements:
            s5.mul(x, y)
    return s5, elements


class _SubPermutation(Permutation):
    pass


class _ImagesOnly:
    """Has a Permutation's images of degree 5 but is not one."""

    images = (2, 1, 3, 4, 5)


BAD_OPERANDS = {
    "S4 element": Permutation((2, 1, 4, 3)),
    "braid word": BraidWord(3, (1,)),
    "int": 3,
    "None": None,
    "tuple": (1, 2, 3, 4, 5),
    "images only": _ImagesOnly(),
}


@pytest.mark.parametrize("name", list(BAD_OPERANDS))
def test_warm_table_refuses_foreign_operands(name):
    # every slot of S_5 is filled, so only the operand check stands between
    # a foreign operand and a table answer
    s5, elements = _warm_s5()
    x, bad = elements[41], BAD_OPERANDS[name]
    calls = [
        lambda: s5.mul(x, bad),
        lambda: s5.mul(bad, x),
        lambda: s5.inv(bad),
        lambda: s5.eq(x, bad),
        lambda: s5.eq(bad, x),
    ]
    for call in calls:
        with pytest.raises(PlatformMismatch, match="^expected Permutation of degree 5$"):
            call()


def test_warm_table_accepts_a_permutation_subclass():
    s5, elements = _warm_s5()
    x, y = elements[17], elements[88]
    sx, sy = _SubPermutation(x.images), _SubPermutation(y.images)
    assert s5.mul(sx, sy) == s5.mul(sx, y) == s5.mul(x, sy) == B.perm_compose(x, y)
    assert type(s5.mul(sx, sy)) is Permutation
    assert s5.inv(sx) == B.perm_inverse(x)
    assert s5.eq(sx, sx) and not s5.eq(sx, sy)


def test_identity_is_the_tables_own():
    from nakex import platforms

    for degree in range(1, platforms.SYM_TABLE_MAX_DEGREE + 1):
        sym = SymmetricPlatform(degree)
        e = sym.identity()
        assert e is sym.identity() is SymmetricPlatform(degree).identity()
        assert type(e) is Permutation and e == B.perm_identity(degree)
    big = SymmetricPlatform(platforms.SYM_TABLE_MAX_DEGREE + 1)
    assert big.identity() == B.perm_identity(big.degree)
    assert big.identity() is not big.identity()


def test_symmetric_encoding_is_the_packed_images():
    # one struct.pack over all images gives the bytes of one pack per image
    rng = random.Random(17)
    s4, s7 = SymmetricPlatform(4), SymmetricPlatform(7)
    perms = [(s4, x) for x in s4.elements()]
    perms += [(s7, s7.random_element(rng)) for _ in range(50)]
    for sym, x in perms:
        expected = b"".join(struct.pack(">H", v) for v in x.images)
        assert sym.encode(x) == expected
        assert sym.decode(expected, 0) == (x, 2 * sym.degree)


def _shuffled(degree, rng):
    """The reference draw: ``rng.shuffle`` on [1..degree]."""
    images = list(range(1, degree + 1))
    rng.shuffle(images)
    return Permutation(tuple(images))


class _FloatRandom(random.Random):
    """Overrides only random(), so its _randbelow draws floats, not getrandbits."""

    def random(self):
        return super().random()


@pytest.mark.parametrize("degree", range(1, 8))
def test_random_element_is_the_shuffle_draw(degree):
    # element by element and in the generator's state afterwards, a draw is
    # rng.shuffle on [1..n]; up to degree 5 it is the table's interned object
    sym = SymmetricPlatform(degree)
    table = sym._table
    for seed in range(500):
        rng, reference = random.Random(seed), random.Random(seed)
        for _ in range(20):
            x = sym.random_element(rng)
            assert x == _shuffled(degree, reference)
            if table is not None:
                assert x is table.perms[table.ids[x.images]]
        assert rng.getstate() == reference.getstate()


@pytest.mark.parametrize("degree", [3, 5, 7])
def test_random_element_of_a_subclass_is_its_shuffle(degree):
    # a subclass's _randbelow may not be getrandbits: it must get its own shuffle
    sym = SymmetricPlatform(degree)
    assert any(_shuffled(degree, _FloatRandom(s)) != _shuffled(degree, random.Random(s))
               for s in range(50))
    for seed in range(50):
        rng, reference = _FloatRandom(seed), _FloatRandom(seed)
        for _ in range(20):
            assert sym.random_element(rng) == _shuffled(degree, reference)
        assert rng.getstate() == reference.getstate()


@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
def test_new_table_holds_every_element_and_draw(degree):
    from nakex import platforms

    table = platforms._PermTable(degree)
    every = set(itertools.permutations(range(1, degree + 1)))
    assert set(table.ids) == every and len(table.perms) == len(every)
    assert table.ids == {x.images: k for k, x in enumerate(table.perms)}
    assert sorted(map(id, table.draws)) == sorted(map(id, table.perms))
    assert table.identity is table.perms[0] == B.perm_identity(degree)
    # every product and inverse is filled when the table is made, with the interned object
    assert len(table.products) == table.order ** 2 and len(table.inverses) == table.order
    for i, x in enumerate(table.perms):
        z = table.inverses[i]
        assert z is table.perms[table.ids[z.images]] and z == B.perm_inverse(x)
        for j, y in enumerate(table.perms):
            z = table.products[i * table.order + j]
            assert z is table.perms[table.ids[z.images]] and z == B.perm_compose(x, y)


def test_tables_fill_safely_from_two_threads(monkeypatch):
    _sweep_from_two_threads(monkeypatch, draw_first=False)


def test_tables_fill_safely_when_threads_draw_first(monkeypatch):
    _sweep_from_two_threads(monkeypatch, draw_first=True)


def _sweep_from_two_threads(monkeypatch, draw_first):
    # two threads sweep S_5 from no table at all, so both ask for the table
    # at once; a table made twice, or read before it is complete, gives an
    # element two ids or a slot a wrong product.  With draw_first, each
    # thread draws before it multiplies.
    import sys
    import threading

    from nakex import platforms

    elements = [Permutation(x.images) for x in SymmetricPlatform(5).elements()]
    expected = [B.perm_compose(x, y) for x in elements for y in elements]
    expected += [B.perm_inverse(x) for x in elements]
    reference = random.Random(5)
    drawn = [_shuffled(5, reference) for _ in range(50)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            monkeypatch.setattr(platforms, "_SYM_TABLES", {})
            barrier = threading.Barrier(2, timeout=30)
            results = [None, None]

            def sweep(slot):
                barrier.wait()
                sym = SymmetricPlatform(5)
                out = []
                if draw_first:
                    rng = random.Random(5)
                    out += [sym.random_element(rng) for _ in range(50)]
                out += [sym.mul(x, y) for x in elements for y in elements]
                results[slot] = out + [sym.inv(x) for x in elements]

            threads = [threading.Thread(target=sweep, args=(slot,)) for slot in (0, 1)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            want = (drawn if draw_first else []) + expected
            assert results == [want, want]
            table = platforms._SYM_TABLES[5]
            assert all(z is table.perms[table.ids[z.images]] for out in results for z in out)
            assert len(table.perms) == len({x.images for x in table.perms}) == 120
            assert table.ids == {x.images: k for k, x in enumerate(table.perms)}
            assert all(z is table.perms[table.ids[z.images]] for z in table.products)
            assert all(z is table.perms[table.ids[z.images]] for z in table.inverses)
    finally:
        sys.setswitchinterval(interval)


def test_g_pow():
    modp = MultModPlatform(23)
    assert g_pow(modp, 5, 6) == pow(5, 6, 23)
    assert g_pow(modp, 5, 0) == 1
    assert g_pow(modp, 5, -2) == pow(5, 21 * 2 % 22, 23) or g_pow(modp, 5, -2) == pow(
        pow(5, 21, 23), 2, 23
    )


class _CountingMul:
    """A platform whose ``mul`` counts its calls."""

    def __init__(self, platform):
        self.platform = platform
        self.muls = 0

    def __getattr__(self, name):
        return getattr(self.platform, name)

    def mul(self, x, y):
        self.muls += 1
        return self.platform.mul(x, y)


@pytest.mark.parametrize("platform", PLATFORMS, ids=["braid", "sym", "modp"])
def test_g_pow_squares_only_below_the_top_bit(platform):
    # results equal the plain product of |k| copies (exactly, since braid
    # products are freely reduced words), and k >= 1 costs bit_length(k) - 1
    # squarings plus popcount(k) multiplications
    x = platform.random_element(random.Random(13))
    for k in range(-5, 65):
        factor = x if k >= 0 else platform.inv(x)
        expected = platform.identity()
        for _ in range(abs(k)):
            expected = platform.mul(expected, factor)
        counting = _CountingMul(platform)
        assert g_pow(counting, x, k) == expected
        m = abs(k)
        assert counting.muls == (m.bit_length() - 1 + bin(m).count("1") if m else 0)


# -- endomorphisms -------------------------------------------------------------


def test_identity_and_inner_endo():
    sym = SymmetricPlatform(4)
    rng = random.Random(12)
    x = sym.random_element(rng)
    assert IdentityEndo(sym).apply(x) == x
    p = sym.random_element(rng)
    inner = InnerEndo(sym, p)
    assert sym.eq(inner.apply(p), p)  # p commutes with itself


@pytest.mark.parametrize("platform", PLATFORMS, ids=["braid", "sym", "modp"])
def test_endo_homomorphic(platform):
    rng = random.Random(13)
    f = InnerEndo(platform, platform.random_element(rng))
    for _ in range(25):
        x, y = platform.random_element(rng), platform.random_element(rng)
        lhs = f.apply(platform.mul(x, y))
        rhs = platform.mul(f.apply(x), f.apply(y))
        assert platform.eq(lhs, rhs)


def test_power_shift_endo():
    platform = BraidPlatform(3)
    f = PowerShiftEndo(platform, 1)
    assert f.apply(BraidWord(3, (1, 1))) == BraidWord(3, (2, 2))
    with pytest.raises(ValueError):
        f.apply(BraidWord(3, (1,)))  # non-pure input
    with pytest.raises(PlatformMismatch):
        PowerShiftEndo(SymmetricPlatform(3), 1)


def test_power_shift_checks_purity_once(monkeypatch):
    from nakex import _kernels

    calls = 0
    perm_of_word = _kernels.perm_of_word

    def counting(letters, n):
        nonlocal calls
        calls += 1
        return perm_of_word(letters, n)

    monkeypatch.setattr(_kernels, "perm_of_word", counting)
    f = PowerShiftEndo(BraidPlatform(5), 2)
    assert f.apply(BraidWord(5, (1, 1, -3, 2, 2, 3))) == BraidWord(5, (3, 3))
    assert calls == 1
    for word in (BraidWord(5, (1,)), BraidWord(4, (3, 1, 1))):
        with pytest.raises(ValueError) as exc:
            f.apply(word)
        assert str(exc.value) == "power_shift endomorphism applied to a non-pure braid"
    with pytest.raises(PlatformMismatch):
        f.apply(BraidWord(7, (6, 6)))


def test_power_shift_homomorphic_on_pure_braids():
    platform = BraidPlatform(5)
    f = PowerShiftEndo(platform, 2)
    rng = random.Random(14)
    for _ in range(50):
        x = B.random_pure_braid(5, rng, conj_len=4)
        y = B.random_pure_braid(5, rng, conj_len=4)
        lhs = f.apply(platform.mul(x, y))
        rhs = platform.mul(f.apply(x), f.apply(y))
        assert platform.eq(lhs, rhs)


def test_point_map_rejects_non_homomorphism():
    sym = SymmetricPlatform(3)
    elements = list(sym.elements())
    swap = Permutation((2, 1, 3))
    bad = tuple((x, swap if x.is_identity() else x) for x in elements)
    with pytest.raises(ValueError):
        PointMapEndo(sym, bad)
    incomplete = tuple((x, x) for x in elements[:3])
    with pytest.raises(ValueError):
        PointMapEndo(sym, incomplete)
    with pytest.raises(PlatformMismatch):
        PointMapEndo(BraidPlatform(3), ())


@pytest.mark.parametrize("degree", [3, 4])
def test_point_map_rejects_an_automorphism_changed_at_one_point(degree):
    # two homomorphisms agree on a subgroup, which cannot hold all but one
    # of 6 or 24 points; every point is changed, generator or not
    sym = SymmetricPlatform(degree)
    pairs = inner_point_map(sym, Permutation((2, 3, 1, *range(4, degree + 1)))).pairs
    for i, (x, fx) in enumerate(pairs):
        for value in sym.elements():
            if value != fx:
                changed = pairs[:i] + ((x, value),) + pairs[i + 1:]
                with pytest.raises(ValueError, match="is not a homomorphism"):
                    PointMapEndo(sym, changed)


def test_spec_with_an_s6_point_map_loads_in_under_a_second():
    import time

    s6 = SymmetricPlatform(6)
    rng = random.Random(0)
    identity = PointMapEndo(s6, tuple((x, x) for x in s6.elements()))
    text = P.spec_to_json(
        P.make_f_commutator(identity, [s6.random_element(rng)], [s6.random_element(rng)])
    )
    start = time.perf_counter()
    spec = P.spec_from_json(text)
    assert time.perf_counter() - start < 1.0
    assert spec.endo == identity


def test_point_map_accepts_inner_table():
    sym = SymmetricPlatform(4)
    p = Permutation((2, 3, 1, 4))
    f = inner_point_map(sym, p)
    inner = InnerEndo(sym, p)
    for x in sym.elements():
        assert f.apply(x) == inner.apply(x)


def test_endo_idempotence_detection():
    sym = SymmetricPlatform(3)
    assert endo_is_idempotent(IdentityEndo(sym))
    assert endo_is_idempotent(trivial_endo(sym))
    assert not endo_is_idempotent(InnerEndo(sym, Permutation((2, 3, 1))))


# -- centralizers ---------------------------------------------------------------


def test_centralizer_examples():
    s3 = SymmetricPlatform(3)
    assert len(centralizer(s3, [s3.identity()])) == 6

    cycle = Permutation((2, 3, 1))
    # independent oracle: exhaustive check with raw composition
    def commutes(a, b):
        return tuple(b.images[v - 1] for v in a.images) == tuple(
            a.images[v - 1] for v in b.images
        )

    expected = sorted(
        p.images for p in s3.elements() if commutes(p, cycle)
    )
    got = sorted(p.images for p in centralizer(s3, [cycle]))
    assert got == expected
    assert len(got) == 3  # {id, cycle, cycle^2}

    s4 = SymmetricPlatform(4)
    center = centralizer(s4, list(s4.elements()))
    assert [p.images for p in center] == [(1, 2, 3, 4)]


def test_centralizer_rejected_on_braid_platform():
    with pytest.raises(PlatformMismatch):
        centralizer(BraidPlatform(3), [BraidWord(3)])


# -- serialization ----------------------------------------------------------------


@pytest.mark.parametrize("platform", PLATFORMS, ids=["braid", "sym", "modp"])
def test_element_codec_roundtrip(platform):
    rng = random.Random(15)
    for _ in range(25):
        x = platform.random_element(rng)
        data = encode_element(platform, x)
        assert data[0] == platform.tag
        decoded, offset = decode_element(platform, data)
        assert offset == len(data)
        assert platform.eq(decoded, x)


def test_decode_rejects_invalid_payload():
    modp = MultModPlatform(23)
    with pytest.raises(PlatformMismatch):
        decode_element(modp, bytes([modp.tag]) + (0).to_bytes(8, "big"))
    with pytest.raises(PlatformMismatch):
        decode_element(modp, bytes([modp.tag]) + (23).to_bytes(8, "big"))
    sym = SymmetricPlatform(3)
    with pytest.raises(ValueError):
        decode_element(sym, bytes([sym.tag]) + b"\x00\x01\x00\x01\x00\x02")
    with pytest.raises(ValueError):
        decode_element(sym, bytes([0x7A]) + b"\x00" * 6)  # wrong platform tag


def test_symmetric_decoders_reject_repeated_images():
    # the checking Permutation constructor guards every outside image tuple
    with pytest.raises(ValueError):
        SymmetricPlatform(4).decode(struct.pack(">4H", 1, 1, 2, 3), 0)
    spec = P.random_spec("simdcp", 0)
    obj = json.loads(P.spec_to_json(spec))
    degree = spec.platform.degree
    obj["alice_gens"][0] = "02" + struct.pack(f">{degree}H", 1, 1, *range(2, degree)).hex()
    with pytest.raises(ValueError):
        P.spec_from_json(json.dumps(obj))


@pytest.mark.parametrize("platform", PLATFORMS, ids=["braid", "sym", "modp"])
def test_decode_rejects_every_truncation(platform):
    # a cut-off or empty payload is a ValueError, not struct.error/IndexError
    data = encode_element(platform, platform.random_element(random.Random(16)))
    for cut in range(len(data)):
        with pytest.raises(ValueError):
            decode_element(platform, data[:cut])
    with pytest.raises(ValueError):
        decode_element(platform, data, len(data))


def test_braid_element_encoding_canonicalizes():
    platform = BraidPlatform(3)
    w1 = BraidWord(3, (1, 2, 1))
    w2 = BraidWord(3, (2, 1, 2))
    assert encode_element(platform, w1) == encode_element(platform, w2)

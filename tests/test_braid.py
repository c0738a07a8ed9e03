import hashlib
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nakex import braid as B
from nakex.braid import BraidWord, GarsideNormalForm, Permutation


GOLDEN_NF_DIGEST = "6075a1c1d730990fde9c22e72139554be14e5b44cb75a3ced8bb629d2dbb71fe"


def words(max_strands=6, max_len=20):
    return st.integers(2, max_strands).flatmap(
        lambda n: st.lists(
            st.integers(1, n - 1).flatmap(lambda i: st.sampled_from([i, -i])),
            max_size=max_len,
        ).map(lambda letters: BraidWord(n, tuple(letters)))
    )


# -- word basics --------------------------------------------------------------


def test_letter_validation():
    with pytest.raises(ValueError):
        BraidWord(3, (3,))
    with pytest.raises(ValueError):
        BraidWord(2, (0,))
    with pytest.raises(ValueError):
        BraidWord(0)
    BraidWord(1)  # trivial group: empty word is fine


def test_derived_words_match_checked_constructor():
    # products, inverses, shifts and lifts skip the constructor's letter
    # check; they must equal, and hash like, the word it builds and accepts
    rng = random.Random(14)
    for _ in range(60):
        n = rng.randrange(2, 8)
        w1, w2 = B.random_braid(n, rng.randrange(0, 20), rng), B.random_braid(n + 1, 9, rng)
        results = [B.concat(w1, w2), B.concat_all(w1, w2, w1), B.invert(w1),
                   B.shift(w1, rng.randrange(1, 4)), B.with_strands(w1, n + 2),
                   B.handle_reduce(w1), B.freely_reduced(w1), B.canonical_word(w2)]
        for result in results:
            checked = BraidWord(result.strands, result.letters)
            assert type(result) is BraidWord and type(result.letters) is tuple
            assert result == checked and hash(result) == hash(checked)


def test_words_from_outside_are_still_checked():
    with pytest.raises(ValueError):
        BraidWord(3, (3,))
    with pytest.raises(ValueError):
        B.decode_braid(b"\x00\x04\x00\x00\x00\x01\x00\x04")  # sigma_4 on 4 strands
    with pytest.raises(ValueError):
        B.with_strands(BraidWord(5, (1, 4)), 4)
    assert B.with_strands(BraidWord(5, (1, 3)), 4) == BraidWord(4, (1, 3))


def test_concat_examples():
    assert B.concat(BraidWord(2, (1,)), BraidWord(2, (-1,))).letters == ()
    assert B.concat(BraidWord(3, (1, 2)), BraidWord(3)).letters == (1, 2)
    assert B.concat(BraidWord(3, (1, 2)), BraidWord(4, (-2, 3))).letters == (1, 3)
    assert B.concat(BraidWord(3, (1,)), BraidWord(4, (3,))).strands == 4


def test_concat_all_equals_iterated_concat():
    rng = random.Random(15)
    for count in range(6):
        for _ in range(40):
            ws = []
            for _ in range(count):
                n = rng.randrange(1, 7)
                # letters drawn from a small alphabet, so not freely reduced
                letters = tuple(
                    rng.choice((1, -1)) * rng.randrange(1, n) for _ in range(rng.randrange(0, 9))
                ) if n > 1 else ()
                ws.append(BraidWord(n, letters))
            expected = BraidWord(1)
            for w in ws:
                expected = B.concat(expected, w)
            got = B.concat_all(*ws)
            assert (got.strands, got.letters) == (expected.strands, expected.letters)
    assert B.concat_all() == BraidWord(1)
    w = BraidWord(3, (1, 2, -2, -1, 2))
    assert B.concat_all(w, B.invert(w), BraidWord(5)).letters == ()
    assert B.concat_all(w, B.invert(w), BraidWord(5)).strands == 5


def test_invert_examples():
    assert B.invert(BraidWord(3, (1, 2))).letters == (-2, -1)
    assert B.invert(BraidWord(2)).letters == ()
    assert B.invert(BraidWord(2, (-1,))).letters == (1,)


def test_shift_examples():
    assert B.shift(BraidWord(2, (1,)), 1) == BraidWord(3, (2,))
    assert B.shift(BraidWord(4, (-1, 3)), 2) == BraidWord(6, (-3, 5))
    w = BraidWord(3, (1, -2))
    assert B.shift(w, 0) is w


# -- permutations and purity --------------------------------------------------


def test_permutation_of_generator():
    assert B.permutation_of(BraidWord(3, (1,))) == Permutation((2, 1, 3))
    assert B.permutation_of(BraidWord(3, (1, 1))).is_identity()
    assert B.permutation_of(BraidWord(3)).is_identity()


def test_permutation_arithmetic_matches_checked_constructor():
    # products, inverses and identities skip the constructor's images check;
    # they must equal, and hash like, the permutation it builds and accepts
    rng = random.Random(7)
    for n in range(1, 8):
        for _ in range(20):
            a, b = (Permutation(tuple(rng.sample(range(1, n + 1), n))) for _ in range(2))
            product, inverse, identity = B.perm_compose(a, b), B.perm_inverse(a), B.perm_identity(n)
            assert product.images == tuple(b(a(i)) for i in range(1, n + 1))
            assert all(inverse(a(i)) == i for i in range(1, n + 1))
            assert identity.is_identity() and B.perm_compose(a, inverse) == identity
            for result in (product, inverse, identity):
                checked = Permutation(result.images)
                assert type(result) is Permutation and type(result.images) is tuple
                assert result == checked and hash(result) == hash(checked)


def test_permutation_constructor_rejects_non_permutations():
    for images in ((1, 1, 2), (0, 1), (1, 3)):
        with pytest.raises(ValueError):
            Permutation(images)
    with pytest.raises(ValueError):
        B.perm_compose(Permutation((2, 1)), Permutation((1, 2, 3)))


def test_permutation_is_homomorphism(rng=random.Random(1)):
    for _ in range(100):
        n = rng.randrange(2, 7)
        w1 = B.random_braid(n, rng.randrange(0, 12), rng)
        w2 = B.random_braid(n, rng.randrange(0, 12), rng)
        lhs = B.permutation_of(B.concat(w1, w2))
        rhs = B.perm_compose(B.permutation_of(w1), B.permutation_of(w2))
        assert lhs == rhs


def test_is_pure():
    assert B.is_pure(BraidWord(3, (1, 1)))
    assert not B.is_pure(BraidWord(3, (1,)))
    # compose the two transpositions by hand: (1 2)(2 3) is a 3-cycle
    w = BraidWord(3, (1, 2, -1, -2))
    expected = B.perm_compose(
        B.perm_compose(Permutation((2, 1, 3)), Permutation((1, 3, 2))),
        B.perm_compose(Permutation((2, 1, 3)), Permutation((1, 3, 2))),
    )
    assert B.permutation_of(w) == expected
    assert not B.is_pure(w)


# -- normal form --------------------------------------------------------------


def test_braid_relations_normal_form():
    for n in range(3, 11):
        for i in range(1, n - 1):
            lhs = BraidWord(n, (i, i + 1, i))
            rhs = BraidWord(n, (i + 1, i, i + 1))
            assert B.normal_form(lhs) == B.normal_form(rhs)
        for i in range(1, n - 1):
            for j in range(i + 2, n):
                lhs = BraidWord(n, (i, j))
                rhs = BraidWord(n, (j, i))
                assert B.normal_form(lhs) == B.normal_form(rhs)


def test_normal_form_identity_and_delta():
    empty = B.normal_form(BraidWord(4))
    assert empty.infimum == 0 and empty.factors == ()
    half_twist = B.normal_form(BraidWord(3, (1, 2, 1)))
    assert half_twist.infimum == 1 and half_twist.factors == ()


def _assert_normal_form_invariants(nf):
    """No factor is the identity or Delta, and adjacent pairs are left-weighted."""
    n = nf.strands
    w0 = tuple(range(n, 0, -1))
    identity = tuple(range(1, n + 1))
    for left, right in zip(nf.factors, nf.factors[1:]):
        descents = {
            i for i in range(1, n) if right.images[i - 1] > right.images[i]
        }
        left_inv = B.perm_inverse(left)
        finishing = {
            i for i in range(1, n) if left_inv.images[i] < left_inv.images[i - 1]
        }
        assert descents <= finishing
    for factor in nf.factors:
        assert factor.images != identity and factor.images != w0


def _assert_normal_form_oracle(w):
    """Normal-form invariants, and the canonical word equals ``w`` by handle reduction."""
    _assert_normal_form_invariants(B.normal_form(w))
    assert B.handle_trivial(B.concat(w, B.invert(B.canonical_word(w))))


def test_normal_form_invariants():
    rng = random.Random(2)
    words = []
    for _ in range(150):
        n = rng.randrange(2, 8)
        words.append(B.random_braid(n, rng.randrange(0, 30), rng))
    words += [B.random_braid(8, length, rng) for length in (120, 400) for _ in range(2)]
    for w in words:
        _assert_normal_form_invariants(B.normal_form(w))


def _reduced_words(n, max_len):
    """Every freely reduced word of length at most ``max_len`` in B_n."""
    generators = [e for i in range(1, n) for e in (i, -i)]
    words = [()]
    for w in words:
        if len(w) < max_len:
            words += [w + (e,) for e in generators if not w or w[-1] != -e]
    return [BraidWord(n, w) for w in words]


def test_normal_form_b2_letters_are_half_twists():
    # sigma_1 is Delta in B_2: the letter sum of a word is its infimum
    for k in range(-12, 13):
        w = BraidWord(2, (1 if k > 0 else -1,) * abs(k))
        assert B.normal_form(w) == GarsideNormalForm(2, k, ())
        _assert_normal_form_oracle(w)
    assert B.normal_form(BraidWord(2, (1, 1, -1, 1, -1, -1, -1))) == GarsideNormalForm(2, -1, ())


def test_normal_form_every_short_word():
    # exhausts the in-place paths: a letter extending or cancelling into the
    # tail factor, a tail factor growing into Delta, and runs of either sign
    words = _reduced_words(3, 7) + _reduced_words(4, 5)
    assert len(words) == 4373 + 4687
    for w in words:
        _assert_normal_form_oracle(w)


def test_normal_form_sign_biased_words():
    # long runs of one sign: positive letters pack into the tail factor,
    # inverse letters cancel into it or pull half twists into the infimum
    rng = random.Random(11)
    for n in range(4, 9):
        for share in (0.8, 0.9, 1.0):
            for sign in (1, -1):
                for _ in range(4):
                    letters = []
                    for _ in range(rng.randrange(10, 60)):
                        i = rng.randrange(1, n)
                        letters.append(sign * i if rng.random() < share else -sign * i)
                    _assert_normal_form_oracle(B.freely_reduced(BraidWord(n, tuple(letters))))


def _with_relator(w, rng):
    """The same braid as ``w``, spelled with a braid relator inserted."""
    i = rng.randrange(1, w.strands - 1)
    relator = BraidWord(w.strands, (i, i + 1, i, -(i + 1), -i, -(i + 1)))
    cut = rng.randrange(0, len(w) + 1)
    head, tail = BraidWord(w.strands, w.letters[:cut]), BraidWord(w.strands, w.letters[cut:])
    return B.concat_all(head, relator, tail)


def test_normal_form_agrees_with_handle_oracle():
    rng = random.Random(3)
    agreements = 0
    for trial in range(520):
        n = rng.randrange(2, 7)
        w1 = B.random_braid(n, rng.randrange(0, 40), rng)
        if trial % 2:
            u = B.random_braid(n, rng.randrange(0, 10), rng)
            w2 = B.concat_all(u, w1, B.invert(u), B.invert(w1), w1)
        else:
            w2 = B.random_braid(n, rng.randrange(0, 40), rng)
        nf_equal = B.normal_form(w1) == B.normal_form(w2)
        handle_equal = B.handle_trivial(B.concat(w1, B.invert(w2)))
        assert nf_equal == handle_equal
        agreements += 1
    assert agreements == 520
    # long words on B_8: an equal spelling and an unrelated word each
    for length in (120, 400):
        for trial in range(4):
            w1 = B.random_braid(8, length, rng)
            w2 = _with_relator(w1, rng) if trial % 2 else B.random_braid(8, length, rng)
            nf_equal = B.normal_form(w1) == B.normal_form(w2)
            assert nf_equal == bool(trial % 2)
            assert nf_equal == B.handle_trivial(B.concat(w1, B.invert(w2)))


def test_braid_platform_eq_agrees_with_normal_forms(monkeypatch):
    # eq answers unequal exponent sums without a normal form; it must agree
    # with the normal-form comparison on equal braids spelled differently,
    # on unequal braids with equal sums and on unequal sums
    from nakex.platforms import BraidPlatform, PlatformMismatch

    rng = random.Random(24)
    platform = BraidPlatform(6)
    pairs = []
    for _ in range(60):
        w = B.random_braid(6, rng.randrange(0, 40), rng)
        i, j = rng.sample(range(1, 6), 2)
        # (w1, w2, equal braids, equal exponent sums)
        pairs.append((w, _with_relator(w, rng), True, True))
        pairs.append((w, B.concat(w, BraidWord(6, (i, -j))), False, True))
        pairs.append((w, B.concat(w, BraidWord(6, (i,))), False, False))
    # a nonempty spelling of the identity has sum 0 and is still equal to it
    relator = BraidWord(6, (2, 3, 2, -3, -2, -3))
    pairs.append((relator, platform.identity(), True, True))
    normal_forms = 0
    normal_form = B.normal_form

    def counting(w):
        nonlocal normal_forms
        normal_forms += 1
        return normal_form(w)

    monkeypatch.setattr(B, "normal_form", counting)
    for w1, w2, equal, same_sum in pairs:
        normal_forms = 0
        assert platform.eq(w1, w2) == equal == (normal_form(w1) == normal_form(w2))
        assert normal_forms == (2 if same_sum else 0)
    # the operands are still checked first
    with pytest.raises(PlatformMismatch):
        platform.eq(Permutation((2, 1, 3)), BraidWord(6, (1,)))
    with pytest.raises(PlatformMismatch):
        BraidPlatform(3).eq(BraidWord(3, (1,)), BraidWord(5, (4, 4)))


def test_normal_form_idempotent_on_canonical_word():
    rng = random.Random(4)
    for _ in range(80):
        n = rng.randrange(2, 8)
        w = B.random_braid(n, rng.randrange(0, 25), rng)
        nf = B.normal_form(w)
        assert B.normal_form(B.canonical_word(w)) == nf


def _half_twist(n):
    """Delta = delta_2 delta_3 ... delta_n, where delta_j = sigma_(j-1) ... sigma_1."""
    return B.concat_all(*(B.with_strands(B.delta_word(j), n) for j in range(2, n + 1)))


def _delta_interleaved(n, blocks, rng):
    """delta_word(n) powers of both signs interleaved with runs of inverse letters."""
    delta = B.delta_word(n)
    out = BraidWord(n)
    for _ in range(blocks):
        power = B.concat_all(*[delta] * rng.randrange(0, 2 * n))
        out = B.concat(out, power if rng.random() < 0.6 else B.invert(power))
        run = tuple(-rng.randrange(1, n) for _ in range(rng.randrange(0, 5)))
        out = B.concat(out, BraidWord(n, run))
    return out


def _golden_words():
    rng = random.Random(20261018)
    words = [B.random_braid(n, length, rng)
             for n in range(3, 12)
             for length in (0, 1, 2, 5, 10, 25, 50, 100, 200, 400)
             for _ in range(2)]
    words += [B.random_braid(8, 1200, rng) for _ in range(3)]
    words += [_delta_interleaved(n, 12, rng) for n in (3, 5, 8) for _ in range(3)]
    return words


def test_normal_form_golden_digest():
    # The left normal form is unique, so any correct kernel gives this digest;
    # it was recorded from the earlier one-factor-per-letter kernel.
    digest = hashlib.sha256()
    for w in _golden_words():
        digest.update(B.encode_normal_form(B.normal_form.__wrapped__(w)))
        digest.update(B.encode_braid(B.canonical_word(w)))
    assert digest.hexdigest() == GOLDEN_NF_DIGEST


def _pairs_per_letter(monkeypatch):
    """A function of words giving left-weighted pairs per letter of their normal forms.

    Counts the pairs of both kernel paths: factor ids on up to 7 strands,
    factor lists on more.
    """
    from nakex import _kernels

    calls = 0
    left_weight_pair = _kernels._left_weight_pair
    left_weight_ids = _kernels._left_weight_ids

    def counting_pair(x, y):
        nonlocal calls
        calls += 1
        return left_weight_pair(x, y)

    def counting_ids(table, facs, k):
        nonlocal calls
        calls += 1
        return left_weight_ids(table, facs, k)

    monkeypatch.setattr(_kernels, "_left_weight_pair", counting_pair)
    monkeypatch.setattr(_kernels, "_left_weight_ids", counting_ids)

    def pairs_per_letter(words):
        nonlocal calls
        calls = 0
        for w in words:
            _kernels.word_to_nf(w.letters, w.strands)
        return calls / sum(len(w) for w in words)

    return pairs_per_letter


def test_normal_form_sweep_stays_short(monkeypatch):
    # left-weighted pairs per letter stay bounded as words grow; a sweep that
    # carries half twists to the head would grow with the word instead
    pairs_per_letter = _pairs_per_letter(monkeypatch)
    rng = random.Random(12)
    short = pairs_per_letter([B.random_braid(8, 120, rng) for _ in range(10)])
    long_words = [w for w in _golden_words() if w.strands == 8 and len(w) > 1000]
    assert len(long_words) == 3
    long = pairs_per_letter(long_words)
    assert short <= 8 and long <= 8
    assert long <= 1.5 * short


def test_normal_form_sweeps_once_per_simple_run(monkeypatch):
    # letters that keep the tail factor simple are read without a sweep, so a
    # run of inverse letters after a near-Delta factor costs one sweep
    pairs_per_letter = _pairs_per_letter(monkeypatch)
    rng = random.Random(12)
    assert pairs_per_letter([B.random_braid(8, 120, rng) for _ in range(10)]) <= 2.6
    rng = random.Random(15)
    mostly_inverse = []
    for n in range(4, 9):
        for _ in range(6):
            letters = []
            for _ in range(60):
                i = rng.randrange(1, n)
                letters.append(-i if rng.random() < 0.8 else i)
            mostly_inverse.append(B.freely_reduced(BraidWord(n, tuple(letters))))
    assert pairs_per_letter(mostly_inverse) <= 1.6


def _biased_word(n, length, inverse_share, rng):
    letters = []
    for _ in range(length):
        i = rng.randrange(1, n)
        letters.append(-i if rng.random() < inverse_share else i)
    return B.freely_reduced(BraidWord(n, tuple(letters)))


def test_factor_table_path_matches_list_path():
    # on B_3..B_7 word_to_nf runs on factor-table ids; the list kernel that
    # B_8 and up use must give the same forms
    from nakex import _kernels

    words = _reduced_words(3, 6) + _reduced_words(4, 5)
    assert len(words) == 1457 + 4687
    rng = random.Random(16)
    for n in (5, 6, 7):
        for share in (0, 0.5, 0.8):
            words += [_biased_word(n, rng.randrange(0, 201), share, rng) for _ in range(12)]
    for w in words:
        if w.letters:  # the paths take nonempty freely reduced words
            assert _kernels._nf_table(w.letters, w.strands) == _kernels._nf_lists(w.letters, w.strands)


def test_word_to_nf_takes_unreduced_words():
    # the incremental form cancels adjacent inverse pairs itself, on the
    # table path (B_3..B_7) and on the list path (B_8 and up)
    import itertools

    from nakex import _kernels

    words = []
    for n, max_len in ((3, 6), (4, 4), (8, 3)):
        generators = [e for i in range(1, n) for e in (i, -i)]
        for k in range(max_len + 1):
            words += [(n, w) for w in itertools.product(generators, repeat=k)]
    rng = random.Random(13)
    for _ in range(600):
        n = rng.randrange(3, 13)
        w = []
        for _ in range(rng.randrange(1, 40)):
            e = rng.choice((1, -1)) * rng.randrange(1, n)
            w += [e, -e] if rng.random() < 0.3 else [e]
        words.append((n, tuple(w)))
    unreduced = 0
    for n, w in words:
        reduced = _kernels.free_reduce(w)
        unreduced += reduced != w
        assert _kernels.word_to_nf(w, n) == _kernels.word_to_nf(reduced, n)
    assert unreduced > 3000


def test_factor_tables_fill_safely_from_two_threads(monkeypatch):
    # two threads normalize the same words on empty tables, so both fill the
    # same entries at once; a fill that is not atomic misplaces fields
    import sys
    import threading

    from nakex import _kernels

    rng = random.Random(18)
    words = [B.random_braid(n, 150, rng) for n in (6, 7) for _ in range(8)]
    expected = [_kernels._nf_lists(w.letters, w.strands) for w in words]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            monkeypatch.setattr(_kernels, "_TABLES", {})
            barrier = threading.Barrier(2, timeout=30)
            results = [None, None]

            def normalize(slot):
                barrier.wait()
                results[slot] = [_kernels.word_to_nf(w.letters, w.strands) for w in words]

            threads = [threading.Thread(target=normalize, args=(slot,)) for slot in (0, 1)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert results == [expected, expected]
    finally:
        sys.setswitchinterval(interval)


def _move_loop_pair(table, x, y):
    """The list kernel's left-weighting of the pair of ids (x, y): (moved, images)."""
    from nakex import _kernels

    xs = [v - 1 for v in table.images[x]]
    ys = [v - 1 for v in table.images[y]]
    moved = _kernels._left_weight_pair(xs, ys)
    return moved, (tuple([v + 1 for v in xs]), tuple([v + 1 for v in ys]))


def test_factor_tables_are_complete_when_made():
    # a new table of B_3..B_7 holds every simple braid and every step, each
    # equal to its definition on the images, and an empty memo
    import itertools
    from array import array

    from nakex import _kernels

    for n in range(3, 8):
        table = _kernels._FactorTable(n)
        images = table.images
        delta = tuple(range(n, 0, -1))
        near = [tuple([j + 1 if v == j else j if v == j + 1 else v for v in delta]) for j in range(1, n)]
        assert images[:n + 1] == [tuple(range(1, n + 1)), delta, *near]
        rest = [p for p in itertools.permutations(range(1, n + 1)) if p not in images[:n + 1]]
        assert images[n + 1:] == rest and len(images) == math.factorial(n)
        ids = {p: k for k, p in enumerate(images)}

        def descents(p):
            return sum(1 << i for i in range(n - 1) if p[i] > p[i + 1])

        for x, p in enumerate(images):
            inverse = tuple(sorted(range(1, n + 1), key=lambda v: p[v - 1]))
            assert table.start[x] == descents(p) and table.finish[x] == descents(inverse)
            for i in range(n - 1):
                swapped = list(p)
                swapped[i], swapped[i + 1] = p[i + 1], p[i]
                assert table.pswap[i][x] == ids[tuple(swapped)]
                values = {i + 1: i + 2, i + 2: i + 1}
                assert table.vswap[i][x] == ids[tuple([values.get(v, v) for v in p])]
            assert table.tau[x] == ids[tuple([n + 1 - v for v in reversed(p)])]
        co_length = [sum(a < b for a, b in itertools.combinations(p, 2)) for p in images]
        columns = [y for y in range(len(images)) if 1 <= co_length[y] <= 3]
        assert table.columns == columns and len(columns) == (5, 14, 28, 48, 75)[n - 3] == table.cols
        assert table.col == [columns.index(y) if y in columns else -1 for y in range(len(images))]
        assert table.memo == array("i", [-1]) * (len(images) * table.cols)


def test_memo_step_matches_the_move_loop():
    # a fresh table holds ids 2..n as the near-Delta factors, and the simple
    # braids of co-length 1..3 get the memo columns; for every simple braid x
    # of B_3..B_7 and every near-Delta y, every memo column y on B_3..B_6,
    # and a seeded sample of the co-length 2..3 columns on B_7, the pair
    # (x, y) is left-weighted by the memo step as the list kernel's move loop
    # does it, whether its slot is empty or filled
    from array import array

    from nakex import _kernels

    rng = random.Random(24)
    for n in range(3, 8):
        table = _kernels._FactorTable(n)
        assert len(table.images) == math.factorial(n)
        assert table.memo == array("i", [-1]) * (math.factorial(n) * table.cols)
        images = table.images
        cols = table.cols
        delta = tuple(range(n, 0, -1))
        for j in range(n - 1):
            word = _kernels.nf_factor_word(delta) + (-(j + 1),)  # Delta sigma_(j+1)^-1
            assert _kernels._nf_lists(word, n) == (0, [images[2 + j]])
        assert len(images) == math.factorial(n) and len(table.memo) == len(images) * cols
        columns = table.columns
        co_length = [n * (n - 1) // 2 - len(_kernels.nf_factor_word(p)) for p in images]
        assert len(columns) == cols
        assert sorted(columns) == [y for y, c in enumerate(co_length) if 1 <= c <= 3]
        assert [table.col[y] for y in columns] == list(range(cols))
        near = list(range(2, n + 1))
        assert [y for y in columns if co_length[y] == 1] == near
        if n < 7:
            ys = columns
        else:
            ys = near + rng.sample([y for y in columns if co_length[y] > 1], 2)
        filled = 0
        for y in ys:
            for x in range(len(images)):
                moved, expected = _move_loop_pair(table, x, y)
                for _ in range(2):  # the first fills the slot, the second reads it
                    facs = [x, y]
                    assert _kernels._left_weight_ids(table, facs, 1) == moved
                    assert (images[facs[0]], images[facs[1]]) == expected
                pair = table.memo[x * cols + table.col[y]]
                assert pair == ((facs[0] << _kernels._ID_BITS | facs[1]) if moved else -1)
                filled += moved
        assert sum(pair != -1 for pair in table.memo) == filled > 0


def _mixed_sign_words(seed, count, max_len):
    rng = random.Random(seed)
    return [
        _biased_word(n, rng.randrange(1, max_len), share, rng)
        for n in range(3, 8) for share in (0.3, 0.5, 0.8) for _ in range(count)
    ]


def test_filled_memo_gives_the_list_forms(monkeypatch):
    # tables whose memo slots are all filled before any word is read give the
    # list kernel's forms: every pair within three letters of Delta is read
    # from its slot
    from nakex import _kernels

    words = _mixed_sign_words(25, 6, 120)
    tables = {}
    for n in range(3, 8):
        table = tables[n] = _kernels._FactorTable(n)
        for y in table.columns:
            for x in range(len(table.images)):
                _kernels._left_weight_ids(table, [x, y], 1)
    filled = {n: table.memo.tobytes() for n, table in tables.items()}
    monkeypatch.setattr(_kernels, "_TABLES", tables)
    for w in words:
        if w.letters:
            assert _kernels._nf_table(w.letters, w.strands) == _kernels._nf_lists(w.letters, w.strands)
    assert {n: table.memo.tobytes() for n, table in tables.items()} == filled


def test_memo_fills_safely_from_two_threads(monkeypatch):
    # two threads normalize the same inverse-heavy words from no tables, so
    # both race to make each table and then fill the same memo slots at once;
    # the forms match the list kernel's, and every slot filled holds the move
    # loop's pair
    import sys
    import threading

    from nakex import _kernels

    words = _mixed_sign_words(26, 4, 150)
    expected = [_kernels._nf_lists(w.letters, w.strands) for w in words if w.letters]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(2):
            monkeypatch.setattr(_kernels, "_TABLES", {})
            barrier = threading.Barrier(2, timeout=30)
            results = [None, None]

            def normalize(slot):
                barrier.wait()
                results[slot] = [_kernels.word_to_nf(w.letters, w.strands) for w in words if w.letters]

            threads = [threading.Thread(target=normalize, args=(slot,)) for slot in (0, 1)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert results == [expected, expected]
            for table in _kernels._TABLES.values():
                assert len(table.memo) == len(table.images) * table.cols
                columns = table.columns
                for slot, pair in enumerate(table.memo):
                    if pair != -1:
                        x, c = divmod(slot, table.cols)
                        moved, pair_images = _move_loop_pair(table, x, columns[c])
                        x1, y1 = pair >> _kernels._ID_BITS, pair & ((1 << _kernels._ID_BITS) - 1)
                        assert moved and (table.images[x1], table.images[y1]) == pair_images
    finally:
        sys.setswitchinterval(interval)


def test_normal_forms_share_one_object_per_simple_braid():
    # on B_3..B_7 every factor of every form is the one Permutation of its
    # simple braid, across separate calls; B_8 and up make new factors
    rng = random.Random(22)
    words = [B.random_braid(n, rng.randrange(1, 60), rng) for n in range(3, 8) for _ in range(40)]
    seen = {}
    for _ in range(2):
        for w in words:
            for factor in B.normal_form.__wrapped__(w).factors:
                assert seen.setdefault(factor.images, factor) is factor
    assert len(seen) > 400
    w = B.random_braid(8, 40, rng)
    first, second = B.normal_form.__wrapped__(w), B.normal_form.__wrapped__(w)
    assert first == second and first.factors
    assert not any(a is b for a, b in zip(first.factors, second.factors))


def test_threads_share_one_object_per_simple_braid(monkeypatch):
    # four threads (more than the two session endpoints, and than most CI
    # cores) normalize the same words from empty tables, so they reach each
    # new simple braid at once; each braid must still get one object
    import sys
    import threading

    from nakex import _kernels

    rng = random.Random(23)
    words = [B.random_braid(n, 150, rng) for n in (6, 7) for _ in range(8)]
    workers = 4
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            monkeypatch.setattr(_kernels, "_TABLES", {})
            monkeypatch.setattr(B, "_SIMPLE", {})
            barrier = threading.Barrier(workers, timeout=30)
            results = [None] * workers

            def normalize(slot):
                barrier.wait()
                results[slot] = [B.normal_form.__wrapped__(w) for w in words]

            threads = [threading.Thread(target=normalize, args=(slot,)) for slot in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert all(forms == results[0] for forms in results)
            seen = {}
            for forms in results:
                for nf in forms:
                    for factor in nf.factors:
                        assert seen.setdefault(factor.images, factor) is factor
            assert all(B._SIMPLE[images][0] is factor for images, factor in seen.items())
    finally:
        sys.setswitchinterval(interval)


def test_stored_factor_words_are_the_shortlex_words():
    # every simple braid of B_3..B_7: the shared factor is its permutation and
    # the stored word is what the reference kernel reads off it
    import itertools

    from nakex import _kernels

    count = 0
    for n in range(3, 8):
        for images in itertools.permutations(range(1, n + 1)):
            factor, word = B._simple(images)
            assert factor == Permutation(images)
            assert type(word) is tuple and word == _kernels.nf_factor_word(images)
            count += 1
    assert count == 3 * 2 + 4 * 3 * 2 + 120 + 720 + 5040 == 5910


@pytest.mark.parametrize("n", range(3, 8))
def test_canonical_word_of_delta_powers(n):
    # Delta^k reads as k copies of Delta's shortlex word 1, 2 1, 3 2 1, ...,
    # Delta^-k as k copies of its inverse; these are the words read before
    # the blocks were stored
    delta = tuple(e for j in range(1, n) for e in range(j, 0, -1))
    assert delta[:6] == ((1, 2, 1) if n == 3 else (1, 2, 1, 3, 2, 1))
    inverse = tuple(-e for e in reversed(delta))
    for k in (1, 2, 3):
        power = B.concat_all(*[_half_twist(n)] * k)
        assert B.canonical_word(power) == BraidWord(n, delta * k)
        assert B.canonical_word(B.invert(power)) == BraidWord(n, inverse * k)


def test_delta_powers_move_only_the_infimum():
    # Delta^k w = Delta^(k + inf) f_1 ... f_l, and w Delta^k = Delta^k tau^k(w),
    # with tau(f)(i) = n + 1 - f(n + 1 - i) on factors; the words interleave
    # delta powers with inverse letters, so tau parity and the absorption of
    # leading half twists both matter.
    rng = random.Random(10)
    for n in (3, 4, 6, 8):
        half_twist = _half_twist(n)
        assert B.normal_form(half_twist) == GarsideNormalForm(n, 1, ())
        full_twist = B.concat_all(*[B.delta_word(n)] * n)
        assert B.normal_form(full_twist) == GarsideNormalForm(n, 2, ())
        for _ in range(6):
            w = _delta_interleaved(n, rng.randrange(1, 8), rng)
            base = B.normal_form(w)
            twisted = tuple(
                Permutation(tuple(n + 1 - v for v in reversed(f.images))) for f in base.factors
            )
            for k in (-3, -1, 1, 2, 5):
                power = B.concat_all(*[half_twist] * abs(k))
                power = power if k > 0 else B.invert(power)
                left = B.normal_form(B.concat(power, w))
                assert left == GarsideNormalForm(n, base.infimum + k, base.factors)
                right = B.normal_form(B.concat(w, power))
                assert right.infimum == base.infimum + k
                assert right.factors == (twisted if k % 2 else base.factors)


@settings(max_examples=60, deadline=None)
@given(words())
def test_inverse_cancels(w):
    assert B.normal_form(B.concat(w, B.invert(w))).is_identity()


@settings(max_examples=60, deadline=None)
@given(words(max_len=12), words(max_len=12), st.integers(0, 3))
def test_shift_multiplicative(w1, w2, p):
    lhs = B.shift(B.concat(w1, w2), p)
    rhs = B.concat(B.shift(w1, p), B.shift(w2, p))
    assert lhs == rhs


# -- handle reduction ---------------------------------------------------------


def test_handle_reduce_examples():
    assert B.handle_reduce(BraidWord(2, (1, -1))).letters == ()
    assert B.handle_reduce(BraidWord(3, (1, 2, 1, -2, -1, -2))).letters == ()
    assert B.handle_reduce(BraidWord(3, (1, -2))).letters != ()


def test_handle_reduce_preserves_braid():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randrange(2, 7)
        w = B.random_braid(n, rng.randrange(0, 25), rng)
        assert B.braids_equal(w, B.handle_reduce(w))


# -- delta, tau ----------------------------------------------------------------


def test_delta_and_tau_words():
    assert B.delta_word(2) == BraidWord(2, (1,))
    assert B.delta_word(4).letters == (3, 2, 1)
    assert B.tau(1, 1) == BraidWord(2, (1,))
    assert B.tau(1, 2).letters == (1, 2)
    assert B.tau(2, 2).strands == 4
    with pytest.raises(ValueError):
        B.delta_word(1)
    with pytest.raises(ValueError):
        B.tau(0, 1)
    with pytest.raises(ValueError):
        B.tau(1, 0)


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_tau_braid_like_relation(p):
    a = B.tau(p, p)
    da = B.shift(a, p)
    assert B.braids_equal(B.concat_all(a, da, a), B.concat_all(da, a, da))


# -- strand removal -------------------------------------------------------------


def test_remove_strands_examples():
    assert B.remove_strands(BraidWord(3, (1, 1)), 1) == BraidWord(2, (1, 1))
    assert B.remove_strands(BraidWord(3, (2, 2)), 1) == BraidWord(2)
    with pytest.raises(ValueError):
        B.remove_strands(BraidWord(3, (1,)), 1)  # not pure
    with pytest.raises(ValueError):
        B.remove_strands(BraidWord(3, (1, 1)), 3)  # d >= n


def test_remove_strands_representative_independent():
    rng = random.Random(6)
    for _ in range(60):
        w = B.random_pure_braid(6, rng, conj_len=5)
        other = B.canonical_word(w)  # a different word for the same braid
        assert B.normal_form(w) == B.normal_form(other)
        lhs = B.remove_strands(w, 2)
        rhs = B.remove_strands(other, 2)
        assert B.braids_equal(lhs, rhs)
        assert B.is_pure(lhs)


def _remove_strands_reference(letters, n, d):
    """Strand removal by tracking every strand, recounting removed strands per crossing."""
    keep = n - d
    cur = list(range(n))
    out = []
    for e in letters:
        j = abs(e) - 1
        u, v = cur[j], cur[j + 1]
        if u < keep and v < keep:
            newj = j - sum(1 for k in range(j) if cur[k] >= keep) + 1
            out.append(newj if e > 0 else -newj)
        cur[j], cur[j + 1] = v, u
    return B.freely_reduced(BraidWord(keep, tuple(out))).letters


def test_remove_strands_matches_strand_tracking():
    from nakex import _kernels

    rng = random.Random(19)
    for _ in range(80):
        n = rng.randrange(3, 9)
        w = B.random_pure_braid(n, rng, conj_len=rng.randrange(1, 9), blocks=3)
        for d in range(1, n):
            assert _kernels.remove_strands_word(w.letters, n, d) == _remove_strands_reference(w.letters, n, d)


def test_pure_braid_endo():
    assert B.pure_braid_endo(BraidWord(3, (1, 1)), 1) == BraidWord(3, (2, 2))
    assert B.pure_braid_endo(BraidWord(3), 1) == BraidWord(3)


def test_pure_braid_endo_multiplicative():
    rng = random.Random(7)
    for _ in range(100):
        w1 = B.random_pure_braid(6, rng, conj_len=4)
        w2 = B.random_pure_braid(6, rng, conj_len=4)
        lhs = B.pure_braid_endo(B.concat(w1, w2), 2)
        rhs = B.concat(B.pure_braid_endo(w1, 2), B.pure_braid_endo(w2, 2))
        assert B.braids_equal(lhs, rhs)
        assert B.is_pure(lhs)


# -- random generation ----------------------------------------------------------


# refusal case -> (call, exception class, message)
BRAID_REFUSALS = {
    "shift_negative": (
        lambda: B.shift(BraidWord(3, (1,)), -1), ValueError, "shift amount must be nonnegative",
    ),
    "random_braid_1_strand": (
        lambda: B.random_braid(1, 4, random.Random(0)), ValueError, "random_braid requires n >= 2",
    ),
    "random_braid_negative_length": (
        lambda: B.random_braid(3, -1, random.Random(0)), ValueError, "length must be nonnegative",
    ),
}


@pytest.mark.parametrize("case", list(BRAID_REFUSALS))
def test_typed_refusals(case):
    call, cls, message = BRAID_REFUSALS[case]
    with pytest.raises(cls) as exc:
        call()
    assert type(exc.value) is cls and str(exc.value) == message


def test_random_braid_contract():
    rng = random.Random(8)
    assert B.random_braid(2, 0, rng).letters == ()
    w = B.random_braid(2, 3, rng)
    assert len(w.letters) <= 3 and all(abs(e) == 1 for e in w.letters)
    assert B.random_braid(5, 20, random.Random(42)) == B.random_braid(5, 20, random.Random(42))


# -- serialization ---------------------------------------------------------------


def test_braid_codec_roundtrip():
    rng = random.Random(9)
    for _ in range(50):
        n = rng.randrange(2, 9)
        w = B.random_braid(n, rng.randrange(0, 30), rng)
        data = B.encode_braid(w)
        decoded, offset = B.decode_braid(data)
        assert decoded == w and offset == len(data)
    blob = B.encode_braid(BraidWord(3, (1, -2))) + B.encode_braid(BraidWord(2, (1,)))
    first, offset = B.decode_braid(blob)
    second, end = B.decode_braid(blob, offset)
    assert first.letters == (1, -2) and second.letters == (1,) and end == len(blob)


def test_decode_braid_rejects_every_truncation():
    data = B.encode_braid(BraidWord(5, (1, -2, 4, 3, -1)))
    for cut in range(len(data)):
        with pytest.raises(ValueError):
            B.decode_braid(data[:cut])
    with pytest.raises(ValueError):
        B.decode_braid(b"\x00\x03\x00\x00\x00\x05\x00\x01")


def test_import_loads_no_numpy_or_numba():
    import subprocess
    import sys
    from pathlib import Path

    import nakex

    code = (
        "import sys\n"
        "from nakex import braid as B\n"
        "B.normal_form(B.BraidWord(4, (1, 2, -1, 3, -2)))\n"
        "print(sorted({'numpy', 'numba'} & set(sys.modules)))\n"
    )
    src = str(Path(nakex.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code], env={"PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout.strip() == "[]"


def test_encode_braid_layout():
    data = B.encode_braid(BraidWord(3, (1, -2)))
    assert data == b"\x00\x03" + b"\x00\x00\x00\x02" + b"\x00\x01" + b"\xff\xfe"


def test_normal_form_encoding_deterministic():
    w1 = BraidWord(3, (1, 2, 1))
    w2 = BraidWord(3, (2, 1, 2))
    assert B.encode_normal_form(B.normal_form(w1)) == B.encode_normal_form(B.normal_form(w2))

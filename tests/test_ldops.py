import hashlib
import itertools
import random

import pytest

from endo_utils import inner_point_map, sign_endo
from nakex import braid as B
from nakex import ldops as L
from nakex.braid import BraidWord, Permutation
from nakex.platforms import (
    BraidPlatform,
    IdentityEndo,
    InnerEndo,
    MultModPlatform,
    PointMapEndo,
    PowerShiftEndo,
    SymmetricPlatform,
)

S3 = SymmetricPlatform(3)
S4 = SymmetricPlatform(4)
S5 = SymmetricPlatform(5)
SIGMA1 = BraidWord(2, (1,))


# -- apply: the defining formulas --------------------------------------------


def test_apply_examples():
    # sym_conj with x = identity gives y^-1
    y = Permutation((2, 3, 1))
    assert L.apply_op(L.sym_conj_op(S3), S3.identity(), y) == S3.inv(y)

    # shifted with x = y = identity gives the braid parameter
    op = L.shifted_op(1, SIGMA1)
    out = L.apply_op(op, BraidWord(2), BraidWord(2))
    assert B.braids_equal(out, SIGMA1)

    # conjugation relabels points: (1 2)^-1 (1 3) (1 2) = (2 3)
    swap12 = Permutation((2, 1, 3))
    cycle13 = Permutation((3, 2, 1))
    swap23 = Permutation((1, 3, 2))
    assert L.apply_op(L.conj_op(S3), swap12, cycle13) == swap23


def test_laver_small_values():
    a1 = L.laver_table(1)
    assert a1.rows == ((2, 2), (1, 2))
    a2 = L.laver_table(2)
    assert a2.rows[0] == (2, 4, 2, 4)
    op = L.laver_op(1)
    assert L.apply_op(op, 1, 1) == 2
    assert L.apply_op(op, 1, 2) == 2
    assert all(L.apply_op(op, 2, q) == q for q in (1, 2))


def test_laver_row_one_cyclic_successor():
    for n in range(0, 5):
        table = L.laver_table(n)
        for p in range(1, table.size + 1):
            assert table.value(p, 1) == (p % table.size) + 1


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_laver_exhaustive_ld(n):
    assert L.verify_ld_exhaustive(L.laver_op(n)).passed


def test_laver_sampled_ld():
    # the Laver table is its op's carrier, so it is sampled like a finite group
    op = L.laver_op(3)
    verdict = L.verify_ld(op, 200, random.Random(8))
    assert verdict.passed and verdict.checked == 200 and verdict.law == "ld"
    assert L.op_sample(op, random.Random(8)) == random.Random(8).randrange(1, 9)


def test_laver_range():
    with pytest.raises(ValueError):
        L.laver_table(6)
    L.laver_table(5)  # 32x32 is fine


# -- the op catalog, pinned -----------------------------------------------------

# sha256 over the raw output of every op constructor on seeded inputs and the
# exact message of every refused descriptor; LD verdicts alone would not see a
# swapped formula that is still LD.
GOLDEN_OP_CATALOG_DIGEST = "e3f3cdf0a5e6d85bdb9de8143243a42fe6a543e47df013cf70b3c74e70bac592"


def _raw(z):
    if isinstance(z, BraidWord):
        return ("braid", z.strands, z.letters)
    if isinstance(z, Permutation):
        return ("perm", z.images)
    return ("value", z)


def _catalog():
    """(name, op, input pairs) for every op constructor."""
    rng = random.Random(2012)
    f = InnerEndo(S4, Permutation((2, 3, 1, 4)))
    g = InnerEndo(S4, Permutation((1, 2, 4, 3)))
    e = sign_endo(S4, Permutation((2, 1, 3, 4)))
    b4 = BraidPlatform(4)
    fb = InnerEndo(b4, BraidWord(4, (1, -3, 2)))
    gb = InnerEndo(b4, BraidWord(4, (-2, 3)))
    idb = IdentityEndo(b4)
    s4_pairs = [(S4.random_element(rng), S4.random_element(rng)) for _ in range(8)]
    b4_pairs = [(B.random_braid(4, 7, rng), B.random_braid(4, 7, rng)) for _ in range(4)]
    b5_pairs = [(B.random_braid(5, 7, rng), B.random_braid(5, 7, rng)) for _ in range(4)]
    # words that are not freely reduced
    b5_pairs.append((BraidWord(5, (1, -1, 2, 4, -4)), BraidWord(4, (3, -3, -1, 1, 2))))
    empty = BraidWord(1)
    s2 = BraidWord(2, (1,))
    group = [
        ("conj", lambda p, f, g, h: L.conj_op(p)),
        ("f_conj", lambda p, f, g, h: L.f_conj_op(f)),
        ("f_conj_rev", lambda p, f, g, h: L.f_conj_rev_op(f)),
        ("twisted_conj", lambda p, f, g, h: L.twisted_conj_op(f)),
        ("sym_conj", lambda p, f, g, h: L.sym_conj_op(p)),
        ("bullet", lambda p, f, g, h: L.bullet_op(p)),
        ("beta_kl", lambda p, f, g, h: L.beta_kl_op(p, 3, -2)),
        ("fgh_conj", lambda p, f, g, h: L.fgh_conj_op(f, g, h)),
        ("fgh_sym", lambda p, f, g, h: L.fgh_sym_op(f, g, h)),
    ]
    out = []
    for name, build in group:
        out.append((name + "/S4", build(S4, f, g, e), s4_pairs))
        out.append((name + "/B4", build(b4, fb, gb, idb), b4_pairs))
    for name, build in (("f_sym_conj", L.f_sym_conj_op), ("f_sym_conj_rev", L.f_sym_conj_rev_op)):
        out.append((name + "/S4", build(e), s4_pairs))
        out.append((name + "/B4", build(idb), b4_pairs))
    for name, build in (
        ("shifted", L.shifted_op),
        ("shifted_bar", L.shifted_bar_op),
        ("shifted_rev", L.shifted_rev_op),
    ):
        out.append((name + "/default", build(), b4_pairs))
        out.append((name + "/p2", build(2), b5_pairs))
        out.append((name + "/p2a", build(2, BraidWord(4, (1, 3, -2))), b5_pairs))
    out.append(("make_generalized_shifted", L.make_generalized_shifted(2, s2, s2), b5_pairs))
    for i, op in enumerate(L.make_generalized_shifted_family(2, [(s2, s2), (BraidWord(2, (1, 1)), empty)])):
        out.append((f"make_generalized_shifted_family/{i}", op, b5_pairs))
    bi = L.make_generalized_shifted_bi(2, (s2, s2), (s2, BraidWord(2, (-1,))))
    for i, op in enumerate(bi):
        out.append((f"make_generalized_shifted_bi/{i}", op, b5_pairs))
    split = L.make_split_shifted(1, 2, empty, empty, s2, BraidWord(2, (1, 1)))
    out.append(("make_split_shifted", split, b5_pairs))
    out.append(("laver/3", L.laver_op(3), list(itertools.product(range(1, 9), repeat=2))))
    return out


def _refusals():
    """(name, thunk) for every descriptor the catalog refuses."""
    b2 = BraidPlatform(2)
    return [
        ("shifted on S4", lambda: L.OpDescriptor("shifted", S4, a=SIGMA1)),
        ("shifted_bar on S4 without a", lambda: L.OpDescriptor("shifted_bar", S4)),
        ("shifted_rev on laver", lambda: L.OpDescriptor("shifted_rev", L.laver_table(2), a=SIGMA1)),
        ("laver on S4", lambda: L.OpDescriptor("laver", S4)),
        ("laver on B2", lambda: L.OpDescriptor("laver", b2)),
        ("unknown kind", lambda: L.OpDescriptor("nonsense", S4)),
        ("conj without platform", lambda: L.OpDescriptor("conj", None)),
        ("f_sym_conj not idempotent", lambda: L.f_sym_conj_op(InnerEndo(S3, Permutation((2, 3, 1))))),
        ("f_sym_conj_rev not idempotent", lambda: L.f_sym_conj_rev_op(InnerEndo(S4, Permutation((2, 1, 3, 4))))),
        ("shifted without a", lambda: L.OpDescriptor("shifted", b2)),
        ("shifted_bar without a", lambda: L.OpDescriptor("shifted_bar", b2, p=2)),
        ("shifted_rev with p 0", lambda: L.OpDescriptor("shifted_rev", b2, a=SIGMA1, p=0)),
        ("shifted with p -1", lambda: L.OpDescriptor("shifted", b2, a=SIGMA1, p=-1)),
        ("shifted_op with p 0", lambda: L.shifted_op(0, SIGMA1)),
    ]


def test_op_catalog_golden_digest():
    h = hashlib.sha256()
    for name, op, pairs in _catalog():
        for x, y in pairs:
            h.update(repr((name, _raw(x), _raw(y), _raw(L.apply_op(op, x, y)))).encode())
    for name, thunk in _refusals():
        with pytest.raises(ValueError) as info:
            thunk()
        h.update(repr((name, type(info.value).__name__, str(info.value))).encode())
    assert h.hexdigest() == GOLDEN_OP_CATALOG_DIGEST


# -- law verdicts, pinned --------------------------------------------------------

# sha256 over (case, law, passed, checked, counterexample) of every verifier on
# fixed seeds, failing laws included, so that how a verifier runs its law can
# change neither a verdict nor where a check stops nor the triple it reports.
GOLDEN_LAW_VERDICT_DIGEST = "9b7face6515902d1a63ab1b5ee9b58cf2ec73cbc270cb7cedb6f8b771b9f87ad"


def _power_map(platform, e):
    """x -> x^e on MultModPlatform, as an explicit table."""
    return PointMapEndo(platform, tuple((x, pow(x, e, platform.modulus)) for x in platform.elements()))


def _group_ops(G, f, g, e):
    """(name, op) for every group kind on G; f and g are automorphisms, e an
    idempotent endomorphism."""
    ident = IdentityEndo(G)
    return [
        ("conj", L.conj_op(G)),
        ("f_conj", L.f_conj_op(f)),
        ("f_conj_rev", L.f_conj_rev_op(f)),
        ("twisted_conj", L.twisted_conj_op(f)),
        ("sym_conj", L.sym_conj_op(G)),
        ("bullet", L.bullet_op(G)),
        ("f_sym_conj", L.f_sym_conj_op(e)),
        ("f_sym_conj_rev", L.f_sym_conj_rev_op(e)),
        ("beta_kl/1,1", L.beta_kl_op(G, 1, 1)),
        ("beta_kl/2,-1", L.beta_kl_op(G, 2, -1)),
        ("fgh_conj/ffi", L.fgh_conj_op(f, f, ident)),
        ("fgh_conj/fgi", L.fgh_conj_op(f, g, ident)),
        ("fgh_sym/eei", L.fgh_sym_op(e, e, ident)),
        ("fgh_sym/ffi", L.fgh_sym_op(f, f, ident)),
    ]


def _verdict_cases():
    """(name, check) for each law check; ``check(rng)`` gives its verdict."""
    m13 = MultModPlatform(13)
    groups = [
        ("S4", S4, InnerEndo(S4, Permutation((2, 3, 1, 4))), InnerEndo(S4, Permutation((1, 2, 4, 3))),
         sign_endo(S4, Permutation((2, 1, 3, 4))), sign_endo(S4, Permutation((1, 2, 4, 3)))),
        ("S5", S5, InnerEndo(S5, Permutation((2, 3, 4, 5, 1))), InnerEndo(S5, Permutation((2, 1, 3, 5, 4))),
         sign_endo(S5, Permutation((1, 3, 2, 4, 5))), sign_endo(S5, Permutation((2, 1, 3, 4, 5)))),
        # x -> x^5 and x -> x^7 are automorphisms mod 13; x^4 and x^9 idempotent
        ("M13", m13, _power_map(m13, 5), _power_map(m13, 7), _power_map(m13, 4), _power_map(m13, 9)),
    ]
    cases = []
    for gname, G, f, g, e, e2 in groups:
        ops = _group_ops(G, f, g, e)
        for name, op in ops:
            cases.append((f"{gname}/{name}/ld", lambda rng, op=op: L.verify_ld(op, 60, rng)))
            if G is not S5:
                cases.append((f"{gname}/{name}/exhaustive", lambda rng, op=op: L.verify_ld_exhaustive(op)))
        twisted = L.twisted_conj_op(f)
        cases += [
            (f"{gname}/twisted/near_ld", lambda rng, op=twisted, f=f: L.verify_near_ld(op, f, 60, rng)),
            (f"{gname}/twisted/near_ld_wrong_f", lambda rng, op=twisted, g=g: L.verify_near_ld(op, g, 60, rng)),
            (f"{gname}/f_conj over sym_conj", lambda rng, G=G, f=f: L.check_distributivity(
                L.f_conj_op(f), L.sym_conj_op(G), 60, rng)),
            (f"{gname}/f_sym_conj over f_sym_conj", lambda rng, e=e, e2=e2: L.check_distributivity(
                L.f_sym_conj_op(e), L.f_sym_conj_op(e2), 60, rng)),
            (f"{gname}/twisted over conj", lambda rng, op=twisted, G=G: L.check_distributivity(
                op, L.conj_op(G), 60, rng)),
            (f"{gname}/multi conj sym_conj", lambda rng, G=G: L.verify_multi_ld(
                [L.conj_op(G), L.sym_conj_op(G)], 20, rng)),
            (f"{gname}/multi f_conj twisted", lambda rng, f=f, op=twisted: L.verify_multi_ld(
                [L.f_conj_op(f), op], 20, rng)),
        ]
    t = B.tau(2, 2)
    shifted = [
        ("shifted", L.shifted_op(2)),
        ("shifted_bar", L.shifted_bar_op(2)),
        ("shifted_rev", L.shifted_rev_op(2)),
        ("shifted/bad", L.shifted_op(2, BraidWord(4, (1, 3, -2)))),
        ("shifted_rev/bad", L.shifted_rev_op(2, BraidWord(4, (1, 2)))),
    ]
    for name, op in shifted:
        cases.append((f"B4/{name}/ld", lambda rng, op=op: L.verify_ld(op, 8, rng, braid_len=3)))
    a1 = B.concat_all(BraidWord(2, (1,)), t)
    a2 = B.concat_all(t, BraidWord(2, (-1,)))
    cases += [
        ("B4/bi_ld", lambda rng: L.verify_multi_ld([L.shifted_op(2), L.shifted_bar_op(2)], 3, rng, braid_len=3)),
        ("B4/multi/bad", lambda rng: L.verify_multi_ld(
            [L.shifted_op(2, a1), L.shifted_op(2, BraidWord(4, (1, 3, -2)))], 4, rng, braid_len=2)),
        ("B4/shifted over shifted_bar", lambda rng: L.check_distributivity(
            L.shifted_op(2, a2), L.shifted_bar_op(2), 4, rng, braid_len=3)),
        ("B4/shifted_rev over shifted", lambda rng: L.check_distributivity(
            L.shifted_rev_op(2), L.shifted_op(2), 4, rng, braid_len=3)),
    ]
    for n in (1, 2, 3, 4):
        op = L.laver_op(n)
        cases += [
            (f"A{n}/exhaustive", lambda rng, op=op: L.verify_ld_exhaustive(op)),
            (f"A{n}/ld", lambda rng, op=op: L.verify_ld(op, 50, rng)),
            (f"A{n}/multi", lambda rng, op=op: L.verify_multi_ld([op, op], 10, rng)),
            (f"A{n}/distributivity", lambda rng, op=op: L.check_distributivity(op, op, 20, rng)),
        ]
    return cases


def test_law_verdict_golden_digest():
    h = hashlib.sha256()
    outcomes = set()
    for seed, (name, check) in enumerate(_verdict_cases()):
        v = check(random.Random(seed))
        ce = None if v.counterexample is None else tuple(_raw(c) for c in v.counterexample)
        h.update(repr((name, v.law, v.passed, v.checked, ce)).encode())
        outcomes.add(v.passed)
    assert outcomes == {True, False}
    assert h.hexdigest() == GOLDEN_LAW_VERDICT_DIGEST


def _exhaustive_ops():
    """(name, op) for every kind with a finite carrier, on S_3, S_4, the
    residues mod 13 and the Laver tables A_0..A_4, failing laws among them."""
    m13 = MultModPlatform(13)
    groups = [
        ("S3", S3, InnerEndo(S3, Permutation((2, 3, 1))), InnerEndo(S3, Permutation((2, 1, 3))),
         sign_endo(S3, Permutation((2, 1, 3)))),
        ("S4", S4, InnerEndo(S4, Permutation((2, 3, 1, 4))), InnerEndo(S4, Permutation((1, 2, 4, 3))),
         sign_endo(S4, Permutation((2, 1, 3, 4)))),
        ("M13", m13, _power_map(m13, 5), _power_map(m13, 7), _power_map(m13, 4)),
    ]
    for gname, G, f, g, e in groups:
        for name, op in _group_ops(G, f, g, e):
            yield f"{gname}/{name}", op
        yield f"{gname}/fgh_conj/fii", L.fgh_conj_op(f, IdentityEndo(G), IdentityEndo(G))
    for n in range(5):
        yield f"A{n}", L.laver_op(n)


def test_exhaustive_ld_matches_the_triple_loop():
    verdicts = set()
    for name, op in _exhaustive_ops():
        triples = itertools.product(L.op_domain(op), repeat=3)
        expected = L._law(op, op, triples, "ld")
        got = L.verify_ld_exhaustive(op)
        assert (got.passed, got.checked, got.counterexample) == (
            expected.passed, expected.checked, expected.counterexample
        ), name
        verdicts.add((op.kind, got.passed))
    finite_kinds = {k for k, row in L._KINDS.items() if row.carrier is not BraidPlatform}
    assert {kind for kind, _ in verdicts} == finite_kinds
    assert {passed for _, passed in verdicts} == {True, False}


GROUP_KINDS = (
    "conj", "f_conj", "f_conj_rev", "twisted_conj", "sym_conj", "bullet",
    "f_sym_conj", "f_sym_conj_rev", "beta_kl", "fgh_conj", "fgh_sym",
)


@pytest.mark.parametrize("kind", GROUP_KINDS)
def test_group_kinds_refuse_a_laver_table(kind):
    # a group formula needs mul and inv; a Laver table is refused when the op
    # is built, not when apply_op first reaches for them
    assert set(L._KINDS) == {*GROUP_KINDS, "shifted", "shifted_bar", "shifted_rev", "laver"}
    with pytest.raises(ValueError, match=f"^{kind} requires a platform$"):
        L.OpDescriptor(kind, L.laver_table(2))


# -- LD law verdicts -----------------------------------------------------------


@pytest.mark.parametrize(
    "opname",
    ["conj", "sym_conj", "bullet", "f_conj_id", "f_conj_inner", "f_conj_rev", "f_sym_conj", "f_sym_conj_rev"],
)
def test_group_catalog_ops_are_ld(opname):
    rng = random.Random(31)
    f_inner = InnerEndo(S4, Permutation((2, 3, 1, 4)))
    f_sign = sign_endo(S4, Permutation((2, 1, 3, 4)))
    ops = {
        "conj": L.conj_op(S4),
        "sym_conj": L.sym_conj_op(S4),
        "bullet": L.bullet_op(S4),
        "f_conj_id": L.f_conj_op(IdentityEndo(S4)),
        "f_conj_inner": L.f_conj_op(f_inner),
        "f_conj_rev": L.f_conj_rev_op(f_inner),
        "f_sym_conj": L.f_sym_conj_op(f_sign),
        "f_sym_conj_rev": L.f_sym_conj_rev_op(f_sign),
    }
    assert L.verify_ld(ops[opname], 1000, rng).passed


def test_f_conj_power_shift_is_ld():
    rng = random.Random(32)
    platform = BraidPlatform(4)
    op = L.f_conj_op(PowerShiftEndo(platform, 1))
    assert L.verify_ld(op, 60, rng, braid_len=4).passed


def test_shifted_ops_ld_and_counterexample():
    rng = random.Random(33)
    assert L.verify_ld(L.shifted_op(1, SIGMA1), 200, rng, braid_len=4).passed
    assert L.verify_ld(L.shifted_rev_op(1, SIGMA1), 100, rng, braid_len=4).passed
    bad = L.shifted_op(1, BraidWord(3, (1, 2)))
    verdict = L.verify_ld(bad, 1000, rng, braid_len=3)
    assert not verdict.passed and verdict.counterexample is not None


def test_f_sym_conj_requires_idempotent():
    with pytest.raises(ValueError):
        L.f_sym_conj_op(InnerEndo(S3, Permutation((2, 3, 1))))


def test_bi_ld_family():
    rng = random.Random(34)
    star = L.shifted_op(1, SIGMA1)
    bar = L.shifted_bar_op(1, BraidWord(2, (-1,)))
    assert L.verify_multi_ld([star, bar], 50, rng, braid_len=3).passed
    # single-op degenerate case
    assert L.verify_multi_ld([L.conj_op(S4), L.conj_op(S4)], 200, rng).passed


def test_multi_ld_counterexample_for_noncommuting_family():
    rng = random.Random(35)
    t = B.tau(3, 3)
    a1 = B.concat_all(BraidWord(3, (1,)), t)
    a2 = B.concat_all(BraidWord(3, (2,)), t)
    family = [L.shifted_op(3, a1), L.shifted_op(3, a2)]
    verdict = L.verify_multi_ld(family, 300, rng, braid_len=2)
    assert not verdict.passed


# -- twisted conjugacy -----------------------------------------------------------


def test_twisted_near_ld():
    rng = random.Random(36)
    f = InnerEndo(S4, Permutation((2, 1, 4, 3)))
    op = L.twisted_conj_op(f)
    assert L.verify_near_ld(op, f, 1000, rng).passed
    assert not L.verify_ld(op, 1000, rng).passed


def test_fld_reduces_to_twisted_conjugacy():
    # u ->_{*_f} v iff f(u) ~_f v, brute-forced on S_4 with an inner f
    rng = random.Random(37)
    elements = list(S4.elements())
    f = InnerEndo(S4, Permutation((3, 1, 2, 4)))
    op = L.f_conj_op(f)
    for _ in range(150):
        u, v = rng.choice(elements), rng.choice(elements)
        ld_reachable = any(S4.eq(L.apply_op(op, c, u), v) for c in elements)
        fu = f.apply(u)
        tw_reachable = any(
            S4.eq(S4.mul(S4.mul(f.apply(S4.inv(c)), fu), c), v)
            for c in elements
        )
        assert ld_reachable == tw_reachable


# -- beta_kl ----------------------------------------------------------------------


@pytest.mark.parametrize("k,l", [(1, 1), (3, 1), (1, 4)])
def test_beta_kl_homomorphic_over_bullet(k, l):
    rng = random.Random(38)
    op = L.beta_kl_op(S4, k, l)
    bullet = L.bullet_op(S4)
    for _ in range(300):
        x, y1, y2 = (S4.random_element(rng) for _ in range(3))
        lhs = L.apply_op(op, x, L.apply_op(bullet, y1, y2))
        rhs = L.apply_op(bullet, L.apply_op(op, x, y1), L.apply_op(op, x, y2))
        assert S4.eq(lhs, rhs)


# -- condition checkers ------------------------------------------------------------


def test_fconj_conditions_examples():
    ident = IdentityEndo(S3)
    inner = InnerEndo(S3, Permutation((2, 1, 3)))
    assert L.check_fconj_conditions(inner, inner, ident, S3)  # f = g, h = id
    assert L.check_fconj_conditions(ident, ident, ident, S3)
    assert not L.check_fconj_conditions(inner, ident, ident, S3)
    # the failing triple's induced op has an LD counterexample
    assert not L.verify_ld_exhaustive(L.fgh_conj_op(inner, ident, ident)).passed


def test_symconj_conditions_examples():
    ident = IdentityEndo(S3)
    sign = sign_endo(S3, Permutation((2, 1, 3)))
    assert L.check_symconj_conditions(sign, sign, ident, S3)  # f = g idempotent, h = id
    assert L.check_symconj_conditions(ident, sign, sign, S3)  # f = id, g = h idempotent
    inner = InnerEndo(S3, Permutation((2, 3, 1)))
    assert not L.check_symconj_conditions(inner, inner, ident, S3)
    assert not L.verify_ld_exhaustive(L.fgh_sym_op(inner, inner, ident)).passed


def test_conditions_match_ld_over_inner_catalog():
    catalog = [inner_point_map(S3, p) for p in S3.elements()]
    match_conj = match_sym = 0
    for f, g, h in itertools.product(catalog, repeat=3):
        cond = L.check_fconj_conditions(f, g, h, S3)
        assert cond == L.verify_ld_exhaustive(L.fgh_conj_op(f, g, h)).passed
        match_conj += 1
        cond2 = L.check_symconj_conditions(f, g, h, S3)
        assert cond2 == L.verify_ld_exhaustive(L.fgh_sym_op(f, g, h)).passed
        match_sym += 1
    assert match_conj == match_sym == 216


def test_shifted_conditions():
    assert L.check_shifted_conditions(1, SIGMA1)
    assert L.check_shifted_conditions(2, B.tau(2, 2))
    assert L.check_shifted_conditions(2, B.invert(B.tau(2, 2)))
    assert not L.check_shifted_conditions(1, BraidWord(3, (1, 2)))
    assert not L.check_shifted_conditions(2, BraidWord(5, (4,)))  # outside B_4


# -- validated constructors ---------------------------------------------------------


def test_make_generalized_shifted():
    rng = random.Random(39)
    empty = BraidWord(1)
    dehornoy = L.make_generalized_shifted(1, empty, empty)
    assert dehornoy.a.letters == (1,)
    assert L.verify_ld(dehornoy, 100, rng, braid_len=4).passed

    op = L.make_generalized_shifted(2, BraidWord(2, (1,)), BraidWord(2, (1,)))
    assert L.verify_ld(op, 50, rng, braid_len=3).passed

    with pytest.raises(L.ConditionViolation):
        L.make_generalized_shifted(3, BraidWord(3, (1,)), BraidWord(3, (2,)))
    with pytest.raises(L.ConditionViolation):
        L.make_generalized_shifted(1, BraidWord(3, (2,)), empty)  # outside B_1


def test_make_generalized_shifted_family():
    rng = random.Random(40)
    pairs = [
        (BraidWord(2, (1,)), BraidWord(2, (1,))),
        (BraidWord(2, (1, 1)), BraidWord(1)),
    ]
    family = L.make_generalized_shifted_family(2, pairs)
    assert L.verify_multi_ld(family, 40, rng, braid_len=3).passed
    with pytest.raises(L.ConditionViolation):
        L.make_generalized_shifted_family(
            3, [(BraidWord(3, (1,)), BraidWord(1)), (BraidWord(3, (2,)), BraidWord(1))]
        )


def test_make_generalized_shifted_bi():
    rng = random.Random(41)
    op1, op2 = L.make_generalized_shifted_bi(
        2,
        (BraidWord(2, (1,)), BraidWord(2, (1,))),
        (BraidWord(2, (1,)), BraidWord(2, (-1,))),
    )
    assert L.verify_multi_ld([op1, op2], 40, rng, braid_len=3).passed


def test_make_split_shifted():
    rng = random.Random(42)
    empty = BraidWord(1)
    op = L.make_split_shifted(1, 1, empty, empty, empty, empty)
    assert L.verify_ld(op, 40, rng, braid_len=3).passed
    op2 = L.make_split_shifted(1, 2, empty, empty, BraidWord(2, (1,)), BraidWord(2, (1, 1)))
    assert L.verify_ld(op2, 30, rng, braid_len=2).passed
    with pytest.raises(L.ConditionViolation):
        L.make_split_shifted(1, 3, empty, empty, BraidWord(3, (1,)), BraidWord(3, (2,)))


# -- distributivity -------------------------------------------------------------------


def test_distributivity_examples():
    rng = random.Random(43)
    f = InnerEndo(S4, Permutation((2, 3, 4, 1)))
    assert L.check_distributivity(L.f_conj_op(f), L.sym_conj_op(S4), 500, rng).passed
    assert L.check_distributivity(L.conj_op(S4), L.sym_conj_op(S4), 500, rng).passed


def test_distributivity_counterexample():
    # circ_f over circ_g fails when gf != f: two sign retractions onto
    # different transposition subgroups
    rng = random.Random(44)
    f = sign_endo(S3, Permutation((2, 1, 3)))
    g = sign_endo(S3, Permutation((1, 3, 2)))
    gf_eq_f = all(S3.eq(g.apply(f.apply(x)), f.apply(x)) for x in S3.elements())
    assert not gf_eq_f
    verdict = L.check_distributivity(L.f_sym_conj_op(f), L.f_sym_conj_op(g), 2000, rng)
    assert not verdict.passed


@pytest.mark.parametrize("samples", [0, -3])
@pytest.mark.parametrize(
    "verify",
    [
        lambda samples, rng: L.verify_ld(L.conj_op(S4), samples, rng),
        lambda samples, rng: L.verify_near_ld(
            L.twisted_conj_op(IdentityEndo(S4)), IdentityEndo(S4), samples, rng
        ),
        lambda samples, rng: L.verify_multi_ld([L.conj_op(S4), L.sym_conj_op(S4)], samples, rng),
        lambda samples, rng: L.check_distributivity(L.conj_op(S4), L.sym_conj_op(S4), samples, rng),
    ],
    ids=["verify_ld", "verify_near_ld", "verify_multi_ld", "check_distributivity"],
)
def test_sampled_verifiers_refuse_no_samples(verify, samples):
    # a check of no triples would pass vacuously with checked=0
    with pytest.raises(ValueError, match=f"samples must be at least 1, got {samples}"):
        verify(samples, random.Random(0))


def test_verify_multi_ld_refuses_an_empty_family():
    # a family of no ops checks no law and would pass with checked=0
    with pytest.raises(ValueError, match="family must hold at least 1 op, got 0"):
        L.verify_multi_ld([], 10, random.Random(0))


B3 = BraidPlatform(3)

# refusal case -> (call, exception class, message)
LDOPS_REFUSALS = {
    "op_domain_on_braids": (
        lambda: L.op_domain(L.conj_op(B3)),
        ValueError, "exhaustive domain needs a finite platform or Laver table",
    ),
    "fconj_conditions_on_braids": (
        lambda: L.check_fconj_conditions(IdentityEndo(B3), IdentityEndo(B3), IdentityEndo(B3), B3),
        ValueError, "exhaustive composition check needs a finite platform",
    ),
    "shifted_conditions_p_0": (
        lambda: L.check_shifted_conditions(0, SIGMA1), ValueError, "p must be >= 1",
    ),
}


@pytest.mark.parametrize("case", list(LDOPS_REFUSALS))
def test_typed_refusals(case):
    call, cls, message = LDOPS_REFUSALS[case]
    with pytest.raises(cls) as exc:
        call()
    assert type(exc.value) is cls and str(exc.value) == message

import hashlib
import random
import time

import pytest

from nakex import attacks as A
from nakex import braid as B
from nakex import ldops as L
from nakex import magma as M
from nakex.attacks import BudgetExceeded
from nakex.braid import BraidWord, Permutation
from nakex.platforms import (
    BraidPlatform,
    InnerEndo,
    PlatformMismatch,
    SymmetricPlatform,
    centralizer,
    g_commutator,
    g_conj,
    g_pow,
)

S3 = SymmetricPlatform(3)
S4 = SymmetricPlatform(4)


# -- brute force oracles -------------------------------------------------------


def test_bf_csp_example():
    # conjugation relabels points: some x' maps (1 3) to (2 3)
    s = Permutation((3, 2, 1))
    target = Permutation((1, 3, 2))
    inst = A.CSPInstance(s, target)
    witness = A.bf_solve(inst, S3)
    assert witness is not None
    assert A.verify_witness(S3, inst, witness)
    # another valid conjugator: (1 2) relabels the moved points
    assert A.verify_witness(S3, inst, Permutation((2, 1, 3)))


def test_bf_simcsp_returns_centralizer_coset_member():
    rng = random.Random(60)
    x = S4.random_element(rng)
    gens = [S4.random_element(rng) for _ in range(3)]
    inst = A.SimCSPInstance(tuple((g, g_conj(S4, x, g)) for g in gens))
    witness = A.bf_solve(inst, S4)
    assert A.verify_witness(S4, inst, witness)
    # witness differs from x by a centralizer element of the gens
    c = S4.mul(witness, S4.inv(x))
    assert all(S4.eq(S4.mul(c, g), S4.mul(g, c)) for g in gens)


def test_bf_sscsp_stays_in_subgroup():
    rng = random.Random(61)
    sub = (Permutation((2, 1, 3, 4)), Permutation((1, 2, 4, 3)))
    closure = A.subgroup_closure(S4, sub)
    x = rng.choice(closure)
    gens = [S4.random_element(rng) for _ in range(2)]
    inst = A.SSCSPInstance(tuple((g, g_conj(S4, x, g)) for g in gens), sub)
    witness = A.bf_solve(inst, S4)
    assert A.verify_witness(S4, inst, witness)
    assert witness in closure


def test_bf_msp():
    gens = (Permutation((2, 1, 3)),)
    target = Permutation((2, 1, 3))
    word = A.bf_solve(A.MSPInstance(target, gens), S3)
    assert word == (0,)
    outside = Permutation((2, 3, 1))
    assert A.bf_solve(A.MSPInstance(outside, gens), S3) is None


def test_msp_refuses_a_target_from_another_platform():
    gens = (Permutation((2, 1, 3)),)
    with pytest.raises(PlatformMismatch):
        A.bf_solve(A.MSPInstance(Permutation((2, 1, 3, 4)), gens), S3)


def test_bf_budget_exceeded():
    # (1 2) -> (3 4): conjugators exist but not among the first few candidates
    inst = A.CSPInstance(Permutation((2, 1, 3, 4)), Permutation((1, 2, 4, 3)))
    with pytest.raises(BudgetExceeded):
        A.bf_solve(inst, S4, budget=3)
    assert A.bf_solve(inst, S4) is not None


def test_bf_rejects_braid_platform():
    with pytest.raises(ValueError):
        A.bf_solve(A.CSPInstance(BraidWord(3), BraidWord(3)), BraidPlatform(3))


@pytest.mark.parametrize(
    "op", [L.conj_op(BraidPlatform(3)), L.shifted_op()], ids=["conj_b3", "shifted"]
)
def test_submagma_closure_refuses_an_infinite_carrier(op):
    # the fixpoint loop would never end on B_n
    gens = [BraidWord(3, (1,)), BraidWord(3, (2,))]
    with pytest.raises(ValueError, match="submagma closure needs a finite carrier"):
        A.submagma_closure(op, gens)


def test_subgroup_closure_deterministic():
    gens = (Permutation((2, 1, 3, 4)), Permutation((2, 3, 1, 4)))
    first = A.subgroup_closure(S4, gens)
    second = A.subgroup_closure(S4, gens)
    assert first == second
    assert len(first) == 6  # S_3 embedded in S_4


# -- first witnesses ---------------------------------------------------------------


# S4 subgroups for the commuting-pair problems: [A1, B1] = [A2, B2] = 1, A1 != A2
A1_GENS, B1_GENS = (Permutation((2, 1, 3, 4)),), (Permutation((1, 2, 4, 3)),)
A2_GENS, B2_GENS = B1_GENS, A1_GENS


def _picks(rng, *gens_lists):
    """One random member of each subgroup, drawn in order."""
    return [rng.choice(A.subgroup_closure(S4, gens)) for gens in gens_lists]


def _golden_instances():
    """Seeded planted instances of every type bf_solve accepts, with their platforms."""
    rng = random.Random(20261018)
    out = []
    for platform in (S3, S4, S3, S4):
        def el():
            return platform.random_element(rng)

        x, y, b = el(), el(), el()
        ss = [el() for _ in range(2)]
        sub = (el(),)
        closure = A.subgroup_closure(platform, sub)
        h = rng.choice(closure)
        ys = tuple((s, g_conj(platform, x, s)) for s in ss)
        yh = tuple((s, g_conj(platform, h, s)) for s in ss)
        outside = [g for g in platform.elements() if g not in closure]
        f = InnerEndo(platform, el())
        op = L.f_conj_op(f)
        out += [
            (platform, A.CSPInstance(*ys[0])),
            (platform, A.SimCSPInstance(ys)),
            (platform, A.SubCSPInstance(*yh[0], sub)),
            (platform, A.SSCSPInstance(yh, sub)),
            (platform, A.DCPInstance(ss[0], platform.mul(platform.mul(h, ss[0]), x), sub, (x,))),
            (platform, A.CDPInstance(*yh[0], sub)),
            (platform, A.MSPInstance(rng.choice(closure), sub)),
            (platform, A.MSPInstance(outside[0] if outside else x, sub)),
            (platform, A.NSimDPInstance(
                tuple((s, platform.mul(platform.mul(x, s), y)) for s in ss)
            )),
            (platform, A.SymSDPInstance(1, 2, tuple(
                (s, platform.mul(platform.mul(x, s), platform.mul(x, x))) for s in ss
            ))),
            (platform, A.FCSPInstance(f, tuple((s, L.apply_op(op, b, s)) for s in ss))),
        ]
    for _ in range(3):
        s = S4.random_element(rng)
        x, y, x1, x2, y1, y2 = _picks(rng, A_GENS, B_GENS, A1_GENS, A2_GENS, B1_GENS, B2_GENS)
        out += [
            (S4, A.KLPInstance(s, g_conj(S4, x, s), g_conj(S4, y, s), A_GENS, B_GENS)),
            (S4, A.DHDCPInstance(
                s, S4.mul(S4.mul(x1, s), x2), S4.mul(S4.mul(y1, s), y2),
                A1_GENS, A2_GENS, B1_GENS, B2_GENS,
            )),
            (S4, A.AAGPInstance(
                A_GENS, tuple(g_conj(S4, y, g) for g in A_GENS),
                B_GENS, tuple(g_conj(S4, x, g) for g in B_GENS),
            )),
        ]
    return out


GOLDEN_FIRST_WITNESS_DIGEST = "f749c4e3b219612a7d9d7f518bf87c2f24a3e867afc30102fca054e8d671c7cd"


def test_bf_solve_first_witness_golden_digest():
    # sha256 over the first witness bf_solve returns for each instance type;
    # the search order, not just the existence of a witness, is pinned
    digest = hashlib.sha256()
    for platform, inst in _golden_instances():
        result = A.bf_solve(inst, platform)
        digest.update(repr((type(inst).__name__, result)).encode() + b"\n")
    assert digest.hexdigest() == GOLDEN_FIRST_WITNESS_DIGEST


def test_bf_solve_witnesses_verify():
    # covers every searched type, SubCSP and FCSP included; the Ko-Lee,
    # DH-DCP and AAG solvers return a key, which has no verifier
    kinds = set()
    for platform, inst in _golden_instances():
        if isinstance(inst, (A.KLPInstance, A.DHDCPInstance, A.AAGPInstance)):
            continue
        witness = A.bf_solve(inst, platform)
        if isinstance(inst, A.MSPInstance) and witness is None:
            continue
        assert A.verify_witness(platform, inst, witness)
        kinds.add(type(inst).__name__)
    assert len(kinds) == 10


def test_bf_symsdp_with_unequal_exponents():
    rng = random.Random(80)
    for _ in range(10):
        a = S4.random_element(rng)
        ts = [S4.random_element(rng) for _ in range(2)]
        pairs = tuple((t, S4.mul(S4.mul(a, t), g_pow(S4, a, 3))) for t in ts)
        inst = A.SymSDPInstance(1, 3, pairs)
        witness = A.bf_solve(inst, S4)
        assert A.verify_witness(S4, inst, witness)


def test_bf_dhdcp_with_two_commuting_pairs():
    rng = random.Random(81)
    for _ in range(10):
        s = S4.random_element(rng)
        x1, x2, y1, y2 = _picks(rng, A1_GENS, A2_GENS, B1_GENS, B2_GENS)
        ya, yb = S4.mul(S4.mul(x1, s), x2), S4.mul(S4.mul(y1, s), y2)
        key = A.bf_solve(A.DHDCPInstance(s, ya, yb, A1_GENS, A2_GENS, B1_GENS, B2_GENS), S4)
        assert S4.eq(key, S4.mul(S4.mul(S4.mul(x1, y1), s), S4.mul(x2, y2)))
        # the key comes from a decomposition witness of ya in A1 x A2
        dcp = A.DCPInstance(s, ya, A1_GENS, A2_GENS)
        witness = A.bf_solve(dcp, S4)
        assert A.verify_witness(S4, dcp, witness)
        assert S4.eq(key, S4.mul(S4.mul(witness[0], yb), witness[1]))


def test_bf_nsimdp_budget_counts_pairs():
    # with one pair, every left factor has exactly one right factor; the
    # first witness is (1, t^-1 t'), pair number index + 1 of the search
    rng = random.Random(82)
    t, al, ar = (S4.random_element(rng) for _ in range(3))
    inst = A.NSimDPInstance(((t, S4.mul(S4.mul(al, t), ar)),))
    right = S4.mul(S4.inv(t), inst.pairs[0][1])
    index = list(S4.elements()).index(right)
    assert 0 < index < 24
    with pytest.raises(BudgetExceeded):
        A.bf_solve(inst, S4, budget=index)
    witness = A.bf_solve(inst, S4, budget=index + 1)
    assert S4.eq(witness[0], S4.identity()) and S4.eq(witness[1], right)


# -- membership in submagmas ----------------------------------------------------


def test_bf_membership_magma_laver():
    op = L.laver_op(1)
    tree = A.bf_membership_magma(2, [1], [op], max_leaves=3)
    assert tree == M.Node(0, M.Leaf(0), M.Leaf(0))  # 1*1 = 2
    assert A.bf_membership_magma(1, [1], [op], max_leaves=1) == M.Leaf(0)
    # closure of {1} in A_1 is {1, 2}: nothing else exists, so everything is
    # found; check a real non-member in A_2 instead
    op2 = L.laver_op(2)
    assert A.bf_membership_magma(3, [4], [op2], max_leaves=5) is None


def test_bf_membership_magma_reproduces_closures():
    op = L.laver_op(3)
    for gen in range(1, 9):
        closure = set(A.submagma_closure(op, [gen]))
        for target in range(1, 9):
            tree = A.bf_membership_magma(target, [gen], [op], max_leaves=6)
            assert (tree is not None) == (target in closure)
            if tree is not None:
                assert A.verify_witness(None, A.LDMSPInstance((op,), target, (gen,)), tree)


# -- reductions -------------------------------------------------------------------


A_GENS = (Permutation((2, 1, 3, 4)),)
B_GENS = (Permutation((1, 2, 4, 3)),)


def test_reduce_cdp_to_klp_on_planted_instances():
    rng = random.Random(62)
    a_closure = A.subgroup_closure(S4, A_GENS)
    b_closure = A.subgroup_closure(S4, B_GENS)
    hits = 0
    for _ in range(50):
        x, y = rng.choice(a_closure), rng.choice(b_closure)
        s = S4.random_element(rng)
        inst = A.KLPInstance(s, g_conj(S4, x, s), g_conj(S4, y, s), A_GENS, B_GENS)
        key = A.reduce_cdp_to_klp(lambda i: A.bf_solve(i, S4), inst, S4)
        truth = g_conj(S4, y, g_conj(S4, x, s))
        assert S4.eq(key, truth)
        hits += 1
    assert hits == 50


def test_reduce_cdp_to_klp_trivial_cases():
    s = S4.random_element(random.Random(63))
    identity_gens = (S4.identity(),)
    inst = A.KLPInstance(s, s, s, identity_gens, identity_gens)
    key = A.reduce_cdp_to_klp(lambda i: A.bf_solve(i, S4), inst, S4)
    assert S4.eq(key, s)


def test_reduce_sscsp_to_aagp_on_planted_instances():
    rng = random.Random(64)
    a_closure = A.subgroup_closure(S4, A_GENS)
    b_closure = A.subgroup_closure(S4, B_GENS)
    hits = 0
    for _ in range(50):
        x, y = rng.choice(a_closure), rng.choice(b_closure)
        inst = A.AAGPInstance(
            A_GENS, tuple(g_conj(S4, y, g) for g in A_GENS),
            B_GENS, tuple(g_conj(S4, x, g) for g in B_GENS),
            planted=(x, y),
        )
        result = A.reduce_sscsp_to_aagp(lambda i: A.bf_solve(i, S4), inst, S4)
        assert S4.eq(result.key, g_commutator(S4, x, y))
        assert result.diagnostic_commutator is not None
        assert S4.eq(result.diagnostic_commutator, S4.identity())
        hits += 1
    assert hits == 50


def _klp_instance():
    # x = (1 2) in A does not commute with s, so the witness (e, e) fails
    x, s = A_GENS[0], Permutation((2, 3, 1, 4))
    assert not S4.eq(g_conj(S4, x, s), s)
    return A.KLPInstance(s, g_conj(S4, x, s), s, A_GENS, B_GENS)


def _aagp_instance():
    x, y = A_GENS[0], B_GENS[0]
    return A.AAGPInstance(
        A_GENS, tuple(g_conj(S4, y, g) for g in A_GENS),
        B_GENS, tuple(g_conj(S4, x, g) for g in B_GENS),
    )


def _second_call_fails(answer):
    answers = iter([answer, None])
    return lambda inst: next(answers)


# refusal case -> (call, exception class, message): failed oracles and closures
ATTACK_REFUSALS = {
    "cdp_oracle_fails": (
        lambda: A.reduce_cdp_to_klp(lambda inst: None, _klp_instance(), S4),
        ValueError, "CDP oracle failed on the derived instance",
    ),
    "cdp_witness_does_not_verify": (
        lambda: A.reduce_cdp_to_klp(lambda inst: (S4.identity(), S4.identity()), _klp_instance(), S4),
        ValueError, "CDP oracle returned a non-verifying witness",
    ),
    "sscsp_oracle_fails": (
        lambda: A.reduce_sscsp_to_aagp(lambda inst: None, _aagp_instance(), S4),
        ValueError, "ssCSP oracle failed on a derived instance",
    ),
    "sscsp_oracle_fails_second": (
        lambda: A.reduce_sscsp_to_aagp(_second_call_fails(A_GENS[0]), _aagp_instance(), S4),
        ValueError, "ssCSP oracle failed on a derived instance",
    ),
    "subgroup_closure_on_braids": (
        lambda: A.subgroup_closure(BraidPlatform(3), [BraidWord(3, (1,))]),
        ValueError, "subgroup closure enumeration needs a finite platform",
    ),
    "subgroup_closure_over_budget": (
        lambda: A.subgroup_closure(S4, A_GENS, budget=1),
        BudgetExceeded, "subgroup closure exceeded 1 visits",
    ),
}


@pytest.mark.parametrize("case", list(ATTACK_REFUSALS))
def test_reductions_refuse_a_failed_oracle(case):
    call, cls, message = ATTACK_REFUSALS[case]
    with pytest.raises(cls) as exc:
        call()
    assert type(exc.value) is cls and str(exc.value) == message


def test_reduce_simdp_derived_instances():
    rng = random.Random(65)
    for _ in range(50):
        al, ar = S4.random_element(rng), S4.random_element(rng)
        ts = [S4.random_element(rng) for _ in range(3)]
        pairs = tuple((t, S4.mul(S4.mul(al, t), ar)) for t in ts)
        left, right = A.reduce_simdp_to_sscsp(A.NSimDPInstance(pairs), S4)
        assert len(left.pairs) == len(right.pairs) == 6  # ordered pairs of 3
        assert A.verify_witness(S4, left, al)
        assert A.verify_witness(S4, right, ar)
    # n = 2 gives exactly 2 ordered pairs per family
    pairs2 = pairs[:2]
    left, right = A.reduce_simdp_to_sscsp(A.NSimDPInstance(pairs2), S4)
    assert len(left.pairs) == len(right.pairs) == 2
    with pytest.raises(ValueError):
        A.reduce_simdp_to_sscsp(A.NSimDPInstance(pairs[:1]), S4)


def test_reduce_simdp_identical_inputs_trivial_pairs():
    t = S4.random_element(random.Random(66))
    al = ar = S4.identity()
    pairs = ((t, t), (t, t))
    left, right = A.reduce_simdp_to_sscsp(A.NSimDPInstance(pairs), S4)
    for s, sx in left.pairs + right.pairs:
        assert S4.eq(s, S4.identity()) and S4.eq(sx, S4.identity())


def test_reduce_simfcsp_planted_and_identity_degeneration():
    rng = random.Random(67)
    for _ in range(50):
        f = InnerEndo(S4, S4.random_element(rng))
        op = L.f_conj_op(f)
        b = S4.random_element(rng)
        ss = [S4.random_element(rng) for _ in range(3)]
        inst = A.FCSPInstance(f, tuple((s, L.apply_op(op, b, s)) for s in ss))
        derived = A.reduce_simfcsp_to_simcsp(inst, S4)
        assert A.verify_witness(S4, derived, b)
    # f = id: derived base elements are the plain quotients s_i^-1 s_j
    from nakex.platforms import IdentityEndo

    f = IdentityEndo(S4)
    op = L.f_conj_op(f)
    b = S4.random_element(rng)
    ss = [S4.random_element(rng) for _ in range(2)]
    inst = A.FCSPInstance(f, tuple((s, L.apply_op(op, b, s)) for s in ss))
    derived = A.reduce_simfcsp_to_simcsp(inst, S4)
    s1, s2 = ss
    bases = {p[0] for p in derived.pairs}
    assert S4.mul(S4.inv(s1), s2) in bases
    # m = 1: empty derived instance
    assert A.reduce_simfcsp_to_simcsp(A.FCSPInstance(f, inst.pairs[:1]), S4).pairs == ()


def test_reduce_simshcsp_planted():
    rng = random.Random(68)
    op = L.shifted_op(1, BraidWord(2, (1,)))
    for trial in range(50):
        b = B.random_braid(4, 5, rng)
        ss = [B.random_braid(4, 5, rng) for _ in range(3)]
        inst = A.ShCSPInstance(1, op.a, tuple((s, L.apply_op(op, b, s)) for s in ss))
        derived = A.reduce_simshcsp_to_simcsp(inst)
        assert len(derived.pairs) == 6
        for base, image in derived.pairs:
            conj = B.concat_all(B.invert(b), base, b)
            assert B.braids_equal(conj, image)
    single = A.ShCSPInstance(1, op.a, inst.pairs[:1])
    assert A.reduce_simshcsp_to_simcsp(single).pairs == ()


# -- hierarchy coercions ---------------------------------------------------------


def test_hierarchy_oracle_interchange():
    rng = random.Random(69)
    full_gens = tuple(S4.elements())
    for _ in range(10):
        s = S4.random_element(rng)
        x = S4.random_element(rng)
        csp = A.CSPInstance(s, g_conj(S4, x, s))

        # a simCSP oracle answers the CSP
        w1 = A.bf_solve(A.csp_as_simcsp(csp), S4)
        assert A.verify_witness(S4, csp, w1)

        # an ssCSP oracle answers the simCSP (H = G)
        sim = A.csp_as_simcsp(csp)
        w2 = A.bf_solve(A.simcsp_as_sscsp(sim, full_gens), S4)
        assert A.verify_witness(S4, sim, w2)

        # a DCP oracle answers the CDP
        cdp = A.csp_as_cdp(csp, full_gens)
        w3 = A.bf_solve(A.cdp_as_dcp(cdp), S4)
        assert A.verify_witness(S4, cdp, w3)


def test_klp_as_dhdcp_interchange():
    rng = random.Random(70)
    a_closure = A.subgroup_closure(S4, A_GENS)
    b_closure = A.subgroup_closure(S4, B_GENS)
    for _ in range(10):
        x, y = rng.choice(a_closure), rng.choice(b_closure)
        s = S4.random_element(rng)
        klp = A.KLPInstance(s, g_conj(S4, x, s), g_conj(S4, y, s), A_GENS, B_GENS)
        key = A.bf_solve(A.klp_as_dhdcp(klp), S4)
        assert S4.eq(key, g_conj(S4, y, g_conj(S4, x, s)))


# -- the Inn(G) centralizer experiment ---------------------------------------------


def _fcomm_data(rng):
    p = Permutation((2, 1, 4, 3))
    s_gens = [Permutation((2, 1, 3, 4)), Permutation((3, 4, 1, 2))]
    t_gens = [Permutation((1, 2, 4, 3)), Permutation((4, 3, 2, 1))]
    a, b = S4.random_element(rng), S4.random_element(rng)
    c1_pool = centralizer(S4, [S4.mul(s, p) for s in s_gens])
    c2_pool = centralizer(S4, [S4.mul(t, p) for t in t_gens])
    return p, s_gens, t_gens, a, b, c1_pool, c2_pool


def test_inn_centralizer_unperturbed():
    rng = random.Random(71)
    p, s_gens, t_gens, a, b, _, _ = _fcomm_data(rng)
    e = S4.identity()
    report = A.inn_centralizer_experiment(S4, s_gens, t_gens, a, b, p, e, e)
    assert report.equal


def test_inn_centralizer_conditions_imply_equality():
    rng = random.Random(72)
    found = 0
    for _ in range(200):
        p, s_gens, t_gens, a, b, c1_pool, c2_pool = _fcomm_data(rng)
        c1, c2 = rng.choice(c1_pool), rng.choice(c2_pool)
        report = A.inn_centralizer_experiment(S4, s_gens, t_gens, a, b, p, c1, c2)
        if report.cond_c1_c2 and report.cond_c1_ap and report.cond_c2_bp:
            assert report.equal
            found += 1
    assert found >= 20


def test_inn_centralizer_violation_breaks_equality():
    rng = random.Random(73)
    seen_violation = False
    for _ in range(400):
        p, s_gens, t_gens, a, b, c1_pool, c2_pool = _fcomm_data(rng)
        c1, c2 = rng.choice(c1_pool), rng.choice(c2_pool)
        report = A.inn_centralizer_experiment(S4, s_gens, t_gens, a, b, p, c1, c2)
        if not (report.cond_c1_c2 and report.cond_c1_ap and report.cond_c2_bp):
            if not report.equal:
                seen_violation = True
                break
    assert seen_violation


def test_inn_centralizer_agrees_with_protocol_run():
    # the unperturbed K' formula reproduces the key of an actual
    # f-commutator run with the same inner endomorphism
    import warnings

    from nakex import protocols as P

    rng = random.Random(79)
    p = Permutation((2, 1, 4, 3))
    f = InnerEndo(S4, p)
    s_gens = tuple(S4.random_element(rng) for _ in range(2))
    t_gens = tuple(S4.random_element(rng) for _ in range(2))
    spec = P.make_f_commutator(f, s_gens, t_gens, seed=17)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", P.WeakKeyWarning)
        transcript = P.run(spec)
    ska, skb = P.generate_secrets(spec)
    a, b = ska.elements[0], skb.elements[0]
    e = S4.identity()
    report = A.inn_centralizer_experiment(S4, s_gens, t_gens, a, b, p, e, e)
    assert S4.eq(report.key, transcript.key_a)
    assert report.equal


def test_inn_centralizer_rejects_invalid_c():
    rng = random.Random(74)
    p, s_gens, t_gens, a, b, _, _ = _fcomm_data(rng)
    bad = Permutation((2, 3, 4, 1))
    with pytest.raises(ValueError):
        A.inn_centralizer_experiment(S4, s_gens, t_gens, a, b, p, bad, S4.identity())


# -- length attack skeleton ----------------------------------------------------------


def test_length_attack_finds_length_one_secret():
    rng = random.Random(75)
    op = L.shifted_op(1, BraidWord(2, (1,)))
    for i in (1, 2, -1):
        b = BraidWord(5, (i,))
        ss = [B.random_braid(5, 5, rng) for _ in range(2)]
        inst = A.ShCSPInstance(1, op.a, tuple((s, L.apply_op(op, b, s)) for s in ss))
        witness = A.length_attack_skeleton(inst, budget=4)
        assert witness is not None
        assert A.verify_witness(BraidPlatform(5), inst, witness)


def test_length_attack_budget_zero():
    op = L.shifted_op(1, BraidWord(2, (1,)))
    rng = random.Random(76)
    b = B.random_braid(5, 4, rng)
    ss = [B.random_braid(5, 5, rng) for _ in range(2)]
    inst = A.ShCSPInstance(1, op.a, tuple((s, L.apply_op(op, b, s)) for s in ss))
    assert A.length_attack_skeleton(inst, budget=0) is None


def test_length_attack_claims_are_verified():
    rng = random.Random(77)
    op = L.shifted_op(1, BraidWord(2, (1,)))
    for _ in range(5):
        b = B.random_braid(5, 3, rng)
        ss = [B.random_braid(5, 4, rng) for _ in range(3)]
        inst = A.ShCSPInstance(1, op.a, tuple((s, L.apply_op(op, b, s)) for s in ss))
        witness = A.length_attack_skeleton(inst, budget=12)
        if witness is not None:
            assert A.verify_witness(BraidPlatform(6), inst, witness)


def test_length_attack_on_fcsp():
    rng = random.Random(78)
    platform = BraidPlatform(4)
    from nakex.platforms import PowerShiftEndo

    f = PowerShiftEndo(platform, 1)
    op = L.f_conj_op(f)
    b = BraidWord(4, (1, 1))
    ss = [B.random_pure_braid(4, rng, conj_len=3) for _ in range(2)]
    inst = A.FCSPInstance(f, tuple((s, L.apply_op(op, b, s)) for s in ss))
    witness = A.length_attack_skeleton(inst, budget=6)
    if witness is not None:
        assert A.verify_witness(platform, inst, witness)


# -- reporting -------------------------------------------------------------------------


def test_csv_report(tmp_path):
    records = [
        A.ExperimentRecord("csp", "S4", "trial=0", "found", True, 0.001),
        A.ExperimentRecord("klp", "S4", "trial=1", "not_found", False, 0.002),
    ]
    path = tmp_path / "report.csv"
    A.write_report(records, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "instance,platform,parameters,outcome,witness_verified,wall_time"
    assert lines[1].startswith("csp,S4,trial=0,found,True,")
    assert len(lines) == 3


def test_run_recorded_times_the_solver_alone():
    seen = []

    def verify(result):
        seen.append(result)
        time.sleep(0.05)
        return result == "key"

    def over_budget():
        raise BudgetExceeded("too many candidates")

    found = A.run_recorded("csp", "S4", "trial=0", lambda: "key", verify)
    assert (found.outcome, found.witness_verified) == ("found", True)
    assert found.wall_time < 0.05  # the check's sleep is not in it
    missed = A.run_recorded("csp", "S4", "trial=1", lambda: None, verify)
    assert (missed.outcome, missed.witness_verified) == ("not_found", False)
    over = A.run_recorded("csp", "S4", "trial=2", over_budget, verify)
    assert (over.outcome, over.witness_verified) == ("budget_exceeded", False)
    assert seen == ["key", None]  # solve's results; never called for budget_exceeded

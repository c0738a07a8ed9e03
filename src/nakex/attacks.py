"""Desk-scale oracles and executable reductions for the base problems.

Brute force only makes sense on finite platforms; braid-platform problems get
the instance-transform reductions and a pluggable greedy length-attack
skeleton.  Every solver's witness is checked by substitution into the
problem's defining equation before it is returned, and budgets are explicit
with deterministic traversal order so a NotFound claim is reproducible.

Problem zoo (one frozen dataclass per tag): conjugacy search (CSP) and its
simultaneous / subgroup-constrained variants, decomposition (DCP) and its
conjugacy (CDP) and commuting-pairs (DH-DCP) versions, the AAG shared-key
problem, the Ko-Lee problem, membership search in subgroups and submagmas,
simultaneous decomposition for the a_l y a_r scheme, the symmetric (k,l)
version, and the f-/shifted-conjugacy search problems of the commutator
schemes.

The ``nakex attack`` experiments live here too, as the table ``EXPERIMENTS``:
``build_experiment(config)`` draws every trial's instance from the config's
seed before any solver runs, and ``run_experiment(trials)`` runs the solvers
through ``run_recorded``; ``write_report`` writes the records as CSV.
"""

from __future__ import annotations

import csv
import itertools
import random
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from . import braid, ldops, magma
from .braid import BraidWord
from .ldops import OpDescriptor, apply_op
from .magma import BudgetExceeded, TreeWord
from .platforms import (
    BraidPlatform,
    Element,
    Endomorphism,
    Platform,
    SymmetricPlatform,
    centralizer,
    g_commutator,
    g_conj,
    g_pow,
)

__all__ = [
    "CSPInstance",
    "SimCSPInstance",
    "SubCSPInstance",
    "SSCSPInstance",
    "DCPInstance",
    "CDPInstance",
    "KLPInstance",
    "DHDCPInstance",
    "AAGPInstance",
    "MSPInstance",
    "NSimDPInstance",
    "SymSDPInstance",
    "FCSPInstance",
    "ShCSPInstance",
    "LDMSPInstance",
    "BudgetExceeded",
    "bf_solve",
    "bf_membership_magma",
    "subgroup_closure",
    "submagma_closure",
    "verify_witness",
    "reduce_cdp_to_klp",
    "reduce_sscsp_to_aagp",
    "reduce_simdp_to_sscsp",
    "reduce_simfcsp_to_simcsp",
    "reduce_simshcsp_to_simcsp",
    "csp_as_simcsp",
    "simcsp_as_sscsp",
    "csp_as_cdp",
    "cdp_as_dcp",
    "klp_as_dhdcp",
    "inn_centralizer_experiment",
    "InnCentralizerReport",
    "length_attack_skeleton",
    "ExperimentRecord",
    "write_report",
    "EXPERIMENTS",
    "build_experiment",
    "run_experiment",
]


# -- problem instances -------------------------------------------------------


@dataclass(frozen=True)
class CSPInstance:
    """Given (s, s^x), find x' with s^{x'} = s^x."""

    s: Element
    sx: Element


@dataclass(frozen=True)
class SimCSPInstance:
    """Simultaneous conjugacy: one x' for all pairs (s_i, s_i^x)."""

    pairs: tuple[tuple[Element, Element], ...]


@dataclass(frozen=True)
class SubCSPInstance:
    """CSP with the witness constrained to the subgroup <gens>."""

    s: Element
    sx: Element
    subgroup_gens: tuple[Element, ...]


@dataclass(frozen=True)
class SSCSPInstance:
    """Simultaneous subgroup-constrained conjugacy search."""

    pairs: tuple[tuple[Element, Element], ...]
    subgroup_gens: tuple[Element, ...]


@dataclass(frozen=True)
class DCPInstance:
    """Given (s, x1 s x2), find (x1', x2') in H1 x H2 with x1' s x2' = x1 s x2."""

    s: Element
    t: Element
    h1_gens: tuple[Element, ...]
    h2_gens: tuple[Element, ...]


@dataclass(frozen=True)
class CDPInstance:
    """DCP specialized to conjugation data: t = s^x with x in H, witness in H^2."""

    s: Element
    sx: Element
    h_gens: tuple[Element, ...]


@dataclass(frozen=True)
class KLPInstance:
    """Given (s, s^x, s^y) with x in A, y in B, [A,B]=1, find x^-1 y^-1 s x y."""

    s: Element
    sx: Element
    sy: Element
    a_gens: tuple[Element, ...]
    b_gens: tuple[Element, ...]


@dataclass(frozen=True)
class DHDCPInstance:
    """Given (s, x1 s x2, y1 s y2) with commuting pairs, find x1 y1 s x2 y2."""

    s: Element
    ya: Element
    yb: Element
    a1_gens: tuple[Element, ...]
    a2_gens: tuple[Element, ...]
    b1_gens: tuple[Element, ...]
    b2_gens: tuple[Element, ...]


@dataclass(frozen=True)
class AAGPInstance:
    """The commutator-KEP data; objective is K = x^-1 y^-1 x y.

    ``planted`` optionally carries the true (x, y) so experiments can report
    the centralizer diagnostics.
    """

    a_gens: tuple[Element, ...]
    a_conj: tuple[Element, ...]  # a_i^y
    b_gens: tuple[Element, ...]
    b_conj: tuple[Element, ...]  # b_j^x
    planted: Optional[tuple[Element, Element]] = None


@dataclass(frozen=True)
class MSPInstance:
    """Express target as a word in the subgroup generators, if possible."""

    target: Element
    gens: tuple[Element, ...]


@dataclass(frozen=True)
class NSimDPInstance:
    """Pairs (t_j, a_l t_j a_r); find (a_l', a_r') reproducing all of them."""

    pairs: tuple[tuple[Element, Element], ...]


@dataclass(frozen=True)
class SymSDPInstance:
    """Pairs (t_j, a^k t_j a^l) for known exponents; find a'."""

    k: int
    l: int
    pairs: tuple[tuple[Element, Element], ...]


@dataclass(frozen=True)
class FCSPInstance:
    """Pairs (s_i, b *_f s_i) with b *_f s = f(b^-1 s) b; find b'."""

    f: Endomorphism
    pairs: tuple[tuple[Element, Element], ...]


@dataclass(frozen=True)
class ShCSPInstance:
    """Pairs (s_i, b * s_i) for the shifted conjugacy with parameters (p, a)."""

    p: int
    a: BraidWord
    pairs: tuple[tuple[BraidWord, BraidWord], ...]


@dataclass(frozen=True)
class LDMSPInstance:
    """Express target as a tree word over gens under the given op family."""

    ops: tuple[OpDescriptor, ...]
    target: Element
    gens: tuple[Element, ...]


# -- closures and enumeration ------------------------------------------------


def subgroup_closure(
    platform: Platform, gens: Sequence[Element], budget: int | None = None
) -> list[Element]:
    """Deterministic BFS closure of <gens> in a finite group."""
    if not platform.finite:
        raise ValueError("subgroup closure enumeration needs a finite platform")
    out = [platform.identity()]
    seen = {platform.canon(out[0])}
    queue = [out[0]]
    visits = 0
    while queue:
        current = queue.pop(0)
        for g in gens:
            visits += 1
            if budget is not None and visits > budget:
                raise BudgetExceeded(f"subgroup closure exceeded {budget} visits")
            nxt = platform.mul(current, g)
            key = platform.canon(nxt)
            if key not in seen:
                seen.add(key)
                out.append(nxt)
                queue.append(nxt)
    return out


def _msp_words(
    platform: Platform, gens: Sequence[Element], budget: int | None = None
) -> dict:
    """BFS closure remembering a shortest generator word for each element."""
    identity = platform.identity()
    words = {platform.canon(identity): (identity, ())}
    queue = [(identity, ())]
    visits = 0
    while queue:
        current, word = queue.pop(0)
        for i, g in enumerate(gens):
            visits += 1
            if budget is not None and visits > budget:
                raise BudgetExceeded(f"membership search exceeded {budget} visits")
            nxt = platform.mul(current, g)
            key = platform.canon(nxt)
            if key not in words:
                entry = (nxt, word + (i,))
                words[key] = entry
                queue.append(entry)
    return words


def submagma_closure(op: OpDescriptor, gens: Sequence[Element]) -> list[Element]:
    """Fixpoint closure of gens under a binary operation with finite carrier."""
    elements = list(gens)
    keys = set()

    def key_of(x):
        if op.kind == "laver":
            return x
        return op.platform.canon(x)

    for g in gens:
        keys.add(key_of(g))
    changed = True
    while changed:
        changed = False
        snapshot = list(elements)
        for x in snapshot:
            for y in snapshot:
                z = apply_op(op, x, y)
                k = key_of(z)
                if k not in keys:
                    keys.add(k)
                    elements.append(z)
                    changed = True
    return elements


# -- witness verification ----------------------------------------------------


def verify_witness(platform: Optional[Platform], inst, witness) -> bool:
    """Substitute the witness into the instance's defining equation.

    ``platform`` may be None for instances that carry their own operations
    (LD-submagma membership, shifted conjugacy).
    """
    if isinstance(inst, LDMSPInstance):
        value = magma.eval_tree(
            witness,
            inst.gens,
            [lambda x, y, _o=o: apply_op(_o, x, y) for o in inst.ops],
        )
        return ldops.op_eq(inst.ops[0], value, inst.target)
    if isinstance(inst, ShCSPInstance):
        op = ldops.shifted_op(inst.p, inst.a)
        return all(
            braid.braids_equal(apply_op(op, witness, s), s2) for s, s2 in inst.pairs
        )
    eq = platform.eq
    if isinstance(inst, CSPInstance):
        return eq(g_conj(platform, witness, inst.s), inst.sx)
    if isinstance(inst, SimCSPInstance):
        return all(eq(g_conj(platform, witness, s), sx) for s, sx in inst.pairs)
    if isinstance(inst, SubCSPInstance):
        return eq(g_conj(platform, witness, inst.s), inst.sx)
    if isinstance(inst, SSCSPInstance):
        return all(eq(g_conj(platform, witness, s), sx) for s, sx in inst.pairs)
    if isinstance(inst, (DCPInstance,)):
        x1, x2 = witness
        return eq(platform.mul(platform.mul(x1, inst.s), x2), inst.t)
    if isinstance(inst, CDPInstance):
        x1, x2 = witness
        return eq(platform.mul(platform.mul(x1, inst.s), x2), inst.sx)
    if isinstance(inst, MSPInstance):
        value = platform.identity()
        for i in witness:
            value = platform.mul(value, inst.gens[i])
        return eq(value, inst.target)
    if isinstance(inst, NSimDPInstance):
        al, ar = witness
        return all(
            eq(platform.mul(platform.mul(al, t), ar), t2) for t, t2 in inst.pairs
        )
    if isinstance(inst, SymSDPInstance):
        return all(
            eq(
                platform.mul(
                    platform.mul(g_pow(platform, witness, inst.k), t),
                    g_pow(platform, witness, inst.l),
                ),
                t2,
            )
            for t, t2 in inst.pairs
        )
    if isinstance(inst, FCSPInstance):
        op = ldops.f_conj_op(inst.f)
        return all(eq(apply_op(op, witness, s), s2) for s, s2 in inst.pairs)
    raise TypeError(f"no verifier for {type(inst).__name__}")


# -- brute force -------------------------------------------------------------


def bf_solve(inst, platform: Platform, budget: int | None = None):
    """Exhaustive search for a verifying witness on a finite platform.

    Returns the witness, or None when the search space is exhausted.  Raises
    BudgetExceeded when the configured budget runs out first, so NotFound is
    always a proof of exhaustion.
    """
    if not platform.finite:
        raise ValueError("brute force needs a finite platform")

    spent = itertools.count(1)

    def spend():
        if budget is not None and next(spent) > budget:
            raise BudgetExceeded(f"brute force exceeded {budget} candidates")

    if isinstance(inst, (CSPInstance, SimCSPInstance)):
        for x in platform.elements():
            spend()
            if verify_witness(platform, inst, x):
                return x
        return None

    if isinstance(inst, (SubCSPInstance, SSCSPInstance)):
        for x in subgroup_closure(platform, inst.subgroup_gens):
            spend()
            if verify_witness(platform, inst, x):
                return x
        return None

    if isinstance(inst, CDPInstance):
        closure = subgroup_closure(platform, inst.h_gens)
        for x1, x2 in itertools.product(closure, closure):
            spend()
            if verify_witness(platform, inst, (x1, x2)):
                return (x1, x2)
        return None

    if isinstance(inst, DCPInstance):
        h1 = subgroup_closure(platform, inst.h1_gens)
        h2 = subgroup_closure(platform, inst.h2_gens)
        for x1, x2 in itertools.product(h1, h2):
            spend()
            if verify_witness(platform, inst, (x1, x2)):
                return (x1, x2)
        return None

    if isinstance(inst, MSPInstance):
        words = _msp_words(platform, inst.gens, budget)
        hit = words.get(platform.canon(inst.target))
        return None if hit is None else hit[1]

    if isinstance(inst, KLPInstance):
        a = subgroup_closure(platform, inst.a_gens)
        b = subgroup_closure(platform, inst.b_gens)
        for x in a:
            spend()
            if platform.eq(g_conj(platform, x, inst.s), inst.sx):
                for y in b:
                    spend()
                    if platform.eq(g_conj(platform, y, inst.s), inst.sy):
                        inner = g_conj(platform, y, inst.s)
                        return g_conj(platform, x, inner)
        return None

    if isinstance(inst, DHDCPInstance):
        a1 = subgroup_closure(platform, inst.a1_gens)
        a2 = subgroup_closure(platform, inst.a2_gens)
        for x1, x2 in itertools.product(a1, a2):
            spend()
            if platform.eq(platform.mul(platform.mul(x1, inst.s), x2), inst.ya):
                return platform.mul(platform.mul(x1, inst.yb), x2)
        return None

    if isinstance(inst, AAGPInstance):
        x = bf_solve(
            SSCSPInstance(tuple(zip(inst.b_gens, inst.b_conj)), inst.a_gens),
            platform,
            budget,
        )
        y = bf_solve(
            SSCSPInstance(tuple(zip(inst.a_gens, inst.a_conj)), inst.b_gens),
            platform,
            budget,
        )
        if x is None or y is None:
            return None
        return g_commutator(platform, x, y)

    if isinstance(inst, (NSimDPInstance, SymSDPInstance)):
        elements = list(platform.elements())
        if isinstance(inst, SymSDPInstance):
            for a in elements:
                spend()
                if verify_witness(platform, inst, a):
                    return a
            return None
        for al in elements:
            spend()
            for ar in elements:
                if verify_witness(platform, inst, (al, ar)):
                    return (al, ar)
        return None

    if isinstance(inst, FCSPInstance):
        for b in platform.elements():
            spend()
            if verify_witness(platform, inst, b):
                return b
        return None

    raise TypeError(f"no brute-force solver for {type(inst).__name__}")


def bf_membership_magma(
    target: Element,
    gens: Sequence[Element],
    ops: Sequence[OpDescriptor],
    max_leaves: int,
    max_count: int = 2_000_000,
) -> Optional[TreeWord]:
    """Exhaustive submagma membership search by tree enumeration.

    Tries every labeled tree with up to ``max_leaves`` leaves in a
    deterministic order; returns the first tree evaluating to the target, or
    None after exhausting them all.
    """
    ops = tuple(ops)
    callables = [lambda x, y, _o=o: apply_op(_o, x, y) for o in ops]
    for k in range(1, max_leaves + 1):
        for tree in magma.enumerate_trees(k, len(gens), len(ops), max_count):
            value = magma.eval_tree(tree, gens, callables)
            if ldops.op_eq(ops[0], value, target):
                return tree
    return None


# -- reductions --------------------------------------------------------------


def reduce_cdp_to_klp(cdp_oracle: Callable, inst: KLPInstance, platform: Platform) -> Element:
    """Solve the Ko-Lee problem with one CDP-oracle call.

    The oracle yields (x1, x2) in A^2 with x1 s x2 = s^x; then
    x1 s^y x2 = y^-1 (x1 s x2) y = K because [A, B] = 1.
    """
    witness = cdp_oracle(CDPInstance(inst.s, inst.sx, inst.a_gens))
    if witness is None:
        raise ValueError("CDP oracle failed on the derived instance")
    x1, x2 = witness
    if not verify_witness(platform, CDPInstance(inst.s, inst.sx, inst.a_gens), witness):
        raise ValueError("CDP oracle returned a non-verifying witness")
    return platform.mul(platform.mul(x1, inst.sy), x2)


@dataclass(frozen=True)
class SSCSPReductionResult:
    key: Element
    witness_x: Element
    witness_y: Element
    diagnostic_commutator: Optional[Element] = None


def reduce_sscsp_to_aagp(
    sscsp_oracle: Callable, inst: AAGPInstance, platform: Platform
) -> SSCSPReductionResult:
    """Recover the AAG shared key from two subgroup-constrained simCSP calls.

    The oracle answers x' = c_b x with c_b centralizing B; when x' lands in A
    (which the subgroup constraint forces), the centralizer factors cancel in
    the commutator and K' = K.  With planted secrets available the residual
    commutator c_b^-1 c_a^-1 c_b c_a is reported as a diagnostic.
    """
    x = sscsp_oracle(SSCSPInstance(tuple(zip(inst.b_gens, inst.b_conj)), inst.a_gens))
    y = sscsp_oracle(SSCSPInstance(tuple(zip(inst.a_gens, inst.a_conj)), inst.b_gens))
    if x is None or y is None:
        raise ValueError("ssCSP oracle failed on a derived instance")
    key = g_commutator(platform, x, y)
    diagnostic = None
    if inst.planted is not None:
        px, py = inst.planted
        c_b = platform.mul(x, platform.inv(px))
        c_a = platform.mul(y, platform.inv(py))
        diagnostic = platform.mul(
            platform.mul(platform.inv(c_b), platform.inv(c_a)),
            platform.mul(c_b, c_a),
        )
    return SSCSPReductionResult(key, x, y, diagnostic)


def reduce_simdp_to_sscsp(
    inst: NSimDPInstance, platform: Platform
) -> tuple[SimCSPInstance, SimCSPInstance]:
    """Derive the two simultaneous-conjugacy instance families.

    For pairs (t_j, t'_j = a_l t_j a_r): conjugating t'_i t'_j^-1 by a_l gives
    t_i t_j^-1, and conjugating t_i^-1 t_j by a_r gives t'_i^-1 t'_j; the
    first family solves for a_l, the second for a_r.
    """
    if len(inst.pairs) < 2:
        raise ValueError("need at least two pairs to derive instances")
    mul, inv = platform.mul, platform.inv
    left = []
    right = []
    for (ti, ti2), (tj, tj2) in itertools.permutations(inst.pairs, 2):
        left.append((mul(ti2, inv(tj2)), mul(ti, inv(tj))))
        right.append((mul(inv(ti), tj), mul(inv(ti2), tj2)))
    return SimCSPInstance(tuple(left)), SimCSPInstance(tuple(right))


def reduce_simfcsp_to_simcsp(inst: FCSPInstance, platform: Platform) -> SimCSPInstance:
    """Derive the simCSP instance {(f(s_i^-1 s_j), (s'_i)^-1 s'_j)}.

    (s'_i)^-1 s'_j collapses to b^-1 f(s_i^-1 s_j) b, so the planted b is a
    witness; with f = id this is the classical simCSP of the same data.
    Fewer than two pairs derive the empty instance.
    """
    mul, inv = platform.mul, platform.inv
    pairs = []
    for (si, si2), (sj, sj2) in itertools.permutations(inst.pairs, 2):
        base = inst.f.apply(mul(inv(si), sj))
        pairs.append((base, mul(inv(si2), sj2)))
    return SimCSPInstance(tuple(pairs))


def reduce_simshcsp_to_simcsp(inst: ShCSPInstance) -> SimCSPInstance:
    """Derive {(shift^p(s_i^-1 s_j), (s'_i)^-1 s'_j)}; empty when m < 2.

    The braid parameter cancels between the inverted and plain messages, so
    the single-pair case (m = 1, the non-simultaneity regime) yields nothing.
    """
    pairs = []
    for (si, si2), (sj, sj2) in itertools.permutations(inst.pairs, 2):
        base = braid.shift(braid.concat(braid.invert(si), sj), inst.p)
        img = braid.concat(braid.invert(si2), sj2)
        pairs.append((base, img))
    return SimCSPInstance(tuple(pairs))


# -- instance coercions realizing the problem hierarchy ----------------------


def csp_as_simcsp(inst: CSPInstance) -> SimCSPInstance:
    return SimCSPInstance(((inst.s, inst.sx),))


def simcsp_as_sscsp(inst: SimCSPInstance, full_gens: tuple[Element, ...]) -> SSCSPInstance:
    """A simCSP instance is an ssCSP instance with H = G."""
    return SSCSPInstance(inst.pairs, full_gens)


def csp_as_cdp(inst: CSPInstance, h_gens: tuple[Element, ...]) -> CDPInstance:
    return CDPInstance(inst.s, inst.sx, h_gens)


def cdp_as_dcp(inst: CDPInstance) -> DCPInstance:
    return DCPInstance(inst.s, inst.sx, inst.h_gens, inst.h_gens)


def klp_as_dhdcp(inst: KLPInstance) -> DHDCPInstance:
    """KLP data as a DH-DCP instance with A1 = A2 = A, B1 = B2 = B."""
    return DHDCPInstance(
        inst.s, inst.sx, inst.sy, inst.a_gens, inst.a_gens, inst.b_gens, inst.b_gens
    )


# -- the Inn(G) centralizer experiment ---------------------------------------


@dataclass(frozen=True)
class InnCentralizerReport:
    key: Element
    perturbed_key: Element
    equal: bool
    cond_c1_c2: bool
    cond_c1_ap: bool
    cond_c2_bp: bool


def inn_centralizer_experiment(
    platform: Platform,
    s_gens: Sequence[Element],
    t_gens: Sequence[Element],
    a: Element,
    b: Element,
    p: Element,
    c1: Element,
    c2: Element,
) -> InnCentralizerReport:
    """Perturb f-commutator witnesses by centralizer elements and compare keys.

    For f = inner(p), simCSP solutions are exactly a' = c2 a with c2
    centralizing every t_j p, and b' = c1 b with c1 centralizing every s_i p.
    K' = a'^-1 p^-1 b'^-1 a' p b' equals K whenever [c1,c2] = [c1,ap] =
    [c2,bp] = 1.
    """
    mul, inv, eq = platform.mul, platform.inv, platform.eq

    for s in s_gens:
        sp = mul(s, p)
        if not eq(mul(c1, sp), mul(sp, c1)):
            raise ValueError("c1 must centralize every s_i p")
    for t in t_gens:
        tp = mul(t, p)
        if not eq(mul(c2, tp), mul(tp, c2)):
            raise ValueError("c2 must centralize every t_j p")

    def perturbed(u, v):
        # u^-1 p^-1 v^-1 u p v
        return mul(mul(mul(inv(u), inv(p)), inv(v)), mul(mul(u, p), v))

    key = perturbed(a, b)
    a2, b2 = mul(c2, a), mul(c1, b)
    key2 = perturbed(a2, b2)

    def commutes(u, v):
        return eq(mul(u, v), mul(v, u))

    return InnCentralizerReport(
        key=key,
        perturbed_key=key2,
        equal=eq(key, key2),
        cond_c1_c2=commutes(c1, c2),
        cond_c1_ap=commutes(c1, mul(a, p)),
        cond_c2_bp=commutes(c2, mul(b, p)),
    )


# -- length attack skeleton --------------------------------------------------


def _default_scorer(op: OpDescriptor, pairs) -> Callable[[BraidWord], int]:
    def score(candidate: BraidWord) -> int:
        total = 0
        for s, s2 in pairs:
            residue = braid.concat(braid.invert(apply_op(op, candidate, s)), s2)
            total += len(braid.canonical_word(residue).letters)
        return total

    return score


def length_attack_skeleton(
    inst,
    budget: int,
    scorer: Callable[[BraidWord], int] | None = None,
) -> Optional[BraidWord]:
    """Greedy canonical-length descent for f-/shifted-conjugacy instances.

    Starting from the empty braid, repeatedly moves to the best-scoring
    neighbour candidate * sigma_i^{+-1}; best-effort only.  Returns a
    substitution-verified witness or None.
    """
    if isinstance(inst, ShCSPInstance):
        op = ldops.shifted_op(inst.p, inst.a)
        strands = max(w.strands for s, s2 in inst.pairs for w in (s, s2))
        steps = [(e,) for i in range(1, strands) for e in (i, -i)]
    elif isinstance(inst, FCSPInstance):
        op = ldops.f_conj_op(inst.f)
        strands = inst.f.platform.strands
        if inst.f.kind == "power_shift":
            # the endomorphism only accepts pure braids: walk on squares
            steps = [(e, e) for i in range(1, strands) for e in (i, -i)]
        else:
            steps = [(e,) for i in range(1, strands) for e in (i, -i)]
    else:
        raise TypeError("length attack expects an f-CSP or sh-CSP instance")

    score = scorer or _default_scorer(op, inst.pairs)
    candidate = BraidWord(strands)
    best = score(candidate)
    for _ in range(budget):
        if best == 0:
            break
        improved = None
        for letters in steps:
            neighbour = braid.concat(candidate, BraidWord(strands, letters))
            value = score(neighbour)
            if improved is None or value < improved[0]:
                improved = (value, neighbour)
        if improved is None or improved[0] >= best:
            break
        best, candidate = improved
    if best == 0:
        if verify_witness(BraidPlatform(strands), inst, candidate):
            return candidate
    return None


# -- reporting ---------------------------------------------------------------


@dataclass
class ExperimentRecord:
    instance: str
    platform: str
    parameters: str
    outcome: str
    witness_verified: bool
    wall_time: float


def run_recorded(instance_tag: str, platform_desc: str, parameters: str, fn) -> ExperimentRecord:
    """Time a solver call ``fn() -> (result, verified)`` into an ExperimentRecord."""
    start = time.perf_counter()
    outcome = "not_found"
    verified = False
    try:
        result, verified = fn()
        outcome = "found" if result is not None else "not_found"
    except BudgetExceeded:
        outcome = "budget_exceeded"
    elapsed = time.perf_counter() - start
    return ExperimentRecord(instance_tag, platform_desc, parameters, outcome, verified, elapsed)


def write_report(records: Sequence[ExperimentRecord], path: str) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["instance", "platform", "parameters", "outcome", "witness_verified", "wall_time"]
        )
        for r in records:
            writer.writerow(
                [r.instance, r.platform, r.parameters, r.outcome, r.witness_verified, f"{r.wall_time:.6f}"]
            )


# -- experiments --------------------------------------------------------------
#
# An experiment function takes the config dict and a seeded generator and
# returns its trials, each the (instance tag, platform, parameters, solve)
# arguments of run_recorded.  Every instance is drawn while the trials are
# built and no solver draws from the generator, so the draw order does not
# depend on when the solvers run.

Trial = tuple[str, str, str, Callable[[], tuple]]


def _commuting_subgroups(platform: SymmetricPlatform, rng):
    """A one-generator subgroup A, the non-trivial centralizer of A as B, and both closures."""
    a_gens = (platform.random_element(rng),)
    b_gens = tuple(
        c for c in centralizer(platform, subgroup_closure(platform, a_gens))
        if not platform.eq(c, platform.identity())
    ) or (platform.identity(),)
    return a_gens, b_gens, subgroup_closure(platform, a_gens), subgroup_closure(platform, b_gens)


def _cdp_to_klp(config: dict, rng) -> list[Trial]:
    platform = SymmetricPlatform(config.get("degree", 4))
    a_gens, b_gens, a_closure, b_closure = _commuting_subgroups(platform, rng)

    def trial(t):
        x, y = rng.choice(a_closure), rng.choice(b_closure)
        s = platform.random_element(rng)
        inst = KLPInstance(s, g_conj(platform, x, s), g_conj(platform, y, s), a_gens, b_gens)
        truth = g_conj(platform, y, g_conj(platform, x, s))

        def solve():
            key = reduce_cdp_to_klp(lambda i: bf_solve(i, platform), inst, platform)
            return key, platform.eq(key, truth)

        return "klp", f"S{platform.degree}", f"trial={t}", solve

    return [trial(t) for t in range(config.get("trials", 10))]


def _sscsp_to_aagp(config: dict, rng) -> list[Trial]:
    platform = SymmetricPlatform(config.get("degree", 4))
    a_gens, b_gens, a_closure, b_closure = _commuting_subgroups(platform, rng)

    def trial(t):
        x, y = rng.choice(a_closure), rng.choice(b_closure)
        inst = AAGPInstance(
            a_gens, tuple(g_conj(platform, y, g) for g in a_gens),
            b_gens, tuple(g_conj(platform, x, g) for g in b_gens),
            planted=(x, y),
        )
        truth = g_commutator(platform, x, y)

        def solve():
            result = reduce_sscsp_to_aagp(lambda i: bf_solve(i, platform), inst, platform)
            return result.key, platform.eq(result.key, truth)

        return "aagp", f"S{platform.degree}", f"trial={t}", solve

    return [trial(t) for t in range(config.get("trials", 10))]


def _inn_centralizer(config: dict, rng) -> list[Trial]:
    platform = SymmetricPlatform(config.get("degree", 4))

    def trial(t):
        p = platform.random_element(rng)
        s_gens = [platform.random_element(rng) for _ in range(2)]
        t_gens = [platform.random_element(rng) for _ in range(2)]
        a, b = platform.random_element(rng), platform.random_element(rng)
        c1 = rng.choice(centralizer(platform, [platform.mul(s, p) for s in s_gens]))
        c2 = rng.choice(centralizer(platform, [platform.mul(u, p) for u in t_gens]))

        def solve():
            report = inn_centralizer_experiment(platform, s_gens, t_gens, a, b, p, c1, c2)
            conditions = report.cond_c1_c2 and report.cond_c1_ap and report.cond_c2_bp
            # the sufficiency claim: conditions holding forces K' = K
            return report, (not conditions) or report.equal

        return "inn_centralizer", f"S{platform.degree}", f"trial={t}", solve

    return [trial(t) for t in range(config.get("trials", 10))]


def _bf_csp(config: dict, rng) -> list[Trial]:
    platform = SymmetricPlatform(config.get("degree", 4))
    budget = config.get("budget")

    def trial(t):
        s = platform.random_element(rng)
        x = platform.random_element(rng)
        inst = CSPInstance(s, g_conj(platform, x, s))

        def solve():
            w = bf_solve(inst, platform, budget=budget)
            return w, w is not None and verify_witness(platform, inst, w)

        return "csp", f"S{platform.degree}", f"trial={t}", solve

    return [trial(t) for t in range(config.get("trials", 10))]


def _length_attack(config: dict, rng) -> list[Trial]:
    p = config.get("p", 1)
    strands = config.get("strands", 5)
    secret_length = config.get("secret_length", 1)
    m = config.get("m", 2)
    budget = config.get("budget", 8)
    op = ldops.shifted_op(p)

    def trial(t):
        b = braid.random_braid(strands, secret_length, rng)
        ss = [braid.random_braid(strands, 5, rng) for _ in range(m)]
        inst = ShCSPInstance(p, op.a, tuple((s, apply_op(op, b, s)) for s in ss))

        def solve():
            # best-effort search: not finding a witness is a legitimate
            # outcome, an unverified claim is not
            w = length_attack_skeleton(inst, budget=budget)
            return w, w is None or verify_witness(None, inst, w)

        return "sh_csp", f"B{strands}", f"trial={t},p={p}", solve

    return [trial(t) for t in range(config.get("trials", 10))]


def _laver_membership(config: dict, rng) -> list[Trial]:
    level = config.get("level", 3)
    max_leaves = config.get("max_leaves", 6)
    op = ldops.laver_op(level)
    elements = range(1, ldops.laver_table(level).size + 1)
    closures = {g: submagma_closure(op, [g]) for g in elements}

    def trial(g, target):
        def solve():
            tree = bf_membership_magma(target, [g], [op], max_leaves)
            return tree, (tree is not None) == (target in closures[g])

        return "ld_msp", f"A_{level}", f"gen={g},target={target}", solve

    return [trial(g, target) for g in elements for target in elements]


# The config keys each experiment reads, and their defaults, are listed in
# the README's CLI section.
EXPERIMENTS = {
    "cdp_to_klp": _cdp_to_klp,
    "sscsp_to_aagp": _sscsp_to_aagp,
    "inn_centralizer": _inn_centralizer,
    "bf_csp": _bf_csp,
    "length_attack": _length_attack,
    "laver_membership": _laver_membership,
}


def build_experiment(config: dict) -> list[Trial]:
    """The trials of the experiment ``config`` names, every instance drawn.

    The generator is ``random.Random(config.get("seed", 0))``.  An unknown
    name raises ValueError; a malformed config raises what its values provoke
    (LookupError, TypeError or ValueError), before any solver has run.
    """
    name = config["experiment"]
    if name not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {name!r}")
    return EXPERIMENTS[name](config, random.Random(config.get("seed", 0)))


def run_experiment(trials: Sequence[Trial]) -> list[ExperimentRecord]:
    """Run each trial's solver through run_recorded, in order."""
    return [run_recorded(*trial) for trial in trials]

"""Desk-scale oracles and executable reductions for the base problems.

Brute force only makes sense on finite platforms; braid-platform problems get
the instance-transform reductions and a greedy length-attack skeleton.  Every
solver's witness is checked by substitution into the problem's defining
equation before it is returned, and budgets are explicit with deterministic
traversal order so a NotFound claim is reproducible.

Problem zoo (one frozen dataclass per tag): conjugacy search (CSP) and its
simultaneous / subgroup-constrained variants, decomposition (DCP) and its
conjugacy (CDP) and commuting-pairs (DH-DCP) versions, the AAG shared-key
problem, the Ko-Lee problem, membership search in subgroups and submagmas,
simultaneous decomposition for the a_l y a_r scheme, the symmetric (k,l)
version, and the f-/shifted-conjugacy search problems of the commutator
schemes.

An instance states its defining equation as ``holds(platform, witness)``,
which ``verify_witness`` calls, and its search space in traversal order as
``candidates(platform)``, which ``bf_solve`` walks under one budget.  Special
cases reuse the general equation and search through views: CSP and SubCSP
are SimCSP and SSCSP with one pair, CDP is DCP with H1 = H2, SymSDP is NSimDP
with (a_l, a_r) = (a^k, a^l), and FCSP and ShCSP share b * s_i = s'_i under
the LD operation ``op`` they expose with their length-attack ``steps``.  Four
are not plain searches and bring a ``solve(platform, budget)`` of their own:
Ko-Lee (two subgroup CSPs), DH-DCP (one DCP), AAG (two ssCSPs) and subgroup
membership (a BFS remembering a shortest generator word per element).

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
from functools import partial
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
from .protocols import MAX_PLATFORM_SIZE

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


# -- equations and search spaces ---------------------------------------------


def _space(platform: Platform, gens: Optional[Sequence[Element]]):
    """G in enumeration order when ``gens`` is None, else the closure of <gens>."""
    return platform.elements() if gens is None else subgroup_closure(platform, gens)


class _Conjugacy:
    """One x with s^x = s' for every pair (s, s'), x in G or in <subgroup_gens>."""

    def holds(self, platform: Platform, x: Element) -> bool:
        return all(platform.eq(g_conj(platform, x, s), sx) for s, sx in self.pairs)

    def candidates(self, platform: Platform):
        return _space(platform, self.subgroup_gens)


class _Decomposition:
    """One (x1, x2) in H1 x H2 with x1 s x2 = s' for every pair (s, s')."""

    def holds(self, platform: Platform, witness) -> bool:
        x1, x2 = witness
        return all(
            platform.eq(platform.mul(platform.mul(x1, s), x2), t) for s, t in self.pairs
        )

    def candidates(self, platform: Platform):
        h1 = list(_space(platform, self.h1_gens))
        h2 = h1 if self.h2_gens == self.h1_gens else _space(platform, self.h2_gens)
        return itertools.product(h1, h2)


class _LDConjugacy:
    """One b with b * s = s' for every pair (s, s') under the LD operation ``op``.

    ``steps`` are the length attack's moves on ``strands`` strands: each
    sigma_i^{+-1}, repeated ``step_width`` times.
    """

    step_width = 1

    def holds(self, platform: Optional[Platform], b: Element) -> bool:
        op = self.op
        return all(ldops.op_eq(op, apply_op(op, b, s), s2) for s, s2 in self.pairs)

    def candidates(self, platform: Platform):
        return platform.elements()

    @property
    def steps(self) -> list[tuple[int, ...]]:
        return [(e,) * self.step_width for i in range(1, self.strands) for e in (i, -i)]


class _OnePair:
    """The instance's (s, sx) as the one entry of its simultaneous case's ``pairs``."""

    @property
    def pairs(self) -> tuple[tuple[Element, Element], ...]:
        return ((self.s, self.sx),)


# -- problem instances -------------------------------------------------------


@dataclass(frozen=True)
class CSPInstance(_OnePair, _Conjugacy):
    """Given (s, s^x), find x' with s^{x'} = s^x."""

    s: Element
    sx: Element
    subgroup_gens = None


@dataclass(frozen=True)
class SimCSPInstance(_Conjugacy):
    """Simultaneous conjugacy: one x' for all pairs (s_i, s_i^x)."""

    pairs: tuple[tuple[Element, Element], ...]
    subgroup_gens = None


@dataclass(frozen=True)
class SubCSPInstance(_OnePair, _Conjugacy):
    """CSP with the witness constrained to the subgroup <gens>."""

    s: Element
    sx: Element
    subgroup_gens: tuple[Element, ...]


@dataclass(frozen=True)
class SSCSPInstance(_Conjugacy):
    """Simultaneous subgroup-constrained conjugacy search."""

    pairs: tuple[tuple[Element, Element], ...]
    subgroup_gens: tuple[Element, ...]


@dataclass(frozen=True)
class DCPInstance(_Decomposition):
    """Given (s, x1 s x2), find (x1', x2') in H1 x H2 with x1' s x2' = x1 s x2."""

    s: Element
    t: Element
    h1_gens: tuple[Element, ...]
    h2_gens: tuple[Element, ...]

    @property
    def pairs(self) -> tuple[tuple[Element, Element], ...]:
        return ((self.s, self.t),)


@dataclass(frozen=True)
class CDPInstance(_OnePair, _Decomposition):
    """DCP specialized to conjugation data: t = s^x with x in H, witness in H^2."""

    s: Element
    sx: Element
    h_gens: tuple[Element, ...]

    @property
    def h1_gens(self) -> tuple[Element, ...]:
        return self.h_gens

    h2_gens = h1_gens


@dataclass(frozen=True)
class KLPInstance:
    """Given (s, s^x, s^y) with x in A, y in B, [A,B]=1, find x^-1 y^-1 s x y."""

    s: Element
    sx: Element
    sy: Element
    a_gens: tuple[Element, ...]
    b_gens: tuple[Element, ...]

    def solve(self, platform: Platform, budget: int | None) -> Optional[Element]:
        """(s^y)^x from the first x in A with s^x = sx and the first y in B with s^y = sy."""
        x = bf_solve(SubCSPInstance(self.s, self.sx, self.a_gens), platform, budget)
        y = bf_solve(SubCSPInstance(self.s, self.sy, self.b_gens), platform, budget)
        if x is None or y is None:
            return None
        return g_conj(platform, x, g_conj(platform, y, self.s))


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

    def solve(self, platform: Platform, budget: int | None) -> Optional[Element]:
        """x1' yb x2' from the first DCP witness (x1', x2') in A1 x A2 of ya."""
        witness = bf_solve(
            DCPInstance(self.s, self.ya, self.a1_gens, self.a2_gens), platform, budget
        )
        if witness is None:
            return None
        x1, x2 = witness
        return platform.mul(platform.mul(x1, self.yb), x2)


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

    def halves(self) -> tuple[SSCSPInstance, SSCSPInstance]:
        """The ssCSP instances solved by x (in A) and by y (in B)."""
        return (
            SSCSPInstance(tuple(zip(self.b_gens, self.b_conj)), self.a_gens),
            SSCSPInstance(tuple(zip(self.a_gens, self.a_conj)), self.b_gens),
        )

    def solve(self, platform: Platform, budget: int | None) -> Optional[Element]:
        """[x', y'] from the first witness of each half."""
        x, y = (bf_solve(half, platform, budget) for half in self.halves())
        if x is None or y is None:
            return None
        return g_commutator(platform, x, y)


@dataclass(frozen=True)
class MSPInstance:
    """Express target as a word in the subgroup generators, if possible."""

    target: Element
    gens: tuple[Element, ...]

    def holds(self, platform: Platform, word: tuple[int, ...]) -> bool:
        value = platform.identity()
        for i in word:
            value = platform.mul(value, self.gens[i])
        return platform.eq(value, self.target)

    def solve(self, platform: Platform, budget: int | None) -> Optional[tuple[int, ...]]:
        """A shortest generator word, from a BFS of at most ``budget`` visits."""
        hit = _msp_words(platform, self.gens, budget).get(platform.check(self.target))
        return None if hit is None else hit[1]


@dataclass(frozen=True)
class NSimDPInstance(_Decomposition):
    """Pairs (t_j, a_l t_j a_r); find (a_l', a_r') reproducing all of them."""

    pairs: tuple[tuple[Element, Element], ...]
    h1_gens = h2_gens = None


@dataclass(frozen=True)
class SymSDPInstance(_Decomposition):
    """Pairs (t_j, a^k t_j a^l) for known exponents; find a'."""

    k: int
    l: int
    pairs: tuple[tuple[Element, Element], ...]

    def holds(self, platform: Platform, a: Element) -> bool:
        return super().holds(platform, (g_pow(platform, a, self.k), g_pow(platform, a, self.l)))

    def candidates(self, platform: Platform):
        return platform.elements()


@dataclass(frozen=True)
class FCSPInstance(_LDConjugacy):
    """Pairs (s_i, b *_f s_i) with b *_f s = f(b^-1 s) b; find b'."""

    f: Endomorphism
    pairs: tuple[tuple[Element, Element], ...]

    @property
    def op(self) -> OpDescriptor:
        return ldops.f_conj_op(self.f)

    @property
    def strands(self) -> int:
        return self.f.platform.strands

    @property
    def step_width(self) -> int:
        # a power-shift endomorphism only accepts pure braids: walk on squares
        return 2 if self.f.kind == "power_shift" else 1


@dataclass(frozen=True)
class ShCSPInstance(_LDConjugacy):
    """Pairs (s_i, b * s_i) for the shifted conjugacy with parameters (p, a)."""

    p: int
    a: BraidWord
    pairs: tuple[tuple[BraidWord, BraidWord], ...]

    @property
    def op(self) -> OpDescriptor:
        return ldops.shifted_op(self.p, self.a)

    @property
    def strands(self) -> int:
        return max(w.strands for pair in self.pairs for w in pair)


@dataclass(frozen=True)
class LDMSPInstance:
    """Express target as a tree word over gens under the given op family."""

    ops: tuple[OpDescriptor, ...]
    target: Element
    gens: tuple[Element, ...]

    def holds(self, platform: Optional[Platform], tree: TreeWord) -> bool:
        value = magma.eval_tree(tree, self.gens, [partial(apply_op, o) for o in self.ops])
        return ldops.op_eq(self.ops[0], value, self.target)


# -- closures and enumeration ------------------------------------------------


def _msp_words(
    platform: Platform, gens: Sequence[Element], budget: int | None = None
) -> dict:
    """Deterministic BFS closure of <gens> in a finite group.

    Maps each element to itself and a shortest generator word for it, in
    visit order.  Raises BudgetExceeded when more than ``budget`` products
    would be visited.
    """
    if not platform.finite:
        raise ValueError("subgroup closure enumeration needs a finite platform")
    identity = platform.identity()
    words = {identity: (identity, ())}
    queue = [(identity, ())]
    visits = 0
    while queue:
        current, word = queue.pop(0)
        for i, g in enumerate(gens):
            visits += 1
            if budget is not None and visits > budget:
                raise BudgetExceeded(f"subgroup closure exceeded {budget} visits")
            nxt = platform.mul(current, g)
            if nxt not in words:
                entry = (nxt, word + (i,))
                words[nxt] = entry
                queue.append(entry)
    return words


def subgroup_closure(
    platform: Platform, gens: Sequence[Element], budget: int | None = None
) -> list[Element]:
    """The elements of <gens> in the BFS order of ``_msp_words``."""
    return [element for element, _ in _msp_words(platform, gens, budget).values()]


def submagma_closure(op: OpDescriptor, gens: Sequence[Element]) -> list[Element]:
    """Fixpoint closure of gens under a binary operation with finite carrier.

    Raises ValueError for an infinite carrier, where the fixpoint may never come.
    """
    if not op.platform.finite:
        raise ValueError("submagma closure needs a finite carrier")
    elements = list(gens)
    seen = set(gens)
    changed = True
    while changed:
        changed = False
        snapshot = list(elements)
        for x in snapshot:
            for y in snapshot:
                z = apply_op(op, x, y)
                if z not in seen:
                    seen.add(z)
                    elements.append(z)
                    changed = True
    return elements


# -- witness verification and brute force ------------------------------------


def verify_witness(platform: Optional[Platform], inst, witness) -> bool:
    """Substitute the witness into the instance's defining equation.

    ``platform`` may be None for instances that carry their own operations
    (LD-submagma membership, f- and shifted conjugacy).
    """
    return inst.holds(platform, witness)


def bf_solve(inst, platform: Platform, budget: int | None = None):
    """Exhaustive search for a verifying witness on a finite platform.

    Tries ``inst.candidates(platform)`` in order, each through
    verify_witness; an instance with its own ``solve`` (Ko-Lee, DH-DCP, AAG,
    membership) runs that instead and returns its key or word.  Returns the
    witness, or None when the search space is exhausted.  Raises
    BudgetExceeded when more than ``budget`` candidates would be tried, so
    NotFound is always a proof of exhaustion.
    """
    if not platform.finite:
        raise ValueError("brute force needs a finite platform")
    if hasattr(inst, "solve"):
        return inst.solve(platform, budget)
    for tried, candidate in enumerate(inst.candidates(platform), 1):
        if budget is not None and tried > budget:
            raise BudgetExceeded(f"brute force exceeded {budget} candidates")
        if verify_witness(platform, inst, candidate):
            return candidate
    return None


def bf_membership_magma(
    target: Element,
    gens: Sequence[Element],
    ops: Sequence[OpDescriptor],
    max_leaves: int,
) -> Optional[TreeWord]:
    """Exhaustive submagma membership search by tree enumeration.

    Tries every labeled tree with up to ``max_leaves`` leaves in a
    deterministic order; returns the first tree evaluating to the target, or
    None after exhausting them all.
    """
    ops = tuple(ops)
    callables = [partial(apply_op, o) for o in ops]
    for k in range(1, max_leaves + 1):
        for tree in magma.enumerate_trees(k, len(gens), len(ops)):
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
    cdp = CDPInstance(inst.s, inst.sx, inst.a_gens)
    witness = cdp_oracle(cdp)
    if witness is None:
        raise ValueError("CDP oracle failed on the derived instance")
    x1, x2 = witness
    if not verify_witness(platform, cdp, witness):
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
    x, y = (sscsp_oracle(half) for half in inst.halves())
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


def _quotient_pairs(pairs, mul, inv, phi: Callable) -> SimCSPInstance:
    """{(phi(s_i^-1 s_j), (s'_i)^-1 s'_j)} over the ordered pairs i != j."""
    return SimCSPInstance(tuple(
        (phi(mul(inv(si), sj)), mul(inv(si2), sj2))
        for (si, si2), (sj, sj2) in itertools.permutations(pairs, 2)
    ))


def reduce_simfcsp_to_simcsp(inst: FCSPInstance, platform: Platform) -> SimCSPInstance:
    """Derive the simCSP instance {(f(s_i^-1 s_j), (s'_i)^-1 s'_j)}.

    (s'_i)^-1 s'_j collapses to b^-1 f(s_i^-1 s_j) b, so the planted b is a
    witness; with f = id this is the classical simCSP of the same data.
    Fewer than two pairs derive the empty instance.
    """
    return _quotient_pairs(inst.pairs, platform.mul, platform.inv, inst.f.apply)


def reduce_simshcsp_to_simcsp(inst: ShCSPInstance) -> SimCSPInstance:
    """Derive {(shift^p(s_i^-1 s_j), (s'_i)^-1 s'_j)}; empty when m < 2.

    The braid parameter cancels between the inverted and plain messages, so
    the single-pair case (m = 1, the non-simultaneity regime) yields nothing.
    """
    return _quotient_pairs(
        inst.pairs, braid.concat, braid.invert, lambda w: braid.shift(w, inst.p)
    )


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

    def commutes(u, v):
        return eq(mul(u, v), mul(v, u))

    if not all(commutes(c1, mul(s, p)) for s in s_gens):
        raise ValueError("c1 must centralize every s_i p")
    if not all(commutes(c2, mul(t, p)) for t in t_gens):
        raise ValueError("c2 must centralize every t_j p")

    def perturbed(u, v):
        # u^-1 p^-1 v^-1 u p v
        return mul(mul(mul(inv(u), inv(p)), inv(v)), mul(mul(u, p), v))

    key = perturbed(a, b)
    a2, b2 = mul(c2, a), mul(c1, b)
    key2 = perturbed(a2, b2)
    return InnCentralizerReport(
        key=key,
        perturbed_key=key2,
        equal=eq(key, key2),
        cond_c1_c2=commutes(c1, c2),
        cond_c1_ap=commutes(c1, mul(a, p)),
        cond_c2_bp=commutes(c2, mul(b, p)),
    )


# -- length attack skeleton --------------------------------------------------


def length_attack_skeleton(inst, budget: int) -> Optional[BraidWord]:
    """Greedy canonical-length descent for f-/shifted-conjugacy instances.

    Starting from the empty braid on ``inst.strands`` strands, repeatedly
    moves to the neighbour candidate * step over ``inst.steps`` with the
    smallest score: the total canonical length of the residues
    op(candidate, s)^-1 s' over the instance's pairs.  Best-effort only.
    Returns a substitution-verified witness or None.
    """
    strands, steps, op, pairs = inst.strands, inst.steps, inst.op, inst.pairs

    def score(candidate: BraidWord) -> int:
        total = 0
        for s, s2 in pairs:
            residue = braid.concat(braid.invert(apply_op(op, candidate, s)), s2)
            total += len(braid.canonical_word(residue).letters)
        return total

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


def run_recorded(
    instance_tag: str, platform_desc: str, parameters: str, solve: Callable, verify: Callable
) -> ExperimentRecord:
    """Time ``solve()`` alone into an ExperimentRecord, then record ``verify(result)``.

    A solver that raises BudgetExceeded is recorded unverified, and ``verify``
    is not called.
    """
    start = time.perf_counter()
    try:
        result = solve()
    except BudgetExceeded:
        outcome = "budget_exceeded"
    else:
        outcome = "not_found" if result is None else "found"
    elapsed = time.perf_counter() - start
    verified = outcome != "budget_exceeded" and verify(result)
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
# returns its trials, each the (instance tag, platform, parameters, solve,
# verify) arguments of run_recorded: ``solve()`` runs the solver and
# ``verify(result)`` checks what it returned.  Every instance is drawn while
# the trials are built and no solver draws from the generator, so the draw
# order does not depend on when the solvers run.

Trial = tuple[str, str, str, Callable[[], object], Callable[[object], bool]]


def _count(
    config: dict, key: str, default: int | None, minimum: int = 0, maximum: int | None = None,
) -> int | None:
    """``config[key]``: an int of at least ``minimum`` and at most ``maximum``
    (``true`` is not one), or null where the default is None."""
    value = config.get(key, default)
    if value is None and default is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ValueError(f"{key} must be an integer >= {minimum}, got {value!r}")
    if maximum is not None and value > maximum:
        raise ValueError(f"{key} must be at most {maximum}, got {value}")
    return value


# The largest degree of an S_n experiment.  Each added degree multiplies its
# enumerations by n: one trial took 0.03-0.3 s at degree 8 and 0.5-2.9 s at 9
# on a 2-core x86 host, and would take about an hour at 12.
_MAX_DEGREE = 8
# The largest braid sizes of a length attack, the ones verify-laws takes for
# --a and --p: no spec may use more strands, and the shifted op acts on B_2p.
# One trial took 0.17 s at 40 strands, 2.0 s at 80, 23.5 s at 160 and 21.3 s
# at p = 400, and 11.0 s at both caps, on a 2-core x86 host.
_MAX_STRANDS = MAX_PLATFORM_SIZE
_MAX_SHIFT_P = MAX_PLATFORM_SIZE // 2


def _symmetric(config: dict) -> SymmetricPlatform:
    """S_n for the config's ``degree``, 1 .. _MAX_DEGREE."""
    return SymmetricPlatform(_count(config, "degree", 4, 1, _MAX_DEGREE))


def _commuting_subgroups(platform: SymmetricPlatform, rng):
    """A one-generator subgroup A, the non-trivial centralizer of A as B, and both closures."""
    a_gens = (platform.random_element(rng),)
    b_gens = tuple(
        c for c in centralizer(platform, subgroup_closure(platform, a_gens))
        if not platform.eq(c, platform.identity())
    ) or (platform.identity(),)
    return a_gens, b_gens, subgroup_closure(platform, a_gens), subgroup_closure(platform, b_gens)


def _cdp_to_klp(config: dict, rng) -> list[Trial]:
    platform = _symmetric(config)
    a_gens, b_gens, a_closure, b_closure = _commuting_subgroups(platform, rng)

    def trial(t):
        x, y = rng.choice(a_closure), rng.choice(b_closure)
        s = platform.random_element(rng)
        inst = KLPInstance(s, g_conj(platform, x, s), g_conj(platform, y, s), a_gens, b_gens)
        truth = g_conj(platform, y, g_conj(platform, x, s))

        def solve():
            return reduce_cdp_to_klp(lambda i: bf_solve(i, platform), inst, platform)

        return "klp", f"S{platform.degree}", f"trial={t}", solve, partial(platform.eq, truth)

    return [trial(t) for t in range(_count(config, "trials", 10))]


def _sscsp_to_aagp(config: dict, rng) -> list[Trial]:
    platform = _symmetric(config)
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
            return reduce_sscsp_to_aagp(lambda i: bf_solve(i, platform), inst, platform).key

        return "aagp", f"S{platform.degree}", f"trial={t}", solve, partial(platform.eq, truth)

    return [trial(t) for t in range(_count(config, "trials", 10))]


def _inn_centralizer(config: dict, rng) -> list[Trial]:
    platform = _symmetric(config)

    def trial(t):
        p = platform.random_element(rng)
        s_gens = [platform.random_element(rng) for _ in range(2)]
        t_gens = [platform.random_element(rng) for _ in range(2)]
        a, b = platform.random_element(rng), platform.random_element(rng)
        c1 = rng.choice(centralizer(platform, [platform.mul(s, p) for s in s_gens]))
        c2 = rng.choice(centralizer(platform, [platform.mul(u, p) for u in t_gens]))

        def solve():
            return inn_centralizer_experiment(platform, s_gens, t_gens, a, b, p, c1, c2)

        def verify(report):
            conditions = report.cond_c1_c2 and report.cond_c1_ap and report.cond_c2_bp
            # the sufficiency claim: conditions holding forces K' = K
            return (not conditions) or report.equal

        return "inn_centralizer", f"S{platform.degree}", f"trial={t}", solve, verify

    return [trial(t) for t in range(_count(config, "trials", 10))]


def _bf_csp(config: dict, rng) -> list[Trial]:
    platform = _symmetric(config)
    budget = _count(config, "budget", None)

    def trial(t):
        s = platform.random_element(rng)
        x = platform.random_element(rng)
        inst = CSPInstance(s, g_conj(platform, x, s))

        def solve():
            return bf_solve(inst, platform, budget=budget)

        def verify(w):
            return w is not None and verify_witness(platform, inst, w)

        return "csp", f"S{platform.degree}", f"trial={t}", solve, verify

    return [trial(t) for t in range(_count(config, "trials", 10))]


def _length_attack(config: dict, rng) -> list[Trial]:
    p = _count(config, "p", 1, 1, _MAX_SHIFT_P)
    strands = _count(config, "strands", 5, 2, _MAX_STRANDS)
    secret_length = _count(config, "secret_length", 1)
    m = _count(config, "m", 2, 1)
    budget = _count(config, "budget", 8)
    op = ldops.shifted_op(p)

    def trial(t):
        b = braid.random_braid(strands, secret_length, rng)
        ss = [braid.random_braid(strands, 5, rng) for _ in range(m)]
        inst = ShCSPInstance(p, op.a, tuple((s, apply_op(op, b, s)) for s in ss))

        def solve():
            return length_attack_skeleton(inst, budget=budget)

        def verify(w):
            # best-effort search: not finding a witness is a legitimate
            # outcome, an unverified claim is not
            return w is None or verify_witness(None, inst, w)

        return "sh_csp", f"B{strands}", f"trial={t},p={p}", solve, verify

    return [trial(t) for t in range(_count(config, "trials", 10))]


def _laver_membership(config: dict, rng) -> list[Trial]:
    level = _count(config, "level", 3)
    max_leaves = _count(config, "max_leaves", 6, 1)
    op = ldops.laver_op(level)
    elements = op.platform.elements()
    closures = {g: submagma_closure(op, [g]) for g in elements}

    def trial(g, target):
        def solve():
            return bf_membership_magma(target, [g], [op], max_leaves)

        def verify(tree):
            return (tree is not None) == (target in closures[g])

        return "ld_msp", f"A_{level}", f"gen={g},target={target}", solve, verify

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

    The generator is ``random.Random(config.get("seed", 0))``.  Before any
    solver has run, ValueError refuses a config that is not an object, an
    ``experiment`` that is not a name in ``EXPERIMENTS``, a ``seed`` that is
    not an integer (``true`` and null are not), and any value its experiment
    refuses.
    """
    if not isinstance(config, dict):
        raise ValueError(f"an experiment config must be an object, got {type(config).__name__}")
    name = config.get("experiment")
    if not isinstance(name, str) or name not in EXPERIMENTS:
        raise ValueError(f"experiment must be one of {', '.join(EXPERIMENTS)}; got {name!r}")
    seed = config.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    return EXPERIMENTS[name](config, random.Random(seed))


def run_experiment(trials: Sequence[Trial]) -> list[ExperimentRecord]:
    """Run each trial's solver through run_recorded, in order."""
    return [run_recorded(*trial) for trial in trials]

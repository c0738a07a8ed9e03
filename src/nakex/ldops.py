"""The catalog of binary operations and their law verifiers.

Conjugacy x*y = x^-1 y x is the classical left-selfdistributive (LD) operation
on a group.  This module collects its generalizations (f-conjugacy, symmetric
conjugacy, twisted conjugacy, shifted conjugacy on braid groups with its
generalized and split parameter families, the x^k y x^l decomposition ops) and
the Laver tables, all behind one :class:`OpDescriptor` value over a carrier
(a group platform, or the :class:`LaverTable` itself), together with
randomized and exhaustive verifiers for the LD / multi-LD / distributivity
laws and for the algebraic parameter conditions that are equivalent to them.

An op kind is one row of ``_KINDS``: its formula ``formula(carrier, op, x, y)``
and its carrier class (the three group platforms, a braid platform, or the
Laver table); :func:`apply_op` is one lookup, the sampled law loop looks
each formula up once per check, the exhaustive LD check tabulates the op
once, and :class:`OpDescriptor` reads the known kinds, and refuses a wrong
carrier, from the same table.
The endomorphism conditions are identities of composition words in the
paper's notation ("fh=f" means f(h(x)) = f(x) for every x).  ``LAWS`` is
the table of named law checks that ``nakex verify-laws`` runs.

Descriptors are deliberately permissive: an op with invalid parameters (say a
shifted conjugacy whose braid parameter breaks the required relation) can
still be built and applied, so that the law verifiers can hunt the resulting
counterexamples.  The ``make_*`` constructors are the validating entry points.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, NamedTuple, Optional, Sequence

from . import braid
from .braid import BraidWord
from .platforms import (
    BraidPlatform,
    Element,
    Endomorphism,
    IdentityEndo,
    InnerEndo,
    MultModPlatform,
    Platform,
    SymmetricPlatform,
    endo_is_idempotent,
    g_pow,
)

__all__ = [
    "OpDescriptor",
    "LaverTable",
    "LawVerdict",
    "ConditionViolation",
    "apply_op",
    "op_eq",
    "op_sample",
    "conj_op",
    "f_conj_op",
    "f_conj_rev_op",
    "twisted_conj_op",
    "sym_conj_op",
    "f_sym_conj_op",
    "f_sym_conj_rev_op",
    "bullet_op",
    "beta_kl_op",
    "shifted_op",
    "shifted_bar_op",
    "shifted_rev_op",
    "fgh_conj_op",
    "fgh_sym_op",
    "laver_op",
    "laver_table",
    "verify_ld",
    "verify_ld_exhaustive",
    "verify_multi_ld",
    "verify_near_ld",
    "check_fconj_conditions",
    "check_symconj_conditions",
    "check_shifted_conditions",
    "check_distributivity",
    "LAWS",
    "make_generalized_shifted",
    "make_generalized_shifted_family",
    "make_generalized_shifted_bi",
    "make_split_shifted",
]

class ConditionViolation(ValueError):
    """A validated constructor's algebraic precondition failed."""


@dataclass(frozen=True)
class LaverTable:
    """The unique LD operation on {1..2^n} with p*1 = p+1 cyclically.

    It is also the carrier of its op: like a finite platform it enumerates,
    samples and compares its elements, the integers 1..2^n.
    """

    n: int
    rows: tuple[tuple[int, ...], ...]

    finite = True

    @property
    def size(self) -> int:
        return 1 << self.n

    def value(self, p: int, q: int) -> int:
        return self.rows[p - 1][q - 1]

    def eq(self, x: int, y: int) -> bool:
        return x == y

    def elements(self) -> range:
        return range(1, self.size + 1)

    def random_element(self, rng: random.Random, length: int = 8) -> int:
        return rng.randrange(1, self.size + 1)


@functools.lru_cache(maxsize=None)
def laver_table(n: int) -> LaverTable:
    """Compute A_n by the downward recursion.

    p*1 = p+1 (with 2^n * 1 = 1) and p*(q+1) = (p*q)*(p+1); rows are filled
    for p descending since p*q > p for p < 2^n.
    """
    if not 0 <= n <= 5:
        raise ValueError("Laver tables supported for 0 <= n <= 5")
    size = 1 << n
    rows: list[list[int]] = [[0] * size for _ in range(size)]
    for q in range(size):
        rows[size - 1][q] = q + 1  # 2^n acts as left identity
    for p in range(size - 1, 0, -1):
        row = rows[p - 1]
        row[0] = p + 1
        for q in range(1, size):
            step = rows[row[q - 1] - 1]
            row[q] = step[p]  # (p*q)*(p+1)
            assert row[q] > p or p == size
    return LaverTable(n, tuple(tuple(r) for r in rows))


@dataclass(frozen=True)
class OpDescriptor:
    """A parameterized binary operation over a carrier.

    ``kind`` selects the formula; ``platform`` is the carrier: a group
    platform, or for ``laver`` the :class:`LaverTable` itself, on {1..2^n}.
    Endomorphism parameters live in ``f`` (and ``g``, ``h`` for the general
    Ansatz forms), braid parameters in ``a`` and ``p``, exponents in ``k`` and
    ``l``.
    """

    kind: str
    platform: Platform | LaverTable
    f: Optional[Endomorphism] = None
    g: Optional[Endomorphism] = None
    h: Optional[Endomorphism] = None
    a: Optional[BraidWord] = None
    p: int = 1
    k: int = 1
    l: int = 1

    def __post_init__(self):
        row = _KINDS.get(self.kind)
        if row is None:
            raise ValueError(f"unknown op kind {self.kind!r}")
        if not isinstance(self.platform, row.carrier):
            raise ValueError(f"{self.kind} requires {_CARRIER_NAMES[row.carrier]}")
        if row.carrier is BraidPlatform and (self.a is None or self.p < 1):
            raise ValueError(f"{self.kind} requires a braid parameter and p >= 1")
        if row.idempotent_f and not endo_is_idempotent(self.f):
            raise ValueError(f"{self.kind} requires an idempotent endomorphism")


_GROUP_PLATFORMS = (BraidPlatform, SymmetricPlatform, MultModPlatform)


class _Kind(NamedTuple):
    """One op kind: its ``formula(carrier, op, x, y)``, the carrier class it
    needs (by default any group platform) and whether ``f`` must be
    idempotent."""

    formula: Callable
    carrier: type | tuple[type, ...] = _GROUP_PLATFORMS
    idempotent_f: bool = False


_CARRIER_NAMES = {
    _GROUP_PLATFORMS: "a platform", BraidPlatform: "a braid platform", LaverTable: "a Laver table",
}


def _sym_conj(G, op, x, y):
    return G.mul(G.mul(x, G.inv(y)), x)


def _shifted(_, op, x, y):
    # shift^p(x^-1) a shift^p(y) x
    return braid.concat_all(braid.shift(braid.invert(x), op.p), op.a, braid.shift(y, op.p), x)


def _shifted_rev(_, op, x, y):
    # x shift^p(y) a shift^p(x^-1)
    return braid.concat_all(x, braid.shift(y, op.p), op.a, braid.shift(braid.invert(x), op.p))


# The op catalog: one row per kind.  ``G`` is the group platform.
_KINDS = {
    "conj": _Kind(lambda G, op, x, y: G.mul(G.mul(G.inv(x), y), x)),
    "f_conj": _Kind(lambda G, op, x, y: G.mul(op.f.apply(G.mul(G.inv(x), y)), x)),
    "f_conj_rev": _Kind(lambda G, op, x, y: G.mul(x, op.f.apply(G.mul(y, G.inv(x))))),
    "twisted_conj": _Kind(lambda G, op, x, y: G.mul(G.mul(op.f.apply(G.inv(x)), y), x)),
    "sym_conj": _Kind(_sym_conj),
    "bullet": _Kind(_sym_conj),
    "f_sym_conj": _Kind(
        lambda G, op, x, y: G.mul(op.f.apply(G.mul(x, G.inv(y))), x), idempotent_f=True
    ),
    "f_sym_conj_rev": _Kind(
        lambda G, op, x, y: G.mul(x, op.f.apply(G.mul(G.inv(y), x))), idempotent_f=True
    ),
    "beta_kl": _Kind(lambda G, op, x, y: G.mul(G.mul(g_pow(G, x, op.k), y), g_pow(G, x, op.l))),
    "fgh_conj": _Kind(
        lambda G, op, x, y: G.mul(G.mul(op.f.apply(G.inv(x)), op.g.apply(y)), op.h.apply(x))
    ),
    "fgh_sym": _Kind(
        lambda G, op, x, y: G.mul(G.mul(op.f.apply(x), op.g.apply(G.inv(y))), op.h.apply(x))
    ),
    "shifted": _Kind(_shifted, BraidPlatform),
    "shifted_bar": _Kind(_shifted, BraidPlatform),
    "shifted_rev": _Kind(_shifted_rev, BraidPlatform),
    # LaverTable.value, read in place: the law checks call it most
    "laver": _Kind(lambda table, op, x, y: table.rows[x - 1][y - 1], LaverTable),
}


def apply_op(op: OpDescriptor, x: Element, y: Element) -> Element:
    """Apply the operation's defining formula."""
    return _KINDS[op.kind].formula(op.platform, op, x, y)


def _equality(op: OpDescriptor) -> Callable:
    if isinstance(op.platform, BraidPlatform):
        # Shifted ops outgrow the base strand count; compare at a common one.
        return braid.braids_equal
    return op.platform.eq


def op_eq(op: OpDescriptor, x: Element, y: Element) -> bool:
    return _equality(op)(x, y)


def _sampler(op: OpDescriptor, braid_len: int) -> Callable:
    """``draw(rng)``, one random element of op's carrier, looked up once.

    A braid carrier draws pure braids when a power-shift endomorphism is in
    play; otherwise the carrier's own ``random_element`` draws, braids of
    ``braid_len`` letters.
    """
    shifts = any(e is not None and e.kind == "power_shift" for e in (op.f, op.g, op.h))
    if shifts and not op.platform.finite:
        n = op.platform.strands
        return lambda rng: braid.random_pure_braid(n, rng, braid_len)
    draw = op.platform.random_element
    return lambda rng: draw(rng, braid_len)


def op_sample(op: OpDescriptor, rng: random.Random, braid_len: int = 5) -> Element:
    return _sampler(op, braid_len)(rng)


def op_domain(op: OpDescriptor):
    if not op.platform.finite:
        raise ValueError("exhaustive domain needs a finite platform or Laver table")
    return op.platform.elements()


# -- descriptor constructors -------------------------------------------------


def conj_op(platform: Platform) -> OpDescriptor:
    return OpDescriptor("conj", platform)


def f_conj_op(f: Endomorphism) -> OpDescriptor:
    """x*y = f(x^-1 y) x; left-selfdistributive for every endomorphism f."""
    return OpDescriptor("f_conj", f.platform, f=f)


def f_conj_rev_op(f: Endomorphism) -> OpDescriptor:
    return OpDescriptor("f_conj_rev", f.platform, f=f)


def twisted_conj_op(f: Endomorphism) -> OpDescriptor:
    """x*y = f(x^-1) y x; not LD, satisfies the near-LD law instead."""
    return OpDescriptor("twisted_conj", f.platform, f=f)


def sym_conj_op(platform: Platform) -> OpDescriptor:
    """x*y = x y^-1 x."""
    return OpDescriptor("sym_conj", platform)


def bullet_op(platform: Platform) -> OpDescriptor:
    """Same formula as sym_conj; separate tag for the decomposition schemes."""
    return OpDescriptor("bullet", platform)


def f_sym_conj_op(f: Endomorphism) -> OpDescriptor:
    """x*y = f(x y^-1) x for an idempotent f."""
    return OpDescriptor("f_sym_conj", f.platform, f=f)


def f_sym_conj_rev_op(f: Endomorphism) -> OpDescriptor:
    return OpDescriptor("f_sym_conj_rev", f.platform, f=f)


def beta_kl_op(platform: Platform, k: int, l: int) -> OpDescriptor:
    """x*y = x^k y x^l."""
    return OpDescriptor("beta_kl", platform, k=k, l=l)


def fgh_conj_op(f: Endomorphism, g: Endomorphism, h: Endomorphism) -> OpDescriptor:
    """The Ansatz x*y = f(x^-1) g(y) h(x); LD iff the four relation groups
    of :func:`check_fconj_conditions` hold."""
    return OpDescriptor("fgh_conj", f.platform, f=f, g=g, h=h)


def fgh_sym_op(f: Endomorphism, g: Endomorphism, h: Endomorphism) -> OpDescriptor:
    """The Ansatz x*y = f(x) g(y^-1) h(x)."""
    return OpDescriptor("fgh_sym", f.platform, f=f, g=g, h=h)


def _shifted_family_op(
    kind: str, inverse: bool, p: int = 1, a: BraidWord | None = None
) -> OpDescriptor:
    """The op of ``kind`` over B_max(2p, 2) with braid parameter ``a``,
    by default tau(p, p), or its inverse when ``inverse`` is set.

    ``shifted_op``: x*y = shift^p(x^-1) a shift^p(y) x; the p=1, a=sigma_1
    default is the original shifted conjugacy.  ``shifted_bar_op``: the same
    formula, the companion of the bi-LD pair; default a = sigma_1^-1.
    ``shifted_rev_op``: x*y = x shift^p(y) a shift^p(x^-1), the reverse.
    """
    if a is None:
        a = braid.tau(p, p)
        if inverse:
            a = braid.invert(a)
    return OpDescriptor(kind, BraidPlatform(max(2 * p, 2)), a=a, p=p)


shifted_op = functools.partial(_shifted_family_op, "shifted", False)
shifted_bar_op = functools.partial(_shifted_family_op, "shifted_bar", True)
shifted_rev_op = functools.partial(_shifted_family_op, "shifted_rev", False)


def laver_op(n: int) -> OpDescriptor:
    return OpDescriptor("laver", laver_table(n))


# -- law verifiers -----------------------------------------------------------


@dataclass(frozen=True)
class LawVerdict:
    """Outcome of a randomized or exhaustive law check."""

    passed: bool
    checked: int
    counterexample: Optional[tuple] = None
    law: str = "ld"

    def __bool__(self) -> bool:
        return self.passed


def _law(
    op1: OpDescriptor,
    op2: OpDescriptor,
    triples,
    law: str,
    f: Optional[Endomorphism] = None,
) -> LawVerdict:
    """Check x *1 (y *2 z) = (x *1 y) *2 (f(x) *1 z) on each triple in turn.

    ``f`` defaults to the identity; the first violating triple is returned.
    Each formula, its carrier and op1's equality are looked up once, not
    per triple; ``form(G, op, x, y)`` is ``apply_op(op, x, y)``.
    """
    form1, G1 = _KINDS[op1.kind].formula, op1.platform
    form2, G2 = _KINDS[op2.kind].formula, op2.platform
    eq = _equality(op1)
    checked = 0
    for checked, (x, y, z) in enumerate(triples, 1):
        fx = x if f is None else f.apply(x)
        lhs = form1(G1, op1, x, form2(G2, op2, y, z))
        rhs = form2(G2, op2, form1(G1, op1, x, y), form1(G1, op1, fx, z))
        if not eq(lhs, rhs):
            return LawVerdict(False, checked, (x, y, z), law)
    return LawVerdict(True, checked, law=law)


def _samples(op: OpDescriptor, samples: int, rng: random.Random, braid_len: int):
    """``samples`` random triples (x, y, z) from op's carrier, drawn as they are needed.

    Raises ValueError for ``samples < 1``: a check of no triples proves nothing.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    draw = _sampler(op, braid_len)
    return ((draw(rng), draw(rng), draw(rng)) for _ in range(samples))


def verify_ld(
    op: OpDescriptor,
    samples: int,
    rng: random.Random,
    braid_len: int = 5,
) -> LawVerdict:
    """Check x*(y*z) = (x*y)*(x*z) on random triples.

    Returns the first violating triple if one is found.
    """
    return _law(op, op, _samples(op, samples, rng, braid_len), "ld")


def verify_ld_exhaustive(op: OpDescriptor) -> LawVerdict:
    """Exhaustive LD check over a finite carrier D.

    The op is tabulated once: |D|^2 formula calls, each value kept as its
    index in D, so the table holds |D|^2 ints (and its row readers as many
    references).  For each x, both sides of
    x*(y*z) = (x*y)*(x*z) are then read for every (y, z) as whole rows and
    compared.  The verdict is the triple loop's over
    ``itertools.product(D, repeat=3)``: on a mismatch the first failing
    triple in that order is located, and ``checked`` counts up to it.
    """
    domain = list(op_domain(op))
    form, G = _KINDS[op.kind].formula, op.platform
    index = {x: i for i, x in enumerate(domain)}
    table = [[index[form(G, op, x, y)] for y in domain] for x in domain]
    # reads[y](row) reads row at every y*z: with row the row of x, that is
    # x*(y*z) for every z; reads[x](table[x*y]) is (x*y)*(x*z) for every z.
    reads = [itemgetter(*row) for row in table]
    n = len(domain)
    for i, (row, x_times) in enumerate(zip(table, reads)):
        if [read(row) for read in reads] != [x_times(table[xy]) for xy in row]:
            j, k = next(
                (j, k)
                for j, y_row in enumerate(table)
                for k, yz in enumerate(y_row)
                if row[yz] != table[row[j]][row[k]]
            )
            triple = (domain[i], domain[j], domain[k])
            return LawVerdict(False, (i * n + j) * n + k + 1, triple, "ld")
    return LawVerdict(True, n**3, law="ld")


def verify_multi_ld(
    family: Sequence[OpDescriptor],
    samples: int,
    rng: random.Random,
    braid_len: int = 5,
) -> LawVerdict:
    """Check x*_i(y*_j z) = (x*_i y)*_j (x*_i z) for every ordered pair (i, j).

    Raises ValueError for an empty family: a check of no laws proves nothing.
    """
    if not family:
        raise ValueError(f"family must hold at least 1 op, got {len(family)}")
    checked = 0
    for i, opi in enumerate(family):
        for j, opj in enumerate(family):
            verdict = _law(opi, opj, _samples(opi, samples, rng, braid_len), "multi_ld")
            checked += verdict.checked
            if not verdict.passed:
                return LawVerdict(False, checked, (i, j, *verdict.counterexample), "multi_ld")
    return LawVerdict(True, checked, law="multi_ld")


def verify_near_ld(
    op: OpDescriptor,
    f: Endomorphism,
    samples: int,
    rng: random.Random,
    braid_len: int = 5,
) -> LawVerdict:
    """The near-LD law of twisted conjugacy: x*(y*z) = (x*y)*(f(x)*z)."""
    return _law(op, op, _samples(op, samples, rng, braid_len), "near_ld", f)


def check_distributivity(
    op1: OpDescriptor,
    op2: OpDescriptor,
    samples: int,
    rng: random.Random,
    braid_len: int = 5,
) -> LawVerdict:
    """Check op1 distributes over op2: x *1 (y *2 z) = (x *1 y) *2 (x *1 z)."""
    return _law(op1, op2, _samples(op1, samples, rng, braid_len), "distributivity")


# -- the law table ------------------------------------------------------------
#
# ``nakex verify-laws --op NAME`` runs row NAME of ``LAWS``: (label,
# verdict(params, rng)).  ``params`` carries ``platform``, ``samples``, ``p``,
# ``a`` and ``level`` (the CLI's parsed arguments), and the label is formatted
# with them; ``rng`` is seeded by ``--seed``, and each verdict draws its
# parameters from it before its samples.


def _inner(params, rng) -> InnerEndo:
    return InnerEndo(params.platform, params.platform.random_element(rng))


def _ld(make_op, braid_len: int = 5) -> Callable:
    """The verdict of :func:`verify_ld` on the op ``make_op(params, rng)``."""
    return lambda q, rng: verify_ld(make_op(q, rng), q.samples, rng, braid_len)


def _twisted(params, rng) -> LawVerdict:
    f = _inner(params, rng)
    return verify_near_ld(twisted_conj_op(f), f, params.samples, rng)


def _bi_ld(params, rng) -> LawVerdict:
    star = shifted_op(params.p, params.a)
    bar = shifted_bar_op(params.p, None if params.a is None else braid.invert(params.a))
    return verify_multi_ld([star, bar], params.samples, rng, braid_len=4)


LAWS = {
    "conj": ("conj LD", _ld(lambda q, rng: conj_op(q.platform))),
    "sym_conj": ("sym_conj LD", _ld(lambda q, rng: sym_conj_op(q.platform))),
    "f_conj": ("f_conj(inner) LD", _ld(lambda q, rng: f_conj_op(_inner(q, rng)))),
    "f_sym_conj": (
        "f_sym_conj(id) LD", _ld(lambda q, rng: f_sym_conj_op(IdentityEndo(q.platform)))
    ),
    "twisted": ("twisted near-LD", _twisted),
    "shifted": ("shifted(p={p}) LD", _ld(lambda q, rng: shifted_op(q.p, q.a), 4)),
    "shifted_rev": ("shifted_rev(p={p}) LD", _ld(lambda q, rng: shifted_rev_op(q.p, q.a), 4)),
    "bi_ld": ("bi-LD {{*, bar*}} (p={p})", _bi_ld),
    "laver": ("laver A_{level} LD", lambda q, rng: verify_ld_exhaustive(laver_op(q.level))),
}


# -- parameter condition checkers -------------------------------------------


def _identities_hold(
    identities: str, f: Endomorphism, g: Endomorphism, h: Endomorphism, platform: Platform
) -> bool:
    """Check each ``left=right`` identity of composition words pointwise on a
    finite platform, in order, stopping at the first that fails; the word
    "fh" is the map x -> f(h(x))."""
    if not platform.finite:
        raise ValueError("exhaustive composition check needs a finite platform")
    maps = {"f": f.apply, "g": g.apply, "h": h.apply}

    def compose(word, x):
        for name in reversed(word):
            x = maps[name](x)
        return x

    for identity in identities.split():
        lhs, rhs = identity.split("=")
        if not all(platform.eq(compose(lhs, x), compose(rhs, x)) for x in platform.elements()):
            return False
    return True


def check_fconj_conditions(
    f: Endomorphism, g: Endomorphism, h: Endomorphism, platform: Platform
) -> bool:
    """Conditions equivalent to x*y = f(x^-1) g(y) h(x) being LD:

    fh = f,  gh = hg = hf,  fg = gf = f^2,  h^2 = h   (composition f∘h etc.),
    checked pointwise on a finite platform.
    """
    return _identities_hold("fh=f gh=hg gh=hf fg=gf fg=ff hh=h", f, g, h, platform)


def check_symconj_conditions(
    f: Endomorphism, g: Endomorphism, h: Endomorphism, platform: Platform
) -> bool:
    """Conditions equivalent to x*y = f(x) g(y^-1) h(x) being LD:

    f^2 = f,  fh = gh = fg,  hg = gf = hf,  h^2 = h.
    """
    return _identities_hold("ff=f fh=gh fh=fg hg=gf hg=hf hh=h", f, g, h, platform)


def check_shifted_conditions(p: int, a: BraidWord) -> bool:
    """Sufficient conditions for shift^p(x^-1) a shift^p(y) x to be LD:

    a in B_{2p} (so a commutes with shift^{2p} of everything in the
    truncation) and a shift^p(a) a = shift^p(a) a shift^p(a) as normal forms.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    if braid.max_index(a) >= 2 * p:
        return False
    da = braid.shift(a, p)
    return braid.braids_equal(braid.concat_all(a, da, a), braid.concat_all(da, a, da))


def _commute(x: BraidWord, y: BraidWord) -> bool:
    return braid.braids_equal(braid.concat(x, y), braid.concat(y, x))


def _require(members, commutators) -> None:
    """Raise ConditionViolation at the first (name, w, n) of ``members`` with
    w outside B_n, else at the first (name, u, v) of ``commutators`` with
    [u, v] != 1."""
    for name, w, n in members:
        if braid.max_index(w) >= n:
            raise ConditionViolation(f"{name} must lie in B_{n}")
    for name, u, v in commutators:
        if not _commute(u, v):
            raise ConditionViolation(f"{name} != 1")


def make_generalized_shifted(p: int, a1: BraidWord, a2: BraidWord) -> OpDescriptor:
    """Shifted op with parameter a = a1 tau(p,p) a2 for a1, a2 in B_p.

    Valid (and LD) exactly when [a1, a2] = 1; rejected otherwise with the
    failing commutator.
    """
    _require((("a1", a1, p), ("a2", a2, p)), (("[a1, a2]", a1, a2),))
    a = braid.concat_all(a1, braid.tau(p, p), a2)
    return shifted_op(p, a)


def make_generalized_shifted_family(
    p: int, pairs: Sequence[tuple[BraidWord, BraidWord]]
) -> tuple[OpDescriptor, ...]:
    """Multi-LD family with a_i = a_i' tau(p,p) a_i''.

    Requires [a_i', a_j'] = [a_i', a_j''] = 1 for all i, j (the a_i'' need not
    commute with each other).
    """
    marks = ("'", "''")
    _require(
        [(f"a{i}{m}", w, p) for i, pair in enumerate(pairs) for m, w in zip(marks, pair)],
        [
            (f"[a{i}', a{j}{m}]", ai1, w)
            for i, (ai1, _) in enumerate(pairs)
            for j, pair in enumerate(pairs)
            for m, w in zip(marks, pair)
        ],
    )
    return tuple(
        shifted_op(p, braid.concat_all(a1, braid.tau(p, p), a2)) for a1, a2 in pairs
    )


def make_generalized_shifted_bi(
    p: int,
    a1: tuple[BraidWord, BraidWord],
    a2: tuple[BraidWord, BraidWord],
) -> tuple[OpDescriptor, OpDescriptor]:
    """Bi-LD pair with a_1 = a1' tau(p,p) a1'' and a_2 = a2' tau(p,p)^-1 a2''.

    Requires [a1',a1''] = [a2',a2''] = [a1',a2''] = [a2',a1''] = [a1',a2'] = 1.
    """
    (x1, x2), (y1, y2) = a1, a2
    _require(
        (("a1'", x1, p), ("a1''", x2, p), ("a2'", y1, p), ("a2''", y2, p)),
        (
            ("[a1', a1'']", x1, x2),
            ("[a2', a2'']", y1, y2),
            ("[a1', a2'']", x1, y2),
            ("[a2', a1'']", y1, x2),
            ("[a1', a2']", x1, y1),
        ),
    )
    t = braid.tau(p, p)
    op1 = shifted_op(p, braid.concat_all(x1, t, x2))
    op2 = shifted_bar_op(p, braid.concat_all(y1, braid.invert(t), y2))
    return op1, op2


def make_split_shifted(
    p1: int,
    p2: int,
    a1p: BraidWord,
    a1pp: BraidWord,
    a2p: BraidWord,
    a2pp: BraidWord,
) -> OpDescriptor:
    """Shifted op for p = p1 + p2 with the split parameter

    a = a1' shift^{p1}(a2') shift^{p1}(tau(p2,p)) tau(p,p1)^-1 a1'' shift^{p1}(a2'')

    for a1', a1'' in B_{p1} and a2', a2'' in B_{p2}; requires
    [a1', a1''] = [a2', a2''] = 1.
    """
    p = p1 + p2
    _require(
        (("a1'", a1p, p1), ("a1''", a1pp, p1), ("a2'", a2p, p2), ("a2''", a2pp, p2)),
        (("[a1', a1'']", a1p, a1pp), ("[a2', a2'']", a2p, a2pp)),
    )
    a = braid.concat_all(
        a1p,
        braid.shift(a2p, p1),
        braid.shift(braid.tau(p2, p), p1),
        braid.invert(braid.tau(p, p1)),
        a1pp,
        braid.shift(a2pp, p1),
    )
    return shifted_op(p, a)

"""The generic two-party key-establishment engine and its instantiations.

One protocol is run throughout, the generalized AAG-KEP for magmas.  Alice
and Bob publish generator lists s_1..s_m and t_1..t_b, and each party

1. draws a secret from its own generators (a tree word, or a word, an
   exponent or a pair of subgroup words where the instantiation asks so);
2. publishes beta of that secret on the peer's generators (or on a public
   base element);
3. pushes its own tree through the peer's messages (pi), which gives
   beta(peer secret, own secret);
4. combines the result with its secret (gamma).

Condition (3) of the scheme makes both gamma outputs the same element K, from
which a byte key is extracted via canonical serialization and SHA-256.

The instantiations differ only in these maps and in what they validate, so
each tag is one row of ``_SCHEMES``: ``party`` draws one party's secret and
binds steps 2-4 to it, ``check`` holds the tag's own conditions on a spec,
``drawn`` names the generator lists that must be nonempty, ``sample`` is the
tag's :func:`random_spec` draw, and ``work_platform`` the platform it
computes on.  Steps 2-4 come in three shared shapes:

- published on the base: ``left base^e right``, keyed as
  ``left (peer message)^e right`` (classic_dh with identity sides, group_dh,
  ko_lee, str_kep);
- two-sided on the peer's generators: ``left t right`` for every peer
  generator t, keyed as ``left step3`` (Alice) or ``step3 right`` (Bob)
  (simdcp, simdcp_alt, symdp);
- LD-operation commutator: ``beta(secret, t)`` under the tag's LD operation,
  keyed as a commutator (f_commutator, shifted_commutator).

aag_commutator publishes conjugates and pushes its word through them with the
product alone.  :func:`run` draws, publishes and finishes for both roles and
compares the keys; nothing outside the table branches on the tag.

Instantiation tags:

==================  ========================================================
classic_dh          x^k / x^l in the multiplicative group mod p
group_dh            a1 x a2 with pairwise commuting subgroups; K=a1 b1 x a2 b2
ko_lee              the a1 = a2^-1 special case (conjugation form)
str_kep             a^-1 x^k a hybrid; K = a^-1 b^-1 x^{kl} b a
aag_commutator      conjugation; K is the commutator [a, b]
simdcp              beta = a_l y a_r over x*y = x y^-1 x trees
simdcp_alt          same scheme, secrets as alternating words
symdp               beta_1 = x^k y x, beta_2 = x y x^l; K = a^k b a b^l
f_commutator        f-conjugacy trees; K = [a,b]_f = a^-1 f(b^-1) f(a) b
shifted_commutator  shifted conjugacy on braids; K = [a,b]_sh (or the
                    reverse-operation variant with K = [a, b^-1]_sh)
==================  ========================================================

Every :class:`ProtocolSpec` is validated when it is built, whether by a
``make_*`` constructor, from JSON or by ``dataclasses.replace``: a spec whose
keys could disagree (an element that is not on its platform, non-commuting
subgroups, a shifted-conjugacy parameter that fails its conditions, ...) or
whose platform has more than :data:`MAX_PLATFORM_SIZE` strands or points
raises a typed ``ValueError``.
A :class:`Transcript` is a deterministic function of (spec, seed) and
round-trips through JSON byte-identically.
"""

from __future__ import annotations

import hashlib
import json
import random
import warnings
from dataclasses import dataclass, field
from functools import partial
from operator import attrgetter
from types import SimpleNamespace
from typing import Callable, NamedTuple, Optional

from . import braid, ldops, magma
from .braid import BraidWord
from .ldops import apply_op
from .magma import Leaf, Node, TreeWord
from .platforms import (
    BraidPlatform,
    Element,
    Endomorphism,
    IdentityEndo,
    InnerEndo,
    MultModPlatform,
    Platform,
    PlatformMismatch,
    PointMapEndo,
    PowerShiftEndo,
    SymmetricPlatform,
    decode_element,
    encode_element,
    g_pow,
)

__all__ = [
    "KeyPolicy",
    "ProtocolSpec",
    "SecretKey",
    "Transcript",
    "KeyMismatch",
    "PolicyViolation",
    "CommutationViolation",
    "WeakKeyWarning",
    "PROTOCOL_TAGS",
    "run",
    "generate_secrets",
    "work_platform",
    "key_extract",
    "spec_digest",
    "spec_to_json",
    "spec_from_json",
    "transcript_to_json",
    "transcript_from_json",
    "make_classic_dh",
    "make_group_dh",
    "make_ko_lee",
    "make_str_kep",
    "make_aag_commutator",
    "make_simdcp",
    "make_simdcp_alt",
    "make_symdp",
    "make_f_commutator",
    "make_shifted_commutator",
    "random_spec",
]

# The most strands a spec may compute on, and the largest degree of a symmetric
# platform it may name: normal forms on B_n cost O(n^2) per factor, and the
# desk-scale instantiations here stay at B_14 and S_5.
MAX_PLATFORM_SIZE = 64

# The most leaves a KeyPolicy may allow.  Drawing and evaluating a tree recurse
# once per level, so a deeper tree ends in RecursionError; 256 is far below
# Python's default recursion limit of 1000 and above every tree a random_spec
# draws (at most 8 leaves).
MAX_POLICY_LEAVES = 256


class KeyMismatch(AssertionError):
    """K_A != K_B: an engine bug or a spec that slipped validation."""


class PolicyViolation(ValueError):
    """The key policy cannot be satisfied."""


class CommutationViolation(ValueError):
    """Subgroup generator sets required to commute do not."""


class WeakKeyWarning(UserWarning):
    """A generated secret is degenerate (identity element)."""


@dataclass(frozen=True)
class KeyPolicy:
    """Limits for random secret generation.

    Braid platforms keep trees shallow and comb-biased because word length is
    exponential in the distance from a left comb; finite platforms can afford
    more leaves, up to :data:`MAX_POLICY_LEAVES`.  ``gen_length`` is the
    length of a free-element draw (``random_element``) on braid platforms;
    finite platforms ignore it.
    """

    max_leaves: int = 5
    max_depth: int = 4
    comb_bias: float = 0.75
    gen_length: int = 8
    max_word_letters: int = 60000
    exponent_min: int = 2
    exponent_max: int = 64

    def __post_init__(self):
        if self.max_leaves < 1 or self.max_depth < 0:
            raise PolicyViolation("max_leaves must be >= 1 and max_depth >= 0")
        if self.max_leaves > self.max_depth + 1:
            # a tree with k leaves has depth at most k-1, so this bound makes
            # the depth cap satisfiable by every drawn shape
            raise PolicyViolation("need max_leaves <= max_depth + 1")
        if self.max_leaves > MAX_POLICY_LEAVES:
            raise PolicyViolation(f"max_leaves must be <= {MAX_POLICY_LEAVES}")
        if not 0.0 <= self.comb_bias <= 1.0:
            raise PolicyViolation("comb_bias must lie in [0, 1]")
        if self.gen_length < 0:
            raise PolicyViolation("gen_length must be >= 0")
        if self.exponent_min > self.exponent_max:
            raise PolicyViolation("need exponent_min <= exponent_max")


FINITE_POLICY = KeyPolicy(max_leaves=8, max_depth=7, comb_bias=0.5)


@dataclass(frozen=True)
class ProtocolSpec:
    """Everything needed to (re)run one protocol instance deterministically.

    ``alice_gens`` are the s_i (the generators Alice's secret is built from,
    whose images Bob publishes), ``bob_gens`` the t_j.  Which optional fields
    apply depends on ``tag``; construction validates them (see ``_validate``).
    """

    tag: str
    platform: Platform
    alice_gens: tuple[Element, ...] = ()
    bob_gens: tuple[Element, ...] = ()
    policy: KeyPolicy = field(default_factory=KeyPolicy)
    seed: int = 0
    base: Optional[Element] = None
    a1_gens: tuple[Element, ...] = ()
    a2_gens: tuple[Element, ...] = ()
    b1_gens: tuple[Element, ...] = ()
    b2_gens: tuple[Element, ...] = ()
    endo: Optional[Endomorphism] = None
    shift_p: int = 1
    shift_a: Optional[BraidWord] = None
    variant: str = ""
    k: Optional[int] = None
    l: Optional[int] = None
    secret_exponents: bool = False

    def __post_init__(self):
        _validate(self)


@dataclass(frozen=True)
class SecretKey:
    """One party's secret: tree words plus auxiliary elements and exponents.

    - tree secrets (aag, simdcp a_r / b_l, symdp, f/shifted commutator) live
      in ``trees``; the realized element in ``elements[0]``.
    - free auxiliary elements (simdcp a_l / b_r, group_dh pairs) follow in
      ``elements``.
    - exponents (classic_dh, str_kep, symdp) in ``exponents``.
    - alternating-word index sequences (simdcp_alt) in ``indices``.
    """

    trees: tuple[TreeWord, ...] = ()
    elements: tuple[Element, ...] = ()
    exponents: tuple[int, ...] = ()
    indices: tuple[int, ...] = ()


@dataclass(frozen=True)
class Transcript:
    """Full record of one protocol run; a pure function of (spec, seed)."""

    spec: ProtocolSpec
    alice_messages: tuple[Element, ...]
    bob_messages: tuple[Element, ...]
    alice_step3: Element
    bob_step3: Element
    key_a: Element
    key_b: Element
    extracted_key: bytes


# -- the table's row type ----------------------------------------------------

ALICE, BOB = 0, 1
_ROLE_NAMES = ("Alice", "Bob")


class _Party(NamedTuple):
    """One party after step 1: its secret, with steps 2-4 bound to it.

    ``publish()`` gives the step-2 messages; ``finish(peer_messages)`` gives
    (step-3 value, key).
    """

    secret: SecretKey
    publish: Callable[[], tuple]
    finish: Callable[[tuple], tuple]


class _Scheme(NamedTuple):
    """One instantiation: a row of ``_SCHEMES``.

    ``party(spec, platform, role, rng)`` is step 1 and returns a
    :class:`_Party`; ``sample(rng, run_seed)`` is the tag's random_spec draw;
    ``check(spec)`` raises if the tag's own conditions fail; ``drawn`` are the
    generator lists that must be nonempty; ``work_platform(spec)`` is the
    platform to compute on.
    """

    party: Callable
    sample: Callable
    check: Callable = lambda spec: None
    drawn: tuple[str, ...] = ("alice_gens", "bob_gens")
    work_platform: Callable = lambda spec: spec.platform


# -- platform sizing ---------------------------------------------------------


def _shifted_work_platform(spec: ProtocolSpec) -> Platform:
    """B_n sized up front for shifted conjugacy.

    Every operation application wraps its operands in shift^p.  The published
    messages stack one application on a secret of tree depth <= max_depth,
    and the step-3 push-through stacks the other party's tree on top of those
    message words: L = 2 max_depth + 1 levels.  From the largest starting
    index x_0 each level adds p, and the braid parameter's index A enters at
    every level, so the last index is x_L = max(x_0 + L p, A + (L - 1) p).
    """
    p, levels = spec.shift_p, 2 * spec.policy.max_depth + 1
    gens = spec.alice_gens + spec.bob_gens
    start = max([spec.platform.strands - 1] + [braid.max_index(g) for g in gens])
    last = max(start + levels * p, braid.max_index(spec.shift_a) + (levels - 1) * p)
    return BraidPlatform(last + 1)


def work_platform(spec: ProtocolSpec) -> Platform:
    """The platform all computation and serialization happens on.

    It is the spec's platform, except for shifted conjugacy, where the ambient
    B_n grows with the tree depth (see ``_shifted_work_platform``).
    """
    return _SCHEMES[spec.tag].work_platform(spec)


# -- key extraction ----------------------------------------------------------


def key_extract(platform: Platform, x: Element) -> bytes:
    """SHA-256 of the platform's ``key_payload`` of x.

    On braid platforms the payload encodes the Garside normal form, so equal
    braids extract identical 32-byte keys.
    """
    return hashlib.sha256(platform.key_payload(x)).digest()


# -- spec validation ---------------------------------------------------------


def _check_size(platform: Platform, what: str) -> None:
    if isinstance(platform, BraidPlatform) and platform.strands > MAX_PLATFORM_SIZE:
        raise ValueError(f"{what} B_{platform.strands} has over {MAX_PLATFORM_SIZE} strands")
    if isinstance(platform, SymmetricPlatform) and platform.degree > MAX_PLATFORM_SIZE:
        raise ValueError(f"{what} S_{platform.degree} has degree over {MAX_PLATFORM_SIZE}")


# The spec's generator lists: _validate checks their elements, and spec JSON
# writes each as a list of hex.
_GENERATOR_LISTS = ("alice_gens", "bob_gens", "a1_gens", "a2_gens", "b1_gens", "b2_gens")


def _validate(spec: ProtocolSpec) -> None:
    """Check the conditions K_A = K_B rests on; a typed ValueError if one fails.

    This is the one place where the base and the generators are checked
    against the spec's platform; nothing checks them again while the spec
    runs.  The plain fields' types come first, so that no later check
    compares a string or a list; then the platform's size, and the base.
    The row's checks come before the generators, so that a platform of the
    wrong kind or an endomorphism of another platform is refused as such;
    they read generators only through the platform's own arithmetic, which
    refuses a foreign one, or as braids (purity).  The work platform, which
    is computed from the generators, is sized last.
    """
    for key, (attr, dump, _, types) in _SPEC_FIELDS.items():
        if dump is None and type(getattr(spec, attr)) not in types:
            raise _type_error(key, getattr(spec, attr), types)
    scheme = _SCHEMES.get(spec.tag)
    if scheme is None:
        raise ValueError(f"unknown protocol tag {spec.tag!r}")
    _check_size(spec.platform, "platform")
    for name in scheme.drawn:
        if not getattr(spec, name):
            raise ValueError(f"{spec.tag} needs a nonempty {name}")
    if spec.base is not None:
        spec.platform.check(spec.base)
    scheme.check(spec)
    for name in _GENERATOR_LISTS:
        for g in getattr(spec, name):
            spec.platform.check(g)
    _check_size(scheme.work_platform(spec), "work platform")


def _check_base(spec: ProtocolSpec) -> None:
    if spec.base is None:
        raise ValueError(f"{spec.tag} needs a base element")


def _check_commuting(platform: Platform, left: tuple, right: tuple, what: str) -> None:
    for u in left:
        for v in right:
            if not platform.eq(platform.mul(u, v), platform.mul(v, u)):
                raise CommutationViolation(f"{what}: generators do not commute")


def _check_dh(spec: ProtocolSpec) -> None:
    _check_base(spec)
    if not isinstance(spec.platform, MultModPlatform):
        raise PlatformMismatch("classic_dh needs a mult_mod platform")


def _check_group_dh(spec: ProtocolSpec) -> None:
    _check_base(spec)
    _check_commuting(spec.platform, spec.a1_gens, spec.b1_gens, "[A1, B1]")
    _check_commuting(spec.platform, spec.a2_gens, spec.b2_gens, "[A2, B2]")


def _check_conjugation(spec: ProtocolSpec) -> None:
    _check_base(spec)
    _check_commuting(spec.platform, spec.a1_gens, spec.b1_gens, "[A, B]")


def _check_symdp(spec: ProtocolSpec) -> None:
    if spec.k not in (None, 1) and spec.l not in (None, 1):
        raise ValueError("symdp needs k = 1 or l = 1")


def _check_f_commutator(spec: ProtocolSpec) -> None:
    if spec.endo is None or spec.endo.platform != spec.platform:
        raise ValueError("f_commutator needs an endomorphism of its platform")
    if isinstance(spec.endo, PowerShiftEndo):
        for g in spec.alice_gens + spec.bob_gens:
            # a generator that is no braid is refused with the other generators
            if isinstance(g, BraidWord) and not braid.is_pure(g):
                raise ValueError("pure-braid f-commutator needs pure generators")


def _check_shifted(spec: ProtocolSpec) -> None:
    if spec.variant not in ("bi_ld", "rev"):
        raise ValueError("variant must be 'bi_ld' or 'rev'")
    if not isinstance(spec.platform, BraidPlatform):
        raise PlatformMismatch("shifted_commutator needs a braid platform")
    if spec.shift_a is None or not ldops.check_shifted_conditions(spec.shift_p, spec.shift_a):
        raise ldops.ConditionViolation("braid parameter fails the shifted-conjugacy conditions")


# -- step 1: secrets ---------------------------------------------------------


def _word_secret(
    platform: Platform, gens: tuple[Element, ...], policy: KeyPolicy, rng: random.Random
) -> tuple[TreeWord, Element]:
    """Random subgroup word over gens and their inverses, as a product comb."""
    ext = list(gens) + [platform.inv(g) for g in gens]
    length = rng.randint(1, policy.max_leaves)
    indices = [rng.randrange(len(ext)) for _ in range(length)]
    tree: TreeWord = Leaf(indices[-1])
    for i in reversed(indices[:-1]):
        tree = Node(0, Leaf(i), tree)
    value = ext[indices[0]]
    for i in indices[1:]:
        value = platform.mul(value, ext[i])
    return tree, value


def _tree_secret(
    platform: Platform, gens: tuple[Element, ...], ops: tuple, policy: KeyPolicy,
    rng: random.Random,
) -> tuple[TreeWord, Element]:
    """Random policy tree over gens and ops, and its value."""
    tree = magma.random_tree(
        rng.randint(1, policy.max_leaves), len(gens), len(ops), policy.comb_bias, rng
    )
    # guaranteed by max_leaves <= max_depth + 1
    assert magma.tree_depth(tree) <= policy.max_depth
    value = magma.eval_tree(tree, gens, ops)
    if isinstance(value, BraidWord) and len(value.letters) > policy.max_word_letters:
        raise PolicyViolation(
            f"evaluated secret has {len(value.letters)} letters, cap is {policy.max_word_letters}"
        )
    return tree, value


def _alternating(platform: Platform, indices, terms) -> Element:
    """terms[i0] terms[i1]^-1 terms[i2] ...: the value of an alternating word."""
    value = terms[indices[0]]
    for pos, i in enumerate(indices[1:], start=1):
        term = terms[i] if pos % 2 == 0 else platform.inv(terms[i])
        value = platform.mul(value, term)
    return value


def _gens(spec: ProtocolSpec, role: int) -> tuple:
    """(the role's own generators, the peer's generators)."""
    return ((spec.alice_gens, spec.bob_gens), (spec.bob_gens, spec.alice_gens))[role]


def _warn_if_identity(platform: Platform, x: Element, role: int) -> None:
    if platform.eq(x, platform.identity()):
        warnings.warn(f"degenerate secret ({_ROLE_NAMES[role]}): identity element", WeakKeyWarning)


# -- shape 1: published on the base ------------------------------------------


def _based(draw):
    """Party of a base-published scheme; ``draw`` gives (secret, left, right).

    The party publishes left base^e right and keys on left (peer message)^e
    right, where e is the secret's exponent, or 1 if it has none: pi is
    constant, so step 3 is trivial up to that power.
    """

    def party(spec: ProtocolSpec, platform: Platform, role: int, rng: random.Random) -> _Party:
        sk, left, right = draw(spec, platform, role, rng)
        mul = platform.mul

        def power(x: Element) -> Element:
            return g_pow(platform, x, sk.exponents[0]) if sk.exponents else x

        def publish() -> tuple:
            return (mul(mul(left, power(spec.base)), right),)

        def finish(peer: tuple) -> tuple[Element, Element]:
            step3 = power(peer[0])
            return step3, mul(mul(left, step3), right)

        return _Party(sk, publish, finish)

    return party


def _draw_dh(spec: ProtocolSpec, platform: Platform, role: int, rng: random.Random):
    hi = min(spec.policy.exponent_max, platform.modulus - 2)
    fixed = (spec.k, spec.l)[role]
    e = rng.randint(min(spec.policy.exponent_min, hi), hi) if fixed is None else fixed
    return SecretKey(exponents=(e,)), platform.identity(), platform.identity()


def _draw_group_dh(spec: ProtocolSpec, platform: Platform, role: int, rng: random.Random):
    _, left = _word_secret(platform, (spec.a1_gens, spec.b1_gens)[role], spec.policy, rng)
    _, right = _word_secret(platform, (spec.a2_gens, spec.b2_gens)[role], spec.policy, rng)
    _warn_if_identity(platform, right, role)
    return SecretKey(elements=(left, right)), left, right


def _draw_ko_lee(spec: ProtocolSpec, platform: Platform, role: int, rng: random.Random):
    _, x = _word_secret(platform, (spec.a1_gens, spec.b1_gens)[role], spec.policy, rng)
    _warn_if_identity(platform, x, role)
    inv_x = platform.inv(x)
    return SecretKey(elements=(inv_x, x)), inv_x, x


def _draw_str_kep(spec: ProtocolSpec, platform: Platform, role: int, rng: random.Random):
    e = rng.randint(spec.policy.exponent_min, spec.policy.exponent_max)
    _, x = _word_secret(platform, (spec.a1_gens, spec.b1_gens)[role], spec.policy, rng)
    return SecretKey(elements=(x,), exponents=(e,)), platform.inv(x), x


# -- shape 2: two-sided on the peer's generators -----------------------------


def _two_sided(draw):
    """Party of a two-sided scheme; ``draw`` gives (secret, x, extra, pi).

    Alice publishes extra t x and keys on extra step3; Bob publishes x t extra
    and keys on step3 extra, where step3 = pi(peer messages).
    """

    def party(spec: ProtocolSpec, platform: Platform, role: int, rng: random.Random) -> _Party:
        sk, x, extra, pi = draw(spec, platform, role, rng)
        mul = platform.mul
        left, right = (extra, x) if role == ALICE else (x, extra)
        peer_gens = _gens(spec, role)[1]

        def publish() -> tuple:
            return tuple(mul(mul(left, t), right) for t in peer_gens)

        def finish(peer: tuple) -> tuple[Element, Element]:
            step3 = pi(peer)
            return step3, mul(left, step3) if role == ALICE else mul(step3, right)

        return _Party(sk, publish, finish)

    return party


def _bullet_tree_secret(spec: ProtocolSpec, platform: Platform, role: int, rng: random.Random):
    """A tree over x*y = x y^-1 x, its value, and its push-through."""
    ops = (partial(apply_op, ldops.bullet_op(platform)),)
    tree, x = _tree_secret(platform, _gens(spec, role)[0], ops, spec.policy, rng)
    return tree, x, lambda peer: magma.push_through(tree, peer, ops)


def _draw_simdcp(spec: ProtocolSpec, platform: Platform, role: int, rng: random.Random):
    # a_l y a_r for Alice, b_l y b_r for Bob; the tree gives a_r and b_l
    tree, x, pi = _bullet_tree_secret(spec, platform, role, rng)
    free = platform.random_element(rng, spec.policy.gen_length)
    return SecretKey(trees=(tree,), elements=(x, free)), x, free, pi


def _draw_simdcp_alt(spec: ProtocolSpec, platform: Platform, role: int, rng: random.Random):
    own = _gens(spec, role)[0]
    pairs = rng.randint(0, (spec.policy.max_leaves - 1) // 2)
    indices = tuple(rng.randrange(len(own)) for _ in range(2 * pairs + 1))
    x = _alternating(platform, indices, own)
    free = platform.random_element(rng, spec.policy.gen_length)
    sk = SecretKey(elements=(x, free), indices=indices)
    return sk, x, free, partial(_alternating, platform, indices)


def _draw_symdp(spec: ProtocolSpec, platform: Platform, role: int, rng: random.Random):
    # x^k y x for Alice, x y x^l for Bob
    policy = spec.policy
    tree, x, pi = _bullet_tree_secret(spec, platform, role, rng)
    fixed = (spec.k, spec.l)[role]
    e = 1 if fixed is None else fixed
    if spec.secret_exponents:
        # one of the two stays 1 so that both betas keep the one-sided-power
        # form; a public coin on the seed says which, so each party draws
        # its own exponent alone
        coin = random.Random(("symdp", spec.seed).__repr__()).random()
        powered = ALICE if coin < 0.5 else BOB
        e = rng.randint(policy.exponent_min, policy.exponent_max) if role == powered else 1
    sk = SecretKey(trees=(tree,), elements=(x,), exponents=(e,))
    return sk, x, g_pow(platform, x, e), pi


# -- shape 3: LD-operation commutator ----------------------------------------


def _commutator_key(platform: Platform, role: int, x: Element, step3, rev: bool):
    """(step3, gamma): a^-1 (b * a) and (a * b)^-1 b; in the rev variant
    a^-1 (b^-1 * a) and (a^-1 *rev b) b^-1."""
    mul, inv = platform.mul, platform.inv
    if rev:
        return step3, mul(inv(x), step3) if role == ALICE else mul(step3, inv(x))
    return step3, mul(inv(x), step3) if role == ALICE else mul(inv(step3), x)


def _ld_commutator(ops):
    """Party of an LD-operation commutator scheme.

    ``ops(spec, role)`` gives the node operations of the party's own trees,
    the LD operation beta it applies to the peer's generators, and whether
    the scheme is the rev variant.
    """

    def party(spec: ProtocolSpec, platform: Platform, role: int, rng: random.Random) -> _Party:
        tree_ops, beta, rev = ops(spec, role)
        own, peer_gens = _gens(spec, role)
        tree, x = _tree_secret(platform, own, tree_ops, spec.policy, rng)
        _warn_if_identity(platform, x, role)

        def publish() -> tuple:
            y = platform.inv(x) if rev else x
            return tuple(apply_op(beta, y, t) for t in peer_gens)

        def finish(peer: tuple) -> tuple[Element, Element]:
            step3 = magma.push_through(tree, peer, tree_ops)
            return _commutator_key(platform, role, x, step3, rev)

        return _Party(SecretKey(trees=(tree,), elements=(x,)), publish, finish)

    return party


def _f_ops(spec: ProtocolSpec, role: int):
    op = ldops.f_conj_op(spec.endo)
    return (partial(apply_op, op),), op, False


def _shifted_ops(spec: ProtocolSpec, role: int):
    """Trees over (*, bar*) for both parties, each applying its own side of
    the bi-LD pair as beta; in the ``rev`` variant Alice builds over * and Bob
    over *rev, and each applies the other's."""
    p, a = spec.shift_p, spec.shift_a
    star = ldops.shifted_op(p, a)
    if spec.variant == "rev":
        rev = ldops.shifted_rev_op(p, a)
        return (partial(apply_op, (star, rev)[role]),), (rev, star)[role], True
    bar = ldops.shifted_bar_op(p, braid.invert(a))
    return (partial(apply_op, star), partial(apply_op, bar)), (bar, star)[role], False


# -- aag_commutator ----------------------------------------------------------


def _aag_party(spec: ProtocolSpec, platform: Platform, role: int, rng: random.Random) -> _Party:
    """Publishes a^-1 t a; pushes its word through the messages and their
    inverses with the product alone."""
    own, peer_gens = _gens(spec, role)
    tree, x = _word_secret(platform, own, spec.policy, rng)
    _warn_if_identity(platform, x, role)
    mul, inv = platform.mul, platform.inv

    def publish() -> tuple:
        inv_x = inv(x)
        return tuple(mul(mul(inv_x, t), x) for t in peer_gens)

    def finish(peer: tuple) -> tuple[Element, Element]:
        step3 = magma.push_through(tree, list(peer) + [inv(w) for w in peer], [mul])
        return _commutator_key(platform, role, x, step3, False)

    return _Party(SecretKey(trees=(tree,), elements=(x,)), publish, finish)


# -- the protocol engine -----------------------------------------------------


def _parties(spec: ProtocolSpec):
    """The work platform and both parties after step 1.

    Alice's whole draw precedes Bob's, so a networked session and an
    in-process run agree.
    """
    platform = work_platform(spec)
    party = _SCHEMES[spec.tag].party
    rng = random.Random(spec.seed)
    alice = party(spec, platform, ALICE, rng)
    return platform, alice, party(spec, platform, BOB, rng)


def generate_secrets(spec: ProtocolSpec) -> tuple[SecretKey, SecretKey]:
    """Deterministically derive both parties' secrets from the spec seed."""
    _, alice, bob = _parties(spec)
    return alice.secret, bob.secret


def run(spec: ProtocolSpec) -> Transcript:
    """Execute steps 1-4; KeyMismatch unless K_A = K_B.

    The keys are compared by the bytes extracted from them: a platform's
    ``key_payload`` is canonical, so equal elements extract equal bytes and
    unequal ones different bytes.
    """
    platform, alice, bob = _parties(spec)
    msg_a = alice.publish()
    msg_b = bob.publish()
    step3_a, key_a = alice.finish(msg_b)
    step3_b, key_b = bob.finish(msg_a)
    extracted = key_extract(platform, key_a)
    if key_extract(platform, key_b) != extracted:
        raise KeyMismatch(f"derived keys differ for tag {spec.tag!r}, seed {spec.seed}")
    return Transcript(spec, msg_a, msg_b, step3_a, step3_b, key_a, key_b, extracted)


# -- constructors ------------------------------------------------------------


def make_classic_dh(
    p: int, g: int, k: int | None = None, l: int | None = None,
    policy: KeyPolicy | None = None, seed: int = 0,
) -> ProtocolSpec:
    return ProtocolSpec(
        tag="classic_dh", platform=MultModPlatform(p), base=g, k=k, l=l,
        policy=policy or FINITE_POLICY, seed=seed,
    )


def make_group_dh(
    platform: Platform,
    a1_gens, a2_gens, b1_gens, b2_gens,
    x: Element,
    policy: KeyPolicy | None = None,
    seed: int = 0,
) -> ProtocolSpec:
    return ProtocolSpec(
        tag="group_dh", platform=platform, base=x,
        a1_gens=tuple(a1_gens), a2_gens=tuple(a2_gens),
        b1_gens=tuple(b1_gens), b2_gens=tuple(b2_gens),
        policy=policy or _default_policy(platform), seed=seed,
    )


def _make_conjugation(
    tag: str, platform: Platform, a_gens, b_gens, x: Element,
    policy: KeyPolicy | None = None, seed: int = 0,
) -> ProtocolSpec:
    """The spec of ``make_ko_lee`` and ``make_str_kep``: subgroups A = <a_gens>
    and B = <b_gens> that must commute, and the public base x."""
    return ProtocolSpec(
        tag=tag, platform=platform, base=x,
        a1_gens=tuple(a_gens), b1_gens=tuple(b_gens),
        policy=policy or _default_policy(platform), seed=seed,
    )


def _make_on_generators(
    tag: str, platform: Platform, s_gens, t_gens,
    policy: KeyPolicy | None = None, seed: int = 0,
) -> ProtocolSpec:
    """The spec of ``make_aag_commutator``, ``make_simdcp`` and
    ``make_simdcp_alt``: Alice's generators s_gens and Bob's t_gens alone."""
    return ProtocolSpec(
        tag=tag, platform=platform, alice_gens=tuple(s_gens), bob_gens=tuple(t_gens),
        policy=policy or _default_policy(platform), seed=seed,
    )


make_ko_lee = partial(_make_conjugation, "ko_lee")
make_str_kep = partial(_make_conjugation, "str_kep")
make_aag_commutator = partial(_make_on_generators, "aag_commutator")
make_simdcp = partial(_make_on_generators, "simdcp")
make_simdcp_alt = partial(_make_on_generators, "simdcp_alt")


def make_symdp(
    platform: Platform, s_gens, t_gens, k: int = 1, l: int = 1,
    secret_exponents: bool = False,
    policy: KeyPolicy | None = None, seed: int = 0,
) -> ProtocolSpec:
    return ProtocolSpec(
        tag="symdp", platform=platform, alice_gens=tuple(s_gens), bob_gens=tuple(t_gens),
        k=k, l=l, secret_exponents=secret_exponents,
        policy=policy or _default_policy(platform), seed=seed,
    )


def make_f_commutator(
    f: Endomorphism, s_gens, t_gens,
    policy: KeyPolicy | None = None, seed: int = 0,
) -> ProtocolSpec:
    return ProtocolSpec(
        tag="f_commutator", platform=f.platform,
        alice_gens=tuple(s_gens), bob_gens=tuple(t_gens), endo=f,
        policy=policy or _default_policy(f.platform), seed=seed,
    )


def make_shifted_commutator(
    s_gens, t_gens,
    variant: str = "bi_ld",
    p: int = 1,
    a: BraidWord | None = None,
    policy: KeyPolicy | None = None,
    seed: int = 0,
) -> ProtocolSpec:
    """Shifted-commutator KEP over (B_inf, *, bar*) or the (*, *rev) variant.

    The braid parameter must satisfy the shifted-conjugacy conditions; the
    default a = tau(p,p) specializes to Dehornoy's sigma_1 for p = 1.
    """
    s, t = tuple(s_gens), tuple(t_gens)
    strands = max(
        [2, 2 * p] + [w.strands for w in s + t if isinstance(w, BraidWord)]
    )
    return ProtocolSpec(
        tag="shifted_commutator", platform=BraidPlatform(strands),
        alice_gens=s, bob_gens=t, shift_p=p,
        shift_a=braid.tau(p, p) if a is None else a, variant=variant,
        policy=policy or KeyPolicy(), seed=seed,
    )


def _default_policy(platform: Platform) -> KeyPolicy:
    # Exponent secrets multiply braid word lengths, so keep them small there.
    return FINITE_POLICY if platform.finite else KeyPolicy(exponent_max=8)


# -- JSON codecs -------------------------------------------------------------
#
# Each JSON object the codecs write has one row table, JSON key -> _Field,
# that its writer and its loader both iterate: the loader takes exactly the
# keys the writer writes, so whatever loads is written back as it was.


class _Field(NamedTuple):
    """One key of a JSON object.

    ``dump(value, record)`` writes the record's attribute ``attr``, and
    ``load(value, done)`` reads it back; ``done`` holds the attributes of the
    rows read before it, so a table's first row gives the rest their platform.
    Both are None for a value that JSON holds as it is.  A loaded value must
    first be of one of ``types``, when they are given.  A row with no ``attr``
    is derived from the record: ``dump`` gets the record itself, and ``load``
    checks the value and stores nothing.
    """

    attr: Optional[str]
    dump: Optional[Callable]
    load: Optional[Callable]
    types: tuple = ()


_TYPE_NAMES = {type(None): "null", list: "a list of hex strings"}  # every list row holds hex


def _type_error(label: str, value, types) -> ValueError:
    kinds = " or ".join(_TYPE_NAMES.get(t, t.__name__) for t in types)
    return ValueError(f"{label} must be {kinds}, got {value!r}")


def _plain(attr: str, *types) -> _Field:
    """A value that JSON holds as it is; exact types, so that a bool is not an int."""
    return _Field(attr, None, None, types)


def _elem_hex(platform: Platform, x: Element) -> str:
    return encode_element(platform, x).hex()


def _unhex(s: str) -> bytes:
    """The bytes of hex ``s``, which must be written as ``bytes.hex`` writes
    them, so that a loaded file is written back as it was."""
    if type(s) is not str:
        raise ValueError(f"expected a hex string, got {s!r}")
    data = bytes.fromhex(s)
    if data.hex() != s:
        raise ValueError("hex must be lower case, with no spaces")
    return data


def _from_hex(decode, s: str):
    """The value ``decode`` reads from hex ``s``, which must end where it ends."""
    data = _unhex(s)
    value, end = decode(data)
    if end != len(data):
        raise ValueError(f"{len(data) - end} bytes after the encoded value")
    return value


def _elem_from_hex(platform: Platform, s: str) -> Element:
    """The element of hex ``s``, which must be the encoding that is written for
    it: a braid's canonical word, on the platform's strand count."""
    x = _from_hex(partial(decode_element, platform), s)
    if _elem_hex(platform, x) != s:
        raise ValueError("element hex is not its canonical encoding")
    return x


def _element(attr: str, platform_of, nullable: bool = False) -> _Field:
    """An element held as hex, on the platform that ``platform_of`` gives for
    the record, or for the attributes read so far."""
    return _Field(
        attr, lambda x, record: None if x is None else _elem_hex(platform_of(record), x),
        lambda s, done: None if s is None and nullable else _elem_from_hex(platform_of(done), s),
    )


def _elements(attr: str, platform_of) -> _Field:
    """A tuple of elements held as a list of hex strings (see :func:`_element`)."""
    return _Field(
        attr, lambda xs, record: [_elem_hex(platform_of(record), x) for x in xs],
        lambda hexes, done: tuple(_elem_from_hex(platform_of(done), s) for s in hexes), (list,),
    )


def _write(record, rows: dict) -> dict:
    obj = {}
    for key, (attr, dump, _, _) in rows.items():
        value = record if attr is None else getattr(record, attr)
        obj[key] = value if dump is None else dump(value, record)
    return obj


def _json_object(obj, what: str, keys) -> dict:
    """``obj``, if it is a JSON object with every key in ``keys``; else ValueError."""
    if type(obj) is not dict:
        raise ValueError(f"{what} is not a JSON object")
    for key in keys:
        if key not in obj:
            raise ValueError(f"{what} has no {key!r}")
    return obj


def _read(obj, what: str, rows: dict, make, prefix: str = "", **known):
    """``make(**known, **attributes)`` of JSON object ``obj``, read by ``rows``.

    ``obj`` must have exactly the keys of ``rows``: an unknown key is refused
    first, then the rows are read in order, each refusing its own missing key
    or wrong type (named ``prefix`` + key).  ValueError on every refusal.
    """
    for key in _json_object(obj, what, ()):
        if key not in rows:
            raise ValueError(f"{what} has unknown key {key!r}")
    done = SimpleNamespace(**known)
    for key, row in rows.items():
        value = _json_object(obj, what, (key,))[key]
        if row.types and type(value) not in row.types:
            raise _type_error(prefix + key, value, row.types)
        if row.load is not None:
            value = row.load(value, done)
        if row.attr is not None:
            setattr(done, row.attr, value)
    return make(**vars(done))


# A ``kinds`` table maps the "kind" of a JSON object to its class and to the
# row table of its other keys.


def _write_kind(value, kinds: dict) -> dict:
    for kind, (cls, rows) in kinds.items():
        if isinstance(value, cls):
            return {"kind": kind, **_write(value, rows)}
    raise TypeError(f"no JSON kind for {value!r}")


def _read_kind(obj, what: str, noun: str, kinds: dict, **known):
    kind = _json_object(obj, what, ("kind",))["kind"]
    for name, (cls, rows) in kinds.items():
        if kind == name:  # not kinds.get(kind): a JSON list is unhashable
            rows = {"kind": _Field(None, None, None), **rows}  # matched: nothing to store
            return _read(obj, what, rows, cls, f"{what} ", **known)
    raise ValueError(f"unknown {noun} kind {kind!r}")


_PLATFORM_KINDS = {
    "braid": (BraidPlatform, {"strands": _plain("strands", int)}),
    "symmetric": (SymmetricPlatform, {"degree": _plain("degree", int)}),
    "mult_mod": (MultModPlatform, {"modulus": _plain("modulus", int)}),
}
_platform_of = attrgetter("platform")


def _load_platform(obj, _) -> Platform:
    """The spec's platform, sized before any element is decoded on it."""
    platform = _read_kind(obj, "platform", "platform", _PLATFORM_KINDS)
    _check_size(platform, "platform")
    return platform


def _dump_pairs(pairs, endo: PointMapEndo) -> list:
    return sorted([_elem_hex(endo.platform, x) for x in pair] for pair in pairs)


def _load_pairs(pairs, done) -> tuple:
    """A point map's pairs, which must be listed as :func:`_dump_pairs` lists
    them: sorted, each once."""
    if type(pairs) is not list or not all(type(p) is list and len(p) == 2 for p in pairs):
        raise ValueError("endo pairs must be a list of [hex, hex] pairs")
    loaded = tuple(tuple(_elem_from_hex(done.platform, s) for s in pair) for pair in pairs)
    if any(a >= b for a, b in zip(pairs, pairs[1:])):  # compares hex strings only
        raise ValueError("endo pairs must be strictly increasing")
    return loaded


_ENDO_KINDS = {
    "identity": (IdentityEndo, {}),
    "inner": (InnerEndo, {"c": _element("conjugator", _platform_of)}),
    "power_shift": (PowerShiftEndo, {"d": _plain("d", int)}),
    "point_map": (PointMapEndo, {"pairs": _Field("pairs", _dump_pairs, _load_pairs)}),
}
# KeyPolicy field -> its row; a JSON number without a fraction reads as int,
# so a float field takes either.
_POLICY_FIELDS = {
    name: _plain(name, *((int, float) if type(value) is float else (int,)))
    for name, value in vars(KeyPolicy()).items()
}
_SPEC_FIELDS = {
    "platform": _Field("platform", lambda p, _: _write_kind(p, _PLATFORM_KINDS), _load_platform),
    "policy": _Field("policy", lambda policy, _: _write(policy, _POLICY_FIELDS),
                     lambda obj, _: _read(obj, "policy", _POLICY_FIELDS, KeyPolicy, "policy ")),
    "tag": _plain("tag", str), "seed": _plain("seed", int), "shift_p": _plain("shift_p", int),
    "variant": _plain("variant", str), "secret_exponents": _plain("secret_exponents", bool),
    "k": _plain("k", int, type(None)), "l": _plain("l", int, type(None)),
    "base": _element("base", _platform_of, nullable=True),
    "endo": _Field("endo", lambda e, _: None if e is None else _write_kind(e, _ENDO_KINDS),
                   lambda obj, done: None if obj is None else _read_kind(
                       obj, "endo", "endomorphism", _ENDO_KINDS, platform=done.platform)),
    "shift_a": _Field("shift_a", lambda a, _: None if a is None else braid.encode_braid(a).hex(),
                      lambda s, _: None if s is None else _from_hex(braid.decode_braid, s)),
    **{name: _elements(name, _platform_of) for name in _GENERATOR_LISTS},
}


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _parse_json(text: str):
    try:
        return json.loads(text)
    except RecursionError:  # the decoder recurses once per level of nesting
        raise ValueError("JSON nested too deeply") from None


def spec_to_json(spec: ProtocolSpec) -> str:
    return _canonical_json(_write(spec, _SPEC_FIELDS))


def spec_from_json(text: str) -> ProtocolSpec:
    return _read(_parse_json(text), "spec", _SPEC_FIELDS, ProtocolSpec)


def spec_digest(spec: ProtocolSpec) -> str:
    return hashlib.sha256(spec_to_json(spec).encode()).hexdigest()


def _work_platform_of(record) -> Platform:
    return work_platform(record.spec)


def _check_digest(digest, done) -> None:
    if digest != spec_digest(done.spec):
        raise ValueError("transcript digest is not the digest of its spec")


def _check_seed(seed, done) -> None:
    if type(seed) is not int or seed != done.spec.seed:
        raise ValueError(f"transcript seed {seed!r} is not its spec's seed {done.spec.seed}")


_TRANSCRIPT_FIELDS = {
    "spec": _Field("spec", lambda spec, _: _write(spec, _SPEC_FIELDS),
                   lambda obj, _: _read(obj, "spec", _SPEC_FIELDS, ProtocolSpec)),
    "digest": _Field(None, lambda t, _: spec_digest(t.spec), _check_digest),
    "seed": _Field(None, lambda t, _: t.spec.seed, _check_seed),
    "alice_messages": _elements("alice_messages", _work_platform_of),
    "bob_messages": _elements("bob_messages", _work_platform_of),
    "alice_step3": _element("alice_step3", _work_platform_of),
    "bob_step3": _element("bob_step3", _work_platform_of),
    "kA": _element("key_a", _work_platform_of),
    "kB": _element("key_b", _work_platform_of),
    "extracted_key": _Field("extracted_key", lambda key, _: key.hex(), lambda s, _: _unhex(s)),
}


def transcript_to_json(t: Transcript) -> str:
    return _canonical_json(_write(t, _TRANSCRIPT_FIELDS))


def transcript_from_json(text: str) -> Transcript:
    """The transcript of ``text``.

    Raises ValueError unless the fields that :func:`transcript_to_json`
    derives agree with the rest: ``digest`` and ``seed`` with the spec,
    ``extracted_key`` with the keys extracted from ``kA`` and from ``kB``.
    """
    t = _read(_parse_json(text), "transcript", _TRANSCRIPT_FIELDS, Transcript)
    platform = work_platform(t.spec)
    if t.extracted_key != key_extract(platform, t.key_a):
        raise ValueError("transcript extracted_key is not the key extracted from kA")
    if t.extracted_key != key_extract(platform, t.key_b):
        raise ValueError("transcript keys kA and kB differ")
    return t


# -- random desk-scale spec generation (keygen / acceptance sweeps) ----------


def _degree(rng: random.Random) -> int:
    """4 or 5, for S_4 or S_5.  Every tag's sample but classic_dh's draws it
    first, also where it builds no S_n, so that the seeded specs stay as they
    are."""
    return rng.choice([4, 5])


def _sample_dh(rng: random.Random, run_seed: int) -> ProtocolSpec:
    p = rng.choice([23, 101, 1009, 10007])
    return make_classic_dh(p, rng.randrange(2, p - 1), seed=run_seed)


def _sample_commuting(make):
    """Commuting subgroups of a braid group: generators with distant indices;
    ``make(platform, a_gens, b_gens, x, seed=...)`` builds the spec."""

    def sample(rng: random.Random, run_seed: int) -> ProtocolSpec:
        _degree(rng)
        n = 7
        left = [BraidWord(n, (1,)), BraidWord(n, (2,))]
        right = [BraidWord(n, (4,)), BraidWord(n, (5,))]
        return make(BraidPlatform(n), left, right, braid.random_braid(n, 8, rng), seed=run_seed)

    return sample


def _sample_words(make, extra=lambda rng: {}):
    """Two or three random permutations a side; ``extra(rng)`` draws further
    arguments for ``make(platform, s, t, seed=..., **extra)``."""

    def sample(rng: random.Random, run_seed: int) -> ProtocolSpec:
        finite = SymmetricPlatform(_degree(rng))
        m, n = rng.randint(2, 3), rng.randint(2, 3)
        s = tuple(finite.random_element(rng) for _ in range(m))
        t = tuple(finite.random_element(rng) for _ in range(n))
        return make(finite, s, t, seed=run_seed, **extra(rng))

    return sample


def _unit_exponent(rng: random.Random) -> dict:
    """symdp's (k, l): one of them 1, the other in 2..5."""
    k, l = (rng.randint(2, 5), 1) if rng.random() < 0.5 else (1, rng.randint(2, 5))
    return {"k": k, "l": l}


def _sample_f_commutator(rng: random.Random, run_seed: int) -> ProtocolSpec:
    degree = _degree(rng)
    if rng.random() < 0.5:
        finite = SymmetricPlatform(degree)
        f: Endomorphism = InnerEndo(finite, finite.random_element(rng))
        s = tuple(finite.random_element(rng) for _ in range(2))
        t = tuple(finite.random_element(rng) for _ in range(2))
        return make_f_commutator(f, s, t, seed=run_seed)
    n = 4
    f = PowerShiftEndo(BraidPlatform(n), 1)
    # one conjugated square per generator keeps lengths <= 8
    s = tuple(braid.random_pure_braid(n, rng, conj_len=3, blocks=1) for _ in range(2))
    t = tuple(braid.random_pure_braid(n, rng, conj_len=3, blocks=1) for _ in range(2))
    policy = KeyPolicy(max_leaves=4, max_depth=3)
    return make_f_commutator(f, s, t, policy=policy, seed=run_seed)


def _sample_shifted(rng: random.Random, run_seed: int) -> ProtocolSpec:
    _degree(rng)
    n = rng.randint(3, 5)
    m = rng.randint(1, 2)
    s = tuple(braid.random_braid(n, 6, rng) for _ in range(m))
    t = tuple(braid.random_braid(n, 6, rng) for _ in range(m))
    variant = rng.choice(["bi_ld", "rev"])
    policy = KeyPolicy(max_leaves=4, max_depth=3)
    return make_shifted_commutator(s, t, variant=variant, policy=policy, seed=run_seed)


def random_spec(tag: str, seed: int) -> ProtocolSpec:
    """A seeded random desk-scale spec for the given instantiation."""
    scheme = _SCHEMES.get(tag)
    if scheme is None:
        raise ValueError(f"unknown protocol tag {tag!r}")
    # "small" stays in the seed so that the drawn specs do not change
    rng = random.Random(("spec", tag, seed, "small").__repr__())
    return scheme.sample(rng, rng.randrange(2**32))


# -- the instantiation table -------------------------------------------------

_SUBGROUPS = ("a1_gens", "b1_gens")

_SCHEMES = {
    "classic_dh": _Scheme(_based(_draw_dh), _sample_dh, _check_dh, ()),
    "group_dh": _Scheme(
        _based(_draw_group_dh),
        _sample_commuting(lambda p, a, b, x, seed: make_group_dh(p, a, a, b, b, x, seed=seed)),
        _check_group_dh,
        ("a1_gens", "a2_gens", "b1_gens", "b2_gens"),
    ),
    "ko_lee": _Scheme(
        _based(_draw_ko_lee), _sample_commuting(make_ko_lee), _check_conjugation, _SUBGROUPS
    ),
    "str_kep": _Scheme(
        _based(_draw_str_kep), _sample_commuting(make_str_kep), _check_conjugation, _SUBGROUPS
    ),
    "aag_commutator": _Scheme(_aag_party, _sample_words(make_aag_commutator)),
    "simdcp": _Scheme(_two_sided(_draw_simdcp), _sample_words(make_simdcp)),
    "simdcp_alt": _Scheme(_two_sided(_draw_simdcp_alt), _sample_words(make_simdcp_alt)),
    "symdp": _Scheme(
        _two_sided(_draw_symdp), _sample_words(make_symdp, _unit_exponent), _check_symdp
    ),
    "f_commutator": _Scheme(_ld_commutator(_f_ops), _sample_f_commutator, _check_f_commutator),
    "shifted_commutator": _Scheme(
        _ld_commutator(_shifted_ops), _sample_shifted, _check_shifted,
        work_platform=_shifted_work_platform,
    ),
}
PROTOCOL_TAGS = tuple(_SCHEMES)

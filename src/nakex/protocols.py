"""The generic two-party key-establishment engine and its instantiations.

One protocol shape is run throughout: Alice and Bob publish generator lists
s_1..s_m and t_1..t_b, each party derives a secret from its own list, applies
its one-sided operation beta to the *other* party's generators and publishes
the images, then reconstructs beta(peer secret, own secret) through the
tree-word push-through (or a termwise/power reconstruction where the
instantiation calls for it) and finishes with its gamma map.  Condition (3) of
the scheme makes both gamma outputs the same element K, from which a byte key
is extracted via canonical serialization and SHA-256.

The engine is three per-party steps, each written once with the role (Alice
or Bob) as a parameter, so every instantiation's draw, beta and gamma appear
once: draw the secret (step 1), publish beta on the peer's generators (step
2), and finish with the reconstruction and gamma (steps 3 and 4).  The role
alone picks the generator list, the side of the product and the tree
operations a party uses.  :func:`run` draws, publishes and finishes for both
roles and compares the keys.

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
keys could disagree (non-commuting subgroups, a shifted-conjugacy parameter
that fails its conditions, ...) raises a typed ``ValueError``.  A
:class:`Transcript` is a deterministic function of (spec, seed) and
round-trips through JSON byte-identically.
"""

from __future__ import annotations

import hashlib
import json
import random
import warnings
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple, Optional

from . import braid, ldops, magma
from .braid import BraidWord
from .ldops import OpDescriptor, apply_op
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

PROTOCOL_TAGS = (
    "classic_dh",
    "group_dh",
    "ko_lee",
    "str_kep",
    "aag_commutator",
    "simdcp",
    "simdcp_alt",
    "symdp",
    "f_commutator",
    "shifted_commutator",
)


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
    more leaves.
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
        if not 0.0 <= self.comb_bias <= 1.0:
            raise PolicyViolation("comb_bias must lie in [0, 1]")


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

    @property
    def seed(self) -> int:
        return self.spec.seed

    @property
    def digest(self) -> str:
        return spec_digest(self.spec)


# -- platform sizing ---------------------------------------------------------


def _max_index(w: BraidWord) -> int:
    reduced = braid.freely_reduced(w)
    return max((abs(e) for e in reduced.letters), default=0)


def work_platform(spec: ProtocolSpec) -> Platform:
    """The platform all computation and serialization happens on.

    For shifted-conjugacy instantiations the ambient B_n is sized up front:
    every operation application wraps its operands in shift^p.  The published
    messages stack one application on a secret of tree depth <= max_depth, and
    the step-3 push-through stacks the other party's tree on top of those
    message words, so letter indices grow by at most p * (2 max_depth + 1)
    past the generators and the braid parameter.
    """
    if spec.tag != "shifted_commutator":
        return spec.platform
    levels = 2 * spec.policy.max_depth + 1
    base_idx = max(
        [_max_index(g) for g in spec.alice_gens + spec.bob_gens]
        + [spec.platform.strands - 1]
    )
    a_idx = _max_index(spec.shift_a) if spec.shift_a is not None else 2 * spec.shift_p - 1
    idx = base_idx
    for _ in range(levels):
        idx = max(idx + spec.shift_p, a_idx)
    return BraidPlatform(max(idx + 1, spec.platform.strands))


# -- key extraction ----------------------------------------------------------


def key_extract(platform: Platform, x: Element) -> bytes:
    """SHA-256 of the canonical serialization of the platform canonical form.

    On braid platforms the canonical form is the Garside normal form, so equal
    braids extract identical 32-byte keys.
    """
    if isinstance(platform, BraidPlatform):
        payload = braid.encode_normal_form(braid.normal_form(platform.check(x)))
    else:
        payload = encode_element(platform, x)
    return hashlib.sha256(payload).digest()


# -- spec validation ---------------------------------------------------------

# The generator lists each instantiation draws secrets from.
_DRAWN_GENS = {
    "classic_dh": (),
    "group_dh": ("a1_gens", "a2_gens", "b1_gens", "b2_gens"),
    "ko_lee": ("a1_gens", "b1_gens"),
    "str_kep": ("a1_gens", "b1_gens"),
}
_BASED_TAGS = ("classic_dh", "group_dh", "ko_lee", "str_kep")


def _check_commuting(platform: Platform, left: tuple, right: tuple, what: str) -> None:
    for u in left:
        for v in right:
            if not platform.eq(platform.mul(u, v), platform.mul(v, u)):
                raise CommutationViolation(f"{what}: generators do not commute")


def _validate(spec: ProtocolSpec) -> None:
    """Check the conditions K_A = K_B rests on; a typed ValueError if one fails."""
    tag, platform = spec.tag, spec.platform
    if tag not in PROTOCOL_TAGS:
        raise ValueError(f"unknown protocol tag {tag!r}")
    for name in _DRAWN_GENS.get(tag, ("alice_gens", "bob_gens")):
        if not getattr(spec, name):
            raise ValueError(f"{tag} needs a nonempty {name}")
    if tag in _BASED_TAGS:
        if spec.base is None:
            raise ValueError(f"{tag} needs a base element")
        platform.check(spec.base)
    if tag == "classic_dh":
        if not isinstance(platform, MultModPlatform):
            raise PlatformMismatch("classic_dh needs a mult_mod platform")
    elif tag == "group_dh":
        _check_commuting(platform, spec.a1_gens, spec.b1_gens, "[A1, B1]")
        _check_commuting(platform, spec.a2_gens, spec.b2_gens, "[A2, B2]")
    elif tag in ("ko_lee", "str_kep"):
        _check_commuting(platform, spec.a1_gens, spec.b1_gens, "[A, B]")
    elif tag == "symdp":
        if spec.k not in (None, 1) and spec.l not in (None, 1):
            raise ValueError("symdp needs k = 1 or l = 1")
    elif tag == "f_commutator":
        if spec.endo is None or spec.endo.platform != platform:
            raise ValueError("f_commutator needs an endomorphism of its platform")
        if isinstance(spec.endo, PowerShiftEndo):
            for g in spec.alice_gens + spec.bob_gens:
                if not braid.is_pure(platform.check(g)):
                    raise ValueError("pure-braid f-commutator needs pure generators")
    elif tag == "shifted_commutator":
        if spec.variant not in ("bi_ld", "rev"):
            raise ValueError("variant must be 'bi_ld' or 'rev'")
        if not isinstance(platform, BraidPlatform):
            raise PlatformMismatch("shifted_commutator needs a braid platform")
        if spec.shift_a is None or not ldops.check_shifted_conditions(spec.shift_p, spec.shift_a):
            raise ldops.ConditionViolation(
                "braid parameter fails the shifted-conjugacy conditions"
            )


# -- roles -------------------------------------------------------------------

ALICE, BOB = 0, 1
_ROLE_NAMES = ("Alice", "Bob")


class _Role(NamedTuple):
    """One party's fixed part of a run.

    ``ops`` are the node operations of the party's own trees, as the binary
    functions tree evaluation takes; ``beta`` is the LD operation the party
    applies to the peer's generators (f- and shifted commutator only).
    """

    index: int
    ops: tuple = ()
    beta: Optional[OpDescriptor] = None


def _roles(spec: ProtocolSpec, platform: Platform) -> tuple[_Role, _Role]:
    """Alice's and Bob's roles; each op is built once and shared.

    Shifted-commutator trees are built over (*, bar*) by both parties, each
    applying its own side of the bi-LD pair as beta; in the ``rev`` variant
    Alice builds over * and Bob over *rev, and each applies the other's.
    """
    tag = spec.tag
    if tag in ("simdcp", "symdp"):
        ops = (partial(apply_op, ldops.bullet_op(platform)),)
        return _Role(ALICE, ops), _Role(BOB, ops)
    if tag == "f_commutator":
        op = ldops.f_conj_op(spec.endo)
        ops = (partial(apply_op, op),)
        return _Role(ALICE, ops, op), _Role(BOB, ops, op)
    if tag == "shifted_commutator":
        p, a = spec.shift_p, spec.shift_a
        star = ldops.shifted_op(p, a, platform)
        if spec.variant == "rev":
            rev = ldops.shifted_rev_op(p, a, platform)
            return (
                _Role(ALICE, (partial(apply_op, star),), rev),
                _Role(BOB, (partial(apply_op, rev),), star),
            )
        bar = ldops.shifted_bar_op(p, braid.invert(a), platform)
        ops = (partial(apply_op, star), partial(apply_op, bar))
        return _Role(ALICE, ops, bar), _Role(BOB, ops, star)
    return _PLAIN_ROLES


_PLAIN_ROLES = (_Role(ALICE), _Role(BOB))


# -- the three per-party steps -----------------------------------------------


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
    platform: Platform, gens: tuple[Element, ...], role: _Role, policy: KeyPolicy,
    rng: random.Random,
) -> tuple[TreeWord, Element]:
    """Random policy tree over gens and the role's ops, and its value."""
    gens = [platform.check(g) for g in gens]
    tree = magma.random_tree(
        rng.randint(1, policy.max_leaves), len(gens), len(role.ops), policy.comb_bias, rng
    )
    # guaranteed by max_leaves <= max_depth + 1
    assert magma.tree_depth(tree) <= policy.max_depth
    value = magma.eval_tree(tree, gens, role.ops)
    if isinstance(value, BraidWord) and len(value.letters) > policy.max_word_letters:
        raise PolicyViolation(
            f"evaluated secret has {len(value.letters)} letters, cap is {policy.max_word_letters}"
        )
    return tree, value


def _random_free_element(platform: Platform, policy: KeyPolicy, rng: random.Random) -> Element:
    if isinstance(platform, BraidPlatform):
        return braid.random_braid(platform.strands, policy.gen_length, rng)
    return platform.random_element(rng)


def _alternating(platform: Platform, indices, terms) -> Element:
    """terms[i0] terms[i1]^-1 terms[i2] ...: the value of an alternating word."""
    value = terms[indices[0]]
    for pos, i in enumerate(indices[1:], start=1):
        term = terms[i] if pos % 2 == 0 else platform.inv(terms[i])
        value = platform.mul(value, term)
    return value


def _draw(spec: ProtocolSpec, platform: Platform, role: _Role, rng: random.Random) -> SecretKey:
    """Step 1: one party's secret, built from its own generators."""
    tag, policy, i = spec.tag, spec.policy, role.index
    own = (spec.alice_gens, spec.bob_gens)[i]
    subgroup = (spec.a1_gens, spec.b1_gens)[i]
    if tag == "classic_dh":
        hi = min(policy.exponent_max, platform.modulus - 2)
        lo = min(policy.exponent_min, hi)
        fixed = (spec.k, spec.l)[i]
        return SecretKey(exponents=(rng.randint(lo, hi) if fixed is None else fixed,))
    if tag == "str_kep":
        e = rng.randint(policy.exponent_min, policy.exponent_max)
        _, x = _word_secret(platform, subgroup, policy, rng)
        return SecretKey(elements=(x,), exponents=(e,))
    if tag == "simdcp_alt":
        pairs = rng.randint(0, (policy.max_leaves - 1) // 2)
        indices = tuple(rng.randrange(len(own)) for _ in range(2 * pairs + 1))
        x = _alternating(platform, indices, own)
        free = _random_free_element(platform, policy, rng)
        return SecretKey(elements=(x, free), indices=indices)
    if tag in ("simdcp", "symdp"):
        tree, x = _tree_secret(platform, own, role, policy, rng)
        if tag == "simdcp":
            free = _random_free_element(platform, policy, rng)
            return SecretKey(trees=(tree,), elements=(x, free))
        fixed = (spec.k, spec.l)[i]
        e = 1 if fixed is None else fixed
        if spec.secret_exponents:
            # one of the two stays 1 so that both betas keep the one-sided-power
            # form; a public coin on the seed says which, so each party draws
            # its own exponent alone
            coin = random.Random(("symdp", spec.seed).__repr__()).random()
            powered = ALICE if coin < 0.5 else BOB
            e = rng.randint(policy.exponent_min, policy.exponent_max) if i == powered else 1
        return SecretKey(trees=(tree,), elements=(x,), exponents=(e,))
    # the remaining secrets are checked for degeneracy
    if tag == "group_dh":
        _, left = _word_secret(platform, subgroup, policy, rng)
        _, right = _word_secret(platform, (spec.a2_gens, spec.b2_gens)[i], policy, rng)
        sk = SecretKey(elements=(left, right))
    elif tag == "ko_lee":
        _, x = _word_secret(platform, subgroup, policy, rng)
        sk = SecretKey(elements=(platform.inv(x), x))
    elif tag == "aag_commutator":
        tree, x = _word_secret(platform, own, policy, rng)
        sk = SecretKey(trees=(tree,), elements=(x,))
    else:  # f_commutator, shifted_commutator
        tree, x = _tree_secret(platform, own, role, policy, rng)
        sk = SecretKey(trees=(tree,), elements=(x,))
    if platform.eq(sk.elements[-1], platform.identity()):
        warnings.warn(
            f"degenerate secret ({_ROLE_NAMES[i]}): identity element", WeakKeyWarning
        )
    return sk


def _sides(spec: ProtocolSpec, platform: Platform, role: _Role, sk: SecretKey):
    """(left, right) of the party's beta when it is y -> left y right."""
    tag, x = spec.tag, sk.elements[0]
    if tag in ("group_dh", "ko_lee"):
        return sk.elements
    if tag in ("str_kep", "aag_commutator"):
        return platform.inv(x), x
    if tag == "symdp":  # x^k y x for Alice, x y x^l for Bob
        power = g_pow(platform, x, sk.exponents[0])
        return (power, x) if role.index == ALICE else (x, power)
    # simdcp: a_l y a_r for Alice, b_l y b_r for Bob
    return (sk.elements[1], x) if role.index == ALICE else (x, sk.elements[1])


def _publish(spec: ProtocolSpec, platform: Platform, role: _Role, sk: SecretKey) -> tuple:
    """Step 2: beta(own secret, y) for every y the peer's key needs."""
    tag, mul = spec.tag, platform.mul
    peer_gens = (spec.bob_gens, spec.alice_gens)[role.index]
    if tag == "classic_dh":
        return (g_pow(platform, spec.base, sk.exponents[0]),)
    if tag in ("f_commutator", "shifted_commutator"):
        x = platform.inv(sk.elements[0]) if spec.variant == "rev" else sk.elements[0]
        return tuple(apply_op(role.beta, x, t) for t in peer_gens)
    left, right = _sides(spec, platform, role, sk)
    if tag in ("group_dh", "ko_lee", "str_kep"):
        base = platform.check(spec.base)
        if tag == "str_kep":
            base = g_pow(platform, base, sk.exponents[0])
        return (mul(mul(left, base), right),)
    return tuple(mul(mul(left, t), right) for t in peer_gens)


def _finish(
    spec: ProtocolSpec, platform: Platform, role: _Role, sk: SecretKey, peer: tuple
) -> tuple[Element, Element]:
    """Steps 3 and 4: beta(peer secret, own secret) from the peer's messages,
    then gamma; returns (step-3 value, key)."""
    tag, mul, inv = spec.tag, platform.mul, platform.inv
    alice = role.index == ALICE
    if tag == "classic_dh":
        step3 = g_pow(platform, peer[0], sk.exponents[0])
        return step3, step3
    if tag in ("group_dh", "ko_lee", "str_kep"):
        # pi is constant: step 3 is trivial up to str_kep's power
        step3 = g_pow(platform, peer[0], sk.exponents[0]) if sk.exponents else peer[0]
        left, right = _sides(spec, platform, role, sk)
        return step3, mul(mul(left, step3), right)

    if tag == "simdcp_alt":
        step3 = _alternating(platform, sk.indices, peer)
    elif tag == "aag_commutator":
        step3 = magma.push_through(sk.trees[0], list(peer) + [inv(w) for w in peer], [mul])
    else:
        step3 = magma.push_through(sk.trees[0], peer, role.ops)
    if tag in ("simdcp", "simdcp_alt", "symdp"):
        left, right = _sides(spec, platform, role, sk)
        return step3, mul(left, step3) if alice else mul(step3, right)
    x = sk.elements[0]
    if spec.variant == "rev":  # a^-1 (b^-1 * a) and (a^-1 *rev b) b^-1
        return step3, mul(inv(x), step3) if alice else mul(step3, inv(x))
    # commutators: a^-1 (b * a) and (a * b)^-1 b
    return step3, mul(inv(x), step3) if alice else mul(inv(step3), x)


# -- the protocol engine -----------------------------------------------------


def _setup(spec: ProtocolSpec):
    """The work platform, Alice's and Bob's roles, and both parties' secrets.

    Alice's whole draw precedes Bob's, so a networked session and an
    in-process run agree.
    """
    platform = work_platform(spec)
    alice, bob = _roles(spec, platform)
    rng = random.Random(spec.seed)
    ska = _draw(spec, platform, alice, rng)
    return platform, alice, bob, ska, _draw(spec, platform, bob, rng)


def generate_secrets(spec: ProtocolSpec) -> tuple[SecretKey, SecretKey]:
    """Deterministically derive both parties' secrets from the spec seed."""
    return _setup(spec)[3:]


def run(spec: ProtocolSpec) -> Transcript:
    """Execute steps 1-4 and assert K_A = K_B under platform equality."""
    platform, alice, bob, ska, skb = _setup(spec)
    msg_a = _publish(spec, platform, alice, ska)
    msg_b = _publish(spec, platform, bob, skb)
    step3_a, key_a = _finish(spec, platform, alice, ska, msg_b)
    step3_b, key_b = _finish(spec, platform, bob, skb, msg_a)

    if not platform.eq(key_a, key_b):
        raise KeyMismatch(f"derived keys differ for tag {spec.tag!r}, seed {spec.seed}")
    extracted = key_extract(platform, key_a)
    if key_extract(platform, key_b) != extracted:
        raise KeyMismatch("extracted keys differ despite equal elements")

    return Transcript(
        spec=spec,
        alice_messages=msg_a,
        bob_messages=msg_b,
        alice_step3=step3_a,
        bob_step3=step3_b,
        key_a=key_a,
        key_b=key_b,
        extracted_key=extracted,
    )


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


def make_ko_lee(
    platform: Platform, a_gens, b_gens, x: Element,
    policy: KeyPolicy | None = None, seed: int = 0,
) -> ProtocolSpec:
    return ProtocolSpec(
        tag="ko_lee", platform=platform, base=x,
        a1_gens=tuple(a_gens), b1_gens=tuple(b_gens),
        policy=policy or _default_policy(platform), seed=seed,
    )


def make_str_kep(
    platform: Platform, a_gens, b_gens, x: Element,
    policy: KeyPolicy | None = None, seed: int = 0,
) -> ProtocolSpec:
    return ProtocolSpec(
        tag="str_kep", platform=platform, base=x,
        a1_gens=tuple(a_gens), b1_gens=tuple(b_gens),
        policy=policy or _default_policy(platform), seed=seed,
    )


def make_aag_commutator(
    platform: Platform, s_gens, t_gens,
    policy: KeyPolicy | None = None, seed: int = 0,
) -> ProtocolSpec:
    return ProtocolSpec(
        tag="aag_commutator", platform=platform,
        alice_gens=tuple(s_gens), bob_gens=tuple(t_gens),
        policy=policy or _default_policy(platform), seed=seed,
    )


def make_simdcp(
    platform: Platform, s_gens, t_gens,
    policy: KeyPolicy | None = None, seed: int = 0,
) -> ProtocolSpec:
    return ProtocolSpec(
        tag="simdcp", platform=platform, alice_gens=tuple(s_gens), bob_gens=tuple(t_gens),
        policy=policy or _default_policy(platform), seed=seed,
    )


def make_simdcp_alt(platform, s_gens, t_gens, policy=None, seed: int = 0) -> ProtocolSpec:
    return ProtocolSpec(
        tag="simdcp_alt", platform=platform, alice_gens=tuple(s_gens), bob_gens=tuple(t_gens),
        policy=policy or _default_policy(platform), seed=seed,
    )


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
    if isinstance(platform, BraidPlatform):
        return KeyPolicy(exponent_max=8)
    return FINITE_POLICY


# -- JSON codecs -------------------------------------------------------------


def _platform_obj(p: Platform) -> dict:
    if isinstance(p, BraidPlatform):
        return {"kind": "braid", "strands": p.strands}
    if isinstance(p, SymmetricPlatform):
        return {"kind": "symmetric", "degree": p.degree}
    return {"kind": "mult_mod", "modulus": p.modulus}


def _platform_from_obj(obj: dict) -> Platform:
    kind = obj["kind"]
    if kind == "braid":
        return BraidPlatform(obj["strands"])
    if kind == "symmetric":
        return SymmetricPlatform(obj["degree"])
    if kind == "mult_mod":
        return MultModPlatform(obj["modulus"])
    raise ValueError(f"unknown platform kind {kind!r}")


def _elem_hex(platform: Platform, x: Element) -> str:
    return encode_element(platform, x).hex()


def _elem_from_hex(platform: Platform, s: str) -> Element:
    value, _ = decode_element(platform, bytes.fromhex(s))
    return value


def _endo_obj(platform: Platform, e: Optional[Endomorphism]) -> Optional[dict]:
    if e is None:
        return None
    if isinstance(e, IdentityEndo):
        return {"kind": "identity"}
    if isinstance(e, InnerEndo):
        return {"kind": "inner", "c": _elem_hex(platform, e.conjugator)}
    if isinstance(e, PowerShiftEndo):
        return {"kind": "power_shift", "d": e.d}
    return {
        "kind": "point_map",
        "pairs": sorted(
            [_elem_hex(platform, k), _elem_hex(platform, v)] for k, v in e.pairs
        ),
    }


def _endo_from_obj(platform: Platform, obj: Optional[dict]) -> Optional[Endomorphism]:
    if obj is None:
        return None
    kind = obj["kind"]
    if kind == "identity":
        return IdentityEndo(platform)
    if kind == "inner":
        return InnerEndo(platform, _elem_from_hex(platform, obj["c"]))
    if kind == "power_shift":
        return PowerShiftEndo(platform, obj["d"])
    if kind == "point_map":
        pairs = tuple(
            (_elem_from_hex(platform, k), _elem_from_hex(platform, v))
            for k, v in obj["pairs"]
        )
        return PointMapEndo(platform, pairs)
    raise ValueError(f"unknown endomorphism kind {kind!r}")


def spec_to_obj(spec: ProtocolSpec) -> dict:
    platform = spec.platform
    obj = {
        "tag": spec.tag,
        "platform": _platform_obj(platform),
        "policy": dict(vars(spec.policy)),
        "seed": spec.seed,
        "alice_gens": [_elem_hex(platform, g) for g in spec.alice_gens],
        "bob_gens": [_elem_hex(platform, g) for g in spec.bob_gens],
        "a1_gens": [_elem_hex(platform, g) for g in spec.a1_gens],
        "a2_gens": [_elem_hex(platform, g) for g in spec.a2_gens],
        "b1_gens": [_elem_hex(platform, g) for g in spec.b1_gens],
        "b2_gens": [_elem_hex(platform, g) for g in spec.b2_gens],
        "base": None if spec.base is None else _elem_hex(platform, spec.base),
        "endo": _endo_obj(platform, spec.endo),
        "shift_p": spec.shift_p,
        "shift_a": None if spec.shift_a is None else braid.encode_braid(spec.shift_a).hex(),
        "variant": spec.variant,
        "k": spec.k,
        "l": spec.l,
        "secret_exponents": spec.secret_exponents,
    }
    return obj


def spec_from_obj(obj: dict) -> ProtocolSpec:
    platform = _platform_from_obj(obj["platform"])
    policy = KeyPolicy(**obj["policy"])
    shift_a = None
    if obj.get("shift_a"):
        shift_a, _ = braid.decode_braid(bytes.fromhex(obj["shift_a"]))
    return ProtocolSpec(
        tag=obj["tag"],
        platform=platform,
        alice_gens=tuple(_elem_from_hex(platform, s) for s in obj["alice_gens"]),
        bob_gens=tuple(_elem_from_hex(platform, s) for s in obj["bob_gens"]),
        policy=policy,
        seed=obj["seed"],
        base=None if obj["base"] is None else _elem_from_hex(platform, obj["base"]),
        a1_gens=tuple(_elem_from_hex(platform, s) for s in obj["a1_gens"]),
        a2_gens=tuple(_elem_from_hex(platform, s) for s in obj["a2_gens"]),
        b1_gens=tuple(_elem_from_hex(platform, s) for s in obj["b1_gens"]),
        b2_gens=tuple(_elem_from_hex(platform, s) for s in obj["b2_gens"]),
        endo=_endo_from_obj(platform, obj["endo"]),
        shift_p=obj["shift_p"],
        shift_a=shift_a,
        variant=obj["variant"],
        k=obj["k"],
        l=obj["l"],
        secret_exponents=obj["secret_exponents"],
    )


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def spec_to_json(spec: ProtocolSpec) -> str:
    return _canonical_json(spec_to_obj(spec))


def spec_from_json(text: str) -> ProtocolSpec:
    return spec_from_obj(json.loads(text))


def spec_digest(spec: ProtocolSpec) -> str:
    return hashlib.sha256(spec_to_json(spec).encode()).hexdigest()


def transcript_to_json(t: Transcript) -> str:
    platform = work_platform(t.spec)
    obj = {
        "spec": spec_to_obj(t.spec),
        "digest": spec_digest(t.spec),
        "seed": t.spec.seed,
        "alice_messages": [_elem_hex(platform, x) for x in t.alice_messages],
        "bob_messages": [_elem_hex(platform, x) for x in t.bob_messages],
        "alice_step3": _elem_hex(platform, t.alice_step3),
        "bob_step3": _elem_hex(platform, t.bob_step3),
        "kA": _elem_hex(platform, t.key_a),
        "kB": _elem_hex(platform, t.key_b),
        "extracted_key": t.extracted_key.hex(),
    }
    return _canonical_json(obj)


def transcript_from_json(text: str) -> Transcript:
    obj = json.loads(text)
    spec = spec_from_obj(obj["spec"])
    platform = work_platform(spec)
    return Transcript(
        spec=spec,
        alice_messages=tuple(_elem_from_hex(platform, s) for s in obj["alice_messages"]),
        bob_messages=tuple(_elem_from_hex(platform, s) for s in obj["bob_messages"]),
        alice_step3=_elem_from_hex(platform, obj["alice_step3"]),
        bob_step3=_elem_from_hex(platform, obj["bob_step3"]),
        key_a=_elem_from_hex(platform, obj["kA"]),
        key_b=_elem_from_hex(platform, obj["kB"]),
        extracted_key=bytes.fromhex(obj["extracted_key"]),
    )


# -- random desk-scale spec generation (keygen / acceptance sweeps) ----------


def random_spec(tag: str, seed: int, scale: str = "small") -> ProtocolSpec:
    """A seeded random desk-scale spec for the given instantiation."""
    rng = random.Random(("spec", tag, seed, scale).__repr__())
    run_seed = rng.randrange(2**32)

    if tag == "classic_dh":
        p = rng.choice([23, 101, 1009, 10007])
        g = rng.randrange(2, p - 1)
        return make_classic_dh(p, g, seed=run_seed)

    finite: Platform = SymmetricPlatform(rng.choice([4, 5]))

    if tag in ("group_dh", "ko_lee", "str_kep"):
        # commuting subgroups of a braid group: generators with distant indices
        n = 7
        platform = BraidPlatform(n)
        left = [BraidWord(n, (1,)), BraidWord(n, (2,))]
        right = [BraidWord(n, (4,)), BraidWord(n, (5,))]
        x = braid.random_braid(n, 8, rng)
        if tag == "group_dh":
            return make_group_dh(platform, left, left, right, right, x, seed=run_seed)
        if tag == "ko_lee":
            return make_ko_lee(platform, left, right, x, seed=run_seed)
        return make_str_kep(platform, left, right, x, seed=run_seed)

    if tag in ("aag_commutator", "simdcp", "simdcp_alt", "symdp"):
        m = rng.randint(2, 3)
        n = rng.randint(2, 3)
        s = tuple(finite.random_element(rng) for _ in range(m))
        t = tuple(finite.random_element(rng) for _ in range(n))
        if tag == "aag_commutator":
            return make_aag_commutator(finite, s, t, seed=run_seed)
        if tag == "simdcp":
            return make_simdcp(finite, s, t, seed=run_seed)
        if tag == "simdcp_alt":
            return make_simdcp_alt(finite, s, t, seed=run_seed)
        k, l = (rng.randint(2, 5), 1) if rng.random() < 0.5 else (1, rng.randint(2, 5))
        return make_symdp(finite, s, t, k=k, l=l, seed=run_seed)

    if tag == "f_commutator":
        if rng.random() < 0.5:
            f: Endomorphism = InnerEndo(finite, finite.random_element(rng))
            s = tuple(finite.random_element(rng) for _ in range(2))
            t = tuple(finite.random_element(rng) for _ in range(2))
            return make_f_commutator(f, s, t, seed=run_seed)
        n = 4
        platform = BraidPlatform(n)
        f = PowerShiftEndo(platform, 1)
        # one conjugated square per generator keeps lengths <= 8
        s = tuple(braid.random_pure_braid(n, rng, conj_len=3, blocks=1) for _ in range(2))
        t = tuple(braid.random_pure_braid(n, rng, conj_len=3, blocks=1) for _ in range(2))
        policy = KeyPolicy(max_leaves=4, max_depth=3)
        return make_f_commutator(f, s, t, policy=policy, seed=run_seed)

    if tag == "shifted_commutator":
        n = rng.randint(3, 5)
        m = rng.randint(1, 2)
        s = tuple(braid.random_braid(n, 6, rng) for _ in range(m))
        t = tuple(braid.random_braid(n, 6, rng) for _ in range(m))
        variant = rng.choice(["bi_ld", "rev"])
        policy = KeyPolicy(max_leaves=4, max_depth=3)
        return make_shifted_commutator(s, t, variant=variant, policy=policy, seed=run_seed)

    raise ValueError(f"unknown protocol tag {tag!r}")

"""Uniform group-platform abstraction.

Every protocol and LD-operation in this package is generic over a carrier
group.  Three platforms are provided: braid groups B_n (elements are
:class:`~nakex.braid.BraidWord`, equality via Garside normal form), symmetric
groups S_n (elements are :class:`~nakex.braid.Permutation`), and the
multiplicative group mod a prime p (elements are residues 1..p-1).

Every platform answers for itself: ``check``, ``mul``, ``inv``,
``identity``, ``eq``, ``random_element(rng, length)`` (``length`` letters on
a braid platform, ignored by a finite one), ``key_payload`` (the bytes a key
is hashed from: the encoded normal form on a braid platform, the encoded
element otherwise), ``encode`` and ``decode``; finite platforms also answer
``elements``, whose members serve as their own set and dict keys.

S_n of degree up to ``SYM_TABLE_MAX_DEGREE`` (5) multiplies, inverts,
compares and draws at random from one table per degree, shared by all its
platforms and complete when it is made: every element, product and inverse
is in it.  A table answers only plain :class:`Permutation` operands, and
holds only elements of its degree, so finding an operand there is its
check.  Every other operand, and every operand of a larger degree, takes
the one checked path: ``check``, then compute the result.

Endomorphisms are restricted to a closed catalog: identity, inner
automorphisms, the pure-braid strand-removal map, and (for finite platforms)
explicit point maps that are verified homomorphic at construction.
"""

from __future__ import annotations

import itertools
import operator
import random
import struct
import threading
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Union

from . import braid
from .braid import BraidWord, Permutation, _perm

__all__ = [
    "Platform",
    "BraidPlatform",
    "SymmetricPlatform",
    "MultModPlatform",
    "Element",
    "Endomorphism",
    "IdentityEndo",
    "InnerEndo",
    "PowerShiftEndo",
    "PointMapEndo",
    "PlatformMismatch",
    "centralizer",
    "encode_element",
    "decode_element",
]

Element = Union[BraidWord, Permutation, int]


class PlatformMismatch(ValueError):
    """An element does not belong to the platform it was used with."""


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _exponent_sum(w: BraidWord) -> int:
    return sum(1 if e > 0 else -1 for e in w.letters)


@dataclass(frozen=True)
class BraidPlatform:
    """B_n with canonical-form equality.

    Elements may carry a smaller declared strand count (words produced by
    sub-expressions); they are lifted to the platform's n for equality and
    serialization.  Words needing more than n strands are rejected: protocol
    specs size n up front.
    """

    strands: int

    tag = 0x01
    finite = False

    def __post_init__(self):
        if self.strands < 1:
            raise ValueError("strand count must be positive")

    def check(self, x: Element) -> BraidWord:
        if not isinstance(x, BraidWord):
            raise PlatformMismatch(f"expected BraidWord, got {type(x).__name__}")
        try:  # with_strands checks the letters when it lowers the strand count
            return braid.with_strands(x, self.strands)
        except ValueError:
            message = f"word needs {x.strands} strands, platform has {self.strands}"
            raise PlatformMismatch(message) from None

    def mul(self, x: Element, y: Element) -> Element:
        return braid.concat(self.check(x), self.check(y))

    def inv(self, x: Element) -> Element:
        return braid.invert(self.check(x))

    def identity(self) -> Element:
        return BraidWord(self.strands)

    def eq(self, x: Element, y: Element) -> bool:
        x = self.check(x)
        y = self.check(y)
        # the exponent sum is a homomorphism B_n -> Z, so words whose sums
        # differ are unequal braids, with no normal form needed
        if _exponent_sum(x) != _exponent_sum(y):
            return False
        return braid.normal_form(x) == braid.normal_form(y)

    def random_element(self, rng, length: int = 8) -> Element:
        """A :func:`braid.random_braid` draw; B_1 is trivial, so there the
        identity, with nothing drawn from ``rng``."""
        if self.strands == 1:
            return self.identity()
        return braid.random_braid(self.strands, length, rng)

    def key_payload(self, x: Element) -> bytes:
        return braid.encode_normal_form(braid.normal_form(self.check(x)))

    def encode(self, x: Element) -> bytes:
        return braid.encode_braid(braid.canonical_word(self.check(x)))

    def decode(self, data: bytes, offset: int) -> tuple[Element, int]:
        word, offset = braid.decode_braid(data, offset)
        return self.check(word), offset


# -- S_n arithmetic from per-degree tables, for degrees <= 5 -------------------

SYM_TABLE_MAX_DEGREE = 5  # S_5: 120 elements, 14,400 product slots; S_6 would take 518,400
_SYM_TABLES = {}  # degree -> _PermTable, made on first use
_SYM_TABLE_LOCK = threading.Lock()  # held while a table is made


class _PermTable:
    """All n! elements of S_n, as ids 0 .. n! - 1, and all their arithmetic.

    ``perms[id]`` is the one Permutation the table hands out for an element
    and ``ids`` maps its images back to its id; the identity is id 0.  The
    product of ids i and j sits in slot ``i * order + j`` of ``products`` and
    the inverse of i in slot i of ``inverses``, each the interned object.
    Every slot is filled when the table is made, under ``_SYM_TABLE_LOCK``,
    and nothing writes to a table after that, so the session endpoints' two
    threads read it without a lock.

    Random draws come from the table too, with the stream of ``rng.shuffle``
    on [1..n]: shuffle swaps item i with item j_i = ``_randbelow(i + 1)`` for
    i = n - 1 .. 1.  Read as one mixed-radix number (radices n, n - 1, .., 2,
    in ``radices`` with the bit count of each), the j_i are an index into
    ``draws``, whose entry is the interned element that shuffle would build.

    Only elements of the table's degree are in ``ids``, so an operand whose
    images are there has that degree; the table itself checks nothing.
    """

    __slots__ = ("ids", "perms", "order", "products", "inverses", "identity",
                 "radices", "draws")

    def __init__(self, degree):
        perms = [_perm(images) for images in itertools.permutations(range(1, degree + 1))]
        ids = {x.images: k for k, x in enumerate(perms)}
        self.perms, self.ids = perms, ids
        self.identity = perms[0]
        self.order = len(perms)
        if degree == 1:  # itemgetter of one index returns the item, not a 1-tuple
            self.products = [self.identity]
        else:
            # the images of x * y are y's images read at x's images, minus one
            readers = [operator.itemgetter(*[v - 1 for v in x.images]) for x in perms]
            images = [y.images for y in perms]
            self.products = [perms[ids[read(y)]] for read in readers for y in images]
        self.inverses = [perms[ids[braid.perm_inverse(x).images]] for x in perms]
        self.radices = tuple((i + 1, (i + 1).bit_length()) for i in range(degree - 1, 0, -1))
        self.draws = []
        for js in itertools.product(*(range(n) for n, _ in self.radices)):
            images = list(range(1, degree + 1))
            for i, j in zip(range(degree - 1, 0, -1), js):
                images[i], images[j] = images[j], images[i]
            self.draws.append(perms[ids[tuple(images)]])

    def draw(self, rng):
        """The element ``rng.shuffle`` makes of [1..n], from the same calls.

        ``rng`` must be a plain :class:`random.Random`, whose ``_randbelow``
        is CPython's ``_randbelow_with_getrandbits``; each digit repeats its
        calls: ``getrandbits(k)`` with k the radix's bit length, again until
        the result is below the radix.
        """
        getrandbits = rng.getrandbits
        number = 0
        for n, k in self.radices:
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            number = number * n + r
        return self.draws[number]


def _perm_table(degree):
    table = _SYM_TABLES.get(degree)
    if table is None:
        with _SYM_TABLE_LOCK:
            table = _SYM_TABLES.get(degree)
            if table is None:
                table = _SYM_TABLES[degree] = _PermTable(degree)
    return table


@dataclass(frozen=True)
class SymmetricPlatform:
    """S_n under composition (apply left factor first).

    Up to degree ``SYM_TABLE_MAX_DEGREE``, products, inverses, the identity
    and the random draws of a plain :class:`random.Random` come from the
    degree's :class:`_PermTable`, shared by every platform of that degree
    and complete when made; a draw reads the table with the random stream of
    ``rng.shuffle``, so it returns the element shuffle would have.  Larger
    degrees, and other generators, compute each one.

    ``mul``, ``inv`` and ``eq`` check every operand on every call, so a table
    never answers for an element of another degree.  When every operand is a
    plain :class:`Permutation` (not a subclass) whose images are in the
    table's ``ids``, the answer is read from the table: ``ids`` holds only
    images of the platform's degree, so the lookup is the check.  Any other
    operand, at any degree, takes one checked path: :meth:`check`, which
    raises :class:`PlatformMismatch` for a foreign operand, then
    :func:`~nakex.braid.perm_compose` or :func:`~nakex.braid.perm_inverse`.
    """

    degree: int
    _table: Optional[_PermTable] = field(init=False, repr=False, compare=False)

    tag = 0x02
    finite = True

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError("degree must be positive")
        table = _perm_table(self.degree) if self.degree <= SYM_TABLE_MAX_DEGREE else None
        object.__setattr__(self, "_table", table)

    def check(self, x: Element) -> Permutation:
        if not isinstance(x, Permutation) or len(x.images) != self.degree:
            raise PlatformMismatch(f"expected Permutation of degree {self.degree}")
        return x

    def mul(self, x: Element, y: Element) -> Element:
        t = self._table
        if t is not None and x.__class__ is Permutation is y.__class__:
            try:
                return t.products[t.ids[x.images] * t.order + t.ids[y.images]]
            except KeyError:  # an operand of another degree
                pass
        return braid.perm_compose(self.check(x), self.check(y))

    def inv(self, x: Element) -> Element:
        t = self._table
        if t is not None and x.__class__ is Permutation:
            try:
                return t.inverses[t.ids[x.images]]
            except KeyError:
                pass
        return braid.perm_inverse(self.check(x))

    def identity(self) -> Element:
        t = self._table
        return braid.perm_identity(self.degree) if t is None else t.identity

    def eq(self, x: Element, y: Element) -> bool:
        t = self._table
        if t is not None and x.__class__ is Permutation is y.__class__:
            try:
                return t.ids[x.images] == t.ids[y.images]
            except KeyError:
                pass
        return self.check(x) == self.check(y)

    def elements(self) -> Iterator[Permutation]:
        for images in itertools.permutations(range(1, self.degree + 1)):
            yield _perm(images)

    def random_element(self, rng, length: int = 8) -> Element:
        t = self._table
        if t is not None and type(rng) is random.Random:  # a subclass may have its own _randbelow
            return t.draw(rng)
        images = list(range(1, self.degree + 1))
        rng.shuffle(images)
        return _perm(tuple(images))

    def key_payload(self, x: Element) -> bytes:
        return encode_element(self, x)

    def encode(self, x: Element) -> bytes:
        return struct.pack(f">{self.degree}H", *self.check(x).images)

    def decode(self, data: bytes, offset: int) -> tuple[Element, int]:
        end = offset + 2 * self.degree
        if len(data) < end:
            raise ValueError("truncated permutation")
        images = struct.unpack_from(f">{self.degree}H", data, offset)
        return Permutation(tuple(images)), end


@dataclass(frozen=True)
class MultModPlatform:
    """The multiplicative group of residues mod a prime p, p < 2^40.

    The cap keeps construction fast (the primality test is trial division,
    under 0.1 s below 2^40, hours at 20 digits) and every residue within the
    u64 of its encoding.
    """

    modulus: int

    tag = 0x03
    finite = True

    def __post_init__(self):
        if self.modulus >= 1 << 40:
            raise ValueError(f"modulus {self.modulus} is not below 2^40")
        if not _is_prime(self.modulus):
            raise ValueError(f"modulus {self.modulus} is not prime")

    def check(self, x: Element) -> int:
        if not isinstance(x, int) or isinstance(x, bool):
            raise PlatformMismatch(f"expected residue, got {type(x).__name__}")
        if not 1 <= x < self.modulus:
            raise PlatformMismatch(f"residue {x} out of range mod {self.modulus}")
        return x

    def mul(self, x: Element, y: Element) -> Element:
        return (self.check(x) * self.check(y)) % self.modulus

    def inv(self, x: Element) -> Element:
        return pow(self.check(x), self.modulus - 2, self.modulus)

    def identity(self) -> Element:
        return 1

    def eq(self, x: Element, y: Element) -> bool:
        return self.check(x) == self.check(y)

    def elements(self) -> Iterator[int]:
        return iter(range(1, self.modulus))

    def random_element(self, rng, length: int = 8) -> Element:
        return rng.randrange(1, self.modulus)

    def key_payload(self, x: Element) -> bytes:
        return encode_element(self, x)

    def encode(self, x: Element) -> bytes:
        return struct.pack(">Q", self.check(x))

    def decode(self, data: bytes, offset: int) -> tuple[Element, int]:
        if len(data) < offset + 8:
            raise ValueError("truncated residue")
        (value,) = struct.unpack_from(">Q", data, offset)
        return self.check(int(value)), offset + 8


Platform = Union[BraidPlatform, SymmetricPlatform, MultModPlatform]


def g_pow(p: Platform, x: Element, k: int) -> Element:
    """Square-and-multiply power; negative exponents via inversion.

    The base is squared only while higher bits remain, so k >= 1 costs
    bit_length(k) - 1 squarings and popcount(k) multiplications.
    """
    if k < 0:
        return g_pow(p, p.inv(x), -k)
    acc = p.identity()
    base = x
    while k:
        if k & 1:
            acc = p.mul(acc, base)
        k >>= 1
        if k:
            base = p.mul(base, base)
    return acc


def g_conj(p: Platform, x: Element, y: Element) -> Element:
    """x^-1 y x."""
    return p.mul(p.mul(p.inv(x), y), x)


def g_commutator(p: Platform, x: Element, y: Element) -> Element:
    """x^-1 y^-1 x y."""
    return p.mul(p.mul(p.inv(x), p.inv(y)), p.mul(x, y))


# -- endomorphisms -----------------------------------------------------------


@dataclass(frozen=True)
class IdentityEndo:
    platform: Platform

    kind = "identity"

    def apply(self, x: Element) -> Element:
        return self.platform.check(x)


@dataclass(frozen=True)
class InnerEndo:
    """Conjugation x -> c^-1 x c."""

    platform: Platform
    conjugator: Element

    kind = "inner"

    def __post_init__(self):
        self.platform.check(self.conjugator)

    def apply(self, x: Element) -> Element:
        return g_conj(self.platform, self.conjugator, x)


@dataclass(frozen=True)
class PowerShiftEndo:
    """The pure-braid endomorphism: erase the last d strands, shift by d.

    Only defined on pure braids of the platform's B_n.
    """

    platform: BraidPlatform
    d: int

    kind = "power_shift"

    def __post_init__(self):
        if not isinstance(self.platform, BraidPlatform):
            raise PlatformMismatch("power_shift endomorphisms need a braid platform")
        if not 0 < self.d < self.platform.strands:
            raise ValueError("need 0 < d < strand count")

    def apply(self, x: Element) -> Element:
        word = self.platform.check(x)
        # word has the platform's strands, so 0 < d < strands holds and the
        # one ValueError remove_strands can raise is its purity check
        try:
            return braid.pure_braid_endo(word, self.d)
        except ValueError:
            raise ValueError("power_shift endomorphism applied to a non-pure braid") from None


def _generators(platform: Platform, elements: list) -> list:
    """Each of ``elements``, in order, that the ones before it do not generate.

    A finite group's subgroups are closed under products alone, so a
    subgroup is grown by right-multiplying by its generators.
    """
    gens, subgroup = [], {platform.identity()}
    for g in elements:
        if g in subgroup:
            continue
        gens.append(g)
        new = list(subgroup)
        while new:
            new = {platform.mul(x, h) for x in new for h in gens} - subgroup
            subgroup |= new
    return gens


@dataclass(frozen=True)
class PointMapEndo:
    """An explicit map given by its full value table (finite platforms only).

    Construction verifies f(xg) = f(x)f(g) for every x and every g of a
    generating set, which makes f a homomorphism: with x = 1 it gives f(1) = 1,
    and every element is a product of generators.
    """

    platform: Platform
    pairs: tuple[tuple[Element, Element], ...]
    _table: dict = field(init=False, repr=False, compare=False, hash=False)

    kind = "point_map"

    def __post_init__(self):
        if not self.platform.finite:
            raise PlatformMismatch("point maps require a finite platform")
        table = {k: v for k, v in self.pairs}
        if len(table) != len(self.pairs):
            raise ValueError("point map table lists a point twice")
        # one element past the table's size shows it short, without listing
        # a large platform
        elements = list(itertools.islice(self.platform.elements(), len(table) + 1))
        if set(table) != set(elements):
            raise ValueError("point map table must cover the whole platform")
        mul = self.platform.mul
        # a trivial group has no generator; its one pair is checked instead
        for y in _generators(self.platform, elements) or elements:
            for x in elements:
                if not self.platform.eq(table[mul(x, y)], mul(table[x], table[y])):
                    raise ValueError(
                        f"table is not a homomorphism: f({x}*{y}) != f({x})f({y})"
                    )
        object.__setattr__(self, "_table", table)

    def apply(self, x: Element) -> Element:
        return self._table[self.platform.check(x)]


Endomorphism = Union[IdentityEndo, InnerEndo, PowerShiftEndo, PointMapEndo]


def endo_is_idempotent(f: Endomorphism) -> bool:
    """f(f(x)) == f(x) for all x; decidable on finite platforms, by catalog
    kind on braid platforms (identity only)."""
    if f.kind == "identity":
        return True
    platform = f.platform
    if platform.finite:
        return all(
            platform.eq(f.apply(f.apply(x)), f.apply(x)) for x in platform.elements()
        )
    return False


def centralizer(platform: Platform, elements: Iterable[Element]) -> list[Element]:
    """Exhaustive centralizer of a set on a finite platform."""
    if not platform.finite:
        raise PlatformMismatch("centralizer enumeration needs a finite platform")
    targets = [platform.check(x) for x in elements]
    out = []
    for c in platform.elements():
        if all(platform.eq(platform.mul(c, x), platform.mul(x, c)) for x in targets):
            out.append(c)
    return out


# -- serialization -----------------------------------------------------------
#
# 1-byte platform tag, then the platform payload: canonical braid word /
# permutation images as u16 / residue as u64.


def encode_element(platform: Platform, x: Element) -> bytes:
    return bytes([platform.tag]) + platform.encode(x)


def decode_element(platform: Platform, data: bytes, offset: int = 0) -> tuple[Element, int]:
    """The element at ``offset`` and the offset past it; ValueError if malformed."""
    if offset >= len(data):
        raise ValueError("missing element")
    if data[offset] != platform.tag:
        raise ValueError(f"platform tag mismatch: {data[offset]:#x} vs {platform.tag:#x}")
    return platform.decode(data, offset + 1)

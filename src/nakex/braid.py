"""Exact arithmetic in braid groups B_n.

A braid is carried around as a :class:`BraidWord`: a declared strand count
together with a sequence of nonzero letters, letter ``i`` encoding the Artin
generator sigma_i and ``-i`` its inverse.  Words multiply by concatenation
(with eager free reduction) and are compared through their left-greedy
Garside normal form ``Delta^k p_1 ... p_l``, a canonical factorization into
left-weighted permutation braids.  Dehornoy handle reduction is kept alongside
as an independent equality oracle: a word represents the trivial braid iff
handle reduction empties it.

The infinite-strand group is handled by truncation: :func:`shift` raises every
generator index, growing the declared strand count, and callers size their
ambient B_n up front.  On pure braids, :func:`remove_strands` erases the last
d strands and :func:`pure_braid_endo` composes that with a d-fold shift,
giving the strand-removal endomorphism of P_n.
"""

from __future__ import annotations

import functools
import random
import struct
from dataclasses import dataclass

from . import _kernels

__all__ = [
    "BraidWord",
    "Permutation",
    "GarsideNormalForm",
    "concat",
    "concat_all",
    "freely_reduced",
    "max_index",
    "invert",
    "shift",
    "with_strands",
    "permutation_of",
    "is_pure",
    "normal_form",
    "braids_equal",
    "handle_reduce",
    "handle_trivial",
    "delta_word",
    "tau",
    "remove_strands",
    "pure_braid_endo",
    "random_braid",
    "random_pure_braid",
    "canonical_word",
    "encode_braid",
    "decode_braid",
    "encode_normal_form",
    "perm_identity",
    "perm_compose",
    "perm_inverse",
]


@dataclass(frozen=True)
class BraidWord:
    """A word in the Artin generators of B_n.

    ``letters`` are nonzero integers with ``1 <= |e| <= strands - 1``; the
    empty word is the identity.  Dataclass equality is letter-wise equality of
    words, not equality of the braids they represent; use :func:`braids_equal`
    or compare normal forms for the latter.

    ``BraidWord(strands, letters)`` checks the strand count and every letter
    and raises ValueError otherwise; it keeps the letters as a tuple, so a
    word given a list hashes like the same word given a tuple.  It is the
    constructor for words from outside the program: :func:`decode_braid`,
    spec and transcript JSON, and callers.  The words this package derives
    from checked words (products, inverses, shifts, a lift to more strands,
    handle and free reductions, strand removal, canonical words and random
    draws) are valid by construction, so they are built by ``_word``, which
    skips the check.
    """

    strands: int
    letters: tuple[int, ...] = ()

    def __post_init__(self):
        if self.strands < 1:
            raise ValueError(f"strand count must be positive, got {self.strands}")
        object.__setattr__(self, "letters", tuple(self.letters))
        for e in self.letters:
            if e == 0 or abs(e) > self.strands - 1:
                raise ValueError(
                    f"letter {e} out of range for {self.strands} strands"
                )

    def __len__(self) -> int:
        return len(self.letters)


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1..n} given by its image sequence (1-based).

    ``Permutation(images)`` checks that the images are 1..n in some order and
    raises ValueError otherwise; it keeps the images as a tuple, so a
    permutation given a list hashes like the same one given a tuple.  It is
    the constructor for images from outside the program (decoders, spec and
    transcript JSON, callers).  The results this package computes itself
    (products, inverses, identities, braid projections, normal-form factors,
    enumerations and random draws) are permutations by construction, so they
    are built by ``_perm``, which skips the check: it would cost more than
    the arithmetic it guards.
    """

    images: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "images", tuple(self.images))
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {self.images}")

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def is_identity(self) -> bool:
        return all(v == i + 1 for i, v in enumerate(self.images))


def _word(strands: int, letters: tuple[int, ...]) -> BraidWord:
    """The BraidWord of ``letters``, which must already fit ``strands``."""
    w = object.__new__(BraidWord)
    object.__setattr__(w, "strands", strands)
    object.__setattr__(w, "letters", letters)
    return w


def _perm(images: tuple[int, ...]) -> Permutation:
    """The Permutation of ``images``, which must already be 1..n in some order."""
    p = object.__new__(Permutation)
    object.__setattr__(p, "images", images)
    return p


def perm_identity(n: int) -> Permutation:
    return _perm(tuple(range(1, n + 1)))


def perm_compose(a: Permutation, b: Permutation) -> Permutation:
    """Apply ``a`` first, then ``b`` (matches braid word concatenation)."""
    images = b.images
    if len(a.images) != len(images):
        raise ValueError("degree mismatch")
    return _perm(tuple([images[v - 1] for v in a.images]))


def perm_inverse(a: Permutation) -> Permutation:
    inv = [0] * len(a.images)
    for i, v in enumerate(a.images, 1):
        inv[v - 1] = i
    return _perm(tuple(inv))


@dataclass(frozen=True)
class GarsideNormalForm:
    """Canonical form Delta^infimum . factors, deciding braid equality.

    No factor is the identity or the half-twist permutation, and adjacent
    factors are left-weighted.  Two braid words on the same strand count
    represent the same element iff their forms compare equal.
    """

    strands: int
    infimum: int
    factors: tuple[Permutation, ...]

    def is_identity(self) -> bool:
        return self.infimum == 0 and not self.factors


def concat(w1: BraidWord, w2: BraidWord) -> BraidWord:
    """Product of two braid words, freely reduced; strand counts may differ."""
    n = max(w1.strands, w2.strands)
    return _word(n, _kernels.free_reduce(w1.letters + w2.letters))


def concat_all(*words: BraidWord) -> BraidWord:
    """Product of any number of words (the identity of B_1 for none), freely
    reduced once over all their letters; free reduction is confluent, so this
    is the word that iterated :func:`concat` gives."""
    n = max((w.strands for w in words), default=1)
    return _word(n, _kernels.free_reduce([e for w in words for e in w.letters]))


def invert(w: BraidWord) -> BraidWord:
    return _word(w.strands, tuple([-e for e in reversed(w.letters)]))


def shift(w: BraidWord, p: int) -> BraidWord:
    """The shift endomorphism: every index grows by p, strands by p."""
    if p < 0:
        raise ValueError("shift amount must be nonnegative")
    if p == 0:
        return w
    return _word(w.strands + p, tuple([e + p if e > 0 else e - p for e in w.letters]))


def with_strands(w: BraidWord, n: int) -> BraidWord:
    """Re-declare ``w`` on n strands (n must cover every letter)."""
    if n == w.strands:
        return w
    if n > w.strands:
        return _word(n, w.letters)
    return BraidWord(n, w.letters)


def permutation_of(w: BraidWord) -> Permutation:
    """Image of the word under the projection B_n -> S_n."""
    return _perm(_kernels.perm_of_word(w.letters, w.strands))


def is_pure(w: BraidWord) -> bool:
    return permutation_of(w).is_identity()


# images -> (the one Permutation of a simple braid of B_3..B_7, its shortlex word)
_SIMPLE: dict[tuple[int, ...], tuple[Permutation, tuple[int, ...]]] = {}


def _simple(images: tuple[int, ...]) -> tuple[Permutation, tuple[int, ...]]:
    """The shared Permutation and shortlex word of a simple braid of B_3..B_7.

    Made the first time a normal form reaches the braid, so the map holds at
    most 3! + ... + 7! = 5910 entries.  ``setdefault`` stores an entry in one
    atomic step, so threads that reach a new braid at once (the two session
    endpoints) all get the entry stored first.
    """
    entry = _SIMPLE.get(images)
    if entry is None:
        made = (_perm(images), _kernels.nf_factor_word(images))
        entry = _SIMPLE.setdefault(images, made)
    return entry


@functools.lru_cache(maxsize=8192)
def normal_form(w: BraidWord) -> GarsideNormalForm:
    """Left-greedy Garside normal form of the word in its declared B_n.

    On B_3..B_7 every factor is the one Permutation of its simple braid
    (:func:`_simple`), shared by every form that holds it, so the cache
    holds no copies and equal factors compare by identity.  On B_8 and up
    each factor is a new Permutation: there the shared objects would grow
    towards n! of them, most reached once.
    """
    inf, facs = _kernels.word_to_nf(w.letters, w.strands)
    if w.strands <= _kernels.TABLE_MAX_STRANDS:
        factors = tuple([_simple(f)[0] for f in facs])
    else:
        factors = tuple([_perm(f) for f in facs])
    return GarsideNormalForm(w.strands, inf, factors)


def braids_equal(w1: BraidWord, w2: BraidWord) -> bool:
    """Group equality, after lifting both words to a common strand count."""
    n = max(w1.strands, w2.strands)
    return normal_form(with_strands(w1, n)) == normal_form(with_strands(w2, n))


def handle_reduce(w: BraidWord) -> BraidWord:
    """Handle-free word equal to ``w`` in B_n; empty iff ``w`` is trivial."""
    return _word(w.strands, _kernels.handle_reduce_word(w.letters))


def handle_trivial(w: BraidWord) -> bool:
    return len(handle_reduce(w)) == 0


def delta_word(n: int) -> BraidWord:
    """The descending word sigma_{n-1} ... sigma_2 sigma_1 on n strands."""
    if n < 2:
        raise ValueError("delta_word requires n >= 2")
    return BraidWord(n, tuple(range(n - 1, 0, -1)))


def tau(p: int, q: int) -> BraidWord:
    """The braid delta_{p+1} shift(delta_{p+1}) ... shift^{q-1}(delta_{p+1}).

    Lives on p + q strands; tau(p, p) satisfies the braid-like relation
    a shift^p(a) a = shift^p(a) a shift^p(a) and parameterizes the shifted
    conjugacy operations.
    """
    if p < 1 or q < 1:
        raise ValueError("tau requires p >= 1 and q >= 1")
    block = delta_word(p + 1)
    word = BraidWord(p + q)
    for j in range(q):
        word = concat(word, shift(block, j))
    return with_strands(word, p + q)


def remove_strands(w: BraidWord, d: int) -> BraidWord:
    """Erase the last d strands of a pure braid, landing in B_{n-d}.

    Computed by position tracking on the given representative; the result is
    representative-independent up to normal form.
    """
    if not 0 < d < w.strands:
        raise ValueError(f"need 0 < d < {w.strands}, got {d}")
    if not is_pure(w):
        raise ValueError("remove_strands requires a pure braid")
    reduced = _kernels.remove_strands_word(w.letters, w.strands, d)
    return _word(w.strands - d, reduced)


def pure_braid_endo(w: BraidWord, d: int) -> BraidWord:
    """Strand-removal endomorphism of P_n: erase the last d strands, then
    shift indices by d.  Multiplicative on pure braids; preserves purity and
    the strand count."""
    return with_strands(shift(remove_strands(w, d), d), w.strands)


def random_braid(n: int, length: int, rng: random.Random) -> BraidWord:
    """Freely reduced word of at most ``length`` uniform letters in B_n."""
    if n < 2:
        raise ValueError("random_braid requires n >= 2")
    if length < 0:
        raise ValueError("length must be nonnegative")
    letters = []
    for _ in range(length):
        e = rng.randrange(1, n)
        letters.append(e if rng.random() < 0.5 else -e)
    return _word(n, _kernels.free_reduce(letters))


def random_pure_braid(n: int, rng: random.Random, conj_len: int = 4, blocks: int = 2) -> BraidWord:
    """Random pure braid: a product of conjugated squared generators."""
    out = BraidWord(n)
    for _ in range(blocks):
        u = random_braid(n, conj_len, rng)
        i = rng.randrange(1, n)
        square = BraidWord(n, (i, i) if rng.random() < 0.5 else (-i, -i))
        out = concat(out, concat_all(u, square, invert(u)))
    return out


def freely_reduced(w: BraidWord) -> BraidWord:
    return _word(w.strands, _kernels.free_reduce(w.letters))


def max_index(w: BraidWord) -> int:
    """The largest generator index in the freely reduced word; 0 if it is empty."""
    return max(map(abs, _kernels.free_reduce(w.letters)), default=0)


@functools.lru_cache(maxsize=64)
def _delta_block(n: int, inverse: bool) -> tuple[int, ...]:
    """The shortlex word of Delta, or of Delta^-1 if ``inverse``, on n >= 2 strands."""
    block = _kernels.nf_factor_word(range(n - 1, -1, -1))
    return tuple([-e for e in reversed(block)]) if inverse else block


def canonical_word(w: BraidWord) -> BraidWord:
    """The word read off the Garside normal form: a canonical representative.

    Used wherever a braid leaves the process (wire messages, transcripts,
    key extraction) so that equal braids serialize identically and published
    elements are disguised by renormalization.  The word is Delta^infimum
    as a power of Delta's (or Delta^-1's) shortlex word, kept for the last
    64 strand counts, followed by each factor's shortlex word: on B_3..B_7 the
    one stored with the factor (:func:`_simple`), on B_8 and up made by
    :func:`nakex._kernels.nf_factor_word`.
    """
    nf = normal_form(w)
    n = nf.strands
    letters: list[int] = []
    if nf.infimum != 0 and n >= 2:
        letters.extend(_delta_block(n, nf.infimum < 0) * abs(nf.infimum))
    if n <= _kernels.TABLE_MAX_STRANDS:
        for factor in nf.factors:
            letters.extend(_simple(factor.images)[1])
    else:
        for factor in nf.factors:
            letters.extend(_kernels.nf_factor_word(factor.images))
    return _word(n, tuple(letters))


# -- canonical byte serialization -------------------------------------------
#
# u16 strand count, u32 letter count, then each letter as i16, big-endian.


def encode_braid(w: BraidWord) -> bytes:
    count = len(w.letters)
    return struct.pack(">HI%dh" % count, w.strands, count, *w.letters)


def decode_braid(data: bytes, offset: int = 0) -> tuple[BraidWord, int]:
    """Decode one braid word; returns (word, next offset).

    Raises ValueError on a truncated buffer or an invalid word.
    """
    try:
        strands, count = struct.unpack_from(">HI", data, offset)
        letters = struct.unpack_from(f">{count}h", data, offset + 6)
    except struct.error as exc:
        raise ValueError(f"truncated braid encoding: {exc}") from None
    return BraidWord(strands, letters), offset + 6 + 2 * count


def encode_normal_form(nf: GarsideNormalForm) -> bytes:
    """Deterministic encoding of a normal form (key-extraction input)."""
    images = [v for factor in nf.factors for v in factor.images]
    return struct.pack(
        ">HiI%dH" % len(images), nf.strands, nf.infimum, len(nf.factors), *images
    )

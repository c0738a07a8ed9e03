"""Braid word and permutation kernels in plain Python.

These are the loops under every braid normal form, equality check and strand
removal; :mod:`nakex.braid` wraps them in its public API.

Conventions shared by all kernels:

- A braid word is a sequence of nonzero ints; letter ``i`` encodes the Artin
  generator sigma_i, ``-i`` its inverse (1-based, ``1 <= i <= n-1``).  Kernels
  return words as tuples.
- A permutation is a sequence ``p`` of length n of its images, composed
  left-to-right: ``compose(p, q)[k] = q[p[k]]`` means "apply p, then q".
  Under this convention the permutation of a concatenated braid word is the
  left-to-right composite of the letters' transpositions.
  :func:`perm_of_word` and :func:`word_to_nf` return tuples of 1-based
  images, the form :class:`nakex.braid.Permutation` holds; the list kernel
  of :func:`word_to_nf` works on 0-based lists inside, and
  :func:`nf_factor_word` reads only descents, so it takes either base.
- A positive permutation braid is identified with its permutation; its letter
  length equals the inversion count.  For a pair of factors (x, y) the
  left-weighted condition is S(y) subset-of F(x), where S(y) = {i : y[i] >
  y[i+1]} (descents of y) and F(x) = {i : x^-1[i+1] < x^-1[i]} (descents of
  x^-1).

The normal form (:func:`word_to_nf`) is the incremental left-greedy form of
Elrifai-Morton.  It holds the normal form of the prefix read so far as
Delta^d tau^p(F_1 ... F_r), with p one bit for a pending tau, and reads each
letter, mapped through tau^p, along one of three paths: a positive letter
that extends the tail factor in place, an inverse letter that cancels into
it in place, or any other letter appended as a factor (an inverse letter as
Delta^-1 times its near-Delta factor, which moves d and p).  The tail factor
may be left dirty, not yet left-weighted with its left neighbour: letters
keep extending or cancelling into it while it stays simple, and pairs are
left-weighted back from the tail, only as far as they change, when the next
letter does not fit or the word ends.  A factor that grows into Delta is
pulled straight into the infimum instead of being carried to the head.  The
number of pairs per letter is bounded: 1.8, 2.5 and 2.7 on random B_8 words
of 120, 400 and 1200 letters.

On B_n with n <= 7 the factors are small-int ids in a per-n table of simple
braids (n! <= 5040 of them), filled as words reach new factors, under a lock
because session endpoints normalize from two threads.  A letter's fit test
is one bit of a mask, and a left-weighted pair costs one table step per
transposition moved, or one read of a packed int in all when its right
factor is within three letters of Delta, as the near-Delta factor
Delta sigma_j^-1 that an inverse letter appends is, and stays while two
more inverse letters cancel into it.  On more
strands the factors are lists of images, and a pair costs O(n) plus O(1) per
transposition moved; a table there would grow towards n! entries, most of
them reached once.
"""

import threading
from array import array
from itertools import combinations, starmap
from operator import lt

__all__ = [
    "free_reduce",
    "perm_of_word",
    "word_to_nf",
    "nf_factor_word",
    "handle_reduce_word",
    "remove_strands_word",
]


def free_reduce(letters):
    """Cancel adjacent inverse pairs; returns the freely reduced word."""
    out = []
    for e in letters:
        if out and out[-1] == -e:
            out.pop()
        else:
            out.append(e)
    return tuple(out)


def perm_of_word(letters, n):
    """Image of a braid word under B_n -> S_n (1-based one-line notation)."""
    perm = list(range(1, n + 1))
    pinv = list(range(-1, n))  # pinv[v]: the position of value v; pinv[0] unused
    for e in letters:
        j = abs(e)
        # Multiplying by the transposition (j, j+1) on the right swaps the
        # values j and j+1; track positions through pinv for O(1) updates.
        a = pinv[j]
        b = pinv[j + 1]
        perm[a] = j + 1
        perm[b] = j
        pinv[j] = b
        pinv[j + 1] = a
    return tuple(perm)


def _left_weight_pair(x, y):
    """Make the factor pair (x, y) left-weighted in place.

    Moves a transposition s_i with i in S(y) - F(x) from the head of y to the
    tail of x until none is left; each move lengthens x and shortens y.  A
    move at i changes the descents of y and of x^-1 only at i - 1, i and
    i + 1, so the scan steps back one index instead of starting over.
    Returns True when anything moved.
    """
    last = len(x) - 1
    xinv = [0] * (last + 1)
    for k, v in enumerate(x):
        xinv[v] = k
    changed = False
    i = 0
    while i < last:
        if y[i] > y[i + 1]:
            pi = xinv[i]
            pj = xinv[i + 1]
            if pi < pj:
                x[pi] = i + 1
                x[pj] = i
                xinv[i] = pj
                xinv[i + 1] = pi
                y[i], y[i + 1] = y[i + 1], y[i]
                changed = True
                if i:
                    i -= 1
                continue
        i += 1
    return changed


def _tau(f):
    """tau(f) = Delta^-1 f Delta on a factor: i -> n-1-f(n-1-i)."""
    top = len(f) - 1
    return [top - v for v in reversed(f)]


def word_to_nf(letters, n):
    """Left-greedy Garside normal form of a braid word in B_n.

    Returns ``(inf, factors)`` where ``factors`` is a list of permutation-braid
    factors, each a tuple of its 1-based images (what
    :class:`nakex.braid.Permutation` holds), none the identity or the half
    twist, adjacent pairs left-weighted.  The represented braid is
    Delta^inf f_1 ... f_l.

    The form is built incrementally (Elrifai-Morton; Epstein et al., *Word
    Processing in Groups*, ch. 9).  The prefix read so far is held as
    Delta^d tau^p(F_1 ... F_r), where tau(x) = Delta^-1 x Delta is the flip
    sigma_j -> sigma_(n-j) and p is one bit: tau is an involution, and
    Delta^-1 can only pass the factors on their left as tau, so the pending
    tau is applied to each letter instead of to every factor.  F_1 ... F_(r-1)
    is always in normal form; the tail factor F_r is simple but may be
    dirty, that is not yet left-weighted with F_(r-1).  A letter, mapped
    through tau^p, takes one of three paths:

    - a positive letter sigma_j whose values j, j+1 stand in order in F_r
      extends F_r in place and marks it dirty;
    - an inverse letter whose generator right-divides F_r cancels in place
      (a factor emptied is popped, and the tail left is clean).  A clean F_r
      stays clean: it shrinks to a prefix of itself, whose starting set only
      shrinks, so its left pair stays left-weighted;
    - any other letter first sweeps a dirty tail and is then read again
      against the swept one, which may now take it in place.  Otherwise it is
      appended as a factor.  For sigma_j the new pair is already
      left-weighted (F_r ends in sigma_j), so the tail is clean.
      sigma_j^-1 = Delta^-1 (Delta sigma_j^-1) first does d -= 1 and
      p ^= 1, then appends the near-Delta factor Delta sigma_j^-1 (j mapped
      through the new parity) as a dirty tail.  Every sigma_b with b != j
      right-divides it, so a run of inverse letters cancels into it.

    So a run of letters that keeps the tail simple costs one sweep, not one
    per letter.  The word need not be freely reduced: the second letter of an
    adjacent inverse pair always fits the tail the first one left, and
    cancels or extends it in place.

    The sweep (also run at the end) is the right-multiplication step of the
    reference: F_1 ... F_(r-1) times the simple F_r.  It left-weights pairs
    from the tail leftward and stops at the first pair that does not change;
    pairs to its right stay left-weighted although their left factors gave up
    a head to the left.  When a pair turns its left factor into Delta, that
    factor is deleted, tau is applied to the factors on its right (Delta
    passes them on its way to the head), d += 1, p ^= 1, and the sweep stops:
    carried to the head, the Delta would only apply tau to each factor on its
    left, and the pair that closes over the gap is left-weighted already.  At
    the end tau^p is applied to every factor.

    The number of pairs per letter is bounded rather than growing with the
    word: 1.8, 2.5 and 2.7 on random B_8 words of 120, 400 and 1200 letters
    (2.7, 3.6 and 4.0 with one sweep per letter), and 1.5 on the words
    ``kex_braid`` normalizes (2.0 with one sweep per letter).

    Two paths run these steps on different factors and give the same output:

    - For n <= ``TABLE_MAX_STRANDS`` (7) a factor is an id in the table of
      simple braids of B_n (:class:`_FactorTable`).  A letter's fit test is
      one bit of F(F_r), extending or cancelling is one table step, and a
      pair is left-weighted from the masks S(y) - F(x) with one table step
      for each of x and y per transposition moved (:func:`_left_weight_ids`).
      A pair whose y is within three letters of Delta takes one step in
      all: its result is stored, packed into one int, in the table's memo
      slot for (x, y) the first time it moves.  On the 7085 inputs of 4000
      ``kex_braid`` operations a form took 28 us with this memo, against 38
      with slots for the near-Delta factors alone; all 378,000 slots of B_7
      take 1,512,000 bytes.
    - For n >= 8 a factor is a list of 0-based images, a letter's fit test
      looks up two positions, and a pair costs O(n) to rebuild x^-1 and scan
      every position, plus O(1) per transposition moved
      (:func:`_left_weight_pair`).  The table would hold up to n! factors,
      and words on many strands keep reaching new ones: from cold tables,
      ten random B_8 words of 400 letters took 0.29 s against 0.06 s here
      and added 23,884 factors, and ten B_11 words 2.6 s against 0.09 s,
      adding 197,047.
    """
    if not letters or n < 2:
        return 0, []
    if n == 2:
        return sum(letters), []  # sigma_1 is the half twist of B_2
    if n <= TABLE_MAX_STRANDS:
        return _nf_table(letters, n)
    return _nf_lists(letters, n)


def _nf_lists(letters, n):
    """:func:`word_to_nf` of a nonempty word, n >= 3, on lists."""
    identity = list(range(n))
    w0 = identity[::-1]
    top = n - 2  # tau(sigma_j) = sigma_(top - j), 0-based
    d = 0
    flip = 0
    dirty = False  # F_r not yet left-weighted with its left neighbour
    facs = []
    for e in letters:
        while True:
            j = (e if e > 0 else -e) - 1
            if flip:
                j = top - j
            if facs:
                x = facs[-1]
                a = x.index(j)
                b = x.index(j + 1)
                if (a < b) == (e > 0):
                    # x sigma_j (values in order) or x sigma_j^-1 (out of
                    # order) is simple: swap the two values.
                    x[a] = j + 1
                    x[b] = j
                    if e > 0:
                        dirty = True
                    elif x == identity:
                        facs.pop()
                        dirty = False
                    break
                if dirty:
                    # the letter does not fit: sweep, then read it again
                    if _sweep_lists(facs, identity, w0):
                        d += 1
                        flip ^= 1
                    dirty = False
                    continue
            if e > 0:
                f = identity.copy()
                f[j] = j + 1
                f[j + 1] = j
            else:
                d -= 1
                flip ^= 1
                j = top - j
                # Delta sigma_j^-1: start from w0 and swap the entries
                # holding values j and j+1.
                f = w0.copy()
                f[top + 1 - j] = j + 1
                f[top - j] = j
                dirty = True
            facs.append(f)
            break

    if dirty and _sweep_lists(facs, identity, w0):
        d += 1
        flip ^= 1
    if flip:
        facs = [_tau(f) for f in facs]
    return d, [tuple([v + 1 for v in f]) for f in facs]


def _sweep_lists(facs, identity, w0):
    """Left-weight ``facs`` from the tail leftward; True if a Delta left.

    Stops at the first pair that does not change.  A factor that has grown
    into Delta is deleted and tau is applied to the factors on its right;
    the caller then raises the infimum and flips the tau parity.  A tail
    factor emptied into its left neighbour is popped.
    """
    k = len(facs) - 1
    pulled = False
    while True:
        if facs[k] == w0:
            del facs[k]
            for i in range(k, len(facs)):
                facs[i] = _tau(facs[i])
            pulled = True
            break
        if not k or not _left_weight_pair(facs[k - 1], facs[k]):
            break
        k -= 1
    if facs and facs[-1] == identity:
        facs.pop()
    return pulled


# -- factor tables: the simple braids of B_n as small ints, for n <= 7 --------

TABLE_MAX_STRANDS = 7
_TABLES = {}  # n -> _FactorTable, made on first use
_TABLE_LOCK = threading.Lock()  # held while a table, an entry or a step (not a memo slot) is filled
_LOWEST_BIT = tuple((m & -m).bit_length() - 1 for m in range(1 << (TABLE_MAX_STRANDS - 1)))
_IDENTITY = 0  # the ids every table gives these factors
_DELTA = 1
_NEAR = 2  # Delta sigma_(j+1)^-1 has id _NEAR + j
_MEMO_CO_LENGTH = 3  # a pair is memoized when its right factor is this close to Delta
# memo columns of B_n: the simple braids of co-length 1..3, counted by the
# Mahonian numbers M(n, 1) + M(n, 2) + M(n, 3) (on B_3 the identity is one)
_MEMO_COLUMNS = (0, 0, 0, 5, 14, 28, 48, 75)
_ID_BITS = 13  # a memo slot packs a pair of ids as (x << 13) | y; ids < 7! < 2^13


class _FactorTable:
    """The simple braids of B_n reached so far, as ids 0, 1, 2, ...

    Id 0 is the identity, id 1 is Delta and ids 2..n are the near-Delta
    factors Delta sigma_1^-1, ..., Delta sigma_(n-1)^-1 that inverse letters
    append; a new table holds these n + 1, and gains the others as words
    reach them.  For each id the table holds its permutation's 1-based
    images (``images``, the output of :func:`word_to_nf`, and the key of
    ``ids``), its starting set S and finishing set F as bit masks (bit i
    stands for sigma_(i+1)), and three kinds of step, each filled the first
    time it is taken (-1 until then):

    - ``vswap[x][j]`` swaps the values j + 1, j + 2: x sigma_(j+1), or x
      sigma_(j+1)^-1 when sigma_(j+1) right-divides x;
    - ``pswap[y][i]`` swaps the positions i, i+1: sigma_(i+1) taken off the
      head of y, or put on it;
    - ``tau[x]`` is tau(x).

    A simple braid y of co-length 1..3 (one to three letters short of
    Delta) also has a memo column ``col[y]``, given when it is interned, in
    the order the table meets them (``columns`` lists these ids in column
    order); every other id has -1.  There are ``cols`` of them on B_n: 5,
    14, 28, 48 and 75 for n = 3..7.  The flat ``array('i')`` ``memo``
    holds, at ``x * cols + col[y]``, the left-weighted pair that (x, y)
    becomes, packed as ``(x' << 13) | y'``, or -1 until a pair that is not
    left-weighted yet is first moved.  Its
    right factors are the near-Delta factors of inverse letters and what up
    to two more inverse letters cancel out of them.  On the normal-form
    inputs of ``kex_braid`` these are 61% of the pairs that sweeps
    left-weight, and 83% of the transpositions they move (the near-Delta
    factors alone: 31% and 46%).  Four bytes a slot: 1,512,000 bytes for
    all of B_7.

    A table fills as words reach new factors, never eagerly: all 5040 of B_7
    would take 40 ms to build.  Session endpoints normalize from two
    threads, so every new id and every ``vswap``, ``pswap`` or ``tau`` fill
    holds ``_TABLE_LOCK``, and a new id's fields, its ``cols`` memo slots
    among them, are all appended before the id is stored where a reader can
    find it.  A memo slot is filled without the lock, with one item
    assignment: it only ever holds -1 or the final pair, and threads that
    fill it at once store equal pairs.

    The table holds no object for callers: :mod:`nakex.braid` keeps the one
    shared Permutation and shortlex word of each simple braid in a map keyed
    by these images tuples.
    """

    __slots__ = (
        "ids", "images", "start", "finish", "vswap", "pswap", "tau", "col", "columns", "cols",
        "memo",
    )

    def __init__(self, n):
        self.ids = {}
        self.images = []
        self.start = []
        self.finish = []
        self.vswap = []
        self.pswap = []
        self.tau = []
        self.col = []
        self.columns = []
        self.cols = _MEMO_COLUMNS[n]
        self.memo = array("i")
        self._intern(tuple(range(1, n + 1)))
        delta = tuple(range(n, 0, -1))
        self._intern(delta)
        for j in range(1, n):  # Delta sigma_j^-1 swaps the values j, j + 1 of Delta
            self._intern(tuple([j + 1 if v == j else j if v == j + 1 else v for v in delta]))

    def _intern(self, p):
        """The id of the permutation ``p`` (1-based), added if new (lock held)."""
        k = self.ids.get(p)
        if k is not None:
            return k
        last = len(p) - 1
        inv = [0] * (last + 1)
        for pos, v in enumerate(p):
            inv[v - 1] = pos
        k = len(self.images)
        self.images.append(p)
        self.start.append(sum(1 << i for i in range(last) if p[i] > p[i + 1]))
        self.finish.append(sum(1 << i for i in range(last) if inv[i] > inv[i + 1]))
        self.vswap.append([-1] * last)
        self.pswap.append([-1] * last)
        self.tau.append(-1)
        co_length = sum(starmap(lt, combinations(p, 2)))  # Delta's inversions that p lacks
        if 1 <= co_length <= _MEMO_CO_LENGTH:
            self.col.append(len(self.columns))
            self.columns.append(k)
        else:
            self.col.append(-1)
        self.memo.extend(array("i", [-1]) * self.cols)
        self.ids[p] = k
        return k

    def value_step(self, x, j):
        """Fill ``vswap[x][j]`` (and its converse) and return it."""
        with _TABLE_LOCK:
            p = list(self.images[x])
            a = p.index(j + 1)
            b = p.index(j + 2)
            p[a] = j + 2
            p[b] = j + 1
            y = self._intern(tuple(p))
            self.vswap[x][j] = y
            self.vswap[y][j] = x
        return y

    def position_step(self, y, i):
        """Fill ``pswap[y][i]`` (and its converse) and return it."""
        with _TABLE_LOCK:
            p = list(self.images[y])
            p[i], p[i + 1] = p[i + 1], p[i]
            z = self._intern(tuple(p))
            self.pswap[y][i] = z
            self.pswap[z][i] = y
        return z

    def tau_step(self, x):
        """Fill ``tau[x]`` (and ``tau`` of the result) and return it."""
        with _TABLE_LOCK:
            p = self.images[x]
            y = self._intern(tuple([len(p) + 1 - v for v in reversed(p)]))
            self.tau[x] = y
            self.tau[y] = x
        return y


def _factor_table(n):
    table = _TABLES.get(n)
    if table is None:
        with _TABLE_LOCK:
            table = _TABLES.get(n)
            if table is None:
                table = _TABLES[n] = _FactorTable(n)
    return table


def _nf_table(letters, n):
    """:func:`word_to_nf` of a nonempty word, 3 <= n <= 7, on ids."""
    table = _factor_table(n)
    finish = table.finish
    vswap = table.vswap
    top = n - 2  # tau(sigma_j) = sigma_(top - j), 0-based
    d = 0
    flip = 0
    dirty = False  # F_r not yet left-weighted with its left neighbour
    facs = []
    for e in letters:
        while True:
            j = (e if e > 0 else -e) - 1
            if flip:
                j = top - j
            if facs:
                x = facs[-1]
                if (finish[x] >> j & 1) != (e > 0):
                    # x sigma_j (j not in F) or x sigma_j^-1 (j in F) is simple
                    y = vswap[x][j]
                    if y < 0:
                        y = table.value_step(x, j)
                    if y != _IDENTITY:
                        facs[-1] = y
                        if e > 0:
                            dirty = True
                    else:
                        facs.pop()
                        dirty = False
                    break
                if dirty:
                    # the letter does not fit: sweep, then read it again
                    if _sweep_table(facs, table):
                        d += 1
                        flip ^= 1
                    dirty = False
                    continue
            if e > 0:
                f = vswap[_IDENTITY][j]
                if f < 0:
                    f = table.value_step(_IDENTITY, j)
            else:
                d -= 1
                flip ^= 1
                f = _NEAR + top - j  # Delta sigma_j^-1, j mapped through the new flip
                dirty = True
            facs.append(f)
            break

    if dirty and _sweep_table(facs, table):
        d += 1
        flip ^= 1
    if flip:
        _tau_ids(facs, 0, table)
    images = table.images
    return d, [images[f] for f in facs]


def _tau_ids(facs, k, table):
    """Apply tau to ``facs[k:]`` in place."""
    tau = table.tau
    for i in range(k, len(facs)):
        y = tau[facs[i]]
        facs[i] = y if y >= 0 else table.tau_step(facs[i])


def _sweep_table(facs, table):
    """:func:`_sweep_lists` on factor ids."""
    k = len(facs) - 1
    pulled = False
    while True:
        if facs[k] == _DELTA:
            del facs[k]
            _tau_ids(facs, k, table)
            pulled = True
            break
        if not k or not _left_weight_ids(table, facs, k):
            break
        k -= 1
    if facs and facs[-1] == _IDENTITY:
        facs.pop()
    return pulled


def _left_weight_ids(table, facs, k):
    """Make the pair of ids (facs[k-1], facs[k]) left-weighted in place.

    Moves s_i, the lowest i in m = S(y) - F(x), from the head of y to the
    tail of x, one table step for each, until m is empty.  A pair whose y
    has a memo column reads its result from ``table.memo`` instead, and the
    first such pair to move stores it there.  Returns True when anything
    moved.
    """
    start = table.start
    finish = table.finish
    x = facs[k - 1]
    y = facs[k]
    m = start[y] & ~finish[x]
    if not m:
        return False
    slot = table.col[y]
    if slot >= 0:  # y is within _MEMO_CO_LENGTH letters of Delta
        slot += x * table.cols
        pair = table.memo[slot]
        if pair >= 0:
            facs[k - 1] = pair >> 13  # _ID_BITS
            facs[k] = pair & 8191
            return True
    vswap = table.vswap
    pswap = table.pswap
    while m:
        i = _LOWEST_BIT[m]
        x1 = vswap[x][i]
        if x1 < 0:
            x1 = table.value_step(x, i)
        y1 = pswap[y][i]
        if y1 < 0:
            y1 = table.position_step(y, i)
        x = x1
        y = y1
        m = start[y] & ~finish[x]
    facs[k - 1] = x
    facs[k] = y
    if slot >= 0:
        table.memo[slot] = x << 13 | y
    return True


def nf_factor_word(perm):
    """Shortlex letter word of a permutation-braid factor (1-based letters).

    Reads only the factor's descents, so its images may be 0- or 1-based.
    """
    y = list(perm)
    out = []
    while True:
        for i in range(len(y) - 1):
            if y[i] > y[i + 1]:
                break
        else:
            return tuple(out)
        out.append(i + 1)
        y[i], y[i + 1] = y[i + 1], y[i]


def _find_handle(letters):
    """Position pair (p, j) of the first handle, or (-1, -1).

    A handle is a subword  sigma_i^e v sigma_i^-e  whose interior v contains
    no letter of index i or i-1.  Scanning j left to right and walking back to
    the nearest letter of index i or i-1 finds the handle with the leftmost
    closing letter.
    """
    for j, ej in enumerate(letters):
        i = abs(ej)
        for q in range(j - 1, -1, -1):
            iq = abs(letters[q])
            if iq == i or iq == i - 1:
                if letters[q] == -ej:
                    return q, j
                break
    return -1, -1


def handle_reduce_word(letters):
    """Dehornoy handle reduction; empty output iff the word is trivial."""
    w = free_reduce(letters)
    while True:
        p, j = _find_handle(w)
        if p < 0:
            return w
        e = w[p]
        i = abs(e)
        sign = 1 if e > 0 else -1
        # Interior sigma_(i+1)^d letters become sigma_(i+1)^-e sigma_i^d
        # sigma_(i+1)^e; everything else passes through unchanged.
        out = list(w[:p])
        for eq in w[p + 1:j]:
            if abs(eq) == i + 1:
                d = 1 if eq > 0 else -1
                out += (-sign * (i + 1), d * i, sign * (i + 1))
            else:
                out.append(eq)
        out += w[j + 1:]
        w = free_reduce(out)


def remove_strands_word(letters, n, d):
    """Erase the last d strands of a pure braid word in B_n.

    Tracks which positions hold a removed strand (one whose initial position
    exceeds n - d) through the word; crossings involving one are dropped,
    kept crossings are re-indexed by the number of removed strands currently
    to their left.  Returns a word in B_{n-d}.
    """
    removed = [0] * (n - d) + [1] * d  # removed[pos]: a removed strand is at pos
    out = []
    for e in letters:
        j = abs(e) - 1  # 0-based crossing position
        if removed[j] or removed[j + 1]:
            removed[j], removed[j + 1] = removed[j + 1], removed[j]
        else:
            newj = j + 1 - sum(removed[:j])
            out.append(newj if e > 0 else -newj)
    return free_reduce(out)

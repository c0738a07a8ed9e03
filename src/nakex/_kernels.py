"""Braid word and permutation kernels in plain Python.

These are the loops under every braid normal form, equality check and strand
removal; :mod:`nakex.braid` wraps them in its public API.

Conventions shared by all kernels:

- A braid word is a sequence of nonzero ints; letter ``i`` encodes the Artin
  generator sigma_i, ``-i`` its inverse (1-based, ``1 <= i <= n-1``).  Kernels
  return words as tuples.
- A permutation is a list ``p`` of length n with 0-based images, composed
  left-to-right: ``compose(p, q)[k] = q[p[k]]`` means "apply p, then q".
  Under this convention the permutation of a concatenated braid word is the
  left-to-right composite of the letters' transpositions.
- A positive permutation braid is identified with its permutation; its letter
  length equals the inversion count.  For a pair of factors (x, y) the
  left-weighted condition is S(y) subset-of F(x), where S(y) = {i : y[i] >
  y[i+1]} (descents of y) and F(x) = {i : x^-1[i+1] < x^-1[i]} (descents of
  x^-1).
"""

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
    """Image of a braid word under B_n -> S_n (0-based one-line notation)."""
    perm = list(range(n))
    pinv = list(range(n))
    for e in letters:
        j = abs(e) - 1
        # Multiplying by the transposition (j, j+1) on the right swaps the
        # values j and j+1; track positions through pinv for O(1) updates.
        a = pinv[j]
        b = pinv[j + 1]
        perm[a] = j + 1
        perm[b] = j
        pinv[j] = b
        pinv[j + 1] = a
    return perm


def _left_weight_pair(x, y):
    """Make the factor pair (x, y) left-weighted in place.

    Repeatedly moves a transposition s_i with i in S(y) - F(x) from the head
    of y to the tail of x; each move lengthens x and shortens y, so the loop
    terminates.  Returns True when anything moved.
    """
    n = len(x)
    xinv = sorted(range(n), key=x.__getitem__)
    changed = False
    moved = True
    while moved:
        moved = False
        for i in range(n - 1):
            if y[i] > y[i + 1] and xinv[i] < xinv[i + 1]:
                pi = xinv[i]
                pj = xinv[i + 1]
                x[pi] = i + 1
                x[pj] = i
                xinv[i] = pj
                xinv[i + 1] = pi
                y[i], y[i + 1] = y[i + 1], y[i]
                moved = True
                changed = True
    return changed


def word_to_nf(letters, n):
    """Left-greedy Garside normal form of a braid word in B_n.

    Returns ``(inf, factors)`` where ``factors`` is a list of permutation-braid
    factors, none the identity or the half twist, adjacent pairs
    left-weighted.  The represented braid is Delta^inf f_1 ... f_l.
    """
    letters = free_reduce(letters)
    m = len(letters)
    if m == 0 or n < 2:
        return 0, []

    identity = list(range(n))
    w0 = identity[::-1]
    facs = []
    for e in letters:
        if e > 0:
            j = e - 1
            f = identity.copy()
            f[j] = j + 1
            f[j + 1] = j
        else:
            # sigma_j^-1 = Delta^-1 * lift(w0 . s_j): start from w0 and swap
            # the entries holding values j and j+1.
            j = -e - 1
            f = w0.copy()
            f[n - 1 - j] = j + 1
            f[n - 2 - j] = j
        facs.append(f)

    # Push all Delta powers to the front: f . Delta^k = Delta^k . tau^k(f)
    # with tau(f) = w0 f w0, which has order 2 on permutations.  Each
    # inverse letter contributes one Delta^-1.
    delta = 0
    for idx in range(m - 1, -1, -1):
        if delta % 2 != 0:
            facs[idx] = [n - 1 - v for v in reversed(facs[idx])]
        if letters[idx] < 0:
            delta -= 1

    # Left-weight adjacent pairs to a fixed point.  Fixing pair (i, i+1)
    # grows f_i and shrinks f_{i+1}, which can only disturb the neighbours
    # (i-1, i) and (i+1, i+2); a single-step backtrack therefore suffices and
    # the total work is bounded by letters-times-factors.  At the fixed point
    # identities have bubbled to the tail and half twists to the head.
    i = 0
    while i < m - 1:
        if _left_weight_pair(facs[i], facs[i + 1]):
            i = i - 1 if i > 0 else 0
        else:
            i += 1

    lead = 0
    while lead < m and facs[lead] == w0:
        lead += 1
    tail = m
    while tail > lead and facs[tail - 1] == identity:
        tail -= 1

    return delta + lead, facs[lead:tail]


def nf_factor_word(perm):
    """Shortlex letter word of a permutation-braid factor (1-based letters)."""
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

    Tracks strand positions through the word; crossings involving a strand
    whose initial position exceeds n - d are dropped, kept crossings are
    re-indexed by the number of removed strands currently to their left.
    Returns a word in B_{n-d}.
    """
    keep = n - d
    cur = list(range(n))  # cur[pos] = strand (by start position)
    out = []
    for e in letters:
        j = abs(e) - 1  # 0-based crossing position
        u = cur[j]
        v = cur[j + 1]
        if u < keep and v < keep:
            removed_left = sum(1 for k in range(j) if cur[k] >= keep)
            newj = j - removed_left + 1
            out.append(newj if e > 0 else -newj)
        cur[j] = v
        cur[j + 1] = u
    return free_reduce(out)

"""Measure what the normal-form cache and the B_3 .. B_7 factor tables hold.

Fills ``nakex.braid.normal_form``'s cache from a fixed seeded stream of
random braid words on B_3 .. B_8, then prints, from tracemalloc:

- the bytes the full cache holds, that is, what clearing it frees;
- the bytes of the shared simple braids of B_3 .. B_7 (``braid._SIMPLE``,
  one Permutation and one shortlex word each), which outlive the cache;
- the number of Permutation objects alive with the cache full;
- for each factor table of B_3 .. B_7, which is complete when made, the
  best of three build times (untraced) and its bytes;
- the bytes and filled slots of the B_7 table's memo of left-weighted pairs
  once every slot is filled (four bytes a slot, 5040 x 75 slots), and the
  bytes of the shared objects and words of its 5040 simple braids.

While it fills the memo it checks every slot against the list kernel's
move loop, and exits 1 if any slot differs.

Run from the repository root:

    python3 tools/nf_memory.py
"""

from __future__ import annotations

import gc
import random
import sys
import timeit
import tracemalloc
from functools import partial
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from nakex import _kernels, braid  # noqa: E402

SEED = 1
STRANDS = (3, 4, 5, 6, 7, 8)  # the stream cycles through these strand counts
TABLE_STRANDS = range(3, _kernels.TABLE_MAX_STRANDS + 1)
LENGTHS = (4, 60)  # letters drawn per word: rng.randrange(*LENGTHS)


def _traced() -> int:
    gc.collect()
    return tracemalloc.get_traced_memory()[0]


def fill_cache(seed: int) -> int:
    """Normalize seeded random words until the cache is full; returns the word count."""
    rng = random.Random(seed)
    size = braid.normal_form.cache_info().maxsize
    words = 0
    while braid.normal_form.cache_info().currsize < size:
        n = STRANDS[words % len(STRANDS)]
        braid.normal_form(braid.random_braid(n, rng.randrange(*LENGTHS), rng))
        words += 1
    return words


def permutation_count() -> int:
    gc.collect()
    return sum(type(obj) is braid.Permutation for obj in gc.get_objects())


def fill_memo(table: _kernels._FactorTable) -> tuple[int, int]:
    """Left-weight every pair (x, y) whose y has a memo column once, filling
    its slot, and check the slot against :func:`_kernels._left_weight_pair`
    on lists; returns (slots filled, slots wrong).  A pair that is
    left-weighted already moves nothing, and its slot stays -1."""
    images = table.images
    wrong = 0
    for c, y in enumerate(table.columns):
        for x in range(len(images)):
            xs = [v - 1 for v in images[x]]
            ys = [v - 1 for v in images[y]]
            moved = _kernels._left_weight_pair(xs, ys)
            facs = [x, y]
            _kernels._left_weight_ids(table, facs, 1)
            expected = (tuple([v + 1 for v in xs]), tuple([v + 1 for v in ys]))
            packed = facs[0] << _kernels._ID_BITS | facs[1] if moved else -1
            wrong += (images[facs[0]], images[facs[1]]) != expected or (
                table.memo[x * table.cols + c] != packed)
    return sum(pair != -1 for pair in table.memo), wrong


def main() -> int:
    build_s = {
        n: min(timeit.repeat(partial(_kernels._FactorTable, n), number=1, repeat=3))
        for n in TABLE_STRANDS
    }
    braid.normal_form.cache_clear()
    braid._SIMPLE.clear()
    tracemalloc.start()

    words = fill_cache(SEED)
    full = _traced()
    alive = permutation_count()
    braid.normal_form.cache_clear()
    cleared = _traced()
    entries = len(braid._SIMPLE)
    braid._SIMPLE.clear()
    print(f"normal_form cache: {words} words, seed {SEED}, strands {STRANDS[0]}..{STRANDS[-1]}")
    print(f"  full cache          {full - cleared:10,d} bytes")
    print(f"  shared simple braids {cleared - _traced():9,d} bytes ({entries} entries)")
    print(f"  Permutation objects {alive:10,d}")

    print("factor tables, complete when made: build time, bytes")
    tables = {}
    for n in TABLE_STRANDS:
        before = _traced()
        tables[n] = _kernels._FactorTable(n)
        print(f"  B_{n}  {build_s[n] * 1e3:6.1f} ms  {_traced() - before:10,d} bytes")
    table = tables[7]
    made = _traced()
    for images in table.images:
        braid._simple(images)
    shared = _traced() - made
    tracemalloc.stop()  # filling slots allocates nothing that stays, and tracing slows it 8x
    slots, wrong = fill_memo(table)
    memo = len(table.memo) * table.memo.itemsize
    print(f"B_7 factor table: {len(table.images)} entries, every memo slot filled")
    print(f"  memo pairs          {memo:10,d} bytes ({slots:,d} of {len(table.memo):,d} slots filled)")
    print(f"  shared objects      {shared:10,d} bytes")
    if wrong:
        print(f"  {wrong} memo slots differ from the list kernel's move loop")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Tree words over declared generators, with per-node operation labels.

A tree word is a planar rooted binary tree whose leaves carry generator
indices and whose internal nodes carry labels into a family of binary
operations.  The same tree evaluates both against the generators themselves
and against their images under a magma homomorphism; that push-through
identity is the step-3 computation of the key-establishment engine.

Secret-key generation cares about tree shape: under operations whose word
length satisfies |x*y| <= 2|x| + |y|, left combs r1*(r2*(...)) grow linearly
while right combs ((r1*r2)*r3)*... grow exponentially, so the random generator
is biased toward left combs.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence, Union

__all__ = [
    "Leaf",
    "Node",
    "TreeWord",
    "BudgetExceeded",
    "eval_tree",
    "push_through",
    "left_comb",
    "right_comb",
    "comb_distance",
    "leaf_count",
    "enumerate_trees",
    "count_trees",
    "random_tree",
    "encode_tree",
    "decode_tree",
]


class BudgetExceeded(RuntimeError):
    """An enumeration or search exceeded its configured budget."""


@dataclass(frozen=True)
class Leaf:
    index: int

    def __post_init__(self):
        if self.index < 0:
            raise ValueError("leaf index must be nonnegative")


@dataclass(frozen=True)
class Node:
    op: int
    left: "TreeWord"
    right: "TreeWord"

    def __post_init__(self):
        if self.op < 0:
            raise ValueError("op label must be nonnegative")


TreeWord = Union[Leaf, Node]

BinOp = Callable[[object, object], object]


def eval_tree(t: TreeWord, gens: Sequence, ops: Sequence[BinOp]):
    """Evaluate: Leaf i -> gens[i]; Node(op, l, r) -> ops[op](eval l, eval r)."""
    if isinstance(t, Leaf):
        if t.index >= len(gens):
            raise IndexError(f"leaf index {t.index} out of range ({len(gens)} generators)")
        return gens[t.index]
    if t.op >= len(ops):
        raise IndexError(f"op label {t.op} out of range ({len(ops)} operations)")
    return ops[t.op](eval_tree(t.left, gens, ops), eval_tree(t.right, gens, ops))


def push_through(t: TreeWord, images: Sequence, ops: Sequence[BinOp]):
    """Evaluate the tree over homomorphic images of the generators.

    For any magma homomorphism beta the result equals beta applied to the
    plain evaluation; a party that knows the tree but not the peer's secret
    uses this to reconstruct beta(own secret) from published images.
    """
    return eval_tree(t, images, ops)


def left_comb(k: int) -> TreeWord:
    """r_0 * (r_1 * (r_2 * ...)) under operation 0: the linear-growth comb."""
    if k < 1:
        raise ValueError("need at least one leaf")
    tree: TreeWord = Leaf(k - 1)
    for i in range(k - 2, -1, -1):
        tree = Node(0, Leaf(i), tree)
    return tree


def right_comb(k: int) -> TreeWord:
    """((r_0 * r_1) * r_2) * ... under operation 0: the exponential-growth comb."""
    if k < 1:
        raise ValueError("need at least one leaf")
    tree: TreeWord = Leaf(0)
    for i in range(1, k):
        tree = Node(0, tree, Leaf(i))
    return tree


def comb_distance(t: TreeWord) -> int:
    """How far the shape is from a left comb.

    Counts internal nodes whose left child is itself internal: 0 exactly on
    left combs and single leaves, k-2 on a right comb with k >= 2 leaves.
    """
    if isinstance(t, Leaf):
        return 0
    here = 1 if isinstance(t.left, Node) else 0
    return here + comb_distance(t.left) + comb_distance(t.right)


def leaf_count(t: TreeWord) -> int:
    if isinstance(t, Leaf):
        return 1
    return leaf_count(t.left) + leaf_count(t.right)


def _catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def count_trees(k: int, m: int, q: int) -> int:
    """Catalan(k-1) * m^k * q^(k-1) labeled trees on k leaves."""
    if k < 1 or m < 1 or q < 1:
        raise ValueError("k, m, q must all be >= 1")
    return _catalan(k - 1) * m**k * q ** (k - 1)


def enumerate_trees(
    k: int, m: int, q: int, max_count: int = 2_000_000
) -> Iterator[TreeWord]:
    """All labeled trees with k leaves, m generator labels, q op labels.

    Deterministic order; refuses up front when the total would exceed
    ``max_count``.
    """
    total = count_trees(k, m, q)
    if total > max_count:
        raise BudgetExceeded(f"{total} trees exceeds the budget of {max_count}")

    def gen(leaves: int) -> Iterator[TreeWord]:
        if leaves == 1:
            for i in range(m):
                yield Leaf(i)
            return
        for split in range(1, leaves):
            for left in gen(split):
                for right in gen(leaves - split):
                    for op in range(q):
                        yield Node(op, left, right)

    return gen(k)


def random_tree(k: int, m: int, q: int, comb_bias: float, rng) -> TreeWord:
    """Random labeled tree; comb_bias 1 forces a left comb, 0 is shape-uniform.

    With probability comb_bias a node splits off a single left leaf (the left
    comb step); otherwise the split is Catalan-weighted so that bias 0 yields
    the uniform distribution on shapes.  Leaf and node labels are uniform.
    """
    if k < 1 or m < 1 or q < 1:
        raise ValueError("k, m, q must all be >= 1")
    if not 0.0 <= comb_bias <= 1.0:
        raise ValueError("comb_bias must lie in [0, 1]")

    def shape(leaves: int) -> TreeWord:
        if leaves == 1:
            return Leaf(rng.randrange(m))
        if comb_bias > 0 and rng.random() < comb_bias:
            split = 1
        else:
            total = _catalan(leaves - 1)
            pick = rng.randrange(total)
            acc = 0
            split = leaves - 1
            for s in range(1, leaves):
                acc += _catalan(s - 1) * _catalan(leaves - s - 1)
                if pick < acc:
                    split = s
                    break
        return Node(rng.randrange(q), shape(split), shape(leaves - split))

    return shape(k)


# -- serialization -----------------------------------------------------------
#
# Pre-order: 0x00 + u16 leaf index, or 0x01 + u8 op label then left, right.


def encode_tree(t: TreeWord) -> bytes:
    """The tree's bytes; ValueError for a leaf index or an op label that its
    field cannot hold."""
    if isinstance(t, Leaf):
        if t.index > 0xFFFF:
            raise ValueError(f"leaf index {t.index} does not fit in a u16")
        return b"\x00" + struct.pack(">H", t.index)
    if t.op > 0xFF:
        raise ValueError(f"op label {t.op} does not fit in a u8")
    return b"\x01" + struct.pack(">B", t.op) + encode_tree(t.left) + encode_tree(t.right)


def decode_tree(data: bytes, offset: int = 0) -> tuple[TreeWord, int]:
    """Decode one preorder-encoded tree; returns (tree, next offset).

    Iterative, so any depth decodes.  Raises ValueError on a truncated buffer
    or an unknown node tag.
    """
    pending: list[list] = []  # open nodes on the current path: [op, left or None]
    try:
        while True:
            kind = data[offset]
            if kind == 0x01:
                pending.append([data[offset + 1], None])
                offset += 2
                continue
            if kind != 0x00:
                raise ValueError(f"bad tree node tag {kind:#x}")
            (index,) = struct.unpack_from(">H", data, offset + 1)
            offset += 3
            tree: TreeWord = Leaf(index)
            # A finished subtree is the left child of the innermost open node,
            # or completes it as the right child.
            while pending:
                if pending[-1][1] is None:
                    pending[-1][1] = tree
                    break
                op, left = pending.pop()
                tree = Node(op, left, tree)
            else:
                return tree, offset
    except (IndexError, struct.error):
        raise ValueError(f"truncated tree encoding at offset {offset}") from None

import hashlib
import math
import random

import pytest

from nakex import braid as B
from nakex import ldops as L
from nakex import magma as M
from nakex.braid import BraidWord
from nakex.magma import BudgetExceeded, Leaf, Node
from nakex.platforms import SymmetricPlatform


def bullet_word(x: BraidWord, y: BraidWord) -> BraidWord:
    """x y^-1 x on words; free reduction only, no braid relations used."""
    return B.concat_all(x, B.invert(y), x)


def test_eval_symmetric_word_expansion():
    # (r1 . r2) . (r3 . (r4 . r5)) with x.y = x y^-1 x expands, as a freely
    # reduced word in distinct generators, to
    # r1 r2^-1 r1 r3^-1 r4 r5^-1 r4 r3^-1 r1 r2^-1 r1.
    gens = [BraidWord(6, (i,)) for i in range(1, 6)]
    tree = Node(0, Node(0, Leaf(0), Leaf(1)), Node(0, Leaf(2), Node(0, Leaf(3), Leaf(4))))
    value = M.eval_tree(tree, gens, [bullet_word])
    assert value.letters == (1, -2, 1, -3, 4, -5, 4, -3, 1, -2, 1)


def test_eval_leaf_and_errors():
    gens = ["a", "b"]
    assert M.eval_tree(Leaf(0), gens, []) == "a"
    with pytest.raises(IndexError):
        M.eval_tree(Leaf(5), gens, [])
    with pytest.raises(IndexError):
        M.eval_tree(Node(1, Leaf(0), Leaf(1)), gens, [lambda x, y: x])


def test_eval_over_laver_table():
    op = L.laver_op(1)
    tree = Node(0, Leaf(0), Leaf(0))
    assert M.eval_tree(tree, [1], [lambda x, y: L.apply_op(op, x, y)]) == 2


# -- push-through ---------------------------------------------------------------


def test_push_through_leaf():
    assert M.push_through(Leaf(0), ["image"], []) == "image"


def test_push_through_conjugacy_on_s3():
    platform = SymmetricPlatform(3)
    rng = random.Random(21)
    op = L.conj_op(platform)
    ops = [lambda x, y: L.apply_op(op, x, y)]
    for _ in range(200):
        gens = [platform.random_element(rng) for _ in range(3)]
        tree = M.random_tree(4, 3, 1, 0.3, rng)
        b = platform.random_element(rng)

        def beta(y):
            return platform.mul(platform.mul(platform.inv(b), y), b)

        lhs = M.push_through(tree, [beta(g) for g in gens], ops)
        rhs = beta(M.eval_tree(tree, gens, ops))
        assert platform.eq(lhs, rhs)


def test_push_through_shifted_conjugacy():
    rng = random.Random(22)
    op = L.shifted_op(1, BraidWord(2, (1,)))
    ops = [lambda x, y: L.apply_op(op, x, y)]
    for _ in range(200):
        gens = [B.random_braid(4, 5, rng) for _ in range(2)]
        tree = M.random_tree(3, 2, 1, 0.5, rng)
        b = B.random_braid(4, 5, rng)

        def beta(y):
            return L.apply_op(op, b, y)

        lhs = M.push_through(tree, [beta(g) for g in gens], ops)
        rhs = beta(M.eval_tree(tree, gens, ops))
        assert B.braids_equal(lhs, rhs)


# -- combs ------------------------------------------------------------------------


def test_comb_shapes():
    assert M.left_comb(1) == Leaf(0)
    assert M.right_comb(1) == Leaf(0)
    assert M.left_comb(3) == Node(0, Leaf(0), Node(0, Leaf(1), Leaf(2)))
    assert M.right_comb(3) == Node(0, Node(0, Leaf(0), Leaf(1)), Leaf(2))
    with pytest.raises(ValueError):
        M.left_comb(0)


def test_comb_distance():
    assert M.comb_distance(M.left_comb(8)) == 0
    assert M.comb_distance(M.right_comb(8)) == 6
    assert M.comb_distance(Leaf(0)) == 0
    for k in range(2, 9):
        assert M.comb_distance(M.left_comb(k)) == 0
        assert M.comb_distance(M.right_comb(k)) == k - 2


def test_comb_length_bounds():
    # |x*y| <= 2|x| + |y| ops: left combs grow linearly, right combs
    # exponentially, in the number of leaves.
    rng = random.Random(23)
    l0 = 6
    conj = lambda x, y: B.concat_all(B.invert(x), y, x)
    for k in range(1, 11):
        for _ in range(5):
            gens = [B.random_braid(6, l0, rng) for _ in range(k)]
            lc = M.eval_tree(M.left_comb(k), gens, [conj])
            rc = M.eval_tree(M.right_comb(k), gens, [conj])
            assert len(lc.letters) <= (2 * k - 1) * l0
            assert len(rc.letters) <= (2**k - 1) * l0


# -- enumeration -------------------------------------------------------------------


def catalan(n):
    return math.comb(2 * n, n) // (n + 1)


def test_enumerate_counts():
    assert len(list(M.enumerate_trees(1, 2, 1))) == 2
    assert len(list(M.enumerate_trees(2, 1, 1))) == 1
    assert len(list(M.enumerate_trees(3, 1, 1))) == 2
    for k in range(1, 7):
        for m, q in [(1, 1), (2, 1), (1, 2), (2, 2)]:
            expected = catalan(k - 1) * m**k * q ** (k - 1)
            trees = list(M.enumerate_trees(k, m, q))
            assert len(trees) == expected
            assert len(set(map(M.encode_tree, trees))) == expected  # no duplicates


def test_enumerate_budget_guard():
    with pytest.raises(BudgetExceeded):
        list(M.enumerate_trees(8, 4, 4, max_count=1000))


# -- random generation ---------------------------------------------------------------


def test_random_tree_contract():
    rng = random.Random(24)
    for _ in range(20):
        tree = M.random_tree(5, 3, 2, 1.0, rng)
        assert M.comb_distance(tree) == 0
        assert M.leaf_count(tree) == 5
    assert isinstance(M.random_tree(1, 3, 1, 0.0, random.Random(1)), Leaf)
    assert M.random_tree(1, 1, 1, 0.7, rng) == Leaf(0)
    t1 = M.random_tree(6, 3, 2, 0.4, random.Random(99))
    t2 = M.random_tree(6, 3, 2, 0.4, random.Random(99))
    assert t1 == t2


def test_random_tree_uniform_at_zero_bias():
    rng = random.Random(25)
    counts = {}
    for _ in range(3000):
        tree = M.random_tree(4, 1, 1, 0.0, rng)
        counts[M.encode_tree(tree)] = counts.get(M.encode_tree(tree), 0) + 1
    assert len(counts) == catalan(3)  # all 5 shapes appear
    assert min(counts.values()) > 3000 / 5 * 0.7


# -- serialization --------------------------------------------------------------------


def test_tree_codec_roundtrip():
    rng = random.Random(26)
    for _ in range(50):
        tree = M.random_tree(rng.randint(1, 8), 5, 3, 0.3, rng)
        data = M.encode_tree(tree)
        decoded, offset = M.decode_tree(data)
        assert decoded == tree and offset == len(data)


def test_tree_codec_layout():
    tree = Node(2, Leaf(1), Leaf(259))
    assert M.encode_tree(tree) == b"\x01\x02" + b"\x00\x00\x01" + b"\x00\x01\x03"
    deep = b"\x01\x00" * 5000 + b"\x00\x00\x00"
    for blob in (b"\x07", b"\x01", M.encode_tree(tree)[:-1], deep):
        with pytest.raises(ValueError):
            M.decode_tree(blob)
    # the same left comb, completed with its right leaves, decodes in full
    comb, offset = M.decode_tree(deep + b"\x00\x00\x00" * 5000)
    assert offset == len(deep) + 3 * 5000
    depth = 0
    while isinstance(comb, Node):
        comb, depth = comb.left, depth + 1
    assert depth == 5000


# sha256 over the encodings of enumerate_trees(3, 2, 2), in order; recorded
# before encode_tree refused values its fields cannot hold.
GOLDEN_TREE_CODEC_DIGEST = "3df0d2aaa9ffc8cb7f5993cf2eaddeaac835330ded7c89923c3aaeeb22a4e318"


def test_tree_codec_keeps_its_bytes_up_to_its_field_limits():
    trees = list(M.enumerate_trees(3, 2, 2))
    assert len(trees) == 64
    digest = hashlib.sha256(b"".join(map(M.encode_tree, trees))).hexdigest()
    assert digest == GOLDEN_TREE_CODEC_DIGEST
    # the largest op label and leaf index the u8 and u16 fields hold
    assert M.encode_tree(Node(0xFF, Leaf(0), Leaf(0xFFFF))) == b"\x01\xff\x00\x00\x00\x00\xff\xff"


# refusal case -> (call, exception class, message)
MAGMA_REFUSALS = {
    "leaf_negative": (lambda: Leaf(-1), ValueError, "leaf index must be nonnegative"),
    "node_label_negative": (
        lambda: Node(-1, Leaf(0), Leaf(1)), ValueError, "op label must be nonnegative",
    ),
    "right_comb_0": (lambda: M.right_comb(0), ValueError, "need at least one leaf"),
    "count_trees_k_0": (lambda: M.count_trees(0, 1, 1), ValueError, "k, m, q must all be >= 1"),
    "random_tree_k_0": (
        lambda: M.random_tree(0, 1, 1, 0.5, random.Random(0)),
        ValueError, "k, m, q must all be >= 1",
    ),
    "random_tree_comb_bias_1_5": (
        lambda: M.random_tree(3, 1, 1, 1.5, random.Random(0)),
        ValueError, "comb_bias must lie in [0, 1]",
    ),
    "encode_leaf_over_u16": (
        lambda: M.encode_tree(Leaf(70000)), ValueError, "leaf index 70000 does not fit in a u16",
    ),
    "encode_op_over_u8": (
        lambda: M.encode_tree(Node(300, Leaf(0), Leaf(1))),
        ValueError, "op label 300 does not fit in a u8",
    ),
    "encode_inner_leaf_over_u16": (
        lambda: M.encode_tree(Node(0, Leaf(0), Leaf(0x10000))),
        ValueError, "leaf index 65536 does not fit in a u16",
    ),
}


@pytest.mark.parametrize("case", list(MAGMA_REFUSALS))
def test_typed_refusals(case):
    call, cls, message = MAGMA_REFUSALS[case]
    with pytest.raises(cls) as exc:
        call()
    assert type(exc.value) is cls and str(exc.value) == message

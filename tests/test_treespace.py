import hashlib
import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierclass.errors import TreeParseError
from hierclass.treespace import (
    Catalog,
    Tree,
    count_hierarchies,
    enumerate_hierarchies,
    internal,
    leaf,
    parse_tree,
    sample_hierarchy,
    tree_from_json,
    tree_to_json,
    tree_to_text,
    validate_tree,
)

PAPER_SEQUENCE = [1, 1, 4, 26, 236, 2752, 39208, 660032, 12818912, 282137824]


def test_count_matches_published_sequence():
    assert [count_hierarchies(k) for k in range(1, 11)] == PAPER_SEQUENCE


@lru_cache(maxsize=None)
def _recursive_count(k: int) -> int:
    """The recurrence of :func:`count_hierarchies`, written top-down."""
    if k <= 2:
        return 1
    big = k - 1
    total = math.comb(big, big - 1) * _recursive_count(big) * _recursive_count(1)
    return total + 2 * sum(
        math.comb(big, i) * _recursive_count(i + 1) * _recursive_count(big - i) for i in range(big - 1)
    )


def test_count_matches_the_recursive_recurrence():
    expected = [_recursive_count(k) for k in range(1, 401)]  # ascending: each call recurses one level
    assert [count_hierarchies(k) for k in range(1, 401)] == expected


def test_count_rejects_zero():
    with pytest.raises(ValueError):
        count_hierarchies(0)


def test_three_concepts_give_exactly_the_four_trees():
    cat = Catalog(("c1", "c2", "c3"))
    texts = {tree_to_text(t, cat) for t in enumerate_hierarchies(range(3))}
    assert texts == {"(c1,c2,c3)", "((c1,c2),c3)", "((c1,c3),c2)", "(c1,(c2,c3))"}


def test_two_concepts_have_a_single_tree():
    assert len(enumerate_hierarchies(range(2))) == 1


def test_enumeration_count_matches_recurrence():
    for k in range(1, 6):
        trees = enumerate_hierarchies(range(k))
        assert len(trees) == len(set(trees)) == count_hierarchies(k)


# sha256 of the newline-joined Newick texts of enumerate_hierarchies(range(k)),
# concepts named c0, c1, ...: pins the enumeration order
ENUMERATION_DIGESTS = {
    1: "122c597083bd438b7f6d72af75d025948899647711b806bdd2cd82fa69713db3",
    2: "5eccfe528bc46fb52b5ca975845eec8bdbcbf74fd2fabad41d5e0312431d867a",
    3: "95ae2b61c4df22545b9dad0821702036ca4c8265bd53ded7dc0d623ed24ee83a",
    4: "0ed277f52a1b1393bafebe7dfadc84ab7f3256e5528a7dd57faf515d83468076",
    5: "d8253ae5792e14a5159883f38e6b24bcbd0d9a9dfa4b8f4fe29a97ef857674eb",
    6: "7a9e2ccb066ef7cb1ae0de8336135ebd69a78276950ad6ddce0d911da248c7e4",
    7: "b5fdaa59257b89a1c3aa52fb6ac5ec6e0569f3f5bfb531e8ed06f06724e3c793",
}


@pytest.mark.parametrize("k", sorted(ENUMERATION_DIGESTS))
def test_enumeration_is_distinct_and_keeps_its_order(k):
    trees = enumerate_hierarchies(range(k), cap=7)
    assert len(trees) == len(set(trees)) == count_hierarchies(k)
    cat = Catalog(tuple(f"c{i}" for i in range(k)))
    text = "\n".join(tree_to_text(t, cat) for t in trees)
    assert hashlib.sha256(text.encode()).hexdigest() == ENUMERATION_DIGESTS[k]


def test_enumerated_trees_satisfy_invariants():
    for tree in enumerate_hierarchies(range(4)):
        validate_tree(tree, 4)
        for node in tree.internal_nodes():
            assert len(node.children) >= 2


def test_enumeration_cap_refusal():
    with pytest.raises(ValueError, match="cap"):
        enumerate_hierarchies(range(8))
    # raising the cap explicitly is allowed
    assert len(enumerate_hierarchies(range(4), cap=10)) == 26


def _shuffled(tree: Tree, rng) -> Tree:
    if tree.is_leaf:
        return tree
    kids = [_shuffled(c, rng) for c in tree.children]
    rng.shuffle(kids)
    return Tree(children=tuple(kids))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 25), st.integers(0, 10**6))
def test_construction_is_invariant_under_child_permutation(idx, shuffle_seed):
    tree = enumerate_hierarchies(range(4))[idx]
    shuffled = _shuffled(tree, np.random.default_rng(shuffle_seed))
    assert shuffled == tree
    assert shuffled.children == tree.children


def test_construction_orders_children_by_min_leaf():
    tree = internal([internal([leaf(2), leaf(1)]), leaf(0)])
    assert tree.children == (leaf(0), internal([leaf(1), leaf(2)]))
    assert tree.children[1].children == (leaf(1), leaf(2))
    assert tree.leaf_ids() == (0, 1, 2)
    assert Tree(children=tree.children) == tree  # rebuilding a built tree changes nothing


def _oracle_min(tree: Tree) -> int:
    """Smallest leaf id, by recursion over the children as stored."""
    return tree.concept if tree.is_leaf else min(_oracle_min(c) for c in tree.children)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 7), st.integers(0, 10**6), st.integers(0, 10**6))
def test_built_trees_are_canonical_at_every_level(k, tree_seed, shuffle_seed):
    cat = Catalog(tuple(f"c{i}" for i in range(k)))
    tree = sample_hierarchy(range(k), np.random.default_rng(tree_seed))
    shuffled = _shuffled(tree, np.random.default_rng(shuffle_seed))
    assert shuffled == tree
    assert hash(shuffled) == hash(tree)
    assert tree_to_text(shuffled, cat) == tree_to_text(tree, cat)
    for node in shuffled.subtrees():
        assert node.min_leaf() == min(node.leaf_ids()) == _oracle_min(node)
        mins = [_oracle_min(c) for c in node.children]
        assert mins == sorted(mins)


def test_tree_construction_invariants():
    with pytest.raises(ValueError):
        Tree(children=(leaf(0),))  # arity 1
    with pytest.raises(ValueError):
        Tree(concept=0, children=(leaf(1), leaf(2)))
    with pytest.raises(ValueError):
        validate_tree(internal([leaf(0), leaf(0)]), 2)  # duplicate leaf
    with pytest.raises(ValueError):
        validate_tree(internal([leaf(0), leaf(2)]), 3)  # missing concept


def _rebuilt(tree):
    """An equal tree made of new nodes."""
    return leaf(tree.concept) if tree.is_leaf else internal([_rebuilt(c) for c in tree.children])


def test_equal_trees_still_compare_and_hash_equal_after_leaf_ids_is_read():
    for tree in enumerate_hierarchies(range(4)):
        twin = _rebuilt(tree)
        for node in tree.subtrees():
            node.leaf_ids()
        assert tree == twin and twin == tree
        assert hash(tree) == hash(twin)
        assert len({tree, twin}) == 1
        assert tree.leaf_ids() == twin.leaf_ids()
        assert Tree(children=tree.children) == tree  # built again from its fields


# --- serialization ---------------------------------------------------------


def test_text_examples():
    cat = Catalog(("walk", "run", "still"))
    assert tree_to_text(leaf(2), cat) == "still"
    assert tree_to_text(internal([leaf(0), leaf(1)]), cat) == "(walk,run)"
    full = internal([internal([leaf(0), leaf(1)]), leaf(2)])
    assert tree_to_text(full, cat) == "((walk,run),still)"


def test_text_roundtrip_over_all_k4_trees():
    cat = Catalog(("a", "b", "c", "d"))
    for tree in enumerate_hierarchies(range(4)):
        assert parse_tree(tree_to_text(tree, cat), cat) == tree


def test_json_roundtrip_over_all_k4_trees():
    cat = Catalog(("a", "b", "c", "d"))
    for tree in enumerate_hierarchies(range(4)):
        assert tree_from_json(tree_to_json(tree, cat), cat) == tree


@pytest.mark.parametrize(
    "text",
    [
        "((a,b),c",  # unbalanced
        "(a)",  # arity 1
        "(a,b),c)",  # trailing garbage
        "(a,x)",  # unknown name
        "(a,b)",  # does not cover catalog
        "(a,a,b)",  # duplicate
        "(,a)",  # empty name
        "",
    ],
)
def test_parse_errors(text):
    cat = Catalog(("a", "b", "c"))
    with pytest.raises(TreeParseError):
        parse_tree(text, cat)


def test_json_parse_errors():
    cat = Catalog(("a", "b"))
    with pytest.raises(TreeParseError):
        tree_from_json(["a"], cat)
    with pytest.raises(TreeParseError):
        tree_from_json({"a": 1}, cat)


def test_catalog_validation():
    with pytest.raises(ValueError):
        Catalog(())
    with pytest.raises(ValueError):
        Catalog(("a", "a"))
    with pytest.raises(ValueError):
        Catalog(("a,b",))
    with pytest.raises(ValueError):
        Catalog((" padded ",))
    with pytest.raises(ValueError, match="^bad concept name 5$"):
        Catalog(("a", 5))


@pytest.mark.parametrize("name", ["a\nb", "a\rb", "a\r\nb"])
def test_catalog_rejects_a_line_break_inside_a_name(name):
    # every line-based output (predictions, confusion CSV) holds one name per line
    with pytest.raises(ValueError, match="^bad concept name "):
        Catalog(("c0", name))
    assert Catalog(("a\tb", "a;b", "sit down", "caf\u00e9")).names[0] == "a\tb"


# --- uniform sampling ------------------------------------------------------


def test_sampled_trees_are_valid_and_enumerable():
    rng = np.random.default_rng(0)
    enumerated = set(enumerate_hierarchies(range(4)))
    for _ in range(50):
        tree = sample_hierarchy(range(4), rng)
        validate_tree(tree, 4)
        assert tree in enumerated


def test_sampling_is_roughly_uniform_at_k3():
    rng = np.random.default_rng(1)
    counts = {}
    for _ in range(2000):
        tree = sample_hierarchy(range(3), rng)
        counts[tree] = counts.get(tree, 0) + 1
    assert len(counts) == 4
    assert all(380 <= n <= 620 for n in counts.values()), counts


def test_sampling_works_beyond_enumeration_cap():
    rng = np.random.default_rng(2)
    tree = sample_hierarchy(range(9), rng)
    validate_tree(tree, 9)


@pytest.mark.parametrize("concepts, message", [
    ([], "need at least one concept"), ([0, 0], "duplicate concept ids"), ([2, 2, 1], "duplicate concept ids"),
])
def test_enumeration_and_sampling_reject_the_same_concept_lists(concepts, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        enumerate_hierarchies(concepts)
    with pytest.raises(ValueError, match=f"^{message}$"):
        sample_hierarchy(concepts, np.random.default_rng(0))

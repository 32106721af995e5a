import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_force_agglomerate, tied_affinity_json
from hierclass.affinity import AffinityConfig, DistanceMatrix, affinity_from_json, build_affinity_artifacts
from hierclass.derive import (
    Dendrogram,
    LinkageParams,
    MergeStep,
    agglomerate,
    collapse_threshold,
    dendrogram_to_dot,
    dendrogram_to_json,
    derive_hierarchy,
)
from hierclass.treespace import Catalog, internal, leaf, tree_to_text


def _dm(values, names=None):
    values = np.asarray(values, dtype=float)
    names = names or tuple(f"c{i}" for i in range(len(values)))
    return DistanceMatrix(Catalog(tuple(names)), values)


# --- linkage presets ---------------------------------------------------------


def test_unknown_linkage_preset_is_rejected():
    with pytest.raises(ValueError):
        LinkageParams(preset="ward")


# --- agglomeration -----------------------------------------------------------


def test_agglomerate_hand_trace_k3():
    dm = _dm([[0.0, 0.1, 0.9], [0.1, 0.0, 0.9], [0.9, 0.9, 0.0]])
    dgm = agglomerate(dm, LinkageParams(preset="single"))
    assert len(dgm.steps) == 2
    first, second = dgm.steps
    assert (first.left, first.right, first.distance) == (0, 1, 0.1)
    assert first.members == (0, 1)
    assert second.distance == pytest.approx(0.9)
    assert second.members == (0, 1, 2)


def test_agglomerate_single_concept():
    with pytest.raises(ValueError, match="a dendrogram joins at least 2 concepts, got 1"):
        agglomerate(_dm([[0.0]]), LinkageParams(preset="average"))


@pytest.mark.parametrize("method", ["single", "complete", "average"])
def test_agglomerate_matches_from_scratch_oracle(method):
    rng = np.random.default_rng(42)
    for trial in range(20):
        k = int(rng.integers(3, 9))
        raw = rng.uniform(0.05, 1.0, size=(k, k))
        values = (raw + raw.T) / 2
        np.fill_diagonal(values, 0.0)
        dgm = agglomerate(_dm(values), LinkageParams(preset=method))
        expected = brute_force_agglomerate(values, method)
        for step, (i, j, d, new_id, members) in zip(dgm.steps, expected):
            assert {step.left, step.right} == {i, j}
            assert step.new_id == new_id
            assert step.members == members
            assert step.distance == d  # every preset is exact, then rounded once


_TIED_GRID = (0.1, 0.15, 0.2, 0.3, 0.35, 0.45, 0.6, 0.7)
_TIED_GRIDS = st.integers(3, 8).flatmap(lambda k: st.tuples(
    st.just(k), st.lists(st.sampled_from(_TIED_GRID), min_size=k * (k - 1) // 2, max_size=k * (k - 1) // 2)))


def _assert_ties_break_like_the_oracle(method, grid):
    # distances drawn from a few values tie often; the oracle's merge order
    # and distances must come out exactly
    k, upper = grid
    values = np.zeros((k, k))
    values[np.triu_indices(k, 1)] = upper
    values = values + values.T
    dgm = agglomerate(_dm(values), LinkageParams(preset=method))
    steps = [(s.left, s.right, s.distance, s.new_id, s.members) for s in dgm.steps]
    assert steps == brute_force_agglomerate(values, method)


@settings(max_examples=200, deadline=None)
@given(_TIED_GRIDS)
@pytest.mark.parametrize("method", ["single", "complete"])
def test_single_and_complete_linkage_break_ties_like_the_oracle(method, grid):
    _assert_ties_break_like_the_oracle(method, grid)


@settings(max_examples=200, deadline=None)
@given(_TIED_GRIDS)
def test_average_linkage_breaks_ties_like_the_exact_oracle(grid):
    # a rounded size-weighted mean decides such ties by rounding
    _assert_ties_break_like_the_oracle("average", grid)


def test_average_linkage_tie_that_rounding_breaks_merges_the_smaller_id_pair():
    # after (c2,c4) and then c0 merge, c3 is exactly 0.5 from that cluster (6)
    # and from c1: the smaller id pair (1, 3) merges; a rounded weighted
    # mean put cluster 6 at 0.49999999999999994 and merged (3, 6) instead
    values = [[0.0, 0.625, 0.5, 0.625, 0.375],
              [0.625, 0.0, 0.625, 0.5, 0.5],
              [0.5, 0.625, 0.0, 0.625, 0.25],
              [0.625, 0.5, 0.625, 0.0, 0.25],
              [0.375, 0.5, 0.25, 0.25, 0.0]]
    dgm = agglomerate(_dm(values), LinkageParams(preset="average"))
    assert [(s.left, s.right) for s in dgm.steps] == [(2, 4), (0, 5), (1, 3), (6, 7)]
    assert [s.distance for s in dgm.steps[:3]] == [0.25, 0.4375, 0.5]


def test_equal_distances_merge_the_smaller_id_pair_first():
    values = np.full((4, 4), 0.2)
    np.fill_diagonal(values, 0.0)
    for method in ("single", "complete", "average"):
        dgm = agglomerate(_dm(values), LinkageParams(preset=method))
        assert [(s.left, s.right, s.new_id) for s in dgm.steps] == [(0, 1, 4), (2, 3, 5), (4, 5, 6)]


def test_dendrogram_validation():
    with pytest.raises(ValueError):
        Dendrogram(n_leaves=3, steps=())
    with pytest.raises(ValueError):
        Dendrogram(
            n_leaves=2,
            steps=(MergeStep(left=0, right=1, distance=-0.5, new_id=2, members=(0, 1)),),
        )


# --- threshold collapse ------------------------------------------------------


@pytest.fixture
def k3_dendrogram():
    dm = _dm([[0.0, 0.1, 0.9], [0.1, 0.0, 0.9], [0.9, 0.9, 0.0]])
    return agglomerate(dm, LinkageParams(preset="single"))


def test_collapse_all_dissolved_is_flat(k3_dendrogram):
    flat = collapse_threshold(k3_dendrogram, tau=0.0)
    assert flat == internal([leaf(0), leaf(1), leaf(2)])


def test_collapse_none_dissolved_keeps_binary_shape(k3_dendrogram):
    tree = collapse_threshold(k3_dendrogram, tau=2.0)
    assert tree == internal([internal([leaf(0), leaf(1)]), leaf(2)])


def test_collapse_hand_trace_mid_threshold(k3_dendrogram):
    tree = collapse_threshold(k3_dendrogram, tau=0.5)
    assert tree == internal([internal([leaf(0), leaf(1)]), leaf(2)])


def test_collapse_dissolves_inner_nodes():
    # both merges at high distance: inner node dissolves too -> flat
    dm = _dm([[0.0, 0.8, 0.9], [0.8, 0.0, 0.9], [0.9, 0.9, 0.0]])
    dgm = agglomerate(dm, LinkageParams(preset="single"))
    assert collapse_threshold(dgm, tau=0.5) == internal([leaf(0), leaf(1), leaf(2)])


def test_collapse_single_leaf():
    # no one-concept dendrogram exists to collapse into a single leaf
    with pytest.raises(ValueError, match="at least 2 concepts, got 1"):
        Dendrogram(n_leaves=1, steps=())


def test_collapse_rejects_negative_tau(k3_dendrogram):
    with pytest.raises(ValueError):
        collapse_threshold(k3_dendrogram, tau=-0.1)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.integers(4, 7))
def test_collapse_leaves_and_monotone_depth(seed, k):
    # raising tau dissolves fewer nodes, so depth never decreases
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.05, 1.0, size=(k, k))
    values = (raw + raw.T) / 2
    np.fill_diagonal(values, 0.0)
    dgm = agglomerate(_dm(values), LinkageParams(preset="average"))
    taus = sorted({0.0} | {s.distance for s in dgm.steps} | {2.0})
    heights = []
    for tau in taus:
        tree = collapse_threshold(dgm, tau)
        assert sorted(tree.leaf_ids()) == list(range(k))
        heights.append(tree.height())
    assert heights == sorted(heights)


# --- full derivation ---------------------------------------------------------


def test_derive_recovers_planted_pairs(pair_data, pair_tree, pair_catalog):
    matrix = build_affinity_artifacts(pair_data, AffinityConfig(seed=0)).matrix
    derived = derive_hierarchy(matrix, LinkageParams(preset="average"), tau=0.5)
    assert derived.tree == pair_tree
    assert tree_to_text(derived.tree, pair_catalog) == "((A,B),(C,D))"


def test_single_linkage_tie_merges_the_smaller_id_pair():
    matrix = affinity_from_json(tied_affinity_json())
    derived = derive_hierarchy(matrix, LinkageParams(preset="single"), tau=1.0)
    assert [(step.left, step.right, step.distance) for step in derived.dendrogram.steps] == [
        (0, 1, 0.35), (2, 3, 0.35), (4, 5, 0.35)
    ]
    assert tree_to_text(derived.tree, matrix.catalog) == "((c0,c1),(c2,c3))"


def test_derive_is_deterministic(pair_data):
    matrix = build_affinity_artifacts(pair_data, AffinityConfig(seed=0)).matrix
    a = derive_hierarchy(matrix, LinkageParams(preset="average"), tau=0.5)
    b = derive_hierarchy(matrix, LinkageParams(preset="average"), tau=0.5)
    assert a.tree == b.tree and a.dendrogram == b.dendrogram


def test_derive_tau_extremes(pair_data):
    matrix = build_affinity_artifacts(pair_data, AffinityConfig(seed=0)).matrix
    flat = derive_hierarchy(matrix, LinkageParams(preset="average"), tau=0.0)
    assert flat.tree.height() == 1 and len(flat.tree.children) == 4
    binary = derive_hierarchy(matrix, LinkageParams(preset="average"), tau=10.0)
    assert all(len(n.children) == 2 for n in binary.tree.internal_nodes())


# --- wire formats ------------------------------------------------------------


def test_dendrogram_json_roundtrip(k3_dendrogram):
    """The written JSON reads back as agglomerate's merge steps, field by field."""
    cat = Catalog(("c0", "c1", "c2"))
    obj = json.loads(json.dumps(dendrogram_to_json(k3_dendrogram, cat)))
    assert obj["concepts"] == ["c0", "c1", "c2"]
    assert [(s["left"], s["right"], s["distance"], s["id"], tuple(s["members"])) for s in obj["steps"]] == [
        (s.left, s.right, s.distance, s.new_id, s.members) for s in k3_dendrogram.steps
    ]


def test_dendrogram_dot_mentions_every_node(k3_dendrogram):
    cat = Catalog(("walk", "run", "still"))
    dot = dendrogram_to_dot(k3_dendrogram, cat)
    assert dot.startswith("digraph")
    for name in cat.names:
        assert name in dot
    assert dot.count("->") == 4

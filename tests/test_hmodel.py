import json
from dataclasses import replace

import numpy as np
import pytest

from conftest import central_difference, rel_err
from hierclass.affinity import AffinityConfig, build_affinity_artifacts
from hierclass.errors import DataError
from hierclass.hmodel import (
    ErmConfig,
    HierarchicalClassifier,
    HierTrainConfig,
    NodeModel,
    classifier_from_json,
    classifier_to_json,
    classifiers_equal,
    erm_risk_and_grads,
    exhaustive_search,
    flat_tree,
    fuse_tree,
    hinge_loss,
    parameter_count,
    predict,
    predict_batch,
    refine_global,
    route_child,
    train_flat_baseline,
    train_hierarchical,
    train_node_erm,
)
from hierclass.nets import Layer, Mlp
from hierclass.synth import PlantedSpec, generate_planted
from hierclass.treespace import Catalog, count_hierarchies, internal, leaf


def _identity_encoder(dim):
    return Mlp((Layer(np.eye(dim), np.zeros(dim), "identity"),))


def _node(key, child_keys, w, b, dim=None):
    dim = dim or len(w[0])
    return NodeModel(
        key=key,
        encoder=_identity_encoder(dim),
        scorer_weights=np.array(w, dtype=float),
        scorer_bias=np.array(b, dtype=float),
        child_keys=child_keys,
    )


# --- hinge ERM ---------------------------------------------------------------


def test_hinge_at_zero_score_is_one():
    assert hinge_loss(0.0, 1) == 1.0
    assert hinge_loss(0.0, -1) == 1.0


def test_erm_gradients_match_finite_differences():
    rng = np.random.default_rng(5)
    z = rng.normal(size=(12, 4))
    labels = rng.integers(0, 3, size=12)
    w0 = rng.normal(size=(3, 4))
    b0 = rng.normal(size=3)
    _, dw, db = erm_risk_and_grads(w0, b0, z, labels, l2=1e-3)

    def f(vec):
        w = vec[:12].reshape(3, 4)
        b = vec[12:]
        risk, _, _ = erm_risk_and_grads(w, b, z, labels, l2=1e-3)
        return risk

    fd = central_difference(f, np.concatenate([w0.ravel(), b0.ravel()]))
    assert rel_err(np.concatenate([dw.ravel(), db.ravel()]), fd) < 1e-6


def test_train_node_erm_separates_separable_groups():
    rng = np.random.default_rng(0)
    features = np.vstack([rng.normal(size=(40, 4)) - 3, rng.normal(size=(40, 4)) + 3])
    labels = np.array([0] * 40 + [1] * 40)
    encoder = _identity_encoder(4)
    w, b, history = train_node_erm(encoder, features, labels, 2, ErmConfig(), seed=0)
    routed = route_child(_node((0, 1), ((0,), (1,)), w, b), features)
    assert np.array_equal(routed, labels)
    # the returned scorers are the best iterate: risk never above the start
    returned_risk, _, _ = erm_risk_and_grads(w, b, features, labels, ErmConfig().l2)
    assert returned_risk == min(history) <= history[0]


def test_train_node_erm_rejects_empty_child_group():
    encoder = _identity_encoder(3)
    with pytest.raises(DataError, match="empty child"):
        train_node_erm(encoder, np.zeros((4, 3)), np.array([0, 0, 0, 0]), 2, ErmConfig(), seed=0)


# --- prediction --------------------------------------------------------------


@pytest.fixture
def hand_classifier():
    # root scores: left subtree +1, right leaf -1; left node: c1 -2, c2 +3
    catalog = Catalog(("c1", "c2", "c3"))
    tree = internal([internal([leaf(0), leaf(1)]), leaf(2)])
    models = {
        (0, 1, 2): _node((0, 1, 2), ((0, 1), (2,)), [[0, 0, 0], [0, 0, 0]], [1.0, -1.0], dim=3),
        (0, 1): _node((0, 1), ((0,), (1,)), [[0, 0, 0], [0, 0, 0]], [-2.0, 3.0], dim=3),
    }
    return HierarchicalClassifier(tree=tree, catalog=catalog, models=models)


def test_predict_hand_trace_descends_by_argmax(hand_classifier):
    assert predict(hand_classifier, np.zeros(3)) == 1  # root -> left, left -> c2


def test_predict_flat_tree_is_argmax_over_scores():
    catalog = Catalog(("a", "b", "c"))
    tree = flat_tree(3)
    w = np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]])
    models = {(0, 1, 2): _node((0, 1, 2), ((0,), (1,), (2,)), w, [0, 0, 0])}
    clf = HierarchicalClassifier(tree=tree, catalog=catalog, models=models)
    x = np.array([[0.2, 0.9, 0.1], [5, 1, 2], [0, 0, 1]])
    assert predict_batch(clf, x).tolist() == [1, 0, 2]


def test_predict_tie_breaks_to_lowest_child_index(hand_classifier):
    clf = hand_classifier
    tied = replace(
        clf.models[(0, 1, 2)],
        scorer_bias=np.array([0.0, 0.0]),
    )
    models = dict(clf.models)
    models[(0, 1, 2)] = tied
    tied_clf = HierarchicalClassifier(tree=clf.tree, catalog=clf.catalog, models=models)
    assert predict(tied_clf, np.zeros(3)) == 1  # routes into the first (left) child


def test_predict_dimension_mismatch(hand_classifier):
    with pytest.raises(ValueError, match="dim"):
        predict(hand_classifier, np.zeros(5))


def test_predict_is_deterministic_and_affine_invariant(hand_classifier):
    rng = np.random.default_rng(0)
    x = rng.normal(size=(200, 3))
    runs = [predict_batch(hand_classifier, x) for _ in range(3)]
    assert np.array_equal(runs[0], runs[1]) and np.array_equal(runs[1], runs[2])
    # monotone transform 2s+7 of one node's outputs cannot change the argmax
    node = hand_classifier.models[(0, 1)]
    transformed = replace(
        node,
        scorer_weights=2.0 * node.scorer_weights,
        scorer_bias=2.0 * node.scorer_bias + 7.0,
    )
    models = dict(hand_classifier.models)
    models[(0, 1)] = transformed
    clf2 = HierarchicalClassifier(
        tree=hand_classifier.tree, catalog=hand_classifier.catalog, models=models
    )
    assert np.array_equal(predict_batch(clf2, x), runs[0])


def test_perfect_node_scorers_compose_to_perfect_prediction(hand_classifier):
    catalog = hand_classifier.catalog
    labels = np.array([0, 1, 2, 1, 0])
    x = np.eye(3)[labels]
    models = {
        (0, 1, 2): _node((0, 1, 2), ((0, 1), (2,)), [[1, 1, 0], [0, 0, 1]], [0, 0], dim=3),
        (0, 1): _node((0, 1), ((0,), (1,)), [[1, 0, 0], [0, 1, 0]], [0, 0], dim=3),
    }
    clf = HierarchicalClassifier(tree=hand_classifier.tree, catalog=catalog, models=models)
    assert np.array_equal(predict_batch(clf, x), labels)


def test_classifier_validation(hand_classifier):
    models = dict(hand_classifier.models)
    del models[(0, 1)]
    with pytest.raises(ValueError, match="missing"):
        HierarchicalClassifier(
            tree=hand_classifier.tree, catalog=hand_classifier.catalog, models=models
        )
    with pytest.raises(ValueError, match="one scorer per child"):
        _node((0, 1), ((0,), (1,)), [[0, 0, 0]], [0.0])


# --- representation assignment ----------------------------------------------


@pytest.fixture(scope="module")
def triple_setup():
    catalog = Catalog(("c1", "c2", "c3"))
    tree = internal([internal([leaf(0), leaf(1)]), leaf(2)])
    spec = PlantedSpec(catalog, tree, 10, 120, (9.0, 3.0), 2.0)
    data = generate_planted(spec, seed=3)
    artifacts = build_affinity_artifacts(data, AffinityConfig(seed=3))
    return catalog, tree, data, artifacts


def test_assignment_first_order_and_higher_order(triple_setup):
    from hierclass.hmodel import assign_representations

    catalog, tree, data, artifacts = triple_setup
    eff_tree, assignment = assign_representations(tree, artifacts, "keep", data)
    assert eff_tree == tree
    pair_encoders = {id(m) for m in artifacts.pair_encoders.values()}
    assert id(assignment[(0, 1)]) in pair_encoders  # first-order reuse
    assert id(assignment[(0, 1, 2)]) not in pair_encoders  # higher-order fine-tune


def test_assignment_flat_tree_single_union_encoder(triple_setup):
    from hierclass.hmodel import assign_representations

    catalog, _, data, artifacts = triple_setup
    eff_tree, assignment = assign_representations(flat_tree(3), artifacts, "keep", data)
    assert list(assignment) == [(0, 1, 2)]
    pair_encoders = {id(m) for m in artifacts.pair_encoders.values()}
    assert id(assignment[(0, 1, 2)]) not in pair_encoders  # tuned on the union


def test_fuse_mode_flattens_subtree(triple_setup):
    from hierclass.hmodel import assign_representations

    catalog, tree, data, artifacts = triple_setup
    eff_tree, assignment = assign_representations(tree, artifacts, "fuse", data)
    assert eff_tree == flat_tree(3)  # Fig-2-style 3-way node
    assert list(assignment) == [(0, 1, 2)]


def test_fuse_tree_shapes():
    two_level = internal([internal([leaf(0), leaf(1)]), leaf(2)])
    assert fuse_tree(two_level) == flat_tree(3)
    leafy = internal([leaf(0), leaf(1)])
    assert fuse_tree(leafy) == leafy


def test_assignment_missing_artifact_errors(triple_setup):
    from hierclass.affinity import AffinityArtifacts
    from hierclass.hmodel import assign_representations

    catalog, tree, data, artifacts = triple_setup
    gutted = AffinityArtifacts(
        matrix=artifacts.matrix,
        concept_encoders=artifacts.concept_encoders,
        pair_encoders={},
        config=artifacts.config,
        input_dim=artifacts.input_dim,
    )
    with pytest.raises(DataError, match="no affinity encoder"):
        assign_representations(tree, gutted, "keep", data)


def test_train_hierarchical_with_artifacts_predicts(triple_setup):
    catalog, tree, data, artifacts = triple_setup
    clf = train_hierarchical(tree, data, HierTrainConfig(seed=3), artifacts=artifacts)
    acc = float(np.mean(predict_batch(clf, data.features) == data.labels))
    assert acc > 0.6
    assert clf.provenance["from_affinity_artifacts"] is True


# --- refinement ----------------------------------------------------------------


@pytest.fixture(scope="module")
def trained_triple():
    catalog = Catalog(("c1", "c2", "c3"))
    tree = internal([internal([leaf(0), leaf(1)]), leaf(2)])
    spec = PlantedSpec(catalog, tree, 8, 60, (6.0, 2.0), 1.0)
    data = generate_planted(spec, seed=1)
    clf = train_hierarchical(tree, data, HierTrainConfig(seed=1))
    return clf, data


def test_refine_rejects_negative_lambda(trained_triple):
    clf, data = trained_triple
    with pytest.raises(ValueError):
        refine_global(clf, data, lambda_orth=-1.0)


def test_refine_lambda_zero_never_raises_node_risks(trained_triple):
    clf, data = trained_triple
    result = refine_global(clf, data, lambda_orth=0.0, epochs=10)
    for key, before in result.node_risks_before.items():
        assert result.node_risks_after[key] <= before + 1e-12


def test_refine_large_lambda_decreases_penalty(trained_triple):
    clf, data = trained_triple
    result = refine_global(clf, data, lambda_orth=100.0, epochs=15)
    assert result.penalty_history[-1] < result.penalty_history[0]
    assert all(
        b <= a + 1e-12
        for a, b in zip(result.objective_history, result.objective_history[1:])
    )


def test_refine_freeze_encoders_only_moves_scorers(trained_triple):
    clf, data = trained_triple
    result = refine_global(clf, data, lambda_orth=0.5, epochs=5, freeze_encoders=True)
    for key, model in clf.models.items():
        refined = result.classifier.models[key]
        for la, lb in zip(model.encoder.layers, refined.encoder.layers):
            assert np.array_equal(la.weights, lb.weights)


# --- flat baseline -------------------------------------------------------------


def test_flat_baseline_matches_parameter_budget(trained_triple):
    clf, data = trained_triple
    target = parameter_count(clf)
    baseline = train_flat_baseline(data, HierTrainConfig(seed=1), target_params=target)
    assert abs(baseline.parameter_count - target) / target <= 0.1
    root_model = baseline.classifier.models[(0, 1, 2)]
    assert root_model.scorer_weights.shape[0] == 3  # one scorer per concept


def test_flat_baseline_rejects_infeasible_budget(trained_triple):
    _, data = trained_triple
    with pytest.raises(DataError, match="budget"):
        train_flat_baseline(data, HierTrainConfig(seed=1), target_params=10)


def test_flat_baseline_perfect_on_separable_data():
    catalog = Catalog(("a", "b", "c"))
    tree = flat_tree(3)
    spec = PlantedSpec(catalog, tree, 8, 50, (9.0,), 0.3)
    data = generate_planted(spec, seed=0)
    baseline = train_flat_baseline(data, HierTrainConfig(seed=0))
    acc = float(np.mean(predict_batch(baseline.classifier, data.features) == data.labels))
    assert acc == 1.0


# --- exhaustive search ----------------------------------------------------------


def test_exhaustive_search_k2_single_tree():
    catalog = Catalog(("a", "b"))
    spec = PlantedSpec(catalog, flat_tree(2), 6, 40, (4.0,), 0.5)
    data = generate_planted(spec, seed=0)
    result = exhaustive_search(data, data, HierTrainConfig(seed=0))
    assert len(result.table) == 1
    assert result.best_tree == flat_tree(2)


def test_exhaustive_search_table_length_matches_count(triple_setup):
    catalog, tree, data, _ = triple_setup
    from hierclass.synth import split

    train, val = split(data, (0.7, 0.3), seed=3, stratified=True)
    result = exhaustive_search(train, val, HierTrainConfig(seed=3))
    assert len(result.table) == count_hierarchies(3)
    assert result.best_tree == tree  # (c1,c2) are the overlapping pair


def test_exhaustive_search_cap(triple_setup):
    catalog, tree, data, _ = triple_setup
    with pytest.raises(ValueError, match="cap"):
        exhaustive_search(data, data, HierTrainConfig(seed=0), cap=2)


def test_exhaustive_search_repeats_exactly(triple_setup):
    catalog, tree, data, _ = triple_setup
    from hierclass.synth import split

    train, val = split(data, (0.7, 0.3), seed=3, stratified=True)
    first = exhaustive_search(train, val, HierTrainConfig(seed=3), metric="neg_h_loss")
    again = exhaustive_search(train, val, HierTrainConfig(seed=3), metric="neg_h_loss")
    assert first.table == again.table
    assert first.best_tree == again.best_tree


# --- serialization ---------------------------------------------------------------


def test_classifier_json_roundtrip(trained_triple):
    clf, _ = trained_triple
    obj = json.loads(json.dumps(classifier_to_json(clf)))
    back = classifier_from_json(obj)
    assert classifiers_equal(clf, back)
    assert json.dumps(classifier_to_json(back), sort_keys=True) == json.dumps(
        classifier_to_json(clf), sort_keys=True
    )


def test_classifier_json_rejects_unknown_format(trained_triple):
    clf, _ = trained_triple
    obj = classifier_to_json(clf)
    obj["format"] = "other"
    with pytest.raises(DataError, match="format"):
        classifier_from_json(obj)


def test_parameter_count_arithmetic(hand_classifier):
    # two nodes, each: identity encoder (3x3 + 3) + scorers (2x3 + 2)
    assert parameter_count(hand_classifier) == 2 * (9 + 3 + 6 + 2)

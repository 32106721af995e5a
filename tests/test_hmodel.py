import itertools
import json
import re
from dataclasses import replace
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import _plain_hierarchy, _plain_node_erm, as_partition, central_difference, rel_err, same_classifier
from hierclass import hmodel
from hierclass.affinity import AffinityConfig, EncoderConfig, build_affinity_artifacts
from hierclass.errors import DataError, NumericError, UnscorableRowError
from hierclass.hmodel import (
    ErmConfig,
    HierarchicalClassifier,
    HierTrainConfig,
    NodeModel,
    child_index_labels,
    classifier_from_json,
    classifier_to_json,
    erm_risk_and_grads,
    exhaustive_search,
    flat_tree,
    parameter_count,
    predict_batch,
    refine_global,
    route_child,
    train_flat_baseline,
    train_hierarchical,
    node_key,
    train_node_erm_stack,
)
from hierclass.metrics import evaluate
from hierclass.nets import ACTIVATIONS, Layer, Mlp, SgdConfig, init_mlp, params_to_mlp
from hierclass.serialize import array_from_json
from hierclass.synth import LabeledDataset, PlantedSpec, generate_planted, split
from hierclass.treespace import (
    Catalog,
    count_hierarchies,
    enumerate_hierarchies,
    internal,
    leaf,
    sample_hierarchy,
)


def _identity_encoder(dim):
    return Mlp((Layer(np.eye(dim), np.zeros(dim), "identity"),))


def _node(w, b, dim=None):
    dim = dim or len(w[0])
    return NodeModel(
        encoder=_identity_encoder(dim),
        scorer_weights=np.array(w, dtype=float),
        scorer_bias=np.array(b, dtype=float),
    )


# --- hinge ERM ---------------------------------------------------------------


def test_erm_risk_at_zero_scorers_is_child_count():
    # every child's hinge term is max(0, 1 - (+-1) * 0) = 1 on a zero score
    z = np.array([[0.5, -2.0, 1.0]])
    for n_children in (2, 3, 5):
        w = np.zeros((n_children, 3))
        b = np.zeros(n_children)
        risk, _, _, _ = erm_risk_and_grads(w, b, z, np.array([1]), l2=0.0)
        assert risk == n_children


def test_erm_gradients_match_finite_differences():
    rng = np.random.default_rng(5)
    z = rng.normal(size=(12, 4))
    labels = rng.integers(0, 3, size=12)
    w0 = rng.normal(size=(3, 4))
    b0 = rng.normal(size=3)
    _, dw, db, _ = erm_risk_and_grads(w0, b0, z, labels, l2=1e-3)

    def f(vec):
        w = vec[:12].reshape(3, 4)
        b = vec[12:]
        return erm_risk_and_grads(w, b, z, labels, l2=1e-3)[0]

    fd = central_difference(f, np.concatenate([w0.ravel(), b0.ravel()]))
    assert rel_err(np.concatenate([dw.ravel(), db.ravel()]), fd) < 1e-6


def test_train_node_erm_separates_separable_groups():
    rng = np.random.default_rng(0)
    features = np.vstack([rng.normal(size=(40, 4)) - 3, rng.normal(size=(40, 4)) + 3])
    labels = np.array([0] * 40 + [1] * 40)
    encoder = _identity_encoder(4)
    (w, b, history), = train_node_erm_stack([encoder], [features], [labels], [[((0,), (1,))]], ErmConfig(), [0])
    routed = route_child(_node(w[0], b[0]), features)
    assert np.array_equal(routed, labels)
    # the returned scorers are the best iterate: risk never above the start
    returned_risk = erm_risk_and_grads(w[0], b[0], features, labels, ErmConfig().l2)[0]
    assert returned_risk == min(risk[0] for risk in history) <= history[0][0]


def _groupings(n_concepts, n_children):
    """Every partition of concepts 0..n-1 into n_children blocks, as the block
    index of each concept (blocks numbered by first member)."""
    out = []
    for assign in itertools.product(range(n_children), repeat=n_concepts):
        firsts = [assign.index(c) for c in range(n_children) if c in assign]
        if len(firsts) == n_children and firsts == sorted(firsts):
            out.append(np.array(assign))
    return out


@pytest.mark.parametrize("n_children, expected", [(2, 7), (3, 6), (4, 1)])
def test_stacked_erm_equals_serial_one_member_calls(n_children, expected):
    rng = np.random.default_rng(11)
    concepts = rng.integers(0, 4, size=90)
    concepts[:4] = np.arange(4)  # every concept present
    features = rng.normal(size=(90, 5)) + concepts[:, None]
    encoder = init_mlp((5, 6, 3), ("relu", "identity"), rng)
    cfg = ErmConfig(epochs=12, batch_size=16, learning_rate=0.1)
    groupings = _groupings(4, n_children)
    assert len(groupings) == expected  # Stirling numbers S(4, n)
    partitions = [as_partition(g, n_children) for g in groupings]
    (w, b, history), = train_node_erm_stack([encoder], [features], [concepts], [partitions], cfg, [7])
    assert np.shape(w) == (expected, n_children, 3) and np.shape(b) == (expected, n_children)
    assert len(history) == cfg.epochs + 1 and history[0].shape == (expected,)
    for p, partition in enumerate(partitions):
        idx = child_index_labels(partition, concepts)
        w1, b1, h1 = _plain_node_erm(encoder, features, idx, n_children, cfg, seed=7)
        assert np.array_equal(w[p], w1) and np.array_equal(b[p], b1)
        assert [h[p] for h in history] == h1


def test_erm_stack_over_problems_equals_the_plain_loop():
    # three concept sets, each with its own encoder, rows and seed, and 2, 1
    # and 3 groupings of its rows that share that set's batch order
    rng = np.random.default_rng(4)
    cfg = ErmConfig(epochs=9, batch_size=16, learning_rate=0.1)
    problems = []
    for g, n_groupings in enumerate((2, 1, 3)):
        concepts = np.arange(60) % 4
        features = rng.normal(size=(60, 5)) + concepts[:, None] * (g + 1)
        encoder = init_mlp((5, 6, 3), ("relu", "sigmoid"), rng)
        groupings = [rng.permutation(_groupings(4, 3))[0] for _ in range(n_groupings)]
        problems.append((encoder, features, concepts, [as_partition(grp, 3) for grp in groupings], 30 + g))
    plain = [
        [_plain_node_erm(enc, f, child_index_labels(partition, concepts), 3, cfg, seed) for partition in partitions]
        for enc, f, concepts, partitions, seed in problems
    ]
    for order in ([0, 1, 2], [2, 0, 1], [1]):  # permuted, and a stack of one problem with one grouping
        encoders, features, labels, partitions, seeds = zip(*[problems[g] for g in order])
        stacked = train_node_erm_stack(encoders, features, labels, partitions, cfg, seeds)
        assert len(stacked) == len(order)
        for g, (w, b, history) in zip(order, stacked):
            assert np.shape(w) == (len(plain[g]), 3, 3) and len(history) == cfg.epochs + 1
            for p, (w1, b1, h1) in enumerate(plain[g]):
                assert np.array_equal(w[p], w1) and np.array_equal(b[p], b1)
                assert [risks[p] for risks in history] == h1


def test_stacked_erm_risk_matches_each_member():
    rng = np.random.default_rng(3)
    z = rng.normal(size=(20, 4))
    child_idx = rng.integers(0, 3, size=(5, 20))
    w = rng.normal(size=(5, 3, 4))
    b = rng.normal(size=(5, 3))
    risk, dw, db, ds = erm_risk_and_grads(w, b, z, child_idx, l2=1e-3)
    for p in range(5):
        one = erm_risk_and_grads(w[p], b[p], z, child_idx[p], l2=1e-3)
        assert risk[p] == one[0]
        assert all(np.array_equal(a[p], c) for a, c in zip((dw, db, ds), one[1:]))


# --- prediction --------------------------------------------------------------


@pytest.fixture
def hand_classifier():
    # root scores: left subtree +1, right leaf -1; left node: c1 -2, c2 +3
    catalog = Catalog(("c1", "c2", "c3"))
    tree = internal([internal([leaf(0), leaf(1)]), leaf(2)])
    models = {
        (0, 1, 2): _node([[0, 0, 0], [0, 0, 0]], [1.0, -1.0], dim=3),
        (0, 1): _node([[0, 0, 0], [0, 0, 0]], [-2.0, 3.0], dim=3),
    }
    return HierarchicalClassifier(tree=tree, catalog=catalog, models=models)


def test_predict_hand_trace_descends_by_argmax(hand_classifier):
    assert predict_batch(hand_classifier, np.zeros(3)).tolist() == [1]  # root -> left, left -> c2


def test_predict_flat_tree_is_argmax_over_scores():
    catalog = Catalog(("a", "b", "c"))
    tree = flat_tree(3)
    w = np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]])
    models = {(0, 1, 2): _node(w, [0, 0, 0])}
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
    assert predict_batch(tied_clf, np.zeros(3)).tolist() == [1]  # routes into the first (left) child


def test_predict_dimension_mismatch(hand_classifier):
    with pytest.raises(ValueError, match="dim"):
        predict_batch(hand_classifier, np.zeros(5))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_predict_batch_rejects_non_finite_rows(hand_classifier, bad):
    x = np.zeros((3, 3))
    x[1, 2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        predict_batch(hand_classifier, x)


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
        (0, 1, 2): _node([[1, 1, 0], [0, 0, 1]], [0, 0], dim=3),
        (0, 1): _node([[1, 0, 0], [0, 1, 0]], [0, 0], dim=3),
    }
    clf = HierarchicalClassifier(tree=hand_classifier.tree, catalog=catalog, models=models)
    assert np.array_equal(predict_batch(clf, x), labels)


def test_classifier_validation(hand_classifier):
    tree, catalog = hand_classifier.tree, hand_classifier.catalog
    models = dict(hand_classifier.models)
    del models[(0, 1)]
    with pytest.raises(ValueError, match="missing"):
        HierarchicalClassifier(tree=tree, catalog=catalog, models=models)
    # the tree states each node's children: its model has one scorer per child ...
    one_scorer = {**hand_classifier.models, (0, 1): _node([[0, 0, 0]], [0.0])}
    with pytest.raises(ValueError, match=r"^node \[0, 1\]: 2 children, 1 scorers$"):
        HierarchicalClassifier(tree=tree, catalog=catalog, models=one_scorer)
    # ... and reads the root's features
    narrow = {**hand_classifier.models, (0, 1): _node([[0, 0], [0, 0]], [0.0, 0.0])}
    with pytest.raises(ValueError, match=r"^node \[0, 1\] reads 2 features, the root 3$"):
        HierarchicalClassifier(tree=tree, catalog=catalog, models=narrow)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("part", ["weights", "bias"])
def test_node_model_rejects_non_finite_scorers(part, bad):
    # unchecked, a NaN scorer weight loaded and predict blamed the data's rows for it
    w, b = np.zeros((2, 3)), np.zeros(2)
    (w if part == "weights" else b).flat[1] = bad
    with pytest.raises(ValueError, match="^scorer parameters must be finite$"):
        _node(w, b)


# --- representation assignment ----------------------------------------------


@pytest.fixture(scope="module")
def triple_setup():
    catalog = Catalog(("c1", "c2", "c3"))
    tree = internal([internal([leaf(0), leaf(1)]), leaf(2)])
    spec = PlantedSpec(catalog, tree, 10, 120, (9.0, 3.0), 2.0)
    data = generate_planted(spec, seed=3)
    artifacts = build_affinity_artifacts(data, AffinityConfig(seed=3))
    return catalog, tree, data, artifacts


def _assigned(tree, artifacts, data):
    """The classifier's tree and the node-key-to-encoder map ``train_hierarchical``
    builds from the artifacts."""
    clf = train_hierarchical(tree, data, HierTrainConfig(seed=3), artifacts)
    return clf.tree, {key: model.encoder for key, model in clf.models.items()}


def test_assignment_first_order_and_higher_order(triple_setup):
    catalog, tree, data, artifacts = triple_setup
    eff_tree, assignment = _assigned(tree, artifacts, data)
    assert eff_tree == tree
    # the pair node takes its best pair's source encoder, and the root its only internal child's
    source, _ = hmodel._best_pair((0, 1), artifacts)
    assert assignment[(0, 1)] is artifacts.concept_encoders[source]
    assert assignment[(0, 1, 2)] is assignment[(0, 1)]


def test_assignment_flat_tree_single_union_encoder(triple_setup):
    catalog, _, data, artifacts = triple_setup
    eff_tree, assignment = _assigned(flat_tree(3), artifacts, data)
    assert list(assignment) == [(0, 1, 2)]
    source, _ = hmodel._best_pair((0, 1, 2), artifacts)  # the best of the six ordered pairs
    assert assignment[(0, 1, 2)] is artifacts.concept_encoders[source]


def test_assignment_missing_artifact_errors(triple_setup):
    # artifacts without an encoder for every concept cannot be built, so no node goes without one
    from hierclass.affinity import AffinityArtifacts

    catalog, tree, data, artifacts = triple_setup
    with pytest.raises(ValueError, match=r"^0 concept encoders for the 3 concepts$"):
        AffinityArtifacts(
            matrix=artifacts.matrix,
            concept_encoders=(),
            config=artifacts.config,
        )


def test_train_hierarchical_with_artifacts_predicts(triple_setup):
    catalog, tree, data, artifacts = triple_setup
    clf = train_hierarchical(tree, data, HierTrainConfig(seed=3), artifacts=artifacts)
    acc = float(np.mean(predict_batch(clf, data.features) == data.labels))
    assert acc > 0.6


@pytest.mark.parametrize("rep_mode", ["keep"])  # the explicit form perfbench/workloads.py uses
@pytest.mark.parametrize("flat", [False, True], ids=["two-level", "flat"])
def test_train_hierarchical_with_artifacts_restricts_each_node_once(triple_setup, monkeypatch, rep_mode, flat):
    catalog, tree, data, artifacts = triple_setup
    calls = []
    original = LabeledDataset.restrict
    monkeypatch.setattr(LabeledDataset, "restrict", lambda self, ids: calls.append(tuple(ids)) or original(self, ids))
    cfg = replace(HierTrainConfig(seed=3), rep_mode=rep_mode)
    clf = train_hierarchical(flat_tree(3) if flat else tree, data, cfg, artifacts=artifacts)
    assert sorted(calls) == sorted(clf.models)


# --- refinement ----------------------------------------------------------------


@pytest.fixture(scope="module")
def trained_triple():
    catalog = Catalog(("c1", "c2", "c3"))
    tree = internal([internal([leaf(0), leaf(1)]), leaf(2)])
    spec = PlantedSpec(catalog, tree, 8, 60, (6.0, 2.0), 1.0)
    data = generate_planted(spec, seed=1)
    clf = train_hierarchical(tree, data, HierTrainConfig(seed=1))
    return clf, data


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 48).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=8, max_size=8),
                     min_size=n, max_size=n),
            st.permutations(range(n)),
            st.integers(1, n),
        )
    )
)
def test_predict_batch_labels_a_row_alike_in_any_batch(trained_triple, case):
    """Sharded scoring relies on this: a row gets the same label, or makes
    its batch raise the same error, whatever rows are batched with it, their
    order or the batch size, for any finite row."""
    clf, data = trained_triple
    rows, order, cut = case
    # the generated rows next to training rows, which sit near the boundaries
    x = np.vstack([np.array(rows), data.features[::7]])
    alone = []  # each row's label scored alone, None where it cannot be scored
    for row in x:
        try:
            alone.append(int(predict_batch(clf, row)[0]))
        except UnscorableRowError as exc:
            assert exc.row == 0
            alone.append(None)
    assert set(alone) - {None} <= set(range(len(clf.catalog)))

    def same_outcome(idx):
        try:
            got = predict_batch(clf, x[idx])
        except UnscorableRowError as exc:  # names a row that cannot be scored alone
            assert alone[idx[exc.row]] is None
            return
        assert got.tolist() == [alone[i] for i in idx]

    same_outcome(np.arange(len(x)))
    same_outcome(np.array(order))
    same_outcome(np.arange(cut))
    same_outcome(np.tile(np.arange(len(x)), 40))


@pytest.mark.parametrize("scale", [900.0, 1e6, 1e154, 1e300, np.finfo(float).max])
def test_predict_batch_labels_far_rows_without_overflow_warnings(trained_triple, scale):
    # the suite turns a RuntimeWarning into an error: the sigmoid's exp(-z)
    # overflows from 900 on, with the right limit 0; near the float maximum
    # the first layer's sums can overflow, and the row cannot be scored
    clf, _ = trained_triple
    x = scale * np.array([[1.0] * 8, [-1.0] * 8, [1.0, -1.0] * 4])
    if scale == np.finfo(float).max:
        with pytest.raises(UnscorableRowError, match=r"^row 0 cannot be scored at node \[0, 1, 2\]"):
            predict_batch(clf, x)
    else:
        assert set(predict_batch(clf, x).tolist()) <= set(range(len(clf.catalog)))


def test_a_row_one_node_cannot_score_raises_off_that_nodes_path(trained_triple):
    # node (0, 1) gets first-layer weights of alternating sign at the float
    # maximum, so it can score no row; the root sends these c3 rows to the
    # leaf c3, but evaluate's per-node table routes a c1 row through (0, 1)
    clf, data = trained_triple
    model = clf.models[(0, 1)]
    first, *rest = model.encoder.layers
    huge = np.resize([1.0, -1.0], first.weights.shape[1]) * np.finfo(float).max
    wild = Layer(np.tile(huge, (first.weights.shape[0], 1)), first.bias, first.activation)
    broken = replace(clf, models={**clf.models, (0, 1): replace(model, encoder=Mlp((wild, *rest)))})
    c3 = data.features[data.labels == 2][:3]
    assert predict_batch(clf, c3).tolist() == [2, 2, 2]
    with pytest.raises(UnscorableRowError, match=r"^row 0 cannot be scored at node \[0, 1\]"):
        predict_batch(broken, c3)
    with pytest.raises(UnscorableRowError, match=r"^row 0 cannot be scored at node \[0, 1\]"):
        evaluate(broken, LabeledDataset(c3, np.array([2, 2, 0]), data.catalog))


def test_node_bounds_are_computed_once_per_model_on_first_use(trained_triple, monkeypatch):
    clf, data = trained_triple
    loaded = classifier_from_json(json.loads(json.dumps(classifier_to_json(clf))))
    assert all("max_feature" not in model.__dict__ for model in loaded.models.values())  # loading computes none
    expected = predict_batch(clf, data.features)
    computed = []
    original = NodeModel.__dict__["max_feature"].func
    counted = cached_property(lambda model: computed.append(model) or original(model))
    counted.__set_name__(NodeModel, "max_feature")
    monkeypatch.setattr(NodeModel, "max_feature", counted)
    assert np.array_equal(predict_batch(loaded, data.features), expected)
    assert np.array_equal(predict_batch(loaded, data.features), expected)
    assert sorted(map(id, computed)) == sorted(map(id, loaded.models.values()))


def test_refine_rejects_negative_lambda(trained_triple):
    clf, data = trained_triple
    with pytest.raises(ValueError):
        refine_global(clf, data, lambda_orth=-1.0)


@pytest.mark.parametrize("setting", [
    {"lambda_orth": float("nan")}, {"lambda_orth": float("inf")},
    {"learning_rate": 0.0}, {"learning_rate": -0.1}, {"learning_rate": float("nan")},
    {"epochs": -1}, {"l2": -1.0}, {"l2": float("inf")},
], ids=lambda setting: "{}={}".format(*next(iter(setting.items()))))
def test_refine_rejects_impossible_settings_naming_the_argument(trained_triple, setting):
    clf, data = trained_triple
    with pytest.raises(ValueError, match=f"^{next(iter(setting))} must"):
        refine_global(clf, data, **setting)


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


def _two_branch_refine_global(
    classifier, dataset, lambda_orth=0.1, epochs=30, learning_rate=0.1, l2=1e-3
):
    """Reference: the refinement loop as it was before its two branches were
    merged, with three objective evaluations per epoch at lambda_orth = 0."""
    from hierclass.hmodel import RefineResult, _node_state, _objective_on_params

    if lambda_orth < 0:
        raise ValueError("lambda_orth must be nonnegative")
    params, problems = _node_state(classifier, dataset)
    keys = list(params)

    def objective(p):
        return _objective_on_params(classifier, problems, lambda_orth, l2, p)

    total, grads, risks0, penalty = objective(params)
    obj_history = [total]
    pen_history = [penalty]

    if lambda_orth == 0.0:
        rates = {key: learning_rate for key in keys}
        for _ in range(epochs):
            new_params = {key: [[w.copy(), b.copy()] for w, b in pairs] for key, pairs in params.items()}
            for key in keys:
                for i in range(len(params[key])):
                    new_params[key][i][0] -= rates[key] * grads[key][i][0]
                    new_params[key][i][1] -= rates[key] * grads[key][i][1]
            new_total, new_grads, new_risks, new_pen = objective(new_params)
            cur_total, _, cur_risks, _ = objective(params)
            for key in keys:
                if new_risks[key] <= cur_risks[key]:
                    params[key] = new_params[key]
                else:
                    rates[key] *= 0.5
            total, grads, risks, penalty = objective(params)
            obj_history.append(total)
            pen_history.append(penalty)
    else:
        rate = learning_rate
        for _ in range(epochs):
            new_params = {
                key: [[w - rate * gw, b - rate * gb] for (w, b), (gw, gb) in zip(pairs, grads[key])]
                for key, pairs in params.items()
            }
            new_total, new_grads, _, new_pen = objective(new_params)
            if new_total <= total:
                params, total, grads, penalty = new_params, new_total, new_grads, new_pen
            else:
                rate *= 0.5
            obj_history.append(total)
            pen_history.append(penalty)

    models = {}
    for key in keys:
        model = classifier.models[key]
        *enc_params, (w, b) = params[key]
        models[key] = replace(
            model, encoder=params_to_mlp(enc_params, model.encoder), scorer_weights=w, scorer_bias=b
        )
    refined = replace(classifier, models=models)
    _, _, risks_after, _ = _objective_on_params(
        refined, problems, lambda_orth, l2, _node_state(refined, dataset)[0]
    )
    return RefineResult(
        classifier=refined,
        objective_history=tuple(obj_history),
        penalty_history=tuple(pen_history),
        node_risks_before=risks0,
        node_risks_after=risks_after,
    )


REFINE_MODES = [
    {"lambda_orth": 0.0},
    {"lambda_orth": 0.1},
]


# at rate 10 steps are rejected and rates halve (lambda > 0: 3-7 of 12 epochs keep a flat objective)
@pytest.mark.parametrize("learning_rate", [0.1, 10.0])
@pytest.mark.parametrize("mode", REFINE_MODES, ids=lambda m: "-".join(f"{k}={v}" for k, v in m.items()))
def test_refine_equals_two_branch_reference(trained_triple, mode, learning_rate):
    clf, data = trained_triple
    got = refine_global(clf, data, epochs=12, learning_rate=learning_rate, **mode)
    want = _two_branch_refine_global(clf, data, epochs=12, learning_rate=learning_rate, **mode)
    assert same_classifier(got.classifier, want.classifier)
    assert got.objective_history == want.objective_history
    assert got.penalty_history == want.penalty_history
    assert got.node_risks_before == want.node_risks_before
    assert got.node_risks_after == want.node_risks_after


@pytest.mark.parametrize("lambda_orth", [0.0, 0.1])
def test_refine_evaluates_the_objective_once_per_step(trained_triple, monkeypatch, lambda_orth):
    clf, data = trained_triple
    calls = []
    original = hmodel._objective_on_params
    monkeypatch.setattr(hmodel, "_objective_on_params", lambda *a: calls.append(1) or original(*a))
    refine_global(clf, data, lambda_orth=lambda_orth, epochs=7)
    assert len(calls) == 1 + 7


@pytest.mark.parametrize("lambda_orth", [0.0, 0.5])
def test_refine_restricts_each_node_once(trained_triple, monkeypatch, lambda_orth):
    clf, data = trained_triple
    calls = []
    original = LabeledDataset.restrict
    monkeypatch.setattr(LabeledDataset, "restrict", lambda self, ids: calls.append(1) or original(self, ids))
    refine_global(clf, data, lambda_orth=lambda_orth, epochs=7)
    assert len(calls) == len(clf.models)


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
    first = exhaustive_search(train, val, HierTrainConfig(seed=3), metric="accuracy")
    again = exhaustive_search(train, val, HierTrainConfig(seed=3), metric="accuracy")
    assert first.table == again.table
    assert first.best_tree == again.best_tree


FAST_CFG = HierTrainConfig(
    erm=ErmConfig(epochs=10, learning_rate=0.1),
    encoder=EncoderConfig(hidden_dim=6, latent_dim=2),
    pretrain=SgdConfig(epochs=8, batch_size=32, learning_rate=0.1),
    seed=5,
)


def _search_split(k):
    catalog = Catalog(tuple("abcde"[:k]))
    rest = {3: [leaf(2)], 4: [internal([leaf(2), leaf(3)])], 5: [internal([leaf(2), leaf(3)]), leaf(4)]}[k]
    planted = internal([internal([leaf(0), leaf(1)]), *rest])
    data = generate_planted(PlantedSpec(catalog, planted, 6, 40, (6.0, 2.0), 2.0), seed=k)
    return split(data, (0.7, 0.3), seed=k, stratified=True)


def _plain_search(train, val, cfg):
    """The plain search: train and score every tree on its own."""
    rows = []
    for tree in enumerate_hierarchies(range(len(train.catalog))):
        clf = _plain_hierarchy(tree, train, cfg)
        preds = predict_batch(clf, val.features)
        rows.append((tree, clf, float(np.mean(preds == val.labels))))
    return rows


@pytest.mark.parametrize("k, rep_mode", [(3, "keep"), (4, "keep")])  # rep_mode: the form perfbench/workloads.py uses
def test_planned_search_equals_training_every_tree(monkeypatch, k, rep_mode):
    train, val = _search_split(k)
    cfg = replace(FAST_CFG, rep_mode=rep_mode)
    plain = _plain_search(train, val, cfg)
    composed = []
    real_predict = hmodel.predict_batch

    def spy(classifier, x):
        composed.append(classifier)
        return real_predict(classifier, x)

    monkeypatch.setattr(hmodel, "predict_batch", spy)
    result = exhaustive_search(train, val, cfg, metric="accuracy")
    assert result.table == tuple((row[0], row[2]) for row in plain)  # bit-equal scores
    assert len(composed) == len(plain)
    assert all(same_classifier(c, row[1]) for c, row in zip(composed, plain))


def _count_stacks(monkeypatch):
    """Count stacked scratch-encoder and ERM calls and their members, the
    ERM groupings and the stack members and scorers that train them, with
    each ERM stack's row counts."""
    calls = {"encoder_stacks": 0, "encoders": 0, "erm_stacks": 0, "erms": 0, "members": 0, "scorers": 0}
    erm_rows = []
    real_autoencoders, real_erms = hmodel.train_autoencoder_stack, hmodel.train_node_erm_stack
    real_blocks = hmodel._blocks

    def count_autoencoders(data, *args):
        calls["encoder_stacks"] += 1
        calls["encoders"] += len(data)
        return real_autoencoders(data, *args)

    def count_erms(encoders, features, labels, partitions, *args):
        calls["erm_stacks"] += 1
        calls["erms"] += sum(len(parts) for parts in partitions)
        erm_rows.append({len(f) for f in features})
        return real_erms(encoders, features, labels, partitions, *args)

    def count_blocks(partitions):
        out = real_blocks(partitions)
        calls["members"] += 1
        calls["scorers"] += len(out)
        return out

    monkeypatch.setattr(hmodel, "train_autoencoder_stack", count_autoencoders)
    monkeypatch.setattr(hmodel, "train_node_erm_stack", count_erms)
    monkeypatch.setattr(hmodel, "_blocks", count_blocks)
    return calls, erm_rows


def test_search_trains_each_distinct_node_once(monkeypatch):
    # 2^k-k-1 concept sets in one stack, whatever their row counts;
    # sum C(k,s)(B_s-1) groupings in one stack, whatever their child counts,
    # trained by one member per concept set, which holds its 2^s-2 distinct
    # children: 50 and 180 scorers, where the groupings have 84 and 440 children
    for k, sets, groupings, blocks in [(4, 11, 36, 50), (5, 26, 171, 180)]:
        train, val = _search_split(k)
        with monkeypatch.context() as patch:
            calls, _ = _count_stacks(patch)
            exhaustive_search(train, val, FAST_CFG, cap=k)
        assert calls == {"encoder_stacks": 1, "encoders": sets, "erm_stacks": 1, "erms": groupings,
                         "members": sets, "scorers": blocks}


def _unequal_split(supports=(28, 20, 28, 14)):
    """The K=4 search split with the given concept supports."""
    train, val = _search_split(4)
    keep = dict(enumerate(supports))
    rows = np.concatenate([np.flatnonzero(train.labels == c)[:n] for c, n in keep.items()])
    train = train.take(rows)
    assert train.support() == keep
    return train, val


def test_search_on_unequal_supports_equals_training_every_tree(monkeypatch):
    train, val = _unequal_split()
    plain = _plain_search(train, val, FAST_CFG)
    calls, erm_rows = _count_stacks(monkeypatch)
    result = exhaustive_search(train, val, FAST_CFG)
    assert result.table == tuple((row[0], row[2]) for row in plain)
    # one stack each, though the 11 concept sets have 8 distinct row
    # counts (4 among pairs, 3 among triples) and the 36 groupings fall
    # into 13 (row count, child count) pairs
    assert calls == {"encoder_stacks": 1, "encoders": 11, "erm_stacks": 1, "erms": 36, "members": 11, "scorers": 50}
    assert erm_rows == [{34, 42, 48, 56, 62, 70, 76, 90}]


def test_search_through_matrix_vector_steps_equals_training_every_tree(monkeypatch):
    # supports 28, 20, 28 and 17 put (a,b,d) and (b,c,d) at 65 rows, whose
    # last batch of 32 holds one row: numpy would take a matrix-vector
    # product there, so each of their 4 partitions trains as its own member,
    # 8 members with 18 scorers in place of 2 with 12
    train, val = _unequal_split((28, 20, 28, 17))
    plain = _plain_search(train, val, FAST_CFG)
    calls, erm_rows = _count_stacks(monkeypatch)
    composed, real_predict = [], hmodel.predict_batch
    monkeypatch.setattr(hmodel, "predict_batch", lambda clf, x: composed.append(clf) or real_predict(clf, x))
    result = exhaustive_search(train, val, FAST_CFG)
    assert result.table == tuple((row[0], row[2]) for row in plain)
    assert len(composed) == len(plain) and all(same_classifier(c, row[1]) for c, row in zip(composed, plain))
    assert calls == {"encoder_stacks": 1, "encoders": 11, "erm_stacks": 1, "erms": 36, "members": 17, "scorers": 56}
    assert 65 in erm_rows[0] and FAST_CFG.erm.batch_size == 32


# children listed out of canonical order, which construction sorts
_T = internal([internal([leaf(3), leaf(2)]), internal([leaf(1), leaf(0)])])
_U = internal([internal([leaf(2), leaf(0)]), leaf(3), leaf(1)])
_V = internal([leaf(3), internal([leaf(2), internal([leaf(1), leaf(0)])])])


# (((a,b),c),d) and ((a,(b,c)),d): the root has children ((a,b,c), (d)) in
# both, but under artifacts (a,b,c), and so the root, takes the encoder of
# (a,b) in one and of (b,c) in the other
_NESTED = [internal([internal([internal([leaf(0), leaf(1)]), leaf(2)]), leaf(3)]),
           internal([internal([leaf(0), internal([leaf(1), leaf(2)])]), leaf(3)])]
# the last tree before _NESTED equals _V, its children listed another way
_TREES = [_T, _U, _T, _V, flat_tree(4), internal([internal([internal([leaf(0), leaf(1)]), leaf(2)]), leaf(3)]),
          *_NESTED]
FAST_AFF_CFG = AffinityConfig(
    encoder=EncoderConfig(hidden_dim=6, latent_dim=2),
    pretrain=SgdConfig(epochs=8, batch_size=32, learning_rate=0.1),
    warmup=SgdConfig(epochs=4, batch_size=16, learning_rate=0.1),
    budget=16,
    seed=5,
)


@pytest.fixture(scope="module")
def k4_artifacts():
    train, _ = _search_split(4)
    return train, build_affinity_artifacts(train, FAST_AFF_CFG)


def _assert_table_equals_plain_hierarchies(trees, train, cfg, artifacts=None):
    shared = hmodel.train_hierarchies(trees, train, cfg, artifacts)
    assert len(shared) == len(trees)
    for tree, clf in zip(trees, shared):
        alone = _plain_hierarchy(tree, train, cfg, artifacts)
        assert same_classifier(clf, alone)
    return shared


@pytest.mark.parametrize("rep_mode", ["keep"])  # the explicit form perfbench/workloads.py uses
def test_train_hierarchies_equals_training_each_tree(rep_mode):
    train, _ = _search_split(4)
    _assert_table_equals_plain_hierarchies(_TREES, train, replace(FAST_CFG, rep_mode=rep_mode))


@pytest.mark.parametrize("rep_mode", ["keep"])  # the explicit form perfbench/workloads.py uses
def test_train_hierarchies_with_artifacts_equals_training_each_tree(k4_artifacts, rep_mode):
    train, artifacts = k4_artifacts
    shared = _assert_table_equals_plain_hierarchies(_TREES, train, replace(FAST_CFG, rep_mode=rep_mode), artifacts)
    first, second = shared[-2].models, shared[-1].models
    for key in ((0, 1, 2), (0, 1, 2, 3)):  # the encoders differ, and so do the root's scorers
        assert not np.array_equal(first[key].encoder.layers[0].weights, second[key].encoder.layers[0].weights)
    assert not np.array_equal(first[0, 1, 2, 3].scorer_weights, second[0, 1, 2, 3].scorer_weights)


@pytest.mark.parametrize("with_artifacts", [False, True], ids=["scratch", "artifacts"])
def test_unknown_rep_mode_is_rejected(k4_artifacts, with_artifacts):
    train, artifacts = k4_artifacts
    for mode in ("fuse", "fusee"):  # a flat classifier comes from the flat tree
        with pytest.raises(ValueError, match=f"^rep_mode must be 'keep', got '{mode}'; for a flat classifier, "
                                             "train the flat tree$"):
            train_hierarchical(_T, train, replace(FAST_CFG, rep_mode=mode), artifacts if with_artifacts else None)
        with pytest.raises(ValueError, match="^rep_mode must"):
            HierTrainConfig(rep_mode=mode)


def test_train_hierarchies_trains_each_concept_set_once(monkeypatch):
    train, _ = _search_split(4)
    calls, _ = _count_stacks(monkeypatch)
    hmodel.train_hierarchies([_T, _T, _U], train, FAST_CFG)
    # concept sets {0,1,2,3}, {2,3}, {0,1} and {0,2} in one stack; the root
    # splits two ways and three ways, the pairs two ways, all in one stack,
    # the root's member training its 5 distinct children {0,1}, {2,3}, {0,2}, {1}, {3}
    assert calls == {"encoder_stacks": 1, "encoders": 4, "erm_stacks": 1, "erms": 5, "members": 4, "scorers": 11}


def test_diverging_scratch_encoder_names_its_concept_set():
    train, _ = _search_split(4)
    features = train.features.copy()
    features[train.labels == 3] += 200.0  # a mean square of about 4e4 on the rows of d
    wild = LabeledDataset(features, train.labels, train.catalog)
    # no epochs, just the initial check: of the stack {a, b, c, d}, {a, b},
    # {c, d}, the root (d a quarter of its rows) passes and only {c, d} (half) fails
    cfg = replace(FAST_CFG, pretrain=SgdConfig(epochs=0, divergence_limit=1.5e4))
    tree = internal([internal([leaf(0), leaf(1)]), internal([leaf(2), leaf(3)])])
    with pytest.raises(NumericError, match=r"scratch encoder of concept set \['c', 'd'\]: .*stack member 2"):
        hmodel.train_hierarchies([tree], wild, cfg)


@pytest.mark.parametrize(
    "tree",
    [internal([internal([leaf(0), leaf(1)]), internal([leaf(2), leaf(3)])]),
     internal([leaf(0), leaf(1), leaf(2), leaf(3)])],
    ids=["pairs", "flat"],
)
def test_concept_without_rows_is_named(tree):
    train, _ = _search_split(4)
    keep = train.labels != 2
    no_c = LabeledDataset(train.features[keep], train.labels[keep], train.catalog)
    with pytest.raises(DataError, match=r"no training rows of concepts \['c'\]$"):
        train_hierarchical(tree, no_c, FAST_CFG)


def test_training_names_every_concept_without_rows():
    # a search's many trees, or the node problems of several trees, get one
    # error naming each concept without rows, before any node trains
    train, _ = _search_split(4)
    keep = np.isin(train.labels, [0, 2])
    only_a_c = LabeledDataset(train.features[keep], train.labels[keep], train.catalog)
    with pytest.raises(DataError, match=r"no training rows of concepts \['b', 'd'\]$"):
        hmodel.train_hierarchies(enumerate_hierarchies(range(4)), only_a_c, FAST_CFG)


def test_one_concept_is_no_classifier():
    one = LabeledDataset(np.eye(4), np.zeros(4, dtype=int), Catalog(("a",)))
    with pytest.raises(DataError, match="a classifier separates at least 2 concepts, the data has 1$"):
        train_hierarchical(leaf(0), one, FAST_CFG)
    with pytest.raises(ValueError, match="at least 2 concepts, its tree has 1$"):
        HierarchicalClassifier(leaf(0), Catalog(("a",)), {})
    with pytest.raises(DataError, match="bad classifier JSON: .*at least 2 concepts"):
        classifier_from_json({"format": "hierclass-classifier-v2", "concepts": ["a"], "tree": "a", "nodes": []})


@pytest.mark.parametrize("mismatch", ["reordered catalog", "narrower data"])
def test_data_off_the_classifier_is_a_data_error(pair_tree, pair_data, mismatch):
    # unchecked, a K=4 classifier's own rows under the reversed catalog read
    # accuracy 0.0 without an error, and refinement on fewer features failed
    # inside numpy's matmul
    data = pair_data.take(np.arange(0, len(pair_data), 4))
    clf = train_hierarchical(pair_tree, data, FAST_CFG)
    if mismatch == "reordered catalog":
        off = LabeledDataset(data.features, data.labels, Catalog(("D", "C", "B", "A")))
        match = r"classifier: concepts \['A', 'B', 'C', 'D'\] expected, the data has \['D', 'C', 'B', 'A'\]$"
    else:
        off = LabeledDataset(data.features[:, :6], data.labels, data.catalog)
        match = "classifier: 10 features expected, the data has 6$"
    for call in (evaluate, refine_global):
        with pytest.raises(DataError, match=match):
            call(clf, off)


@pytest.mark.parametrize("absent", [("C", "D"), ("D",)])
def test_refining_on_data_without_rows_of_a_concept_is_a_data_error(pair_tree, pair_data, absent):
    # unchecked, data without c and d failed in LabeledDataset naming no
    # concept, and data without d alone refined d's scorer on negative rows
    data = pair_data.take(np.arange(0, len(pair_data), 4))
    clf = train_hierarchical(pair_tree, data, FAST_CFG)
    cut = data.restrict([cid for cid, name in enumerate(data.catalog.names) if name not in absent])
    with pytest.raises(DataError, match=rf"^no training rows of concepts {re.escape(str(list(absent)))}$"):
        refine_global(clf, cut, epochs=1)


# --- serialization ---------------------------------------------------------------


def test_classifier_json_roundtrip(trained_triple):
    clf, _ = trained_triple
    obj = json.loads(json.dumps(classifier_to_json(clf)))
    back = classifier_from_json(obj)
    assert json.dumps(classifier_to_json(back), sort_keys=True) == json.dumps(
        classifier_to_json(clf), sort_keys=True
    )


def test_node_models_and_classifiers_compare_by_value(trained_triple):
    clf, _ = trained_triple
    back = classifier_from_json(json.loads(json.dumps(classifier_to_json(clf))))
    assert back == clf and all(back.models[key] == model for key, model in clf.models.items())
    key = node_key(clf.tree)
    w = clf.models[key].scorer_weights.copy()
    w[0, 0] = np.nextafter(w[0, 0], -np.inf)  # one ulp in one scorer weight
    bumped = replace(clf.models[key], scorer_weights=w)
    assert bumped != clf.models[key] and replace(clf, models={**clf.models, key: bumped}) != clf
    with pytest.raises(TypeError, match="unhashable"):
        hash(bumped)


FINITE = st.floats(allow_nan=False, allow_infinity=False)  # the whole finite range: -0.0, subnormals, extremes


@st.composite
def classifiers(draw):
    """A classifier over a random tree on K = 2..5 concepts, every node with
    its own encoder widths and activations and arbitrary finite weights."""
    k = draw(st.integers(2, 5))
    tree = sample_hierarchy(range(k), np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    dim = draw(st.integers(1, 4))

    def array(*shape):
        n = int(np.prod(shape))
        return np.array(draw(st.lists(FINITE, min_size=n, max_size=n)), dtype=float).reshape(shape)

    models = {}
    for node in tree.internal_nodes():
        widths = [dim] + draw(st.lists(st.integers(1, 4), min_size=1, max_size=2))
        layers = tuple(Layer(array(o, i), array(o), draw(st.sampled_from(ACTIVATIONS)))
                       for i, o in zip(widths, widths[1:]))
        n = len(node.children)
        models[node_key(node)] = NodeModel(Mlp(layers), array(n, widths[-1]), array(n))
    return HierarchicalClassifier(tree, Catalog(tuple(f"c{i}" for i in range(k))), models)


@settings(max_examples=60, deadline=None)
@given(classifiers(), st.data())
def test_classifier_json_round_trip_is_exact(clf, data):
    back = classifier_from_json(json.loads(json.dumps(classifier_to_json(clf))))
    assert classifier_to_json(back) == classifier_to_json(clf)
    rows = data.draw(st.lists(st.lists(FINITE, min_size=clf.input_dim, max_size=clf.input_dim),
                              min_size=1, max_size=6))

    def outcome(c):  # the labels, or the error for a row whose sums could overflow
        try:
            return predict_batch(c, np.array(rows)).tolist()
        except UnscorableRowError as exc:
            return str(exc)

    assert outcome(back) == outcome(clf)


def test_classifier_json_rejects_unknown_format(trained_triple):
    clf, _ = trained_triple
    obj = classifier_to_json(clf)
    obj["format"] = "other"
    with pytest.raises(DataError, match="format"):
        classifier_from_json(obj)
    obj["format"] = "hierclass-classifier-v1"  # v1 nodes carried their own key and children
    with pytest.raises(DataError, match=r"'hierclass-classifier-v1'.*retrain the classifier with `hierclass train`$"):
        classifier_from_json(obj)


def test_classifier_json_lists_one_model_per_internal_node_in_preorder():
    # preorder (0,1,2,3), (0,1,2), (1,2) is not the sorted key order: (0,1,2) sorts first
    tree = internal([internal([leaf(0), internal([leaf(1), leaf(2)])]), leaf(3)])
    nodes = list(tree.internal_nodes())
    assert [node_key(n) for n in nodes] != sorted(node_key(n) for n in nodes)
    models = {node_key(n): _node([[1.0, 0.0], [0.0, 1.0]], [float(i), 0.0]) for i, n in enumerate(nodes)}
    clf = HierarchicalClassifier(tree, Catalog(("a", "b", "c", "d")), models)
    obj = json.loads(json.dumps(classifier_to_json(clf)))
    assert sorted(obj) == ["concepts", "format", "nodes", "tree"]
    assert [sorted(entry) for entry in obj["nodes"]] == [["encoder", "scorer_bias", "scorer_weights"]] * 3
    assert [array_from_json(entry["scorer_bias"])[0] for entry in obj["nodes"]] == [0.0, 1.0, 2.0]
    assert classifier_to_json(classifier_from_json(obj)) == classifier_to_json(clf)


def test_parameter_count_arithmetic(hand_classifier):
    # two nodes, each: identity encoder (3x3 + 3) + scorers (2x3 + 2)
    assert parameter_count(hand_classifier) == 2 * (9 + 3 + 6 + 2)

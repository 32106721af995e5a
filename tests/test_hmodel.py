import itertools
import json
from dataclasses import replace

import numpy as np
import pytest

from conftest import central_difference, rel_err
from hierclass import hmodel
from hierclass.affinity import AffinityConfig, EncoderConfig, build_affinity_artifacts
from hierclass.errors import DataError, NumericError
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
    parameter_count,
    predict,
    predict_batch,
    refine_global,
    route_child,
    train_flat_baseline,
    train_hierarchical,
    train_node_erm,
    train_node_erm_stack,
)
from hierclass.metrics import h_loss
from hierclass.nets import Layer, Mlp, SgdConfig, init_mlp, mlp_forward, params_to_mlp
from hierclass.synth import LabeledDataset, PlantedSpec, generate_planted, split
from hierclass.treespace import Catalog, canonicalize, count_hierarchies, enumerate_hierarchies, internal, leaf


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
    w, b, history = train_node_erm(encoder, features, labels, 2, ErmConfig(), seed=0)
    routed = route_child(_node((0, 1), ((0,), (1,)), w, b), features)
    assert np.array_equal(routed, labels)
    # the returned scorers are the best iterate: risk never above the start
    returned_risk = erm_risk_and_grads(w, b, features, labels, ErmConfig().l2)[0]
    assert returned_risk == min(history) <= history[0]


def test_train_node_erm_rejects_empty_child_group():
    encoder = _identity_encoder(3)
    with pytest.raises(DataError, match="empty child"):
        train_node_erm(encoder, np.zeros((4, 3)), np.array([0, 0, 0, 0]), 2, ErmConfig(), seed=0)
    with pytest.raises(DataError, match="empty child group.* in stack member 1"):
        train_node_erm(encoder, np.zeros((4, 3)), np.array([[0, 1, 0, 1], [0, 0, 0, 0]]), 2, ErmConfig(), seed=0)


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
    child_idx = np.stack([g[concepts] for g in groupings])
    w, b, history = train_node_erm(encoder, features, child_idx, n_children, cfg, seed=7)
    assert w.shape == (expected, n_children, 3) and b.shape == (expected, n_children)
    assert len(history) == cfg.epochs + 1 and history[0].shape == (expected,)
    for p, idx in enumerate(child_idx):
        w1, b1, h1 = train_node_erm(encoder, features, idx, n_children, cfg, seed=7)
        assert np.array_equal(w[p], w1) and np.array_equal(b[p], b1)
        assert [h[p] for h in history] == h1
    # a stack of one is the one-member call
    w1, b1, h1 = train_node_erm(encoder, features, child_idx[:1], n_children, cfg, seed=7)
    assert np.array_equal(w1[0], w[0]) and np.array_equal(b1[0], b[0])
    assert [h[0] for h in h1] == [h[0] for h in history]


def _plain_node_erm(encoder, features, child_idx, n_children, cfg, seed):
    """One node's ERM loop with every step and risk from erm_risk_and_grads."""
    z = mlp_forward(encoder, features)
    w = np.zeros((n_children, z.shape[1]))
    b = np.zeros(n_children)
    rng = np.random.default_rng(seed)
    history = [erm_risk_and_grads(w, b, z, child_idx, cfg.l2)[0]]
    best = (history[0], w.copy(), b.copy())
    for _ in range(cfg.epochs):
        order = rng.permutation(z.shape[0])
        for start in range(0, z.shape[0], cfg.batch_size):
            rows = order[start : start + cfg.batch_size]
            _, dw, db, _ = erm_risk_and_grads(w, b, z[rows], child_idx[rows], cfg.l2)
            w -= cfg.learning_rate * dw
            b -= cfg.learning_rate * db
        history.append(erm_risk_and_grads(w, b, z, child_idx, cfg.l2)[0])
        if history[-1] < best[0]:
            best = (history[-1], w.copy(), b.copy())
    return best[1], best[2], history


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
        problems.append((encoder, features, np.stack([grp[concepts] for grp in groupings]), 30 + g))
    plain = [
        [_plain_node_erm(enc, f, idx, 3, cfg, seed) for idx in child_idx]
        for enc, f, child_idx, seed in problems
    ]
    enc, f, child_idx, seed = problems[0]
    w, b, history = train_node_erm(enc, f, child_idx[0], 3, cfg, seed)  # the one-problem call
    assert np.array_equal(w, plain[0][0][0]) and np.array_equal(b, plain[0][0][1]) and history == plain[0][0][2]
    for order in ([0, 1, 2], [2, 0, 1], [1]):  # permuted, and a stack of one
        encoders, features, child_idx, seeds = zip(*[problems[g] for g in order])
        stacked = train_node_erm_stack(encoders, features, child_idx, 3, cfg, seeds)
        assert len(stacked) == len(order)
        for g, (w, b, history) in zip(order, stacked):
            assert w.shape == (len(plain[g]), 3, 3) and len(history) == cfg.epochs + 1
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


@pytest.mark.parametrize("rep_mode", ["keep", "fuse"])
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


def _two_branch_refine_global(
    classifier, dataset, lambda_orth=0.1, epochs=30, learning_rate=0.1, l2=1e-3, freeze_encoders=False
):
    """Reference: the refinement loop as it was before its two branches were
    merged, with three objective evaluations per epoch at lambda_orth = 0."""
    from hierclass.hmodel import RefineResult, _node_state, _objective_on_params

    if lambda_orth < 0:
        raise ValueError("lambda_orth must be nonnegative")
    params, problems = _node_state(classifier, dataset)
    keys = list(params)

    def masked(update_grads):
        if not freeze_encoders:
            return update_grads
        return {
            key: [[np.zeros_like(w), np.zeros_like(b)] for w, b in pairs[:-1]] + [update_grads[key][-1]]
            for key, pairs in params.items()
        }

    def objective(p):
        return _objective_on_params(classifier, problems, lambda_orth, l2, p)

    total, grads, risks0, penalty = objective(params)
    obj_history = [total]
    pen_history = [penalty]

    if lambda_orth == 0.0:
        rates = {key: learning_rate for key in keys}
        for _ in range(epochs):
            grads = masked(grads)
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
            grads = masked(grads)
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
    {"lambda_orth": 0.0, "freeze_encoders": True},
    {"lambda_orth": 0.5, "freeze_encoders": True},
]


# at rate 10 steps are rejected and rates halve (lambda > 0: 3-7 of 12 epochs keep a flat objective)
@pytest.mark.parametrize("learning_rate", [0.1, 10.0])
@pytest.mark.parametrize("mode", REFINE_MODES, ids=lambda m: "-".join(f"{k}={v}" for k, v in m.items()))
def test_refine_equals_two_branch_reference(trained_triple, mode, learning_rate):
    clf, data = trained_triple
    got = refine_global(clf, data, epochs=12, learning_rate=learning_rate, **mode)
    want = _two_branch_refine_global(clf, data, epochs=12, learning_rate=learning_rate, **mode)
    assert classifiers_equal(got.classifier, want.classifier)
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


FAST_CFG = HierTrainConfig(
    erm=ErmConfig(epochs=10, learning_rate=0.1),
    encoder=EncoderConfig(hidden_dim=6, latent_dim=2),
    pretrain=SgdConfig(epochs=8, batch_size=32, learning_rate=0.1),
    seed=5,
)


def _search_split(k):
    catalog = Catalog(tuple("abcd"[:k]))
    planted = internal([internal([leaf(0), leaf(1)]), *([leaf(2)] if k == 3 else [internal([leaf(2), leaf(3)])])])
    data = generate_planted(PlantedSpec(catalog, planted, 6, 40, (6.0, 2.0), 2.0), seed=k)
    return split(data, (0.7, 0.3), seed=k, stratified=True)


def _plain_search(train, val, cfg):
    """The plain search: train and score every tree on its own."""
    rows = []
    for tree in enumerate_hierarchies(range(len(train.catalog))):
        clf = train_hierarchical(tree, train, cfg)
        preds = predict_batch(clf, val.features)
        accuracy = float(np.mean(preds == val.labels))
        neg_h = -float(np.mean([h_loss(clf.tree, int(p), int(t)) for p, t in zip(preds, val.labels)]))
        rows.append((tree, clf, accuracy, neg_h))
    return rows


@pytest.mark.parametrize("k, rep_mode", [(3, "keep"), (4, "keep"), (4, "fuse")])
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
    for metric, column in (("accuracy", 2), ("neg_h_loss", 3)):
        composed.clear()
        result = exhaustive_search(train, val, cfg, metric=metric)
        # bit-equal scores, neg_h_loss included: its K x K table mean equals the per-row mean
        assert result.table == tuple((row[0], row[column]) for row in plain)
        assert len(composed) == len(plain)
        assert all(classifiers_equal(c, row[1]) for c, row in zip(composed, plain))


def _count_stacks(monkeypatch):
    """Count stacked scratch-encoder and ERM calls and their members, with
    each ERM stack's row counts."""
    calls = {"encoder_stacks": 0, "encoders": 0, "erm_stacks": 0, "erms": 0}
    erm_rows = []
    real_autoencoders, real_erms = hmodel.train_autoencoder_stack, hmodel.train_node_erm_stack

    def count_autoencoders(data, *args):
        calls["encoder_stacks"] += 1
        calls["encoders"] += len(data)
        return real_autoencoders(data, *args)

    def count_erms(encoders, features, child_idx, *args):
        calls["erm_stacks"] += 1
        calls["erms"] += sum(len(idx) for idx in child_idx)
        erm_rows.append({len(f) for f in features})
        return real_erms(encoders, features, child_idx, *args)

    monkeypatch.setattr(hmodel, "train_autoencoder_stack", count_autoencoders)
    monkeypatch.setattr(hmodel, "train_node_erm_stack", count_erms)
    return calls, erm_rows


def test_search_trains_each_distinct_node_once(monkeypatch):
    train, val = _search_split(4)
    calls, _ = _count_stacks(monkeypatch)
    exhaustive_search(train, val, FAST_CFG)
    # 2^4-4-1 concept sets in one stack per set size (balanced rows);
    # sum C(4,s)(B_s-1) groupings in one stack per (set size, child count)
    assert calls == {"encoder_stacks": 3, "encoders": 11, "erm_stacks": 6, "erms": 36}


def _unequal_split():
    """The K=4 search split with concept supports 28, 20, 28 and 14."""
    train, val = _search_split(4)
    keep = {0: 28, 1: 20, 2: 28, 3: 14}
    rows = np.concatenate([np.flatnonzero(train.labels == c)[:n] for c, n in keep.items()])
    train = train.take(rows)
    assert train.support() == keep
    return train, val


def test_search_on_unequal_supports_equals_training_every_tree(monkeypatch):
    train, val = _unequal_split()
    plain = _plain_search(train, val, FAST_CFG)
    calls, erm_rows = _count_stacks(monkeypatch)
    for metric, column in (("accuracy", 2), ("neg_h_loss", 3)):
        calls.update(dict.fromkeys(calls, 0))
        result = exhaustive_search(train, val, FAST_CFG, metric=metric)
        assert result.table == tuple((row[0], row[column]) for row in plain)
        # stacks split by row count: the 11 concept sets have 8 distinct row
        # counts (4 among pairs, 3 among triples), and the 36 groupings fall
        # into 13 (row count, child count) pairs
        assert calls == {"encoder_stacks": 8, "encoders": 11, "erm_stacks": 13, "erms": 36}
    assert all(len(rows) == 1 for rows in erm_rows)


# children deliberately out of canonical order
_T = internal([internal([leaf(3), leaf(2)]), internal([leaf(1), leaf(0)])])
_U = internal([internal([leaf(2), leaf(0)]), leaf(3), leaf(1)])
_V = internal([leaf(3), internal([leaf(2), internal([leaf(1), leaf(0)])])])


@pytest.mark.parametrize("rep_mode", ["keep", "fuse"])
def test_train_hierarchies_equals_training_each_tree(rep_mode):
    train, _ = _search_split(4)
    cfg = replace(FAST_CFG, rep_mode=rep_mode)
    trees = [_T, _U, _T, _V, flat_tree(4), canonicalize(_V)]
    shared = hmodel.train_hierarchies(trees, train, cfg)
    assert len(shared) == len(trees)
    for tree, clf in zip(trees, shared):
        alone = train_hierarchical(tree, train, cfg)
        assert classifiers_equal(clf, alone)
        assert clf.provenance == alone.provenance


def test_train_hierarchies_trains_each_concept_set_once(monkeypatch):
    train, _ = _search_split(4)
    calls, _ = _count_stacks(monkeypatch)
    hmodel.train_hierarchies([_T, _T, _U], train, FAST_CFG)
    # concept sets {0,1,2,3}, then {2,3}, {0,1}, {0,2} of equal size in one stack;
    # the root splits two ways and three ways, the pairs two ways in one stack
    assert calls == {"encoder_stacks": 2, "encoders": 4, "erm_stacks": 3, "erms": 5}


def test_diverging_scratch_encoder_names_its_concept_set():
    train, _ = _search_split(4)
    features = train.features.copy()
    features[train.labels == 3] += 200.0  # a mean square of about 4e4 on the rows of d
    wild = LabeledDataset(features, train.labels, train.catalog)
    # no epochs, just the initial check: the root (d a quarter of its rows)
    # passes, and of the stack {a, b}, {c, d} only {c, d} (half) fails
    cfg = replace(FAST_CFG, pretrain=SgdConfig(epochs=0, divergence_limit=1.5e4))
    tree = internal([internal([leaf(0), leaf(1)]), internal([leaf(2), leaf(3)])])
    with pytest.raises(NumericError, match=r"scratch encoder of concept set \['c', 'd'\]: .*stack member 1"):
        hmodel.train_hierarchies([tree], wild, cfg)


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

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierclass.errors import DataError
from hierclass.hmodel import (
    HierarchicalClassifier,
    HierTrainConfig,
    NodeModel,
    node_key,
    predict_batch,
    route_child,
    train_hierarchical,
)
from hierclass.metrics import (
    charged_nodes,
    cohen_kappa,
    confusion_to_csv,
    evaluate,
    EvalReport,
    h_loss,
    h_loss_table,
    hierarchy_agreement,
    node_index,
    node_indicator,
    pair_groupings,
    report_to_csv,
    report_to_json,
)
from hierclass.nets import Layer, Mlp
from hierclass.synth import LabeledDataset, PlantedSpec, generate_planted, split
from hierclass.treespace import Catalog, enumerate_hierarchies, internal, leaf


def brute_force_h_loss(tree, predicted, true):
    """Literal evaluation of the indicator formula over explicit vectors."""
    index = node_index(tree)
    y_hat = node_indicator(tree, predicted)
    y = node_indicator(tree, true)
    total = 0
    for i in range(index.count):
        if y_hat[i] != y[i] and all(y_hat[j] == y[j] for j in index.ancestors[i]):
            total += 1
    return total


DEPTH3 = internal(
    [
        internal([internal([leaf(0), leaf(1)]), leaf(2)]),
        internal([leaf(3), internal([leaf(4), leaf(5)])]),
    ]
)


def test_h_loss_identical_leaves():
    assert h_loss(DEPTH3, 4, 4) == 0


def test_h_loss_sibling_confusion_is_two():
    assert h_loss(DEPTH3, 0, 1) == 2
    assert h_loss(DEPTH3, 4, 5) == 2


def test_h_loss_divergence_at_root_is_two_regardless_of_depth():
    # 0 and 5 sit three levels deep on opposite sides of the root
    assert h_loss(DEPTH3, 0, 5) == 2
    assert h_loss(DEPTH3, 5, 0) == 2


def test_h_loss_charges_form_an_antichain():
    index = node_index(DEPTH3)
    for pred in range(6):
        for true in range(6):
            charged = charged_nodes(DEPTH3, pred, true)
            for i in charged:
                for j in charged:
                    assert i not in index.ancestors[j] or i == j


def test_h_loss_matches_brute_force_over_all_k4_trees():
    for tree in enumerate_hierarchies(range(4)):
        for pred in range(4):
            for true in range(4):
                assert h_loss(tree, pred, true) == brute_force_h_loss(tree, pred, true)


def test_h_loss_table_matches_h_loss_over_all_k4_trees():
    trees = enumerate_hierarchies(range(4))
    assert len(trees) == 26
    for tree in trees:
        table = h_loss_table(tree)
        assert table.shape == (4, 4)
        for pred in range(4):
            for true in range(4):
                assert table[pred, true] == h_loss(tree, pred, true)


def test_h_loss_table_equals_the_per_pair_table_over_all_trees_up_to_k5():
    for k in range(2, 6):
        for tree in enumerate_hierarchies(range(k)):
            per_pair = np.array([[h_loss(tree, p, t) for t in range(k)] for p in range(k)], dtype=int)
            table = h_loss_table(tree)
            assert table.dtype == per_pair.dtype and np.array_equal(table, per_pair)


def test_h_loss_symmetric_in_leaves():
    for pred in range(6):
        for true in range(6):
            assert h_loss(DEPTH3, pred, true) == h_loss(DEPTH3, true, pred)


def test_h_loss_unknown_leaf():
    with pytest.raises(DataError):
        h_loss(DEPTH3, 0, 9)


# --- Cohen's kappa -----------------------------------------------------------


def test_kappa_identical_sequences():
    assert cohen_kappa(["a", "b", "a"], ["a", "b", "a"]) == 1.0


def test_kappa_constructed_point_seven_point_five():
    # n=20, both marginals 50/50 (p_e = 0.5), 14 agreements (p_o = 0.7)
    a = ["x"] * 10 + ["y"] * 10
    b = ["x"] * 7 + ["y"] * 3 + ["y"] * 7 + ["x"] * 3
    assert sum(x == y for x, y in zip(a, b)) == 14
    assert cohen_kappa(a, b) == pytest.approx((0.7 - 0.5) / 0.5)


def test_kappa_conventions():
    assert cohen_kappa(["a", "a"], ["a", "a"]) == 1.0  # p_e = 1 by convention
    assert cohen_kappa(["a", "a"], ["b", "b"]) == 0.0
    with pytest.raises(ValueError):
        cohen_kappa([], [])
    with pytest.raises(ValueError):
        cohen_kappa(["a"], ["a", "b"])


def test_kappa_independent_raters_near_zero():
    rng = np.random.default_rng(0)
    a = rng.integers(0, 4, size=10000).tolist()
    b = rng.integers(0, 4, size=10000).tolist()
    assert abs(cohen_kappa(a, b)) < 0.05


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=2, max_size=40))
def test_kappa_invariant_under_relabeling(pairs):
    a = [p[0] for p in pairs]
    b = [p[1] for p in pairs]
    relabel = {0: "w", 1: "x", 2: "y", 3: "z"}
    assert cohen_kappa(a, b) == pytest.approx(
        cohen_kappa([relabel[v] for v in a], [relabel[v] for v in b])
    )


# --- hierarchy agreement -----------------------------------------------------


def test_agreement_with_self_is_one():
    for tree in enumerate_hierarchies(range(4)):
        assert hierarchy_agreement(tree, tree) == 1.0


def test_agreement_disjoint_groupings_negative():
    ab_cd = internal([internal([leaf(0), leaf(1)]), internal([leaf(2), leaf(3)])])
    ac_bd = internal([internal([leaf(0), leaf(2)]), internal([leaf(1), leaf(3)])])
    assert hierarchy_agreement(ab_cd, ac_bd) == pytest.approx(-0.5)


def test_agreement_binary_vs_flat_direct_computation():
    binary = internal([internal([leaf(0), leaf(1)]), internal([leaf(2), leaf(3)])])
    flat = internal([leaf(0), leaf(1), leaf(2), leaf(3)])
    ga = pair_groupings(binary)
    gb = pair_groupings(flat)
    pairs = sorted(ga)
    expected = cohen_kappa([ga[p] for p in pairs], [gb[p] for p in pairs])
    assert hierarchy_agreement(binary, flat) == expected
    # flat rates every pair ungrouped
    assert set(gb.values()) == {0}


def test_agreement_requires_same_catalog():
    with pytest.raises(DataError):
        hierarchy_agreement(internal([leaf(0), leaf(1)]), internal([leaf(0), leaf(2)]))


# --- full evaluation ---------------------------------------------------------


def _identity_encoder(dim):
    return Mlp((Layer(np.eye(dim), np.zeros(dim), "identity"),))


def _manual_classifier(scorers_by_key, tree, catalog, dim):
    models = {}
    for node in tree.internal_nodes():
        key = node_key(node)
        w, b = scorers_by_key[key]
        models[key] = NodeModel(
            encoder=_identity_encoder(dim),
            scorer_weights=np.array(w, dtype=float),
            scorer_bias=np.array(b, dtype=float),
            child_keys=tuple(node_key(c) for c in node.children),
        )
    return HierarchicalClassifier(tree=tree, catalog=catalog, models=models)


@pytest.fixture
def onehot_dataset():
    catalog = Catalog(("c1", "c2", "c3"))
    labels = np.array([0, 0, 1, 1, 1, 2])
    features = np.eye(3)[labels]
    return LabeledDataset(features, labels, catalog)


@pytest.fixture
def perfect_classifier(onehot_dataset):
    tree = internal([internal([leaf(0), leaf(1)]), leaf(2)])
    scorers = {
        (0, 1, 2): ([[1, 1, 0], [0, 0, 1]], [0, 0]),
        (0, 1): ([[1, 0, 0], [0, 1, 0]], [0, 0]),
    }
    return _manual_classifier(scorers, tree, onehot_dataset.catalog, 3)


def test_evaluate_perfect_classifier(onehot_dataset, perfect_classifier):
    report = evaluate(perfect_classifier, onehot_dataset)
    assert report.accuracy == 1.0
    assert report.mean_h_loss == 0.0
    assert np.array_equal(report.confusion, np.diag([2, 3, 1]))
    assert all(row["accuracy"] == 1.0 for row in report.per_node)
    assert all(row["f1"] == 1.0 for row in report.per_concept)


def test_evaluate_constant_classifier(onehot_dataset):
    tree = internal([leaf(0), leaf(1), leaf(2)])
    scorers = {(0, 1, 2): ([[0, 0, 0], [0, 0, 0], [0, 0, 0]], [0, 10, -10])}
    clf = _manual_classifier(scorers, tree, onehot_dataset.catalog, 3)
    report = evaluate(clf, onehot_dataset)
    assert report.accuracy == pytest.approx(3 / 6)  # support of c2 over N
    assert report.confusion[:, 1].sum() == 6


def test_evaluate_f1_matches_independent_recomputation(onehot_dataset):
    # deliberately weak scorers so the confusion matrix is nontrivial
    tree = internal([leaf(0), leaf(1), leaf(2)])
    scorers = {(0, 1, 2): ([[1, 0, 0], [0, 0, 0], [0, 1, 1]], [0, 0.5, 0])}
    clf = _manual_classifier(scorers, tree, onehot_dataset.catalog, 3)
    report = evaluate(clf, onehot_dataset)
    from hierclass.hmodel import predict_batch

    preds = predict_batch(clf, onehot_dataset.features)
    for cid, row in enumerate(report.per_concept):
        tp = int(np.sum((preds == cid) & (onehot_dataset.labels == cid)))
        fp = int(np.sum((preds == cid) & (onehot_dataset.labels != cid)))
        fn = int(np.sum((preds != cid) & (onehot_dataset.labels == cid)))
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        assert row["precision"] == pytest.approx(precision)
        assert row["recall"] == pytest.approx(recall)
        assert row["f1"] == pytest.approx(f1)


def test_evaluate_confusion_rows_sum_to_support(onehot_dataset, perfect_classifier):
    report = evaluate(perfect_classifier, onehot_dataset)
    for cid, row in enumerate(report.per_concept):
        assert report.confusion[cid].sum() == row["support"]


def test_evaluate_rejects_empty(onehot_dataset, perfect_classifier):
    with pytest.raises(ValueError):
        evaluate(perfect_classifier, onehot_dataset.take(np.array([], dtype=int)))


def test_report_serialization(onehot_dataset, perfect_classifier):
    report = evaluate(perfect_classifier, onehot_dataset)
    obj = report_to_json(report)
    assert obj["accuracy"] == 1.0
    assert len(obj["confusion"]) == 3
    csv_text = report_to_csv(report)
    assert csv_text.startswith("metric,value")
    for line in csv_text.splitlines()[1:]:  # plain numbers, never a numpy scalar's repr
        float(line.rsplit(",", 1)[1])
    assert all(type(v) in (float, int) for row in report.per_concept for k, v in row.items() if k != "concept")
    conf = confusion_to_csv(report)
    assert conf.splitlines()[0] == "true\\pred,c1,c2,c3"


def _per_row_evaluate(classifier, dataset):
    """Reference report: per-row H-loss, a Python confusion loop and a
    per-row search for each example's child at every node."""
    k = len(dataset.catalog)
    preds = predict_batch(classifier, dataset.features)
    truth = dataset.labels
    accuracy = float(np.mean(preds == truth))
    mean_hl = float(
        np.mean([h_loss(classifier.tree, int(p), int(t)) for p, t in zip(preds, truth)])
    )
    confusion = np.zeros((k, k), dtype=int)
    for t, p in zip(truth, preds):
        confusion[int(t), int(p)] += 1
    per_concept = []
    for cid in range(k):
        tp = confusion[cid, cid]
        support = int(confusion[cid].sum())
        predicted = int(confusion[:, cid].sum())
        precision = tp / predicted if predicted else 0.0
        recall = tp / support if support else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_concept.append(
            {"concept": dataset.catalog.name_of(cid), "precision": precision,
             "recall": recall, "f1": f1, "support": support}
        )
    per_node = []
    for node in classifier.tree.internal_nodes():
        key = node_key(node)
        model = classifier.models[key]
        member_mask = np.isin(truth, key)
        support = int(member_mask.sum())
        routed = route_child(model, dataset.features[member_mask])
        want = np.array(
            [
                next(ci for ci, ck in enumerate(model.child_keys) if int(t) in ck)
                for t in truth[member_mask]
            ]
        )
        per_node.append(
            {"node": list(key), "support": support, "accuracy": float(np.mean(routed == want))}
        )
    return EvalReport(accuracy, mean_hl, tuple(per_node), tuple(per_concept), confusion,
                      tuple(dataset.catalog.names))


def test_evaluate_equals_per_row_reference_on_planted_k4():
    catalog = Catalog(("c1", "c2", "c3", "c4"))
    tree = internal([internal([leaf(0), leaf(1)]), internal([leaf(2), leaf(3)])])
    spec = PlantedSpec(catalog, tree, 6, 80, (4.0, 1.5), 1.5)
    train, test = split(generate_planted(spec, seed=0), (0.5, 0.5), seed=0, stratified=True)
    clf = train_hierarchical(tree, train, HierTrainConfig(seed=0))
    report = evaluate(clf, test)
    assert 0.5 < report.accuracy < 1.0  # imperfect, so the confusion has off-diagonal counts
    assert report_to_json(report) == report_to_json(_per_row_evaluate(clf, test))

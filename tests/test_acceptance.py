"""Acceptance criteria, one test per criterion.

Each test prints a single [PASS]/[FAIL] line (visible with ``pytest -s``)
including its runtime against the stated budget. The heavy planted-data
pipelines pin their own geometry and training configs; every randomized
check runs on fixed seeds and is fully deterministic.
"""

import json
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    brute_force_agglomerate,
    central_difference,
    flatten_params,
    reconstruction_grads,
    rel_err,
    unflatten_params,
)
from hierclass.affinity import (
    AffinityConfig,
    DistanceMatrix,
    affinity_from_json,
    affinity_to_json,
    build_affinity_artifacts,
    make_decoder,
    make_encoder,
    EncoderConfig,
)
from hierclass.derive import LinkageParams, agglomerate, derive_hierarchy
from hierclass.hmodel import (
    HierarchicalClassifier,
    HierTrainConfig,
    classifier_from_json,
    classifier_to_json,
    erm_risk_and_grads,
    exhaustive_search,
    parameter_count,
    predict_batch,
    train_flat_baseline,
    train_hierarchical,
    train_hierarchies,
)
from hierclass.hmodel import _node_state, _objective_on_params
from hierclass.metrics import charged_nodes, h_loss, hierarchy_agreement, node_index, node_indicator
from hierclass.nets import mlp_params
from hierclass.synth import PlantedSpec, generate_planted, split
from hierclass.treespace import (
    Catalog,
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


def _report(number: int, name: str, passed: bool, elapsed: float, budget: float, detail: str):
    status = "PASS" if passed and elapsed < budget else "FAIL"
    print(f"[{status}] criterion {number} ({name}): {detail} [{elapsed:.1f}s / {budget:.0f}s]")
    assert passed, f"criterion {number}: {detail}"
    assert elapsed < budget, f"criterion {number} exceeded its {budget:.0f}s budget ({elapsed:.1f}s)"


# --- shared pipeline runs (criteria 6 and 7 use the same planted data) -------

PAIR_CATALOG = Catalog(("A", "B", "C", "D"))
PAIR_TREE = internal([internal([leaf(0), leaf(1)]), internal([leaf(2), leaf(3)])])
PAIR_SPEC = PlantedSpec(
    catalog=PAIR_CATALOG,
    tree=PAIR_TREE,
    feature_dim=10,
    per_concept=200,
    level_offsets=(9.0, 3.0),  # separation ratio 3: two tight pairs
    noise=2.0,
)
SEEDS = range(10)


@pytest.fixture(scope="module")
def pair_runs():
    runs = []
    for seed in SEEDS:
        data = generate_planted(PAIR_SPEC, seed=seed)
        train, val = split(data, (0.7, 0.3), seed=seed, stratified=True)
        matrix = build_affinity_artifacts(train, AffinityConfig(seed=seed)).matrix
        derived = derive_hierarchy(matrix, LinkageParams(preset="average"), tau=0.5)
        runs.append({"seed": seed, "train": train, "val": val, "derived": derived.tree})
    return runs


def test_criterion_01_counting_golden_values():
    start = time.time()
    got = [count_hierarchies(k) for k in range(1, 11)]
    _report(
        1, "counting golden values",
        got == PAPER_SEQUENCE, time.time() - start, 1.0,
        f"L(1..10) = {got}",
    )


def test_criterion_02_enumeration_oracle():
    start = time.time()
    ok = True
    detail = []
    for k in range(1, 8):
        trees = enumerate_hierarchies(range(k))
        distinct = len(set(trees)) == len(trees)
        for tree in trees:
            validate_tree(tree, k)
            assert all(len(n.children) >= 2 for n in tree.internal_nodes())
        ok &= distinct and len(trees) == count_hierarchies(k)
        detail.append(f"K={k}:{len(trees)}")
    _report(2, "enumeration oracle", ok, time.time() - start, 5.0, " ".join(detail))


def test_criterion_03_clustering_oracle_equivalence():
    start = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    ok = True
    for trial in range(100):
        k = int(rng.integers(3, 9))
        raw = rng.uniform(0.01, 1.0, size=(k, k))
        values = (raw + raw.T) / 2
        np.fill_diagonal(values, 0.0)
        dm = DistanceMatrix(Catalog(tuple(f"c{i}" for i in range(k))), values)
        for method in ("single", "complete", "average"):
            dgm = agglomerate(dm, LinkageParams(preset=method))
            expected = brute_force_agglomerate(values, method)
            for step, (i, j, d, new_id, members) in zip(dgm.steps, expected):
                ok &= {step.left, step.right} == {i, j} and step.members == members
                worst = max(worst, abs(step.distance - d))
    ok &= worst < 1e-9
    _report(
        3, "clustering oracle equivalence",
        ok, time.time() - start, 10.0,
        f"100 matrices x 3 presets, worst distance gap {worst:.2e}",
    )


def test_criterion_04_gradient_checks():
    start = time.time()
    worst = {"autoencoder": 0.0, "transfer": 0.0, "hinge": 0.0, "refine": 0.0}

    # autoencoder objective: reconstruction at random parameter points
    for point in range(20):
        rng = np.random.default_rng([41, point])
        enc = make_encoder(6, EncoderConfig(hidden_dim=5, latent_dim=2), rng)
        dec = make_decoder(6, EncoderConfig(hidden_dim=5, latent_dim=2), rng)
        x = rng.normal(size=(8, 6))
        params = mlp_params(enc) + mlp_params(dec)
        acts = [l.activation for l in enc.layers] + [l.activation for l in dec.layers]
        _, grads = reconstruction_grads(params, acts, x)

        def f(vec):
            loss, _ = reconstruction_grads(unflatten_params(vec, params), acts, x)
            return loss

        worst["autoencoder"] = max(
            worst["autoencoder"],
            rel_err(flatten_params(grads), central_difference(f, flatten_params(params))),
        )

    # transfer objective: trained source encoder, fresh decoder, target data
    base_rng = np.random.default_rng(42)
    source = generate_planted(PAIR_SPEC, seed=0)
    from hierclass.affinity import train_autoencoder_stack

    [(trained_enc, _, _)] = train_autoencoder_stack(
        [source.of_concept(0)[:80]], EncoderConfig(hidden_dim=5, latent_dim=2), AffinityConfig().pretrain, [0]
    )
    target = source.of_concept(1)[:8]
    for point in range(20):
        rng = np.random.default_rng([43, point])
        dec = make_decoder(10, EncoderConfig(hidden_dim=5, latent_dim=2), rng)
        params = mlp_params(trained_enc) + mlp_params(dec)
        jitter = rng.normal(scale=0.05, size=flatten_params(params).size)
        params = unflatten_params(flatten_params(params) + jitter, params)
        acts = [l.activation for l in trained_enc.layers] + ["identity"]
        _, grads = reconstruction_grads(params, acts, target)

        def f(vec):
            loss, _ = reconstruction_grads(unflatten_params(vec, params), acts, target)
            return loss

        worst["transfer"] = max(
            worst["transfer"],
            rel_err(flatten_params(grads), central_difference(f, flatten_params(params))),
        )

    # hinge objective
    for point in range(20):
        rng = np.random.default_rng([44, point])
        z = rng.normal(size=(10, 4))
        labels = rng.integers(0, 3, size=10)
        w = rng.normal(size=(3, 4))
        b = rng.normal(size=3)
        _, dw, db, _ = erm_risk_and_grads(w, b, z, labels, l2=1e-3)

        def f(vec):
            return erm_risk_and_grads(vec[:12].reshape(3, 4), vec[12:], z, labels, l2=1e-3)[0]

        worst["hinge"] = max(
            worst["hinge"],
            rel_err(
                np.concatenate([dw.ravel(), db.ravel()]),
                central_difference(f, np.concatenate([w.ravel(), b.ravel()])),
            ),
        )

    # refine_global combined objective at random parameter points
    cat3 = Catalog(("a", "b", "c"))
    tree3 = internal([internal([leaf(0), leaf(1)]), leaf(2)])
    spec3 = PlantedSpec(cat3, tree3, 6, 30, (6.0, 2.0), 1.0)
    data3 = generate_planted(spec3, seed=2)
    clf = train_hierarchical(
        tree3, data3,
        HierTrainConfig(seed=2, encoder=EncoderConfig(hidden_dim=4, latent_dim=2)),
    )
    params, problems = _node_state(clf, data3)
    flat = [pair for pairs in params.values() for pair in pairs]

    def by_node(pairs):  # regroup a flat pair list per node, as params is grouped
        it = iter(pairs)
        return {key: [next(it) for _ in node_pairs] for key, node_pairs in params.items()}

    for point in range(20):
        rng = np.random.default_rng([45, point])
        vec = rng.normal(scale=0.7, size=flatten_params(flat).size)
        p0 = by_node(unflatten_params(vec, flat))
        _, grads, _, _ = _objective_on_params(clf, problems, 0.7, 1e-3, p0)

        def f(v):
            total, _, _, _ = _objective_on_params(clf, problems, 0.7, 1e-3, by_node(unflatten_params(v, flat)))
            return total

        grad_vec = flatten_params([pair for pairs in grads.values() for pair in pairs])
        worst["refine"] = max(worst["refine"], rel_err(grad_vec, central_difference(f, vec)))

    ok = all(v < 1e-4 for v in worst.values())
    detail = ", ".join(f"{k}: {v:.2e}" for k, v in worst.items())
    _report(4, "gradient checks", ok, time.time() - start, 30.0, detail)


def test_criterion_05_h_loss_suite():
    start = time.time()

    def oracle(tree, predicted, true):
        index = node_index(tree)
        y_hat = node_indicator(tree, predicted)
        y = node_indicator(tree, true)
        return sum(
            1
            for i in range(index.count)
            if y_hat[i] != y[i] and all(y_hat[j] == y[j] for j in index.ancestors[i])
        )

    ok = True
    depth3 = internal(
        [
            internal([internal([leaf(0), leaf(1)]), leaf(2)]),
            internal([leaf(3), internal([leaf(4), leaf(5)])]),
        ]
    )
    ok &= h_loss(depth3, 4, 4) == 0
    ok &= h_loss(depth3, 4, 5) == 2  # siblings
    ok &= h_loss(depth3, 0, 5) == 2  # diverge at the root, depth 3 both sides

    checked = 0
    for tree in enumerate_hierarchies(range(4)):
        index = node_index(tree)
        for predicted in range(4):
            for true in range(4):
                ok &= h_loss(tree, predicted, true) == oracle(tree, predicted, true)
                charged = charged_nodes(tree, predicted, true)
                for i in charged:
                    ok &= not any(j in charged for j in index.ancestors[i])
                checked += 1
    _report(
        5, "H-loss suite",
        ok, time.time() - start, 5.0,
        f"{checked} leaf pairs over 26 trees vs indicator oracle, antichain verified",
    )


def test_criterion_06_planted_hierarchy_recovery(pair_runs):
    start = time.time()
    hits = [run for run in pair_runs if run["derived"] == PAIR_TREE]
    agreements = [hierarchy_agreement(run["derived"], PAIR_TREE) for run in hits]
    ok = len(hits) >= 9 and all(a == 1.0 for a in agreements)
    _report(
        6, "planted-hierarchy recovery",
        ok, time.time() - start, 180.0,
        f"recovered ((A,B),(C,D)) in {len(hits)}/10 seeds, agreement 1.0 in all of them",
    )


def test_criterion_07_oracle_optimality_proximity(pair_runs):
    start = time.time()
    ranks = []
    for run in pair_runs:
        result = exhaustive_search(
            run["train"], run["val"], HierTrainConfig(seed=run["seed"]), metric="accuracy", cap=5
        )
        scores = {tree: score for tree, score in result.table}
        mine = scores[run["derived"]]
        ranks.append(1 + sum(1 for s in scores.values() if s > mine))
    top3 = sum(1 for r in ranks if r <= 3)
    _report(
        7, "oracle-optimality proximity",
        top3 >= 8, time.time() - start, 600.0,
        f"derived tree in top 3 of 26 in {top3}/10 seeds (ranks {ranks})",
    )


def test_criterion_08_hierarchical_beats_flat_and_random():
    start = time.time()
    catalog = Catalog(tuple(f"c{i}" for i in range(8)))
    tree8 = internal(
        [
            internal([internal([leaf(0), leaf(1)]), internal([leaf(2), leaf(3)])]),
            internal([internal([leaf(4), leaf(5)]), internal([leaf(6), leaf(7)])]),
        ]
    )
    spec = PlantedSpec(
        catalog=catalog,
        tree=tree8,
        feature_dim=12,
        per_concept=200,
        level_offsets=(4.0, 2.0, 1.0),  # separation ratio 2, overlapping siblings
        noise=1.0,
    )

    def accuracy(clf, ds):
        return float(np.mean(predict_batch(clf, ds.features) == ds.labels))

    flat_margins, random_gaps = [], []
    for seed in SEEDS:
        data = generate_planted(spec, seed=seed)
        train, val = split(data, (0.7, 0.3), seed=seed, stratified=True)
        matrix = build_affinity_artifacts(train, AffinityConfig(seed=seed)).matrix
        derived = derive_hierarchy(matrix, LinkageParams(preset="average"), tau=0.5).tree
        cfg = HierTrainConfig(seed=seed)
        rng = np.random.default_rng([seed, 77])
        random_trees = [sample_hierarchy(range(8), rng) for _ in range(3)]
        hier, *rand = train_hierarchies([derived, *random_trees], train, cfg)
        hier_acc = accuracy(hier, val)
        baseline = train_flat_baseline(train, cfg, target_params=parameter_count(hier))
        assert abs(baseline.parameter_count - parameter_count(hier)) <= 0.1 * parameter_count(hier)
        flat_margins.append(hier_acc - accuracy(baseline.classifier, val))
        random_gaps.append(hier_acc - float(np.mean([accuracy(clf, val) for clf in rand])))
    mean_flat = float(np.mean(flat_margins))
    mean_rand = float(np.mean(random_gaps))
    ok = mean_flat > 0.0 and mean_rand > 0.0
    _report(
        8, "hierarchical vs flat and random",
        ok, time.time() - start, 900.0,
        f"mean margin over flat {mean_flat:+.4f}, over random hierarchies {mean_rand:+.4f}",
    )


def test_criterion_09_prediction_determinism_and_argmax_invariance(pair_runs):
    start = time.time()
    run = pair_runs[0]
    clf = train_hierarchical(run["derived"], run["train"], HierTrainConfig(seed=0))
    rng = np.random.default_rng(123)
    x = rng.normal(size=(1000, 10)) * 4.0
    outputs = [predict_batch(clf, x) for _ in range(3)]
    deterministic = all(np.array_equal(outputs[0], o) for o in outputs[1:])

    invariant = True
    for key in clf.models:
        node = clf.models[key]
        scaled = replace(
            node,
            scorer_weights=2.0 * node.scorer_weights,
            scorer_bias=2.0 * node.scorer_bias + 7.0,
        )
        models = dict(clf.models)
        models[key] = scaled
        transformed = HierarchicalClassifier(tree=clf.tree, catalog=clf.catalog, models=models)
        invariant &= np.array_equal(predict_batch(transformed, x), outputs[0])
    _report(
        9, "Eq.-1 determinism and argmax invariance",
        deterministic and invariant, time.time() - start, 5.0,
        "3 identical runs on 1000 inputs; 2x+7 at any single node changes nothing",
    )


def test_criterion_10_serialization_roundtrips(pair_runs):
    start = time.time()
    ok = True

    catalog = Catalog(("a", "b", "c", "d"))
    for tree in enumerate_hierarchies(range(4)):
        ok &= parse_tree(tree_to_text(tree, catalog), catalog) == tree
        dumped = json.dumps(tree_to_json(tree, catalog))
        ok &= tree_from_json(json.loads(dumped), catalog) == tree

    run = pair_runs[0]
    matrix = build_affinity_artifacts(run["train"], AffinityConfig(seed=0)).matrix
    dumped = json.dumps(affinity_to_json(matrix))
    ok &= affinity_from_json(json.loads(dumped)) == matrix

    clf = train_hierarchical(run["derived"], run["train"], HierTrainConfig(seed=0))
    dumped = json.dumps(classifier_to_json(clf))
    back = classifier_from_json(json.loads(dumped))
    ok &= json.dumps(classifier_to_json(back), sort_keys=True) == json.dumps(
        classifier_to_json(clf), sort_keys=True
    )
    _report(
        10, "serialization round-trips",
        ok, time.time() - start, 5.0,
        "tree Newick/JSON (26 trees), affinity JSON, classifier JSON all bit-exact",
    )

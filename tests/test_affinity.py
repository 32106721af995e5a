import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    _plain_autoencoder,
    _plain_transfer_loss,
    central_difference,
    flatten_params,
    reconstruction_grads,
    rel_err,
    train_reconstruction,
    unflatten_params,
)
from hierclass.affinity import (
    AffinityConfig,
    AffinityMatrix,
    AffinityRecord,
    DistanceMatrix,
    EncoderConfig,
    affinity_config_from_json,
    affinity_config_to_json,
    affinity_from_json,
    affinity_to_json,
    artifacts_from_json,
    artifacts_to_json,
    build_affinity_artifacts,
    capped_budget,
    distance_to_csv,
    final_score,
    make_decoder,
    make_encoder,
    raw_transfer_score,
    symmetrize_to_distance,
    train_autoencoder_stack,
    transfer_losses,
)
from hierclass.errors import DataError, NumericError
from hierclass.nets import (
    ACTIVATIONS,
    Layer,
    Mlp,
    SgdConfig,
    mlp_params,
    task_seed,
)
from hierclass.synth import LabeledDataset, PlantedSpec, generate_planted
from hierclass.treespace import Catalog, internal, leaf

FIXTURES = Path(__file__).parent / "fixtures"

LINEAR_CFG = AffinityConfig(
    encoder=EncoderConfig(hidden_dim=8, latent_dim=2,
                          hidden_activation="identity", latent_activation="identity"),
    pretrain=SgdConfig(epochs=300, batch_size=16, learning_rate=0.05),
)


def test_autoencoder_recovers_linear_subspace():
    rng = np.random.default_rng(0)
    basis = rng.normal(size=(2, 6))
    data = rng.normal(size=(100, 2)) @ basis
    _, _, loss = train_autoencoder_stack([data], LINEAR_CFG.encoder, LINEAR_CFG.pretrain, [0])[0]
    assert loss < 1e-3


def test_autoencoder_on_all_zero_data_is_lossless():
    cfg = replace(LINEAR_CFG, encoder=replace(LINEAR_CFG.encoder, hidden_activation="relu"))
    _, _, loss = train_autoencoder_stack([np.zeros((20, 6))], cfg.encoder, cfg.pretrain, [0])[0]
    assert loss == 0.0


def test_autoencoder_rejects_empty_or_mismatched_data():
    with pytest.raises(ValueError):
        train_autoencoder_stack([np.zeros((0, 4))], EncoderConfig(), SgdConfig(), [0])
    with pytest.raises(ValueError):
        make_encoder(3, EncoderConfig(latent_dim=5), np.random.default_rng(0))


def test_autoencoder_objective_gradients_match_finite_differences():
    rng = np.random.default_rng(3)
    cfg = EncoderConfig(hidden_dim=5, latent_dim=2)
    enc = make_encoder(6, cfg, rng)
    dec = make_decoder(6, cfg, rng)
    x = rng.normal(size=(10, 6))
    params = mlp_params(enc) + mlp_params(dec)
    acts = [l.activation for l in enc.layers] + [l.activation for l in dec.layers]
    _, grads = reconstruction_grads(params, acts, x)

    def f(vec):
        loss, _ = reconstruction_grads(unflatten_params(vec, params), acts, x)
        return loss

    assert rel_err(flatten_params(grads), central_difference(f, flatten_params(params))) < 1e-6


def test_training_loss_never_increases_net_across_seeds():
    rng = np.random.default_rng(1)
    data = rng.normal(size=(120, 8)) + 3.0
    cfg = AffinityConfig()
    for seed in range(5):
        enc = make_encoder(8, cfg.encoder, np.random.default_rng([seed, 0]))
        dec = make_decoder(8, cfg.encoder, np.random.default_rng([seed, 0]))
        _, _, history = train_reconstruction(
            enc, dec, data, cfg.pretrain, np.random.default_rng([seed, 1])
        )
        assert history[-1] <= history[0]


# --- transfers ---------------------------------------------------------------


def test_fine_tune_zero_budget_keeps_encoder():
    # the source encoder stays frozen, and at budget 0 its decoder trains on the whole pool
    cfg = AffinityConfig(budget=0)
    enc = make_encoder(4, cfg.encoder, np.random.default_rng(0))
    weights = [layer.weights.copy() for layer in enc.layers]
    data = np.random.default_rng(1).normal(size=(30, 4))
    [[l_ft]] = transfer_losses([([enc], data, 0)], cfg)
    assert all(np.array_equal(w, layer.weights) for w, layer in zip(weights, enc.layers))
    assert l_ft == _plain_transfer_loss(enc, data, 0, cfg, 0) >= 0.0

def test_fine_tune_is_deterministic_in_seed():
    cfg = AffinityConfig(budget=10)
    enc = make_encoder(4, cfg.encoder, np.random.default_rng(0))
    data = np.random.default_rng(1).normal(size=(40, 4))
    [[a]] = transfer_losses([([enc], data, 5)], cfg)
    [[b]] = transfer_losses([([enc], data, 5)], cfg)
    assert a == b


def test_self_transfer_dominates_on_planted_data():
    cat = Catalog(("A", "B", "C"))
    tree = internal([internal([leaf(0), leaf(1)]), leaf(2)])
    spec = PlantedSpec(cat, tree, 10, 150, (9.0, 3.0), 2.0)
    data = generate_planted(spec, seed=0)
    cfg = AffinityConfig(seed=0)
    encoders = {c: train_autoencoder_stack([data.of_concept(c)], cfg.encoder, cfg.pretrain, [100 + c])[0][0]
                for c in range(3)}
    for target in range(3):  # the default budget, 80 of the 120 pool rows
        losses = {
            src: transfer_losses([([encoders[src]], data.of_concept(target), 500 + target)], cfg)[0][0]
            for src in range(3)
        }
        assert min(losses, key=losses.get) == target


def test_identical_distribution_target_matches_own_loss():
    rng = np.random.default_rng(12)
    base = rng.normal(size=10) * 3
    sample_a = base + rng.normal(size=(200, 10))
    sample_b = base + rng.normal(size=(200, 10))
    cfg = AffinityConfig(seed=5)
    [(encoder, _, own_loss)] = train_autoencoder_stack([sample_a], cfg.encoder, cfg.pretrain, [5])
    [[l_ft]] = transfer_losses([([encoder], sample_b, 6)], cfg)
    assert abs(l_ft - own_loss) / own_loss < 0.10


# --- scores ------------------------------------------------------------------


def test_raw_transfer_score_examples():
    assert raw_transfer_score(1.0, 1.0) == 0.5
    assert raw_transfer_score(0.0, 2.0) == 1.0
    assert raw_transfer_score(3.0, 1.0) == 0.25


def test_raw_transfer_score_errors():
    with pytest.raises(ValueError):
        raw_transfer_score(-0.1, 1.0)
    with pytest.raises(ValueError):
        raw_transfer_score(0.5, 0.0)


@settings(max_examples=100, deadline=None)
@given(
    st.floats(0.0, 100.0, allow_nan=False),
    st.floats(1e-4, 100.0, allow_nan=False),  # separation resolvable in float64
    st.floats(0.01, 100.0, allow_nan=False),
)
def test_raw_transfer_score_strictly_monotone(l1, delta, l_ref):
    p1 = raw_transfer_score(l1, l_ref)
    p2 = raw_transfer_score(l1 + delta, l_ref)
    assert p1 > p2
    assert 0.0 <= p2 <= p1 <= 1.0
    assert raw_transfer_score(l1, l_ref) == p1


def test_final_score_examples():
    assert final_score(0.8, 40, 100, 0.5, 0.5) == pytest.approx(0.6)
    assert final_score(1.0, 100, 100, 0.5, 0.5) == 1.0
    assert final_score(0.37, 55, 100, 1.0, 0.0) == 0.37  # beta 0: budget ignored


def test_final_score_errors():
    with pytest.raises(ValueError):
        final_score(0.5, 1, 0, 0.5, 0.5)  # b_max 0 with b > 0
    with pytest.raises(ValueError):
        final_score(0.5, 5, 4, 0.5, 0.5)
    with pytest.raises(ValueError):
        final_score(0.5, 1, 2, 0.0, 0.0)
    assert final_score(0.5, 0, 0, 0.5, 0.5) == 0.25  # b_max 0, b 0: budget term 0


@settings(max_examples=60, deadline=None)
@given(st.floats(0, 1), st.integers(0, 50), st.floats(0.1, 2), st.floats(0.1, 2))
def test_final_score_affine_and_bounded(p, b, alpha, beta):
    s = final_score(p, b, 50, alpha, beta)
    assert 0.0 <= s <= 1.0
    # affine in p: slope alpha/(alpha+beta)
    s2 = final_score(min(1.0, p + 0.1), b, 50, alpha, beta)
    if p + 0.1 <= 1.0:
        assert s2 - s == pytest.approx(0.1 * alpha / (alpha + beta))


# --- matrix construction -----------------------------------------------------


@pytest.fixture(scope="module")
def triple_artifacts(triple_data_module):
    return build_affinity_artifacts(triple_data_module, AffinityConfig(seed=3))


@pytest.fixture(scope="module")
def triple_data_module():
    cat = Catalog(("c1", "c2", "c3"))
    tree = internal([internal([leaf(0), leaf(1)]), leaf(2)])
    spec = PlantedSpec(cat, tree, 10, 150, (9.0, 3.0), 2.0)
    return generate_planted(spec, seed=3)


def test_matrix_has_all_ordered_pairs(triple_artifacts):
    pairs = [(i, j) for i in range(3) for j in range(3) if i != j]
    matrix = triple_artifacts.matrix
    assert [(r.source, r.target) for r in matrix.records] == pairs
    encoders = triple_artifacts.concept_encoders
    assert len(encoders) == 3
    # a matrix without some pair cannot be built
    with pytest.raises(ValueError, match=r"^affinity matrix is missing pairs: c3->c1$"):
        replace(matrix, records=matrix.records[:-2] + matrix.records[-1:])
    # a repeated pair or a pair of a concept with itself is one record too many
    for extra in (matrix.records[0], replace(matrix.records[0], target=0)):
        with pytest.raises(ValueError, match=r"^affinity matrix holds 7 entries for the 6 ordered pairs$"):
            replace(matrix, records=matrix.records + (extra,))
    # artifacts hold one encoder per concept, of one feature width, read off the encoders
    for count in (2, 4):
        with pytest.raises(ValueError, match=rf"^{count} concept encoders for the 3 concepts$"):
            replace(triple_artifacts, concept_encoders=(encoders * 2)[:count])
    assert triple_artifacts.input_dim == 10
    narrow = make_encoder(5, triple_artifacts.config.encoder, np.random.default_rng(0))
    with pytest.raises(ValueError, match=r"^concept encoder 1 has layer widths \(5, 24, 4\) .* on 10 features has \(10, 24, 4\)"):
        replace(triple_artifacts, concept_encoders=(encoders[0], narrow, encoders[2]))
    # one concept has no pairs: no matrix
    with pytest.raises(ValueError, match=r"^an affinity matrix relates at least 2 concepts, got 1$"):
        replace(matrix, catalog=Catalog(("c1",)), records=())


def test_overlapping_pair_scores_dominate_remote(triple_artifacts):
    score = {(r.source, r.target): r.score for r in triple_artifacts.matrix.records}
    close = min(score[0, 1], score[1, 0])
    remote = max(score[i, j] for i, j in [(0, 2), (2, 0), (1, 2), (2, 1)])
    assert close > remote


def test_identical_distribution_pair_beats_half():
    rng = np.random.default_rng(12)
    base = rng.normal(size=8) * 3
    feats = base + rng.normal(size=(400, 8))
    labels = np.array([0] * 200 + [1] * 200)
    data = LabeledDataset(feats, labels, Catalog(("u", "v")))
    records = build_affinity_artifacts(data, AffinityConfig(seed=2)).matrix.records
    assert {(r.source, r.target) for r in records} == {(0, 1), (1, 0)}
    assert all(r.score > 0.5 for r in records)


# --- batched build against the plain per-pair path -------------------------


def _plain_build(dataset, cfg):
    """Records of a serial loop over every ordered pair, and the concept
    encoders each trained alone."""
    ids = dataset.catalog.ids
    data = {cid: dataset.of_concept(cid) for cid in ids}
    encoders = [_plain_autoencoder(data[cid], cfg, seed=task_seed(cfg.seed, 1, cid))[0] for cid in ids]
    records = []
    for src in ids:
        for dst in ids:
            if src == dst:
                continue
            n = data[dst].shape[0]
            budget = min(cfg.budget, n - max(1, int(round(cfg.holdout_fraction * n))))
            seed = task_seed(cfg.seed, 2, dst)
            fresh = make_encoder(data[dst].shape[1], cfg.encoder, np.random.default_rng([seed, 3]))
            l_ref = _plain_transfer_loss(fresh, data[dst], budget, cfg, seed)
            l_ft = _plain_transfer_loss(encoders[src], data[dst], budget, cfg, seed)
            p = raw_transfer_score(l_ft, l_ref)
            score = final_score(p, budget, cfg.b_max, cfg.alpha, cfg.beta)
            records.append(AffinityRecord(src, dst, p, budget, score))
    return tuple(records), encoders


def _assert_build_matches_plain(dataset, cfg):
    artifacts = build_affinity_artifacts(dataset, cfg)
    records, encoders = _plain_build(dataset, cfg)
    assert artifacts.matrix.records == records  # exact float equality
    assert list(artifacts.concept_encoders) == list(encoders)
    return artifacts


def test_build_matches_plain_path_on_triple(triple_data_module):
    cfg = AffinityConfig(seed=9)
    artifacts = _assert_build_matches_plain(triple_data_module, cfg)
    assert build_affinity_artifacts(triple_data_module, cfg).matrix == artifacts.matrix


def test_build_matches_plain_path_on_k5_planted_spec():
    cat = Catalog(tuple(f"c{i}" for i in range(5)))
    tree = internal([internal([leaf(0), leaf(1)]), internal([leaf(2), leaf(3), leaf(4)])])
    data = generate_planted(PlantedSpec(cat, tree, 8, 60, (6.0, 2.0), 1.0), seed=1)
    cfg = AffinityConfig(
        encoder=EncoderConfig(hidden_dim=10, latent_dim=3),
        pretrain=SgdConfig(epochs=15, batch_size=32, learning_rate=0.1),
        warmup=SgdConfig(epochs=20, batch_size=16, learning_rate=0.1),
        budget=30,
        seed=4,
    )
    _assert_build_matches_plain(data, cfg)


def test_build_matches_plain_path_on_unequal_supports(monkeypatch):
    # concepts 0 and 2 share a row count: pretraining runs as three stacks
    import hierclass.affinity as affinity_module

    cat = Catalog(("a", "b", "c", "d"))
    tree = internal([internal([leaf(0), leaf(1)]), internal([leaf(2), leaf(3)])])
    full = generate_planted(PlantedSpec(cat, tree, 8, 70, (6.0, 2.0), 1.0), seed=5)
    keep = {0: 40, 1: 55, 2: 40, 3: 70}
    data = full.take(np.concatenate([np.flatnonzero(full.labels == c)[:n] for c, n in keep.items()]))
    assert data.support() == keep
    cfg = AffinityConfig(
        encoder=EncoderConfig(hidden_dim=10, latent_dim=3),
        pretrain=SgdConfig(epochs=15, batch_size=32, learning_rate=0.1),
        warmup=SgdConfig(epochs=20, batch_size=16, learning_rate=0.1),
        budget=30,
        seed=4,
    )
    stacks, warmups = [], []
    real = affinity_module.train_autoencoder_stack
    monkeypatch.setattr(affinity_module, "train_autoencoder_stack",
                        lambda d, *a: stacks.append([x.shape[0] for x in d]) or real(d, *a))
    real_sgd = affinity_module.sgd_reconstruction

    def spy(params, acts, x, target, sgd_cfg, rng):
        if sgd_cfg is cfg.warmup:
            warmups.append((len(rng), {len(t) for t in target}))
        return real_sgd(params, acts, x, target, sgd_cfg, rng)

    monkeypatch.setattr(affinity_module, "sgd_reconstruction", spy)
    _assert_build_matches_plain(data, cfg)
    assert stacks == [[40, 55, 40, 70]]
    # held out 8/11/8/14 rows, every target trains on 30: the 4 x 4 transfers warm up as one stack
    assert warmups == [(16, {30})]


def test_autoencoder_stack_members_match_the_plain_path(triple_data_module):
    cfg = AffinityConfig(pretrain=SgdConfig(epochs=6, batch_size=32, learning_rate=0.1))
    data = [triple_data_module.of_concept(c) for c in range(3)]
    seeds = [4, 9, 2]
    plain = [_plain_autoencoder(d, cfg, seed) for d, seed in zip(data, seeds)]
    assert all(tuple(train_autoencoder_stack([d], cfg.encoder, cfg.pretrain, [seed])[0]) == tuple(p)
               for d, seed, p in zip(data, seeds, plain))
    for members in ([0, 1, 2], [2, 0, 1], [1]):  # permuted, and a stack of one
        stacked = train_autoencoder_stack([data[s] for s in members], cfg.encoder, cfg.pretrain,
                                          [seeds[s] for s in members])
        assert all(tuple(got) == tuple(plain[s]) for s, got in zip(members, stacked))


def test_one_diverging_pretrain_member_names_its_concept():
    cfg = AffinityConfig(encoder=EncoderConfig(hidden_dim=4, latent_dim=2))
    calm = np.random.default_rng(0).normal(size=(40, 6))
    wild = calm * 1e4
    train_autoencoder_stack([calm], cfg.encoder, cfg.pretrain, [3])  # a calm member trains fine on its own
    with np.errstate(all="ignore"), pytest.raises(NumericError, match="stack member 1") as info:
        train_autoencoder_stack([calm, wild, calm + 1], cfg.encoder, cfg.pretrain, [3, 4, 5])
    assert info.value.member == 1
    data = LabeledDataset(np.vstack([calm, wild, calm + 1]), np.repeat([0, 1, 2], 40), Catalog(("a", "b", "c")))
    with np.errstate(all="ignore"), pytest.raises(NumericError, match=r"pretraining concept 'b': .*stack member 1"):
        build_affinity_artifacts(data, cfg)


@pytest.mark.parametrize("variant", [{}, {"budget": 0}])
def test_build_matches_plain_path_without_joint_phase(triple_data_module, variant):
    # the default budget and the whole pool: the artifacts' encoders are the plain pretrained ones
    cfg = replace(AffinityConfig(seed=2, warmup=SgdConfig(epochs=30, batch_size=16, learning_rate=0.1)), **variant)
    _assert_build_matches_plain(triple_data_module, cfg)


def test_one_diverging_stack_member_raises():
    linear = EncoderConfig(hidden_dim=4, latent_dim=2,
                           hidden_activation="identity", latent_activation="identity")
    cfg = AffinityConfig(encoder=linear, budget=20)
    data = np.random.default_rng(0).normal(size=(40, 6))
    calm = make_encoder(6, linear, np.random.default_rng(1))
    wild = Mlp(tuple(Layer(l.weights * 1e3, l.bias, l.activation) for l in calm.layers))
    transfer_losses([([calm], data, 3)], cfg)  # each calm member trains fine on its own
    with np.errstate(all="ignore"), pytest.raises(NumericError, match="stack member 1"):
        transfer_losses([([calm, wild, calm], data, 3)], cfg)
    # across tasks: the error names the task and encoder, and ``member`` counts over all tasks' encoders
    tasks = [([calm], data, 3), ([calm], data[:20], 4), ([calm, wild], data, 5)]  # task 1 on its 16-row pool
    with np.errstate(all="ignore"), pytest.raises(NumericError, match=r"task 2, encoder 1: .*stack member 3") as info:
        transfer_losses(tasks, cfg)
    assert info.value.member == 3


def test_transfer_divergence_names_its_concepts(monkeypatch):
    import hierclass.affinity as affinity_module

    rng = np.random.default_rng(0)
    data = LabeledDataset(rng.normal(size=(90, 5)) + np.repeat([0, 3, 6], 30)[:, None],
                          np.repeat([0, 1, 2], 30), Catalog(("a", "b", "c")))
    cfg = AffinityConfig(encoder=EncoderConfig(hidden_dim=6, latent_dim=2),
                         warmup=SgdConfig(epochs=5, batch_size=16, learning_rate=1e4))
    with np.errstate(all="ignore"), pytest.raises(NumericError, match="transfer from 'b' toward 'a': "):
        build_affinity_artifacts(data, cfg)

    def diverge(tasks, cfg):  # the third member toward 'b' is its scratch reference
        raise NumericError("diverged", len(tasks[0][0]) + 2)

    monkeypatch.setattr(affinity_module, "transfer_losses", diverge)
    with pytest.raises(NumericError, match="scratch reference toward 'b': diverged") as info:
        build_affinity_artifacts(data, cfg)
    assert info.value.member == 5


@pytest.mark.parametrize("variant", [{}, {"budget": 0}], ids=["default", "budget0"])
def test_transfer_losses_members_match_single_calls(triple_data_module, variant):
    cfg = replace(AffinityConfig(warmup=SgdConfig(epochs=20, batch_size=16, learning_rate=0.1), budget=50), **variant)
    data = [triple_data_module.of_concept(c) for c in range(3)]
    encoders = [train_autoencoder_stack([data[c]], cfg.encoder, cfg.pretrain, [c])[0][0] for c in (0, 1)]
    # pools of 120 rows (tasks 0, 1 and 3, their held-out slices differ), 72 and 48 rows:
    # at budget 50 task 4 trains on its whole pool and the others on 50 rows
    tasks = [(encoders, data[2], 11), (encoders[::-1], data[0], 12), (encoders[:1], data[1][:90], 13),
             (encoders, data[1], 14), (encoders[1:], data[2][:60], 15)]
    stacked = transfer_losses(tasks, cfg)
    assert [len(losses) for losses in stacked] == [2, 2, 1, 2, 1]
    for (members, target, seed), losses in zip(tasks, stacked):
        for encoder, l_ft in zip(members, losses):
            [[l_alone]] = transfer_losses([([encoder], target, seed)], cfg)
            l_plain = _plain_transfer_loss(encoder, target, capped_budget(len(target), cfg), cfg, seed)
            assert l_ft == l_alone == l_plain


# --- holdout and budget arithmetic --------------------------------------------


def test_capped_budget_is_the_pool_size_of_the_split():
    from hierclass.affinity import _holdout_split

    for n in range(2, 30):
        for fraction in (0.01, 0.2, 0.5, 0.9, 0.96, 0.99):
            cfg = AffinityConfig(holdout_fraction=fraction, budget=100, b_max=100)
            pool, held = _holdout_split(n, fraction, np.random.default_rng(0))
            assert capped_budget(n, cfg) == pool.size >= 1 and held.size >= 1


def test_recorded_budget_is_the_rows_trained_on_at_the_holdout_edge(monkeypatch):
    # n=10 at holdout 0.96 leaves a one-row pool: the transfer trains on it
    import hierclass.affinity as affinity_module

    rows_seen = []
    real = affinity_module.sgd_reconstruction

    def spy(params, acts, x, target, cfg, rng):
        rows_seen.append((cfg, {len(t) for t in target}))
        return real(params, acts, x, target, cfg, rng)

    monkeypatch.setattr(affinity_module, "sgd_reconstruction", spy)
    rng = np.random.default_rng(5)
    feats = np.vstack([rng.normal(size=(10, 4)), rng.normal(size=(10, 4)) + 3])
    data = LabeledDataset(feats, np.array([0] * 10 + [1] * 10), Catalog(("a", "b")))
    cfg = AffinityConfig(holdout_fraction=0.96, encoder=EncoderConfig(hidden_dim=6, latent_dim=2))
    matrix = build_affinity_artifacts(data, cfg).matrix
    # one pretraining stack over both concepts' 10 rows, then one transfer stack toward both targets
    assert rows_seen == [(cfg.pretrain, {10}), (cfg.warmup, {1})]
    assert [r.budget for r in matrix.records] == [1, 1]


def test_insufficient_concepts_are_an_error_naming_each(monkeypatch):
    import hierclass.affinity as affinity_module

    monkeypatch.setattr(affinity_module, "train_autoencoder_stack", None)  # nothing trains
    rng = np.random.default_rng(0)
    feats = np.vstack([rng.normal(size=(40, 5)), rng.normal(size=(3, 5)), rng.normal(size=(9, 5)),
                       rng.normal(size=(1, 5))])
    labels = np.array([0] * 40 + [1] * 3 + [2] * 9 + [3])
    data = LabeledDataset(feats, labels, Catalog(("a", "tiny", "nine", "one")))
    message = "need at least 2 concepts with >= {} examples each; got 4, with too few examples: {}"
    with pytest.raises(DataError, match=f"^{re.escape(message.format(10, {'tiny': 3, 'nine': 9, 'one': 1}))}$"):
        build_affinity_artifacts(data, AffinityConfig(seed=0, min_examples=10))
    # one example is too few even when min_examples asks for none
    with pytest.raises(DataError, match=f"^{re.escape(message.format(2, {'one': 1}))}$"):
        build_affinity_artifacts(data, AffinityConfig(seed=0, min_examples=0))


def test_fewer_than_two_usable_concepts_is_an_error():
    rng = np.random.default_rng(0)
    data = LabeledDataset(
        np.vstack([rng.normal(size=(40, 5)), rng.normal(size=(3, 5))]),
        np.array([0] * 40 + [1] * 3),
        Catalog(("a", "tiny")),
    )
    with pytest.raises(DataError, match="at least 2"):
        build_affinity_artifacts(data, AffinityConfig(seed=0, min_examples=10))


# --- symmetrization ----------------------------------------------------------


def _matrix_from_scores(scores: dict) -> AffinityMatrix:
    k = max(max(i, j) for i, j in scores) + 1
    return AffinityMatrix(
        catalog=Catalog(tuple(f"c{i}" for i in range(k))),
        records=tuple(
            AffinityRecord(source=i, target=j, p=s, budget=10, score=s)
            for (i, j), s in scores.items()
        ),
    )


def test_symmetrize_examples():
    m = _matrix_from_scores({(0, 1): 1.0, (1, 0): 1.0})
    assert symmetrize_to_distance(m).values[0, 1] == 0.0
    m = _matrix_from_scores({(0, 1): 0.8, (1, 0): 0.6})
    assert symmetrize_to_distance(m).values[0, 1] == pytest.approx(0.3)
    # the mean is the one combination: no other can be asked for
    with pytest.raises(TypeError):
        symmetrize_to_distance(m, method="min")


def test_matrix_missing_pairs_named():
    with pytest.raises(ValueError, match=r"^affinity matrix is missing pairs: c2->c1$"):
        _matrix_from_scores({(0, 1): 0.8, (1, 0): 0.6, (0, 2): 0.5, (2, 0): 0.5, (1, 2): 0.4})
    obj = json.loads((FIXTURES / "affinity_3concepts.json").read_text())
    del obj["entries"][1], obj["entries"][-1]
    with pytest.raises(DataError, match=r"^bad affinity JSON: affinity matrix is missing pairs: c2->c1, c3->c2$"):
        affinity_from_json(obj)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.integers(0, 10**6))
def test_symmetrize_output_is_valid_distance_matrix(k, seed):
    rng = np.random.default_rng(seed)
    scores = {}
    for i in range(k):
        for j in range(k):
            if i != j:
                scores[(i, j)] = float(rng.uniform(0, 1))
    dm = symmetrize_to_distance(_matrix_from_scores(scores))
    assert np.allclose(dm.values, dm.values.T)
    assert np.all(np.diag(dm.values) == 0)
    assert dm.values.min() >= 0 and dm.values.max() <= 1


def test_distance_matrix_validation():
    cat = Catalog(("a", "b"))
    with pytest.raises(ValueError):
        DistanceMatrix(cat, np.array([[0.0, 0.5], [0.4, 0.0]]))  # asymmetric
    with pytest.raises(ValueError):
        DistanceMatrix(cat, np.array([[0.1, 0.5], [0.5, 0.0]]))  # nonzero diagonal
    with pytest.raises(ValueError):
        DistanceMatrix(cat, np.array([[0.0, 1.5], [1.5, 0.0]]))  # out of range


# --- wire formats ------------------------------------------------------------


def test_affinity_json_roundtrip(triple_artifacts):
    obj = json.loads(json.dumps(affinity_to_json(triple_artifacts.matrix)))
    assert affinity_from_json(obj) == triple_artifacts.matrix


def test_affinity_json_rejects_unknown_top_level_keys(triple_artifacts):
    obj = affinity_to_json(triple_artifacts.matrix)
    with pytest.raises(DataError, match=r"unknown keys \['alpah', 'bogus'\]"):
        affinity_from_json({**obj, "bogus": 1, "alpah": 0.9})


# the settings older files repeated beside their records, each a key that no longer loads
REMOVED_MATRIX_KEYS = {"alpha": 0.5, "beta": 0.5, "b_max": 100, "seed": 0, "encoder": None, "skipped": []}


@pytest.mark.parametrize("key", REMOVED_MATRIX_KEYS)
def test_affinity_json_rejects_a_removed_setting_key(triple_artifacts, key):
    obj = {**affinity_to_json(triple_artifacts.matrix), key: REMOVED_MATRIX_KEYS[key]}
    with pytest.raises(DataError, match=rf"^bad affinity JSON: unknown keys \['{key}'\]$"):
        affinity_from_json(obj)


@pytest.mark.parametrize("key", ["concepts", "entries"])
def test_affinity_json_rejects_a_missing_top_level_key(triple_artifacts, key):
    obj = {k: v for k, v in affinity_to_json(triple_artifacts.matrix).items() if k != key}
    with pytest.raises(DataError, match=rf"missing keys \['{key}'\]"):
        affinity_from_json(obj)


def test_affinity_json_roundtrip_with_provenance(triple_artifacts):
    obj = {**affinity_to_json(triple_artifacts.matrix), "provenance": {"command": "affinity", "seed": 3}}
    assert affinity_from_json(json.loads(json.dumps(obj))) == triple_artifacts.matrix


def test_affinity_config_json_roundtrip():
    cfg = AffinityConfig(
        encoder=EncoderConfig(5, 2, "sigmoid", "identity"),
        warmup=SgdConfig(epochs=7, batch_size=8, learning_rate=0.3, divergence_limit=1e4),
        budget=3, b_max=9, alpha=0.2, beta=0.7, holdout_fraction=0.3,
        min_examples=4, seed=11,
    )
    obj = json.loads(json.dumps(affinity_config_to_json(cfg)))
    assert affinity_config_from_json(obj) == cfg
    with pytest.raises(DataError, match="format"):
        affinity_config_from_json({**obj, "format": "hierclass-affinity-config-v0"})
    # a v1 config carried freeze_encoder and a v2 config finetune: each is an older format to rebuild
    with pytest.raises(DataError, match="'hierclass-affinity-config-v1'.*rebuild"):
        affinity_config_from_json({**obj, "format": "hierclass-affinity-config-v1", "freeze_encoder": True})
    with pytest.raises(DataError, match="'hierclass-affinity-config-v2'.*rebuild"):
        affinity_config_from_json({**obj, "format": "hierclass-affinity-config-v2", "finetune": obj["warmup"]})
    with pytest.raises(DataError, match="n_threads"):
        affinity_config_from_json({**obj, "n_threads": 2})
    with pytest.raises(DataError, match="warmup.*'momentum'"):
        affinity_config_from_json({**obj, "warmup": {**obj["warmup"], "momentum": 0.9}})
    # a missing key must not load as the library default (budget 80, latent 4)
    with pytest.raises(DataError, match="'budget'"):
        affinity_config_from_json({k: v for k, v in obj.items() if k != "budget"})
    encoder = {k: v for k, v in obj["encoder"].items() if k != "latent_dim"}
    with pytest.raises(DataError, match="encoder.*'latent_dim'"):
        affinity_config_from_json({**obj, "encoder": encoder})


@pytest.mark.parametrize("edit, shown", [
    (lambda o: o["warmup"].update(epochs=2.5), "affinity config.warmup: epochs must be an integer, got 2.5"),
    (lambda o: o.update(budget=True), "affinity config: budget must be an integer, got True"),
    (lambda o: o.update(alpha="0.5"), "affinity config: alpha must be a number, got '0.5'"),
    (lambda o: o.update(beta=None), "affinity config: beta must be a number, got None"),
    (lambda o: o["encoder"].update(latent_activation=1),
     "affinity config.encoder: latent_activation must be a string, got 1"),
], ids=["float-epochs", "bool-budget", "string-alpha", "null-beta", "number-activation"])
def test_affinity_config_json_rejects_a_field_of_another_type(edit, shown):
    obj = json.loads(json.dumps(affinity_config_to_json(AffinityConfig())))
    edit(obj)
    with pytest.raises(DataError, match=f"^{re.escape(shown)}$"):
        affinity_config_from_json(obj)


def test_affinity_config_json_reads_integral_numbers_as_their_fields_types():
    obj = json.loads(json.dumps(affinity_config_to_json(AffinityConfig())))
    cfg = affinity_config_from_json({**obj, "alpha": 1, "budget": 80.0})
    assert (type(cfg.alpha), cfg.alpha, type(cfg.budget), cfg.budget) == (float, 1.0, int, 80)


UNIT = st.floats(0.0, 1.0)
ENCODER_CONFIGS = st.builds(EncoderConfig, st.integers(1, 64), st.integers(1, 16),
                            st.sampled_from(ACTIVATIONS), st.sampled_from(ACTIVATIONS))
SGD_CONFIGS = st.builds(SgdConfig, st.integers(0, 500), st.integers(1, 512),
                        st.floats(1e-6, 10.0), st.floats(1.0, 1e300))


@st.composite
def affinity_configs(draw):
    b_max = draw(st.integers(0, 1000))
    return AffinityConfig(
        encoder=draw(ENCODER_CONFIGS),
        pretrain=draw(SGD_CONFIGS),
        warmup=draw(SGD_CONFIGS),
        budget=draw(st.integers(0, b_max)),
        b_max=b_max,
        alpha=draw(st.floats(1e-3, 10.0)),
        beta=draw(st.floats(0.0, 10.0)),
        holdout_fraction=draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        min_examples=draw(st.integers(0, 100)),
        seed=draw(st.integers(0, 2**63 - 1)),
    )


@st.composite
def affinity_matrices(draw):
    k = draw(st.integers(2, 5))
    off_diagonal = [(i, j) for i in range(k) for j in range(k) if i != j]
    pairs = draw(st.permutations(off_diagonal))  # every pair, in any order
    return AffinityMatrix(
        catalog=Catalog(tuple(f"c{i}" for i in range(k))),
        records=tuple(AffinityRecord(i, j, draw(UNIT), draw(st.integers(0, 1000)), draw(UNIT)) for i, j in pairs),
    )


@settings(max_examples=100, deadline=None)
@given(affinity_configs())
def test_affinity_config_json_round_trip_is_exact(cfg):
    obj = json.loads(json.dumps(affinity_config_to_json(cfg)))
    assert affinity_config_from_json(obj) == cfg
    assert affinity_config_to_json(affinity_config_from_json(obj)) == affinity_config_to_json(cfg)


@settings(max_examples=100, deadline=None)
@given(affinity_matrices())
def test_affinity_json_round_trip_is_exact(matrix):
    obj = json.loads(json.dumps(affinity_to_json(matrix)))
    assert affinity_from_json(obj) == matrix
    assert affinity_to_json(affinity_from_json(obj)) == affinity_to_json(matrix)


def test_affinity_json_has_documented_keys(triple_artifacts):
    obj = affinity_to_json(triple_artifacts.matrix)
    assert set(obj) == {"concepts", "entries"}
    assert set(obj["entries"][0]) == {"src", "dst", "p", "b", "s"}


def test_artifacts_json_round_trip_is_exact(triple_artifacts):
    obj = json.loads(json.dumps(artifacts_to_json(triple_artifacts)))
    back = artifacts_from_json(obj)
    assert set(obj) == {"matrix", "config", "concept_encoders"}
    assert (back.matrix, back.config, back.input_dim) == (triple_artifacts.matrix, triple_artifacts.config, 10)
    assert back == triple_artifacts and back.concept_encoders is not triple_artifacts.concept_encoders
    assert json.dumps(artifacts_to_json(back)) == json.dumps(obj)
    with pytest.raises(DataError, match=r"^bad artifacts file: unknown keys \['input_dim'\]$"):
        artifacts_from_json({**obj, "input_dim": 10})
    # a v2 file, with its tuned pair encoders, names its config's tag before any key
    v2 = {k: v for k, v in obj.items() if k != "concept_encoders"}
    v2.update(config={**obj["config"], "format": "hierclass-affinity-config-v2"},
              pair_encoders={"0,1": obj["concept_encoders"][0]})
    with pytest.raises(DataError, match=r"^bad artifacts file: unsupported affinity config format "
                                        r"'hierclass-affinity-config-v2'.*rebuild"):
        artifacts_from_json(v2)


def test_distance_csv_layout(triple_artifacts):
    text = distance_to_csv(symmetrize_to_distance(triple_artifacts.matrix))
    lines = text.strip().split("\n")
    assert lines[0] == ",c1,c2,c3"
    assert len(lines) == 4
    assert lines[1].split(",")[1] == "0.0"

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import central_difference, rel_err
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
    build_affinity_artifacts,
    build_affinity_matrix,
    capped_budget,
    distance_to_csv,
    final_score,
    fine_tune,
    fine_tune_stack,
    make_decoder,
    make_encoder,
    raw_transfer_score,
    symmetrize_to_distance,
    train_autoencoder,
    train_autoencoder_stack,
)
from hierclass.errors import DataError, NumericError
from hierclass.nets import (
    Layer,
    Mlp,
    SgdConfig,
    task_seed,
    flatten_params,
    mlp_params,
    reconstruction_grads,
    reconstruction_loss,
    train_reconstruction,
    unflatten_params,
)
from hierclass.synth import LabeledDataset, PlantedSpec, generate_planted
from hierclass.treespace import Catalog, internal, leaf

LINEAR_CFG = AffinityConfig(
    encoder=EncoderConfig(hidden_dim=8, latent_dim=2,
                          hidden_activation="identity", latent_activation="identity"),
    pretrain=SgdConfig(epochs=300, batch_size=16, learning_rate=0.05),
)


def test_autoencoder_recovers_linear_subspace():
    rng = np.random.default_rng(0)
    basis = rng.normal(size=(2, 6))
    data = rng.normal(size=(100, 2)) @ basis
    _, _, loss = train_autoencoder(data, LINEAR_CFG, seed=0)
    assert loss < 1e-3


def test_autoencoder_on_all_zero_data_is_lossless():
    cfg = replace(LINEAR_CFG, encoder=replace(LINEAR_CFG.encoder, hidden_activation="relu"))
    _, _, loss = train_autoencoder(np.zeros((20, 6)), cfg, seed=0)
    assert loss == 0.0


def test_autoencoder_rejects_empty_or_mismatched_data():
    with pytest.raises(ValueError):
        train_autoencoder(np.zeros((0, 4)), AffinityConfig(), seed=0)
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


# --- fine-tuning -------------------------------------------------------------


def test_fine_tune_budget_exceeds_pool():
    cfg = AffinityConfig()
    enc = make_encoder(4, cfg.encoder, np.random.default_rng(0))
    data = np.random.default_rng(1).normal(size=(20, 4))
    with pytest.raises(ValueError, match="budget"):
        fine_tune(enc, data, 17, cfg, seed=0)  # pool is 16 after 20% holdout


def test_fine_tune_zero_budget_keeps_encoder():
    cfg = AffinityConfig()
    enc = make_encoder(4, cfg.encoder, np.random.default_rng(0))
    data = np.random.default_rng(1).normal(size=(30, 4))
    tuned, l_ft = fine_tune(enc, data, 0, cfg, seed=0)
    assert tuned is enc
    assert l_ft >= 0.0


def test_fine_tune_is_deterministic_in_seed():
    cfg = AffinityConfig()
    enc = make_encoder(4, cfg.encoder, np.random.default_rng(0))
    data = np.random.default_rng(1).normal(size=(40, 4))
    _, a = fine_tune(enc, data, 10, cfg, seed=5)
    _, b = fine_tune(enc, data, 10, cfg, seed=5)
    assert a == b


def test_self_transfer_dominates_on_planted_data():
    cat = Catalog(("A", "B", "C"))
    tree = internal([internal([leaf(0), leaf(1)]), leaf(2)])
    spec = PlantedSpec(cat, tree, 10, 150, (9.0, 3.0), 2.0)
    data = generate_planted(spec, seed=0)
    cfg = AffinityConfig(seed=0)
    encoders = {c: train_autoencoder(data.of_concept(c), cfg, seed=100 + c)[0] for c in range(3)}
    for target in range(3):
        losses = {
            src: fine_tune(encoders[src], data.of_concept(target), 80, cfg, seed=500 + target)[1]
            for src in range(3)
        }
        assert min(losses, key=losses.get) == target


def test_fresh_encoder_fine_tune_matches_autoencoder_regime():
    # with no warmup and a pretraining-length joint phase, fine-tuning a fresh
    # encoder is the same procedure as training an autoencoder on the pool
    from hierclass.affinity import _holdout_split

    cat = Catalog(("A", "B", "C"))
    tree = internal([internal([leaf(0), leaf(1)]), leaf(2)])
    data = generate_planted(PlantedSpec(cat, tree, 10, 150, (9.0, 3.0), 2.0), seed=4)
    x = data.of_concept(0)
    cfg = AffinityConfig(
        warmup=SgdConfig(epochs=0, batch_size=32, learning_rate=0.1),
        finetune=SgdConfig(epochs=60, batch_size=32, learning_rate=0.1),
    )
    pool_size = x.shape[0] - max(1, round(0.2 * x.shape[0]))
    fresh = make_encoder(10, cfg.encoder, np.random.default_rng([9, 3]))
    _, l_ft = fine_tune(fresh, x, pool_size, cfg, seed=9)
    pool, held = _holdout_split(x.shape[0], 0.2, np.random.default_rng([9, 0]))
    enc, dec, _ = train_autoencoder(x[pool], cfg, seed=77)
    l_ae = reconstruction_loss(enc, dec, x[held])
    assert abs(l_ft - l_ae) / l_ae < 0.15


def test_identical_distribution_target_matches_own_loss():
    rng = np.random.default_rng(12)
    base = rng.normal(size=10) * 3
    sample_a = base + rng.normal(size=(200, 10))
    sample_b = base + rng.normal(size=(200, 10))
    cfg = AffinityConfig(seed=5)
    encoder, _, own_loss = train_autoencoder(sample_a, cfg, seed=5)
    _, l_ft = fine_tune(encoder, sample_b, 80, cfg, seed=6)
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
    matrix = triple_artifacts.matrix
    assert len(matrix.records) == 3 * 2
    assert not matrix.missing_pairs()
    assert not matrix.skipped


def test_overlapping_pair_scores_dominate_remote(triple_artifacts):
    matrix = triple_artifacts.matrix
    close = min(matrix.score(0, 1), matrix.score(1, 0))
    remote = max(
        matrix.score(i, j)
        for i, j in [(0, 2), (2, 0), (1, 2), (2, 1)]
    )
    assert close > remote


def test_identical_distribution_pair_beats_half():
    rng = np.random.default_rng(12)
    base = rng.normal(size=8) * 3
    feats = base + rng.normal(size=(400, 8))
    labels = np.array([0] * 200 + [1] * 200)
    data = LabeledDataset(feats, labels, Catalog(("u", "v")))
    matrix = build_affinity_matrix(data, AffinityConfig(seed=2))
    assert matrix.score(0, 1) > 0.5
    assert matrix.score(1, 0) > 0.5


# --- batched build against the plain per-pair path -------------------------


def _plain_fine_tune(encoder, target_data, budget, cfg, seed):
    """One transfer exactly as a serial per-pair loop runs it: the warmup
    forwards and backpropagates through the frozen encoder on every batch."""
    n = target_data.shape[0]
    order = np.random.default_rng([seed, 0]).permutation(n)
    n_held = max(1, int(round(cfg.holdout_fraction * n)))
    pool, heldout = order[n_held:], order[:n_held]
    decoder = make_decoder(encoder.input_dim, cfg.encoder, np.random.default_rng([seed, 1]))
    train_rng = np.random.default_rng([seed, 2])
    rows = target_data[pool] if budget == 0 else target_data[pool[:budget]]
    _, decoder, _ = train_reconstruction(
        encoder, decoder, rows, cfg.warmup, train_rng, update_encoder=False
    )
    if budget > 0 and not cfg.freeze_encoder and cfg.finetune.epochs > 0:
        encoder, decoder, _ = train_reconstruction(
            encoder, decoder, rows, cfg.finetune, train_rng, update_encoder=True
        )
    return encoder, reconstruction_loss(encoder, decoder, target_data[heldout])


def _plain_autoencoder(data, cfg, seed):
    """One concept's autoencoder trained alone by the one-network trainer."""
    init_rng = np.random.default_rng([seed, 0])
    encoder = make_encoder(data.shape[1], cfg.encoder, init_rng)
    decoder = make_decoder(data.shape[1], cfg.encoder, init_rng)
    encoder, decoder, history = train_reconstruction(
        encoder, decoder, data, cfg.pretrain, np.random.default_rng([seed, 1])
    )
    return encoder, decoder, history[-1]


def _plain_build(dataset, cfg):
    """Records and pair encoders of a serial loop over every ordered pair."""
    ids = dataset.catalog.ids
    data = {cid: dataset.of_concept(cid) for cid in ids}
    encoders = {
        cid: _plain_autoencoder(data[cid], cfg, seed=task_seed(cfg.seed, 1, cid))[0] for cid in ids
    }
    records, tuned = [], {}
    for src in ids:
        for dst in ids:
            if src == dst:
                continue
            n = data[dst].shape[0]
            budget = min(cfg.budget, n - max(1, int(round(cfg.holdout_fraction * n))))
            seed = task_seed(cfg.seed, 2, dst)
            fresh = make_encoder(data[dst].shape[1], cfg.encoder, np.random.default_rng([seed, 3]))
            _, l_ref = _plain_fine_tune(fresh, data[dst], budget, cfg, seed)
            tuned[(src, dst)], l_ft = _plain_fine_tune(encoders[src], data[dst], budget, cfg, seed)
            p = raw_transfer_score(l_ft, l_ref)
            score = final_score(p, budget, cfg.b_max, cfg.alpha, cfg.beta)
            records.append(AffinityRecord(src, dst, p, budget, score))
    return tuple(records), tuned


def _same_mlp(a, b):
    return all(
        la.activation == lb.activation
        and np.array_equal(la.weights, lb.weights)
        and np.array_equal(la.bias, lb.bias)
        for la, lb in zip(a.layers, b.layers, strict=True)
    )


def _assert_build_matches_plain(dataset, cfg):
    artifacts = build_affinity_artifacts(dataset, cfg)
    records, tuned = _plain_build(dataset, cfg)
    assert artifacts.matrix.records == records  # exact float equality
    assert list(artifacts.pair_encoders) == list(tuned)
    for pair, encoder in tuned.items():
        assert _same_mlp(artifacts.pair_encoders[pair], encoder), pair
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
    stacks = []
    real = affinity_module.train_autoencoder_stack
    monkeypatch.setattr(affinity_module, "train_autoencoder_stack",
                        lambda d, *a: stacks.append([x.shape[0] for x in d]) or real(d, *a))
    _assert_build_matches_plain(data, cfg)
    assert stacks == [[40, 40], [55], [70]]


def test_autoencoder_stack_members_match_the_plain_path(triple_data_module):
    cfg = AffinityConfig(pretrain=SgdConfig(epochs=6, batch_size=32, learning_rate=0.1))
    data = [triple_data_module.of_concept(c) for c in range(3)]
    seeds = [4, 9, 2]
    plain = [_plain_autoencoder(d, cfg, seed) for d, seed in zip(data, seeds)]

    def same(got, want):
        return _same_mlp(got[0], want[0]) and _same_mlp(got[1], want[1]) and got[2] == want[2]

    assert all(same(train_autoencoder(d, cfg, seed), p) for d, seed, p in zip(data, seeds, plain))
    for members in ([0, 1, 2], [2, 0, 1], [1]):  # permuted, and a stack of one
        stacked = train_autoencoder_stack([data[s] for s in members], cfg, [seeds[s] for s in members])
        assert all(same(got, plain[s]) for s, got in zip(members, stacked))


def test_one_diverging_pretrain_member_names_its_concept():
    cfg = AffinityConfig(encoder=EncoderConfig(hidden_dim=4, latent_dim=2))
    calm = np.random.default_rng(0).normal(size=(40, 6))
    wild = calm * 1e4
    train_autoencoder(calm, cfg, seed=3)  # a calm member trains fine on its own
    with np.errstate(all="ignore"), pytest.raises(NumericError, match="stack member 1") as info:
        train_autoencoder_stack([calm, wild, calm + 1], cfg, [3, 4, 5])
    assert info.value.member == 1
    data = LabeledDataset(np.vstack([calm, wild, calm + 1]), np.repeat([0, 1, 2], 40), Catalog(("a", "b", "c")))
    with np.errstate(all="ignore"), pytest.raises(NumericError, match=r"pretraining concept 'b': .*stack member 1"):
        build_affinity_artifacts(data, cfg)


@pytest.mark.parametrize("variant", [{"freeze_encoder": True}, {"budget": 0}])
def test_build_matches_plain_path_without_joint_phase(triple_data_module, variant):
    cfg = replace(AffinityConfig(seed=2, warmup=SgdConfig(epochs=30, batch_size=16, learning_rate=0.1)), **variant)
    artifacts = _assert_build_matches_plain(triple_data_module, cfg)
    # no joint phase: every pair encoder is its source encoder, untouched
    for (src, _), encoder in artifacts.pair_encoders.items():
        assert encoder is artifacts.concept_encoders[src]


def test_one_diverging_stack_member_raises():
    linear = EncoderConfig(hidden_dim=4, latent_dim=2,
                           hidden_activation="identity", latent_activation="identity")
    cfg = AffinityConfig(encoder=linear, budget=20)
    data = np.random.default_rng(0).normal(size=(40, 6))
    calm = make_encoder(6, linear, np.random.default_rng(1))
    wild = Mlp(tuple(Layer(l.weights * 1e3, l.bias, l.activation) for l in calm.layers))
    fine_tune(calm, data, 20, cfg, seed=3)  # each calm member trains fine on its own
    with np.errstate(all="ignore"), pytest.raises(NumericError, match="stack member 1"):
        fine_tune_stack([calm, wild, calm], data, 20, cfg, seed=3)


def test_fine_tune_stack_members_match_single_calls(triple_data_module):
    cfg = AffinityConfig(warmup=SgdConfig(epochs=20, batch_size=16, learning_rate=0.1))
    target = triple_data_module.of_concept(2)
    encoders = [train_autoencoder(triple_data_module.of_concept(c), cfg, seed=c)[0] for c in (0, 1)]
    stacked = fine_tune_stack(encoders, target, 50, cfg, seed=11)
    for encoder, (tuned, l_ft) in zip(encoders, stacked):
        alone, l_alone = fine_tune(encoder, target, 50, cfg, seed=11)
        assert l_ft == l_alone and _same_mlp(tuned, alone)


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

    def spy(params, acts, x, target, cfg, rng, first_trainable=0):
        rows_seen.append((cfg, target.shape[0]))
        return real(params, acts, x, target, cfg, rng, first_trainable)

    monkeypatch.setattr(affinity_module, "sgd_reconstruction", spy)
    rng = np.random.default_rng(5)
    feats = np.vstack([rng.normal(size=(10, 4)), rng.normal(size=(10, 4)) + 3])
    data = LabeledDataset(feats, np.array([0] * 10 + [1] * 10), Catalog(("a", "b")))
    cfg = AffinityConfig(holdout_fraction=0.96, encoder=EncoderConfig(hidden_dim=6, latent_dim=2))
    matrix = build_affinity_matrix(data, cfg)
    assert rows_seen == [(cfg.warmup, 1), (cfg.finetune, 1)] * 2  # the joint phase ran
    assert [r.budget for r in matrix.records] == [1, 1]


def test_insufficient_concepts_are_skipped_and_reported():
    rng = np.random.default_rng(0)
    feats = np.vstack([rng.normal(size=(40, 5)), rng.normal(size=(40, 5)) + 4, rng.normal(size=(3, 5))])
    labels = np.array([0] * 40 + [1] * 40 + [2] * 3)
    data = LabeledDataset(feats, labels, Catalog(("a", "b", "tiny")))
    matrix = build_affinity_matrix(data, AffinityConfig(seed=0, min_examples=10))
    assert matrix.skipped == ((2, 3),)
    assert set(matrix.missing_pairs()) == {(0, 2), (2, 0), (1, 2), (2, 1)}


def test_fewer_than_two_usable_concepts_is_an_error():
    rng = np.random.default_rng(0)
    data = LabeledDataset(
        np.vstack([rng.normal(size=(40, 5)), rng.normal(size=(3, 5))]),
        np.array([0] * 40 + [1] * 3),
        Catalog(("a", "tiny")),
    )
    with pytest.raises(DataError, match="at least 2"):
        build_affinity_matrix(data, AffinityConfig(seed=0, min_examples=10))


# --- symmetrization ----------------------------------------------------------


def _matrix_from_scores(scores: dict) -> AffinityMatrix:
    k = max(max(i, j) for i, j in scores) + 1
    return AffinityMatrix(
        catalog=Catalog(tuple(f"c{i}" for i in range(k))),
        alpha=0.5,
        beta=0.5,
        b_max=100,
        seed=0,
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
    assert symmetrize_to_distance(m, method="min").values[0, 1] == pytest.approx(0.4)
    assert symmetrize_to_distance(m, method="max").values[0, 1] == pytest.approx(0.2)


def test_symmetrize_missing_pairs_named():
    m = _matrix_from_scores({(0, 1): 0.8, (1, 0): 0.6, (0, 2): 0.5, (2, 0): 0.5, (1, 2): 0.4})
    with pytest.raises(DataError, match="c2->c1"):
        symmetrize_to_distance(m)


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


def test_budget_annotations(triple_artifacts):
    dm = symmetrize_to_distance(triple_artifacts.matrix)
    assert dm.budgets is not None and len(dm.budgets) == 3
    assert all(b > 0 for b in dm.budgets)


# --- wire formats ------------------------------------------------------------


def test_affinity_json_roundtrip(triple_artifacts):
    obj = json.loads(json.dumps(affinity_to_json(triple_artifacts.matrix)))
    assert affinity_from_json(obj) == triple_artifacts.matrix
    assert obj["encoder"] == {"hidden_dim": 24, "latent_dim": 4,
                              "hidden_activation": "relu", "latent_activation": "sigmoid"}
    with pytest.raises(DataError, match="'dropout'"):
        affinity_from_json({**obj, "encoder": {**obj["encoder"], "dropout": 0.5}})
    short = {k: v for k, v in obj["encoder"].items() if k != "hidden_dim"}
    with pytest.raises(DataError, match="'hidden_dim'"):
        affinity_from_json({**obj, "encoder": short})


def test_affinity_json_rejects_unknown_top_level_keys(triple_artifacts):
    obj = affinity_to_json(triple_artifacts.matrix)
    with pytest.raises(DataError, match=r"unknown keys \['alpah', 'bogus'\]"):
        affinity_from_json({**obj, "bogus": 1, "alpah": 0.9})


@pytest.mark.parametrize("key", ["skipped", "encoder", "alpha"])
def test_affinity_json_rejects_a_missing_top_level_key(triple_artifacts, key):
    obj = {k: v for k, v in affinity_to_json(triple_artifacts.matrix).items() if k != key}
    with pytest.raises(DataError, match=rf"missing keys \['{key}'\]"):
        affinity_from_json(obj)


def test_affinity_json_roundtrip_with_provenance(triple_artifacts):
    obj = {**affinity_to_json(triple_artifacts.matrix), "provenance": {"command": "affinity", "seed": 3}}
    assert affinity_from_json(json.loads(json.dumps(obj))) == triple_artifacts.matrix
    null_encoder = replace(triple_artifacts.matrix, encoder=None)
    assert affinity_from_json(json.loads(json.dumps(affinity_to_json(null_encoder)))) == null_encoder


def test_affinity_config_json_roundtrip():
    cfg = AffinityConfig(
        encoder=EncoderConfig(5, 2, "sigmoid", "identity"),
        warmup=SgdConfig(epochs=7, batch_size=8, learning_rate=0.3, divergence_limit=1e4),
        budget=3, b_max=9, alpha=0.2, beta=0.7, holdout_fraction=0.3,
        min_examples=4, freeze_encoder=True, seed=11,
    )
    obj = json.loads(json.dumps(affinity_config_to_json(cfg)))
    assert affinity_config_from_json(obj) == cfg
    with pytest.raises(DataError, match="format"):
        affinity_config_from_json({**obj, "format": "hierclass-affinity-config-v0"})
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


def test_affinity_json_has_documented_keys(triple_artifacts):
    obj = affinity_to_json(triple_artifacts.matrix)
    assert set(obj) >= {"concepts", "alpha", "beta", "b_max", "seed", "entries"}
    assert set(obj["entries"][0]) == {"src", "dst", "p", "b", "s"}


def test_distance_csv_layout(triple_artifacts):
    text = distance_to_csv(symmetrize_to_distance(triple_artifacts.matrix))
    lines = text.strip().split("\n")
    assert lines[0] == ",c1,c2,c3"
    assert len(lines) == 4
    assert lines[1].split(",")[1] == "0.0"

import numpy as np
import pytest

from conftest import central_difference, rel_err
from hierclass.errors import NumericError
from hierclass.nets import (
    Layer,
    Mlp,
    SgdConfig,
    flatten_params,
    init_mlp,
    mlp_forward,
    mlp_params,
    reconstruction_grads,
    reconstruction_loss,
    task_seed,
    train_reconstruction,
    train_reconstruction_stack,
    unflatten_params,
)


def test_init_is_deterministic_and_shapes_chain():
    a = init_mlp((5, 7, 3), ("relu", "identity"), np.random.default_rng(0))
    b = init_mlp((5, 7, 3), ("relu", "identity"), np.random.default_rng(0))
    assert all(np.array_equal(x.weights, y.weights) for x, y in zip(a.layers, b.layers))
    assert a.input_dim == 5 and a.output_dim == 3
    assert a.parameter_count() == 5 * 7 + 7 + 7 * 3 + 3


def test_mlp_validation():
    with pytest.raises(ValueError):
        Layer(np.zeros((2, 3)), np.zeros(1), "identity")
    with pytest.raises(ValueError):
        Layer(np.zeros((2, 3)), np.zeros(2), "swish")
    with pytest.raises(ValueError):
        Layer(np.array([[np.nan, 0.0]]), np.zeros(1), "identity")
    ok = Layer(np.zeros((2, 3)), np.zeros(2), "relu")
    with pytest.raises(ValueError):
        Mlp((ok, Layer(np.zeros((4, 5)), np.zeros(4), "identity")))


def test_layers_are_read_only():
    net = init_mlp((3, 2), ("identity",), np.random.default_rng(0))
    with pytest.raises(ValueError):
        net.layers[0].weights[0, 0] = 1.0


def test_forward_identity_net_is_affine():
    w = np.array([[2.0, 0.0], [0.0, -1.0]])
    net = Mlp((Layer(w, np.array([1.0, 0.0]), "identity"),))
    out = mlp_forward(net, np.array([[1.0, 3.0]]))
    assert np.allclose(out, [[3.0, -3.0]])


def test_reconstruction_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    enc = init_mlp((5, 6, 2), ("relu", "sigmoid"), rng)
    dec = init_mlp((2, 5), ("identity",), rng)
    x = rng.normal(size=(9, 5))
    params = mlp_params(enc) + mlp_params(dec)
    acts = ["relu", "sigmoid", "identity"]
    _, grads = reconstruction_grads(params, acts, x)

    def f(vec):
        loss, _ = reconstruction_grads(unflatten_params(vec, params), acts, x)
        return loss

    fd = central_difference(f, flatten_params(params))
    assert rel_err(flatten_params(grads), fd) < 1e-6


def test_training_reduces_loss_and_reports_history():
    rng = np.random.default_rng(0)
    basis = rng.normal(size=(2, 6))
    x = rng.normal(size=(80, 2)) @ basis  # exact 2-dim subspace
    enc = init_mlp((6, 2), ("identity",), np.random.default_rng(1))
    dec = init_mlp((2, 6), ("identity",), np.random.default_rng(2))
    enc, dec, history = train_reconstruction(
        enc, dec, x, SgdConfig(epochs=200, batch_size=16, learning_rate=0.05), np.random.default_rng(3)
    )
    assert history[-1] < 1e-3
    assert history[-1] <= history[0]
    assert reconstruction_loss(enc, dec, x) == pytest.approx(history[-1])


def test_frozen_encoder_is_not_touched():
    rng = np.random.default_rng(0)
    enc = init_mlp((4, 3, 2), ("relu", "identity"), rng)
    dec = init_mlp((2, 4), ("identity",), rng)
    x = rng.normal(size=(30, 4))
    enc2, dec2, _ = train_reconstruction(
        enc, dec, x, SgdConfig(epochs=5, batch_size=8, learning_rate=0.05),
        np.random.default_rng(1), update_encoder=False,
    )
    assert enc2 is enc
    assert not np.array_equal(dec2.layers[0].weights, dec.layers[0].weights)


def test_divergence_raises_numeric_error():
    rng = np.random.default_rng(0)
    enc = init_mlp((3, 2), ("identity",), rng)
    dec = init_mlp((2, 3), ("identity",), rng)
    x = rng.normal(size=(20, 3)) * 10
    with np.errstate(all="ignore"), pytest.raises(NumericError, match="diverged"):
        train_reconstruction(
            enc, dec, x, SgdConfig(epochs=50, batch_size=4, learning_rate=50.0),
            np.random.default_rng(1),
        )


def test_dimension_mismatch_rejected():
    rng = np.random.default_rng(0)
    enc = init_mlp((3, 2), ("identity",), rng)
    dec = init_mlp((2, 3), ("identity",), rng)
    with pytest.raises(ValueError, match="dim"):
        train_reconstruction(enc, dec, rng.normal(size=(5, 4)),
                             SgdConfig(), np.random.default_rng(1))


def test_flatten_unflatten_roundtrip():
    rng = np.random.default_rng(0)
    params = [[rng.normal(size=(3, 2)), rng.normal(size=3)], [rng.normal(size=(1, 3)), rng.normal(size=1)]]
    vec = flatten_params(params)
    back = unflatten_params(vec, params)
    for (w, b), (w2, b2) in zip(params, back):
        assert np.array_equal(w, w2) and np.array_equal(b, b2)
    with pytest.raises(ValueError):
        unflatten_params(vec[:-1], params)


def test_task_seed_is_stable_and_distinct():
    assert task_seed(0, 1, 2) == task_seed(0, 1, 2)
    assert task_seed(0, 1, 2) != task_seed(0, 1, 3)
    assert task_seed(0, 1) != task_seed(1, 1)


def test_reconstruction_stack_members_match_single_calls():
    # each member has its own rows, initialization and Generator
    cfg = SgdConfig(epochs=6, batch_size=7, learning_rate=0.05)
    x = np.random.default_rng(0).normal(size=(4, 30, 5)) + np.arange(4)[:, None, None]
    encoders = [init_mlp((5, 4, 2), ("relu", "sigmoid"), np.random.default_rng([s, 0])) for s in range(4)]
    decoders = [init_mlp((2, 5), ("identity",), np.random.default_rng([s, 1])) for s in range(4)]
    alone = [
        train_reconstruction(encoders[s], decoders[s], x[s], cfg, np.random.default_rng([s, 2]))
        for s in range(4)
    ]

    def same(a, b):
        return all(
            np.array_equal(la.weights, lb.weights) and np.array_equal(la.bias, lb.bias)
            for net_a, net_b in zip(a[:2], b[:2])
            for la, lb in zip(net_a.layers, net_b.layers, strict=True)
        ) and a[2] == b[2]

    for members in ([0, 1, 2, 3], [2, 0, 3, 1], [3]):  # permuted, and a stack of one
        stacked = train_reconstruction_stack(
            [encoders[s] for s in members], [decoders[s] for s in members], x[members],
            cfg, [np.random.default_rng([s, 2]) for s in members],
        )
        assert len(stacked) == len(members)
        assert all(same(got, alone[s]) for s, got in zip(members, stacked))


def test_diverging_reconstruction_stack_member_is_named():
    rng = np.random.default_rng(0)
    enc = init_mlp((3, 2), ("identity",), rng)
    dec = init_mlp((2, 3), ("identity",), rng)
    x = rng.normal(size=(3, 20, 3))
    x[1] *= 1e4  # initial loss far beyond the divergence limit
    cfg = SgdConfig(epochs=2, batch_size=4, learning_rate=0.01)
    rngs = [np.random.default_rng(s) for s in range(3)]
    with pytest.raises(NumericError, match=r"initial state \(stack member 1\)") as info:
        train_reconstruction_stack([enc] * 3, [dec] * 3, x, cfg, rngs)
    assert info.value.member == 1

import json

import numpy as np
import pytest

from conftest import (
    central_difference,
    flatten_params,
    reconstruction_grads,
    reconstruction_loss,
    rel_err,
    train_reconstruction,
    unflatten_params,
)
from hierclass.errors import NumericError
from hierclass.nets import (
    Layer,
    Mlp,
    SgdConfig,
    init_mlp,
    member_mlp,
    mlp_forward,
    mlp_params,
    sgd_reconstruction,
    stack_params,
    task_seed,
)
from hierclass.serialize import mlp_from_json, mlp_to_json


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


def test_networks_compare_by_value():
    net = init_mlp((4, 5, 2), ("relu", "sigmoid"), np.random.default_rng(3))
    back = mlp_from_json(json.loads(json.dumps(mlp_to_json(net))))
    assert back is not net and back == net and back.layers[1] == net.layers[1]
    w = net.layers[1].weights.copy()
    w[1, 2] = np.nextafter(w[1, 2], np.inf)  # one ulp in one weight
    bumped = Mlp((net.layers[0], Layer(w, net.layers[1].bias, "sigmoid")))
    assert bumped != net and bumped.layers[1] != net.layers[1] and bumped.layers[0] == net.layers[0]
    assert Layer(net.layers[0].weights, net.layers[0].bias, "identity") != net.layers[0]
    assert net != "net" and net.layers[0] != net
    for value in (net, net.layers[0]):
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)


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


def test_training_reduces_loss_and_reports_initial_and_final():
    rng = np.random.default_rng(0)
    basis = rng.normal(size=(2, 6))
    x = rng.normal(size=(80, 2)) @ basis  # exact 2-dim subspace
    enc = init_mlp((6, 2), ("identity",), np.random.default_rng(1))
    dec = init_mlp((2, 6), ("identity",), np.random.default_rng(2))
    enc, dec, ends = train_reconstruction(
        enc, dec, x, SgdConfig(epochs=200, batch_size=16, learning_rate=0.05), np.random.default_rng(3)
    )
    assert ends[-1] < 1e-3
    assert ends[-1] <= ends[0]
    assert reconstruction_loss(enc, dec, x) == pytest.approx(ends[-1])


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
            for la, lb in zip(a.layers, b.layers, strict=True)
        )

    for members in ([0, 1, 2, 3], [2, 0, 3, 1], [3]):  # permuted, and a stack of one
        params = stack_params([encoders[s] for s in members]) + stack_params([decoders[s] for s in members])
        rows = x[members]
        ends = sgd_reconstruction(
            params, ["relu", "sigmoid", "identity"], rows, rows, cfg,
            [np.random.default_rng([s, 2]) for s in members],
        )
        for m, s in enumerate(members):
            encoder, decoder, losses = alone[s]
            assert same(member_mlp(params[:2], m, encoder), encoder)
            assert same(member_mlp(params[2:], m, decoder), decoder)
            assert [float(end[m]) for end in ends] == losses


def test_diverging_reconstruction_stack_member_is_named():
    rng = np.random.default_rng(0)
    enc = init_mlp((3, 2), ("identity",), rng)
    dec = init_mlp((2, 3), ("identity",), rng)
    x = rng.normal(size=(3, 20, 3))
    x[1] *= 1e4  # initial loss far beyond the divergence limit
    cfg = SgdConfig(epochs=2, batch_size=4, learning_rate=0.01)
    rngs = [np.random.default_rng(s) for s in range(3)]
    params = stack_params([enc] * 3) + stack_params([dec] * 3)
    with pytest.raises(NumericError, match=r"initial state \(stack member 1\)") as info:
        sgd_reconstruction(params, ["identity", "identity"], x, x, cfg, rngs)
    assert info.value.member == 1


def test_members_sharing_a_generator_share_its_order():
    # members 0, 2 and 3 hold one Generator over 7 rows, 1 and 4 another over 5:
    # every epoch each distinct Generator draws once, as it draws alone
    seeds, held = (3, 8), [0, 1, 0, 0, 1]
    cfg = SgdConfig(epochs=3, batch_size=3, learning_rate=0.05)
    rng = np.random.default_rng(0)
    x = [rng.normal(size=(7 if g == 0 else 5, 4)) for g in held]
    nets = [init_mlp((4, 3, 4), ("relu", "identity"), rng) for _ in held]
    params = stack_params(nets)
    generators = [np.random.default_rng(seed) for seed in seeds]
    ends = sgd_reconstruction(params, ["relu", "identity"], x, x, cfg, [generators[g] for g in held])
    for s, g in enumerate(held):
        alone = stack_params([nets[s]])
        alone_ends = sgd_reconstruction(alone, ["relu", "identity"], [x[s]], [x[s]], cfg,
                                           [np.random.default_rng(seeds[g])])
        assert all(np.array_equal(a[0], p[s]) for pair, alone_pair in zip(params, alone)
                   for p, a in zip(pair, alone_pair))
        assert [end[s] for end in ends] == [end[0] for end in alone_ends]
    with pytest.raises(ValueError, match="same row count"):
        sgd_reconstruction(stack_params(nets[:2]), ["relu", "identity"], x[:2], x[:2], cfg, [generators[0]] * 2)


@pytest.mark.parametrize("kwargs, field", [
    ({"epochs": -1}, "epochs"),
    ({"batch_size": 0}, "batch_size"),
    ({"learning_rate": 0.0}, "learning_rate"),
    ({"learning_rate": float("nan")}, "learning_rate"),
    ({"learning_rate": float("inf")}, "learning_rate"),
])
def test_schedules_that_cannot_train_are_rejected_naming_the_field(kwargs, field):
    from hierclass.hmodel import ErmConfig

    for config in (SgdConfig, ErmConfig):
        with pytest.raises(ValueError, match=f"^{field} must"):
            config(**kwargs)
    SgdConfig(epochs=0)  # no epochs is a valid schedule: the initial loss is still checked

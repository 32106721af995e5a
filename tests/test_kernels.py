"""The in-place SGD kernels against a plain allocating reference.

The reference below spells out forward, backprop, the MSE step and the
hinge step with one new array per expression. Every comparison is bit for
bit, and every input is read-only, so a kernel that wrote into one would
fail. Ragged stacks, whose members differ in row and child count, are
checked member by member against the reference run on that member alone.
"""

import re
from dataclasses import replace

import numpy as np
import pytest

from conftest import _plain_node_erm, as_partition
from hierclass import hmodel
from hierclass import nets as nets_module
from hierclass.affinity import AffinityConfig, EncoderConfig, train_autoencoder_stack
from hierclass.errors import NumericError
from hierclass.hmodel import ErmConfig, child_index_labels, erm_risk_and_grads, train_node_erm_stack
from hierclass.nets import (
    Layer,
    Mlp,
    SgdConfig,
    init_mlp,
    mlp_forward,
    mlp_params,
    sgd_reconstruction,
    stack_params,
)

# --- plain reference --------------------------------------------------------


def epoch_order(rng, n):
    """One epoch's batch order over n rows: a permutation (n,) from one
    Generator, or one per member (S, n) from a sequence of them, members
    holding the same Generator sharing the one permutation it draws."""
    if isinstance(rng, np.random.Generator):
        return rng.permutation(n)
    drawn = {r: r.permutation(n) for r in dict.fromkeys(rng)}
    return np.stack([drawn[r] for r in rng])


def take_rows(a, rows):
    """The rows ``rows`` of ``a``: rows (b,) of every member, or with rows
    (S, b) member s's own rows of ``a[s]``."""
    if rows.ndim == 1:
        return a[..., rows, :]
    return np.stack([a_s[r] for a_s, r in zip(a, rows)])


def ref_activation(name, z):
    if name == "identity":
        return z
    if name == "relu":
        return np.maximum(z, 0.0)
    with np.errstate(over="ignore"):
        e = np.exp(-z)
    return 1.0 / (1.0 + e)


def ref_activation_deriv(name, z, a):
    if name == "relu":
        return (z > 0.0).astype(float)
    return a * (1.0 - a)


def ref_forward_trace(params, acts, x):
    a, outputs, preacts = x, [x], []
    for (w, b), act in zip(params, acts):
        z = a @ w.swapaxes(-1, -2) + b[..., None, :]
        a = ref_activation(act, z)
        preacts.append(z)
        outputs.append(a)
    return outputs, preacts


def ref_backprop(params, acts, outputs, preacts, delta):
    grads = [None] * len(params)
    for i in range(len(params) - 1, -1, -1):
        dz = delta
        if acts[i] != "identity":
            dz = delta * ref_activation_deriv(acts[i], preacts[i], outputs[i + 1])
        grads[i] = [dz.swapaxes(-1, -2) @ outputs[i], dz.sum(axis=-2)]
        if i > 0:
            delta = dz @ params[i][0]
    return grads


def ref_sgd_reconstruction(params, acts, x, target, cfg, rng):
    def losses():
        out = ref_forward_trace(params, acts, x)[0][-1]
        return np.atleast_1d(np.mean((out - target) ** 2, axis=(-2, -1)))

    history = [losses()]
    n = target.shape[-2]
    for _ in range(cfg.epochs):
        order = epoch_order(rng, n)
        x_epoch, target_epoch = take_rows(x, order), take_rows(target, order)
        for start in range(0, n, cfg.batch_size):
            rows = slice(start, start + cfg.batch_size)
            outputs, preacts = ref_forward_trace(params, acts, x_epoch[..., rows, :])
            resid = outputs[-1] - target_epoch[..., rows, :]
            delta = 2.0 * resid / (resid.shape[-2] * resid.shape[-1])
            grads = ref_backprop(params, acts, outputs, preacts, delta)
            for i in range(len(params)):
                params[i][0] = params[i][0] - cfg.learning_rate * grads[i][0]
                params[i][1] = params[i][1] - cfg.learning_rate * grads[i][1]
        history.append(losses())
    return history


def ref_hinge(w, b, z, y, l2):
    margins = 1.0 - y * (z @ w.swapaxes(-1, -2) + b[..., None, :])
    members = margins.shape[:-2]
    hinge = np.where(margins > 0, margins, 0.0).reshape(members + (-1,)).sum(axis=-1)
    risk = hinge / margins.shape[-2] + l2 * (w**2).reshape(members + (-1,)).sum(axis=-1)
    ds = -(y * (margins > 0)) / margins.shape[-2]
    return risk, ds.swapaxes(-1, -2) @ z + 2.0 * l2 * w, ds.sum(axis=-2), ds


def ref_erm_stack(encoders, features, child_idx, n_children, cfg, seeds):
    sizes = [len(idx) for idx in child_idx]
    members = np.concatenate(child_idx)
    owner = np.repeat(np.arange(len(sizes)), sizes)
    z = np.stack([ref_forward_trace(mlp_params(e), [l.activation for l in e.layers], f)[0][-1]
                  for e, f in zip(encoders, features)])[owner]
    y = np.where(members[..., None] == np.arange(n_children), 1.0, -1.0)
    w, b = np.zeros((len(members), n_children, z.shape[-1])), np.zeros((len(members), n_children))
    generators = [np.random.default_rng(seed) for seed in seeds]
    rngs = [generators[g] for g in owner]
    history = [ref_hinge(w, b, z, y, cfg.l2)[0]]
    best_risk, best_w, best_b = history[0], w.copy(), b.copy()
    m = z.shape[-2]
    for _ in range(cfg.epochs):
        order = epoch_order(rngs, m)
        z_epoch, y_epoch = take_rows(z, order), take_rows(y, order)
        for start in range(0, m, cfg.batch_size):
            zb, yb = z_epoch[:, start : start + cfg.batch_size], y_epoch[:, start : start + cfg.batch_size]
            _, dw, db, _ = ref_hinge(w, b, zb, yb, cfg.l2)
            w = w - cfg.learning_rate * dw
            b = b - cfg.learning_rate * db
        risk = ref_hinge(w, b, z, y, cfg.l2)[0]
        history.append(risk)
        better = risk < best_risk
        best_risk = np.where(better, risk, best_risk)
        np.copyto(best_w, w, where=better[:, None, None])
        np.copyto(best_b, b, where=better[:, None])
    return best_w, best_b, history


# --- helpers ----------------------------------------------------------------


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def read_only(a, dtype=float):
    a = np.array(a, dtype=dtype)
    a.setflags(write=False)
    return a


def copies(params):
    return [[w.copy(), b.copy()] for w, b in params]


def check_sgd(params, acts, x, target, cfg, make_rng):
    """Run the kernel and the reference from equal copies; assert bit-equal
    initial and final losses and parameters, and that the caller's arrays
    moved in place."""
    same = target is x
    x = read_only(x)
    target = x if same else read_only(target)
    ref = copies(params)
    arrays = [a for pair in params for a in pair]
    before = [a.copy() for a in arrays]
    losses = sgd_reconstruction(params, acts, x, target, cfg, make_rng())
    ref_history = ref_sgd_reconstruction(ref, acts, x, target, cfg, make_rng())
    assert len(losses) == 2 and len(ref_history) == cfg.epochs + 1
    assert same_bits(losses[0], ref_history[0]) and same_bits(losses[1], ref_history[-1])
    for (w, b), (rw, rb) in zip(params, ref):
        assert same_bits(w, rw) and same_bits(b, rb)
    assert [a for pair in params for a in pair] == arrays  # the very same objects
    assert not any(np.array_equal(a, old) for a, old in zip(arrays, before))  # every layer moved
    return losses


# --- forward and SGD --------------------------------------------------------


def test_mlp_forward_matches_reference_and_leaves_input_alone():
    rng = np.random.default_rng(0)
    net = init_mlp((6, 9, 4, 3), ("relu", "sigmoid", "identity"), rng)
    x = read_only(rng.normal(size=(17, 6)))
    out = mlp_forward(net, x)
    assert same_bits(out, ref_forward_trace(mlp_params(net), [l.activation for l in net.layers], x)[0][-1])
    assert out.flags.writeable and not np.shares_memory(out, x)


@pytest.mark.parametrize("rows, batch", [(23, 8), (5, 8), (24, 8)], ids=["tail", "short", "even"])
def test_stacked_sgd_with_members_of_different_generators(rows, batch):
    rng = np.random.default_rng(1)
    nets = [init_mlp((5, 7, 2, 5), ("relu", "sigmoid", "identity"), rng) for _ in range(4)]
    params = stack_params(nets)
    x = rng.normal(size=(4, rows, 5))
    target = rng.normal(size=(4, rows, 5))
    cfg = SgdConfig(epochs=6, batch_size=batch, learning_rate=0.2)

    def rngs():  # members 0 and 2 hold one Generator, 1 and 3 their own
        shared = np.random.default_rng(10)
        return [shared, np.random.default_rng(11), shared, np.random.default_rng(12)]

    check_sgd(params, ["relu", "sigmoid", "identity"], x, target, cfg, rngs)


def test_relu_preactivations_at_exactly_zero():
    rng = np.random.default_rng(2)
    enc = init_mlp((4, 6), ("relu",), rng)
    w = np.array(enc.layers[0].weights)
    w[:2] = 0.0  # units 0 and 1 sit at z = 0 on every row, and stay there
    params = stack_params([Mlp((Layer(w, np.zeros(6), "relu"),))]) + stack_params([init_mlp((6, 4), ("identity",), rng)])
    x = rng.normal(size=(1, 19, 4))
    x[:, ::3] = 0.0
    initial, final = check_sgd(params, ["relu", "identity"], x, x, SgdConfig(epochs=5, batch_size=4),
                               lambda: [np.random.default_rng(3)])
    assert np.all(params[0][0][:, :2] == 0.0) and np.all(params[0][1][:, :2] == 0.0)
    assert final < initial


def test_sigmoid_beyond_exp_overflow():
    rng = np.random.default_rng(4)
    w = np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.5, 0.5, 0.5]])
    params = [[w[None], np.zeros((1, 3))]] + stack_params([init_mlp((3, 2), ("identity",), rng)])
    x = rng.normal(size=(12, 3))
    x[:, :2] += np.where(rng.random((12, 2)) < 0.5, -800.0, 800.0)  # sigmoid inputs near +-800
    target = rng.normal(size=(12, 2))
    with np.errstate(over="raise"):  # the kernel silences exp's overflow itself
        check_sgd(params, ["sigmoid", "identity"], x[None], target[None], SgdConfig(epochs=4, batch_size=5),
                  lambda: [np.random.default_rng(5)])


def test_frozen_leading_layers_with_cached_latents():
    rng = np.random.default_rng(6)
    nets = [init_mlp((3, 8, 6), ("sigmoid", "identity"), rng) for _ in range(3)]
    latents = rng.random((3, 21, 3))  # per-member inputs, as a frozen encoder's latents are
    target = rng.normal(size=(3, 21, 6))
    cfg = SgdConfig(epochs=5, batch_size=8, learning_rate=0.1)
    check_sgd(stack_params(nets), ["sigmoid", "identity"], latents, target, cfg,
              lambda: [np.random.default_rng(s) for s in (7, 8, 9)])
    shared = rng.random((21, 3))  # one input matrix shared by every member, one Generator's batch order
    check_sgd(stack_params(nets), ["sigmoid", "identity"], np.stack([shared] * 3), np.stack([target[0]] * 3), cfg,
              lambda: [np.random.default_rng(10)] * 3)


@pytest.mark.parametrize("epochs", [0, 1, 6])
def test_sgd_evaluates_the_full_data_loss_exactly_twice(monkeypatch, epochs):
    rng = np.random.default_rng(14)
    rows = (9, 9, 14)
    acts = ["relu", "identity"]
    params = stack_params([init_mlp((3, 4, 3), acts, rng) for _ in rows])
    x = [read_only(rng.normal(size=(n, 3))) for n in rows]
    evaluated, real = [], nets_module.member_mse

    def counted(params, acts, x, target):  # x is (members, rows, in): one run of equal row count
        evaluated.append(x.shape[0] * x.shape[1])
        return real(params, acts, x, target)

    monkeypatch.setattr(nets_module, "member_mse", counted)
    sgd_reconstruction(params, acts, x, x, SgdConfig(epochs=epochs, batch_size=4),
                       [np.random.default_rng(s) for s in range(len(rows))])
    assert len(evaluated) == 2 * len(set(rows)) and sum(evaluated) == 2 * sum(rows)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_parameters_gone_non_finite_name_the_epoch_and_the_first_such_member():
    # at learning rate 20 every member's parameters overflow, each at the epoch
    # it reaches alone; the stack names the earliest, by caller index, though
    # sorted by row count the 80-row member comes first
    cfg = AffinityConfig()
    cfg = replace(cfg, pretrain=replace(cfg.pretrain, batch_size=8, learning_rate=20.0))
    rng = np.random.default_rng(2)
    data = [read_only(rng.normal(size=(n, 6))) for n in (64, 64, 80)]
    seeds = [1, 2, 3]
    alone = []
    for d, seed in zip(data, seeds):
        with pytest.raises(NumericError, match=r"^reconstruction diverged at epoch \d+: non-finite parameters") as info:
            train_autoencoder_stack([d], cfg.encoder, cfg.pretrain, [seed])
        alone.append(int(re.search(r"epoch (\d+)", str(info.value)).group(1)))
    assert alone.index(min(alone)) == 1 and alone.count(min(alone)) == 1
    with pytest.raises(NumericError, match=rf"at epoch {alone[1]} \(stack member 1\): non-finite parameters") as info:
        train_autoencoder_stack(data, cfg.encoder, cfg.pretrain, seeds)
    assert info.value.member == 1


def test_a_final_loss_above_the_divergence_limit_raises():
    rng = np.random.default_rng(15)
    acts = ["relu", "sigmoid", "identity"]
    net = init_mlp((6, 8, 3, 6), acts, rng)
    x = read_only(rng.normal(size=(64, 6)))
    cfg = SgdConfig(epochs=3, batch_size=8, learning_rate=20.0)
    history = ref_sgd_reconstruction(mlp_params(net), acts, x, x, cfg, np.random.default_rng(2))
    assert history[0][0] < cfg.divergence_limit < history[-1][0] < np.inf  # the loss rises past the limit, finite
    with pytest.raises(NumericError, match=r"at the end of training: loss") as info:
        sgd_reconstruction(stack_params([net]), acts, [x], [x], cfg, [np.random.default_rng(2)])
    assert info.value.member == 0
    params = stack_params([net])  # a limit above the final loss lets it through
    _, final = sgd_reconstruction(params, acts, [x], [x], replace(cfg, divergence_limit=float(history[-1][0]) * 2),
                                  [np.random.default_rng(2)])
    assert same_bits(final, history[-1])


# --- hinge ERM --------------------------------------------------------------


def check_erm_stack(rows, batch):
    """Two problems of ``rows`` rows, three groupings in all, trained as one
    stack, against the reference: weights, biases and every epoch's risks."""
    rng = np.random.default_rng(11)
    encoders = [init_mlp((4, 6, 3), ("relu", "sigmoid"), rng) for _ in range(2)]
    features = [read_only(rng.normal(size=(rows, 4))) for _ in range(2)]
    child_idx = [read_only([np.arange(rows) % 3, (np.arange(rows) // 2) % 3], int),
                 read_only([np.arange(rows) % 3], int)]
    cfg = ErmConfig(epochs=7, batch_size=batch, learning_rate=0.3, l2=1e-2)
    partitions = [[as_partition(row, 3) for row in idx] for idx in child_idx]  # each row its own concept
    got = train_node_erm_stack(encoders, features, [np.arange(rows)] * 2, partitions, cfg, [21, 22])
    best_w, best_b, history = ref_erm_stack(encoders, features, child_idx, 3, cfg, [21, 22])
    lo = 0
    for w, b, risks in got:
        hi = lo + len(w)
        assert same_bits(w, best_w[lo:hi]) and same_bits(b, best_b[lo:hi])
        assert len(risks) == cfg.epochs + 1
        assert all(same_bits(r, h[lo:hi]) for r, h in zip(risks, history))
        lo = hi


@pytest.mark.parametrize("rows, batch", [(29, 8), (6, 8), (32, 8)], ids=["tail", "short", "even"])
def test_erm_stack_matches_reference(rows, batch):
    check_erm_stack(rows, batch)


# a batch-major step reads its rows from a window of consecutive steps' rows,
# gathered once per epoch, and STEP_SCORES bounds how many steps share one:
# here one batch of the 3 members' width-3 latents, or the whole epoch
@pytest.mark.parametrize("budget, windows", [(3 * 8 * 3, 4), (None, 1)], ids=["one-batch", "whole-epoch"])
def test_erm_stack_windows_match_reference(budget, windows, monkeypatch):
    if budget is not None:
        monkeypatch.setattr(hmodel, "STEP_SCORES", budget)
    seen, real = [], hmodel._windows
    monkeypatch.setattr(hmodel, "_windows", lambda *args: seen.append(real(*args)) or seen[-1])
    check_erm_stack(29, 8)
    assert len({id(w) for w in seen[0]}) == windows


@pytest.mark.parametrize("nan_row", [None, 3], ids=["finite", "nan"])
def test_erm_risk_and_grads_match_reference(nan_row):
    rng = np.random.default_rng(12)
    w, b = read_only(rng.normal(size=(4, 5))), read_only(rng.normal(size=4))
    z = rng.normal(size=(30, 5))
    if nan_row is not None:  # a NaN hinge counts 0 toward the risk
        z[nan_row, 1] = np.nan
    z = read_only(z)
    child_idx = np.arange(30) % 4
    y = np.where(child_idx[:, None] == np.arange(4), 1.0, -1.0)
    risk, dw, db, ds = erm_risk_and_grads(w, b, z, child_idx, 1e-3)
    ref = ref_hinge(w, b, z, y, 1e-3)
    assert isinstance(risk, float) and same_bits(risk, ref[0])
    assert all(same_bits(a, r) for a, r in zip((dw, db, ds), ref[1:]))


# --- ragged stacks ------------------------------------------------------------

BATCH = 8
RAGGED_ROWS = (1, BATCH - 1, BATCH, BATCH + 1, 2 * BATCH + 7)


@pytest.mark.parametrize("shuffled", [False, True], ids=["given", "shuffled"])
def test_ragged_reconstruction_stack_equals_each_member_alone(shuffled):
    rng = np.random.default_rng(13)
    rows = list(RAGGED_ROWS) * 2  # every row count twice: short batches step in pairs
    if shuffled:
        rows = list(rng.permutation(rows))
    acts = ["relu", "sigmoid", "identity"]
    nets = [init_mlp((5, 6, 3, 4), acts, rng) for _ in rows]
    x = [read_only(rng.normal(size=(n, 5))) for n in rows]
    target = [read_only(rng.normal(size=(n, 4))) for n in rows]
    seeds = [40 + i for i in range(len(rows))]
    cfg = SgdConfig(epochs=5, batch_size=BATCH, learning_rate=0.2)
    params = stack_params(nets)
    arrays = [a for pair in params for a in pair]
    initial, final = sgd_reconstruction(params, acts, x, target, cfg, [np.random.default_rng(s) for s in seeds])
    assert [a for pair in params for a in pair] == arrays  # moved in place
    for s, net in enumerate(nets):
        ref = mlp_params(net)
        ref_history = ref_sgd_reconstruction(ref, acts, x[s], target[s], cfg, np.random.default_rng(seeds[s]))
        assert same_bits(initial[s], ref_history[0][0]) and same_bits(final[s], ref_history[-1][0])
        for (w, b), (rw, rb) in zip(params, ref):
            assert same_bits(w[s], rw) and same_bits(b[s], rb)


def _ragged_problems(rng, latent, one_row):
    """Problems over the ragged row counts, each row its own concept, each
    with groupings into 2, 3 and 4 children (as many as its rows allow),
    and when ``one_row`` a one-row problem whose second child holds no row."""
    problems = []
    for n in RAGGED_ROWS[1:]:
        partitions = [as_partition(rng.permutation(np.arange(n) % c), c) for c in (2, 3, 4, 3) if c <= n]
        encoder = init_mlp((4, 6, latent), ("relu", "sigmoid"), rng)
        problems.append((encoder, read_only(rng.normal(size=(n, 4))), np.arange(n), partitions))
    if one_row:
        problems.append((init_mlp((4, 6, latent), ("relu", "sigmoid"), rng), read_only(rng.normal(size=(1, 4))),
                         np.zeros(1, dtype=int), [((0,), (1,))]))
    return problems


# one-row batches and one-dimensional latents make numpy take matrix-vector
# products, whose sums depend on the scorer count: the kernel steps those
# per child count; a small sub-step budget cuts and merges member runs
@pytest.mark.parametrize("shuffled", [False, True], ids=["given", "shuffled"])
@pytest.mark.parametrize("latent, one_row, batch, budget", [
    (3, False, BATCH, None), (8, False, BATCH, None), (1, False, BATCH, None),
    (3, True, BATCH, None), (8, False, 1, None), (3, False, BATCH, 2 * BATCH),
], ids=["latent3", "latent8", "latent1", "one-row", "batch1", "small-sub-steps"])
def test_ragged_erm_stack_equals_each_member_alone(shuffled, latent, one_row, batch, budget, monkeypatch):
    if budget is not None:
        monkeypatch.setattr(hmodel, "STEP_SCORES", budget)
    rng = np.random.default_rng(17)
    problems = _ragged_problems(rng, latent, one_row)
    if shuffled:
        problems = [problems[g] for g in rng.permutation(len(problems))]
    seeds = [60 + g for g in range(len(problems))]
    cfg = ErmConfig(epochs=6, batch_size=batch, learning_rate=0.3, l2=1e-2)
    for encoder, f, labels, partition, seed, w1, b1 in _each_member_alone(problems, seeds, cfg):
        (alone_w, alone_b, alone_h), = train_node_erm_stack([encoder], [f], [labels], [[partition]], cfg, [seed])
        assert same_bits(alone_w[0], w1) and same_bits(alone_b[0], b1)


def _each_member_alone(problems, seeds, cfg):
    """Train the problems as one stack and check every partition bit for bit
    against the plain loop run on its child indices alone; yields each
    partition's problem, the partition and the plain result."""
    encoders, features, labels, partitions = zip(*problems)
    stacked = train_node_erm_stack(encoders, features, labels, partitions, cfg, seeds)
    assert len(stacked) == len(problems)
    for (encoder, f, concepts, parts), seed, (w, b, history) in zip(problems, seeds, stacked):
        assert len(w) == len(b) == len(parts) and len(history) == cfg.epochs + 1
        for p, partition in enumerate(parts):
            idx = child_index_labels(partition, concepts)
            w1, b1, h1 = _plain_node_erm(encoder, f, idx, len(partition), cfg, seed)
            assert same_bits(w[p], w1) and same_bits(b[p], b1)
            assert [float(h[p]) for h in history] == h1
            yield encoder, f, concepts, partition, seed, w1, b1


def _problems_over(rng, rows, counts, latent=3):
    """Problem g over ``rows[g]`` rows, each its own concept, with one
    grouping per child count in ``counts[g]``."""
    problems = []
    for n, cs in zip(rows, counts):
        partitions = [as_partition(rng.permutation(np.arange(n) % c), c) for c in cs]
        encoder = init_mlp((4, 6, latent), ("relu", "sigmoid"), rng)
        problems.append((encoder, read_only(rng.normal(size=(n, 4))), read_only(np.arange(n), int), partitions))
    return problems


# groups of equal row and child count that span several problems, each
# problem holding one or more of the group's members: the per-epoch risks
# read each problem's latents once for all its members in the group
@pytest.mark.parametrize("budget", [None, 2 * BATCH], ids=["default", "small-sub-steps"])
def test_erm_stack_with_problems_sharing_row_and_child_counts(budget, monkeypatch):
    if budget is not None:
        monkeypatch.setattr(hmodel, "STEP_SCORES", budget)
    rng = np.random.default_rng(23)
    rows = (20, 20, 20, 13, 13, 20)
    counts = ([2, 2, 3], [2, 3, 3], [2, 2], [3, 2], [2, 3, 2], [3])
    cfg = ErmConfig(epochs=5, batch_size=BATCH, learning_rate=0.3, l2=1e-2)
    assert len(list(_each_member_alone(_problems_over(rng, rows, counts), [70 + g for g in range(6)], cfg))) == 14


def test_erm_stack_of_over_a_hundred_members():
    rng = np.random.default_rng(29)
    rows = (24, 24, 24, 24, 17, 17, 17, 40)
    counts = [[2 + (g + p) % 3 for p in range(13)] for g in range(8)]
    cfg = ErmConfig(epochs=4, batch_size=BATCH, learning_rate=0.3, l2=1e-2)
    assert len(list(_each_member_alone(_problems_over(rng, rows, counts), [80 + g for g in range(8)], cfg))) == 104


# per grouping, each concept's child: children shared by groupings at other
# positions and in other orders, and a grouping repeated
_SHARED_CHILDREN = (
    [(0, 0, 1, 2, 2), (1, 1, 0, 2, 2), (1, 1, 1, 0, 0), (0, 0, 1, 2, 2), (0, 1, 2, 3, 3)],
    [(0, 1, 1, 0), (1, 0, 0, 1), (0, 1, 2, 2)],
)


@pytest.mark.parametrize("budget", [None, 2 * BATCH], ids=["default", "small-sub-steps"])
def test_erm_stack_trains_each_shared_child_once(budget, monkeypatch):
    if budget is not None:
        monkeypatch.setattr(hmodel, "STEP_SCORES", budget)
    scorers, real = [], hmodel._blocks

    def spy(partitions):
        out = real(partitions)
        scorers.append(len(out))
        return out

    monkeypatch.setattr(hmodel, "_blocks", spy)
    rng = np.random.default_rng(31)
    problems = []
    for groupings, rows in zip(_SHARED_CHILDREN, (45, 38)):
        concepts = rng.permutation(np.arange(rows) % len(groupings[0]))
        features = read_only(rng.normal(size=(rows, 4)) + concepts[:, None])
        problems.append((init_mlp((4, 6, 3), ("relu", "sigmoid"), rng), features, read_only(concepts, int),
                         [as_partition(g, len(set(g))) for g in groupings]))
    cfg = ErmConfig(epochs=6, batch_size=BATCH, learning_rate=0.3, l2=1e-2)
    assert len(list(_each_member_alone(problems, [90, 91], cfg))) == 8
    # one member per problem, training its distinct children once: {0,1}, {2}, {3,4},
    # {0,1,2}, {0} and {1}; and {0,3}, {1,2}, {0}, {1} and {2,3}
    assert scorers == [6, 5]


def test_diverging_member_of_a_ragged_autoencoder_stack_is_named_by_caller_index():
    cfg = AffinityConfig(encoder=EncoderConfig(hidden_dim=4, latent_dim=2))
    rng = np.random.default_rng(0)
    calm, wild = rng.normal(size=(60, 6)), rng.normal(size=(25, 6)) * 1e4
    # sorted by row count the wild member would come last; the error names its caller index
    with np.errstate(all="ignore"), pytest.raises(NumericError, match=r"stack member 1\)") as info:
        train_autoencoder_stack([calm, wild, calm[:40]], cfg.encoder, cfg.pretrain, [3, 4, 5])
    assert info.value.member == 1

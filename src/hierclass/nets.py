"""Dense-network plumbing shared by the affinity and classifier stages.

Everything is plain numpy float64. Networks are small (a hidden layer or
two); training is mini-batch SGD with an explicit divergence guard: the
full-data loss is checked before the first epoch and after the last, and
the parameters, held in one flat buffer per call, after every epoch. Mlp
values are immutable once built: their arrays are copied and marked
read-only, so a published network never changes under its users.

Training parameters carry a leading stack axis (weights (S, out, in),
biases (S, out)): S same-shaped networks train as one SGD through 3-D
``np.matmul``, and every stack member computes bit for bit what it would
compute alone. Each member trains on its own rows in the order drawn from
the ``Generator`` it holds, members holding the same Generator sharing its
order, and members may differ in row count: :func:`ragged_schedule` steps
them through an epoch so that each member's batches, a short last batch
included, are the ones it has alone, and the two full-data losses are
computed per run of equal row count, so every sum keeps its order.

The kernels work in place, and a kernel writes only into arrays it
allocated: never into inputs, targets or cached latents, SGD updating the
caller's training parameters as documented. A forward that no backprop
follows keeps no intermediate layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NumericError

ACTIVATIONS = ("identity", "relu", "sigmoid")


def _activate(name: str, z: np.ndarray) -> np.ndarray:
    """Apply activation ``name`` to ``z`` in place; returns ``z``."""
    if name == "relu":
        np.maximum(z, 0.0, out=z)
    elif name == "sigmoid":
        np.negative(z, out=z)
        with np.errstate(over="ignore"):  # exp(-z) is inf below z of about -709: the sigmoid's limit 0 follows
            np.exp(z, out=z)
        z += 1.0
        np.divide(1.0, z, out=z)
    elif name != "identity":
        raise ValueError(f"unknown activation {name!r}")
    return z


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class Layer:
    """One dense layer. A layer, and a network of them, is a value: equal to
    another when their activations are and their arrays hold the same
    numbers, and unhashable, as its arrays are."""

    weights: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)
    activation: str

    __hash__ = None

    def __eq__(self, other):
        if not isinstance(other, Layer):
            return NotImplemented
        return (self.activation == other.activation and np.array_equal(self.weights, other.weights)
                and np.array_equal(self.bias, other.bias))

    def __post_init__(self) -> None:
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        w = _frozen(self.weights)
        b = _frozen(self.bias)
        if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
            raise ValueError(f"inconsistent layer shapes {w.shape} / {b.shape}")
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise ValueError("layer parameters must be finite")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", b)


@dataclass(frozen=True)
class Mlp:
    layers: tuple[Layer, ...]  # compared layer by layer, as values

    __hash__ = None

    def __post_init__(self) -> None:
        if not self.layers:
            raise ValueError("empty network")
        for prev, cur in zip(self.layers, self.layers[1:]):
            if cur.weights.shape[1] != prev.weights.shape[0]:
                raise ValueError("layer dimensions do not chain")

    @property
    def input_dim(self) -> int:
        return self.layers[0].weights.shape[1]

    @property
    def output_dim(self) -> int:
        return self.layers[-1].weights.shape[0]

    def parameter_count(self) -> int:
        return sum(l.weights.size + l.bias.size for l in self.layers)


def init_mlp(dims: Sequence[int], activations: Sequence[str], rng) -> Mlp:
    """Glorot-uniform initialized network with the given layer dims.

    ``dims`` = (in, h1, ..., out); ``activations`` has one tag per layer.
    """
    if len(activations) != len(dims) - 1:
        raise ValueError("need one activation per layer")
    layers = []
    for fan_in, fan_out, act in zip(dims, dims[1:], activations):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-limit, limit, size=(fan_out, fan_in))
        b = np.zeros(fan_out)
        layers.append(Layer(w, b, act))
    return Mlp(tuple(layers))


def mlp_forward(mlp: Mlp, x: np.ndarray) -> np.ndarray:
    """Apply the network to a batch (N, input_dim) -> (N, output_dim)."""
    params = [[layer.weights, layer.bias] for layer in mlp.layers]
    return forward(params, [layer.activation for layer in mlp.layers], np.asarray(x, dtype=float))


# --- mutable training representation ---------------------------------------
# During SGD we work on plain [W, b] copies and only wrap back into Mlp at
# the end, so the frozen/read-only invariant holds for every published value.


def mlp_params(mlp: Mlp) -> list[list[np.ndarray]]:
    return [[layer.weights.copy(), layer.bias.copy()] for layer in mlp.layers]


def params_to_mlp(params: list[list[np.ndarray]], template: Mlp) -> Mlp:
    return Mlp(
        tuple(
            Layer(w, b, layer.activation)
            for (w, b), layer in zip(params, template.layers)
        )
    )


def stack_params(mlps: Sequence[Mlp]) -> list[list[np.ndarray]]:
    """Training parameters of same-shaped networks on a leading stack axis."""
    return [
        [np.stack([m.layers[i].weights for m in mlps]), np.stack([m.layers[i].bias for m in mlps])]
        for i in range(len(mlps[0].layers))
    ]


def member_mlp(params, s: int, template: Mlp) -> Mlp:
    """Stack member ``s`` of stacked training parameters, as a network."""
    return params_to_mlp([[w[s], b[s]] for w, b in params], template)


def ragged_schedule(rows, batch: int, rngs, key=None):
    """The SGD schedule of stack members with ``rows[s]`` rows each, member
    s drawing its batch order from the Generator ``rngs[s]``.

    Members are sorted by row count, descending, then by ``key[s]`` (say,
    a scorer count), ties in the caller's order. Returns ``(order, position,
    groups, steps, shuffle)``: the caller's member indices in sorted order
    and its inverse; the (lo, hi) runs of sorted members with equal row count
    and key; an epoch's (lo, hi, start, size) steps in order of row offset,
    where at ``start`` = i·batch the members with a full batch left are the
    prefix [0, hi) and members whose short last batch starts there step with
    the others of their row count, so each member steps through its rows in
    the batches it has alone; and ``shuffle()``, which draws the next epoch's
    permutation of each distinct Generator into the rows of the sorted
    members holding it (they must have the same row count) of the (members,
    max rows) array it returns, the same array each call.
    """
    rows = np.asarray(rows, dtype=int)
    key = np.zeros_like(rows) if key is None else np.asarray(key, dtype=int)
    order = np.lexsort((key, -rows))
    position = np.empty_like(order)
    position[order] = np.arange(len(order))
    rows, key = rows[order], key[order]
    held: dict = {}  # distinct Generator -> its sorted members
    for i, s in enumerate(order):
        held.setdefault(rngs[s], []).append(i)
    if any(len(set(rows[members])) > 1 for members in held.values()):
        raise ValueError("members holding one Generator must have the same row count")
    cuts = np.flatnonzero((np.diff(rows) != 0) | (np.diff(key) != 0)) + 1
    bounds = [0, *cuts.tolist(), len(rows)]
    descending = -rows  # ascending, for searchsorted
    steps = []
    for start in range(0, int(rows[0]) if rows.size else 0, batch):
        full = int(np.searchsorted(descending, -(start + batch), side="right"))
        if full:
            steps.append((0, full, start, batch))
        for n in sorted(set(rows[(rows > start) & (rows < start + batch)].tolist()), reverse=True):
            lo, hi = np.searchsorted(descending, -n, side="left"), np.searchsorted(descending, -n, side="right")
            steps.append((int(lo), int(hi), start, n - start))
    longest = int(rows.max(initial=0))
    perms = np.zeros((len(rows), longest), dtype=np.min_scalar_type(longest))

    def shuffle():
        for r, members in held.items():
            n = rows[members[0]]
            perms[members, :n] = r.permutation(n)
        return perms

    return order, position, list(zip(bounds, bounds[1:])), steps, shuffle


def _layer(w, b, act, a):
    z = a @ w.swapaxes(-1, -2)
    z += b[..., None, :]
    return _activate(act, z)


def forward(params, acts, x):
    """The network's output on ``x``, keeping no intermediate layer.

    With stacked parameters, ``x`` is (N, in) shared by every member or
    (S, N, in) with one slice per member."""
    for (w, b), act in zip(params, acts):
        x = _layer(w, b, act, x)
    return x


def forward_trace(params, acts, x):
    """Forward keeping every layer's input and output for :func:`backprop`:
    ``[x, layer 1 output, ..., network output]``."""
    outputs = [x]
    for (w, b), act in zip(params, acts):
        outputs.append(_layer(w, b, act, outputs[-1]))
    return outputs


def backprop(params, acts, outputs, delta, out=None):
    """Gradients of a scalar loss given d(loss)/d(output) = delta, written
    into ``out`` (per layer [dW, db], shaped like ``params``) when given.

    A ReLU passes where its output is positive, which is where its
    pre-activation is; a sigmoid's derivative is a (1 - a)."""
    grads = [[None, None] for _ in params] if out is None else out
    for i in range(len(params) - 1, -1, -1):
        a = outputs[i + 1]
        if acts[i] == "relu":
            delta = delta * (a > 0.0)
        elif acts[i] == "sigmoid":
            deriv = 1.0 - a
            deriv *= a
            deriv *= delta
            delta = deriv
        dw, db = grads[i]
        grads[i] = [np.matmul(delta.swapaxes(-1, -2), outputs[i], out=dw), np.add.reduce(delta, axis=-2, out=db)]
        if i > 0:
            delta = delta @ params[i][0]
    return grads


def _mse_grads(params, acts, x, target, out=None):
    """Per-layer gradients of the mean squared error of net(x) against
    target (per stack member), written into ``out`` when given."""
    outputs = forward_trace(params, acts, x)
    delta = outputs[-1] - target
    delta *= 2.0
    delta /= delta.shape[-2] * delta.shape[-1]
    return backprop(params, acts, outputs, delta, out)


def member_mse(params, acts, x, target):
    """Mean squared error of net(x) against ``target``, per stack member."""
    out = forward(params, acts, x)
    out -= target
    np.square(out, out=out)
    return np.mean(out, axis=(-2, -1))


@dataclass(frozen=True)
class SgdConfig:
    epochs: int = 50
    batch_size: int = 32
    learning_rate: float = 0.05
    divergence_limit: float = 1e6

    def __post_init__(self) -> None:
        check_schedule(self)


def check_schedule(cfg) -> None:
    """Reject an SGD schedule that cannot train: ``epochs`` below 0,
    ``batch_size`` below 1, or a ``learning_rate`` that is not a finite
    positive number; the ValueError names the field."""
    if cfg.epochs < 0:
        raise ValueError(f"epochs must be >= 0, got {cfg.epochs}")
    if cfg.batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {cfg.batch_size}")
    if not (math.isfinite(cfg.learning_rate) and cfg.learning_rate > 0):
        raise ValueError(f"learning_rate must be finite and > 0, got {cfg.learning_rate}")


def sgd_reconstruction(params, acts, x, target, cfg: SgdConfig, rngs):
    """Mini-batch SGD, in place, on the mean squared error of net(x) against
    ``target``, for stacked parameters.

    Member s trains on its own rows, ``x[s]`` (n_s, in) against
    ``target[s]`` (n_s, dim), in the order drawn from ``rngs[s]``, as
    :func:`ragged_schedule` plans it. Returns ``(initial, final)``: every
    member's full-data loss before the first epoch and after the last, in
    the caller's member order; no epoch computes one. Raises NumericError,
    naming the member, when either loss is non-finite or above
    ``cfg.divergence_limit``, or, naming the epoch too, as soon as an epoch
    leaves any member's parameters non-finite; no numpy warning escapes.
    """
    rows = np.array([len(t) for t in target])
    order, position, groups, steps, shuffle = ragged_schedule(rows, cfg.batch_size, rngs)
    rows = rows[order]
    xs = np.concatenate([x[s] for s in order], dtype=float)  # the sorted members' rows, member after member
    ts = xs if target is x else np.concatenate([target[s] for s in order], dtype=float)
    first = np.cumsum([0, *rows[:-1]])  # each sorted member's first row in xs
    # the sorted members' parameters, one row each of a (members, P) buffer, so
    # that a step updates them in one subtraction; the gradients in a twin
    caller = [a for pair in params for a in pair]
    flat = np.concatenate([a[order].reshape(len(order), -1) for a in caller], axis=1)
    grad = np.empty_like(flat)
    cuts = np.cumsum([0] + [a[0].size for a in caller])

    def layers(buf, lo, hi):  # members [lo, hi) of buf as per-layer [W, b] views
        views = [buf[lo:hi, i:j].reshape(hi - lo, *a.shape[1:]) for i, j, a in zip(cuts, cuts[1:], caller)]
        return [views[i : i + 2] for i in range(0, len(views), 2)]

    def losses(where):
        out = np.empty(len(order))
        for lo, hi in groups:
            span, shape = slice(first[lo], first[lo] + (hi - lo) * rows[lo]), (hi - lo, rows[lo], -1)
            out[lo:hi] = member_mse(layers(flat, lo, hi), acts, xs[span].reshape(shape), ts[span].reshape(shape))
        out = out[position]
        diverged = np.flatnonzero(~np.isfinite(out) | (out > cfg.divergence_limit))
        if diverged.size:
            raise _diverged(cfg, where, int(diverged[0]), len(out), f"loss {float(out[diverged[0]])!r}")
        return out

    stacks = {(lo, hi): (layers(flat, lo, hi), layers(grad, lo, hi)) for lo, hi, _, _ in steps}
    # overflow and NaN are not warned about but caught: in the losses, and in
    # the parameters after every epoch
    with np.errstate(over="ignore", invalid="ignore"):
        initial = losses("initial state")
        for epoch in range(cfg.epochs):
            index = first[:, None] + shuffle()  # each sorted member's rows of xs in batch order
            for lo, hi, start, size in steps:
                batch = index[lo:hi, start : start + size]
                x_batch = xs.take(batch, axis=0)
                step_params, step_grads = stacks[lo, hi]
                _mse_grads(step_params, acts, x_batch, x_batch if ts is xs else ts.take(batch, axis=0), step_grads)
                step = grad[lo:hi]
                step *= cfg.learning_rate
                flat[lo:hi] -= step
            if not np.isfinite(flat).all():
                member = int(np.flatnonzero(~np.isfinite(flat).all(axis=1)[position])[0])
                raise _diverged(cfg, f"epoch {epoch}", member, len(order), "non-finite parameters")
        grad = stacks = step = step_grads = None  # freed before the forward of the final losses, the call's peak
        final = losses("the end of training")
    for a, i, j in zip(caller, cuts, cuts[1:]):
        a[order] = flat[:, i:j].reshape(a.shape)
    return initial, final


def _diverged(cfg, where: str, member: int, members: int, what: str) -> NumericError:
    """The error for stack member ``member`` of ``members`` diverging at ``where``."""
    if members > 1:
        where += f" (stack member {member})"
    return NumericError(
        f"reconstruction diverged at {where}: {what} (lr={cfg.learning_rate}, batch={cfg.batch_size})", member
    )


def task_seed(base: int, kind: int, *ids: int) -> int:
    """Fold task identifiers into one integer seed, stably across platforms."""
    return int(np.random.SeedSequence([base, kind, *ids]).generate_state(1)[0])

"""Dense-network plumbing shared by the affinity and classifier stages.

Everything is plain numpy float64. Networks are small (a hidden layer or
two); training is mini-batch SGD with an explicit divergence guard. Mlp
values are immutable once built: their arrays are copied and marked
read-only, so a published network never changes under its users.

Training parameters may carry a leading stack axis (weights (S, out, in),
biases (S, out)): S same-shaped networks then train as one SGD through 3-D
``np.matmul``, and every stack member computes bit for bit what it would
compute alone. Members either share their inputs and one batch order, or
each trains on its own rows in the order drawn from its own ``Generator``
(see :func:`epoch_order` and :func:`take_rows`); problems with different
row counts go in different stacks, because padded rows would change the sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NumericError

ACTIVATIONS = ("identity", "relu", "sigmoid")


def _apply_activation(name: str, z: np.ndarray) -> np.ndarray:
    if name == "identity":
        return z
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "sigmoid":
        return 1.0 / (1.0 + np.exp(-z))
    raise ValueError(f"unknown activation {name!r}")


def _activation_deriv(name: str, z: np.ndarray, a: np.ndarray) -> np.ndarray:
    if name == "relu":
        return (z > 0.0).astype(float)
    if name == "sigmoid":
        return a * (1.0 - a)
    raise ValueError(f"unknown activation {name!r}")


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Layer:
    weights: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)
    activation: str

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
    layers: tuple[Layer, ...]

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
    a = np.asarray(x, dtype=float)
    for layer in mlp.layers:
        a = _apply_activation(layer.activation, a @ layer.weights.T + layer.bias)
    return a


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


def epoch_order(rng, n: int) -> np.ndarray:
    """One epoch's batch order over ``n`` rows: a permutation (n,) from one
    ``Generator``, or one per member (S, n) from a sequence of S of them,
    each drawing exactly what it would draw alone."""
    if isinstance(rng, np.random.Generator):
        return rng.permutation(n)
    return np.stack([r.permutation(n) for r in rng])


def take_rows(a: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The rows ``rows`` of ``a``: with rows (b,), those rows of every
    member ((..., N, k) -> (..., b, k)); with rows (S, b), member s's own
    rows of ``a[s]`` ((S, N, k) -> (S, b, k)). Gathering a whole epoch's
    order once lets its batches be slices."""
    if rows.ndim == 1:
        return a[..., rows, :]
    s, n = a.shape[0], a.shape[-2]  # one flat take is several times faster than a[arange, rows]
    return np.take(a.reshape(s * n, -1), rows + n * np.arange(s)[:, None], axis=0)


def forward_trace(params, acts, x):
    """Forward keeping per-layer preactivations and outputs for backprop.

    With stacked parameters, ``x`` is (N, in) shared by every member or
    (S, N, in) with one slice per member."""
    a = x
    outputs = [x]
    preacts = []
    for (w, b), act in zip(params, acts):
        z = a @ w.swapaxes(-1, -2) + b[..., None, :]
        a = _apply_activation(act, z)
        preacts.append(z)
        outputs.append(a)
    return outputs, preacts


def backprop(params, acts, outputs, preacts, delta):
    """Gradients of a scalar loss given d(loss)/d(output) = delta."""
    grads = [None] * len(params)
    for i in range(len(params) - 1, -1, -1):
        w, _ = params[i]
        dz = delta
        if acts[i] != "identity":
            dz = delta * _activation_deriv(acts[i], preacts[i], outputs[i + 1])
        grads[i] = [dz.swapaxes(-1, -2) @ outputs[i], dz.sum(axis=-2)]
        if i > 0:
            delta = dz @ w
    return grads


def reconstruction_loss(encoder: Mlp, decoder: Mlp, x: np.ndarray) -> float:
    """Mean squared reconstruction error of decode(encode(x)) against x."""
    x = np.asarray(x, dtype=float)
    out = mlp_forward(decoder, mlp_forward(encoder, x))
    return float(np.mean((out - x) ** 2))


def _mse_grads(params, acts, x, target):
    """Residuals of net(x) against target and the per-layer gradients of
    their mean square (per stack member)."""
    outputs, preacts = forward_trace(params, acts, x)
    resid = outputs[-1] - target
    delta = 2.0 * resid / (resid.shape[-2] * resid.shape[-1])
    return resid, backprop(params, acts, outputs, preacts, delta)


def reconstruction_grads(params, acts, x):
    """Full-batch MSE loss and per-layer gradients for a chained net on x."""
    resid, grads = _mse_grads(params, acts, x, x)
    return float(np.mean(resid**2)), grads


@dataclass(frozen=True)
class SgdConfig:
    epochs: int = 50
    batch_size: int = 32
    learning_rate: float = 0.05
    divergence_limit: float = 1e6


def sgd_reconstruction(params, acts, x, target, cfg: SgdConfig, rng, first_trainable: int = 0):
    """Mini-batch SGD, in place, on the mean squared error of net(x) against
    ``target``; only layers from ``first_trainable`` on move.

    With one ``Generator`` as ``rng``, every member follows the batch order
    drawn from it: ``target`` is (N, dim) and ``x`` is (N, in), or
    (S, N, in) for stacked parameters whose members read different inputs
    (say, cached latents of a frozen encoder stack). With a sequence of S
    Generators, member s trains on its own rows, ``x[s]`` against
    ``target[s]`` (both (S, N, .)), in the order drawn from ``rng[s]``.
    Returns the full-data loss of every member per epoch (entry 0 is the
    pre-training loss). Raises NumericError, naming the member, as soon as
    any member's loss diverges or goes non-finite.
    """
    history = [_member_losses(params, acts, x, target, cfg)]
    n = target.shape[-2]
    for epoch in range(cfg.epochs):
        order = epoch_order(rng, n)
        x_epoch = take_rows(x, order)
        target_epoch = x_epoch if target is x else take_rows(target, order)
        for start in range(0, n, cfg.batch_size):
            rows = slice(start, start + cfg.batch_size)
            _, grads = _mse_grads(params, acts, x_epoch[..., rows, :], target_epoch[..., rows, :])
            for i in range(first_trainable, len(params)):
                params[i][0] -= cfg.learning_rate * grads[i][0]
                params[i][1] -= cfg.learning_rate * grads[i][1]
        history.append(_member_losses(params, acts, x, target, cfg, epoch=epoch))
    return history


def train_reconstruction(
    encoder: Mlp,
    decoder: Mlp,
    x: np.ndarray,
    cfg: SgdConfig,
    rng,
    update_encoder: bool = True,
) -> tuple[Mlp, Mlp, list[float]]:
    """Mini-batch SGD on mean squared reconstruction error.

    Returns updated (encoder, decoder) plus the per-epoch full-data loss
    history (history[0] is the pre-training loss). Raises NumericError if
    the loss diverges or goes non-finite.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValueError("need a nonempty (N, dim) matrix")
    if x.shape[1] != encoder.input_dim:
        raise ValueError(
            f"data dim {x.shape[1]} does not match encoder input {encoder.input_dim}"
        )
    n_enc = len(encoder.layers)
    params = mlp_params(encoder) + mlp_params(decoder)
    acts = [l.activation for l in encoder.layers] + [l.activation for l in decoder.layers]
    history = sgd_reconstruction(params, acts, x, x, cfg, rng, 0 if update_encoder else n_enc)
    new_encoder = params_to_mlp(params[:n_enc], encoder) if update_encoder else encoder
    new_decoder = params_to_mlp(params[n_enc:], decoder)
    return new_encoder, new_decoder, [float(losses[0]) for losses in history]


def train_reconstruction_stack(
    encoders: Sequence[Mlp],
    decoders: Sequence[Mlp],
    x: np.ndarray,
    cfg: SgdConfig,
    rngs: Sequence,
) -> list[tuple[Mlp, Mlp, list[float]]]:
    """S same-shaped autoencoders trained as one stacked SGD, member s on
    its own rows ``x[s]`` of x (S, N, dim) in the batch order drawn from
    ``rngs[s]``. Member s gets bit for bit what ``train_reconstruction(
    encoders[s], decoders[s], x[s], cfg, rngs[s])`` gets. Returns one
    (encoder, decoder, loss history) per member; a NumericError names the
    diverging member in its ``member``.
    """
    n_enc = len(encoders[0].layers)
    params = stack_params(encoders) + stack_params(decoders)
    acts = [l.activation for l in encoders[0].layers] + [l.activation for l in decoders[0].layers]
    history = sgd_reconstruction(params, acts, x, x, cfg, rngs)
    return [
        (
            member_mlp(params[:n_enc], s, encoder),
            member_mlp(params[n_enc:], s, decoder),
            [float(losses[s]) for losses in history],
        )
        for s, (encoder, decoder) in enumerate(zip(encoders, decoders))
    ]


def _member_losses(params, acts, x, target, cfg, epoch=None) -> np.ndarray:
    outputs, _ = forward_trace(params, acts, x)
    losses = np.atleast_1d(np.mean((outputs[-1] - target) ** 2, axis=(-2, -1)))
    diverged = np.flatnonzero(~np.isfinite(losses) | (losses > cfg.divergence_limit))
    if diverged.size:
        member = int(diverged[0])
        where = "initial state" if epoch is None else f"epoch {epoch}"
        if losses.size > 1:
            where += f" (stack member {member})"
        raise NumericError(
            f"reconstruction loss diverged at {where}: {float(losses[member])!r} "
            f"(lr={cfg.learning_rate}, batch={cfg.batch_size})",
            member,
        )
    return losses


def task_seed(base: int, kind: int, *ids: int) -> int:
    """Fold task identifiers into one integer seed, stably across platforms."""
    return int(np.random.SeedSequence([base, kind, *ids]).generate_state(1)[0])


# --- parameter packing (used by the gradient checks) -----------------------


def flatten_params(param_list) -> np.ndarray:
    return np.concatenate([np.ravel(a) for pair in param_list for a in pair])


def unflatten_params(vec: np.ndarray, template) -> list[list[np.ndarray]]:
    out = []
    pos = 0
    for pair in template:
        rebuilt = []
        for a in pair:
            size = int(np.prod(a.shape)) if a.ndim else 1
            rebuilt.append(vec[pos : pos + size].reshape(a.shape).copy())
            pos += size
        out.append(rebuilt)
    if pos != vec.size:
        raise ValueError("vector length does not match template")
    return out

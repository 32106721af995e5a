"""Shared test helpers: finite-difference oracles, plain one-network and
per-node training loops that the stacked trainers are checked against, the
``csv.writer`` form of ``save_csv``, and planted fixtures."""

import csv
from fractions import Fraction

import numpy as np
import pytest

from hierclass import Catalog, PlantedSpec, generate_planted
from hierclass.affinity import AffinityConfig, make_decoder, make_encoder
from hierclass.hmodel import (
    HierarchicalClassifier,
    NodeModel,
    _best_pair,
    child_index_labels,
    classifier_to_json,
    erm_risk_and_grads,
    node_key,
)
from hierclass.nets import (
    Mlp,
    SgdConfig,
    _mse_grads,
    member_mlp,
    member_mse,
    mlp_forward,
    sgd_reconstruction,
    stack_params,
    task_seed,
)
from hierclass.treespace import internal, leaf, validate_tree


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    """Norm-wise relative disagreement between two gradient vectors."""
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return float(np.linalg.norm(a - b) / denom)


def central_difference(f, x0: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Finite-difference gradient oracle, one coordinate at a time."""
    x0 = np.asarray(x0, dtype=float)
    grad = np.zeros_like(x0)
    for i in range(x0.size):
        up = x0.copy()
        down = x0.copy()
        up[i] += step
        down[i] -= step
        grad[i] = (f(up) - f(down)) / (2.0 * step)
    return grad


def brute_force_agglomerate(values: np.ndarray, method: str):
    """Linkage oracle: recompute every inter-cluster distance exactly, in
    fractions of the input floats, from the original matrix at each step
    (min / max / unweighted cross-pair mean), with the same deterministic
    tie-break as the implementation; each step's distance is rounded to a
    float."""
    k = len(values)
    combine = {
        "single": min,
        "complete": max,
        "average": lambda xs: sum(xs) / len(xs),
    }[method]
    clusters = {i: (i,) for i in range(k)}
    active = list(range(k))
    steps = []
    next_id = k
    for _ in range(k - 1):
        best = None
        for a_pos in range(len(active)):
            for b_pos in range(a_pos + 1, len(active)):
                i, j = active[a_pos], active[b_pos]
                d = combine(
                    [Fraction(float(values[a, b])) for a in clusters[i] for b in clusters[j]]
                )
                if best is None or d < best[0] or (d == best[0] and (i, j) < best[1]):
                    best = (d, (i, j))
        d, (i, j) = best
        members = tuple(sorted(clusters[i] + clusters[j]))
        steps.append((i, j, float(d), next_id, members))
        clusters[next_id] = members
        active = [c for c in active if c not in (i, j)] + [next_id]
        next_id += 1
    return steps


def tied_affinity_json() -> dict:
    """An affinity file over c0..c3 whose single-linkage distances tie after
    c0 and c1 merge: c3 is min(0.7, 0.35) = 0.35 from them, as close as c2
    is to c3, so the smaller id pair (c2, c3) merges next."""
    scores = {(0, 1): 0.65, (1, 3): 0.65, (2, 3): 0.65, (0, 2): 0.55, (1, 2): 0.55, (0, 3): 0.3}
    return {
        "concepts": ["c0", "c1", "c2", "c3"],
        "entries": [{"src": i, "dst": j, "p": 0.5, "b": 0, "s": scores[min(i, j), max(i, j)]}
                    for i in range(4) for j in range(4) if i != j],
    }


# --- one-network references: the plain reconstruction loss, gradients and
# trainer the stacked kernels are checked against, and parameter packing
# for the gradient checks


def reconstruction_loss(encoder: Mlp, decoder: Mlp, x: np.ndarray) -> float:
    """Mean squared reconstruction error of decode(encode(x)) against x."""
    x = np.asarray(x, dtype=float)
    out = mlp_forward(decoder, mlp_forward(encoder, x))
    return float(np.mean((out - x) ** 2))


def reconstruction_grads(params, acts, x):
    """Full-batch MSE loss and per-layer gradients for a chained net on x."""
    return float(member_mse(params, acts, x, x)), _mse_grads(params, acts, x, x)


def train_reconstruction(
    encoder: Mlp,
    decoder: Mlp,
    x: np.ndarray,
    cfg: SgdConfig,
    rng,
    update_encoder: bool = True,
) -> tuple[Mlp, Mlp, list[float]]:
    """Mini-batch SGD on mean squared reconstruction error.

    Returns updated (encoder, decoder) plus the full-data losses before the
    first epoch and after the last, as ``[initial, final]``. Raises
    NumericError if either loss is non-finite or above the divergence limit,
    or if an epoch leaves the parameters non-finite.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValueError("need a nonempty (N, dim) matrix")
    if x.shape[1] != encoder.input_dim:
        raise ValueError(
            f"data dim {x.shape[1]} does not match encoder input {encoder.input_dim}"
        )
    # a frozen encoder is a fixed map: the decoder alone trains, on its latents
    trained = [encoder, decoder] if update_encoder else [decoder]
    params = [layer for net in trained for layer in stack_params([net])]  # a stack of one
    acts = [l.activation for net in trained for l in net.layers]
    rows = [x if update_encoder else mlp_forward(encoder, x)]
    losses = sgd_reconstruction(params, acts, rows, rows if update_encoder else [x], cfg, [rng])
    n_enc = len(params) - len(decoder.layers)
    new_encoder = member_mlp(params[:n_enc], 0, encoder) if update_encoder else encoder
    new_decoder = member_mlp(params[n_enc:], 0, decoder)
    return new_encoder, new_decoder, [float(loss[0]) for loss in losses]


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


def reference_save_csv(dataset, path, label_column="label"):
    """``synth.save_csv``'s file as ``csv.writer`` writes it, row by row."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{i}" for i in range(dataset.n_features)] + [label_column])
        for row, lab in zip(dataset.features, dataset.labels):
            writer.writerow([repr(float(v)) for v in row] + [dataset.catalog.name_of(int(lab))])


def _plain_autoencoder(data, cfg, seed):
    """One concept's autoencoder trained alone by the one-network trainer."""
    init_rng = np.random.default_rng([seed, 0])
    encoder = make_encoder(data.shape[1], cfg.encoder, init_rng)
    decoder = make_decoder(data.shape[1], cfg.encoder, init_rng)
    encoder, decoder, losses = train_reconstruction(
        encoder, decoder, data, cfg.pretrain, np.random.default_rng([seed, 1])
    )
    return encoder, decoder, losses[-1]


def _plain_transfer_loss(encoder, target_data, budget, cfg, seed):
    """One transfer's held-out loss exactly as a serial per-pair loop
    computes it, one network at a time."""
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
    return reconstruction_loss(encoder, decoder, target_data[heldout])


def _plain_assignment(tree, artifacts):
    """The artifact encoders ``train_hierarchies`` assigns, node by node:
    the node-key-to-encoder map."""
    encoders = {}

    def walk(node):
        for child in node.children:
            if not child.is_leaf:
                walk(child)
        key = node_key(node)
        if all(c.is_leaf for c in node.children):
            encoders[key] = artifacts.concept_encoders[_best_pair(key, artifacts)[0]]
        else:
            biggest = max((c for c in node.children if not c.is_leaf),
                          key=lambda c: (len(c.leaf_ids()), -c.min_leaf()))
            encoders[key] = encoders[node_key(biggest)]

    walk(tree)
    return encoders


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


def as_partition(child_of, n_children):
    """The partition of concepts 0..len(child_of)-1 whose child c holds the
    concepts with ``child_of`` c: the form ``train_node_erm_stack`` takes."""
    return tuple(tuple(np.flatnonzero(np.asarray(child_of) == c).tolist()) for c in range(n_children))


def _plain_hierarchy(tree, dataset, cfg, artifacts=None):
    """One hierarchy trained node by node: representations from
    ``_plain_assignment`` or a plain scratch autoencoder per node, and the
    plain ERM loop for each node's scorers."""
    validate_tree(tree, len(dataset.catalog))
    encoders = {} if artifacts is None else _plain_assignment(tree, artifacts)
    scratch_cfg = AffinityConfig(encoder=cfg.encoder, pretrain=cfg.pretrain)
    models = {}
    for node in tree.internal_nodes():
        key = node_key(node)
        child_keys = tuple(node_key(c) for c in node.children)
        sub = dataset.restrict(key)
        if key in encoders:
            encoder = encoders[key]
        else:
            encoder, _, _ = _plain_autoencoder(sub.features, scratch_cfg, task_seed(cfg.seed, 5, *key))
        child_idx = child_index_labels(child_keys, sub.labels)
        w, b, _ = _plain_node_erm(encoder, sub.features, child_idx, len(child_keys), cfg.erm,
                                  task_seed(cfg.seed, 6, *key))
        models[key] = NodeModel(encoder, w, b)
    return HierarchicalClassifier(tree, dataset.catalog, models)


def same_classifier(a, b) -> bool:
    """Bit-exact equality of two classifiers: their JSON."""
    return classifier_to_json(a) == classifier_to_json(b)


@pytest.fixture(scope="session")
def pair_catalog():
    return Catalog(("A", "B", "C", "D"))


@pytest.fixture(scope="session")
def pair_tree():
    return internal([internal([leaf(0), leaf(1)]), internal([leaf(2), leaf(3)])])


@pytest.fixture(scope="session")
def pair_spec(pair_catalog, pair_tree):
    """Two tight concept pairs; the geometry used throughout the planted tests."""
    return PlantedSpec(
        catalog=pair_catalog,
        tree=pair_tree,
        feature_dim=10,
        per_concept=200,
        level_offsets=(9.0, 3.0),
        noise=2.0,
    )


@pytest.fixture(scope="session")
def pair_data(pair_spec):
    return generate_planted(pair_spec, seed=0)


@pytest.fixture(scope="session")
def triple_catalog():
    return Catalog(("c1", "c2", "c3"))


@pytest.fixture(scope="session")
def triple_tree():
    return internal([internal([leaf(0), leaf(1)]), leaf(2)])


@pytest.fixture(scope="session")
def triple_data(triple_catalog, triple_tree):
    spec = PlantedSpec(
        catalog=triple_catalog,
        tree=triple_tree,
        feature_dim=10,
        per_concept=150,
        level_offsets=(9.0, 3.0),
        noise=2.0,
    )
    return generate_planted(spec, seed=3)

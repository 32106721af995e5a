"""Hierarchical classifier: one model per internal node, each pairing a
representation (encoder) with one-vs-rest linear scorers over its children.

Prediction is recursive: starting at the root, descend into the child with
the maximal scorer output until a leaf is reached, ties to the lowest child
index. Representations are the affinity stage's pretrained concept
encoders when its artifacts are supplied (each node reuses one, chosen by
the affinity scores among its concepts, see :func:`train_hierarchies`) or
are trained from scratch per node otherwise. A joint refinement pass trades
per-node hinge risk against a parent/child representation-orthogonality
penalty. The tree is the one statement of which children a node separates:
a node model holds only its encoder and scorers, and a classifier file lists
the models in the tree's preorder.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache, cached_property

import numpy as np

from .affinity import AffinityArtifacts, EncoderConfig, train_autoencoder_stack
from .errors import DataError, NumericError, UnscorableRowError
from .nets import (
    Mlp,
    SgdConfig,
    backprop,
    check_schedule,
    forward_trace,
    mlp_forward,
    mlp_params,
    params_to_mlp,
    ragged_schedule,
    task_seed,
)
from .serialize import array_from_json, array_to_json, check_keys, mlp_from_json, mlp_to_json
from .synth import LabeledDataset
from .treespace import (
    Catalog,
    Tree,
    enumerate_hierarchies,
    internal,
    leaf,
    parse_tree,
    tree_to_text,
    validate_tree,
)


def node_key(node: Tree) -> tuple[int, ...]:
    """Stable identifier of a node: its sorted descendant concept ids."""
    return tuple(sorted(node.leaf_ids()))


@dataclass(frozen=True, eq=False)
class NodeModel:
    encoder: Mlp
    scorer_weights: np.ndarray  # (n_children, latent): one scorer per child of the node, in the tree's order
    scorer_bias: np.ndarray  # (n_children,)

    __hash__ = None  # a value, like its encoder: equal when its networks and arrays are

    def __eq__(self, other):
        if not isinstance(other, NodeModel):
            return NotImplemented
        return (self.encoder == other.encoder and np.array_equal(self.scorer_weights, other.scorer_weights)
                and np.array_equal(self.scorer_bias, other.scorer_bias))

    def __post_init__(self) -> None:
        w = np.array(self.scorer_weights, dtype=float)
        b = np.array(self.scorer_bias, dtype=float)
        if w.ndim != 2 or b.shape != (w.shape[0],):
            raise ValueError("scorer shapes are inconsistent")
        if w.shape[1] != self.encoder.output_dim:
            raise ValueError("scorer input dim must equal the encoder latent dim")
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise ValueError("scorer parameters must be finite")
        w.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "scorer_weights", w)
        object.__setattr__(self, "scorer_bias", b)

    @cached_property
    def max_feature(self) -> float:
        """The feature magnitude from which some layer sum of the node, scorers
        included, could overflow: a row of largest magnitude r has sums bounded
        by a·r + c, built up from each layer's largest absolute row sum and bias,
        and by 1 after a sigmoid. Unlike the sums, which BLAS orders differently
        for one row and for many, the bound does not depend on the batch. It
        depends only on the model, so it is computed on first use and kept."""
        limit, a, c, r_max = np.finfo(float).max / 2, 1.0, 0.0, np.inf  # the half leaves room for rounding
        layers = [(l.weights, l.bias, l.activation) for l in self.encoder.layers]
        with np.errstate(over="ignore"):  # an overflowing norm is inf, and the bound with it
            for w, b, act in layers + [(self.scorer_weights, self.scorer_bias, "identity")]:
                norm = float(np.abs(w).sum(axis=1).max())
                a, c = norm * a, norm * c + float(np.abs(b).max())  # Python floats: inf * 0 is NaN, no warning
                if not c < limit:  # inf or NaN: no row is safe
                    r_max = -np.inf
                elif a > 0:  # a is NaN only after an all-zero layer, where the bound no longer depends on r
                    r_max = min(r_max, (limit - c) / a)
                if act == "sigmoid":
                    a, c = 0.0, 1.0
        return r_max


@dataclass(frozen=True)
class HierarchicalClassifier:
    tree: Tree
    catalog: Catalog
    models: dict[tuple[int, ...], NodeModel]  # by node_key; the tree states each node's children

    def __post_init__(self) -> None:
        if self.tree.is_leaf:
            raise ValueError("a classifier separates at least 2 concepts, its tree has 1")
        nodes = {node_key(n): n for n in self.tree.internal_nodes()}
        want, have = set(nodes), set(self.models)
        if want != have:
            raise ValueError(f"models do not match tree nodes: missing {want - have}, extra {have - want}")
        width = self.input_dim
        for key, node in nodes.items():
            model = self.models[key]
            if len(model.scorer_bias) != len(node.children):
                raise ValueError(f"node {list(key)}: {len(node.children)} children, {len(model.scorer_bias)} scorers")
            if model.encoder.input_dim != width:
                raise ValueError(f"node {list(key)} reads {model.encoder.input_dim} features, the root {width}")

    @property
    def input_dim(self) -> int:
        return self.models[node_key(self.tree)].encoder.input_dim


def check_data(dataset: LabeledDataset, catalog: Catalog, width: int, what: str) -> None:
    """The data contract of a model: ``dataset`` is over its concept
    ``catalog`` and feature ``width``, or a DataError names what differs."""
    if dataset.catalog != catalog:
        raise DataError(f"{what}: concepts {list(catalog.names)} expected, the data has {list(dataset.catalog.names)}")
    if dataset.n_features != width:
        raise DataError(f"{what}: {width} features expected, the data has {dataset.n_features}")


def check_training_rows(dataset: LabeledDataset) -> None:
    """What training and refinement need of their data: at least 2 concepts
    and rows of each, or a DataError names what is missing."""
    catalog = dataset.catalog
    if len(catalog) < 2:
        raise DataError(f"a classifier separates at least 2 concepts, the data has {len(catalog)}")
    empty = [catalog.name_of(cid) for cid, n in dataset.support().items() if n == 0]
    if empty:
        raise DataError(f"no training rows of concepts {empty}")


def route_child(model: NodeModel, x: np.ndarray) -> np.ndarray:
    """Index of the winning child per row, by the child scores on the node's
    own representation; ties go to the lowest index."""
    z = mlp_forward(model.encoder, np.atleast_2d(x))
    return (z @ model.scorer_weights.T + model.scorer_bias).argmax(axis=1)


def predict_batch(classifier: HierarchicalClassifier, x: np.ndarray) -> np.ndarray:
    """The predicted concept of each row. A row that some node cannot score
    (see :attr:`NodeModel.max_feature`) raises an UnscorableRowError naming it,
    0-based, and the first node in tree order that cannot score it."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != classifier.input_dim:
        raise ValueError(f"feature dim {x.shape[1]} does not match classifier dim {classifier.input_dim}")
    if not np.isfinite(x).all():
        raise ValueError("non-finite feature values")
    limits = {node_key(n): classifier.models[node_key(n)].max_feature for n in classifier.tree.internal_nodes()}
    if x.size and max(x.max(), -x.min()) >= min(limits.values()):  # then find the row
        row = int(np.flatnonzero(np.abs(x).max(axis=1) >= min(limits.values()))[0])
        magnitude = np.abs(x[row]).max()
        node = next(list(key) for key, r_max in limits.items() if magnitude >= r_max)
        raise UnscorableRowError(f"row {row} cannot be scored at node {node}: its features, up to "
                                 f"{magnitude:.3g} in magnitude, can overflow the node's sums", row)
    out = np.empty(x.shape[0], dtype=int)

    def descend(node: Tree, rows: np.ndarray) -> None:
        if node.is_leaf:
            out[rows] = node.concept
            return
        choice = route_child(classifier.models[node_key(node)], x[rows])
        for ci, child in enumerate(node.children):
            sub = rows[choice == ci]
            if sub.size:
                descend(child, sub)

    descend(classifier.tree, np.arange(x.shape[0]))
    return out


# ---------------------------------------------------------------------------
# hinge-loss empirical risk minimization


# The kernel comes in parts so that SGD steps skip the risk and per-epoch
# risks skip the gradients; ``y`` holds the +-1 child labels (..., m, n). A
# row's hinge 1 - y s is active where y s < 1; its slope d(risk)/d(s) is
# then -y / m, m being the rows the risk averages over.


@cache
def _sign_table(n_children: int) -> np.ndarray:
    table = np.where(np.eye(n_children, dtype=bool), 1.0, -1.0)
    table.setflags(write=False)
    return table


def _signed_labels(child_idx: np.ndarray, n_children: int) -> np.ndarray:
    """+1 where a row's child is the scorer's child, -1 elsewhere: each row's
    line of a +-1 table, gathered by one take, as a scatter of +1s into -1s
    or a broadcast comparison over a last axis of a few scorers is slower."""
    return _sign_table(n_children).take(child_idx, axis=0)


def _signed_scores(scorer_w, scorer_b, z, y, out=None):
    """y s per row and scorer, in ``out`` or a new array. ``z`` holds the rows
    (..., m, d), or is a list of (members, latents (m, d)) runs, consecutive
    members that read one latent array. The weights enter the product as a
    contiguous transposed copy, which BLAS multiplies faster than the
    transposed view, and a contiguous bias lets its add run over members and
    scorers at once where ``out`` is batch-major."""
    wt = np.ascontiguousarray(scorer_w.swapaxes(-1, -2))
    if isinstance(z, np.ndarray):
        ys = np.matmul(z, wt, out=out)
    else:
        for members, latents in z:
            np.matmul(latents, wt[members], out=out[members])
        ys = out
    ys += np.ascontiguousarray(scorer_b)[..., None, :]
    ys *= y
    return ys


def _hinges(ys):
    """The hinges max(1 - y s, 0) of signed scores, written over them."""
    np.subtract(1.0, ys, out=ys)
    np.fmax(ys, 0.0, out=ys)  # NaN hinges count 0; 1 - y s is never -0.0
    return ys


def _risk(hinges, scorer_w, l2):
    """The risk of contiguous (..., m, n) hinges: each member's hinges are
    one contiguous run, summed as a single member sums alone."""
    members = hinges.shape[:-2]
    hinge = np.add.reduce(hinges.reshape(members + (-1,)), axis=-1)
    return hinge / hinges.shape[-2] + l2 * np.add.reduce((scorer_w**2).reshape(members + (-1,)), axis=-1)


def _hinge_grads(ys, slope, scorer_w, z, l2):
    """(dW, db, ds) from signed scores and the active-row slopes -y / m."""
    ds = slope * (ys < 1.0)
    dw = ds.swapaxes(-1, -2) @ z
    dw += 2.0 * l2 * scorer_w
    return dw, np.add.reduce(ds, axis=-2), ds


def erm_risk_and_grads(
    scorer_w: np.ndarray,
    scorer_b: np.ndarray,
    z: np.ndarray,
    child_idx: np.ndarray,
    l2: float,
):
    """Regularized one-vs-rest hinge risk and its (sub)gradients.

    Risk = mean over examples of the summed per-child hinge terms plus
    l2 * ||W||^2; labels are +1 for the example's child, -1 otherwise.
    Scorers may carry a leading member axis (W (P, n, d), b (P, n) with
    child_idx (P, m)) over one shared z (m, d); the risk is then a (P,)
    array. Returns (risk, dW, db, ds), ds being d(risk)/d(scores), which
    refinement backpropagates into the encoder.
    """
    y = _signed_labels(child_idx, scorer_w.shape[-2])
    ys = _signed_scores(scorer_w, scorer_b, z, y)
    dw, db, ds = _hinge_grads(ys, y / -z.shape[-2], scorer_w, z, l2)
    risk = _risk(_hinges(ys), scorer_w, l2)
    return (risk if risk.ndim else float(risk)), dw, db, ds


@dataclass(frozen=True)
class ErmConfig:
    epochs: int = 60
    batch_size: int = 32
    learning_rate: float = 0.05
    l2: float = 1e-3

    def __post_init__(self) -> None:
        check_schedule(self)


STEP_SCORES = 1 << 15  # scores per ERM sub-step and latent values per gather window: cache-sized arrays


def _substeps(groups, counts, lo: int, hi: int, size: int, merge: bool):
    """The (lo, hi, scorers) sub-steps of an ERM step over sorted members
    [lo, hi): its runs of equal row and child count, each cut to at most
    STEP_SCORES scores, and with ``merge`` consecutive runs merged within
    that bound at their widest scorer count."""
    parts: list = []
    for ga, gb in groups:
        n = int(counts[ga])
        room = max(1, STEP_SCORES // (size * n))
        for a in range(max(ga, lo), min(gb, hi), room):
            c = min(a + room, gb, hi)
            if merge and parts and (c - parts[-1][0]) * size * max(parts[-1][2], n) <= STEP_SCORES:
                parts[-1] = (parts[-1][0], c, max(parts[-1][2], n))
            else:
                parts.append((a, c, n))
    return parts


def _windows(steps, batch_major, width: int):
    """Per ERM step, the [start, end, lo, hi] window, offsets [start, end)
    of sorted members [lo, hi), that one gather of rows brings in for it
    and the batch-major steps around it, or None for a member-major step:
    consecutive steps share a window, one list object, while its
    (end - start, hi - lo, width) latents stay within STEP_SCORES values."""
    out, window = [], None
    for (lo, hi, start, size), major in zip(steps, batch_major):
        if major and window is not None:
            grown = [window[0], max(window[1], start + size), min(window[2], lo), max(window[3], hi)]
            if (grown[1] - grown[0]) * (grown[3] - grown[2]) * width <= STEP_SCORES:
                window[:] = grown
            else:
                window = None
        if major and window is None:
            window = [start, start + size, lo, hi]
        out.append(window if major else None)
    return out


def _distinct_rows(a):
    """For a 2-D array of booleans or small non-negative integers, the first
    occurrence of each distinct row and the index of each row's distinct
    row. Rows are compared as bytes, which sorts far faster than
    ``np.unique(axis=0)``, which compares them field by field."""
    a = np.ascontiguousarray(a, dtype=np.min_scalar_type(a.max(initial=0)))
    rows = a.view(np.dtype((np.void, a.shape[1] * a.itemsize))).reshape(-1)
    _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
    return first, inverse.reshape(-1)


def _child_blocks(child_idx, n_children):
    """The scorers of a member holding groupings ``child_idx`` (P, m) of one
    problem's rows into ``n_children`` children: the distinct children, as
    row sets, in order of first appearance. Returns each row's pattern (the
    index of its line of child indices among the distinct lines), the
    (patterns, blocks) +-1 table of which blocks hold each pattern, and each
    grouping's children as block indices."""
    first_row, pattern = _distinct_rows(child_idx.T)
    lines = child_idx[:, first_row].T
    holds = np.concatenate([lines[:, p, None] == np.arange(n) for p, n in enumerate(n_children)], axis=1)
    first, block = _distinct_rows(holds.T)
    rank = np.argsort(np.argsort(first))  # each distinct block's place in order of first appearance
    table = np.where(holds[:, np.sort(first)], 1.0, -1.0)
    return pattern, table, np.split(rank[block], np.cumsum(n_children)[:-1])


def train_node_erm_stack(encoders, features, child_idx, n_children, cfg: ErmConfig, seeds):
    """Stochastic subgradient descent on the hinge risks of several node
    problems as one stacked SGD.

    Problem g has its own frozen encoder ``encoders[g]``, rows
    ``features[g]`` (m_g, in), seed ``seeds[g]`` and child indices
    ``child_idx[g]`` (P_g, m_g): P_g groupings of its rows, grouping p into
    ``n_children[g][p]`` children. Problems may differ in row count and
    groupings in child count. Grouping p of problem g gets bit for bit what
    it gets trained alone, in a stack of one problem and one grouping.
    Scorers start at zero and each grouping keeps its best iterate by its
    full-data risk, so its reported risk never exceeds the initial one.
    Returns one (weights, biases, risk history) per problem: a list of the
    (n, d) weights and a list of the (n,) biases of its groupings, and one
    (P_g,) risk array per epoch. Every child of a grouping holds rows.

    Members: a child's one-vs-rest scorer sees the same rows, labels, zero
    start and batch order (the Generator of the problem's seed) in every
    grouping of the problem that has the child, so the stack member of a
    problem trains each of its distinct children, its blocks, once
    (:func:`_child_blocks`), with +-1 labels gathered per (row pattern,
    block). Only the best epoch differs between groupings: every epoch each
    grouping's risk sums its blocks' hinges in its own (rows, children)
    order. That holds because one scorer's sums in a matrix-matrix product
    do not depend on the other scorers in it. A matrix-vector product's do,
    so a problem that would take one (one-dimensional latents, a one-row
    batch, a single-child grouping) keeps one member per grouping, its
    blocks that grouping's children.

    Layout: one latent array per problem. A window of consecutive steps,
    at most STEP_SCORES latent values, gathers its rows batch-major, (rows,
    members, d), and their patterns with one ``take`` each per epoch. A step
    reads its slice of the window, builds its +-1 labels and scores (rows,
    members, n), and multiplies member-major views of them, so each member
    gets the gemm and the sequential row sum it gets alone while the bias
    add and its gradient run over members and scorers at once. Where numpy
    would take a matrix-vector product instead, a step stays member-major
    and gathers its own rows. The per-epoch risks run per group of equal
    row and block count, each run of a group's members that share a problem
    reading that problem's latents through one broadcast product; each
    grouping's hinges are then gathered into one contiguous (rows, n) block,
    up to STEP_SCORES hinges of groupings of one child count at a time, and
    summed as one pairwise sum.
    """
    m = np.array([len(f) for f in features])
    z = np.concatenate([mlp_forward(enc, f) for enc, f in zip(encoders, features)])
    owner, tables, patterns, placed = [], [], [], []  # per member; per grouping its member and blocks
    for g, (idx, ns) in enumerate(zip(child_idx, n_children)):
        idx = np.asarray(idx)
        matrix = z.shape[-1] > 1 and min(ns) > 1 and cfg.batch_size > 1 and m[g] % cfg.batch_size != 1
        for ps in [list(range(len(idx)))] if matrix else [[p] for p in range(len(idx))]:
            pattern, table, blocks = _child_blocks(idx[ps], [ns[p] for p in ps])
            placed += [(len(owner), bl) for bl in blocks]
            owner.append(g)
            tables.append(table)
            patterns.append(pattern)
    owner = np.array(owner)
    counts = np.array([t.shape[1] for t in tables])  # scorers per member
    generators = [np.random.default_rng(seed) for seed in seeds]
    order, position, groups, steps, shuffle = ragged_schedule(
        m[owner], cfg.batch_size, [generators[g] for g in owner], key=counts
    )
    problem, rows, counts = owner[order], m[owner][order], counts[order]

    # one latent array per problem, and each member's row patterns, as rows of one sign table
    first = np.cumsum([0, *m[:-1]])  # each problem's first row in z
    latents = [z[lo : lo + n] for lo, n in zip(first, m)]
    table_at = np.cumsum([0, *(len(t) for t in tables)])
    table = np.full((table_at[-1], counts.max()), -1.0)
    for t, at in zip(tables, table_at):
        table[at : at + len(t), : t.shape[1]] = t
    signs = {n: np.ascontiguousarray(table[:, :n]) for n in set(counts.tolist())}
    labels = np.zeros((len(order), m.max()), dtype=np.min_scalar_type(len(table)))
    for i, s in enumerate(order):
        labels[i, : len(patterns[s])] = patterns[s] + table_at[s]
    first = first[problem, None]  # each sorted member's first row in z
    first_label = np.arange(len(order))[:, None] * labels.shape[1]  # ... and in labels, flattened

    # per grouping its sorted member and blocks, padded, for the best iterates; the risks'
    # labels per group of equal row and block count (int8 holds +-1 exactly), and the group's
    # runs of members that share a problem, so read its one latent array
    held = position[[s for s, _ in placed]]
    width = np.array([len(bl) for _, bl in placed])
    blocks = np.zeros((len(placed), width.max()), dtype=int)
    for q, (_, bl) in enumerate(placed):
        blocks[q, : len(bl)] = bl
    risk_labels, shared = [], []
    for lo, hi in groups:
        risk_labels.append(signs[counts[lo]].astype(np.int8).take(labels[lo:hi, : rows[lo]], axis=0))
        ends = [lo, *(lo + np.flatnonzero(np.diff(problem[lo:hi])) + 1).tolist(), hi]
        shared.append([(slice(a - lo, c - lo), latents[problem[a]]) for a, c in zip(ends, ends[1:])])
    # the groupings of each group by child count, in chunks of at most STEP_SCORES hinges, each
    # chunk with the flat indices of its groupings' (rows, children) hinges in the group's
    # (members, rows, blocks) hinges, held in one array of the smallest integer type they fit
    group_of = np.searchsorted([hi for _, hi in groups], held, side="right")
    chunks = []
    for k, (lo, hi) in enumerate(groups):
        qs = np.flatnonzero(group_of == k)
        for c in sorted(set(width[qs].tolist())):
            q, chunk = qs[width[qs] == c], max(1, STEP_SCORES // (rows[lo] * c))
            chunks += [(k, q[a : a + chunk], c) for a in range(0, len(q), chunk)]
    sizes = [len(q) * rows[groups[k][0]] * c for k, q, c in chunks]
    largest = max((hi - lo) * rows[lo] * counts[lo] for lo, hi in groups)  # a group's hinges
    indices = np.empty(sum(sizes), dtype=np.min_scalar_type(largest))
    parts = [[] for _ in groups]
    for (k, q, c), at in zip(chunks, np.cumsum([0, *sizes])):
        lo, n, size = groups[k][0], counts[groups[k][0]], rows[groups[k][0]]
        index = indices[at : at + len(q) * size * c].reshape(len(q), size, c)
        index[...] = (held[q, None, None] - lo) * size * n + np.arange(size)[:, None] * n + blocks[q, None, :c]
        parts[k].append((q, index, held[q, None], blocks[q, :c]))
    at_buffer, hinge_buffer = np.empty(max(sizes), dtype=np.intp), np.empty(max(sizes))
    # batch-major steps, except where numpy would take a matrix-vector product
    batch_major = [size > 1 and z.shape[-1] > 1 and counts.min() > 1 for _, _, _, size in steps]
    substeps = [_substeps(groups, counts, lo, hi, size, major)
                for (lo, hi, _, size), major in zip(steps, batch_major)]
    windows = _windows(steps, batch_major, z.shape[-1])
    w = np.zeros((len(order), counts.max(), z.shape[-1]))
    b = np.zeros((len(order), counts.max()))

    def risks():
        out = np.empty(len(placed))
        for (lo, hi), y, runs, part in zip(groups, risk_labels, shared, parts):
            n = counts[lo]
            hinges = _hinges(_signed_scores(w[lo:hi, :n], b[lo:hi, :n], runs, y, out=np.empty(y.shape)))
            for q, index, member, bl in part:  # each grouping's hinges, gathered contiguous
                at = at_buffer[: index.size].reshape(index.shape)
                np.copyto(at, index)
                hinge = hinge_buffer[: index.size].reshape(index.shape)
                np.take(hinges.reshape(-1), at, out=hinge, mode="clip")
                out[q] = _risk(hinge, w[member, bl], cfg.l2)
        return out

    risk = risks()
    history = [risk]
    best_risk = risk
    best_w, best_b = np.zeros(blocks.shape + (z.shape[-1],)), np.zeros(blocks.shape)
    for _ in range(cfg.epochs):
        perms, gathered = shuffle(), None
        for (lo, hi, start, size), sub, major, window in zip(steps, substeps, batch_major, windows):
            if major:  # a slice of its window's (offsets, members, width) rows
                s0, s1, m0, m1 = window
                if window is not gathered:  # once per window and epoch
                    at = perms[m0:m1, s0:s1]  # each member's rows of its problem in batch order
                    zw = z.take((first[m0:m1] + at).T, axis=0)
                    yw = labels.take(first_label[m0:m1] + at)
                    gathered = window
                zb = zw[start - s0 : start - s0 + size, lo - m0 : hi - m0]
                yb = yw[lo - m0 : hi - m0, start - s0 : start - s0 + size]
            else:
                at = perms[lo:hi, start : start + size]
                zb, yb = z.take(first[lo:hi] + at, axis=0), labels.take(first_label[lo:hi] + at)
            for a, c, n in sub:
                wp, bp = w[a:c, :n], b[a:c, :n]
                if major:  # (size, members, width) arrays, read through member-major views
                    zp = zb[:, a - lo : c - lo].swapaxes(0, 1)
                    y = signs[n].take(yb[a - lo : c - lo].T, axis=0).swapaxes(0, 1)
                    ys = np.empty((size, c - a, n)).swapaxes(0, 1)
                else:
                    zp, y, ys = zb[a - lo : c - lo], signs[n].take(yb[a - lo : c - lo], axis=0), None
                # y / -size, as one product: y is +-1, so both round 1 / size once
                dw, db, _ = _hinge_grads(_signed_scores(wp, bp, zp, y, out=ys), y * (-1.0 / size), wp, zp, cfg.l2)
                dw *= cfg.learning_rate
                wp -= dw
                db *= cfg.learning_rate
                bp -= db
        zw = zb = zp = yw = yb = None  # freed before the risks, the epoch's peak
        risk = risks()
        history.append(risk)
        better = np.flatnonzero(risk < best_risk)
        best_risk = np.where(risk < best_risk, risk, best_risk)
        best_w[better] = w[held[better, None], blocks[better]]
        best_b[better] = b[held[better, None], blocks[better]]
    bounds = np.cumsum([0, *(len(idx) for idx in child_idx)])
    return [([best_w[q, : width[q]].copy() for q in range(lo, hi)],
             [best_b[q, : width[q]].copy() for q in range(lo, hi)],
             [epoch_risks[lo:hi] for epoch_risks in history]) for lo, hi in zip(bounds, bounds[1:])]


# ---------------------------------------------------------------------------
# representation assignment


def _best_pair(members: tuple[int, ...], artifacts: AffinityArtifacts) -> tuple[int, int]:
    index = {(r.source, r.target): r.score for r in artifacts.matrix.records}
    pairs = [(i, j) for i in members for j in members if i != j]
    return max(pairs, key=lambda p: (index[p], -p[0], -p[1]))


def _assigned_encoders(trees, artifacts: AffinityArtifacts) -> dict[Tree, Mlp]:
    """The encoder of every internal node of ``trees``, as
    :func:`train_hierarchies` describes, keyed by the node's subtree: a
    node with internal children takes its biggest internal child's
    encoder, so the encoder depends on the whole subtree and not on the
    concept set alone."""
    assignment: dict[Tree, Mlp] = {}

    def assign(node: Tree) -> None:
        if node in assignment:
            return
        inner = [c for c in node.children if not c.is_leaf]
        for child in inner:
            assign(child)
        if inner:
            biggest = max(inner, key=lambda c: (len(c.leaf_ids()), -c.min_leaf()))
            assignment[node] = assignment[biggest]
        else:
            assignment[node] = artifacts.concept_encoders[_best_pair(node_key(node), artifacts)[0]]

    for tree in trees:
        assign(tree)
    return assignment


@dataclass(frozen=True)
class HierTrainConfig:
    erm: ErmConfig = ErmConfig(epochs=80, learning_rate=0.1)
    encoder: EncoderConfig = EncoderConfig(hidden_dim=24, latent_dim=3)  # scratch reps only
    pretrain: SgdConfig = SgdConfig(epochs=40, batch_size=32, learning_rate=0.1)
    rep_mode: str = "keep"  # the one representation mode
    seed: int = 0

    def __post_init__(self) -> None:
        if self.rep_mode != "keep":
            raise ValueError(f"rep_mode must be 'keep', got {self.rep_mode!r}; "
                             "for a flat classifier, train the flat tree")


def child_keys(node: Tree) -> tuple[tuple[int, ...], ...]:
    """The partition a node's scorers separate: its children's keys, in the tree's order."""
    return tuple(node_key(c) for c in node.children)


def child_index_labels(child_keys: tuple[tuple[int, ...], ...], labels: np.ndarray) -> np.ndarray:
    """Map concept labels to the index of the child (by its key) containing them."""
    lookup = np.full(max(max(ck) for ck in child_keys) + 1, -1, dtype=int)
    for ci, ck in enumerate(child_keys):
        lookup[list(ck)] = ci
    return lookup[np.asarray(labels, dtype=int)]


def train_hierarchical(
    tree: Tree,
    dataset: LabeledDataset,
    cfg: HierTrainConfig,
    artifacts: AffinityArtifacts | None = None,
) -> HierarchicalClassifier:
    """Train every node model over the given tree: the one-tree case of
    :func:`train_hierarchies`."""
    return train_hierarchies([tree], dataset, cfg, artifacts)[0]


def train_hierarchies(
    trees, dataset: LabeledDataset, cfg: HierTrainConfig, artifacts: AffinityArtifacts | None = None
) -> list[HierarchicalClassifier]:
    """Train every node model of each tree, composing the classifiers from
    one node table.

    With affinity artifacts, every node's representation is one of their
    pretrained concept encoders, used as it is. A node whose children are
    all leaves takes the encoder of the source of its best-scored ordered
    pair of concepts (ties to the smaller source, then target). A node
    with subtree children takes the encoder of its largest internal child
    (ties to the child with the smallest concept id). A flat classifier,
    with or without artifacts, comes from :func:`flat_tree`. Without
    artifacts each node gets a scratch autoencoder trained on its
    descendants' rows. A tree's classifier does not depend on the other
    trees in the call, but no node trains twice and independent problems
    stack:

    - one scratch encoder per distinct concept set, all trained in one
      ``train_autoencoder_stack`` call;
    - one artifact encoder lookup per distinct subtree, as the encoder a
      node takes depends on the subtree below it;
    - one scorer set per distinct (encoder, child partition), all trained
      in one ``train_node_erm_stack`` call, where each encoder's problem is
      one stack member: its partitions share its rows and batch order, and
      a child that several of them have trains once for all of them.

    The data must hold at least 2 concepts and rows of each
    (:func:`check_training_rows`), and artifacts must be over its catalog
    and feature width (:func:`check_data`): a DataError names what is wrong.
    """
    check_training_rows(dataset)
    catalog = dataset.catalog
    if artifacts is not None:
        check_data(dataset, artifacts.matrix.catalog, artifacts.input_dim, "affinity artifacts")
    for tree in trees:
        validate_tree(tree, len(catalog))

    def problem_of(node: Tree):  # what a node's encoder is a function of
        return node_key(node), (None if artifacts is None else node)

    subs: dict[tuple[int, ...], LabeledDataset] = {}  # concept set -> its rows
    problems: dict = {}  # problem -> its distinct child partitions (insertion-ordered)
    for tree in trees:
        for node in tree.internal_nodes():
            key = node_key(node)
            if key not in subs:
                subs[key] = dataset.restrict(key)
            problems.setdefault(problem_of(node), {})[child_keys(node)] = None

    if artifacts is not None:
        assigned = _assigned_encoders(trees, artifacts)
        encoders = {problem_of(node): encoder for node, encoder in assigned.items()}
    else:
        keys = list(subs)
        seeds = [task_seed(cfg.seed, 5, *key) for key in keys]
        try:
            stack = train_autoencoder_stack([subs[key].features for key in keys], cfg.encoder, cfg.pretrain, seeds)
        except NumericError as exc:
            names = [catalog.name_of(cid) for cid in keys[exc.member]]
            raise NumericError(f"scratch encoder of concept set {names}: {exc}", exc.member) from exc
        encoders = {(key, None): encoder for key, (encoder, _, _) in zip(keys, stack)}

    stack = train_node_erm_stack(
        [encoders[problem] for problem in problems],
        [subs[key].features for key, _ in problems],
        [np.stack([child_index_labels(ck, subs[key].labels) for ck in parts])
         for (key, _), parts in problems.items()],
        [[len(ck) for ck in parts] for parts in problems.values()],
        cfg.erm,
        [task_seed(cfg.seed, 6, *key) for key, _ in problems],
    )
    nodes: dict = {}
    for (problem, parts), (w, b, _) in zip(problems.items(), stack):
        for ck, wp, bp in zip(parts, w, b):
            nodes[problem, ck] = NodeModel(encoders[problem], wp, bp)
    return [HierarchicalClassifier(tree, catalog, {node_key(n): nodes[problem_of(n), child_keys(n)]
                                                   for n in tree.internal_nodes()})
            for tree in trees]


# ---------------------------------------------------------------------------
# global refinement


def _orth_pairs(tree: Tree) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    pairs = []
    for node in tree.internal_nodes():
        for child in node.children:
            if not child.is_leaf:
                pairs.append((node_key(node), node_key(child)))
    return pairs


def _node_state(classifier: HierarchicalClassifier, dataset: LabeledDataset):
    """Per-node refinement state, keyed by node in sorted order: ``params``
    holds mutable copies of the encoder layers followed by the scorer pair,
    ``problems`` the node's rows and their child indices."""
    params, problems = {}, {}
    nodes = {node_key(n): n for n in classifier.tree.internal_nodes()}
    for key in sorted(nodes):
        model = classifier.models[key]
        sub = dataset.restrict(key)
        params[key] = mlp_params(model.encoder) + [[model.scorer_weights.copy(), model.scorer_bias.copy()]]
        problems[key] = (sub.features, child_index_labels(child_keys(nodes[key]), sub.labels))
    return params, problems


def _objective_on_params(classifier, problems, lambda_orth, l2, params):
    """Total refinement loss and its gradients, per node like ``params``.

    Loss = sum of per-node regularized hinge risks plus lambda_orth times
    the squared Frobenius norm of P_child @ P_parent^T over internal
    parent/child pairs, P being each encoder's final linear map.
    """
    grads = {key: [[np.zeros_like(w), np.zeros_like(b)] for w, b in pairs] for key, pairs in params.items()}
    total = 0.0
    node_risks = {}
    for key, (features, child_idx) in problems.items():
        *enc_params, (scorer_w, scorer_b) = params[key]
        acts = [l.activation for l in classifier.models[key].encoder.layers]
        outputs = forward_trace(enc_params, acts, features)
        risk, dw, db, ds = erm_risk_and_grads(scorer_w, scorer_b, outputs[-1], child_idx, l2)
        node_risks[key] = risk
        total += risk
        *enc_grads, scorer_grads = grads[key]
        scorer_grads[0] += dw
        scorer_grads[1] += db
        for g, (gw, gb) in zip(enc_grads, backprop(enc_params, acts, outputs, ds @ scorer_w)):
            g[0] += gw
            g[1] += gb

    penalty = 0.0
    if lambda_orth != 0.0:
        for parent_key, child_key in _orth_pairs(classifier.tree):
            p_map = params[parent_key][-2][0]  # final encoder layer
            c_map = params[child_key][-2][0]
            cross = c_map @ p_map.T
            penalty += float((cross**2).sum())
            grads[child_key][-2][0] += lambda_orth * 2.0 * cross @ p_map
            grads[parent_key][-2][0] += lambda_orth * 2.0 * cross.T @ c_map
    total += lambda_orth * penalty
    return total, grads, node_risks, penalty


DEFAULT_LAMBDA_ORTH = 0.1


def check_refinement(lambda_orth: float, epochs: int, learning_rate: float = 0.1, l2: float = 1e-3) -> None:
    """Reject a refinement setting that cannot refine: a ValueError naming the argument."""
    for name, value in (("lambda_orth", lambda_orth), ("l2", l2)):
        if not (np.isfinite(value) and value >= 0):
            raise ValueError(f"{name} must be finite and >= 0, got {value}")
    SgdConfig(epochs=epochs, batch_size=1, learning_rate=learning_rate)  # checks epochs and learning_rate


@dataclass(frozen=True)
class RefineResult:
    classifier: HierarchicalClassifier
    objective_history: tuple[float, ...]
    penalty_history: tuple[float, ...]
    node_risks_before: dict
    node_risks_after: dict


def refine_global(
    classifier: HierarchicalClassifier,
    dataset: LabeledDataset,
    lambda_orth: float = DEFAULT_LAMBDA_ORTH,
    epochs: int = 30,
    learning_rate: float = 0.1,
    l2: float = 1e-3,
) -> RefineResult:
    """Joint full-batch descent on the combined objective with backtracking:
    a step that raises the loss is undone and the rate halved, so the
    recorded trajectory never increases.

    Steps are accepted per block, each block with its own rate. With
    lambda_orth = 0 the nodes are independent and each node is a block that
    accepts or reverts its own steps on its own risk; otherwise all nodes
    form one block judged on the total. Each trial step is evaluated once,
    and the kept state takes its risks and gradients from that evaluation.
    Each node's rows and child indices are set up once per call. A
    setting that cannot refine is a ValueError naming the argument. Data
    off the classifier's catalog or feature width, or without rows of some
    concept, is a DataError, as in training.
    """
    check_refinement(lambda_orth, epochs, learning_rate, l2)
    check_data(dataset, classifier.catalog, classifier.input_dim, "classifier")
    check_training_rows(dataset)
    params, problems = _node_state(classifier, dataset)
    keys = tuple(params)
    blocks = [keys] if lambda_orth else [(key,) for key in keys]
    rates = [learning_rate] * len(blocks)

    def loss(risks, penalty, block):  # summed as _objective_on_params sums its total
        total = 0.0
        for key in block:
            total += risks[key]
        return total + lambda_orth * penalty

    total, grads, risks0, penalty = _objective_on_params(classifier, problems, lambda_orth, l2, params)
    risks = dict(risks0)
    obj_history = [total]
    pen_history = [penalty]
    for _ in range(epochs):
        trial = {}
        for block, rate in zip(blocks, rates):
            for key in block:
                trial[key] = [[w - rate * gw, b - rate * gb] for (w, b), (gw, gb) in zip(params[key], grads[key])]
        _, new_grads, new_risks, new_pen = _objective_on_params(classifier, problems, lambda_orth, l2, trial)
        kept = 0
        for n, block in enumerate(blocks):
            if loss(new_risks, new_pen, block) <= loss(risks, penalty, block):
                for key in block:
                    params[key], grads[key] = trial[key], new_grads[key]
                    risks[key] = new_risks[key]
                kept += 1
            else:
                rates[n] *= 0.5
        if kept == len(blocks):  # the penalty couples nodes: known for a state from one evaluation
            penalty = new_pen
        obj_history.append(loss(risks, penalty, keys))
        pen_history.append(penalty)

    models = {}
    for key, (*enc_params, (w, b)) in params.items():
        model = classifier.models[key]
        encoder = params_to_mlp(enc_params, model.encoder)
        models[key] = replace(model, encoder=encoder, scorer_weights=w, scorer_bias=b)
    return RefineResult(
        classifier=replace(classifier, models=models),
        objective_history=tuple(obj_history),
        penalty_history=tuple(pen_history),
        node_risks_before=risks0,
        node_risks_after=risks,
    )


# ---------------------------------------------------------------------------
# flat baseline


def parameter_count(classifier: HierarchicalClassifier) -> int:
    return sum(
        m.encoder.parameter_count() + m.scorer_weights.size + m.scorer_bias.size
        for m in classifier.models.values()
    )


@dataclass(frozen=True)
class FlatBaseline:
    classifier: HierarchicalClassifier
    parameter_count: int


def flat_tree(catalog_size: int) -> Tree:
    return internal([leaf(cid) for cid in range(catalog_size)])


def train_flat_baseline(
    dataset: LabeledDataset,
    cfg: HierTrainConfig,
    target_params: int | None = None,
) -> FlatBaseline:
    """One-vs-rest scorers over one shared encoder, sized so the total
    parameter count lands within 10 % of ``target_params``."""
    n = dataset.n_features
    k = len(dataset.catalog)
    d = cfg.encoder.latent_dim
    encoder_cfg = cfg.encoder
    if target_params is not None:
        # params(h) = h(n+1) + d(h+1) + k(d+1), solve for the hidden width
        h_exact = (target_params - d - k * (d + 1)) / (n + 1 + d)
        candidates = {max(1, int(np.floor(h_exact))), max(1, int(np.ceil(h_exact)))}
        def count_for(h: int) -> int:
            return h * (n + 1) + d * (h + 1) + k * (d + 1)
        h_best = min(candidates, key=lambda h: abs(count_for(h) - target_params))
        if abs(count_for(h_best) - target_params) > 0.1 * target_params:
            raise DataError(
                f"cannot match parameter budget {target_params} within "
                f"10%: closest achievable is {count_for(h_best)}"
            )
        encoder_cfg = replace(cfg.encoder, hidden_dim=h_best)
    flat_cfg = replace(cfg, encoder=encoder_cfg)
    classifier = train_hierarchical(flat_tree(k), dataset, flat_cfg, artifacts=None)
    return FlatBaseline(
        classifier=classifier,
        parameter_count=parameter_count(classifier),
    )


# ---------------------------------------------------------------------------
# exhaustive search


@dataclass(frozen=True)
class SearchResult:
    best_tree: Tree
    table: tuple[tuple[Tree, float], ...]


def exhaustive_search(
    train_data: LabeledDataset,
    val_data: LabeledDataset,
    cfg: HierTrainConfig,
    metric: str = "accuracy",
    cap: int = 5,
) -> SearchResult:
    """Train a classifier for every hierarchy over the catalog and rank them
    by accuracy on the validation split, the one ``metric``.

    All trainings share budgets and the seed discipline. Mean H-loss would
    rank them the same way: with unit node costs and leaf predictions every
    mistake costs 2, so its mean is 2 (1 - accuracy) up to rounding.

    The classifiers come from one ``train_hierarchies`` call, so each is
    what its tree gets trained alone, no node trains twice, and no
    one-vs-rest scorer either: the child partitions of a concept set share
    the scorers of the children they have in common.
    """
    if metric != "accuracy":
        raise ValueError(f"unknown metric {metric!r}")
    trees = enumerate_hierarchies(range(len(train_data.catalog)), cap=cap)
    table = tuple((tree, float(np.mean(predict_batch(clf, val_data.features) == val_data.labels)))
                  for tree, clf in zip(trees, train_hierarchies(trees, train_data, cfg)))
    best_tree = max(table, key=lambda row: row[1])[0]
    return SearchResult(best_tree=best_tree, table=table)


# ---------------------------------------------------------------------------
# serialization

_FORMAT = "hierclass-classifier-v2"


def classifier_to_json(classifier: HierarchicalClassifier) -> dict:
    """The catalog, the tree and one model per internal node, in the tree's
    preorder: the tree says which node each model is and what it separates."""
    return {
        "format": _FORMAT,
        "concepts": list(classifier.catalog.names),
        "tree": tree_to_text(classifier.tree, classifier.catalog),
        "nodes": [
            {"encoder": mlp_to_json(m.encoder), "scorer_weights": array_to_json(m.scorer_weights),
             "scorer_bias": array_to_json(m.scorer_bias)}
            for m in (classifier.models[node_key(n)] for n in classifier.tree.internal_nodes())
        ],
    }


def classifier_from_json(obj: dict) -> HierarchicalClassifier:
    """Read exactly the keys :func:`classifier_to_json` writes, and an
    optional ``provenance``, which is not read."""
    check_keys(obj, ("format", "concepts", "tree", "nodes"), "bad classifier JSON", optional=("provenance",))
    if obj["format"] != _FORMAT:
        raise DataError(f"unsupported classifier format {obj['format']!r}, not {_FORMAT!r}; "
                        "retrain the classifier with `hierclass train`")
    try:
        catalog = Catalog(tuple(obj["concepts"]))
        tree = parse_tree(obj["tree"], catalog)
        nodes = list(tree.internal_nodes())
        if len(obj["nodes"]) != len(nodes):
            raise ValueError(f"{len(obj['nodes'])} nodes, but the tree has {len(nodes)} internal nodes")
        models = {}
        for node, entry in zip(nodes, obj["nodes"]):
            key = node_key(node)
            check_keys(entry, ("encoder", "scorer_weights", "scorer_bias"), f"bad classifier node {list(key)}")
            try:
                w, b = array_from_json(entry["scorer_weights"]), array_from_json(entry["scorer_bias"])
                models[key] = NodeModel(mlp_from_json(entry["encoder"]), w, b)
            except ValueError as exc:
                raise ValueError(f"node {list(key)}: {exc}") from None
        return HierarchicalClassifier(tree=tree, catalog=catalog, models=models)
    except (TypeError, ValueError) as exc:
        raise DataError(f"bad classifier JSON: {exc}") from None

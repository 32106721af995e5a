"""Hierarchical classifier: one model per internal node, each pairing a
representation (encoder) with one-vs-rest linear scorers over its children.

Prediction is recursive: starting at the root, descend into the child with
the maximal scorer output until a leaf is reached, ties to the lowest child
index. Representations come from the affinity stage when its artifacts are
supplied (first-order pair encoders for leaf-children nodes, higher-order
fine-tunes toward concept unions for nodes with subtree children) or are
trained from scratch per node otherwise. A joint refinement pass trades
per-node hinge risk against a parent/child representation-orthogonality
penalty.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cache, cached_property

import numpy as np

from .affinity import (
    AffinityArtifacts,
    AffinityConfig,
    EncoderConfig,
    capped_budget,
    fine_tune_stack,
    train_autoencoder_stack,
)
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
from .serialize import array_from_json, array_to_json, mlp_from_json, mlp_to_json
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


@dataclass(frozen=True)
class NodeModel:
    encoder: Mlp
    scorer_weights: np.ndarray  # (n_children, latent)
    scorer_bias: np.ndarray  # (n_children,)
    child_keys: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        w = np.array(self.scorer_weights, dtype=float)
        b = np.array(self.scorer_bias, dtype=float)
        if w.ndim != 2 or b.shape != (w.shape[0],):
            raise ValueError("scorer shapes are inconsistent")
        if w.shape[0] != len(self.child_keys):
            raise ValueError("need exactly one scorer per child")
        if w.shape[1] != self.encoder.output_dim:
            raise ValueError("scorer input dim must equal the encoder latent dim")
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
    models: dict[tuple[int, ...], NodeModel]
    provenance: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        want = {node_key(n) for n in self.tree.internal_nodes()}
        have = set(self.models)
        if want != have:
            raise ValueError(f"models do not match tree nodes: missing {want - have}, extra {have - want}")
        for node in self.tree.internal_nodes():
            model = self.models[node_key(node)]
            expected = tuple(node_key(c) for c in node.children)
            if model.child_keys != expected:
                raise ValueError(f"child order mismatch at node {node_key(node)}")

    @property
    def input_dim(self) -> int | None:
        for model in self.models.values():
            return model.encoder.input_dim
        return None


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
    dim = classifier.input_dim
    if dim is not None and x.shape[1] != dim:
        raise ValueError(f"feature dim {x.shape[1]} does not match classifier dim {dim}")
    if not np.isfinite(x).all():
        raise ValueError("non-finite feature values")
    limits = {node_key(n): classifier.models[node_key(n)].max_feature for n in classifier.tree.internal_nodes()}
    if x.size and max(x.max(), -x.min()) >= min(limits.values(), default=np.inf):  # then find the row
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
def _sign_table(n_children: int, dtype) -> np.ndarray:
    table = np.where(np.eye(n_children, dtype=bool), 1, -1).astype(dtype)
    table.setflags(write=False)
    return table


def _signed_labels(child_idx: np.ndarray, n_children: int, dtype=float) -> np.ndarray:
    """+1 where a row's child is the scorer's child, -1 elsewhere: each row's
    line of a +-1 table, gathered by one take, as a scatter of +1s into -1s
    or a broadcast comparison over a last axis of a few scorers is slower."""
    return _sign_table(n_children, dtype).take(child_idx, axis=0)


def _signed_scores(scorer_w, scorer_b, z, y, out=None):
    """y s per row and scorer, in ``out`` or a new array. ``z`` holds the rows
    (..., m, d), or is a list of (members, latents (m, d)) runs, consecutive
    members that read one latent array. A contiguous bias lets its add run
    over members and scorers at once where ``out`` is batch-major."""
    if isinstance(z, np.ndarray):
        ys = np.matmul(z, scorer_w.swapaxes(-1, -2), out=out)
    else:
        for members, latents in z:
            np.matmul(latents, scorer_w[members].swapaxes(-1, -2), out=out[members])
        ys = out
    ys += np.ascontiguousarray(scorer_b)[..., None, :]
    ys *= y
    return ys


def _hinge_risk(ys, scorer_w, l2):
    """The risk of signed scores ``ys``, overwriting them with the hinges."""
    np.subtract(1.0, ys, out=ys)
    np.fmax(ys, 0.0, out=ys)  # NaN hinges count 0; 1 - y s is never -0.0
    # per-member sums over one contiguous run, as a single member sums alone
    members = ys.shape[:-2]
    hinge = np.add.reduce(ys.reshape(members + (-1,)), axis=-1)
    return hinge / ys.shape[-2] + l2 * np.add.reduce((scorer_w**2).reshape(members + (-1,)), axis=-1)


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
    risk = _hinge_risk(ys, scorer_w, l2)
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


def train_node_erm_stack(encoders, features, child_idx, n_children, cfg: ErmConfig, seeds):
    """Stochastic subgradient descent on the hinge risks of several node
    problems as one stacked SGD.

    Problem g has its own frozen encoder ``encoders[g]``, rows
    ``features[g]`` (m_g, in), seed ``seeds[g]`` and child indices
    ``child_idx[g]`` (P_g, m_g): P_g groupings of its rows, grouping p into
    ``n_children[g][p]`` children. Problems may differ in row count and
    groupings in child count. Every grouping of a problem is a stack member
    holding the Generator of the problem's seed, so the groupings share its
    encoded rows and the batch order it draws every epoch, and the steps
    follow :func:`ragged_schedule`: grouping p of problem g gets bit for bit
    what it gets trained alone, in a stack of one problem and one grouping.
    Scorers start at zero and each member keeps its best iterate by
    full-data risk, so its reported risk never exceeds the initial one.
    Returns one (weights, biases, risk history) per problem: a list of the
    (n, d) weights and a list of the (n,) biases of its groupings, and one
    (P_g,) risk array per epoch. An empty child group is a DataError naming
    the member, counted over every problem's groupings.

    Layout: one latent array per problem. A window of consecutive steps,
    at most STEP_SCORES latent values, gathers its rows batch-major, (rows,
    members, d), and their child labels with one ``take`` each per epoch.
    A step reads its slice of the window, builds its +-1 labels and scores
    (rows, members, n), and multiplies member-major views of them, so each
    member gets the gemm and the sequential row sum it gets alone while the
    bias add and its gradient run over members and scorers at once. Where
    numpy would take a matrix-vector product instead (one-row batches,
    one-dimensional latents, single scorers), whose sums depend on the
    layout, a step stays member-major and gathers its own rows. The
    per-epoch risks run per group of equal row and child count, each run of
    a group's members that share a problem reading that problem's latents
    through one broadcast product, and each member's hinge sum is one
    pairwise sum over its own (rows, n) block.
    """
    sizes = [len(idx) for idx in child_idx]
    counts = np.concatenate(n_children)
    members = [np.asarray(row, dtype=int) for idx in child_idx for row in idx]
    for p, (row, n) in enumerate(zip(members, counts)):
        empty = np.flatnonzero(np.bincount(row, minlength=n) == 0)
        if empty.size:
            where = f" in stack member {p}" if len(members) > 1 else ""
            raise DataError(f"empty child group(s){where}: {empty.tolist()}")
    owner = np.repeat(np.arange(len(sizes)), sizes)
    m = np.array([len(f) for f in features])
    generators = [np.random.default_rng(seed) for seed in seeds]
    order, position, groups, steps, shuffle = ragged_schedule(
        m[owner], cfg.batch_size, [generators[g] for g in owner], key=counts
    )
    problem, rows, counts = owner[order], m[owner][order], counts[order]

    # one latent array per problem, and each member's child labels in its problem's row order
    z = np.concatenate([mlp_forward(enc, f) for enc, f in zip(encoders, features)])
    first = np.cumsum([0, *m[:-1]])  # each problem's first row in z
    latents = [z[lo : lo + n] for lo, n in zip(first, m)]
    labels = np.zeros((len(order), m.max()), dtype=np.min_scalar_type(counts.max()))
    for i, p in enumerate(order):
        labels[i, : len(members[p])] = members[p]
    first = first[problem, None]  # each sorted member's first row in z
    first_label = np.arange(len(order))[:, None] * labels.shape[1]  # ... and in labels, flattened

    # the risks' labels, per group of equal row and child count (int8 holds +-1 exactly),
    # and the group's runs of members that share a problem, so read its one latent array
    signs = [_signed_labels(labels[lo:hi, : rows[lo]], counts[lo], np.int8) for lo, hi in groups]
    shared = []
    for lo, hi in groups:
        ends = [lo, *(lo + np.flatnonzero(np.diff(problem[lo:hi])) + 1).tolist(), hi]
        shared.append([(slice(a - lo, c - lo), latents[problem[a]]) for a, c in zip(ends, ends[1:])])
    # batch-major steps, except where numpy would take a matrix-vector product
    batch_major = [size > 1 and z.shape[-1] > 1 and counts.min() > 1 for _, _, _, size in steps]
    substeps = [_substeps(groups, counts, lo, hi, size, major)
                for (lo, hi, _, size), major in zip(steps, batch_major)]
    windows = _windows(steps, batch_major, z.shape[-1])
    w = np.zeros((len(order), counts.max(), z.shape[-1]))
    b = np.zeros((len(order), counts.max()))

    def risks():
        out = np.empty(len(order))
        for (lo, hi), y, runs in zip(groups, signs, shared):
            n, wg = counts[lo], w[lo:hi, : counts[lo]]
            ys = _signed_scores(wg, b[lo:hi, :n], runs, y, out=np.empty(y.shape))
            out[lo:hi] = _hinge_risk(ys, wg, cfg.l2)
        return out

    risk = risks()
    history = [risk[position]]
    best_risk, best_w, best_b = risk, w.copy(), b.copy()
    for _ in range(cfg.epochs):
        perms, gathered = shuffle(), None
        for (lo, hi, start, size), parts, major, window in zip(steps, substeps, batch_major, windows):
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
            for a, c, n in parts:
                wp, bp = w[a:c, :n], b[a:c, :n]
                if major:  # (size, members, width) arrays, read through member-major views
                    zp = zb[:, a - lo : c - lo].swapaxes(0, 1)
                    y = _signed_labels(yb[a - lo : c - lo].T, n).swapaxes(0, 1)
                    ys = np.empty((size, c - a, n)).swapaxes(0, 1)
                else:
                    zp, y, ys = zb[a - lo : c - lo], _signed_labels(yb[a - lo : c - lo], n), None
                dw, db, _ = _hinge_grads(_signed_scores(wp, bp, zp, y, out=ys), y / -size, wp, zp, cfg.l2)
                dw *= cfg.learning_rate
                wp -= dw
                db *= cfg.learning_rate
                bp -= db
        zw = zb = zp = yw = yb = None  # freed before the risks, the epoch's peak
        risk = risks()
        history.append(risk[position])
        better = risk < best_risk
        best_risk = np.where(better, risk, best_risk)
        np.copyto(best_w, w, where=better[:, None, None])
        np.copyto(best_b, b, where=better[:, None])
    bounds = np.cumsum([0, *sizes])
    out = []
    for lo, hi in zip(bounds, bounds[1:]):
        at = position[lo:hi]
        out.append(([best_w[i, : counts[i]].copy() for i in at], [best_b[i, : counts[i]].copy() for i in at],
                    [epoch_risks[lo:hi] for epoch_risks in history]))
    return out


# ---------------------------------------------------------------------------
# representation assignment


def _best_pair(members: tuple[int, ...], artifacts: AffinityArtifacts) -> tuple[int, int]:
    index = {(r.source, r.target): r.score for r in artifacts.matrix.records}
    candidates = [
        (i, j) for i in members for j in members if i != j and (i, j) in artifacts.pair_encoders
    ]
    if not candidates:
        raise DataError(f"no affinity encoder available for concept set {list(members)}")
    return max(candidates, key=lambda p: (index.get(p, -1.0), -p[0], -p[1]))


def _assigned_encoders(trees, artifacts: AffinityArtifacts, rows_of) -> dict[Tree, Mlp]:
    """The encoder of every internal node of ``trees``, as
    :func:`train_hierarchies` describes, keyed by the node's subtree: a
    union-tuned encoder starts from its biggest internal child's, so it
    depends on the whole subtree and not on the concept set alone.
    ``rows_of(key)`` gives the feature rows of concept set ``key``.

    A union tune needs only its children's encoders, so nodes are visited
    by height and the union tunes of one height go through one
    :func:`fine_tune_stack` call."""
    cfg = artifacts.config
    heights: dict[Tree, int] = {}  # every distinct internal subtree, leaf-children nodes at 1

    def height(node: Tree) -> int:
        if node not in heights:
            heights[node] = 1 + max((height(c) for c in node.children if not c.is_leaf), default=0)
        return heights[node]

    for tree in trees:
        if not tree.is_leaf:
            height(tree)
    assignment: dict[Tree, Mlp] = {}
    for h in sorted(set(heights.values())):
        starts: dict[Tree, Mlp] = {}  # node -> the encoder its union tune starts from
        for node in (node for node, at in heights.items() if at == h):
            key = node_key(node)
            if h == 1:
                encoder = artifacts.pair_encoders[_best_pair(key, artifacts)]
                if len(key) == 2:
                    assignment[node] = encoder
                    continue
            else:
                encoder = assignment[max(
                    (c for c in node.children if not c.is_leaf),
                    key=lambda c: (len(c.leaf_ids()), -c.min_leaf()),
                )]
            starts[node] = encoder
        tasks = []
        for node, encoder in starts.items():
            rows = rows_of(node_key(node))
            tasks.append(([encoder], rows, capped_budget(len(rows), cfg), task_seed(cfg.seed, 4, *node_key(node))))
        for node, [(tuned, _)] in zip(starts, fine_tune_stack(tasks, cfg)):
            assignment[node] = tuned
    return assignment


@dataclass(frozen=True)
class HierTrainConfig:
    erm: ErmConfig = ErmConfig(epochs=80, learning_rate=0.1)
    encoder: EncoderConfig = EncoderConfig(hidden_dim=24, latent_dim=3)  # scratch reps only
    pretrain: SgdConfig = SgdConfig(epochs=40, batch_size=32, learning_rate=0.1)
    rep_mode: str = "keep"  # the one representation mode, recorded in classifier provenance
    seed: int = 0

    def __post_init__(self) -> None:
        if self.rep_mode != "keep":
            raise ValueError(f"rep_mode must be 'keep', got {self.rep_mode!r}; "
                             "for a flat classifier, train the flat tree")


def _child_keys(node: Tree) -> tuple[tuple[int, ...], ...]:
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

    With affinity artifacts, every node's representation comes from them.
    A node whose children are all leaves reuses the best first-order pair
    encoder among its concepts, fine-tuned further toward the union when
    there are more than two. A node with subtree children gets an encoder
    fine-tuned from its largest internal child's toward the union of all its
    descendants. A flat classifier, with or without artifacts, comes from
    :func:`flat_tree`. Without artifacts each node gets a scratch
    autoencoder trained on its descendants' rows. A tree's classifier does not depend on the other
    trees in the call, but no node trains twice and independent problems
    stack:

    - one scratch encoder per distinct concept set, all trained in one
      ``train_autoencoder_stack`` call;
    - one artifact encoder per distinct subtree, as a union-tuned
      encoder depends on the subtree below its node; the union tunes of one
      tree height go through one ``fine_tune_stack`` call;
    - one scorer set per distinct (encoder, child partition), all trained
      in one ``train_node_erm_stack`` call; the partitions of one encoder
      share its rows and batch order.

    Artifacts built over another catalog or feature width raise a DataError.
    """
    if artifacts is not None and artifacts.matrix.catalog != dataset.catalog:
        raise DataError(f"affinity artifacts are over concepts {list(artifacts.matrix.catalog.names)}, "
                        f"the data over {list(dataset.catalog.names)}")
    if artifacts is not None and artifacts.input_dim != dataset.n_features:
        raise DataError(f"affinity artifacts were trained on {artifacts.input_dim} features, "
                        f"the data has {dataset.n_features}")
    for tree in trees:
        validate_tree(tree, len(dataset.catalog))

    def problem_of(node: Tree):  # what a node's encoder is a function of
        return node_key(node), (None if artifacts is None else node)

    subs: dict[tuple[int, ...], LabeledDataset] = {}  # concept set -> its rows
    problems: dict = {}  # problem -> its distinct child partitions (insertion-ordered)
    for tree in trees:
        for node in tree.internal_nodes():
            key = node_key(node)
            if key not in subs:
                subs[key] = dataset.restrict(key)
            problems.setdefault(problem_of(node), {})[_child_keys(node)] = None

    if artifacts is not None:
        assigned = _assigned_encoders(trees, artifacts, lambda key: subs[key].features)
        encoders = {problem_of(node): encoder for node, encoder in assigned.items()}
    elif subs:
        keys = list(subs)
        affinity_cfg = AffinityConfig(encoder=cfg.encoder, pretrain=cfg.pretrain)
        seeds = [task_seed(cfg.seed, 5, *key) for key in keys]
        try:
            stack = train_autoencoder_stack([subs[key].features for key in keys], affinity_cfg, seeds)
        except NumericError as exc:
            names = [dataset.catalog.name_of(cid) for cid in keys[exc.member]]
            raise NumericError(f"scratch encoder of concept set {names}: {exc}", exc.member) from exc
        encoders = {(key, None): encoder for key, (encoder, _, _) in zip(keys, stack)}

    nodes: dict = {}
    if problems:
        try:
            stack = train_node_erm_stack(
                [encoders[problem] for problem in problems],
                [subs[key].features for key, _ in problems],
                [np.stack([child_index_labels(ck, subs[key].labels) for ck in parts])
                 for (key, _), parts in problems.items()],
                [[len(ck) for ck in parts] for parts in problems.values()],
                cfg.erm,
                [task_seed(cfg.seed, 6, *key) for key, _ in problems],
            )
        except DataError as exc:  # an empty child group: name its node and child
            key, child = next((key, child) for (key, _), parts in problems.items() for ck in parts
                              for child in ck if not np.isin(subs[key].labels, child).any())
            names = [dataset.catalog.name_of(cid) for cid in key]
            empty = [dataset.catalog.name_of(cid) for cid in child]
            raise DataError(f"node over concept set {names}: child {empty} has no rows") from exc
        for (problem, parts), (w, b, _) in zip(problems.items(), stack):
            for ck, wp, bp in zip(parts, w, b):
                nodes[problem, ck] = NodeModel(encoders[problem], wp, bp, ck)
    classifiers = []
    for tree in trees:
        models = {node_key(n): nodes[problem_of(n), _child_keys(n)] for n in tree.internal_nodes()}
        provenance = {"tree": tree_to_text(tree, dataset.catalog), "seed": cfg.seed,
                      "rep_mode": cfg.rep_mode, "from_affinity_artifacts": artifacts is not None}
        classifiers.append(HierarchicalClassifier(tree, dataset.catalog, models, provenance))
    return classifiers


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
    for key in sorted(classifier.models):
        model = classifier.models[key]
        sub = dataset.restrict(key)
        params[key] = mlp_params(model.encoder) + [[model.scorer_weights.copy(), model.scorer_bias.copy()]]
        problems[key] = (sub.features, child_index_labels(model.child_keys, sub.labels))
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
    setting that cannot refine is a ValueError naming the argument.
    """
    check_refinement(lambda_orth, epochs, learning_rate, l2)
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
    what its tree gets trained alone, and no node trains twice.
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

_FORMAT = "hierclass-classifier-v1"


def classifier_to_json(classifier: HierarchicalClassifier) -> dict:
    return {
        "format": _FORMAT,
        "concepts": list(classifier.catalog.names),
        "tree": tree_to_text(classifier.tree, classifier.catalog),
        "nodes": [
            {
                "key": list(key),
                "children": [list(ck) for ck in model.child_keys],
                "encoder": mlp_to_json(model.encoder),
                "scorer_weights": array_to_json(model.scorer_weights),
                "scorer_bias": array_to_json(model.scorer_bias),
            }
            for key, model in sorted(classifier.models.items())
        ],
        "provenance": classifier.provenance,
    }


def classifier_from_json(obj: dict) -> HierarchicalClassifier:
    try:
        if obj.get("format") != _FORMAT:
            raise DataError(f"unsupported classifier format {obj.get('format')!r}")
        catalog = Catalog(tuple(obj["concepts"]))
        tree = parse_tree(obj["tree"], catalog)
        models = {}
        for entry in obj["nodes"]:
            key = tuple(int(i) for i in entry["key"])
            models[key] = NodeModel(
                encoder=mlp_from_json(entry["encoder"]),
                scorer_weights=array_from_json(entry["scorer_weights"]),
                scorer_bias=array_from_json(entry["scorer_bias"]),
                child_keys=tuple(tuple(int(i) for i in ck) for ck in entry["children"]),
            )
        return HierarchicalClassifier(
            tree=tree, catalog=catalog, models=models, provenance=obj.get("provenance", {})
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"bad classifier JSON: {exc}") from None


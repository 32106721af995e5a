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

import numpy as np

from .affinity import (
    AffinityArtifacts,
    AffinityConfig,
    EncoderConfig,
    capped_budget,
    fine_tune,
    train_autoencoder,
    train_autoencoder_stack,
)
from .errors import DataError, NumericError
from .metrics import h_loss_table
from .nets import (
    Mlp,
    SgdConfig,
    backprop,
    epoch_order,
    forward_trace,
    mlp_forward,
    mlp_params,
    params_to_mlp,
    take_rows,
    task_seed,
)
from .serialize import array_from_json, array_to_json, mlp_from_json, mlp_to_json
from .synth import LabeledDataset
from .treespace import (
    Catalog,
    Tree,
    canonicalize,
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
    key: tuple[int, ...]
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


def node_scores(model: NodeModel, x: np.ndarray) -> np.ndarray:
    """Per-child scores (N, n_children) on the node's own representation."""
    z = mlp_forward(model.encoder, np.atleast_2d(x))
    return z @ model.scorer_weights.T + model.scorer_bias


def route_child(model: NodeModel, x: np.ndarray) -> np.ndarray:
    """Index of the winning child per row; ties go to the lowest index."""
    return node_scores(model, x).argmax(axis=1)


def predict_batch(classifier: HierarchicalClassifier, x: np.ndarray) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x, dtype=float))
    dim = classifier.input_dim
    if dim is not None and x.shape[1] != dim:
        raise ValueError(f"feature dim {x.shape[1]} does not match classifier dim {dim}")
    if not np.isfinite(x).all():
        raise ValueError("non-finite feature values")
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


def predict(classifier: HierarchicalClassifier, x: np.ndarray) -> int:
    return int(predict_batch(classifier, np.asarray(x, dtype=float)[None, :])[0])


# ---------------------------------------------------------------------------
# hinge-loss empirical risk minimization


# The kernel comes in parts so that SGD steps skip the risk and per-epoch
# risks skip the gradients; ``y`` holds the +-1 child labels (..., m, n).


def _signed_labels(child_idx: np.ndarray, n_children: int) -> np.ndarray:
    """+1 where a row's child is the scorer's child, -1 elsewhere."""
    return np.where(child_idx[..., None] == np.arange(n_children), 1.0, -1.0)


def _hinge_margins(scorer_w, scorer_b, z, y):
    return 1.0 - y * (z @ scorer_w.swapaxes(-1, -2) + scorer_b[..., None, :])


def _hinge_risk(margins, scorer_w, l2):
    # per-member sums over one contiguous run, as a single member sums alone
    members = margins.shape[:-2]
    hinge = np.where(margins > 0, margins, 0.0).reshape(members + (-1,)).sum(axis=-1)
    return hinge / margins.shape[-2] + l2 * (scorer_w**2).reshape(members + (-1,)).sum(axis=-1)


def _hinge_grads(margins, y, scorer_w, z, l2):
    ds = -(y * (margins > 0)) / margins.shape[-2]
    return ds.swapaxes(-1, -2) @ z + 2.0 * l2 * scorer_w, ds.sum(axis=-2), ds


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
    margins = _hinge_margins(scorer_w, scorer_b, z, y)
    risk = _hinge_risk(margins, scorer_w, l2)
    dw, db, ds = _hinge_grads(margins, y, scorer_w, z, l2)
    return (risk if risk.ndim else float(risk)), dw, db, ds


@dataclass(frozen=True)
class ErmConfig:
    epochs: int = 60
    batch_size: int = 32
    learning_rate: float = 0.05
    l2: float = 1e-3


def train_node_erm_stack(encoders, features, child_idx, n_children: int, cfg: ErmConfig, seeds):
    """Stochastic subgradient descent on the hinge risks of several node
    problems as one stacked SGD.

    Problem g has its own frozen encoder ``encoders[g]``, rows
    ``features[g]`` (m, in), every problem with the same m, seed
    ``seeds[g]`` and child indices ``child_idx[g]`` (P_g, m): P_g groupings
    of its rows into ``n_children`` children. The groupings of one problem
    share its encoded rows and the batch order drawn from its seed; each
    problem draws its own order every epoch and its members gather their
    own rows, so grouping p of problem g gets bit for bit what
    ``train_node_erm(encoders[g], features[g], child_idx[g][p], ...)``
    gets. Scorers start at zero and each member keeps its best iterate by
    full-data risk. Returns one (weights (P_g, n, d), bias (P_g, n),
    risk history of (P_g,) arrays) per problem.
    """
    sizes = [len(idx) for idx in child_idx]
    members = np.concatenate([np.asarray(idx, dtype=int) for idx in child_idx])  # (P, m)
    for p, row in enumerate(members):
        counts = np.bincount(row, minlength=n_children)
        if (counts == 0).any():
            where = f" in stack member {p}" if len(members) > 1 else ""
            raise DataError(f"empty child group(s){where}: {np.flatnonzero(counts == 0).tolist()}")
    owner = np.repeat(np.arange(len(sizes)), sizes)
    z = np.stack([mlp_forward(enc, f) for enc, f in zip(encoders, features)])[owner]
    y = _signed_labels(members, n_children)
    w = np.zeros((len(members), n_children, z.shape[-1]))
    b = np.zeros((len(members), n_children))
    rngs = [np.random.default_rng(seed) for seed in seeds]

    risk = _hinge_risk(_hinge_margins(w, b, z, y), w, cfg.l2)
    history = [risk]
    best_risk, best_w, best_b = risk, w.copy(), b.copy()
    m = z.shape[-2]
    for _ in range(cfg.epochs):
        order = epoch_order(rngs, m)[owner]
        z_epoch, y_epoch = take_rows(z, order), take_rows(y, order)
        for start in range(0, m, cfg.batch_size):
            zb, yb = z_epoch[:, start : start + cfg.batch_size], y_epoch[:, start : start + cfg.batch_size]
            dw, db, _ = _hinge_grads(_hinge_margins(w, b, zb, yb), yb, w, zb, cfg.l2)
            w -= cfg.learning_rate * dw
            b -= cfg.learning_rate * db
        risk = _hinge_risk(_hinge_margins(w, b, z, y), w, cfg.l2)
        history.append(risk)
        better = risk < best_risk
        best_risk = np.where(better, risk, best_risk)
        np.copyto(best_w, w, where=better[:, None, None])
        np.copyto(best_b, b, where=better[:, None])
    bounds = np.cumsum([0, *sizes])
    return [
        (best_w[lo:hi], best_b[lo:hi], [risks[lo:hi] for risks in history])
        for lo, hi in zip(bounds, bounds[1:])
    ]


def train_node_erm(
    encoder: Mlp,
    features: np.ndarray,
    child_idx: np.ndarray,
    n_children: int,
    cfg: ErmConfig,
    seed: int,
):
    """Stochastic subgradient descent on the node's hinge risk: the
    one-problem case of :func:`train_node_erm_stack`.

    The encoder is frozen here; scorers start at zero. The best iterate by
    full-data risk is returned, so the reported risk never exceeds the
    initial one. Returns (weights, bias, risk_history). ``child_idx`` of
    shape (P, m) trains P groupings of the rows at once; weights (P, n, d),
    bias (P, n) and each history entry (P,) then carry the member axis.
    """
    child_idx = np.asarray(child_idx, dtype=int)
    (w, b, history), = train_node_erm_stack(
        [encoder], [features], [np.atleast_2d(child_idx)], n_children, cfg, [seed]
    )
    if child_idx.ndim == 1:
        return w[0], b[0], [float(risk[0]) for risk in history]
    return w, b, history


# ---------------------------------------------------------------------------
# representation assignment


def fuse_tree(tree: Tree) -> Tree:
    """Flatten every subtree whose root has an internal child into one
    multi-way node over its descendant concepts."""
    if tree.is_leaf:
        return tree
    if any(not c.is_leaf for c in tree.children):
        return internal([leaf(cid) for cid in sorted(tree.leaf_ids())])
    return tree


def _best_pair(members: tuple[int, ...], artifacts: AffinityArtifacts) -> tuple[int, int]:
    index = {(r.source, r.target): r.score for r in artifacts.matrix.records}
    candidates = [
        (i, j) for i in members for j in members if i != j and (i, j) in artifacts.pair_encoders
    ]
    if not candidates:
        raise DataError(f"no affinity encoder available for concept set {list(members)}")
    return max(candidates, key=lambda p: (index.get(p, -1.0), -p[0], -p[1]))


def assign_representations(
    tree: Tree,
    artifacts: AffinityArtifacts,
    mode: str,
    dataset: LabeledDataset,
) -> tuple[Tree, dict[tuple[int, ...], Mlp]]:
    """Choose an encoder for every internal node from the affinity artifacts.

    Nodes whose children are all leaves reuse the best first-order pair
    encoder among their concepts (fine-tuned further toward the union when
    there are more than two). Nodes with subtree children either receive a
    higher-order encoder, fine-tuned from their largest child's encoder
    toward the union of all descendants (mode="keep"), or the subtree is
    flattened first (mode="fuse"). Returns the effective tree and the
    node-key-to-encoder map.
    """
    tree = _represented_tree(tree, mode)
    return tree, _assigned_encoders(tree, artifacts, lambda key: dataset.restrict(key).features)


def _represented_tree(tree: Tree, mode: str) -> Tree:
    if mode not in ("keep", "fuse"):
        raise ValueError(f"unknown representation mode {mode!r}")
    tree = canonicalize(tree)
    return fuse_tree(tree) if mode == "fuse" else tree


def _assigned_encoders(tree: Tree, artifacts: AffinityArtifacts, rows_of) -> dict[tuple[int, ...], Mlp]:
    """The encoder of every internal node of ``tree``, as
    :func:`assign_representations` describes; ``rows_of(key)`` gives the
    feature rows of concept set ``key``."""
    cfg = artifacts.config
    assignment: dict[tuple[int, ...], Mlp] = {}

    def union_tune(start: Mlp, key: tuple[int, ...]) -> Mlp:
        rows = rows_of(key)
        budget = capped_budget(rows.shape[0], cfg)
        tuned, _ = fine_tune(start, rows, budget, cfg, task_seed(cfg.seed, 4, *key))
        return tuned

    def walk(node: Tree) -> None:
        for child in node.children:
            if not child.is_leaf:
                walk(child)
        key = node_key(node)
        if all(c.is_leaf for c in node.children):
            src, dst = _best_pair(key, artifacts)
            encoder = artifacts.pair_encoders[(src, dst)]
            if len(key) > 2:
                encoder = union_tune(encoder, key)
            assignment[key] = encoder
        else:
            biggest = max(
                (c for c in node.children if not c.is_leaf),
                key=lambda c: (len(c.leaf_ids()), -c.min_leaf()),
            )
            assignment[key] = union_tune(assignment[node_key(biggest)], key)

    if not tree.is_leaf:
        walk(tree)
    return assignment


@dataclass(frozen=True)
class HierTrainConfig:
    erm: ErmConfig = ErmConfig(epochs=80, learning_rate=0.1)
    encoder: EncoderConfig = EncoderConfig(hidden_dim=24, latent_dim=3)  # scratch reps only
    pretrain: SgdConfig = SgdConfig(epochs=40, batch_size=32, learning_rate=0.1)
    rep_mode: str = "keep"
    seed: int = 0


def _scratch_encoder(rows: np.ndarray, key: tuple[int, ...], cfg: HierTrainConfig) -> Mlp:
    """The node encoder trained from scratch on ``rows``, those of concept set ``key``."""
    affinity_cfg = AffinityConfig(encoder=cfg.encoder, pretrain=cfg.pretrain)
    encoder, _, _ = train_autoencoder(rows, affinity_cfg, seed=task_seed(cfg.seed, 5, *key))
    return encoder


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
    """Train every node model over the given tree.

    With affinity artifacts, representations are assigned from them per
    ``cfg.rep_mode``; otherwise each node gets a scratch autoencoder trained
    on its descendants' rows under the same seed discipline.
    """
    tree = canonicalize(tree)
    validate_tree(tree, len(dataset.catalog))
    if artifacts is not None:
        tree = _represented_tree(tree, cfg.rep_mode)
    elif cfg.rep_mode == "fuse":
        tree = fuse_tree(tree)
    subs = {node_key(node): dataset.restrict(node_key(node)) for node in tree.internal_nodes()}
    encoders = {} if artifacts is None else _assigned_encoders(tree, artifacts, lambda key: subs[key].features)

    models = {}
    for node in tree.internal_nodes():
        key = node_key(node)
        child_keys = _child_keys(node)
        sub = subs[key]
        encoder = encoders[key] if key in encoders else _scratch_encoder(sub.features, key, cfg)
        child_idx = child_index_labels(child_keys, sub.labels)
        w, b, _ = train_node_erm(encoder, sub.features, child_idx, len(child_keys), cfg.erm,
                                 seed=task_seed(cfg.seed, 6, *key))
        models[key] = NodeModel(key, encoder, w, b, child_keys)
    return _classifier(tree, dataset, cfg, models, artifacts is not None)


def _classifier(tree, dataset, cfg, models, from_artifacts: bool) -> HierarchicalClassifier:
    provenance = {"tree": tree_to_text(tree, dataset.catalog), "seed": cfg.seed,
                  "rep_mode": cfg.rep_mode, "from_affinity_artifacts": from_artifacts}
    return HierarchicalClassifier(tree, dataset.catalog, models, provenance)


def train_hierarchies(trees, dataset: LabeledDataset, cfg: HierTrainConfig) -> list[HierarchicalClassifier]:
    """``[train_hierarchical(t, dataset, cfg) for t in trees]``, bit for bit,
    but training no node twice and stacking independent problems: one
    scratch encoder per distinct concept set, trained in one
    ``train_autoencoder_stack`` call per row count, and one scorer set per
    distinct (concept set, child partition), trained in one
    ``train_node_erm_stack`` call per (row count, child count); the
    partitions of one concept set share its encoder, rows and batch order.
    Each tree's classifier is then composed from this node table.
    """
    shaped = []
    for tree in trees:
        tree = canonicalize(tree)
        validate_tree(tree, len(dataset.catalog))
        shaped.append(fuse_tree(tree) if cfg.rep_mode == "fuse" else tree)

    subs: dict[tuple[int, ...], LabeledDataset] = {}  # concept set -> its rows
    # (row count, child count) -> concept set -> distinct child partitions (insertion-ordered)
    by_shape: dict[tuple[int, int], dict] = {}
    for tree in shaped:
        for node in tree.internal_nodes():
            key = node_key(node)
            if key not in subs:
                subs[key] = dataset.restrict(key)
            shape = (len(subs[key]), len(node.children))
            by_shape.setdefault(shape, {}).setdefault(key, {})[_child_keys(node)] = None

    encoders = {}
    by_rows: dict[int, list] = {}
    for key, sub in subs.items():
        by_rows.setdefault(len(sub), []).append(key)
    affinity_cfg = AffinityConfig(encoder=cfg.encoder, pretrain=cfg.pretrain)
    for keys in by_rows.values():
        seeds = [task_seed(cfg.seed, 5, *key) for key in keys]
        try:
            stack = train_autoencoder_stack([subs[key].features for key in keys], affinity_cfg, seeds)
        except NumericError as exc:
            names = [dataset.catalog.name_of(cid) for cid in keys[exc.member]]
            raise NumericError(f"scratch encoder of concept set {names}: {exc}", exc.member) from exc
        encoders.update((key, encoder) for key, (encoder, _, _) in zip(keys, stack))

    nodes: dict = {}
    for (_, n_children), problems in by_shape.items():
        stack = train_node_erm_stack(
            [encoders[key] for key in problems],
            [subs[key].features for key in problems],
            [np.stack([child_index_labels(ck, subs[key].labels) for ck in parts]) for key, parts in problems.items()],
            n_children,
            cfg.erm,
            [task_seed(cfg.seed, 6, *key) for key in problems],
        )
        for (key, parts), (w, b, _) in zip(problems.items(), stack):
            for ck, wp, bp in zip(parts, w, b):
                nodes[key, ck] = NodeModel(key, encoders[key], wp, bp, ck)
    classifiers = []
    for tree in shaped:
        models = {node_key(n): nodes[node_key(n), _child_keys(n)] for n in tree.internal_nodes()}
        classifiers.append(_classifier(tree, dataset, cfg, models, from_artifacts=False))
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
        outputs, preacts = forward_trace(enc_params, acts, features)
        risk, dw, db, ds = erm_risk_and_grads(scorer_w, scorer_b, outputs[-1], child_idx, l2)
        node_risks[key] = risk
        total += risk
        *enc_grads, scorer_grads = grads[key]
        scorer_grads[0] += dw
        scorer_grads[1] += db
        for g, (gw, gb) in zip(enc_grads, backprop(enc_params, acts, outputs, preacts, ds @ scorer_w)):
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
    freeze_encoders: bool = False,
) -> RefineResult:
    """Joint full-batch descent on the combined objective with backtracking:
    a step that raises the loss is undone and the rate halved, so the
    recorded trajectory never increases.

    Steps are accepted per block, each block with its own rate. With
    lambda_orth = 0 the nodes are independent and each node is a block that
    accepts or reverts its own steps on its own risk; otherwise all nodes
    form one block judged on the total. Each trial step is evaluated once,
    and the kept state takes its risks and gradients from that evaluation.
    Each node's rows and child indices are set up once per call.
    """
    if lambda_orth < 0:
        raise ValueError("lambda_orth must be nonnegative")
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
                fixed = len(params[key]) - 1 if freeze_encoders else 0  # the scorer pair is last
                trial[key] = params[key][:fixed]
                for (w, b), (gw, gb) in zip(params[key][fixed:], grads[key][fixed:]):
                    trial[key].append([w - rate * gw, b - rate * gb])
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
    target_count: int | None


def flat_tree(catalog_size: int) -> Tree:
    return internal([leaf(cid) for cid in range(catalog_size)])


def train_flat_baseline(
    dataset: LabeledDataset,
    cfg: HierTrainConfig,
    target_params: int | None = None,
    tolerance: float = 0.1,
) -> FlatBaseline:
    """One-vs-rest scorers over one shared encoder, sized so the total
    parameter count lands within ``tolerance`` of ``target_params``."""
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
        if abs(count_for(h_best) - target_params) > tolerance * target_params:
            raise DataError(
                f"cannot match parameter budget {target_params} within "
                f"{tolerance:.0%}: closest achievable is {count_for(h_best)}"
            )
        encoder_cfg = replace(cfg.encoder, hidden_dim=h_best)
    flat_cfg = replace(cfg, encoder=encoder_cfg, rep_mode="keep")
    classifier = train_hierarchical(flat_tree(k), dataset, flat_cfg, artifacts=None)
    return FlatBaseline(
        classifier=classifier,
        parameter_count=parameter_count(classifier),
        target_count=target_params,
    )


# ---------------------------------------------------------------------------
# exhaustive search


@dataclass(frozen=True)
class SearchResult:
    best_tree: Tree
    table: tuple[tuple[Tree, float], ...]
    metric: str


def exhaustive_search(
    train_data: LabeledDataset,
    val_data: LabeledDataset,
    cfg: HierTrainConfig,
    metric: str = "accuracy",
    cap: int = 5,
) -> SearchResult:
    """Train a classifier for every hierarchy over the catalog and rank them.

    All trainings share budgets and the seed discipline; scoring is on the
    validation split, with accuracy or negated mean hierarchical loss as the
    metric (higher is better for both).

    The classifiers come from ``train_hierarchies``: each equals
    ``train_hierarchical(tree, train_data, cfg)``, and no node trains twice.
    """
    if metric not in ("accuracy", "neg_h_loss"):
        raise ValueError(f"unknown metric {metric!r}")
    k = len(train_data.catalog)
    if k > cap:
        raise ValueError(f"{k} concepts exceed the exhaustive-search cap {cap}")
    trees = enumerate_hierarchies(range(k), cap=cap)

    def score(clf: HierarchicalClassifier) -> float:
        preds = predict_batch(clf, val_data.features)
        if metric == "accuracy":
            return float(np.mean(preds == val_data.labels))
        return -float(np.mean(h_loss_table(clf.tree)[preds, val_data.labels]))

    table = tuple((tree, score(clf)) for tree, clf in zip(trees, train_hierarchies(trees, train_data, cfg)))
    best_tree = max(table, key=lambda row: row[1])[0]
    return SearchResult(best_tree=best_tree, table=table, metric=metric)


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
                key=key,
                encoder=mlp_from_json(entry["encoder"]),
                scorer_weights=array_from_json(entry["scorer_weights"]),
                scorer_bias=array_from_json(entry["scorer_bias"]),
                child_keys=tuple(tuple(int(i) for i in ck) for ck in entry["children"]),
            )
        return HierarchicalClassifier(
            tree=tree, catalog=catalog, models=models, provenance=obj.get("provenance", {})
        )
    except (KeyError, TypeError) as exc:
        raise DataError(f"bad classifier JSON: {exc}") from None


def classifiers_equal(a: HierarchicalClassifier, b: HierarchicalClassifier) -> bool:
    """Bit-exact equality of structure and every numeric array."""
    if a.catalog != b.catalog or a.tree != b.tree or set(a.models) != set(b.models):
        return False
    for key, ma in a.models.items():
        mb = b.models[key]
        if ma.child_keys != mb.child_keys:
            return False
        if not (
            np.array_equal(ma.scorer_weights, mb.scorer_weights)
            and np.array_equal(ma.scorer_bias, mb.scorer_bias)
        ):
            return False
        if len(ma.encoder.layers) != len(mb.encoder.layers):
            return False
        for la, lb in zip(ma.encoder.layers, mb.encoder.layers):
            if la.activation != lb.activation:
                return False
            if not (np.array_equal(la.weights, lb.weights) and np.array_equal(la.bias, lb.bias)):
                return False
    return True

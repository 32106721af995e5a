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
)
from .errors import DataError
from .metrics import h_loss_table
from .nets import (
    Mlp,
    SgdConfig,
    backprop,
    forward_trace,
    mlp_forward,
    mlp_params,
    params_to_mlp,
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
    m = z.shape[0]
    scores = z @ scorer_w.swapaxes(-1, -2) + scorer_b[..., None, :]
    y = np.full(scores.shape, -1.0)
    y.reshape(-1, y.shape[-1])[np.arange(child_idx.size), child_idx.ravel()] = 1.0
    margins = 1.0 - y * scores
    active = margins > 0
    # per-member sums over one contiguous run, as a single member sums alone
    members = scores.shape[:-2]
    hinge = np.where(active, margins, 0.0).reshape(members + (-1,)).sum(axis=-1)
    risk = hinge / m + l2 * (scorer_w**2).reshape(members + (-1,)).sum(axis=-1)
    ds = -(y * active) / m
    dw = ds.swapaxes(-1, -2) @ z + 2.0 * l2 * scorer_w
    db = ds.sum(axis=-2)
    return (risk if members else float(risk)), dw, db, ds


@dataclass(frozen=True)
class ErmConfig:
    epochs: int = 60
    batch_size: int = 32
    learning_rate: float = 0.05
    l2: float = 1e-3


def train_node_erm(
    encoder: Mlp,
    features: np.ndarray,
    child_idx: np.ndarray,
    n_children: int,
    cfg: ErmConfig,
    seed: int,
):
    """Stochastic subgradient descent on the node's hinge risk.

    The encoder is frozen here; scorers start at zero. The best iterate by
    full-data risk is returned, so the reported risk never exceeds the
    initial one. Returns (weights, bias, risk_history).

    ``child_idx`` of shape (P, m) trains P groupings of the same rows into
    ``n_children`` children as one stacked SGD. The members share the
    encoder, the zero start and the batch order drawn from ``seed``, so
    member p gets bit for bit what the (m,) call with ``child_idx[p]`` gets;
    weights (P, n, d), bias (P, n) and each history entry (P,) then carry
    the member axis. Each member keeps its own best iterate.
    """
    features = np.asarray(features, dtype=float)
    child_idx = np.asarray(child_idx, dtype=int)
    for p, row in enumerate(np.atleast_2d(child_idx)):
        counts = np.bincount(row, minlength=n_children)
        if (counts == 0).any():
            where = f" in stack member {p}" if child_idx.ndim == 2 else ""
            raise DataError(f"empty child group(s){where}: {np.flatnonzero(counts == 0).tolist()}")
    z = mlp_forward(encoder, features)
    members = child_idx.shape[:-1]  # () for one grouping, (P,) for a stack
    w = np.zeros(members + (n_children, z.shape[1]))
    b = np.zeros(members + (n_children,))
    rng = np.random.default_rng(seed)

    risk = erm_risk_and_grads(w, b, z, child_idx, cfg.l2)[0]
    history = [risk]
    best_risk, best_w, best_b = risk, w.copy(), b.copy()
    m = z.shape[0]
    for _ in range(cfg.epochs):
        order = rng.permutation(m)
        for start in range(0, m, cfg.batch_size):
            rows = order[start : start + cfg.batch_size]
            _, dw, db, _ = erm_risk_and_grads(w, b, z[rows], child_idx[..., rows], cfg.l2)
            w -= cfg.learning_rate * dw
            b -= cfg.learning_rate * db
        risk = erm_risk_and_grads(w, b, z, child_idx, cfg.l2)[0]
        history.append(risk)
        better = np.asarray(risk < best_risk)
        best_risk = np.where(better, risk, best_risk)
        np.copyto(best_w, w, where=better[..., None, None])
        np.copyto(best_b, b, where=better[..., None])
    return best_w, best_b, history


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
    if mode not in ("keep", "fuse"):
        raise ValueError(f"unknown representation mode {mode!r}")
    tree = canonicalize(tree)
    if mode == "fuse":
        tree = fuse_tree(tree)
    cfg = artifacts.config
    assignment: dict[tuple[int, ...], Mlp] = {}

    def union_tune(start: Mlp, key: tuple[int, ...]) -> Mlp:
        rows = dataset.restrict(key).features
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
    return tree, assignment


@dataclass(frozen=True)
class HierTrainConfig:
    erm: ErmConfig = ErmConfig(epochs=80, learning_rate=0.1)
    encoder: EncoderConfig = EncoderConfig(hidden_dim=24, latent_dim=3)  # scratch reps only
    pretrain: SgdConfig = SgdConfig(epochs=40, batch_size=32, learning_rate=0.1)
    rep_mode: str = "keep"
    seed: int = 0


def _scratch_encoder(dataset: LabeledDataset, key: tuple[int, ...], cfg: HierTrainConfig) -> Mlp:
    """The node encoder trained from scratch on the rows of concept set ``key``."""
    affinity_cfg = AffinityConfig(encoder=cfg.encoder, pretrain=cfg.pretrain)
    rows = dataset.restrict(key).features
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
        tree, encoders = assign_representations(tree, artifacts, cfg.rep_mode, dataset)
    else:
        if cfg.rep_mode == "fuse":
            tree = fuse_tree(tree)
        encoders = {node_key(n): _scratch_encoder(dataset, node_key(n), cfg) for n in tree.internal_nodes()}

    models = {}
    for node in tree.internal_nodes():
        key = node_key(node)
        child_keys = _child_keys(node)
        sub = dataset.restrict(key)
        child_idx = child_index_labels(child_keys, sub.labels)
        w, b, _ = train_node_erm(encoders[key], sub.features, child_idx, len(child_keys), cfg.erm,
                                 seed=task_seed(cfg.seed, 6, *key))
        models[key] = NodeModel(key, encoders[key], w, b, child_keys)
    return _classifier(tree, dataset, cfg, models, artifacts is not None)


def _classifier(tree, dataset, cfg, models, from_artifacts: bool) -> HierarchicalClassifier:
    provenance = {"tree": tree_to_text(tree, dataset.catalog), "seed": cfg.seed,
                  "rep_mode": cfg.rep_mode, "from_affinity_artifacts": from_artifacts}
    return HierarchicalClassifier(tree, dataset.catalog, models, provenance)


def train_hierarchies(trees, dataset: LabeledDataset, cfg: HierTrainConfig) -> list[HierarchicalClassifier]:
    """``[train_hierarchical(t, dataset, cfg) for t in trees]``, bit for bit,
    but training no node twice: one scratch encoder per distinct concept set,
    and one stacked ``train_node_erm`` per concept set and child count (its
    child splits share the encoder, rows, zero start and batch order). Each
    tree's classifier is then composed from this node table.
    """
    shaped = []
    for tree in trees:
        tree = canonicalize(tree)
        validate_tree(tree, len(dataset.catalog))
        shaped.append(fuse_tree(tree) if cfg.rep_mode == "fuse" else tree)

    # concept set -> child count -> distinct child partitions (insertion-ordered)
    plan: dict[tuple[int, ...], dict[int, dict]] = {}
    for tree in shaped:
        for node in tree.internal_nodes():
            by_count = plan.setdefault(node_key(node), {})
            by_count.setdefault(len(node.children), {})[_child_keys(node)] = None
    nodes: dict = {}
    for key, by_count in plan.items():
        sub = dataset.restrict(key)
        encoder = _scratch_encoder(dataset, key, cfg)
        for n_children, partitions in by_count.items():
            child_idx = np.stack([child_index_labels(ck, sub.labels) for ck in partitions])
            w, b, _ = train_node_erm(
                encoder, sub.features, child_idx, n_children, cfg.erm, seed=task_seed(cfg.seed, 6, *key)
            )
            for ck, wp, bp in zip(partitions, w, b):
                nodes[key, ck] = NodeModel(key, encoder, wp, bp, ck)
    classifiers = []
    for tree in shaped:
        models = {node_key(n): nodes[node_key(n), _child_keys(n)] for n in tree.internal_nodes()}
        classifiers.append(_classifier(tree, dataset, cfg, models, from_artifacts=False))
    return classifiers


# ---------------------------------------------------------------------------
# global refinement


def _template(classifier: HierarchicalClassifier):
    """Mutable parameter pairs for all nodes, in sorted-key order:
    encoder layers first, then the scorer pair."""
    keys = sorted(classifier.models)
    params, acts, spans = [], {}, {}
    for key in keys:
        model = classifier.models[key]
        start = len(params)
        params.extend(mlp_params(model.encoder))
        params.append([model.scorer_weights.copy(), model.scorer_bias.copy()])
        acts[key] = [l.activation for l in model.encoder.layers]
        spans[key] = (start, len(params))
    return keys, params, acts, spans


def _with_params(classifier: HierarchicalClassifier, keys, params, spans) -> HierarchicalClassifier:
    models = {}
    for key in keys:
        start, end = spans[key]
        model = classifier.models[key]
        enc = params_to_mlp(params[start : end - 1], model.encoder)
        w, b = params[end - 1]
        models[key] = replace(model, encoder=enc, scorer_weights=w, scorer_bias=b)
    return replace(classifier, models=models)


def _orth_pairs(tree: Tree) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    pairs = []
    for node in tree.internal_nodes():
        for child in node.children:
            if not child.is_leaf:
                pairs.append((node_key(node), node_key(child)))
    return pairs


def _objective_on_params(classifier, dataset, lambda_orth, l2, keys, params, acts, spans):
    """Total refinement loss and gradients in template order.

    Loss = sum of per-node regularized hinge risks plus lambda_orth times
    the squared Frobenius norm of P_child @ P_parent^T over internal
    parent/child pairs, P being each encoder's final linear map.
    """
    grads = [[np.zeros_like(w), np.zeros_like(b)] for w, b in params]
    total = 0.0
    node_risks = {}
    for key in keys:
        start, end = spans[key]
        enc_params = params[start : end - 1]
        scorer_w, scorer_b = params[end - 1]
        sub = dataset.restrict(key)
        child_idx = child_index_labels(classifier.models[key].child_keys, sub.labels)
        outputs, preacts = forward_trace(enc_params, acts[key], sub.features)
        risk, dw, db, ds = erm_risk_and_grads(scorer_w, scorer_b, outputs[-1], child_idx, l2)
        node_risks[key] = risk
        total += risk
        grads[end - 1][0] += dw
        grads[end - 1][1] += db
        enc_grads = backprop(enc_params, acts[key], outputs, preacts, ds @ scorer_w)
        for g, (gw, gb) in zip(grads[start : end - 1], enc_grads):
            g[0] += gw
            g[1] += gb

    penalty = 0.0
    if lambda_orth != 0.0:
        for parent_key, child_key in _orth_pairs(classifier.tree):
            p_idx = spans[parent_key][1] - 2  # final encoder layer of parent
            c_idx = spans[child_key][1] - 2
            p_map = params[p_idx][0]
            c_map = params[c_idx][0]
            cross = c_map @ p_map.T
            penalty += float((cross**2).sum())
            grads[c_idx][0] += lambda_orth * 2.0 * cross @ p_map
            grads[p_idx][0] += lambda_orth * 2.0 * cross.T @ c_map
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
    """
    if lambda_orth < 0:
        raise ValueError("lambda_orth must be nonnegative")
    keys, params, acts, spans = _template(classifier)
    blocks = [tuple(keys)] if lambda_orth else [(key,) for key in keys]
    rates = [learning_rate] * len(blocks)

    def indices(block, scorers_only=False):  # template positions; a node's scorer pair is last
        return [i for key in block for i in range(*spans[key])[-1 if scorers_only else 0 :]]

    owned = [indices(block) for block in blocks]
    moved = [indices(block, scorers_only=freeze_encoders) for block in blocks]

    def loss(risks, penalty, block):  # summed as _objective_on_params sums its total
        total = 0.0
        for key in block:
            total += risks[key]
        return total + lambda_orth * penalty

    total, grads, risks0, penalty = _objective_on_params(
        classifier, dataset, lambda_orth, l2, keys, params, acts, spans
    )
    risks = dict(risks0)
    obj_history = [total]
    pen_history = [penalty]
    for _ in range(epochs):
        trial = list(params)
        for idx, rate in zip(moved, rates):
            for i in idx:
                (w, b), (gw, gb) = params[i], grads[i]
                trial[i] = [w - rate * gw, b - rate * gb]
        _, new_grads, new_risks, new_pen = _objective_on_params(
            classifier, dataset, lambda_orth, l2, keys, trial, acts, spans
        )
        kept = 0
        for n, block in enumerate(blocks):
            if loss(new_risks, new_pen, block) <= loss(risks, penalty, block):
                for i in owned[n]:
                    params[i], grads[i] = trial[i], new_grads[i]
                risks.update((key, new_risks[key]) for key in block)
                kept += 1
            else:
                rates[n] *= 0.5
        if kept == len(blocks):  # the penalty couples nodes: known for a state from one evaluation
            penalty = new_pen
        obj_history.append(loss(risks, penalty, keys))
        pen_history.append(penalty)

    refined = _with_params(classifier, keys, params, spans)
    return RefineResult(
        classifier=refined,
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

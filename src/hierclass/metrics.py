"""Hierarchy-aware and standard evaluation metrics.

The hierarchical loss charges one unit at each node whose prediction
disagrees with the truth while all of its ancestors agree; nothing below a
mistake is charged. Agreement between two hierarchies is chance-corrected
(Cohen's kappa) over per-pair "grouped below the root" ratings.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DataError
from .hmodel import child_index_labels, node_key, predict_batch, route_child
from .synth import LabeledDataset
from .treespace import Tree


@dataclass(frozen=True)
class NodeIndex:
    """Preorder indexing of the non-root nodes of a tree.

    ``ancestors[i]`` lists the (non-root) ancestors of node i, root side
    first; ``leaf_paths[c]`` is concept c's root-to-leaf path of node
    indices, its leaf's own index last.
    """

    count: int
    ancestors: tuple[tuple[int, ...], ...]
    leaf_paths: dict[int, tuple[int, ...]]


@lru_cache(maxsize=256)
def node_index(tree: Tree) -> NodeIndex:
    ancestors: list[tuple[int, ...]] = []
    leaf_paths: dict[int, tuple[int, ...]] = {}

    def walk(node: Tree, above: tuple[int, ...]) -> None:
        for child in node.children:
            idx = len(ancestors)
            ancestors.append(above)
            if child.is_leaf:
                leaf_paths[child.concept] = above + (idx,)
            else:
                walk(child, above + (idx,))

    walk(tree, ())
    return NodeIndex(count=len(ancestors), ancestors=tuple(ancestors), leaf_paths=leaf_paths)


def node_indicator(tree: Tree, concept: int) -> np.ndarray:
    """Binary vector over non-root nodes: 1 on the root-to-leaf path."""
    index = node_index(tree)
    if concept not in index.leaf_paths:
        raise DataError(f"concept {concept} is not a leaf of the tree")
    marks = np.zeros(index.count, dtype=bool)
    marks[list(index.leaf_paths[concept])] = True
    return marks


def charged_nodes(tree: Tree, predicted_leaf: int, true_leaf: int) -> list[int]:
    """Node indices whose indicators differ while all their ancestors agree."""
    index = node_index(tree)
    pred = node_indicator(tree, predicted_leaf)
    true = node_indicator(tree, true_leaf)
    return [
        i
        for i in range(index.count)
        if pred[i] != true[i] and all(pred[j] == true[j] for j in index.ancestors[i])
    ]


def h_loss(tree: Tree, predicted_leaf: int, true_leaf: int) -> int:
    """Number of nodes charged: nothing below a mistake is charged."""
    return len(charged_nodes(tree, predicted_leaf, true_leaf))


def h_loss_table(tree: Tree) -> np.ndarray:
    """K x K H-loss indexed [predicted, true]; H-loss depends only on that pair.

    ``h_loss`` for every pair at once: a node is charged where the two leaf
    indicator rows differ and no ancestor of the node differs.
    """
    index = node_index(tree)
    marks = np.array([node_indicator(tree, c) for c in range(len(tree.leaf_ids()))])
    above = np.zeros((index.count, index.count), dtype=bool)  # [node, ancestor]
    for i, ancestors in enumerate(index.ancestors):
        above[i, list(ancestors)] = True
    differ = marks[:, None, :] != marks[None, :, :]
    return (differ & ~(differ @ above.T)).sum(axis=-1)


def cohen_kappa(labels_a, labels_b) -> float:
    """Chance-corrected agreement between two equal-length label sequences.

    When both raters are constant and identical, expected agreement is 1 and
    the usual formula is 0/0; that case is defined as 1.0.
    """
    a = list(labels_a)
    b = list(labels_b)
    if len(a) != len(b) or not a:
        raise ValueError("need two equal-length nonempty sequences")
    n = len(a)
    p_o = sum(x == y for x, y in zip(a, b)) / n
    counts_a = Counter(a)
    counts_b = Counter(b)
    p_e = sum(counts_a[l] * counts_b.get(l, 0) for l in counts_a) / (n * n)
    if p_e >= 1.0:
        return 1.0
    return (p_o - p_e) / (1.0 - p_e)


def pair_groupings(tree: Tree) -> dict[tuple[int, int], int]:
    """For each unordered concept pair: 1 if grouped strictly below the root."""
    leaves = sorted(tree.leaf_ids())
    grouped = {}
    for i_pos, i in enumerate(leaves):
        for j in leaves[i_pos + 1 :]:
            grouped[(i, j)] = 0
    if not tree.is_leaf:
        for child in tree.children:
            inside = sorted(child.leaf_ids())
            for a_pos, a in enumerate(inside):
                for b in inside[a_pos + 1 :]:
                    grouped[(a, b)] = 1
    return grouped


def hierarchy_agreement(tree_a: Tree, tree_b: Tree) -> float:
    """Kappa over the two trees' per-pair grouped-below-root ratings."""
    if sorted(tree_a.leaf_ids()) != sorted(tree_b.leaf_ids()):
        raise DataError("trees are over different concept catalogs")
    ga = pair_groupings(tree_a)
    gb = pair_groupings(tree_b)
    pairs = sorted(ga)
    return cohen_kappa([ga[p] for p in pairs], [gb[p] for p in pairs])


# ---------------------------------------------------------------------------
# full report


@dataclass(frozen=True)
class EvalReport:
    accuracy: float
    mean_h_loss: float
    per_node: tuple[dict, ...]  # {"node": [...], "support": int, "accuracy": float}
    per_concept: tuple[dict, ...]  # {"concept", "precision", "recall", "f1", "support"}
    confusion: np.ndarray  # rows true, columns predicted
    concepts: tuple[str, ...]

    def __post_init__(self) -> None:
        conf = np.asarray(self.confusion, dtype=int)
        conf.setflags(write=False)
        object.__setattr__(self, "confusion", conf)


def evaluate(classifier, dataset: LabeledDataset) -> EvalReport:
    """All report fields from one prediction pass.

    Per-node accuracy counts an example at node t iff its true concept is a
    descendant of t, and scores it correct iff the node routes it into the
    child subtree containing that concept. A row that some node cannot
    score raises :func:`~hierclass.hmodel.predict_batch`'s UnscorableRowError
    before any node routes it.
    """
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    k = len(dataset.catalog)
    preds = predict_batch(classifier, dataset.features)
    truth = dataset.labels
    accuracy = float(np.mean(preds == truth))
    mean_hl = float(np.mean(h_loss_table(classifier.tree)[preds, truth]))
    confusion = np.bincount(truth * k + preds, minlength=k * k).reshape(k, k)

    per_concept = []
    for cid in range(k):
        tp = int(confusion[cid, cid])
        support = int(confusion[cid].sum())
        predicted = int(confusion[:, cid].sum())
        precision = tp / predicted if predicted else 0.0
        recall = tp / support if support else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_concept.append(
            {
                "concept": dataset.catalog.name_of(cid),
                "precision": precision,
                "recall": recall,
                "f1": f1,
                "support": support,
            }
        )

    per_node = []
    for node in classifier.tree.internal_nodes():
        key = node_key(node)
        model = classifier.models[key]
        member_mask = np.isin(truth, key)
        support = int(member_mask.sum())
        if support == 0:
            per_node.append({"node": list(key), "support": 0, "accuracy": 0.0})
            continue
        routed = route_child(model, dataset.features[member_mask])
        want = child_index_labels(model.child_keys, truth[member_mask])
        per_node.append(
            {
                "node": list(key),
                "support": support,
                "accuracy": float(np.mean(routed == want)),
            }
        )

    return EvalReport(
        accuracy=accuracy,
        mean_h_loss=mean_hl,
        per_node=tuple(per_node),
        per_concept=tuple(per_concept),
        confusion=confusion,
        concepts=tuple(dataset.catalog.names),
    )


def report_to_json(report: EvalReport) -> dict:
    return {
        "accuracy": report.accuracy,
        "mean_h_loss": report.mean_h_loss,
        "per_node": list(report.per_node),
        "per_concept": list(report.per_concept),
        "confusion": [[int(v) for v in row] for row in report.confusion],
        "concepts": list(report.concepts),
    }


def report_to_csv(report: EvalReport) -> str:
    lines = ["metric,value", f"accuracy,{report.accuracy!r}", f"mean_h_loss,{report.mean_h_loss!r}"]
    for row in report.per_concept:
        lines.append(
            f"f1[{row['concept']}],{row['f1']!r}"
        )
    return "\n".join(lines) + "\n"


def confusion_to_csv(report: EvalReport) -> str:
    lines = ["true\\pred," + ",".join(report.concepts)]
    for name, row in zip(report.concepts, report.confusion):
        lines.append(name + "," + ",".join(str(int(v)) for v in row))
    return "\n".join(lines) + "\n"

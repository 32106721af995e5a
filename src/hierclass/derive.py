"""Hierarchy derivation: agglomerative clustering over concept distances
followed by a threshold collapse into a multi-way hierarchy.

The closest pair of clusters merges first; of equally close pairs the
smaller id pair does. A cluster k's distance to the fusion of i and j is
min(d_ki, d_kj) under single linkage, max(d_ki, d_kj) under complete
linkage and the size-weighted mean (n_i d_ki + n_j d_kj) / (n_i + n_j)
under average linkage. Distances are held as exact fractions of the input
floats, so every preset is exact and tied distances stay tied; a merge
step records its distance rounded to a float. Merges at fusion distance
>= tau are dissolved, splicing their children upward: with tau = 0
everything dissolves into flat classification, with tau above the largest
fusion the binary dendrogram survives untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .affinity import AffinityMatrix, DistanceMatrix, symmetrize_to_distance
from .treespace import Catalog, Tree, internal, leaf

PRESETS = ("single", "complete", "average")


@dataclass(frozen=True)
class LinkageParams:
    """One preset linkage: how far a cluster is from the fusion of two others."""

    preset: str = "average"

    def __post_init__(self) -> None:
        if self.preset not in PRESETS:
            raise ValueError(f"unknown linkage preset {self.preset!r}")

    def fused_distance(self, d_ki: Fraction, d_kj: Fraction, n_i: int, n_j: int) -> Fraction:
        """Distance from cluster k to the fusion of i (n_i concepts) and j (n_j)."""
        if self.preset == "single":
            return min(d_ki, d_kj)
        if self.preset == "complete":
            return max(d_ki, d_kj)
        return (n_i * d_ki + n_j * d_kj) / (n_i + n_j)


@dataclass(frozen=True)
class MergeStep:
    left: int
    right: int
    distance: float
    new_id: int
    members: tuple[int, ...]


@dataclass(frozen=True)
class Dendrogram:
    n_leaves: int
    steps: tuple[MergeStep, ...]

    def __post_init__(self) -> None:
        if self.n_leaves < 2:
            raise ValueError(f"a dendrogram joins at least 2 concepts, got {self.n_leaves}")
        if len(self.steps) != self.n_leaves - 1:
            raise ValueError(f"expected {self.n_leaves - 1} merge steps, got {len(self.steps)}")
        for step in self.steps:
            if step.distance < 0:
                raise ValueError("fusion distances are nonnegative")
        if sorted(self.steps[-1].members) != list(range(self.n_leaves)):
            raise ValueError("final merge must cover every leaf exactly once")


def agglomerate(dm: DistanceMatrix, params: LinkageParams) -> Dendrogram:
    """Successive fusions of the closest pair, exact distances updated in place.

    Tie-breaking on equal minimal distance: the lexicographically smaller
    id pair wins. Deterministic.
    """
    k = len(dm.catalog)
    members: dict[int, tuple[int, ...]] = {i: (i,) for i in range(k)}
    sizes: dict[int, int] = {i: 1 for i in range(k)}
    dist: dict[tuple[int, int], Fraction] = {}
    for i in range(k):
        for j in range(i + 1, k):
            dist[(i, j)] = Fraction(float(dm.values[i, j]))

    steps = []
    active = list(range(k))  # ascending: every new id exceeds the ones before
    for step_no in range(k - 1):
        d_ij, i, j = min((dist[pair], *pair) for pair in combinations(active, 2))
        new_id = k + step_no
        merged = tuple(sorted(members[i] + members[j]))
        steps.append(MergeStep(left=i, right=j, distance=float(d_ij), new_id=new_id, members=merged))
        active = [c for c in active if c not in (i, j)]
        for c in active:
            dist[_ordered(c, new_id)] = params.fused_distance(
                dist[_ordered(c, i)], dist[_ordered(c, j)], sizes[i], sizes[j]
            )
        members[new_id] = merged
        sizes[new_id] = sizes[i] + sizes[j]
        active.append(new_id)
    return Dendrogram(n_leaves=k, steps=tuple(steps))


def _ordered(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


def check_tau(tau: float) -> None:
    """Reject a threshold that is not finite and >= 0: a ValueError naming it."""
    if not 0.0 <= tau < float("inf"):
        raise ValueError(f"tau must be finite and >= 0, got {tau}")


def collapse_threshold(dgm: Dendrogram, tau: float) -> Tree:
    """Dissolve every merge with fusion distance >= tau, splicing its
    children into the parent's child list; see :func:`check_tau`."""
    check_tau(tau)
    children_of = {s.new_id: (s.left, s.right) for s in dgm.steps}
    distance_of = {s.new_id: s.distance for s in dgm.steps}

    def build(cid: int) -> list[Tree]:
        if cid < dgm.n_leaves:
            return [leaf(cid)]
        left, right = children_of[cid]
        kids = build(left) + build(right)
        if distance_of[cid] >= tau:
            return kids
        return [internal(kids)]

    roots = build(dgm.steps[-1].new_id)
    return roots[0] if len(roots) == 1 else internal(roots)


@dataclass(frozen=True)
class DerivedHierarchy:
    tree: Tree
    dendrogram: Dendrogram


def derive_hierarchy(
    matrix: AffinityMatrix,
    params: LinkageParams,
    tau: float = 0.5,
) -> DerivedHierarchy:
    """Symmetrize the affinity matrix, agglomerate, collapse at tau."""
    dgm = agglomerate(symmetrize_to_distance(matrix), params)
    return DerivedHierarchy(tree=collapse_threshold(dgm, tau), dendrogram=dgm)


# ---------------------------------------------------------------------------
# wire formats


def dendrogram_to_json(dgm: Dendrogram, catalog: Catalog) -> dict:
    return {
        "concepts": list(catalog.names),
        "steps": [
            {
                "left": s.left,
                "right": s.right,
                "distance": s.distance,
                "id": s.new_id,
                "members": list(s.members),
            }
            for s in dgm.steps
        ],
    }


def dendrogram_to_dot(dgm: Dendrogram, catalog: Catalog) -> str:
    """GraphViz rendering: leaves labeled by concept, merges by distance."""
    lines = ["digraph dendrogram {", "  rankdir=BT;"]
    for cid, name in enumerate(catalog.names):
        lines.append(f'  n{cid} [label="{name}", shape=box];')
    for s in dgm.steps:
        lines.append(f'  n{s.new_id} [label="d={s.distance:.4g}"];')
        lines.append(f"  n{s.left} -> n{s.new_id};")
        lines.append(f"  n{s.right} -> n{s.new_id};")
    lines.append("}")
    return "\n".join(lines) + "\n"

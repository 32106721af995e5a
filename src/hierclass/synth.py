"""Datasets at desk scale: planted-hierarchy generation, CSV ingestion,
stream segmentation, and train/val/test splits.

Planted data realizes a ground-truth hierarchy geometrically: each tree
edge contributes a random offset vector whose magnitude shrinks with
depth, so siblings overlap more than cousins.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import DataError
from .serialize import atomic_open, read_bytes
from .treespace import Catalog, Tree, tree_from_json, tree_to_json, validate_tree


@dataclass(frozen=True)
class LabeledDataset:
    """Feature matrix with integer concept labels and their catalog."""

    features: np.ndarray  # (N, n) float
    labels: np.ndarray  # (N,) int
    catalog: Catalog
    provenance: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        feats = np.asarray(self.features, dtype=float)
        labels = np.asarray(self.labels, dtype=int)
        if feats.ndim != 2 or feats.shape[0] < 1:
            raise ValueError("features must be a nonempty (N, n) matrix")
        if labels.shape != (feats.shape[0],):
            raise ValueError("labels must align with feature rows")
        if not np.isfinite(feats).all():
            raise ValueError("non-finite feature values")
        if labels.min() < 0 or labels.max() >= len(self.catalog):
            raise ValueError("label outside the catalog")
        feats.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def support(self) -> dict[int, int]:
        """Example count per concept id (0 for absent concepts)."""
        counts = {cid: 0 for cid in self.catalog.ids}
        ids, n = np.unique(self.labels, return_counts=True)
        counts.update(dict(zip(ids.tolist(), n.tolist())))
        return counts

    def of_concept(self, concept_id: int) -> np.ndarray:
        return self.features[self.labels == concept_id]

    def take(self, indices: np.ndarray) -> "LabeledDataset":
        return LabeledDataset(self.features[indices], self.labels[indices], self.catalog, dict(self.provenance))

    def restrict(self, concept_ids: Sequence[int]) -> "LabeledDataset":
        """Rows whose label is in concept_ids; catalog unchanged."""
        mask = np.isin(self.labels, list(concept_ids))
        return self.take(np.flatnonzero(mask))


@dataclass(frozen=True)
class PlantedSpec:
    """Ground truth for synthetic data.

    ``level_offsets[d]`` is the centroid offset magnitude of edges leaving
    depth d; magnitudes must decrease with depth so that siblings sit closer
    together than cousins.
    """

    catalog: Catalog
    tree: Tree
    feature_dim: int
    per_concept: int
    level_offsets: tuple[float, ...]
    noise: float

    def __post_init__(self) -> None:
        validate_tree(self.tree, len(self.catalog))
        if self.feature_dim < 1 or self.per_concept < 1:
            raise ValueError("feature_dim and per_concept must be positive")
        if len(self.level_offsets) < self.tree.height():
            raise ValueError("need one offset magnitude per tree level")
        if not all(0.0 < o < math.inf for o in self.level_offsets):  # NaN fails too
            raise ValueError(f"offsets must be finite and strictly positive, got {list(self.level_offsets)}")
        if any(b >= a for a, b in zip(self.level_offsets, self.level_offsets[1:])):
            raise ValueError("offsets must decrease with depth")
        if not 0.0 <= self.noise < math.inf:
            raise ValueError(f"noise must be finite and nonnegative, got {self.noise}")


def generate_planted(spec: PlantedSpec, seed: int) -> LabeledDataset:
    """Sample the planted dataset; pure in (spec, seed).

    A concept's centroid is the sum of the per-level offset vectors along its
    root-to-leaf path; examples are the centroid plus isotropic noise.
    """
    rng = np.random.default_rng(seed)
    centroids: dict[int, np.ndarray] = {}

    def walk(node: Tree, origin: np.ndarray, depth: int) -> None:
        for child in node.children:
            direction = rng.normal(size=spec.feature_dim)
            direction /= np.linalg.norm(direction)
            point = origin + spec.level_offsets[depth] * direction
            if child.is_leaf:
                centroids[child.concept] = point
            else:
                walk(child, point, depth + 1)

    if spec.tree.is_leaf:
        centroids[spec.tree.concept] = np.zeros(spec.feature_dim)
    else:
        walk(spec.tree, np.zeros(spec.feature_dim), 0)

    blocks, labels = [], []
    for cid in sorted(centroids):
        noise = rng.normal(size=(spec.per_concept, spec.feature_dim))
        blocks.append(centroids[cid] + spec.noise * noise)
        labels.extend([cid] * spec.per_concept)
    return LabeledDataset(
        np.vstack(blocks),
        np.array(labels),
        spec.catalog,
        provenance={"kind": "planted", "seed": seed, "spec": planted_spec_to_json(spec)},
    )


def planted_spec_to_json(spec: PlantedSpec) -> dict:
    return {
        "names": list(spec.catalog.names),
        "tree": tree_to_json(spec.tree, spec.catalog),
        "feature_dim": spec.feature_dim,
        "per_concept": spec.per_concept,
        "level_offsets": list(spec.level_offsets),
        "noise": spec.noise,
    }


def _json_integer(obj: dict, key: str) -> int:
    """``obj[key]`` as an int: a JSON number without a fraction, not a bool."""
    value = obj[key]
    if isinstance(value, bool) or not (isinstance(value, int) or isinstance(value, float) and value.is_integer()):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _json_number(value, key: str) -> float:
    """``value``, read under ``key``, as a float: a JSON number, not a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{key} must be a number, got {value!r}")
    return float(value)


def planted_spec_from_json(obj: dict) -> PlantedSpec:
    try:
        catalog = Catalog(tuple(obj["names"]))
        return PlantedSpec(
            catalog=catalog,
            tree=tree_from_json(obj["tree"], catalog),
            feature_dim=_json_integer(obj, "feature_dim"),
            per_concept=_json_integer(obj, "per_concept"),
            level_offsets=tuple(_json_number(x, "level_offsets") for x in obj["level_offsets"]),
            noise=_json_number(obj["noise"], "noise"),
        )
    except KeyError as exc:
        raise DataError(f"planted spec missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise DataError(f"bad planted spec: {exc}") from None


# ---------------------------------------------------------------------------
# CSV ingestion / export


def read_csv(path: str | Path, label_column: str = "label"):
    """Parse a header-ed CSV of numeric feature columns and an optional label column.

    Returns (features (N, n), the label cells or None when the label column
    is absent, the feature names). Errors are DataError naming the file and
    the offending row (the header is row 1) and column.
    """
    path = Path(path)
    return _parse_csv(path, read_bytes(path), label_column)


def _parse_csv(path: Path, data: bytes, label_column: str):
    """``read_csv`` on the file's bytes: numpy's C reader where it agrees
    with ``csv.reader`` and ``float``, the row loop everywhere else."""
    header, label_idx, features, labels = _parse_block(data, label_column) or _parse_rows(
        path, data, label_column
    )
    names = [name for i, name in enumerate(header) if i != label_idx]
    bad = ~np.isfinite(features)
    if bad.any():
        row, col = np.argwhere(bad)[0]
        raise DataError(
            f"{path}:{row + 2}: column {names[col]!r}: not a finite number: {float(features[row, col])!r}"
        )
    return features, labels, names


def _parse_block(data: bytes, label_column: str):
    """(header, label index, features, labels) from one ``np.loadtxt`` call,
    or None wherever its rows could differ from the row loop's.

    The loop then parses the file or names the offending cell. Routed there
    up front: quotes, lone ``\\r`` line ends and NUL bytes (``csv.reader``
    reads these differently; NUL only before Python 3.11), lines as long as
    the CSV field size limit, and an empty header or first data row
    (``loadtxt`` skips blank lines and warns on a body without data).
    Afterwards: any ``loadtxt`` error, such as a cell ``float`` takes but
    ``loadtxt`` does not (``1_0``, non-ASCII digits) or a row whose cell
    count is not the header's, and a table without one row per data line.
    """
    head_end = data.find(b"\n")
    if (
        head_end <= 0
        or data[head_end + 1 : head_end + 2] in (b"", b"\n", b"\r")
        or b'"' in data
        or b"\0" in data
        or (b"\r" in data and re.search(rb"\r(?!\n)", data))  # one search: a third of two counts' time
    ):
        return None
    line_lengths = np.fromiter(map(len, io.BytesIO(data)), dtype=np.int64)
    if line_lengths.max() > csv.field_size_limit():
        return None
    try:
        header = data[:head_end].decode("utf-8").removesuffix("\r").split(",")
    except UnicodeDecodeError:
        return None
    label_idx = header.index(label_column) if label_column in header else None
    # one field per cell: floats, and the label cells as str (an object field never truncates)
    dtype = np.dtype([(f"c{i}", object if i == label_idx else float) for i in range(len(header))])
    try:
        table = np.loadtxt(
            io.BytesIO(data), dtype=dtype, delimiter=",", comments=None, skiprows=1,
            encoding="utf-8", ndmin=1,
        )
    except ValueError:
        return None
    if len(table) != len(line_lengths) - 1:  # loadtxt skips blank lines
        return None
    columns = [name for i, name in enumerate(dtype.names) if i != label_idx]
    features = np.empty((len(table), len(columns)))
    for j, name in enumerate(columns):
        features[:, j] = table[name]
    labels = None if label_idx is None else [cell.strip() for cell in table[f"c{label_idx}"].tolist()]
    return header, label_idx, features, labels


def _parse_rows(path: Path, data: bytes, label_column: str):
    """The row loop behind ``_parse_block``: ``csv.reader`` and ``float``,
    raising the DataError that names the first bad row and column."""
    header = None
    rows, labels = [], []
    try:
        reader = csv.reader(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=""))
        header = next(reader, None)
        if header is None:
            raise DataError(f"{path}: empty file")
        label_idx = header.index(label_column) if label_column in header else None
        columns = [i for i in range(len(header)) if i != label_idx]
        for row_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise DataError(f"{path}:{row_no}: expected {len(header)} cells, got {len(row)}")
            try:
                rows.append([float(row[i]) for i in columns])
            except ValueError:
                for i in columns:
                    try:
                        float(row[i])
                    except ValueError:
                        raise DataError(
                            f"{path}:{row_no}: column {header[i]!r}: not a number: {row[i]!r}"
                        ) from None
            if label_idx is not None:
                labels.append(row[label_idx].strip())
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:
        # every row before the bad one was kept or raised
        raise DataError(f"{path}:{1 if header is None else len(rows) + 2}: {exc}") from None
    if not rows:
        raise DataError(f"{path}: no data rows")
    return header, label_idx, np.array(rows, dtype=float), (labels if label_idx is not None else None)


def load_csv(
    path: str | Path,
    label_column: str = "label",
    catalog: Catalog | None = None,
) -> LabeledDataset:
    """Read a header-ed CSV with numeric feature columns and one label column.

    When no catalog is given, one is built from the sorted distinct labels.
    Errors name the offending row and column.
    """
    path = Path(path)
    data = read_bytes(path)
    features, labels, feature_names = _parse_csv(path, data, label_column)
    if labels is None:
        raise DataError(f"{path}: missing label column {label_column!r}")
    if catalog is None:
        try:
            catalog = Catalog(tuple(sorted(set(labels))))
        except ValueError:  # an empty or reserved name: name the first row that has one
            for row, name in enumerate(labels, start=2):
                try:
                    Catalog((name,))
                except ValueError as exc:
                    raise DataError(f"{path}:{row}: column {label_column!r}: {exc}") from None
            raise
    ids = {name: cid for cid, name in enumerate(catalog.names)}
    try:
        label_ids = np.array([ids[name] for name in labels])
    except KeyError:
        unknown = sorted(set(labels) - set(catalog.names))
        raise DataError(f"{path}: unknown labels {unknown}") from None
    return LabeledDataset(
        features,
        label_ids,
        catalog,
        provenance={
            "kind": "csv",
            "path": str(path),
            "sha256": hashlib.sha256(data).hexdigest(),
            "feature_names": feature_names,
        },
    )


def save_csv(dataset: LabeledDataset, path: str | Path, label_column: str = "label") -> None:
    """Write the rows to ``path``, streamed into a temp file that replaces
    ``path`` only once every row is written."""
    names = dataset.catalog.names  # none needs quoting, so each row is what csv.writer would write
    with atomic_open(path, newline="") as fh:
        csv.writer(fh).writerow([f"f{i}" for i in range(dataset.n_features)] + [label_column])
        fh.writelines(",".join(map(repr, row.tolist())) + "," + names[label] + "\r\n"
                      for row, label in zip(dataset.features, dataset.labels))


# ---------------------------------------------------------------------------
# stream segmentation


@dataclass(frozen=True)
class Segmented:
    dataset: LabeledDataset | None  # None when every window was dropped
    dropped: int
    positions: int


def check_purity(purity: float) -> None:
    """Reject a purity fraction outside [0, 1]: a ValueError naming it."""
    if not 0.0 <= purity <= 1.0:  # NaN fails too
        raise ValueError(f"purity must lie between 0 and 1, got {purity}")


def segment_stream(
    stream: np.ndarray,
    sample_labels: np.ndarray,
    catalog: Catalog,
    window: int,
    stride: int,
    representation: str = "stats",
    purity: float = 0.5,
) -> Segmented:
    """Cut a labeled (T, channels) stream into fixed windows.

    Each window becomes one example: either per-channel mean/var/min/max
    summaries (``stats``) or the raw flattened window (``flat``). The window
    label is the majority per-sample label; windows without a unique
    majority reaching the purity fraction (in [0, 1]) are dropped and counted.
    """
    check_purity(purity)
    stream = np.asarray(stream, dtype=float)
    sample_labels = np.asarray(sample_labels, dtype=int)
    if stream.ndim != 2:
        raise ValueError("stream must be (T, channels)")
    t = stream.shape[0]
    if window < 1 or stride < 1:
        raise ValueError("window and stride must be positive")
    if window > t:
        raise ValueError(f"window {window} exceeds stream length {t}")
    if sample_labels.shape != (t,):
        raise ValueError("need one label per sample")
    if representation not in ("stats", "flat"):
        raise ValueError(f"unknown representation {representation!r}")

    rows, labels = [], []
    dropped = 0
    positions = 0
    for start in range(0, t - window + 1, stride):
        positions += 1
        chunk = stream[start : start + window]
        chunk_labels = sample_labels[start : start + window]
        ids, counts = np.unique(chunk_labels, return_counts=True)
        top = counts.argmax()
        is_unique_majority = (counts == counts[top]).sum() == 1
        if not (is_unique_majority and counts[top] / window >= purity):
            dropped += 1
            continue
        if representation == "stats":
            feats = np.concatenate(
                [chunk.mean(axis=0), chunk.var(axis=0), chunk.min(axis=0), chunk.max(axis=0)]
            )
        else:
            feats = chunk.ravel()
        rows.append(feats)
        labels.append(int(ids[top]))

    if not rows:
        return Segmented(dataset=None, dropped=dropped, positions=positions)
    dataset = LabeledDataset(
        np.array(rows),
        np.array(labels),
        catalog,
        provenance={
            "kind": "segmented",
            "window": window,
            "stride": stride,
            "representation": representation,
            "purity": purity,
            "dropped": dropped,
        },
    )
    return Segmented(dataset=dataset, dropped=dropped, positions=positions)


# ---------------------------------------------------------------------------
# splitting


def _allocate(n: int, fractions: Sequence[float]) -> list[int]:
    """Largest-remainder apportionment of n rows to the fractions."""
    quotas = [f * n for f in fractions]
    base = [math.floor(q) for q in quotas]
    left = n - sum(base)
    order = sorted(range(len(fractions)), key=lambda i: quotas[i] - base[i], reverse=True)
    for i in order[:left]:
        base[i] += 1
    return base


def split(
    dataset: LabeledDataset,
    fractions: Sequence[float],
    seed: int,
    stratified: bool = False,
) -> tuple[LabeledDataset, ...]:
    """Disjoint cover of the rows in the given proportions.

    Stratified mode splits each concept's rows separately, preserving
    per-concept proportions within one example. A part that would get no
    rows at all is a DataError naming the part and its fraction.
    """
    fractions = tuple(float(f) for f in fractions)
    if not all(0 < f < math.inf for f in fractions):  # NaN fails too
        raise ValueError(f"fractions must be positive and finite, got {list(fractions)}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError("fractions must sum to 1")
    rng = np.random.default_rng(seed)
    parts: list[list[int]] = [[] for _ in fractions]
    if stratified:
        for cid, count in sorted(dataset.support().items()):
            if count == 0:
                continue
            if count < len(fractions):
                raise DataError(
                    f"concept {dataset.catalog.name_of(cid)!r} has {count} examples, "
                    f"fewer than {len(fractions)} splits"
                )
            idx = rng.permutation(np.flatnonzero(dataset.labels == cid))
            sizes = _allocate(count, fractions)
            pos = 0
            for part, size in zip(parts, sizes):
                part.extend(idx[pos : pos + size].tolist())
                pos += size
    else:
        idx = rng.permutation(len(dataset))
        sizes = _allocate(len(dataset), fractions)
        pos = 0
        for part, size in zip(parts, sizes):
            part.extend(idx[pos : pos + size].tolist())
            pos += size
    for i, (part, fraction) in enumerate(zip(parts, fractions)):
        if not part:
            raise DataError(f"split part {i} (fraction {fraction:g}) gets none of the {len(dataset)} rows")
    return tuple(dataset.take(np.array(sorted(p), dtype=int)) for p in parts)

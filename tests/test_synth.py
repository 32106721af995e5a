import csv
import os
import re
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import reference_save_csv
from hierclass import synth
from hierclass.errors import DataError
from hierclass.synth import (
    LabeledDataset,
    PlantedSpec,
    generate_planted,
    load_csv,
    planted_spec_from_json,
    planted_spec_to_json,
    read_csv,
    save_csv,
    segment_stream,
    split,
)
from hierclass.treespace import Catalog


@pytest.fixture
def small_spec(pair_catalog, pair_tree):
    return PlantedSpec(
        catalog=pair_catalog,
        tree=pair_tree,
        feature_dim=6,
        per_concept=50,
        level_offsets=(4.0, 1.0),
        noise=0.5,
    )


def test_generate_counts_and_determinism(small_spec):
    data = generate_planted(small_spec, seed=11)
    assert len(data) == 200
    assert data.support() == {0: 50, 1: 50, 2: 50, 3: 50}
    again = generate_planted(small_spec, seed=11)
    assert np.array_equal(data.features, again.features)
    assert np.array_equal(data.labels, again.labels)
    other = generate_planted(small_spec, seed=12)
    assert not np.array_equal(data.features, other.features)


def test_sibling_centroids_closer_than_cousins(pair_catalog, pair_tree):
    # offset schedule with ratio >= 2: holds across 20 seeds
    spec = PlantedSpec(
        catalog=pair_catalog,
        tree=pair_tree,
        feature_dim=8,
        per_concept=30,
        level_offsets=(4.0, 2.0),
        noise=0.1,
    )
    for seed in range(20):
        data = generate_planted(spec, seed=seed)
        cent = {c: data.of_concept(c).mean(axis=0) for c in range(4)}
        sib = max(
            np.linalg.norm(cent[0] - cent[1]), np.linalg.norm(cent[2] - cent[3])
        )
        cousins = min(
            np.linalg.norm(cent[i] - cent[j]) for i in (0, 1) for j in (2, 3)
        )
        assert sib < cousins


def test_spec_validation(pair_catalog, pair_tree):
    with pytest.raises(ValueError, match="decrease"):
        PlantedSpec(pair_catalog, pair_tree, 6, 10, (1.0, 2.0), 0.5)
    with pytest.raises(ValueError, match="positive"):
        PlantedSpec(pair_catalog, pair_tree, 6, 10, (2.0, 0.0), 0.5)
    with pytest.raises(ValueError, match="level"):
        PlantedSpec(pair_catalog, pair_tree, 6, 10, (2.0,), 0.5)


@pytest.mark.parametrize("offsets, noise, message", [
    ((2.0, 1.0), float("nan"), "noise must be finite and nonnegative, got nan"),
    ((2.0, 1.0), float("inf"), "noise must be finite and nonnegative, got inf"),
    ((2.0, float("nan")), 0.5, r"offsets must be finite and strictly positive, got \[2.0, nan\]"),
    ((float("inf"), 1.0), 0.5, r"offsets must be finite and strictly positive, got \[inf, 1.0\]"),
], ids=["noise-nan", "noise-inf", "offset-nan", "offset-inf"])
def test_spec_rejects_non_finite_values(pair_catalog, pair_tree, offsets, noise, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        PlantedSpec(pair_catalog, pair_tree, 6, 10, offsets, noise)


@pytest.mark.parametrize("key, value", [
    ("per_concept", 40.7), ("per_concept", "40"), ("feature_dim", True), ("feature_dim", float("nan")),
])
def test_spec_json_counts_must_be_integers(small_spec, key, value):
    obj = planted_spec_to_json(small_spec)
    with pytest.raises(DataError, match=f"^bad planted spec: {key} must be an integer, got {re.escape(repr(value))}$"):
        planted_spec_from_json({**obj, key: value})
    assert planted_spec_from_json({**obj, key: 50.0}) == planted_spec_from_json({**obj, key: 50})


@pytest.mark.parametrize("key, value, bad", [
    ("noise", True, True), ("noise", "0.5", "0.5"), ("noise", None, None),
    ("level_offsets", ["4", "1"], "4"), ("level_offsets", [4.0, True], True),
], ids=["noise-bool", "noise-string", "noise-null", "offsets-strings", "offset-bool"])
def test_spec_json_values_must_be_numbers(small_spec, key, value, bad):
    obj = planted_spec_to_json(small_spec)
    with pytest.raises(DataError, match=f"^bad planted spec: {key} must be a number, got {re.escape(repr(bad))}$"):
        planted_spec_from_json({**obj, key: value})
    # an integral number reads as its float
    assert planted_spec_from_json({**obj, "noise": 1, "level_offsets": [4, 1]}) == replace(small_spec, noise=1.0)


def test_spec_json_roundtrip(small_spec):
    obj = planted_spec_to_json(small_spec)
    assert planted_spec_from_json(obj) == small_spec
    with pytest.raises(DataError):
        planted_spec_from_json({"names": ["a", "b"]})


def test_dataset_invariants(pair_catalog):
    with pytest.raises(ValueError):
        LabeledDataset(np.zeros((2, 3)), np.array([0, 9]), pair_catalog)
    with pytest.raises(ValueError):
        LabeledDataset(np.array([[np.inf, 0.0]]), np.array([0]), pair_catalog)
    with pytest.raises(ValueError):
        LabeledDataset(np.zeros((0, 3)), np.array([]), pair_catalog)


# --- CSV -------------------------------------------------------------------


def test_csv_roundtrip(tmp_path, small_spec):
    data = generate_planted(small_spec, seed=5)
    path = tmp_path / "data.csv"
    save_csv(data, path)
    back = load_csv(path)
    assert back.catalog == data.catalog
    assert np.array_equal(back.labels, data.labels)
    assert np.array_equal(back.features, data.features)  # repr round-trips floats


NAMES = ("walk", "sit down", "caf\u00e9", "a;b|c")


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda dim: st.lists(
            st.tuples(
                st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=dim, max_size=dim),
                st.integers(0, len(NAMES) - 1),
            ),
            min_size=1,
            max_size=12,
        )
    )
)
def test_csv_roundtrip_property(rows):
    data = LabeledDataset(
        np.array([r for r, _ in rows], dtype=float), np.array([c for _, c in rows]), Catalog(NAMES)
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        save_csv(data, path)
        back = load_csv(path)
    # bit-equal, so -0.0 and subnormals survive too
    assert back.features.tobytes() == data.features.tobytes()
    assert [back.catalog.name_of(c) for c in back.labels] == [NAMES[c] for c in data.labels]


CATALOG_NAMES = st.one_of(
    st.sampled_from(["walk\tfast", "a;b", "sit down", "caf\u00e9", "\u6b69\u304f"]),
    st.text(st.characters(blacklist_characters="(),[]\"'\r\n", blacklist_categories=("Cs",)), min_size=1)
    .filter(lambda name: name == name.strip()),
)
CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, 1e16, 1e-05, 1.7976931348623157e308]),
)


@settings(max_examples=80, deadline=None)
@given(st.lists(CATALOG_NAMES, min_size=1, max_size=4, unique=True), st.integers(1, 4), st.data())
def test_save_csv_writes_what_csv_writer_writes(names, dim, data):
    rows = data.draw(st.lists(st.lists(CELLS, min_size=dim, max_size=dim), min_size=1, max_size=8))
    labels = data.draw(st.lists(st.integers(0, len(names) - 1), min_size=len(rows), max_size=len(rows)))
    dataset = LabeledDataset(np.array(rows), np.array(labels), Catalog(tuple(names)))
    with tempfile.TemporaryDirectory() as tmp:
        save_csv(dataset, Path(tmp) / "saved.csv")
        reference_save_csv(dataset, Path(tmp) / "reference.csv")
        assert (Path(tmp) / "saved.csv").read_bytes() == (Path(tmp) / "reference.csv").read_bytes()


def test_interrupted_save_csv_leaves_the_old_file(tmp_path, small_spec, monkeypatch):
    path = tmp_path / "data.csv"
    save_csv(generate_planted(small_spec, seed=5), path)
    before = path.read_bytes()
    other = generate_planted(small_spec, seed=6)
    cells = iter(range(100 * small_spec.feature_dim))  # 100 rows convert, the 101st row's first cell interrupts

    def interrupting_repr(value):
        if next(cells, None) is None:
            raise KeyboardInterrupt
        return repr(value)

    monkeypatch.setattr(synth, "repr", interrupting_repr, raising=False)
    with pytest.raises(KeyboardInterrupt):
        save_csv(other, path)
    assert path.read_bytes() == before
    assert [f.name for f in tmp_path.iterdir()] == ["data.csv"]  # no temp file left


@pytest.mark.skipif(os.name != "posix", reason="POSIX file modes")
def test_saved_csv_gets_the_umask_mode(tmp_path, small_spec):
    old = os.umask(0o027)
    try:
        save_csv(generate_planted(small_spec, seed=5), tmp_path / "data.csv")
    finally:
        os.umask(old)
    assert (tmp_path / "data.csv").stat().st_mode & 0o777 == 0o640


def test_read_csv_without_label_column(tmp_path):
    path = tmp_path / "bare.csv"
    path.write_text("f0,f1\n1.0,2.0\n3.0,-4.5\n", encoding="utf-8")
    features, labels, names = read_csv(path)
    assert labels is None and names == ["f0", "f1"]
    assert np.array_equal(features, [[1.0, 2.0], [3.0, -4.5]])


def test_csv_not_utf8_names_the_file(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes("f0,label\n1.0,caf\u00e9\n".encode("latin-1"))
    with pytest.raises(DataError, match=r"latin1.csv: not UTF-8"):
        load_csv(path)


def test_csv_error_coordinates(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("f0,f1,label\n1.0,2.0,walk\n1.0,oops,run\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"bad.csv:3.*'f1'"):
        load_csv(path)


def test_csv_missing_label_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("f0,f1\n1.0,2.0\n", encoding="utf-8")
    with pytest.raises(DataError, match="label"):
        load_csv(path)


def test_csv_unknown_label_against_catalog(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("f0,label\n1.0,walk\n2.0,fly\n", encoding="utf-8")
    with pytest.raises(DataError, match="fly"):
        load_csv(path, catalog=Catalog(("walk", "run")))


def test_csv_row_count_and_support(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("f0,label\n1.0,a\n2.0,b\n3.0,a\n", encoding="utf-8")
    data = load_csv(path)
    assert len(data) == 3
    assert data.support() == {0: 2, 1: 1}


def reference_read_csv(path, label_column="label"):
    """The row loop alone (``csv.reader`` and ``float`` on every cell): the
    oracle that ``read_csv``'s numpy fast path must agree with."""
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise DataError(f"{path}: empty file")
            label_idx = header.index(label_column) if label_column in header else None
            columns = [i for i in range(len(header)) if i != label_idx]
            rows, labels = [], []
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
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if not rows:
        raise DataError(f"{path}: no data rows")
    names = [header[i] for i in columns]
    features = np.array(rows, dtype=float)
    bad = ~np.isfinite(features)
    if bad.any():
        row, col = np.argwhere(bad)[0]
        raise DataError(
            f"{path}:{row + 2}: column {names[col]!r}: not a finite number: {float(features[row, col])!r}"
        )
    return features, (labels if label_idx is not None else None), names


# text ``float`` reads, some of which numpy's reader does not (``1_0``,
# non-ASCII digits), and text neither reads
ODD_NUMBERS = (
    "-0.0", "0.0", "5e-324", "2.5e-310", "1e-400", "1e500", "-1e500", "nan", "-NaN", "+nan",
    "inf", "-inf", "+Infinity", "infinity", "iNfInItY", "1_0", "1__0", "_1", "١٢",
    "٣.5", "1e", "0x10", ".5", "5.", "+.5e-3", "--1", "1 2", "", "#", "#1", "1#2", "walk", "1\x00",
)
PADDING = st.sampled_from(["", "", "", " ", "  ", "\t", "\xa0", "\u2000", "\x0b", "\x0c", "\x85"])
LABELS = st.sampled_from(["walk", "run", "sit down", "caf\u00e9", "", "#", "\u0661", "1.5", "a\x00b"])


def _padded(cells):
    return st.tuples(PADDING, cells, PADDING).map("".join)


def _quoted(cells):
    return cells.map(lambda c: f'"{c}"')


@st.composite
def csv_texts(draw):
    """Whole CSV files. Each oddity is switched on per file, so that most
    files hold at most a few: odd number cells, quotes, blank lines (the
    header line included), ragged rows, and the mix of line ends."""
    numbers = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    labels = LABELS
    if draw(st.booleans()):
        numbers = st.one_of(numbers, st.sampled_from(ODD_NUMBERS))
    if draw(st.booleans()):
        numbers = st.one_of(numbers, _quoted(numbers))
        labels = st.one_of(labels, _quoted(labels), st.just('"a,b"'))
    blank_lines = draw(st.booleans())
    # extra cells: none, per row, or the same for every row
    ragged = draw(st.sampled_from(["none", "rows", "all"]))
    offset = draw(st.sampled_from([-1, 1]))
    line_end_mixes = [["\n"], ["\r\n"], ["\n", "\r\n"], ["\n", "\r\n", "\r"]]
    line_ends = st.sampled_from(draw(st.sampled_from(line_end_mixes)))

    n_features = draw(st.integers(1, 3))
    label_at = draw(st.one_of(st.none(), st.integers(0, n_features)))
    header = [f"f{i}" for i in range(n_features)]
    if label_at is not None:
        header.insert(label_at, "label")
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 6))):
        if blank_lines and draw(st.integers(0, 3)) == 0:
            lines.append("")
            continue
        width = len(header)
        if ragged == "all" or (ragged == "rows" and draw(st.booleans())):
            width = max(width + offset, 0)
        lines.append(",".join(draw(_padded(labels if i == label_at else numbers)) for i in range(width)))
    if blank_lines and draw(st.integers(0, 3)) == 0:
        lines.insert(0, "")
    text = "".join(line + draw(line_ends) for line in lines)
    return text if draw(st.booleans()) else text.rstrip("\r\n")


def _outcome(read, path):
    try:
        features, labels, names = read(path)
    except DataError as exc:
        return ("error", str(exc))
    return (features.dtype, features.shape, features.tobytes(), labels, names)


@settings(max_examples=400, deadline=None)
@given(csv_texts())
@example("\n1\n")  # an empty header line
@example('f0,label\n1.0,"walk"\n')  # a quoted label
@example("f0\r1\n2\n")  # a lone CR inside the header line
def test_read_csv_agrees_with_the_row_loop(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        try:
            expected = _outcome(reference_read_csv, path)
        except csv.Error as exc:
            # the row loop alone lets this escape; read_csv names the row
            with pytest.raises(DataError) as raised:
                read_csv(path)
            assert str(raised.value).startswith(f"{path}:") and str(raised.value).endswith(f": {exc}")
            return
        assert _outcome(read_csv, path) == expected


def test_a_lone_cr_far_into_the_file_takes_the_row_loop(tmp_path):
    # csv.reader ends the header at the \r; loadtxt would not, so the guard
    # must see a \r wherever it sits, here past a 120-byte header name
    path = tmp_path / "data.csv"
    path.write_bytes(b"f" + b"0" * 120 + b"\r1\n2\n")
    assert synth._parse_block(path.read_bytes(), "label") is None
    assert _outcome(read_csv, path) == _outcome(reference_read_csv, path)


@pytest.mark.parametrize("line_end", ["\n", "\r\n"])
@pytest.mark.parametrize("with_label", [True, False])
def test_saved_csv_takes_the_numpy_path(tmp_path, small_spec, line_end, with_label):
    path = tmp_path / "data.csv"
    save_csv(generate_planted(small_spec, seed=2), path)
    lines = path.read_text(encoding="utf-8").splitlines()
    if not with_label:
        lines = [line.rsplit(",", 1)[0] for line in lines]
    data = line_end.join(lines).encode("utf-8") + line_end.encode()
    header, _, features, labels = synth._parse_block(data, "label")
    path.write_bytes(data)
    expected = reference_read_csv(path)
    assert features.tobytes() == expected[0].tobytes()
    assert labels == expected[1]
    assert header == expected[2] + (["label"] if with_label else [])


# --- segmentation ----------------------------------------------------------


def _stream(labels):
    t = len(labels)
    stream = np.arange(t * 2, dtype=float).reshape(t, 2)
    return stream, np.array(labels)


def test_segment_uniform_label():
    cat = Catalog(("a", "b"))
    stream, labels = _stream([0] * 10)
    seg = segment_stream(stream, labels, cat, window=5, stride=5)
    assert seg.positions == 2 and seg.dropped == 0
    assert len(seg.dataset) == 2
    assert set(seg.dataset.labels.tolist()) == {0}
    assert seg.dataset.n_features == 8  # mean/var/min/max per channel


def test_segment_majority_and_purity():
    cat = Catalog(("a", "b"))
    stream, labels = _stream([0] * 6 + [1] * 4)
    seg = segment_stream(stream, labels, cat, window=10, stride=10)
    assert len(seg.dataset) == 1 and seg.dataset.labels[0] == 0  # 60/40 majority
    strict = segment_stream(stream, labels, cat, window=10, stride=10, purity=0.9)
    assert strict.dataset is None and strict.dropped == 1


@pytest.mark.parametrize("purity", [float("nan"), -1.0, 1.5, 2.0])
def test_segment_rejects_a_purity_outside_0_and_1(purity):
    stream, labels = _stream([0] * 10)
    with pytest.raises(ValueError, match=f"^purity must lie between 0 and 1, got {purity}$"):
        segment_stream(stream, labels, Catalog(("a",)), window=5, stride=5, purity=purity)
    for edge in (0.0, 1.0):  # every uniform window reaches either
        assert len(segment_stream(stream, labels, Catalog(("a",)), window=5, stride=5, purity=edge).dataset) == 2


def test_segment_tie_is_dropped():
    cat = Catalog(("a", "b"))
    stream, labels = _stream([0] * 5 + [1] * 5)
    seg = segment_stream(stream, labels, cat, window=10, stride=10)
    assert seg.dropped == 1


def test_segment_flat_representation_and_bookkeeping():
    cat = Catalog(("a", "b"))
    stream, labels = _stream([0, 0, 0, 1, 1, 1, 1, 0, 0, 0])
    seg = segment_stream(stream, labels, cat, window=4, stride=2, representation="flat")
    assert seg.positions == 4
    assert seg.dropped + len(seg.dataset) == seg.positions
    assert seg.dataset.n_features == 8  # window * channels


def test_segment_window_too_large():
    cat = Catalog(("a",))
    stream, labels = _stream([0] * 4)
    with pytest.raises(ValueError, match="exceeds"):
        segment_stream(stream, labels, cat, window=5, stride=1)


# --- splits ------------------------------------------------------------------


def test_split_sizes(small_spec):
    data = generate_planted(small_spec, seed=1)
    train, val, test = split(data, (0.8, 0.1, 0.1), seed=0)
    assert (len(train), len(val), len(test)) == (160, 20, 20)


def test_stratified_split_per_concept(pair_catalog, pair_tree):
    spec = PlantedSpec(pair_catalog, pair_tree, 4, 10, (2.0, 1.0), 0.3)
    data = generate_planted(spec, seed=2)
    train, val, test = split(data, (0.8, 0.1, 0.1), seed=0, stratified=True)
    for cid in range(4):
        assert (train.support()[cid], val.support()[cid], test.support()[cid]) == (8, 1, 1)


def test_stratified_split_rejects_tiny_concepts(pair_catalog, pair_tree):
    spec = PlantedSpec(pair_catalog, pair_tree, 4, 2, (2.0, 1.0), 0.3)
    data = generate_planted(spec, seed=2)
    with pytest.raises(DataError, match="fewer"):
        split(data, (0.5, 0.25, 0.25), seed=0, stratified=True)


@pytest.mark.parametrize("stratified", [False, True])
def test_split_part_without_rows_is_a_data_error_naming_it(pair_catalog, pair_tree, stratified):
    data = generate_planted(PlantedSpec(pair_catalog, pair_tree, 4, 40, (2.0, 1.0), 0.3), seed=2)
    with pytest.raises(DataError, match=r"^split part 0 \(fraction 0.001\) gets none of the 160 rows$"):
        split(data, (0.001, 0.999), seed=0, stratified=stratified)
    with pytest.raises(DataError, match=r"^split part 1 \(fraction 0.001\) gets none of the 160 rows$"):
        split(data, (0.999, 0.001), seed=0, stratified=stratified)


@settings(max_examples=30, deadline=None)
@given(st.integers(10, 60), st.integers(0, 10**6), st.booleans())
def test_split_partitions_exactly(n, seed, stratified):
    cat = Catalog(("a", "b"))
    rng = np.random.default_rng(seed)
    data = LabeledDataset(rng.normal(size=(n, 3)), rng.integers(0, 2, size=n), cat)
    if stratified and min(data.support().values()) < 2:
        return
    parts = split(data, (0.5, 0.5), seed=seed, stratified=stratified)
    rows = [tuple(r) for p in parts for r in p.features]
    assert len(rows) == n
    assert sorted(rows) == sorted(tuple(r) for r in data.features)


def test_split_validation(small_spec):
    data = generate_planted(small_spec, seed=1)
    with pytest.raises(ValueError):
        split(data, (0.5, 0.4), seed=0)
    with pytest.raises(ValueError):
        split(data, (1.2, -0.2), seed=0)
    for fractions in [(float("nan"), 0.5), (0.5, float("nan")), (float("inf"), -float("inf"))]:
        with pytest.raises(ValueError, match="fractions must be positive and finite"):
            split(data, fractions, seed=0)

import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import _plain_hierarchy, tied_affinity_json
from hierclass.cli import main
from hierclass.serialize import array_from_json, array_to_json
from hierclass.synth import LabeledDataset, PlantedSpec, generate_planted, planted_spec_to_json, save_csv
from hierclass.treespace import Catalog, internal, leaf

FIXTURES = Path(__file__).parent / "fixtures"


def run(*argv):
    return main([str(a) for a in argv])


def test_count_prints_published_value(capsys):
    assert run("count", "--k", 8) == 0
    assert capsys.readouterr().out.strip() == "660032"


def test_count_beyond_the_stack_depth_prints_every_digit(capsys):
    assert run("count", "--k", 500) == 0
    out = capsys.readouterr().out.strip()
    assert out.isdecimal() and len(out) == 1336


def test_count_past_the_int_to_str_limit_prints_every_digit(monkeypatch, capsys):
    from hierclass import treespace

    limit = getattr(sys, "get_int_max_str_digits", lambda: None)  # the limit is absent before 3.10.7
    before = limit()
    monkeypatch.setattr(treespace, "count_hierarchies", lambda k: 10**5000)
    assert run("count", "--k", 3) == 0
    assert capsys.readouterr().out == "1" + "0" * 5000 + "\n"
    assert limit() == before


def test_count_entry_point_via_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "hierclass.cli", "count", "--k", "8"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "660032"


def test_count_zero_is_usage_error(capsys):
    assert run("count", "--k", 0) == 1


def test_bad_flag_value_is_usage_error():
    assert run("count", "--k", "abc") == 1


def test_missing_file_is_data_error(tmp_path, capsys):
    assert run("--out-dir", tmp_path, "synth", "--spec", tmp_path / "nope.json", "--out", "x.csv") == 2


def test_enumerate_to_file(tmp_path, capsys):
    out = tmp_path / "trees.nwk"
    assert run("--out-dir", tmp_path, "enumerate", "--concepts", "a,b,c", "--out", "trees.nwk") == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 4


@pytest.mark.skipif(os.name != "posix", reason="POSIX file modes")
@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)], ids=oct)
def test_written_files_get_the_umask_mode(tmp_path, capsys, umask, mode):
    old = os.umask(umask)
    try:
        assert run("--out-dir", tmp_path, "enumerate", "--concepts", "a,b,c", "--out", "trees.nwk") == 0
    finally:
        os.umask(old)
    assert (tmp_path / "trees.nwk").stat().st_mode & 0o777 == mode


def test_derive_on_shipped_fixture(tmp_path, capsys):
    assert (
        run(
            "--out-dir", tmp_path,
            "derive", "--affinity", FIXTURES / "affinity_3concepts.json",
            "--out", "tree.nwk", "--dendrogram", "dgm.json", "--dot", "dgm.dot",
        )
        == 0
    )
    assert capsys.readouterr().out.splitlines()[0] == "((c1,c2),c3)"
    assert (tmp_path / "tree.nwk").read_text().strip() == "((c1,c2),c3)"
    dgm = json.loads((tmp_path / "dgm.json").read_text())
    assert len(dgm["steps"]) == 2
    assert (tmp_path / "dgm.dot").read_text().startswith("digraph")


def test_derive_single_linkage_tie_merges_the_smaller_id_pair(tmp_path, capsys):
    (tmp_path / "tie.json").write_text(json.dumps(tied_affinity_json()))
    assert run("--out-dir", tmp_path, "derive", "--affinity", tmp_path / "tie.json",
               "--linkage", "single", "--tau", "1", "--out", "t.nwk") == 0
    assert capsys.readouterr().out.splitlines()[0] == "((c0,c1),(c2,c3))"


@pytest.mark.parametrize("tau", ["nan", "inf", "-1"])
def test_derive_rejects_a_tau_it_cannot_use(tmp_path, capsys, tau):
    # the affinity file does not exist: reading it first would be a data error (exit 2)
    assert run("--out-dir", tmp_path, "derive", "--affinity", tmp_path / "missing.json",
               "--tau", tau, "--out", "tree.nwk", "--tree-json", "tree.json", "--dendrogram", "dgm.json") == 1
    assert capsys.readouterr().err == f"error: tau must be finite and >= 0, got {float(tau)}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.fixture(scope="module")
def planted_csv(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("data")
    catalog = Catalog(("c1", "c2", "c3", "c4"))
    tree = internal([internal([leaf(0), leaf(1)]), internal([leaf(2), leaf(3)])])
    spec = PlantedSpec(catalog, tree, 8, 40, (9.0, 3.0), 1.5)
    path = tmp / "data.csv"
    save_csv(generate_planted(spec, seed=0), path)
    spec_path = tmp / "spec.json"
    spec_path.write_text(json.dumps(planted_spec_to_json(spec)))
    return path, spec_path


FAST = [
    "--hidden-dim", "8", "--latent-dim", "2",
    "--pretrain-epochs", "10", "--erm-epochs", "15",
]


def test_synth_is_reproducible(tmp_path, planted_csv, capsys):
    _, spec_path = planted_csv
    assert run("--out-dir", tmp_path, "--seed", "5", "synth", "--spec", spec_path, "--out", "a.csv") == 0
    assert run("--out-dir", tmp_path, "--seed", "5", "synth", "--spec", spec_path, "--out", "b.csv") == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_affinity_then_derive_reproducible(tmp_path, planted_csv, capsys):
    data, _ = planted_csv
    fast_aff = ["--pretrain-epochs", "15", "--warmup-epochs", "20", "--budget", "20",
                "--hidden-dim", "8", "--latent-dim", "2"]
    for name in ("one", "two"):
        assert (
            run("--out-dir", tmp_path, "--seed", "2", "affinity", "--data", data,
                "--out", f"{name}.json", *fast_aff)
            == 0
        )
    a = json.loads((tmp_path / "one.json").read_text())
    b = json.loads((tmp_path / "two.json").read_text())
    assert a["entries"] == b["entries"]
    assert run("--out-dir", tmp_path, "derive", "--affinity", tmp_path / "one.json",
               "--out", "t1.nwk", "--tree-json", "t1.json") == 0
    assert run("--out-dir", tmp_path, "derive", "--affinity", tmp_path / "one.json",
               "--out", "t2.nwk") == 0
    assert (tmp_path / "t1.nwk").read_bytes() == (tmp_path / "t2.nwk").read_bytes()
    tree_doc = json.loads((tmp_path / "t1.json").read_text())
    assert tree_doc["provenance"]["inputs"]
    assert tree_doc["provenance"]["config"] == {"linkage": "average", "tau": 0.5}
    assert set(a) == {"concepts", "entries", "provenance"}


def test_train_predict_evaluate_round(tmp_path, planted_csv, capsys):
    data, _ = planted_csv
    (tmp_path / "tree.nwk").write_text("((c1,c2),(c3,c4))\n")
    assert run("--out-dir", tmp_path, "train", "--data", data, "--tree", tmp_path / "tree.nwk",
               "--out", "clf.json", *FAST) == 0
    assert run("--out-dir", tmp_path, "predict", "--clf", tmp_path / "clf.json",
               "--data", data, "--out", "preds.csv") == 0
    preds = (tmp_path / "preds.csv").read_text().strip().splitlines()
    assert preds[0] == "prediction" and len(preds) == 161
    assert set(preds[1:]) <= {"c1", "c2", "c3", "c4"}
    assert run("--out-dir", tmp_path, "evaluate", "--clf", tmp_path / "clf.json", "--data", data,
               "--out", "report.json", "--csv", "report.csv", "--confusion", "conf.csv") == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert 0.0 <= report["accuracy"] <= 1.0
    assert len(report["confusion"]) == 4
    assert (tmp_path / "conf.csv").read_text().count("\n") == 5


def test_predict_without_label_column(tmp_path, planted_csv):
    data, _ = planted_csv
    (tmp_path / "tree.nwk").write_text("((c1,c2),(c3,c4))\n")
    assert run("--out-dir", tmp_path, "train", "--data", data, "--tree", tmp_path / "tree.nwk",
               "--out", "clf.json", *FAST) == 0
    rows = data.read_text().splitlines()
    header = rows[0].split(",")[:-1]
    stripped = [",".join(header)] + [",".join(r.split(",")[:-1]) for r in rows[1:]]
    bare = tmp_path / "bare.csv"
    bare.write_text("\n".join(stripped) + "\n")
    assert run("--out-dir", tmp_path, "predict", "--clf", tmp_path / "clf.json",
               "--data", bare, "--out", "p.csv") == 0


def test_train_with_refinement(tmp_path, planted_csv, capsys):
    data, _ = planted_csv
    (tmp_path / "tree.nwk").write_text("((c1,c2),(c3,c4))\n")
    assert run("--out-dir", tmp_path, "train", "--data", data, "--tree", tmp_path / "tree.nwk",
               "--out", "clf.json", "--refine-epochs", "5", *FAST) == 0
    assert "refined" in capsys.readouterr().out


def test_search_k4_emits_26_rows(tmp_path, planted_csv, capsys):
    data, _ = planted_csv
    assert run("--out-dir", tmp_path, "search", "--data", data, "--out", "table.csv",
               "--pretrain-epochs", "8", "--erm-epochs", "10",
               "--hidden-dim", "8", "--latent-dim", "2") == 0
    lines = (tmp_path / "table.csv").read_text().strip().splitlines()
    assert lines[0] == "tree,score"
    assert len(lines) == 27  # header + 26 hierarchies


@pytest.mark.parametrize("command", ["search", "compare"])
@pytest.mark.parametrize("val_fraction, part", [("0.99", 0), ("0.01", 1)])
def test_val_fraction_leaving_a_split_part_empty_is_a_data_error(tmp_path, planted_csv, capsys, command,
                                                                  val_fraction, part):
    # 40 rows per concept: the 1 % part (train at 0.99, validation at 0.01) gets no row of any concept
    data, _ = planted_csv
    (tmp_path / "tree.nwk").write_text("((c1,c2),(c3,c4))\n")
    trees = ["--derived", tmp_path / "tree.nwk", "--expert", tmp_path / "tree.nwk"] if command == "compare" else []
    assert run("--out-dir", tmp_path, command, "--data", data, "--val-fraction", val_fraction, *trees,
               *FAST, "--out", "out.json") == 2
    err = capsys.readouterr().err
    assert re.search(rf"^data error: split part {part} \(fraction 0.01\) gets none of the 160 rows$", err, re.M)
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("command, flags, message", [
    ("search", ["--val-fraction", "1.5"], "--val-fraction must lie strictly between 0 and 1, got 1.5"),
    ("search", ["--val-fraction", "nan"], "--val-fraction must lie strictly between 0 and 1, got nan"),
    ("search", ["--val-fraction", "0"], "--val-fraction must lie strictly between 0 and 1, got 0.0"),
    ("compare", ["--val-fraction", "1"], "--val-fraction must lie strictly between 0 and 1, got 1.0"),
    ("compare", ["--random-samples", "-1"], "--random-samples must be >= 0, got -1"),
    ("compare", ["--train-seeds", ""], "--train-seeds must be comma-separated non-negative integers, got ''"),
    ("compare", ["--train-seeds", "1,x"], "--train-seeds must be comma-separated non-negative integers, got '1,x'"),
    ("compare", ["--train-seeds", "-1"], "--train-seeds must be comma-separated non-negative integers, got '-1'"),
], ids=["search-1.5", "search-nan", "search-0", "compare-1", "random-samples", "no-seeds", "bad-seed", "negative-seed"])
def test_search_and_compare_flags_are_checked_before_the_data(tmp_path, capsys, command, flags, message):
    trees = ["--derived", tmp_path / "t.nwk", "--expert", tmp_path / "t.nwk"] if command == "compare" else []
    # the data file does not exist: reading it first would be a data error (exit 2)
    assert run("--out-dir", tmp_path, command, "--data", tmp_path / "missing.csv", *trees, *flags,
               "--out", "out.json") == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out.json").exists()


def test_compare_identical_trees_reports_full_agreement(tmp_path, planted_csv, capsys):
    data, _ = planted_csv
    (tmp_path / "tree.nwk").write_text("((c1,c2),(c3,c4))\n")
    assert run("--out-dir", tmp_path, "compare", "--data", data,
               "--derived", tmp_path / "tree.nwk", "--expert", tmp_path / "tree.nwk",
               "--random-samples", "2", "--train-seeds", "0,1",
               "--pretrain-epochs", "8", "--erm-epochs", "10",
               "--hidden-dim", "8", "--latent-dim", "2",
               "--out", "cmp.json") == 0
    doc = json.loads((tmp_path / "cmp.json").read_text())
    rows = {r["method"]: r for r in doc["rows"]}
    assert rows["proposed"]["agreement"] == 1.0
    assert rows["expertise"]["agreement"] is None
    assert len(rows["random"]["trees"]) == 2
    config = doc["provenance"]["config"]
    assert config["erm"]["epochs"] == 10 and config["encoder"]["hidden_dim"] == 8
    assert config["train_seeds"] == [0, 1] and config["val_fraction"] == 0.3


def _no_nan(constant):
    raise AssertionError(f"{constant} is not valid JSON")


def test_compare_without_random_trees_writes_null_not_nan(tmp_path, planted_csv, capsys):
    data, _ = planted_csv
    (tmp_path / "tree.nwk").write_text("((c1,c2),(c3,c4))\n")
    assert run("--out-dir", tmp_path, "compare", "--data", data,
               "--derived", tmp_path / "tree.nwk", "--expert", tmp_path / "tree.nwk",
               "--random-samples", "0", "--train-seeds", "0", *FAST, "--out", "cmp.json") == 0
    doc = json.loads((tmp_path / "cmp.json").read_text(), parse_constant=_no_nan)
    rows = {r["method"]: r for r in doc["rows"]}
    assert rows["random"] == {"method": "random", "agreement": None, "accuracy_mean": None,
                              "accuracy_std": None, "trees": []}
    assert isinstance(rows["proposed"]["accuracy_mean"], float)
    assert "random     agree=-     perf=-" in capsys.readouterr().out


def test_compare_equals_training_each_tree_alone(tmp_path, planted_csv, capsys):
    from dataclasses import asdict, replace

    from hierclass import hmodel, synth
    from hierclass.treespace import parse_tree

    data, _ = planted_csv
    (tmp_path / "derived.nwk").write_text("((c2,c1),c4,c3)\n")
    (tmp_path / "expert.nwk").write_text("((c4,c3),(c1,c2))\n")
    seeds = [2, 0]
    assert run("--out-dir", tmp_path, "--seed", "4", "compare", "--data", data,
               "--derived", tmp_path / "derived.nwk", "--expert", tmp_path / "expert.nwk",
               "--random-samples", "3", "--train-seeds", "2,0", *FAST, "--out", "cmp.json") == 0
    doc = json.loads((tmp_path / "cmp.json").read_text())
    dataset = synth.load_csv(data)
    d = hmodel.HierTrainConfig()
    base = replace(d, erm=replace(d.erm, epochs=15), encoder=replace(d.encoder, hidden_dim=8, latent_dim=2),
                   pretrain=replace(d.pretrain, epochs=10))
    assert doc["provenance"]["config"] == {
        **asdict(replace(base, seed=4)), "train_seeds": seeds, "random_samples": 3, "val_fraction": 0.3
    }
    assert [len(row["trees"]) for row in doc["rows"]] == [1, 3, 1]
    for row in doc["rows"]:
        values = []  # tree-major, then seed, each tree trained on its own
        for text in row["trees"]:
            tree = parse_tree(text, dataset.catalog)
            for seed in seeds:
                train, val = synth.split(dataset, (0.7, 0.3), seed=seed, stratified=True)
                clf = _plain_hierarchy(tree, train, replace(base, seed=seed))
                values.append(float(np.mean(hmodel.predict_batch(clf, val.features) == val.labels)))
        assert row["accuracy_mean"] == float(np.mean(values)), row["method"]
        assert row["accuracy_std"] == float(np.std(values)), row["method"]


def test_derive_rejects_unknown_top_level_affinity_key(tmp_path, capsys):
    obj = json.loads((FIXTURES / "affinity_3concepts.json").read_text())
    (tmp_path / "aff.json").write_text(json.dumps({**obj, "bogus": 1}))
    assert run("--out-dir", tmp_path, "derive", "--affinity", tmp_path / "aff.json", "--out", "t.nwk") == 2
    assert "unknown keys ['bogus']" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("alpha", 0.5), ("beta", 0.5), ("b_max", 100), ("seed", 0),
                                        ("encoder", None), ("skipped", [])])
def test_derive_rejects_an_affinity_file_repeating_a_removed_setting(tmp_path, capsys, key, value):
    # older affinity files repeated settings beside their records; the records alone load now
    obj = json.loads((FIXTURES / "affinity_3concepts.json").read_text())
    (tmp_path / "aff.json").write_text(json.dumps({**obj, key: value}))
    assert run("--out-dir", tmp_path, "derive", "--affinity", tmp_path / "aff.json", "--out", "t.nwk",
               "--tree-json", "t.json") == 2
    assert capsys.readouterr().err == (
        f"data error: {tmp_path / 'aff.json'}: bad affinity JSON: unknown keys ['{key}']\n")
    assert [p.name for p in tmp_path.iterdir()] == ["aff.json"]


def test_affinity_with_a_diverging_concept_exits_3_naming_it(tmp_path, capsys):
    features = np.random.default_rng(0).normal(size=(90, 6))
    features[30:60] *= 1e4  # the pretraining stack's member 1 diverges at once
    data = LabeledDataset(features, np.repeat([0, 1, 2], 30), Catalog(("calm", "wild", "still")))
    save_csv(data, tmp_path / "wild.csv")
    with np.errstate(all="ignore"):
        code = run("--out-dir", tmp_path, "affinity", "--data", tmp_path / "wild.csv", "--out", "a.json")
    assert code == 3
    assert "numeric error: pretraining concept 'wild'" in capsys.readouterr().err
    assert not (tmp_path / "a.json").exists()


@pytest.mark.parametrize("command, flags, field", [
    ("train", ["--hidden-dim", "0"], "hidden_dim"),
    ("train", ["--latent-dim", "0"], "latent_dim"),
    ("train", ["--erm-epochs", "-2"], "epochs"),
    ("affinity", ["--hidden-dim", "0"], "hidden_dim"),
    ("affinity", ["--warmup-epochs", "-3"], "epochs"),
    ("affinity", ["--alpha", "nan"], "alpha"),
    ("affinity", ["--beta", "inf"], "beta"),
    ("search", ["--pretrain-epochs", "-1"], "epochs"),
])
def test_impossible_sizes_are_usage_errors_naming_the_field(tmp_path, planted_csv, capsys, command, flags, field):
    data, _ = planted_csv
    tree = tmp_path / "tree.nwk"
    tree.write_text("((c1,c2),(c3,c4))\n")
    outputs = {"train": ["--tree", tree, "--out", "clf.json"], "affinity": ["--out", "a.json"],
               "search": ["--out", "table.csv"]}
    assert run("--out-dir", tmp_path, command, "--data", data, *outputs[command], *flags) == 1
    assert f"error: {field} must" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [tree]  # nothing trained, nothing written


@pytest.mark.parametrize("flags, argument", [
    (["--refine-epochs", "2", "--lambda-orth", "nan"], "lambda_orth"),
    (["--refine-epochs", "2", "--lambda-orth", "-1"], "lambda_orth"),
    (["--refine-epochs", "-2"], "epochs"),
    (["--lambda-orth", "nan"], "lambda_orth"),  # no refinement: the value still lands in provenance
    (["--lambda-orth", "inf"], "lambda_orth"),
])
def test_impossible_refinement_is_a_usage_error_naming_the_argument(
    tmp_path, planted_csv, capsys, monkeypatch, flags, argument
):
    data, _ = planted_csv
    tree = tmp_path / "tree.nwk"
    tree.write_text("((c1,c2),(c3,c4))\n")

    def load_csv(*args, **kwargs):
        raise AssertionError("the settings are checked before any data is loaded")

    monkeypatch.setattr("hierclass.synth.load_csv", load_csv)
    assert run("--out-dir", tmp_path, "train", "--data", data, "--tree", tree, "--out", "clf.json",
               *FAST, *flags) == 1
    assert f"error: {argument} must" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [tree]


def _edited_json(edit):
    """The JSON text with ``edit`` applied to its parsed object in place."""
    def apply(text):
        obj = json.loads(text)
        edit(obj)
        return json.dumps(obj)
    return apply


def _node_array(node: int, path: tuple, edit):
    """A classifier JSON edit: node entry ``node``'s array at ``path`` replaced by ``edit`` of it."""
    def apply(o):
        holder = o["nodes"][node]
        for key in path[:-1]:
            holder = holder[key]
        holder[path[-1]] = array_to_json(edit(array_from_json(holder[path[-1]])))
    return apply


def _set(index, value):
    def edit(arr):
        arr = arr.copy()
        arr[index] = value
        return arr
    return edit


# classifier file faults: node [0, 1], the second in preorder, reads 4 of the data's 8
# features; a NaN weight at node [0, 1]; an inf bias at node [2, 3]; the v1 format; a
# node entry too few
CLF_NARROW_NODE = _edited_json(_node_array(1, ("encoder", "layers", 0, "weights"), lambda w: w[:, :4]))
CLF_NAN_WEIGHT = _edited_json(_node_array(1, ("scorer_weights",), _set((0, 0), float("nan"))))
CLF_INF_BIAS = _edited_json(_node_array(2, ("scorer_bias",), _set(1, float("inf"))))
CLF_V1 = _edited_json(lambda o: o.update(format="hierclass-classifier-v1"))
CLF_SHORT = _edited_json(lambda o: o["nodes"].pop())


def _one_root_scorer(o):  # the root keeps the first of its two children's scorers
    for part in ("scorer_weights", "scorer_bias"):
        _node_array(0, (part,), lambda a: a[:1])(o)


@pytest.mark.parametrize("command, corrupt", [
    ("synth", _edited_json(lambda o: o.update(names=5))),
    ("synth", _edited_json(lambda o: o.update(feature_dim="x"))),
    ("synth", _edited_json(lambda o: o.update(level_offsets=[3.0, 9.0]))),
    ("train", lambda text: text[: len(text) // 2]),
    ("train", None),
    ("train", lambda text: "((c1,c2),(c3,zz))"),
    ("train", lambda text: "((c1,c2),(c3,c\u00e9))".encode("latin-1")),
    ("predict", CLF_SHORT),
    ("predict", _edited_json(lambda o: o["nodes"][0]["encoder"]["layers"][0].update(activation="tanh"))),
    ("predict", _edited_json(lambda o: o["nodes"].pop(0))),
    ("derive", _edited_json(lambda o: o["entries"][0].update(p=1.5))),
    ("derive", _edited_json(lambda o: o["entries"][0].update(dst=o["entries"][0]["src"]))),
    ("synth", _edited_json(lambda o: o.update(noise=float("nan")))),
    ("synth", _edited_json(lambda o: o["level_offsets"].__setitem__(0, float("inf")))),
    ("synth", _edited_json(lambda o: o.update(per_concept=40.7))),
    ("derive", _edited_json(lambda o: o["entries"][0].update(src=0.9))),
    ("derive", _edited_json(lambda o: o["entries"][0].update(dst=True))),
    ("derive", _edited_json(lambda o: o.update(seed="7"))),
    ("derive", _edited_json(lambda o: o.update(b_max=100.6))),
    ("derive", _edited_json(lambda o: o["entries"][0].update(bogus=1))),
    ("derive", lambda text: "[" * 100000 + "]" * 100000),
    ("train", lambda text: "(" * 5000),
    ("train", lambda text: "[" * 990 + '"c1"' + ', "c2"]' * 990),
    ("predict", _edited_json(lambda o: o["nodes"][0].update(key=[0, 1, 2, 3]))),
    ("predict", CLF_V1),
    ("predict", _edited_json(lambda o: o.update(bogus=1))),
    ("predict", _edited_json(lambda o: o.update(tree="(" * 5000))),
    ("derive", _edited_json(lambda o: o["concepts"].__setitem__(1, 5))),
    ("predict", lambda text: "[]"),
    ("predict", CLF_NARROW_NODE),
    ("predict", CLF_NAN_WEIGHT),
    ("predict", CLF_INF_BIAS),
    ("predict", _edited_json(_one_root_scorer)),
], ids=["spec-names-not-a-list", "spec-feature-dim-not-a-number", "spec-offsets-increase",
        "tree-truncated", "tree-missing", "tree-unknown-name", "tree-not-utf8",
        "clf-nodes-one-short", "clf-unknown-activation", "clf-node-missing",
        "affinity-p-above-1", "affinity-self-pair", "spec-noise-nan", "spec-offset-inf",
        "spec-per-concept-fraction", "affinity-src-fraction", "affinity-dst-bool", "affinity-seed-string",
        "affinity-b-max-fraction", "affinity-entry-unknown-key", "affinity-nested-too-deep",
        "tree-nested-too-deep", "tree-json-nested-too-deep", "clf-node-key", "clf-format-v1",
        "clf-unknown-key", "clf-tree-nested-too-deep", "affinity-concept-not-a-string",
        "clf-not-an-object", "clf-node-reads-fewer-features", "clf-scorer-nan", "clf-scorer-inf",
        "clf-root-one-scorer"])
def test_malformed_json_input_is_a_data_error_naming_the_file(tmp_path, planted_csv, trained_clf, capsys,
                                                               command, corrupt):
    data, spec = planted_csv
    bad = tmp_path / "bad.json"
    source = {"synth": spec.read_text(), "train": '[["c1", "c2"], ["c3", "c4"]]',
              "predict": trained_clf.read_text(), "derive": (FIXTURES / "affinity_3concepts.json").read_text()}
    if corrupt is not None:
        text = corrupt(source[command])
        bad.write_bytes(text if isinstance(text, bytes) else text.encode())
    argv = {"synth": ["--spec", bad, "--out", "x.csv"],
            "train": ["--data", data, "--tree", bad, "--out", "clf.json", *FAST],
            "predict": ["--clf", bad, "--data", data, "--out", "p.csv"],
            "derive": ["--affinity", bad, "--out", "t.nwk"]}
    capsys.readouterr()
    assert run("--out-dir", tmp_path, command, *argv[command]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {bad}: "), err
    assert [p.name for p in tmp_path.iterdir()] == ([] if corrupt is None else ["bad.json"])


@pytest.mark.parametrize("command", ["predict", "evaluate"])
@pytest.mark.parametrize("corrupt, message", [
    (CLF_V1, "unsupported classifier format 'hierclass-classifier-v1', not 'hierclass-classifier-v2'; "
             "retrain the classifier with `hierclass train`"),
    (CLF_SHORT, "bad classifier JSON: 2 nodes, but the tree has 3 internal nodes"),
    (CLF_NARROW_NODE, "bad classifier JSON: node [0, 1] reads 4 features, the root 8"),
    (CLF_NAN_WEIGHT, "bad classifier JSON: node [0, 1]: scorer parameters must be finite"),
    (CLF_INF_BIAS, "bad classifier JSON: node [2, 3]: scorer parameters must be finite"),
], ids=["v1", "nodes-one-short", "node-reads-fewer-features", "scorer-nan", "scorer-inf"])
def test_classifier_file_fault_is_a_data_error_naming_the_file(tmp_path, planted_csv, trained_clf, capsys,
                                                               command, corrupt, message):
    # unchecked, the narrow node failed in numpy's matmul under exit 1, and the
    # NaN weight was blamed on the data's rows
    data, _ = planted_csv
    bad = tmp_path / "clf.json"
    bad.write_text(corrupt(trained_clf.read_text()))
    capsys.readouterr()
    assert run("--out-dir", tmp_path, command, "--clf", bad, "--data", data, "--out", "out") == 2
    assert capsys.readouterr().err == f"data error: {bad}: {message}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["clf.json"]


def test_config_file_defaults_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k": 5}))
    assert run("--config", cfg, "count") == 0
    assert capsys.readouterr().out.strip() == "236"
    assert run("--config", cfg, "count", "--k", 3) == 0
    assert capsys.readouterr().out.strip() == "4"


@pytest.mark.parametrize("out_dir", ["search", "count"])
def test_config_file_applies_to_the_command_that_runs(tmp_path, monkeypatch, capsys, out_dir):
    # an --out-dir value that names another command does not take the config
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({"cap": 3}))
    assert run("--config", "cfg.json", "--out-dir", out_dir, "enumerate", "--concepts", "a,b,c,d",
               "--out", "t.txt") == 1
    assert "26 hierarchies over 4 concepts (cap 3)" in capsys.readouterr().err
    assert not (tmp_path / out_dir / "t.txt").exists()


def test_a_config_file_reaches_no_later_call(tmp_path, monkeypatch, capsys):
    # one parser serves every call in a process; a config file's defaults go into a parser of its own
    from hierclass import cli
    from hierclass.hmodel import HierTrainConfig

    assert cli._build_parser() is cli._build_parser()
    seen = []
    monkeypatch.setitem(cli._COMMANDS, "train", lambda args: seen.append(args) or 0)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 9, "erm_epochs": 3, "data": "d.csv"}))
    train = ["--out-dir", tmp_path, "train", "--tree", "t.nwk", "--out", "c.json"]
    assert run("--config", cfg, *train) == 0
    assert (seen[0].seed, seen[0].erm_epochs, seen[0].data) == (9, 3, "d.csv")
    assert run(*train, "--data", "d.csv") == 0
    assert cli._train_config(seen[1]) == HierTrainConfig()
    capsys.readouterr()
    assert run(*train) == 1  # --data is required again
    assert "the following arguments are required: --data" in capsys.readouterr().err
    assert len(seen) == 2


def test_deeply_nested_config_is_a_data_error(tmp_path, capsys):
    (tmp_path / "deep.json").write_text("[" * 100000 + "]" * 100000)
    assert run("--out-dir", tmp_path / "out", "--config", tmp_path / "deep.json",
               "derive", "--affinity", FIXTURES / "affinity_3concepts.json", "--out", "t.nwk") == 2
    assert capsys.readouterr().err.startswith(f"data error: {tmp_path / 'deep.json'}: invalid JSON: ")
    assert not (tmp_path / "out").exists()


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k": 5, "bogus": 1}))
    assert run("--config", cfg, "count") == 2
    assert "bogus" in capsys.readouterr().err


@pytest.mark.parametrize("key, value, kind", [
    ("erm_epochs", 2.5, "an integer"), ("erm_epochs", True, "an integer"), ("seed", 1.5, "an integer"),
    ("lambda_orth", "0.1", "a number"), ("lambda_orth", False, "a number"), ("tree", 3, "a string"),
])
def test_config_value_of_another_type_is_a_data_error(tmp_path, planted_csv, capsys, key, value, kind):
    data, _ = planted_csv
    (tmp_path / "tree.nwk").write_text("((c1,c2),(c3,c4))\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    assert run("--config", cfg, "--out-dir", tmp_path, "train", "--data", data, "--tree", tmp_path / "tree.nwk",
               "--out", "clf.json", *FAST) == 2
    assert capsys.readouterr().err == f"data error: {cfg}: config key {key} must be {kind}, got {value!r}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "tree.nwk"]


def test_config_value_outside_its_flags_choices_is_a_data_error(tmp_path, capsys):
    # raised before the affinity file, which does not exist, is read
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"linkage": "bogus"}))
    assert run("--config", cfg, "--out-dir", tmp_path, "derive", "--affinity", tmp_path / "missing.json",
               "--out", "t.nwk") == 2
    assert capsys.readouterr().err == (f"data error: {cfg}: config key linkage must be one of "
                                       "['single', 'complete', 'average'], got 'bogus'\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_config_values_are_read_as_their_flags_types(tmp_path, monkeypatch):
    from hierclass import cli

    seen = []
    monkeypatch.setitem(cli._COMMANDS, "derive", lambda args: seen.append(args) or 0)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tau": 1, "seed": 4.0, "linkage": "single"}))
    assert run("--config", cfg, "--out-dir", tmp_path, "derive", "--affinity", "a.json", "--out", "t.nwk") == 0
    assert [(type(v), v) for v in (seen[0].tau, seen[0].seed, seen[0].linkage)] == [
        (float, 1.0), (int, 4), (str, "single")]


@pytest.mark.parametrize("key", ["command", "help", "config"])
def test_config_keys_that_set_no_flag_are_unknown(tmp_path, capsys, key):
    # as a default, "command" would switch the command that runs
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: "enumerate"}))
    assert run("--config", cfg, "--out-dir", tmp_path, "count", "--k", 3) == 2
    assert capsys.readouterr().err == f"data error: {cfg}: unknown config keys ['{key}']\n"


def test_config_file_rejects_removed_threads_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k": 5, "threads": 2}))
    assert run("--config", cfg, "count") == 2
    assert "threads" in capsys.readouterr().err


FAST_AFF = ["--pretrain-epochs", "15", "--warmup-epochs", "5",
            "--budget", "20", "--hidden-dim", "8", "--latent-dim", "2"]


def test_train_reuses_the_saved_affinity_config(tmp_path, planted_csv, capsys):
    from hierclass.affinity import AffinityConfig, EncoderConfig, build_affinity_artifacts
    from hierclass.hmodel import (ErmConfig, HierTrainConfig, classifier_to_json,
                                  train_hierarchical)
    from hierclass.nets import SgdConfig
    from hierclass.synth import load_csv
    from hierclass.treespace import parse_tree

    data, _ = planted_csv
    (tmp_path / "tree.nwk").write_text("((c1,c2),(c3,c4))\n")
    assert run("--out-dir", tmp_path, "--seed", "4", "affinity", "--data", data,
               "--out", "aff.json", "--artifacts", "arts.json", *FAST_AFF) == 0
    assert run("--out-dir", tmp_path, "--seed", "4", "train", "--data", data,
               "--tree", tmp_path / "tree.nwk", "--artifacts", tmp_path / "arts.json",
               "--out", "clf.json", *FAST) == 0

    # the same run in-process, with the affinity config the flags spelled out
    dataset = load_csv(data)
    aff_cfg = AffinityConfig(
        encoder=EncoderConfig(hidden_dim=8, latent_dim=2),
        pretrain=SgdConfig(epochs=15, batch_size=32, learning_rate=0.1),
        warmup=SgdConfig(epochs=5, batch_size=16, learning_rate=0.1),
        budget=20,
        seed=4,
    )
    train_cfg = HierTrainConfig(erm=ErmConfig(epochs=15, learning_rate=0.1), seed=4)
    tree = parse_tree("((c1,c2),(c3,c4))", dataset.catalog)
    clf = train_hierarchical(tree, dataset, train_cfg,
                             artifacts=build_affinity_artifacts(dataset, aff_cfg))
    cli_doc = json.loads((tmp_path / "clf.json").read_text())
    assert cli_doc["nodes"] == classifier_to_json(clf)["nodes"]


def test_artifacts_with_unknown_config_format_are_a_data_error(tmp_path, planted_csv, capsys):
    data, _ = planted_csv
    (tmp_path / "tree.nwk").write_text("((c1,c2),(c3,c4))\n")
    assert run("--out-dir", tmp_path, "affinity", "--data", data, "--out", "aff.json",
               "--artifacts", "arts.json", *FAST_AFF) == 0
    arts = json.loads((tmp_path / "arts.json").read_text())
    arts["config"]["format"] = "hierclass-affinity-config-v0"
    (tmp_path / "arts.json").write_text(json.dumps(arts))
    capsys.readouterr()
    assert run("--out-dir", tmp_path, "train", "--data", data, "--tree", tmp_path / "tree.nwk",
               "--artifacts", tmp_path / "arts.json", "--out", "clf.json", *FAST) == 2
    assert "hierclass-affinity-config-v0" in capsys.readouterr().err


def test_v1_artifacts_file_is_a_data_error_naming_the_file(tmp_path, planted_csv, capsys):
    # a v1 config carried freeze_encoder, which the frozen transfer replaced
    data, _ = planted_csv
    (tmp_path / "tree.nwk").write_text("((c1,c2),(c3,c4))\n")
    assert run("--out-dir", tmp_path, "affinity", "--data", data, "--out", "aff.json",
               "--artifacts", "arts.json", *FAST_AFF) == 0
    arts = json.loads((tmp_path / "arts.json").read_text())
    assert arts["config"]["format"] == "hierclass-affinity-config-v4" and "freeze_encoder" not in arts["config"]
    arts["config"].update(format="hierclass-affinity-config-v1", freeze_encoder=True)
    (tmp_path / "arts.json").write_text(json.dumps(arts))
    capsys.readouterr()
    assert run("--out-dir", tmp_path, "train", "--data", data, "--tree", tmp_path / "tree.nwk",
               "--artifacts", tmp_path / "arts.json", "--out", "clf.json", *FAST) == 2
    err = capsys.readouterr().err
    assert f"data error: {tmp_path / 'arts.json'}: bad artifacts file" in err and "config-v1" in err
    assert not (tmp_path / "clf.json").exists()


def test_v2_artifacts_file_with_pair_encoders_is_a_data_error_asking_for_a_rebuild(tmp_path, planted_csv, capsys):
    # a v2 file held a joint fine-tune's config and one tuned encoder per ordered pair
    data, _ = planted_csv
    (tmp_path / "tree.nwk").write_text("((c1,c2),(c3,c4))\n")
    assert run("--out-dir", tmp_path, "affinity", "--data", data, "--out", "aff.json",
               "--artifacts", "arts.json", *FAST_AFF) == 0
    arts = json.loads((tmp_path / "arts.json").read_text())
    encoders = arts.pop("concept_encoders")
    arts["pair_encoders"] = {f"{i},{j}": encoders[i] for i in range(4) for j in range(4) if i != j}
    arts["config"].update(format="hierclass-affinity-config-v2",
                          finetune={"epochs": 3, "batch_size": 16, "learning_rate": 0.02, "divergence_limit": 1e6})
    (tmp_path / "arts.json").write_text(json.dumps(arts))
    capsys.readouterr()
    assert run("--out-dir", tmp_path, "train", "--data", data, "--tree", tmp_path / "tree.nwk",
               "--artifacts", tmp_path / "arts.json", "--out", "clf.json", *FAST) == 2
    assert capsys.readouterr().err == (
        f"data error: {tmp_path / 'arts.json'}: bad artifacts file: unsupported affinity config format "
        "'hierclass-affinity-config-v2', not 'hierclass-affinity-config-v4'; "
        "rebuild the file with `hierclass affinity`\n")
    assert not (tmp_path / "clf.json").exists()


def test_v3_artifacts_file_with_input_dim_is_a_data_error_asking_for_a_rebuild(tmp_path, planted_csv, capsys):
    # a v3 file stated its feature width as input_dim and its matrix repeated the affinity settings
    data, _ = planted_csv
    (tmp_path / "tree.nwk").write_text("((c1,c2),(c3,c4))\n")
    assert run("--out-dir", tmp_path, "affinity", "--data", data, "--out", "aff.json",
               "--artifacts", "arts.json", *FAST_AFF) == 0
    arts = json.loads((tmp_path / "arts.json").read_text())
    assert set(arts) == {"matrix", "config", "concept_encoders"}
    arts["input_dim"] = 8
    arts["matrix"].update(alpha=0.5, beta=0.5, b_max=100, seed=0, encoder=arts["config"]["encoder"])
    arts["config"]["format"] = "hierclass-affinity-config-v3"
    (tmp_path / "arts.json").write_text(json.dumps(arts))
    capsys.readouterr()
    assert run("--out-dir", tmp_path, "train", "--data", data, "--tree", tmp_path / "tree.nwk",
               "--artifacts", tmp_path / "arts.json", "--out", "clf.json", *FAST) == 2
    assert capsys.readouterr().err == (
        f"data error: {tmp_path / 'arts.json'}: bad artifacts file: unsupported affinity config format "
        "'hierclass-affinity-config-v3', not 'hierclass-affinity-config-v4'; "
        "rebuild the file with `hierclass affinity`\n")
    assert not (tmp_path / "clf.json").exists()


def test_affinity_on_a_short_concept_is_a_data_error_naming_it(tmp_path, planted_csv, capsys):
    data, _ = planted_csv  # 40 rows each of c1..c4, in label order
    lines = data.read_text().splitlines(keepends=True)
    short = tmp_path / "short.csv"
    short.write_text("".join(lines[:126]))  # the header, then 40/40/40/5 rows
    assert run("--out-dir", tmp_path / "out", "affinity", "--data", short, "--out", "aff.json",
               "--artifacts", "arts.json", "--distance-csv", "d.csv") == 2
    assert capsys.readouterr().err == (
        "data error: need at least 2 concepts with >= 10 examples each; got 4, with too few examples: {'c4': 5}\n")
    assert list((tmp_path / "out").iterdir()) == []


@pytest.mark.parametrize("edit, shown", [
    (lambda arts: arts["concept_encoders"].pop(), "3 concept encoders for the 4 concepts"),
    (lambda arts: arts["config"]["warmup"].update(epochs=2.5),
     "affinity config.warmup: epochs must be an integer, got 2.5"),
    (lambda arts: arts["config"].update(budget=True), "affinity config: budget must be an integer, got True"),
    (lambda arts: arts["matrix"]["entries"].pop(), "bad affinity JSON: affinity matrix is missing pairs: c4->c3"),
    (lambda arts: arts.update(bogus=1), "unknown keys ['bogus']"),
    (lambda arts: arts.update(input_dim=8), "unknown keys ['input_dim']"),
    (lambda arts: arts.update(concept_encoders={}), "concept_encoders must be a list, got dict"),
    # the planted data has 8 features and FAST_AFF builds 8 -> 8 -> 2 encoders
    (lambda arts: arts["config"]["encoder"].update(hidden_dim=3, latent_activation="relu"),
     "concept encoder 0 has layer widths (8, 8, 2) and activations ('relu', 'sigmoid'), "
     "but the config's encoder on 8 features has (8, 3, 2) and ('relu', 'relu')"),
    (lambda arts: arts["config"]["encoder"].update(latent_dim=3),
     "concept encoder 0 has layer widths (8, 8, 2) and activations ('relu', 'sigmoid'), "
     "but the config's encoder on 8 features has (8, 8, 3) and ('relu', 'sigmoid')"),
    (lambda arts: arts["concept_encoders"][2]["layers"][0].update(activation="sigmoid"),
     "concept encoder 2 has layer widths (8, 8, 2) and activations ('sigmoid', 'sigmoid'), "
     "but the config's encoder on 8 features has (8, 8, 2) and ('relu', 'sigmoid')"),
], ids=["concept-encoder", "warmup-epochs", "budget", "matrix-pair", "unknown-key",
        "removed-input-dim", "concept-encoders-not-a-list", "config-hidden-dim-and-latent-activation",
        "config-latent-dim", "encoder-2-activation"])
def test_incomplete_or_mistyped_artifacts_are_a_data_error(tmp_path, planted_csv, capsys, edit, shown):
    data, _ = planted_csv
    (tmp_path / "tree.nwk").write_text("((c1,c2),(c3,c4))\n")
    assert run("--out-dir", tmp_path, "affinity", "--data", data, "--out", "aff.json",
               "--artifacts", "arts.json", *FAST_AFF) == 0
    arts = json.loads((tmp_path / "arts.json").read_text())
    edit(arts)
    (tmp_path / "arts.json").write_text(json.dumps(arts))
    capsys.readouterr()
    assert run("--out-dir", tmp_path, "train", "--data", data, "--tree", tmp_path / "tree.nwk",
               "--artifacts", tmp_path / "arts.json", "--out", "clf.json", *FAST) == 2
    assert capsys.readouterr().err == f"data error: {tmp_path / 'arts.json'}: bad artifacts file: {shown}\n"
    assert not (tmp_path / "clf.json").exists()


def test_removed_freeze_encoder_flag_is_a_usage_error(tmp_path, planted_csv, capsys):
    data, _ = planted_csv
    assert run("--out-dir", tmp_path, "affinity", "--data", data, "--out", "aff.json", "--freeze-encoder") == 1
    assert "--freeze-encoder" in capsys.readouterr().err
    assert not (tmp_path / "aff.json").exists()


def test_removed_finetune_epochs_flag_is_a_usage_error(tmp_path, planted_csv, capsys):
    data, _ = planted_csv
    assert run("--out-dir", tmp_path, "affinity", "--data", data, "--out", "aff.json", "--finetune-epochs", "0") == 1
    assert "--finetune-epochs" in capsys.readouterr().err
    assert not (tmp_path / "aff.json").exists()


def test_config_file_rejects_removed_finetune_epochs_key(tmp_path, planted_csv, capsys):
    data, _ = planted_csv
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"finetune_epochs": 0}))
    assert run("--config", cfg, "--out-dir", tmp_path, "affinity", "--data", data, "--out", "aff.json") == 2
    assert capsys.readouterr().err == f"data error: {cfg}: unknown config keys ['finetune_epochs']\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize("command, flags", [
    ("train", ["--tree", "tree.nwk", "--mode", "fuse"]),  # the flat tree gives the fused classifier
    ("search", ["--metric", "neg_h_loss"]),  # its ranking is accuracy's
], ids=["train-mode", "search-metric"])
def test_removed_mode_and_metric_flags_are_usage_errors(tmp_path, planted_csv, capsys, command, flags):
    data, _ = planted_csv
    (tmp_path / "tree.nwk").write_text("((c1,c2),(c3,c4))\n")
    assert run("--out-dir", tmp_path, command, "--data", data, *flags, "--out", "out.json") == 1
    assert f"unrecognized arguments: {' '.join(flags[-2:])}" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["tree.nwk"]


@pytest.mark.parametrize("other", ["catalog", "width"])
def test_artifacts_over_other_data_are_a_data_error(tmp_path, planted_csv, capsys, other):
    data, _ = planted_csv  # concepts c1..c4, 8 features
    names, width = (("c3", "c4", "w", "x"), 8) if other == "catalog" else (("c1", "c2", "c3", "c4"), 6)
    tree = internal([internal([leaf(0), leaf(1)]), internal([leaf(2), leaf(3)])])
    save_csv(generate_planted(PlantedSpec(Catalog(names), tree, width, 40, (9.0, 3.0), 1.5), seed=1),
             tmp_path / "other.csv")
    (tmp_path / "tree.nwk").write_text(f"(({names[0]},{names[1]}),({names[2]},{names[3]}))\n")
    assert run("--out-dir", tmp_path, "affinity", "--data", data, "--out", "aff.json",
               "--artifacts", "arts.json", *FAST_AFF) == 0
    capsys.readouterr()
    assert run("--out-dir", tmp_path, "train", "--data", tmp_path / "other.csv", "--tree", tmp_path / "tree.nwk",
               "--artifacts", tmp_path / "arts.json", "--out", "clf.json", *FAST) == 2
    err = capsys.readouterr().err
    named = [str(["c1", "c2", "c3", "c4"]), str(list(names))] if other == "catalog" else ["8 features", "has 6"]
    assert all(part in err for part in named), err
    assert not (tmp_path / "clf.json").exists()


@pytest.mark.parametrize("k", [2, 4])
def test_artifacts_whose_encoders_differ_in_width_are_a_data_error(tmp_path, capsys, k):
    # the last concept's encoder swapped for one trained on 5 features: no width fits every encoder
    names = ("c1", "c2", "c3", "c4")[:k]
    tree = internal([leaf(0), leaf(1)]) if k == 2 else internal([internal([leaf(0), leaf(1)]),
                                                                 internal([leaf(2), leaf(3)])])
    (tmp_path / "tree.nwk").write_text("(c1,c2)\n" if k == 2 else "((c1,c2),(c3,c4))\n")
    for name, width in (("wide", 8), ("narrow", 5)):
        save_csv(generate_planted(PlantedSpec(Catalog(names), tree, width, 40, (9.0, 3.0), 1.5), seed=0),
                 tmp_path / f"{name}.csv")
        assert run("--out-dir", tmp_path, "affinity", "--data", tmp_path / f"{name}.csv", "--out", f"{name}-aff.json",
                   "--artifacts", f"{name}-arts.json", *FAST_AFF) == 0
    arts = json.loads((tmp_path / "wide-arts.json").read_text())
    arts["concept_encoders"][-1] = json.loads((tmp_path / "narrow-arts.json").read_text())["concept_encoders"][-1]
    (tmp_path / "arts.json").write_text(json.dumps(arts))
    capsys.readouterr()
    assert run("--out-dir", tmp_path, "train", "--data", tmp_path / "wide.csv", "--tree", tmp_path / "tree.nwk",
               "--artifacts", tmp_path / "arts.json", "--out", "clf.json", *FAST) == 2
    assert capsys.readouterr().err == (
        f"data error: {tmp_path / 'arts.json'}: bad artifacts file: concept encoder {k - 1} has layer widths "
        "(5, 8, 2) and activations ('relu', 'sigmoid'), but the config's encoder on 8 features has (8, 8, 2) "
        "and ('relu', 'sigmoid')\n")
    assert not (tmp_path / "clf.json").exists()


DERIVE = ["derive", "--affinity", FIXTURES / "affinity_3concepts.json", "--out", "tree.nwk", "--dendrogram", "dgm.json"]


@pytest.mark.parametrize("argv, shown, key", [
    (["segment", "--input", "stream.csv", "--window", "20", "--stride", "10", "--out", "seg.csv"],
     "invalid choice: 'segment'", "purity"),
    (DERIVE + ["--linkage", "custom", "--lw-alpha-i", "0.5", "--lw-alpha-j", "0.5", "--lw-beta", "0",
               "--lw-gamma", "0"], "invalid choice: 'custom'", "lw_alpha_i"),
    (DERIVE + ["--lw-gamma", "0"], "unrecognized arguments: --lw-gamma 0", "lw_gamma"),
    (DERIVE + ["--no-budget-tiebreak"], "unrecognized arguments: --no-budget-tiebreak", "no_budget_tiebreak"),
    (DERIVE + ["--symmetrization", "min"], "unrecognized arguments: --symmetrization min", "symmetrization"),
], ids=["segment", "linkage-custom", "lw-flag", "no-budget-tiebreak", "symmetrization"])
def test_removed_command_and_flags_are_usage_errors(tmp_path, capsys, argv, shown, key):
    assert run("--out-dir", tmp_path, *argv) == 1
    assert shown in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    # as a config key it is unknown to derive, as it was to every command but its own
    (tmp_path / "cfg.json").write_text(json.dumps({key: True}))
    assert run("--config", tmp_path / "cfg.json", "--out-dir", tmp_path / "out", *DERIVE) == 2
    assert f"unknown config keys ['{key}']" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("seed", [0, 6])
def test_flag_defaults_resolve_to_the_library_defaults(seed):
    from hierclass.affinity import AffinityConfig
    from hierclass.cli import _affinity_config, _build_parser, _train_config
    from hierclass.hmodel import HierTrainConfig, refine_global

    parser = _build_parser()
    args = parser.parse_args(["--seed", str(seed), "affinity", "--data", "d.csv", "--out", "a.json"])
    assert _affinity_config(args) == AffinityConfig(seed=seed)
    for argv in (
        ["train", "--data", "d.csv", "--tree", "t.nwk", "--out", "c.json"],
        ["search", "--data", "d.csv", "--out", "s.csv"],
        ["compare", "--data", "d.csv", "--derived", "t.nwk", "--expert", "e.nwk", "--out", "c.json"],
    ):
        args = parser.parse_args(["--seed", str(seed), *argv])
        assert _train_config(args) == HierTrainConfig(seed=seed), argv[0]
    args = parser.parse_args(["train", "--data", "d.csv", "--tree", "t.nwk", "--out", "c.json"])
    assert args.lambda_orth == inspect.signature(refine_global).parameters["lambda_orth"].default


def test_provenance_records_the_whole_resolved_config(tmp_path, planted_csv, capsys):
    from dataclasses import replace

    from hierclass.affinity import AffinityConfig, affinity_config_from_json

    data, _ = planted_csv
    assert run("--out-dir", tmp_path, "--seed", "3", "affinity", "--data", data, "--out", "aff.json",
               "--pretrain-epochs", "5", "--warmup-epochs", "4", "--budget", "20",
               "--hidden-dim", "8", "--latent-dim", "2", "--min-examples", "12") == 0
    defaults = AffinityConfig()
    used = replace(
        defaults,
        encoder=replace(defaults.encoder, hidden_dim=8, latent_dim=2),
        pretrain=replace(defaults.pretrain, epochs=5),
        warmup=replace(defaults.warmup, epochs=4),
        budget=20, min_examples=12, seed=3,
    )
    prov = json.loads((tmp_path / "aff.json").read_text())["provenance"]
    assert affinity_config_from_json(prov["config"]) == used

    (tmp_path / "tree.nwk").write_text("((c1,c2),(c3,c4))\n")
    assert run("--out-dir", tmp_path, "train", "--data", data, "--tree", tmp_path / "tree.nwk",
               "--out", "clf.json", "--hidden-dim", "8", "--latent-dim", "2",
               "--erm-epochs", "7", "--pretrain-epochs", "3") == 0
    config = json.loads((tmp_path / "clf.json").read_text())["provenance"]["config"]
    assert config["erm"]["epochs"] == 7 and config["pretrain"]["epochs"] == 3
    assert config["encoder"]["latent_dim"] == 2 and config["refine_epochs"] == 0


def test_predict_dimension_mismatch_is_data_error(tmp_path, planted_csv, capsys):
    data, _ = planted_csv
    (tmp_path / "tree.nwk").write_text("((c1,c2),(c3,c4))\n")
    assert run("--out-dir", tmp_path, "train", "--data", data, "--tree", tmp_path / "tree.nwk",
               "--out", "clf.json", *FAST) == 0
    narrow = tmp_path / "narrow.csv"
    narrow.write_text("f0,f1,label\n1.0,2.0,c1\n")
    assert run("--out-dir", tmp_path, "predict", "--clf", tmp_path / "clf.json",
               "--data", narrow, "--out", "p.csv") == 2
    assert run("--out-dir", tmp_path, "evaluate", "--clf", tmp_path / "clf.json",
               "--data", narrow, "--out", "r.json") == 2


ONE_CONCEPT = {
    "one.csv": "f0,f1,label\n0.0,1.0,a\n1.0,0.0,a\n0.5,0.5,a\n1.0,1.0,a\n",
    "tree.nwk": "a\n",
    "spec.json": json.dumps({"names": ["a"], "tree": "a", "feature_dim": 2, "per_concept": 4,
                             "level_offsets": [1.0], "noise": 1.0}),
}


@pytest.mark.parametrize("argv", [
    ["synth", "--spec", "spec.json", "--out", "out.csv"],
    ["train", "--data", "one.csv", "--tree", "tree.nwk", "--out", "out.json"],
    ["search", "--data", "one.csv", "--out", "out.csv"],
    ["compare", "--data", "one.csv", "--derived", "tree.nwk", "--expert", "tree.nwk", "--out", "out.json"],
], ids=lambda argv: argv[0])
def test_one_concept_is_a_data_error_naming_the_count(tmp_path, monkeypatch, capsys, argv):
    for name, text in ONE_CONCEPT.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    assert run(*argv) == 2
    assert "at least 2 concepts, " in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(ONE_CONCEPT)


def test_classifier_over_one_concept_is_a_data_error(tmp_path, capsys):
    clf = tmp_path / "clf.json"
    clf.write_text(json.dumps({"format": "hierclass-classifier-v2", "concepts": ["a"], "tree": "a", "nodes": []}))
    (tmp_path / "one.csv").write_text(ONE_CONCEPT["one.csv"])
    for command, out in (("predict", "p.csv"), ("evaluate", "r.json")):
        assert run("--out-dir", tmp_path, command, "--clf", clf, "--data", tmp_path / "one.csv", "--out", out) == 2
        assert "bad classifier JSON: a classifier separates at least 2 concepts" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["clf.json", "one.csv"]


@pytest.fixture(scope="module")
def trained_clf(tmp_path_factory, planted_csv):
    data, _ = planted_csv
    tmp = tmp_path_factory.mktemp("clf")
    (tmp / "tree.nwk").write_text("((c1,c2),(c3,c4))\n")
    assert run("--out-dir", tmp, "train", "--data", data, "--tree", tmp / "tree.nwk",
               "--out", "clf.json", *FAST) == 0
    return tmp / "clf.json"


def _with_bad_row(data, tmp_path, row_no, cells):
    """A copy of the CSV whose data row ``row_no`` (the header is row 1) is replaced."""
    lines = data.read_text().splitlines()
    lines[row_no - 1] = ",".join(cells)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    return bad


def test_predict_on_nan_row_is_data_error(tmp_path, planted_csv, trained_clf, capsys):
    data, _ = planted_csv
    cells = data.read_text().splitlines()[3].split(",")
    cells[2] = "nan"
    bad = _with_bad_row(data, tmp_path, 4, cells)
    capsys.readouterr()
    assert run("--out-dir", tmp_path, "predict", "--clf", trained_clf, "--data", bad, "--out", "p.csv") == 2
    assert f"{bad}:4: column 'f2'" in capsys.readouterr().err
    assert not (tmp_path / "p.csv").exists()


def test_predict_on_ragged_row_is_data_error(tmp_path, planted_csv, trained_clf, capsys):
    data, _ = planted_csv
    cells = data.read_text().splitlines()[5].split(",")
    bad = _with_bad_row(data, tmp_path, 6, cells[:3] + cells[-1:])
    capsys.readouterr()
    assert run("--out-dir", tmp_path, "predict", "--clf", trained_clf, "--data", bad, "--out", "p.csv") == 2
    assert f"{bad}:6: expected 9 cells, got 4" in capsys.readouterr().err


def test_evaluate_on_nan_row_names_file_row_and_column(tmp_path, planted_csv, trained_clf, capsys):
    data, _ = planted_csv
    cells = data.read_text().splitlines()[9].split(",")
    cells[7] = "inf"
    bad = _with_bad_row(data, tmp_path, 10, cells)
    capsys.readouterr()
    assert run("--out-dir", tmp_path, "evaluate", "--clf", trained_clf, "--data", bad, "--out", "r.json") == 2
    assert f"{bad}:10: column 'f7'" in capsys.readouterr().err


@pytest.mark.parametrize("cell, shown", [("inf", "inf"), ("1e400", "inf"), ("-inf", "-inf"), ("nan", "nan")])
def test_predict_shows_a_non_finite_cell_as_a_plain_float(tmp_path, planted_csv, trained_clf, capsys, cell, shown):
    data, _ = planted_csv
    cells = data.read_text().splitlines()[9].split(",")
    cells[7] = cell
    bad = _with_bad_row(data, tmp_path, 10, cells)
    capsys.readouterr()
    assert run("--out-dir", tmp_path, "predict", "--clf", trained_clf, "--data", bad, "--out", "p.csv") == 2
    assert capsys.readouterr().err == f"data error: {bad}:10: column 'f7': not a finite number: {shown}\n"


@pytest.mark.parametrize("command", ["predict", "evaluate"])
def test_row_that_cannot_be_scored_is_a_data_error_naming_its_line(tmp_path, planted_csv, trained_clf, capsys,
                                                                   command):
    # at the float maximum a node's sums can overflow, so the row cannot be scored
    data, _ = planted_csv
    cells = data.read_text().splitlines()[4].split(",")
    big = repr(float(np.finfo(float).max))
    bad = _with_bad_row(data, tmp_path, 5, [big if i % 2 else "-" + big for i in range(8)] + cells[-1:])
    capsys.readouterr()
    assert run("--out-dir", tmp_path, command, "--clf", trained_clf, "--data", bad, "--out", "o") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {bad}:5: row 3 cannot be scored at node [0, 1, 2, 3]"), err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["predict", "evaluate"])
def test_non_utf8_csv_is_data_error_naming_the_file(tmp_path, planted_csv, trained_clf, capsys, command):
    data, _ = planted_csv
    bad = tmp_path / "latin1.csv"
    bad.write_bytes(data.read_bytes().replace(b"c3", "c\u00e9".encode("latin-1")))
    capsys.readouterr()
    assert run("--out-dir", tmp_path, command, "--clf", trained_clf, "--data", bad, "--out", "o") == 2
    assert f"data error: {bad}: not UTF-8" in capsys.readouterr().err


def test_predict_on_missing_file_is_data_error(tmp_path, trained_clf, capsys):
    missing = tmp_path / "missing.csv"
    capsys.readouterr()
    assert run("--out-dir", tmp_path, "predict", "--clf", trained_clf, "--data", missing, "--out", "p.csv") == 2
    assert f"cannot read {missing}" in capsys.readouterr().err


def test_predict_on_non_numeric_cell_names_file_row_and_column(tmp_path, planted_csv, trained_clf, capsys):
    data, _ = planted_csv
    cells = data.read_text().splitlines()[6].split(",")
    cells[5] = "oops"
    bad = _with_bad_row(data, tmp_path, 7, cells)
    capsys.readouterr()
    assert run("--out-dir", tmp_path, "predict", "--clf", trained_clf, "--data", bad, "--out", "p.csv") == 2
    assert f"{bad}:7: column 'f5': not a number: 'oops'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["predict", "evaluate"])
def test_cell_over_the_csv_field_limit_is_data_error(tmp_path, planted_csv, trained_clf, capsys, command):
    data, _ = planted_csv
    cells = data.read_text().splitlines()[2].split(",")
    cells[1] = cells[1] + " " * 140_000  # float would take it; csv.reader refuses it
    bad = _with_bad_row(data, tmp_path, 3, cells)
    capsys.readouterr()
    assert run("--out-dir", tmp_path, command, "--clf", trained_clf, "--data", bad, "--out", "o") == 2
    assert f"data error: {bad}:3: field larger than field limit" in capsys.readouterr().err


def test_evaluate_on_unknown_label_is_data_error(tmp_path, planted_csv, trained_clf, capsys):
    data, _ = planted_csv
    cells = data.read_text().splitlines()[2].split(",")
    cells[-1] = "c9"
    bad = _with_bad_row(data, tmp_path, 3, cells)
    capsys.readouterr()
    assert run("--out-dir", tmp_path, "evaluate", "--clf", trained_clf, "--data", bad, "--out", "r.json") == 2
    assert f"{bad}: unknown labels ['c9']" in capsys.readouterr().err


@pytest.mark.parametrize("label", ["", "a(b", '"c\n2"'], ids=["empty", "reserved", "line-break"])
@pytest.mark.parametrize("command", ["search", "train"])
def test_bad_label_cell_is_data_error_naming_file_and_row(tmp_path, capsys, command, label):
    bad = tmp_path / "bad.csv"
    bad.write_text(f"f0,label\n1.0,c1\n2.0,{label}\n")
    (tmp_path / "tree.nwk").write_text("(c1,c2)\n")
    args = ["--tree", tmp_path / "tree.nwk"] if command == "train" else []
    capsys.readouterr()
    assert run("--out-dir", tmp_path, command, "--data", bad, *args, "--out", "o.json") == 2
    assert f"data error: {bad}:3: column 'label': " in capsys.readouterr().err
    assert not (tmp_path / "o.json").exists()


def test_classifier_with_a_line_break_in_a_name_is_data_error(tmp_path, planted_csv, trained_clf, capsys):
    # its predictions and confusion CSV would hold the name across two lines
    data, _ = planted_csv
    obj = json.loads(trained_clf.read_text())
    obj["concepts"][0] = "c\n1"
    clf = tmp_path / "clf.json"
    clf.write_text(json.dumps(obj))
    capsys.readouterr()
    assert run("--out-dir", tmp_path, "evaluate", "--clf", clf, "--data", data, "--out", "r.json",
               "--confusion", "conf.csv") == 2
    assert f"data error: {clf}: bad classifier JSON: bad concept name 'c\\n1'" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["clf.json"]


def _reads(monkeypatch):
    """The files read from here on, one entry per read."""
    reads, real = [], Path.read_bytes
    monkeypatch.setattr(Path, "read_bytes", lambda self: reads.append(str(self)) or real(self))
    return reads


def test_evaluate_records_the_hash_of_the_classifier_it_read(tmp_path, planted_csv, trained_clf, monkeypatch,
                                                             capsys):
    from hierclass.serialize import sha256_of_file

    data, _ = planted_csv
    reads = _reads(monkeypatch)
    assert run("--out-dir", tmp_path, "evaluate", "--clf", trained_clf, "--data", data, "--out", "r.json") == 0
    assert reads == [str(trained_clf), str(data)]  # each file read once, and hashed as it was read
    inputs = json.loads((tmp_path / "r.json").read_text())["provenance"]["inputs"]
    assert inputs == {str(trained_clf): sha256_of_file(trained_clf), str(data): sha256_of_file(data)}


def test_provenance_takes_the_loaded_data_hash(tmp_path, planted_csv, monkeypatch, capsys):
    from hierclass.serialize import sha256_of_file

    data, _ = planted_csv
    tree, expert, arts = tmp_path / "tree.nwk", tmp_path / "expert.json", tmp_path / "arts.json"
    tree.write_text("((c1,c2),(c3,c4))\n")
    expert.write_text('[["c1", "c3"], ["c2", "c4"]]')
    assert run("--out-dir", tmp_path, "affinity", "--data", data, "--out", "aff.json", "--artifacts", arts,
               *FAST_AFF) == 0
    reads = _reads(monkeypatch)
    assert run("--out-dir", tmp_path, "train", "--data", data, "--tree", tree, "--artifacts", arts,
               "--out", "clf.json", *FAST) == 0
    assert run("--out-dir", tmp_path, "compare", "--data", data, "--derived", tree, "--expert", expert,
               "--random-samples", "0", "--train-seeds", "0", *FAST, "--out", "cmp.json") == 0
    # each file read once per command, and hashed as it was read
    assert reads == [str(data), str(tree), str(arts), str(data), str(tree), str(expert)]
    provenance = {name: json.loads((tmp_path / name).read_text())["provenance"] for name in ("clf.json", "cmp.json")}
    assert provenance["clf.json"]["inputs"] == {str(p): sha256_of_file(p) for p in (data, tree, arts)}
    assert provenance["cmp.json"]["inputs"] == {str(p): sha256_of_file(p) for p in (data, tree, expert)}


def _run_script(name, *args):
    """Run a script under the suite's warning rule: a RuntimeWarning is an error."""
    root = Path(__file__).resolve().parents[1]
    src = str(root / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(root / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )


def test_planted_pipeline_script_runs():
    proc = _run_script("run_planted_pipeline.py", "--seed", "0", "--refine-epochs", "3")
    assert proc.returncode == 0, proc.stderr
    assert "mean H-loss" in proc.stdout


def test_flat_vs_hier_script_runs():
    proc = _run_script("run_flat_vs_hier.py", "--seeds", "1", "--random-samples", "1")
    assert proc.returncode == 0, proc.stderr
    assert "mean margin over flat" in proc.stdout and "over random" in proc.stdout
    proc = _run_script("run_flat_vs_hier.py", "--seeds", "1", "--random-samples", "0")
    assert proc.returncode == 0, proc.stderr
    assert "random -" in proc.stdout and "over random" not in proc.stdout



import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hierclass.cli import main
from hierclass.synth import LabeledDataset, PlantedSpec, generate_planted, planted_spec_to_json, save_csv
from hierclass.treespace import Catalog, internal, leaf

FIXTURES = Path(__file__).parent / "fixtures"


def run(*argv):
    return main([str(a) for a in argv])


def test_count_prints_published_value(capsys):
    assert run("count", "--k", 8) == 0
    assert capsys.readouterr().out.strip() == "660032"


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
                clf = hmodel.train_hierarchical(tree, train, replace(base, seed=seed))
                values.append(float(np.mean(hmodel.predict_batch(clf, val.features) == val.labels)))
        assert row["accuracy_mean"] == float(np.mean(values)), row["method"]
        assert row["accuracy_std"] == float(np.std(values)), row["method"]


def test_derive_rejects_unknown_top_level_affinity_key(tmp_path, capsys):
    obj = json.loads((FIXTURES / "affinity_3concepts.json").read_text())
    (tmp_path / "aff.json").write_text(json.dumps({**obj, "bogus": 1}))
    assert run("--out-dir", tmp_path, "derive", "--affinity", tmp_path / "aff.json", "--out", "t.nwk") == 2
    assert "unknown keys ['bogus']" in capsys.readouterr().err


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


def test_config_file_defaults_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k": 5}))
    assert run("--config", cfg, "count") == 0
    assert capsys.readouterr().out.strip() == "236"
    assert run("--config", cfg, "count", "--k", 3) == 0
    assert capsys.readouterr().out.strip() == "4"


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k": 5, "bogus": 1}))
    assert run("--config", cfg, "count") == 2
    assert "bogus" in capsys.readouterr().err


def test_config_file_rejects_removed_threads_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k": 5, "threads": 2}))
    assert run("--config", cfg, "count") == 2
    assert "threads" in capsys.readouterr().err


FAST_AFF = ["--pretrain-epochs", "15", "--warmup-epochs", "5", "--finetune-epochs", "2",
            "--budget", "20", "--hidden-dim", "8", "--latent-dim", "2", "--freeze-encoder"]


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
        finetune=SgdConfig(epochs=2, batch_size=16, learning_rate=0.02),
        budget=20,
        freeze_encoder=True,
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
               "--hidden-dim", "8", "--latent-dim", "2", "--min-examples", "12",
               "--freeze-encoder") == 0
    defaults = AffinityConfig()
    used = replace(
        defaults,
        encoder=replace(defaults.encoder, hidden_dim=8, latent_dim=2),
        pretrain=replace(defaults.pretrain, epochs=5),
        warmup=replace(defaults.warmup, epochs=4),
        budget=20, min_examples=12, freeze_encoder=True, seed=3,
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


def test_evaluate_on_unknown_label_is_data_error(tmp_path, planted_csv, trained_clf, capsys):
    data, _ = planted_csv
    cells = data.read_text().splitlines()[2].split(",")
    cells[-1] = "c9"
    bad = _with_bad_row(data, tmp_path, 3, cells)
    capsys.readouterr()
    assert run("--out-dir", tmp_path, "evaluate", "--clf", trained_clf, "--data", bad, "--out", "r.json") == 2
    assert f"{bad}: unknown labels ['c9']" in capsys.readouterr().err


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


def test_segment_cli(tmp_path):
    stream = tmp_path / "stream.csv"
    rng = np.random.default_rng(0)
    lines = ["ch0,ch1,label"]
    for t in range(120):
        label = "walk" if t < 60 else "run"
        base = 0.0 if t < 60 else 4.0
        lines.append(f"{base + rng.normal()!r},{base + rng.normal()!r},{label}")
    stream.write_text("\n".join(lines) + "\n")
    assert run("--out-dir", tmp_path, "segment", "--input", stream,
               "--window", "20", "--stride", "10", "--out", "seg.csv") == 0
    seg = (tmp_path / "seg.csv").read_text().splitlines()
    assert seg[0] == "f0,f1,f2,f3,f4,f5,f6,f7,label"
    assert len(seg) > 2

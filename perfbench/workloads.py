"""The three benchmark workloads.

Each workload derives its inputs from the run seed, calls the library only
through module attributes looked up at call time (so the tracer's wrappers
see every call), and checks its own outputs. Library settings are the
library defaults, single-threaded.
"""

from __future__ import annotations

import contextlib
import io
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from hierclass import affinity, cli, derive, hmodel, metrics, serialize, synth, treespace
from hierclass.treespace import Catalog, internal, leaf

K8_CATALOG = Catalog(tuple(f"c{i}" for i in range(8)))
K8_TREE = internal(
    [
        internal([internal([leaf(0), leaf(1)]), internal([leaf(2), leaf(3)])]),
        internal([internal([leaf(4), leaf(5)]), internal([leaf(6), leaf(7)])]),
    ]
)
# acceptance criterion 08: separation ratio 2, overlapping siblings
K8_SPEC = synth.PlantedSpec(
    catalog=K8_CATALOG, tree=K8_TREE, feature_dim=12, per_concept=200,
    level_offsets=(4.0, 2.0, 1.0), noise=1.0,
)
# acceptance pair spec: two tight concept pairs
K4_CATALOG = Catalog(("A", "B", "C", "D"))
K4_TREE = internal([internal([leaf(0), leaf(1)]), internal([leaf(2), leaf(3)])])
K4_SPEC = synth.PlantedSpec(
    catalog=K4_CATALOG, tree=K4_TREE, feature_dim=10, per_concept=200,
    level_offsets=(9.0, 3.0), noise=2.0,
)
SCORE_ROWS = 100_000
SCORE_SHARDS = 20  # CSV files of 5,000 rows each
SCORE_REPEATS = 7  # predict/evaluate repeats when scoring outside the timed region


class Checks:
    """Operations and output checks attempted, and which of them failed."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.last_op = ""

    def check(self, name: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(name)
        return ok

    def op(self, name: str, fn, *args, **kwargs):
        """Run one library operation. One that raises ends the run's loop and
        is recorded there as a failure."""
        self.attempted += 1
        self.last_op = name
        return fn(*args, **kwargs)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def same_digests(self, seen: dict, key, digests: dict) -> None:
        """Digests of one input must repeat exactly on every later visit."""
        if key in seen:
            for name, value in digests.items():
                self.check(f"{name} digest repeats for input {key}", seen[key][name] == value)
        else:
            seen[key] = dict(digests)


@dataclass
class Result:
    """What one iteration produced, as read by its checks."""

    steps: dict[str, float]
    quality: dict[str, float] = field(default_factory=dict)
    rows: dict[str, int] = field(default_factory=dict)


class Workload:
    """One workload; why it was chosen is recorded in BENCHMARK.json."""

    name: str = ""
    n_inputs: int = 1

    def input_seeds(self, seed: int) -> list[int]:
        # disjoint across run seeds; input seeds of run seed 0 are 0..n-1
        return [seed * self.n_inputs + i for i in range(self.n_inputs)]

    def setup(self, seed: int, workdir: Path) -> list:
        raise NotImplementedError

    def warm_up(self, inputs, checks: Checks) -> None:
        pass

    def execute(self, inp, checks: Checks) -> dict:
        """The timed region: library calls only, outputs returned unchecked.
        A workload timed in several parts returns the start and end of each
        as ``parts``."""
        raise NotImplementedError

    def verify(self, inp, out: dict, checks: Checks, seen: dict) -> Result:
        """Check one iteration's outputs, outside the timed region."""
        raise NotImplementedError

    def score(self, inp, checks: Checks) -> dict[str, float]:
        """Extra scoring outside the timed region (none by default)."""
        return {}


@dataclass
class SplitInput:
    seed: int
    train: synth.LabeledDataset
    val: synth.LabeledDataset
    state: dict = field(default_factory=dict)


def _split_inputs(spec, seeds) -> list[SplitInput]:
    out = []
    for s in seeds:
        data = synth.generate_planted(spec, s)
        train, val = synth.split(data, (0.7, 0.3), seed=s, stratified=True)
        out.append(SplitInput(s, train, val))
    return out


class PipelineK8(Workload):
    name = "pipeline-k8"
    n_inputs = 3

    def setup(self, seed, workdir):
        return _split_inputs(K8_SPEC, self.input_seeds(seed))

    def execute(self, inp, checks):
        s, train, val = inp.seed, inp.train, inp.val
        t = [time.perf_counter()]
        artifacts = checks.op("build_affinity_artifacts", affinity.build_affinity_artifacts,
                              train, affinity.AffinityConfig(seed=s))
        t.append(time.perf_counter())
        derived = checks.op("derive_hierarchy", derive.derive_hierarchy, artifacts.matrix,
                            derive.LinkageParams(preset="average"), tau=0.5)
        t.append(time.perf_counter())
        cfg = hmodel.HierTrainConfig(seed=s, rep_mode="keep")
        clf = checks.op("train_hierarchical", hmodel.train_hierarchical, derived.tree, train, cfg,
                        artifacts=artifacts)
        t.append(time.perf_counter())
        orth = checks.op("refine_global(0.1)", hmodel.refine_global, clf, train, lambda_orth=0.1, epochs=10)
        plain = checks.op("refine_global(0)", hmodel.refine_global, clf, train, lambda_orth=0.0, epochs=10)
        t.append(time.perf_counter())
        flat = checks.op("train_flat_baseline", hmodel.train_flat_baseline, train, cfg,
                         target_params=hmodel.parameter_count(clf))
        t.append(time.perf_counter())
        preds = checks.op("predict_batch", hmodel.predict_batch, orth.classifier, val.features)
        t.append(time.perf_counter())
        report = checks.op("evaluate", metrics.evaluate, orth.classifier, val)
        t.append(time.perf_counter())
        names = ("affinity", "derive", "train", "refine", "flat_baseline", "predict", "evaluate")
        return {
            "steps": {name: b - a for name, a, b in zip(names, t, t[1:])},
            "artifacts": artifacts, "derived": derived, "clf": clf, "orth": orth, "plain": plain,
            "flat": flat, "preds": preds, "report": report,
        }

    def verify(self, inp, out, checks, seen):
        val, clf, orth, report = inp.val, out["clf"], out["orth"], out["report"]
        k = len(val.catalog)
        checks.check("affinity covers K(K-1) ordered pairs", len(out["artifacts"].matrix.records) == k * (k - 1))
        checks.check("flat baseline within 10% of the hierarchical parameter count",
                     abs(out["flat"].parameter_count - hmodel.parameter_count(clf))
                     <= 0.1 * hmodel.parameter_count(clf))
        checks.check("evaluate accuracy matches predict_batch",
                     report.accuracy == float(np.mean(out["preds"] == val.labels)))
        history = orth.objective_history
        checks.check("orthogonality refinement never increases its objective",
                     all(b <= a for a, b in zip(history, history[1:])))
        checks.same_digests(seen, inp.seed, {
            "affinity_to_json": serialize.sha256_of_json(affinity.affinity_to_json(out["artifacts"].matrix)),
            "classifier_to_json(refined orth)": serialize.sha256_of_json(hmodel.classifier_to_json(orth.classifier)),
            "classifier_to_json(refined plain)": serialize.sha256_of_json(hmodel.classifier_to_json(out["plain"].classifier)),
            "classifier_to_json(flat)": serialize.sha256_of_json(hmodel.classifier_to_json(out["flat"].classifier)),
        })
        quality = {
            "accuracy": report.accuracy,
            "h_loss": report.mean_h_loss,
            "planted_agreement": metrics.hierarchy_agreement(out["derived"].tree, K8_TREE),
        }
        return Result(out["steps"], quality, {"predict": len(val), "evaluate": len(val)})


class SearchK4(Workload):
    name = "search-k4"
    n_inputs = 2

    def setup(self, seed, workdir):
        return _split_inputs(K4_SPEC, self.input_seeds(seed))

    def execute(self, inp, checks):
        t0 = time.perf_counter()
        result = checks.op("exhaustive_search", hmodel.exhaustive_search, inp.train, inp.val,
                           hmodel.HierTrainConfig(seed=inp.seed), metric="accuracy", cap=5)
        return {"steps": {"exhaustive_search": time.perf_counter() - t0}, "result": result}

    def verify(self, inp, out, checks, seen):
        result = out["result"]
        table = [[treespace.tree_to_text(tree, inp.train.catalog), score] for tree, score in result.table]
        best = max(score for _, score in result.table)
        checks.check("search table has count_hierarchies(4) rows",
                     len(result.table) == treespace.count_hierarchies(4))
        checks.check("best tree has the highest score", dict(result.table)[result.best_tree] == best)
        checks.same_digests(seen, inp.seed, {"search table": serialize.sha256_of_json(table)})
        inp.state.update(best_tree=result.best_tree, best_score=best)
        quality = {
            "accuracy": best,
            "planted_agreement": metrics.hierarchy_agreement(result.best_tree, K4_TREE),
        }
        return Result(out["steps"], quality)

    def score(self, inp, checks):
        """Retrain the best tree (deterministic, so its accuracy must match
        the table) and time predict and evaluate on the validation split."""
        cfg = hmodel.HierTrainConfig(seed=inp.seed)
        clf = checks.op("train_hierarchical(best)", hmodel.train_hierarchical, inp.state["best_tree"],
                        inp.train, cfg)
        predict_t, evaluate_t = [], []
        for _ in range(SCORE_REPEATS):
            t0 = time.perf_counter()
            preds = checks.op("predict_batch", hmodel.predict_batch, clf, inp.val.features)
            t1 = time.perf_counter()
            report = checks.op("evaluate", metrics.evaluate, clf, inp.val)
            predict_t.append(t1 - t0)
            evaluate_t.append(time.perf_counter() - t1)
        checks.check("retrained best tree reproduces its search score",
                     report.accuracy == inp.state["best_score"] == float(np.mean(preds == inp.val.labels)))
        return {
            "h_loss": report.mean_h_loss,
            "predict_rows_per_s": len(inp.val) / float(np.median(predict_t)),
            "evaluate_rows_per_s": len(inp.val) / float(np.median(evaluate_t)),
        }


@dataclass
class ScoreInput:
    seed: int
    tree: object
    truth: list[np.ndarray]  # labels of each shard
    clf_path: Path
    shards: list[Path]
    workdir: Path


class Score100k(Workload):
    """100,000 rows split over SCORE_SHARDS CSV files; each iteration runs
    predict then evaluate on every file. A file's pair of calls is one timed
    part, so a run holds many short samples."""

    name = "score-100k"
    n_inputs = 1

    def setup(self, seed, workdir):
        workdir.mkdir(parents=True, exist_ok=True)
        data = synth.generate_planted(K8_SPEC, seed)
        clf = hmodel.train_hierarchical(K8_TREE, data, hmodel.HierTrainConfig(seed=seed))
        clf_path = workdir / "classifier.json"
        serialize.atomic_write_json(clf_path, hmodel.classifier_to_json(clf))
        # same seed, hence the same centroids, with more rows per concept
        big = synth.generate_planted(replace(K8_SPEC, per_concept=SCORE_ROWS // len(K8_CATALOG)), seed)
        shards, truth = [], []
        for j in range(SCORE_SHARDS):
            # every SCORE_SHARDS-th row, so each shard holds every concept equally
            part = synth.LabeledDataset(big.features[j::SCORE_SHARDS], big.labels[j::SCORE_SHARDS], big.catalog)
            shards.append(workdir / f"score{j:02d}.csv")
            synth.save_csv(part, shards[-1])
            truth.append(part.labels.copy())
        return [ScoreInput(seed, clf.tree, truth, clf_path, shards, workdir)]

    def _cli(self, inp, command, data, out):
        argv = ["--out-dir", str(inp.workdir), command, "--clf", str(inp.clf_path),
                "--data", str(data), "--out", out]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def warm_up(self, inputs, checks):
        # the first predict in a process is slower; users scoring repeatedly
        # do not pay that, so it stays out of the timed region
        inp = inputs[0]
        checks.check("warm-up cli predict exits 0",
                     checks.op("cli predict", self._cli, inp, "predict", inp.shards[0], "warmup.csv") == 0)

    def execute(self, inp, checks):
        parts, rcs = {}, []
        predict_s = evaluate_s = 0.0
        for j, data in enumerate(inp.shards):
            t0 = time.perf_counter()
            rc_predict = checks.op("cli predict", self._cli, inp, "predict", data, f"predictions{j:02d}.csv")
            t1 = time.perf_counter()
            rc_evaluate = checks.op("cli evaluate", self._cli, inp, "evaluate", data, f"report{j:02d}.json")
            t2 = time.perf_counter()
            predict_s += t1 - t0
            evaluate_s += t2 - t1
            parts[j] = (t0, t2)
            rcs.append((rc_predict, rc_evaluate))
        return {"steps": {"predict": predict_s, "evaluate": evaluate_s}, "parts": parts, "rcs": rcs}

    def verify(self, inp, out, checks, seen):
        k = len(K8_CATALOG)
        table = np.array([[metrics.h_loss(inp.tree, p, t) for p in range(k)] for t in range(k)])
        checks.check("cli predict exits 0 on every shard", all(rc == 0 for rc, _ in out["rcs"]))
        checks.check("cli evaluate exits 0 on every shard", all(rc == 0 for _, rc in out["rcs"]))
        all_preds, all_truth, pred_digests, report_digests = [], [], [], []
        for j, truth in enumerate(inp.truth):
            pred_path = inp.workdir / f"predictions{j:02d}.csv"
            lines = pred_path.read_text(encoding="utf-8").splitlines()
            names = lines[1:]
            checks.check(f"predictions CSV header, shard {j}", lines[:1] == ["prediction"])
            checks.check(f"one label per row, shard {j}", len(names) == len(truth))
            in_catalog = set(names) <= set(K8_CATALOG.names)
            checks.check(f"predicted labels are in the catalog, shard {j}", in_catalog)
            report = serialize.load_json(inp.workdir / f"report{j:02d}.json")
            if in_catalog and len(names) == len(truth):
                preds = np.array([K8_CATALOG.id_of(n) for n in names])
                checks.check(f"accuracy from predict equals evaluate accuracy, shard {j}",
                             float(np.mean(preds == truth)) == report["accuracy"])
                checks.check(f"evaluate mean_h_loss equals the mean over the K x K h_loss table, shard {j}",
                             float(np.mean(table[truth, preds])) == report["mean_h_loss"])
                all_preds.append(preds)
                all_truth.append(truth)
            report.pop("provenance", None)  # holds checkout paths
            pred_digests.append(serialize.sha256_of_file(pred_path))
            report_digests.append(serialize.sha256_of_json(report))
        preds = np.concatenate(all_preds) if all_preds else np.zeros(0, dtype=int)
        truth = np.concatenate(all_truth) if all_truth else np.zeros(0, dtype=int)
        checks.check("predict returns 100,000 labels", len(preds) == SCORE_ROWS)
        checks.same_digests(seen, inp.seed, {
            "predictions CSVs": serialize.sha256_of_json(pred_digests),
            "evaluate reports": serialize.sha256_of_json(report_digests),
        })
        quality = {
            "accuracy": float(np.mean(preds == truth)) if len(preds) else 0.0,
            "h_loss": float(np.mean(table[truth, preds])) if len(preds) else 0.0,
            "planted_agreement": metrics.hierarchy_agreement(inp.tree, K8_TREE),
        }
        return Result(out["steps"], quality, {"predict": SCORE_ROWS, "evaluate": SCORE_ROWS})


WORKLOADS = {w.name: w for w in (PipelineK8(), SearchK4(), Score100k())}

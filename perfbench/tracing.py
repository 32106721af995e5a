"""Spans and counters recorded from outside the hierclass package.

While a :class:`Tracer` is installed, selected module attributes of
hierclass are replaced by wrappers. A wrapped function records one span per
call (name, start, end, parent span, trace id and a few call attributes); a
per-row function only bumps a counter, because a span per call would cost
more than the call. Every span of a run carries the run's trace id; spans
are also grouped under top-level roots (one per set-up repetition and per
traced iteration). Uninstalling puts the original attributes back, so an
untraced iteration runs unmodified library code.

Wrappers patch the attribute that the *caller* looks up. ``hmodel`` imports
``train_autoencoder``, ``fine_tune`` and ``h_loss`` by name, so those are
patched on ``hmodel`` as well as on their home modules; the two bindings
get different span names, which is how a pretrain reached from affinity is
told apart from a scratch node encoder.

Self time of a span is its duration minus the durations of its direct
children. Calls are serial, so children never overlap.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import json
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYERS = ("synth", "treespace", "nets", "affinity", "derive", "hmodel", "metrics", "serialize", "cli")


def _rows(x) -> int:
    return int(np.atleast_2d(np.asarray(x)).shape[0])


def _digest(*arrays) -> str:
    h = hashlib.sha1()
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        h.update(str(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def _mlp_arrays(mlp):
    return [a for layer in mlp.layers for a in (layer.weights, layer.bias)]


def _reconstruction_attrs(args, kwargs, result):
    # train_reconstruction(encoder, decoder, x, cfg, rng, update_encoder=True)
    x, cfg = args[2], args[3]
    update = kwargs.get("update_encoder", args[5] if len(args) > 5 else True)
    n = _rows(x)
    return {"update_encoder": bool(update), "steps": cfg.epochs * -(-n // cfg.batch_size)}


def _autoencoder_key(args, kwargs, result):
    # train_autoencoder(data, cfg, seed): the result is a pure function of these
    data, cfg = args[0], args[1]
    seed = kwargs.get("seed", args[2] if len(args) > 2 else None)
    return {"key": _digest(data) + repr((cfg, seed))}


def _erm_key(args, kwargs, result):
    # train_node_erm(encoder, features, child_idx, n_children, cfg, seed)
    encoder, features, child_idx, n_children, cfg = args[:5]
    seed = kwargs.get("seed", args[5] if len(args) > 5 else None)
    return {"key": _digest(features, child_idx, *_mlp_arrays(encoder)) + repr((n_children, cfg, seed))}


def _refine_attrs(args, kwargs, result):
    lam = kwargs.get("lambda_orth", args[2] if len(args) > 2 else 0.1)
    return {"variant": "orth" if lam != 0.0 else "plain"}


# (module, attribute, span name, attribute extractor or None)
SPAN_TARGETS = (
    ("hierclass.affinity", "build_affinity_artifacts", "affinity.build",
     lambda a, k, r: {"pairs": len(r.matrix.records)}),
    ("hierclass.affinity", "train_autoencoder", "affinity.train_autoencoder", None),
    ("hierclass.affinity", "scratch_reference", "affinity.scratch_reference", None),
    ("hierclass.affinity", "fine_tune", "affinity.fine_tune", None),
    ("hierclass.affinity", "train_reconstruction", "nets.train_reconstruction", _reconstruction_attrs),
    ("hierclass.derive", "derive_hierarchy", "derive.derive_hierarchy", None),
    ("hierclass.hmodel", "train_hierarchical", "hmodel.train_hierarchical", None),
    ("hierclass.hmodel", "train_autoencoder", "hmodel.train_autoencoder", _autoencoder_key),
    ("hierclass.hmodel", "train_node_erm", "hmodel.train_node_erm", _erm_key),
    ("hierclass.hmodel", "fine_tune", "hmodel.fine_tune", None),
    ("hierclass.hmodel", "train_flat_baseline", "hmodel.train_flat_baseline", None),
    ("hierclass.hmodel", "refine_global", "hmodel.refine_global", _refine_attrs),
    ("hierclass.hmodel", "_objective_on_params", "hmodel.objective", None),
    ("hierclass.hmodel", "exhaustive_search", "hmodel.exhaustive_search", None),
    ("hierclass.hmodel", "enumerate_hierarchies", "treespace.enumerate_hierarchies",
     lambda a, k, r: {"trees": len(r)}),
    ("hierclass.hmodel", "predict_batch", "hmodel.predict_batch",
     lambda a, k, r: {"rows": _rows(a[1])}),
    ("hierclass.hmodel", "classifier_from_json", "hmodel.classifier_from_json", None),
    ("hierclass.metrics", "evaluate", "metrics.evaluate", None),
    ("hierclass.synth", "generate_planted", "synth.generate_planted", None),
    ("hierclass.synth", "save_csv", "synth.save_csv", None),
    ("hierclass.synth", "load_csv", "synth.load_csv", None),
    ("hierclass.cli", "main", "cli.main", None),
    ("hierclass.cli", "_read_feature_csv", "cli.read_feature_csv", None),
    ("hierclass.cli", "atomic_write_text", "serialize.atomic_write", None),
    ("hierclass.cli", "atomic_write_json", "serialize.atomic_write", None),
)

# (module, attribute, counter name): per-row functions, counted not spanned
COUNTER_TARGETS = (
    ("hierclass.metrics", "h_loss", "metrics.h_loss_calls"),
    ("hierclass.hmodel", "h_loss", "metrics.h_loss_calls"),
)


class Tracer:
    """In-memory span and counter recorder for one benchmark run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counters: dict[tuple[str, str], int] = defaultdict(int)
        self.unwrapped: set[str] = set()  # targets the library no longer has
        self._stack: list[int] = []
        self._root: str | None = None
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _open(self, name: str) -> int:
        span = {
            "name": name,
            "root": self._root,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, index: int, end: float, attrs: dict | None = None) -> None:
        self.spans[index]["end"] = end
        if attrs:
            self.spans[index].update(attrs)
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, name: str, root_id: str):
        """One top-level span: a set-up repetition or a traced iteration."""
        self._root = root_id
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index, time.perf_counter())
            self._root = None

    def _span_wrapper(self, fn, name, extract):
        tracer = self

        def wrapped(*args, **kwargs):
            index = tracer._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()  # attribute extraction (hashing) stays outside the span
                attrs = extract(args, kwargs, result) if extract is not None and result is not None else None
                tracer._close(index, end, attrs)

        wrapped.__wrapped__ = fn
        return wrapped

    def _counter_wrapper(self, fn, name):
        counters = self.counters
        tracer = self

        def wrapped(*args, **kwargs):
            counters[(tracer._root, name)] += 1
            return fn(*args, **kwargs)

        wrapped.__wrapped__ = fn
        return wrapped

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        targets = [(m, a, self._span_wrapper, (n, x)) for m, a, n, x in SPAN_TARGETS]
        targets += [(m, a, self._counter_wrapper, (n,)) for m, a, n in COUNTER_TARGETS]
        for module_name, attr, wrap, extra in targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                # a renamed or removed boundary reads as zero; the run lists it
                self.unwrapped.add(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, wrap(original, *extra))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- output --------------------------------------------------------------

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps({"trace_id": self.run_id, "id": i, **span}) + "\n")
            for (root, name), value in sorted(self.counters.items(), key=lambda kv: (str(kv[0][0]), kv[0][1])):
                fh.write(json.dumps({"trace_id": self.run_id, "root": root, "counter": name, "value": value}) + "\n")


# ---------------------------------------------------------------------------
# analysis


def _duration(span) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> list[float]:
    child_total = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_total[span["parent"]] += _duration(span)
    return [_duration(s) - c for s, c in zip(spans, child_total)]


def layer_breakdown(spans: list[dict], root_name: str) -> dict:
    """Self time per layer inside the root spans named ``root_name``.

    Root self time is what no named span covers: benchmark glue plus
    library code outside the wrapped boundaries.
    """
    own = self_times(spans)
    roots = {s["root"] for s in spans if s["name"] == root_name and s["parent"] is None}
    total = sum(_duration(s) for s in spans if s["name"] == root_name and s["parent"] is None)
    by_layer = {layer: 0.0 for layer in LAYERS}
    uncovered = 0.0
    for span, t in zip(spans, own):
        if span["root"] not in roots:
            continue
        if span["parent"] is None:
            uncovered += t
        else:
            by_layer[span["name"].split(".", 1)[0]] += t
    shares = {layer: (t / total if total else 0.0) for layer, t in by_layer.items()}
    largest = max(by_layer, key=lambda layer: by_layer[layer])
    return {
        "root_s": total,
        "self_s": by_layer,
        "self_share": shares,
        "uncovered_s": uncovered,
        "uncovered_share": uncovered / total if total else 0.0,
        "largest_layer": largest,
    }


def layer_metrics(tracer: Tracer, iteration_root: str, setup_root: str) -> dict[str, float]:
    """The per-layer metric values, each averaged per traced iteration
    (``synth.*`` set-up metrics per set-up repetition)."""
    spans = tracer.spans
    parent_name = [None if s["parent"] is None else spans[s["parent"]]["name"] for s in spans]
    iter_roots = [s["root"] for s in spans if s["name"] == iteration_root and s["parent"] is None]
    setup_roots = [s["root"] for s in spans if s["name"] == setup_root and s["parent"] is None]
    in_iter = set(iter_roots)
    in_setup = set(setup_roots)
    n_iter = max(1, len(iter_roots))
    n_setup = max(1, len(setup_roots))

    def select(name, where=None, roots=in_iter):
        return [
            (s, p)
            for s, p in zip(spans, parent_name)
            if s["name"] == name and s["root"] in roots and (where is None or where(s, p))
        ]

    def seconds(name, where=None, roots=in_iter, per=n_iter):
        return sum(_duration(s) for s, _ in select(name, where, roots)) / per

    def total(name, field, where=None):
        return sum(s.get(field, 0) for s, _ in select(name, where)) / n_iter

    def count(name, where=None):
        return len(select(name, where)) / n_iter

    def repeat_ratio(name):
        # per iteration: calls whose exact inputs were already seen / calls
        ratios = []
        for root in iter_roots:
            keys = [s["key"] for s, _ in select(name, roots={root}) if "key" in s]
            if keys:
                ratios.append((len(keys) - len(set(keys))) / len(keys))
        return sum(ratios) / len(ratios) if ratios else 0.0

    warm = lambda s, p: s.get("update_encoder") is False  # noqa: E731
    joint = lambda s, p: s.get("update_encoder") is True and p in ("affinity.fine_tune", "hmodel.fine_tune")  # noqa: E731
    pre = lambda s, p: p in ("affinity.train_autoencoder", "hmodel.train_autoencoder")  # noqa: E731
    orth = lambda s, p: s.get("variant") == "orth"  # noqa: E731
    plain = lambda s, p: s.get("variant") == "plain"  # noqa: E731
    under = lambda variant: (lambda s, p: p == "hmodel.refine_global" and spans[s["parent"]].get("variant") == variant)  # noqa: E731

    predict_s = seconds("hmodel.predict_batch")
    predict_rows = total("hmodel.predict_batch", "rows")
    h_loss_calls = sum(v for (root, name), v in tracer.counters.items() if root in in_iter and name == "metrics.h_loss_calls")

    out = {
        "affinity.build_s": seconds("affinity.build"),
        "affinity.pairs": total("affinity.build", "pairs"),
        "affinity.pretrain_s": seconds("affinity.train_autoencoder"),
        "affinity.reference_s": seconds("affinity.scratch_reference"),
        "affinity.transfer_s": seconds("affinity.fine_tune", lambda s, p: p == "affinity.build"),
        "nets.warmup_s": seconds("nets.train_reconstruction", warm),
        "nets.warmup_steps": total("nets.train_reconstruction", "steps", warm),
        "nets.joint_s": seconds("nets.train_reconstruction", joint),
        "nets.joint_steps": total("nets.train_reconstruction", "steps", joint),
        "nets.pretrain_s": seconds("nets.train_reconstruction", pre),
        "nets.pretrain_steps": total("nets.train_reconstruction", "steps", pre),
        "hmodel.scratch_encoders": count("hmodel.train_autoencoder"),
        "hmodel.scratch_encoder_s": seconds("hmodel.train_autoencoder"),
        "hmodel.scratch_encoder_repeat_ratio": repeat_ratio("hmodel.train_autoencoder"),
        "hmodel.erms": count("hmodel.train_node_erm"),
        "hmodel.erm_s": seconds("hmodel.train_node_erm"),
        "hmodel.erm_repeat_ratio": repeat_ratio("hmodel.train_node_erm"),
        "hmodel.union_tune_s": seconds("hmodel.fine_tune"),
        "hmodel.flat_baseline_s": seconds("hmodel.train_flat_baseline"),
        "hmodel.refine_s.orth": seconds("hmodel.refine_global", orth),
        "hmodel.refine_s.plain": seconds("hmodel.refine_global", plain),
        "hmodel.objective_evals.orth": count("hmodel.objective", under("orth")),
        "hmodel.objective_evals.plain": count("hmodel.objective", under("plain")),
        "hmodel.predict_batch_s": predict_s,
        "hmodel.predict_rows_per_s": predict_rows / predict_s if predict_s else 0.0,
        "hmodel.classifier_load_s": seconds("hmodel.classifier_from_json"),
        "metrics.evaluate_s": seconds("metrics.evaluate"),
        "metrics.h_loss_calls": h_loss_calls / n_iter,
        "synth.load_csv_s": seconds("synth.load_csv"),
        "cli.read_features_s": seconds("cli.read_feature_csv"),
        "serialize.write_s": seconds("serialize.atomic_write"),
        "derive.derive_s": seconds("derive.derive_hierarchy"),
        "treespace.enumerate_s": seconds("treespace.enumerate_hierarchies"),
        "treespace.trees": total("treespace.enumerate_hierarchies", "trees"),
        "synth.generate_s": seconds("synth.generate_planted", roots=in_setup, per=n_setup),
        "synth.save_csv_s": seconds("synth.save_csv", roots=in_setup, per=n_setup),
    }
    breakdown = layer_breakdown(spans, iteration_root)
    for layer, share in breakdown["self_share"].items():
        out[f"self_share.{layer}"] = share
    out["self_share.uncovered"] = breakdown["uncovered_share"]
    return out

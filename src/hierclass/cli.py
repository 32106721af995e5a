"""Command-line pipeline driver.

Subcommands cover the full flow: count/enumerate the tree space, make
planted data, build the affinity matrix, derive a hierarchy, train and
refine classifiers, predict, evaluate, search the tree space exhaustively,
and compare derived/expert/random hierarchies. Artifacts are JSON/CSV/
Newick/DOT files written atomically; JSON artifacts embed a provenance
block (command, resolved config, seed, input hashes) sufficient to re-run
them. Flag defaults are the library's: each one is read from
``AffinityConfig()`` or ``HierTrainConfig()``. Exit codes: 0 success,
1 usage error, 2 data error, 3 numeric error.
"""

from __future__ import annotations

import argparse
import decimal
import functools
import hashlib
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import affinity as aff
from . import derive as drv
from . import hmodel, metrics, synth, treespace
from .errors import DataError, NumericError, UnscorableRowError
from .serialize import JSON_READERS, atomic_write_json, atomic_write_text, load_json, read_bytes


_AFFINITY = aff.AffinityConfig()
_TRAIN = hmodel.HierTrainConfig()


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_training_flags(p) -> None:
    """The node-training flags shared by train, search and compare."""
    p.add_argument("--hidden-dim", type=int, default=_TRAIN.encoder.hidden_dim)
    p.add_argument("--latent-dim", type=int, default=_TRAIN.encoder.latent_dim)
    p.add_argument("--pretrain-epochs", type=int, default=_TRAIN.pretrain.epochs)
    p.add_argument("--erm-epochs", type=int, default=_TRAIN.erm.epochs)


@functools.cache  # one per process: building it costs far more than a parse
def _build_parser() -> _Parser:
    parser = _Parser(prog="hierclass", description=__doc__)
    parser.add_argument("--config", help="JSON file of option defaults; flags override")
    parser.add_argument("--seed", type=int, default=_AFFINITY.seed)
    parser.add_argument("--out-dir", default=".", help="directory for emitted artifacts")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="number of hierarchies over k concepts")
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("enumerate", help="all hierarchies over the given concepts")
    p.add_argument("--concepts", required=True, help="comma-separated concept names")
    p.add_argument("--cap", type=int, default=treespace.DEFAULT_ENUMERATION_CAP)
    p.add_argument("--out", help="write one Newick tree per line")

    p = sub.add_parser("synth", help="generate a planted-hierarchy dataset")
    p.add_argument("--spec", required=True, help="planted-spec JSON file")
    p.add_argument("--out", required=True, help="output CSV")

    p = sub.add_parser("affinity", help="build the transfer-affinity matrix")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="affinity JSON")
    p.add_argument("--artifacts", help="also save trained encoders for reuse by train")
    p.add_argument("--distance-csv", help="export the symmetrized distance matrix")
    p.add_argument("--budget", type=int, default=_AFFINITY.budget)
    p.add_argument("--b-max", type=int, default=_AFFINITY.b_max)
    p.add_argument("--alpha", type=float, default=_AFFINITY.alpha)
    p.add_argument("--beta", type=float, default=_AFFINITY.beta)
    p.add_argument("--hidden-dim", type=int, default=_AFFINITY.encoder.hidden_dim)
    p.add_argument("--latent-dim", type=int, default=_AFFINITY.encoder.latent_dim)
    p.add_argument("--min-examples", type=int, default=_AFFINITY.min_examples)
    p.add_argument("--pretrain-epochs", type=int, default=_AFFINITY.pretrain.epochs)
    p.add_argument("--warmup-epochs", type=int, default=_AFFINITY.warmup.epochs)

    p = sub.add_parser("derive", help="derive a hierarchy from an affinity matrix")
    p.add_argument("--affinity", required=True)
    p.add_argument("--tau", type=float, default=0.5)
    p.add_argument("--linkage", choices=drv.PRESETS, default="average")
    p.add_argument("--out", required=True, help="derived tree (Newick)")
    p.add_argument("--tree-json", help="derived tree as JSON with provenance")
    p.add_argument("--dendrogram", help="dendrogram JSON")
    p.add_argument("--dot", help="dendrogram DOT file")

    p = sub.add_parser("train", help="train a hierarchical classifier")
    p.add_argument("--data", required=True)
    p.add_argument("--tree", required=True, help="hierarchy file (Newick or JSON)")
    p.add_argument("--out", required=True, help="classifier JSON")
    p.add_argument("--artifacts", help="affinity artifacts JSON (reuses encoders)")
    _add_training_flags(p)
    p.add_argument("--refine-epochs", type=int, default=0)
    p.add_argument("--lambda-orth", type=float, default=hmodel.DEFAULT_LAMBDA_ORTH)

    p = sub.add_parser("predict", help="classify rows of a CSV")
    p.add_argument("--clf", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--label-col", default="label")
    p.add_argument("--out", required=True, help="predictions CSV")

    p = sub.add_parser("evaluate", help="full evaluation report")
    p.add_argument("--clf", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="report JSON")
    p.add_argument("--csv", help="summary CSV")
    p.add_argument("--confusion", help="confusion matrix CSV")

    p = sub.add_parser("search", help="train and rank every hierarchy")
    p.add_argument("--data", required=True)
    p.add_argument("--val-fraction", type=float, default=0.3)
    p.add_argument("--cap", type=int, default=5)
    _add_training_flags(p)
    p.add_argument("--out", required=True, help="score table CSV")

    p = sub.add_parser("compare", help="derived vs expert vs random hierarchies")
    p.add_argument("--data", required=True)
    p.add_argument("--derived", required=True, help="derived tree file")
    p.add_argument("--expert", required=True, help="expert tree file")
    p.add_argument("--random-samples", type=int, default=3)
    p.add_argument("--train-seeds", default="0,1,2", help="comma-separated seeds")
    p.add_argument("--val-fraction", type=float, default=0.3)
    _add_training_flags(p)
    p.add_argument("--out", required=True, help="comparison JSON")
    return parser


@functools.cache
def _pre_parser() -> argparse.ArgumentParser:
    """The global flags, then the command: enough to find a ``--config``
    file and the command it applies to. One per process, like the parser."""
    pre = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    for flag in ("--config", "--seed", "--out-dir"):
        pre.add_argument(flag)
    pre.add_argument("command", nargs="?")
    pre.add_argument("rest", nargs=argparse.REMAINDER)
    return pre


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse ``argv`` with the ``--config`` file's keys as defaults of the
    command that runs; flags on the command line override them. A key's
    value must have its flag's JSON type: an integer for an ``int`` flag, a
    number for a ``float`` flag and a string for any other, and be one of
    the flag's choices if it has them."""
    parser = _build_parser()
    try:
        known, _ = _pre_parser().parse_known_args(argv)
    except argparse.ArgumentError:  # a malformed global flag: the full parse reports it
        return parser.parse_args(argv)
    config_path, command = known.config, known.command
    if config_path and command in _COMMANDS:
        config = load_json(config_path)
        if not isinstance(config, dict):
            raise DataError(f"{config_path}: config must be a JSON object")
        parser = _build_parser.__wrapped__()  # a fresh one, since the config changes it: no later call sees it
        subparser = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices[command]
        flags = [a for a in parser._actions + subparser._actions
                 if a.option_strings and a.dest not in ("help", "config")]
        unknown = set(config) - {action.dest for action in flags}
        if unknown:
            raise DataError(f"{config_path}: unknown config keys {sorted(unknown)}")
        for action in flags:
            if action.dest in config:
                try:  # a flag without a type takes a string
                    value = JSON_READERS[action.type or str](config[action.dest], action.dest)
                    if action.choices is not None and value not in action.choices:
                        raise ValueError(f"{action.dest} must be one of {list(action.choices)}, got {value!r}")
                except ValueError as exc:
                    raise DataError(f"{config_path}: config key {exc}") from None
                config[action.dest] = value
                action.required = False
        parser.set_defaults(**config)
        subparser.set_defaults(**config)
    return parser.parse_args(argv)


def _out_path(args, name: str | None) -> Path | None:
    if name is None:
        return None
    path = Path(name)
    return path if path.is_absolute() else Path(args.out_dir) / path


def _provenance(args, command: str, inputs: list[str], settings: dict, *hashes: str) -> dict:
    """What a command ran on and with; ``hashes`` holds the sha256 of each of
    ``inputs``, in order, taken from the bytes that were parsed."""
    return {
        "command": command,
        "seed": args.seed,
        "config": settings,
        "inputs": {str(p): h for p, h in zip(inputs, hashes, strict=True)},
    }


def _read_json(path: str, parse):
    """``parse`` of the JSON in ``path`` and the hash of the bytes parsed; its DataError names the file."""
    data = read_bytes(path)
    obj = load_json(path, data)
    try:
        return parse(obj), hashlib.sha256(data).hexdigest()
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def _read_tree_file(path: str, catalog: treespace.Catalog):
    """The tree in a Newick file, or a JSON one holding the nested-array form
    alone or under ``tree``, and the hash of the bytes parsed; a file that
    cannot be read or parsed is a DataError naming it."""
    try:
        data = Path(path).read_bytes()
        text = data.decode("utf-8").strip()
        if not (text.startswith("{") or text.startswith("[")):
            tree = treespace.parse_tree(text, catalog)
        else:
            obj = json.loads(text)
            tree = treespace.tree_from_json(obj.get("tree", obj) if isinstance(obj, dict) else obj, catalog)
    except (OSError, ValueError, RecursionError, DataError) as exc:  # bad JSON, not UTF-8 or nested too deeply
        raise DataError(f"{path}: {exc}") from None
    return tree, hashlib.sha256(data).hexdigest()


def _affinity_config(args) -> aff.AffinityConfig:
    d = _AFFINITY
    return replace(
        d,
        encoder=replace(d.encoder, hidden_dim=args.hidden_dim, latent_dim=args.latent_dim),
        pretrain=replace(d.pretrain, epochs=args.pretrain_epochs),
        warmup=replace(d.warmup, epochs=args.warmup_epochs),
        budget=args.budget,
        b_max=args.b_max,
        alpha=args.alpha,
        beta=args.beta,
        min_examples=args.min_examples,
        seed=args.seed,
    )


def _train_config(args) -> hmodel.HierTrainConfig:
    d = _TRAIN
    return replace(
        d,
        erm=replace(d.erm, epochs=args.erm_epochs),
        encoder=replace(d.encoder, hidden_dim=args.hidden_dim, latent_dim=args.latent_dim),
        pretrain=replace(d.pretrain, epochs=args.pretrain_epochs),
        seed=args.seed,
    )


# --- subcommand bodies ------------------------------------------------------


def _cmd_count(args) -> int:
    # every digit: a Decimal converts without the interpreter's int-to-str digit limit
    print(decimal.Decimal(treespace.count_hierarchies(args.k)))
    return 0


def _cmd_enumerate(args) -> int:
    catalog = treespace.Catalog(tuple(n.strip() for n in args.concepts.split(",")))
    trees = treespace.enumerate_hierarchies(catalog.ids, cap=args.cap)
    lines = [treespace.tree_to_text(t, catalog) for t in trees]
    out = _out_path(args, args.out)
    if out:
        atomic_write_text(out, "\n".join(lines) + "\n")
        print(f"{len(lines)} hierarchies -> {out}")
    else:
        print("\n".join(lines))
    return 0


def _cmd_synth(args) -> int:
    spec, sha256 = _read_json(args.spec, synth.planted_spec_from_json)
    dataset = synth.generate_planted(spec, seed=args.seed)
    out = _out_path(args, args.out)
    synth.save_csv(dataset, out)
    support = {dataset.catalog.name_of(c): n for c, n in sorted(dataset.support().items())}
    print(f"wrote {len(dataset)} rows x {dataset.n_features} features -> {out}")
    print(f"support: {support}")
    print(json.dumps(_provenance(args, "synth", [args.spec], {"spec": str(args.spec)}, sha256)))
    return 0


def _cmd_affinity(args) -> int:
    dataset = synth.load_csv(args.data)
    cfg = _affinity_config(args)
    artifacts = aff.build_affinity_artifacts(dataset, cfg)
    obj = aff.affinity_to_json(artifacts.matrix)
    obj["provenance"] = _provenance(
        args, "affinity", [args.data], aff.affinity_config_to_json(cfg), dataset.provenance["sha256"]
    )
    out = _out_path(args, args.out)
    atomic_write_json(out, obj)
    print(f"affinity matrix ({len(artifacts.matrix.records)} pairs) -> {out}")
    if args.artifacts:
        arts_path = _out_path(args, args.artifacts)
        atomic_write_json(arts_path, aff.artifacts_to_json(artifacts))
        print(f"encoders -> {arts_path}")
    if args.distance_csv:
        dm = aff.symmetrize_to_distance(artifacts.matrix)
        dist_path = _out_path(args, args.distance_csv)
        atomic_write_text(dist_path, aff.distance_to_csv(dm))
        print(f"distance matrix -> {dist_path}")
    return 0


def _cmd_derive(args) -> int:
    drv.check_tau(args.tau)
    matrix, sha256 = _read_json(args.affinity, aff.affinity_from_json)
    derived = drv.derive_hierarchy(matrix, drv.LinkageParams(preset=args.linkage), tau=args.tau)
    newick = treespace.tree_to_text(derived.tree, matrix.catalog)
    out = _out_path(args, args.out)
    atomic_write_text(out, newick + "\n")
    print(newick)
    provenance = _provenance(args, "derive", [args.affinity], {"linkage": args.linkage, "tau": args.tau}, sha256)
    if args.tree_json:
        atomic_write_json(
            _out_path(args, args.tree_json),
            {"names": list(matrix.catalog.names),
             "tree": treespace.tree_to_json(derived.tree, matrix.catalog),
             "provenance": provenance},
        )
    if args.dendrogram:
        obj = drv.dendrogram_to_json(derived.dendrogram, matrix.catalog)
        obj["provenance"] = provenance
        atomic_write_json(_out_path(args, args.dendrogram), obj)
    if args.dot:
        atomic_write_text(
            _out_path(args, args.dot), drv.dendrogram_to_dot(derived.dendrogram, matrix.catalog)
        )
    return 0


def _cmd_train(args) -> int:
    hmodel.check_refinement(args.lambda_orth, args.refine_epochs)  # the settings land in provenance too
    dataset = synth.load_csv(args.data)
    tree, tree_sha256 = _read_tree_file(args.tree, dataset.catalog)
    cfg = _train_config(args)
    artifacts, hashes = None, [dataset.provenance["sha256"], tree_sha256]
    if args.artifacts:
        artifacts, artifacts_sha256 = _read_json(args.artifacts, aff.artifacts_from_json)
        hashes.append(artifacts_sha256)
    classifier = hmodel.train_hierarchical(tree, dataset, cfg, artifacts=artifacts)
    if args.refine_epochs != 0:
        result = hmodel.refine_global(
            classifier, dataset, lambda_orth=args.lambda_orth, epochs=args.refine_epochs
        )
        classifier = result.classifier
        print(
            f"refined: objective {result.objective_history[0]:.5f} -> "
            f"{result.objective_history[-1]:.5f}"
        )
    obj = hmodel.classifier_to_json(classifier)
    inputs = [args.data, args.tree] + ([args.artifacts] if args.artifacts else [])
    settings = {**asdict(cfg), "refine_epochs": args.refine_epochs, "lambda_orth": args.lambda_orth}
    obj["provenance"] = _provenance(args, "train", inputs, settings, *hashes)
    out = _out_path(args, args.out)
    atomic_write_json(out, obj)
    print(f"classifier ({hmodel.parameter_count(classifier)} parameters) -> {out}")
    return 0


def _cmd_predict(args) -> int:
    classifier, _ = _read_json(args.clf, hmodel.classifier_from_json)
    rows, _, _ = synth.read_csv(args.data, args.label_col)
    if rows.shape[1] != classifier.input_dim:
        raise DataError(
            f"{args.data}: {rows.shape[1]} feature columns but the classifier expects {classifier.input_dim}"
        )
    try:
        preds = hmodel.predict_batch(classifier, rows)
    except UnscorableRowError as exc:  # data row i is CSV line i + 2
        raise DataError(f"{args.data}:{exc.row + 2}: {exc}") from None
    names = classifier.catalog.names
    lines = ["prediction"] + [names[p] for p in preds.tolist()]
    out = _out_path(args, args.out)
    atomic_write_text(out, "\n".join(lines) + "\n")
    print(f"{len(preds)} predictions -> {out}")
    return 0


def _cmd_evaluate(args) -> int:
    classifier, sha256 = _read_json(args.clf, hmodel.classifier_from_json)
    dataset = synth.load_csv(args.data, catalog=classifier.catalog)
    try:
        report = metrics.evaluate(classifier, dataset)
    except UnscorableRowError as exc:
        raise DataError(f"{args.data}:{exc.row + 2}: {exc}") from None
    except DataError as exc:  # the data's width is not the classifier's
        raise DataError(f"{args.data}: {exc}") from None
    obj = metrics.report_to_json(report)
    obj["provenance"] = _provenance(args, "evaluate", [args.clf, args.data], {}, sha256, dataset.provenance["sha256"])
    out = _out_path(args, args.out)
    atomic_write_json(out, obj)
    print(f"accuracy {report.accuracy:.4f}, mean H-loss {report.mean_h_loss:.4f} -> {out}")
    if args.csv:
        atomic_write_text(_out_path(args, args.csv), metrics.report_to_csv(report))
    if args.confusion:
        atomic_write_text(_out_path(args, args.confusion), metrics.confusion_to_csv(report))
    return 0


def _val_fraction(args) -> float:
    """``--val-fraction``, checked before any data is read: a usage error
    naming the flag unless it lies strictly between 0 and 1."""
    if not 0.0 < args.val_fraction < 1.0:  # NaN fails too
        raise ValueError(f"--val-fraction must lie strictly between 0 and 1, got {args.val_fraction}")
    return args.val_fraction


def _cmd_search(args) -> int:
    fraction = _val_fraction(args)
    dataset = synth.load_csv(args.data)
    train, val = synth.split(dataset, (1.0 - fraction, fraction), seed=args.seed, stratified=True)
    cfg = _train_config(args)
    result = hmodel.exhaustive_search(train, val, cfg, cap=args.cap)
    lines = ["tree,score"]
    for tree, score in result.table:
        lines.append(f'"{treespace.tree_to_text(tree, dataset.catalog)}",{score!r}')
    out = _out_path(args, args.out)
    atomic_write_text(out, "\n".join(lines) + "\n")
    best = treespace.tree_to_text(result.best_tree, dataset.catalog)
    print(f"{len(result.table)} hierarchies scored -> {out}")
    print(f"best by accuracy: {best}")
    return 0


def _cmd_compare(args) -> int:
    fraction = _val_fraction(args)
    if args.random_samples < 0:
        raise ValueError(f"--random-samples must be >= 0, got {args.random_samples}")
    items = [s.strip() for s in args.train_seeds.split(",") if s.strip()]
    if not items or not all(s.isdecimal() for s in items):
        raise ValueError(f"--train-seeds must be comma-separated non-negative integers, got {args.train_seeds!r}")
    seeds = [int(s) for s in items]
    dataset = synth.load_csv(args.data)
    derived, derived_sha256 = _read_tree_file(args.derived, dataset.catalog)
    expert, expert_sha256 = _read_tree_file(args.expert, dataset.catalog)
    rng = np.random.default_rng([args.seed, 7])
    random_trees = [
        treespace.sample_hierarchy(dataset.catalog.ids, rng) for _ in range(args.random_samples)
    ]

    base_cfg = _train_config(args)
    trees = [expert, *random_trees, derived]
    accs = {}  # (tree index, seed) -> accuracy; the trees of one seed share their nodes
    for seed in seeds:
        train, val = synth.split(dataset, (1.0 - fraction, fraction), seed=seed, stratified=True)
        for i, clf in enumerate(hmodel.train_hierarchies(trees, train, replace(base_cfg, seed=seed))):
            accs[i, seed] = float(np.mean(hmodel.predict_batch(clf, val.features) == val.labels))

    def row(method, indices, agreement):
        values = [accs[i, seed] for i in indices for seed in seeds]  # tree-major, then seed
        return {
            "method": method,
            "agreement": agreement,
            "accuracy_mean": float(np.mean(values)) if values else None,
            "accuracy_std": float(np.std(values)) if values else None,
            "trees": [treespace.tree_to_text(trees[i], dataset.catalog) for i in indices],
        }

    random_agreement = (
        float(np.mean([metrics.hierarchy_agreement(t, expert) for t in random_trees]))
        if random_trees
        else None
    )
    result = {
        "rows": [
            row("expertise", [0], None),
            row("random", range(1, len(trees) - 1), random_agreement),
            row("proposed", [len(trees) - 1], metrics.hierarchy_agreement(derived, expert)),
        ],
        "provenance": _provenance(
            args, "compare", [args.data, args.derived, args.expert],
            {**asdict(base_cfg), "train_seeds": seeds, "random_samples": args.random_samples,
             "val_fraction": args.val_fraction},
            dataset.provenance["sha256"], derived_sha256, expert_sha256,
        ),
    }
    out = _out_path(args, args.out)
    atomic_write_json(out, result)
    for r in result["rows"]:
        agree = "-" if r["agreement"] is None else f"{r['agreement']:.2f}"
        perf = "-" if r["accuracy_mean"] is None else f"{r['accuracy_mean']:.4f}±{r['accuracy_std']:.4f}"
        print(f"{r['method']:<10} agree={agree:<5} perf={perf}")
    return 0


_COMMANDS = {
    "count": _cmd_count,
    "enumerate": _cmd_enumerate,
    "synth": _cmd_synth,
    "affinity": _cmd_affinity,
    "derive": _cmd_derive,
    "train": _cmd_train,
    "predict": _cmd_predict,
    "evaluate": _cmd_evaluate,
    "search": _cmd_search,
    "compare": _cmd_compare,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parse_args(argv)
        Path(args.out_dir).mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

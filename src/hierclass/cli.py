"""Command-line pipeline driver.

Subcommands cover the full flow: count/enumerate the tree space, make or
segment data, build the affinity matrix, derive a hierarchy, train and
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
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import affinity as aff
from . import derive as drv
from . import hmodel, metrics, synth, treespace
from .errors import DataError, NumericError
from .serialize import (
    atomic_write_json,
    atomic_write_text,
    load_json,
    mlp_from_json,
    mlp_to_json,
    sha256_of_file,
)


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

    p = sub.add_parser("segment", help="segment a labeled stream into windows")
    p.add_argument("--input", required=True, help="stream CSV (channels + label column)")
    p.add_argument("--label-col", default="label")
    p.add_argument("--window", type=int, required=True)
    p.add_argument("--stride", type=int, required=True)
    p.add_argument("--features", choices=("stats", "flat"), default="stats")
    p.add_argument("--purity", type=float, default=0.5)
    p.add_argument("--out", required=True)

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
    p.add_argument("--finetune-epochs", type=int, default=_AFFINITY.finetune.epochs)
    p.add_argument("--freeze-encoder", action="store_true", default=_AFFINITY.freeze_encoder)

    p = sub.add_parser("derive", help="derive a hierarchy from an affinity matrix")
    p.add_argument("--affinity", required=True)
    p.add_argument("--tau", type=float, default=0.5)
    p.add_argument("--linkage", choices=drv.PRESETS, default="average")
    p.add_argument("--lw-alpha-i", type=float)
    p.add_argument("--lw-alpha-j", type=float)
    p.add_argument("--lw-beta", type=float)
    p.add_argument("--lw-gamma", type=float)
    p.add_argument("--symmetrization", choices=aff.SYMMETRIZATIONS, default="mean")
    p.add_argument("--no-budget-tiebreak", action="store_true")
    p.add_argument("--out", required=True, help="derived tree (Newick)")
    p.add_argument("--tree-json", help="derived tree as JSON with provenance")
    p.add_argument("--dendrogram", help="dendrogram JSON")
    p.add_argument("--dot", help="dendrogram DOT file")

    p = sub.add_parser("train", help="train a hierarchical classifier")
    p.add_argument("--data", required=True)
    p.add_argument("--tree", required=True, help="hierarchy file (Newick or JSON)")
    p.add_argument("--out", required=True, help="classifier JSON")
    p.add_argument("--artifacts", help="affinity artifacts JSON (reuses encoders)")
    p.add_argument("--mode", choices=("keep", "fuse"), default=_TRAIN.rep_mode)
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
    p.add_argument("--metric", choices=("accuracy", "neg_h_loss"), default="accuracy")
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


def _apply_config_file(parser: _Parser, argv: list[str]) -> argparse.Namespace:
    config_path = None
    for i, token in enumerate(argv):
        if token == "--config" and i + 1 < len(argv):
            config_path = argv[i + 1]
        elif token.startswith("--config="):
            config_path = token.split("=", 1)[1]
    command = next((t for t in argv if t in _COMMANDS), None)
    if config_path and command:
        config = load_json(config_path)
        if not isinstance(config, dict):
            raise DataError(f"{config_path}: config must be a JSON object")
        subparser = _subparser_for(parser, command)
        valid = {action.dest for action in parser._actions + subparser._actions}
        unknown = set(config) - valid
        if unknown:
            raise DataError(f"{config_path}: unknown config keys {sorted(unknown)}")
        parser.set_defaults(**config)
        subparser.set_defaults(**config)
        for action in parser._actions + subparser._actions:
            if action.dest in config:
                action.required = False
    return parser.parse_args(argv)


def _subparser_for(parser: _Parser, command: str):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices[command]
    raise AssertionError("no subparsers")


def _out_path(args, name: str | None) -> Path | None:
    if name is None:
        return None
    path = Path(name)
    return path if path.is_absolute() else Path(args.out_dir) / path


def _provenance(args, command: str, inputs: list[str], settings: dict) -> dict:
    return {
        "command": command,
        "seed": args.seed,
        "config": settings,
        "inputs": {str(p): sha256_of_file(p) for p in inputs},
    }


def _read_tree_file(path: str, catalog: treespace.Catalog) -> treespace.Tree:
    text = Path(path).read_text(encoding="utf-8").strip()
    if text.startswith("{") or text.startswith("["):
        obj = json.loads(text)
        if isinstance(obj, dict):
            obj = obj.get("tree", obj)
        return treespace.tree_from_json(obj, catalog)
    return treespace.parse_tree(text, catalog)


def _affinity_config(args) -> aff.AffinityConfig:
    d = _AFFINITY
    return replace(
        d,
        encoder=replace(d.encoder, hidden_dim=args.hidden_dim, latent_dim=args.latent_dim),
        pretrain=replace(d.pretrain, epochs=args.pretrain_epochs),
        warmup=replace(d.warmup, epochs=args.warmup_epochs),
        finetune=replace(d.finetune, epochs=args.finetune_epochs),
        budget=args.budget,
        b_max=args.b_max,
        alpha=args.alpha,
        beta=args.beta,
        min_examples=args.min_examples,
        freeze_encoder=args.freeze_encoder,
        seed=args.seed,
    )


def _train_config(args) -> hmodel.HierTrainConfig:
    d = _TRAIN
    return replace(
        d,
        erm=replace(d.erm, epochs=args.erm_epochs),
        encoder=replace(d.encoder, hidden_dim=args.hidden_dim, latent_dim=args.latent_dim),
        pretrain=replace(d.pretrain, epochs=args.pretrain_epochs),
        rep_mode=getattr(args, "mode", d.rep_mode),  # only train has --mode
        seed=args.seed,
    )


# --- subcommand bodies ------------------------------------------------------


def _cmd_count(args) -> int:
    print(treespace.count_hierarchies(args.k))
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
    spec = synth.planted_spec_from_json(load_json(args.spec))
    dataset = synth.generate_planted(spec, seed=args.seed)
    out = _out_path(args, args.out)
    synth.save_csv(dataset, out)
    support = {dataset.catalog.name_of(c): n for c, n in sorted(dataset.support().items())}
    print(f"wrote {len(dataset)} rows x {dataset.n_features} features -> {out}")
    print(f"support: {support}")
    print(json.dumps(_provenance(args, "synth", [args.spec], {"spec": str(args.spec)})))
    return 0


def _cmd_segment(args) -> int:
    stream_ds = synth.load_csv(args.input, label_column=args.label_col)
    segmented = synth.segment_stream(
        stream_ds.features,
        stream_ds.labels,
        stream_ds.catalog,
        window=args.window,
        stride=args.stride,
        representation=args.features,
        purity=args.purity,
    )
    if segmented.dataset is None:
        raise DataError(
            f"all {segmented.positions} windows dropped at purity {args.purity}"
        )
    out = _out_path(args, args.out)
    synth.save_csv(segmented.dataset, out)
    print(
        f"{segmented.positions} windows, kept {len(segmented.dataset)}, "
        f"dropped {segmented.dropped} -> {out}"
    )
    return 0


def _cmd_affinity(args) -> int:
    dataset = synth.load_csv(args.data)
    cfg = _affinity_config(args)
    artifacts = aff.build_affinity_artifacts(dataset, cfg)
    obj = aff.affinity_to_json(artifacts.matrix)
    obj["provenance"] = _provenance(args, "affinity", [args.data], aff.affinity_config_to_json(cfg))
    out = _out_path(args, args.out)
    atomic_write_json(out, obj)
    print(f"affinity matrix ({len(artifacts.matrix.records)} pairs) -> {out}")
    if artifacts.matrix.skipped:
        skipped = {dataset.catalog.name_of(c): n for c, n in artifacts.matrix.skipped}
        print(f"skipped concepts (too few examples): {skipped}")
    if args.artifacts:
        arts_obj = {
            "matrix": aff.affinity_to_json(artifacts.matrix),
            "input_dim": artifacts.input_dim,
            "config": aff.affinity_config_to_json(cfg),
            "concept_encoders": {str(c): mlp_to_json(m) for c, m in artifacts.concept_encoders.items()},
            "pair_encoders": {f"{i},{j}": mlp_to_json(m) for (i, j), m in artifacts.pair_encoders.items()},
        }
        arts_path = _out_path(args, args.artifacts)
        atomic_write_json(arts_path, arts_obj)
        print(f"encoders -> {arts_path}")
    if args.distance_csv:
        dm = aff.symmetrize_to_distance(artifacts.matrix)
        dist_path = _out_path(args, args.distance_csv)
        atomic_write_text(dist_path, aff.distance_to_csv(dm))
        print(f"distance matrix -> {dist_path}")
    return 0


def _load_artifacts(path: str) -> aff.AffinityArtifacts:
    obj = load_json(path)
    try:
        return aff.AffinityArtifacts(
            matrix=aff.affinity_from_json(obj["matrix"]),
            concept_encoders={int(c): mlp_from_json(m) for c, m in obj["concept_encoders"].items()},
            pair_encoders={
                tuple(int(x) for x in key.split(",")): mlp_from_json(m)
                for key, m in obj["pair_encoders"].items()
            },
            config=aff.affinity_config_from_json(obj["config"]),
            input_dim=int(obj["input_dim"]),
        )
    except (DataError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: bad artifacts file: {exc}") from None


def _cmd_derive(args) -> int:
    matrix = aff.affinity_from_json(load_json(args.affinity))
    if args.linkage == "custom":
        params = drv.LinkageParams(
            preset="custom",
            alpha_i=args.lw_alpha_i,
            alpha_j=args.lw_alpha_j,
            beta=args.lw_beta,
            gamma=args.lw_gamma,
        )
    else:
        params = drv.LinkageParams(preset=args.linkage)
    derived = drv.derive_hierarchy(
        matrix,
        params,
        tau=args.tau,
        budget_tiebreak=not args.no_budget_tiebreak,
        symmetrization=args.symmetrization,
    )
    newick = treespace.tree_to_text(derived.tree, matrix.catalog)
    out = _out_path(args, args.out)
    atomic_write_text(out, newick + "\n")
    print(newick)
    provenance = _provenance(args, "derive", [args.affinity], derived.provenance)
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
    dataset = synth.load_csv(args.data)
    tree = _read_tree_file(args.tree, dataset.catalog)
    cfg = _train_config(args)
    artifacts = None
    if args.artifacts:
        artifacts = _load_artifacts(args.artifacts)
    classifier = hmodel.train_hierarchical(tree, dataset, cfg, artifacts=artifacts)
    if args.refine_epochs > 0:
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
    obj["provenance"].update(_provenance(args, "train", inputs, settings))
    out = _out_path(args, args.out)
    atomic_write_json(out, obj)
    print(f"classifier ({hmodel.parameter_count(classifier)} parameters) -> {out}")
    return 0


def _cmd_predict(args) -> int:
    classifier = hmodel.classifier_from_json(load_json(args.clf))
    rows, _, _ = synth.read_csv(args.data, args.label_col)
    expected = classifier.input_dim
    if expected is not None and rows.shape[1] != expected:
        raise DataError(
            f"{args.data}: {rows.shape[1]} feature columns but the classifier expects {expected}"
        )
    preds = hmodel.predict_batch(classifier, rows)
    lines = ["prediction"] + [classifier.catalog.name_of(int(p)) for p in preds]
    out = _out_path(args, args.out)
    atomic_write_text(out, "\n".join(lines) + "\n")
    print(f"{len(preds)} predictions -> {out}")
    return 0


def _cmd_evaluate(args) -> int:
    classifier = hmodel.classifier_from_json(load_json(args.clf))
    dataset = synth.load_csv(args.data, catalog=classifier.catalog)
    expected = classifier.input_dim
    if expected is not None and dataset.n_features != expected:
        raise DataError(
            f"{args.data}: {dataset.n_features} feature columns but the classifier expects {expected}"
        )
    report = metrics.evaluate(classifier, dataset)
    obj = metrics.report_to_json(report)
    obj["provenance"] = _provenance(args, "evaluate", [args.clf, args.data], {})
    out = _out_path(args, args.out)
    atomic_write_json(out, obj)
    print(f"accuracy {report.accuracy:.4f}, mean H-loss {report.mean_h_loss:.4f} -> {out}")
    if args.csv:
        atomic_write_text(_out_path(args, args.csv), metrics.report_to_csv(report))
    if args.confusion:
        atomic_write_text(_out_path(args, args.confusion), metrics.confusion_to_csv(report))
    return 0


def _cmd_search(args) -> int:
    dataset = synth.load_csv(args.data)
    train, val = synth.split(
        dataset, (1.0 - args.val_fraction, args.val_fraction), seed=args.seed, stratified=True
    )
    cfg = _train_config(args)
    result = hmodel.exhaustive_search(train, val, cfg, metric=args.metric, cap=args.cap)
    lines = ["tree,score"]
    for tree, score in result.table:
        lines.append(f'"{treespace.tree_to_text(tree, dataset.catalog)}",{score!r}')
    out = _out_path(args, args.out)
    atomic_write_text(out, "\n".join(lines) + "\n")
    best = treespace.tree_to_text(result.best_tree, dataset.catalog)
    print(f"{len(result.table)} hierarchies scored -> {out}")
    print(f"best by {args.metric}: {best}")
    return 0


def _cmd_compare(args) -> int:
    dataset = synth.load_csv(args.data)
    derived = _read_tree_file(args.derived, dataset.catalog)
    expert = _read_tree_file(args.expert, dataset.catalog)
    seeds = [int(s) for s in args.train_seeds.split(",") if s.strip()]
    if not seeds:
        raise DataError("need at least one training seed")
    rng = np.random.default_rng([args.seed, 7])
    random_trees = [
        treespace.sample_hierarchy(dataset.catalog.ids, rng) for _ in range(args.random_samples)
    ]

    base_cfg = _train_config(args)
    trees = [expert, *random_trees, derived]
    accs = {}  # (tree index, seed) -> accuracy; the trees of one seed share their nodes
    for seed in seeds:
        train, val = synth.split(
            dataset, (1.0 - args.val_fraction, args.val_fraction), seed=seed, stratified=True
        )
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
    "segment": _cmd_segment,
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
    parser = _build_parser()
    try:
        args = _apply_config_file(parser, argv)
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

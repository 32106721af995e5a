#!/usr/bin/env python3
"""End-to-end demo on planted data: affinity -> derivation -> training -> report.

Generates a 4-concept dataset with two tight pairs, builds the transfer
affinity matrix, derives the hierarchy, trains the per-node classifiers
(optionally with the global refinement pass), and prints the evaluation
against the planted ground truth.
"""

import argparse
import time

from hierclass import (
    AffinityConfig,
    Catalog,
    HierTrainConfig,
    LinkageParams,
    PlantedSpec,
    build_affinity_artifacts,
    derive_hierarchy,
    evaluate,
    generate_planted,
    hierarchy_agreement,
    refine_global,
    split,
    train_hierarchical,
    tree_to_text,
)
from hierclass.treespace import internal, leaf


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tau", type=float, default=0.5)
    parser.add_argument("--linkage", default="average")
    parser.add_argument("--refine-epochs", type=int, default=10)
    parser.add_argument("--use-artifacts", action="store_true",
                        help="assign node representations from the affinity encoders")
    args = parser.parse_args()

    catalog = Catalog(("A", "B", "C", "D"))
    planted = internal([internal([leaf(0), leaf(1)]), internal([leaf(2), leaf(3)])])
    spec = PlantedSpec(
        catalog=catalog, tree=planted, feature_dim=10, per_concept=200,
        level_offsets=(9.0, 3.0), noise=2.0,
    )

    t0 = time.time()
    data = generate_planted(spec, seed=args.seed)
    train, val = split(data, (0.7, 0.3), seed=args.seed, stratified=True)
    print(f"planted tree: {tree_to_text(planted, catalog)}  ({len(train)} train / {len(val)} val rows)")

    artifacts = build_affinity_artifacts(train, AffinityConfig(seed=args.seed))
    for record in artifacts.matrix.records:
        print(f"  s({catalog.name_of(record.source)}->{catalog.name_of(record.target)}) = {record.score:.3f}"
              f"  (p={record.p:.3f}, b={record.budget})")

    derived = derive_hierarchy(artifacts.matrix, LinkageParams(preset=args.linkage), tau=args.tau)
    agreement = hierarchy_agreement(derived.tree, planted)
    print(f"derived tree: {tree_to_text(derived.tree, catalog)}  (agreement with planted: {agreement:.2f})")

    cfg = HierTrainConfig(seed=args.seed)
    clf = train_hierarchical(derived.tree, train, cfg,
                             artifacts=artifacts if args.use_artifacts else None)
    if args.refine_epochs:
        result = refine_global(clf, train, epochs=args.refine_epochs)
        print(f"refinement: objective {result.objective_history[0]:.4f} -> {result.objective_history[-1]:.4f}")
        clf = result.classifier

    report = evaluate(clf, val)
    print(f"held-out accuracy {report.accuracy:.4f}, mean H-loss {report.mean_h_loss:.4f}")
    for row in report.per_node:
        names = ",".join(catalog.name_of(c) for c in row["node"])
        print(f"  node [{names}]: accuracy {row['accuracy']:.4f} over {row['support']} rows")
    print(f"done in {time.time() - t0:.1f}s")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Hierarchical vs flat vs random hierarchies on overlapping planted data.

Reproduces, at desk scale and directionally, the ordering
derived > random with the derived hierarchy also beating a
parameter-matched flat baseline: 8 overlapping concepts, separation ratio
2, held-out accuracy averaged over seeds.
"""

import argparse
import time

import numpy as np

from hierclass import (
    AffinityConfig,
    Catalog,
    HierTrainConfig,
    LinkageParams,
    PlantedSpec,
    build_affinity_artifacts,
    derive_hierarchy,
    generate_planted,
    predict_batch,
    split,
    train_flat_baseline,
    train_hierarchies,
    tree_to_text,
)
from hierclass.hmodel import parameter_count
from hierclass.treespace import internal, leaf, sample_hierarchy


def balanced_tree8():
    return internal(
        [
            internal([internal([leaf(0), leaf(1)]), internal([leaf(2), leaf(3)])]),
            internal([internal([leaf(4), leaf(5)]), internal([leaf(6), leaf(7)])]),
        ]
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--random-samples", type=int, default=3)
    args = parser.parse_args()

    catalog = Catalog(tuple(f"c{i}" for i in range(8)))
    spec = PlantedSpec(
        catalog=catalog, tree=balanced_tree8(), feature_dim=12, per_concept=200,
        level_offsets=(4.0, 2.0, 1.0), noise=1.0,
    )

    def accuracy(clf, ds):
        return float(np.mean(predict_batch(clf, ds.features) == ds.labels))

    # with no random trees there is no random accuracy: it prints as "-", with no margin over it
    has_random = args.random_samples > 0
    t0 = time.time()
    rows = []
    for seed in range(args.seeds):
        data = generate_planted(spec, seed=seed)
        train, val = split(data, (0.7, 0.3), seed=seed, stratified=True)
        matrix = build_affinity_artifacts(train, AffinityConfig(seed=seed)).matrix
        derived = derive_hierarchy(matrix, LinkageParams(preset="average"), tau=0.5).tree
        cfg = HierTrainConfig(seed=seed)
        rng = np.random.default_rng([seed, 77])
        random_trees = [sample_hierarchy(range(8), rng) for _ in range(args.random_samples)]
        # the derived and random trees share their nodes, the all-concept root at least
        hier, *rand = train_hierarchies([derived, *random_trees], train, cfg)
        hier_acc = accuracy(hier, val)
        flat = train_flat_baseline(train, cfg, target_params=parameter_count(hier))
        flat_acc = accuracy(flat.classifier, val)
        rand_acc = float(np.mean([accuracy(clf, val) for clf in rand])) if has_random else None
        rows.append((seed, hier_acc, flat_acc, rand_acc))
        print(
            f"seed {seed}: derived {hier_acc:.3f} | flat {flat_acc:.3f} "
            f"({flat.parameter_count} vs {parameter_count(hier)} params) | "
            f"random {'-' if rand_acc is None else f'{rand_acc:.3f}'} | tree {tree_to_text(derived, catalog)}"
        )

    hier_accs = np.array([r[1] for r in rows])
    flat_accs = np.array([r[2] for r in rows])
    rand_accs = np.array([r[3] for r in rows]) if has_random else None
    random_part = f"{rand_accs.mean():.4f}±{rand_accs.std():.4f}" if has_random else "-"
    print(
        f"\nderived {hier_accs.mean():.4f}±{hier_accs.std():.4f} | "
        f"flat {flat_accs.mean():.4f}±{flat_accs.std():.4f} | random {random_part}"
    )
    margins = f"mean margin over flat {np.mean(hier_accs - flat_accs):+.4f}"
    if has_random:
        margins += f", over random {np.mean(hier_accs - rand_accs):+.4f}"
    print(f"{margins}  ({time.time() - t0:.0f}s)")


if __name__ == "__main__":
    main()

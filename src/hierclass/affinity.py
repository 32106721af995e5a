"""Transfer-based affinity between concepts.

For each concept an autoencoder learns a compressed representation; the
encoder is then fine-tuned toward every other concept with a fresh decoder
under a supervision budget. How well that transfer reconstructs held-out
target data, relative to a from-scratch baseline trained under the same
budget and schedule, is the raw similarity score p. The final score blends
p with the normalized budget; symmetrized complements of the scores feed
hierarchy derivation as distances.

Every transfer toward one target shares its data slices, decoder
initialization and batch schedule, so the K-1 source encoders and the
scratch reference toward that target train together as one stacked SGD
(see :func:`fine_tune_stack`); each result is bit-identical to tuning that
encoder alone. The K concept autoencoders each have their own rows and
seed; those with equal row counts pretrain as one stack too
(:func:`train_autoencoder_stack`).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import DataError, NumericError
from .nets import (
    Mlp,
    SgdConfig,
    forward_trace,
    init_mlp,
    member_mlp,
    sgd_reconstruction,
    stack_params,
    task_seed,
    train_reconstruction_stack,
)
from .serialize import check_keys, config_from_json
from .synth import LabeledDataset
from .treespace import Catalog

SYMMETRIZATIONS = ("mean", "min", "max")


@dataclass(frozen=True)
class EncoderConfig:
    """Reference architecture: input -> hidden (rectifier) -> bounded latent,
    linear decoder back.

    The bounded (sigmoid) latent is what localizes a representation: far from
    the region an encoder was trained on, its latent saturates and stops
    carrying variation, so reconstruction-based transfer degrades with
    concept distance instead of being rank-blind.
    """

    hidden_dim: int = 16
    latent_dim: int = 4
    hidden_activation: str = "relu"
    latent_activation: str = "sigmoid"


@dataclass(frozen=True)
class AffinityConfig:
    """Settings for the whole affinity stage.

    ``warmup`` trains the fresh decoder alone (encoder frozen) before the
    joint ``finetune`` phase; without it, early gradients from a random
    decoder scramble the source representation and the transfer signal with
    it. ``freeze_encoder`` skips the joint phase entirely.
    """

    encoder: EncoderConfig = EncoderConfig(hidden_dim=24)
    pretrain: SgdConfig = SgdConfig(epochs=60, batch_size=32, learning_rate=0.1)
    warmup: SgdConfig = SgdConfig(epochs=80, batch_size=16, learning_rate=0.1)
    finetune: SgdConfig = SgdConfig(epochs=3, batch_size=16, learning_rate=0.02)
    budget: int = 80
    b_max: int = 100
    alpha: float = 0.5
    beta: float = 0.5
    holdout_fraction: float = 0.2
    min_examples: int = 10
    freeze_encoder: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if self.alpha < 0 or self.beta < 0 or self.alpha + self.beta <= 0:
            raise ValueError("need alpha, beta >= 0 with alpha + beta > 0")
        if not 0 < self.holdout_fraction < 1:
            raise ValueError("holdout_fraction must be in (0, 1)")
        if self.budget < 0 or self.b_max < 0 or self.budget > self.b_max:
            raise ValueError("need 0 <= budget <= b_max")


_CONFIG_FORMAT = "hierclass-affinity-config-v1"


def affinity_config_to_json(cfg: AffinityConfig) -> dict:
    """Every field of the config, nested configs included, under a format tag."""
    return {"format": _CONFIG_FORMAT, **asdict(cfg)}


def affinity_config_from_json(obj: dict) -> AffinityConfig:
    if not isinstance(obj, dict) or obj.get("format") != _CONFIG_FORMAT:
        found = obj.get("format") if isinstance(obj, dict) else None
        raise DataError(f"unsupported affinity config format {found!r}")
    fields = {k: v for k, v in obj.items() if k != "format"}
    return config_from_json(AffinityConfig, fields, "affinity config")


def make_encoder(input_dim: int, cfg: EncoderConfig, rng) -> Mlp:
    if cfg.latent_dim > input_dim:
        raise ValueError(
            f"latent dim {cfg.latent_dim} exceeds input dim {input_dim}; encoders compress"
        )
    return init_mlp(
        (input_dim, cfg.hidden_dim, cfg.latent_dim),
        (cfg.hidden_activation, cfg.latent_activation),
        rng,
    )


def make_decoder(input_dim: int, cfg: EncoderConfig, rng) -> Mlp:
    return init_mlp((cfg.latent_dim, input_dim), ("identity",), rng)


def train_autoencoder_stack(
    data, cfg: AffinityConfig, seeds
) -> list[tuple[Mlp, Mlp, float]]:
    """Train one encoder/decoder pair per example matrix as one stacked SGD.

    Every ``data[s]`` is a nonempty (N, dim) matrix of one shared shape.
    Member s draws its initialization and batch order from ``seeds[s]``
    alone, so it returns exactly what ``train_autoencoder(data[s], cfg,
    seeds[s])`` returns: the trained pair plus the final held-in mean
    reconstruction loss. A NumericError names the diverging member in its
    ``member``.
    """
    x = np.stack([np.asarray(d, dtype=float) for d in data])
    if x.ndim != 3 or x.shape[1] < 1:
        raise ValueError("need nonempty (N, dim) example matrices")
    init_rngs = [np.random.default_rng([seed, 0]) for seed in seeds]
    encoders = [make_encoder(x.shape[2], cfg.encoder, rng) for rng in init_rngs]
    decoders = [make_decoder(x.shape[2], cfg.encoder, rng) for rng in init_rngs]
    train_rngs = [np.random.default_rng([seed, 1]) for seed in seeds]
    trained = train_reconstruction_stack(encoders, decoders, x, cfg.pretrain, train_rngs)
    return [(encoder, decoder, history[-1]) for encoder, decoder, history in trained]


def train_autoencoder(
    data: np.ndarray, cfg: AffinityConfig, seed: int
) -> tuple[Mlp, Mlp, float]:
    """Train encoder/decoder on one concept's examples; deterministic in seed:
    the one-member case of :func:`train_autoencoder_stack`.

    Returns the trained pair plus the final held-in mean reconstruction loss.
    """
    return train_autoencoder_stack([data], cfg, [seed])[0]


def _held_out_count(n: int, fraction: float) -> int:
    """Rows held out of n: about ``fraction`` of them, but at least one on
    each side of the split when n > 1."""
    return min(max(1, int(round(fraction * n))), n - 1) if n > 1 else 0


def capped_budget(n_rows: int, cfg: AffinityConfig) -> int:
    """The number of target rows a transfer toward ``n_rows`` examples
    trains on: ``cfg.budget``, capped at the pool left after holding out."""
    return min(cfg.budget, n_rows - _held_out_count(n_rows, cfg.holdout_fraction))


def _holdout_split(n: int, fraction: float, rng) -> tuple[np.ndarray, np.ndarray]:
    """(pool, heldout) index split; at least one row on each side when n > 1."""
    order = rng.permutation(n)
    n_held = _held_out_count(n, fraction)
    return order[n_held:], order[:n_held]


def fine_tune_stack(
    encoders: list[Mlp],
    target_data: np.ndarray,
    budget: int,
    cfg: AffinityConfig,
    seed: int,
) -> list[tuple[Mlp, float]]:
    """Fine-tune copies of same-shaped encoders toward one target concept.

    For each encoder, a fresh decoder is first trained alone (warmup), then
    jointly with a copy of the encoder, on exactly ``budget`` target
    examples drawn from the non-held-out pool; the returned loss is
    measured on the held-out slice. With budget 0 the encoder is left
    untouched and only the fresh decoder is trained (on the pool), scoring
    the source representation as-is. All randomness (slices, decoder init,
    batch schedule) derives from ``seed`` alone, so runs toward the same
    target are directly comparable.

    That shared randomness is what lets the encoders train as one stack:
    the frozen encoders' latents on the training rows are computed once and
    the warmup trains only the decoders on them, and the joint phase runs
    the stack through 3-D matmuls. Member s returns exactly what tuning
    ``encoders[s]`` alone returns. Returns one (encoder, loss) per member.
    """
    target_data = np.asarray(target_data, dtype=float)
    if target_data.ndim != 2 or target_data.shape[0] < 2:
        raise ValueError("need at least 2 target examples (one is held out)")
    if any(target_data.shape[1] != encoder.input_dim for encoder in encoders):
        raise ValueError("target feature dim does not match the encoder")
    pool, heldout = _holdout_split(
        target_data.shape[0], cfg.holdout_fraction, np.random.default_rng([seed, 0])
    )
    if budget > pool.size:
        raise ValueError(
            f"budget {budget} exceeds the {pool.size} target examples available "
            f"after holding out {heldout.size}"
        )
    decoder = make_decoder(target_data.shape[1], cfg.encoder, np.random.default_rng([seed, 1]))
    train_rng = np.random.default_rng([seed, 2])
    rows = target_data[pool] if budget == 0 else target_data[pool[:budget]]
    enc_params = stack_params(encoders)
    dec_params = stack_params([decoder] * len(encoders))
    enc_acts = [layer.activation for layer in encoders[0].layers]
    dec_acts = [layer.activation for layer in decoder.layers]

    latents = forward_trace(enc_params, enc_acts, rows)[0][-1]
    sgd_reconstruction(dec_params, dec_acts, latents, rows, cfg.warmup, train_rng)
    joint = budget > 0 and not cfg.freeze_encoder and cfg.finetune.epochs > 0
    if joint:
        sgd_reconstruction(
            enc_params + dec_params, enc_acts + dec_acts, rows, rows, cfg.finetune, train_rng
        )

    held = target_data[heldout]
    out = forward_trace(enc_params + dec_params, enc_acts + dec_acts, held)[0][-1]
    return [
        (
            member_mlp(enc_params, s, encoder) if joint else encoder,
            float(np.mean((out[s] - held) ** 2)),
        )
        for s, encoder in enumerate(encoders)
    ]


def fine_tune(
    encoder: Mlp,
    target_data: np.ndarray,
    budget: int,
    cfg: AffinityConfig,
    seed: int,
) -> tuple[Mlp, float]:
    """Fine-tune a copy of one encoder toward a target concept: the
    one-member case of :func:`fine_tune_stack`."""
    return fine_tune_stack([encoder], target_data, budget, cfg, seed)[0]


def raw_transfer_score(l_ft: float, l_ref: float) -> float:
    """Map reconstruction losses to p in [0, 1]: l_ref / (l_ref + l_ft).

    Monotone decreasing in l_ft; 0.5 exactly when transfer matches scratch.
    """
    if l_ft < 0 or l_ref < 0:
        raise ValueError("losses are nonnegative")
    if l_ref <= 0:
        raise ValueError("reference loss must be positive")
    return l_ref / (l_ref + l_ft)


def final_score(p: float, budget: int, b_max: int, alpha: float, beta: float) -> float:
    """Budget-weighted similarity (alpha*p + beta*(b/b_max)) / (alpha+beta)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if alpha + beta <= 0:
        raise ValueError("alpha + beta must be positive")
    if budget < 0 or budget > b_max:
        if b_max == 0 and budget > 0:
            raise ValueError("b_max is 0 but budget is positive")
        raise ValueError(f"budget {budget} outside [0, {b_max}]")
    b_norm = budget / b_max if b_max > 0 else 0.0
    return (alpha * p + beta * b_norm) / (alpha + beta)


@dataclass(frozen=True)
class AffinityRecord:
    source: int
    target: int
    p: float
    budget: int
    score: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.p <= 1.0 and 0.0 <= self.score <= 1.0):
            raise ValueError("p and score must lie in [0, 1]")
        if self.budget < 0:
            raise ValueError("budget is nonnegative")


@dataclass(frozen=True)
class AffinityMatrix:
    """All ordered-pair records plus the configuration snapshot."""

    catalog: Catalog
    alpha: float
    beta: float
    b_max: int
    seed: int
    records: tuple[AffinityRecord, ...]
    skipped: tuple[tuple[int, int], ...] = ()  # (concept id, example count)
    encoder: EncoderConfig | None = None

    def __post_init__(self) -> None:
        keys = [(r.source, r.target) for r in self.records]
        if len(set(keys)) != len(keys):
            raise ValueError("duplicate (source, target) records")
        for r in self.records:
            if r.source == r.target:
                raise ValueError("diagonal entries are undefined")

    def _index(self) -> dict[tuple[int, int], AffinityRecord]:
        return {(r.source, r.target): r for r in self.records}

    def score(self, source: int, target: int) -> float:
        return self._index()[(source, target)].score

    def missing_pairs(self) -> list[tuple[int, int]]:
        have = {(r.source, r.target) for r in self.records}
        k = len(self.catalog)
        return [(i, j) for i in range(k) for j in range(k) if i != j and (i, j) not in have]


@dataclass(frozen=True)
class DistanceMatrix:
    """Symmetric [0,1] distances, zero diagonal.

    Singleton cluster sizes are implicitly one per concept; agglomeration
    tracks merged sizes itself. ``budgets`` optionally annotates each concept
    with the total supervision spent toward it, for merge tie-breaking.
    """

    catalog: Catalog
    values: np.ndarray
    budgets: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        k = len(self.catalog)
        if vals.shape != (k, k):
            raise ValueError(f"expected a {k}x{k} matrix")
        if not np.isfinite(vals).all():
            raise ValueError("non-finite distances")
        if (vals < 0).any() or (vals > 1).any():
            raise ValueError("distances must lie in [0, 1]")
        if not np.allclose(vals, vals.T, atol=1e-12):
            raise ValueError("distance matrix must be symmetric")
        if np.abs(np.diag(vals)).max() > 0:
            raise ValueError("diagonal must be zero")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        if self.budgets is not None and len(self.budgets) != k:
            raise ValueError("need one budget annotation per concept")


@dataclass(frozen=True)
class AffinityArtifacts:
    """Everything the affinity stage learned, for reuse downstream."""

    matrix: AffinityMatrix
    concept_encoders: dict[int, Mlp]
    pair_encoders: dict[tuple[int, int], Mlp]
    config: AffinityConfig
    input_dim: int


def build_affinity_artifacts(dataset: LabeledDataset, cfg: AffinityConfig) -> AffinityArtifacts:
    """Run the full affinity analysis over every ordered concept pair.

    Concepts with fewer than ``cfg.min_examples`` examples are skipped and
    reported; their pairs are left missing. Concepts with equal example
    counts pretrain their autoencoders as one :func:`train_autoencoder_stack`
    call, each under a seed derived from (seed, concept). Per target, one
    :func:`fine_tune_stack` call tunes every source encoder plus the
    scratch reference, all under seeds derived from (seed, target).
    """
    catalog = dataset.catalog
    support = dataset.support()
    usable = [cid for cid in catalog.ids if support[cid] >= max(2, cfg.min_examples)]
    skipped = tuple((cid, support[cid]) for cid in catalog.ids if cid not in usable)
    if len(usable) < 2:
        raise DataError(
            f"need at least 2 concepts with >= {cfg.min_examples} examples; "
            f"skipped {[(catalog.name_of(c), n) for c, n in skipped]}"
        )

    per_concept = {cid: dataset.of_concept(cid) for cid in usable}
    by_rows: dict[int, list[int]] = {}
    for cid in usable:
        by_rows.setdefault(per_concept[cid].shape[0], []).append(cid)
    pretrained = {}
    for cids in by_rows.values():
        seeds = [task_seed(cfg.seed, 1, cid) for cid in cids]
        try:
            stack = train_autoencoder_stack([per_concept[cid] for cid in cids], cfg, seeds)
        except NumericError as exc:
            name = catalog.name_of(cids[exc.member])
            raise NumericError(f"pretraining concept {name!r}: {exc}", exc.member) from exc
        pretrained.update((cid, encoder) for cid, (encoder, _, _) in zip(cids, stack))
    encoders = {cid: pretrained[cid] for cid in usable}

    transfers = {}
    for dst in usable:
        rows = per_concept[dst]
        seed = task_seed(cfg.seed, 2, dst)  # shared by every fine-tune toward dst
        budget = capped_budget(rows.shape[0], cfg)
        sources = [src for src in usable if src != dst]
        fresh = make_encoder(rows.shape[1], cfg.encoder, np.random.default_rng([seed, 3]))
        stack = [encoders[src] for src in sources] + [fresh]  # fresh: the scratch reference
        *tuned, (_, l_ref) = fine_tune_stack(stack, rows, budget, cfg, seed)
        for src, (encoder, l_ft) in zip(sources, tuned):
            p = raw_transfer_score(l_ft, l_ref)
            record = AffinityRecord(
                source=src,
                target=dst,
                p=p,
                budget=budget,
                score=final_score(p, budget, cfg.b_max, cfg.alpha, cfg.beta),
            )
            transfers[(src, dst)] = (record, encoder)

    pairs = sorted(transfers)
    matrix = AffinityMatrix(
        catalog=catalog,
        alpha=cfg.alpha,
        beta=cfg.beta,
        b_max=cfg.b_max,
        seed=cfg.seed,
        records=tuple(transfers[pair][0] for pair in pairs),
        skipped=skipped,
        encoder=cfg.encoder,
    )
    return AffinityArtifacts(
        matrix=matrix,
        concept_encoders=encoders,
        pair_encoders={pair: transfers[pair][1] for pair in pairs},
        config=cfg,
        input_dim=dataset.n_features,
    )


def build_affinity_matrix(dataset: LabeledDataset, cfg: AffinityConfig) -> AffinityMatrix:
    return build_affinity_artifacts(dataset, cfg).matrix


def symmetrize_to_distance(matrix: AffinityMatrix, method: str = "mean") -> DistanceMatrix:
    """d(i,j) = 1 - combine(s(i->j), s(j->i)); combine is mean by default."""
    if method not in SYMMETRIZATIONS:
        raise ValueError(f"unknown symmetrization {method!r}")
    missing = matrix.missing_pairs()
    if missing:
        names = ", ".join(
            f"{matrix.catalog.name_of(i)}->{matrix.catalog.name_of(j)}" for i, j in missing
        )
        raise DataError(f"affinity matrix is missing pairs: {names}")
    k = len(matrix.catalog)
    index = matrix._index()
    combine = {"mean": lambda a, b: (a + b) / 2.0, "min": min, "max": max}[method]
    values = np.zeros((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            d = 1.0 - combine(index[(i, j)].score, index[(j, i)].score)
            values[i, j] = values[j, i] = d
    budgets = tuple(
        sum(r.budget for r in matrix.records if r.target == cid) for cid in range(k)
    )
    return DistanceMatrix(catalog=matrix.catalog, values=values, budgets=budgets)


# ---------------------------------------------------------------------------
# wire formats


_MATRIX_KEYS = ("concepts", "alpha", "beta", "b_max", "seed", "entries", "skipped", "encoder")


def affinity_to_json(matrix: AffinityMatrix) -> dict:
    return {
        "concepts": list(matrix.catalog.names),
        "alpha": matrix.alpha,
        "beta": matrix.beta,
        "b_max": matrix.b_max,
        "seed": matrix.seed,
        "entries": [
            {"src": r.source, "dst": r.target, "p": r.p, "b": r.budget, "s": r.score}
            for r in matrix.records
        ],
        "skipped": [{"concept": cid, "examples": n} for cid, n in matrix.skipped],
        "encoder": None if matrix.encoder is None else asdict(matrix.encoder),
    }


def affinity_from_json(obj: dict) -> AffinityMatrix:
    """Read exactly the keys ``affinity_to_json`` writes, plus the optional
    ``provenance`` the ``affinity`` command adds; ``encoder`` may be null."""
    check_keys(obj, _MATRIX_KEYS, "bad affinity JSON", optional=("provenance",))
    try:
        return AffinityMatrix(
            catalog=Catalog(tuple(obj["concepts"])),
            alpha=float(obj["alpha"]),
            beta=float(obj["beta"]),
            b_max=int(obj["b_max"]),
            seed=int(obj["seed"]),
            records=tuple(
                AffinityRecord(
                    source=int(e["src"]),
                    target=int(e["dst"]),
                    p=float(e["p"]),
                    budget=int(e["b"]),
                    score=float(e["s"]),
                )
                for e in obj["entries"]
            ),
            skipped=tuple((int(s["concept"]), int(s["examples"])) for s in obj["skipped"]),
            encoder=None
            if obj["encoder"] is None
            else config_from_json(EncoderConfig, obj["encoder"], "affinity encoder"),
        )
    except (KeyError, TypeError) as exc:
        raise DataError(f"bad affinity JSON: {exc}") from None


def distance_to_csv(dm: DistanceMatrix) -> str:
    lines = ["," + ",".join(dm.catalog.names)]
    for i, name in enumerate(dm.catalog.names):
        lines.append(name + "," + ",".join(repr(float(v)) for v in dm.values[i]))
    return "\n".join(lines) + "\n"

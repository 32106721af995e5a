"""Transfer-based affinity between concepts.

For each concept an autoencoder learns a compressed representation; the
encoder is then fine-tuned toward every other concept with a fresh decoder
under a supervision budget. How well that transfer reconstructs held-out
target data, relative to a from-scratch baseline trained under the same
budget and schedule, is the raw similarity score p. The final score blends
p with the normalized budget; symmetrized complements of the scores feed
hierarchy derivation as distances.

Every transfer toward one target uses the same data slices, decoder
initialization and batch schedule: the K-1 source encoders and the scratch
reference toward that target form one fine-tune task. Tasks differ in their
held-out slices and may differ in training rows, but they train together as
one stacked SGD, each task's members sharing its batch order (see
:func:`fine_tune_stack`); each result is bit-identical to tuning that
encoder alone. The K concept autoencoders each have their own rows and
seed, and pretrain as one stack too (:func:`train_autoencoder_stack`).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DataError, NumericError
from .nets import (
    Mlp,
    SgdConfig,
    forward,
    init_mlp,
    member_mlp,
    member_mse,
    sgd_reconstruction,
    stack_params,
    task_seed,
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

    def __post_init__(self) -> None:
        for name in ("hidden_dim", "latent_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


@dataclass(frozen=True)
class AffinityConfig:
    """Settings for the whole affinity stage.

    ``warmup`` trains the fresh decoder alone (encoder frozen) before the
    joint ``finetune`` phase; without it, early gradients from a random
    decoder scramble the source representation and the transfer signal with
    it. With ``budget`` 0 or ``finetune.epochs`` 0 there is no joint phase,
    and the source encoder is scored frozen.
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
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("alpha", "beta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.alpha < 0 or self.beta < 0 or self.alpha + self.beta <= 0:
            raise ValueError("need alpha, beta >= 0 with alpha + beta > 0")
        if not 0 < self.holdout_fraction < 1:
            raise ValueError("holdout_fraction must be in (0, 1)")
        if self.budget < 0 or self.b_max < 0 or self.budget > self.b_max:
            raise ValueError("need 0 <= budget <= b_max")


_CONFIG_FORMAT = "hierclass-affinity-config-v2"


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

    Every ``data[s]`` is a nonempty (N_s, dim) matrix, of one shared width
    and any row count. Member s draws its initialization and batch order
    from ``seeds[s]`` alone, so it gets exactly what it gets trained alone,
    as ``train_autoencoder_stack([data[s]], cfg, [seeds[s]])[0]``: the
    trained pair plus the final held-in mean reconstruction loss. A
    NumericError names the diverging member in its ``member``.
    """
    x = [np.asarray(d, dtype=float) for d in data]
    if any(d.ndim != 2 or d.shape[0] < 1 or d.shape[1] != x[0].shape[1] for d in x):
        raise ValueError("need nonempty (N, dim) example matrices of one width")
    init_rngs = [np.random.default_rng([seed, 0]) for seed in seeds]
    encoders = [make_encoder(x[0].shape[1], cfg.encoder, rng) for rng in init_rngs]
    decoders = [make_decoder(x[0].shape[1], cfg.encoder, rng) for rng in init_rngs]
    train_rngs = [np.random.default_rng([seed, 1]) for seed in seeds]
    n_enc = len(encoders[0].layers)
    params = stack_params(encoders) + stack_params(decoders)
    acts = [layer.activation for layer in encoders[0].layers + decoders[0].layers]
    _, final = sgd_reconstruction(params, acts, x, x, cfg.pretrain, train_rngs)
    return [
        (member_mlp(params[:n_enc], s, encoders[0]), member_mlp(params[n_enc:], s, decoders[0]),
         float(final[s]))
        for s in range(len(seeds))
    ]


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


def fine_tune_stack(tasks, cfg: AffinityConfig) -> list[list[tuple[Mlp, float]]]:
    """Fine-tune copies of same-shaped encoders toward target concepts.

    Each task is ``(encoders, target_data, budget, seed)``. For each of its
    encoders, a fresh decoder is first trained alone (warmup), then jointly
    with a copy of the encoder, on exactly ``budget`` target examples drawn
    from the non-held-out pool; the returned loss is measured on the task's
    held-out slice. With budget 0 the encoder is left untouched and only the
    fresh decoder is trained (on the pool), scoring the source
    representation as-is; with ``finetune.epochs`` 0 the same holds on the
    ``budget`` examples. All of a task's randomness (slices, decoder init,
    batch schedule) derives from its ``seed`` alone, so runs toward the same
    target are directly comparable.

    Tasks that agree on whether the joint phase runs train as one stack,
    whatever their row counts: one warmup SGD over the frozen encoders'
    cached latents, then one joint SGD through 3-D matmuls. The members of
    one task hold one batch-order Generator and so share its order; each
    task draws its own. Encoder i of task t returns exactly what tuning it
    alone under that task's seed returns. Returns one list of (encoder,
    loss) per task. A NumericError names the diverging task and encoder,
    and carries in ``member`` the encoder's position in the concatenation
    of every task's encoders.
    """
    prepared = []  # per task: training rows, held-out rows, fresh decoder, batch-order Generator
    groups: dict[bool, list[int]] = {}  # joint phase -> tasks
    for t, (encoders, target_data, budget, seed) in enumerate(tasks):
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
        rows = target_data[pool] if budget == 0 else target_data[pool[:budget]]
        prepared.append((rows, target_data[heldout], decoder, np.random.default_rng([seed, 2])))
        groups.setdefault(budget > 0 and cfg.finetune.epochs > 0, []).append(t)

    results: list[list[tuple[Mlp, float]]] = [[] for _ in tasks]
    for joint, group in groups.items():
        owners = [(t, i) for t in group for i in range(len(tasks[t][0]))]
        encoders = [tasks[t][0][i] for t, i in owners]
        rows, _, decoders, rngs = zip(*(prepared[t] for t, _ in owners))
        enc_params, dec_params = stack_params(encoders), stack_params(decoders)
        enc_acts = [layer.activation for layer in encoders[0].layers]
        dec_acts = [layer.activation for layer in decoders[0].layers]
        latents, lo = [], 0
        for t in group:  # a task's encoders on its rows, shared by its members
            hi = lo + len(tasks[t][0])
            latents += list(forward([[w[lo:hi], b[lo:hi]] for w, b in enc_params], enc_acts, prepared[t][0]))
            lo = hi
        try:
            sgd_reconstruction(dec_params, dec_acts, latents, rows, cfg.warmup, rngs)
            if joint:
                sgd_reconstruction(
                    enc_params + dec_params, enc_acts + dec_acts, rows, rows, cfg.finetune, rngs
                )
        except NumericError as exc:
            t, i = owners[exc.member]
            member = sum(len(task[0]) for task in tasks[:t]) + i
            raise NumericError(f"fine-tune task {t}, encoder {i}: {exc}", member) from exc

        lo = 0
        for t in group:
            held, hi = prepared[t][1], lo + len(tasks[t][0])
            task_params = [[w[lo:hi], b[lo:hi]] for w, b in enc_params + dec_params]
            losses = member_mse(task_params, enc_acts + dec_acts, held, held)
            results[t] = [
                (member_mlp(enc_params, s, encoders[s]) if joint else encoders[s], float(losses[s - lo]))
                for s in range(lo, hi)
            ]
            lo = hi
    return results


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
    """The affinity matrix and the pair encoders tuned for it, for reuse
    downstream; ``input_dim`` is the feature width they were trained on."""

    matrix: AffinityMatrix
    pair_encoders: dict[tuple[int, int], Mlp]
    config: AffinityConfig
    input_dim: int


def build_affinity_artifacts(dataset: LabeledDataset, cfg: AffinityConfig) -> AffinityArtifacts:
    """Run the full affinity analysis over every ordered concept pair.

    Concepts with fewer than ``cfg.min_examples`` examples are skipped and
    reported; their pairs are left missing. The concepts pretrain their
    autoencoders in one :func:`train_autoencoder_stack` call, each under a
    seed derived from (seed, concept). One :func:`fine_tune_stack` call then
    tunes, toward every target, each source encoder plus the scratch
    reference under a seed derived from (seed, target). A diverging
    transfer raises a NumericError that names its source and target
    concepts.
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
    seeds = [task_seed(cfg.seed, 1, cid) for cid in usable]
    try:
        stack = train_autoencoder_stack([per_concept[cid] for cid in usable], cfg, seeds)
    except NumericError as exc:
        name = catalog.name_of(usable[exc.member])
        raise NumericError(f"pretraining concept {name!r}: {exc}", exc.member) from exc
    pretrained = {cid: encoder for cid, (encoder, _, _) in zip(usable, stack)}

    tasks, members = [], []  # one task per target: every source encoder, then the scratch reference
    for dst in usable:
        rows = per_concept[dst]
        seed = task_seed(cfg.seed, 2, dst)  # shared by every fine-tune toward dst
        sources = [src for src in usable if src != dst]
        fresh = make_encoder(rows.shape[1], cfg.encoder, np.random.default_rng([seed, 3]))
        tasks.append(([pretrained[src] for src in sources] + [fresh], rows, capped_budget(rows.shape[0], cfg), seed))
        members += [(src, dst) for src in sources] + [(None, dst)]
    try:
        tuned = fine_tune_stack(tasks, cfg)
    except NumericError as exc:
        src, dst = members[exc.member]
        what = "scratch reference" if src is None else f"transfer from {catalog.name_of(src)!r}"
        raise NumericError(f"{what} toward {catalog.name_of(dst)!r}: {exc}", exc.member) from exc

    transfers = {}
    for dst, (_, _, budget, _), (*stack, (_, l_ref)) in zip(usable, tasks, tuned):
        for src, (encoder, l_ft) in zip([src for src in usable if src != dst], stack):
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
        pair_encoders={pair: transfers[pair][1] for pair in pairs},
        config=cfg,
        input_dim=dataset.n_features,
    )


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
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"bad affinity JSON: {exc}") from None


def distance_to_csv(dm: DistanceMatrix) -> str:
    lines = ["," + ",".join(dm.catalog.names)]
    for i, name in enumerate(dm.catalog.names):
        lines.append(name + "," + ",".join(repr(float(v)) for v in dm.values[i]))
    return "\n".join(lines) + "\n"

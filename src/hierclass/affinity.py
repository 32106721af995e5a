"""Transfer-based affinity between concepts.

For each concept an autoencoder learns a compressed representation. A
transfer scores that representation on every other concept: the source
encoder stays frozen, and a fresh decoder learns to reconstruct the
target's rows from its latents under a supervision budget. How well that
reconstructs held-out target data, relative to a from-scratch reference
encoder scored the same way, is the raw similarity score p. The final score
blends p with the normalized budget; symmetrized complements of the scores
feed hierarchy derivation as distances.

Every transfer toward one target uses the same data slices, decoder
initialization and batch schedule: the K-1 source encoders and the scratch
reference toward that target form one transfer task. Tasks differ in their
held-out slices and may differ in training rows, but their decoders train
together as one stacked SGD, each task's members sharing its batch order
(see :func:`transfer_losses`); each loss is bit-identical to scoring that
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
from .serialize import check_keys, config_from_json, json_integer, json_number, mlp_from_json, mlp_to_json
from .synth import LabeledDataset
from .treespace import Catalog


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

    ``pretrain`` trains each concept's autoencoder. A transfer trains a
    fresh decoder on the frozen source encoder's latents under the
    ``warmup`` schedule, on ``budget`` rows of its target's pool, the rows
    left after holding out ``holdout_fraction``: all of them when the pool
    is smaller (:func:`capped_budget`) or ``budget`` is 0.
    """

    encoder: EncoderConfig = EncoderConfig(hidden_dim=24)
    pretrain: SgdConfig = SgdConfig(epochs=60, batch_size=32, learning_rate=0.1)
    warmup: SgdConfig = SgdConfig(epochs=80, batch_size=16, learning_rate=0.1)
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


_CONFIG_FORMAT = "hierclass-affinity-config-v4"


def affinity_config_to_json(cfg: AffinityConfig) -> dict:
    """Every field of the config, nested configs included, under a format tag."""
    return {"format": _CONFIG_FORMAT, **asdict(cfg)}


def affinity_config_from_json(obj: dict) -> AffinityConfig:
    if not isinstance(obj, dict) or obj.get("format") != _CONFIG_FORMAT:
        found = obj.get("format") if isinstance(obj, dict) else None
        raise DataError(f"unsupported affinity config format {found!r}, not {_CONFIG_FORMAT!r}; "
                        "rebuild the file with `hierclass affinity`")
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
    data, encoder: EncoderConfig, schedule: SgdConfig, seeds
) -> list[tuple[Mlp, Mlp, float]]:
    """Train one ``encoder``-shaped autoencoder per example matrix under the
    SGD ``schedule``, as one stacked SGD.

    Every ``data[s]`` is a nonempty (N_s, dim) matrix, of one shared width
    and any row count. Member s draws its initialization and batch order
    from ``seeds[s]`` alone, so it gets exactly what it gets trained alone,
    as ``train_autoencoder_stack([data[s]], encoder, schedule, [seeds[s]])[0]``:
    the trained pair plus the final held-in mean reconstruction loss. A
    NumericError names the diverging member in its ``member``.
    """
    x = [np.asarray(d, dtype=float) for d in data]
    if any(d.ndim != 2 or d.shape[0] < 1 or d.shape[1] != x[0].shape[1] for d in x):
        raise ValueError("need nonempty (N, dim) example matrices of one width")
    init_rngs = [np.random.default_rng([seed, 0]) for seed in seeds]
    encoders = [make_encoder(x[0].shape[1], encoder, rng) for rng in init_rngs]
    decoders = [make_decoder(x[0].shape[1], encoder, rng) for rng in init_rngs]
    train_rngs = [np.random.default_rng([seed, 1]) for seed in seeds]
    n_enc = len(encoders[0].layers)
    params = stack_params(encoders) + stack_params(decoders)
    acts = [layer.activation for layer in encoders[0].layers + decoders[0].layers]
    _, final = sgd_reconstruction(params, acts, x, x, schedule, train_rngs)
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
    """The budget recorded for a transfer toward ``n_rows`` examples:
    ``cfg.budget``, capped at the pool left after holding out. A transfer
    trains on that many rows, or on the whole pool at budget 0."""
    return min(cfg.budget, n_rows - _held_out_count(n_rows, cfg.holdout_fraction))


def _holdout_split(n: int, fraction: float, rng) -> tuple[np.ndarray, np.ndarray]:
    """(pool, heldout) index split; at least one row on each side when n > 1."""
    order = rng.permutation(n)
    n_held = _held_out_count(n, fraction)
    return order[n_held:], order[:n_held]


def transfer_losses(tasks, cfg: AffinityConfig) -> list[list[float]]:
    """Score frozen same-shaped encoders on target concepts.

    Each task is ``(encoders, target_data, seed)``. Its target rows split
    into a held-out slice and a pool, and it trains on the first
    ``cfg.budget`` pool rows: :func:`capped_budget` of them, or the whole
    pool at budget 0. For each of its encoders, a fresh decoder trains on
    the encoder's latents under ``cfg.warmup``, the encoder left untouched;
    the returned loss is the reconstruction error on the task's held-out
    slice. All of a task's randomness (slices, decoder init, batch
    schedule) derives from its ``seed`` alone, so transfers toward the same
    target are directly comparable.

    Every task trains in one stack, whatever its row count: one SGD over
    the encoders' cached latents. The members of one task hold one
    batch-order Generator and so share its order; each task draws its own.
    Encoder i of task t gets exactly the loss that scoring it alone under
    that task's seed gets. Returns one list of losses per task. A
    NumericError names the diverging task and encoder, and carries in
    ``member`` the encoder's position in the concatenation of every task's
    encoders.
    """
    if not tasks:
        return []
    prepared = []  # per task: training rows, held-out rows, fresh decoder, batch-order Generator
    for encoders, target_data, seed in tasks:
        target_data = np.asarray(target_data, dtype=float)
        if target_data.ndim != 2 or target_data.shape[0] < 2:
            raise ValueError("need at least 2 target examples (one is held out)")
        if any(target_data.shape[1] != encoder.input_dim for encoder in encoders):
            raise ValueError("target feature dim does not match the encoder")
        pool, heldout = _holdout_split(
            target_data.shape[0], cfg.holdout_fraction, np.random.default_rng([seed, 0])
        )
        decoder = make_decoder(target_data.shape[1], cfg.encoder, np.random.default_rng([seed, 1]))
        prepared.append((target_data[pool[: cfg.budget or None]], target_data[heldout], decoder,
                         np.random.default_rng([seed, 2])))

    bounds = np.cumsum([0, *(len(encoders) for encoders, _, _ in tasks)])  # each task's members
    owner = np.repeat(np.arange(len(tasks)), np.diff(bounds))
    encoders = [encoder for task_encoders, _, _ in tasks for encoder in task_encoders]
    rows, _, decoders, rngs = zip(*(prepared[t] for t in owner))
    enc_params, dec_params = stack_params(encoders), stack_params(decoders)
    enc_acts = [layer.activation for layer in encoders[0].layers]
    dec_acts = [layer.activation for layer in decoders[0].layers]
    latents = []
    for lo, hi, (task_rows, *_) in zip(bounds, bounds[1:], prepared):  # shared by a task's members
        latents += list(forward([[w[lo:hi], b[lo:hi]] for w, b in enc_params], enc_acts, task_rows))
    try:
        sgd_reconstruction(dec_params, dec_acts, latents, rows, cfg.warmup, rngs)
    except NumericError as exc:
        t = owner[exc.member]
        raise NumericError(f"transfer task {t}, encoder {exc.member - bounds[t]}: {exc}", exc.member) from exc

    losses = []
    for lo, hi, (_, held, _, _) in zip(bounds, bounds[1:], prepared):
        task_params = [[w[lo:hi], b[lo:hi]] for w, b in enc_params + dec_params]
        losses.append(member_mse(task_params, enc_acts + dec_acts, held, held).tolist())
    return losses


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


def _check_pairs(catalog: Catalog, keys: list[tuple[int, int]], what: str) -> None:
    """Require ``keys`` to hold every ordered pair of distinct concepts
    exactly once: a ValueError naming the missing pairs otherwise."""
    k = len(catalog)
    pairs = {(i, j) for i in range(k) for j in range(k) if i != j}
    missing = sorted(pairs - set(keys))
    if missing:
        names = ", ".join(f"{catalog.name_of(i)}->{catalog.name_of(j)}" for i, j in missing)
        raise ValueError(f"{what} is missing pairs: {names}")
    if len(keys) != len(pairs):  # every pair is there: the rest repeat one or are no pair
        raise ValueError(f"{what} holds {len(keys)} entries for the {len(pairs)} ordered pairs")


@dataclass(frozen=True)
class AffinityMatrix:
    """One record per ordered pair of distinct concepts; the settings that
    scored them travel with the matrix's artifacts or provenance."""

    catalog: Catalog
    records: tuple[AffinityRecord, ...]

    def __post_init__(self) -> None:
        if len(self.catalog) < 2:
            raise ValueError(f"an affinity matrix relates at least 2 concepts, got {len(self.catalog)}")
        _check_pairs(self.catalog, [(r.source, r.target) for r in self.records], "affinity matrix")

    def score(self, source: int, target: int) -> float:
        return next(r.score for r in self.records if (r.source, r.target) == (source, target))


@dataclass(frozen=True)
class DistanceMatrix:
    """Symmetric [0,1] distances, zero diagonal."""

    catalog: Catalog
    values: np.ndarray

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


@dataclass(frozen=True)
class AffinityArtifacts:
    """The affinity matrix and the pretrained concept encoders it scored,
    one per concept in concept-id order, for reuse downstream. Every
    encoder has the architecture ``config.encoder`` builds on one feature
    width, :attr:`input_dim`."""

    matrix: AffinityMatrix
    concept_encoders: tuple[Mlp, ...]
    config: AffinityConfig

    def __post_init__(self) -> None:
        object.__setattr__(self, "concept_encoders", tuple(self.concept_encoders))
        k = len(self.matrix.catalog)
        if len(self.concept_encoders) != k:
            raise ValueError(f"{len(self.concept_encoders)} concept encoders for the {k} concepts")
        enc = self.config.encoder
        want = ((self.input_dim, enc.hidden_dim, enc.latent_dim), (enc.hidden_activation, enc.latent_activation))
        for cid, encoder in enumerate(self.concept_encoders):
            got = ((encoder.input_dim, *(l.weights.shape[0] for l in encoder.layers)),
                   tuple(l.activation for l in encoder.layers))
            if got != want:
                raise ValueError(f"concept encoder {cid} has layer widths {got[0]} and activations {got[1]}, "
                                 f"but the config's encoder on {self.input_dim} features has {want[0]} and {want[1]}")

    @property
    def input_dim(self) -> int:
        """The feature width the encoders were trained on."""
        return self.concept_encoders[0].input_dim


def build_affinity_artifacts(dataset: LabeledDataset, cfg: AffinityConfig) -> AffinityArtifacts:
    """Run the full affinity analysis over every ordered concept pair.

    Every concept needs at least ``max(2, cfg.min_examples)`` examples;
    a DataError names each one that has fewer. The concepts pretrain their
    autoencoders in one :func:`train_autoencoder_stack` call, each under a
    seed derived from (seed, concept). One :func:`transfer_losses` call then
    scores, toward every target, each source encoder plus the scratch
    reference under a seed derived from (seed, target). A diverging
    transfer raises a NumericError that names its source and target
    concepts.
    """
    catalog = dataset.catalog
    need = max(2, cfg.min_examples)
    short = {catalog.name_of(cid): n for cid, n in dataset.support().items() if n < need}
    if short or len(catalog) < 2:
        raise DataError(
            f"need at least 2 concepts with >= {need} examples each; "
            f"got {len(catalog)}, with too few examples: {short}"
        )

    ids = catalog.ids
    per_concept = {cid: dataset.of_concept(cid) for cid in ids}
    seeds = [task_seed(cfg.seed, 1, cid) for cid in ids]
    try:
        stack = train_autoencoder_stack([per_concept[cid] for cid in ids], cfg.encoder, cfg.pretrain, seeds)
    except NumericError as exc:
        name = catalog.name_of(ids[exc.member])
        raise NumericError(f"pretraining concept {name!r}: {exc}", exc.member) from exc
    pretrained = [encoder for encoder, _, _ in stack]

    tasks, members = [], []  # one task per target: every source encoder, then the scratch reference
    for dst in ids:
        rows = per_concept[dst]
        seed = task_seed(cfg.seed, 2, dst)  # shared by every transfer toward dst
        fresh = make_encoder(rows.shape[1], cfg.encoder, np.random.default_rng([seed, 3]))
        tasks.append(([pretrained[src] for src in ids if src != dst] + [fresh], rows, seed))
        members += [(src, dst) for src in ids if src != dst] + [(None, dst)]
    try:
        losses = transfer_losses(tasks, cfg)
    except NumericError as exc:
        src, dst = members[exc.member]
        what = "scratch reference" if src is None else f"transfer from {catalog.name_of(src)!r}"
        raise NumericError(f"{what} toward {catalog.name_of(dst)!r}: {exc}", exc.member) from exc

    records = []
    for src, dst in ((src, dst) for src in ids for dst in ids if src != dst):
        l_ft, l_ref = losses[dst][src - (src > dst)], losses[dst][-1]  # sources skip dst
        p, budget = raw_transfer_score(l_ft, l_ref), capped_budget(len(per_concept[dst]), cfg)
        score = final_score(p, budget, cfg.b_max, cfg.alpha, cfg.beta)
        records.append(AffinityRecord(source=src, target=dst, p=p, budget=budget, score=score))
    matrix = AffinityMatrix(catalog=catalog, records=tuple(records))
    return AffinityArtifacts(matrix=matrix, concept_encoders=pretrained, config=cfg)


def symmetrize_to_distance(matrix: AffinityMatrix) -> DistanceMatrix:
    """d(i,j) = 1 - (s(i->j) + s(j->i)) / 2."""
    scores = np.zeros((len(matrix.catalog),) * 2)
    for r in matrix.records:
        scores[r.source, r.target] = r.score
    values = 1.0 - (scores + scores.T) / 2.0
    np.fill_diagonal(values, 0.0)
    return DistanceMatrix(catalog=matrix.catalog, values=values)


# ---------------------------------------------------------------------------
# wire formats


def affinity_to_json(matrix: AffinityMatrix) -> dict:
    return {
        "concepts": list(matrix.catalog.names),
        "entries": [
            {"src": r.source, "dst": r.target, "p": r.p, "b": r.budget, "s": r.score}
            for r in matrix.records
        ],
    }


def affinity_from_json(obj: dict) -> AffinityMatrix:
    """Read exactly the keys ``affinity_to_json`` writes, plus the optional
    ``provenance`` the ``affinity`` command adds; any other key, such as a
    setting older files repeated at the top level, is a DataError naming
    it. Each number must be a JSON number, and an integer where an int is
    written."""
    check_keys(obj, ("concepts", "entries"), "bad affinity JSON", optional=("provenance",))
    try:
        return AffinityMatrix(
            catalog=Catalog(tuple(obj["concepts"])),
            records=tuple(_record_from_json(e) for e in obj["entries"]),
        )
    except (TypeError, ValueError) as exc:
        raise DataError(f"bad affinity JSON: {exc}") from None


def _record_from_json(entry) -> AffinityRecord:
    check_keys(entry, ("src", "dst", "p", "b", "s"), "bad affinity JSON: entry")
    return AffinityRecord(
        source=json_integer(entry["src"], "src"),
        target=json_integer(entry["dst"], "dst"),
        p=json_number(entry["p"], "p"),
        budget=json_integer(entry["b"], "b"),
        score=json_number(entry["s"], "s"),
    )


def artifacts_to_json(artifacts: AffinityArtifacts) -> dict:
    return {
        "matrix": affinity_to_json(artifacts.matrix),
        "config": affinity_config_to_json(artifacts.config),
        "concept_encoders": [mlp_to_json(m) for m in artifacts.concept_encoders],
    }


def artifacts_from_json(obj: dict) -> AffinityArtifacts:
    """Read exactly what :func:`artifacts_to_json` writes; a DataError says
    what is wrong. The config's format tag is read first, so a file of an
    older version is an error naming its tag, whatever its other keys."""
    try:
        config = affinity_config_from_json(obj["config"]) if isinstance(obj, dict) and "config" in obj else None
    except DataError as exc:
        raise DataError(f"bad artifacts file: {exc}") from None
    check_keys(obj, ("matrix", "config", "concept_encoders"), "bad artifacts file")
    encoders = obj["concept_encoders"]
    if not isinstance(encoders, list):
        raise DataError(f"bad artifacts file: concept_encoders must be a list, got {type(encoders).__name__}")
    try:
        return AffinityArtifacts(
            matrix=affinity_from_json(obj["matrix"]),
            concept_encoders=[mlp_from_json(m) for m in encoders],
            config=config,
        )
    except (DataError, TypeError, ValueError) as exc:
        raise DataError(f"bad artifacts file: {exc}") from None


def distance_to_csv(dm: DistanceMatrix) -> str:
    lines = ["," + ",".join(dm.catalog.names)]
    for i, name in enumerate(dm.catalog.names):
        lines.append(name + "," + ",".join(repr(float(v)) for v in dm.values[i]))
    return "\n".join(lines) + "\n"

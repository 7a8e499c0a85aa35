"""Training loop: forward through the frozen composer, selection, combined loss,
AdamW with linear warmup, and ablation switches.

Randomness flows from the configured seed only: mapper initialization and
epoch shuffling use independent seeded streams, so identical configs yield
bit-identical parameter trajectories.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from . import losses as L
from . import mining
from .autodiff import Tape, Tensor
from .composer import PromptComposer
from .errors import (
    ContractError,
    DegenerateInputError,
    ParameterError,
    ShapeError,
    TrainingDivergedError,
)
from .mappers import Mappers, layout, map_rows

log = logging.getLogger(__name__)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# AdamW runs over blocks of this many elements: the float64 temporaries of a
# block stay in cache, where whole-vector temporaries made the update slower.
_ADAM_BLOCK = 1 << 15


@dataclass(frozen=True)
class TrainConfig(L.LossWeights):
    """The trainer's settings. The objective's weights and term switches are
    the inherited :class:`~cirmap.losses.LossWeights` fields; the S-Set
    settings act through the rows passed to the objective instead."""

    batch_size: int = 64
    steps: int = 500
    learning_rate: float = 5e-4
    weight_decay: float = 0.1
    warmup_steps: int = 50
    sigma: float = 0.01
    lam: float = 0.5  # caption-similarity threshold ("lambda" in config files)
    seed: int = 0
    use_sset: bool = True
    hidden: int | None = None  # None: 4 x the width of the rows the mappers map

    def __post_init__(self):
        super().__post_init__()
        for name, least in (("steps", 1), ("warmup_steps", 0), ("seed", 0), ("batch_size", 1)):
            if getattr(self, name) < least:
                raise ParameterError(f"{name} must be >= {least}, got {getattr(self, name)}")
        if self.hidden is not None and self.hidden < 1:
            raise ParameterError(f"hidden must be >= 1, got {self.hidden}")
        if not self.sigma > 0:
            raise ParameterError(f"sigma must be positive, got {self.sigma}")
        for name in ("learning_rate", "weight_decay"):
            if getattr(self, name) < 0:
                raise ParameterError(f"{name} must be >= 0, got {getattr(self, name)}")

    def hidden_for(self, dim: int) -> int:
        """The mappers' hidden width for rows of width ``dim``."""
        return 4 * dim if self.hidden is None else self.hidden


class OptimizerState:
    """AdamW moments, one float64 entry per element of the flat parameter
    vector, and the float64 scratch one block of the update works in."""

    def __init__(self, size: int):
        self.m, self.v, self.step = np.zeros(size), np.zeros(size), 0
        self.scratch = np.empty((3, min(size, _ADAM_BLOCK)))


def lr_schedule(step: int, base_lr: float, warmup_steps: int) -> float:
    """Linear warmup to base_lr, then constant."""
    if warmup_steps > 0 and step < warmup_steps:
        return base_lr * step / warmup_steps
    return base_lr


def adamw_step(
    flat: np.ndarray,
    grads: list[list[np.ndarray] | None],
    state: OptimizerState,
    lr_t: float,
    weight_decay: float,
) -> None:
    """One decoupled-weight-decay Adam update of the writable float32 vector
    ``flat``, in place; bias-corrected, 64-bit math.

    ``flat`` is cut into ``len(grads)`` equal parts (one per mapper). Each
    part's gradient is a list of arrays that tile it in order, such as the
    leaf gradients of one mapper in layout order; their total size must be
    the part's. None stands for a part the loss did not reach: that part is
    neither decayed nor are its moments advanced. Decay applies before the
    Adam delta. The update runs block by block in the state's float64
    scratch, filled straight from the pieces; each element gets the same
    operations, in the same order, as a whole-array update would apply.
    """
    if lr_t < 0:
        raise ParameterError(f"lr_t must be >= 0, got {lr_t}")
    size = flat.size // len(grads)
    if size * len(grads) != flat.size or state.m.shape != flat.shape:
        raise ShapeError(f"{flat.size} parameters, {len(grads)} parts, {state.m.size} moments")
    if flat.dtype != np.float32 or not flat.flags.writeable:
        raise ContractError("adamw_step updates a writable float32 vector in place")
    parts = []
    for i, pieces in enumerate(grads):
        if pieces is None:
            continue
        # A bare array would iterate as rows or scalars, not as pieces.
        if not isinstance(pieces, (list, tuple)):
            raise ContractError(f"part {i}: a gradient is a list of pieces, not {type(pieces)}")
        pieces = [np.ravel(piece) for piece in pieces]
        starts = [0, *itertools.accumulate(piece.size for piece in pieces)]
        if starts[-1] != size:
            raise ShapeError(f"part {i} has {size} elements; its gradient pieces hold {starts[-1]}")
        parts.append((i, pieces, starts))
    state.step += 1
    t = state.step
    decay, c1, c2 = lr_t * weight_decay, 1.0 - ADAM_BETA1**t, 1.0 - ADAM_BETA2**t
    for i, pieces, starts in parts:
        for lo in range(0, size, _ADAM_BLOCK):
            hi = min(lo + _ADAM_BLOCK, size)
            part = slice(i * size + lo, i * size + hi)
            theta, g, tmp = state.scratch[:, : hi - lo]
            m, v = state.m[part], state.v[part]
            _fill(g, pieces, starts, lo)
            theta[...] = flat[part]
            # theta -= lr_t * weight_decay * theta
            np.multiply(theta, decay, out=tmp)
            theta -= tmp
            # m = beta1 * m + (1 - beta1) * g
            m *= ADAM_BETA1
            np.multiply(g, 1.0 - ADAM_BETA1, out=tmp)
            m += tmp
            # v = beta2 * v + (1 - beta2) * g * g
            v *= ADAM_BETA2
            np.multiply(g, 1.0 - ADAM_BETA2, out=tmp)
            tmp *= g
            v += tmp
            # theta -= lr_t * (m / c1) / (sqrt(v / c2) + eps)
            np.divide(m, c1, out=tmp)
            tmp *= lr_t
            np.divide(v, c2, out=g)
            np.sqrt(g, out=g)
            g += ADAM_EPS
            tmp /= g
            theta -= tmp
            flat[part] = theta


def _fill(out: np.ndarray, pieces: list[np.ndarray], starts: list[int], lo: int) -> None:
    """Copy elements ``lo`` to ``lo + out.size`` of the flat ``pieces``, read
    as one vector whose piece k begins at ``starts[k]``, into ``out``."""
    hi = lo + out.size
    for piece, start in zip(pieces, starts):
        a, b = max(lo, start), min(hi, start + piece.size)
        if a < b:
            out[a - lo : b - lo] = piece[a - start : b - start]


def init_mappers(config: TrainConfig, dim: int) -> Mappers:
    seeds = np.random.SeedSequence([config.seed, 0]).generate_state(2)
    return Mappers.seeded(dim, config.hidden_for(dim), (int(seeds[0]), int(seeds[1])))


def forward_batch(
    images: np.ndarray, texts: np.ndarray, mappers: Mappers, composer: PromptComposer
) -> L.BatchEmbeddings:
    """Build one batch graph: map both modalities to tokens and compose prompts."""
    images_t = Tensor(images)
    composed_pseudo = composer.compose_rows("photo_of", [map_rows(mappers.pseudo, images_t)])
    composed_supplement = composer.compose_rows(
        "photo_of", [map_rows(mappers.supplement, Tensor(texts))]
    )
    return L.BatchEmbeddings(images_t, composed_pseudo, composed_supplement)


@dataclass
class TrainResult:
    mappers: Mappers
    metrics: list[dict]


def _check_unit_rows(name: str, block: np.ndarray, rows_per_pass: int) -> None:
    """Reject a dataset row whose norm is not within 1e-5 of 1, naming it; a
    row holding a NaN or an infinity has a non-finite norm and is rejected too.

    Norms are taken in 64-bit over ``rows_per_pass`` rows at a time, so no
    64-bit copy of the whole dataset is made.
    """
    for lo in range(0, block.shape[0], rows_per_pass):
        norms = np.linalg.norm(block[lo : lo + rows_per_pass].astype(np.float64), axis=1)
        bad = np.flatnonzero(~(np.abs(norms - 1.0) <= 1e-5))
        if bad.size:
            raise ShapeError(
                f"dataset {name} row {lo + bad[0]} has norm {norms[bad[0]]:.6g}; "
                "rows must be unit-norm to within 1e-5"
            )


# A diverging run overflows; the loop reports it as TrainingDivergedError.
@np.errstate(over="ignore", invalid="ignore")
def train(
    config: TrainConfig,
    images: np.ndarray,
    texts: np.ndarray,
    composer: PromptComposer,
) -> TrainResult:
    """Run the configured number of steps over seeded epoch reshuffles, mapping
    into the space of the frozen ``composer``, whose width the data must have.

    The dataset is (image, text) unit rows, row-aligned; a row whose norm is
    not within 1e-5 of 1, a non-finite row included, is a ShapeError naming
    it. The last partial batch of each epoch is dropped, since subset
    selection treats the full batch as the negative pool.
    """
    images = np.ascontiguousarray(images, dtype=np.float32)
    texts = np.ascontiguousarray(texts, dtype=np.float32)
    if images.ndim != 2 or images.shape != texts.shape:
        raise ShapeError(f"dataset blocks disagree: {images.shape} vs {texts.shape}")
    n = images.shape[0]
    if n == 0:
        raise ShapeError("empty dataset")
    if images.shape[1] != composer.dim:
        raise ShapeError(f"dataset dim {images.shape[1]} != composer dim {composer.dim}")
    if n < config.batch_size:
        raise ShapeError(
            f"dataset of {n} pairs cannot fill one batch of {config.batch_size}"
        )
    for name, block in (("images", images), ("texts", texts)):
        _check_unit_rows(name, block, config.batch_size)

    frozen_hash = composer.weights_hash()

    # The one writable parameter vector: AdamW updates it in place between
    # steps, when no tape is alive, and the mappers read it through a
    # read-only view.
    mappers = init_mappers(config, composer.dim)
    params = mappers.flat.copy()
    mappers = replace(mappers, flat=params.view())
    state = OptimizerState(params.size)
    shuffle_rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([config.seed, 1]))
    )

    batches_per_epoch = n // config.batch_size
    order: np.ndarray | None = None
    metrics: list[dict] = []

    for step in range(config.steps):
        pos = step % batches_per_epoch
        if pos == 0:
            order = shuffle_rng.permutation(n)
        rows = order[pos * config.batch_size : (pos + 1) * config.batch_size]
        try:
            grads, terms = _gradients(config, mappers, composer, images[rows], texts[rows], step)
        except (DegenerateInputError, FloatingPointError) as exc:
            raise TrainingDivergedError(f"numerical fault at step {step}: {exc}") from exc
        lr_t = lr_schedule(step, config.learning_rate, config.warmup_steps)
        adamw_step(params, grads, state, lr_t, config.weight_decay)
        del grads  # not alive while the next step's graph is built
        step_metrics = {"step": step, "lr": lr_t, **terms}
        metrics.append(step_metrics)
        if step % 100 == 0 or step == config.steps - 1:
            log.info(
                "step %d: L_deg=%.4f (N_S=%d)", step, step_metrics["L_deg"], step_metrics["N_S"]
            )

    # The last update can overflow the parameters; no later loss would see it.
    if not (np.isfinite(params.min()) and np.isfinite(params.max())):
        first = np.flatnonzero(~np.isfinite(params))[0]
        names = [e["name"] for e in layout(mappers.dim, mappers.hidden) if e["offset"] <= first]
        raise TrainingDivergedError(
            f"parameter {names[-1]} is not finite after the update at step {config.steps - 1}"
        )
    if composer.weights_hash() != frozen_hash:
        raise TrainingDivergedError("frozen composer weights changed during training")
    params.flags.writeable = False
    return TrainResult(mappers=mappers, metrics=metrics)


def _gradients(config, mappers, composer, batch_images, batch_texts, step):
    """Forward and backward over one batch. Returns each mapper's gradient as
    its six leaf gradients in layout order (None when the loss does not reach
    it), and the step's loss terms and N_S. The tape and the batch graph are
    freed on return, so they are no longer alive while the optimizer updates
    the vector."""
    with Tape() as tape:
        batch = forward_batch(batch_images, batch_texts, mappers, composer)

        sset_rows = None
        if config.use_sset:
            selection = mining.select_batch(batch_images, batch_texts, config.sigma, config.lam)
            sset_rows = selection.selected

        l_total, parts = L.objective(batch, sset_rows, config)
        if not np.isfinite(l_total.values):
            raise TrainingDivergedError(
                f"non-finite loss at step {step}: "
                f"ori={parts['L_ori'].item()!r} itcon={parts['L_itcon'].item()!r} "
                f"mse={parts['L_mse'].item()!r} ss={parts['L_ss'].item()!r}"
            )

        grad_map = ad.backward(l_total, tape)

    # Every leaf of a mapper lies on the path to its output, so a mapper
    # gets a gradient for all six leaves or for none. The leaves are views
    # of ``mappers.flat`` in layout order, so their gradients tile its part.
    grads = [
        [grad_map[leaf].values for leaf in weights.values()] if weights["w1"] in grad_map else None
        for weights in (mappers.pseudo, mappers.supplement)
    ]
    terms = {name: term.item() for name, term in parts.items()}
    return grads, {**terms, "N_S": 0 if sset_rows is None else len(sset_rows)}

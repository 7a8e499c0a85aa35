"""Training loop: forward through the frozen composer, selection, combined loss,
AdamW with linear warmup, and ablation switches.

Randomness flows from the configured seed only: mapper initialization and
epoch shuffling use independent seeded streams, so identical configs yield
bit-identical parameter trajectories.
"""

from __future__ import annotations

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
from .mappers import Mappers, map_rows

log = logging.getLogger(__name__)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# AdamW runs over blocks of this many elements: the float64 temporaries of a
# block stay in cache, where whole-vector temporaries made the update slower.
_ADAM_BLOCK = 1 << 15


@dataclass
class TrainConfig:
    batch_size: int = 64
    steps: int = 500
    learning_rate: float = 5e-4
    weight_decay: float = 0.1
    warmup_steps: int = 50
    tau: float = 0.01
    sigma: float = 0.01
    lam: float = 0.5  # caption-similarity threshold ("lambda" in config files)
    alpha: float = 1.0
    beta: float = 2.0
    seed: int = 0
    use_itcon: bool = True
    use_mse: bool = True
    use_sset: bool = True
    hidden: int = 128

    def __post_init__(self):
        if self.steps < 1:
            raise ParameterError(f"steps must be >= 1, got {self.steps}")
        if self.warmup_steps < 0:
            raise ParameterError(f"warmup_steps must be >= 0, got {self.warmup_steps}")
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")
        if self.hidden < 1:
            raise ParameterError(f"hidden must be >= 1, got {self.hidden}")
        if self.batch_size < 1:
            raise ParameterError(f"batch_size must be >= 1, got {self.batch_size}")
        if not self.tau > 0 or not self.sigma > 0:
            raise ParameterError("tau and sigma must be positive")
        if self.alpha < 0 or self.beta < 0:
            raise ParameterError("alpha and beta must be non-negative")
        if self.learning_rate < 0 or self.weight_decay < 0:
            raise ParameterError("learning_rate and weight_decay must be non-negative")

    def loss_weights(self) -> L.LossWeights:
        """The objective's weights and term switches; the S-Set switches act
        through the rows passed to the objective instead."""
        return L.LossWeights(
            alpha=self.alpha,
            beta=self.beta,
            tau=self.tau,
            use_itcon=self.use_itcon,
            use_mse=self.use_mse,
        )


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
    grads: list[np.ndarray | None],
    state: OptimizerState,
    lr_t: float,
    weight_decay: float,
) -> None:
    """One decoupled-weight-decay Adam update of the writable float32 vector
    ``flat``, in place; bias-corrected, 64-bit math.

    ``grads`` holds one flat gradient per equal part of ``flat`` (one per
    mapper), or None for a part the loss did not reach: that part is neither
    decayed nor are its moments advanced. Decay applies before the Adam delta.
    The update runs block by block in the state's float64 scratch; each
    element gets the same operations, in the same order, as a whole-array
    update would apply.
    """
    if lr_t < 0:
        raise ParameterError(f"lr_t must be >= 0, got {lr_t}")
    size = flat.size // len(grads)
    if size * len(grads) != flat.size or state.m.shape != flat.shape:
        raise ShapeError(f"{flat.size} parameters, {len(grads)} parts, {state.m.size} moments")
    if flat.dtype != np.float32 or not flat.flags.writeable:
        raise ContractError("adamw_step updates a writable float32 vector in place")
    state.step += 1
    t = state.step
    decay, c1, c2 = lr_t * weight_decay, 1.0 - ADAM_BETA1**t, 1.0 - ADAM_BETA2**t
    for i, grad in enumerate(grads):
        if grad is None:
            continue
        if np.shape(grad) != (size,):
            raise ShapeError(f"gradient shape {np.shape(grad)} does not match part {i} ({size},)")
        for lo in range(0, size, _ADAM_BLOCK):
            hi = min(lo + _ADAM_BLOCK, size)
            part = slice(i * size + lo, i * size + hi)
            theta, g, tmp = state.scratch[:, : hi - lo]
            m, v = state.m[part], state.v[part]
            g[...] = grad[lo:hi]
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


def init_mappers(config: TrainConfig, dim: int) -> Mappers:
    seeds = np.random.SeedSequence([config.seed, 0]).generate_state(2)
    return Mappers.seeded(dim, config.hidden, (int(seeds[0]), int(seeds[1])))


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
    # read-only view. The gradient buffer is reused by every step.
    mappers = init_mappers(config, composer.dim)
    params = mappers.flat.copy()
    mappers = replace(mappers, flat=params.view())
    grad_buf = np.empty_like(params)
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
            grads, terms = _gradients(
                config, mappers, composer, images[rows], texts[rows], step, grad_buf
            )
        except (DegenerateInputError, FloatingPointError) as exc:
            raise TrainingDivergedError(f"numerical fault at step {step}: {exc}") from exc
        lr_t = lr_schedule(step, config.learning_rate, config.warmup_steps)
        adamw_step(params, grads, state, lr_t, config.weight_decay)
        step_metrics = {"step": step, "lr": lr_t, **terms}
        metrics.append(step_metrics)
        if step % 100 == 0 or step == config.steps - 1:
            log.info(
                "step %d: L_deg=%.4f (N_S=%d)", step, step_metrics["L_deg"], step_metrics["N_S"]
            )

    if composer.weights_hash() != frozen_hash:
        raise TrainingDivergedError("frozen composer weights changed during training")
    params.flags.writeable = False
    return TrainResult(mappers=mappers, metrics=metrics)


def _gradients(config, mappers, composer, batch_images, batch_texts, step, grad_buf):
    """Forward and backward over one batch. Returns each mapper's flat gradient
    (None when the loss does not reach it), written into its half of
    ``grad_buf``, and the step's loss terms and N_S. The tape and the batch
    graph are freed on return, so they are no longer alive while the
    optimizer updates the vector."""
    with Tape() as tape:
        batch = forward_batch(batch_images, batch_texts, mappers, composer)

        sset_rows = None
        if config.use_sset:
            selection = mining.select_batch(batch_images, batch_texts, config.sigma, config.lam)
            sset_rows = selection.selected

        l_total, parts = L.objective(batch, sset_rows, config.loss_weights())
        if not np.isfinite(l_total.values):
            raise TrainingDivergedError(
                f"non-finite loss at step {step}: "
                f"ori={parts['L_ori'].item()!r} itcon={parts['L_itcon'].item()!r} "
                f"mse={parts['L_mse'].item()!r} ss={parts['L_ss'].item()!r}"
            )

        grad_map = ad.backward(l_total, tape)

    # Every leaf of a mapper lies on the path to its output, so a mapper
    # gets a gradient for all six leaves or for none. The leaves are views
    # of ``mappers.flat`` in layout order, so one buffer of its size holds
    # every gradient at its parameter's offset.
    grads = []
    for weights, part in zip((mappers.pseudo, mappers.supplement), np.split(grad_buf, 2)):
        if weights["w1"] not in grad_map:
            grads.append(None)
            continue
        np.concatenate([grad_map[leaf].values.ravel() for leaf in weights.values()], out=part)
        grads.append(part)
    terms = {name: term.item() for name, term in parts.items()}
    return grads, {**terms, "N_S": 0 if sset_rows is None else len(sset_rows)}

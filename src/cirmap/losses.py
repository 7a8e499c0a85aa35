"""Training objective: bidirectional InfoNCE terms and their one combination.

:func:`objective` is the only place the terms are combined,
L_deg = L_ori + L_ts + beta * L_ss with L_ts = L_itcon + alpha * L_mse; its
component keys are the trainer's ``metrics.jsonl`` keys. All losses are
scalar tensors built on the active tape, so one backward pass covers any
combination.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ParameterError, ShapeError
from .mining import BatchSelection


@dataclass(frozen=True)
class LossWeights:
    alpha: float = 1.0  # weight on the embedding-gap MSE inside the supplement loss
    beta: float = 2.0  # weight on the selected-subset contrastive term
    tau: float = 0.01  # shared softmax temperature
    use_itcon: bool = True  # False: the itcon term is held at zero
    use_mse: bool = True  # False: the composed-block MSE term is held at zero

    def __post_init__(self):
        if not self.tau > 0:
            raise ParameterError(f"tau must be positive, got {self.tau}")
        if self.alpha < 0 or self.beta < 0:
            raise ParameterError("alpha and beta must be non-negative")


def _check_unit_rows(t: Tensor, name: str, tol: float = 1e-5) -> None:
    norms = np.linalg.norm(t.values.astype(np.float64), axis=1)
    if not np.all(np.abs(norms - 1.0) <= tol):
        worst = float(np.max(np.abs(norms - 1.0)))
        raise ShapeError(f"{name} rows must be unit-norm (worst deviation {worst:.2e})")


@dataclass
class BatchEmbeddings:
    """One training batch: paired unit rows plus both composed blocks."""

    images: Tensor
    texts: Tensor
    composed_pseudo: Tensor
    composed_supplement: Tensor

    def __post_init__(self):
        blocks = {
            "images": self.images,
            "texts": self.texts,
            "composed_pseudo": self.composed_pseudo,
            "composed_supplement": self.composed_supplement,
        }
        shape = self.images.shape
        if len(shape) != 2:
            raise ShapeError(f"batch blocks must be 2-D, got {shape}")
        for name, block in blocks.items():
            if block.shape != shape:
                raise ShapeError(f"{name} has shape {block.shape}, expected {shape}")
            _check_unit_rows(block, name)

    @property
    def batch_size(self) -> int:
        return self.images.shape[0]


def info_nce_bidirectional(a: Tensor, b: Tensor, tau: float) -> Tensor:
    """Symmetric InfoNCE over in-batch negatives of two aligned unit-row blocks.

    Returns L_{A2B} + L_{B2A} where L_{A2B} is the mean over rows of
    -log softmax_i(a_i . b^T / tau). A single-row batch scores exactly zero.
    """
    if a.values.ndim != 2 or b.values.ndim != 2:
        raise ShapeError(f"expected 2-D blocks, got {a.shape} and {b.shape}")
    if a.shape != b.shape:
        raise ShapeError(f"blocks disagree: {a.shape} vs {b.shape}")
    if a.shape[0] < 1:
        raise ShapeError("empty batch")
    return ad.info_nce(a, b, tau)


def loss_ori(batch: BatchEmbeddings, tau: float) -> Tensor:
    """Contrast images against their pseudo-token compositions, both directions."""
    return info_nce_bidirectional(batch.images, batch.composed_pseudo, tau)


def loss_itcon(batch: BatchEmbeddings, tau: float) -> Tensor:
    """Contrast images against their supplement-token compositions, both directions."""
    return info_nce_bidirectional(batch.images, batch.composed_supplement, tau)


def loss_mse(batch: BatchEmbeddings) -> Tensor:
    """Mean squared gap between the two composed blocks."""
    return ad.mse(batch.composed_pseudo, batch.composed_supplement)


def _zero() -> Tensor:
    return Tensor(np.zeros(()))


def loss_sset(batch: BatchEmbeddings, selection: BatchSelection, tau: float) -> Tensor:
    """Bidirectional InfoNCE restricted to the selected batch rows.

    Selections of size <= 1 contribute exactly zero (a singleton softmax is
    certain; an empty set contributes nothing).
    """
    idx = selection.selected
    if idx and (min(idx) < 0 or max(idx) >= batch.batch_size):
        raise ShapeError(f"selection indices out of range for batch of {batch.batch_size}")
    if len(idx) == 0:
        return _zero()
    return info_nce_bidirectional(
        ad.gather_rows(batch.images, idx),
        ad.gather_rows(batch.composed_supplement, idx),
        tau,
    )


def objective(
    batch: BatchEmbeddings, selection: BatchSelection | None, weights: LossWeights
) -> tuple[Tensor, dict[str, Tensor]]:
    """The combined objective and its named components.

    Switched-off terms (``use_itcon``, ``use_mse``, and ``selection is None``
    for the S-Set term) are constant zeros. Terms are built in the order ori,
    itcon, mse, ts, ss, total; the tape order fixes the order of gradient
    accumulation, so it is part of the result.
    """
    tau = weights.tau
    l_ori = loss_ori(batch, tau)
    l_itcon = loss_itcon(batch, tau) if weights.use_itcon else _zero()
    l_mse = loss_mse(batch) if weights.use_mse else _zero()
    l_ts = ad.add(l_itcon, ad.scale(l_mse, weights.alpha))
    l_ss = _zero() if selection is None else loss_sset(batch, selection, tau)
    total = ad.add(ad.add(l_ori, l_ts), ad.scale(l_ss, weights.beta))
    components = {
        "L_ori": l_ori,
        "L_itcon": l_itcon,
        "L_mse": l_mse,
        "L_ts": l_ts,
        "L_ss": l_ss,
        "L_deg": total,
    }
    return total, components

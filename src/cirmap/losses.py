"""Training objective: bidirectional InfoNCE terms and their one combination.

:func:`objective` is the only place the terms are combined,
L_deg = L_ori + L_ts + beta * L_ss with L_ts = L_itcon + alpha * L_mse; its
component keys are the trainer's ``metrics.jsonl`` keys. All losses are
scalar tensors built on the active tape, so one backward pass covers any
combination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ParameterError, ShapeError, check_finite_fields


@dataclass(frozen=True)
class LossWeights:
    """The objective's weights and term switches, each declared and checked
    here once; the trainer's config extends them."""

    alpha: float = 1.0  # weight on the embedding-gap MSE inside the supplement loss
    beta: float = 2.0  # weight on the selected-subset contrastive term
    tau: float = 0.01  # shared softmax temperature
    use_itcon: bool = True  # False: the itcon term is held at zero
    use_mse: bool = True  # False: the composed-block MSE term is held at zero

    def __post_init__(self):
        check_finite_fields(self, ParameterError)
        if not self.tau > 0:
            raise ParameterError(f"tau must be positive, got {self.tau}")
        for name in ("alpha", "beta"):
            if getattr(self, name) < 0:
                raise ParameterError(f"{name} must be >= 0, got {getattr(self, name)}")


@dataclass
class BatchEmbeddings:
    """One training batch: the images and both composed blocks, row-aligned
    [n x d] blocks. The ops that read them check their shapes."""

    images: Tensor
    composed_pseudo: Tensor
    composed_supplement: Tensor

    @property
    def batch_size(self) -> int:
        return self.images.shape[0]


def loss_ori(batch: BatchEmbeddings, tau: float) -> Tensor:
    """Contrast images against their pseudo-token compositions, both directions."""
    return ad.info_nce(batch.images, batch.composed_pseudo, tau)


def loss_itcon(batch: BatchEmbeddings, tau: float) -> Tensor:
    """Contrast images against their supplement-token compositions, both directions."""
    return ad.info_nce(batch.images, batch.composed_supplement, tau)


def loss_mse(batch: BatchEmbeddings) -> Tensor:
    """Mean squared gap between the two composed blocks."""
    return ad.mse(batch.composed_pseudo, batch.composed_supplement)


def _zero() -> Tensor:
    return Tensor(np.zeros(()))


def loss_sset(batch: BatchEmbeddings, rows: Sequence[int], tau: float) -> Tensor:
    """Bidirectional InfoNCE of images against supplement compositions,
    restricted to the given batch rows.

    ``rows`` must be strictly ascending batch indices. An empty row list
    contributes exactly zero, and so does a single row (a singleton softmax
    is certain).
    """
    n = batch.batch_size
    idx = np.asarray(rows, dtype=np.int64)
    ascending = idx.ndim == 1 and bool(np.all(idx[1:] > idx[:-1]))
    if not ascending or (idx.size and (idx[0] < 0 or idx[-1] >= n)):
        raise ShapeError(f"rows must be strictly ascending indices into a batch of {n}")
    if idx.size == 0:
        return _zero()
    images = ad.gather_rows(batch.images, idx)
    supplement = ad.gather_rows(batch.composed_supplement, idx)
    return ad.info_nce(images, supplement, tau)


def objective(
    batch: BatchEmbeddings, rows: Sequence[int] | None, weights: LossWeights
) -> tuple[Tensor, dict[str, Tensor]]:
    """The combined objective and its named components.

    The trainer passes its config as ``weights``. ``rows`` are the batch
    rows of the S-Set term (see :func:`loss_sset`); None switches that term
    off. Switched-off terms (``use_itcon``, ``use_mse`` and ``rows is
    None``) are constant zeros. Terms are built in the order ori, itcon,
    mse, ts, ss, total; the tape order fixes the order of gradient
    accumulation, so it is part of the result.
    """
    tau = weights.tau
    l_ori = loss_ori(batch, tau)
    l_itcon = loss_itcon(batch, tau) if weights.use_itcon else _zero()
    l_mse = loss_mse(batch) if weights.use_mse else _zero()
    l_ts = ad.add(l_itcon, ad.scale(l_mse, weights.alpha))
    l_ss = _zero() if rows is None else loss_sset(batch, rows, tau)
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

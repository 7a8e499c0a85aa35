"""Per-batch selection of confusable pairs: mispredicted images with similar captions.

For every image in a batch, a softmax at temperature sigma over its
similarities to all batch captions gives a prediction distribution. A row is
selected when (a) the most likely caption is not its own, and (b) the
predicted caption is close to the true caption (cosine at least lambda).
Selection is bookkeeping over detached values; no gradients flow through it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ShapeError


@dataclass
class BatchSelection:
    argmax_index: np.ndarray  # per-row predicted caption index
    caption_similarity: np.ndarray  # s_i = <w_pred, w_i>
    mask_f: np.ndarray  # prediction differs from the row index
    mask_s: np.ndarray  # predicted caption close to the true one
    mask: np.ndarray  # mask_f AND mask_s
    selected: list[int]  # ascending indices where mask holds

    @property
    def count(self) -> int:
        return len(self.selected)


def _rows(x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"expected a 2-D block of row vectors, got shape {arr.shape}")
    return arr


def _row_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def caption_uncertainty(images, texts, sigma: float) -> np.ndarray:
    """Softmax over batch captions per image at temperature sigma; detached.

    Stored as float32, so the argmax in :func:`selection_from_uncertainty`
    sees ties at float32 resolution and resolves them to the lowest index.
    """
    if not (np.isfinite(sigma) and sigma > 0):
        raise ParameterError(f"sigma must be positive, got {sigma!r}")
    v, w = _rows(images), _rows(texts)
    if v.shape != w.shape:
        raise ShapeError(f"images {v.shape} and texts {w.shape} disagree")
    return _row_softmax((v @ w.T) / sigma).astype(np.float32)


def selection_from_uncertainty(uncertainty, texts, threshold: float) -> BatchSelection:
    """Assemble a selection from a precomputed uncertainty matrix.

    mask_f is true where the row argmax is off-diagonal (ties resolve to the
    lowest index); mask_s is true where the predicted caption's cosine to the
    true caption is at least ``threshold``.
    """
    u = _rows(uncertainty)
    w = _rows(texts)
    argmax = np.argmax(u, axis=1)
    mask_f = argmax != np.arange(u.shape[0])
    sims = np.sum(w[argmax] * w, axis=1)
    mask_s = sims >= threshold
    mask = mask_f & mask_s
    return BatchSelection(
        argmax_index=argmax,
        caption_similarity=sims,
        mask_f=mask_f,
        mask_s=mask_s,
        mask=mask,
        selected=[int(i) for i in np.nonzero(mask)[0]],
    )


def select_batch(images, texts, sigma: float, threshold: float) -> BatchSelection:
    """Full selection pipeline: uncertainty, both masks, ascending indices."""
    u = caption_uncertainty(images, texts, sigma)
    return selection_from_uncertainty(u, texts, threshold)

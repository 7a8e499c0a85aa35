"""Frozen synthetic prompt composer.

The composer stands in for a frozen text encoder: it turns a prompt template
plus inserted token vectors into a unit-norm embedding, is differentiable
with respect to the inserted tokens, and never exposes gradients for its own
weights. One backbone (W1, b1, W2) is shared by all templates; each template
contributes its own template vector and lays its slots out at fixed positions
of the backbone input, with unused slot positions held at zero. Sharing the
backbone across templates mirrors a single encoder processing every prompt,
which is the property downstream composition relies on.

Both templates take one path: one :func:`~cirmap.autodiff.linear` over the
slot blocks, each meeting its own rows of W1; then tanh, a second
:func:`~cirmap.autodiff.linear` through W2 over a zero bias, and a row norm.
"""

from __future__ import annotations

import hashlib

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ShapeError, TemplateError

# Template name -> slot arity. "photo_of" hosts a single token ("a photo of
# [token]"); "photo_of_that" hosts a token plus a condition embedding
# ("a photo of [token] that [cond]").
TEMPLATES: dict[str, int] = {"photo_of": 1, "photo_of_that": 2}
MAX_SLOTS = 2

# Pinned PRNG for frozen weights; recorded in config echoes so goldens are
# regenerable.
PRNG_NAME = "numpy-pcg64"

# Relative size of the per-template increment over the shared base prompt
# vector.
TEMPLATE_INCREMENT = 0.25


def _uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


class PromptComposer:
    """Seed-derived frozen two-layer tanh network over (template, slots)."""

    def __init__(self, dim: int, seed: int):
        if dim < 2:
            raise ShapeError(f"composer dim must be >= 2, got {dim}")
        self.dim = dim
        d, h = dim, 2 * dim
        in_dim = (1 + MAX_SLOTS) * d
        rng = np.random.Generator(np.random.PCG64(seed))
        # Draw order is part of the format: template vectors in sorted name
        # order, then W1, b1, W2. The templates are prompts sharing most of
        # their wording, so every template vector is the same base vector
        # plus a small per-template increment; a template switch must nudge
        # the composition, not re-randomize it.
        base = rng.standard_normal(d)
        base /= np.linalg.norm(base)
        self._template_vectors: dict[str, np.ndarray] = {}
        for name in sorted(TEMPLATES):
            extra = rng.standard_normal(d)
            extra /= np.linalg.norm(extra)
            v = base + TEMPLATE_INCREMENT * extra
            self._template_vectors[name] = (v / np.linalg.norm(v)).astype(np.float32)
        self._w1 = _uniform(rng, (in_dim, h), fan_in=in_dim)
        self._b1 = _uniform(rng, (h,), fan_in=in_dim)
        self._w2 = _uniform(rng, (h, d), fan_in=h)
        # The hashed arrays are read-only and W1's slot blocks and W2 enter
        # the graph as views of them. The constant template block's share of
        # the first layer is folded, in 64-bit, into one bias per template.
        for arr in (*self._template_vectors.values(), self._w1, self._b1, self._w2):
            arr.flags.writeable = False
        w1_template = self._w1[:d].astype(np.float64)
        self._bias_t = {
            name: Tensor(vec.astype(np.float64) @ w1_template + self._b1)
            for name, vec in self._template_vectors.items()
        }
        self._w1_slots_t = [Tensor(self._w1[(1 + k) * d : (2 + k) * d]) for k in range(MAX_SLOTS)]
        self._w2_t = Tensor(self._w2)
        # The output layer has no bias; adding a float32 zero row changes no
        # byte of its output (x + 0.0 == x for every x but -0.0).
        self._b2_t = Tensor(np.zeros(d, dtype=np.float32))

    def weights_hash(self) -> str:
        """SHA-256 over all frozen arrays; stable across runs of one seed."""
        digest = hashlib.sha256()
        for name in sorted(self._template_vectors):
            digest.update(name.encode())
            digest.update(self._template_vectors[name].tobytes())
        for arr in (self._w1, self._b1, self._w2):
            digest.update(arr.tobytes())
        return digest.hexdigest()

    def compose_rows(self, template: str, slot_rows: list[Tensor]) -> Tensor:
        """Compose a batch: each slot argument is an [N x d] block of row vectors.

        This is the only composition path; a single prompt is a batch of one.
        Its :func:`~cirmap.autodiff.linear` rejects blocks that are not [N x d].
        """
        arity = TEMPLATES.get(template)
        if arity is None:
            raise TemplateError(f"unknown template {template!r}")
        if len(slot_rows) != arity:
            raise TemplateError(f"template {template!r} takes {arity} slot(s), got {len(slot_rows)}")
        pre = ad.linear(zip(slot_rows, self._w1_slots_t), self._bias_t[template])
        return ad.l2_normalize_rows(ad.linear([(ad.tanh(pre), self._w2_t)], self._b2_t))

"""Trainable mapper networks: image -> pseudo-word token, text -> supplement token.

Both mappers share one architecture: a 3-layer perceptron d -> h -> h -> d
with tanh hidden activations and a linear output. Tokens are free vectors
(not normalized). Both mappers' parameters live in one flat float32 vector
in :func:`layout` order; the optimizer updates that vector and the
checkpoint stores it. :class:`Mappers` never writes that vector; the
trainer updates it in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import fileio
from .autodiff import Tensor
from .errors import FormatError, ShapeError

ROLE_PSEUDO = "pseudo"  # image embedding -> pseudo-word token
ROLE_SUPPLEMENT = "supplement"  # text embedding -> supplement token


def parameter_count(dim: int, hidden: int) -> int:
    """Closed form for one mapper: 2*h*d + h^2 + 2*h + d."""
    return 2 * hidden * dim + hidden * hidden + 2 * hidden + dim


def layout(dim: int, hidden: int) -> list[dict]:
    """The flat vector's layout as checkpoint manifest entries: ``w1 b1 w2 b2
    w3 b3`` of the pseudo mapper, then of the supplement mapper."""
    shapes = (
        ("w1", [dim, hidden]),
        ("b1", [hidden]),
        ("w2", [hidden, hidden]),
        ("b2", [hidden]),
        ("w3", [hidden, dim]),
        ("b3", [dim]),
    )
    entries, offset = [], 0
    for role in (ROLE_PSEUDO, ROLE_SUPPLEMENT):
        for key, shape in shapes:
            entries.append({"name": f"{role}.{key}", "shape": list(shape), "offset": offset})
            offset += math.prod(shape)
    return entries


def map_rows(weights: dict[str, Tensor], x_rows: Tensor) -> Tensor:
    """Map an [N x d] block of embeddings to [N x d] tokens with one mapper's
    six leaf tensors; its first layer rejects rows of another width."""
    h1 = ad.tanh(ad.linear([(x_rows, weights["w1"])], weights["b1"]))
    h2 = ad.tanh(ad.linear([(h1, weights["w2"])], weights["b2"]))
    return ad.linear([(h2, weights["w3"])], weights["b3"])


@dataclass(frozen=True, eq=False)
class Mappers:
    """Both trainable mappers. ``flat`` holds every parameter in
    :func:`layout` order; ``pseudo`` and ``supplement`` are each mapper's six
    leaf tensors, cut from ``flat`` once. A float32 ``flat`` is taken over,
    not copied: it is made read-only. It may be a view of a vector its owner
    still writes, as the trainer's AdamW does between steps (see
    :class:`~cirmap.autodiff.Tensor`)."""

    dim: int
    hidden: int
    seeds: tuple[int, int]  # pseudo, supplement
    flat: np.ndarray
    pseudo: dict[str, Tensor] = field(init=False, repr=False)
    supplement: dict[str, Tensor] = field(init=False, repr=False)

    def __post_init__(self):
        flat = np.asarray(self.flat, dtype=np.float32)
        if flat.shape != (2 * parameter_count(self.dim, self.hidden),):
            raise ShapeError(f"{flat.shape} parameters for dim {self.dim}, hidden {self.hidden}")
        flat.flags.writeable = False
        leaves: dict[str, dict[str, Tensor]] = {ROLE_PSEUDO: {}, ROLE_SUPPLEMENT: {}}
        for entry in layout(self.dim, self.hidden):
            role, _, key = entry["name"].partition(".")
            chunk = flat[entry["offset"] : entry["offset"] + math.prod(entry["shape"])]
            leaves[role][key] = Tensor(chunk.reshape(entry["shape"]), requires_grad=True)
        object.__setattr__(self, "flat", flat)
        object.__setattr__(self, "pseudo", leaves[ROLE_PSEUDO])
        object.__setattr__(self, "supplement", leaves[ROLE_SUPPLEMENT])

    @classmethod
    def seeded(cls, dim: int, hidden: int, seeds: tuple[int, int]) -> "Mappers":
        """Freshly initialized mappers, one seed each (pseudo, supplement).
        Each mapper's parameters are drawn from its own seeded stream in
        layout order, uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)] per layer."""
        parts = []
        for seed in seeds:
            rng = np.random.Generator(np.random.PCG64(seed))
            for fan_in, fan_out in ((dim, hidden), (hidden, hidden), (hidden, dim)):
                bound = 1.0 / np.sqrt(fan_in)
                for size in (fan_in * fan_out, fan_out):
                    parts.append(rng.uniform(-bound, bound, size=size).astype(np.float32))
        return cls(dim, hidden, tuple(seeds), np.concatenate(parts))


# ---------------------------------------------------------------------------
# checkpoints: one embedding file holding the flat parameter vector plus a
# JSON manifest with its layout, the seeds and the step count.

CHECKPOINT_FORMAT = 1


def checkpoint_paths(base: Path) -> tuple[Path, Path]:
    base = Path(base)
    return base.with_suffix(".emb"), base.with_suffix(".json")


def save_checkpoint(
    base: Path,
    mappers: Mappers,
    step: int,
    composer_seed: int,
) -> None:
    emb_path, manifest_path = checkpoint_paths(base)
    fileio.write_embeddings(emb_path, mappers.flat.reshape(1, -1), ["params"])
    manifest = {
        "format": CHECKPOINT_FORMAT,
        "dim": mappers.dim,
        "hidden": mappers.hidden,
        "pseudo_seed": mappers.seeds[0],
        "supplement_seed": mappers.seeds[1],
        "composer_seed": composer_seed,
        "step": step,
        "total_parameters": mappers.flat.size,
        "params": layout(mappers.dim, mappers.hidden),
    }
    fileio.write_json(manifest_path, manifest)


_MANIFEST_KEYS = {
    "format": int,
    "dim": int,
    "hidden": int,
    "pseudo_seed": int,
    "supplement_seed": int,
    "composer_seed": int,
    "step": int,
    "total_parameters": int,
    "params": list,
}
_ENTRY_KEYS = {"name": str, "shape": list, "offset": int}


def _check_layout(params: list, dim: int, hidden: int, where: str) -> None:
    """Require the manifest's entries to be the layout of ``dim``/``hidden``;
    otherwise name the first entry and key that differ."""
    expected = layout(dim, hidden)
    for i in range(max(len(params), len(expected))):
        at = f"{where}: params[{i}]"
        if i >= len(params) or i >= len(expected):
            raise FormatError(f"{at}: {len(params)} entries, the layout has {len(expected)}")
        entry, want = params[i], expected[i]
        fileio.check_object(entry, _ENTRY_KEYS, at)
        for key in [*want, *entry]:
            if entry.get(key) != want.get(key):
                raise FormatError(
                    f"{at}: key {key!r} is {entry.get(key)!r}, expected {want.get(key)!r} "
                    f"from dim {dim} and hidden {hidden}"
                )


def load_checkpoint(base: Path) -> tuple[Mappers, dict]:
    """Load both mappers and the manifest; malformed manifests raise FormatError."""
    emb_path, manifest_path = checkpoint_paths(base)
    manifest = fileio.read_json(manifest_path)
    fileio.check_object(manifest, _MANIFEST_KEYS, str(manifest_path))
    if manifest["format"] != CHECKPOINT_FORMAT:
        raise FormatError(f"{manifest_path}: unsupported checkpoint format")
    for key in ("dim", "hidden"):
        if manifest[key] < 1:
            raise FormatError(f"{manifest_path}: key {key!r} must be >= 1, got {manifest[key]}")
    matrix, ids = fileio.read_embeddings(emb_path)
    if matrix.shape[0] != 1 or ids != ["params"]:
        raise FormatError(f"{emb_path}: not a parameter checkpoint")
    flat, total = matrix[0], manifest["total_parameters"]
    dim, hidden = manifest["dim"], manifest["hidden"]
    _check_layout(manifest["params"], dim, hidden, str(manifest_path))
    need = 2 * parameter_count(dim, hidden)
    if not flat.size == total == need:
        raise FormatError(
            f"{manifest_path}: key 'total_parameters' is {total}, {emb_path} holds "
            f"{flat.size} and dim {dim} with hidden {hidden} need {need}"
        )
    seeds = (manifest["pseudo_seed"], manifest["supplement_seed"])
    return Mappers(dim, hidden, seeds, flat), manifest

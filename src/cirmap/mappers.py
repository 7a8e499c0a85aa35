"""Trainable mapper networks: image -> pseudo-word token, text -> supplement token.

Both mappers share one architecture: a 3-layer perceptron d -> h -> h -> d
with tanh hidden activations and a linear output. Tokens are free vectors
(not normalized). Parameters live in immutable tensors; the optimizer swaps
in fresh tensors each step. :class:`Mappers` holds the pair, and its
``named_params`` order is shared by the optimizer and the checkpoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import fileio
from .autodiff import Tensor
from .errors import FormatError, ShapeError

ROLE_PSEUDO = "pseudo"  # image embedding -> pseudo-word token
ROLE_SUPPLEMENT = "supplement"  # text embedding -> supplement token
_PARAM_NAMES = ("w1", "b1", "w2", "b2", "w3", "b3")


@dataclass
class MapperParams:
    role: str
    dim: int
    hidden: int
    seed: int
    weights: dict[str, Tensor]

    def named(self) -> list[tuple[str, Tensor]]:
        """Parameters in a stable order, names prefixed with the role."""
        return [(f"{self.role}.{k}", self.weights[k]) for k in _PARAM_NAMES]

    def replaced(self, new_weights: dict[str, Tensor]) -> "MapperParams":
        merged = dict(self.weights)
        merged.update(new_weights)
        return MapperParams(self.role, self.dim, self.hidden, self.seed, merged)


def parameter_count(dim: int, hidden: int) -> int:
    """Closed form for one mapper: 2*h*d + h^2 + 2*h + d."""
    return 2 * hidden * dim + hidden * hidden + 2 * hidden + dim


def init_mapper(role: str, dim: int, hidden: int, seed: int) -> MapperParams:
    """Seeded uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)] per layer."""
    if role not in (ROLE_PSEUDO, ROLE_SUPPLEMENT):
        raise ShapeError(f"unknown mapper role {role!r}")
    rng = np.random.Generator(np.random.PCG64(seed))

    def layer(fan_in, fan_out):
        bound = 1.0 / np.sqrt(fan_in)
        w = rng.uniform(-bound, bound, size=(fan_in, fan_out)).astype(np.float32)
        b = rng.uniform(-bound, bound, size=(fan_out,)).astype(np.float32)
        return Tensor(w, requires_grad=True), Tensor(b, requires_grad=True)

    w1, b1 = layer(dim, hidden)
    w2, b2 = layer(hidden, hidden)
    w3, b3 = layer(hidden, dim)
    weights = {"w1": w1, "b1": b1, "w2": w2, "b2": b2, "w3": w3, "b3": b3}
    return MapperParams(role, dim, hidden, seed, weights)


def map_rows(params: MapperParams, x_rows: Tensor) -> Tensor:
    """Map an [N x d] block of embeddings to [N x d] tokens."""
    if x_rows.values.ndim != 2 or x_rows.shape[1] != params.dim:
        raise ShapeError(f"expected [N x {params.dim}] input, got {x_rows.shape}")
    w = params.weights
    h1 = ad.tanh(ad.add_rowvec(ad.matmul(x_rows, w["w1"]), w["b1"]))
    h2 = ad.tanh(ad.add_rowvec(ad.matmul(h1, w["w2"]), w["b2"]))
    return ad.add_rowvec(ad.matmul(h2, w["w3"]), w["b3"])


@dataclass
class Mappers:
    """Both trainable mappers. ``named_params`` order is the optimizer's order
    and the checkpoint's layout."""

    pseudo: MapperParams
    supplement: MapperParams

    def named_params(self) -> dict[str, Tensor]:
        return dict(self.pseudo.named() + self.supplement.named())

    def apply_update(self, updated: dict[str, Tensor]) -> "Mappers":
        def pick(mapper: MapperParams) -> MapperParams:
            new = {
                key: updated[f"{mapper.role}.{key}"]
                for key in mapper.weights
                if f"{mapper.role}.{key}" in updated
            }
            return mapper.replaced(new)

        return Mappers(pick(self.pseudo), pick(self.supplement))


# ---------------------------------------------------------------------------
# checkpoints: one embedding file holding the flattened parameter vector plus
# a JSON manifest with shapes, roles, seeds and the step count.

CHECKPOINT_FORMAT = 1


def checkpoint_paths(base: Path) -> tuple[Path, Path]:
    base = Path(base)
    return base.with_suffix(".emb"), base.with_suffix(".json")


def save_checkpoint(
    base: Path,
    mappers: Mappers,
    step: int,
    composer_seed: int,
    extra: dict | None = None,
) -> None:
    emb_path, manifest_path = checkpoint_paths(base)
    chunks, entries, offset = [], [], 0
    for name, tensor in mappers.named_params().items():
        flat = tensor.values.reshape(-1)
        entries.append({"name": name, "shape": list(tensor.shape), "offset": offset})
        chunks.append(flat)
        offset += flat.size
    vector = np.concatenate(chunks).astype(np.float32).reshape(1, offset)
    fileio.write_embeddings(emb_path, vector, ["params"])
    manifest = {
        "format": CHECKPOINT_FORMAT,
        "dim": mappers.pseudo.dim,
        "hidden": mappers.pseudo.hidden,
        "pseudo_seed": mappers.pseudo.seed,
        "supplement_seed": mappers.supplement.seed,
        "composer_seed": composer_seed,
        "step": step,
        "total_parameters": offset,
        "params": entries,
    }
    if extra:
        manifest.update(extra)
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


def _checked(doc, keys: dict[str, type], where: str) -> None:
    """Raise FormatError naming ``where`` and the key unless every key is present
    with its type (a bool is not an int)."""
    if not isinstance(doc, dict):
        raise FormatError(f"{where}: expected a JSON object, got {type(doc).__name__}")
    for key, kind in keys.items():
        if key not in doc:
            raise FormatError(f"{where}: missing key {key!r}")
        value = doc[key]
        if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
            raise FormatError(
                f"{where}: key {key!r} must be {kind.__name__}, got {type(value).__name__}"
            )


def _param_shapes(dim: int, hidden: int) -> dict[str, tuple[int, ...]]:
    return {
        "w1": (dim, hidden),
        "b1": (hidden,),
        "w2": (hidden, hidden),
        "b2": (hidden,),
        "w3": (hidden, dim),
        "b3": (dim,),
    }


def load_checkpoint(base: Path) -> tuple[Mappers, dict]:
    """Load both mappers and the manifest; malformed manifests raise FormatError."""
    emb_path, manifest_path = checkpoint_paths(base)
    manifest = fileio.read_json(manifest_path)
    _checked(manifest, _MANIFEST_KEYS, str(manifest_path))
    if manifest["format"] != CHECKPOINT_FORMAT:
        raise FormatError(f"{manifest_path}: unsupported checkpoint format")
    matrix, ids = fileio.read_embeddings(emb_path)
    if matrix.shape[0] != 1 or ids != ["params"]:
        raise FormatError(f"{emb_path}: not a parameter checkpoint")
    flat = matrix[0]
    if flat.size != manifest["total_parameters"]:
        raise FormatError(f"{emb_path}: parameter count mismatch")

    dim, hidden = manifest["dim"], manifest["hidden"]
    expected = _param_shapes(dim, hidden)
    by_role: dict[str, dict[str, Tensor]] = {ROLE_PSEUDO: {}, ROLE_SUPPLEMENT: {}}
    for i, entry in enumerate(manifest["params"]):
        where = f"{manifest_path}: params[{i}]"
        _checked(entry, _ENTRY_KEYS, where)
        role, _, key = entry["name"].partition(".")
        if role not in by_role or key not in _PARAM_NAMES:
            raise FormatError(f"{where}: unknown parameter {entry['name']!r}")
        shape = expected[key]
        if entry["shape"] != list(shape):
            raise FormatError(
                f"{where}: key 'shape' is {entry['shape']} for {entry['name']!r}, expected "
                f"{list(shape)} from dim {dim} and hidden {hidden}"
            )
        size = int(np.prod(shape))
        offset = entry["offset"]
        if offset < 0:
            raise FormatError(f"{where}: key 'offset' must be >= 0, got {offset}")
        chunk = flat[offset : offset + size]
        if chunk.size != size:
            raise FormatError(f"{emb_path}: truncated parameter {entry['name']!r}")
        by_role[role][key] = Tensor(chunk.reshape(shape), requires_grad=True)
    for role, weights in by_role.items():
        if set(weights) != set(_PARAM_NAMES):
            raise FormatError(f"{manifest_path}: incomplete parameters for {role!r}")

    mappers = Mappers(
        MapperParams(ROLE_PSEUDO, dim, hidden, manifest["pseudo_seed"], by_role[ROLE_PSEUDO]),
        MapperParams(
            ROLE_SUPPLEMENT, dim, hidden, manifest["supplement_seed"], by_role[ROLE_SUPPLEMENT]
        ),
    )
    return mappers, manifest

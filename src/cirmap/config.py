"""Run configuration: strict JSON parsing, defaults, and the resolved echo.

Unknown keys are rejected at every level so a typoed hyperparameter can never
silently fall back to a default, every value must have its field's type, and
no number may be NaN or infinite.
Seeds left out resolve from the top-level seed. The frozen encoder's width
and seed belong to the world section only: training reads them from the
generated data.
"""

from __future__ import annotations

import math
import typing
from dataclasses import dataclass, field, fields
from pathlib import Path

from . import fileio
from .composer import PRNG_NAME
from .errors import ConfigError
from .retrieval import eval_settings_problem
from .training import TrainConfig
from .worldgen import WorldSpec

# JSON key -> dataclass attribute renames (python keywords).
_TRAIN_ALIASES = {"lambda": "lam"}


@dataclass
class EvalConfig:
    gamma: float = 0.6
    metrics: list[str] = field(default_factory=lambda: ["recall", "map"])
    k_values: list[int] = field(default_factory=lambda: [1, 5, 10])

    def __post_init__(self):
        problem = eval_settings_problem(self.metrics, self.k_values, self.gamma)
        if problem:
            raise ConfigError(f"eval.{problem[0]} {problem[1]}")


@dataclass
class PathsConfig:
    data_dir: str = "data"
    run_dir: str = "run"


@dataclass
class RunConfig:
    seed: int
    world: WorldSpec
    train: TrainConfig
    eval: EvalConfig
    paths: PathsConfig


def _build_section(name: str, cls, doc: dict, aliases: dict[str, str] | None = None):
    aliases = aliases or {}
    hints = typing.get_type_hints(cls)
    allowed = {f.name for f in fields(cls)}
    kwargs = {}
    for key, value in doc.items():
        attr = aliases.get(key, key)
        if attr not in allowed:
            raise ConfigError(f"unknown key {name}.{key}")
        hint = hints[attr]
        if not fileio.fits(value, hint):
            expected = str(hint) if typing.get_origin(hint) else hint.__name__
            raise ConfigError(f"{name}.{key} must be {expected}, got {type(value).__name__}")
        # An int is taken for a float and held as one; past float range it
        # is not finite. The JSON reader takes NaN and Infinity, which no
        # range check catches: a comparison with NaN is false either way.
        if hint is float:
            try:
                value = float(value)
            except OverflowError:
                value = math.inf
            if not math.isfinite(value):
                raise ConfigError(f"{name}.{key} must be finite, got {doc[key]}")
        kwargs[attr] = value
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except Exception as exc:
        # A check of one field names it first; the error names it as a key.
        if str(exc).split(" ", 1)[0] in allowed:
            raise ConfigError(f"{name}.{exc}") from exc
        raise ConfigError(f"invalid {name} section: {exc}") from exc


def parse_config(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    allowed = {"seed", "world", "train", "eval", "paths"}
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"unknown top-level keys: {sorted(unknown)}")
    seed = doc.get("seed")
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ConfigError(f"config requires an integer top-level seed, got {type(seed).__name__}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    for name in ("world", "train", "eval", "paths"):
        if not isinstance(doc.get(name, {}), dict):
            raise ConfigError(f"config section {name} must be a JSON object")

    world_doc = dict(doc.get("world", {}))
    train_doc = dict(doc.get("train", {}))
    eval_doc = dict(doc.get("eval", {}))
    paths_doc = dict(doc.get("paths", {}))

    # Seed resolution: absent section seeds derive from the top-level seed.
    world_doc.setdefault("seed", seed)
    world_doc.setdefault("composer_seed", seed)
    train_doc.setdefault("seed", seed)

    world = _build_section("world", WorldSpec, world_doc)
    train_doc.setdefault("hidden", 4 * world.dim)
    train = _build_section("train", TrainConfig, train_doc, aliases=_TRAIN_ALIASES)
    eval_cfg = _build_section("eval", EvalConfig, eval_doc)
    paths = _build_section("paths", PathsConfig, paths_doc)
    return RunConfig(seed=seed, world=world, train=train, eval=eval_cfg, paths=paths)


def load_config(path: Path, seed_override: int | None = None) -> RunConfig:
    doc = fileio.read_json(Path(path))
    if seed_override is not None:
        if not isinstance(doc, dict):
            raise ConfigError("config document must be a JSON object")
        doc = dict(doc)
        doc["seed"] = seed_override
        for section, keys in (("world", {"seed", "composer_seed"}), ("train", {"seed"})):
            if isinstance(doc.get(section), dict):
                doc[section] = {k: v for k, v in doc[section].items() if k not in keys}
    return parse_config(doc)


def resolved_dict(config: RunConfig) -> dict:
    """Fully resolved config (defaults filled) for the on-disk echo."""
    world = {f.name: getattr(config.world, f.name) for f in fields(WorldSpec)}
    train = {}
    for f in fields(TrainConfig):
        key = "lambda" if f.name == "lam" else f.name
        train[key] = getattr(config.train, f.name)
    return {
        "seed": config.seed,
        "prng": PRNG_NAME,
        "world": world,
        "train": train,
        "eval": {
            "gamma": config.eval.gamma,
            "metrics": list(config.eval.metrics),
            "k_values": list(config.eval.k_values),
        },
        "paths": {"data_dir": config.paths.data_dir, "run_dir": config.paths.run_dir},
    }


def echo_config(config: RunConfig, out_path: Path, task_doc: dict | None = None) -> None:
    """Write the resolved config. A command that reads generated data passes
    its ``task.json``, so the echo names the frozen encoder the data was made
    with (``world.dim`` and ``world.composer_seed``): the one the run used."""
    doc = resolved_dict(config)
    if task_doc is not None:
        doc["world"].update(dim=task_doc["dim"], composer_seed=task_doc["composer_seed"])
    fileio.write_json(Path(out_path), doc)

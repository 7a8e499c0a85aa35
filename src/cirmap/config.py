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
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from . import fileio
from .composer import PRNG_NAME
from .errors import CirmapError, ConfigError
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
        if not 0.0 <= self.gamma <= 1.0:
            raise ConfigError(f"gamma must lie in [0, 1], got {self.gamma}")
        problem = eval_settings_problem(self.metrics, self.k_values)
        if problem:
            raise ConfigError(f"{problem[0]} {problem[1]}")


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
            expected = fileio.type_name(hint)
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
    except CirmapError as exc:
        # Every section check starts its message with the field it names.
        raise ConfigError(f"{name}.{exc}") from exc


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


def echo_config(
    config: RunConfig, out_path: Path, task_doc: dict | None = None, hidden: int | None = None
) -> None:
    """Write the resolved config, every default filled. A command that reads
    generated data passes its ``task.json``, so the echo names the settings
    the data fixed and the run used: the frozen encoder (``world.dim`` and
    ``world.composer_seed``), the evaluation protocol (``eval.metrics`` and
    ``eval.k_values``) and the mappers' ``train.hidden``: the ``hidden`` of
    a checkpoint the command loaded, else the one at the data's width."""
    doc = {"prng": PRNG_NAME, **asdict(config)}
    keys = {attr: key for key, attr in _TRAIN_ALIASES.items()}
    doc["train"] = {keys.get(attr, attr): value for attr, value in doc["train"].items()}
    if task_doc is not None:
        doc["world"].update(dim=task_doc["dim"], composer_seed=task_doc["composer_seed"])
        doc["eval"].update(metrics=task_doc["metrics"], k_values=task_doc["k_values"])
    doc["train"]["hidden"] = hidden or config.train.hidden_for(doc["world"]["dim"])
    fileio.write_json(Path(out_path), doc)

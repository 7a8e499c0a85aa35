"""Shared fixtures: the benchmark modules and the program source on sys.path,
and one tiny world run through the program's command line."""

from __future__ import annotations

import json
import logging
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
SRC = BENCH_DIR.parent / "src"
for path in (str(BENCH_DIR), str(SRC)):
    if path not in sys.path:
        sys.path.insert(0, path)

TINY_SEED = 7
TINY_TRAIN = {"batch_size": 16, "steps": 6, "warmup_steps": 3, "hidden": 16}


def tiny_config(root: Path) -> dict:
    return {
        "seed": TINY_SEED,
        "world": {"n_train_pairs": 128, "gallery_size": 48, "n_eval_queries": 8, "dim": 8},
        "train": dict(TINY_TRAIN),
        "eval": {"gamma": 0.6, "k_values": [1, 5, 10]},
        "paths": {"data_dir": str(root / "data"), "run_dir": str(root / "run")},
    }


def run_commands(config_path: Path, root: Path) -> list[list[str]]:
    """The argv of gen-data, train and one composed evaluate."""
    cfg = str(config_path)
    return [
        ["gen-data", "--config", cfg],
        ["train", "--config", cfg],
        ["evaluate", "--config", cfg, "--checkpoint", str(root / "run" / "checkpoint"),
         "--per-query", "--out", str(root / "run" / "report.json")],
    ]  # fmt: skip


@pytest.fixture(scope="module")
def tiny_world(tmp_path_factory):
    """A tiny world, trained and evaluated once; tests copy what they tamper with."""
    from cirmap import cli

    root = tmp_path_factory.mktemp("tiny")
    config_path = root / "config.json"
    config_path.write_text(json.dumps(tiny_config(root)))
    for argv in run_commands(config_path, root):
        assert cli.main(argv) == 0, argv
    logging.getLogger("cirmap").setLevel(logging.WARNING)
    return root

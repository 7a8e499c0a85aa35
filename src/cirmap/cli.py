"""Command-line surface: gen-data, train, mine-sset, evaluate, compose.

Every subcommand exits nonzero on error, writes its fully resolved
configuration beside its outputs, and takes all randomness from the config
seed (optionally overridden with --seed).
"""

from __future__ import annotations

import argparse
import functools
import logging
import math
import sys
from pathlib import Path

from . import config as cfg
from . import fileio, mining, worldgen
from .composer import PromptComposer
from .errors import CirmapError, FormatError
from .mappers import Mappers, checkpoint_paths, load_checkpoint, save_checkpoint
from .retrieval import BASELINE_MODES, compose_query, evaluate_task
from .training import TrainConfig, train

log = logging.getLogger("cirmap")


def _sibling_echo_path(out_path: Path) -> Path:
    out_path = Path(out_path)
    return out_path.parent / (out_path.stem + ".config.json")


def cmd_gen_data(args) -> int:
    run_cfg = cfg.load_config(args.config, seed_override=args.seed)
    data_dir = Path(args.out) if args.out else Path(run_cfg.paths.data_dir)
    world = worldgen.generate_world(run_cfg.world)
    worldgen.export_world(world, data_dir, run_cfg.eval.metrics, run_cfg.eval.k_values)
    cfg.echo_config(run_cfg, data_dir / "config.resolved.json")
    log.info(
        "wrote %d train pairs, gallery of %d, %d queries to %s",
        run_cfg.world.n_train_pairs,
        run_cfg.world.gallery_size,
        run_cfg.world.n_eval_queries,
        data_dir,
    )
    return 0


def cmd_train(args) -> int:
    run_cfg = cfg.load_config(args.config, seed_override=args.seed)
    data_dir = Path(run_cfg.paths.data_dir)
    run_dir = Path(args.out) if args.out else Path(run_cfg.paths.run_dir)

    # The frozen encoder is the one the data was generated with.
    images, texts, task_doc = worldgen.load_train_pairs(data_dir)
    composer = PromptComposer(task_doc["dim"], task_doc["composer_seed"])
    result = train(run_cfg.train, images, texts, composer)

    save_checkpoint(
        run_dir / "checkpoint",
        result.mappers,
        step=run_cfg.train.steps,
        composer_seed=task_doc["composer_seed"],
    )
    fileio.write_jsonl(run_dir / "metrics.jsonl", result.metrics)
    cfg.echo_config(run_cfg, run_dir / "config.resolved.json", task_doc)
    final = result.metrics[-1]
    log.info(
        "finished %d steps: L_deg %.4f -> %.4f",
        run_cfg.train.steps,
        result.metrics[0]["L_deg"],
        final["L_deg"],
    )
    return 0


def cmd_mine_sset(args) -> int:
    if args.batch_size < 0:
        raise CirmapError(f"--batch-size must be >= 0, got {args.batch_size}")
    for flag, value in (("--sigma", args.sigma), ("--lambda", args.lam)):
        if not math.isfinite(value):
            raise CirmapError(f"{flag} must be finite, got {value}")
    if not args.sigma > 0:
        raise CirmapError(f"--sigma must be positive, got {args.sigma}")
    images, texts = fileio.read_embedding_pair(args.images, args.texts)
    out_path = Path(args.out)
    rows = []
    n = images.shape[0]
    batch = args.batch_size or n
    for start in range(0, n, max(batch, 1)):  # no rows: no batch
        stop = min(start + batch, n)
        sel = mining.select_batch(images[start:stop], texts[start:stop], args.sigma, args.lam)
        for i in range(stop - start):
            rows.append(
                {
                    "index": start + i,
                    "argmax": int(sel.argmax_index[i]) + start,
                    "s": float(sel.caption_similarity[i]),
                    "selected": bool(sel.mask[i]),
                }
            )
    fileio.write_jsonl(out_path, rows)
    fileio.write_json(
        _sibling_echo_path(out_path),
        {
            "images": str(args.images),
            "texts": str(args.texts),
            "sigma": args.sigma,
            "lambda": args.lam,
            "batch_size": batch,
        },
    )
    log.info("selected %d of %d rows", sum(r["selected"] for r in rows), len(rows))
    return 0


def _load_mappers_and_composer(
    checkpoint: str, data_dir: Path, task_doc: dict
) -> tuple[Mappers, PromptComposer]:
    mappers, manifest = load_checkpoint(Path(checkpoint))
    for key in ("dim", "composer_seed"):
        if manifest[key] != task_doc[key]:
            manifest_path = checkpoint_paths(Path(checkpoint))[1]
            raise FormatError(
                f"{manifest_path}: checkpoint {key} {manifest[key]} does not match "
                f"{key} {task_doc[key]} of {data_dir / worldgen.TASK}"
            )
    return mappers, PromptComposer(task_doc["dim"], task_doc["composer_seed"])


def cmd_evaluate(args) -> int:
    run_cfg = cfg.load_config(args.config, seed_override=args.seed)
    data_dir = Path(run_cfg.paths.data_dir)
    task, task_doc = worldgen.load_task(data_dir)
    gamma = args.gamma if args.gamma is not None else run_cfg.eval.gamma

    mappers = composer = None
    if args.mode == "composed":
        if not args.checkpoint:
            raise CirmapError("composed evaluation requires --checkpoint")
        mappers, composer = _load_mappers_and_composer(args.checkpoint, data_dir, task_doc)

    report = evaluate_task(task, mappers, composer, gamma, args.mode, args.per_query)
    report["seed"] = run_cfg.seed
    out_path = Path(args.out) if args.out else Path(run_cfg.paths.run_dir) / "report.json"
    fileio.write_json(out_path, report)
    cfg.echo_config(run_cfg, _sibling_echo_path(out_path), task_doc, mappers and mappers.hidden)
    log.info("metrics: %s", report["metrics"])
    return 0


def cmd_compose(args) -> int:
    run_cfg = cfg.load_config(args.config, seed_override=args.seed)
    data_dir = Path(run_cfg.paths.data_dir)
    task, task_doc = worldgen.load_task(data_dir)
    mappers, composer = _load_mappers_and_composer(args.checkpoint, data_dir, task_doc)
    gamma = args.gamma if args.gamma is not None else run_cfg.eval.gamma

    if args.reference_id not in task.reference_ids:
        raise CirmapError(f"reference id {args.reference_id!r} not used by any query")
    if args.condition_id not in task.condition_ids:
        raise CirmapError(f"condition id {args.condition_id!r} not used by any query")
    reference = task.reference_rows[task.reference_ids.index(args.reference_id)]
    condition = task.condition_rows[task.condition_ids.index(args.condition_id)]
    vec = compose_query(reference[None], condition[None], mappers, composer, gamma)[0]
    out = {
        "reference_id": args.reference_id,
        "condition_id": args.condition_id,
        "gamma": gamma,
        "vector": [float(x) for x in vec],
    }
    out_path = Path(args.out)
    fileio.write_json(out_path, out)
    cfg.echo_config(run_cfg, _sibling_echo_path(out_path), task_doc, mappers.hidden)
    return 0


# Built once per process: parsing leaves the parser as it was.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cirmap",
        description="Embedding-space composed-retrieval training and evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic world")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="data directory (default: paths.data_dir)")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train the mapper networks")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="run directory (default: paths.run_dir)")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("mine-sset", help="export per-row selection decisions")
    p.add_argument("--images", required=True)
    p.add_argument("--texts", required=True)
    p.add_argument("--sigma", type=float, default=TrainConfig.sigma)
    p.add_argument("--lambda", dest="lam", type=float, default=TrainConfig.lam)
    p.add_argument("--batch-size", type=int, default=0, help="0 = one batch over all rows")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_mine_sset)

    p = sub.add_parser("evaluate", help="score a checkpoint or baseline on the task")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint")
    p.add_argument("--out")
    p.add_argument("--seed", type=int)
    p.add_argument("--gamma", type=float)
    p.add_argument("--mode", default="composed", choices=["composed", *BASELINE_MODES])
    p.add_argument("--per-query", action="store_true")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("compose", help="compose one query vector for debugging")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--reference-id", required=True)
    p.add_argument("--condition-id", required=True)
    p.add_argument("--gamma", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compose)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CirmapError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

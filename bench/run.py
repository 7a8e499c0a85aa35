"""End-to-end and per-layer benchmark of cirmap: gen-data -> train -> evaluate.

Run from the root of a checkout:

    python3 bench/run.py --workload shipped-d32 --seed 1 --seconds 30 --trace 0

One process serves one workload run. It writes the workload's config from
the seed, drives the program the way a user does (``cirmap.cli.main`` with
the same arguments as the ``cirmap`` command, called in-process), checks
every output against ``oracle.py`` outside the timed windows, and prints the
result as the last line of standard output:

    {"correct": true, "attempted": 61, "failed": 0, "metrics": {...}}

``--trace 0`` times interleaved rounds of the three phases untraced and
reports the end-to-end metrics. ``--trace 1`` alternates untraced and traced
rounds and reports the per-layer self times and counts of ``spans.py``.
See README.md.
"""

from __future__ import annotations

import os

# Pinned before numpy loads OpenBLAS: one thread on a 2-vCPU machine shared
# with other tenants keeps BLAS-bound windows steady.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

END_TO_END = [
    ("setup_s", "s"),
    ("train_samples_per_s", "samples/s"),
    ("eval_queries_per_s", "queries/s"),
    ("peak_rss_mb", "MiB"),
]
TIME_LAYERS = [
    "worldgen.generate_s",
    "worldgen.export_s",
    "fileio.write_s",
    "fileio.read_s",
    "worldgen.load_s",
    "composer.compose_s",
    "mappers.map_s",
    "mappers.checkpoint_s",
    "losses.objective_s",
    "mining.select_s",
    "autodiff.backward_s",
    "training.optim_s",
    "training.loop_s",
    "retrieval.compose_s",
    "retrieval.rank_s",
    "retrieval.score_s",
    "retrieval.evaluate_s",
    "cli.self_s",
]
COUNT_LAYERS = [
    ("fileio.bytes_written", "bytes"),
    ("fileio.bytes_read", "bytes"),
    ("composer.rows", "rows"),
    ("mappers.rows", "rows"),
    ("mining.rows_considered", "rows"),
    ("mining.rows_selected", "rows"),
    ("autodiff.tape_nodes", "nodes/step"),
    ("autodiff.ops", "calls"),
    ("training.steps", "steps"),
    ("retrieval.rows_scored", "rows"),
]
# Self times of one command must add up to its wall time measured around the
# root span; the two clock reads bracketing it may differ by this much.
SELF_SUM_TOL_S = 1e-3
# The fewest traced rounds that let the run check that counts repeat exactly.
MIN_TRACED_ROUNDS = 2


def blas_info() -> dict:
    """OpenBLAS build and live thread count of the numpy in use."""
    import numpy as np

    info = {"numpy": np.__version__, "blas": "unknown", "blas_threads": None}
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "libscipy_openblas*"))
    if libs:
        lib = ctypes.CDLL(libs[0])
        for name, key, restype in (
            ("scipy_openblas_get_config64_", "blas", ctypes.c_char_p),
            ("scipy_openblas_get_num_threads64_", "blas_threads", ctypes.c_int),
        ):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype, fn.argtypes = restype, []
                value = fn()
                info[key] = value.decode().strip() if isinstance(value, bytes) else value
    return info


class Harness:
    """One workload run: its config, its commands and their accounting."""

    def __init__(self, cli, workload, seed: int, work: Path):
        self.cli_main = cli.main
        self.workload = workload
        self.seed = seed
        self.data_dir = work / "data"
        self.run_dir = work / "run"
        self.checkpoint = self.run_dir / "checkpoint"
        self.config_path = work / "config.json"
        self.config = workload.config(seed, str(self.data_dir), str(self.run_dir))
        work.mkdir(parents=True, exist_ok=True)
        self.config_path.write_text(json.dumps(self.config, indent=2) + "\n")
        self.attempted = 0
        self.failed = 0

    def run(self, *argv: str) -> bool:
        self.attempted += 1
        try:
            rc = self.cli_main(list(argv))
        except SystemExit as exc:  # argparse rejects its arguments
            rc = exc.code
        except Exception:
            traceback.print_exc()
            rc = -1
        if rc != 0:
            self.failed += 1
            print(f"command failed ({rc}): cirmap {' '.join(argv)}", file=sys.stderr)
        return rc == 0

    def report_path(self, mode: str, gamma: float) -> Path:
        return self.run_dir / f"report-{mode}-g{gamma}.json"

    def gen_data(self) -> bool:
        return self.run("gen-data", "--config", str(self.config_path))

    def train(self) -> bool:
        return self.run("train", "--config", str(self.config_path))

    def evaluate(self, gamma: float, mode: str = "composed") -> bool:
        return self.run(
            "evaluate", "--config", str(self.config_path),
            "--checkpoint", str(self.checkpoint),
            "--mode", mode, "--gamma", str(gamma), "--per-query",
            "--out", str(self.report_path(mode, gamma)),
        )  # fmt: skip

    def sweep(self) -> bool:
        return all([self.evaluate(g) for g in self.workload.gammas])

    def phases(self):
        return (("setup", self.gen_data), ("train", self.train), ("evaluate", self.sweep))


def timed(fn) -> tuple[bool, float]:
    gc.collect()
    start = time.perf_counter()
    ok = fn()
    return ok, time.perf_counter() - start


def end_to_end(h: Harness, seconds: float, min_rounds: int) -> dict:
    """Whole rounds (``workload.reps`` commands of each phase) until the run
    has used ``seconds``.

    Interleaving the phases lets every metric's median sample the whole run,
    so a slow spell of the shared machine weighs on all of them alike.
    """
    walls = {phase: [] for phase, _ in h.phases()}
    rounds, start = [], time.perf_counter()
    while len(rounds) < min_rounds or (
        time.perf_counter() - start + median(rounds) <= seconds
    ):
        round_start = time.perf_counter()
        for (phase, fn), reps in zip(h.phases(), h.workload.reps):
            for _ in range(reps):
                ok, wall = timed(fn)
                if ok:
                    walls[phase].append(wall)
        rounds.append(time.perf_counter() - round_start)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for phase, values in walls.items():
        if not values:
            raise RuntimeError(f"no {phase} command succeeded")
        print(f"{phase}: {len(values)} commands in {len(rounds)} rounds, wall s "
              + " ".join(f"{v:.4f}" for v in values))  # fmt: skip
    w = h.workload
    return {
        "setup_s": median(walls["setup"]),
        "train_samples_per_s": median([w.samples_per_train / v for v in walls["train"]]),
        "eval_queries_per_s": median([w.queries_per_sweep / v for v in walls["evaluate"]]),
        "peak_rss_mb": rss_mb,
    }


def per_layer(h: Harness, seconds: float, trace_out: Path, problems: list[str]) -> dict:
    """Untraced and traced rounds in turn while the run stays within ``seconds``,
    and at least ``MIN_TRACED_ROUNDS`` of each.

    A round is one command of each phase. The untraced rounds give the
    tracing overhead; alternating the two kinds spreads drift over both.
    """
    import spans

    start = time.perf_counter()
    rec = spans.Recorder()
    untraced, rounds, pairs = [], [], []
    while len(rounds) < MIN_TRACED_ROUNDS or (
        time.perf_counter() - start + median(pairs) <= seconds
    ):
        pair_start = time.perf_counter()
        untraced.append(sum(timed(fn)[1] for _, fn in h.phases()))
        commands = []
        with spans.Tracer(rec) as tracer:
            for phase, fn in h.phases():
                gc.collect()
                outer = time.perf_counter_ns()
                rec.call(spans.ROOT_LAYER, fn)
                outer = time.perf_counter_ns() - outer
                commands.append((phase, outer, rec.take()))
        rounds.append(commands)
        pairs.append(time.perf_counter() - pair_start)
    absent = tracer.absent

    with open(trace_out, "w", encoding="utf-8") as fh:
        for r, commands in enumerate(rounds):
            for phase, outer, (span_list, counts) in commands:
                fh.write(json.dumps({"round": r, "phase": phase, "wall_ns": outer,
                                     "counts": counts, "spans": span_list}) + "\n")  # fmt: skip

    layer_rounds, count_rounds, walls = [], [], []
    for commands in rounds:
        layers, counts, wall = {}, {}, 0
        for phase, outer, (span_list, cmd_counts) in commands:
            problems += [f"{phase}: {p}" for p in spans.nesting_problems(span_list)]
            own = sum(spans.self_times_ns(span_list)) / 1e9
            if not (0 <= outer / 1e9 - own <= SELF_SUM_TOL_S):
                problems.append(
                    f"{phase}: self times add up to {own:.6f} s, traced wall is {outer / 1e9:.6f} s"
                )
            for layer, value in spans.layer_self_seconds(span_list).items():
                layers[layer] = layers.get(layer, 0.0) + value
            for name, value in cmd_counts.items():
                counts[name] = counts.get(name, 0) + value
            wall += outer / 1e9
        layer_rounds.append(layers)
        count_rounds.append(counts)
        walls.append(wall)
    if any(c != count_rounds[0] for c in count_rounds):
        problems.append("counts differ between traced rounds of the same inputs")

    out = {layer: median([r.get(layer, 0.0) for r in layer_rounds]) for layer in TIME_LAYERS}
    counts = count_rounds[0]
    for name, _ in COUNT_LAYERS:
        out[name] = counts.get(name, 0)
    out["autodiff.tape_nodes"] = counts.get("autodiff.tape_nodes", 0) / max(
        1, counts.get("autodiff.backward_calls", 0)
    )
    out["trace.overhead_pct"] = 100.0 * (median(walls) / median(untraced) - 1.0)
    print(f"rounds: {len(rounds)}, wall s untraced " + " ".join(f"{w:.4f}" for w in untraced)
          + ", traced " + " ".join(f"{w:.4f}" for w in walls))  # fmt: skip
    if absent:
        print("absent boundaries (reported as 0): " + ", ".join(absent))
    return out


def check_outputs(h: Harness, oracle) -> list[str]:
    w = h.workload
    problems = oracle.check_world(h.data_dir)
    problems += oracle.check_training(h.run_dir, w.train, w.world["dim"])
    evals = oracle.EvalOracle(h.data_dir, composer_seed=h.seed)
    for gamma in w.gammas:
        problems += evals.check_report(h.report_path("composed", gamma), "composed", gamma, h.checkpoint)
    if not w.shipped:
        return problems

    rows = oracle.read_jsonl(h.run_dir / "metrics.jsonl")
    if not rows[-1]["L_deg"] < 0.5 * rows[0]["L_deg"]:
        problems.append(f"final L_deg {rows[-1]['L_deg']} is not below half of {rows[0]['L_deg']}")
    gamma = h.config["eval"]["gamma"]
    r1 = {"composed": oracle.read_json(h.report_path("composed", gamma))["metrics"]["recall@1"]}
    for mode in ("image_only", "text_only"):
        if not h.evaluate(gamma, mode):
            problems.append(f"evaluate --mode {mode} failed")
            continue
        problems += evals.check_report(h.report_path(mode, gamma), mode, gamma)
        r1[mode] = oracle.read_json(h.report_path(mode, gamma))["metrics"]["recall@1"]
    if r1.get("image_only") != 0:
        problems.append(f"image-only R@1 is {r1.get('image_only')}, expected 0 (reference ranks first)")
    if not all(r1["composed"] > r1.get(m, 1.0) for m in ("image_only", "text_only")):
        problems.append(f"composed R@1 does not beat both baselines: {r1}")
    print("R@1 " + " ".join(f"{m}={v:.4f}" for m, v in r1.items()))
    return problems


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args, WORKLOADS[args.workload]


def main(argv=None) -> int:
    args, workload = parse_args(argv)
    if not (SRC / "cirmap" / "__init__.py").is_file():
        print(f"error: program source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cirmap
    from cirmap import cli

    if Path(cirmap.__file__).resolve().parent != (SRC / "cirmap").resolve():
        print(f"error: imported cirmap from {cirmap.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import oracle
    from workloads import MIN_ROUNDS

    logging.getLogger("cirmap").setLevel(logging.WARNING)
    env = blas_info()
    print(f"environment: python {platform.python_version()}, numpy {env['numpy']}, "
          f"{env['blas']}, BLAS threads {env['blas_threads']} (pinned {BLAS_THREADS})")  # fmt: skip

    # The program writes paths into its outputs, so the byte counts of two
    # runs of one seed repeat only if the work directory's name has the same
    # length in both: mkdtemp's suffix has a fixed length, a pid has not.
    WORK.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-seed{args.seed}-", dir=WORK))
    h = Harness(cli, workload, args.seed, work)
    problems: list[str] = []
    try:
        if args.trace:
            (WORK / "traces").mkdir(parents=True, exist_ok=True)
            trace_out = WORK / "traces" / f"{workload.name}-seed{args.seed}.jsonl"
            metrics = per_layer(h, args.seconds, trace_out, problems)
            units = dict(COUNT_LAYERS) | {name: "s" for name in TIME_LAYERS}
            units["trace.overhead_pct"] = "%"
        else:
            metrics = end_to_end(h, args.seconds, MIN_ROUNDS)
            units = dict(END_TO_END)
        problems += check_outputs(h, oracle)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"attempted {h.attempted}, failed {h.failed}, correct {not problems}")
    result = {
        "correct": not problems,
        "attempted": h.attempted,
        "failed": h.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

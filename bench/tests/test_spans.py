"""Self-time accounting, exact counts, and the benchmark's refusal to run
without the program."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import pytest
from conftest import BENCH_DIR, run_commands, tiny_config

import spans


def test_self_times_subtract_direct_children_only():
    # root [0, 100) > a [10, 60) > b [20, 30); root > c [70, 90)
    span_list = [
        ["root", -1, 0, 100],
        ["a", 0, 10, 60],
        ["b", 1, 20, 30],
        ["c", 0, 70, 90],
    ]
    assert spans.self_times_ns(span_list) == [30, 40, 10, 20]
    assert sum(spans.self_times_ns(span_list)) == 100
    assert spans.nesting_problems(span_list) == []


@pytest.mark.parametrize(
    "bad, problem",
    [
        (["c", 0, 70, 110], "span 3 (c) lies outside its parent span 0"),  # ends after root
        (["c", 0, 30, 100], "span 0 (root) has a negative self time"),  # overlaps a
        (["c", 0, 90, 70], "span 3 (c) ends before it starts"),
    ],
)
def test_broken_nesting_is_flagged_although_self_times_still_add_up(bad, problem):
    span_list = [["root", -1, 0, 100], ["a", 0, 10, 60], ["b", 1, 20, 30], bad]
    # The sum cannot catch these: every child is added once and taken once
    # from its parent, so the self times always add up to the root span.
    assert sum(spans.self_times_ns(span_list)) == 100
    assert any(p.startswith(problem) for p in spans.nesting_problems(span_list))


def _traced_run(tmp_path):
    from cirmap import cli

    tmp_path.mkdir(parents=True, exist_ok=True)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(tiny_config(tmp_path)))
    rec = spans.Recorder()
    commands = []
    with spans.Tracer(rec) as tracer:
        for argv in run_commands(config_path, tmp_path):
            outer = time.perf_counter_ns()
            assert rec.call(spans.ROOT_LAYER, cli.main, argv) == 0
            outer = time.perf_counter_ns() - outer
            commands.append((argv[0], outer, *rec.take()))
    return commands, tracer


def test_traced_self_times_sum_to_wall_time(tmp_path):
    commands, tracer = _traced_run(tmp_path)
    assert tracer.absent == []
    layers = set()
    for name, outer, span_list, _ in commands:
        own = sum(spans.self_times_ns(span_list))
        assert spans.nesting_problems(span_list) == [], name
        assert own == span_list[0][3] - span_list[0][2]  # the root span
        assert 0 <= outer - own <= 1_000_000, (name, outer, own)  # within 1 ms
        layers |= set(spans.layer_self_seconds(span_list))
    for layer in ("worldgen.generate_s", "fileio.write_s", "training.optim_s",
                  "autodiff.backward_s", "retrieval.rank_s", "cli.self_s"):  # fmt: skip
        assert layer in layers


def test_counts_repeat_exactly_and_wrappers_are_removed(tmp_path):
    import cirmap.retrieval
    import cirmap.training

    originals = (cirmap.training.map_rows, cirmap.retrieval.rank, cirmap.training.train)
    first, _ = _traced_run(tmp_path / "a")
    second, _ = _traced_run(tmp_path / "b")
    counts = [[c for _, _, _, c in run] for run in (first, second)]
    assert counts[0] == counts[1]
    train_counts = counts[0][1]
    assert train_counts["training.steps"] == 6
    assert train_counts["mining.rows_considered"] == 6 * 16
    assert train_counts["autodiff.ops"] > 0
    assert (cirmap.training.map_rows, cirmap.retrieval.rank, cirmap.training.train) == originals


def test_missing_boundary_is_reported_absent(monkeypatch):
    monkeypatch.setattr(
        spans, "BOUNDARIES", spans.BOUNDARIES + [("cirmap.retrieval", "rank_batched", "retrieval.rank_s", None)]
    )
    with spans.Tracer(spans.Recorder()) as tracer:
        pass
    assert tracer.absent == ["cirmap.retrieval.rank_batched"]


@pytest.mark.skipif(sys.platform != "linux", reason="uses a subprocess with a copied tree")
def test_run_refuses_without_program_source(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "shipped-d32", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )  # fmt: skip
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

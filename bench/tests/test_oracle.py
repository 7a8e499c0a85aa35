"""The evaluation oracle agrees with the program and catches injected faults."""

from __future__ import annotations

import json
import shutil

import numpy as np
import pytest
from conftest import TINY_SEED, TINY_TRAIN

import oracle


COMPOSED = ("composed", 0.6)  # the mode and gamma the tiny world was evaluated at


@pytest.fixture
def world_copy(tiny_world, tmp_path):
    dest = tmp_path / "copy"
    shutil.copytree(tiny_world, dest)
    return dest


def _rewrite_report(path, edit):
    report = json.loads(path.read_text())
    edit(report)
    path.write_text(json.dumps(report))


def test_composer_weights_follow_the_documented_draw_order():
    from cirmap.composer import ComposerSpec, PromptComposer

    composer = PromptComposer(ComposerSpec(dim=8, seed=TINY_SEED))
    weights = oracle.composer_weights(8, TINY_SEED)
    np.testing.assert_array_equal(weights["w1"], composer._w1.astype(np.float64))
    np.testing.assert_array_equal(weights["b1"], composer._b1.astype(np.float64))
    np.testing.assert_array_equal(weights["w2"], composer._w2.astype(np.float64))
    for name, vec in composer._template_vectors.items():
        np.testing.assert_array_equal(weights["templates"][name], vec.astype(np.float64))


def test_program_outputs_pass(tiny_world):
    evals = oracle.EvalOracle(tiny_world / "data", composer_seed=TINY_SEED)
    assert evals.check_report(tiny_world / "run" / "report.json", *COMPOSED, tiny_world / "run" / "checkpoint") == []
    assert oracle.check_training(tiny_world / "run", TINY_TRAIN, 8) == []
    assert oracle.check_world(tiny_world / "data") == []


def test_injected_wrong_ranking_is_caught(world_copy):
    evals = oracle.EvalOracle(world_copy / "data", composer_seed=TINY_SEED)
    report_path = world_copy / "run" / "report.json"
    report = json.loads(report_path.read_text())
    top = report["per_query"][0]["top"]
    ranked = {item[0] for item in top}
    outsider = next(i for i in evals.gallery_ids if i not in ranked)

    # Replace the first-ranked item by one the oracle ranks below the top k,
    # keeping the reported score so only the ranking is wrong.
    _rewrite_report(report_path, lambda r: r["per_query"][0]["top"][0].__setitem__(0, outsider))
    problems = evals.check_report(report_path, *COMPOSED, world_copy / "run" / "checkpoint")
    assert any("no float32 tie" in p or "score" in p for p in problems), problems


def test_swapped_order_is_caught_unless_scores_tie(world_copy, monkeypatch):
    evals = oracle.EvalOracle(world_copy / "data", composer_seed=TINY_SEED)
    report_path = world_copy / "run" / "report.json"
    ckpt = world_copy / "run" / "checkpoint"

    def swap(report):
        top = report["per_query"][0]["top"]
        top[8][0], top[9][0] = top[9][0], top[8][0]

    _rewrite_report(report_path, swap)
    assert any("no float32 tie" in p for p in evals.check_report(report_path, *COMPOSED, ckpt))
    # With a tolerance wide enough to call every pair a tie, the same swap is
    # an allowed disagreement at the k boundary (scores are then not checked).
    monkeypatch.setattr(oracle, "SCORE_TOL", 2.0)
    assert not any("no float32 tie" in p for p in evals.check_report(report_path, *COMPOSED, ckpt))


def test_wrong_gamma_is_caught(world_copy):
    evals = oracle.EvalOracle(world_copy / "data", composer_seed=TINY_SEED)
    problems = evals.check_report(world_copy / "run" / "report.json", "composed", 0.5)
    assert any("asked for" in p for p in problems), problems


def test_wrong_metric_is_caught(world_copy):
    evals = oracle.EvalOracle(world_copy / "data", composer_seed=TINY_SEED)
    report_path = world_copy / "run" / "report.json"
    _rewrite_report(report_path, lambda r: r["metrics"].__setitem__("map@5", r["metrics"]["map@5"] + 0.01))
    problems = evals.check_report(report_path, *COMPOSED, world_copy / "run" / "checkpoint")
    assert any("map@5" in p for p in problems), problems


def test_broken_loss_identity_and_schedule_are_caught(world_copy):
    path = world_copy / "run" / "metrics.jsonl"
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    rows[2]["L_ts"] += 1e-3
    rows[4]["lr"] *= 2
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    problems = oracle.check_training(world_copy / "run", TINY_TRAIN, 8)
    assert any("step 2: L_ts" in p for p in problems), problems

    rows[2]["L_ts"] -= 1e-3
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    problems = oracle.check_training(world_copy / "run", TINY_TRAIN, 8)
    assert any("step 4: lr" in p for p in problems), problems


def test_wrong_target_is_caught(world_copy):
    meta_path = world_copy / "data" / "world_meta.json"
    meta = json.loads(meta_path.read_text())
    rec = meta["query_records"][0]
    rec["target_ids"] = [rec["reference_id"]]
    meta_path.write_text(json.dumps(meta))
    problems = oracle.check_world(world_copy / "data")
    assert any(p.startswith(rec["query_id"]) for p in problems), problems

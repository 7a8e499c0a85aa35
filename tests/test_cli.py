import contextlib
import io
import json
import os
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cirmap import fileio
from cirmap.cli import main
from cirmap.config import EvalConfig, PathsConfig
from cirmap.errors import CirmapError
from cirmap.mappers import Mappers, checkpoint_paths, load_checkpoint, save_checkpoint
from cirmap.training import TrainConfig, init_mappers
from cirmap.worldgen import WorldSpec, load_task, load_train_pairs
from oracles import brute_force_map, brute_force_recall


def write_config(tmp_path: Path, **overrides) -> Path:
    doc = {
        "seed": 17,
        "world": {
            "n_train_pairs": 192,
            "gallery_size": 48,
            "n_eval_queries": 12,
            "dim": 16,
        },
        "train": {
            "batch_size": 32,
            "steps": 12,
            "warmup_steps": 4,
            "hidden": 32,
        },
        "eval": {"k_values": [1, 5]},
        "paths": {
            "data_dir": str(tmp_path / "data"),
            "run_dir": str(tmp_path / "run"),
        },
    }
    for key, value in overrides.items():
        if isinstance(value, dict):
            doc.setdefault(key, {}).update(value)
        else:
            doc[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture
def pipeline(tmp_path):
    config = write_config(tmp_path)
    assert main(["gen-data", "--config", str(config)]) == 0
    assert main(["train", "--config", str(config)]) == 0
    return tmp_path, config


def test_gen_data_outputs(tmp_path):
    config = write_config(tmp_path)
    assert main(["gen-data", "--config", str(config)]) == 0
    data = tmp_path / "data"
    for name in (
        "train_images.emb",
        "train_images.ids.jsonl",
        "train_texts.emb",
        "gallery.emb",
        "conditions.emb",
        "queries.jsonl",
        "task.json",
        "world_meta.json",
        "config.resolved.json",
    ):
        assert (data / name).exists(), name
    resolved = json.loads((data / "config.resolved.json").read_text())
    assert resolved["seed"] == 17
    assert resolved["train"]["lambda"] == 0.5


def test_train_outputs(pipeline):
    tmp_path, _ = pipeline
    run = tmp_path / "run"
    assert (run / "checkpoint.emb").exists()
    assert (run / "checkpoint.json").exists()
    assert (run / "metrics.jsonl").exists()
    assert (run / "config.resolved.json").exists()
    rows = fileio.read_jsonl(run / "metrics.jsonl")
    assert len(rows) == 12
    assert rows[0]["lr"] == 0.0


def test_evaluate_composed_and_baselines(pipeline):
    tmp_path, config = pipeline
    ckpt = tmp_path / "run" / "checkpoint"
    out = tmp_path / "run" / "report.json"
    assert (
        main(
            [
                "evaluate",
                "--config",
                str(config),
                "--checkpoint",
                str(ckpt),
                "--out",
                str(out),
            ]
        )
        == 0
    )
    report = json.loads(out.read_text())
    assert report["mode"] == "composed"
    assert report["gamma"] == 0.6
    assert set(report["metrics"]) == {"recall@1", "recall@5", "map@1", "map@5"}
    assert (tmp_path / "run" / "report.config.json").exists()

    out2 = tmp_path / "run" / "baseline.json"
    assert (
        main(
            ["evaluate", "--config", str(config), "--mode", "image_only", "--out", str(out2)]
        )
        == 0
    )
    baseline = json.loads(out2.read_text())
    assert baseline["mode"] == "image_only"


def test_evaluate_gamma_override_echoed(pipeline):
    tmp_path, config = pipeline
    ckpt = tmp_path / "run" / "checkpoint"
    out = tmp_path / "run" / "g07.json"
    assert (
        main(
            [
                "evaluate",
                "--config",
                str(config),
                "--checkpoint",
                str(ckpt),
                "--gamma",
                "0.7",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    assert json.loads(out.read_text())["gamma"] == 0.7


def test_composed_requires_checkpoint(pipeline):
    tmp_path, config = pipeline
    out = tmp_path / "run" / "nope.json"
    assert main(["evaluate", "--config", str(config), "--out", str(out)]) == 1


def test_repeat_evaluate_byte_identical(pipeline):
    tmp_path, config = pipeline
    ckpt = tmp_path / "run" / "checkpoint"
    outs = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / "run" / name
        assert (
            main(
                [
                    "evaluate",
                    "--config",
                    str(config),
                    "--checkpoint",
                    str(ckpt),
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_mine_sset_cli(pipeline):
    tmp_path, _ = pipeline
    data = tmp_path / "data"
    out = tmp_path / "run" / "selection.jsonl"
    assert (
        main(
            [
                "mine-sset",
                "--images",
                str(data / "train_images.emb"),
                "--texts",
                str(data / "train_texts.emb"),
                "--sigma",
                "0.01",
                "--lambda",
                "0.5",
                "--batch-size",
                "32",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    rows = fileio.read_jsonl(out)
    assert len(rows) == 192
    for row in rows[:5]:
        assert set(row) == {"index", "argmax", "s", "selected"}
    assert (tmp_path / "run" / "selection.config.json").exists()


@pytest.mark.parametrize("swap", [False, True])
def test_train_ids_read_as_a_template_and_as_lines_agree(tmp_path, capsys, swap):
    # One id file is the writer's template; the other holds the same ids with
    # other spacing, so it is read line by line. The pair still agrees.
    config = write_config(tmp_path)
    assert main(["gen-data", "--config", str(config)]) == 0
    data = tmp_path / "data"
    images, texts = data / "train_images.emb", data / "train_texts.emb"
    if swap:
        images, texts = texts, images
    idp = fileio.ids_path_for(texts)
    compact = [json.dumps(row, separators=(",", ":")) + "\n" for row in fileio.read_jsonl(idp)]
    idp.write_text("".join(compact))
    assert isinstance(fileio.read_embeddings(images)[1], fileio.NumberedIds)
    assert isinstance(fileio.read_embeddings(texts)[1], fileio.IdList)
    load_train_pairs(data)
    out = tmp_path / "selection.jsonl"
    argv = ["mine-sset", "--images", str(images), "--texts", str(texts), "--out", str(out)]
    assert main(argv) == 0 and len(fileio.read_jsonl(out)) == 192

    # Ids that differ in one row still disagree.
    idp.write_text(idp.read_text().replace('"pair-00007"', '"pair-x0007"'))
    with pytest.raises(CirmapError, match="train image/text ids disagree"):
        load_train_pairs(data)
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: image and text id files disagree\n"


@pytest.mark.parametrize("batch_size, code", [("-5", 1), ("0", 0)])
def test_mine_sset_batch_size(tmp_path, capsys, batch_size, code):
    # a negative size is an error; 0 means one batch over all rows
    config = write_config(tmp_path)
    assert main(["gen-data", "--config", str(config)]) == 0
    data, out = tmp_path / "data", tmp_path / "selection.jsonl"
    argv = ["mine-sset", "--images", str(data / "train_images.emb")]
    argv += ["--texts", str(data / "train_texts.emb"), "--batch-size", batch_size]
    assert main(argv + ["--out", str(out)]) == code
    if code:
        assert capsys.readouterr().err == "error: --batch-size must be >= 0, got -5\n"
        assert not out.exists() and not (tmp_path / "selection.config.json").exists()
    else:
        assert len(fileio.read_jsonl(out)) == 192
        echo = json.loads((tmp_path / "selection.config.json").read_text())
        assert echo["batch_size"] == 192


def test_compose_cli(pipeline):
    tmp_path, config = pipeline
    queries = fileio.read_jsonl(tmp_path / "data" / "queries.jsonl")
    out = tmp_path / "run" / "composed.json"
    assert (
        main(
            [
                "compose",
                "--config",
                str(config),
                "--checkpoint",
                str(tmp_path / "run" / "checkpoint"),
                "--reference-id",
                queries[0]["reference_id"],
                "--condition-id",
                queries[0]["condition_id"],
                "--out",
                str(out),
            ]
        )
        == 0
    )
    doc = json.loads(out.read_text())
    vec = np.array(doc["vector"])
    assert abs(np.linalg.norm(vec) - 1.0) < 1e-5


@pytest.mark.parametrize("flag", ["--reference-id", "--condition-id"])
def test_compose_id_not_used_by_any_query_is_an_error(pipeline, capsys, flag):
    tmp_path, config = pipeline
    query = fileio.read_jsonl(tmp_path / "data" / "queries.jsonl")[0]
    ids = {"--reference-id": query["reference_id"], "--condition-id": query["condition_id"]}
    ids[flag] = "no-such-id"
    argv = ["compose", "--config", str(config)]
    argv += ["--checkpoint", str(tmp_path / "run" / "checkpoint")]
    argv += [part for pair in ids.items() for part in pair]
    assert main(argv + ["--out", str(tmp_path / "run" / "composed.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'no-such-id' not used by any query" in err


def test_seed_override_changes_world(tmp_path):
    config = write_config(tmp_path)
    assert main(["gen-data", "--config", str(config)]) == 0
    base = (tmp_path / "data" / "train_images.emb").read_bytes()
    assert main(["gen-data", "--config", str(config), "--seed", "99"]) == 0
    assert (tmp_path / "data" / "train_images.emb").read_bytes() != base


@pytest.mark.parametrize("mode", ["composed", "image_only", "text_only", "average"])
def test_evaluate_gamma_out_of_range_is_an_error_in_every_mode(pipeline, capsys, mode):
    tmp_path, config = pipeline
    out = tmp_path / "run" / "g7.json"
    argv = ["evaluate", "--config", str(config), "--mode", mode, "--gamma", "7"]
    argv += ["--checkpoint", str(tmp_path / "run" / "checkpoint"), "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == "error: gamma must lie in [0, 1], got 7.0\n"
    assert not out.exists()


def test_evaluate_mode_slerp_is_refused(tmp_path, capsys):
    config = write_config(tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        main(["evaluate", "--config", str(config), "--mode", "slerp"])
    assert exit_info.value.code == 2
    assert "invalid choice: 'slerp'" in capsys.readouterr().err


def test_missing_config_exits_nonzero(tmp_path):
    assert main(["gen-data", "--config", str(tmp_path / "absent.json")]) == 1


def test_bad_config_key_exits_nonzero(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"seed": 1, "train": {"learning_rte": 0.1}}))
    assert main(["gen-data", "--config", str(path)]) == 1


@pytest.mark.parametrize(
    "doc, where",
    [
        ({"seed": 1, "world": {"dim": "8"}}, "world.dim"),
        ({"seed": 1, "train": {"use_sset": "no"}}, "train.use_sset"),
        ({"seed": True}, "seed"),
    ],
)
def test_config_value_of_wrong_type_is_an_error(tmp_path, capsys, doc, where):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert main(["gen-data", "--config", str(path), "--out", str(tmp_path / "data")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and where in err
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("command", ["gen-data", "train"])
@pytest.mark.parametrize(
    "overrides, argv, message",
    [
        ({"seed": -1}, [], "seed must be >= 0, got -1"),
        ({}, ["--seed", "-1"], "seed must be >= 0, got -1"),
        ({"world": {"seed": -1}}, [], "world.seed must be >= 0, got -1"),
        ({"world": {"composer_seed": -1}}, [], "world.composer_seed must be >= 0, got -1"),
        ({"train": {"seed": -1}}, [], "train.seed must be >= 0, got -1"),
        ({"world": {"n_eval_queries": 0}}, [], "world.n_eval_queries must be >= 1, got 0"),
        ({"train": {"hidden": 0}}, [], "train.hidden must be >= 1, got 0"),
    ],
)
def test_config_value_out_of_range_is_an_error(tmp_path, capsys, command, overrides, argv, message):
    # Each of these once ended in a traceback from numpy.
    config = write_config(tmp_path, **overrides)
    assert main([command, "--config", str(config), *argv]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "data").exists() and not (tmp_path / "run").exists()


def test_non_finite_gallery_row_is_an_error(pipeline, capsys):
    tmp_path, config = pipeline
    gallery = tmp_path / "data" / "gallery.emb"
    dim = fileio.read_embeddings(gallery)[0].shape[1]
    raw = bytearray(gallery.read_bytes())
    np.frombuffer(raw, "<f4", offset=fileio._HEADER.size)[5 * dim + 3] = np.nan
    gallery.write_bytes(raw)
    out = tmp_path / "run" / "image_only.json"
    argv = ["evaluate", "--config", str(config), "--mode", "image_only", "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{gallery}: row 5 " in err
    assert not out.exists()


def test_non_finite_world_is_an_error_not_a_file(tmp_path, capsys):
    # Each scale overflows a row norm, to inf or, through an inf entry, to
    # NaN. Every case is one error line naming the keys, no file and no
    # warning (pytest.ini makes a RuntimeWarning an error).
    for world in (
        {"noise_scale": 1e200},
        {"noise_scale": 1e308},
        {"modality_gap": 1e308},
        {"caption_jitter": 1e308},
    ):
        config = write_config(tmp_path, world=world)
        assert main(["gen-data", "--config", str(config)]) == 1, world
        assert capsys.readouterr().err == (
            "error: world rows have a norm that is not finite and positive; lower "
            "world.noise_scale, world.modality_gap or world.caption_jitter\n"
        ), world
        assert not list((tmp_path / "data").glob("*")), world


def test_corrupt_embedding_file_exits_nonzero(pipeline):
    tmp_path, config = pipeline
    target = tmp_path / "data" / "train_images.emb"
    raw = bytearray(target.read_bytes())
    raw[:4] = b"BAD!"
    target.write_bytes(bytes(raw))
    assert main(["train", "--config", str(config)]) == 1


def test_manifest_missing_key_is_an_error_not_a_traceback(pipeline, capsys):
    tmp_path, config = pipeline
    manifest_path = tmp_path / "run" / "checkpoint.json"
    manifest = json.loads(manifest_path.read_text())
    del manifest["total_parameters"]
    manifest_path.write_text(json.dumps(manifest))
    argv = ["evaluate", "--config", str(config), "--checkpoint", str(tmp_path / "run" / "checkpoint")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert str(manifest_path) in err and "'total_parameters'" in err
    assert "Traceback" not in err


def _drop_gamma(doc):
    del doc["gamma"]


def _k_values_as_text(doc):
    doc["k_values"] = "1,5"


def _gallery_as_number(doc):
    doc["gallery"] = 3


@pytest.mark.parametrize(
    "edit,expected",
    [
        (_drop_gamma, "missing key 'gamma'"),
        (_k_values_as_text, "key 'k_values' must be list[int], got str"),
        (_gallery_as_number, "key 'gallery' must be str, got int"),
    ],
)
def test_task_key_missing_or_mistyped_is_an_error(pipeline, capsys, edit, expected):
    tmp_path, config = pipeline
    task_path = tmp_path / "data" / "task.json"
    doc = json.loads(task_path.read_text())
    edit(doc)
    task_path.write_text(json.dumps(doc))
    assert main(["evaluate", "--config", str(config), "--mode", "image_only"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{task_path}: {expected}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "key,value,expected",
    [
        ("k_values", [], "key 'k_values' must be a non-empty list of integers >= 1, got []"),
        ("k_values", [0], "key 'k_values' must be a non-empty list of integers >= 1, got [0]"),
        ("metrics", ["foo"], "key 'metrics' names unknown metrics ['foo']"),
        ("gamma", 1.5, "key 'gamma' must lie in [0, 1], got 1.5"),
    ],
    ids=["k_values-empty", "k_values-zero", "metrics-unknown", "gamma-above-one"],
)
def test_task_value_out_of_range_is_an_error(pipeline, capsys, key, value, expected):
    # the rules of the config's eval section hold for task.json too
    tmp_path, config = pipeline
    task_path = tmp_path / "data" / "task.json"
    doc = json.loads(task_path.read_text())
    doc[key] = value
    task_path.write_text(json.dumps(doc))
    assert main(["evaluate", "--config", str(config), "--mode", "image_only"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{task_path}: {expected}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "field,value,expected",
    [
        ("target_ids", None, "missing key 'target_ids'"),
        ("reference_id", 7, "key 'reference_id' must be str, got int"),
        ("target_ids", ["item-00001", 2], "key 'target_ids' must be list[str], got list"),
    ],
)
def test_query_record_field_missing_or_mistyped_is_an_error(
    pipeline, capsys, field, value, expected
):
    tmp_path, config = pipeline
    queries = tmp_path / "data" / "queries.jsonl"
    records = fileio.read_jsonl(queries)
    if value is None:
        del records[1][field]
    else:
        records[1][field] = value
    fileio.write_jsonl(queries, records)
    assert main(["evaluate", "--config", str(config), "--mode", "image_only"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{queries}: record 2: {expected}" in err


@pytest.mark.parametrize(
    "target_ids,expected",
    [
        (["item-99999"], "unknown target id 'item-99999'"),
        (["item-00001", "no-such-item"], "unknown target id 'no-such-item'"),
        ([], "empty target set"),
    ],
)
def test_query_target_ids_unknown_or_empty_is_an_error(pipeline, capsys, target_ids, expected):
    tmp_path, config = pipeline
    queries = tmp_path / "data" / "queries.jsonl"
    records = fileio.read_jsonl(queries)
    records[1]["target_ids"] = target_ids
    fileio.write_jsonl(queries, records)
    assert main(["evaluate", "--config", str(config), "--mode", "image_only"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert f"{queries}: query {records[1]['query_id']}: {expected}" in err
    assert "Traceback" not in err


def test_target_listed_twice_counts_once(pipeline):
    tmp_path, config = pipeline
    queries = tmp_path / "data" / "queries.jsonl"
    reports = []
    for name in ("once.json", "twice.json"):
        out = tmp_path / "run" / name
        argv = ["evaluate", "--config", str(config), "--mode", "image_only", "--per-query"]
        assert main(argv + ["--out", str(out)]) == 0
        reports.append(json.loads(out.read_text()))
        records = fileio.read_jsonl(queries)
        for rec in records:
            rec["target_ids"] = rec["target_ids"][::-1] + rec["target_ids"]
        fileio.write_jsonl(queries, records)
    assert reports[0] == reports[1]


def test_config_that_is_not_json_is_an_error(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text("not json")
    assert main(["train", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err


def test_malformed_queries_line_names_file_and_line(pipeline, capsys):
    tmp_path, config = pipeline
    queries = tmp_path / "data" / "queries.jsonl"
    lines = queries.read_text().splitlines()
    lines[2] = lines[2][:-1]
    queries.write_text("\n".join(lines) + "\n")
    argv = ["evaluate", "--config", str(config), "--mode", "image_only"]
    assert main(argv) == 1
    assert f"{queries}:3: " in capsys.readouterr().err


@pytest.mark.parametrize("name", ["gallery", "conditions"])
def test_duplicate_id_names_file_and_id(pipeline, capsys, name):
    tmp_path, config = pipeline
    path = tmp_path / "data" / f"{name}.emb"
    matrix, ids = fileio.read_embeddings(path)
    ids = list(ids)
    ids[1] = ids[0]
    fileio.write_embeddings(path, matrix, ids)
    out = tmp_path / "run" / "image_only.json"
    argv = ["evaluate", "--config", str(config), "--mode", "image_only", "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert f"{fileio.ids_path_for(path)}: id {ids[0]!r} appears twice" in err
    assert not out.exists()


def _conditions_in_4d(data):
    path = data / "conditions.emb"
    matrix, ids = fileio.read_embeddings(path)
    fileio.write_embeddings(path, matrix[:, :4], ids)
    return path, data / "gallery.emb"


def _task_dim_8(data):
    doc = json.loads((data / "task.json").read_text())
    doc["dim"] = 8
    (data / "task.json").write_text(json.dumps(doc))
    return data / "gallery.emb", data / "task.json"


@pytest.mark.parametrize("edit", [_conditions_in_4d, _task_dim_8])
def test_embedding_dim_mismatch_names_both_files(pipeline, capsys, edit):
    tmp_path, config = pipeline
    first, second = edit(tmp_path / "data")
    assert main(["evaluate", "--config", str(config), "--mode", "average"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{first}: " in err and str(second) in err


@pytest.mark.parametrize("command", ["evaluate", "compose"])
def test_checkpoint_dim_mismatch_names_both_files(pipeline, capsys, command):
    tmp_path, config = pipeline
    base = tmp_path / "run8" / "checkpoint"
    save_checkpoint(base, Mappers.seeded(8, 32, (1, 2)), step=0, composer_seed=17)
    argv = [command, "--config", str(config), "--checkpoint", str(base)]
    if command == "compose":
        query = fileio.read_jsonl(tmp_path / "data" / "queries.jsonl")[0]
        argv += ["--reference-id", query["reference_id"], "--condition-id", query["condition_id"]]
        argv += ["--out", str(tmp_path / "run" / "composed.json")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{checkpoint_paths(base)[1]}: " in err
    assert str(tmp_path / "data" / "task.json") in err


def test_train_seed_override_keeps_the_data_encoder(tmp_path):
    # --seed 7 on data generated at seed 17 trains seed-7 mappers against the
    # data's frozen encoder, and the checkpoint evaluates on that data
    config = write_config(tmp_path)
    assert main(["gen-data", "--config", str(config)]) == 0
    assert main(["train", "--config", str(config), "--seed", "7"]) == 0
    manifest = json.loads((tmp_path / "run" / "checkpoint.json").read_text())
    assert manifest["composer_seed"] == 17
    seeds = init_mappers(TrainConfig(seed=7), 16).seeds
    assert (manifest["pseudo_seed"], manifest["supplement_seed"]) == seeds
    checkpoint = str(tmp_path / "run" / "checkpoint")
    argv = ["evaluate", "--config", str(config), "--checkpoint", checkpoint, "--seed", "7"]
    assert main(argv) == 0


def test_config_echoes_name_the_data_encoder(tmp_path):
    # After --seed 7 on seed-17 data, every echo of a command that read the
    # data names the encoder the run used: the data's dim and composer_seed.
    config = write_config(tmp_path)
    assert main(["gen-data", "--config", str(config)]) == 0
    assert main(["train", "--config", str(config), "--seed", "7"]) == 0
    run = tmp_path / "run"
    query = fileio.read_jsonl(tmp_path / "data" / "queries.jsonl")[0]
    common = ["--config", str(config), "--checkpoint", str(run / "checkpoint"), "--seed", "7"]
    argv = ["evaluate", *common, "--out", str(run / "report.json")]
    assert main(argv) == 0
    ids = ["--reference-id", query["reference_id"], "--condition-id", query["condition_id"]]
    assert main(["compose", *common, *ids, "--out", str(run / "vec.json")]) == 0
    manifest = json.loads((run / "checkpoint.json").read_text())
    for echo in ("config.resolved.json", "report.config.json", "vec.config.json"):
        resolved = json.loads((run / echo).read_text())
        assert resolved["seed"] == 7 and resolved["train"]["seed"] == 7, echo
        assert resolved["world"]["composer_seed"] == manifest["composer_seed"] == 17, echo
        assert resolved["world"]["dim"] == manifest["dim"] == 16, echo


def test_evaluate_composer_seed_mismatch_names_both_files(pipeline, capsys):
    tmp_path, config = pipeline
    base = tmp_path / "run7" / "checkpoint"
    save_checkpoint(base, Mappers.seeded(16, 32, (1, 2)), step=0, composer_seed=7)
    assert main(["evaluate", "--config", str(config), "--checkpoint", str(base)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{checkpoint_paths(base)[1]}: " in err
    assert f"composer_seed 7 does not match composer_seed 17 of {tmp_path / 'data'}" in err


def test_full_pipeline_determinism(tmp_path):
    # two gen-data -> train -> evaluate runs: byte-identical checkpoint/report
    artifacts = []
    for sub in ("one", "two"):
        base = tmp_path / sub
        base.mkdir()
        config = write_config(base)
        assert main(["gen-data", "--config", str(config)]) == 0
        assert main(["train", "--config", str(config)]) == 0
        out = base / "run" / "report.json"
        assert (
            main(
                [
                    "evaluate",
                    "--config",
                    str(config),
                    "--checkpoint",
                    str(base / "run" / "checkpoint"),
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        artifacts.append(
            (
                (base / "run" / "checkpoint.emb").read_bytes(),
                (base / "run" / "checkpoint.json").read_bytes(),
                out.read_bytes(),
            )
        )
    assert artifacts[0][0] == artifacts[1][0]
    assert artifacts[0][1] == artifacts[1][1]
    assert artifacts[0][2] == artifacts[1][2]


def test_evaluate_per_query_flag(pipeline):
    # Every metric of each report is recomputed from the report's own
    # per-query tops and the queries' targets, and must be equal to it.
    tmp_path, config = pipeline
    records = fileio.read_jsonl(tmp_path / "data" / "queries.jsonl")
    targets = [set(r["target_ids"]) for r in records]
    for mode in ("composed", "image_only", "text_only", "average"):
        out = tmp_path / "run" / f"perq-{mode}.json"
        argv = ["evaluate", "--config", str(config), "--mode", mode, "--per-query"]
        argv += ["--checkpoint", str(tmp_path / "run" / "checkpoint"), "--out", str(out)]
        assert main(argv) == 0
        report = json.loads(out.read_text())
        per_query = report["per_query"]
        assert len(per_query) == len(records) == 12
        assert [row["query_id"] for row in per_query] == [r["query_id"] for r in records]
        assert all(set(row) == {"query_id", "top", "targets"} for row in per_query)
        assert [row["targets"] for row in per_query] == [sorted(t) for t in targets]
        tops = [[i for i, _ in row["top"]] for row in per_query]
        assert all(len(ids) == 5 for ids in tops)
        expected = {}
        for k in (1, 5):
            expected[f"recall@{k}"] = brute_force_recall(tops, targets, k)
            expected[f"map@{k}"] = brute_force_map(tops, targets, k)
        assert report["metrics"] == expected, mode


def _load_all(root: Path) -> None:
    load_task(root / "data")
    load_train_pairs(root / "data")
    load_checkpoint(root / "ckpt")


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """A small gen-data directory and a checkpoint beside it, both loadable."""
    root = tmp_path_factory.mktemp("pristine")
    assert main(["gen-data", "--config", str(write_config(root))]) == 0
    save_checkpoint(root / "ckpt", Mappers.seeded(16, 32, (1, 2)), step=3, composer_seed=17)
    _load_all(root)
    files = sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file())
    return root, [f for f in files if f.name != "config.json"]  # the test's own config


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    pick=st.integers(0, 10**6),
    at=st.one_of(st.integers(0, 64), st.integers(0, 10**7)),
    edit=st.sampled_from(["flip", "overwrite", "truncate"]),
    value=st.integers(0, 255),
)
def test_corrupted_file_loads_or_raises_a_cirmap_error(pristine, pick, at, edit, value):
    # One byte of one file is flipped, overwritten or cut at: every loader
    # either still succeeds or raises what the CLI prints as ``error:``.
    root, files = pristine
    path = root / files[pick % len(files)]
    original = path.read_bytes()
    raw = bytearray(original)
    at %= len(raw) + (edit == "truncate")
    if edit == "truncate":
        del raw[at:]
    elif edit == "flip":
        raw[at] ^= 1 << (value % 8)
    else:
        raw[at] = value
    # Replaced, not rewritten in place: an embedding file's matrix maps it.
    fileio.atomic_write_bytes(path, bytes(raw))
    try:
        _load_all(root)
    except (CirmapError, OSError):
        pass
    finally:
        fileio.atomic_write_bytes(path, original)


# A valid config small enough that gen-data and train take a few
# milliseconds; its paths are relative, so each example runs in its own
# directory.
FUZZ_BASE = {
    "seed": 5,
    "world": {"dim": 8, "n_train_pairs": 16, "n_eval_queries": 4, "gallery_size": 24},
    "train": {"batch_size": 8, "steps": 2, "warmup_steps": 1, "hidden": 8},
    "eval": {"k_values": [1, 5]},
    "paths": {"data_dir": "data", "run_dir": "run"},
}
_SECTIONS = {"world": WorldSpec, "train": TrainConfig, "eval": EvalConfig, "paths": PathsConfig}
FUZZ_KEYS = (
    [("seed",)]
    + [(section,) for section in _SECTIONS]
    + [
        (section, "lambda" if f.name == "lam" else f.name)
        for section, cls in _SECTIONS.items()
        for f in fields(cls)
    ]
)
FUZZ_VALUES = [
    -(2**63), -1, 0, 1, 2, 3, 2**31, 2**64,
    -0.5, 0.5, 1.5, 1e308, float("nan"),
    "", "x", "linear", [], [1], ["recall"], None, True, False, {},
]  # fmt: skip
# Larger values of these keys are cut to these, so that no example allocates
# more than a few MiB or runs for long.
FUZZ_SIZE_CAPS = {
    "dim": 16,
    "n_attributes": 8,
    "n_values_per_attribute": 8,
    "gallery_size": 64,
    "n_train_pairs": 64,
    "n_eval_queries": 64,
    "collision_cluster": 64,
    "batch_size": 64,
    "hidden": 16,
    "steps": 3,
}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    key=st.sampled_from(FUZZ_KEYS),
    edit=st.sampled_from(["set", "delete", "add unknown"]),
    value=st.sampled_from(FUZZ_VALUES),
)
def test_fuzzed_config_runs_or_prints_an_error(key, edit, value):
    # One key of a valid config is set to a drawn value, deleted, or joined
    # by an unknown key: gen-data and then train each exit 0, or print
    # ``error:`` and exit 1; nothing raises.
    doc = json.loads(json.dumps(FUZZ_BASE))
    *sections, name = key
    parent = doc[sections[0]] if sections else doc
    if edit == "delete":
        parent.pop(name, None)
    elif edit == "add unknown":
        parent["unknown_key"] = value
    else:
        if type(value) is int and name in FUZZ_SIZE_CAPS:
            value = min(value, FUZZ_SIZE_CAPS[name])
        parent[name] = value
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            Path("config.json").write_text(json.dumps(doc))
            for command in ("gen-data", "train"):
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    code = main([command, "--config", "config.json"])
                lines = err.getvalue().splitlines()
                assert code == 0 or (code == 1 and lines[-1].startswith("error: ")), (command, doc)
                if code:
                    break
        finally:
            os.chdir(home)
    if edit == "add unknown":
        assert code == 1 and "unknown" in lines[-1]

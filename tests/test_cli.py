import contextlib
import io
import json
import os
import re
import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cirmap import config as cfg
from cirmap import fileio
from cirmap.cli import main
from cirmap.config import EvalConfig, PathsConfig
from cirmap.errors import CirmapError
from cirmap.mappers import Mappers, checkpoint_paths, load_checkpoint, save_checkpoint
from cirmap.training import TrainConfig, init_mappers
from cirmap.worldgen import WorldSpec, generate_world, load_task, load_train_pairs
from oracles import oracle


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


@pytest.mark.parametrize("k", [2**63, 10**24])
def test_evaluate_k_past_the_integer_range_scores_the_whole_gallery(tmp_path, k):
    # Such a K once reached np.minimum and ended in an OverflowError.
    config = write_config(tmp_path, eval={"k_values": [1, 48, k]})
    assert main(["gen-data", "--config", str(config)]) == 0
    out = tmp_path / "report.json"
    assert main(["evaluate", "--config", str(config), "--mode", "average", "--out", str(out)]) == 0
    metrics = json.loads(out.read_text())["metrics"]
    assert metrics[f"recall@{k}"] == metrics["recall@48"] == 1.0  # the gallery holds 48 rows
    assert metrics[f"map@{k}"] == metrics["map@48"]


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
    spaced, template = (images, texts) if swap else (texts, images)
    idp = fileio.ids_path_for(spaced)
    compact = [json.dumps(row, separators=(",", ":")) + "\n" for row in fileio.read_jsonl(idp)]
    idp.write_text("".join(compact))
    assert isinstance(fileio.read_embeddings(template)[1], fileio.NumberedIds)
    assert isinstance(fileio.read_embeddings(spaced)[1], fileio.IdList)
    load_train_pairs(data)
    out = tmp_path / "selection.jsonl"
    argv = ["mine-sset", "--images", str(images), "--texts", str(texts), "--out", str(out)]
    assert main(argv) == 0 and len(fileio.read_jsonl(out)) == 192

    # Ids that differ in one row still disagree, with one message for both
    # readers of the pair.
    idp.write_text(idp.read_text().replace('"pair-00007"', '"pair-x0007"'))
    ids_paths = fileio.ids_path_for(images), fileio.ids_path_for(texts)
    message = "{} and {} hold different ids".format(*ids_paths)
    with pytest.raises(CirmapError) as caught:
        load_train_pairs(data)
    assert str(caught.value) == message
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def _texts_with_other_ids(images: Path, texts: Path) -> str:
    matrix, ids = fileio.read_embeddings(texts)
    fileio.write_embeddings(texts, matrix, [f"caption-{r}" for r in range(len(ids))])
    return f"{fileio.ids_path_for(images)} and {fileio.ids_path_for(texts)} hold different ids"


def _texts_in_8d(images: Path, texts: Path) -> str:
    matrix, ids = fileio.read_embeddings(texts)
    fileio.write_embeddings(texts, matrix[:, :8], ids)
    return f"{images}: rows are 16-d, {texts} rows are 8-d"


@pytest.mark.parametrize("edit", [_texts_with_other_ids, _texts_in_8d], ids=["ids", "widths"])
def test_train_on_mismatched_pairs_names_both_files(tmp_path, capsys, edit):
    # train and mine-sset read the train pairs with one reader, and print
    # one message naming both files.
    config = write_config(tmp_path)
    assert main(["gen-data", "--config", str(config)]) == 0
    images, texts = tmp_path / "data" / "train_images.emb", tmp_path / "data" / "train_texts.emb"
    message = edit(images, texts)
    assert main(["train", "--config", str(config)]) == 1
    out = tmp_path / "selection.jsonl"
    argv = ["mine-sset", "--images", str(images), "--texts", str(texts), "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n" * 2
    assert not (tmp_path / "run").exists() and not out.exists()


def test_failed_train_leaves_no_run_directory(tmp_path, capsys):
    config = write_config(tmp_path)
    assert main(["gen-data", "--config", str(config)]) == 0
    task_path = tmp_path / "data" / "task.json"
    task_path.unlink()
    assert main(["train", "--config", str(config)]) == 1
    assert str(task_path) in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


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


@pytest.mark.parametrize("flag", ["--lambda", "--sigma"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_mine_sset_non_finite_threshold_is_an_error(tmp_path, capsys, flag, value):
    # A NaN --lambda compares false with every caption cosine: it would
    # select no row, exit 0 and echo NaN.
    config = write_config(tmp_path)
    assert main(["gen-data", "--config", str(config)]) == 0
    data, out = tmp_path / "data", tmp_path / "selection.jsonl"
    argv = ["mine-sset", "--images", str(data / "train_images.emb")]
    argv += ["--texts", str(data / "train_texts.emb"), flag, value, "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {flag} must be finite, got {value}\n"
    assert not out.exists() and not (tmp_path / "selection.config.json").exists()


def empty_embedding_files(tmp_path: Path) -> tuple[Path, Path]:
    paths = tmp_path / "images.emb", tmp_path / "texts.emb"
    for path in paths:
        fileio.write_embeddings(path, np.zeros((0, 4), dtype=np.float32), [])
    return paths


@pytest.mark.parametrize(
    "texts_shape,expected",
    [
        ((10, 6), "{images}: rows are 8-d, {texts} rows are 6-d"),
        ((12, 8), "{} and {} hold different ids"),
    ],
    ids=["widths", "counts"],
)
def test_mine_sset_mismatched_inputs_name_both_files(tmp_path, capsys, texts_shape, expected):
    images, texts, out = tmp_path / "images.emb", tmp_path / "texts.emb", tmp_path / "sel.jsonl"
    rng = np.random.default_rng(4)
    for path, shape in ((images, (10, 8)), (texts, texts_shape)):
        ids = [f"pair-{i}" for i in range(shape[0])]
        fileio.write_embeddings(path, rng.standard_normal(shape).astype(np.float32), ids)
    argv = ["mine-sset", "--images", str(images), "--texts", str(texts), "--out", str(out)]
    assert main(argv) == 1
    message = expected.format(
        fileio.ids_path_for(images), fileio.ids_path_for(texts), images=images, texts=texts
    )
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("batch_size", ["0", "5"])
def test_mine_sset_empty_input_writes_an_empty_selection(tmp_path, batch_size):
    # With the default batch size, one batch over no rows once meant a step
    # of 0 and a traceback.
    images, texts = empty_embedding_files(tmp_path)
    out = tmp_path / "selection.jsonl"
    argv = ["mine-sset", "--images", str(images), "--texts", str(texts)]
    assert main(argv + ["--batch-size", batch_size, "--out", str(out)]) == 0
    assert fileio.read_jsonl(out) == []
    echo = json.loads((tmp_path / "selection.config.json").read_text())
    assert echo["batch_size"] == int(batch_size)


@pytest.mark.parametrize("rows", [0, 192])
@pytest.mark.parametrize("sigma", ["0", "-0.5"])
def test_mine_sset_sigma_must_be_positive(tmp_path, capsys, rows, sigma):
    # checked before any row is read, so an empty input is refused too
    if rows:
        assert main(["gen-data", "--config", str(write_config(tmp_path))]) == 0
        images, texts = tmp_path / "data" / "train_images.emb", tmp_path / "data" / "train_texts.emb"
    else:
        images, texts = empty_embedding_files(tmp_path)
    out = tmp_path / "selection.jsonl"
    argv = ["mine-sset", "--images", str(images), "--texts", str(texts), "--sigma", sigma]
    assert main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: --sigma must be positive, got {float(sigma)}\n"
    assert not out.exists() and not (tmp_path / "selection.config.json").exists()


def test_readme_compose_example_names_a_query_of_its_config():
    # The README's compose example takes the ids of a query of the world its
    # minimal config generates; other ids are refused as used by no query.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    config = cfg.parse_config(json.loads(re.search(r"```json\n(.*?)```", readme, re.S)[1]))
    example = re.search(r"--reference-id (\S+) --condition-id (\S+)", readme)
    records = generate_world(config.world).query_records
    assert example.groups() in {(r["reference_id"], r["condition_id"]) for r in records}


def test_readme_defaults_are_the_config_defaults():
    # Each value of the README's "Defaults:" sentence is its field's default.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    sentence = re.search(r"Defaults: (.*?)\.\s+[A-Z]", readme, re.S)[1]
    defaults = {f.name: f.default for cls in (TrainConfig, EvalConfig) for f in fields(cls)}
    stated = {}
    for item in " ".join(sentence.split()).split(", "):
        *words, value = item.split(" ")
        name = re.search(r"`(\w+)`", item)
        key = name[1] if name else "_".join(words)
        stated[cfg._TRAIN_ALIASES.get(key, key)] = float(value)
    names = {"learning_rate", "weight_decay", "lam", "alpha", "beta", "sigma", "tau", "gamma"}
    assert set(stated) == names
    assert stated == {name: defaults[name] for name in names}


def test_hidden_follows_the_width_of_the_data(tmp_path):
    # Data generated at dim 16 and trained with a config that leaves out
    # world.dim (32 by default) and train.hidden trains hidden 4 x 16.
    config = write_config(tmp_path)
    doc = json.loads(config.read_text())
    del doc["train"]["hidden"]
    config.write_text(json.dumps(doc))
    assert main(["gen-data", "--config", str(config)]) == 0
    del doc["world"]["dim"]
    config.write_text(json.dumps(doc))
    assert main(["train", "--config", str(config)]) == 0
    manifest = json.loads((tmp_path / "run" / "checkpoint.json").read_text())
    echo = json.loads((tmp_path / "run" / "config.resolved.json").read_text())
    assert (manifest["dim"], manifest["hidden"]) == (16, 64)
    assert (echo["world"]["dim"], echo["train"]["hidden"]) == (16, 64)


def test_evaluate_and_compose_echo_the_checkpoints_hidden(pipeline):
    # The checkpoint was trained with hidden 32 on dim-16 data; a config that
    # leaves out train.hidden would resolve it to 4 x 16 = 64.
    tmp_path, config = pipeline
    doc = json.loads(config.read_text())
    del doc["train"]["hidden"]
    config.write_text(json.dumps(doc))
    checkpoint = str(tmp_path / "run" / "checkpoint")
    query = fileio.read_jsonl(tmp_path / "data" / "queries.jsonl")[0]
    runs = {
        "rep": ["evaluate", "--checkpoint", checkpoint],
        "base": ["evaluate", "--mode", "image_only"],
        "vec": ["compose", "--checkpoint", checkpoint]
        + ["--reference-id", query["reference_id"], "--condition-id", query["condition_id"]],
    }
    for name, argv in runs.items():
        out = tmp_path / "run" / f"{name}.json"
        assert main([*argv, "--config", str(config), "--out", str(out)]) == 0
    hidden = {
        name: json.loads((tmp_path / "run" / f"{name}.config.json").read_text())["train"]["hidden"]
        for name in runs
    }
    assert hidden == {"rep": 32, "base": 64, "vec": 32}


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


def _drop_metrics(doc):
    del doc["metrics"]


def _k_values_as_text(doc):
    doc["k_values"] = "1,5"


def _gallery_as_number(doc):
    doc["gallery"] = 3


@pytest.mark.parametrize(
    "edit,expected",
    [
        (_drop_metrics, "missing key 'metrics'"),
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
    ],
    ids=["k_values-empty", "k_values-zero", "metrics-unknown"],
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


@pytest.mark.parametrize("command", ["train", "evaluate"])
@pytest.mark.parametrize(
    "key,value,expected",
    [
        ("dim", 1, "{task}: key 'dim' must be >= 2, got 1"),
        ("composer_seed", -1, "{task}: key 'composer_seed' must be >= 0, got -1"),
        # past numpy's integer range: only the rows' width check catches it
        ("dim", 10**30, "rows are 16-d, {task} has dim 1000000000000000000000000000000"),
    ],
    ids=["dim-1", "composer_seed-negative", "dim-huge"],
)
def test_task_encoder_key_out_of_range_is_an_error(pipeline, capsys, command, key, value, expected):
    # The frozen encoder is built from task.json: an unusable dim or seed is
    # refused before it is built.
    tmp_path, config = pipeline
    task_path = tmp_path / "data" / "task.json"
    doc = json.loads(task_path.read_text())
    doc[key] = value
    task_path.write_text(json.dumps(doc))
    argv = [command, "--config", str(config), "--out", str(tmp_path / "out")]
    if command == "evaluate":
        argv += ["--checkpoint", str(tmp_path / "run" / "checkpoint")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and expected.format(task=task_path) in err
    assert "Traceback" not in err


def test_task_json_with_the_retired_keys_evaluates_the_same(pipeline):
    # task.json once also held a mixing ratio and the train file names, which
    # no command read. Such a file still loads, its ratio is not used, and
    # the report is byte-identical.
    tmp_path, config = pipeline
    task_path = tmp_path / "data" / "task.json"
    argv = ["evaluate", "--config", str(config), "--per-query"]
    argv += ["--checkpoint", str(tmp_path / "run" / "checkpoint")]
    assert main(argv + ["--out", str(tmp_path / "now.json")]) == 0
    doc = json.loads(task_path.read_text())
    doc.update(gamma=0.9, train_images="train_images.emb", train_texts="train_texts.emb")
    task_path.write_text(json.dumps(doc))
    assert main(argv + ["--out", str(tmp_path / "old.json")]) == 0
    report = (tmp_path / "old.json").read_bytes()
    assert report == (tmp_path / "now.json").read_bytes()
    assert json.loads(report)["gamma"] == 0.6


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


def _check_query_id_error(pipeline, capsys, field, value, expected):
    # ``field`` of the second query record is set to ``value``: evaluate
    # prints one error naming the file and the query, and no traceback.
    tmp_path, config = pipeline
    queries = tmp_path / "data" / "queries.jsonl"
    records = fileio.read_jsonl(queries)
    records[1][field] = value
    fileio.write_jsonl(queries, records)
    assert main(["evaluate", "--config", str(config), "--mode", "image_only"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert f"{queries}: query {records[1]['query_id']}: {expected}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "target_ids,expected",
    [
        (["item-99999"], "unknown target id 'item-99999'"),
        (["item-00001", "no-such-item"], "unknown target id 'no-such-item'"),
        ([], "empty target set"),
    ],
)
def test_query_target_ids_unknown_or_empty_is_an_error(pipeline, capsys, target_ids, expected):
    _check_query_id_error(pipeline, capsys, "target_ids", target_ids, expected)


@pytest.mark.parametrize(
    "field,value,expected",
    [
        ("reference_id", "item-99999", "unknown reference id"),
        ("condition_id", "cond-9999", "unknown condition id"),
    ],
)
def test_query_reference_or_condition_id_unknown_is_an_error(
    pipeline, capsys, field, value, expected
):
    _check_query_id_error(pipeline, capsys, field, value, expected)


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


def test_empty_queries_file_names_the_file(pipeline, capsys):
    tmp_path, config = pipeline
    queries = tmp_path / "data" / "queries.jsonl"
    queries.write_text("\n")
    out = tmp_path / "run" / "report.json"
    argv = ["evaluate", "--config", str(config), "--mode", "image_only", "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {queries}: no queries to score\n"
    assert not out.exists()


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
    # Evaluated with other metrics and K than the data's, the report and the
    # echoes name the data's protocol, which is the one scored.
    config = write_config(tmp_path)
    assert main(["gen-data", "--config", str(config)]) == 0
    assert main(["train", "--config", str(config), "--seed", "7"]) == 0
    write_config(tmp_path, eval={"metrics": ["recall"], "k_values": [2, 50]})
    run = tmp_path / "run"
    query = fileio.read_jsonl(tmp_path / "data" / "queries.jsonl")[0]
    common = ["--config", str(config), "--checkpoint", str(run / "checkpoint"), "--seed", "7"]
    argv = ["evaluate", *common, "--out", str(run / "report.json")]
    assert main(argv) == 0
    ids = ["--reference-id", query["reference_id"], "--condition-id", query["condition_id"]]
    assert main(["compose", *common, *ids, "--out", str(run / "vec.json")]) == 0
    manifest = json.loads((run / "checkpoint.json").read_text())
    report = json.loads((run / "report.json").read_text())
    assert set(report["metrics"]) == {"recall@1", "recall@5", "map@1", "map@5"}
    for echo in ("config.resolved.json", "report.config.json", "vec.config.json"):
        resolved = json.loads((run / echo).read_text())
        assert resolved["seed"] == 7 and resolved["train"]["seed"] == 7, echo
        assert resolved["world"]["composer_seed"] == manifest["composer_seed"] == 17, echo
        assert resolved["world"]["dim"] == manifest["dim"] == 16, echo
        assert resolved["eval"]["metrics"] == ["recall", "map"], echo
        assert resolved["eval"]["k_values"] == [1, 5], echo


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
    # per-query tops and the queries' targets, and must be equal to it. The
    # benchmark's float64 oracle also checks the world, the training run and
    # the tops and scores of each mode it models (all but ``average``).
    tmp_path, config = pipeline
    data, run = tmp_path / "data", tmp_path / "run"
    assert oracle.check_world(data) == []
    assert oracle.check_training(run, json.loads(config.read_text())["train"], 16) == []
    evaluation = oracle.EvalOracle(data, 17)
    records = fileio.read_jsonl(data / "queries.jsonl")
    targets = [set(r["target_ids"]) for r in records]
    for mode in ("composed", "image_only", "text_only", "average"):
        out = run / f"perq-{mode}.json"
        argv = ["evaluate", "--config", str(config), "--mode", mode, "--per-query"]
        argv += ["--checkpoint", str(run / "checkpoint"), "--out", str(out)]
        assert main(argv) == 0
        report = json.loads(out.read_text())
        per_query = report["per_query"]
        assert len(per_query) == len(records) == 12
        assert [row["query_id"] for row in per_query] == [r["query_id"] for r in records]
        assert all(set(row) == {"query_id", "top", "targets"} for row in per_query)
        assert [row["targets"] for row in per_query] == [sorted(t) for t in targets]
        tops = [[i for i, _ in row["top"]] for row in per_query]
        assert all(len(ids) == 5 for ids in tops)
        expected = oracle.metric_table(tops, targets, [1, 5], ["recall", "map"])
        assert report["metrics"] == expected, mode
        if mode != "average":
            assert evaluation.check_report(out, mode, 0.6, run / "checkpoint") == [], mode


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


# Adding or deleting a config field reshuffles the derandomized draw, so the
# edits that once failed are pinned: the last update of a learning rate of
# 1e308 makes the parameters infinite, and a deleted key is refused.
@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    key=st.sampled_from(FUZZ_KEYS),
    edit=st.sampled_from(["set", "delete", "add unknown"]),
    value=st.sampled_from(FUZZ_VALUES),
)
@example(key=("train", "learning_rate"), edit="set", value=1e308)
@example(key=("world", "caption_style"), edit="set", value="linear")
def test_fuzzed_config_runs_or_prints_an_error(key, edit, value):
    # One key of a valid config is set to a drawn value, deleted, or joined
    # by an unknown key: gen-data and then train each exit 0, or print
    # ``error:`` and exit 1; nothing raises. A key no config field holds is
    # refused as unknown.
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
    if edit == "add unknown" or (edit == "set" and key not in FUZZ_KEYS):
        assert code == 1 and "unknown" in lines[-1]

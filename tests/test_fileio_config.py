import json
import math
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cirmap import config as cfg
from cirmap import fileio
from cirmap.errors import ConfigError, FormatError, InconsistentSpecError, ParameterError
from cirmap.losses import LossWeights
from cirmap.training import TrainConfig
from cirmap.worldgen import WorldSpec
from oracles import ref_read_ids, ref_read_jsonl


def random_matrix(rng, n, d):
    return rng.standard_normal((n, d)).astype(np.float32)


class TestEmbeddingFile:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        matrix = random_matrix(rng, 7, 5)
        ids = [f"row-{i}" for i in range(7)]
        path = tmp_path / "vecs.emb"
        fileio.write_embeddings(path, matrix, ids)
        loaded, loaded_ids = fileio.read_embeddings(path)
        assert loaded.tobytes() == matrix.tobytes()
        assert loaded_ids == ids

    @settings(max_examples=200, deadline=None)
    @given(
        hnp.arrays(
            np.float32,
            st.tuples(st.integers(0, 6), st.integers(1, 5)),
            elements=st.floats(width=32, allow_nan=False, allow_infinity=False),
        ),
        st.data(),
    )
    def test_round_trip_property(self, tmp_path_factory, matrix, data):
        # ids with quotes, backslashes, non-ASCII and control characters
        ids = data.draw(st.lists(st.text(), min_size=len(matrix), max_size=len(matrix)))
        path = tmp_path_factory.getbasetemp() / "property.emb"
        fileio.write_embeddings(path, matrix, ids)
        loaded, loaded_ids = fileio.read_embeddings(path)
        assert loaded.tobytes() == matrix.tobytes()
        assert loaded_ids == ids
        expected = "".join(
            json.dumps({"row": r, "id": i}, sort_keys=True) + "\n" for r, i in enumerate(ids)
        )
        assert fileio.ids_path_for(path).read_bytes() == expected.encode("utf-8")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_rejected_with_path_and_row(self, tmp_path, bad):
        matrix = np.ones((4, 3), np.float32)
        matrix[2, 1] = bad
        matrix[3, 0] = bad
        path = tmp_path / "vecs.emb"
        with pytest.raises(FormatError) as err:
            fileio.write_embeddings(path, matrix, ["a", "b", "c", "d"])
        assert str(path) in str(err.value) and "row 2 " in str(err.value)
        assert not path.exists()
        # The reader's check, on a file whose payload is edited in place.
        fileio.write_embeddings(path, np.ones((4, 3), np.float32), ["a", "b", "c", "d"])
        raw = bytearray(path.read_bytes())
        np.frombuffer(raw, "<f4", offset=fileio._HEADER.size)[:] = matrix.reshape(-1)
        path.write_bytes(raw)
        with pytest.raises(FormatError) as err:
            fileio.read_embeddings(path)
        assert str(path) in str(err.value) and "row 2 " in str(err.value)

    def test_bad_magic_rejected_with_path(self, tmp_path):
        path = tmp_path / "vecs.emb"
        fileio.write_embeddings(path, np.zeros((1, 2), np.float32), ["a"])
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError) as err:
            fileio.read_embeddings(path)
        assert str(path) in str(err.value)
        assert "magic" in str(err.value)

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "vecs.emb"
        fileio.write_embeddings(path, np.zeros((1, 2), np.float32), ["a"])
        raw = bytearray(path.read_bytes())
        raw[4] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="version"):
            fileio.read_embeddings(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "vecs.emb"
        fileio.write_embeddings(path, np.zeros((2, 3), np.float32), ["a", "b"])
        raw = path.read_bytes()
        path.write_bytes(raw[:-4])
        with pytest.raises(FormatError, match="payload"):
            fileio.read_embeddings(path)

    def test_missing_ids_rejected(self, tmp_path):
        path = tmp_path / "vecs.emb"
        fileio.write_embeddings(path, np.zeros((1, 2), np.float32), ["a"])
        fileio.ids_path_for(path).unlink()
        with pytest.raises(FormatError, match="id file"):
            fileio.read_embeddings(path)

    def test_id_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "vecs.emb"
        fileio.write_embeddings(path, np.zeros((2, 2), np.float32), ["a", "b"])
        fileio.atomic_write_text(fileio.ids_path_for(path), '{"row": 0, "id": "a"}\n')
        with pytest.raises(FormatError, match="ids"):
            fileio.read_embeddings(path)

    def test_id_rows_must_be_sequential(self, tmp_path):
        path = tmp_path / "vecs.emb"
        fileio.write_embeddings(path, np.zeros((2, 2), np.float32), ["a", "b"])
        fileio.atomic_write_text(
            fileio.ids_path_for(path),
            '{"row": 0, "id": "a"}\n{"row": 5, "id": "b"}\n',
        )
        with pytest.raises(FormatError, match="malformed"):
            fileio.read_embeddings(path)

    @pytest.mark.parametrize(
        "record", ['5', '["row", "id"]', '"rowid"', '{"row": 0}', '{"row": 0, "id": "a", "x": 1}']
    )
    def test_id_record_must_be_a_row_id_object(self, tmp_path, record):
        path = tmp_path / "vecs.emb"
        fileio.write_embeddings(path, np.zeros((1, 2), np.float32), ["a"])
        fileio.atomic_write_text(fileio.ids_path_for(path), record + "\n")
        with pytest.raises(FormatError, match="malformed id record at line 0"):
            fileio.read_embeddings(path)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "vecs.emb"
        fileio.write_embeddings(path, np.zeros((3, 4), np.float32), ["a", "b", "c"])
        raw = path.read_bytes()
        assert raw[:4] == b"DEGE"
        assert int.from_bytes(raw[4:8], "little") == 1
        assert int.from_bytes(raw[8:16], "little") == 3
        assert int.from_bytes(raw[16:20], "little") == 4
        assert len(raw) == 20 + 3 * 4 * 4

    def test_writes_to_a_read_matrix_stay_private(self, tmp_path):
        path = tmp_path / "vecs.emb"
        fileio.write_embeddings(path, np.ones((2, 3), np.float32), ["a", "b"])
        before = path.read_bytes()
        loaded, _ = fileio.read_embeddings(path)
        loaded[1, 2] = 7.0
        assert path.read_bytes() == before
        assert fileio.read_embeddings(path)[0][1, 2] == 1.0

    def test_reading_allocates_little_beyond_the_matrix(self, tmp_path):
        # No copy of the file's bytes and no full-size finiteness mask. The
        # matrix maps the file, which is not traced, so what is traced is overhead.
        rng = np.random.default_rng(4)
        matrix = random_matrix(rng, 1000, 1600)
        path = tmp_path / "vecs.emb"
        fileio.write_embeddings(path, matrix, [f"row-{i}" for i in range(1000)])
        tracemalloc.start()
        try:
            loaded, _ = fileio.read_embeddings(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert loaded.tobytes() == matrix.tobytes()
        assert peak < 0.1 * matrix.nbytes

    def test_numbered_id_file_read_allocates_no_per_row_array(self, tmp_path):
        # Read back as its template, a 100k-row id file costs a few chunks of
        # lines: 0.84 MiB traced, where the file is 3.3 MiB and each per-row
        # key, order or rank array 0.76-0.95 MiB (9.8 MiB when every id was
        # indexed by sorted keys).
        n = 100_000
        path = tmp_path / "vecs.emb"
        fileio.write_embeddings(path, np.ones((n, 8), np.float32), fileio.NumberedIds("item-", 5, n))
        tracemalloc.start()
        try:
            _, ids = fileio.read_embeddings(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * 2**20
        assert ids == fileio.NumberedIds("item-", 5, n)


MINIMAL = {"seed": 11}


class TestRunConfig:
    def test_defaults_fill(self):
        run = cfg.parse_config(dict(MINIMAL))
        assert run.train.learning_rate == 5e-4
        assert run.train.weight_decay == 0.1
        assert run.train.lam == 0.5
        assert run.train.alpha == 1.0
        assert run.train.beta == 2.0
        assert run.train.sigma == 0.01
        assert run.eval.gamma == 0.6
        assert run.world.seed == 11
        assert run.world.composer_seed == 11
        assert run.train.hidden is None
        assert run.train.hidden_for(run.world.dim) == 4 * run.world.dim

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown top-level"):
            cfg.parse_config({"seed": 1, "wrld": {}})

    def test_unknown_section_key(self):
        with pytest.raises(ConfigError, match="train.learning_rte"):
            cfg.parse_config({"seed": 1, "train": {"learning_rte": 0.1}})

    def test_lambda_alias(self):
        run = cfg.parse_config({"seed": 1, "train": {"lambda": 0.25}})
        assert run.train.lam == 0.25

    def test_missing_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            cfg.parse_config({})

    # The frozen encoder's width and seed are world keys only; training reads
    # them from the generated data.
    def test_train_dim_is_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key train.dim"):
            cfg.parse_config({"seed": 1, "world": {"dim": 16}, "train": {"dim": 16}})

    def test_train_composer_seed_is_unknown_key(self, tmp_path):
        doc = {"seed": 1, "world": {"composer_seed": 2}, "train": {"composer_seed": 2}}
        with pytest.raises(ConfigError, match="unknown key train.composer_seed"):
            cfg.parse_config(doc)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="unknown key train.composer_seed"):
            cfg.load_config(path, seed_override=5)

    # Deleted switches: an old config that sets one must not run as if it did.
    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("train", "sset_select", False),
            ("eval", "slerp_t", 0.5),
            ("world", "caption_style", "linear"),
        ],
    )
    def test_deleted_switch_is_unknown_key(self, section, key, value):
        with pytest.raises(ConfigError, match=f"unknown key {section}.{key}"):
            cfg.parse_config({"seed": 1, section: {key: value}})

    def test_gamma_range(self):
        with pytest.raises(ConfigError, match="gamma"):
            cfg.parse_config({"seed": 1, "eval": {"gamma": 1.5}})

    def test_unknown_metric(self):
        with pytest.raises(ConfigError, match="metrics"):
            cfg.parse_config({"seed": 1, "eval": {"metrics": ["ndcg"]}})

    def test_resolved_echo_round_trips(self, tmp_path):
        run = cfg.parse_config({"seed": 7, "train": {"lambda": 0.3, "steps": 9}})
        out = tmp_path / "resolved.json"
        cfg.echo_config(run, out)
        doc = json.loads(out.read_text())
        assert doc["train"]["lambda"] == 0.3
        assert doc["train"]["steps"] == 9
        assert doc["prng"] == "numpy-pcg64"
        # the echo itself is a loadable config
        reparsed = cfg.parse_config(
            {k: v for k, v in doc.items() if k in ("seed", "world", "train", "eval", "paths")}
        )
        assert reparsed.train.lam == 0.3

    def test_seed_override(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"seed": 3, "train": {"steps": 4}}))
        run = cfg.load_config(path, seed_override=99)
        assert run.seed == 99
        assert run.train.seed == 99
        assert run.world.seed == 99

    def test_gamma_presets_load_and_echo(self, tmp_path):
        # the shipped mixing defaults all load from config and echo back
        for gamma in (0.6, 0.7, 1.0):
            run = cfg.parse_config({"seed": 1, "eval": {"gamma": gamma}})
            out = tmp_path / f"echo_{gamma}.json"
            cfg.echo_config(run, out)
            assert json.loads(out.read_text())["eval"]["gamma"] == gamma

    @pytest.mark.parametrize(
        "doc, where",
        [
            ({"world": {"dim": "8"}}, "world.dim must be int, got str"),
            ({"world": {"n_train_pairs": 64.0}}, "world.n_train_pairs must be int, got float"),
            ({"world": {"seed": None}}, "world.seed must be int, got NoneType"),
            ({"train": {"use_sset": "no"}}, "train.use_sset must be bool, got str"),
            ({"train": {"steps": True}}, "train.steps must be int, got bool"),
            ({"train": {"lambda": False}}, "train.lambda must be float, got bool"),
            ({"eval": {"k_values": [1, "5"]}}, "eval.k_values must be list[int], got list"),
            ({"eval": {"k_values": [1, True]}}, "eval.k_values must be list[int], got list"),
            ({"eval": {"metrics": "recall"}}, "eval.metrics must be list[str], got str"),
            ({"paths": {"run_dir": 3}}, "paths.run_dir must be str, got int"),
        ],
    )
    def test_field_of_wrong_type_rejected(self, doc, where):
        with pytest.raises(ConfigError) as err:
            cfg.parse_config({"seed": 1, **doc})
        assert where in str(err.value)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize(
        "section, key",
        [
            ("train", "learning_rate"),
            ("train", "weight_decay"),
            ("train", "alpha"),
            ("train", "beta"),
            ("train", "lambda"),
            ("train", "tau"),
            ("train", "sigma"),
            ("world", "noise_scale"),
            ("world", "caption_collision_rate"),
            ("world", "caption_jitter"),
            ("world", "modality_gap"),
            ("eval", "gamma"),
        ],
    )
    def test_non_finite_float_rejected(self, tmp_path, section, key, literal):
        # the JSON reader accepts these literals; the config must not
        path = tmp_path / "config.json"
        path.write_text(f'{{"seed": 1, "{section}": {{"{key}": {literal}}}}}')
        with pytest.raises(ConfigError, match=f"^{section}.{key} must be finite, got"):
            cfg.load_config(path)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "cls, name, error",
        [
            pytest.param(cls, f.name, error, id=f"{cls.__name__}.{f.name}")
            for cls, error in (
                (LossWeights, ParameterError),
                (TrainConfig, ParameterError),
                (WorldSpec, InconsistentSpecError),
            )
            for f in fields(cls)
            if isinstance(f.default, float)
        ],
    )
    def test_in_process_settings_reject_non_finite_floats(self, cls, name, error, value):
        # No range check catches NaN; TrainConfig(lam=nan) once trained with
        # S-Set selecting no row.
        with pytest.raises(error, match=f"^{name} must be finite, got {value}$"):
            cls(**{name: value})

    # Values that passed the type checks and ended in a traceback from
    # numpy (a negative seed, no queries to stack, an empty hidden layer).
    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"seed": -1}, "seed must be >= 0, got -1"),
            ({"world": {"seed": -2}}, "world.seed must be >= 0, got -2"),
            ({"world": {"composer_seed": -3}}, "world.composer_seed must be >= 0, got -3"),
            ({"train": {"seed": -4}}, "train.seed must be >= 0, got -4"),
            ({"world": {"n_eval_queries": 0}}, "world.n_eval_queries must be >= 1, got 0"),
            ({"world": {"n_train_pairs": -1}}, "world.n_train_pairs must be >= 1, got -1"),
            ({"train": {"hidden": 0}}, "train.hidden must be >= 1, got 0"),
            ({"train": {"sigma": 0}}, "train.sigma must be positive, got 0.0"),
            ({"train": {"tau": -1}}, "train.tau must be positive, got -1.0"),
            ({"train": {"alpha": -1}}, "train.alpha must be >= 0, got -1.0"),
            ({"train": {"beta": -1}}, "train.beta must be >= 0, got -1.0"),
            ({"train": {"learning_rate": -1}}, "train.learning_rate must be >= 0, got -1.0"),
            ({"train": {"weight_decay": -1}}, "train.weight_decay must be >= 0, got -1.0"),
            ({"world": {"n_attributes": 1}}, "world.n_attributes must be >= 2, got 1"),
            (
                {"world": {"n_values_per_attribute": 1}},
                "world.n_values_per_attribute must be >= 2, got 1",
            ),
            ({"world": {"collision_cluster": 1}}, "world.collision_cluster must be >= 2, got 1"),
            ({"world": {"dim": 1}}, "world.dim must be >= 2, got 1"),
            ({"world": {"dim": 0}}, "world.dim must be >= 2, got 0"),
            (
                {"world": {"gallery_size": 3, "n_eval_queries": 4}},
                "world.gallery_size must be >= n_eval_queries (4), got 3",
            ),
            ({"eval": {"gamma": 2}}, "eval.gamma must lie in [0, 1], got 2.0"),
        ],
    )
    def test_value_out_of_range_rejected_naming_its_key(self, doc, message):
        with pytest.raises(ConfigError) as err:
            cfg.parse_config({"seed": 1, **doc})
        assert str(err.value) == message

    def test_negative_seed_override_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"seed": 3}))
        with pytest.raises(ConfigError, match="^seed must be >= 0, got -1$"):
            cfg.load_config(path, seed_override=-1)

    def test_int_for_float_is_held_as_float(self):
        run = cfg.parse_config({"seed": 1, "train": {"sigma": 2**64}})
        assert type(run.train.sigma) is float and run.train.sigma == 2.0**64
        with pytest.raises(ConfigError, match="^train.sigma must be finite, got 1000"):
            cfg.parse_config({"seed": 1, "train": {"sigma": 10**400}})

    def test_int_accepted_for_float(self):
        run = cfg.parse_config({"seed": 1, "train": {"learning_rate": 1, "lambda": 0}})
        assert run.train.learning_rate == 1 and run.train.lam == 0

    @pytest.mark.parametrize("seed", [True, 1.0, "1", None])
    def test_top_level_seed_must_be_int(self, seed):
        with pytest.raises(ConfigError, match="integer top-level seed"):
            cfg.parse_config({"seed": seed})

    def test_section_must_be_object(self):
        with pytest.raises(ConfigError, match="section world"):
            cfg.parse_config({"seed": 1, "world": [1, 2]})

    def test_hidden_defaults_to_four_dim(self):
        # The default follows the width of the rows the mappers map, not the
        # config's world.dim; a set hidden is kept at every width.
        run = cfg.parse_config({"seed": 1, "world": {"dim": 16}})
        assert (run.train.hidden_for(16), run.train.hidden_for(32)) == (64, 128)
        run = cfg.parse_config({"seed": 1, "train": {"hidden": 8}})
        assert (run.train.hidden_for(16), run.train.hidden_for(32)) == (8, 8)


def test_read_jsonl_bad_utf8_names_file_and_line(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_bytes(b'{"a": 1}\n{"a": "\xff"}\n')
    with pytest.raises(FormatError) as err:
        fileio.read_jsonl(path)
    assert f"{path}:2: " in str(err.value)


def test_write_json_is_one_compact_line_with_sorted_keys(tmp_path):
    path = tmp_path / "doc.json"
    doc = {"b": [1, 2.5, None], "a": {"y": "\u00e9", "x": True}}
    fileio.write_json(path, doc)
    assert path.read_bytes() == b'{"a":{"x":true,"y":"\\u00e9"},"b":[1,2.5,null]}\n'
    assert fileio.read_json(path) == doc


@pytest.mark.parametrize(
    "rows",
    [
        np.zeros((0, 6), np.int64),
        np.zeros((3, 0), np.int64),
        np.array([[0, 9, 10, 99, 100]]),
        np.array([[0], [9], [10], [99], [100]], np.int8),
        np.array([[-7, 0, -100], [np.iinfo(np.int64).min, np.iinfo(np.int64).max, 1]]),
        np.array([[np.iinfo(np.uint64).max, 0]], np.uint64),
        np.random.default_rng(0).integers(-(10**6), 10**6, size=(9, 4)),
    ],
    ids=["no-rows", "empty-rows", "one-row", "int8-column", "signed", "uint64", "random"],
)
@pytest.mark.parametrize("block_rows", [2, 16384])
def test_int_rows_json_matches_json_dumps(monkeypatch, rows, block_rows):
    monkeypatch.setattr(fileio, "_JSON_BLOCK_ROWS", block_rows)
    assert fileio._int_rows_json(rows) == json.dumps(rows.tolist(), separators=(",", ":")).encode()


def test_write_json_takes_an_integer_array_field(tmp_path):
    path = tmp_path / "doc.json"
    rows = np.arange(12).reshape(4, 3) * 37
    doc = {"z": "é", "rows": rows, "a": [1.5, {"k": None}]}
    fileio.write_json(path, doc)
    listed = {**doc, "rows": rows.tolist()}
    assert path.read_bytes() == json.dumps(listed, sort_keys=True, separators=(",", ":")).encode() + b"\n"
    with pytest.raises(TypeError):
        fileio.write_json(path, {"rows": rows.astype(np.float32)})


def test_read_json_bad_utf8_names_file(tmp_path):
    path = tmp_path / "doc.json"
    path.write_bytes(b'{"a": "\xff"}')
    with pytest.raises(FormatError) as err:
        fileio.read_json(path)
    assert str(path) in str(err.value)


JSONL_CASES = {
    "crlf": b'{"a": 1}\r\n{"b": 2}\r\n',
    "blank_and_whitespace_lines": b'\n{"a": 1}\n   \n\t \n {"b": [1, 2]} \n\n',
    "line_separator_in_string": '{"a": "x\u2028y"}\n{"b": "\u0085"}\n'.encode("utf-8"),
    "value_split_over_lines": b"[1\n2]\n3,4\n",
    "trailing_text": b"{} x\n",
    "two_values_on_a_line": b"1 2\n",
    "bad_utf8_on_line_3": b'1\n"two"\n"\xff"\n4\n',
    "byte_order_mark": b'\xef\xbb\xbf{"a": 1}\n',
    "constants_and_numbers": b"NaN\n-Infinity\n-0\n1e400\n1.5e-3\ntrue\nnull\n",
    "empty_file": b"",
}


def _jsonl_outcome(read, path):
    try:
        return "ok", repr(read(path))
    except FormatError as exc:
        return "error", str(exc)


@pytest.mark.parametrize("name", sorted(JSONL_CASES))
def test_read_jsonl_matches_reference_reader(tmp_path, name):
    path = tmp_path / "rows.jsonl"
    path.write_bytes(JSONL_CASES[name])
    assert _jsonl_outcome(fileio.read_jsonl, path) == _jsonl_outcome(ref_read_jsonl, path)


def test_read_jsonl_keeps_line_of_bad_byte(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_bytes(JSONL_CASES["bad_utf8_on_line_3"])
    assert _jsonl_outcome(fileio.read_jsonl, path)[1].startswith(f"{path}:3: ")


_line_parts = st.sampled_from(
    [b"{}", b"[1", b"2]", b" 3 ", b'"a"', b'"\xff"', b"\xef\xbb\xbf{}", b"NaN", b"1 2", b"\r", b"", b"\x0b"]
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(_line_parts, st.binary(max_size=6)), max_size=6))
def test_read_jsonl_property_matches_reference_reader(tmp_path_factory, lines):
    path = tmp_path_factory.getbasetemp() / "property.jsonl"
    path.write_bytes(b"\n".join(lines))
    assert _jsonl_outcome(fileio.read_jsonl, path) == _jsonl_outcome(ref_read_jsonl, path)


CANONICAL_IDS = b'{"id": "a", "row": 0}\n{"id": "b-1", "row": 1}\n{"id": "", "row": 2}\n'
ID_FILE_CASES = {
    "canonical": CANONICAL_IDS,
    "quote_backslash_non_ascii": (
        b'{"id": "\\"q", "row": 0}\n{"id": "b\\\\", "row": 1}\n{"id": "\\u00e9", "row": 2}\n'
    ),
    "raw_non_ascii": '{"id": "a", "row": 0}\n{"id": "\u00e9", "row": 1}\n{"id": "c", "row": 2}\n'.encode(),
    "swapped_keys": CANONICAL_IDS.replace(b'{"id": "a", "row": 0}', b'{"row": 0, "id": "a"}'),
    "extra_spaces": CANONICAL_IDS.replace(b'"b-1", "row"', b'"b-1",  "row"'),
    "blank_line": CANONICAL_IDS.replace(b"}\n", b"}\n\n", 1),
    "crlf": CANONICAL_IDS.replace(b"\n", b"\r\n"),
    "no_final_newline": CANONICAL_IDS[:-1],
    "wrong_row": CANONICAL_IDS.replace(b'"row": 1', b'"row": 7'),
    "repeated_id": CANONICAL_IDS.replace(b'"b-1"', b'"a"'),
    "truncated_last_line": CANONICAL_IDS[:-4],
    "invalid_utf8": CANONICAL_IDS.replace(b'"b-1"', b'"b\xff"'),
    "one_line_too_many": CANONICAL_IDS + b'{"id": "d", "row": 3}\n',
    "non_string_id": CANONICAL_IDS.replace(b'"b-1"', b"5"),
    "escaped_template_in_id": CANONICAL_IDS.replace(b'"b-1"', b'"x\\", \\"row\\": 0"'),
    "id_ending_in_nul": CANONICAL_IDS.replace(b'"b-1"', b'"b\\u0000"'),
    "lone_surrogate": CANONICAL_IDS.replace(b'"b-1"', b'"\\ud800"'),
    # one byte of the line template or of an id out of place
    "raw_quote_in_id": CANONICAL_IDS.replace(b'"b-1"', b'"b"1"'),
    "raw_control_byte_in_id": CANONICAL_IDS.replace(b'"b-1"', b'"b\x011"'),
    "raw_delete_in_id": CANONICAL_IDS.replace(b'"b-1"', b'"b\x7f1"'),
    "key_in_capitals": CANONICAL_IDS.replace(b'{"id": "b-1"', b'{"ID": "b-1"'),
    "semicolon_for_colon": CANONICAL_IDS.replace(b'"row": 1', b'"row"; 1'),
    "bracket_for_brace": CANONICAL_IDS.replace(b'"row": 1}', b'"row": 1]'),
    "text_after_last_line": CANONICAL_IDS + b"x",
    # head and middle share a quote on line 0; line 1 holds the quote it lacks
    "overlapping_template": CANONICAL_IDS.replace(b'"a", "row": 0', b'", "row": 0').replace(
        b'"b-1"', b'"b"1"'
    ),
}


def _id_file_text(ids, rows) -> bytes:
    return "".join(json.dumps({"id": i, "row": r}) + "\n" for i, r in zip(ids, rows)).encode()


# Files of 25 rows, whose row numbers run to two digits.
_ROWS_25 = list(range(25))
_IDS_25 = [f"id-{r}" for r in _ROWS_25]
ID_FILES_25_ROWS = {
    "rows_12_and_21_swapped": _id_file_text(
        _IDS_25, _ROWS_25[:12] + [21] + _ROWS_25[13:21] + [12] + _ROWS_25[22:]
    ),
    "rows_10_and_20_swapped": _id_file_text(
        _IDS_25, _ROWS_25[:10] + [20] + _ROWS_25[11:20] + [10] + _ROWS_25[21:]
    ),
    "row_07": _id_file_text(_IDS_25, _ROWS_25).replace(b'"row": 7}', b'"row": 07}'),
    "row_1.0": _id_file_text(_IDS_25, _ROWS_25).replace(b'"row": 1}', b'"row": 1.0}'),
    "canonical_25_rows": _id_file_text(_IDS_25, _ROWS_25),
}
ID_FILE_CASES.update(ID_FILES_25_ROWS)


def _ids_outcome(read):
    try:
        return "ok", read()
    except FormatError as exc:
        return "error", str(exc)


def _write_id_file(tmp_path, text: bytes, count: int = 3):
    path = tmp_path / "vecs.emb"
    fileio.write_embeddings(path, np.zeros((count, 2), np.float32), [str(i) for i in range(count)])
    fileio.ids_path_for(path).write_bytes(text)
    return path


@pytest.mark.parametrize("name", sorted(ID_FILE_CASES))
def test_id_file_reads_as_the_reference_reader(tmp_path, name):
    count = 25 if name in ID_FILES_25_ROWS else 3
    path = _write_id_file(tmp_path, ID_FILE_CASES[name], count)
    idp = fileio.ids_path_for(path)
    expected = _ids_outcome(lambda: ref_read_ids(idp, count))
    assert _ids_outcome(lambda: fileio.read_embeddings(path)[1]) == expected


def _no_line_reader(path):
    raise AssertionError("read_jsonl called")


def test_written_id_file_is_read_in_one_pass(tmp_path, monkeypatch):
    # A numbered id file never reaches the line-by-line reader, whether its
    # ids were filled in from the template or spelled out. The template is
    # read from the first id: its trailing zeros are the width.
    monkeypatch.setattr(fileio, "read_jsonl", _no_line_reader)
    path = tmp_path / "vecs.emb"
    for written, (prefix, width) in [
        (fileio.NumberedIds("item-", 5, 1000), ("item-", 5)),
        (_spelled("item-", 5, 100_001), ("item-", 5)),  # rows past 10**width
        (fileio.NumberedIds("v1", 0, 25), ("v1", 1)),  # width 0 spells as width 1
        (fileio.NumberedIds("c-0", 2, 100), ("c-", 3)),  # the same ids
        (fileio.NumberedIds("", 3, 7), ("", 3)),
    ]:
        fileio.write_embeddings(path, np.zeros((len(written), 2), np.float32), written)
        read = fileio.read_embeddings(path)[1]
        assert repr(read) == repr(fileio.NumberedIds(prefix, width, len(written)))
        assert read == list(written)


def test_unmatched_template_is_read_line_by_line(tmp_path):
    # Read from the first id, "c-000" names the template ("c-", 3), which
    # spells row 100 "c-100"; the file holds "c-0100", so it is parsed.
    path = tmp_path / "vecs.emb"
    written = fileio.NumberedIds("c-0", 2, 101)
    fileio.write_embeddings(path, np.zeros((101, 2), np.float32), written)
    read = fileio.read_embeddings(path)[1]
    assert isinstance(read, fileio.IdList) and read == list(written)


_id_file_edits = st.sampled_from(
    ['"', "\\", "\n", "\r\n", " ", "{", "}", ",", ":", "0", "1", "a", "\u00e9", "\x00", "", "\\u0041"]
)


# Ids that need no escape, so that the unedited file is in the one-pass form,
# or any text; files of up to 120 rows, so that edits reach multi-digit rows.
_plain_ids = st.text(
    st.characters(min_codepoint=0x20, max_codepoint=0x7E, exclude_characters='"\\'), max_size=4
)
_id_lists = st.tuples(
    st.sampled_from([_plain_ids, st.text(max_size=4)]), st.integers(1, 120)
).flatmap(lambda drawn: st.lists(drawn[0], min_size=drawn[1], max_size=drawn[1]))


# Numbered ids, filled in from their template: prefixes that end in a digit,
# width 0, and counts on both sides of 10**width.
_numbered_id_lists = st.builds(
    fileio.NumberedIds,
    st.sampled_from(["item-", "c-0", "v1", "7", ""]),
    st.integers(0, 2),
    st.integers(1, 120),
)


@settings(max_examples=500, deadline=None)
@given(
    ids=st.one_of(_id_lists, _numbered_id_lists),
    at=st.integers(0, 10_000),
    cut=st.integers(0, 2),
    insert=_id_file_edits,
)
def test_edited_id_file_reads_as_the_reference_reader(tmp_path_factory, ids, at, cut, insert):
    path = tmp_path_factory.getbasetemp() / "edited.emb"
    fileio.write_embeddings(path, np.zeros((len(ids), 2), np.float32), ids)
    idp = fileio.ids_path_for(path)
    text = idp.read_text()
    at %= len(text) + 1
    idp.write_bytes((text[:at] + insert + text[at + cut :]).encode("utf-8"))
    expected = _ids_outcome(lambda: ref_read_ids(idp, len(ids)))
    assert _ids_outcome(lambda: fileio.read_embeddings(path)[1]) == expected


@pytest.mark.parametrize(
    "ids", [fileio.NumberedIds("c-0", 0, 12), fileio.NumberedIds("7", 1, 11)], ids=repr
)
def test_every_byte_edit_of_a_numbered_file_reads_as_the_reference_reader(tmp_path, ids):
    path = tmp_path / "edited.emb"
    fileio.write_embeddings(path, np.zeros((len(ids), 2), np.float32), ids)
    idp = fileio.ids_path_for(path)
    text = idp.read_bytes()
    for at in range(len(text)):
        for edit in (b"", b"0", b"1", b"9", b'"', b"\n", b" ", b"x"):
            idp.write_bytes(text[:at] + edit + text[at + 1 :])
            expected = _ids_outcome(lambda: ref_read_ids(idp, len(ids)))
            assert _ids_outcome(lambda: fileio.read_embeddings(path)[1]) == expected


def _first_repeat(ids):
    seen = set()
    return next((i for i in ids if i in seen or seen.add(i)), None)


@settings(max_examples=300, deadline=None)
@given(
    # a long shared prefix, or none
    prefix=st.sampled_from(["", "p" * 70]),
    tails=st.lists(st.text(st.sampled_from("ab\x00\ud800\u00e9"), max_size=3), max_size=30),
    absent=st.lists(st.text(st.sampled_from("ab\x00\ud800\u00e9"), max_size=4), max_size=5),
)
def test_id_list_lookups_match_a_list(prefix, tails, absent):
    ids = [prefix + t for t in tails]
    listed = fileio.IdList.of(ids)
    assert listed == ids and list(listed) == ids and listed[::-1] == ids[::-1]
    rows = np.arange(len(ids))[::-2]
    assert listed[rows] == [ids[r] for r in rows.tolist()]
    looked_up = ids + [prefix + t for t in absent]
    assert listed.find(looked_up) == [ids.index(i) if i in ids else None for i in looked_up]
    assert listed.first_repeat() == _first_repeat(ids)


def _spelled(prefix, width, count):
    return [f"{prefix}{r:0{width}d}" for r in range(count)]


@pytest.mark.parametrize("chunk_lines", [fileio._ID_CHUNK_LINES, 7])
@pytest.mark.parametrize("width", [4, 5])
@pytest.mark.parametrize("count", [0, 1, 9, 10, 11, 99_999, 100_000, 100_001])
def test_numbered_id_lines_match_the_spelled_ids(monkeypatch, chunk_lines, width, count):
    monkeypatch.setattr(fileio, "_ID_CHUNK_LINES", chunk_lines)
    numbered = fileio.NumberedIds("item-", width, count)
    assert bytes(fileio._id_lines(numbered)) == fileio._id_lines(_spelled("item-", width, count))


def test_numbered_ids_are_a_sequence_of_their_strings():
    ids, spelled = fileio.NumberedIds("cond-", 4, 10_002), _spelled("cond-", 4, 10_002)
    assert len(ids) == 10_002 and list(ids) == spelled
    assert ids[0] == "cond-0000" and ids[-1] == "cond-10001" and ids[np.int64(12)] == "cond-0012"
    for i in (10_002, -10_003):
        with pytest.raises(IndexError):
            ids[i]
    # An array of rows indexes as the scalar path does, on both id classes.
    rows = np.array([0, 10_001, -1, -10_002, 5, 5])
    for each in (ids, fileio.IdList(spelled)):
        for array in (rows, rows.astype(np.int32), rows[:0]):
            assert each[array] == [each[r] for r in array.tolist()]
        for bad in ([10_002], [0, -10_003], [3, 99_999, -1]):
            with pytest.raises(IndexError):
                each[np.array(bad)]
    for part in (slice(None), slice(5, 20, 3), slice(None, None, -7), slice(9_990, None)):
        assert ids[part] == spelled[part]
    assert ids == spelled and spelled == ids and not ids != spelled
    assert ids != spelled[:-1] and ids != spelled[:-1] + ["cond-1000"] and ids != tuple(spelled)
    assert ids == fileio.NumberedIds("cond-", 4, 10_002)
    assert ids != fileio.NumberedIds("cond-", 4, 10_001)
    # Different templates are equal where they spell the same ids.
    assert fileio.NumberedIds("c-0", 2, 100) == fileio.NumberedIds("c-", 3, 100)
    assert fileio.NumberedIds("c-0", 2, 101) != fileio.NumberedIds("c-", 3, 101)
    assert repr(ids) == "NumberedIds('cond-', 4, 10002)"


@settings(max_examples=200, deadline=None)
@given(
    prefix=st.sampled_from(["item-", "c-0", "7", ""]),
    width=st.integers(0, 3),
    count=st.integers(0, 130),
    tails=st.lists(st.text(st.sampled_from("0179-c \u0663"), max_size=6), max_size=12),
)
def test_numbered_ids_find_as_a_list(prefix, width, count, tails):
    ids = fileio.NumberedIds(prefix, width, count)
    spelled = _spelled(prefix, width, count)
    looked_up = tails + [prefix + t for t in tails] + spelled[::7]
    assert ids.find(looked_up) == [spelled.index(i) if i in spelled else None for i in looked_up]
    assert ids.first_repeat() is None
    rows = np.array([count - 1, 0, count // 2]) if count else np.empty(0, np.intp)
    assert ids[rows] == [spelled[r] for r in rows.tolist()]


def test_equal_templates_compare_without_spelling_ids(monkeypatch):
    def no_spelling(self, r):
        raise AssertionError("an id was spelled")

    monkeypatch.setattr(fileio.NumberedIds, "_spell", no_spelling)
    assert fileio.NumberedIds("item-", 5, 10**12) == fileio.NumberedIds("item-", 5, 10**12)


@pytest.mark.parametrize("prefix", ['a"', "a\\", "a\n", "\u00e9", "\x7f"])
def test_numbered_id_prefix_must_need_no_escape(prefix):
    with pytest.raises(FormatError, match="prefix"):
        fileio.NumberedIds(prefix, 5, 3)


def test_numbered_id_file_is_read_in_one_pass(tmp_path, monkeypatch):
    path = tmp_path / "vecs.emb"
    ids = fileio.NumberedIds("pair ~-", 2, 1234)
    fileio.write_embeddings(path, np.zeros((len(ids), 2), np.float32), ids)
    monkeypatch.setattr(fileio, "read_jsonl", _no_line_reader)
    read = fileio.read_embeddings(path)[1]
    assert read == list(ids) and read.find(["pair ~-07", "pair ~-1233"]) == [7, 1233]

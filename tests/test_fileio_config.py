import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cirmap import config as cfg
from cirmap import fileio
from cirmap.errors import ConfigError, FormatError
from oracles import ref_read_jsonl


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
        fileio.write_embeddings(path, matrix, ["a", "b", "c", "d"])
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
        assert run.train.composer_seed == 11

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

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ConfigError, match="dim"):
            cfg.parse_config({"seed": 1, "world": {"dim": 16}, "train": {"dim": 32}})

    def test_composer_seed_mismatch_rejected(self):
        with pytest.raises(ConfigError, match="composer_seed"):
            cfg.parse_config(
                {"seed": 1, "world": {"composer_seed": 2}, "train": {"composer_seed": 3}}
            )

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
        run = cfg.parse_config({"seed": 1, "world": {"dim": 16}})
        assert run.train.hidden == 64
        run32 = cfg.parse_config({"seed": 1})
        assert run32.train.hidden == 128


def test_read_jsonl_bad_utf8_names_file_and_line(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_bytes(b'{"a": 1}\n{"a": "\xff"}\n')
    with pytest.raises(FormatError) as err:
        fileio.read_jsonl(path)
    assert f"{path}:2: " in str(err.value)


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

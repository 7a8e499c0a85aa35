import json

import numpy as np
import pytest

import cirmap.autodiff as ad
from cirmap import fileio
from cirmap.autodiff import Tape, Tensor, backward
from cirmap.errors import FormatError, ShapeError
from cirmap.mappers import (
    ROLE_PSEUDO,
    ROLE_SUPPLEMENT,
    Mappers,
    layout,
    load_checkpoint,
    map_rows,
    parameter_count,
    save_checkpoint,
)
from oracles import fd_gradient, oracle, rel_err, unit_rows


def test_zero_final_layer_gives_zero_token():
    mappers = Mappers.seeded(dim=8, hidden=6, seeds=(3, 4))
    flat = mappers.flat.copy()
    # w3 and b3 close the pseudo half of the vector
    flat[parameter_count(8, 6) - (6 * 8 + 8) : parameter_count(8, 6)] = 0.0
    zeroed = Mappers(8, 6, mappers.seeds, flat)
    rng = np.random.default_rng(0)
    out = map_rows(zeroed.pseudo, Tensor(unit_rows(rng, 1, 8)))
    assert np.all(out.values == 0.0)
    assert not np.all(map_rows(zeroed.supplement, Tensor(unit_rows(rng, 1, 8))).values == 0.0)


def test_distinct_inputs_distinct_tokens():
    params = Mappers.seeded(dim=8, hidden=16, seeds=(4, 5)).pseudo
    rng = np.random.default_rng(1)
    a, b = unit_rows(rng, 2, 8)
    out_a = map_rows(params, Tensor(a.reshape(1, 8)))
    out_b = map_rows(params, Tensor(b.reshape(1, 8)))
    assert np.linalg.norm(out_a.values - out_b.values) > 0.0


def test_same_seed_mappers_bit_identical():
    mappers = Mappers.seeded(dim=8, hidden=12, seeds=(9, 9))
    x = Tensor(np.linspace(-1, 1, 8).reshape(1, 8))
    pseudo, supplement = map_rows(mappers.pseudo, x), map_rows(mappers.supplement, x)
    assert np.array_equal(pseudo.values, supplement.values)


def test_parameter_count_closed_form():
    for d, h in ((8, 12), (16, 64), (32, 128)):
        mappers = Mappers.seeded(dim=d, hidden=h, seeds=(1, 2))
        actual = sum(t.size for t in mappers.pseudo.values())
        assert actual == parameter_count(d, h) == 2 * h * d + h * h + 2 * h + d
        assert mappers.flat.size == 2 * parameter_count(d, h)


def test_dimension_checked():
    params = Mappers.seeded(dim=8, hidden=8, seeds=(2, 3)).pseudo
    with pytest.raises(ShapeError):
        map_rows(params, Tensor(np.ones((1, 4))))


def test_matches_reference_forward():
    mappers = Mappers.seeded(dim=8, hidden=10, seeds=(4, 5))
    rng = np.random.default_rng(2)
    x = unit_rows(rng, 5, 8)
    out = map_rows(mappers.supplement, Tensor(x)).values
    ref = oracle.map_rows(oracle.split_mappers(mappers.flat, 8, 10)["supplement"], x)
    assert rel_err(out, ref) < 1e-5


def test_gradients_match_fd():
    mappers = Mappers.seeded(dim=6, hidden=5, seeds=(6, 7))
    params = mappers.pseudo
    rng = np.random.default_rng(3)
    x = unit_rows(rng, 3, 6)

    with Tape() as tape:
        out = map_rows(params, Tensor(x))
        loss = ad.mse(ad.tanh(out), Tensor(np.zeros(out.shape)))
    grads = backward(loss, tape)

    weights = oracle.split_mappers(mappers.flat, 6, 5)["pseudo"]
    for key in ("w1", "b1", "w2", "b2", "w3", "b3"):
        base = weights[key].copy()

        def f(vec, key=key):
            w = {k: v.copy() for k, v in weights.items()}
            w[key] = vec.reshape(base.shape)
            return float(np.mean(np.tanh(oracle.map_rows(w, x)) ** 2))

        fd = fd_gradient(f, base.ravel())
        tape_grad = grads[params[key]].values
        assert rel_err(tape_grad, fd.reshape(base.shape)) < 1e-3, key


def test_checkpoint_round_trip(tmp_path):
    mappers = Mappers.seeded(dim=8, hidden=12, seeds=(7, 8))
    base = tmp_path / "ckpt"
    save_checkpoint(base, mappers, step=42, composer_seed=1234)

    loaded, manifest = load_checkpoint(base)
    assert manifest["step"] == 42
    assert manifest["composer_seed"] == 1234
    assert (loaded.dim, loaded.hidden, loaded.seeds) == (8, 12, (7, 8))
    assert loaded.flat.tobytes() == mappers.flat.tobytes()
    for orig, back in ((mappers.pseudo, loaded.pseudo), (mappers.supplement, loaded.supplement)):
        assert list(orig) == list(back)
        for key in orig:
            assert np.array_equal(orig[key].values, back[key].values)
            assert back[key].requires_grad


def test_leaves_are_views_of_flat():
    mappers = Mappers.seeded(dim=4, hidden=6, seeds=(1, 2))
    assert np.shares_memory(mappers.pseudo["w1"].values, mappers.flat)
    for weights in (mappers.pseudo, mappers.supplement):
        for leaf in weights.values():
            assert np.shares_memory(leaf.values, mappers.flat)


def test_checkpoint_manifest_follows_layout(tmp_path):
    mappers = Mappers.seeded(dim=4, hidden=6, seeds=(1, 2))
    save_checkpoint(tmp_path / "ckpt", mappers, step=1, composer_seed=0)
    manifest = json.loads((tmp_path / "ckpt.json").read_text())
    assert manifest["params"] == layout(4, 6)
    assert [e["name"] for e in manifest["params"]] == [
        f"{role}.{key}"
        for role in (ROLE_PSEUDO, ROLE_SUPPLEMENT)
        for key in ("w1", "b1", "w2", "b2", "w3", "b3")
    ]
    # each leaf is the vector's range at its entry's offset
    for entry in manifest["params"]:
        role, _, key = entry["name"].partition(".")
        leaf = getattr(mappers, role)[key].values.ravel()
        start = entry["offset"]
        assert leaf.tobytes() == mappers.flat[start : start + leaf.size].tobytes()


@pytest.mark.parametrize(
    "tamper, message",
    [
        (lambda m: m.pop("total_parameters"), "missing key 'total_parameters'"),
        (lambda m: m.update(dim="8"), "key 'dim' must be int, got str"),
        (lambda m: m.update(step=True), "key 'step' must be int, got bool"),
        (lambda m: m["params"][0].pop("offset"), "params[0]: missing key 'offset'"),
        (lambda m: m["params"][1].update(shape=[7]), "params[1]: key 'shape' is [7]"),
        (lambda m: m.update(hidden=5), "params[0]: key 'shape' is [8, 12]"),
        (lambda m: m.update(dim=0), "key 'dim' must be >= 1, got 0"),
        (lambda m: m.update(hidden=-3), "key 'hidden' must be >= 1, got -3"),
        (
            lambda m: m.update(dim=-1, hidden=-1, params=layout(-1, -1)),
            "key 'dim' must be >= 1, got -1",
        ),
        (lambda m: m["params"][2].update(offset=-1), "params[2]: key 'offset' is -1"),
        (lambda m: m["params"][0].update(name="pseudo"), "params[0]: key 'name' is 'pseudo'"),
        (lambda m: m["params"].insert(4, m["params"].pop(5)), "params[4]: key 'name' is 'pseudo.b3'"),
        (lambda m: m["params"].pop(), "params[11]: 11 entries, the layout"),
        (lambda m: m["params"][3].update(dtype="f4"), "params[3]: key 'dtype' is 'f4'"),
    ],
)
def test_malformed_manifest_rejected_with_path_and_key(tmp_path, tamper, message):
    mappers = Mappers.seeded(dim=8, hidden=12, seeds=(7, 8))
    base = tmp_path / "ckpt"
    save_checkpoint(base, mappers, step=3, composer_seed=1)
    manifest_path = tmp_path / "ckpt.json"
    manifest = json.loads(manifest_path.read_text())
    tamper(manifest)
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(FormatError) as err:
        load_checkpoint(base)
    assert str(manifest_path) in str(err.value)
    assert message in str(err.value)


def test_vector_longer_than_layout_rejected(tmp_path):
    mappers = Mappers.seeded(dim=4, hidden=6, seeds=(1, 2))
    base = tmp_path / "ckpt"
    save_checkpoint(base, mappers, step=1, composer_seed=0)
    longer = np.append(mappers.flat, np.float32(0.5)).reshape(1, -1)
    fileio.write_embeddings(tmp_path / "ckpt.emb", longer, ["params"])
    manifest_path = tmp_path / "ckpt.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["total_parameters"] += 1
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(FormatError) as err:
        load_checkpoint(base)
    assert f"{manifest_path}: key 'total_parameters' is {mappers.flat.size + 1}" in str(err.value)

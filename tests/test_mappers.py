import json

import numpy as np
import pytest

import cirmap.autodiff as ad
from cirmap.autodiff import Tape, Tensor, backward
from cirmap.errors import FormatError, ShapeError
from cirmap.mappers import (
    ROLE_PSEUDO,
    ROLE_SUPPLEMENT,
    Mappers,
    init_mapper,
    load_checkpoint,
    map_rows,
    parameter_count,
    save_checkpoint,
)
from oracles import fd_gradient, mapper_weights_f64, ref_mapper_rows, rel_err, unit_rows


def test_zero_final_layer_gives_zero_token():
    params = init_mapper(ROLE_PSEUDO, dim=8, hidden=6, seed=3)
    zeroed = params.replaced(
        {
            "w3": Tensor(np.zeros((6, 8)), requires_grad=True),
            "b3": Tensor(np.zeros(8), requires_grad=True),
        }
    )
    rng = np.random.default_rng(0)
    out = map_rows(zeroed, Tensor(unit_rows(rng, 1, 8)))
    assert np.all(out.values == 0.0)


def test_distinct_inputs_distinct_tokens():
    params = init_mapper(ROLE_PSEUDO, dim=8, hidden=16, seed=4)
    rng = np.random.default_rng(1)
    a, b = unit_rows(rng, 2, 8)
    out_a = map_rows(params, Tensor(a.reshape(1, 8)))
    out_b = map_rows(params, Tensor(b.reshape(1, 8)))
    assert np.linalg.norm(out_a.values - out_b.values) > 0.0


def test_same_seed_mappers_bit_identical():
    a = init_mapper(ROLE_PSEUDO, dim=8, hidden=12, seed=9)
    b = init_mapper(ROLE_SUPPLEMENT, dim=8, hidden=12, seed=9)
    x = Tensor(np.linspace(-1, 1, 8).reshape(1, 8))
    assert np.array_equal(map_rows(a, x).values, map_rows(b, x).values)


def test_parameter_count_closed_form():
    for d, h in ((8, 12), (16, 64), (32, 128)):
        params = init_mapper(ROLE_PSEUDO, dim=d, hidden=h, seed=1)
        actual = sum(t.size for _, t in params.named())
        assert actual == parameter_count(d, h) == 2 * h * d + h * h + 2 * h + d


def test_dimension_checked():
    params = init_mapper(ROLE_PSEUDO, dim=8, hidden=8, seed=2)
    with pytest.raises(ShapeError):
        map_rows(params, Tensor(np.ones((1, 4))))


def test_matches_reference_forward():
    params = init_mapper(ROLE_SUPPLEMENT, dim=8, hidden=10, seed=5)
    rng = np.random.default_rng(2)
    x = unit_rows(rng, 5, 8)
    out = map_rows(params, Tensor(x)).values
    ref = ref_mapper_rows(mapper_weights_f64(params), x)
    assert rel_err(out, ref) < 1e-5


def test_gradients_match_fd():
    params = init_mapper(ROLE_PSEUDO, dim=6, hidden=5, seed=6)
    rng = np.random.default_rng(3)
    x = unit_rows(rng, 3, 6)

    with Tape() as tape:
        out = map_rows(params, Tensor(x))
        loss = ad.mean(ad.tanh(out))
    grads = backward(loss, tape)

    weights = mapper_weights_f64(params)
    for key in ("w1", "b1", "w2", "b2", "w3", "b3"):
        base = weights[key].copy()

        def f(vec, key=key):
            w = {k: v.copy() for k, v in weights.items()}
            w[key] = vec.reshape(base.shape)
            return float(np.mean(np.tanh(ref_mapper_rows(w, x))))

        fd = fd_gradient(f, base.ravel())
        tape_grad = grads[params.weights[key]].values
        assert rel_err(tape_grad, fd.reshape(base.shape)) < 1e-3, key


def test_checkpoint_round_trip(tmp_path):
    pseudo = init_mapper(ROLE_PSEUDO, dim=8, hidden=12, seed=7)
    supplement = init_mapper(ROLE_SUPPLEMENT, dim=8, hidden=12, seed=8)
    base = tmp_path / "ckpt"
    save_checkpoint(base, Mappers(pseudo, supplement), step=42, composer_seed=1234)

    loaded, manifest = load_checkpoint(base)
    assert manifest["step"] == 42
    assert manifest["composer_seed"] == 1234
    p2, s2 = loaded.pseudo, loaded.supplement
    assert p2.role == ROLE_PSEUDO and s2.role == ROLE_SUPPLEMENT
    for orig, back in ((pseudo, p2), (supplement, s2)):
        for (name_a, t_a), (name_b, t_b) in zip(orig.named(), back.named()):
            assert name_a == name_b
            assert np.array_equal(t_a.values, t_b.values)
            assert t_b.requires_grad


def test_checkpoint_layout_follows_named_params(tmp_path):
    mappers = Mappers(
        init_mapper(ROLE_PSEUDO, dim=4, hidden=6, seed=1),
        init_mapper(ROLE_SUPPLEMENT, dim=4, hidden=6, seed=2),
    )
    save_checkpoint(tmp_path / "ckpt", mappers, step=1, composer_seed=0)
    manifest = json.loads((tmp_path / "ckpt.json").read_text())
    assert [e["name"] for e in manifest["params"]] == list(mappers.named_params())


@pytest.mark.parametrize(
    "tamper, message",
    [
        (lambda m: m.pop("total_parameters"), "missing key 'total_parameters'"),
        (lambda m: m.update(dim="8"), "key 'dim' must be int, got str"),
        (lambda m: m.update(step=True), "key 'step' must be int, got bool"),
        (lambda m: m["params"][0].pop("offset"), "params[0]: missing key 'offset'"),
        (lambda m: m["params"][1].update(shape=[7]), "params[1]: key 'shape' is [7]"),
        (lambda m: m.update(hidden=5), "params[0]: key 'shape' is [8, 12]"),
        (lambda m: m["params"][2].update(offset=-1), "params[2]: key 'offset' must be >= 0"),
        (lambda m: m["params"][0].update(name="pseudo"), "params[0]: unknown parameter"),
    ],
)
def test_malformed_manifest_rejected_with_path_and_key(tmp_path, tamper, message):
    mappers = Mappers(
        init_mapper(ROLE_PSEUDO, dim=8, hidden=12, seed=7),
        init_mapper(ROLE_SUPPLEMENT, dim=8, hidden=12, seed=8),
    )
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

import math

import numpy as np
import pytest

from cirmap import training
from cirmap.autodiff import Tensor
from cirmap.config import parse_config
from cirmap.composer import PromptComposer
from cirmap.errors import ContractError, ParameterError, ShapeError, TrainingDivergedError
from cirmap.mappers import Mappers, layout, load_checkpoint, map_rows, save_checkpoint
from cirmap.training import (
    ADAM_EPS,
    OptimizerState,
    TrainConfig,
    adamw_step,
    forward_batch,
    init_mappers,
    lr_schedule,
    train,
)
from cirmap.worldgen import WorldSpec, generate_world
from oracles import RefAdamState, ref_adamw_step, unit_rows


@pytest.fixture(scope="module")
def small_world():
    spec = WorldSpec(
        n_train_pairs=192,
        gallery_size=48,
        n_eval_queries=12,
        dim=16,
        seed=21,
        composer_seed=21,
    )
    return generate_world(spec)


# the frozen encoder small_world was generated with
COMPOSER = PromptComposer(16, 21)


def small_config(**overrides):
    base = dict(
        batch_size=32,
        steps=20,
        hidden=32,
        seed=21,
        warmup_steps=5,
    )
    base.update(overrides)
    return TrainConfig(**base)


class TestLrSchedule:
    def test_step_zero(self):
        assert lr_schedule(0, 5e-4, 1000) == 0.0

    def test_end_of_warmup(self):
        assert lr_schedule(1000, 5e-4, 1000) == 5e-4
        assert lr_schedule(5000, 5e-4, 1000) == 5e-4

    def test_midpoint_linear(self):
        assert lr_schedule(500, 5e-4, 1000) == pytest.approx(2.5e-4)

    def test_no_warmup(self):
        assert lr_schedule(0, 5e-4, 0) == 5e-4


class TestAdamW:
    """``adamw_step`` updates the vector it is given in place."""

    def _flat(self):
        return np.array([1.0, -2.0, 3.0], dtype=np.float32)

    def test_zero_grad_zero_decay_is_identity(self):
        flat = self._flat()
        adamw_step(flat, [np.zeros(3)], OptimizerState(3), 0.1, 0.0)
        assert np.array_equal(flat, self._flat())

    def test_first_step_is_sign_scaled(self):
        # one step from zero moments: delta = -lr * g / (|g| + eps)
        flat = self._flat()
        g = np.array([0.5, -0.25, 1.0])
        adamw_step(flat, [g], OptimizerState(3), 0.01, 0.0)
        expected = self._flat().astype(np.float64) - 0.01 * g / (np.abs(g) + ADAM_EPS)
        assert np.allclose(flat, expected, atol=1e-7)

    def test_decay_only_shrinks(self):
        flat = self._flat()
        adamw_step(flat, [np.zeros(3)], OptimizerState(3), 0.1, 0.5)
        expected = self._flat() * (1.0 - 0.1 * 0.5)
        assert np.allclose(flat, expected, atol=1e-7)

    def test_missing_grad_leaves_param(self):
        flat = np.arange(6, dtype=np.float32)
        before = flat.copy()
        state = OptimizerState(6)
        adamw_step(flat, [None, np.ones(3)], state, 0.1, 0.5)
        assert np.array_equal(flat[:3], before[:3])
        assert not np.array_equal(flat[3:], before[3:])
        assert not state.m[:3].any() and not state.v[:3].any()
        assert state.m[3:].all() and state.v[3:].all()

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            adamw_step(self._flat(), [np.zeros(4)], OptimizerState(3), 0.1, 0.0)

    def test_read_only_or_float64_vector_rejected(self):
        frozen = self._flat()
        frozen.flags.writeable = False
        for flat in (frozen, self._flat().astype(np.float64)):
            with pytest.raises(ContractError):
                adamw_step(flat, [np.ones(3)], OptimizerState(3), 0.1, 0.0)
        assert np.array_equal(frozen, self._flat())

    def test_step_counter_increases(self):
        state = OptimizerState(6)
        flat = np.ones(6, dtype=np.float32)
        for expected in (1, 2, 3):
            adamw_step(flat, [np.ones(3), None], state, 0.01, 0.0)
            assert state.step == expected

    def test_matches_per_name_reference_bitwise(self):
        rng = np.random.default_rng(7)
        # 46,464 parameters per mapper: the update runs over more than one block
        entries = layout(dim=64, hidden=160)
        shapes = {e["name"]: tuple(e["shape"]) for e in entries}
        flat = Mappers.seeded(64, 160, (11, 12)).flat.copy()  # updated in place
        ref = {
            e["name"]: flat[e["offset"] : e["offset"] + math.prod(e["shape"])]
            .reshape(e["shape"])
            .copy()
            for e in entries
        }
        state, ref_state = OptimizerState(flat.size), RefAdamState()
        for step in range(20):
            grads = {
                name: rng.standard_normal(shape).astype(np.float32)
                for name, shape in shapes.items()
            }
            # step 3: the supplement mapper gets no gradient; step 0: the pseudo one
            skip = {0: "pseudo.", 3: "supplement."}.get(step, "-")
            grads = {name: g for name, g in grads.items() if not name.startswith(skip)}
            halves = [
                np.concatenate([grads[n].ravel() for n in shapes if n.startswith(role)])
                if not role.startswith(skip)
                else None
                for role in ("pseudo.", "supplement.")
            ]
            lr_t, decay = float(rng.uniform(0.0, 1e-2)), 0.1
            adamw_step(flat, halves, state, lr_t, decay)
            ref = ref_adamw_step(ref, grads, ref_state, lr_t, decay)

            assert flat.tobytes() == np.concatenate([ref[n].ravel() for n in shapes]).tobytes()
            for moments, ref_moments in ((state.m, ref_state.m), (state.v, ref_state.v)):
                expected = np.concatenate(
                    [ref_moments.get(n, np.zeros(shapes[n])).ravel() for n in shapes]
                )
                assert moments.tobytes() == expected.tobytes()
            assert state.step == ref_state.step == step + 1


    def test_float64_update_matches_reference_bitwise(self):
        # One part within one block: after the update the scratch holds the
        # float64 parameters, where the cast to float32 cannot hide a
        # different rounding of the Adam delta.
        rng = np.random.default_rng(8)
        flat = rng.standard_normal(5000).astype(np.float32)
        ref, state, ref_state = {"p": flat.copy()}, OptimizerState(flat.size), RefAdamState()
        for _ in range(10):
            g = rng.standard_normal(flat.size).astype(np.float32)
            lr_t = float(rng.uniform(0.0, 1e-2))
            adamw_step(flat, [g], state, lr_t, 0.1)
            ref = ref_adamw_step(ref, {"p": g}, ref_state, lr_t, 0.1)
            assert state.scratch[0].tobytes() == ref_state.theta["p"].tobytes()
            assert flat.tobytes() == ref["p"].tobytes()


class TestForwardBatch:
    def test_blocks_unit_norm(self):
        rng = np.random.default_rng(0)
        cfg = small_config()
        mappers = init_mappers(cfg, 16)
        composer = PromptComposer(16, 21)
        batch = forward_batch(unit_rows(rng, 8, 16), unit_rows(rng, 8, 16), mappers, composer)
        for block in (batch.composed_pseudo, batch.composed_supplement):
            norms = np.linalg.norm(block.values.astype(np.float64), axis=1)
            assert np.max(np.abs(norms - 1.0)) < 1e-6

    def test_identical_mappers_identical_blocks(self):
        rng = np.random.default_rng(1)
        cfg = small_config()
        mappers = init_mappers(cfg, 16)
        twin = Mappers.seeded(16, cfg.hidden, (mappers.seeds[0], mappers.seeds[0]))
        rows = unit_rows(rng, 4, 16)
        composer = PromptComposer(16, 21)
        batch = forward_batch(rows, rows, twin, composer)
        assert np.array_equal(batch.composed_pseudo.values, batch.composed_supplement.values)

    def test_matches_hand_chained_calls(self):
        rng = np.random.default_rng(2)
        cfg = small_config()
        mappers = init_mappers(cfg, 16)
        composer = PromptComposer(16, 21)
        images, texts = unit_rows(rng, 2, 16), unit_rows(rng, 2, 16)
        batch = forward_batch(images, texts, mappers, composer)

        tokens = map_rows(mappers.pseudo, Tensor(images))
        by_hand = composer.compose_rows("photo_of", [tokens])
        assert np.array_equal(batch.composed_pseudo.values, by_hand.values)


class TestTrain:
    def test_result_vector_is_frozen_and_saved_as_is(self, small_world, tmp_path):
        # train updates one vector in place and hands it over without a copy:
        # no writable array lies under the result, and it is what is saved
        cfg = small_config(steps=3)
        result = train(cfg, small_world.train_images, small_world.train_texts, COMPOSER)
        arr = result.mappers.flat
        while arr is not None:
            assert not arr.flags.writeable
            arr = arr.base
        leaf = result.mappers.pseudo["w1"].values
        assert np.shares_memory(leaf, result.mappers.flat)
        save_checkpoint(tmp_path / "ckpt", result.mappers, 3, 21)
        loaded, _ = load_checkpoint(tmp_path / "ckpt")
        assert loaded.flat.tobytes() == result.mappers.flat.tobytes()

    def test_deterministic_across_runs(self, small_world):
        cfg = small_config()
        a = train(cfg, small_world.train_images, small_world.train_texts, COMPOSER)
        b = train(cfg, small_world.train_images, small_world.train_texts, COMPOSER)
        assert a.mappers.flat.tobytes() == b.mappers.flat.tobytes()
        assert a.metrics == b.metrics

    def test_loss_component_accounting(self, small_world):
        cfg = small_config(steps=15)
        result = train(cfg, small_world.train_images, small_world.train_texts, COMPOSER)
        for row in result.metrics:
            recomputed = row["L_ori"] + row["L_ts"] + cfg.beta * row["L_ss"]
            assert abs(row["L_deg"] - recomputed) < 1e-5 * max(1.0, abs(recomputed))
            recomputed_ts = row["L_itcon"] + cfg.alpha * row["L_mse"]
            assert abs(row["L_ts"] - recomputed_ts) < 1e-5 * max(1.0, abs(recomputed_ts))

    def test_metrics_schema(self, small_world):
        cfg = small_config(steps=3)
        result = train(cfg, small_world.train_images, small_world.train_texts, COMPOSER)
        assert len(result.metrics) == 3
        keys = {"step", "lr", "L_ori", "L_itcon", "L_mse", "L_ts", "L_ss", "L_deg", "N_S"}
        for row in result.metrics:
            assert set(row) == keys

    def test_composer_frozen_through_training(self, small_world):
        cfg = small_config(steps=5)
        composer = PromptComposer(16, 21)
        before = composer.weights_hash()
        train(cfg, small_world.train_images, small_world.train_texts, composer)
        assert composer.weights_hash() == before

    def test_beta_zero_bit_identical_to_no_sset(self, small_world):
        base = small_config(steps=12)
        beta_zero = train(
            small_config(steps=12, beta=0.0),
            small_world.train_images,
            small_world.train_texts,
            COMPOSER,
        )
        no_sset = train(
            small_config(steps=12, use_sset=False),
            small_world.train_images,
            small_world.train_texts,
            COMPOSER,
        )
        assert beta_zero.mappers.flat.tobytes() == no_sset.mappers.flat.tobytes()

    def test_all_flags_off_is_pseudo_only_loss(self, small_world):
        cfg = small_config(steps=8, use_itcon=False, use_mse=False, use_sset=False)
        result = train(cfg, small_world.train_images, small_world.train_texts, COMPOSER)
        for row in result.metrics:
            assert row["L_itcon"] == 0.0
            assert row["L_mse"] == 0.0
            assert row["L_ss"] == 0.0
            assert row["N_S"] == 0
            assert row["L_deg"] == row["L_ori"]

    def test_unreached_supplement_stays_at_init(self, small_world):
        # with every supplement term off the loss never reaches that mapper:
        # its half of the vector is neither decayed nor moved
        cfg = small_config(steps=8, use_itcon=False, use_mse=False, use_sset=False)
        result = train(cfg, small_world.train_images, small_world.train_texts, COMPOSER)
        init = init_mappers(cfg, 16).flat
        half = init.size // 2
        assert result.mappers.flat[half:].tobytes() == init[half:].tobytes()
        assert result.mappers.flat[:half].tobytes() != init[:half].tobytes()

    def test_loss_decreases_on_synthetic_world(self, small_world):
        cfg = small_config(steps=200, warmup_steps=20)
        result = train(cfg, small_world.train_images, small_world.train_texts, COMPOSER)
        assert result.metrics[-1]["L_deg"] < 0.5 * result.metrics[0]["L_deg"]

    def test_empty_dataset_rejected(self):
        cfg = small_config()
        with pytest.raises(ShapeError):
            train(cfg, np.zeros((0, 16), np.float32), np.zeros((0, 16), np.float32), COMPOSER)

    def test_dataset_smaller_than_batch_rejected(self, small_world):
        cfg = small_config(batch_size=1000)
        with pytest.raises(ShapeError):
            train(cfg, small_world.train_images, small_world.train_texts, COMPOSER)

    def test_dataset_width_must_be_the_composer_width(self, small_world):
        with pytest.raises(ShapeError, match="dataset dim 16 != composer dim 8"):
            images, texts = small_world.train_images, small_world.train_texts
            train(small_config(), images, texts, PromptComposer(8, 21))

    def test_non_unit_dataset_row_rejected(self, small_world):
        # rows are checked once, where the dataset enters, and the error names the row
        images = small_world.train_images.copy()
        images[70] *= 2.0
        with pytest.raises(ShapeError, match="dataset images row 70 has norm 2;"):
            train(small_config(steps=1), images, small_world.train_texts, COMPOSER)
        texts = small_world.train_texts.copy()
        texts[191] = texts[0] * 0.5
        with pytest.raises(ShapeError, match="dataset texts row 191 has norm 0.5;"):
            train(small_config(steps=1), small_world.train_images, texts, COMPOSER)
        with pytest.raises(ShapeError, match="dataset blocks disagree"):
            train(small_config(steps=1), images, small_world.train_texts[:-1], COMPOSER)

    def test_non_finite_input_aborts_with_diagnostic(self, small_world):
        # a NaN norm fails no ">" test, so the check asks for "within 1e-5"
        images = small_world.train_images.copy()
        images[100, 0] = np.nan
        with pytest.raises(ShapeError, match="dataset images row 100 has norm nan;"):
            train(small_config(steps=1000), images, small_world.train_texts, COMPOSER)
        texts = small_world.train_texts.copy()
        texts[37, 3] = -np.inf
        with pytest.raises(ShapeError, match="dataset texts row 37 has norm inf;"):
            train(small_config(steps=1000), small_world.train_images, texts, COMPOSER)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts_with_diagnostic(self, small_world):
        cfg = small_config(learning_rate=1e30, warmup_steps=0)
        with pytest.raises(TrainingDivergedError, match="at step"):
            train(cfg, small_world.train_images, small_world.train_texts, COMPOSER)


def test_train_config_validation():
    with pytest.raises(ParameterError):
        TrainConfig(steps=0)
    with pytest.raises(ParameterError):
        TrainConfig(warmup_steps=-1)
    with pytest.raises(ParameterError):
        TrainConfig(tau=0.0)
    with pytest.raises(ParameterError):
        TrainConfig(beta=-1.0)


def test_one_step_tape_size(monkeypatch):
    # One step of the README's minimal config (d32, b64) records 28 tape
    # nodes: 5 per mapper (three linear layers, two tanh), 4 per composition
    # (slot layer with the template bias, tanh, matmul, normalize), 1 per
    # InfoNCE term, the gather of the selected composed rows, the MSE, and 5
    # scales and adds that combine the terms. Without the S-Set term its
    # gather, its InfoNCE and its weighting scale go (25).
    sizes = []
    backward = training.ad.backward

    def counting_backward(loss, tape):
        sizes.append(len(tape))
        return backward(loss, tape)

    monkeypatch.setattr(training.ad, "backward", counting_backward)
    world_doc = {"n_train_pairs": 2048, "gallery_size": 256, "n_eval_queries": 64, "dim": 32}
    world = None
    for switches, nodes, n_s in (
        ({}, 28, None),
        ({"use_sset": False}, 25, 0),
    ):
        run = parse_config(
            {
                "seed": 2024,
                "world": world_doc,
                "train": {"batch_size": 64, "steps": 1, "warmup_steps": 50, **switches},
            }
        )
        world = world or generate_world(run.world)
        sizes.clear()
        composer = PromptComposer(run.world.dim, run.world.composer_seed)
        result = train(run.train, world.train_images, world.train_texts, composer)
        if n_s is None:
            assert result.metrics[0]["N_S"] > 0  # the S-Set term is on the tape
        else:
            assert result.metrics[0]["N_S"] == n_s
        assert sizes == [nodes], switches

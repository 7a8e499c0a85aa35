import math

import numpy as np
import pytest

from cirmap import training
from cirmap.autodiff import Tensor
from cirmap.config import parse_config
from cirmap.composer import ComposerSpec, PromptComposer
from cirmap.errors import ParameterError, ShapeError, TrainingDivergedError
from cirmap.mappers import Mappers, layout, map_rows
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


def small_config(**overrides):
    base = dict(
        batch_size=32,
        steps=20,
        dim=16,
        hidden=32,
        seed=21,
        composer_seed=21,
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
    def _flat(self):
        return np.array([1.0, -2.0, 3.0], dtype=np.float32)

    def test_zero_grad_zero_decay_is_identity(self):
        flat = self._flat()
        out = adamw_step(flat, [np.zeros(3)], OptimizerState(3), 0.1, 0.0)
        assert np.array_equal(out, flat)

    def test_first_step_is_sign_scaled(self):
        # one step from zero moments: delta = -lr * g / (|g| + eps)
        flat = self._flat()
        g = np.array([0.5, -0.25, 1.0])
        out = adamw_step(flat, [g], OptimizerState(3), 0.01, 0.0)
        expected = flat.astype(np.float64) - 0.01 * g / (np.abs(g) + ADAM_EPS)
        assert np.allclose(out, expected, atol=1e-7)

    def test_decay_only_shrinks(self):
        flat = self._flat()
        out = adamw_step(flat, [np.zeros(3)], OptimizerState(3), 0.1, 0.5)
        expected = flat * (1.0 - 0.1 * 0.5)
        assert np.allclose(out, expected, atol=1e-7)

    def test_missing_grad_leaves_param(self):
        flat = np.arange(6, dtype=np.float32)
        state = OptimizerState(6)
        out = adamw_step(flat, [None, np.ones(3)], state, 0.1, 0.5)
        assert np.array_equal(out[:3], flat[:3])
        assert not np.array_equal(out[3:], flat[3:])
        assert not state.m[:3].any() and not state.v[:3].any()
        assert state.m[3:].all() and state.v[3:].all()

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            adamw_step(self._flat(), [np.zeros(4)], OptimizerState(3), 0.1, 0.0)

    def test_step_counter_increases(self):
        state = OptimizerState(6)
        flat = np.ones(6, dtype=np.float32)
        for expected in (1, 2, 3):
            flat = adamw_step(flat, [np.ones(3), None], state, 0.01, 0.0)
            assert state.step == expected

    def test_matches_per_name_reference_bitwise(self):
        rng = np.random.default_rng(7)
        # 46,464 parameters per mapper: the update runs over more than one block
        entries = layout(dim=64, hidden=160)
        shapes = {e["name"]: tuple(e["shape"]) for e in entries}
        flat = Mappers.seeded(64, 160, (11, 12)).flat
        ref = {
            e["name"]: flat[e["offset"] : e["offset"] + math.prod(e["shape"])].reshape(
                e["shape"]
            )
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
            flat = adamw_step(flat, halves, state, lr_t, decay)
            ref = ref_adamw_step(ref, grads, ref_state, lr_t, decay)

            assert flat.tobytes() == np.concatenate([ref[n].ravel() for n in shapes]).tobytes()
            for moments, ref_moments in ((state.m, ref_state.m), (state.v, ref_state.v)):
                expected = np.concatenate(
                    [ref_moments.get(n, np.zeros(shapes[n])).ravel() for n in shapes]
                )
                assert moments.tobytes() == expected.tobytes()
            assert state.step == ref_state.step == step + 1


class TestForwardBatch:
    def test_blocks_unit_norm(self):
        rng = np.random.default_rng(0)
        cfg = small_config()
        mappers = init_mappers(cfg)
        composer = PromptComposer(ComposerSpec(dim=16, seed=21))
        batch = forward_batch(unit_rows(rng, 8, 16), unit_rows(rng, 8, 16), mappers, composer)
        for block in (batch.composed_pseudo, batch.composed_supplement):
            norms = np.linalg.norm(block.values.astype(np.float64), axis=1)
            assert np.max(np.abs(norms - 1.0)) < 1e-6

    def test_identical_mappers_identical_blocks(self):
        rng = np.random.default_rng(1)
        cfg = small_config()
        mappers = init_mappers(cfg)
        twin = Mappers.seeded(cfg.dim, cfg.hidden, (mappers.seeds[0], mappers.seeds[0]))
        rows = unit_rows(rng, 4, 16)
        composer = PromptComposer(ComposerSpec(dim=16, seed=21))
        batch = forward_batch(rows, rows, twin, composer)
        assert np.array_equal(batch.composed_pseudo.values, batch.composed_supplement.values)

    def test_matches_hand_chained_calls(self):
        rng = np.random.default_rng(2)
        cfg = small_config()
        mappers = init_mappers(cfg)
        composer = PromptComposer(ComposerSpec(dim=16, seed=21))
        images, texts = unit_rows(rng, 2, 16), unit_rows(rng, 2, 16)
        batch = forward_batch(images, texts, mappers, composer)

        tokens = map_rows(mappers.pseudo, Tensor(images))
        by_hand = composer.compose_rows("photo_of", [tokens])
        assert np.array_equal(batch.composed_pseudo.values, by_hand.values)


class TestTrain:
    def test_deterministic_across_runs(self, small_world):
        cfg = small_config()
        a = train(cfg, small_world.train_images, small_world.train_texts)
        b = train(cfg, small_world.train_images, small_world.train_texts)
        assert a.mappers.flat.tobytes() == b.mappers.flat.tobytes()
        assert a.metrics == b.metrics

    def test_loss_component_accounting(self, small_world):
        cfg = small_config(steps=15)
        result = train(cfg, small_world.train_images, small_world.train_texts)
        for row in result.metrics:
            recomputed = row["L_ori"] + row["L_ts"] + cfg.beta * row["L_ss"]
            assert abs(row["L_deg"] - recomputed) < 1e-5 * max(1.0, abs(recomputed))
            recomputed_ts = row["L_itcon"] + cfg.alpha * row["L_mse"]
            assert abs(row["L_ts"] - recomputed_ts) < 1e-5 * max(1.0, abs(recomputed_ts))

    def test_metrics_schema(self, small_world):
        cfg = small_config(steps=3)
        result = train(cfg, small_world.train_images, small_world.train_texts)
        assert len(result.metrics) == 3
        keys = {"step", "lr", "L_ori", "L_itcon", "L_mse", "L_ts", "L_ss", "L_deg", "N_S"}
        for row in result.metrics:
            assert set(row) == keys

    def test_composer_frozen_through_training(self, small_world):
        cfg = small_config(steps=5)
        composer = PromptComposer(ComposerSpec(dim=16, seed=21))
        before = composer.weights_hash()
        train(cfg, small_world.train_images, small_world.train_texts, composer)
        assert composer.weights_hash() == before

    def test_beta_zero_bit_identical_to_no_sset(self, small_world):
        base = small_config(steps=12)
        beta_zero = train(
            small_config(steps=12, beta=0.0),
            small_world.train_images,
            small_world.train_texts,
        )
        no_sset = train(
            small_config(steps=12, use_sset=False),
            small_world.train_images,
            small_world.train_texts,
        )
        assert beta_zero.mappers.flat.tobytes() == no_sset.mappers.flat.tobytes()

    def test_all_flags_off_is_pseudo_only_loss(self, small_world):
        cfg = small_config(steps=8, use_itcon=False, use_mse=False, use_sset=False)
        result = train(cfg, small_world.train_images, small_world.train_texts)
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
        result = train(cfg, small_world.train_images, small_world.train_texts)
        init = init_mappers(cfg).flat
        half = init.size // 2
        assert result.mappers.flat[half:].tobytes() == init[half:].tobytes()
        assert result.mappers.flat[:half].tobytes() != init[:half].tobytes()

    def test_no_select_uses_full_batch(self, small_world):
        cfg = small_config(steps=4, sset_select=False)
        result = train(cfg, small_world.train_images, small_world.train_texts)
        for row in result.metrics:
            assert row["N_S"] == cfg.batch_size

    def test_loss_decreases_on_synthetic_world(self, small_world):
        cfg = small_config(steps=200, warmup_steps=20)
        result = train(cfg, small_world.train_images, small_world.train_texts)
        assert result.metrics[-1]["L_deg"] < 0.5 * result.metrics[0]["L_deg"]

    def test_empty_dataset_rejected(self):
        cfg = small_config()
        with pytest.raises(ShapeError):
            train(cfg, np.zeros((0, 16), np.float32), np.zeros((0, 16), np.float32))

    def test_dataset_smaller_than_batch_rejected(self, small_world):
        cfg = small_config(batch_size=1000)
        with pytest.raises(ShapeError):
            train(cfg, small_world.train_images, small_world.train_texts)

    def test_non_unit_dataset_row_rejected(self, small_world):
        # rows are checked once, where the dataset enters, and the error names the row
        images = small_world.train_images.copy()
        images[70] *= 2.0
        with pytest.raises(ShapeError, match="dataset images row 70 has norm 2;"):
            train(small_config(steps=1), images, small_world.train_texts)
        texts = small_world.train_texts.copy()
        texts[191] = texts[0] * 0.5
        with pytest.raises(ShapeError, match="dataset texts row 191 has norm 0.5;"):
            train(small_config(steps=1), small_world.train_images, texts)
        with pytest.raises(ShapeError, match="dataset blocks disagree"):
            train(small_config(steps=1), images, small_world.train_texts[:-1])

    def test_non_finite_input_aborts_with_diagnostic(self, small_world):
        # a NaN norm fails no ">" test, so the check asks for "within 1e-5"
        images = small_world.train_images.copy()
        images[100, 0] = np.nan
        with pytest.raises(ShapeError, match="dataset images row 100 has norm nan;"):
            train(small_config(steps=1000), images, small_world.train_texts)
        texts = small_world.train_texts.copy()
        texts[37, 3] = -np.inf
        with pytest.raises(ShapeError, match="dataset texts row 37 has norm inf;"):
            train(small_config(steps=1000), small_world.train_images, texts)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts_with_diagnostic(self, small_world):
        cfg = small_config(learning_rate=1e30, warmup_steps=0)
        with pytest.raises(TrainingDivergedError, match="at step"):
            train(cfg, small_world.train_images, small_world.train_texts)


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
    # One step of the README's minimal config (d32, b64) records 36 tape
    # nodes: 8 per mapper, 5 per composition (slot matmul, template bias,
    # tanh, matmul, normalize), 1 per InfoNCE term, the gather of the
    # selected composed rows, the MSE, and 5 scales and adds that combine
    # the terms. Without selection the S-Set term reads the whole blocks and
    # needs no gather (35); without the S-Set term its InfoNCE and its
    # weighting scale go as well (33).
    sizes = []
    backward = training.ad.backward

    def counting_backward(loss, tape):
        sizes.append(len(tape))
        return backward(loss, tape)

    monkeypatch.setattr(training.ad, "backward", counting_backward)
    world_doc = {"n_train_pairs": 2048, "gallery_size": 256, "n_eval_queries": 64, "dim": 32}
    world = None
    for switches, nodes, n_s in (
        ({}, 36, None),
        ({"sset_select": False}, 35, 64),
        ({"use_sset": False}, 33, 0),
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
        result = train(run.train, world.train_images, world.train_texts)
        if n_s is None:
            assert result.metrics[0]["N_S"] > 0  # the S-Set term is on the tape
        else:
            assert result.metrics[0]["N_S"] == n_s
        assert sizes == [nodes], switches

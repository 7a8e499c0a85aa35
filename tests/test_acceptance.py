"""Acceptance gate: one test per criterion, each printing a pass line.

Criterion 6 pins the seeded end-to-end world (d=32, batch 64, 500 steps,
alpha=1, beta=2, lambda=0.5, sigma=0.01); its thresholds were frozen from the
first verified run of this suite.
"""

import json
import time

import numpy as np
import pytest

from cirmap import fileio
from cirmap.autodiff import Tape, Tensor, backward
from cirmap.cli import main
from cirmap.composer import PromptComposer
from cirmap.errors import FormatError
from cirmap.losses import BatchEmbeddings, LossWeights, loss_itcon, loss_sset, objective
from cirmap.mappers import Mappers, map_rows
from cirmap.mining import select_batch, selection_from_uncertainty
from cirmap.retrieval import Gallery, compose_query, evaluate_task, rank, ranking_metrics
from cirmap.training import TrainConfig, init_mappers, train
from cirmap.worldgen import WorldSpec, export_world, generate_world, load_task
from oracles import (
    brute_force_select,
    oracle,
    ref_pipeline_losses,
    ref_rank,
    rel_err,
    unit_rows,
)

LOSS_NAMES = ("ori", "itcon", "mse", "ts", "ss", "deg")


def test_criterion_1_gradient_fidelity():
    """Every objective passes central finite differences on mapper parameters."""
    started = time.monotonic()
    taus = (1.0, 0.1, 0.01)
    worst = {name: 0.0 for name in LOSS_NAMES}

    for case in range(100):
        rng = np.random.default_rng(1000 + case)
        d = int(rng.integers(4, 9))
        n = int(rng.integers(2, 5))
        h = int(rng.integers(4, 7))
        tau = taus[case % 3]
        alpha, beta = 1.0, 2.0

        composer = PromptComposer(d, 2000 + case)
        mappers = Mappers.seeded(d, h, (3000 + case, 4000 + case))
        pseudo, supplement = mappers.pseudo, mappers.supplement
        images = unit_rows(rng, n, d)
        texts = unit_rows(rng, n, d)
        sel_size = int(rng.integers(2, n + 1))
        selected = sorted(rng.choice(n, size=sel_size, replace=False).tolist())
        weights = LossWeights(alpha=alpha, beta=beta, tau=tau)

        with Tape() as tape:
            batch = BatchEmbeddings(
                images=Tensor(images),
                composed_pseudo=composer.compose_rows(
                    "photo_of", [map_rows(pseudo, Tensor(images))]
                ),
                composed_supplement=composer.compose_rows(
                    "photo_of", [map_rows(supplement, Tensor(texts))]
                ),
            )
            _, parts = objective(batch, selected, weights)
            losses = {name: parts[f"L_{name}"] for name in LOSS_NAMES}

        tape_grads = {}
        for name, loss in losses.items():
            grad_map = backward(loss, tape)
            parts = []
            for mapper in (pseudo, supplement):
                for tensor in mapper.values():
                    g = grad_map.get(tensor)
                    parts.append(
                        g.values.ravel() if g is not None else np.zeros(tensor.size)
                    )
            tape_grads[name] = np.concatenate(parts)

        # The oracle's weights: the composer from its seed, both mappers
        # split from the one flat vector that finite differences perturb.
        cw = oracle.composer_weights(d, 2000 + case)
        theta = mappers.flat.astype(np.float64)

        fd = {name: np.zeros(theta.size) for name in LOSS_NAMES}
        for i in range(theta.size):
            vals = {}
            for sign, offset in (("up", 1e-3), ("down", -1e-3)):
                vec = theta.copy()
                vec[i] += offset
                vals[sign] = ref_pipeline_losses(
                    images, texts, cw, oracle.split_mappers(vec, d, h), tau, alpha, beta, selected
                )
            for name in LOSS_NAMES:
                fd[name][i] = (vals["up"][name] - vals["down"][name]) / 2e-3

        for name in LOSS_NAMES:
            err = rel_err(tape_grads[name], fd[name])
            worst[name] = max(worst[name], err)
            assert err < 1e-3, f"case {case} loss {name}: relative error {err:.2e}"

    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"gradient fidelity took {elapsed:.1f}s"
    print(
        "[PASS] criterion 1: gradient fidelity < 1e-3 over 100 seeded cases "
        f"(worst per loss: {{{', '.join(f'{k}: {v:.1e}' for k, v in worst.items())}}}, "
        f"{elapsed:.1f}s)"
    )


def test_criterion_2_sset_oracle():
    """Subset selection matches an independent brute force, plus the hand case."""
    for seed in range(1000):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 7))
        d = int(rng.integers(2, 5))
        images, texts = unit_rows(rng, n, d), unit_rows(rng, n, d)
        sigma = float(rng.uniform(0.005, 0.5))
        lam = float(rng.uniform(-1.0, 1.0))
        ours = select_batch(images, texts, sigma, lam)
        ref = brute_force_select(images, texts, sigma, lam)
        assert ours.selected == ref["selected"], seed
        assert ours.mask_f.tolist() == ref["mask_f"], seed
        assert ours.mask_s.tolist() == ref["mask_s"], seed

    # hand case: similarities and a caption pair at cosine 0.7
    sims = np.array([[0.9, 0.2, 0.1], [0.6, 0.5, 0.3], [0.1, 0.2, 0.4]])
    z = sims / 0.01
    z -= z.max(axis=1, keepdims=True)
    u = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    texts = np.array(
        [[1.0, 0.0, 0.0], [0.7, np.sqrt(0.51), 0.0], [0.0, 0.0, 1.0]]
    )
    sel = selection_from_uncertainty(u, texts, 0.5)
    assert sel.selected == [1]
    print("[PASS] criterion 2: selection matches brute force on 1000 batches; hand case -> [1]")


def test_criterion_3_ablation_identities(tmp_path):
    """beta=0 == no-subset bit-identical; full batch == itcon; alpha=0 drops mse."""
    spec = WorldSpec(
        n_train_pairs=192, gallery_size=48, n_eval_queries=12, dim=16, seed=23, composer_seed=23
    )
    world = generate_world(spec)
    composer = PromptComposer(16, 23)

    def cfg(**kw):
        base = dict(batch_size=32, steps=10, hidden=32, seed=23, warmup_steps=4)
        base.update(kw)
        return TrainConfig(**base)

    beta_zero = train(cfg(beta=0.0), world.train_images, world.train_texts, composer)
    no_sset = train(cfg(use_sset=False), world.train_images, world.train_texts, composer)
    for weights_a, weights_b in (
        (beta_zero.mappers.pseudo, no_sset.mappers.pseudo),
        (beta_zero.mappers.supplement, no_sset.mappers.supplement),
    ):
        for (name, t_a), (_, t_b) in zip(weights_a.items(), weights_b.items()):
            assert t_a.values.tobytes() == t_b.values.tobytes(), name

    rng = np.random.default_rng(0)
    for _ in range(20):
        n, d = 6, 8
        batch = BatchEmbeddings(
            Tensor(unit_rows(rng, n, d)),
            Tensor(unit_rows(rng, n, d)),
            Tensor(unit_rows(rng, n, d)),
        )
        full = range(n)
        assert abs(loss_sset(batch, full, 0.01).item() - loss_itcon(batch, 0.01).item()) < 1e-6

    alpha_zero = train(cfg(alpha=0.0), world.train_images, world.train_texts, composer)
    for row in alpha_zero.metrics:
        assert row["L_ts"] == row["L_itcon"]
        recomputed = row["L_ori"] + row["L_ts"] + 2.0 * row["L_ss"]
        assert abs(row["L_deg"] - recomputed) < 1e-5 * max(1.0, abs(recomputed))
    print("[PASS] criterion 3: ablation identities (beta=0 bitwise, full-batch subset, alpha=0)")


def test_criterion_4_metric_oracles():
    """Hand-computed metric fixtures plus 1000-case brute-force agreement."""
    # Row 0 (and row 1 where two targets) are the targets; rows 2.. are fillers.
    fillers = list(range(2, 14))

    def metrics(ranked, targets, k_values):
        targets = [np.array(t, np.intp) for t in targets]
        return ranking_metrics(np.array(ranked, np.intp), targets, ["recall", "map"], k_values)

    three = [
        [0] + fillers[:9],
        fillers[:2] + [0] + fillers[2:9],
        fillers[:6] + [0] + fillers[6:9],
    ]
    assert metrics(three, [[0]] * 3, [5])["recall@5"] == pytest.approx(2.0 / 3.0)

    two = [[0, 2, 1, 3, 4]]
    assert metrics(two, [[0, 1]], [5])["map@5"] == pytest.approx(5.0 / 6.0)

    for seed in range(1000):
        rng = np.random.default_rng(50_000 + seed)
        n = int(rng.integers(4, 33))
        d = int(rng.integers(2, 7))
        ids = [f"i{j:03d}" for j in range(n)]
        gallery = Gallery(ids, unit_rows(rng, n, d))
        n_queries = int(rng.integers(1, 4))
        targets = [
            np.sort(rng.choice(n, size=int(rng.integers(1, 4)), replace=False))
            for _ in range(n_queries)
        ]
        queries = np.stack(
            [unit_rows(np.random.default_rng(seed * 10 + qi), 2, d)[0] for qi in range(n_queries)]
        ).astype(np.float32)
        rows, _ = rank(gallery, queries, n)
        ranked_ids = [gallery.ids[r] for r in rows]
        target_sets = [set(gallery.ids[t]) for t in targets]
        assert ranked_ids[0] == [i for i, _ in ref_rank(gallery, queries[0], n)]
        ours = ranking_metrics(rows, targets, ["recall", "map"], [1, 5, n])
        for k in (1, 5, n):
            assert abs(ours[f"recall@{k}"] - oracle.recall_at_k(ranked_ids, target_sets, k)) < 1e-9
            assert abs(ours[f"map@{k}"] - oracle.map_at_k(ranked_ids, target_sets, k)) < 1e-9
    print("[PASS] criterion 4: metric hand fixtures (2/3, 5/6) and 1000-case oracle agreement")


def test_criterion_5_gamma_boundaries(tmp_path):
    """gamma=1 ignores the supplement mapper, gamma=0 ignores the pseudo mapper."""
    spec = WorldSpec(
        n_train_pairs=128, gallery_size=48, n_eval_queries=12, dim=16, seed=29, composer_seed=29
    )
    export_world(generate_world(spec), tmp_path / "data", ["recall", "map"], [1, 5, 10])
    task, _ = load_task(tmp_path / "data")
    composer = PromptComposer(16, 29)

    def fresh(seed):
        cfg = TrainConfig(hidden=32, seed=seed, batch_size=8, steps=1)
        return init_mappers(cfg, 16)

    base = fresh(1)
    swapped_supplement = Mappers.seeded(16, 32, (base.seeds[0], fresh(2).seeds[1]))
    swapped_pseudo = Mappers.seeded(16, 32, (fresh(3).seeds[0], base.seeds[1]))

    def ranked(mappers, gamma):
        rows = compose_query(task.reference_rows, task.condition_rows, mappers, composer, gamma)
        return rank(task.gallery, rows, 10)

    for gamma, swapped in ((1.0, swapped_supplement), (0.0, swapped_pseudo)):
        (rows_a, scores_a), (rows_b, scores_b) = ranked(base, gamma), ranked(swapped, gamma)
        assert rows_a.tobytes() == rows_b.tobytes()
        assert scores_a.tobytes() == scores_b.tobytes()

    # the shipped mixing defaults load from config files and echo back
    from cirmap import config as cfg_mod

    for gamma in (0.6, 0.7, 1.0):
        path = tmp_path / f"g{gamma}.json"
        path.write_text(json.dumps({"seed": 1, "eval": {"gamma": gamma}}))
        run = cfg_mod.load_config(path)
        assert run.eval.gamma == gamma
        echo = tmp_path / f"echo{gamma}.json"
        cfg_mod.echo_config(run, echo)
        assert json.loads(echo.read_text())["eval"]["gamma"] == gamma
    print("[PASS] criterion 5: gamma boundary invariances bit-identical; 0.6/0.7/1.0 echoed")


@pytest.fixture(scope="module")
def end_to_end_run():
    spec = WorldSpec(seed=2024, composer_seed=2024)
    world = generate_world(spec)
    config = TrainConfig(seed=2024)
    assert config.batch_size == 64 and config.steps == 500 and spec.dim == 32
    assert (config.alpha, config.beta, config.lam, config.sigma) == (1.0, 2.0, 0.5, 0.01)
    started = time.monotonic()
    composer = PromptComposer(spec.dim, spec.composer_seed)
    result = train(config, world.train_images, world.train_texts, composer)
    elapsed = time.monotonic() - started
    return world, result, elapsed


def test_criterion_6a_loss_halves(end_to_end_run):
    _, result, elapsed = end_to_end_run
    first, last = result.metrics[0]["L_deg"], result.metrics[-1]["L_deg"]
    assert last < 0.5 * first, f"L_deg {first:.3f} -> {last:.3f}"
    assert elapsed < 300.0
    print(
        f"[PASS] criterion 6a: L_deg {first:.3f} -> {last:.3f} "
        f"({last / first:.1%} of start, {elapsed:.1f}s train)"
    )


def test_criterion_6b_beats_baselines(end_to_end_run, tmp_path):
    world, result, _ = end_to_end_run
    export_world(world, tmp_path, ["recall", "map"], [1, 5, 10])
    task, _ = load_task(tmp_path)
    composer = PromptComposer(world.spec.dim, world.spec.composer_seed)
    composed = evaluate_task(task, result.mappers, composer, 0.6, mode="composed")
    image_only = evaluate_task(task, None, None, 0.6, mode="image_only")
    text_only = evaluate_task(task, None, None, 0.6, mode="text_only")
    r_c = composed["metrics"]["recall@1"]
    r_i = image_only["metrics"]["recall@1"]
    r_t = text_only["metrics"]["recall@1"]
    assert r_c > r_i, f"composed {r_c} vs image-only {r_i}"
    assert r_c > r_t, f"composed {r_c} vs text-only {r_t}"
    # golden floor frozen from the first verified run (composed R@1 = 0.125)
    assert r_c >= 0.05
    print(
        f"[PASS] criterion 6b: composed R@1 {r_c:.3f} beats image-only {r_i:.3f} "
        f"and text-only {r_t:.3f}"
    )


def test_criterion_7_pipeline_determinism(tmp_path):
    """Two full gen-data -> train -> evaluate runs are byte-identical."""
    artifacts = []
    for sub in ("a", "b"):
        base = tmp_path / sub
        base.mkdir()
        config_path = base / "config.json"
        config_path.write_text(
            json.dumps(
                {
                    "seed": 41,
                    "world": {
                        "n_train_pairs": 192,
                        "gallery_size": 48,
                        "n_eval_queries": 12,
                        "dim": 16,
                    },
                    "train": {"batch_size": 32, "steps": 25, "warmup_steps": 5, "hidden": 32},
                    "eval": {"k_values": [1, 5]},
                    "paths": {"data_dir": str(base / "data"), "run_dir": str(base / "run")},
                }
            )
        )
        assert main(["gen-data", "--config", str(config_path)]) == 0
        assert main(["train", "--config", str(config_path)]) == 0
        report = base / "run" / "report.json"
        assert (
            main(
                [
                    "evaluate",
                    "--config",
                    str(config_path),
                    "--checkpoint",
                    str(base / "run" / "checkpoint"),
                    "--out",
                    str(report),
                ]
            )
            == 0
        )
        artifacts.append(
            (
                (base / "run" / "checkpoint.emb").read_bytes(),
                (base / "run" / "checkpoint.json").read_bytes(),
                report.read_bytes(),
            )
        )
    assert artifacts[0] == artifacts[1]
    print("[PASS] criterion 7: byte-identical checkpoints and reports across two full runs")


def test_criterion_8_format_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    matrix = rng.standard_normal((9, 6)).astype(np.float32)
    ids = [f"e{i}" for i in range(9)]
    path = tmp_path / "vectors.emb"
    fileio.write_embeddings(path, matrix, ids)
    loaded, loaded_ids = fileio.read_embeddings(path)
    assert loaded.tobytes() == matrix.tobytes() and loaded_ids == ids

    corrupted = bytearray(path.read_bytes())
    corrupted[:4] = b"WRNG"
    path.write_bytes(bytes(corrupted))
    with pytest.raises(FormatError) as err:
        fileio.read_embeddings(path)
    assert str(path) in str(err.value)
    print("[PASS] criterion 8: embedding files round-trip bit-exactly; bad magic rejected")

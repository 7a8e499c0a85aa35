import json
from dataclasses import asdict

import numpy as np
import pytest

from cirmap import worldgen
from cirmap.errors import InconsistentSpecError
from cirmap.mining import select_batch
from cirmap.worldgen import (
    WorldSpec,
    _sample_separated_tuples,
    export_world,
    generate_world,
    load_task,
    load_train_pairs,
)
from oracles import ref_sample_separated_tuples


@pytest.fixture(scope="module")
def world():
    spec = WorldSpec(
        n_train_pairs=256,
        gallery_size=96,
        n_eval_queries=24,
        dim=16,
        seed=31,
        composer_seed=31,
    )
    return generate_world(spec)


def test_spec_validation():
    with pytest.raises(InconsistentSpecError):
        WorldSpec(n_attributes=1)
    with pytest.raises(InconsistentSpecError):
        WorldSpec(gallery_size=4, n_eval_queries=10)
    with pytest.raises(InconsistentSpecError):
        WorldSpec(noise_scale=-0.1)
    with pytest.raises(InconsistentSpecError):
        WorldSpec(caption_style="fancy")


def test_deterministic_generation(world):
    again = generate_world(world.spec)
    assert np.array_equal(world.train_images, again.train_images)
    assert np.array_equal(world.train_texts, again.train_texts)
    assert np.array_equal(world.gallery_vectors, again.gallery_vectors)
    assert world.query_records == again.query_records


def test_embeddings_unit_norm(world):
    for block in (world.train_images, world.train_texts, world.gallery_vectors,
                  world.condition_vectors):
        norms = np.linalg.norm(block.astype(np.float64), axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-5


def test_every_query_has_target_in_gallery(world):
    ids = set(world.gallery_ids)
    for rec in world.query_records:
        assert rec["target_ids"], rec["query_id"]
        assert set(rec["target_ids"]) <= ids
        assert rec["reference_id"] in ids
        # the reference never satisfies the edit, so it is never a target
        assert rec["reference_id"] not in rec["target_ids"]


def test_targets_match_edited_tuples(world):
    row_of = {i: r for r, i in enumerate(world.gallery_ids)}
    for rec in world.query_records:
        edited = np.array(rec["edited_tuple"])
        matches = {
            world.gallery_ids[r]
            for r in range(len(world.gallery_ids))
            if np.array_equal(world.gallery_tuples[r], edited)
        }
        assert set(rec["target_ids"]) == matches


def test_zero_noise_duplicate_tuples_identical():
    spec = WorldSpec(
        n_attributes=2,
        n_values_per_attribute=2,
        noise_scale=0.0,
        n_train_pairs=4,
        gallery_size=32,
        n_eval_queries=4,
        caption_collision_rate=0.0,
        seed=6,
        composer_seed=6,
        dim=16,
    )
    w = generate_world(spec)
    tuples = w.gallery_tuples
    found = False
    for i in range(len(tuples)):
        for j in range(i + 1, len(tuples)):
            if np.array_equal(tuples[i], tuples[j]):
                assert np.array_equal(w.gallery_vectors[i], w.gallery_vectors[j])
                found = True
    assert found


def test_perfect_oracle_retriever_hits_every_query(world):
    # ranking gallery items by exact edited-tuple match gives R@1 = 1
    hits = 0
    for rec in world.query_records:
        edited = np.array(rec["edited_tuple"])
        match_rows = [
            r
            for r in range(len(world.gallery_ids))
            if np.array_equal(world.gallery_tuples[r], edited)
        ]
        top = world.gallery_ids[match_rows[0]]
        hits += top in set(rec["target_ids"])
    assert hits == len(world.query_records)


def test_selection_fires_with_collisions():
    # at the default collision rate, most size-64 batches select something
    spec = WorldSpec(seed=5, composer_seed=5, n_train_pairs=6400)
    w = generate_world(spec)
    rng = np.random.default_rng(123)
    batches_hit = 0
    for _ in range(100):
        rows = rng.permutation(spec.n_train_pairs)[:64]
        sel = select_batch(w.train_images[rows], w.train_texts[rows], 0.01, 0.5)
        batches_hit += sel.count >= 1
    assert batches_hit >= 30


def test_selection_empty_without_collisions_when_separated():
    # disjoint tuples, no collisions: nothing is confusable
    spec = WorldSpec(
        seed=5,
        composer_seed=5,
        dim=64,
        n_train_pairs=64,
        n_attributes=3,
        n_values_per_attribute=128,
        caption_collision_rate=0.0,
        train_min_hamming=3,
        gallery_size=64,
        n_eval_queries=16,
        caption_style="linear",
    )
    w = generate_world(spec)
    rng = np.random.default_rng(9)
    for _ in range(100):
        rows = rng.permutation(64)[:32]
        sel = select_batch(w.train_images[rows], w.train_texts[rows], 0.01, 0.5)
        assert sel.selected == []


def test_train_tuples_respect_min_hamming():
    spec = WorldSpec(
        seed=8,
        composer_seed=8,
        n_train_pairs=64,
        n_attributes=4,
        n_values_per_attribute=12,
        train_min_hamming=2,
        gallery_size=32,
        n_eval_queries=8,
    )
    w = generate_world(spec)
    t = w.train_tuples
    for i in range(len(t)):
        dist = np.sum(t[i] != t, axis=1)
        dist[i] = 99
        assert dist.min() >= 2


@pytest.mark.parametrize("min_hamming", [1, 2, 3])
def test_tuple_sampler_matches_scan_reference(min_hamming):
    # Small spaces make repeats and rejections frequent. At min Hamming 1 up
    # to the whole space is drawn; at 2 or more a few dozen tuples, as the
    # scan is quadratic. Infeasible draws must fail in both samplers.
    feasible = 0
    for seed in range(30):
        pick = np.random.default_rng(seed)
        n_attr, n_values = int(pick.integers(2, 7)), int(pick.integers(2, 7))
        limit = min(700, n_values**n_attr) if min_hamming == 1 else 40
        n = int(pick.integers(1, limit + 1))
        outcomes = []
        for sampler in (_sample_separated_tuples, ref_sample_separated_tuples):
            rng = np.random.default_rng([seed, 1])
            try:
                outcomes.append(sampler(rng, n, n_attr, n_values, min_hamming).tobytes())
            except InconsistentSpecError:
                outcomes.append("infeasible")
        assert outcomes[0] == outcomes[1], (seed, n, n_attr, n_values)
        feasible += outcomes[0] != "infeasible"
    assert feasible >= 10
    with pytest.raises(InconsistentSpecError):  # five tuples in a space of four
        _sample_separated_tuples(np.random.default_rng(0), 5, 2, 2, min_hamming)


def test_infeasible_separation_rejected():
    with pytest.raises(InconsistentSpecError):
        generate_world(
            WorldSpec(
                n_train_pairs=256,
                n_attributes=2,
                n_values_per_attribute=3,
                train_min_hamming=2,
                gallery_size=16,
                n_eval_queries=4,
            )
        )


def test_export_import_round_trip(tmp_path, world):
    export_world(world, tmp_path, gamma=0.6)
    images, texts = load_train_pairs(tmp_path)
    assert images.tobytes() == world.train_images.tobytes()
    assert texts.tobytes() == world.train_texts.tobytes()

    task, doc = load_task(tmp_path)
    assert doc["composer_seed"] == world.spec.composer_seed
    assert task.gallery.vectors.tobytes() == world.gallery_vectors.tobytes()
    assert len(task.queries) == len(world.query_records)
    by_id = {q.query_id: q for q in task.queries}
    for rec in world.query_records:
        q = by_id[rec["query_id"]]
        assert q.reference_id == rec["reference_id"]
        assert q.target_ids == frozenset(rec["target_ids"])


def test_eval_task_construction(tmp_path, world):
    export_world(world, tmp_path, k_values=[1, 5], gamma=0.7)
    task, _ = load_task(tmp_path)
    assert task.gamma == 0.7 and task.k_values == [1, 5]
    assert len(task.queries) == 24
    gallery_row = {i: r for r, i in enumerate(world.gallery_ids)}
    condition_row = {i: r for r, i in enumerate(world.condition_ids)}
    for q in task.queries:
        assert abs(np.linalg.norm(q.reference_emb.astype(np.float64)) - 1.0) < 1e-5
        reference = world.gallery_vectors[gallery_row[q.reference_id]]
        assert q.reference_emb.tobytes() == reference.tobytes()
        condition = world.condition_vectors[condition_row[q.condition_id]]
        assert q.condition_emb.tobytes() == condition.tobytes()


def _world_fields(world):
    return {
        name: value.tobytes() if isinstance(value, np.ndarray) else value
        for name, value in vars(world).items()
    }


# Two attribute values over 65 attributes: tuple codes wrap past 64 bits, so
# a flip of attribute 0 keeps the code, and no edit is in the drawn gallery,
# so every query inserts its target.
WRAPPED = dict(n_attributes=65, n_values_per_attribute=2, n_train_pairs=64, seed=3)


@pytest.mark.parametrize("caption_style", ["encoded", "linear"])
@pytest.mark.parametrize("extra", [{}, WRAPPED], ids=["default", "wrapped"])
def test_gallery_blocks_match_one_block(monkeypatch, caption_style, extra):
    spec = WorldSpec(
        **{"n_train_pairs": 128, **extra},
        gallery_size=100,
        n_eval_queries=24,
        dim=16,
        caption_style=caption_style,
    )
    whole = generate_world(spec)
    monkeypatch.setattr(worldgen, "_GALLERY_BLOCK_ROWS", 7)
    assert _world_fields(generate_world(spec)) == _world_fields(whole)


def test_wrapped_tuple_codes_are_confirmed():
    world = generate_world(WorldSpec(**WRAPPED, gallery_size=100, n_eval_queries=24, dim=16))
    assert any(rec["attribute"] == 0 for rec in world.query_records)
    for rec in world.query_records:
        matches = np.all(world.gallery_tuples == rec["edited_tuple"], axis=1)
        assert rec["target_ids"] == [world.gallery_ids[r] for r in np.flatnonzero(matches)]
        assert rec["reference_id"] not in rec["target_ids"]


def test_world_meta_is_one_compact_line(tmp_path, world):
    export_world(world, tmp_path)
    text = (tmp_path / "world_meta.json").read_text()
    meta = json.loads(text)
    # one line, sorted keys, no spaces after separators
    assert text == json.dumps(meta, sort_keys=True, separators=(",", ":")) + "\n"
    assert meta["spec"] == asdict(world.spec)
    assert meta["composer_hash"] == world.composer_hash
    assert meta["gallery_tuples"] == world.gallery_tuples.tolist()
    assert meta["query_records"] == world.query_records

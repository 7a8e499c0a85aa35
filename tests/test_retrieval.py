import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cirmap.retrieval as retrieval
from cirmap import fileio
from cirmap.composer import PromptComposer
from cirmap.errors import ParameterError, ShapeError
from cirmap.mappers import Mappers
from cirmap.retrieval import (
    EvalTask,
    Gallery,
    baseline_compose,
    compose_query,
    evaluate_task,
    rank,
    ranking_metrics,
)
from cirmap.training import TrainConfig, init_mappers
from oracles import (
    brute_force_map,
    brute_force_rank,
    brute_force_recall,
    ranked_items,
    ref_rank,
    unit_rows,
)


def query_rows(rng, d=8):
    """A reference and a condition unit row, each as a float32 [1 x d] block."""
    ref, cond = unit_rows(rng, 2, d).astype(np.float32)
    return ref[None], cond[None]


def top(gallery, queries, k):
    """rank's result as one (id, score) list per query."""
    return ranked_items(gallery, *rank(gallery, queries, k))


def make_task(gallery, reference_rows, condition_rows, targets, **settings):
    """An EvalTask over the given [Q x d] blocks and target gallery rows."""
    names = [f"q{j}" for j in range(len(targets))]
    return EvalTask(
        gallery=gallery,
        query_ids=names,
        reference_ids=[f"r{j}" for j in range(len(targets))],
        condition_ids=[f"c{j}" for j in range(len(targets))],
        reference_rows=np.asarray(reference_rows, dtype=np.float32),
        condition_rows=np.asarray(condition_rows, dtype=np.float32),
        targets=[np.unique(np.asarray(t, dtype=np.intp)) for t in targets],
        **settings,
    )


@pytest.fixture(scope="module")
def setup16():
    cfg = TrainConfig(hidden=32, seed=3, batch_size=4, steps=1)
    return init_mappers(cfg, 16), PromptComposer(16, 3)


class TestComposeQuery:
    def test_gamma_range_checked(self, setup16):
        mappers, composer = setup16
        query = query_rows(np.random.default_rng(0), d=16)
        for bad in (-0.1, 1.1):
            with pytest.raises(ParameterError):
                compose_query(*query, mappers, composer, bad)

    def test_output_unit_norm(self, setup16):
        mappers, composer = setup16
        query = query_rows(np.random.default_rng(1), d=16)
        for gamma in (0.0, 0.5, 1.0):
            vec = compose_query(*query, mappers, composer, gamma)[0]
            assert abs(np.linalg.norm(vec.astype(np.float64)) - 1.0) < 1e-6

    def test_gamma_one_ignores_supplement_mapper(self, setup16):
        mappers, composer = setup16
        query = query_rows(np.random.default_rng(2), d=16)
        base = compose_query(*query, mappers, composer, 1.0)
        reinit = TrainConfig(hidden=32, seed=999, batch_size=4, steps=1)
        other = init_mappers(reinit, 16)
        swapped = Mappers.seeded(16, 32, (mappers.seeds[0], other.seeds[1]))
        again = compose_query(*query, swapped, composer, 1.0)
        assert np.array_equal(base, again)

    def test_gamma_zero_ignores_pseudo_mapper(self, setup16):
        mappers, composer = setup16
        query = query_rows(np.random.default_rng(3), d=16)
        base = compose_query(*query, mappers, composer, 0.0)
        reinit = TrainConfig(hidden=32, seed=777, batch_size=4, steps=1)
        other = init_mappers(reinit, 16)
        swapped = Mappers.seeded(16, 32, (other.seeds[0], mappers.seeds[1]))
        again = compose_query(*query, swapped, composer, 0.0)
        assert np.array_equal(base, again)


class TestBaselines:
    def test_image_only(self):
        ref, cond = query_rows(np.random.default_rng(4))
        assert np.array_equal(baseline_compose(ref, cond, "image_only"), ref)

    def test_text_only(self):
        ref, cond = query_rows(np.random.default_rng(5))
        assert np.array_equal(baseline_compose(ref, cond, "text_only"), cond)

    def test_average_normalized(self):
        ref, cond = query_rows(np.random.default_rng(6))
        out = baseline_compose(ref, cond, "average")[0]
        expected = ref[0].astype(np.float64) + cond[0].astype(np.float64)
        expected /= np.linalg.norm(expected)
        assert np.allclose(out, expected, atol=1e-6)

    def test_unknown_mode(self):
        with pytest.raises(ParameterError):
            baseline_compose(*query_rows(np.random.default_rng(7)), "mystery")


class TestRank:
    def _gallery(self):
        vecs = np.array(
            [
                [1.0, 0.0, 0.0],
                [0.8, 0.6, 0.0],
                [0.0, 1.0, 0.0],
                [0.0, 0.0, 1.0],
                [-1.0, 0.0, 0.0],
            ],
            dtype=np.float32,
        )
        return Gallery([f"g{i}" for i in range(5)], vecs)

    def test_self_retrieval_first(self):
        g = self._gallery()
        rows, scores = rank(g, np.array([[0.8, 0.6, 0.0]], dtype=np.float32), 3)
        assert rows[0, 0] == 1
        assert scores[0, 0] == pytest.approx(1.0, abs=1e-6)

    def test_k_larger_than_gallery(self):
        g = self._gallery()
        queries = np.eye(3, dtype=np.float32)[[0, 1, 2, 0]]
        for k, width in ((1, 1), (3, 3), (5, 5), (99, 5)):
            rows, scores = rank(g, queries, k)
            assert rows.shape == scores.shape == (4, width)
            assert rows.dtype == np.intp and scores.dtype == np.float64
        assert rows[0].tolist() == [0, 1, 2, 3, 4]

    def test_hand_gallery_matches_brute_force(self):
        g = self._gallery()
        q = np.array([0.6, 0.0, 0.8], dtype=np.float32)
        ours = top(g, q[None], 5)[0]
        ref = brute_force_rank(g.ids, g.vectors, q, 5)
        assert [i for i, _ in ours] == [i for i, _ in ref]

    def test_tie_break_ascending_id(self):
        vecs = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]], dtype=np.float32)
        g = Gallery(["b", "a", "c"], vecs)
        rows, _ = rank(g, np.array([[1.0, 0.0]], dtype=np.float32), 3)
        assert rows[0].tolist() == [1, 0, 2]

    def test_ties_use_exact_ids_with_trailing_nul(self):
        vecs = np.array([[1.0, 0.0], [0.6, 0.8], [1.0, 0.0]], dtype=np.float32)
        g = Gallery(["a\x00", "b", "a"], vecs)
        q = np.array([1.0, 0.0], dtype=np.float32)
        rows, scores = rank(g, q[None], 3)
        assert rows[0].tolist() == [2, 0, 1]
        assert ranked_items(g, rows, scores)[0] == ref_rank(g, q, 3)

    def test_oracle_equivalence_seeded_suite(self):
        # 1000 random galleries, full ordering equality with the loop oracle
        for seed in range(1000):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 65))
            d = int(rng.integers(2, 9))
            g = Gallery([f"i{j:03d}" for j in range(n)], unit_rows(rng, n, d))
            q = unit_rows(rng, 1, d)[0]
            k = int(rng.integers(1, n + 1))
            ours = top(g, q[None], k)[0]
            ref = brute_force_rank(g.ids, g.vectors, q, k)
            assert [i for i, _ in ours] == [i for i, _ in ref], seed

    def test_scores_non_increasing(self):
        rng = np.random.default_rng(9)
        g = Gallery([f"i{j}" for j in range(20)], unit_rows(rng, 20, 6))
        _, scores = rank(g, unit_rows(rng, 1, 6), 20)
        assert (scores[0, :-1] >= scores[0, 1:]).all()


def tied_gallery(rng, n, d):
    """Random rows, a third of them overwritten by copies of two rows.

    The copies score equally against any query, so equal scores fall on both
    sides of the k-th place for many k. Ids are shuffled so that id order and
    row order differ.
    """
    vecs = unit_rows(rng, n, d).astype(np.float32)
    copies = rng.choice(n, size=max(1, n // 3), replace=False)
    vecs[copies] = vecs[rng.choice(n, size=2)][rng.integers(0, 2, size=copies.size)]
    return Gallery([f"i{j:03d}" for j in rng.permutation(n)], vecs)


class TestBatchedRank:
    @pytest.mark.parametrize("n_queries", [1, 5])
    def test_equals_reference_ranker_with_ties(self, n_queries):
        straddled = 0
        for seed in range(150):
            rng = np.random.default_rng(40_000 + seed)
            n = int(rng.integers(2, 40))
            d = int(rng.integers(2, 6))
            g = tied_gallery(rng, n, d)
            # half the queries are gallery rows, so the copies can also rank first
            picks = g.vectors[rng.integers(0, n, size=n_queries)]
            queries = np.where(
                rng.random((n_queries, 1)) < 0.5, picks, unit_rows(rng, n_queries, d)
            ).astype(np.float32)
            for k in (1, n - 1, n, n + 3):
                ours = top(g, queries, k)
                assert len(ours) == n_queries
                for q, items in zip(queries, ours):
                    assert items == ref_rank(g, q, k), (seed, k)
                    full = [s for _, s in ref_rank(g, q, n)]
                    straddled += k < n and full[k - 1] == full[k]
        assert straddled >= 50

    def test_query_block_must_be_two_dimensional(self):
        rng = np.random.default_rng(24)
        g = Gallery(["a", "b"], unit_rows(rng, 2, 3))
        with pytest.raises(ShapeError):
            rank(g, unit_rows(rng, 1, 3)[0], 1)
        with pytest.raises(ShapeError):
            rank(g, unit_rows(rng, 1, 4), 1)

    def test_non_finite_scores_rank_as_the_reference_does(self):
        g = Gallery(
            ["d", "c", "b", "a"],
            np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.5, 0.5]], dtype=np.float32),
        )
        queries = np.array([[np.nan, 1.0], [np.inf, 0.0], [1.0, 0.0]], dtype=np.float32)
        with np.errstate(invalid="ignore"):
            for k in (1, 2, 3, 4):
                for q, items in zip(queries, top(g, queries, k)):
                    assert str(items) == str(ref_rank(g, q, k))


_values = st.one_of(
    st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]),
    st.floats(-1.0, 1.0, width=32),
)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_rank_equals_reference_property(data):
    n = data.draw(st.integers(1, 24), label="n")
    d = data.draw(st.integers(1, 4), label="d")
    q_count = data.draw(st.integers(1, 4), label="queries")
    row = st.lists(_values, min_size=d, max_size=d)
    vecs = np.array([data.draw(row) for _ in range(n + q_count)], dtype=np.float32)
    ids = data.draw(st.lists(st.text(max_size=3), min_size=n, max_size=n, unique=True))
    k = data.draw(st.integers(1, n + 3), label="k")
    g = Gallery(ids, vecs[:n])
    queries = vecs[n:]
    for q, items in zip(queries, top(g, queries, k)):
        assert items == ref_rank(g, q, k)


def blocked_top(gallery, queries, k, block_rows):
    """top with the GEMM run over blocks of ``block_rows`` gallery rows."""
    with mock.patch.object(retrieval, "_SCORE_BLOCK_ROWS", block_rows):
        return top(gallery, queries, k)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_rank_equals_per_row_brute_force_property(data):
    # Every row scored on its own in float64, over sizes, widths, scales and
    # block sizes; copied rows and queries taken from the gallery make ties.
    n = data.draw(st.integers(1, 300), label="n")
    d = data.draw(st.integers(1, 300), label="d")
    q_count = data.draw(st.integers(1, 5), label="queries")
    k = data.draw(st.integers(1, n + 2), label="k")
    block = data.draw(st.sampled_from([1, 7, 64, 8192]), label="block rows")
    g_scale = data.draw(st.sampled_from([1e-20, 1.0, 1e20]), label="gallery scale")
    q_scale = data.draw(st.sampled_from([1e-30, 1e-3, 1.0, 1e3, 1e30, 1e40]), label="query scale")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    vecs = (unit_rows(rng, n, d) * g_scale).astype(np.float32)
    vecs[rng.integers(0, n, size=n // 4)] = vecs[rng.integers(0, n)]
    g = Gallery([f"i{j:03d}" for j in rng.permutation(n)], vecs)
    picks = unit_rows(rng, q_count, d)
    picks[: q_count // 2] = vecs[rng.integers(0, n, size=q_count // 2)] / g_scale
    queries = picks * q_scale
    if data.draw(st.booleans(), label="float32 queries"):
        with np.errstate(over="ignore"):
            queries = queries.astype(np.float32)
    with np.errstate(over="ignore", invalid="ignore"):
        results = blocked_top(g, queries, k, block)
        for q, items in zip(queries, results):
            assert str(items) == str(ref_rank(g, q, k))


@pytest.mark.parametrize("seed", range(4))
def test_result_does_not_depend_on_batch_or_block_size(seed):
    rng = np.random.default_rng(300 + seed)
    g = tied_gallery(rng, 3000, 16)
    queries = np.concatenate([g.vectors[:3], unit_rows(rng, 6, 16)]).astype(np.float32)
    whole = top(g, queries, 10)
    for block in (1, 5, 999, 4096):
        assert blocked_top(g, queries, 10, block) == whole
    assert top(g, queries[::-1], 10) == whole[::-1]
    for j in range(len(queries)):
        assert top(g, queries[j : j + 1], 10) == [whole[j]]


def test_identical_rows_score_equally_and_rank_by_id():
    # Copies of one row, one of them in the last rows of the gallery, get
    # bitwise-equal scores and sit together in ascending id order.
    for seed in range(200):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 64))
        vecs = unit_rows(rng, n, 32).astype(np.float32)
        copies = np.append(rng.choice(n - 1, size=3, replace=False), n - 1)
        vecs[copies] = vecs[copies[0]]
        g = Gallery([f"i{j:03d}" for j in rng.permutation(n)], vecs)
        items = top(g, unit_rows(rng, 1, 32).astype(np.float32), n)[0]
        copy_ids = {g.ids[i] for i in copies}
        at = [p for p, (i, _) in enumerate(items) if i in copy_ids]
        assert len({items[p][1] for p in at}) == 1, seed
        assert at == list(range(at[0], at[0] + len(at))), seed
        assert [items[p][0] for p in at] == sorted(copy_ids), seed


def test_nan_rows_rank_last_by_id_and_leave_the_batch_alone():
    rng = np.random.default_rng(31)
    vecs = unit_rows(rng, 2000, 8).astype(np.float32)
    vecs[[5, 1500]] = np.nan
    g = Gallery([f"i{j:04d}" for j in rng.permutation(2000)], vecs)
    queries = unit_rows(rng, 3, 8).astype(np.float32)
    queries[1, 2] = np.nan
    with np.errstate(invalid="ignore"):
        results = blocked_top(g, queries, 2000, 256)
        for q, items in zip(queries, results):
            assert str(items) == str(ref_rank(g, q, 2000))
    assert [i for i, _ in results[1]] == sorted(g.ids)
    assert all(np.isnan(s) for _, s in results[1])
    assert [i for i, _ in results[0][-2:]] == sorted([g.ids[5], g.ids[1500]])


_THREADS_SCRIPT = """
import json
import numpy as np
from cirmap.retrieval import Gallery, rank
rng = np.random.default_rng(44)
vecs = rng.standard_normal((40000, 32)).astype(np.float32)
queries = rng.standard_normal((16, 32)).astype(np.float32)
rows, scores = rank(Gallery([f"i{j:05d}" for j in range(40000)], vecs), queries, 10)
print(json.dumps([[[r, repr(s)] for r, s in zip(*q)] for q in zip(rows.tolist(), scores.tolist())]))
"""


def test_rankings_do_not_depend_on_blas_threads():
    src = str(Path(retrieval.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", _THREADS_SCRIPT],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )  # fmt: skip
        outputs.append(json.loads(proc.stdout))
    assert outputs[0] == outputs[1]
    rng = np.random.default_rng(44)
    vecs = rng.standard_normal((40000, 32)).astype(np.float32)
    queries = rng.standard_normal((16, 32)).astype(np.float32)
    rows, scores = rank(Gallery([f"i{j:05d}" for j in range(40000)], vecs), queries, 10)
    assert outputs[0] == [
        [[r, repr(s)] for r, s in zip(*q)] for q in zip(rows.tolist(), scores.tolist())
    ]


def test_ranking_allocates_less_than_a_float64_gallery_copy():
    rng = np.random.default_rng(8)
    n, d = 50_000, 32
    g = Gallery([f"i{j}" for j in range(n)], unit_rows(rng, n, d).astype(np.float32))
    queries = unit_rows(rng, 32, d).astype(np.float32)
    tracemalloc.start()
    try:
        rank(g, queries, 10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * d * 8


class TestBatchedComposition:
    @pytest.mark.parametrize("dim", [16, 32, 256])
    def test_rows_equal_batches_of_one(self, dim):
        cfg = TrainConfig(hidden=4 * dim, seed=5, batch_size=4, steps=1)
        mappers, composer = init_mappers(cfg, dim), PromptComposer(dim, 5)
        rng = np.random.default_rng(dim)
        refs = unit_rows(rng, 33, dim).astype(np.float32)
        conds = unit_rows(rng, 33, dim).astype(np.float32)
        block = compose_query(refs, conds, mappers, composer, 0.6)
        assert block.shape == (33, dim) and block.dtype == np.float32
        for i in range(33):
            one = compose_query(refs[i : i + 1], conds[i : i + 1], mappers, composer, 0.6)
            assert np.array_equal(block[i], one[0]), i

    @pytest.mark.parametrize("mode", ["image_only", "text_only", "average"])
    def test_baseline_rows_equal_batches_of_one(self, mode):
        rng = np.random.default_rng(25)
        refs = unit_rows(rng, 9, 8).astype(np.float32)
        conds = unit_rows(rng, 9, 8).astype(np.float32)
        conds[3] = refs[3]  # a condition equal to its reference
        block = baseline_compose(refs, conds, mode)
        assert block.shape == (9, 8) and block.dtype == np.float32
        for i in range(9):
            one = baseline_compose(refs[i : i + 1], conds[i : i + 1], mode)
            assert np.array_equal(block[i], one[0]), i


def metrics_of(rows, targets, k_values):
    """ranking_metrics of ranked row lists against target row lists."""
    return ranking_metrics(
        np.array(rows, dtype=np.intp),
        [np.unique(np.asarray(t, dtype=np.intp)) for t in targets],
        ["recall", "map"],
        k_values,
    )


class TestMetrics:
    # Row 0 is the target of every hand case; rows 1.. are fillers.
    def test_recall_all_first(self):
        m = metrics_of([[0, 1, 2]] * 3, [[0]] * 3, [1])
        assert m["recall@1"] == 1.0

    def test_recall_none(self):
        assert metrics_of([[1, 2]], [[0]], [2])["recall@2"] == 0.0

    def test_recall_hand_case(self):
        # targets at ranks 1, 3, 7 -> R@5 = 2/3
        fillers = list(range(1, 10))
        ranked = [[0] + fillers, fillers[:2] + [0] + fillers[2:], fillers[:6] + [0] + fillers[6:]]
        assert metrics_of(ranked, [[0]] * 3, [5])["recall@5"] == pytest.approx(2.0 / 3.0)

    def test_map_single_target_rank_one(self):
        assert metrics_of([[0, 1, 2]], [[0]], [3])["map@3"] == 1.0

    def test_map_single_target_rank_two(self):
        assert metrics_of([[1, 0, 2]], [[0]], [5])["map@5"] == pytest.approx(0.5)

    def test_map_two_targets_hand_case(self):
        # targets at ranks 1 and 3, k=5 -> AP = (1 + 2/3) / 2 = 5/6
        m = metrics_of([[0, 2, 1, 3, 4]], [[0, 1]], [5])
        assert m["map@5"] == pytest.approx(5.0 / 6.0)

    def test_keys_follow_k_then_metric_as_python_floats(self):
        m = metrics_of([[0, 1]], [[0]], [2, 1])
        assert list(m) == ["recall@2", "map@2", "recall@1", "map@1"]
        assert all(type(value) is float for value in m.values())
        rows, targets = np.array([[0, 1]]), [np.array([0])]
        assert list(ranking_metrics(rows, targets, ["map"], [1, 2])) == ["map@1", "map@2"]

    def test_metric_oracle_equivalence(self):
        # 1000 seeded galleries with tied rows, targets drawn with repeats and
        # K past the gallery's size: equal to the loop oracles' sums
        for seed in range(1000):
            rng = np.random.default_rng(10_000 + seed)
            n = int(rng.integers(4, 33))
            d = int(rng.integers(2, 7))
            g = tied_gallery(rng, n, d)
            n_queries = int(rng.integers(1, 5))
            # targets listed twice count once
            listed = [rng.integers(0, n, size=int(rng.integers(1, 5))) for _ in range(n_queries)]
            target_sets = [set(g.ids[t]) for t in listed]
            queries = unit_rows(rng, n_queries, d)
            rows, _ = rank(g, queries, n + 3)
            ranked_ids = [g.ids[r] for r in rows]
            k_values = [1, 3, n, n + 3]
            targets = [np.unique(t) for t in listed]
            ours = ranking_metrics(rows, targets, ["recall", "map"], k_values)
            for k in k_values:
                assert ours[f"recall@{k}"] == brute_force_recall(ranked_ids, target_sets, k), seed
                assert ours[f"map@{k}"] == brute_force_map(ranked_ids, target_sets, k), seed

    def test_recall_monotone_in_k(self):
        ranked = [[1, 0, 2, 3], [0, 1, 2, 3], [1, 2, 3, 0], [1, 2, 3, 4]]
        m = metrics_of(ranked, [[0]] * 4, [1, 2, 3, 4])
        values = [m[f"recall@{k}"] for k in (1, 2, 3, 4)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_map_stable_beyond_gallery_size(self):
        m = metrics_of([[1, 0, 2]], [[0]], [3, 10])
        assert m["map@3"] == m["map@10"]

    def test_metric_range(self):
        m = metrics_of([[1, 0, 2]] * 5, [[0]] * 5, [1, 2, 3])
        assert all(0.0 <= value <= 1.0 for value in m.values())

    def test_length_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            ranking_metrics(np.empty((0, 1), np.intp), [np.array([0])], ["recall"], [1])
        with pytest.raises(ShapeError, match="no queries"):
            ranking_metrics(np.empty((0, 1), np.intp), [], ["recall"], [1])
        with pytest.raises(ParameterError):
            metrics_of([[0]], [[0]], [0, 1])

    def test_hit_matrix_is_not_gallery_wide(self):
        # 200 queries against a gallery of a million rows: the hit matrix
        # covers the top k only, never a [Q x G] block
        rng = np.random.default_rng(27)
        rows = rng.integers(0, 1_000_000, size=(200, 10))
        targets = [np.unique(rng.integers(0, 1_000_000, size=3)) for _ in range(200)]
        tracemalloc.start()
        try:
            ranking_metrics(rows, targets, ["recall", "map"], [1, 5, 10])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 200 * 1_000_000 // 100


class TestEvaluateTask:
    def test_composed_requires_models(self):
        rng = np.random.default_rng(20)
        g = Gallery(["a", "b"], unit_rows(rng, 2, 8).astype(np.float32))
        task = make_task(g, *query_rows(rng), [[0]])
        with pytest.raises(ParameterError):
            evaluate_task(task, None, None, mode="composed")

    def test_baseline_report_shape(self):
        rng = np.random.default_rng(21)
        g = Gallery(["a", "b", "t0"], unit_rows(rng, 3, 8).astype(np.float32))
        task = make_task(g, *query_rows(rng), [[2]], k_values=[1, 2], gamma=0.6)
        report = evaluate_task(task, None, None, mode="image_only", per_query=True)
        assert report["mode"] == "image_only"
        assert set(report["metrics"]) == {"recall@1", "recall@2", "map@1", "map@2"}
        assert len(report["per_query"]) == 1
        assert report["per_query"][0]["targets"] == ["t0"]


class TestEvaluateTaskBatched:
    @pytest.fixture
    def task16(self):
        rng = np.random.default_rng(26)
        g = tied_gallery(rng, 60, 16)
        targets = [[i + 1, i + 2] for i in range(7)]
        return make_task(g, g.vectors[:7], unit_rows(rng, 7, 16), targets, k_values=[1, 5, 10])

    def _count_calls(self, monkeypatch, names):
        calls = dict.fromkeys(names, 0)
        for name in names:
            real = getattr(retrieval, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(retrieval, name, counted)
        return calls

    def _check_per_query(self, task, report, compose):
        ranked_ids, target_sets = [], []
        for j, row in enumerate(report["per_query"]):
            vec = compose(task.reference_rows[j : j + 1], task.condition_rows[j : j + 1])[0]
            assert row["top"] == [[i, s] for i, s in ref_rank(task.gallery, vec, 10)]
            assert row["targets"] == sorted(task.gallery.ids[task.targets[j]])
            ranked_ids.append([i for i, _ in row["top"]])
            target_sets.append(set(row["targets"]))
        metrics = report["metrics"]
        for k in task.k_values:
            assert metrics[f"recall@{k}"] == brute_force_recall(ranked_ids, target_sets, k)
            assert metrics[f"map@{k}"] == brute_force_map(ranked_ids, target_sets, k)

    def test_composed_is_one_compose_and_one_rank(self, task16, setup16, monkeypatch):
        mappers, composer = setup16
        calls = self._count_calls(monkeypatch, ["compose_query", "rank"])
        report = evaluate_task(task16, mappers, composer, gamma=0.6, per_query=True)
        assert calls == {"compose_query": 1, "rank": 1}
        self._check_per_query(
            task16, report, lambda ref, cond: compose_query(ref, cond, mappers, composer, 0.6)
        )

    @pytest.mark.parametrize("mode", ["image_only", "text_only", "average"])
    def test_baseline_is_one_compose_and_one_rank(self, task16, mode, monkeypatch):
        calls = self._count_calls(monkeypatch, ["baseline_compose", "rank"])
        report = evaluate_task(task16, None, None, mode=mode, per_query=True)
        assert calls == {"baseline_compose": 1, "rank": 1}
        self._check_per_query(task16, report, lambda ref, cond: baseline_compose(ref, cond, mode))

    def test_no_queries_is_a_shape_error(self, task16):
        task16.query_ids = []
        with pytest.raises(ShapeError, match="no queries"):
            evaluate_task(task16, None, None, mode="image_only")


def test_numbered_gallery_ranks_as_its_spelled_list(tmp_path):
    # Equal rows at item-99999, item-10000 and item-100000 tie exactly; as
    # strings item-10000 < item-100000 < item-99999, which is not row order.
    n = 100_002
    vectors = unit_rows(np.random.default_rng(29), n, 4).astype(np.float32)
    tied = [99_999, 10_000, 100_000]
    vectors[tied] = vectors[5]
    path = tmp_path / "gallery.emb"
    fileio.write_embeddings(path, vectors, fileio.NumberedIds("item-", 5, n))
    matrix, ids = fileio.read_embeddings(path)
    numbered = Gallery(ids, matrix)
    spelled = Gallery([f"item-{r:05d}" for r in range(n)], vectors)
    assert isinstance(numbered.ids, fileio.NumberedIds) and isinstance(spelled.ids, fileio.IdList)
    queries = np.concatenate([vectors[[5, 7]], unit_rows(np.random.default_rng(31), 3, 4)])
    rows, scores = rank(numbered, queries, 10)
    spelled_rows, spelled_scores = rank(spelled, queries, 10)
    assert np.array_equal(rows, spelled_rows)
    assert scores.tobytes() == spelled_scores.tobytes()
    assert rows[0, :4].tolist() == [5, 10_000, 100_000, 99_999]
    assert numbered.ids[rows[0, :4]] == ["item-00005", "item-10000", "item-100000", "item-99999"]
    looked_up = [
        *["item-00000", "item-10000", "item-99999", "item-100000", "item-100001"],
        *["item-100002", "item-999999", "item-0010", "item-000010", "item-1e3", "item--1"],
        *["item-\u0663\u0663\u0663\u0663\u0663", "item- 0012", "ITEM-00001", "", "item-"],
        "item-" + "9" * 5000,
    ]
    found = numbered.ids.find(looked_up)
    assert found == spelled.ids.find(looked_up)
    assert found == [0, 10_000, 99_999, 100_000, 100_001] + [None] * 12
    assert numbered.ids.first_repeat() is None and spelled.ids.first_repeat() is None


def test_gallery_unique_ids():
    rng = np.random.default_rng(23)
    with pytest.raises(ShapeError, match="id 'a' appears twice"):
        Gallery(["b", "a", "a"], unit_rows(rng, 3, 4).astype(np.float32))
    # the first repeat in row order, not the first id that repeats
    with pytest.raises(ShapeError, match="id 'c' appears twice"):
        Gallery(["a", "c", "c", "a"], unit_rows(rng, 4, 4))
    ids = ["b", "a", "a\x00", "", "\x00"]
    g = Gallery(ids, unit_rows(rng, 5, 4))
    looked_up = ["b", "a", "a\x00", "", "\x00", "c", "a\x00\x00", "\x00\x00"]
    assert g.ids.find(looked_up) == [0, 1, 2, 3, 4, None, None, None]

import numpy as np
import pytest

from cirmap.errors import ParameterError, ShapeError
from cirmap.mining import select_batch, selection_from_uncertainty
from oracles import brute_force_select, unit_rows

# Hand case from the batch-selection contract: row similarities and a caption
# pair at cosine 0.7.
HAND_SIMS = np.array([[0.9, 0.2, 0.1], [0.6, 0.5, 0.3], [0.1, 0.2, 0.4]])


def hand_texts():
    w0 = np.array([1.0, 0.0, 0.0])
    w1 = np.array([0.7, np.sqrt(1 - 0.49), 0.0])
    w2 = np.array([0.0, 0.0, 1.0])
    return np.vstack([w0, w1, w2])


def mask_f_of(uncertainty):
    """mask_f of a selection; captions and threshold do not enter it."""
    n = uncertainty.shape[0]
    return selection_from_uncertainty(uncertainty, np.eye(n), 0.0).mask_f


def mask_s_of(texts, argmax_index, threshold):
    """mask_s of a selection whose uncertainty predicts ``argmax_index``."""
    uncertainty = np.eye(len(argmax_index))[argmax_index]
    return selection_from_uncertainty(uncertainty, texts, threshold).mask_s


def softmax_rows(sims, sigma):
    z = sims / sigma
    z -= z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


class TestSelectBatchInputs:
    def test_identical_texts_tie_to_caption_zero(self):
        rng = np.random.default_rng(0)
        images = unit_rows(rng, 4, 6)
        texts = np.tile(unit_rows(rng, 1, 6), (4, 1))
        sel = select_batch(images, texts, 0.5, 0.5)
        assert sel.argmax_index.tolist() == [0, 0, 0, 0]

    def test_sigma_validation(self):
        rng = np.random.default_rng(2)
        rows = unit_rows(rng, 3, 4)
        with pytest.raises(ParameterError):
            select_batch(rows, rows, 0.0, 0.5)

    def test_shape_validation(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ShapeError):
            select_batch(unit_rows(rng, 3, 4), unit_rows(rng, 4, 4), 0.1, 0.5)


class TestMispredictionMask:
    def test_diagonal_dominant_all_false(self):
        u = softmax_rows(np.eye(4) * 0.9 + 0.05, 0.1)
        assert not mask_f_of(u).any()

    def test_off_diagonal_max_true(self):
        sims = np.eye(3) * 0.5
        sims[1, 2] = 0.9
        assert mask_f_of(softmax_rows(sims, 0.1)).tolist() == [False, True, False]

    def test_hand_case(self):
        u = softmax_rows(HAND_SIMS, 0.01)
        assert mask_f_of(u).tolist() == [False, True, False]

    def test_tie_breaks_to_lowest_index(self):
        # row 1 ties between columns 0 and 1: argmax 0 != 1 -> flagged
        # row 0 ties between columns 0 and 2: argmax 0 == 0 -> not flagged
        sims = np.array([[0.6, 0.1, 0.6], [0.5, 0.5, 0.1], [0.0, 0.0, 0.9]])
        assert mask_f_of(softmax_rows(sims, 0.5)).tolist() == [False, True, False]


class TestSimilarCaptionMask:
    def test_threshold_minus_one_all_true(self):
        rng = np.random.default_rng(4)
        texts = unit_rows(rng, 5, 6)
        argmax = np.array([1, 0, 4, 2, 3])
        assert mask_s_of(texts, argmax, -1.0).all()

    def test_threshold_near_one_only_matching(self):
        # a threshold just under 1 keeps self-predictions and drops the rest
        rng = np.random.default_rng(5)
        texts = unit_rows(rng, 4, 6)
        argmax_self = np.arange(4)
        assert bool(mask_s_of(texts, argmax_self, 1.0 - 1e-6).all())
        argmax_other = np.array([1, 0, 3, 2])
        assert not mask_s_of(texts, argmax_other, 1.0 - 1e-6).any()

    def test_hand_value(self):
        texts = hand_texts()
        argmax = np.array([0, 0, 2])
        mask = mask_s_of(texts, argmax, 0.5)
        assert mask.tolist() == [True, True, True]
        mask_high = mask_s_of(texts, argmax, 0.75)
        assert mask_high.tolist() == [True, False, True]


class TestSelect:
    def test_hand_case_selects_row_one(self):
        u = softmax_rows(HAND_SIMS, 0.01)
        sel = selection_from_uncertainty(u, hand_texts(), 0.5)
        assert sel.selected == [1]
        assert sel.argmax_index.tolist() == [0, 0, 2]
        assert sel.mask_f.tolist() == [False, True, False]
        assert sel.mask.tolist() == [False, True, False]

    def test_diagonal_dominant_empty(self):
        rng = np.random.default_rng(6)
        texts = unit_rows(rng, 6, 32)
        images = texts + 0.05 * rng.standard_normal(texts.shape)
        images /= np.linalg.norm(images, axis=1, keepdims=True)
        sel = select_batch(images, texts, 0.01, 0.5)
        assert sel.selected == []

    def test_never_selects_self_prediction(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 7))
            sel = select_batch(unit_rows(rng, n, 4), unit_rows(rng, n, 4), 0.01, 0.5)
            for i in sel.selected:
                assert sel.argmax_index[i] != i

    def test_monotone_in_threshold(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            images, texts = unit_rows(rng, 6, 4), unit_rows(rng, 6, 4)
            prev = None
            for lam in (-1.0, 0.0, 0.3, 0.6, 0.9, 1.01):
                now = set(select_batch(images, texts, 0.01, lam).selected)
                if prev is not None:
                    assert now <= prev
                prev = now

    def test_mask_f_invariant_to_logit_scaling(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            images, texts = unit_rows(rng, 5, 4), unit_rows(rng, 5, 4)
            base = select_batch(images, texts, 0.01, 0.5)
            scaled = select_batch(images, texts, 0.17, 0.5)
            assert np.array_equal(base.mask_f, scaled.mask_f)

    def test_selected_ascending_and_consistent(self):
        rng = np.random.default_rng(7)
        images, texts = unit_rows(rng, 6, 5), unit_rows(rng, 6, 5)
        sel = select_batch(images, texts, 0.05, 0.2)
        assert sel.selected == sorted(sel.selected)
        assert np.array_equal(sel.mask, sel.mask_f & sel.mask_s)
        assert sel.selected == [int(i) for i in np.nonzero(sel.mask)[0]]

    def test_prediction_is_argmax_of_float32_softmax(self):
        rng = np.random.default_rng(8)
        images = unit_rows(rng, 4, 5)
        texts = unit_rows(rng, 4, 5)
        # the prediction is the argmax of a plain float32 softmax
        u = softmax_rows(images @ texts.T, 0.05).astype(np.float32)
        sel = select_batch(images, texts, 0.05, 0.2)
        assert isinstance(sel.argmax_index, np.ndarray)
        assert sel.argmax_index.tolist() == np.argmax(u, axis=1).tolist()


class TestOracleEquivalence:
    def test_matches_brute_force_on_seeded_suite(self):
        # 1000 seeded batches, exact boolean equality against the loop oracle
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
            assert ours.argmax_index.tolist() == ref["argmax"], seed
            assert ours.mask_f.tolist() == ref["mask_f"], seed
            assert ours.mask_s.tolist() == ref["mask_s"], seed

import numpy as np
import pytest

from cirmap.autodiff import Tensor, info_nce
from cirmap.errors import ParameterError, ShapeError
from cirmap.losses import (
    BatchEmbeddings,
    LossWeights,
    loss_itcon,
    loss_mse,
    loss_ori,
    loss_sset,
    objective,
)
from oracles import ref_info_nce, ref_mse, unit_rows


def make_batch(rng, n, d):
    return BatchEmbeddings(
        images=Tensor(unit_rows(rng, n, d)),
        composed_pseudo=Tensor(unit_rows(rng, n, d)),
        composed_supplement=Tensor(unit_rows(rng, n, d)),
    )


def components(batch, weights, rows=None):
    """The objective's components as floats, keyed like metrics.jsonl."""
    _, parts = objective(batch, rows, weights)
    return {name: term.item() for name, term in parts.items()}


class TestInfoNCE:
    def test_single_row_is_zero(self):
        rng = np.random.default_rng(0)
        a, b = Tensor(unit_rows(rng, 1, 8)), Tensor(unit_rows(rng, 1, 8))
        assert info_nce(a, b, 0.5).item() == 0.0

    def test_orthonormal_closed_form(self):
        eye = Tensor(np.eye(2, dtype=np.float32))
        loss = info_nce(eye, eye, 1.0).item()
        expected = 2.0 * (-np.log(np.e / (np.e + 1.0)))
        assert abs(loss - expected) < 1e-6
        assert abs(loss - 0.6265) < 1e-4

    def test_permutation_invariant(self):
        rng = np.random.default_rng(1)
        a, b = unit_rows(rng, 6, 8), unit_rows(rng, 6, 8)
        perm = rng.permutation(6)
        base = info_nce(Tensor(a), Tensor(b), 0.3).item()
        permuted = info_nce(Tensor(a[perm]), Tensor(b[perm]), 0.3).item()
        assert abs(base - permuted) < 1e-6

    def test_nonnegative_for_unit_rows(self):
        rng = np.random.default_rng(2)
        for seed in range(25):
            r = np.random.default_rng(seed)
            a, b = unit_rows(r, 4, 6), unit_rows(r, 4, 6)
            for tau in (1.0, 0.1, 0.01):
                assert info_nce(Tensor(a), Tensor(b), tau).item() >= 0.0

    def test_shape_and_tau_validation(self):
        rng = np.random.default_rng(3)
        a = Tensor(unit_rows(rng, 3, 4))
        b = Tensor(unit_rows(rng, 4, 4))
        with pytest.raises(ShapeError):
            info_nce(a, b, 1.0)
        with pytest.raises(ParameterError):
            info_nce(a, a, 0.0)

    def test_matches_reference(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            a, b = unit_rows(rng, 5, 7), unit_rows(rng, 5, 7)
            ours = info_nce(Tensor(a), Tensor(b), 1.0).item()
            assert abs(ours - ref_info_nce(a, b, 1.0)) < 1e-6


class TestLossOri:
    def test_perfect_mapper_minimizes(self):
        # composed == images on an orthonormal batch beats random perturbations
        # in the sharp-temperature regime the objective runs at
        eye = np.eye(4, dtype=np.float32)
        batch = BatchEmbeddings(Tensor(eye), Tensor(eye), Tensor(eye))
        best = loss_ori(batch, 0.1).item()
        rng = np.random.default_rng(4)
        for _ in range(100):
            noisy = eye + 0.3 * rng.standard_normal(eye.shape)
            noisy /= np.linalg.norm(noisy, axis=1, keepdims=True)
            perturbed = BatchEmbeddings(Tensor(eye), Tensor(noisy), Tensor(eye))
            assert loss_ori(perturbed, 0.1).item() >= best

    def test_single_pair_zero(self):
        rng = np.random.default_rng(5)
        batch = make_batch(rng, 1, 6)
        assert loss_ori(batch, 0.1).item() == 0.0

    def test_matches_reference(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            batch = make_batch(rng, 4, 6)
            ref = ref_info_nce(batch.images.values, batch.composed_pseudo.values, 1.0)
            assert abs(loss_ori(batch, 1.0).item() - ref) < 1e-6


class TestLossItconAndMse:
    def test_itcon_matches_reference(self):
        rng = np.random.default_rng(6)
        batch = make_batch(rng, 4, 6)
        ref = ref_info_nce(batch.images.values, batch.composed_supplement.values, 1.0)
        assert abs(loss_itcon(batch, 1.0).item() - ref) < 1e-6

    def test_mse_identical_blocks_zero(self):
        rng = np.random.default_rng(7)
        rows = unit_rows(rng, 3, 5)
        batch = BatchEmbeddings(Tensor(unit_rows(rng, 3, 5)), Tensor(rows), Tensor(rows))
        assert loss_mse(batch).item() == 0.0

    def test_mse_constant_offset(self):
        # rows differing by c in every coordinate give mse c^2; build unit rows
        d = 4
        c = 2.0 / np.sqrt(d)
        a = np.full((1, d), 1.0 / np.sqrt(d), dtype=np.float32)
        b = -a
        rng = np.random.default_rng(8)
        batch = BatchEmbeddings(Tensor(unit_rows(rng, 1, d)), Tensor(a), Tensor(b))
        assert abs(loss_mse(batch).item() - c * c) < 1e-6

    def test_mse_symmetric(self):
        rng = np.random.default_rng(9)
        x, y = unit_rows(rng, 3, 5), unit_rows(rng, 3, 5)
        imgs = Tensor(unit_rows(rng, 3, 5))
        ab = BatchEmbeddings(imgs, Tensor(x), Tensor(y))
        ba = BatchEmbeddings(imgs, Tensor(y), Tensor(x))
        assert abs(loss_mse(ab).item() - loss_mse(ba).item()) < 1e-7

    def test_mse_matches_reference(self):
        rng = np.random.default_rng(10)
        batch = make_batch(rng, 4, 6)
        ref = ref_mse(batch.composed_pseudo.values, batch.composed_supplement.values)
        assert abs(loss_mse(batch).item() - ref) < 1e-6


class TestLossTs:
    def test_alpha_zero_is_itcon(self):
        rng = np.random.default_rng(11)
        batch = make_batch(rng, 4, 6)
        w = LossWeights(alpha=0.0, beta=1.0, tau=0.5)
        assert abs(components(batch, w)["L_ts"] - loss_itcon(batch, 0.5).item()) < 1e-7

    def test_alpha_slope_is_mse(self):
        rng = np.random.default_rng(12)
        batch = make_batch(rng, 4, 6)
        lo = components(batch, LossWeights(alpha=1.0, beta=1.0, tau=0.5))["L_ts"]
        hi = components(batch, LossWeights(alpha=3.0, beta=1.0, tau=0.5))["L_ts"]
        slope = (hi - lo) / 2.0
        assert abs(slope - loss_mse(batch).item()) < 1e-5

    def test_vanishing_mse_term(self):
        rng = np.random.default_rng(13)
        rows = unit_rows(rng, 4, 6)
        batch = BatchEmbeddings(Tensor(unit_rows(rng, 4, 6)), Tensor(rows), Tensor(rows))
        w = LossWeights(alpha=1.0, beta=1.0, tau=0.5)
        assert abs(components(batch, w)["L_ts"] - loss_itcon(batch, 0.5).item()) < 1e-7


class TestLossSset:
    def test_empty_selection_zero(self):
        rng = np.random.default_rng(14)
        batch = make_batch(rng, 4, 6)
        assert loss_sset(batch, [], 0.1).item() == 0.0

    def test_singleton_selection_zero(self):
        rng = np.random.default_rng(15)
        batch = make_batch(rng, 4, 6)
        assert loss_sset(batch, [2], 0.1).item() == 0.0

    def test_full_selection_equals_itcon(self):
        rng = np.random.default_rng(16)
        batch = make_batch(rng, 5, 6)
        assert loss_sset(batch, range(5), 0.05).item() == loss_itcon(batch, 0.05).item()

    def test_out_of_range_selection(self):
        # also repeated and unordered rows: rows must be strictly ascending
        rng = np.random.default_rng(17)
        batch = make_batch(rng, 3, 6)
        for rows in ([5], [-1, 2], [1, 1], [2, 0], [0, 2, 1]):
            with pytest.raises(ShapeError, match="strictly ascending indices into a batch of 3"):
                loss_sset(batch, rows, 0.1)

class TestLossDeg:
    def test_beta_zero_drops_subset_term(self):
        rng = np.random.default_rng(18)
        batch = make_batch(rng, 4, 6)
        sel = [0, 2]
        w0 = LossWeights(alpha=1.0, beta=0.0, tau=0.5)
        parts = components(batch, w0, sel)
        expected = loss_ori(batch, 0.5).item() + parts["L_ts"]
        assert abs(parts["L_deg"] - expected) < 1e-6

    def test_component_sum(self):
        rng = np.random.default_rng(19)
        batch = make_batch(rng, 5, 6)
        sel = [1, 3, 4]
        w = LossWeights(alpha=1.5, beta=2.0, tau=0.2)
        total, _ = objective(batch, sel, w)
        parts = (
            loss_ori(batch, 0.2).item()
            + components(batch, w)["L_ts"]
            + 2.0 * loss_sset(batch, sel, 0.2).item()
        )
        # float32 storage bounds agreement to ~1 ulp of the total
        assert abs(total.item() - parts) < 1e-6 * max(1.0, abs(parts))

    def test_all_zero_components(self):
        # single pair, identical composed blocks, empty selection
        rng = np.random.default_rng(20)
        rows = unit_rows(rng, 1, 6)
        batch = BatchEmbeddings(Tensor(unit_rows(rng, 1, 6)), Tensor(rows), Tensor(rows))
        w = LossWeights(alpha=1.0, beta=2.0, tau=0.5)
        assert objective(batch, [], w)[0].item() == 0.0


class TestObjective:
    def test_component_keys_and_total(self):
        rng = np.random.default_rng(23)
        batch = make_batch(rng, 4, 6)
        total, parts = objective(batch, [0, 3], LossWeights(tau=0.3))
        assert list(parts) == ["L_ori", "L_itcon", "L_mse", "L_ts", "L_ss", "L_deg"]
        assert parts["L_deg"] is total

    def test_terms_match_term_functions(self):
        rng = np.random.default_rng(24)
        batch = make_batch(rng, 5, 6)
        sel = [1, 2, 4]
        parts = components(batch, LossWeights(tau=0.3), sel)
        assert parts["L_ori"] == loss_ori(batch, 0.3).item()
        assert parts["L_itcon"] == loss_itcon(batch, 0.3).item()
        assert parts["L_mse"] == loss_mse(batch).item()
        assert parts["L_ss"] == loss_sset(batch, sel, 0.3).item()

    @pytest.mark.parametrize("use_itcon,use_mse", [(False, True), (True, False), (False, False)])
    def test_switched_off_terms_are_zero(self, use_itcon, use_mse):
        rng = np.random.default_rng(25)
        batch = make_batch(rng, 4, 6)
        w = LossWeights(alpha=1.0, beta=2.0, tau=0.3, use_itcon=use_itcon, use_mse=use_mse)
        parts = components(batch, w, [0, 1])
        assert (parts["L_itcon"] == 0.0) != use_itcon
        assert (parts["L_mse"] == 0.0) != use_mse
        expected = parts["L_itcon"] + parts["L_mse"]
        assert abs(parts["L_ts"] - expected) < 1e-6

    def test_no_selection_turns_subset_term_off(self):
        rng = np.random.default_rng(26)
        batch = make_batch(rng, 4, 6)
        parts = components(batch, LossWeights(tau=0.3), None)
        assert parts["L_ss"] == 0.0
        expected = parts["L_ori"] + parts["L_ts"]
        assert abs(parts["L_deg"] - expected) < 1e-6 * max(1.0, abs(expected))


class TestBatchPermutationEquivariance:
    def test_all_losses_invariant(self):
        rng = np.random.default_rng(21)
        n, d = 6, 8
        blocks = [unit_rows(rng, n, d) for _ in range(3)]
        sel_idx = [1, 4]
        perm = rng.permutation(n)
        inv = np.empty(n, dtype=int)
        inv[perm] = np.arange(n)

        batch = BatchEmbeddings(*(Tensor(b) for b in blocks))
        pbatch = BatchEmbeddings(*(Tensor(b[perm]) for b in blocks))
        sel = sel_idx
        psel = sorted(int(inv[i]) for i in sel_idx)
        w = LossWeights(alpha=1.0, beta=2.0, tau=0.1)

        pairs = [
            (loss_ori(batch, 0.1), loss_ori(pbatch, 0.1)),
            (loss_itcon(batch, 0.1), loss_itcon(pbatch, 0.1)),
            (loss_mse(batch), loss_mse(pbatch)),
            (loss_sset(batch, sel, 0.1), loss_sset(pbatch, psel, 0.1)),
        ]
        ours_parts, permuted_parts = objective(batch, sel, w)[1], objective(pbatch, psel, w)[1]
        pairs += [(ours_parts[k], permuted_parts[k]) for k in ("L_ts", "L_deg")]
        for ours, permuted in pairs:
            assert abs(ours.item() - permuted.item()) < 1e-6


def test_loss_weights_validation():
    with pytest.raises(ParameterError):
        LossWeights(tau=0.0)
    with pytest.raises(ParameterError):
        LossWeights(alpha=-0.1)

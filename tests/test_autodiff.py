import numpy as np
import pytest

import cirmap.autodiff as ad
from cirmap.autodiff import Tape, Tensor, backward
from cirmap.errors import (
    ContractError,
    DegenerateInputError,
    ParameterError,
    ShapeError,
)
from oracles import rel_err


def grad_of(build, *leaves):
    """Run build() under a tape and return gradients for the given leaves."""
    with Tape() as tape:
        loss = build()
    grads = backward(loss, tape)
    return [grads.get(leaf) for leaf in leaves]


class TestMatmul:
    def test_identity(self):
        m = Tensor([[1.0, 2.0], [3.0, 4.0]])
        eye = Tensor(np.eye(2))
        out = ad.matmul(eye, m)
        assert np.array_equal(out.values, m.values)

    def test_hand_case(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[1.0], [1.0]])
        assert np.array_equal(ad.matmul(a, b).values, np.array([[3.0], [7.0]], np.float32))

    def test_zero_annihilates(self):
        z = Tensor(np.zeros((2, 2)))
        m = Tensor([[5.0, 6.0], [7.0, 8.0]])
        assert np.all(ad.matmul(z, m).values == 0.0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


class TestL2NormalizeRows:
    def test_hand_case(self):
        out = ad.l2_normalize_rows(Tensor([[3.0, 4.0]]))
        assert np.allclose(out.values, [[0.6, 0.8]], atol=1e-7)

    def test_unit_row_unchanged(self):
        row = np.array([[0.6, 0.8]], dtype=np.float32)
        out = ad.l2_normalize_rows(Tensor(row))
        assert np.allclose(out.values, row, atol=1e-6)

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((5, 7)))
        once = ad.l2_normalize_rows(x)
        twice = ad.l2_normalize_rows(once)
        assert np.max(np.abs(once.values - twice.values)) < 1e-6

    def test_zero_row_rejected(self):
        with pytest.raises(DegenerateInputError):
            ad.l2_normalize_rows(Tensor([[0.0, 0.0]]))

    def test_output_norms(self):
        rng = np.random.default_rng(1)
        out = ad.l2_normalize_rows(Tensor(rng.standard_normal((8, 5))))
        norms = np.linalg.norm(out.values.astype(np.float64), axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-6


class TestScaledRowSoftmax:
    def test_constant_row_uniform(self):
        out = ad.scaled_row_softmax(Tensor([[2.5, 2.5, 2.5]]), 0.3)
        assert np.allclose(out.values, 1.0 / 3.0, atol=1e-6)

    def test_closed_form(self):
        out = ad.scaled_row_softmax(Tensor([[1.0, 0.0]]), 1.0)
        e = np.e
        assert np.allclose(out.values, [[e / (e + 1), 1 / (e + 1)]], atol=1e-6)
        assert abs(out.values[0, 0] - 0.7311) < 1e-4

    def test_sharp_temperature_saturates(self):
        out = ad.scaled_row_softmax(Tensor([[1.0, 0.0]]), 0.01)
        assert out.values[0, 0] > 1 - 1e-6

    def test_rows_sum_to_one_large_logits(self):
        # logits up to 50/temperature in magnitude stay stable
        rng = np.random.default_rng(2)
        for temperature in (1.0, 0.1, 0.01):
            logits = rng.uniform(-50.0, 50.0, size=(6, 6)) * temperature
            out = ad.scaled_row_softmax(Tensor(logits), temperature)
            sums = out.values.astype(np.float64).sum(axis=1)
            assert np.max(np.abs(sums - 1.0)) < 1e-6

    def test_temperature_validation(self):
        for bad in (0.0, -1.0):
            with pytest.raises(ParameterError):
                ad.scaled_row_softmax(Tensor([[1.0, 2.0]]), bad)


class TestBackwardContract:
    def test_sum_gives_ones(self):
        p = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3), requires_grad=True)
        (g,) = grad_of(lambda: ad.sum_all(p), p)
        assert np.array_equal(g.values, np.ones((2, 3), np.float32))

    def test_mse_hand_gradient(self):
        # loss = mean((p - 0)^2), p = (1, 2): gradient 2p/n = (1, 2)
        p = Tensor([1.0, 2.0], requires_grad=True)
        zero = Tensor([0.0, 0.0])
        (g,) = grad_of(lambda: ad.mse(p, zero), p)
        assert np.allclose(g.values, [1.0, 2.0], atol=1e-7)

    def test_detached_absent_from_map(self):
        p = Tensor([1.0, 2.0], requires_grad=True)
        frozen = Tensor([3.0, 4.0], requires_grad=False)
        with Tape() as tape:
            loss = ad.sum_all(ad.add(p, frozen))
        grads = backward(loss, tape)
        assert p in grads and frozen not in grads

    def test_non_scalar_loss_rejected(self):
        p = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            out = ad.scale(p, 2.0)
        with pytest.raises(ContractError):
            backward(out, tape)

    def test_loss_not_on_tape_rejected(self):
        p = Tensor(1.5, requires_grad=True)
        with Tape() as tape:
            pass
        with pytest.raises(ContractError):
            backward(p, tape)

    def test_diamond_graph_counts_once(self):
        # z = x + x must give dz/dx = 2, catching double visits
        x = Tensor([3.0], requires_grad=True)
        (g,) = grad_of(lambda: ad.sum_all(ad.add(x, x)), x)
        assert np.array_equal(g.values, [2.0])

    def test_nested_tapes_rejected(self):
        with Tape():
            with pytest.raises(ContractError):
                with Tape():
                    pass


class TestDeterminismAndFiniteness:
    def test_bit_identical_forward(self):
        def run():
            rng = np.random.default_rng(42)
            a = Tensor(rng.standard_normal((4, 6)))
            b = Tensor(rng.standard_normal((6, 3)))
            out = ad.scaled_row_softmax(ad.matmul(ad.tanh(a), b), 0.07)
            return out.values.tobytes()

        assert run() == run()

    def test_finite_outputs(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.uniform(-10, 10, size=(5, 5)))
        for out in (
            ad.tanh(x),
            ad.scaled_row_softmax(x, 0.01),
            ad.scaled_row_log_softmax(x, 0.01),
            ad.l2_normalize_rows(x),
            ad.mse(x, ad.scale(x, 0.5)),
        ):
            assert np.all(np.isfinite(out.values))


def _fd_check_primitive(build_loss, leaves, seeds, dims):
    """FD-check a primitive wrapped into a scalar on random inputs."""
    worst = 0.0
    for seed in seeds:
        rng = np.random.default_rng(seed)
        tensors = [
            Tensor(rng.standard_normal(shape), requires_grad=True) for shape in dims
        ]
        with Tape() as tape:
            loss = build_loss(*tensors)
        grads = backward(loss, tape)

        for t in tensors:
            base = t.values.astype(np.float64).copy()

            def f(vec, t=t, tensors=tensors):
                subs = []
                for other in tensors:
                    if other is t:
                        subs.append(Tensor(vec.reshape(other.shape)))
                    else:
                        subs.append(Tensor(other.values))
                return float(build_loss(*subs).values)

            fd = np.zeros(base.size)
            flat = base.ravel()
            for i in range(base.size):
                up, down = flat.copy(), flat.copy()
                up[i] += 1e-3
                down[i] -= 1e-3
                fd[i] = (f(up) - f(down)) / 2e-3
            worst = max(worst, rel_err(grads[t].values, fd.reshape(t.shape)))
    return worst


class TestPrimitiveGradients:
    SEEDS = list(range(100))

    @pytest.mark.parametrize(
        "name,build,dims",
        [
            ("add", lambda a, b: ad.mean(ad.add(a, b)), [(3, 4), (3, 4)]),
            ("sub", lambda a, b: ad.mean(ad.sub(a, b)), [(3, 4), (3, 4)]),
            ("scale", lambda a: ad.mean(ad.scale(a, -1.7)), [(4, 4)]),
            ("matmul", lambda a, b: ad.mean(ad.matmul(a, b)), [(3, 4), (4, 2)]),
            ("transpose", lambda a: ad.mean(ad.tanh(ad.transpose(a))), [(3, 5)]),
            ("tanh", lambda a: ad.mean(ad.tanh(a)), [(4, 4)]),
            ("concat", lambda a, b: ad.mean(ad.tanh(ad.concat([a, b], axis=1))), [(3, 4), (3, 2)]),
            ("add_rowvec", lambda a, v: ad.mean(ad.tanh(ad.add_rowvec(a, v))), [(3, 4), (4,)]),
            ("sum", lambda a: ad.sum_all(ad.tanh(a)), [(3, 3)]),
            ("mean", lambda a: ad.mean(ad.tanh(a)), [(3, 3)]),
            ("mse", lambda a, b: ad.mse(a, b), [(3, 4), (3, 4)]),
            ("dot_rows", lambda a, b: ad.mean(ad.dot_rows(a, b)), [(4, 5), (4, 5)]),
            ("l2norm", lambda a: ad.mean(ad.l2_normalize_rows(a)), [(3, 6)]),
            ("softmax", lambda a: ad.mean(ad.scaled_row_softmax(a, 0.5)), [(4, 4)]),
            ("log_softmax", lambda a: ad.mean(ad.diagonal(ad.scaled_row_log_softmax(a, 0.5))), [(4, 4)]),
            ("diag", lambda a: ad.mean(ad.diagonal(a)), [(4, 4)]),
            ("gather", lambda a: ad.mean(ad.gather_rows(a, [0, 2, 2])), [(4, 3)]),
        ],
    )
    def test_primitive_fd(self, name, build, dims):
        # 100 seeded inputs per primitive, dimensions <= 16
        worst = _fd_check_primitive(build, None, self.SEEDS, dims)
        assert worst < 1e-3, f"{name}: worst relative error {worst:.2e}"


def test_backward_visits_each_node_exactly_once():
    # instrument every node's backward fn; on-path nodes fire exactly once
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    y = Tensor(np.full((2, 2), 2.0), requires_grad=True)
    with Tape() as tape:
        shared = ad.add(x, y)
        left = ad.tanh(shared)
        right = ad.scale(shared, 3.0)
        loss = ad.mean(ad.add(left, right))
        ad.sum_all(y)  # recorded but not reachable from the loss

    counts = [0] * len(tape._nodes)

    def wrap(fn, slot):
        def inner(g):
            counts[slot] += 1
            return fn(g)

        return inner

    for i, node in enumerate(tape._nodes):
        node.backward_fn = wrap(node.backward_fn, i)

    grads = backward(loss, tape)
    assert counts[-1] == 0  # the dangling sum_all never fires
    assert counts[:-1] == [1] * (len(counts) - 1)  # each loss-path node once
    # diamond: d(loss)/dx = mean'(tanh'(s) + 3) routed through one shared node
    assert grads[x].shape == (2, 2)


def test_leaf_created_after_dropped_output_keeps_its_gradient():
    # An op output dropped inside the tape must not free its id for reuse by
    # a leaf created afterwards; otherwise the leaf is routed as a produced
    # node and its gradient vanishes.
    w = Tensor(np.ones(3), requires_grad=True)
    for _ in range(200):
        with Tape() as tape:
            ad.scale(w, 3.0)
            v = Tensor(np.ones(3), requires_grad=True)
            loss = ad.sum_all(ad.scale(v, 2.0))
        grads = backward(loss, tape)
        assert set(grads) == {v}
        assert np.array_equal(grads[v].values, np.full(3, 2.0, dtype=np.float32))

import gc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cirmap.autodiff as ad
from cirmap.autodiff import Tape, Tensor, backward
from cirmap.errors import (
    ContractError,
    DegenerateInputError,
    ParameterError,
    ShapeError,
)
from oracles import fd_gradient, ref_info_nce, rel_err


def mean_square(x):
    """The tests' scalar reduction of a non-scalar op: the mean of its
    squares, as ``mse`` against zeros."""
    return ad.mse(x, Tensor(np.zeros(x.shape)))


def grad_of(build, *leaves):
    """Run build() under a tape and return gradients for the given leaves."""
    with Tape() as tape:
        loss = build()
    grads = backward(loss, tape)
    return [grads.get(leaf) for leaf in leaves]


class TestTensor:
    def test_frozen_float32_array_is_taken_over(self):
        arr = np.arange(6, dtype=np.float32).reshape(2, 3)
        arr.flags.writeable = False
        assert Tensor(arr).values is arr
        row = Tensor(arr[1]).values  # a row view stays a view
        assert np.shares_memory(row, arr) and np.array_equal(row, [3.0, 4.0, 5.0])

    def test_other_arrays_are_copied(self):
        for arr in (
            np.ones((2, 3), dtype=np.float32),  # writeable
            np.ones((2, 3)),  # float64
            np.asfortranarray(np.ones((2, 3), dtype=np.float32)),  # not C order
        ):
            before = arr.copy()
            t = Tensor(arr)
            assert not np.shares_memory(t.values, arr) and not t.values.flags.writeable
            if arr.flags.writeable:
                arr[...] = 7.0
            assert np.array_equal(t.values, before)


class TestMatmul:
    """The matrix product, read through a one-pair ``linear`` over a zero
    bias row, as the composer's output layer uses it. (The class keeps the
    name of the op these cases tested before ``linear`` replaced it.)"""

    def test_identity(self):
        m = Tensor([[1.0, 2.0], [3.0, 4.0]])
        eye = Tensor(np.eye(2))
        out = ad.linear([(eye, m)], Tensor(np.zeros(2)))
        assert np.array_equal(out.values, m.values)

    def test_hand_case(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[1.0], [1.0]])
        out = ad.linear([(a, b)], Tensor(np.zeros(1)))
        assert np.array_equal(out.values, np.array([[3.0], [7.0]], np.float32))

    def test_zero_annihilates(self):
        z = Tensor(np.zeros((2, 2)))
        m = Tensor([[5.0, 6.0], [7.0, 8.0]])
        assert np.all(ad.linear([(z, m)], Tensor(np.zeros(2))).values == 0.0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ad.linear([(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))], Tensor(np.zeros(3)))

    def test_precision_follows_the_tape(self):
        # taped linear and tanh: float32 forward and backward, with a
        # float64 batch sum for the bias gradient; untaped: 64-bit, then
        # truncated to float32
        rng = np.random.default_rng(5)
        a = Tensor(rng.standard_normal((37, 64)), requires_grad=True)
        b = Tensor(rng.standard_normal((64, 29)))
        bias = Tensor(rng.standard_normal(29), requires_grad=True)
        a64, b64, bias64 = (t.values.astype(np.float64) for t in (a, b, bias))

        def taped(op, *args):
            """The op's output and gradients, and the upstream gradient the
            op received from ``mean_square``, in 64-bit and in float32."""
            with Tape() as tape:
                out = op(*args)
                loss = mean_square(out)
            upstream = (2.0 / out.size) * out.values.astype(np.float64)
            return out, backward(loss, tape), upstream, upstream.astype(np.float32)

        # a zero bias row adds nothing: the bytes of the bare product
        zero = Tensor(np.zeros(29))
        out, grads, _, up32 = taped(ad.linear, [(a, b)], zero)
        untaped = ad.linear([(a, b)], zero)
        assert out.values.tobytes() == (a.values @ b.values).tobytes()
        assert untaped.values.tobytes() == (a64 @ b64).astype(np.float32).tobytes()
        assert out.values.tobytes() != untaped.values.tobytes()
        assert grads[a].values.tobytes() == (up32 @ b.values.T).tobytes()

        def f32(v):
            """Truncate to float32 and go on in 64-bit."""
            return v.astype(np.float32).astype(np.float64)

        out, grads, upstream, up32 = taped(ad.linear, [(a, b)], bias)
        untaped = ad.linear([(a, b)], bias)
        assert out.values.tobytes() == (a.values @ b.values + bias.values).tobytes()
        # untaped: the bytes of the untaped product, then the bias added in 64-bit
        assert untaped.values.tobytes() == f32(f32(a64 @ b64) + bias64).astype(np.float32).tobytes()
        assert out.values.tobytes() != untaped.values.tobytes()
        assert grads[a].values.tobytes() == (up32 @ b.values.T).tobytes()
        assert grads[bias].values.tobytes() == upstream.sum(axis=0).astype(np.float32).tobytes()

        # two pairs: taped, the products and the bias are summed in float32;
        # untaped, each product is evaluated in 64-bit and truncated, each
        # partial sum as an untaped add would, then the bias is added in 64-bit
        c = Tensor(rng.standard_normal((37, 48)), requires_grad=True)
        w = Tensor(rng.standard_normal((48, 29)))
        c64, w64 = (t.values.astype(np.float64) for t in (c, w))
        out, grads, upstream, up32 = taped(ad.linear, [(a, b), (c, w)], bias)
        untaped = ad.linear([(a, b), (c, w)], bias)
        expect = a.values @ b.values + c.values @ w.values + bias.values
        assert out.values.tobytes() == expect.tobytes()
        expect = f32(f32(f32(a64 @ b64) + f32(c64 @ w64)) + bias64)
        assert untaped.values.tobytes() == expect.astype(np.float32).tobytes()
        assert out.values.tobytes() != untaped.values.tobytes()
        assert grads[a].values.tobytes() == (up32 @ b.values.T).tobytes()
        assert grads[c].values.tobytes() == (up32 @ w.values.T).tobytes()
        assert grads[bias].values.tobytes() == upstream.sum(axis=0).astype(np.float32).tobytes()

        h = Tensor(rng.standard_normal((37, 29)) * 2.0, requires_grad=True)
        h64 = h.values.astype(np.float64)
        out, grads, _, up32 = taped(ad.tanh, h)
        untaped = ad.tanh(h)
        y = np.tanh(h.values)
        assert y.dtype == np.float32 and out.values.tobytes() == y.tobytes()
        assert untaped.values.tobytes() == np.tanh(h64).astype(np.float32).tobytes()
        assert grads[h].values.tobytes() == ((1.0 - y * y) * up32).tobytes()


def test_float32_sums_are_truncated_float64_sums():
    # An untaped linear sums in float32; its bytes are those of 64-bit sums
    # truncated only because these agree for every pair of float32 values.
    rng = np.random.default_rng(12)
    bits = rng.integers(0, 2**32, size=(2, 200_000), dtype=np.uint64).astype(np.uint32)
    for a, b in (bits.view(np.float32), rng.standard_normal((2, 200_000)).astype(np.float32)):
        keep = np.isfinite(a) & np.isfinite(b)
        a, b = a[keep], b[keep]
        with np.errstate(over="ignore"):
            assert (a + b).tobytes() == (a.astype(np.float64) + b).astype(np.float32).tobytes()


class TestConstantParents:
    """A parent that needs no gradient gets None from the op's backward."""

    def _backward_of_last_op(self, build, upstream):
        with Tape() as tape:
            build()
        return tape._nodes[-1].backward_fn(upstream)

    def test_info_nce(self):
        rng = np.random.default_rng(7)
        p = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        c = Tensor(rng.standard_normal((4, 3)))
        ga, gb = self._backward_of_last_op(lambda: ad.info_nce(p, c, 0.5), 1.0)
        assert ga.shape == (4, 3) and gb is None
        ga, gb = self._backward_of_last_op(lambda: ad.info_nce(c, p, 0.5), 1.0)
        assert ga is None and gb.shape == (4, 3)

    def test_linear(self):
        rng = np.random.default_rng(9)
        x, w, b = (rng.standard_normal(shape) for shape in ((2, 3), (3, 4), (4,)))
        g = np.ones((2, 4))
        for trainable in range(1, 8):
            x_t, w_t, b_t = (
                Tensor(v, requires_grad=bool(trainable >> i & 1)) for i, v in enumerate((x, w, b))
            )
            grads = self._backward_of_last_op(lambda: ad.linear([(x_t, w_t)], b_t), g)
            for t, grad in zip((x_t, w_t, b_t), grads):
                assert (grad is None) != t.requires_grad
                assert grad is None or grad.shape == t.shape

    def test_two_input_linear(self):
        rng = np.random.default_rng(11)
        shapes = ((2, 3), (3, 4), (2, 5), (5, 4), (4,))
        values = [rng.standard_normal(shape) for shape in shapes]
        g = np.ones((2, 4))
        for trainable in range(1, 32):
            x0, w0, x1, w1, b = (
                Tensor(v, requires_grad=bool(trainable >> i & 1)) for i, v in enumerate(values)
            )
            grads = self._backward_of_last_op(lambda: ad.linear([(x0, w0), (x1, w1)], b), g)
            assert len(grads) == 5
            for t, grad in zip((x0, w0, x1, w1, b), grads):
                assert (grad is None) != t.requires_grad
                assert grad is None or grad.shape == t.shape

    def test_mse(self):
        p = Tensor(np.ones((2, 3)), requires_grad=True)
        assert self._backward_of_last_op(lambda: ad.mse(p, Tensor(np.zeros((2, 3)))), 1.0)[1] is None


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
    """The row and column softmaxes inside ``info_nce``, read through its loss
    and its gradient. (The class keeps the name of the softmax op these
    cases tested before ``info_nce`` replaced it.)"""

    def test_constant_row_uniform(self):
        # equal rows give equal logits, so both softmaxes are uniform
        rows = np.tile([[0.6, -0.8, 0.0]], (5, 1))
        out = ad.info_nce(Tensor(rows), Tensor(rows), 0.3)
        assert abs(out.item() - 2.0 * np.log(5.0)) < 1e-6

    def test_closed_form(self):
        # logits I: each diagonal softmax entry is e / (e + 1), twice
        eye = Tensor(np.eye(2))
        out = ad.info_nce(eye, eye, 1.0)
        assert abs(out.item() - 2.0 * np.log1p(1.0 / np.e)) < 1e-6
        assert abs(out.item() - 0.6265) < 1e-4

    def test_sharp_temperature_saturates(self):
        eye = Tensor(np.eye(2))
        assert 0.0 <= ad.info_nce(eye, eye, 0.01).item() < 1e-6

    def test_rows_sum_to_one_large_logits(self):
        # logits up to 50/temperature in magnitude stay stable. With a = I
        # the logits are b^T and b's gradient is the logits gradient
        # (P_r + P_c - 2I) / (n t) transposed; it sums to zero because every
        # row of P_r and every column of P_c sums to one.
        rng = np.random.default_rng(2)
        eye = Tensor(np.eye(6))
        for temperature in (1.0, 0.1, 0.01):
            b = Tensor(rng.uniform(-50.0, 50.0, size=(6, 6)) * temperature, requires_grad=True)
            with Tape() as tape:
                loss = ad.info_nce(eye, b, temperature)
            g = backward(loss, tape)[b].values.astype(np.float64)
            assert np.isfinite(loss.item()) and np.all(np.isfinite(g))
            ref = ref_info_nce(np.eye(6), b.values.astype(np.float64), temperature)
            assert abs(loss.item() - ref) < 1e-6 * max(1.0, abs(ref))
            assert abs(g.sum()) < 1e-5 * np.abs(g).max()

    def test_temperature_validation(self):
        rows = Tensor([[1.0, 2.0]])
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ParameterError):
                ad.info_nce(rows, rows, bad)


class TestInfoNCE:
    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            ad.info_nce(Tensor(np.ones((3, 2))), Tensor(np.ones((2, 2))), 1.0)
        with pytest.raises(ShapeError):
            ad.info_nce(Tensor(np.ones(3)), Tensor(np.ones(3)), 1.0)
        with pytest.raises(ShapeError, match="n >= 1"):
            ad.info_nce(Tensor(np.ones((0, 2))), Tensor(np.ones((0, 2))), 1.0)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 8),
        st.integers(1, 5),
        st.floats(0.05, 2.0),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_loop_reference_and_finite_differences(self, n, d, t, seed):
        rng = np.random.default_rng(seed)
        a = Tensor(rng.standard_normal((n, d)), requires_grad=True)
        b = Tensor(rng.standard_normal((n, d)), requires_grad=True)
        a64, b64 = a.values.astype(np.float64), b.values.astype(np.float64)
        ref = ref_info_nce(a64, b64, t)
        assert abs(ad.info_nce(a, b, t).item() - ref) <= 1e-6 * max(1.0, abs(ref))

        with Tape() as tape:
            loss = ad.info_nce(a, b, t)
        grads = backward(loss, tape)
        taped = np.concatenate([grads[a].values.ravel(), grads[b].values.ravel()])
        fd = fd_gradient(
            lambda v: ref_info_nce(v[: n * d].reshape(n, d), v[n * d :].reshape(n, d), t),
            np.concatenate([a64.ravel(), b64.ravel()]),
            step=1e-6,
        )
        assert rel_err(taped, fd) < 1e-3


class TestBackwardContract:
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
            loss = mean_square(ad.add(p, frozen))
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
        # (x + x)^2 must give 8x = 24 at x = 3, catching double visits
        x = Tensor([3.0], requires_grad=True)
        (g,) = grad_of(lambda: mean_square(ad.add(x, x)), x)
        assert np.array_equal(g.values, [24.0])

    def test_nested_tapes_rejected(self):
        with Tape():
            with pytest.raises(ContractError):
                with Tape():
                    pass


class TestDeterminismAndFiniteness:
    def test_bit_identical_forward(self):
        def run():
            rng = np.random.default_rng(42)
            a = Tensor(rng.standard_normal((4, 6)), requires_grad=True)
            b = Tensor(rng.standard_normal((6, 3)))
            c = Tensor(rng.standard_normal((4, 3)))
            zero = Tensor(np.zeros(3))
            untaped = ad.info_nce(ad.linear([(ad.tanh(a), b)], zero), c, 0.07)
            with Tape() as tape:
                taped = ad.info_nce(ad.linear([(ad.tanh(a), b)], zero), c, 0.07)
            grad = backward(taped, tape)[a]
            return untaped.values.tobytes(), taped.values.tobytes(), grad.values.tobytes()

        assert run() == run()

    def test_finite_outputs(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.uniform(-10, 10, size=(5, 5)))
        for out in (
            ad.tanh(x),
            ad.info_nce(x, x, 0.01),
            ad.l2_normalize_rows(x),
            ad.mse(x, ad.scale(x, 0.5)),
        ):
            assert np.all(np.isfinite(out.values))


def _fd_check_primitive(build, seeds, dims):
    """FD-check a primitive on random inputs. The taped loss is ``mean_square``
    of the op's output; the differences take the same mean of squares in
    float64 from the op's untaped output, so that the float32 rounding of the
    scalar loss stays out of them."""
    worst = 0.0
    for seed in seeds:
        rng = np.random.default_rng(seed)
        tensors = [
            Tensor(rng.standard_normal(shape), requires_grad=True) for shape in dims
        ]
        with Tape() as tape:
            loss = mean_square(build(*tensors))
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
                return float(np.mean(build(*subs).values.astype(np.float64) ** 2))

            fd = np.zeros(base.size)
            flat = base.ravel()
            for i in range(base.size):
                up, down = flat.copy(), flat.copy()
                up[i] += 1e-3
                down[i] -= 1e-3
                fd[i] = (f(up) - f(down)) / 2e-3
            worst = max(worst, rel_err(grads[t].values, fd.reshape(t.shape)))
    return worst


_CONST_SIDE = Tensor(np.random.default_rng(8).standard_normal((4, 3)))
# constant operands of the linear cases: an input, a weight, a bias and a
# second weight
_CONST_X, _CONST_W, _CONST_B, _CONST_W2 = (
    Tensor(np.random.default_rng(10).standard_normal(shape))
    for shape in ((3, 4), (4, 5), (5,), (2, 5))
)
_ZERO_B = Tensor(np.zeros(2))
# added to the unit rows of l2norm's case, whose mean of squares is constant.
# Its seed is none of the cases' input seeds: an input equal to it has a zero
# gradient, which the relative error cannot check.
_CONST_ROWS = Tensor(np.random.default_rng(100).standard_normal((3, 6)))


class TestPrimitiveGradients:
    SEEDS = list(range(100))

    # The ids are the ones the suite reported before sub, dot_rows, the
    # softmax op, transpose, concat and diagonal were deleted, so each case
    # keeps its name. The log_softmax case checks info_nce, which now holds
    # the log-softmaxes; the info_nce_const case holds one side constant.
    # Index 7, add_rowvec's until the composition's bias moved into linear,
    # checks a two-input linear. Index 3, matmul's until the composer's
    # output layer became a linear, checks a one-pair linear over a zero bias.
    @pytest.mark.parametrize(
        "name,build,dims",
        [
            pytest.param(name, build, dims, id=f"{name}-<lambda>-dims{i}")
            for i, name, build, dims in [
                (0, "add", lambda a, b: ad.add(a, b), [(3, 4), (3, 4)]),
                (2, "scale", lambda a: ad.scale(a, -1.7), [(4, 4)]),
                (
                    3,
                    "linear_zero_bias",
                    lambda a, b: ad.linear([(a, b)], _ZERO_B),
                    [(3, 4), (4, 2)],
                ),
                (5, "tanh", lambda a: ad.tanh(a), [(4, 4)]),
                (
                    7,
                    "linear_two_inputs",
                    lambda x0, w0, x1, w1, b: ad.tanh(ad.linear([(x0, w0), (x1, w1)], b)),
                    [(3, 4), (4, 5), (3, 2), (2, 5), (5,)],
                ),
                (10, "mse", lambda a, b: ad.mse(a, b), [(3, 4), (3, 4)]),
                (12, "l2norm", lambda a: ad.add(ad.l2_normalize_rows(a), _CONST_ROWS), [(3, 6)]),
                (14, "log_softmax", lambda a, b: ad.info_nce(a, b, 0.5), [(4, 3), (4, 3)]),
                (16, "gather", lambda a: ad.gather_rows(a, [0, 2, 2]), [(4, 3)]),
                (17, "info_nce_const", lambda a: ad.info_nce(a, _CONST_SIDE, 0.5), [(4, 3)]),
                # a tanh after the layer puts a non-linear op between every
                # operand and the reduction
                (
                    18,
                    "linear",
                    lambda x, w, b: ad.tanh(ad.linear([(x, w)], b)),
                    [(3, 4), (4, 5), (5,)],
                ),
                (
                    19,
                    "linear_const_x",
                    lambda w, b: ad.tanh(ad.linear([(_CONST_X, w)], b)),
                    [(4, 5), (5,)],
                ),
                (
                    20,
                    "linear_const_w",
                    lambda x, b: ad.tanh(ad.linear([(x, _CONST_W)], b)),
                    [(3, 4), (5,)],
                ),
                (
                    21,
                    "linear_const_b",
                    lambda x, w: ad.tanh(ad.linear([(x, w)], _CONST_B)),
                    [(3, 4), (4, 5)],
                ),
                # one input in both pairs: its two gradients are summed
                (
                    22,
                    "linear_shared_input",
                    lambda x, w0, w1, b: ad.tanh(ad.linear([(x, w0), (x, w1)], b)),
                    [(3, 4), (4, 5), (4, 5), (5,)],
                ),
                (
                    23,
                    "linear_two_inputs_const_w",
                    lambda x0, x1, b: ad.tanh(ad.linear([(x0, _CONST_W), (x1, _CONST_W2)], b)),
                    [(3, 4), (3, 2), (5,)],
                ),
            ]
        ],
    )
    def test_primitive_fd(self, name, build, dims):
        # 100 seeded inputs per primitive, dimensions <= 16
        worst = _fd_check_primitive(build, self.SEEDS, dims)
        assert worst < 1e-3, f"{name}: worst relative error {worst:.2e}"


def test_backward_visits_each_node_exactly_once():
    # instrument every node's backward fn; on-path nodes fire exactly once
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    y = Tensor(np.full((2, 2), 2.0), requires_grad=True)
    with Tape() as tape:
        shared = ad.add(x, y)
        left = ad.tanh(shared)
        right = ad.scale(shared, 3.0)
        loss = mean_square(ad.add(left, right))
        mean_square(y)  # recorded but not reachable from the loss

    counts = [0] * len(tape._nodes)

    def wrap(fn, slot):
        def inner(g):
            counts[slot] += 1
            return fn(g)

        return inner

    for i, node in enumerate(tape._nodes):
        node.backward_fn = wrap(node.backward_fn, i)

    grads = backward(loss, tape)
    assert counts[-1] == 0  # the dangling reduction never fires
    assert counts[:-1] == [1] * (len(counts) - 1)  # each loss-path node once
    # diamond: d(loss)/dx = tanh'(s) + 3 scaled by the reduction's gradient,
    # routed through one shared node
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
            loss = ad.scale(mean_square(ad.scale(v, 2.0)), 3.0)
        grads = backward(loss, tape)
        assert set(grads) == {v}
        # 3 * mean((2v)^2) at v = 1: 8 per element
        assert np.array_equal(grads[v].values, np.full(3, 8.0, dtype=np.float32))



class TestLeanTape:
    """The tape keeps only what backward reads and routes by node."""

    def test_dropped_linear_output_is_freed_before_backward(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((6, 4)))
        w = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        b = Tensor(rng.standard_normal(5), requires_grad=True)

        def run(keep):
            kept = []
            with Tape() as tape:
                pre = ad.linear([(x, w)], b)
                pre_values = weakref.ref(pre.values)
                if keep:
                    kept.append(pre)
                loss = mean_square(ad.tanh(pre))
                del pre  # tanh keeps its own output, not its input
            gc.collect()
            return pre_values() is not None, backward(loss, tape)

        alive, grads = run(keep=False)
        assert not alive
        alive, kept_grads = run(keep=True)
        assert alive
        assert all(grads[p].values.tobytes() == kept_grads[p].values.tobytes() for p in (w, b))

    def test_backward_twice_gives_the_same_gradients(self):
        # Several losses share one tape, each passed to backward (gate 1).
        rng = np.random.default_rng(4)
        w = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal(4), requires_grad=True)
        images = Tensor(rng.standard_normal((5, 4)))
        with Tape() as tape:
            h = ad.tanh(ad.linear([(images, w)], b))
            rows = ad.l2_normalize_rows(ad.linear([(h, w)], b))
            first = ad.add(ad.info_nce(images, rows, 0.5), ad.mse(rows, h))
            second = mean_square(ad.gather_rows(h, [1, 3]))
        once = backward(first, tape)
        other = backward(second, tape)
        twice = backward(first, tape)
        assert set(once) == set(twice) == set(other) == {w, b}
        assert all(once[p].values.tobytes() == twice[p].values.tobytes() for p in (w, b))

    def test_tensor_from_an_earlier_tape_is_a_leaf(self):
        w = Tensor(np.linspace(-1.0, 1.0, 6).reshape(2, 3), requires_grad=True)
        with Tape():
            h = ad.tanh(w)
            earlier_loss = mean_square(h)
        with Tape() as tape:
            loss = mean_square(ad.scale(h, 2.0))
        grads = backward(loss, tape)
        assert set(grads) == {h}  # the earlier tape is not replayed
        # mean((2h)^2): 2 (2h) / 6, times 2, in the tape's order of operations
        h64 = h.values.astype(np.float64)
        expect = ((2.0 / 6) * (2.0 * h64) * 2.0).astype(np.float32)
        assert np.array_equal(grads[h].values, expect)
        with pytest.raises(ContractError, match="not produced on this tape"):
            backward(earlier_loss, tape)

    def test_len_counts_recorded_nodes_after_backward(self):
        w = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            loss = mean_square(ad.tanh(ad.scale(w, 0.5)))
        assert len(tape) == 3
        backward(loss, tape)
        assert len(tape) == 3

# ---------------------------------------------------------------------------
# random graphs: tape gradients against finite differences of an
# extended-precision (np.longdouble) evaluation of the same graph

_AD_OPS = {
    "add": ad.add,
    "tanh": ad.tanh,
    "linear": ad.linear,
    "mse": ad.mse,
    "info_nce": ad.info_nce,
}


def _info_nce_in_dtype(a, b, tau):
    """``ref_info_nce`` without its float casts, so it keeps the inputs' dtype."""

    def mean_diag_log_softmax(sims):
        m = sims.max(axis=1, keepdims=True)
        log_sm = sims - m - np.log(np.exp(sims - m).sum(axis=1, keepdims=True))
        return np.trace(log_sm) / sims.shape[0]

    sims = (a @ b.T) / tau
    return -(mean_diag_log_softmax(sims) + mean_diag_log_softmax(sims.T))


# None of these casts to float, so a longdouble graph stays longdouble.
_NP_OPS = {
    "add": np.add,
    "tanh": np.tanh,
    "linear": lambda pairs, b: sum(x @ w for x, w in pairs) + b,
    "mse": lambda a, b: np.mean((a - b) ** 2),
    "info_nce": _info_nce_in_dtype,
}


def _run_graph(program, leaves, ops):
    """Evaluate a graph program with one set of ops. Every node is [m x n];
    ``("linear", ((i, w), ...), b)`` sums node i times leaf w over its pairs
    and adds leaf b. The last instruction is the scalar loss,
    ``("mse", i, j)`` or ``("info_nce", i, j, t)``."""
    nodes = []
    for kind, *args in program:
        if kind == "leaf":
            nodes.append(leaves[args[0]])
        elif kind in ("add", "tanh"):
            nodes.append(ops[kind](*(nodes[i] for i in args)))
        elif kind == "linear":
            pairs, b = args
            nodes.append(ops[kind]([(nodes[i], leaves[w]) for i, w in pairs], leaves[b]))
        else:
            return ops[kind](nodes[args[0]], nodes[args[1]], *args[2:])


@st.composite
def _graphs(draw):
    """A random program over [m x n] nodes, the leaf shapes it reads, which
    leaves require a gradient, and the seed of the leaf values."""
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    shapes, program = [], []

    def leaf(shape):
        shapes.append(shape)
        return len(shapes) - 1

    for _ in range(draw(st.integers(1, 3))):
        program.append(("leaf", leaf((m, n))))
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["add", "tanh", "linear", "linear_two_inputs"]))
        i = draw(st.integers(0, len(program) - 1))
        if kind == "add":
            program.append((kind, i, draw(st.integers(0, len(program) - 1))))
        elif kind == "tanh":
            program.append((kind, i))
        else:
            inputs = [i] if kind == "linear" else [i, draw(st.integers(0, len(program) - 1))]
            pairs = tuple((j, leaf((n, n))) for j in inputs)
            program.append(("linear", pairs, leaf((n,))))
    last, other = len(program) - 1, draw(st.integers(0, len(program) - 1))
    if draw(st.booleans()):
        program.append(("mse", last, other))
    else:
        program.append(("info_nce", last, other, draw(st.floats(0.5, 2.0))))
    trainable = [draw(st.booleans()) for _ in shapes]
    return program, shapes, trainable, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=200, deadline=None)
@given(_graphs())
# A 1x1 graph whose gradient a step-1e-3 central difference misses by 8.8e-8
# in 1.07e-5 (truncation error), which broke the 1e-3 tolerance.
@example(
    (
        [("leaf", 0), ("leaf", 1), ("add", 0, 1), ("add", 0, 0), ("tanh", 2), ("mse", 4, 0)],
        [(1, 1), (1, 1)],
        [True, False],
        0,
    )
)
# A loss that does not depend on the trainable weight (mse of (a + b) - a):
# its gradient is exactly zero, but float64 rounding of the loss put 1.3e-9
# into the step-1e-6 difference, over the 1e-9 that the 1e-6 floor of rel_err
# allows. The longdouble reference keeps it far below. (Found with a
# bias-only add in place of node 4's layer and a bare product at node 2;
# node 2's constant bias is leaf 4, so leaves 0-3 keep their values.)
@example(
    (
        [
            ("leaf", 0),
            ("add", 0, 0),
            ("linear", ((0, 1),), 4),
            ("tanh", 0),
            ("linear", ((1, 3),), 2),
            ("tanh", 0),
            ("add", 2, 4),
            ("mse", 6, 2),
        ],
        [(1, 3), (3, 3), (3,), (3, 3), (3,)],
        [False, True, False, False, False],
        508,
    )
)
def test_tape_gradients_match_finite_differences_on_random_graphs(graph):
    program, shapes, trainable, seed = graph
    rng = np.random.default_rng(seed)
    leaves = [
        Tensor(rng.standard_normal(shape), requires_grad=t) for shape, t in zip(shapes, trainable)
    ]
    with Tape() as tape:
        loss = _run_graph(program, leaves, _AD_OPS)
    if not loss.requires_grad:
        # no leaf that needs a gradient reaches the loss
        with pytest.raises(ContractError):
            backward(loss, tape)
        return
    grads = backward(loss, tape)
    params = [t for t in leaves if t.requires_grad]
    assert set(grads) <= set(params)  # no constant leaf in the result

    values = [t.values.astype(np.longdouble) for t in leaves]
    sizes = np.cumsum([0] + [t.size for t in params])

    def loss_ext(vec):
        subs = list(values)
        for k, t in enumerate(params):
            subs[leaves.index(t)] = vec[sizes[k] : sizes[k + 1]].reshape(t.shape)
        return _run_graph(program, subs, _NP_OPS)

    # A small step keeps the difference's truncation error far below the
    # tolerance; the longdouble graph keeps its rounding error, which the
    # step divides into, below it too (float64 rounding did not).
    start = np.concatenate([values[leaves.index(t)].ravel() for t in params])
    fd = fd_gradient(loss_ext, start, step=1e-6)
    taped = np.concatenate(
        [grads[t].values.ravel() if t in grads else np.zeros(t.size) for t in params]
    )
    assert rel_err(taped, fd) < 1e-3

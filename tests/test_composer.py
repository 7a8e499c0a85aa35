import numpy as np
import pytest

import cirmap.autodiff as ad
from cirmap.autodiff import Tape, Tensor, backward
from cirmap.composer import PromptComposer
from cirmap.errors import ShapeError, TemplateError
from oracles import oracle, rel_err, unit_rows


def row(values) -> Tensor:
    """A single slot vector as a batch of one."""
    return Tensor(np.asarray(values).reshape(1, -1))


SEED = 77


@pytest.fixture(scope="module")
def composer():
    return PromptComposer(16, SEED)


def test_output_unit_norm(composer):
    rng = np.random.default_rng(0)
    for _ in range(20):
        slots = [row(rng.standard_normal(16))]
        out = composer.compose_rows("photo_of", slots)
        assert abs(np.linalg.norm(out.values.astype(np.float64)) - 1.0) < 1e-6


def test_same_seed_bit_identical():
    a = PromptComposer(16, 5)
    b = PromptComposer(16, 5)
    assert a.weights_hash() == b.weights_hash()
    slot = row(np.linspace(-1, 1, 16))
    out_a = a.compose_rows("photo_of", [slot])
    out_b = b.compose_rows("photo_of", [slot])
    assert np.array_equal(out_a.values, out_b.values)


def test_different_seed_differs():
    a = PromptComposer(16, 5)
    b = PromptComposer(16, 6)
    assert a.weights_hash() != b.weights_hash()


def test_arity_mismatch(composer):
    slot = row(np.ones(16))
    with pytest.raises(TemplateError):
        composer.compose_rows("photo_of", [slot, slot])
    with pytest.raises(TemplateError):
        composer.compose_rows("photo_of_that", [slot])
    with pytest.raises(TemplateError):
        composer.compose_rows("photo_of_this", [slot])


def test_dim_below_two_rejected():
    with pytest.raises(ShapeError, match="composer dim must be >= 2, got 1"):
        PromptComposer(1, 5)


def test_slot_dimension_checked(composer):
    with pytest.raises(ShapeError):
        composer.compose_rows("photo_of", [row(np.ones(8))])


def test_slot_blocks_must_share_a_batch_size(composer):
    with pytest.raises(ShapeError):
        composer.compose_rows("photo_of_that", [Tensor(np.ones((3, 16))), Tensor(np.ones((2, 16)))])


def test_gradient_through_slots_matches_fd(composer):
    cw = oracle.composer_weights(16, SEED)
    rng = np.random.default_rng(1)
    for template, arity in (("photo_of", 1), ("photo_of_that", 2)):
        slots = [
            Tensor(rng.standard_normal((1, 16)), requires_grad=True) for _ in range(arity)
        ]
        coord = int(rng.integers(16))
        onehot = np.zeros(16)
        onehot[coord] = 1.0

        # the loss is the square of the one coordinate the projection reads
        with Tape() as tape:
            out = composer.compose_rows(template, slots)
            picked = ad.linear([(out, Tensor(onehot.reshape(16, 1)))], Tensor(np.zeros(1)))
            loss = ad.mse(picked, Tensor(np.zeros((1, 1))))
        grads = backward(loss, tape)

        for si, slot in enumerate(slots):
            base = slot.values.astype(np.float64).ravel()

            def f(vec, si=si):
                rows = [
                    vec.reshape(1, 16) if j == si else slots[j].values.reshape(1, 16)
                    for j in range(arity)
                ]
                return oracle.compose_rows(cw, template, rows)[0, coord] ** 2

            fd = np.zeros(16)
            for i in range(16):
                up, down = base.copy(), base.copy()
                up[i] += 1e-3
                down[i] -= 1e-3
                fd[i] = (f(up) - f(down)) / 2e-3
            assert rel_err(grads[slot].values, fd) < 1e-3


def test_no_gradients_for_frozen_weights(composer):
    slot = Tensor(np.linspace(0.1, 1.0, 16).reshape(1, 16), requires_grad=True)
    with Tape() as tape:
        out = composer.compose_rows("photo_of", [slot])
        loss = ad.mse(out, Tensor(np.zeros(out.shape)))
    grads = backward(loss, tape)
    assert set(grads) == {slot}


def test_frozen_weights_unchanged_by_use(composer):
    before = composer.weights_hash()
    rng = np.random.default_rng(2)
    composer.compose_rows("photo_of_that", [Tensor(unit_rows(rng, 4, 16))] * 2)
    assert composer.weights_hash() == before


def test_hashed_weights_are_read_only():
    # The hash covers the arrays a composition reads: none can be written.
    # Writable private copies once let a write change the hash and no output.
    composer = PromptComposer(16, 8)
    arrays = [composer._w1, composer._b1, composer._w2, *composer._template_vectors.values()]
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0.0
    for weight in (*composer._w1_slots_t, composer._w2_t):
        assert any(np.shares_memory(weight.values, arr) for arr in arrays)


def test_injectivity_at_desk_scale():
    # 1000 distinct random slots map to outputs without near-collisions
    composer = PromptComposer(16, 99)
    rng = np.random.default_rng(3)
    slots = unit_rows(rng, 1000, 16)
    out = composer.compose_rows("photo_of", [Tensor(slots)]).values.astype(np.float64)
    gram = out @ out.T
    np.fill_diagonal(gram, -1.0)
    assert gram.max() < 1.0 - 1e-5


def test_batch_of_one_matches_batch_row(composer):
    # a single prompt is a batch of one; it agrees with its row in a batch
    rng = np.random.default_rng(4)
    conds = unit_rows(rng, 5, 16)
    batched = composer.compose_rows("photo_of", [Tensor(conds)]).values
    single = composer.compose_rows("photo_of", [row(conds[2])]).values
    assert single.shape == (1, 16)
    assert rel_err(single[0], batched[2]) < 1e-6


def test_photo_of_moves_generic_inputs():
    composer = PromptComposer(16, 13)
    rng = np.random.default_rng(4)
    conds = unit_rows(rng, 100, 16)
    outs = composer.compose_rows("photo_of", [Tensor(conds)]).values.astype(np.float64)
    cosines = np.sum(outs * conds, axis=1)
    assert np.all(cosines < 1.0 - 1e-4)


def test_matches_reference_forward(composer):
    rng = np.random.default_rng(5)
    rows = [unit_rows(rng, 6, 16), unit_rows(rng, 6, 16)]
    out = composer.compose_rows("photo_of_that", [Tensor(r) for r in rows]).values
    ref = oracle.compose_rows(oracle.composer_weights(16, SEED), "photo_of_that", rows)
    assert rel_err(out, ref) < 1e-5

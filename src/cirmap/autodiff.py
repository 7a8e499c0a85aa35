"""Dense float32 tensors with a reverse-mode differentiation tape.

Values are stored as 32-bit floats. The precision contract depends on
whether an op is recorded on a tape:

- A taped :func:`linear` and :func:`tanh` run forward and backward in
  float32, the storage precision; the gradients they pass to each other
  stay float32. A bias gradient is the batch sum of the upstream
  gradient, taken in float64.
- Softmaxes (inside :func:`info_nce`), :func:`l2_normalize_rows`,
  :func:`mse` and the remaining ops evaluate forward and backward in 64-bit,
  taped or not, and truncate their result to the storage format; :func:`add`
  passes its upstream gradient on as it is. :func:`info_nce` runs its logits
  GEMM and its backward GEMMs by the float32 rule when taped.
- An untaped op (inference, world generation) evaluates in 64-bit and
  truncates its result. An untaped :func:`linear` evaluates each product
  in 64-bit and truncates it, then sums the products and adds the bias row
  with the bytes of 64-bit sums truncated, as :func:`add` gives.
- A node that receives gradients from two or more consumers sums them in
  64-bit. Leaf gradients come out of :func:`backward` as float32.

Results are deterministic for a fixed BLAS and thread count, with enough
precision headroom for finite-difference verification.

Each op's backward computes only the gradients its parents need: a parent
that does not require a gradient gets None, and the op holds no operand
for it.

Operations record onto the currently active :class:`Tape` (a context
manager), so a fresh graph is built per training step and dropped afterwards.
A tape is confined to one training context; nesting tapes is rejected.

The tape keeps only what backward reads (Chen et al. 2016, arXiv
1604.06174). Each recorded op leaves a node holding its backward closure and,
per parent, where that parent's gradient goes: the parent's node on the same
tape, the parent itself if it is a leaf, or nowhere. A node holds no output
and no parent tensor, and :func:`backward` routes by node. What the closures
keep:

- :func:`linear` (per pair): each side's operand only if the other side
  needs a gradient; :func:`info_nce` the same, and its [n x n] float64
  softmax coefficients.
- :func:`tanh`: its float32 output.
- :func:`l2_normalize_rows`: its float64 output and row norms.
- :func:`mse`: the float64 difference of its operands.
- :func:`gather_rows`: the row indices.
- :func:`add` and :func:`scale`: no array.

So a taped output lives while its caller or a backward closure holds it: a
:func:`linear` output that feeds :func:`tanh` is freed as soon as the caller
drops it, during the forward pass. The tape is not consumed by
:func:`backward`, so one tape serves several losses.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ContractError, DegenerateInputError, ParameterError, ShapeError

_ROW_NORM_EPS = 1e-12

_active_tape: "Tape | None" = None


class Tensor:
    """Immutable dense array of float32 values.

    ``requires_grad`` marks leaves whose gradients should be produced by
    :func:`backward`; for op outputs it is derived from the parents. A taped
    op output records the node that produced it, which holds the graph behind
    it; a leaf, or any untaped tensor, has none.

    An array that is already float32, C-contiguous and read-only is taken
    over, not copied, so a tensor can be a view of a larger buffer. The
    buffer may be a read-only view of a buffer its owner still writes (the
    trainer's parameter vector): the owner may write it only while no tape
    and no graph built from the tensor is alive, since taped ops keep views
    of their operands for the backward pass. Any other input is copied and
    the copy made read-only.
    """

    __slots__ = ("values", "requires_grad", "_node")

    def __init__(self, values, requires_grad: bool = False):
        if not _frozen_f32(values):
            values = np.array(values, dtype=np.float32, order="C", copy=True)
            values.flags.writeable = False
        self.values = values
        self.requires_grad = bool(requires_grad)
        self._node: _Node | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def size(self) -> int:
        return self.values.size

    def item(self) -> float:
        if self.values.size != 1:
            raise ContractError(f"item() on tensor of shape {self.shape}")
        return float(self.values.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class _Node:
    """One recorded op: its backward closure and one routing target per
    parent, in parent order. A target is the parent's node on the same tape,
    the parent tensor itself when it is a leaf of this tape (a tensor
    produced on another tape counts as one), or None for a parent that needs
    no gradient. ``tape_key`` names the tape that recorded the node."""

    __slots__ = ("backward_fn", "targets", "tape_key")

    def __init__(self, backward_fn, targets, tape_key):
        self.backward_fn = backward_fn
        self.targets = targets
        self.tape_key = tape_key


class Tape:
    """Ordered record of primitive operations for one backward pass.

    Creation order is a topological order of the graph, so replaying the
    node list in reverse visits every node exactly once in reverse
    topological order.
    """

    def __init__(self):
        self._nodes: list[_Node] = []
        # Held by every node of this tape and by nothing that holds the tape.
        self._key = object()

    def __enter__(self) -> "Tape":
        global _active_tape
        if _active_tape is not None:
            raise ContractError("a tape is already active; tapes do not nest")
        _active_tape = self
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        global _active_tape
        _active_tape = None

    def _owns(self, t: Tensor) -> bool:
        return t._node is not None and t._node.tape_key is self._key

    def _record(self, parents: tuple[Tensor, ...], backward_fn) -> _Node:
        targets = tuple(
            p._node if self._owns(p) else p if p.requires_grad else None for p in parents
        )
        node = _Node(backward_fn, targets, self._key)
        self._nodes.append(node)
        return node

    def __len__(self) -> int:
        return len(self._nodes)


def _frozen_f32(values) -> bool:
    return (
        isinstance(values, np.ndarray)
        and values.dtype == np.float32
        and values.flags.c_contiguous
        and not values.flags.writeable
    )


def _tracked(parents: tuple[Tensor, ...]) -> bool:
    """Whether an op over these parents is recorded: a tape is active and
    some parent needs a gradient."""
    return _active_tape is not None and any(p.requires_grad for p in parents)


def _frozen(values) -> np.ndarray:
    """A fresh result as a read-only float32 C-contiguous array: one that
    already is float32 and C-contiguous is frozen and taken over, anything
    else is truncated to one."""
    arr = np.asarray(values, dtype=np.float32, order="C")
    arr.flags.writeable = False
    return arr


def _make(values, parents: tuple[Tensor, ...], backward_fn: Callable | None) -> Tensor:
    """Create an op output, recording it when :func:`_tracked`.

    ``values`` must be the op's own fresh result (see :func:`_frozen`).
    ``backward_fn`` maps the upstream gradient to one gradient per parent,
    or None for a parent that needs none.
    """
    track = _tracked(parents)
    out = Tensor(_frozen(values), requires_grad=track)
    if track:
        out._node = _active_tape._record(parents, backward_fn)
    return out


def _f64(t: Tensor) -> np.ndarray:
    return t.values.astype(np.float64)


def backward(loss: Tensor, tape: Tape) -> dict[Tensor, Tensor]:
    """Accumulate gradients of a scalar loss and return them per leaf parameter.

    A gradient is passed on in the precision its op produced it; where two or
    more consumers reach one node or leaf, their gradients are summed in
    64-bit. The returned map holds float32 gradients. Only leaves with
    ``requires_grad=True`` appear; detached inputs and frozen weights are
    never materialized. A tensor produced on another tape is a leaf here.

    Gradients are routed from node to node, never by object id. The tape is
    read, not changed, so a second call on it gives the same gradients.
    """
    if loss.values.ndim != 0:
        raise ContractError(f"backward expects a scalar loss, got shape {loss.shape}")
    if not tape._owns(loss):
        raise ContractError("loss was not produced on this tape (not reachable from parameters)")

    slots: dict[_Node, np.ndarray] = {loss._node: np.ones((), dtype=np.float64)}
    leaf_grads: dict[Tensor, np.ndarray] = {}

    for node in reversed(tape._nodes):
        upstream = slots.pop(node, None)
        if upstream is None:
            continue
        parent_grads = node.backward_fn(upstream)
        for target, grad in zip(node.targets, parent_grads):
            if grad is None or target is None:
                continue
            table = slots if isinstance(target, _Node) else leaf_grads
            acc = table.get(target)
            table[target] = grad if acc is None else np.add(acc, grad, dtype=np.float64)

    return {p: Tensor(_frozen(g)) for p, g in leaf_grads.items()}


# ---------------------------------------------------------------------------
# primitives


def _check_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} differ")


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "add")
    return _make(_f64(a) + _f64(b), (a, b), lambda g: (g, g))


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return _make(_f64(a) * c, (a,), lambda g: (np.multiply(g, c, dtype=np.float64),))


def linear(pairs: Iterable[tuple[Tensor, Tensor]], b: Tensor) -> Tensor:
    """One dense layer: the sum of ``x @ w`` over the (input, weight)
    ``pairs``, plus the bias row ``b`` added to every row. A layer passes one
    pair; a composition passes one pair per slot. Products, partial sums and
    the bias follow the precision rules of the module docstring.
    """
    pairs = tuple(pairs)
    for x, w in pairs:
        if x.values.ndim != 2 or w.values.ndim != 2 or x.shape[1] != w.shape[0]:
            raise ShapeError(f"linear: cannot multiply {x.shape} by {w.shape}")
    out_shapes = {(x.shape[0], w.shape[1]) for x, w in pairs}
    if len(out_shapes) != 1 or b.values.ndim != 1 or b.shape[0] != min(out_shapes)[1]:
        raise ShapeError(f"linear: products of shapes {sorted(out_shapes)} and bias {b.shape}")
    parents = (*(t for pair in pairs for t in pair), b)
    track = _tracked(parents)
    # The sums run in float32, taped or not: a float64 sum of two float32
    # values rounds to their float32 sum (53 >= 2 * 24 + 2 bits), so untaped
    # sums have the bytes of 64-bit sums truncated, as add gives.
    y = None
    for x, w in pairs:
        xw = x.values @ w.values if track else (_f64(x) @ _f64(w)).astype(np.float32)
        y = xw if y is None else np.add(y, xw, out=y)
    y += b.values
    if not track:
        return _make(y, parents, None)
    # Each side's gradient needs the other side's values; hold only those.
    held = [
        (x.values.T if w.requires_grad else None, w.values.T if x.requires_grad else None)
        for x, w in pairs
    ]
    need_b = b.requires_grad

    def grad(g):
        g32 = g.astype(np.float32, copy=False)
        grads = []
        for x_t, w_t in held:
            grads += (None if w_t is None else g32 @ w_t, None if x_t is None else x_t @ g32)
        grads.append(g.sum(axis=0, dtype=np.float64) if need_b else None)
        return grads

    return _make(y, parents, grad)


def tanh(a: Tensor) -> Tensor:
    """Elementwise tanh; taped, it runs forward and backward in float32."""
    if not _tracked((a,)):
        return _make(np.tanh(_f64(a)), (a,), None)
    y = np.tanh(a.values)

    def grad(g):
        slope = np.multiply(y, y, out=np.empty_like(y))
        np.subtract(1.0, slope, out=slope)
        return (np.multiply(slope, g.astype(np.float32, copy=False), out=slope),)

    return _make(y, (a,), grad)


def mse(a: Tensor, b: Tensor) -> Tensor:
    """Mean squared error over all elements."""
    _check_same_shape(a, b, "mse")
    diff = _f64(a) - _f64(b)
    n = a.size
    need_b = b.requires_grad

    def grad(g):
        d = (2.0 * float(g) / n) * diff
        return d, -d if need_b else None

    return _make(np.mean(diff * diff), (a, b), grad)


def l2_normalize_rows(a: Tensor) -> Tensor:
    """Scale every row to unit Euclidean norm; rejects rows with norm at most
    1e-12."""
    if a.values.ndim != 2:
        raise ShapeError(f"l2_normalize_rows expects a 2-D tensor, got {a.shape}")
    av = _f64(a)
    norms = np.linalg.norm(av, axis=1, keepdims=True)
    if not np.all(norms > _ROW_NORM_EPS):
        bad = int(np.argmin(norms))
        raise DegenerateInputError(
            f"row {bad} has norm {float(norms[bad, 0]):.3e} <= {_ROW_NORM_EPS:.0e}"
        )
    y = av / norms

    def grad(g):
        return ((g - y * np.sum(g * y, axis=1, keepdims=True)) / norms,)

    return _make(y, (a,), grad)


def _row_softmax(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row softmax of a square matrix, stabilized by the row max, and its log
    at the diagonal, taken in log space so that it stays finite where the
    probability underflows."""
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=1, keepdims=True)
    return e / total, np.diagonal(shifted) - np.log(total[:, 0])


def info_nce(a: Tensor, b: Tensor, temperature: float) -> Tensor:
    """Symmetric InfoNCE of two aligned [n x d] blocks: the mean over rows of
    -log softmax(a b^T / t) at the diagonal, plus the same over columns.

    Its GEMMs follow the :func:`linear` precision rule, its softmaxes run in
    64-bit (module docstring). The backward is analytic: with row and column
    softmaxes P_r and P_c, the logits gradient is (P_r + P_c - 2I) g / (n t).
    """
    t = float(temperature)
    if not np.isfinite(t) or t <= 0.0:
        raise ParameterError(f"temperature must be positive, got {temperature!r}")
    if a.values.ndim != 2 or a.shape != b.shape or a.shape[0] < 1:
        raise ShapeError(
            f"info_nce expects two [n x d] blocks with n >= 1, got {a.shape} and {b.shape}"
        )
    track = _tracked((a, b))
    z = (a.values @ b.values.T).astype(np.float64) if track else _f64(a) @ _f64(b).T
    z /= t
    p_row, log_p_row = _row_softmax(z)
    p_col, log_p_col = _row_softmax(z.T)
    loss = -(np.mean(log_p_row) + np.mean(log_p_col))
    if not track:
        return _make(loss, (a, b), None)
    n = a.shape[0]
    coef = p_row + p_col.T
    coef[np.diag_indices(n)] -= 2.0
    # Each side's gradient needs the other side's values; hold only those.
    a_v = a.values if b.requires_grad else None
    b_v = b.values if a.requires_grad else None

    def grad(g):
        gz = (coef * (float(g) / (n * t))).astype(np.float32)
        return (None if b_v is None else gz @ b_v, None if a_v is None else gz.T @ a_v)

    return _make(loss, (a, b), grad)


def gather_rows(a: Tensor, indices: Sequence[int]) -> Tensor:
    if a.values.ndim != 2:
        raise ShapeError(f"gather_rows expects a 2-D tensor, got {a.shape}")
    idx = np.asarray(list(indices), dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= a.shape[0]):
        raise ShapeError(f"gather_rows index out of range for {a.shape[0]} rows")
    shp = a.shape

    def grad(g):
        out = np.zeros(shp, dtype=np.float64)
        np.add.at(out, idx, g)
        return (out,)

    return _make(_f64(a)[idx], (a,), grad)

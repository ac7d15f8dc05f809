"""Dense-array numeric kernel with reverse-mode derivative accumulation.

Everything is float64. Forward primitives record their adjoints on the
active ComputeRecord; ``backward`` replays the record in reverse and
accumulates gradients into the participating Parameters. Ops work on row
batches, and the op set is exactly what the matrix-form message-passing
model needs: ``gather`` (rows or elements, e.g. embedding lookups),
``add`` of two same-shape tensors, ``affine`` maps (of one input, or of
parts read by weight column block), ``relu``, ``segment_sum`` (rows
summed onto segments), ``scale`` by a constant, the fused L1 loss
``mean_abs_error``, and ``message_layer``, one whole message-passing
layer up to its update activation as a single op with a hand-written
adjoint. Every scatter-add, a Parameter's gather adjoint included, is one
``bincount`` onto zeros, which sums in input order exactly as
``np.add.at`` does; the layer reads its flat slots from a per-graph cache.

``Adam`` packs its parameters into one flat value buffer and one flat
gradient buffer and makes each Parameter's ``values`` and ``grad`` views
into them, so a step and a gradient reset are a few whole-buffer
operations; build one optimizer per parameter set.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


class DimensionError(ValueError):
    pass


class Tensor:
    __slots__ = ("values",)

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    def item(self) -> float:
        return float(self.values)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.values.shape})"


class Parameter(Tensor):
    __slots__ = ("grad", "name")

    def __init__(self, values, name: str):
        super().__init__(values)
        self.grad = np.zeros_like(self.values)
        self.name = name

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.values.shape})"


_ACTIVE: list["ComputeRecord"] = []


class ComputeRecord:
    """Tape of primitive ops from one forward pass, replayable in reverse."""

    def __init__(self) -> None:
        self._steps: list[tuple[Tensor, object]] = []

    def __enter__(self) -> "ComputeRecord":
        _ACTIVE.append(self)
        return self

    def __exit__(self, *exc) -> None:
        _ACTIVE.pop()

    def __len__(self) -> int:
        return len(self._steps)

    def _push(self, out: Tensor, adjoint) -> None:
        self._steps.append((out, adjoint))


def _tape() -> ComputeRecord | None:
    return _ACTIVE[-1] if _ACTIVE else None


def backward(loss: Tensor, record: ComputeRecord) -> None:
    """Accumulate d(loss)/d(param) into every participating Parameter.

    The loss must be scalar and must have been produced on ``record``.
    Gradients add onto whatever is already in ``param.grad`` so batches can
    accumulate across calls. Reset them between batches: ``Adam.zero_grad``
    for the parameters an optimizer holds, ``zero_gradients`` for any list.
    """
    if loss.values.ndim != 0 and loss.values.size != 1:
        raise DimensionError(f"loss must be scalar, got shape {loss.values.shape}")
    if len(record) == 0:
        raise ValueError("empty compute record")
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.values)}

    def accumulate(target: Tensor, grad: np.ndarray, index=None) -> None:
        """Add ``grad`` onto ``target``, or scatter-add it at ``index``."""
        if index is not None:
            grad = _scatter_add(index, grad, target.values.shape)
        if isinstance(target, Parameter):
            target.grad += grad
            return
        key = id(target)
        if key in grads:
            grads[key] = grads[key] + grad
        else:
            grads[key] = grad

    for out, adjoint in reversed(record._steps):
        g = grads.pop(id(out), None)
        if g is None:
            continue
        adjoint(g, accumulate)


def zero_gradients(params) -> None:
    for p in params:
        p.grad[...] = 0.0


def _scatter_add(index: tuple[np.ndarray, ...], values: np.ndarray, shape) -> np.ndarray:
    """A zero array of ``shape`` with ``values`` added at ``index`` (one
    integer array per leading axis), repeats summed in input order.

    The bits equal ``np.add.at`` onto zeros: ``bincount`` adds each weight
    in input order onto +0, one flat slot per (index, trailing column).
    """
    lead = len(index)
    flat = index[0]
    for axis in range(1, lead):
        flat = flat * shape[axis] + index[axis]
    flat = flat.reshape(-1)
    width = math.prod(shape[lead:])
    if width != 1:
        flat = (flat[:, None] * width + np.arange(width)).reshape(-1)
    return np.bincount(
        flat, weights=values.reshape(-1), minlength=math.prod(shape)
    ).reshape(shape)


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------


def gather(x: Tensor, index) -> Tensor:
    """Rows of ``x`` at an integer index (scalar or array), or its elements
    at a tuple of index arrays, one per leading axis. Repeated indices
    scatter-add their gradients."""
    index = tuple(
        np.asarray(i, dtype=np.intp) for i in (index if isinstance(index, tuple) else (index,))
    )
    if len(index) > x.values.ndim:
        raise DimensionError(f"{len(index)} index arrays for a tensor of shape {x.shape}")
    for axis, idx in enumerate(index):
        size = x.values.shape[axis]
        if idx.size and (idx.min() < 0 or idx.max() >= size):
            raise IndexError(f"gather index out of range [0, {size}) on axis {axis}")
    if len(index) == 1:
        out = Tensor(np.take(x.values, index[0], axis=0))
    else:
        out = Tensor(x.values[index])
    tape = _tape()
    if tape is not None:
        tape._push(out, lambda g, acc: acc(x, g, index=index))
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    """Element-wise sum of two tensors of one shape."""
    if a.values.shape != b.values.shape:
        raise DimensionError(f"add shape mismatch: {a.shape} vs {b.shape}")
    out = Tensor(a.values + b.values)
    tape = _tape()
    if tape is not None:

        def adjoint(g, acc):
            acc(a, g)
            acc(b, g)

        tape._push(out, adjoint)
    return out


def affine(x: Tensor | list[Tensor], weight: Parameter, bias: Parameter) -> Tensor:
    """``x @ weight.T + bias`` for a vector or a batch of rows, or for a list of
    parts joined along features, never built: each part meets its own block
    of weight columns, and a one-dimensional part is a row shared by the batch."""
    parts = x if isinstance(x, list) else [x]
    columns, width, batch = [], 0, None
    for part in parts:
        shape = part.values.shape
        if len(shape) not in (1, 2) or len(shape) == 2 and batch not in (None, shape[0]):
            raise DimensionError(f"affine expects vectors or rows of one batch, "
                                 f"got {[part.shape for part in parts]}")
        batch = shape[0] if len(shape) == 2 else batch
        columns.append(slice(width, width + shape[-1]))
        width += shape[-1]
    if weight.values.shape[1:] != (width,):  # a matrix with one column per input feature
        shapes = " + ".join(str(part.shape) for part in parts)
        raise DimensionError(f"affine shape mismatch: weight {weight.shape} vs input {shapes}")
    if bias.values.shape != (weight.values.shape[0],):
        raise DimensionError(
            f"affine bias shape {bias.shape} does not match weight {weight.shape}"
        )
    values = parts[0].values @ weight.values[:, columns[0]].T
    for part, cols in zip(parts[1:], columns[1:]):
        values = values + part.values @ weight.values[:, cols].T
    values += bias.values
    out = Tensor(values)
    tape = _tape()
    if tape is not None:

        def adjoint(g, acc):
            g_rows = g.reshape(-1, g.shape[-1])
            g_in = g_rows @ weight.values
            # blocks go into one array: += into a column block is several times slower
            g_weight = np.empty_like(weight.values)
            for part, cols in zip(parts, columns):
                shared = part.values.ndim == 1  # one row shared by the batch
                rows = part.values[None].repeat(len(g_rows), 0) if shared else part.values
                np.matmul(g_rows.T, rows, out=g_weight[:, cols])
                acc(part, g_in[:, cols].sum(axis=0) if shared else g_in[:, cols])
            acc(weight, g_weight)
            acc(bias, g_rows.sum(axis=0))

        tape._push(out, adjoint)
    return out


def relu(x: Tensor) -> Tensor:
    out = Tensor(np.maximum(x.values, 0.0))
    tape = _tape()
    if tape is not None:
        mask = x.values > 0.0
        tape._push(out, lambda g, acc: acc(x, g * mask))
    return out


def segment_sum(x: Tensor, segments, num_segments: int) -> Tensor:
    """Sum the rows of ``x`` into ``num_segments`` rows: row i adds onto row
    ``segments[i]``, in row order. A segment no row names stays zero (the
    isolated-node convention)."""
    segments = np.asarray(segments, dtype=np.intp)
    if segments.shape != x.values.shape[:1]:
        raise DimensionError(
            f"segment_sum needs one segment id per row: {segments.shape} vs {x.shape}"
        )
    if segments.size and (segments.min() < 0 or segments.max() >= num_segments):
        raise IndexError(f"segment id out of range [0, {num_segments})")
    out = Tensor(_scatter_add((segments,), x.values, (num_segments,) + x.values.shape[1:]))
    tape = _tape()
    if tape is not None:
        tape._push(out, lambda g, acc: acc(x, np.take(g, segments, axis=0)))
    return out


def message_layer(
    h: Tensor,
    edge_table: Tensor,
    msg_w: Parameter,
    msg_b: Parameter,
    upd_w: Parameter,
    upd_b: Parameter,
    index,
) -> Tensor:
    """One message-passing layer before its update activation, as one op.

    With ``d`` the width of the (atoms, d) node rows ``h``, the message on
    each directed edge ``src -> dst`` of type ``t`` is
    ``relu((h @ msg_w[:, :d].T + msg_b)[src] + (edge_table @ msg_w[:, d:].T)[t])``;
    the messages are summed onto ``dst`` and the result is
    ``[h, sums] @ upd_w.T + upd_b``. ``edge_table`` has one row per edge
    type. ``index`` carries the per-edge ``src``, ``dst`` and ``edge_type``
    arrays, already range-checked, and ``slots(name, width)``, the cached
    flat ``bincount`` slots of one of them at a row width.

    Forward and adjoint evaluate the same numpy expressions, in the same
    order, as the equivalent chain of ops: a bias-free ``affine``, two
    ``gather``, ``add``, ``relu``, ``segment_sum``, then ``[h, sums]``
    joined into one (atoms, 2d) matrix and mapped by one ``affine``.
    Values and gradients are bit-identical to that chain's.
    """
    n, d = len(h.values), h.values.shape[-1]
    if (h.values.ndim != 2 or msg_w.values.shape != (d, 2 * d) or msg_b.values.shape != (d,)
            or edge_table.values.shape[1:] != (d,) or upd_w.values.shape[1:] != (2 * d,)
            or upd_b.values.shape != upd_w.values.shape[:1]):
        raise DimensionError(
            f"message_layer shapes do not fit: h {h.shape}, edge table {edge_table.shape}, "
            f"msg {msg_w.shape} + {msg_b.shape}, upd {upd_w.shape} + {upd_b.shape}"
        )
    w_source = msg_w.values[:, :d]
    w_edge = msg_w.values[:, d:]
    source = h.values @ w_source.T
    source += msg_b.values
    edge = edge_table.values @ w_edge.T
    pre_message = np.take(source, index.src, axis=0) + np.take(edge, index.edge_type, axis=0)
    summed = np.bincount(
        index.slots("dst", d), weights=np.maximum(pre_message, 0.0).reshape(-1), minlength=n * d
    ).reshape(n, d)
    joined = np.concatenate([h.values, summed], axis=-1)
    values = joined @ upd_w.values.T
    values += upd_b.values
    out = Tensor(values)
    tape = _tape()
    if tape is not None:
        mask = pre_message > 0.0

        def adjoint(g, acc):
            acc(upd_w, g.T @ joined)
            acc(upd_b, g.sum(axis=0))
            g_joined = g @ upd_w.values
            acc(h, g_joined[:, :d])
            g_message = (np.take(g_joined[:, d:], index.dst, axis=0) * mask).reshape(-1)
            g_edge = np.bincount(
                index.slots("edge_type", d), weights=g_message, minlength=edge.size
            ).reshape(edge.shape)
            g_source = np.bincount(
                index.slots("src", d), weights=g_message, minlength=n * d
            ).reshape(n, d)
            msg_w.grad[:, d:] += g_edge.T @ edge_table.values
            acc(edge_table, g_edge @ w_edge)
            msg_w.grad[:, :d] += g_source.T @ h.values
            acc(msg_b, g_source.sum(axis=0))
            acc(h, g_source @ w_source)

        tape._push(out, adjoint)
    return out


def scale(x: Tensor, alpha) -> Tensor:
    """Multiply by a constant: a scalar, or an array that broadcasts onto x."""
    alpha = np.asarray(alpha, dtype=np.float64)
    values = x.values * alpha
    if values.shape != x.values.shape:
        raise DimensionError(f"scale factor {alpha.shape} reshapes input {x.shape}")
    out = Tensor(values)
    tape = _tape()
    if tape is not None:
        tape._push(out, lambda g, acc: acc(x, g * alpha))
    return out


def mean_abs_error(preds: list[Tensor], targets, scale=1.0, center=0.0) -> Tensor:
    """Mean |pred - target| over every entry of ``preds`` (flattened in
    order) against a flat sequence of constant targets; the L1 training
    loss.

    Targets may be given in output units (scalar or per-entry ``scale`` and
    ``center``): each residual is then ``center + scale * pred - target``,
    divided by ``scale``, so a target computed as ``center + scale * pred``
    gives an exactly zero residual and no gradient.
    """
    sizes = [p.values.size for p in preds]
    targets = np.asarray(targets, dtype=np.float64).reshape(-1)
    if sum(sizes) != targets.size:
        raise DimensionError(f"{sum(sizes)} predictions vs {targets.size} targets")
    if not sizes:
        raise DimensionError("mean_abs_error of no predictions")
    flat = np.concatenate([p.values.reshape(-1) for p in preds])
    diff = (center + scale * flat - targets) / scale
    out = Tensor(np.mean(np.abs(diff)))
    tape = _tape()
    if tape is not None:
        sign = np.sign(diff)
        bounds = [0, *itertools.accumulate(sizes)]

        def adjoint(g, acc):
            flat = g / diff.size * sign
            for p, lo, hi in zip(preds, bounds, bounds[1:]):
                acc(p, flat[lo:hi].reshape(p.values.shape))

        tape._push(out, adjoint)
    return out


# ---------------------------------------------------------------------------
# Parameter initialization and optimization
# ---------------------------------------------------------------------------


def uniform_init(
    rng: np.random.Generator, shape: tuple[int, ...], fan_in: int, name: str
) -> Parameter:
    """Uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)], seeded."""
    bound = 1.0 / math.sqrt(max(fan_in, 1))
    return Parameter(rng.uniform(-bound, bound, size=shape), name)


class Adam:
    """Adam with the usual defaults, over one flat buffer.

    The constructor packs the parameters' values and grads, in list order,
    into one flat ``theta`` and one flat ``grad`` buffer and rebinds each
    ``Parameter.values`` and ``.grad`` to a view into them, so code that
    reads or writes a parameter in place works on the live buffer. The
    moments ``m`` and ``v`` are flat too. ``step`` applies the per-array
    expression sequence element-wise and in place (two work buffers),
    so its results equal per-array updates bit for bit. Build one
    optimizer per parameter set: a second one would rebind the views to
    its own buffers and leave the first updating a detached copy.
    """

    def __init__(
        self,
        params: list[Parameter],
        lr: float = 1e-4,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        size = sum(p.values.size for p in self.params)
        self._theta = np.empty(size)
        self._grad = np.empty(size)
        lo = 0
        for p in self.params:
            hi = lo + p.values.size
            self._theta[lo:hi] = p.values.reshape(-1)
            self._grad[lo:hi] = p.grad.reshape(-1)
            p.values = self._theta[lo:hi].reshape(p.values.shape)
            p.grad = self._grad[lo:hi].reshape(p.values.shape)
            lo = hi
        self._m = np.zeros(size)
        self._v = np.zeros(size)
        self._work = (np.empty(size), np.empty(size))

    def step(self) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        g, m, v = self._grad, self._m, self._v
        update, denom = self._work
        m *= b1
        np.multiply(1 - b1, g, out=update)
        m += update
        v *= b2
        np.multiply(1 - b2, g, out=update)
        update *= g
        v += update
        np.divide(m, 1 - b1**self.t, out=update)  # m_hat
        np.multiply(self.lr, update, out=update)
        np.divide(v, 1 - b2**self.t, out=denom)  # v_hat
        np.sqrt(denom, out=denom)
        denom += self.eps
        update /= denom
        self._theta -= update

    def zero_grad(self) -> None:
        self._grad.fill(0.0)

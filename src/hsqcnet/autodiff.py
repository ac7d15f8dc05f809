"""Dense-array numeric kernel with reverse-mode derivative accumulation.

Everything is float64. Forward primitives record their adjoints on the
active ComputeRecord; ``backward`` replays the record in reverse and
accumulates gradients into the participating Parameters. Ops work on row
batches, and the op set is exactly what the matrix-form message-passing
model needs, seven ops: ``gather`` (rows or elements), ``embed`` (the sum
of rows of several tables, one embedding lookup), ``segment_sum`` (rows
summed onto segments), ``scale`` by a constant, the fused L1 loss
``mean_abs_error``, and two fused ops with hand-written adjoints:
``message_layer``, one whole message-passing layer (with its update
activation, or without it for the last layer), and ``mlp_head``, three
affine maps with a relu after the first two, its first map reading its
inputs by weight column block. Both equal their chains of affine and
relu ops bit for bit, as ``embed`` equals its gathers summed in table
order. Every scatter-add, a Parameter's gather adjoint included, is one
``bincount`` onto zeros, which sums in input order exactly as
``np.add.at`` does; the layer reads its flat slots from a cache on its
index. A desk-scale training step records 20 tape entries. The index
arguments of ``gather``, ``embed`` and ``segment_sum`` are range-checked at
every call, unless they come as ``Ids``, checked once when built.

``Adam`` packs its parameters into one flat value buffer and one flat
gradient buffer and makes each Parameter's ``values`` and ``grad`` views
into them, so a gradient reset is one whole-buffer operation and a step
runs its element-wise expressions over ``ADAM_CHUNK`` elements at a time;
build one optimizer per parameter set.
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

    def accumulate(target: Tensor, grad: np.ndarray) -> None:
        """Add ``grad`` onto ``target``."""
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


class Ids:
    """Integer ids range-checked once: construction copies ``array`` as a
    read-only intp array and raises IndexError, naming ``name``, unless
    every value lies in [0, ``bound``); ``take`` picks a subset unread.
    ``gather``, ``embed`` and ``segment_sum`` take one wherever they take
    an index array and compare only ``bound`` with the size they index; a
    plain array gets a pass over its values at every call. Objects that
    build their index arrays once (``model.Levels``,
    ``model.HeadRows``) hold them as ``Ids``."""

    __slots__ = ("array", "bound")

    def __init__(self, array, bound: int, name: str = "index") -> None:
        array = np.array(array, dtype=np.intp)
        if beyond(array, bound):
            raise IndexError(f"{name} out of range [0, {bound})")
        array.flags.writeable = False
        self.array = array
        self.bound = bound

    def take(self, positions) -> "Ids":
        """The ids at integer ``positions``, with this bound: a subset of
        checked ids needs no second pass."""
        subset = Ids.__new__(Ids)
        subset.array = self.array.take(positions)
        subset.array.flags.writeable = False
        subset.bound = self.bound
        return subset

    def __repr__(self) -> str:
        return f"Ids({self.array.tolist()}, bound={self.bound})"


_UNSIGNED = np.dtype(np.uintp)


def beyond(ids, bound: int) -> bool:
    """Whether an integer array holds an id outside [0, ``bound``), in one
    pass over it as intp: as unsigned, a negative id reads above every
    bound."""
    ids = np.asarray(ids, dtype=np.intp)
    return ids.size > 0 and np.maximum.reduce(ids.view(_UNSIGNED), axis=None) >= bound


def _ids(index, size: int, message: str, **about) -> np.ndarray:
    """The intp array of ``index``, an ``Ids`` or anything ``np.asarray``
    takes, after checking that it indexes [0, ``size``): by its bound for
    ``Ids``, else by a pass over the values. Out of range raises
    IndexError with ``message`` formatted with ``size`` and ``about``."""
    if isinstance(index, Ids):
        if index.bound > size:
            raise IndexError(message.format(size=size, **about))
        return index.array
    index = np.asarray(index, dtype=np.intp)
    if beyond(index, size):
        raise IndexError(message.format(size=size, **about))
    return index


def gather(x: Tensor, index) -> Tensor:
    """Rows of ``x`` at an integer index (scalar, array or ``Ids``), or its
    elements at a tuple of them, one per leading axis. Repeated indices
    scatter-add their gradients."""
    parts = index if isinstance(index, tuple) else (index,)
    if len(parts) > x.values.ndim:
        raise DimensionError(f"{len(parts)} index arrays for a tensor of shape {x.shape}")
    index = tuple(
        _ids(idx, size, "gather index out of range [0, {size}) on axis {axis}", axis=axis)
        for axis, (idx, size) in enumerate(zip(parts, x.values.shape))
    )
    if len(index) == 1:
        out = Tensor(x.values.take(index[0], axis=0))
    else:
        out = Tensor(x.values[index])
    tape = _tape()
    if tape is not None:
        tape._push(out, lambda g, acc: acc(x, _scatter_add(index, g, x.values.shape)))
    return out


def embed(tables: list[Tensor], indices) -> Tensor:
    """Row ``i`` is ``tables[0][indices[0][i]] + tables[1][indices[1][i]] + ...``,
    added in table order: the sum of one ``gather`` per table, bit for bit,
    as one op. Every index (an array or ``Ids``) has one shape and every
    table one row width; each table's gradient is one scatter-add onto the
    rows it gave."""
    if len(tables) != len(indices):
        raise DimensionError(f"embed got {len(tables)} tables and {len(indices)} index arrays")
    indices = [
        _ids(idx, len(table.values), "embed index out of range [0, {size}) for {table!r}",
             table=table)
        for table, idx in zip(tables, indices)
    ]
    if len({(idx.shape, table.values.shape[1:]) for table, idx in zip(tables, indices)}) != 1:
        raise DimensionError(
            f"embed shapes do not fit: tables {[t.shape for t in tables]}, "
            f"indices {[i.shape for i in indices]}"
        )
    values = tables[0].values.take(indices[0], axis=0)
    for table, idx in zip(tables[1:], indices[1:]):
        values += table.values.take(idx, axis=0)
    out = Tensor(values)
    tape = _tape()
    if tape is not None:

        def adjoint(g, acc):
            for table, idx in zip(tables, indices):
                acc(table, _scatter_add((idx,), g, table.values.shape))

        tape._push(out, adjoint)
    return out


def _column_blocks(shapes, weight: Parameter, bias: Parameter, op: str):
    """The block-column rule of ``mlp_head``'s affine maps: inputs of
    ``shapes`` joined along features, never built. Each input meets its own
    block of weight columns, and a one-dimensional input is a row shared by
    the batch. Returns each input's column slice and the output's shape;
    a shape that does not fit raises ``DimensionError`` naming the shapes."""
    columns, width, batch = [], 0, None
    for shape in shapes:
        if len(shape) not in (1, 2) or len(shape) == 2 and batch not in (None, shape[0]):
            raise DimensionError(f"{op} expects vectors or rows of one batch, got {list(shapes)}")
        batch = shape[0] if len(shape) == 2 else batch
        columns.append(slice(width, width + shape[-1]))
        width += shape[-1]
    if weight.values.shape[1:] != (width,):  # a matrix with one column per input feature
        joined = " + ".join(str(shape) for shape in shapes)
        raise DimensionError(f"{op} shape mismatch: weight {weight.shape} vs input {joined}")
    if bias.values.shape != (weight.values.shape[0],):
        raise DimensionError(f"{op} bias shape {bias.shape} does not match weight {weight.shape}")
    return columns, weight.values.shape[:1] if batch is None else (batch, weight.values.shape[0])


def _block_values(arrays, weight: Parameter, bias: Parameter, columns) -> np.ndarray:
    values = arrays[0] @ weight.values[:, columns[0]].T
    for array, cols in zip(arrays[1:], columns[1:]):
        values = values + array @ weight.values[:, cols].T
    values += bias.values
    return values


def _block_adjoint(g, arrays, weight: Parameter, bias: Parameter, columns, acc) -> list:
    """Accumulate the weight and bias gradients of ``_block_values`` from the
    output gradient ``g``; returns each input's gradient, in input order."""
    g_rows = g.reshape(-1, g.shape[-1])
    g_in = g_rows @ weight.values
    # blocks go into one array: += into a column block is several times slower
    g_weight = np.empty_like(weight.values)
    grads = []
    for array, cols in zip(arrays, columns):
        shared = array.ndim == 1  # one row shared by the batch
        rows = array[None].repeat(len(g_rows), 0) if shared else array
        np.matmul(g_rows.T, rows, out=g_weight[:, cols])
        grads.append(g_in[:, cols].sum(axis=0) if shared else g_in[:, cols])
    acc(weight, g_weight)
    acc(bias, g_rows.sum(axis=0))
    return grads


def segment_sum(x: Tensor, segments, num_segments: int) -> Tensor:
    """Sum the rows of ``x`` into ``num_segments`` rows: row i adds onto row
    ``segments[i]``, in row order. A segment no row names stays zero (the
    isolated-node convention)."""
    segments = _ids(segments, num_segments, "segment id out of range [0, {size})")
    if segments.shape != x.values.shape[:1]:
        raise DimensionError(
            f"segment_sum needs one segment id per row: {segments.shape} vs {x.shape}"
        )
    out = Tensor(_scatter_add((segments,), x.values, (num_segments,) + x.values.shape[1:]))
    tape = _tape()
    if tape is not None:
        tape._push(out, lambda g, acc: acc(x, g.take(segments, axis=0)))
    return out


def _even_rows(rows: int, width: int) -> np.ndarray:
    """A Fortran-ordered (r, width) array of zeros, r the even number of
    rows at or above ``rows``, at least 2. A product by a weight over these
    rows computes each of the first ``rows`` rows by the same kernel
    whatever ``rows`` is."""
    return np.zeros((max(2, rows + rows % 2), width), order="F")


def message_layer(
    h: Tensor,
    edge_table: Tensor,
    msg_w: Parameter,
    msg_b: Parameter,
    upd_w: Parameter,
    upd_b: Parameter,
    index,
    activate: bool = False,
) -> Tensor:
    """One message-passing layer, as one op: with ``activate``, its update
    activation ``relu`` too.

    With ``d`` the width of the (rows, d) node rows ``h`` of the level
    below, the message on each directed edge ``src -> dst`` of type ``t``
    is ``relu((h @ msg_w[:, :d].T + msg_b)[src] + (edge_table @ msg_w[:, d:].T)[t])``;
    the messages are summed onto ``dst`` and row r of the result is
    ``[h[own[r]], sums[r]] @ upd_w.T + upd_b`` (its ``relu`` with
    ``activate``, bit for bit that of a ``relu`` op), one row per entry of
    ``own``; with ``own`` None, row r reads ``h[r]``, one row per row of
    ``h``. ``edge_table`` has one row per edge type. ``index`` carries
    the per-edge ``src``, ``dst`` and ``edge_type`` arrays and the per-row
    ``own``, all in range, and ``slots(name, width)``, the cached
    flat ``bincount`` slots of one of them at a row width.

    Values and gradients equal those of the per-edge chain of ops (the
    whole ``msg_w`` applied to each edge's ``[h[src]; edge_table[t]]``,
    ``relu``, ``segment_sum``, then ``affine`` of ``[h[own], sums]``) to
    rounding: within 1e-12 relative in values and 1e-10 in gradients.
    Both products by a weight read their rows Fortran-ordered and over an
    even number of rows, at least 2 (``_even_rows``), so a row of the
    result does not depend on how many rows it is computed with under
    OpenBLAS's SkylakeX, Haswell (which Zen also runs), Prescott and
    Sandybridge kernels. Without that, SkylakeX computes C-ordered rows
    by another kernel below 19 rows at width 64 (76 at width 16), Haswell
    and Prescott the last row of an odd count in either order, and
    SkylakeX and Sandybridge a single row. A class's row therefore equals
    the row of each of its atoms bit for bit when both sum the same
    messages in the same order.
    """
    below, d = len(h.values), h.values.shape[-1]
    if (h.values.ndim != 2 or msg_w.values.shape != (d, 2 * d) or msg_b.values.shape != (d,)
            or edge_table.values.shape[1:] != (d,) or upd_w.values.shape[1:] != (2 * d,)
            or upd_b.values.shape != upd_w.values.shape[:1]):
        raise DimensionError(
            f"message_layer shapes do not fit: h {h.shape}, edge table {edge_table.shape}, "
            f"msg {msg_w.shape} + {msg_b.shape}, upd {upd_w.shape} + {upd_b.shape}"
        )
    own = index.own
    n = below if own is None else len(own)
    w_source = msg_w.values[:, :d]
    w_edge = msg_w.values[:, d:]
    rows_below = _even_rows(below, d)
    rows_below[:below] = h.values
    source = (rows_below @ w_source.T)[:below]
    source += msg_b.values
    edge = edge_table.values @ w_edge.T
    pre_message = source.take(index.src, axis=0) + edge.take(index.edge_type, axis=0)
    summed = np.bincount(
        index.slots("dst", d), weights=np.maximum(pre_message, 0.0).reshape(-1), minlength=n * d
    ).reshape(n, d)
    padded = _even_rows(n, 2 * d)
    joined = padded[:n]
    joined[:, :d] = h.values if own is None else h.values.take(own, axis=0)
    joined[:, d:] = summed
    values = (padded @ upd_w.values.T)[:n]
    values += upd_b.values
    if activate:
        np.maximum(values, 0.0, out=values)
    out = Tensor(values)
    tape = _tape()
    if tape is not None:
        mask = pre_message > 0.0
        passed = values > 0.0  # where the relu passed: relu(x) > 0 exactly when x > 0

        def adjoint(g, acc):
            if activate:
                g = g * passed
            acc(upd_w, g.T @ joined)
            acc(upd_b, g.sum(axis=0))
            g_joined = g @ upd_w.values
            acc(h, g_joined[:, :d] if own is None else np.bincount(
                index.slots("own", d), weights=g_joined[:, :d].reshape(-1), minlength=below * d
            ).reshape(below, d))
            g_message = (g_joined[:, d:].take(index.dst, axis=0) * mask).reshape(-1)
            g_edge = np.bincount(
                index.slots("edge_type", d), weights=g_message, minlength=edge.size
            ).reshape(edge.shape)
            g_source = np.bincount(
                index.slots("src", d), weights=g_message, minlength=below * d
            ).reshape(below, d)
            # both halves go into one array: += into a column block is several times slower
            g_msg_w = np.empty_like(msg_w.values)
            np.matmul(g_edge.T, edge_table.values, out=g_msg_w[:, d:])
            acc(edge_table, g_edge @ w_edge)
            np.matmul(g_source.T, h.values, out=g_msg_w[:, :d])
            acc(msg_w, g_msg_w)
            acc(msg_b, g_source.sum(axis=0))
            acc(h, g_source @ w_source)

        tape._push(out, adjoint)
    return out


def mlp_head(
    parts: list[Tensor],
    w1: Parameter,
    b1: Parameter,
    w2: Parameter,
    b2: Parameter,
    w3: Parameter,
    b3: Parameter,
) -> Tensor:
    """A three-layer head as one op:
    ``affine(relu(affine(relu(affine(parts, w1, b1)), w2, b2)), w3, b3)``
    with ``affine(x, w, b) = x @ w.T + b``, the first map reading ``parts``
    joined along features, never built: each part meets its own block of
    weight columns, and a one-dimensional part is a row shared by the batch.
    Values and gradients equal those of that chain of affine and relu ops
    bit for bit: the same expressions in the same order, in one tape entry
    where the chain records five."""
    arrays = [part.values for part in parts]
    columns1, shape1 = _column_blocks([a.shape for a in arrays], w1, b1, "mlp_head layer 1")
    columns2, shape2 = _column_blocks([shape1], w2, b2, "mlp_head layer 2")
    columns3, _ = _column_blocks([shape2], w3, b3, "mlp_head layer 3")
    pre1 = _block_values(arrays, w1, b1, columns1)
    h1 = np.maximum(pre1, 0.0)
    pre2 = _block_values([h1], w2, b2, columns2)
    h2 = np.maximum(pre2, 0.0)
    out = Tensor(_block_values([h2], w3, b3, columns3))
    tape = _tape()
    if tape is not None:
        mask1, mask2 = pre1 > 0.0, pre2 > 0.0

        def adjoint(g, acc):
            (g_h2,) = _block_adjoint(g, [h2], w3, b3, columns3, acc)
            (g_h1,) = _block_adjoint(g_h2 * mask2, [h1], w2, b2, columns2, acc)
            grads = _block_adjoint(g_h1 * mask1, arrays, w1, b1, columns1, acc)
            for part, grad in zip(parts, grads):
                acc(part, grad)

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
    if not sum(sizes):  # no tensors, or only empty ones: the mean is undefined
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


# Elements per pass of ``Adam.step``: a chunk's four operands and two work
# buffers stay in cache across the step's 12 expressions. 32,768 measured
# best at desk width; at 5.5M parameters a chunked step took half the time
# of whole-buffer passes.
ADAM_CHUNK = 32_768


class Adam:
    """Adam with the usual constants (Kingma & Ba 2015), over one flat buffer.

    The constructor packs the parameters' values and grads, in list order,
    into one flat ``theta`` and one flat ``grad`` buffer and rebinds each
    ``Parameter.values`` and ``.grad`` to a view into them, so code that
    reads or writes a parameter in place works on the live buffer. The
    moments ``m`` and ``v`` are flat too and mean, with the step count
    ``t``, what they mean in their Algorithm 1. ``step`` takes the folded
    form of their section 2: one step size ``lr * sqrt(1 - beta2^t) / (1 -
    beta1^t)`` and one ``eps * sqrt(1 - beta2^t)`` per step, no per-element
    bias correction, which equals the textbook order to rounding, not bit
    for bit. It runs element-wise and in place, one ``ADAM_CHUNK`` of the
    buffers at a time (two work buffers of one chunk each), equal to
    per-array folded updates bit for bit. Build one optimizer per parameter
    set: a second one would rebind the views to its own buffers and leave
    the first updating a detached copy.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: list[Parameter], lr: float = 1e-4):
        self.params = list(params)
        self.lr = lr
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
        self._work = (np.empty(min(size, ADAM_CHUNK)), np.empty(min(size, ADAM_CHUNK)))

    def step(self) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        root = math.sqrt(1 - b2**self.t)
        lr_t = self.lr * root / (1 - b1**self.t)
        eps_t = self.eps * root
        for lo in range(0, len(self._theta), ADAM_CHUNK):
            hi = lo + ADAM_CHUNK
            g, m, v = self._grad[lo:hi], self._m[lo:hi], self._v[lo:hi]
            update, denom = (work[: len(g)] for work in self._work)
            m *= b1
            np.multiply(1 - b1, g, out=update)
            m += update
            v *= b2
            np.multiply(1 - b2, g, out=update)
            update *= g
            v += update
            np.sqrt(v, out=denom)
            denom += eps_t
            np.divide(m, denom, out=update)
            update *= lr_t
            self._theta[lo:hi] -= update

    def zero_grad(self) -> None:
        self._grad.fill(0.0)

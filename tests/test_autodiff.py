from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsqcnet import autodiff as ad
from hsqcnet.autodiff import (
    ADAM_CHUNK,
    Adam,
    ComputeRecord,
    DimensionError,
    Parameter,
    Tensor,
    _scatter_add,
    backward,
    zero_gradients,
)
from hsqcnet.model import (
    EDGE_TYPES,
    CrossPeakModel,
    LayerIndex,
    ModelConfig,
    ShiftReads,
    SolventClass,
    prepare_molecule,
)
from helpers import (
    reference_adam,
    reference_affine,
    reference_embed,
    reference_mlp_head,
    reference_relu,
)


def p(values, name="p"):
    return Parameter(np.asarray(values, dtype=float), name)


def test_affine_identity():
    x = Tensor([1.0, 2.0, 3.0])
    out = reference_affine(x, p(np.eye(3), "w"), p(np.zeros(3), "b"))
    assert np.array_equal(out.values, [1.0, 2.0, 3.0])


def test_affine_zero_weight_gives_bias():
    x = Tensor([5.0, -2.0])
    bias = p([0.5, 1.5, -3.0], "b")
    out = reference_affine(x, p(np.zeros((3, 2)), "w"), bias)
    assert np.array_equal(out.values, bias.values)


def test_affine_matches_hand_matmul():
    rng = np.random.default_rng(0)
    w = rng.normal(size=(4, 3))
    b = rng.normal(size=4)
    x = rng.normal(size=3)
    out = reference_affine(Tensor(x), p(w, "w"), p(b, "b"))
    direct = np.array([sum(w[i, j] * x[j] for j in range(3)) + b[i] for i in range(4)])
    assert np.allclose(out.values, direct, rtol=0, atol=1e-15)


def _upper_layers(width: int) -> list:
    """Layers 2 and 3 of an ``mlp_head`` whose first layer is ``width`` wide."""
    return [p(np.zeros((2, width)), "w2"), p(np.zeros(2), "b2"),
            p(np.zeros((1, 2)), "w3"), p(np.zeros(1), "b3")]


def test_affine_shape_error_names_both_shapes():
    # the block rule that mlp_head's first layer and the reference affine share
    with pytest.raises(DimensionError, match=r"layer 1 .*\(4, 3\).*\(2,\)"):
        ad.mlp_head([Tensor(np.zeros(2))], p(np.zeros((4, 3)), "w"), p(np.zeros(4), "b"),
                    *_upper_layers(4))


def test_embed_equals_the_gather_add_chain_bit_for_bit():
    # three tables, repeated and unused rows, and an intermediate tensor
    # among the tables: values, tape length and every table gradient
    indices = [ad.Ids([0, 2, 2, 1, 0, 2], 3), ad.Ids([3, 3, 3, 0, 1, 3], 5),
               ad.Ids(np.full(6, 1), 2)]
    runs = []
    for op in (ad.embed, reference_embed):
        rng = np.random.default_rng(21)
        params = [p(rng.normal(size=(3, 4)), "a"), p(rng.normal(size=(5, 4)), "b"),
                  p(rng.normal(size=(2, 4)), "c")]
        weights = rng.normal(size=(6, 4))
        with ComputeRecord() as rec:
            tables = [params[0], ad.scale(params[1], 1.0), params[2]]
            out = op(tables, indices)
            loss = ad.mean_abs_error([ad.scale(out, weights)], np.full(24, -100.0))
        steps = len(rec)
        backward(loss, rec)
        runs.append((steps, out.values, loss.item(), [x.grad for x in params]))
    (fused_steps, *fused), (chain_steps, *chain) = runs
    assert (fused_steps, chain_steps) == (4, 8)  # the op, two scales and the loss
    assert np.array_equal(fused[0], chain[0]) and fused[1] == chain[1]
    for got, want in zip(fused[2], chain[2], strict=True):
        assert np.array_equal(got, want)
    # a row read twice gets both gradients; a row nobody read gets none
    a_grad, b_grad, _ = fused[2]
    assert np.array_equal(b_grad[2], np.zeros(4)) and np.array_equal(b_grad[4], np.zeros(4))
    assert b_grad[3].any() and a_grad.all()

    # by hand, with two tables: the sum, and the gradient reaching both
    a = p([[1.0, -2.0], [3.0, 0.5]], "a")
    b = p([[0.25, 4.0], [-3.0, 1.0]], "b")
    with ComputeRecord() as rec:
        total = ad.embed([a, b], [ad.Ids([0, 1], 2)] * 2)
        loss = ad.mean_abs_error([ad.scale(total, [[1.0, 2.0]])], np.full(4, -10.0))
    assert np.array_equal(total.values, [[1.25, 2.0], [0.0, 1.5]])
    backward(loss, rec)
    expected = np.tile([[0.25, 0.5]], (2, 1))
    assert np.array_equal(a.grad, expected) and np.array_equal(b.grad, expected)


def test_embed_rejects_bad_indices_and_shapes():
    a, b = p(np.zeros((3, 2)), "a"), p(np.zeros((4, 2)), "b")
    for bad in (3, -1):
        with pytest.raises(IndexError, match=r"\[0, 3\)"):
            ad.Ids([0, bad], 3)
    with pytest.raises(IndexError, match=r"\[0, 4\)"):
        ad.Ids([0, 4], 4)
    with pytest.raises(IndexError, match=r"\[0, 3\)"):
        ad.embed([a, b], [ad.Ids([0, 3], 4)] * 2)  # a bound above a's rows
    with pytest.raises(DimensionError, match=r"\(3, 2\).*\(4, 3\)"):
        ad.embed([a, p(np.zeros((4, 3)), "wide")], [ad.Ids([0], 3), ad.Ids([0], 4)])
    with pytest.raises(DimensionError, match=r"\(2,\).*\(3,\)"):
        ad.embed([a, b], [ad.Ids([0, 1], 3), ad.Ids([0, 1, 2], 4)])
    with pytest.raises(DimensionError):
        ad.embed([a, b], [ad.Ids([0, 1], 3)])


# atoms 0-2 joined by five directed edges, atom 0 the source of three;
# atom 3 has no edges; edge types 0, 5, 5, 2, 7 of the twelve rows
SMALL_GRAPH = LayerIndex(
    src=np.array([0, 0, 1, 2, 0]), dst=np.array([1, 2, 0, 0, 1]),
    edge_type=np.array([0, 5, 5, 2, 7]), own=None,
)


def _layer_params(rng, d):
    return [p(rng.normal(size=shape), name) for name, shape in (
        ("msg.w", (d, 2 * d)), ("msg.b", (d,)), ("upd.w", (d, 2 * d)), ("upd.b", (d,)))]


def test_message_layer_adjoint_matches_central_differences():
    rng = np.random.default_rng(5)
    d = 3
    nodes = p(rng.normal(size=(4, d)), "h")
    table = p(rng.normal(size=(EDGE_TYPES, d)), "edge_table")
    layer = _layer_params(rng, d)
    weights = rng.normal(size=(4, d))
    msg_w, msg_b = layer[0].values, layer[1].values
    pre_message = ((nodes.values @ msg_w[:, :d].T + msg_b)[SMALL_GRAPH.src]
                   + (table.values @ msg_w[:, d:].T)[SMALL_GRAPH.edge_type])
    assert np.abs(pre_message).min() > 1e-2  # no step below crosses a relu kink

    def loss():
        # h and the edge table enter through ``scale`` so their gradients
        # reach the op as intermediate tensors; the loss is linear in the
        # output, every residual far from the L1 kink
        out = ad.message_layer(ad.scale(nodes, 1.0), ad.scale(table, 1.0), *layer, SMALL_GRAPH)
        return ad.mean_abs_error([ad.scale(out, weights)], np.full(4 * d, -100.0))

    with ComputeRecord() as rec:
        total = loss()
    backward(total, rec)
    step = 1e-6
    for param in (nodes, table, *layer):
        flat = param.values.reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + step
            up = loss().item()
            flat[k] = orig - step
            down = loss().item()
            flat[k] = orig
            assert param.grad.reshape(-1)[k] == pytest.approx(
                (up - down) / (2 * step), rel=1e-6, abs=1e-9), (param.name, k)
    unused = np.setdiff1d(np.arange(EDGE_TYPES), SMALL_GRAPH.edge_type)
    assert not table.grad[unused].any() and table.grad[SMALL_GRAPH.edge_type].all()
    assert nodes.grad[3].any()  # the isolated atom's own row still feeds its update


def test_message_layer_weight_gradient_lands_in_both_adam_column_halves():
    rng = np.random.default_rng(2)
    d = 3
    before = p(rng.normal(size=(2,)), "before")
    layer = _layer_params(rng, d)
    msg_w = layer[0]
    opt = Adam([before, *layer], lr=0.1)  # rebinds every array to the flat buffers
    nodes = Tensor(rng.normal(size=(4, d)))
    table = Tensor(rng.normal(size=(EDGE_TYPES, d)))
    with ComputeRecord() as rec:
        out = ad.message_layer(nodes, table, *layer, SMALL_GRAPH)
        loss = ad.mean_abs_error([out], np.full(4 * d, -100.0))
    backward(loss, rec)
    lo, hi = 2, 2 + msg_w.values.size
    grad = opt._grad[lo:hi].reshape(d, 2 * d)
    assert grad[:, :d].any() and grad[:, d:].any() and not before.grad.any()
    theta = opt._theta.copy()
    opt.step()
    moved = opt._theta != theta
    assert np.array_equal(moved[lo:hi].reshape(d, 2 * d), grad != 0.0)
    assert not moved[:lo].any()


def test_activated_message_layer_equals_relu_of_the_layer_bit_for_bit():
    d = 3
    runs = []
    for fused in (True, False):
        rng = np.random.default_rng(17)
        nodes = p(rng.normal(size=(4, d)), "h")
        table = p(rng.normal(size=(EDGE_TYPES, d)), "edge_table")
        layer = _layer_params(rng, d)
        weights = rng.normal(size=(4, d))
        with ComputeRecord() as rec:
            h = ad.scale(nodes, 1.0)  # an intermediate input, as in a model
            if fused:
                out = ad.message_layer(h, table, *layer, SMALL_GRAPH, activate=True)
            else:
                out = reference_relu(ad.message_layer(h, table, *layer, SMALL_GRAPH))
            loss = ad.mean_abs_error([ad.scale(out, weights)], np.full(4 * d, -100.0))
        steps = len(rec)
        backward(loss, rec)
        runs.append((steps, out.values, loss.item(), [x.grad for x in (nodes, table, *layer)]))
    (fused_steps, *fused), (chain_steps, *chain) = runs
    assert (fused_steps, chain_steps) == (4, 5)
    assert 0 < (fused[0] > 0).sum() < fused[0].size  # the relu passes and blocks
    assert np.array_equal(fused[0], chain[0]) and fused[1] == chain[1]
    for got, want in zip(fused[2], chain[2], strict=True):
        assert np.array_equal(got, want)
        assert got.any()


def test_message_layer_shape_error_names_the_shapes():
    rng = np.random.default_rng(3)
    layer = _layer_params(rng, 3)
    with pytest.raises(DimensionError, match=r"h \(4, 2\)"):
        ad.message_layer(Tensor(np.zeros((4, 2))), Tensor(np.zeros((EDGE_TYPES, 3))),
                         *layer, SMALL_GRAPH)


def test_backward_dot_product_gradient_is_input():
    # loss = w . x with x fixed -> grad(w) = x
    x = np.array([2.0, -3.0, 5.0])
    w = Parameter(np.array([[0.5, -1.0, 2.0]]), "w")
    b = p([0.0], "b")
    with ComputeRecord() as rec:
        loss = ad.gather(reference_affine(Tensor(x), w, b), ad.Ids(0, 1))
    backward(loss, rec)
    assert np.allclose(w.grad, x.reshape(1, 3))
    assert np.allclose(b.grad, [1.0])


def test_relu_blocks_gradient():
    x = p([-5.0], "x")
    with ComputeRecord() as rec:
        loss = ad.gather(reference_relu(x), ad.Ids(0, 1))
    backward(loss, rec)
    assert x.grad[0] == 0.0
    assert float(reference_relu(Tensor([-5.0])).values[0]) == 0.0


def test_embedding_lookup_row_and_scatter():
    table = p(np.arange(12.0).reshape(4, 3), "table")
    row = ad.gather(table, ad.Ids(2, 4))
    assert np.array_equal(row.values, [6.0, 7.0, 8.0])
    rows = ad.gather(table, ad.Ids([3, 0], 4))
    assert np.array_equal(rows.values, [[9.0, 10.0, 11.0], [0.0, 1.0, 2.0]])
    with ComputeRecord() as rec:
        both = ad.gather(table, ad.Ids([1, 1], 4))  # a repeated row scatter-adds
        loss = ad.mean_abs_error([both], np.full(6, -100.0))
    backward(loss, rec)
    assert np.allclose(table.grad[1], 2.0 / 6.0)  # two reads double the row grad
    assert np.all(table.grad[0] == 0.0)
    assert np.all(table.grad[2:] == 0.0)
    backward(loss, rec)  # the scatter adds onto the grad already there
    assert np.allclose(table.grad[1], 4.0 / 6.0) and not table.grad[[0, 2, 3]].any()
    elements = (ad.Ids([1, 0], 4), ad.Ids([0, 1], 3))
    assert np.array_equal(ad.gather(table, elements).values, [3.0, 1.0])


def test_embedding_lookup_out_of_range():
    # a table of (2, 3): ids out of its rows or columns fail where built
    with pytest.raises(IndexError):
        ad.Ids(2, 2)
    with pytest.raises(IndexError):
        ad.Ids([0, -1], 2)  # no silent wrap-around
    with pytest.raises(IndexError):
        ad.Ids([3], 3)
    with pytest.raises(IndexError):
        ad.Ids([0, 2], 2)  # segments of a sum onto two rows


def test_ops_take_index_arrays_only_as_ids():
    table = p(np.arange(6.0).reshape(3, 2), "t")
    rows = Tensor(np.ones((2, 2)))
    for index in ([0, 1], np.array([0, 1]), np.array([0, 1], np.int32)):
        with pytest.raises(TypeError, match="autodiff.Ids"):
            ad.gather(table, index)
        with pytest.raises(TypeError, match="autodiff.Ids"):
            ad.gather(table, (ad.Ids([0, 1], 3), index))
        with pytest.raises(TypeError, match="autodiff.Ids"):
            ad.embed([table], [index])
        with pytest.raises(TypeError, match="autodiff.Ids"):
            ad.segment_sum(rows, index)
    with pytest.raises(TypeError, match="autodiff.Ids"):
        ad.gather(table, 0)


def test_ids_are_checked_once_and_read_by_their_bound():
    with pytest.raises(IndexError, match=r"element out of range \[0, 5\)"):
        ad.Ids([0, 5], 5, "element")
    with pytest.raises(IndexError, match=r"\[0, 5\)"):
        ad.Ids([-1], 5)  # no silent wrap-around
    # any integer width is read as intp: int32 ids in range, -1 and the bound
    assert ad.Ids(np.array([0, 4], np.int32), 5).array.dtype == np.intp
    for bad in (-1, 5):
        with pytest.raises(IndexError, match=r"\[0, 5\)"):
            ad.Ids(np.array([0, bad], np.int32), 5)
    source = np.array([0, 2])
    ids = ad.Ids(source, 3)
    source[0] = -1  # a copy, read-only: the checked values cannot change
    assert ids.array.tolist() == [0, 2] and not ids.array.flags.writeable
    table = p(np.arange(6.0).reshape(3, 2), "t")
    assert np.array_equal(ad.gather(table, ids).values, [[0.0, 1.0], [4.0, 5.0]])
    # int32 ids get the same pass over their values at construction
    assert np.array_equal(ad.gather(table, ad.Ids(np.array([0, 2], np.int32), 3)).values,
                          [[0.0, 1.0], [4.0, 5.0]])
    for bad in (-1, 3):
        with pytest.raises(IndexError, match=r"\[0, 3\)"):
            ad.Ids(np.array([0, bad], np.int32), 3)
    assert np.array_equal(ad.gather(table, (ids, ad.Ids([1, 0], 2))).values, [1.0, 4.0])
    assert np.array_equal(ad.embed([table], [ids]).values, [[0.0, 1.0], [4.0, 5.0]])
    assert np.array_equal(ad.segment_sum(Tensor(np.ones((2, 1))), ids).values,
                          [[1.0], [0.0], [1.0]])
    # ids whose bound exceeds what they index are refused, values unread
    short = p(np.zeros((2, 2)), "short")
    with pytest.raises(IndexError, match=r"\[0, 2\)"):
        ad.gather(short, ad.Ids([0], 3))
    with pytest.raises(IndexError, match=r"\[0, 2\)"):
        ad.embed([short], [ad.Ids([0], 3)])


def test_neighbor_sum_conventions():
    width = 4
    zero = ad.segment_sum(Tensor(np.zeros((0, width))), ad.Ids([], 3))
    assert np.array_equal(zero.values, np.zeros((3, width)))
    v = Tensor([[1.0, -2.0]])
    assert np.array_equal(ad.segment_sum(v, ad.Ids([0], 1)).values, v.values)
    rows = Tensor([[1.0, -2.0], [5.0, 5.0], [-1.0, 2.0]])
    summed = ad.segment_sum(rows, ad.Ids([0, 2, 0], 3))  # node 1 has no neighbours
    assert np.array_equal(summed.values, [[0.0, 0.0], [0.0, 0.0], [5.0, 5.0]])
    # one row per segment the bound allows, past the highest id named too
    wide = ad.segment_sum(rows, ad.Ids([0, 2, 0], 5))
    assert np.array_equal(wide.values, np.vstack([summed.values, np.zeros((2, 2))]))
    with pytest.raises(DimensionError):
        ad.segment_sum(rows, ad.Ids([0, 1], 3))  # one segment id per row
    with pytest.raises(DimensionError):
        ad.mean_abs_error([Tensor([1.0, 2.0])], [0.0])
    # no entries to average: an error, not a NaN with a RuntimeWarning
    for empty in ([Tensor(np.zeros(0))], [Tensor(np.zeros(0)), Tensor(np.zeros((0, 2)))]):
        with pytest.raises(DimensionError, match="no predictions"):
            ad.mean_abs_error(empty, [])


def test_non_scalar_loss_rejected():
    x = p([1.0, 2.0], "x")
    with ComputeRecord() as rec:
        out = ad.scale(x, 2.0)
    with pytest.raises(DimensionError, match="scalar"):
        backward(out, rec)


def test_finite_difference_on_composed_function():
    rng = np.random.default_rng(42)
    w1 = p(rng.normal(size=(5, 6)) * 0.5, "w1")
    b1 = p(rng.normal(size=5) * 0.1, "b1")
    w2 = p(rng.normal(size=(2, 5)) * 0.5, "w2")
    b2 = p(rng.normal(size=2) * 0.1, "b2")
    table = p(rng.normal(size=(4, 3)), "table")
    rows = rng.normal(size=(2, 3))
    targets = [0.3, -0.7, 0.1, 0.9, -0.2, 0.4]
    w1 = p(np.concatenate([w1.values, rng.normal(size=(5, 2)) * 0.5], axis=1), "w1")
    shared = p(rng.normal(size=2), "shared")

    def forward():
        # a toy batched message pass: an affine map of gathered rows,
        # constant rows and one row shared by the batch, a segment sum
        # onto three nodes, a per-row scale, a second affine map, and the
        # L1 loss against targets in output units
        x = [ad.gather(table, ad.Ids([2, 0, 2, 1], 4)), Tensor(rows[[0, 1, 1, 0]]), shared]
        hidden = reference_relu(reference_affine(x, w1, b1))
        nodes = ad.segment_sum(hidden, ad.Ids([0, 2, 0, 1], 3))
        out = reference_affine(ad.scale(nodes, [[1.0], [0.5], [2.0]]), w2, b2)
        return ad.mean_abs_error([out], targets, scale=2.0, center=0.5)

    with ComputeRecord() as rec:
        loss = forward()
    backward(loss, rec)
    step = 1e-5
    for param in (table, w1, b1, w2, b2, shared):
        flat = param.values.reshape(-1)
        grad = param.grad.reshape(-1)
        for k in range(0, flat.size, max(1, flat.size // 4)):
            orig = flat[k]
            flat[k] = orig + step
            up = forward().item()
            flat[k] = orig - step
            down = forward().item()
            flat[k] = orig
            fd = (up - down) / (2 * step)
            denom = max(abs(fd), abs(grad[k]), 1e-8)
            assert abs(fd - grad[k]) / denom < 1e-4


def test_determinism_same_seed_bit_identical():
    def run():
        rng = np.random.default_rng(11)
        w = ad.uniform_init(rng, (4, 4), 4, "w")
        b = ad.uniform_init(rng, (4,), 4, "b")
        with ComputeRecord() as rec:
            out = reference_relu(reference_affine(Tensor([1.0, 2.0, 3.0, 4.0]), w, b))
            loss = ad.mean_abs_error([out], np.zeros(4))
        backward(loss, rec)
        return loss.item(), w.grad.copy()

    l1, g1 = run()
    l2, g2 = run()
    assert l1 == l2
    assert np.array_equal(g1, g2)


def test_zeroing_contract():
    w = p(np.ones((2, 2)), "w")
    w.grad += 5.0
    zero_gradients([w])
    assert np.all(w.grad == 0.0)


def test_gradients_accumulate_across_backwards():
    w = p(np.ones((1, 1)), "w")
    b = p(np.zeros(1), "b")
    for _ in range(2):
        with ComputeRecord() as rec:
            loss = ad.gather(reference_affine(Tensor([3.0]), w, b), ad.Ids(0, 1))
        backward(loss, rec)
    assert w.grad[0, 0] == pytest.approx(6.0)


def test_adam_reduces_simple_objective():
    w = p([4.0], "w")
    opt = Adam([w], lr=0.1)
    for _ in range(200):
        opt.zero_grad()
        with ComputeRecord() as rec:
            loss = ad.mean_abs_error([w], [1.0])
        backward(loss, rec)
        opt.step()
    assert abs(w.values[0] - 1.0) < 0.2


def _joined_affine(parts, w, b, k):
    """The unfactored map: the parts joined into one (k, width) matrix, a
    one-dimensional part repeated on every row."""
    joined = np.concatenate([x if x.ndim == 2 else np.tile(x, (k, 1)) for x in parts], axis=1)
    return joined @ w.T + b


@pytest.mark.parametrize("k", [0, 1, 4])
def test_affine_of_parts_matches_the_joined_input(k):
    rng = np.random.default_rng(k)
    parts = [p(rng.normal(size=(k, 3)), "rows"), p(rng.normal(size=2), "shared"),
             p(rng.normal(size=(k, 4)), "more rows")]
    w = p(rng.normal(size=(5, 9)), "w")
    b = p(rng.normal(size=5), "b")
    g = rng.normal(size=(k, 5))
    with ComputeRecord() as rec:
        out = reference_affine(parts, w, b)
        column_sums = ad.segment_sum(ad.scale(out, g), ad.Ids(np.zeros(k, np.intp), 1))
        backward(ad.mean_abs_error([column_sums], np.full(5, -100.0)), rec)
    want = _joined_affine([x.values for x in parts], w.values, b.values, k)
    assert out.shape == (k, 5)
    assert np.allclose(out.values, want, rtol=1e-13, atol=1e-13)
    # the loss is sum(g * out) / 5 + const: the joined map's gradients in closed form
    g = g / 5
    joined = _joined_affine([x.values for x in parts], np.eye(9), np.zeros(9), k)
    assert np.allclose(w.grad, g.T @ joined, rtol=1e-12, atol=1e-15)
    assert np.allclose(b.grad, g.sum(axis=0), rtol=1e-12, atol=1e-15)
    grad_in = g @ w.values
    for x, (lo, hi) in zip(parts, [(0, 3), (3, 5), (5, 9)]):
        want = grad_in[:, lo:hi] if x.values.ndim == 2 else grad_in[:, lo:hi].sum(axis=0)
        assert np.allclose(x.grad, want, rtol=1e-12, atol=1e-15), x.name


def test_affine_of_parts_shape_errors():
    layers = [p(np.zeros((5, 9)), "w"), p(np.zeros(5), "b"), *_upper_layers(5)]
    with pytest.raises(DimensionError, match=r"\(5, 9\).*\(2, 3\) \+ \(2,\) \+ \(2, 3\)"):
        ad.mlp_head([Tensor(np.zeros((2, 3))), Tensor(np.zeros(2)), Tensor(np.zeros((2, 3)))],
                    *layers)
    with pytest.raises(DimensionError, match="layer 1 expects .* one batch"):
        ad.mlp_head([Tensor(np.zeros((2, 3))), Tensor(np.zeros(2)), Tensor(np.zeros((3, 4)))],
                    *layers)
    with pytest.raises(DimensionError, match="layer 1 expects .* one batch"):
        ad.mlp_head([Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2, 4)))], *layers)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_scatter_add_equals_add_at_onto_zeros(data):
    # magnitudes 1e-8..1e8 of either sign make every reordering of a
    # repeated index's sum show in the bits
    lead = data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=2), label="lead")
    shape = tuple(lead) + data.draw(st.sampled_from([(), (1,), (2,), (64,)]), label="width")
    n = data.draw(st.integers(0, 24), label="rows")
    index = tuple(
        np.array(data.draw(st.lists(st.integers(0, size - 1), min_size=n, max_size=n)),
                 dtype=np.intp)
        for size in lead
    )
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    size = (n,) + shape[len(lead):]
    values = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-8, 8, size)
    expected = np.zeros(shape)
    np.add.at(expected, index, values)
    assert np.array_equal(_scatter_add(index, values, shape), expected)


def test_scatter_add_scalar_and_empty_index():
    values = np.array([1.5, -2.0, 1e8])
    expected = np.zeros((4, 3))
    expected[2] = values
    got = _scatter_add((np.asarray(2, dtype=np.intp),), values, (4, 3))  # one row
    assert np.array_equal(got, expected)
    empty = _scatter_add((np.zeros(0, np.intp),), np.zeros((0, 64)), (3, 64))
    assert empty.shape == (3, 64) and not empty.any()


def test_edge_free_segment_sum_backward():
    rows = Parameter(np.zeros((0, 3)), "rows")
    with ComputeRecord() as rec:
        summed = ad.segment_sum(ad.gather(rows, ad.Ids([], 0)), ad.Ids([], 2))
        loss = ad.mean_abs_error([summed], np.ones(6))
    backward(loss, rec)
    assert np.array_equal(summed.values, np.zeros((2, 3)))
    assert rows.grad.shape == (0, 3)


def test_one_atom_molecule_backward():
    # "[C]" is one atom with no edges: the message sums and the hydrogen
    # mean read zero rows, and no edge embedding gets a gradient
    model = CrossPeakModel(ModelConfig(num_layers=2, atom_dim=8, solvent_dim_h=4,
                                       mlp_hidden=(6, 5), seed=1))
    molecule = prepare_molecule("[C]")
    assert all(layer.src.size == 0 for layer in molecule.levels(2).layers)
    with ComputeRecord() as rec:
        c_out, _ = model.atom_shift_tensors(molecule, SolventClass.DMSO,
                                            ShiftReads.of(molecule, [0], []))
        loss = ad.mean_abs_error([c_out], [5.0])
    backward(loss, rec)
    grads = {name: p.grad for name, p in model.params.items()}
    assert all(np.all(np.isfinite(g)) for g in grads.values())
    assert not grads["embed.bond_type"].any() and not grads["embed.direction"].any()
    assert grads["embed.element"].any()


def test_flat_adam_matches_per_array_adam_bit_for_bit():
    rng = np.random.default_rng(3)
    shapes = [(4, 3), (3,), (1, 1), (5, 2, 2), (16,)]
    params = [Parameter(rng.normal(size=shape), f"p{k}") for k, shape in enumerate(shapes)]
    initial = [p.values.copy() for p in params]
    grad_steps = []
    for _ in range(300):
        grads = [rng.normal(size=shape) * 10.0 ** rng.uniform(-6, 2) for shape in shapes]
        grads[0][rng.integers(0, 4)] = 0.0  # an embedding row no sample read
        grad_steps.append(grads)
    opt = Adam(params, lr=3e-3)
    for grads, expected in zip(grad_steps, reference_adam(initial, grad_steps, lr=3e-3)):
        opt.zero_grad()
        for p, g in zip(params, grads):
            p.grad += g
        opt.step()
        for p, e in zip(params, expected):
            assert np.array_equal(p.values, e)
    assert opt.t == 300


def test_folded_adam_matches_the_textbook_order_within_rounding():
    # the bias corrections folded into the step size and eps change only
    # rounding: gradients over 8 decades, and a zero gradient from step 1
    rng = np.random.default_rng(12)
    shapes = [(40, 3), (7,), (64,)]
    initial = [rng.normal(size=shape) for shape in shapes]
    grad_steps = []
    for _ in range(300):
        grads = [rng.normal(size=shape) * 10.0 ** rng.uniform(-6, 2, size=shape)
                 for shape in shapes]
        grads[0][0] = 0.0
        grad_steps.append(grads)
    folded = reference_adam(initial, grad_steps, lr=3e-3)
    textbook = reference_adam(initial, grad_steps, lr=3e-3, folded=False)
    for step, (got, want) in enumerate(zip(folded, textbook), start=1):
        for a, b in zip(got, want):
            np.testing.assert_allclose(a, b, rtol=1e-10, atol=0, err_msg=f"step {step}")
    assert any(not np.array_equal(a, b) for a, b in zip(got, want))  # rounding, not identity
    assert np.array_equal(got[0][0], initial[0][0])


def test_state_io_reads_and_writes_the_optimizer_buffer():
    model = CrossPeakModel(ModelConfig(num_layers=1, atom_dim=8, solvent_dim_h=4,
                                       mlp_hidden=(6, 5), seed=2))
    opt = Adam(model.parameters(), lr=1e-2)
    rng = np.random.default_rng(4)
    loaded = {name: rng.normal(size=a.shape) for name, a in model.state_arrays().items()}
    model.load_state(loaded)  # after the optimizer packed the parameters
    grads = [rng.normal(size=p.values.shape) for p in model.parameters()]
    for p, g in zip(model.parameters(), grads):
        p.grad[...] = g
    opt.step()
    (expected,) = [list(v) for v in reference_adam(list(loaded.values()), [grads], lr=1e-2)]
    state = model.state_arrays()
    for (name, got), want in zip(state.items(), expected):
        assert np.array_equal(got, want), name
        got += 1.0  # a copy: the model keeps its values
    for p, want in zip(model.parameters(), expected):
        assert np.array_equal(p.values, want), p.name
    opt.zero_grad()
    assert all(not p.grad.any() for p in model.parameters())


def test_chunked_adam_matches_per_array_adam_bit_for_bit():
    # three chunks, the last one ragged, and arrays that straddle chunk ends
    rng = np.random.default_rng(8)
    shapes = [(ADAM_CHUNK + 7,), (3, 100, 2), (ADAM_CHUNK // 2, 3), (5,)]
    params = [Parameter(rng.normal(size=shape), f"p{k}") for k, shape in enumerate(shapes)]
    initial = [p.values.copy() for p in params]
    grad_steps = []
    for _ in range(12):
        grads = [rng.normal(size=shape) * 10.0 ** rng.uniform(-6, 2, size=shape)
                 for shape in shapes]
        grads[0][rng.integers(0, shapes[0][0], size=50)] = 0.0
        grad_steps.append(grads)
    opt = Adam(params, lr=3e-3)
    size = len(opt._theta)
    assert size > 2 * ADAM_CHUNK and size % ADAM_CHUNK
    for grads, expected in zip(grad_steps, reference_adam(initial, grad_steps, lr=3e-3)):
        opt.zero_grad()
        for p, g in zip(params, grads):
            p.grad += g
        opt.step()
        for p, e in zip(params, expected):
            assert np.array_equal(p.values, e), p.name
    assert [work.shape for work in opt._work] == [(ADAM_CHUNK,)] * 2
    small = Adam([Parameter(np.zeros((2, 3)), "small")])
    assert [work.shape for work in small._work] == [(6,)] * 2


def _head_parameters(rng, width_in, hidden=(6, 5), width_out=2):
    h1, h2 = hidden
    return [p(rng.normal(size=shape), name) for name, shape in (
        ("w1", (h1, width_in)), ("b1", (h1,)), ("w2", (h2, h1)), ("b2", (h2,)),
        ("w3", (width_out, h2)), ("b3", (width_out,)))]


@pytest.mark.parametrize("k", [1, 6])
def test_mlp_head_equals_the_affine_relu_chain_bit_for_bit(k):
    runs = []
    for head in (ad.mlp_head, reference_mlp_head):
        rng = np.random.default_rng(k)
        parts = [p(rng.normal(size=(k, 3)), "rows"), p(rng.normal(size=2), "shared"),
                 p(rng.normal(size=(k, 4)), "more rows")]
        params = _head_parameters(rng, 9)
        weights = rng.normal(size=(k, 2))
        with ComputeRecord() as rec:
            out = head(parts, *params)
            loss = ad.mean_abs_error([ad.scale(out, weights)], np.linspace(-1.0, 1.0, 2 * k))
        steps = len(rec)
        backward(loss, rec)
        runs.append((steps, out.values, loss.item(), [x.grad for x in parts + params]))
    (fused_steps, *fused), (chain_steps, *chain) = runs
    assert (fused_steps, chain_steps) == (3, 7)  # the head, a scale and the loss
    assert np.array_equal(fused[0], chain[0]) and fused[1] == chain[1]
    for got, want in zip(fused[2], chain[2], strict=True):
        assert np.array_equal(got, want)
        assert got.any()


def test_mlp_head_adjoint_matches_central_differences():
    rng = np.random.default_rng(11)
    k = 3
    parts = [p(rng.normal(size=(k, 3)), "rows"), p(rng.normal(size=2), "shared")]
    params = _head_parameters(rng, 5)
    w1, b1, w2, b2 = (x.values for x in params[:4])
    joined = np.concatenate([parts[0].values, np.tile(parts[1].values, (k, 1))], axis=1)
    pre1 = joined @ w1.T + b1
    pre2 = np.maximum(pre1, 0.0) @ w2.T + b2
    # no step below crosses a relu kink, and both relus pass and block
    assert min(np.abs(pre1).min(), np.abs(pre2).min()) > 1e-3
    assert 0 < (pre1 > 0).sum() < pre1.size and 0 < (pre2 > 0).sum() < pre2.size
    weights = rng.normal(size=(k, 2))
    # every residual 1 from the L1 kink: the loss is linear in the output
    targets = (ad.mlp_head(parts, *params).values * weights).reshape(-1) - 1.0

    def loss():
        return ad.mean_abs_error([ad.scale(ad.mlp_head(parts, *params), weights)], targets)

    with ComputeRecord() as rec:
        total = loss()
    backward(total, rec)
    step = 1e-6
    for param in parts + params:
        flat = param.values.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + step
            up = loss().item()
            flat[j] = orig - step
            down = loss().item()
            flat[j] = orig
            assert param.grad.reshape(-1)[j] == pytest.approx(
                (up - down) / (2 * step), rel=1e-6, abs=1e-9), (param.name, j)


def test_mlp_head_shape_errors_name_the_shapes():
    rng = np.random.default_rng(4)
    parts = [Tensor(np.zeros((2, 3))), Tensor(np.zeros(2))]
    good = _head_parameters(rng, 5)
    with pytest.raises(DimensionError, match=r"layer 1 shape mismatch: weight \(6, 9\) "
                                             r"vs input \(2, 3\) \+ \(2,\)"):
        ad.mlp_head(parts, *_head_parameters(rng, 9))
    with pytest.raises(DimensionError, match=r"layer 2 shape mismatch: weight \(5, 7\) "
                                             r"vs input \(2, 6\)"):
        ad.mlp_head(parts, *good[:2], p(np.zeros((5, 7)), "w2"), *good[3:])
    with pytest.raises(DimensionError, match=r"layer 3 bias shape \(3,\) does not match "
                                             r"weight \(2, 5\)"):
        ad.mlp_head(parts, *good[:5], p(np.zeros(3), "b3"))
    with pytest.raises(DimensionError, match=r"one batch, got \[\(2, 3\), \(4, 2\)\]"):
        ad.mlp_head([parts[0], Tensor(np.zeros((4, 2)))], *good)


def test_every_tape_op_has_a_library_caller():
    # an op that records on the tape but that only tests call belongs in
    # tests/helpers.py as a reference op
    package = Path(ad.__file__).parent
    ops = sorted(
        node.name for node in ast.parse(Path(ad.__file__).read_text()).body
        if isinstance(node, ast.FunctionDef) and any(
            isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_tape"
            for call in ast.walk(node))
    )
    assert ops == ["embed", "gather", "mean_abs_error", "message_layer", "mlp_head",
                   "scale", "segment_sum"]
    called = {
        node.attr
        for path in package.glob("*.py") if path.name != "autodiff.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "ad"
    }
    assert [op for op in ops if op not in called] == []

import itertools
import tracemalloc
from unittest import mock

import hwc_reference
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lightfuse import nn_ops, tensor_core
from lightfuse.nn_ops import (
    DepthwiseKernel,
    PointwiseKernel,
    add,
    depthwise_backward,
    depthwise_forward,
    grad_check,
    pointwise_backward,
    pointwise_forward,
    relu,
    relu_backward,
    tanh,
    tanh_backward,
    upsample_backward,
    upsample_nn,
)


def delta_kernel(channels, k=3):
    w = np.zeros((k, k, channels), dtype=np.float32)
    w[k // 2, k // 2, :] = 1.0
    return w


def rand(shape, seed, lo=-1.0, hi=1.0):
    return np.random.default_rng(seed).uniform(lo, hi, size=shape).astype(np.float32)


# ---------------------------------------------------------------- depthwise

def test_depthwise_delta_kernel_is_identity():
    x = rand((5, 7, 3), seed=1)
    kern = DepthwiseKernel(delta_kernel(3), np.zeros(3, dtype=np.float32), 1)
    assert np.array_equal(depthwise_forward(x, kern), x)


def test_depthwise_single_pixel_center_tap():
    x = np.full((1, 1, 1), 2.0, dtype=np.float32)
    kern = DepthwiseKernel(delta_kernel(1), np.zeros(1, dtype=np.float32), 1)
    assert depthwise_forward(x, kern)[0, 0, 0] == 2.0


def test_depthwise_all_ones_hand_sums():
    x = np.ones((3, 3, 1), dtype=np.float32)
    kern = DepthwiseKernel(np.ones((3, 3, 1), dtype=np.float32), np.zeros(1, dtype=np.float32), 1)
    out = depthwise_forward(x, kern)[:, :, 0]
    assert out[1, 1] == 9.0
    for corner in (out[0, 0], out[0, 2], out[2, 0], out[2, 2]):
        assert corner == 4.0
    for edge in (out[0, 1], out[1, 0], out[1, 2], out[2, 1]):
        assert edge == 6.0


def test_depthwise_stride2_delta_reads_topleft():
    x = rand((2, 2, 1), seed=2)
    kern = DepthwiseKernel(delta_kernel(1), np.zeros(1, dtype=np.float32), 2)
    out = depthwise_forward(x, kern)
    assert out.shape == (1, 1, 1)
    assert out[0, 0, 0] == x[0, 0, 0]


def test_depthwise_stride2_halves_even_dims():
    x = rand((6, 8, 2), seed=3)
    kern = DepthwiseKernel(rand((3, 3, 2), seed=4), rand((2,), seed=5), 2)
    assert depthwise_forward(x, kern).shape == (3, 4, 2)


def test_depthwise_channel_mismatch():
    kern = DepthwiseKernel(delta_kernel(2), None, 1)
    with pytest.raises(ValueError, match="channel mismatch"):
        depthwise_forward(rand((4, 4, 3), seed=0), kern)


def test_depthwise_rejects_even_kernel():
    with pytest.raises(ValueError, match="odd"):
        DepthwiseKernel(np.zeros((4, 4, 1), dtype=np.float32), None, 1)


def test_depthwise_rejects_bad_stride():
    with pytest.raises(ValueError, match="stride"):
        DepthwiseKernel(delta_kernel(1), None, 3)


def test_depthwise_stride2_rejects_odd_dims():
    kern = DepthwiseKernel(delta_kernel(1), None, 2)
    with pytest.raises(ValueError, match="even"):
        depthwise_forward(rand((5, 4, 1), seed=0), kern)


# ---------------------------------------------------------------- pointwise

def test_pointwise_sums_channels():
    x = np.array([[[1.0, 2.0, 3.0]]], dtype=np.float32)
    kern = PointwiseKernel(np.ones((3, 1), dtype=np.float32), np.zeros(1, dtype=np.float32))
    assert pointwise_forward(x, kern)[0, 0, 0] == 6.0


def test_pointwise_identity_matrix():
    x = rand((4, 5, 3), seed=6)
    kern = PointwiseKernel(np.eye(3, dtype=np.float32), np.zeros(3, dtype=np.float32))
    assert np.array_equal(pointwise_forward(x, kern), x)


def test_pointwise_with_bias():
    x = np.array([[[1.0, -1.0]]], dtype=np.float32)
    kern = PointwiseKernel(
        np.array([[0.5], [0.5]], dtype=np.float32), np.ones(1, dtype=np.float32)
    )
    assert pointwise_forward(x, kern)[0, 0, 0] == 1.0


def test_pointwise_channel_mismatch():
    kern = PointwiseKernel(np.ones((2, 1), dtype=np.float32), np.zeros(1, dtype=np.float32))
    with pytest.raises(ValueError, match="channel mismatch"):
        pointwise_forward(rand((2, 2, 3), seed=0), kern)


def test_pointwise_is_linear_without_bias():
    kern = PointwiseKernel(rand((4, 5), seed=7), np.zeros(5, dtype=np.float32))
    x = rand((6, 6, 4), seed=8)
    y = rand((6, 6, 4), seed=9)
    lhs = pointwise_forward(2.0 * x + 0.5 * y, kern)
    rhs = 2.0 * pointwise_forward(x, kern) + 0.5 * pointwise_forward(y, kern)
    assert np.allclose(lhs, rhs, rtol=1e-5, atol=1e-6)


def test_pointwise_is_per_pixel_local():
    kern = PointwiseKernel(rand((3, 4), seed=10), rand((4,), seed=11))
    x = rand((5, 5, 3), seed=12)
    base = pointwise_forward(x, kern)
    x2 = x.copy()
    x2[2, 3] += 0.25
    out2 = pointwise_forward(x2, kern)
    mask = np.ones((5, 5), dtype=bool)
    mask[2, 3] = False
    assert np.array_equal(out2[mask], base[mask])
    assert not np.array_equal(out2[2, 3], base[2, 3])


@pytest.mark.parametrize("npix_offset", (-1, 0, 1))
@pytest.mark.parametrize("dtype", (np.float32, np.float64))
def test_pointwise_matches_pixel_major_oracle(npix_offset, dtype):
    npix = nn_ops.CHUNK_PIXELS + npix_offset
    kern = PointwiseKernel(rand((6, 32), seed=40), rand((32,), seed=41))
    x = np.random.default_rng(42).standard_normal((npix, 6)).astype(dtype)
    got = pointwise_forward(x, kern)
    want = hwc_reference.pointwise_forward(x, kern)
    assert got.dtype == want.dtype == np.result_type(dtype, np.float32)
    assert got.tobytes() == want.tobytes()


def test_pointwise_matches_pixel_major_oracle_leading_dims():
    # (3, 41, 67, 32): 8241 pixels under three leading dims, two full chunks
    # and a residual one; the others have no pixel at all
    for shape in ((3, 41, 67, 32), (0, 6), (0, 5, 6), (3, 0, 6)):
        kern = PointwiseKernel(rand((shape[-1], 3), seed=43), rand((3,), seed=44))
        x = rand(shape, seed=45)
        got = pointwise_forward(x, kern)
        assert got.shape == shape[:-1] + (3,)
        assert got.tobytes() == hwc_reference.pointwise_forward(x, kern).tobytes()


# ---------------------------------------------------------------- elementwise

def test_upsample_constant():
    x = np.full((1, 1, 2), 3.5, dtype=np.float32)
    out = upsample_nn(x)
    assert out.shape == (2, 2, 2)
    assert (out == 3.5).all()


def test_upsample_block_structure():
    x = np.array([[[1.0], [2.0]], [[3.0], [4.0]]], dtype=np.float32)
    out = upsample_nn(x)[:, :, 0]
    assert np.array_equal(out, np.array([[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]]))


def test_upsample_composition():
    x = np.full((1, 1, 1), -0.25, dtype=np.float32)
    out = upsample_nn(upsample_nn(x))
    assert out.shape == (4, 4, 1)
    assert (out == -0.25).all()


def test_upsample_preserves_values_and_quadruples_count():
    x = rand((3, 4, 2), seed=13)
    out = upsample_nn(x)
    assert out.size == 4 * x.size
    assert set(np.unique(out)) == set(np.unique(x))


def test_relu_tanh_add_basics():
    assert relu(np.float32(-3.0)) == 0.0
    assert relu(np.float32(2.0)) == 2.0
    assert tanh(np.float32(0.0)) == 0.0
    x = rand((3, 3, 2), seed=14)
    assert (add(x, -x) == 0).all()


def test_relu_in_place_matches_out_of_place():
    x = rand((7, 5, 3), seed=46)
    want = relu(x)
    assert relu(x, out=x) is x
    assert x.tobytes() == want.tobytes()


def test_add_shape_mismatch():
    with pytest.raises(ValueError, match="shape mismatch"):
        add(np.zeros((2, 2, 1), dtype=np.float32), np.zeros((2, 3, 1), dtype=np.float32))


# ---------------------------------------------------------------- backward

def test_pointwise_weight_grad_single_pixel_is_activation():
    x = np.array([[[0.3, -0.7]]], dtype=np.float32)
    kern = PointwiseKernel(rand((2, 1), seed=15), np.zeros(1, dtype=np.float32))
    up = np.ones((1, 1, 1), dtype=np.float32)
    _, dw, db = pointwise_backward(x, kern, up)
    assert np.allclose(dw[:, 0], x[0, 0])
    assert db[0] == 1.0


def test_relu_backward_zero_below_zero():
    x = np.array([-1.0, 2.0], dtype=np.float32)
    g = np.array([5.0, 5.0], dtype=np.float32)
    assert np.array_equal(relu_backward(x, g), np.array([0.0, 5.0], dtype=np.float32))


def test_backward_ops_masks_a_handed_over_gradient_in_place():
    """run_ops keeps a relu's output; backward_ops masks grad itself only where the caller hands it over."""
    x, g = rand((6, 6, 3), seed=61), rand((6, 6, 4), seed=62)
    ops = (PointwiseKernel(rand((3, 4), seed=63), rand((4,), seed=64)), "relu")
    inputs = []
    y = nn_ops.run_ops(ops, x, inputs)
    assert inputs[0] is x and inputs[1] is y
    before = g.tobytes()
    dx, pgrads = nn_ops.backward_ops(ops, inputs, g)
    assert g.tobytes() == before
    mine = g.copy()
    dx_mine, pgrads_mine = nn_ops.backward_ops(ops, inputs, mine, in_place=True)
    assert mine.tobytes() == relu_backward(y, g).tobytes()
    assert dx_mine.tobytes() == dx.tobytes()
    assert [a.tobytes() for a in pgrads_mine] == [a.tobytes() for a in pgrads]


def test_depthwise_backward_shapes():
    x = rand((6, 6, 3), seed=16)
    kern = DepthwiseKernel(rand((3, 3, 3), seed=17), rand((3,), seed=18), 2)
    g = rand((3, 3, 3), seed=19)
    dx, dw, db = depthwise_backward(x, kern, g)
    assert dx.shape == x.shape
    assert dw.shape == kern.weights.shape
    assert db.shape == kern.bias.shape


# ------------------------------------------------------------- grad checks

def test_grad_check_pointwise_linear_tight():
    x = rand((5, 6, 4), seed=20)
    kern = PointwiseKernel(rand((4, 3), seed=21), rand((3,), seed=22))
    assert grad_check(kern, x, seed=0) < 1e-4


def test_grad_check_tanh_small_inputs():
    x = rand((5, 6, 4), seed=23, lo=-0.5, hi=0.5)
    assert grad_check("tanh", x, seed=1) < 1e-3


def test_grad_check_depthwise_stride1():
    x = rand((5, 6, 4), seed=24)
    kern = DepthwiseKernel(rand((3, 3, 4), seed=25), rand((4,), seed=26), 1)
    assert grad_check(kern, x, seed=2) < 1e-3


def test_grad_check_depthwise_stride2():
    x = rand((6, 6, 4), seed=27)
    kern = DepthwiseKernel(rand((3, 3, 4), seed=28), rand((4,), seed=29), 2)
    assert grad_check(kern, x, seed=3) < 1e-3


def test_grad_check_depthwise_no_bias():
    x = rand((5, 6, 2), seed=30)
    kern = DepthwiseKernel(rand((3, 3, 2), seed=31), None, 1)
    assert grad_check(kern, x, seed=4) < 1e-3


def test_grad_check_parameterless_ops():
    x = rand((5, 6, 4), seed=32)
    # keep relu inputs away from the kink so finite differences are valid
    x = x + np.sign(x).astype(np.float32) * 0.01
    assert grad_check("relu", x, seed=5) < 1e-3
    assert grad_check("upsample_nn", x, seed=6) < 1e-3
    assert grad_check(("add", rand((5, 6, 4), seed=33)), x, seed=7) < 1e-3


def test_grad_check_rejects_unknown_op():
    with pytest.raises(ValueError, match="grad_check does not know op 'nope'"):
        grad_check("nope", rand((2, 2, 1), seed=34))


# ------------------------------------------------------------------ layout

def planar(a):
    """a's values stored channel-planar, the memory order of every forward kernel result."""
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(a, -1, 0)), 0, -1)


def same_results(got, want):
    got, want = (r if isinstance(r, tuple) else (r,) for r in (got, want))
    return len(got) == len(want) and all(
        (g is None and w is None)
        or (g is not None and w is not None and g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes())
        for g, w in zip(got, want)
    )


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(1, 10),
    cols=st.integers(1, 10),
    c_in=st.integers(1, 8),
    c_out=st.integers(1, 8),
    stride=st.sampled_from([1, 2]),
    bias=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_every_kernel_matches_the_hwc_reference_in_either_layout(rows, cols, c_in, c_out, stride, bias, seed):
    """Each public kernel gives the reference's bytes for C-ordered and planar operands alike."""
    rng = np.random.default_rng(seed)
    h, w = stride * rows, stride * cols

    def draw(*shape):
        a = rng.uniform(-1, 1, shape).astype(np.float32)
        # exact and negative zeros: relu masks and the sign of zero sums
        a[rng.random(shape) < 0.15] = 0.0
        a[rng.random(shape) < 0.15] = -0.0
        return a

    x = draw(h, w, c_in)
    dk = DepthwiseKernel(draw(3, 3, c_in), draw(c_in) if bias else None, stride)
    pk = PointwiseKernel(draw(c_in, c_out), draw(c_out))
    cases = [
        (depthwise_forward, hwc_reference.depthwise_forward, (x, dk)),
        (pointwise_forward, hwc_reference.pointwise_forward, (x, pk)),
        (upsample_nn, hwc_reference.upsample_nn, (x,)),
        (relu, lambda a: np.maximum(a, 0.0), (x,)),
        (tanh, np.tanh, (x,)),
        (add, np.add, (x, draw(h, w, c_in))),
        (depthwise_backward, hwc_reference.depthwise_backward, (x, dk, draw(rows, cols, c_in))),
        (pointwise_backward, hwc_reference.pointwise_backward, (x, pk, draw(h, w, c_out))),
        (upsample_backward, hwc_reference.upsample_backward, (draw(2 * h, 2 * w, c_in),)),
        (relu_backward, hwc_reference.relu_backward, (x, draw(h, w, c_in))),
        (tanh_backward, hwc_reference.tanh_backward, (x, draw(h, w, c_in))),
    ]
    for kernel, reference, args in cases:
        want = reference(*args)
        arrays = [i for i, a in enumerate(args) if isinstance(a, np.ndarray)]
        for layouts in itertools.product((False, True), repeat=len(arrays)):
            call = list(args)
            for i, to_planar in zip(arrays, layouts):
                if to_planar:
                    call[i] = planar(call[i])
            assert same_results(kernel(*call), want), (kernel.__name__, layouts)


@settings(max_examples=80, deadline=None)
@given(
    rows=st.integers(1, 40),
    cols=st.integers(1, 40),
    channels=st.integers(1, 40),
    stride=st.sampled_from([1, 2]),
    seed=st.integers(0, 2**32 - 1),
)
def test_spelled_out_sums_follow_numpys_order(rows, cols, channels, stride, seed):
    """upsample_backward's block sums and depthwise_backward's weight sums give the reference's bytes.

    Values spread over twelve decades, with negative zeros, so any other
    order of the additions or another starting zero shows in the bits.
    """
    rng = np.random.default_rng(seed)

    def draw(*shape):
        a = (rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 7, shape)).astype(np.float32)
        a[rng.random(shape) < 0.1] = -0.0
        return a

    g = draw(2 * rows, 2 * cols, channels)
    assert same_results(upsample_backward(g), hwc_reference.upsample_backward(g))
    assert same_results(upsample_backward(planar(g)), hwc_reference.upsample_backward(g))
    x, grad = draw(stride * rows, stride * cols, channels), draw(rows, cols, channels)
    kern = DepthwiseKernel(draw(3, 3, channels), draw(channels), stride)
    assert same_results(depthwise_backward(planar(x), kern, grad), hwc_reference.depthwise_backward(x, kern, grad))


@settings(max_examples=100, deadline=None)
@given(
    rows=st.integers(1, 300),
    cols=st.integers(1, 40),
    dtype=st.sampled_from([np.float32, np.float64]),
    seed=st.integers(0, 2**32 - 1),
)
def test_column_sums_equal_numpys_reduce(rows, cols, dtype, seed):
    """The backward's bias and tap sums give np.add.reduce's bytes on finite values.

    Magnitudes over twelve decades, with signed zeros, subnormals and values
    near the dtype's maximum, whose sums overflow to infinities.
    """
    rng = np.random.default_rng(seed)
    a = (rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-6, 7, (rows, cols))).astype(dtype)
    info = np.finfo(dtype)
    special = np.array([0.0, -0.0, info.smallest_subnormal, -info.smallest_subnormal, info.max, -info.max], dtype)
    mask = rng.random(a.shape) < 0.1
    a[mask] = rng.choice(special, int(mask.sum()))
    if rng.random() < 0.2:
        a[:, rng.integers(cols)] = -0.0
    with np.errstate(over="ignore", invalid="ignore"):
        assert same_results(nn_ops._column_sums(a), np.add.reduce(a, axis=0))


@settings(max_examples=100, deadline=None)
@given(
    rows=st.integers(1, 12),
    cols=st.integers(1, 12),
    channels=st.integers(1, 8),
    x_planar=st.booleans(),
    g_planar=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_relu_backward_reads_relus_input_or_output_alike(rows, cols, channels, x_planar, g_planar, seed):
    """relu_backward(relu(x), g), relu_backward(x, g) and the out=g form give the same bytes.

    In either layout of x and g, with magnitudes over twelve decades and
    signed zeros, NaNs, infinities and subnormals in both.
    """
    rng = np.random.default_rng(seed)
    tiny = np.finfo(np.float32).smallest_subnormal
    special = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, tiny, -tiny], dtype=np.float32)

    def draw():
        shape = (rows, cols, channels)
        a = (rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 7, shape)).astype(np.float32)
        mask = rng.random(shape) < 0.2
        a[mask] = rng.choice(special, int(mask.sum()))
        return a

    def laid_out(a, is_planar):
        return planar(a) if is_planar else a.copy()

    x, g = draw(), draw()
    before = g.tobytes()
    with np.errstate(invalid="ignore"):  # inf * 0 from a masked infinity
        want = relu_backward(x, g)
        assert g.tobytes() == before
        for source in (x, relu(x)):
            got = relu_backward(laid_out(source, x_planar), laid_out(g, g_planar))
            assert got.flags.c_contiguous and same_results(got, want)
            grad = laid_out(g, g_planar)
            got = relu_backward(laid_out(source, x_planar), grad, out=grad)
            assert got is grad and same_results(np.ascontiguousarray(got), want)


@pytest.mark.parametrize("first", ["depthwise", "pointwise", "relu"])
def test_backward_ops_can_skip_the_first_kernels_input_gradient(first):
    x, g = rand((6, 6, 3), seed=50), rand((6, 6, 4), seed=51)
    ops = {
        "depthwise": (DepthwiseKernel(rand((3, 3, 3), seed=52), rand((3,), seed=53), 1),),
        "pointwise": (),
        "relu": ("relu",),
    }[first] + (PointwiseKernel(rand((3, 4), seed=54), rand((4,), seed=55)), "relu")
    inputs = []
    nn_ops.run_ops(ops, x, inputs)
    dx, pgrads = nn_ops.backward_ops(ops, inputs, g)
    skipped, same = nn_ops.backward_ops(ops, inputs, g, need_dx=False)
    assert skipped is None if first != "relu" else skipped.tobytes() == dx.tobytes()
    assert [a.tobytes() for a in same] == [a.tobytes() for a in pgrads]


def test_run_chain_takes_pointwise_kernels_each_with_an_optional_relu():
    k1, k2 = (PointwiseKernel(rand((3, 3), seed=s), rand((3,), seed=s + 1)) for s in (56, 58))
    x = rand((5, 7, 3), seed=60)
    ops = (k1, "relu", k2)
    got = nn_ops._run_chain(x, ops)
    assert got.tobytes() == nn_ops.run_ops(ops, x, []).tobytes()
    depthwise = DepthwiseKernel(delta_kernel(3), None, 1)
    for bad in [("relu", k1), (k1, "relu", "relu"), (k1, "tanh"), (k1, depthwise), (k1, "upsample_nn")]:
        with pytest.raises(ValueError, match="a 1x1 chain runs pointwise kernels"):
            nn_ops._run_chain(x, bad)


def chain(widths, dtypes, seed):
    """Pointwise kernels of the given widths and weight dtypes, each followed by a relu but the last."""
    ops = []
    for i, (m, n, dtype) in enumerate(zip(widths, widths[1:], dtypes)):
        ops.append(PointwiseKernel(rand((m, n), seed=seed + 2 * i).astype(dtype), rand((n,), seed=seed + 2 * i + 1)))
        ops.append("relu")
    return tuple(ops[:-1])


@pytest.mark.parametrize("npix", [50, 3 * 16 + 5])
def test_run_chain_views_its_buffers_in_each_steps_dtype(npix):
    # float32 input; the second step's float64 weights make the rest float64,
    # and the first step is still the widest in bytes (32 x 4 against 8 x 8)
    ops = chain((6, 32, 8, 3), (np.float32, np.float64, np.float32), seed=70)
    x = planar(rand((npix, 6), seed=76))
    with mock.patch.object(nn_ops, "CHUNK_PIXELS", 64 if npix == 50 else 16), \
            mock.patch.object(tensor_core, "CPU_THREADS", 2):
        got = nn_ops._run_chain(x, ops)
        want = nn_ops.run_ops(ops, x, [])
    assert got.dtype == want.dtype == np.float64
    assert got.tobytes() == want.tobytes() == hwc_reference.run_ops(ops, np.ascontiguousarray(x), []).tobytes()


def test_run_chain_holds_three_buffers_of_its_widest_step_per_thread():
    # the detail branch's widths on four blocks and two threads: each thread
    # holds one product buffer and two activation buffers, 32 channels each
    widths, threads, chunk = (6, 32, 32, 3), 2, nn_ops.CHUNK_PIXELS
    ops = chain(widths, (np.float32,) * 3, seed=80)
    x = planar(rand((4 * chunk, 6), seed=86))
    with mock.patch.object(tensor_core, "CPU_THREADS", threads):
        nn_ops._run_chain(x, ops)  # warm-up: numpy's and threading's first-call allocations
        tracemalloc.start()
        try:
            nn_ops._run_chain(x, ops)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    output = 4 * chunk * widths[-1] * 4
    assert peak < output + threads * 3 * max(widths) * chunk * 4 + 64 * 1024


@pytest.mark.parametrize("npix", [3 * 16 + 5, 16])
def test_run_chain_buffers_start_on_a_cache_line(npix):
    # gathered (C-ordered) input, several blocks on two threads or one lone block
    ops = chain((6, 32, 8, 3), (np.float32, np.float64, np.float32), seed=90)
    x = rand((npix, 6), seed=96)
    run_block, seen = nn_ops._run_block, []

    def recording(steps, t, out, p0, gather, acts, prod):
        seen.extend(a for a in (out, gather, *acts, prod) if a is not None)
        return run_block(steps, t, out, p0, gather, acts, prod)

    with mock.patch.object(nn_ops, "CHUNK_PIXELS", 16), mock.patch.object(tensor_core, "CPU_THREADS", 2), \
            mock.patch.object(nn_ops, "_run_block", recording):
        got = nn_ops._run_chain(x, ops)
    assert got.tobytes() == nn_ops.run_ops(ops, x, []).tobytes()
    assert len(seen) >= 4
    assert all(a.ctypes.data % 64 == 0 for a in seen)

import numpy as np
import pytest

from lightfuse import nn_ops
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


def pixel_major_pointwise(x, kern):
    """The original pixel-major loop, kept as the byte-for-byte oracle."""
    x2 = x.reshape(-1, kern.in_channels)
    out = np.empty((x2.shape[0], kern.out_channels), dtype=np.result_type(x2.dtype, kern.weights.dtype))
    out[:] = kern.bias
    for m in range(kern.in_channels):
        out += x2[:, m, np.newaxis] * kern.weights[m]
    return out.reshape(x.shape[:-1] + (kern.out_channels,))


@pytest.mark.parametrize("npix_offset", (-1, 0, 1))
@pytest.mark.parametrize("dtype", (np.float32, np.float64))
def test_pointwise_matches_pixel_major_oracle(npix_offset, dtype):
    npix = nn_ops.CHUNK_PIXELS + npix_offset
    kern = PointwiseKernel(rand((6, 32), seed=40), rand((32,), seed=41))
    x = np.random.default_rng(42).standard_normal((npix, 6)).astype(dtype)
    got = pointwise_forward(x, kern)
    want = pixel_major_pointwise(x, kern)
    assert got.dtype == want.dtype == np.result_type(dtype, np.float32)
    assert got.tobytes() == want.tobytes()


def test_pointwise_matches_pixel_major_oracle_leading_dims():
    kern = PointwiseKernel(rand((32, 3), seed=43), rand((3,), seed=44))
    # 8241 pixels under three leading dims: two full chunks and a residual one
    x = rand((3, 41, 67, 32), seed=45)
    got = pointwise_forward(x, kern)
    assert got.shape == (3, 41, 67, 3)
    assert got.tobytes() == pixel_major_pointwise(x, kern).tobytes()


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

"""Lightweight dual-exposure fusion: engine, cost model, tiled executor, CLI."""

from .cost_model import CONVENTIONS, FlopsConvention, analyze, flops_ds_conv, flops_standard_conv, params_of
from .fusion import (
    TrafficReport,
    fuse_images,
    fused_forward,
    run_detailnet_fused,
    run_detailnet_unfused,
)
from .metrics import extract_patches, psnr, select_extreme_pair, ssim
from .model import (
    LayerSpec,
    ModelGraph,
    WeightFormatError,
    build_lightfuse,
    build_tcnn,
    count_params,
    forward,
    init_weights,
    load_weights,
    save_weights,
)
from .nn_ops import (
    DepthwiseKernel,
    PointwiseKernel,
    add,
    depthwise_forward,
    grad_check,
    pointwise_forward,
    relu,
    tanh,
    upsample_nn,
)
from .tensor_core import PpmParseError, PpmReader, PpmWriter, decode_ppm, denormalize, encode_ppm, normalize
from .training import Adam, IdentityExtractor, LossReport, RandomConvExtractor, loss_mse, loss_perceptual, loss_total, train_toy

__version__ = "0.1.0"

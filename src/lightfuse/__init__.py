"""Lightweight dual-exposure fusion: engine, cost model, tiled executor, CLI.

Names load on first use (PEP 562): `lightfuse.X` and `from lightfuse import X`
import only X's module and the modules it needs, so a caller that uses
`model` alone never loads `fusion`, `metrics`, `training` or `cost_model`.
"""

from importlib import import_module as _import_module

_EXPORTS = {
    "cost_model": ("CONVENTIONS", "FlopsConvention", "analyze", "flops_ds_conv", "flops_standard_conv", "params_of"),
    "fusion": ("TrafficReport", "fuse_images", "fused_forward", "run_detailnet_fused", "run_detailnet_unfused"),
    "metrics": ("extract_patches", "psnr", "select_extreme_pair", "ssim"),
    "model": (
        "LayerSpec",
        "ModelGraph",
        "WeightFormatError",
        "build_lightfuse",
        "build_tcnn",
        "count_params",
        "forward",
        "init_weights",
        "load_weights",
        "save_weights",
    ),
    "nn_ops": (
        "DepthwiseKernel",
        "PointwiseKernel",
        "add",
        "depthwise_forward",
        "grad_check",
        "pointwise_forward",
        "relu",
        "tanh",
        "upsample_nn",
    ),
    "tensor_core": ("PpmParseError", "PpmReader", "PpmWriter", "decode_ppm", "denormalize", "encode_ppm", "normalize"),
    "training": (
        "Adam",
        "IdentityExtractor",
        "LossReport",
        "RandomConvExtractor",
        "loss_mse",
        "loss_perceptual",
        "loss_total",
        "train_toy",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_MODULE_OF, *_EXPORTS])
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        # the sys.modules entry itself, so patching its attributes reaches every caller
        return _import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        return getattr(_import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})

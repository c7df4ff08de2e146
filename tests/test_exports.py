"""Every name in a lightfuse module's __all__ is defined by that module, and
the package namespace loads each of them on first use.

Tracing tools resolve each listed name with getattr and wrap it, so a stale
entry, or one re-exported from another module, would break them.
"""

import importlib
import inspect
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import lightfuse

MODULES = [importlib.import_module(f"lightfuse.{info.name}") for info in pkgutil.iter_modules(lightfuse.__path__)]


@pytest.mark.parametrize(
    "module", [m for m in MODULES if hasattr(m, "__all__")], ids=lambda m: m.__name__
)
def test_all_names_are_defined_in_their_module(module):
    assert len(set(module.__all__)) == len(module.__all__)
    for name in module.__all__:
        assert name in vars(module), f"{module.__name__}.__all__ lists missing '{name}'"
        obj = vars(module)[name]
        if inspect.isfunction(obj) or inspect.isclass(obj):
            assert obj.__module__ == module.__name__, f"'{name}' is defined in {obj.__module__}"


# What `from lightfuse import *` bound when __init__ imported every module eagerly.
STAR_NAMES = {
    "cost_model": ["CONVENTIONS", "FlopsConvention", "analyze", "flops_ds_conv", "flops_standard_conv", "params_of"],
    "fusion": ["TrafficReport", "fuse_images", "fused_forward", "run_detailnet_fused", "run_detailnet_unfused"],
    "metrics": ["extract_patches", "psnr", "select_extreme_pair", "ssim"],
    "model": [
        "LayerSpec", "ModelGraph", "WeightFormatError", "build_lightfuse", "build_tcnn",
        "count_params", "forward", "init_weights", "load_weights", "save_weights",
    ],
    "nn_ops": [
        "DepthwiseKernel", "PointwiseKernel", "add", "depthwise_forward", "grad_check",
        "pointwise_forward", "relu", "tanh", "upsample_nn",
    ],
    "tensor_core": ["PpmParseError", "PpmReader", "PpmWriter", "decode_ppm", "denormalize", "encode_ppm", "normalize"],
    "training": [
        "Adam", "IdentityExtractor", "LossReport", "RandomConvExtractor",
        "loss_mse", "loss_perceptual", "loss_total", "train_toy",
    ],
}


def test_star_import_binds_every_export_and_submodule():
    namespace = {}
    exec("from lightfuse import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted([*STAR_NAMES, *(n for names in STAR_NAMES.values() for n in names)])
    assert len(namespace) == 56
    for module_name, names in STAR_NAMES.items():
        module = sys.modules[f"lightfuse.{module_name}"]
        assert namespace[module_name] is module
        for name in names:
            assert namespace[name] is vars(module)[name], name
    assert set(namespace) <= set(dir(lightfuse))


def test_unknown_attribute_raises_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        lightfuse.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from lightfuse import no_such_name", {})


def test_model_loads_only_what_it_needs(tmp_path):
    """`from lightfuse import model` plus load_weights, in a fresh process that has numpy."""
    graph = lightfuse.model.build_lightfuse()
    weights = tmp_path / "w.lfw"
    weights.write_bytes(lightfuse.model.save_weights(lightfuse.model.init_weights(graph, 0), graph))
    code = (
        "import sys, numpy; sys.path.insert(0, sys.argv[1]); "
        "from lightfuse import model; "
        "model.load_weights(open(sys.argv[2], 'rb').read(), model.build_lightfuse()); "
        "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] in ('lightfuse', 'fractions'))))"
    )
    src = str(Path(lightfuse.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", code, src, str(weights)], check=True, capture_output=True, text=True, timeout=60
    )
    assert out.stdout.split() == ["lightfuse", "lightfuse.model", "lightfuse.nn_ops", "lightfuse.tensor_core"]

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lightfuse import cost_model
from lightfuse.cost_model import (
    CONVENTIONS,
    FlopsConvention,
    analyze,
    flops_ds_conv,
    flops_standard_conv,
    params_of,
    render_kv,
    render_report,
)
from lightfuse.model import (
    LayerSpec,
    ModelGraph,
    build_lightfuse,
    build_tcnn,
    init_weights,
    param_entries,
    run_layer,
    spatial_factor,
)


def test_standard_conv_flops_examples():
    assert flops_standard_conv(3, 32, 32, 1, 1) == 9216
    assert flops_standard_conv(1, 5, 7, 4, 6) == 5 * 7 * 4 * 6  # pointwise case
    assert flops_standard_conv(3, 1, 1, 2, 2) == 36


def test_ds_conv_flops_example():
    assert flops_ds_conv(3, 32, 32, 1, 1) == 288 + 1024


def test_ds_ratio_formula_exact():
    for k in (3, 5):
        for n in range(1, 65):
            for m in (1, 6, 64):
                ratio = Fraction(flops_ds_conv(k, m, n, 11, 13), flops_standard_conv(k, m, n, 11, 13))
                assert ratio == Fraction(1, n) + Fraction(1, k * k)


def test_ds_ratio_value_at_3x32():
    ratio = Fraction(flops_ds_conv(3, 32, 32, 1, 1), flops_standard_conv(3, 32, 32, 1, 1))
    assert abs(float(ratio) - 0.14236) < 1e-5


def test_params_of_formulas():
    assert params_of(LayerSpec("s", "separable", k=3, in_channels=6, out_channels=3)) == 75
    assert params_of(LayerSpec("d", "depthwise", k=3, in_channels=6, out_channels=6)) == 60
    assert params_of(LayerSpec("p", "pointwise", in_channels=6, out_channels=32)) == 224
    assert params_of(LayerSpec("u", "upsample_nn", in_channels=3, out_channels=3)) == 0
    assert params_of(LayerSpec("r", "relu", in_channels=3, out_channels=3)) == 0


def test_params_of_matches_store_tensor_sizes():
    for graph in (build_lightfuse(), build_tcnn()):
        store = init_weights(graph, 0)
        for _, layers in graph.branches:
            for layer in layers:
                entries = param_entries(layer)
                total = sum(store[key].size for key, _, _ in entries)
                assert total == params_of(layer)


def test_lightfuse_param_totals_and_split():
    report = analyze(build_lightfuse(), CONVENTIONS["table4"])
    assert report.params_total == 1574
    assert report.params_by_category["pointwise"] == 1400
    assert report.params_by_category["depthwise"] == 174
    assert report.params_by_category["upsample"] == 0
    assert round(report.params_pct("pointwise"), 2) == 88.95
    assert round(report.params_pct("depthwise"), 2) == 11.05


def test_lightfuse_flops_per_pixel_mac_convention():
    report = analyze(build_lightfuse(), CONVENTIONS["table4"])
    assert report.flops_total == 2984
    assert report.flops_by_category["pointwise"] == 2 * 1330
    assert report.flops_by_category["depthwise"] == 2 * 162
    assert report.flops_by_category["upsample"] == 0


def test_lightfuse_flops_multiplies_only_convention():
    report = analyze(build_lightfuse(), CONVENTIONS["table2"])
    assert report.flops_by_category["pointwise"] == 1330
    assert report.flops_by_category["depthwise"] == 162
    assert report.flops_by_category["upsample"] == Fraction(63, 16)  # 3/16 + 3/4 + 3
    assert abs(report.flops_pct("pointwise") - 88.82) < 0.5
    assert abs(report.flops_pct("depthwise") - 10.91) < 0.5
    assert abs(report.flops_pct("upsample") - 0.27) < 0.5


def test_percentages_sum_to_hundred():
    for name in ("table4", "table2", "exact"):
        report = analyze(build_lightfuse(), CONVENTIONS[name])
        assert abs(sum(report.flops_pct(c) for c in cost_model.CATEGORIES) - 100.0) < 0.01
        assert abs(sum(report.params_pct(c) for c in cost_model.CATEGORIES) - 100.0) < 0.01


def test_actual_resolution_discounts_strided_layers():
    nominal = analyze(build_lightfuse(), CONVENTIONS["table4"])
    actual = analyze(build_lightfuse(), CONVENTIONS["exact"])
    assert actual.flops_total < nominal.flops_total
    # the global encoder runs at 1/4, 1/16, 1/64 of the nominal resolution
    expected_depthwise = 2 * (Fraction(54, 4) + Fraction(54, 16) + Fraction(54, 64))
    assert actual.flops_by_category["depthwise"] == expected_depthwise


def test_tcnn_totals():
    report = analyze(build_tcnn(), CONVENTIONS["table4"])
    assert report.params_total == 2009
    # all layers run at full resolution: multiplies = (54+192) + (288+1024) + (288+96)
    assert report.flops_total == 2 * 1942


def test_totals_invariant_under_branch_reorder():
    g = build_lightfuse()
    swapped = ModelGraph(g.name, (g.branches[1], g.branches[0]), True, 8)
    for conv in CONVENTIONS.values():
        a = analyze(g, conv)
        b = analyze(swapped, conv)
        assert a.params_total == b.params_total
        assert a.flops_total == b.flops_total


def test_render_report_contains_totals_and_is_deterministic():
    report = analyze(build_lightfuse(), CONVENTIONS["table4"])
    text = render_report(report)
    assert "1574" in text
    assert "2984" in text
    assert text == render_report(report)


def test_render_kv_lines():
    report = analyze(build_lightfuse(), CONVENTIONS["table2"])
    lines = render_kv(report).splitlines()
    layer_lines = [l for l in lines if l.startswith("layer=")]
    assert len(layer_lines) == len(report.entries)
    assert any(l.startswith("total params=1574 ") for l in lines)


def test_empty_graph_reports_zero():
    empty = ModelGraph("empty", (("main", ()),), False, 1)
    report = analyze(empty, CONVENTIONS["table4"])
    assert report.params_total == 0
    assert report.flops_total == 0
    assert "0" in render_report(report)


def test_convention_validation():
    with pytest.raises(ValueError):
        FlopsConvention(mac_factor=3)
    with pytest.raises(ValueError):
        FlopsConvention(spatial_mode="weird")


@given(h=st.integers(1, 8).map(lambda n: 8 * n), w=st.integers(1, 8).map(lambda n: 8 * n))
@settings(max_examples=15, deadline=None)
def test_spatial_factor_and_exact_flops_match_execution(h, w):
    """The one size rule against run_layer, and exact FLOPs against executed work."""
    for graph in (build_lightfuse(), build_tcnn()):
        store = init_weights(graph, 0)
        x = np.random.default_rng(h * w).uniform(-1, 1, size=(h, w, 6)).astype(np.float32)
        out_shape = {}
        for _, layers in graph.branches:
            y = x
            for layer in layers:
                out = run_layer(layer, store, y)
                area = Fraction(out.shape[0] * out.shape[1], y.shape[0] * y.shape[1])
                assert area == Fraction(*spatial_factor(layer)) ** 2, layer.name
                out_shape[layer.name] = out.shape
                y = out
        for e in analyze(graph, CONVENTIONS["exact"]).entries:
            oh, ow, oc = out_shape[e.name.split(".")[0]]
            if e.category == "upsample":
                assert e.flops_per_pixel * h * w == oh * ow * oc, e.name
            else:
                # one multiply per weight element at every output pixel
                multiplies = store[f"{e.name}.weight"].size
                assert e.flops_per_pixel * h * w == 2 * multiplies * oh * ow, e.name

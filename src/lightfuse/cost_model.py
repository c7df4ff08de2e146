"""Analytic parameter and FLOP accounting with selectable conventions.

Per-pixel FLOP figures are exact rationals (fractions.Fraction) so that
percentage assertions never drift. Cost formulas, with K the kernel size,
M input channels, N output channels:

    standard conv   K*K*M*N multiplies per output pixel, K*K*M*N + N params
    depthwise conv  K*K*M multiplies, K*K*M + N params
    pointwise conv  M*N multiplies, M*N + N params
    separable conv  depthwise part + pointwise part, one bias total

Separable layers are split into their depthwise and pointwise parts in the
report so category breakdowns stay meaningful.
"""

import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .model import LayerSpec, ModelGraph, param_entries, spatial_factor

__all__ = [
    "FlopsConvention",
    "CONVENTIONS",
    "LayerCost",
    "CostReport",
    "flops_standard_conv",
    "flops_ds_conv",
    "params_of",
    "analyze",
    "render_report",
    "render_kv",
]

CATEGORIES = ("pointwise", "depthwise", "upsample")


@dataclass(frozen=True)
class FlopsConvention:
    """How raw multiply counts are turned into reported FLOPs.

    mac_factor      1 counts multiplies only, 2 counts multiply+add pairs.
    spatial_mode    'nominal' costs every conv layer at the full input
                    resolution W*H; 'actual' costs it at its true output
                    resolution.
    include_upsample  count one copy per actual output element of each
                    nearest-neighbor upsampling layer (never scaled by
                    mac_factor; copies are not MACs).
    """

    mac_factor: int = 2
    spatial_mode: str = "nominal"
    include_upsample: bool = False

    def __post_init__(self):
        if self.mac_factor not in (1, 2):
            raise ValueError("mac_factor must be 1 or 2")
        if self.spatial_mode not in ("nominal", "actual"):
            raise ValueError("spatial_mode must be 'nominal' or 'actual'")

    def describe(self) -> str:
        ups = "included" if self.include_upsample else "excluded"
        return f"mac_factor={self.mac_factor} spatial={self.spatial_mode} upsample={ups}"


# The two documented accounting styles this model's headline figures use,
# plus the true executed-operation count.
CONVENTIONS = {
    "table4": FlopsConvention(mac_factor=2, spatial_mode="nominal", include_upsample=False),
    "table2": FlopsConvention(mac_factor=1, spatial_mode="nominal", include_upsample=True),
    "exact": FlopsConvention(mac_factor=2, spatial_mode="actual", include_upsample=True),
}


def flops_standard_conv(k: int, m: int, n: int, w: int, h: int) -> int:
    """Multiplies of a K x K standard conv over a W x H output."""
    return k * k * m * n * w * h


def flops_ds_conv(k: int, m: int, n: int, w: int, h: int) -> int:
    """Multiplies of a separable conv: depthwise stage plus pointwise stage."""
    return k * k * m * w * h + m * n * w * h


def params_of(layer: LayerSpec) -> int:
    """Exact parameter count of a layer; zero for activations and upsampling."""
    return sum(math.prod(shape) for _, shape, _ in param_entries(layer))


@dataclass(frozen=True)
class LayerCost:
    name: str
    category: str
    params: int
    flops_per_pixel: Fraction


@dataclass(frozen=True)
class CostReport:
    model: str
    convention: FlopsConvention
    entries: tuple
    params_total: int
    flops_total: Fraction
    params_by_category: dict
    flops_by_category: dict

    def params_pct(self, category: str) -> float:
        if self.params_total == 0:
            return 0.0
        return 100.0 * self.params_by_category[category] / self.params_total

    def flops_pct(self, category: str) -> float:
        if self.flops_total == 0:
            return 0.0
        return float(100 * self.flops_by_category[category] / self.flops_total)


def analyze(graph: ModelGraph, convention: FlopsConvention = CONVENTIONS["table4"]) -> CostReport:
    """Per-layer and aggregate cost of a graph under the given convention."""
    mac = convention.mac_factor
    nominal = convention.spatial_mode == "nominal"
    entries = []
    for _, layers in graph.branches:
        scale = Fraction(1)  # output area of the current layer / input area
        for layer in layers:
            scale *= spatial_factor(layer) ** 2
            sp = Fraction(1) if nominal else scale
            k, m, n = layer.k, layer.in_channels, layer.out_channels
            if layer.kind == "depthwise":
                entries.append(
                    LayerCost(layer.name, "depthwise", params_of(layer), Fraction(k * k * m) * sp * mac)
                )
            elif layer.kind == "pointwise":
                entries.append(
                    LayerCost(layer.name, "pointwise", params_of(layer), Fraction(m * n) * sp * mac)
                )
            elif layer.kind == "separable":
                # the depthwise half of a separable layer carries no bias
                dw = params_of(replace(layer, kind="depthwise", bias=False))
                entries.append(LayerCost(f"{layer.name}.dw", "depthwise", dw, Fraction(k * k * m) * sp * mac))
                entries.append(
                    LayerCost(f"{layer.name}.pw", "pointwise", params_of(layer) - dw, Fraction(m * n) * sp * mac)
                )
            elif layer.kind == "upsample_nn":
                if convention.include_upsample:
                    entries.append(LayerCost(layer.name, "upsample", 0, Fraction(n) * scale))
            # relu / tanh are free in this accounting

    params_by_cat = {c: 0 for c in CATEGORIES}
    flops_by_cat = {c: Fraction(0) for c in CATEGORIES}
    for e in entries:
        params_by_cat[e.category] += e.params
        flops_by_cat[e.category] += e.flops_per_pixel
    return CostReport(
        model=graph.name,
        convention=convention,
        entries=tuple(entries),
        params_total=sum(params_by_cat.values()),
        flops_total=sum(flops_by_cat.values(), Fraction(0)),
        params_by_category=params_by_cat,
        flops_by_category=flops_by_cat,
    )


def _frac_str(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def render_report(report: CostReport) -> str:
    """Fixed-width text table: per-layer rows, totals, category shares."""
    lines = [
        f"model={report.model} convention: {report.convention.describe()}",
        f"{'layer':<12} {'category':<10} {'params':>7} {'flops/px':>12}",
    ]
    for e in report.entries:
        lines.append(
            f"{e.name:<12} {e.category:<10} {e.params:>7} {_frac_str(e.flops_per_pixel):>12}"
        )
    lines.append(
        f"{'total':<12} {'':<10} {report.params_total:>7} {_frac_str(report.flops_total):>12}"
    )
    lines.append("share by category:")
    for cat in CATEGORIES:
        lines.append(
            f"  {cat:<10} flops {report.flops_pct(cat):6.2f}%  params {report.params_pct(cat):6.2f}%"
        )
    return "\n".join(lines)


def render_kv(report: CostReport) -> str:
    """Machine-readable dump: one key=value line per layer plus totals."""
    lines = []
    for e in report.entries:
        lines.append(
            f"layer={e.name} category={e.category} params={e.params}"
            f" flops_per_pixel={_frac_str(e.flops_per_pixel)}"
        )
    lines.append(
        f"total params={report.params_total} flops_per_pixel={_frac_str(report.flops_total)}"
    )
    for cat in CATEGORIES:
        lines.append(
            f"pct category={cat} flops={report.flops_pct(cat):.4f} params={report.params_pct(cat):.4f}"
        )
    return "\n".join(lines)

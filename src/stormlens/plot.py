"""Deterministic SVG renderers for the five plot families, plus JSON
sidecars so external tools can re-render the same data.

Renderers are pure: identical inputs produce byte-identical SVG. All
randomness-free layout (jitter included) is hash-based.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .analysis import DependenceData
from .data import dumps_json, open_artifact
from .errors import InputError
from .lime import LimeExplanation
from .shapley import GlobalImportance, ShapExplanation

PLOTSPEC_SCHEMA = "plotspec/1"

# Diverging scale endpoints: blue, purple midpoint, red.
_BLUE = (0x1F, 0x77, 0xE0)
_PURPLE = (0x8A, 0x2B, 0xE2)
_RED = (0xE0, 0x1F, 0x5F)

COLOR_NEGATIVE = "#1f77e0"
COLOR_POSITIVE = "#e01f5f"


@dataclass
class PlotSpec:
    """Renderer-independent plot description; serialized as the sidecar."""

    kind: str  # beeswarm | bar | decision | dependence | lime_local
    title: str
    width: int
    height: int
    data: dict

    def to_json(self, path=None) -> str:
        return dumps_json({"schema": PLOTSPEC_SCHEMA, **dataclasses.asdict(self)}, path)


def diverging_color(t: float) -> str:
    """Hex color on the blue-purple-red scale for t in [0, 1]."""
    t = min(max(float(t), 0.0), 1.0)
    if t <= 0.5:
        a, b, u = _BLUE, _PURPLE, 2.0 * t
    else:
        a, b, u = _PURPLE, _RED, 2.0 * t - 1.0
    rgb = tuple(round(x + (y - x) * u) for x, y in zip(a, b))
    return "#{:02x}{:02x}{:02x}".format(*rgb)


def anchored_t(value: float, lo: float, mid: float, hi: float) -> float:
    """Map value to [0, 1] with 0.5 pinned at mid (piecewise linear)."""
    value = float(value)
    if value <= mid:
        span = mid - lo
        return 0.5 if span <= 0 else 0.5 * (1.0 - min((mid - value) / span, 1.0))
    span = hi - mid
    return 0.5 if span <= 0 else 0.5 + 0.5 * min((value - mid) / span, 1.0)


def _px(v: float) -> str:
    return f"{float(v):.2f}"


def _num(v: float) -> str:
    return f"{float(v):.3f}"


def _hash_unit(i: int) -> float:
    """Deterministic pseudo-uniform in [0, 1) from an integer index."""
    return ((int(i) + 1) * 2654435761 % 2**32) / 2**32


@dataclass
class _Axis:
    lo: float
    hi: float
    px0: float
    px1: float

    def __post_init__(self):
        if self.hi <= self.lo:
            pad = 1.0 if self.lo == 0.0 else abs(self.lo) * 0.5 + 1e-9
            self.lo -= pad
            self.hi += pad

    def to_px(self, v: float) -> float:
        return self.px0 + (float(v) - self.lo) / (self.hi - self.lo) * (self.px1 - self.px0)

    def cal(self, name: str) -> dict[str, float]:
        """The calibration attributes of an axis called ``name`` ("x", "y")."""
        return {f"{name}0": self.lo, f"{name}1": self.hi,
                f"p{name}0": self.px0, f"p{name}1": self.px1}


def _padded(values: np.ndarray, frac: float = 0.05) -> tuple[float, float]:
    lo = float(np.min(values))
    hi = float(np.max(values))
    pad = (hi - lo) * frac or 1.0
    return lo - pad, hi + pad


def _escape(s: str) -> str:
    """``s`` as XML character data: the replacements of
    ``xml.sax.saxutils.escape``, whose import loads the network stack."""
    return s.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _text(x: float, y: float, s: str, size: int = 11, anchor: str = "start") -> str:
    return (
        f'<text x="{_px(x)}" y="{_px(y)}" font-family="monospace" '
        f'font-size="{size}" text-anchor="{anchor}">{_escape(s)}</text>'
    )


def _svg(spec: PlotSpec, title_x: float, body: list[str],
         cal: dict[str, float] | None = None) -> str:
    """The whole document: ``body`` framed by the header with the axis
    calibration ``cal`` as data attributes, the background, the title at
    ``title_x`` and the closing tag."""
    width, height = spec.width, spec.height
    attrs = "".join(f' data-{k}="{repr(float(v))}"' for k, v in sorted((cal or {}).items()))
    return "\n".join([
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}"{attrs}>',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
        _text(title_x, 28, spec.title, size=14),
        *body,
        "</svg>",
    ]) + "\n"


# ---------------------------------------------------------------------------
# beeswarm


def spec_beeswarm(
    explanations: list[ShapExplanation],
    feature_values: np.ndarray,
    importance: GlobalImportance,
    names: tuple[str, ...],
) -> PlotSpec:
    """Per-feature strips of attribution values, colored by feature value."""
    if not explanations:
        raise InputError("beeswarm needs at least one explanation")
    vals = np.asarray(feature_values, dtype=np.float64)
    rows = []
    for j in importance.order:
        col = vals[:, j]
        rows.append(
            {
                "name": names[j],
                "phi": [float(e.phi[j]) for e in explanations],
                "value": [float(v) for v in col],
                "vmin": float(col.min()),
                "vmed": float(np.median(col)),
                "vmax": float(col.max()),
            }
        )
    return PlotSpec(
        kind="beeswarm",
        title="attribution beeswarm",
        width=860,
        height=110 + 36 * len(rows),
        data={"rows": rows},
    )


def _render_beeswarm(spec: PlotSpec) -> str:
    rows = spec.data["rows"]
    left, right, top = 150, spec.width - 40, 60
    row_h = 36.0
    all_phi = np.array([p for r in rows for p in r["phi"]] or [0.0])
    lo, hi = _padded(np.append(all_phi, 0.0))
    ax = _Axis(lo, hi, left, right)
    zero_x = ax.to_px(0.0)
    bottom = top + row_h * len(rows)
    out = [
        f'<line x1="{_px(zero_x)}" y1="{_px(top - 8)}" x2="{_px(zero_x)}" '
        f'y2="{_px(bottom)}" stroke="#999999" stroke-width="1"/>'
    ]
    n = len(rows[0]["phi"]) if rows else 0
    for r_i, row in enumerate(rows):
        yc = top + row_h * (r_i + 0.5)
        out.append(_text(left - 8, yc + 4, row["name"], anchor="end"))
        out.append(
            f'<line x1="{left}" y1="{_px(yc)}" x2="{right}" y2="{_px(yc)}" '
            f'stroke="#eeeeee" stroke-width="1"/>'
        )
        for i, (phi, val) in enumerate(zip(row["phi"], row["value"])):
            jitter = 0.0 if n == 1 else (2.0 * _hash_unit(i) - 1.0) * 0.4 * row_h
            t = anchored_t(val, row["vmin"], row["vmed"], row["vmax"])
            out.append(
                f'<circle cx="{_px(ax.to_px(phi))}" cy="{_px(yc + jitter)}" r="3" '
                f'fill="{diverging_color(t)}" fill-opacity="0.85" '
                f'data-x="{repr(float(phi))}"/>'
            )
    out.append(_text(left, bottom + 26, "attribution (probability units)"))
    return _svg(spec, left, out, cal=ax.cal("x"))


# ---------------------------------------------------------------------------
# bar


def spec_bar(importance: GlobalImportance, names: tuple[str, ...]) -> PlotSpec:
    if len(names) != importance.values.size:
        raise InputError("names length must match importance size")
    bars = [
        {"name": names[j], "value": float(importance.values[j])}
        for j in importance.order
    ]
    return PlotSpec(
        kind="bar",
        title="global importance (mean |attribution|)",
        width=760,
        height=110 + 30 * len(bars),
        data={"bars": bars},
    )


def _render_bar(spec: PlotSpec) -> str:
    bars = spec.data["bars"]
    left, right, top = 150, spec.width - 90, 60
    bar_h, gap = 20.0, 10.0
    vmax = max((b["value"] for b in bars), default=0.0)
    out = []
    for i, b in enumerate(bars):
        y = top + i * (bar_h + gap)
        w = 0.0 if vmax <= 0 else b["value"] / vmax * (right - left)
        out.append(_text(left - 8, y + bar_h - 5, b["name"], anchor="end"))
        out.append(
            f'<rect x="{left}" y="{_px(y)}" width="{_px(w)}" height="{_px(bar_h)}" '
            f'fill="{COLOR_POSITIVE}" data-value="{repr(float(b["value"]))}"/>'
        )
        out.append(_text(left + w + 6, y + bar_h - 5, _num(b["value"])))
    return _svg(spec, left, out)


# ---------------------------------------------------------------------------
# decision


def spec_decision(
    paths: np.ndarray,
    bottom_up: list[int],
    base: float,
    fx: list[float],
    names: tuple[str, ...],
) -> PlotSpec:
    paths = np.asarray(paths, dtype=np.float64)
    if paths.ndim != 2 or paths.shape[1] != len(bottom_up) + 1:
        raise InputError("paths must be (n, d+1) for d ranked features")
    return PlotSpec(
        kind="decision",
        title="decision paths from base value",
        width=760,
        height=150 + 26 * len(bottom_up),
        data={
            "base": float(base),
            "features_bottom_up": [names[j] for j in bottom_up],
            "paths": [[float(v) for v in row] for row in paths],
            "fx": [float(v) for v in fx],
        },
    )


def _render_decision(spec: PlotSpec) -> str:
    feats = spec.data["features_bottom_up"]
    paths = spec.data["paths"]
    base = spec.data["base"]
    fx = spec.data["fx"]
    left, right, top = 150, spec.width - 40, 60
    row_h = 26.0
    levels = len(feats) + 1
    bottom = top + row_h * (levels - 1)
    flat = np.array([v for row in paths for v in row] or [base])
    lo, hi = _padded(np.append(flat, base))
    ax = _Axis(lo, hi, left, right)
    base_x = ax.to_px(base)
    out = [
        f'<line x1="{_px(base_x)}" y1="{_px(top - 8)}" x2="{_px(base_x)}" '
        f'y2="{_px(bottom + 8)}" stroke="#999999" stroke-width="1" stroke-dasharray="4 3"/>',
        _text(base_x + 4, top - 12, f"base {_num(base)}"),
    ]
    for k, name in enumerate(feats):
        y = bottom - row_h * (k + 1)
        out.append(_text(left - 8, y + 4, name, anchor="end"))
        out.append(
            f'<line x1="{left}" y1="{_px(y)}" x2="{right}" y2="{_px(y)}" '
            f'stroke="#eeeeee" stroke-width="1"/>'
        )
    delta = max((abs(f - base) for f in fx), default=0.0)
    for row, f in zip(paths, fx):
        t = anchored_t(f, base - delta, base, base + delta)
        pts = " ".join(
            f"{_px(ax.to_px(v))},{_px(bottom - row_h * k)}" for k, v in enumerate(row)
        )
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="{diverging_color(t)}" '
            f'stroke-width="1.2" stroke-opacity="0.8"/>'
        )
    out.append(_text(left, bottom + 30, "cumulative model output"))
    return _svg(spec, left, out, cal=ax.cal("x"))


# ---------------------------------------------------------------------------
# dependence


def spec_dependence(dep: DependenceData) -> PlotSpec:
    return PlotSpec(
        kind="dependence",
        title=f"dependence: {dep.feature} (color: {dep.correlate})",
        width=760,
        height=520,
        data=dep.to_dict(),
    )


def _render_dependence(spec: PlotSpec) -> str:
    pts = spec.data["points"]
    left, right, top, bottom = 90, spec.width - 110, 60, spec.height - 70
    xs = np.array([p["x"] for p in pts] or [0.0])
    ys = np.array([p["shap"] for p in pts] or [0.0])
    cs = np.array([p["color"] for p in pts] or [0.0])
    ax = _Axis(*_padded(xs), left, right)
    ay = _Axis(*_padded(np.append(ys, 0.0)), bottom, top)  # y grows upward
    zero_y = ay.to_px(0.0)
    out = [
        f'<line x1="{left}" y1="{_px(zero_y)}" x2="{right}" y2="{_px(zero_y)}" '
        f'stroke="#999999" stroke-width="1"/>'
    ]
    cmin, cmed, cmax = float(cs.min()), float(np.median(cs)), float(cs.max())
    for p in pts:
        t = anchored_t(p["color"], cmin, cmed, cmax)
        out.append(
            f'<circle cx="{_px(ax.to_px(p["x"]))}" cy="{_px(ay.to_px(p["shap"]))}" '
            f'r="3.5" fill="{diverging_color(t)}" fill-opacity="0.85" '
            f'data-x="{repr(float(p["x"]))}" data-y="{repr(float(p["shap"]))}"/>'
        )
    # color bar on the right
    bar_x, bar_w = spec.width - 70, 16
    nseg = 24
    seg_h = (bottom - top) / nseg
    for s in range(nseg):
        t = 1.0 - (s + 0.5) / nseg
        out.append(
            f'<rect x="{bar_x}" y="{_px(top + s * seg_h)}" width="{bar_w}" '
            f'height="{_px(seg_h + 0.5)}" fill="{diverging_color(t)}"/>'
        )
    out.append(_text(bar_x, top - 8, f"{spec.data['correlate']}", size=10))
    out.append(_text(bar_x + bar_w + 4, top + 10, f"{cmax:.2f}", size=10))
    out.append(_text(bar_x + bar_w + 4, bottom, f"{cmin:.2f}", size=10))
    out.append(_text(left, bottom + 32, f"{spec.data['feature']} (normalized)"))
    out.append(_text(18, top - 12, "attribution"))
    return _svg(spec, left, out, cal={**ax.cal("x"), **ay.cal("y")})


# ---------------------------------------------------------------------------
# local surrogate bars


def spec_lime(exp: LimeExplanation) -> PlotSpec:
    return PlotSpec(
        kind="lime_local",
        title=f"local explanation: {exp.sample_id}" if exp.sample_id else "local explanation",
        width=760,
        height=120 + 30 * len(exp.entries),
        data=exp.to_dict(),
    )


def _render_lime(spec: PlotSpec) -> str:
    entries = spec.data["entries"]
    left, right, top = 280, spec.width - 80, 60
    bar_h, gap = 20.0, 10.0
    wmax = max((abs(e["weight"]) for e in entries), default=0.0) or 1.0
    mid = (left + right) / 2.0
    half = (right - left) / 2.0
    bottom = top + len(entries) * (bar_h + gap)
    out = [
        f'<line x1="{_px(mid)}" y1="{_px(top - 8)}" x2="{_px(mid)}" '
        f'y2="{_px(bottom)}" stroke="#999999" stroke-width="1"/>'
    ]
    for i, e in enumerate(entries):
        y = top + i * (bar_h + gap)
        w = abs(e["weight"]) / wmax * half
        color = COLOR_POSITIVE if e["weight"] >= 0 else COLOR_NEGATIVE
        x = mid if e["weight"] >= 0 else mid - w
        out.append(_text(left - 8, y + bar_h - 5, e["rule"], anchor="end", size=10))
        out.append(
            f'<rect x="{_px(x)}" y="{_px(y)}" width="{_px(w)}" height="{_px(bar_h)}" '
            f'fill="{color}" data-weight="{repr(float(e["weight"]))}"/>'
        )
        lx = mid + w + 6 if e["weight"] >= 0 else mid - w - 6
        anchor = "start" if e["weight"] >= 0 else "end"
        out.append(_text(lx, y + bar_h - 5, _num(e["weight"]), anchor=anchor, size=10))
    return _svg(spec, left, out)


# ---------------------------------------------------------------------------

_RENDERERS = {
    "beeswarm": _render_beeswarm,
    "bar": _render_bar,
    "decision": _render_decision,
    "dependence": _render_dependence,
    "lime_local": _render_lime,
}


def render(spec: PlotSpec) -> str:
    """Render a PlotSpec to a standalone SVG document."""
    try:
        builder = _RENDERERS[spec.kind]
    except KeyError:
        raise InputError(f"unknown plot kind {spec.kind!r}") from None
    return builder(spec)


def write_pair(out_dir, name: str, spec: PlotSpec) -> list[str]:
    """Write <name>.svg plus <name>.json; returns the two file names. The
    sidecar's text comes first: it refuses NaN and infinity, which ``render``
    cannot draw, naming its file, before either file is opened."""
    svg_name, json_name = f"{name}.svg", f"{name}.json"
    sidecar = spec.to_json(f"{out_dir}/{json_name}")
    for file_name, text in ((svg_name, render(spec)), (json_name, sidecar)):
        with open_artifact(f"{out_dir}/{file_name}") as fh:
            fh.write(text)
    return [svg_name, json_name]

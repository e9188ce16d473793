import json
import re
import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from stormlens import analysis, lime, plot, shapley
from stormlens.errors import InputError, StormlensError
from stormlens.features import FEATURE_NAMES


def _exp(phi, sid="s", base=0.4):
    phi = np.asarray(phi, dtype=np.float64)
    return shapley.ShapExplanation(sample_id=sid, method="exact", base=base,
                                   fx=base + float(phi.sum()), phi=phi)


def make_importance(values):
    values = np.asarray(values, dtype=np.float64)
    order = sorted(range(values.size), key=lambda j: (-values[j], j))
    return shapley.GlobalImportance(values=values, order=order)


def beeswarm_inputs(n=5, seed=0):
    rng = np.random.default_rng(seed)
    exps = [_exp(rng.normal(scale=0.1, size=12), sid=str(i)) for i in range(n)]
    values = rng.normal(size=(n, 12))
    imp = shapley.global_importance(exps)
    return exps, values, imp


def lime_explanation(weights):
    entries = [
        lime.LimeEntry(feature=FEATURE_NAMES[i], rule=f"{FEATURE_NAMES[i]} > 1.00",
                       weight=w)
        for i, w in enumerate(weights)
    ]
    entries.sort(key=lambda e: -abs(e.weight))
    return lime.LimeExplanation(sample_id="sid", entries=entries, intercept=0.1,
                                local_pred=0.5, fidelity=0.9, flags=[])


def all_specs():
    exps, values, imp = beeswarm_inputs()
    paths, bottom_up = shapley.decision_path(exps, imp, base=0.4)
    dep = analysis.DependenceData(
        feature="TOTPOT", correlate="SAVNCPP", correlate_positive=True,
        x=np.array([-1.0, 0.5, 2.0]), shap=np.array([-0.2, 0.0, 0.3]),
        color=np.array([-1.5, 0.0, 1.5]),
    )
    return {
        "beeswarm": plot.spec_beeswarm(exps, values, imp, FEATURE_NAMES),
        "bar": plot.spec_bar(imp, FEATURE_NAMES),
        "decision": plot.spec_decision(paths, bottom_up, 0.4, [e.fx for e in exps], FEATURE_NAMES),
        "dependence": plot.spec_dependence(dep),
        "lime_local": plot.spec_lime(lime_explanation([0.3, -0.2, 0.1] + [0.0] * 9)),
    }


class TestRenderBasics:
    def test_byte_identical_rerender(self):
        for kind, spec in all_specs().items():
            assert plot.render(spec) == plot.render(spec), kind

    def test_well_formed_xml_with_viewbox(self):
        for kind, spec in all_specs().items():
            root = ET.fromstring(plot.render(spec))
            assert root.tag.endswith("svg"), kind
            assert "viewBox" in root.attrib, kind

    def test_json_sidecar_schema(self):
        for kind, spec in all_specs().items():
            doc = json.loads(spec.to_json())
            assert doc["schema"] == "plotspec/1"
            assert doc["kind"] == kind

    def test_write_pair(self, tmp_path):
        spec = all_specs()["bar"]
        names = plot.write_pair(tmp_path, "bar", spec)
        assert sorted(names) == ["bar.json", "bar.svg"]
        assert (tmp_path / "bar.svg").read_text().startswith("<?xml")

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.text(st.one_of(st.sampled_from("&<>;amp"), st.characters())))
    @example("&amp;&<&>>")
    def test_escape_matches_saxutils(self, text):
        assert plot._escape(text) == escape(text)


class TestPayloadValidation:
    """A value JSON cannot hold is an internal error (the CLI exits 1) that
    names the sidecar, found before either file of the pair is written."""

    @pytest.mark.parametrize("kind", ["bar", "decision"])
    def test_non_finite_payload_names_the_sidecar_and_writes_nothing(self, tmp_path, kind):
        if kind == "bar":
            spec = plot.PlotSpec(kind="bar", title="t", width=10, height=10,
                                 data={"bars": [{"name": "x", "value": float("nan")}]})
        else:
            exps, _, imp = beeswarm_inputs()
            paths, bottom_up = shapley.decision_path(exps, imp, base=0.4)
            fx = [float("nan")] + [e.fx for e in exps[1:]]
            spec = plot.spec_decision(paths, bottom_up, 0.4, fx, FEATURE_NAMES)
            with pytest.raises(ValueError):  # the NaN line colour, were it drawn first
                plot.render(spec)
        with pytest.raises(StormlensError) as exc:
            plot.write_pair(tmp_path, kind, spec)
        assert not isinstance(exc.value, InputError)
        assert str(exc.value).startswith(f"{tmp_path}/{kind}.json: ")
        assert list(tmp_path.iterdir()) == []


class TestColorScale:
    def test_endpoints_and_midpoint(self):
        assert plot.diverging_color(0.0) == "#1f77e0"
        assert plot.diverging_color(0.5) == "#8a2be2"
        assert plot.diverging_color(1.0) == "#e01f5f"

    def test_anchored_midpoint(self):
        assert plot.anchored_t(5.0, 0.0, 5.0, 10.0) == 0.5
        assert plot.anchored_t(0.0, 0.0, 5.0, 10.0) == 0.0
        assert plot.anchored_t(10.0, 0.0, 5.0, 10.0) == 1.0

    def test_degenerate_span_pins_to_middle(self):
        assert plot.anchored_t(3.0, 3.0, 3.0, 3.0) == 0.5


def rect_widths(svg):
    return [float(m) for m in re.findall(r'<rect [^>]*width="([0-9.]+)" height="20\.00"', svg)]


class TestBar:
    def test_proportional_lengths(self):
        imp = make_importance([1.0, 0.5] + [0.0] * 10)
        svg = plot.render(plot.spec_bar(imp, FEATURE_NAMES))
        widths = rect_widths(svg)
        assert widths[0] == 2.0 * widths[1]

    def test_zero_importance_bar(self):
        imp = make_importance([1.0] + [0.0] * 11)
        svg = plot.render(plot.spec_bar(imp, FEATURE_NAMES))
        assert "0.000" in svg
        assert rect_widths(svg)[-1] == 0.0

    def test_all_equal_catalog_order(self):
        imp = make_importance([0.5] * 12)
        assert imp.order == list(range(12))
        svg = plot.render(plot.spec_bar(imp, FEATURE_NAMES))
        widths = rect_widths(svg)
        assert len(set(widths)) == 1


class TestBeeswarm:
    def test_zero_phi_dots_on_zero_line(self):
        exps = [_exp(np.zeros(12), sid=str(i)) for i in range(3)]
        values = np.random.default_rng(1).normal(size=(3, 12))
        imp = shapley.global_importance(exps)
        svg = plot.render(plot.spec_beeswarm(exps, values, imp, FEATURE_NAMES))
        root = ET.fromstring(svg)
        zero_px = plot._Axis(
            float(root.attrib["data-x0"]), float(root.attrib["data-x1"]),
            float(root.attrib["data-px0"]), float(root.attrib["data-px1"]),
        ).to_px(0.0)
        cx = {c.attrib["cx"] for c in root.iter() if c.tag.endswith("circle")}
        assert cx == {f"{zero_px:.2f}"}

    def test_single_sample_no_jitter(self):
        exps, values, imp = beeswarm_inputs(n=1)
        svg = plot.render(plot.spec_beeswarm(exps, values, imp, FEATURE_NAMES))
        root = ET.fromstring(svg)
        cys = [float(c.attrib["cy"]) for c in root.iter() if c.tag.endswith("circle")]
        # row centers sit at top + 36 * (i + 0.5): fractional part .00 or .50
        assert all(abs(cy * 2 - round(cy * 2)) < 1e-9 for cy in cys)


class TestDecision:
    def test_flat_path_is_vertical_at_base(self):
        e = _exp(np.zeros(12), base=0.48)
        imp = shapley.global_importance([e])
        paths, bottom_up = shapley.decision_path([e], imp, 0.48)
        svg = plot.render(plot.spec_decision(paths, bottom_up, 0.48, [e.fx], FEATURE_NAMES))
        pts = re.search(r'<polyline points="([^"]+)"', svg).group(1)
        xs = {p.split(",")[0] for p in pts.split(" ")}
        assert len(xs) == 1

    def test_line_color_side_follows_final_value(self):
        up = _exp(np.append([0.2], np.zeros(11)), base=0.4)
        down = _exp(np.append([-0.2], np.zeros(11)), base=0.4)
        imp = shapley.global_importance([up, down])
        paths, bottom_up = shapley.decision_path([up, down], imp, 0.4)
        svg = plot.render(
            plot.spec_decision(paths, bottom_up, 0.4, [up.fx, down.fx], FEATURE_NAMES)
        )
        strokes = re.findall(r'stroke="(#[0-9a-f]{6})" stroke-width="1.2"', svg)
        def channels(h):
            return int(h[1:3], 16), int(h[5:7], 16)  # (red, blue)
        r_up, b_up = channels(strokes[0])
        r_dn, b_dn = channels(strokes[1])
        assert r_up > b_up  # above base: red side
        assert r_dn < b_dn  # below base: blue side


class TestDependence:
    def test_zero_phi_points_on_zero_line(self):
        dep = analysis.DependenceData(
            feature="TOTPOT", correlate="SAVNCPP", correlate_positive=True,
            x=np.array([0.0, 1.0]), shap=np.array([0.0, 0.0]),
            color=np.array([0.0, 1.0]),
        )
        svg = plot.render(plot.spec_dependence(dep))
        root = ET.fromstring(svg)
        ay = plot._Axis(
            float(root.attrib["data-y0"]), float(root.attrib["data-y1"]),
            float(root.attrib["data-py0"]), float(root.attrib["data-py1"]),
        )
        cys = {c.attrib["cy"] for c in root.iter() if c.tag.endswith("circle")}
        assert cys == {f"{ay.to_px(0.0):.2f}"}

    def test_color_scale_endpoints(self):
        dep = analysis.DependenceData(
            feature="TOTPOT", correlate="SAVNCPP", correlate_positive=True,
            x=np.array([0.0, 1.0]), shap=np.array([-0.1, 0.1]),
            color=np.array([-2.0, 2.0]),
        )
        svg = plot.render(plot.spec_dependence(dep))
        fills = re.findall(r'<circle[^>]*fill="(#[0-9a-f]{6})"', svg)
        assert fills == ["#1f77e0", "#e01f5f"]

    def test_pixel_mapping_inverts_to_data(self):
        rng = np.random.default_rng(2)
        dep = analysis.DependenceData(
            feature="TOTPOT", correlate="SAVNCPP", correlate_positive=True,
            x=rng.normal(size=10), shap=rng.normal(size=10), color=rng.normal(size=10),
        )
        svg = plot.render(plot.spec_dependence(dep))
        root = ET.fromstring(svg)
        a = root.attrib
        ax = plot._Axis(float(a["data-x0"]), float(a["data-x1"]),
                        float(a["data-px0"]), float(a["data-px1"]))
        scale = (ax.hi - ax.lo) / (ax.px1 - ax.px0)
        for c in root.iter():
            if not c.tag.endswith("circle"):
                continue
            recovered = ax.lo + (float(c.attrib["cx"]) - ax.px0) * scale
            assert abs(recovered - float(c.attrib["data-x"])) <= abs(scale) * 0.01


class TestLimePlot:
    def test_single_positive_entry_points_right(self):
        exp = lime_explanation([0.3] + [0.0] * 11)
        svg = plot.render(plot.spec_lime(exp))
        root = ET.fromstring(svg)
        rects = [r for r in root.iter()
                 if r.tag.endswith("rect") and "data-weight" in r.attrib]
        mid = (280 + (760 - 80)) / 2.0
        first = rects[0]
        assert float(first.attrib["data-weight"]) == 0.3
        assert float(first.attrib["x"]) == pytest.approx(mid)

    def test_mirrored_weights_equal_lengths_opposite_sides(self):
        exp = lime_explanation([0.3, -0.3] + [0.0] * 10)
        svg = plot.render(plot.spec_lime(exp))
        root = ET.fromstring(svg)
        rects = [r for r in root.iter()
                 if r.tag.endswith("rect") and "data-weight" in r.attrib]
        w0, w1 = (float(r.attrib["width"]) for r in rects[:2])
        x0, x1 = (float(r.attrib["x"]) for r in rects[:2])
        mid = (280 + (760 - 80)) / 2.0
        assert w0 == w1
        assert x0 == pytest.approx(mid) and x1 == pytest.approx(mid - w1)

    def test_rule_text_escaped(self):
        exp = lime_explanation([0.1] + [0.0] * 11)
        exp.entries[0].rule = "TOTUSJZ <= -0.81"
        svg = plot.render(plot.spec_lime(exp))
        assert "TOTUSJZ &lt;= -0.81" in svg
        ET.fromstring(svg)  # stays well-formed

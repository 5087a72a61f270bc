"""The benchmark's traced run still finds every library function it wraps.

``perfbench/tracing.py`` records per-layer spans by replacing module and class
attributes. A renamed attribute, or a caller that stops looking one up, leaves
a layer metric unmeasured and the traced run without a complete result line.
"""

import json
import sys
from pathlib import Path

from padicgeo import igf
from padicgeo.sample import MAHLER, RandomPolyModel

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]


def test_every_wrapped_attribute_exists():
    with tracing.patched(tracing.Tracer()) as missing:
        assert missing == []


def test_estimators_call_through_the_wrapped_attributes():
    tracer = tracing.Tracer()
    cfg = igf.McConfig(samples=5, seed=1)
    with tracing.patched(tracer):
        igf.mc_expected_zeros(RandomPolyModel(MAHLER, 3, 3), "zp", cfg)
        igf.mc_igf_curve(3, igf.CURVE_MAHLER, 3, cfg)
    names = {span[tracing.NAME] for span in tracer.spans}
    assert {
        "sample.sample_poly",
        "sample.residues",
        "roots.adaptive",
        "sample.haar",
        "sample.inverse_row",
        "roots.fixed",
    } <= names


def test_traced_certify_round_yields_its_layer_metrics():
    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        result = workloads.certify_round(workloads.certify_inputs(42), tracer.span)
    assert result.errors == []
    metrics = tracing.layer_metrics(tracer.spans, 1)
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    countvol = {n for n in declared if n.startswith(("countvol.build_s.", "countvol.nodes."))}
    assert countvol
    assert {"roots.exact_us", "veronese.jacobian_us", "veronese.extended_us"} | countvol <= set(metrics)

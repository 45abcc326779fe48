"""The benchmark in lprimbench/ reaches into lprim by name: its tracer wraps
the functions and methods listed in its TARGETS, and its Fourier stream
reads ``.re``/``.im`` of each transform.  These tests load the tracer from
its file and fail here when one of those names goes away."""

import importlib
import importlib.util
import math
from pathlib import Path

import lprim  # noqa: F401  (imports every module the tracer patches)
from lprim.lpspace import PrimitiveDistribution
from lprim.parser import parse_expr

TRACER = Path(__file__).resolve().parents[1] / "lprimbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("lprimbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_install_and_uninstall():
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        parse_expr("exp(-x^2)").eval_jet(0.3, 2)
    finally:
        tracer.uninstall()
    calls = tracer.totals()["calls"]
    assert calls[tracer.names.index("expr.FunctionExpr.eval_jet")] == 1
    # uninstall puts the originals back; the tracer's wrappers carry __wrapped__
    FunctionExpr = importlib.import_module("lprim.expr").FunctionExpr
    restored = (FunctionExpr.eval_jet, FunctionExpr.values,
                importlib.import_module("lprim.lpspace").translate)
    assert not any(hasattr(fn, "__wrapped__") for fn in restored)


def test_fourier_value_has_re_and_im():
    fourier = importlib.import_module("lprim.fourier")
    f = PrimitiveDistribution(parse_expr("exp(-x^2)"), 1.0)
    v = fourier.fourier(f, 1.0)
    assert math.isfinite(v.re) and math.isfinite(v.im)

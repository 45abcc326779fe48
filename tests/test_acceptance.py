"""Acceptance gate: one printed PASS/FAIL line per criterion.

Each test prints its verdict through ``sys.__stdout__`` so the lines are
visible even under pytest capture, then asserts so the suite fails loudly.
"""

import math
import os
import subprocess
import sys
import time

import pytest

import lprim
from lprim.convolution import conv_lq, incompatibility_exhibit, star
from lprim.corpus import sobolev_gn
from lprim.fourier import dfhat_vs_hatdf_exhibit, fourier, parseval_check
from lprim.higher import NthDistribution, norm_comparison_example, pair_polynomial
from lprim.lpspace import (
    DeltaTrain,
    Multiplier,
    PrimitiveDistribution,
    pair,
    pair_delta_train,
    reconstruct,
)
from lprim.parser import parse_expr
from lprim.poisson import (
    HalfPlanePoint,
    _kernel_expr,
    boundary_convergence,
    harmonic_extension,
    harmonicity_residual,
)
from lprim.quadrature import integrate_line, lp_norm
from lprim.verify import run_suites


def report(name, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"ACCEPTANCE {name}: {verdict}{suffix}"
    sys.__stdout__.write(line + "\n")
    sys.__stdout__.flush()
    from conftest import record_acceptance

    record_acceptance(line)
    assert ok, f"{name}{suffix}"


def dist(src, p):
    return PrimitiveDistribution(parse_expr(src), p)


def test_pairing_exactness():
    t0 = time.monotonic()
    f = dist("indicator(0,1)", 1.0)
    G = Multiplier(parse_expr("exp(-x)*indicator(0,50)"), math.inf)
    quad = pair(f, G)
    train = DeltaTrain([(1.0, 0.0, 1.0)])
    atomic = pair_delta_train(train, G)
    target = math.exp(-1) - 1.0
    elapsed = time.monotonic() - t0
    ok = (
        abs(quad - target) <= 1e-8
        and abs(atomic - quad) <= 1e-8
        and elapsed < 1.0
    )
    report("pairing-exactness", ok, f"quad={quad:.3e} train={atomic:.3e} t={elapsed:.2f}s")


def test_sobolev_norm_formulas():
    t0 = time.monotonic()
    worst = 0.0
    for alpha, beta in ((1.0, 1.0), (4.0, 0.5)):
        g, G = sobolev_gn(alpha, beta)
        for p in (1.0, 2.0, 3.0):
            g_target = 2 ** (1 / p) * alpha ** (1 / p) * beta
            G_target = (
                2 ** (1 / p) * (p + 1) ** (-1 / p) * alpha ** (1 + 1 / p) * beta
            )
            worst = max(worst, abs(lp_norm(g, p) - g_target))
            worst = max(worst, abs(lp_norm(G, p) - G_target))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-8 and elapsed < 5.0
    report("sobolev-norm-formulas", ok, f"worst={worst:.2e} t={elapsed:.2f}s")


def test_dual_norm():
    t0 = time.monotonic()
    records, ok = run_suites(["dualnorm"])
    elapsed = time.monotonic() - t0
    ok = ok and len(records) == 30 and elapsed < 30.0
    report("dual-norm", ok, f"{len(records)} checks t={elapsed:.1f}s")


def test_holder_suite():
    t0 = time.monotonic()
    records, ok = run_suites(["holder"])
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 120.0
    report("holder-200-pairs", ok, f"{len(records)} checks t={elapsed:.1f}s")


def test_lattice():
    records, ok = run_suites(["lattice"])
    report("lattice-l-space", ok, f"{len(records)} checks")


def test_reconstruction():
    chi = dist("indicator(0,1)", 1.0)
    exact = all(
        abs(reconstruct(chi, 0.5, n) - 1.0) <= 1e-12 for n in (2, 4, 16)
    )
    gauss = dist("exp(-x^2)", 2.0)
    errs = [abs(reconstruct(gauss, 0.0, n) - 1.0) for n in (4, 16, 64)]
    ok = exact and errs[0] > errs[1] > errs[2]
    report("reconstruction", ok, f"gauss errs={[f'{e:.1e}' for e in errs]}")


def test_convolution():
    f = dist("indicator(0,1)", 1.0)
    g = parse_expr("-2*x*exp(-x^2)")
    conv_val = conv_lq(f, g, 1.0, tol=1e-8).density_at(0.0)
    star_val = star(f, dist("exp(-x^2)", 1.0)).density_at(0.0)
    _, _, gap = incompatibility_exhibit()
    a = star(f, dist("exp(-x^2)", 1.0)).payload
    b = star(dist("exp(-x^2)", 1.0), f).payload
    comm = lp_norm(a.F - b.F, 1.0)
    _, young_ok = run_suites(["conv-young"])
    ok = (
        abs(conv_val - (-2 * math.exp(-1))) <= 1e-6
        and abs(star_val - (1 - math.exp(-1))) <= 1e-6
        and gap > 0.1
        and young_ok
        and comm <= 1e-8
    )
    report(
        "convolution-exhibits",
        ok,
        f"conv(0)={conv_val:.6f} star(0)={star_val:.6f} gap={gap:.3f} comm={comm:.1e}",
    )


def test_fourier():
    t0 = time.monotonic()
    f = dist("indicator(-1,1)", 1.0)
    at_half_pi = fourier(f, math.pi / 2).as_complex()
    at_zero = fourier(f, 0.0).as_complex()
    exhibit = dfhat_vs_hatdf_exhibit()
    row = next(r for r in exhibit["rows"] if abs(r[0] - math.pi) < 1e-12)
    dfhat_ok = abs(row[1].re - (-2 / math.pi)) <= 1e-6 and abs(row[2].as_complex()) <= 1e-6

    gauss = dist("exp(-x^2)", 1.0)
    ratios = [abs(fourier(gauss, s).as_complex()) / s for s in (1e2, 1e3, 1e4)]
    rl_ok = ratios[0] > ratios[1] > ratios[2]

    g2 = dist("exp(-x^2)", 2.0)
    box2 = dist("indicator(-1,1)", 2.0)
    gaps = []
    for a, b in ((g2, g2), (box2, g2)):
        lhs, rhs = parseval_check(a, b)
        gaps.append(abs(lhs - rhs))
    elapsed = time.monotonic() - t0
    ok = (
        abs(at_half_pi - 2j) <= 1e-6
        and at_zero == 0
        and dfhat_ok
        and rl_ok
        and max(gaps) <= 1e-4
        and elapsed < 120.0
    )
    report(
        "fourier-exhibits",
        ok,
        f"f^(pi/2)={at_half_pi:.6f} rl={[f'{r:.1e}' for r in ratios]} "
        f"parseval={max(gaps):.1e} t={elapsed:.1f}s",
    )


def test_higher_order():
    worst = 0.0
    for m in (1, 10, 100):
        l1, alex = norm_comparison_example(m)
        worst = max(worst, abs(l1 - 4.0), abs(alex - 2.0 / m))
    f = NthDistribution(parse_expr("exp(-x^2)"), 2.0, 3)
    annihilation = abs(pair_polynomial(f, [1.0, -2.0, 0.5]))
    ok = worst <= 1e-8 and annihilation <= 1e-10
    report("higher-order", ok, f"worst={worst:.1e} annihilation={annihilation:.1e}")


def test_poisson():
    t0 = time.monotonic()
    box = parse_expr("indicator(-1,1)")
    u0 = harmonic_extension(box, HalfPlanePoint(0.0, 1.0))
    masses = [
        abs(integrate_line(_kernel_expr(y)).value - 1.0) for y in (0.1, 1.0, 10.0)
    ]
    gauss = dist("exp(-x^2)", 2.0)
    norms, contraction_ok = boundary_convergence(gauss, [1.0, 0.3, 0.1, 0.03])
    decreasing = all(a > b for a, b in zip(norms, norms[1:]))
    r1 = abs(harmonicity_residual(gauss, HalfPlanePoint(0.2, 1.0), 0.2))
    r2 = abs(harmonicity_residual(gauss, HalfPlanePoint(0.2, 1.0), 0.1))
    residual_ok = abs(r1 / r2 - 4.0) < 0.6
    _, corpus_ok = run_suites(["poisson-boundary"])
    elapsed = time.monotonic() - t0
    ok = (
        abs(u0 - 0.5) <= 1e-8
        and max(masses) <= 1e-8
        and contraction_ok
        and corpus_ok
        and decreasing
        and norms[-1] < 0.05
        and residual_ok
        and elapsed < 180.0
    )
    report(
        "poisson",
        ok,
        f"U1(0)={u0:.9f} norms={[f'{n:.3f}' for n in norms]} "
        f"ratio={r1 / r2:.2f} t={elapsed:.1f}s",
    )


def _failure_detail(proc):
    """Name the failing checks and quote the end of stderr for a red run."""
    failed = [
        line.split(",", 1)[0] if "[FAIL]" in line else line
        for line in proc.stdout.splitlines()
        if "[FAIL]," in line or line.startswith("error,")
    ]
    parts = []
    if failed:
        more = f" (+{len(failed) - 10} more)" if len(failed) > 10 else ""
        parts.append("failed: " + ", ".join(failed[:10]) + more)
    tail = proc.stderr.strip().splitlines()[-5:]
    if tail:
        parts.append("stderr: " + " | ".join(tail))
    return parts


def _fresh_interpreter_env():
    """The environment of a fresh interpreter that imports the lprim package
    imported here, whether it is installed or only on PYTHONPATH (no console
    script needed)."""
    src_root = os.path.dirname(os.path.dirname(os.path.abspath(lprim.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_root, env.get("PYTHONPATH")) if p
    )
    return env


def test_import_graph():
    # scipy.interpolate imports scipy.optimize: both cost start-up time that
    # the package does not need
    probe = ("import sys, lprim; print(*(m for m in ('scipy.optimize', 'scipy.interpolate') "
             "if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=120, env=_fresh_interpreter_env())
    loaded = proc.stdout.split()
    ok = proc.returncode == 0 and not loaded
    report("import-graph", ok, f"exit={proc.returncode} scipy modules: {loaded or 'none'}")


def test_verify_all():
    # Run the CLI with this interpreter and the lprim package imported here
    env = _fresh_interpreter_env()
    budget = 600.0
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "lprim.cli", "verify", "--suite", "all"],
            capture_output=True,
            text=True,
            timeout=budget,
            env=env,
        )
    except subprocess.TimeoutExpired:
        elapsed = time.monotonic() - t0
        report("verify-suite-all", False, f"timeout after {budget:.0f}s t={elapsed:.0f}s")
    elapsed = time.monotonic() - t0
    ok = proc.returncode == 0 and elapsed < budget
    parts = [f"exit={proc.returncode} t={elapsed:.0f}s"]
    if proc.returncode != 0:
        parts += _failure_detail(proc)
    report("verify-suite-all", ok, "; ".join(parts))

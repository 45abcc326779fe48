"""Regenerate reference.json: reference answers made apart from lprim.

    python3 lprimbench/make_reference.py

Everything here is mpmath at 30 digits, except the Cantor brackets,
which sum over removed middle thirds with numpy (see oracles.py).
Nothing is taken from lprim's output.  A full run takes a few minutes.
"""

from __future__ import annotations

import json
import os
import sys

from mpmath import mp

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracles  # noqa: E402
from oracles import key  # noqa: E402

mp.dps = 30
INF = mp.inf

# corpus members and pool densities, written out in mpmath from their DSL source
MEMBERS = {
    "indicator": (lambda x: 1 if 0 < x < 1 else 0, [0, 1]),
    "gaussian": (lambda x: mp.exp(-x * x), []),
    "power_tail(2.5)": (lambda x: x * (abs(x) + 1) ** mp.mpf(-2.5), [0]),
    "power_tail(4)": (lambda x: x * (abs(x) + 1) ** -4, [0]),
    "sin_over_abs": (lambda x: mp.sin(x) / abs(x), [0]),
    "gamma_cusp(0.25)": (lambda x: abs(x) ** mp.mpf(-0.25) * mp.exp(-abs(x)), [0]),
    "log_cusp": (lambda x: mp.log(abs(x)) * mp.exp(-abs(x)), [0]),
    "tent": (lambda x: max(0, 1 - abs(x - 1)), [0, 1, 2]),
}


def weierstrass(x):
    return mp.exp(-x * x) * mp.fsum(mp.mpf(0.5) ** n * mp.cos(3 ** n * mp.pi * x)
                                    for n in range(6))


# breakpoints of the pool densities, whose values are oracles.DENSITY_VALUES
DENSITY_BREAKS = {"gauss": [], "expabs": [0], "box_m1_2": [-1, 2], "lorentz": [],
                  "cosgauss": [], "xgauss": []}


def pool_density(name):
    g = oracles.DENSITY_VALUES[name]
    return lambda x: g(x, mp)


LINE = [-INF, -8, -4, -2, -1, 0, 1, 2, 4, 8, INF]


def line_points(extra):
    return sorted(set(LINE) | {mp.mpf(e) for e in extra}, key=lambda v: float(v))


def zeros_on(f, a, b, step):
    """Sign changes of f on [a, b] from a grid of the given step, refined
    by bisection to full precision."""
    n = int(mp.ceil((b - a) / step))
    xs = [a + (b - a) * mp.mpf(i) / n for i in range(n + 1)]
    vs = [f(x) for x in xs]
    out = []
    for a, b, fa, fb in zip(xs, xs[1:], vs, vs[1:]):
        if fa * fb < 0:
            for _ in range(110):
                m = (a + b) / 2
                fm = f(m)
                if (fm < 0) == (fa < 0):
                    a, fa = m, fm
                else:
                    b = m
            out.append((a + b) / 2)
    return out


def abs_power_integral(f, p, pts, piece=None):
    """integral of |f|^p over consecutive points, f of one sign between them."""
    total = mp.mpf(0)
    for a, b in zip(pts, pts[1:]):
        if piece is not None and mp.isfinite(a) and mp.isfinite(b):
            n = max(1, int(mp.ceil((b - a) / piece)))
            sub = [a + (b - a) * mp.mpf(i) / n for i in range(n + 1)]
        else:
            sub = [a, b]
        total += mp.quad(lambda x: abs(f(x)) ** p, sub)
    return total


def norms():
    out = {}
    for p in (1.0, 1.5, 2.0, 3.0):
        v = 2 * mp.quad(lambda x: abs(mp.log(x)) ** p * mp.exp(-p * x), [0, 1, INF])
        out[key("norm", "log_cusp", p)] = v ** (1 / mp.mpf(p))
    for p in (1.5, 2.0, 3.0):
        # sum over periods: int |sin x / x|^p = 2 pi^-p int_0^pi sin^p t zeta(p, t/pi) dt
        v = 2 * mp.pi ** -p * mp.quad(lambda t: mp.sin(t) ** p * mp.zeta(p, t / mp.pi),
                                      [0, mp.pi / 2, mp.pi])
        out[key("norm", "sin_over_abs", p)] = v ** (1 / mp.mpf(p))
    zs = zeros_on(weierstrass, mp.mpf(0), mp.mpf(9), mp.mpf(1) / 4000)
    pts = [mp.mpf(0)] + zs + [mp.mpf(9)]
    for p in (1.0, 1.5, 2.0, 3.0):
        v = 2 * abs_power_integral(weierstrass, p, pts, piece=mp.mpf(1) / 81)
        out[key("norm", "weierstrass(6)", p)] = v ** (1 / mp.mpf(p))
    return out


def pairs():
    out = {}
    for name, (F, fpts) in MEMBERS.items():
        for dname, gpts in DENSITY_BREAKS.items():
            g = pool_density(dname)
            pts = line_points(fpts + gpts)
            if name == "sin_over_abs" and dname == "lorentz":  # slow oscillatory tails
                h = lambda x: F(x) * g(x)
                v = (mp.quad(h, [-2, -1, 0, 1, 2]) + mp.quadosc(h, [2, INF], omega=1)
                     + mp.quadosc(h, [-INF, -2], omega=1))
            else:
                v = mp.quad(lambda x: F(x) * g(x), pts)
            out[key("pair", name, dname)] = -v
    return out


def cantor():
    out = {}
    for p in (1.0, 1.5, 2.0, 3.0):
        lo, hi = oracles.cantor_norm_bracket(p)
        out[key("cantor_norm", p, "lo")], out[key("cantor_norm", p, "hi")] = lo, hi
    for dname in oracles.DENSITIES:
        lo, hi = oracles.cantor_pair_bracket(dname)
        out[key("cantor_pair", dname, "lo")], out[key("cantor_pair", dname, "hi")] = lo, hi
    return out


CONV_SLOTS = [("box01", "gauss"), ("box01", "expabs"), ("box01", "box02"), ("tent", "box02")]
STAR_SLOTS = [("box01", "box01"), ("box01", "tent"), ("tent", "tent"), ("box01", "gauss")]


def conv_norms():
    out = {}
    for F, g in CONV_SLOTS + STAR_SLOTS:
        # the closed forms are differences of growing antiderivatives, so stay
        # on [-40, 40], outside which every product is below 1e-17
        H = lambda x: oracles.conv_primitive(F, g, x, mp)
        pts = sorted({mp.mpf(v) for v in [-40, -8, -3, -1, 0, 1, 2, 3, 8, 40]}
                     | set(zeros_on(H, mp.mpf(-8), mp.mpf(8), mp.mpf(1) / 64)), key=float)
        for r in (1.0, 2.0, 3.0, 6.0) if (F, g) in CONV_SLOTS else (1.0,):
            v = abs_power_integral(H, r, pts)
            out[key("convnorm", F, g, r)] = v ** (1 / mp.mpf(r))
    return out


def box_extension(x, y):
    return (mp.atan((1 - x) / y) + mp.atan((1 + x) / y)) / mp.pi


# (p, y) of the box gaps in the halfplane stream
GAPS = [(1.0, 1.0), (2.0, 0.3)]


def gaps():
    """||U_y - F||_p for the box: even in x, so twice the half line."""
    out = {}
    for p, y in GAPS:
        y_ = mp.mpf(y)
        d = lambda x: box_extension(x, y_) - (1 if abs(x) < 1 else 0)
        brk = sorted({mp.mpf(b) for b in [0, 1 - 10 * y_, 1 - y_, 1 - y_ / 10, 1, 1 + y_ / 10,
                                          1 + y_, 1 + 10 * y_, 100] if b >= 0}, key=float)
        v = 2 * abs_power_integral(d, p, brk + [INF])
        out[key("gap", "box", p, y)] = v ** (1 / mp.mpf(p))
    return out


SECTIONS = {"norm": norms, "pair": pairs, "cantor": cantor, "convnorm": conv_norms,
            "gap": gaps}


def main():
    table = {}
    for name, fn in SECTIONS.items():
        for k, v in fn().items():
            table[k] = mp.nstr(mp.mpf(v), 25)
        print(f"{name}: done", flush=True)
    with open(oracles.REFERENCE_PATH, "w") as fh:
        json.dump(dict(sorted(table.items())), fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()

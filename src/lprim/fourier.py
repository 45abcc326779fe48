"""Fourier transforms of distributions with integrable primitives.

For f = F' with F in L^1 the transform of the primitive is classical,
and f itself transforms by ``f^(s) = is F^(s)``; n-th order primitives
give the factor (is)^n.  The module also carries the Parseval pairing on
L'^2 realized through a windowed discrete transform, and the exhibit
showing that differentiating the transform is not the transform of the
derivative.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ExponentError, IntegrabilityError, LprimError
from .expr import FunctionExpr, Wrapped, var_expr
from .lpspace import translate
from .parser import parse_expr
from .quadrature import DEFAULT_CONFIG, integrate_line, lp_norm


@dataclass(frozen=True)
class ComplexValue:
    re: float
    im: float

    def __add__(self, other):
        return ComplexValue(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return ComplexValue(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        if isinstance(other, ComplexValue):
            return ComplexValue(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        return ComplexValue(self.re * other, self.im * other)

    __rmul__ = __mul__

    def __abs__(self):
        return math.hypot(self.re, self.im)

    def as_complex(self):
        return complex(self.re, self.im)


def _osc_config(cfg, s):
    cfg = cfg or DEFAULT_CONFIG
    if s == 0.0:
        return cfg
    lam = 2.0 * math.pi / abs(s)
    if cfg.osc_wavelength is None or lam < cfg.osc_wavelength:
        cfg = replace(cfg, osc_wavelength=lam)
    return cfg


def _smooth_fourth_derivative(F):
    """F'''' when F is smooth with certified decay, else None."""
    if F.singularities or F.kinks:
        return None
    if F.decay[0] not in ("gaussian", "exponential"):
        return None
    try:
        d = F
        for _ in range(4):
            d = d.diff()
    except LprimError:
        return None
    if d.singularities or d.kinks or d.decay[0] == "none":
        return None
    return d


_IBP_THRESHOLD = 50.0


def fourier_primitive(F, s, cfg=None):
    """F^(s) = integral of F(x) e^{-isx} dx for F in L^1."""
    s = float(s)
    cfg = _osc_config(cfg, s)
    if s == 0.0:
        return ComplexValue(integrate_line(F, cfg).value, 0.0)
    scale = 1.0
    if abs(s) >= _IBP_THRESHOLD:
        # four integrations by parts tame the oscillation: the transform of
        # F'''' equals (is)^4 F^(s), and (is)^4 = s^4 is real
        d4 = _smooth_fourth_derivative(F)
        if d4 is not None:
            F = d4
            scale = 1.0 / s ** 4
            # the final value is multiplied by 1/s^4, so the raw transform
            # only needs absolute accuracy abs_tol * s^4
            cfg = replace(cfg, abs_tol=cfg.abs_tol / scale)
    cos_part = FunctionExpr.from_node(
        Wrapped(lambda xs, s=s: np.cos(s * np.asarray(xs)), name="cos_s",
                growth_hint=0.0)
    )
    sin_part = FunctionExpr.from_node(
        Wrapped(lambda xs, s=s: np.sin(s * np.asarray(xs)), name="sin_s",
                growth_hint=0.0)
    )
    re = integrate_line(F * cos_part, cfg).value
    im = -integrate_line(F * sin_part, cfg).value
    return ComplexValue(scale * re, scale * im)


def fourier(f, s, cfg=None):
    """f^(s) = is F^(s) for f in L'^1."""
    if f.p != 1.0:
        raise ExponentError("fourier needs a distribution in L'^1")
    s = float(s)
    Fh = fourier_primitive(f.F, s, cfg)
    return ComplexValue(0.0, s) * Fh


def fourier_n(f, s, cfg=None):
    """f^(s) = (is)^n F^(s) for an n-th order distribution f = F^(n)."""
    n = int(getattr(f, "order", 1))
    if n < 1:
        raise ExponentError("fourier_n needs order >= 1")
    if f.p != 1.0:
        raise ExponentError("fourier_n needs p = 1")
    s = float(s)
    Fh = fourier_primitive(f.F, s, cfg)
    z = complex(0.0, s) ** n * Fh.as_complex()
    return ComplexValue(z.real, z.imag)


def translation_modulation(f, y, s, cfg=None):
    """Both sides of (tau_y f)^(s) = e^{-isy} f^(s) and their gap."""
    y, s = float(y), float(s)
    lhs = fourier(translate(f, y), s, cfg)
    mod = cmath.exp(complex(0.0, -s * y))
    rhs = ComplexValue(mod.real, mod.imag) * fourier(f, s, cfg)
    return lhs, rhs, abs(lhs - rhs)


def _check_weighted_l1(g, cfg):
    weighted = abs(var_expr() * g)
    try:
        total = integrate_line(weighted, cfg)
    except LprimError as exc:
        raise IntegrabilityError(f"s*g(s) not integrable: {exc}") from exc
    if not math.isfinite(total.value):
        raise IntegrabilityError("s*g(s) not integrable")
    return total.value


def exchange_identity(f, g, cfg=None):
    """(lhs, rhs) of the exchange identity for f in L'^1 and s g(s) in L^1:
    integral of f^(s) g(s) ds equals the action of f on g^."""
    cfg = cfg or DEFAULT_CONFIG
    if f.p != 1.0:
        raise ExponentError("exchange_identity needs f in L'^1")
    _check_weighted_l1(g, cfg)
    lp_norm(f.F, 1.0, cfg)  # hypothesis: F in L^1

    def lhs_parts(ss, pick):
        out = np.empty(len(ss))
        for i, s in enumerate(np.asarray(ss, dtype=float)):
            out[i] = pick(fourier(f, float(s), cfg))
        return out

    lhs_re = integrate_line(
        replace(g, root=Wrapped(lambda ss: lhs_parts(ss, lambda z: z.re), name="fhat_re",
                                growth_hint=1.0)) * g, cfg).value
    lhs_im = integrate_line(
        replace(g, root=Wrapped(lambda ss: lhs_parts(ss, lambda z: z.im), name="fhat_im",
                                growth_hint=1.0)) * g, cfg).value

    # the action of f = F' on g^ is -integral F (g^)'; (g^)'(x) is the
    # transform of -is g(s), finite because s g(s) is integrable
    def ghat_prime(xs, pick):
        out = np.empty(len(xs))
        for i, x in enumerate(np.asarray(xs, dtype=float)):
            c = _osc_config(cfg, x)
            sg = var_expr() * g
            cosx = FunctionExpr.from_node(
                Wrapped(lambda ss, x=x: np.cos(x * np.asarray(ss)),
                        name="cos_x", growth_hint=0.0))
            sinx = FunctionExpr.from_node(
                Wrapped(lambda ss, x=x: np.sin(x * np.asarray(ss)),
                        name="sin_x", growth_hint=0.0))
            re = -integrate_line(sg * sinx, c).value
            im = -integrate_line(sg * cosx, c).value
            out[i] = pick(complex(re, im))
        return out

    F = f.F
    rhs_re = -integrate_line(
        F * replace(F, root=Wrapped(lambda xs: ghat_prime(xs, lambda z: z.real),
                                    name="ghatp_re", growth_hint=0.0)),
        cfg).value
    rhs_im = -integrate_line(
        F * replace(F, root=Wrapped(lambda xs: ghat_prime(xs, lambda z: z.imag),
                                    name="ghatp_im", growth_hint=0.0)),
        cfg).value
    return ComplexValue(lhs_re, lhs_im), ComplexValue(rhs_re, rhs_im)


def inner_product(f, g, cfg=None):
    """(f, g) = integral of F G for f, g in L'^2."""
    if f.p != 2.0 or g.p != 2.0:
        raise ExponentError("inner_product needs both arguments in L'^2")
    cfg = cfg or DEFAULT_CONFIG
    return integrate_line(f.F * g.F, cfg).value


def parseval_check(f, g, grid=2 ** 14, radius=16.0, cfg=None):
    """(lhs, rhs): the inner product (f, g) against its Parseval form
    (1/2pi) integral of F^ conj(G^), the latter via a windowed discrete
    transform on ``grid`` uniform points over [-radius, radius)."""
    lhs = inner_product(f, g, cfg)
    n = int(grid)
    dx = 2.0 * radius / n
    xs = -radius + dx * np.arange(n)
    Fv = f.F.values(xs)
    Gv = g.F.values(xs)
    Fh = dx * np.fft.fft(Fv)
    Gh = dx * np.fft.fft(Gv)
    ds = 2.0 * math.pi / (n * dx)
    rhs = float(np.real(np.sum(Fh * np.conj(Gh))) * ds / (2.0 * math.pi))
    return lhs, rhs


def dfhat_vs_hatdf_exhibit(cfg=None):
    """For F = chi_(-1,1): the derivative of F^ is not the transform of
    DF.  Returns per-sample rows (s, DF^(s), (DF)^(s)) and the max gap."""
    cfg = cfg or DEFAULT_CONFIG
    fhat_closed = parse_expr("sing(2*sin(x)/x, 0)")
    samples = [math.pi / 2.0, math.pi, 2.0, 3.0, 5.0]
    rows = []
    gap = 0.0
    for s in samples:
        dfhat = fhat_closed.eval_jet(s, 1)[1]
        hatdf = ComplexValue(0.0, 2.0 * math.sin(s))
        rows.append((s, ComplexValue(dfhat, 0.0), hatdf))
        gap = max(gap, abs(ComplexValue(dfhat, 0.0) - hatdf))
    return {"rows": rows, "max_gap": gap, "differ": gap > 0.5}

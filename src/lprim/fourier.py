"""Fourier transforms of distributions with integrable primitives.

For f = F' with F in L^1 the transform of the primitive is classical,
and f itself transforms by ``f^(s) = is F^(s)``; n-th order primitives
give the factor (is)^n.  The module also carries the Parseval pairing on
L'^2 realized through a windowed discrete transform, and the exhibit
showing that differentiating the transform is not the transform of the
derivative.

Every transform value is one integral of F(x) e^{-isx} dx, computed by
the Filon-Legendre rule of ``quadrature.FourierSampling``: F is sampled
once, on panels adapted to F alone (split at its singular points, kinks
and support ends, bisected until the trailing Legendre coefficients meet
the tolerance, graded toward singular points), and each panel's Legendre
series is integrated exactly against e^{-isx}.  Cost and error do not
depend on s.  The s of one distribution share one sampling across calls:
the distribution keeps its ``Transform`` (``transform_of``), so that
``fourier``, ``fourier_n`` and the right side of
``translation_modulation`` sample its F once however many s they ask
for.  ``fourier_primitive`` on a bare F, and the translate on the left
side of ``translation_modulation``, build a Transform for one value.
For |s| >= 50 a smooth F with gaussian or exponential decay is replaced
by F'''' / s^4 (four integrations by parts), which keeps the rounding
noise of the rule s^4 times below the transform's true, tiny, size.
Values carry the rule's error bound in ``err_est``; one that cannot meet
the tolerance raises ConvergenceError naming the s.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConvergenceError, ExponentError, IntegrabilityError, LprimError
from .expr import Wrapped, var_expr
from .lpspace import translate
from .parser import parse_expr
from .quadrature import DEFAULT_CONFIG, FourierSampling, integrate_line


@dataclass(frozen=True)
class ComplexValue:
    re: float
    im: float
    err_est: float = 0.0

    def __add__(self, other):
        return ComplexValue(self.re + other.re, self.im + other.im,
                            self.err_est + other.err_est)

    def __sub__(self, other):
        return ComplexValue(self.re - other.re, self.im - other.im,
                            self.err_est + other.err_est)

    def __mul__(self, other):
        if isinstance(other, ComplexValue):
            return ComplexValue(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
                abs(self) * other.err_est + abs(other) * self.err_est,
            )
        return ComplexValue(self.re * other, self.im * other, self.err_est * abs(other))

    __rmul__ = __mul__

    def __abs__(self):
        return math.hypot(self.re, self.im)

    def as_complex(self):
        return complex(self.re, self.im)


def _smooth_fourth_derivative(F):
    """F'''' when F is smooth with certified decay, else None."""
    if F.singularities or F.kinks or F.decay[0] not in ("gaussian", "exponential"):
        return None
    try:
        d = F
        for _ in range(4):
            d = d.diff()
    except LprimError:
        return None
    return d


_IBP_THRESHOLD = 50.0


class Transform:
    """F^(s) at any s for one primitive F, with error estimates.

    s = 0 is the line integral of F.  The other s are integrals of
    F(x) e^{-isx} dx by the Filon-Legendre rule (quadrature.FourierSampling).
    For |s| >= 50 a smooth F with gaussian or exponential decay is replaced
    by F'''' / s^4, the transform after four integrations by parts: the
    rule's rounding noise is then s^4 times smaller.  Every call shares
    what the earlier ones built: the sampling of F, the sampling of F''''
    (built when an |s| >= 50 first asks) and the line integral (built when
    s = 0 first asks)."""

    def __init__(self, F, cfg=None):
        self.F = F
        self.cfg = cfg or DEFAULT_CONFIG
        self._low = FourierSampling(F, self.cfg)
        self._high = None  # the sampling of F'''', or False when F has none
        self._zero = None  # the line integral of F

    def values(self, ss):
        """F^(s) and its error estimate for every s of the array ``ss``;
        raises ConvergenceError naming the s."""
        ss = np.asarray(ss, dtype=float).ravel()
        value = np.zeros(ss.size, dtype=complex)
        err = np.zeros(ss.size)
        conv = np.ones(ss.size, dtype=bool)
        zero = ss == 0.0
        if zero.any():
            if self._zero is None:
                self._zero = integrate_line(self.F, self.cfg)
            r = self._zero
            value[zero], err[zero], conv[zero] = r.value, r.err_est, r.converged
        high = ~zero & (np.abs(ss) >= _IBP_THRESHOLD)
        if high.any() and self._high is None:
            d4 = _smooth_fourth_derivative(self.F)
            self._high = False if d4 is None else FourierSampling(d4, self.cfg)
        if not self._high:
            high[:] = False
        for mask, rule, power in ((~zero & ~high, self._low, 0), (high, self._high, 4)):
            if mask.any():
                scale = ss[mask] ** -power
                r = rule(ss[mask])
                value[mask], err[mask], conv[mask] = r.value * scale, r.err_est * scale, r.converged
        if not conv.all():
            i = int(np.argmin(conv))
            raise ConvergenceError(
                f"fourier: transform at s={float(ss[i])!r} did not converge (err_est={err[i]:.3g})")
        return value, err

    def at(self, s):
        """F^(s) as a ComplexValue."""
        value, err = self.values([float(s)])
        return ComplexValue(float(value[0].real), float(value[0].imag), float(err[0]))


def transform_of(f, cfg=None):
    """The Transform of f's primitive that the distribution f keeps, so that
    all values of f^ share its samplings; a new one replaces it when f's
    primitive or the configuration is not the kept one's."""
    cfg = cfg or DEFAULT_CONFIG
    t = getattr(f, "_fourier", None)
    if t is None or t.F is not f.F or t.cfg != cfg:
        t = Transform(f.F, cfg)
        object.__setattr__(f, "_fourier", t)
    return t


def fourier_primitive(F, s, cfg=None):
    """F^(s) = integral of F(x) e^{-isx} dx for F in L^1."""
    return Transform(F, cfg).at(s)


def fourier(f, s, cfg=None):
    """f^(s) = is F^(s) for f in L'^1.  It does not read f's norm; the
    value raises ConvergenceError when its integral does not converge."""
    if f.p != 1.0:
        raise ExponentError("fourier needs a distribution in L'^1")
    s = float(s)
    return ComplexValue(0.0, s) * transform_of(f, cfg).at(s)


def fourier_n(f, s, cfg=None):
    """f^(s) = (is)^n F^(s) for an n-th order distribution f = F^(n)."""
    n = int(getattr(f, "order", 1))
    if n < 1:
        raise ExponentError("fourier_n needs order >= 1")
    if f.p != 1.0:
        raise ExponentError("fourier_n needs p = 1")
    s = float(s)
    Fh = transform_of(f, cfg).at(s)
    z = complex(0.0, s) ** n * Fh.as_complex()
    return ComplexValue(z.real, z.imag, abs(s) ** n * Fh.err_est)


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
    f.norm  # hypothesis: F in L^1, integrated at most once per distribution

    F = f.F

    # f^(s) = is F^(s) at every node of the outer quadratures, one call
    # each, all from f's Transform
    Fhat = transform_of(f, cfg)

    def lhs_parts(ss, pick):
        ss = np.asarray(ss, dtype=float)
        return pick(1j * ss.ravel() * Fhat.values(ss)[0]).reshape(ss.shape)

    lhs_re = integrate_line(
        replace(g, root=Wrapped(lambda ss: lhs_parts(ss, np.real), name="fhat_re",
                                growth_hint=1.0), similar=None, sign=0) * g, cfg).value
    lhs_im = integrate_line(
        replace(g, root=Wrapped(lambda ss: lhs_parts(ss, np.imag), name="fhat_im",
                                growth_hint=1.0), similar=None, sign=0) * g, cfg).value

    # the action of f = F' on g^ is -integral F (g^)'; (g^)'(x) is the
    # transform of -is g(s), finite because s g(s) is integrable: one call
    # over the outer quadrature's nodes x
    sg_hat = Transform(var_expr() * g, cfg)

    def ghat_prime(xs, pick):
        xs = np.asarray(xs, dtype=float)
        return pick(-1j * sg_hat.values(xs)[0]).reshape(xs.shape)

    rhs_re = -integrate_line(
        F * replace(F, root=Wrapped(lambda xs: ghat_prime(xs, np.real),
                                    name="ghatp_re", growth_hint=0.0), similar=None, sign=0),
        cfg).value
    rhs_im = -integrate_line(
        F * replace(F, root=Wrapped(lambda xs: ghat_prime(xs, np.imag),
                                    name="ghatp_im", growth_hint=0.0), similar=None, sign=0),
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

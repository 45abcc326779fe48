"""Reference answers computed apart from lprim.

Three kinds of oracle, in order of preference:

* closed forms, evaluated at run time;
* values stored in ``reference.json``, made by ``make_reference.py``
  from mpmath at 30 digits (never from lprim's output);
* for the Cantor member, a bracket from summing over the removed
  middle thirds with numpy/scipy, plus properties the method must have.

Closed forms take a namespace ``M`` (``math`` or ``mpmath.mp``) so the
same formula serves the run-time check and the stored reference.
"""

from __future__ import annotations

import cmath
import json
import math
import os

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

# ---------------------------------------------------------------------------
# named functions shared by the streams and the oracles (DSL sources)

DENSITIES = {
    "gauss": "exp(-x^2)",
    "expabs": "exp(-abs(x))",
    "box_m1_2": "indicator(-1,2)",
    "lorentz": "(x^2+1)^(-1)",
    "cosgauss": "cos(x)*exp(-x^2)",
    "xgauss": "x*exp(-x^2)",
}

CONV_PRIMITIVES = {
    "box01": "indicator(0,1)",
    "gauss": "exp(-x^2)",
    "xgauss": "x*exp(-x^2)",
    "tent": "indicator(-1,1)*(1-abs(x))",
}

CONV_DENSITIES = {
    "gauss": "exp(-x^2)",
    "dgauss": "-2*x*exp(-x^2)",
    "box02": "indicator(0,2)",
    "expabs": "exp(-abs(x))",
}

BOUNDARY = {
    "box": "indicator(-1,1)",
    "gauss": "exp(-x^2)",
    "xgauss": "x*exp(-x^2)",
}

FOURIER_PRIMITIVES = {
    "box": "indicator(-1,1)",
    "gauss": "exp(-x^2)",
    "xgauss": "x*exp(-x^2)",
    "expabs": "exp(-abs(x))",
    "lorentz": "(x^2+1)^(-1)",
}


def conjugate(p):
    return math.inf if p == 1.0 else p / (p - 1.0)


# ---------------------------------------------------------------------------
# stored references


_REFERENCE = None


def reference(key):
    global _REFERENCE
    if _REFERENCE is None:
        with open(REFERENCE_PATH) as fh:
            _REFERENCE = json.load(fh)
    return float(_REFERENCE[key])


def key(*parts):
    return "|".join(f"{p:g}" if isinstance(p, float) else str(p) for p in parts)


# ---------------------------------------------------------------------------
# duality: L^p norms of corpus members


def gaussian_norm(p, M=math):
    """||exp(-x^2)||_p = (pi/p)^(1/(2p))."""
    return (M.pi / p) ** (1 / (2 * p))


def tent_norm(p, M=math):
    """||(1-|x|)_+||_p = (2/(p+1))^(1/p)."""
    return (2 / (p + 1)) ** (1 / p)


def power_tail_norm(gamma, p, M=math):
    """||x(|x|+1)^(-gamma)||_p^p = 2 B(p+1, gamma p - p - 1)."""
    a, b = p + 1, gamma * p - p - 1
    return (2 * M.gamma(a) * M.gamma(b) / M.gamma(a + b)) ** (1 / p)


def gamma_cusp_norm(gamma, p, M=math):
    """|| |x|^(-gamma) e^(-|x|) ||_p^p = 2 Gamma(1 - gamma p) / p^(1 - gamma p)."""
    return (2 * M.gamma(1 - gamma * p) / p ** (1 - gamma * p)) ** (1 / p)


def weierstrass_l2_norm(a=0.5, b=3.0, terms=6, M=math):
    """||e^(-x^2) sum a^n cos(b^n pi x)||_2 from Gaussian cosine integrals:
    int e^(-2x^2) cos(u x) cos(v x) = (1/2) sqrt(pi/2) (e^(-(u-v)^2/8) + e^(-(u+v)^2/8))."""
    total = 0
    for m in range(terms):
        for n in range(terms):
            u, v = b ** m * M.pi, b ** n * M.pi
            total += a ** (m + n) * 0.5 * M.sqrt(M.pi / 2) * (
                M.exp(-((u - v) ** 2) / 8) + M.exp(-((u + v) ** 2) / 8))
    return M.sqrt(total)


def member_norm(name, p):
    """||F||_p for a corpus member; the Cantor member has a bracket instead."""
    if name == "indicator":
        return 1.0
    if name == "gaussian":
        return gaussian_norm(p)
    if name == "tent":
        return tent_norm(p)
    if name.startswith("power_tail("):
        return power_tail_norm(float(name[11:-1]), p)
    if name.startswith("gamma_cusp("):
        return gamma_cusp_norm(float(name[11:-1]), p)
    if name == "sin_over_abs" and p == 2.0:
        return math.sqrt(math.pi)
    if name == "weierstrass(6)" and p == 2.0:
        return weierstrass_l2_norm()
    return reference(key("norm", name, p))


# ---------------------------------------------------------------------------
# the Cantor member, e^(-x^2) sigma(x): sums over removed middle thirds

CANTOR_LEVEL = 19
_GL_X, _GL_W = np.polynomial.legendre.leggauss(8)


def _cantor_density_tail(density):
    """integral over (1, oo) of e^(-x^2) g(x), g a pool density."""
    from scipy.integrate import quad

    g = DENSITY_VALUES[density]
    upper = 2.0 if density == "box_m1_2" else math.inf
    return quad(lambda x: math.exp(-x * x) * g(x, math), 1.0, upper,
                epsabs=1e-15, epsrel=1e-13)[0]


def cantor_bracket(weight, power):
    """Bounds on the integral over [0, 1] of weight(x) sigma(x)^power.

    sigma is constant on each removed middle third, so levels 1..L are
    summed exactly up to 8-point Gauss-Legendre on a smooth weight; on the
    2^L intervals left at level L, sigma lies within 2^-L of its value at
    the left end, which brackets the rest.  ``weight`` must be >= 0 on [0, 1].
    """
    lefts = np.zeros(1)  # left ends of the intervals remaining, in order
    total = 0.0
    for level in range(1, CANTOR_LEVEL + 1):
        width = 3.0 ** -level
        a = lefts + width
        sig = (np.arange(lefts.size) + 0.5) / lefts.size  # sigma on the removed third
        xs = a[:, None] + 0.5 * width * (_GL_X[None, :] + 1.0)
        part = 0.5 * width * (weight(xs) @ _GL_W)
        total += math.fsum((sig ** power * part).tolist())
        lefts = np.concatenate([lefts, lefts + 2.0 * width]).reshape(2, -1).T.ravel()
    width = 3.0 ** -CANTOR_LEVEL
    xs = lefts[:, None] + 0.5 * width * (_GL_X[None, :] + 1.0)
    part = 0.5 * width * (weight(xs) @ _GL_W)
    idx = np.arange(lefts.size)
    lo = math.fsum(((idx / lefts.size) ** power * part).tolist())
    hi = math.fsum((((idx + 1) / lefts.size) ** power * part).tolist())
    return total + lo, total + hi


def cantor_norm_bracket(p):
    """(lo, hi) bounds on ||e^(-x^2) sigma||_p."""
    lo, hi = cantor_bracket(lambda x: np.exp(-p * x * x), p)
    tail = 0.5 * math.sqrt(math.pi / p) * math.erfc(math.sqrt(p))
    return (lo + tail) ** (1 / p), (hi + tail) ** (1 / p)


def cantor_pair_bracket(density):
    """(lo, hi) bounds on -integral of e^(-x^2) sigma(x) g(x)."""
    # on [0, 1] the box density is 1
    g = (lambda x, M: 1.0) if density == "box_m1_2" else DENSITY_VALUES[density]
    lo, hi = cantor_bracket(lambda x: np.exp(-x * x) * g(x, np), 1.0)
    tail = _cantor_density_tail(density)
    return -(hi + tail), -(lo + tail)


# ---------------------------------------------------------------------------
# convolution: F * g, its derivative, and norms of F and g


def _clamp(y, lo, hi):
    return lo if y < lo else hi if y > hi else y


# first and second antiderivatives (A1' = g, A2' = A1) of each density or primitive;
# additive constants cancel in the differences taken below
ANTIDERIVATIVES = {
    "gauss": (lambda y, M: M.sqrt(M.pi) / 2 * M.erf(y),
              lambda y, M: M.sqrt(M.pi) / 2 * y * M.erf(y) + M.exp(-y * y) / 2),
    "dgauss": (lambda y, M: M.exp(-y * y),
               lambda y, M: M.sqrt(M.pi) / 2 * M.erf(y)),
    "box02": (lambda y, M: _clamp(y, 0, 2),
              lambda y, M: 0 if y < 0 else y * y / 2 if y < 2 else 2 * y - 2),
    "expabs": (lambda y, M: (1 - M.exp(-M.fabs(y))) * (1 if y >= 0 else -1),
               lambda y, M: M.fabs(y) - 1 + M.exp(-M.fabs(y))),
    "box01": (lambda y, M: _clamp(y, 0, 1),
              lambda y, M: 0 if y < 0 else y * y / 2 if y < 1 else y - 0.5),
    "xgauss": (lambda y, M: -M.exp(-y * y) / 2, None),
    "tent": (lambda y, M: 0 if y < -1 else (y + 1) ** 2 / 2 if y < 0
             else 1 - (1 - y) ** 2 / 2 if y < 1 else 1, None),
}

# densities, as values in a namespace M (math, mpmath.mp or numpy): the
# multiplier pool of DENSITIES, the Young densities and the tent
DENSITY_VALUES = {
    "gauss": lambda y, M: M.exp(-y * y),
    "expabs": lambda y, M: M.exp(-M.fabs(y)),
    "box_m1_2": lambda y, M: 1 if -1 < y < 2 else 0,
    "lorentz": lambda y, M: 1 / (y * y + 1),
    "cosgauss": lambda y, M: M.cos(y) * M.exp(-y * y),
    "xgauss": lambda y, M: y * M.exp(-y * y),
    "dgauss": lambda y, M: -2 * y * M.exp(-y * y),
    "tent": lambda y, M: max(0, 1 - M.fabs(y)),
}


def _bspline3(x, M):
    """tent * tent: the centred cubic B-spline on [-2, 2]."""
    ax = M.fabs(x)
    if ax >= 2:
        return 0
    if ax >= 1:
        return (2 - ax) ** 3 / 6
    return 2 / 3 - ax * ax + ax ** 3 / 2


def _bspline3_dx(x, M):
    ax = M.fabs(x)
    s = 1 if x >= 0 else -1
    if ax >= 2:
        return 0
    if ax >= 1:
        return -s * (2 - ax) ** 2 / 2
    return -2 * x + 1.5 * x * ax


def conv_primitive(F, g, x, M=math):
    """(F * g)(x) for F a convolution primitive and g a density or primitive."""
    if F == "box01":
        A1 = ANTIDERIVATIVES[g][0]
        return A1(x, M) - A1(x - 1, M)
    if F == "tent" and g == "tent":
        return _bspline3(x, M)
    if F == "tent":
        A2 = ANTIDERIVATIVES[g][1]
        return A2(x + 1, M) - 2 * A2(x, M) + A2(x - 1, M)
    if g in ("box02", "box01"):
        # F * indicator(0, w) = Fint(x) - Fint(x - w)
        w = 2 if g == "box02" else 1
        Fint = ANTIDERIVATIVES[F][0]
        return Fint(x, M) - Fint(x - w, M)
    raise KeyError((F, g))


def conv_density(F, g, x, M=math):
    """(F * g')(x), the derivative of conv_primitive, for a continuous g."""
    if F == "box01":
        gv = DENSITY_VALUES[g]
        return gv(x, M) - gv(x - 1, M)
    if F == "tent" and g == "tent":
        return _bspline3_dx(x, M)
    if F == "tent":
        A1 = ANTIDERIVATIVES[g][0]
        return A1(x + 1, M) - 2 * A1(x, M) + A1(x - 1, M)
    raise KeyError((F, g))


def primitive_norm(F, p, M=math):
    """||F||_p for the convolution primitives."""
    if F == "box01":
        return 1
    if F == "tent":
        return tent_norm(p, M)
    if F == "gauss":
        return gaussian_norm(p, M)
    if F == "xgauss":  # int |x|^p e^(-p x^2) = Gamma((p+1)/2) p^(-(p+1)/2)
        return (M.gamma((p + 1) / 2) * p ** (-(p + 1) / 2)) ** (1 / p)
    raise KeyError(F)


def density_norm(g, q, M=math):
    """||g||_q for the Young densities."""
    if g == "gauss":
        return gaussian_norm(q, M)
    if g == "dgauss":
        return 2 * (M.gamma((q + 1) / 2) * q ** (-(q + 1) / 2)) ** (1 / q)
    if g == "box02":
        return 2 ** (1 / q)
    if g == "expabs":
        return (2 / q) ** (1 / q)
    raise KeyError(g)


# ---------------------------------------------------------------------------
# half plane: Poisson extensions of the boundary data, z = x + iy


def _faddeeva(z):
    """w(z) = e^(-z^2) erfc(-iz) in mpmath at 30 digits."""
    from mpmath import mp

    with mp.workdps(30):
        return mp.exp(-z * z) * mp.erfc(-1j * z)


def extension(datum, n, x, y):
    """d^n/dx^n of (P_y * F)(x).

    With P_y * g = -(1/pi) Im integral of g(t)/(z - t) dt, the box gives
    U = (1/pi) Im[log(z-1) - log(z+1)], the Gaussian Re w(z) and x e^(-x^2)
    Re(z w(z)); x-derivatives are complex derivatives, using
    w' = -2 z w + 2i/sqrt(pi).
    """
    if datum == "box":
        z = complex(x, y)
        if n == 0:
            return (math.atan((1 - x) / y) + math.atan((1 + x) / y)) / math.pi
        c = (-1) ** (n - 1) * math.factorial(n - 1)
        return (c * ((z - 1) ** -n - (z + 1) ** -n)).imag / math.pi
    from mpmath import mp

    with mp.workdps(30):
        z = mp.mpc(x, y)
        w = _faddeeva(z)
        ws = [w]
        for _ in range(n + 1):  # w^(k+1) = -2 z w^(k) - 2 k w^(k-1) (+ 2i/sqrt(pi) at k = 0)
            k = len(ws) - 1
            nxt = -2 * z * ws[k] - (2 * k * ws[k - 1] if k else -2j / mp.sqrt(mp.pi))
            ws.append(nxt)
        if datum == "gauss":
            return float(mp.re(ws[n]))
        if datum == "xgauss":  # (z w)^(n) = z w^(n) + n w^(n-1)
            return float(mp.re(z * ws[n] + (n * ws[n - 1] if n else 0)))
    raise KeyError(datum)


# ---------------------------------------------------------------------------
# Fourier: f^(s) = i s F^(s)


def fourier_hat(name, s):
    """f^(s) for f = F', from the closed-form F^(s)."""
    if name == "box":
        return complex(0.0, 2.0 * math.sin(s))
    if name == "gauss":
        Fh = math.sqrt(math.pi) * math.exp(-s * s / 4)
    elif name == "xgauss":
        Fh = complex(0.0, -0.5 * math.sqrt(math.pi) * s * math.exp(-s * s / 4))
    elif name == "expabs":
        Fh = 2.0 / (1.0 + s * s)
    elif name == "lorentz":
        Fh = math.pi * math.exp(-abs(s))
    else:
        raise KeyError(name)
    return 1j * s * Fh


def translated_hat(name, y, s):
    """(tau_y f)^(s) = e^(-isy) f^(s)."""
    return cmath.exp(complex(0.0, -s * y)) * fourier_hat(name, s)


"""Poisson extension to the upper half plane.

The boundary datum is an L^p function F (or the distribution f = D^n F);
the extension is the convolution with the Poisson kernel
Phi_y(x) = (y/pi)/(x^2+y^2), harmonic in y > 0, contracting in L^p norm,
and converging back to the boundary datum as y -> 0+.

Every extension is one integral over a finite interval.  Since
Phi_y(s) = (1/pi) Im 1/(s - iy), its n-th derivative is

    Phi_y^(n)(s) = ((-1)^n n!/pi) Im (s - iy)^-(n+1),

and u = Phi_y^(n) * F at x is the integral of Phi_y^(n)(x - t) F(t) dt.
Put t = x - y tan(theta), theta in (-pi/2, pi/2): then
dt = -y sec^2(theta) d(theta) and s - iy = y (tan(theta) - i)
= -i y e^(i theta)/cos(theta), so

    (s - iy)^-(n+1) = cos^(n+1)(theta) y^-(n+1) e^(i (n+1)(pi/2 - theta)),

and, the sign of dt undone by the reversed ends,

    u(x) = integral over (-pi/2, pi/2) of w_n(theta) F(x - y tan(theta)) d(theta),
    w_n(theta) = ((-1)^n n!/(pi y^n)) cos^(n-1)(theta) sin((n+1)(pi/2 - theta)),

with w_0 = 1/pi.  The weight is bounded, the interval finite, and F's
support [a, b] shrinks it to [arctan((x - b)/y), arctan((x - a)/y)], so
the line, its tail shells and the kernel's derivative tree drop out
(quadrature.angle_integral).  The kernel itself stays for kernel_dx and
the kernel-mass checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConvergenceError, ExponentError, IntegrabilityError, LprimError
from .expr import FunctionExpr, Var, add, const, decay_mul, growth, mul, pow_
from .quadrature import (DEFAULT_CONFIG, FamilyValues, QuadResult, angle_integral,
                         effective_radius, lp_norm)
from .sampling import MAX_POINTS, sample_function, sampled_expr


@dataclass(frozen=True)
class HalfPlanePoint:
    x: float
    y: float

    def __post_init__(self):
        if not self.y > 0:
            raise LprimError("half-plane points need y > 0")


def _kernel_expr(y):
    """Phi_y = (y/pi)(x^2+y^2)^(-1), built from nodes, smooth with power-2 decay."""
    y = float(y)
    root = mul(const(y / math.pi), pow_(add(pow_(Var(), 2), const(y * y)), -1))
    return FunctionExpr(root, decay=("power", 2.0))


def poisson_kernel(pt):
    """Phi_y(x) = (y/pi)/(x^2 + y^2)."""
    y = float(pt.y)
    return (y / math.pi) / (pt.x * pt.x + y * y)


def kernel_dx(pt, n):
    """The n-th x-derivative of the kernel at pt."""
    n = int(n)
    if not 0 <= n <= 4:
        raise ExponentError("kernel_dx supports 0 <= n <= 4")
    return _kernel_n(pt.y, n)(pt.x)


def _kernel_n(y, n):
    kern = _kernel_expr(y)
    for _ in range(n):
        kern = kern.diff()
    return kern


def _weight(n):
    """w_n(theta, y): the n-th x-derivative of Phi_y * F is the integral of
    w_n(theta, y) F(x - y tan(theta)) over (-pi/2, pi/2)."""
    if n == 0:
        return lambda th, y: 1.0 / math.pi
    # sin((n+1)(pi/2 - theta)) is +-cos((n+1) theta) for even n and
    # +-sin((n+1) theta) for odd n: no rounded pi/2 inside the sine
    c = (-1) ** n * math.factorial(n) / math.pi
    if n % 2 == 0:
        c, trig = c * (-1) ** (n // 2), np.cos
    else:
        c, trig = -c * (-1) ** ((n + 1) // 2), np.sin
    return lambda th, y: (c / y ** n) * np.cos(th) ** (n - 1) * trig((n + 1) * th)


def _extension_values(F, y, n, cfg):
    """xs -> (d^n/dx^n) (Phi_y * F)(xs), one angle integral family per call;
    y is a number or an array of one y per x.

    Refuses data whose convolution with the power-2 kernel does not
    converge absolutely, as the line integral would."""
    d = decay_mul(("power", 2.0), F.decay, 0.0, growth(F.root))
    if d[0] == "none":
        raise ConvergenceError("poisson: boundary datum grows too fast for the kernel")
    if d[0] == "power" and d[1] <= 1.0:
        raise IntegrabilityError(f"poisson: power decay beta={d[1]} <= 1: integral diverges")
    w = _weight(n)
    return FamilyValues(lambda xs: angle_integral(F, w, xs, y, cfg), "poisson")


def _order(f):
    """(F, n) for f = D^n F, or for F itself."""
    n = int(getattr(f, "order", 0))
    if not 0 <= n <= 4:
        raise ExponentError("extension_n supports orders up to 4")
    return (f.F if hasattr(f, "F") else f), n


def extension_result(f, pt, cfg=None):
    """u_y(x) for f = D^n F (or for F itself) as a QuadResult: the value
    with its error estimate; an unconverged integral raises.  It uses F
    alone and does not read f's norm."""
    F, n = _order(f)
    U = _extension_values(F, pt.y, n, cfg or DEFAULT_CONFIG)
    value = U.at(pt.x)
    return QuadResult(value, U.max_err, True)


def harmonic_extension(F, pt, cfg=None):
    """U_y(x) = (Phi_y * F)(x) for F in L^p."""
    cfg = cfg or DEFAULT_CONFIG
    return _extension_values(F, pt.y, 0, cfg).at(pt.x)


def extension_n(f, pt, cfg=None):
    """u_y(x) = (Phi_y * f)(x) = d^n U_y / dx^n for f = D^n F."""
    return extension_result(f, pt, cfg).value


def harmonicity_residual(f, pt, h, cfg=None):
    """5-point finite-difference Laplacian of the extension at pt; the
    residual of a harmonic function scales as O(h^2)."""
    cfg = cfg or DEFAULT_CONFIG
    h = float(h)
    if not pt.y > 2 * h:
        raise LprimError("stencil needs y > 2h")
    F, n = _order(f)
    x, y = pt.x, pt.y
    # the five stencil points as one family
    ys = np.array([y, y, y + h, y - h, y])
    u = _extension_values(F, ys, n, cfg)(np.array([x + h, x - h, x, x, x]))
    return (u[0] + u[1] + u[2] + u[3] - 4.0 * u[4]) / (h * h)


def _tail_decay(F):
    """Decay class of U_y - F: the kernel contributes power-2 tails."""
    kind = F.decay[0]
    if kind in ("compact", "gaussian", "exponential"):
        return ("power", 2.0)
    if kind == "power":
        return ("power", min(float(F.decay[1]), 2.0))
    raise IntegrabilityError(
        "boundary convergence needs a decaying boundary datum"
    )


def _extension_expr(F, y, n=0, cfg=None, spline_tol=1e-7):
    """extension_expr and its error estimate: the panels' check error plus
    the largest error estimate of the integrals it was sampled from."""
    cfg = cfg or DEFAULT_CONFIG
    y = float(y)
    if y <= 0:
        raise LprimError("extension needs y > 0")
    U = _extension_values(F, y, n, cfg)
    R = effective_radius(F, minimum=8.0) + 4.0 * y + 4.0
    spline, err = sample_function(
        U, -R, R, tol=spline_tol, min_spacing=y / 4.0, max_points=MAX_POINTS
    )
    return (sampled_expr(spline, -R, R, name=f"poisson_U[y={y:g}]", outside=U,
                         decay=_tail_decay(F)), err + U.max_err)


def extension_expr(F, y, n=0, cfg=None, spline_tol=1e-7):
    """U_y (or its n-th x-derivative) as a FunctionExpr: cubic panels
    at most 3y/4 wide, the kernel's scale, near the data, direct
    quadrature in the tails, with the kernel's power-2 decay recorded."""
    return _extension_expr(F, y, n, cfg, spline_tol)[0]


def boundary_gaps(f, y_grid, cfg=None):
    """For each y (descending) the boundary gap ||u_y - f||^(n)_p, which
    equals ||U_y - F||_p, with the error estimate of the sampled U_y behind
    it; also checks the contraction ||u_y|| <= ||f||.

    Returns (norms, errors, contraction_ok).
    """
    ys = [float(y) for y in y_grid]
    if any(y <= 0 for y in ys):
        raise LprimError("y grid must be positive")
    if ys != sorted(ys, reverse=True):
        raise LprimError("y grid must be descending")
    base = cfg or DEFAULT_CONFIG
    # inner extensions carry ~1e-10 quadrature noise; the outer norm
    # integral cannot meaningfully resolve below that
    outer = replace(base, abs_tol=max(base.abs_tol, 1e-8),
                    rel_tol=max(base.rel_tol, 1e-6))
    F, p = f.F, f.p
    fnorm = getattr(f, "norm", None)
    if fnorm is None:
        fnorm = lp_norm(F, p, base)
    norms, errors = [], []
    contraction_ok = True
    for y in ys:
        U, err = _extension_expr(F, y, 0, base)
        norms.append(lp_norm(U - F, p, outer))
        errors.append(err)
        if lp_norm(U, p, outer) > fnorm + 1e-6:
            contraction_ok = False
    return norms, errors, contraction_ok


def boundary_convergence(f, y_grid, cfg=None):
    """boundary_gaps without the error estimates: (norms, contraction_ok)."""
    norms, _, contraction_ok = boundary_gaps(f, y_grid, cfg)
    return norms, contraction_ok

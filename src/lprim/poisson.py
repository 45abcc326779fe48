"""Poisson extension to the upper half plane.

The boundary datum is an L^p function F (or the distribution f = D^n F);
the extension is the convolution with the Poisson kernel
Phi_y(x) = (y/pi)/(x^2+y^2), harmonic in y > 0, contracting in L^p norm,
and converging back to the boundary datum as y -> 0+.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import ExponentError, IntegrabilityError, LprimError
from .expr import FunctionExpr, Var, add, const, mul, pow_
from .quadrature import DEFAULT_CONFIG, ConvolutionValues, effective_radius, lp_norm
from .sampling import sample_function, sampled_expr


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


def _extension_values(F, y, n, cfg):
    """xs -> (d^n/dx^n) (Phi_y * F)(xs), one integral family per call."""
    return ConvolutionValues(_kernel_n(y, n), F, cfg, "poisson")


def harmonic_extension(F, pt, cfg=None):
    """U_y(x) = (Phi_y * F)(x) for F in L^p."""
    cfg = cfg or DEFAULT_CONFIG
    return _extension_values(F, pt.y, 0, cfg).at(pt.x)


def extension_n(f, pt, cfg=None):
    """u_y(x) = (Phi_y * f)(x) = d^n U_y / dx^n for f = D^n F."""
    cfg = cfg or DEFAULT_CONFIG
    n = int(getattr(f, "order", 0))
    F = f.F if hasattr(f, "F") else f
    if not 0 <= n <= 4:
        raise ExponentError("extension_n supports orders up to 4")
    return _extension_values(F, pt.y, n, cfg).at(pt.x)


def harmonicity_residual(f, pt, h, cfg=None):
    """5-point finite-difference Laplacian of the extension at pt; the
    residual of a harmonic function scales as O(h^2)."""
    cfg = cfg or DEFAULT_CONFIG
    h = float(h)
    if not pt.y > 2 * h:
        raise LprimError("stencil needs y > 2h")
    n = int(getattr(f, "order", 0))
    F = f.F if hasattr(f, "F") else f

    def u(x, y):
        return _extension_values(F, y, n, cfg).at(x)

    x, y = pt.x, pt.y
    lap = (
        u(x + h, y) + u(x - h, y) + u(x, y + h) + u(x, y - h) - 4.0 * u(x, y)
    ) / (h * h)
    return lap


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


def extension_expr(F, y, n=0, cfg=None, spline_tol=1e-7):
    """U_y (or its n-th x-derivative) as a FunctionExpr: a sampled spline
    at kernel-scale spacing <= y/4 near the data, direct quadrature in the
    tails, with the kernel's power-2 decay recorded."""
    cfg = cfg or DEFAULT_CONFIG
    y = float(y)
    if y <= 0:
        raise LprimError("extension needs y > 0")
    U = _extension_values(F, y, n, cfg)
    R = effective_radius(F, minimum=8.0) + 4.0 * y + 4.0
    spline, err = sample_function(
        U, -R, R, tol=spline_tol, min_spacing=y / 4.0, max_points=65536
    )
    return sampled_expr(spline, -R, R, name=f"poisson_U[y={y:g}]", outside=U,
                        decay=_tail_decay(F))


def boundary_convergence(f, y_grid, cfg=None):
    """For each y (descending) the boundary gap ||u_y - f||^(n)_p, which
    equals ||U_y - F||_p; also checks the contraction ||u_y|| <= ||f||.

    Returns (norms, contraction_ok).
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
    norms = []
    contraction_ok = True
    for y in ys:
        U = extension_expr(F, y, 0, base)
        norms.append(lp_norm(U - F, p, outer))
        if lp_norm(U, p, outer) > fnorm + 1e-6:
            contraction_ok = False
    return norms, contraction_ok

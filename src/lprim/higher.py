"""Higher-order spaces L^(n),p: distributions that are n-th derivatives
of L^p functions, paired against n-fold iterated-integral multipliers.

The pairing reduces to a single quadrature, ∫ f G = (−1)^n ∫ F g, and the
norm is inherited from the primitive, so most of the work is bookkeeping:
iterated antiderivatives (via the single-integral reduction
G_k(x) = ∫_0^x (x−t)^{k−1} g(t) dt / (k−1)!) and order/exponent checks.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
from scipy.optimize import minimize_scalar

from .errors import ExponentError, LprimError
from .expr import FunctionExpr, Wrapped
from .lpspace import Multiplier, conjugate
from .parser import parse_expr
from .quadrature import DEFAULT_CONFIG, integrate, integrate_line, lp_norm


class NthDistribution:
    """f = D^n F with F in L^p; the norm is ||F||_p, integrated with ``cfg``
    when ``norm`` is first read and kept on the object (a ``norm`` passed
    in is taken as given).  Building f checks the order only; the first
    norm read certifies F in L^p.  pair_n and extension_n use F alone and
    never read the norm.  ``_fourier`` holds the samplings behind f's Fourier
    values once one is asked for (fourier.transform_of)."""

    __slots__ = ("F", "p", "order", "_norm", "_cfg", "_fourier")

    def __init__(self, F, p, order, norm=None, *, cfg=DEFAULT_CONFIG):
        self.F, self.p, self.order = F, p, order
        self._norm = norm
        self._cfg = cfg
        self.__post_init__()

    def __post_init__(self):
        # the constructor's checks, under the name lprimbench/tracer.py spans
        if self.order < 1:
            raise ExponentError("order must be >= 1")

    @property
    def norm(self):
        """||F||_p, integrated on the first read."""
        if self._norm is None:
            self._norm = lp_norm(self.F, self.p, self._cfg)
        return self._norm


class IteratedMultiplier(Multiplier):
    """g in L^q together with its iterated antiderivatives from 0.

    ``iterate(k)`` is the k-fold antiderivative G_k (G_0 = g); the order-n
    multiplier is G_n, whose n-th derivative recovers g and whose lower
    iterates all vanish at 0.  The norm ||G||_{nI,q} = ||g||_q is
    Multiplier's.
    """

    __slots__ = ("order",)

    def __init__(self, g, q, order, cfg=None):
        if order < 1:
            raise ExponentError("order must be >= 1")
        self.order = int(order)
        base = cfg or DEFAULT_CONFIG
        # quadrature error compounds across iterates; split the budget
        super().__init__(g, q, replace(base, abs_tol=base.abs_tol / order))

    def iterate(self, k):
        """The k-fold antiderivative of g vanishing (with all lower
        iterates) at 0, evaluated on arrays: one family per call."""
        if not 0 <= k <= self.order:
            raise ExponentError(f"iterate order {k} outside [0, {self.order}]")
        return self.g.values if k == 0 else self._antiderivative(k)


def pair_n(f, G, cfg=None):
    """∫ f G = (−1)^n ∫ F g for matching order and conjugate exponents."""
    if f.order != G.order:
        raise ExponentError(f"order mismatch: {f.order} vs {G.order}")
    q = conjugate(f.p)
    if not math.isclose(G.q, q, rel_tol=1e-12):
        raise ExponentError(f"multiplier exponent {G.q} is not conjugate to p={f.p}")
    cfg = cfg or DEFAULT_CONFIG
    sign = -1.0 if f.order % 2 else 1.0
    return sign * integrate_line(f.F * G.g, cfg).value


def pair_polynomial(f, coeffs):
    """The action of f on a polynomial: zero when deg < order, by the
    annihilation convention that makes D^n well defined modulo degree n−1."""
    coeffs = [float(c) for c in coeffs]
    while coeffs and coeffs[-1] == 0.0:
        coeffs.pop()
    degree = len(coeffs) - 1
    if degree >= f.order:
        raise ExponentError(
            f"polynomial degree {degree} not annihilated at order {f.order}"
        )
    return 0.0


def intermediate_identity_check(F, g, n, m, cfg=None):
    """(lhs, rhs) of ∫ F^(n) G = (−1)^m ∫ F^(n−m) G^(m) for smooth F.

    G is the order-n iterated antiderivative of g, so G^(m) is the
    (n−m)-fold iterate.
    """
    if not 0 <= m <= n:
        raise ExponentError("need 0 <= m <= n")
    if F.kinks or F.singularities or F.decay[0] not in ("gaussian", "exponential"):
        raise LprimError("intermediate identity needs a smooth decaying primitive")
    cfg = cfg or DEFAULT_CONFIG
    mult = IteratedMultiplier(g, math.inf, max(n, 1), cfg)
    sign_n = -1.0 if n % 2 else 1.0
    lhs = sign_n * integrate_line(F * g, cfg).value

    Fd = F
    for _ in range(n - m):
        Fd = Fd.diff()
    Gm_expr = FunctionExpr.from_node(
        Wrapped(mult.iterate(n - m), name="iterate", growth_hint=float(n - m))
    )
    sign_m = -1.0 if m % 2 else 1.0
    prod = replace(Fd * Gm_expr, decay=Fd.decay)
    rhs = sign_m * integrate_line(prod, cfg).value
    return lhs, rhs


def norm_comparison_example(m, cfg=None):
    """Norm-inequivalence exhibit: for F_m = sin(mx) on (0, 2π),
    the order-n norm ||F_m||_1 = 4 is independent of m while the
    next-order Alexiewicz norm sup_x |∫_0^x F_m| = 2/m collapses."""
    m = int(m)
    if m < 1:
        raise ExponentError("m must be >= 1")
    cfg = cfg or DEFAULT_CONFIG
    cfg = replace(cfg, osc_wavelength=2.0 * math.pi / m)
    Fm = parse_expr(f"sin({m}*x)*indicator(0,{2 * math.pi!r})")
    l1 = lp_norm(Fm, 1.0, cfg)

    # cumulative primitive on a grid resolving the oscillation, then a
    # bounded Brent polish around the best node
    n_panels = max(4096, 64 * m)
    edges = np.linspace(0.0, 2.0 * math.pi, n_panels + 1)
    from .quadrature import _gk_eval

    vals = _gk_eval(lambda owner, ys: Fm.values(ys), np.zeros(n_panels, dtype=int),
                    edges[:-1], edges[1:])[0]
    cum = np.concatenate([[0.0], np.cumsum(vals)])
    i = int(np.argmax(np.abs(cum)))
    lo = edges[max(i - 1, 0)]
    hi = edges[min(i + 1, n_panels)]
    base = cum[max(i - 1, 0)]

    def h(x):
        return abs(base + integrate(Fm, lo, x, cfg).value)

    res = minimize_scalar(lambda x: -h(x), bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-12})
    alexiewicz = max(-res.fun, float(np.max(np.abs(cum))))
    return l1, alexiewicz

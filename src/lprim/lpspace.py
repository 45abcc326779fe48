"""The core L'^p calculus.

A distribution f in L'^p is represented by its unique L^p primitive F
(f = F').  A multiplier G in I^q is represented by its density g = G',
with G(x) = integral of g from 0 to x.  The pairing is

    integral of f G  =  - integral of F(x) g(x) dx,

which every operation here reduces to quadrature on.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ExponentError, LprimError
from .expr import Call, combine, const_expr, maximum, minimum
from .parser import parse_expr
from .quadrature import (
    DEFAULT_CONFIG,
    FamilyValues,
    antiderivative,
    effective_radius,
    extent,
    integrate,
    integrate_line,
    lp_norm,
    scan_grid,
    sup_norm,
)


def conjugate(p):
    """The exponent q with 1/p + 1/q = 1 (p=1 -> inf)."""
    if p == 1.0:
        return math.inf
    if p == math.inf:
        return 1.0
    return p / (p - 1.0)


def _check_p(p):
    p = float(p)
    if not 1.0 <= p < math.inf:
        raise ExponentError(f"exponent p={p} outside [1, oo)")
    return p


def _config_for(cfg, osc=None):
    if cfg is None:
        cfg = DEFAULT_CONFIG
    if osc is not None and cfg.osc_wavelength is None:
        cfg = replace(cfg, osc_wavelength=osc)
    return cfg


class PrimitiveDistribution:
    """f = F' with F in L^p.  The norm ||f||'_p = ||F||_p is integrated when
    ``norm`` is first read and kept on the object; a norm passed in is
    taken as given.  Building f therefore does not certify F in L^p: the
    first norm read does, and raises when the integral does not converge.
    pair, fourier and extension_n use F alone and never read the norm.  The
    slot ``_fourier`` holds the samplings behind f's Fourier values once
    one is asked for (fourier.transform_of)."""

    __slots__ = ("F", "p", "osc_wavelength", "_norm", "_cfg", "_fourier")

    def __init__(self, F, p, cfg=None, osc_wavelength=None, _norm=None):
        self.p = _check_p(p)
        self.F = F
        self.osc_wavelength = osc_wavelength
        self._cfg = _config_for(cfg, osc_wavelength)
        # None, a number, or a zero-argument callable: a derived distribution
        # reads its parent's norm through it only when its own is read
        self._norm = _norm

    @property
    def norm(self):
        """||f||'_p = ||F||_p, integrated on the first read."""
        if self._norm is None:
            self._norm = lp_norm(self.F, self.p, self._cfg)
        elif callable(self._norm):
            self._norm = self._norm()
        return self._norm

    # -- linear structure (isometric to L^p on primitives) -------------------

    def _same(self, other):
        if not isinstance(other, PrimitiveDistribution) or other.p != self.p:
            raise ExponentError("operands must share the exponent p")
        return other

    def _derived(self, other, op):
        """The distribution with primitive op(F, other's F), with self's
        configuration and either one's oscillation wavelength."""
        o = self._same(other)
        return PrimitiveDistribution(op(self.F, o.F), self.p, self._cfg,
                                     self.osc_wavelength or o.osc_wavelength)

    def __add__(self, other):
        return self._derived(other, operator.add)

    def __sub__(self, other):
        return self._derived(other, operator.sub)

    def __mul__(self, a):
        a = float(a)
        return PrimitiveDistribution(
            self.F * a, self.p, self._cfg, self.osc_wavelength,
            _norm=lambda: abs(a) * self.norm,
        )

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    def equals(self, other, tol=1e-8, cfg=None):
        """a.e. equality of primitives: ||F1 - F2||_p <= tol."""
        o = self._same(other)
        return lp_norm(self.F - o.F, self.p, cfg) <= tol


class Multiplier:
    """G in I^q, held by its density g = G'; G(x) = integral from 0 to x.

    ``G_values`` evaluates G on an array of points as one antiderivative
    family (quadrature.antiderivative) and raises ConvergenceError, naming
    the point, when an integral does not converge.
    """

    __slots__ = ("g", "q", "_norm", "_cfg", "G_values")

    def __init__(self, g, q, cfg=None):
        q = float(q)
        if not 1.0 < q <= math.inf:
            raise ExponentError(f"multiplier exponent q={q} outside (1, oo]")
        self.g = g
        self.q = q
        self._norm = None
        self._cfg = cfg or DEFAULT_CONFIG
        self.G_values = self._antiderivative(1)

    def _antiderivative(self, k):
        """x -> G_k(x) on arrays, one family per call."""
        g, cfg = self.g, self._cfg
        return FamilyValues(lambda xs: antiderivative(g, xs, k, cfg), f"lpspace G_{k}")

    @property
    def norm(self):
        """||G||_{I,q} = ||g||_q (sup norm at q = inf)."""
        if self._norm is None:
            if self.q == math.inf:
                self._norm = sup_norm(self.g, self._cfg)
            else:
                self._norm = lp_norm(self.g, self.q, self._cfg)
        return self._norm

    def G(self, x):
        """Antiderivative value at x."""
        return self.G_values.at(x)


def pair(f, G, cfg=None):
    """The integral of fG = -integral of F(x) g(x) dx.  It does not read
    f's norm: the line integral of F g is its own check."""
    if not isinstance(f, PrimitiveDistribution):
        raise LprimError("pair expects a PrimitiveDistribution")
    q = conjugate(f.p)
    if not math.isclose(G.q, q, rel_tol=1e-12) and not (G.q == q == math.inf):
        raise ExponentError(f"multiplier exponent {G.q} is not conjugate to p={f.p}")
    cfg = _config_for(cfg, f.osc_wavelength)
    integrand = f.F * G.g
    return -integrate_line(integrand, cfg).value


def dual_norm(f, cfg=None):
    """||f||'_p recovered through the extremal multiplier of the dual ball.

    The witness density is g = sgn(F)|F|^(p-1) ||F||_p^(1-p) (g = sgn(F)
    when p = 1), which has ||g||_q = 1; the pairing with it attains the
    norm.
    """
    n = f.norm
    if n == 0.0:
        return 0.0
    F = f.F
    witness = combine(Call("sgn", F.root), F)
    if f.p != 1.0:
        witness = witness * abs(F).power(f.p - 1.0) * n ** (1.0 - f.p)
    mult = Multiplier(witness, conjugate(f.p), cfg=cfg)
    return abs(pair(f, mult, cfg=cfg))


def translate(f, t):
    """tau_t f, the distribution with primitive tau_t F; translation keeps
    the norm, which tau_t f reads from f when its own is first read."""
    t = float(t)
    if t == 0.0:
        return f
    return PrimitiveDistribution(
        f.F.affine(1.0, -t), f.p, f._cfg, f.osc_wavelength,
        _norm=lambda: f.norm,
    )


# -- lattice ------------------------------------------------------------------


def join(f, g):
    return f._derived(g, maximum)


def meet(f, g):
    return f._derived(g, minimum)


def abs_distribution(f):
    """|f|, with primitive |F| and f's norm (read from f on demand)."""
    return PrimitiveDistribution(abs(f.F), f.p, f._cfg, f.osc_wavelength,
                                 _norm=lambda: f.norm)


def leq(f, g, tol=1e-9):
    """f <= g in the lattice order: F <= G a.e., decided by dense sampling
    plus sign-change bisection (an a.e. statement is not finitely decidable)."""
    f._same(g)
    d = f.F - g.F
    xs = scan_grid(d, *extent(d, 32.0), 10_000)
    vals = d.values(xs)
    vals = np.where(np.isfinite(vals), vals, 0.0)
    if vals.max() <= tol:
        return True
    # refine: confirmed positive excursion of non-trivial width?
    worst = xs[int(np.argmax(vals))]
    return d(worst) <= tol


# -- reconstruction and step approximation ------------------------------------


def reconstruct(f, x, n, cfg=None):
    """F_n(x) = A_n + B_n(x): the pairing of f with the tent multiplier
    G_{n,x}, reduced to two averages of the primitive.

    A_n = -(1/n) integral of F over (-2n, -n); B_n(x) = n * integral of F
    over (x, x+1/n).  F_n(x) -> F(x) at continuity points.
    """
    if n <= 0 or n <= -x:
        raise LprimError("reconstruct needs n > max(0, -x)")
    cfg = _config_for(cfg, f.osc_wavelength)
    a = -integrate(f.F, -2.0 * n, -1.0 * n, cfg).value / n
    b = n * integrate(f.F, x, x + 1.0 / n, cfg).value
    return a + b


class DeltaTrain:
    """s = sigma' = sum a_n [tau_{x_n} delta - tau_{y_n} delta]; the
    primitive sigma = sum a_n chi_(x_n, y_n) is a step function."""

    __slots__ = ("atoms",)

    def __init__(self, atoms):
        atoms = [(float(a), float(x), float(y)) for a, x, y in atoms]
        for a, x, y in atoms:
            if not x < y:
                raise LprimError(f"delta-train atom needs x < y, got ({x}, {y})")
        ordered = sorted(atoms, key=lambda t: t[1])
        for (_, _, y0), (_, x1, _) in zip(ordered, ordered[1:]):
            if x1 < y0:
                raise LprimError("delta-train atom intervals must be disjoint")
        self.atoms = tuple(ordered)

    def primitive(self):
        sigma = const_expr(0.0)
        for a, x, y in self.atoms:
            sigma = sigma + parse_expr(f"indicator({x!r},{y!r})") * a
        if self.atoms:
            lo = min(x for _, x, _ in self.atoms)
            hi = max(y for _, _, y in self.atoms)
            sigma = replace(sigma, support=(lo, hi), decay=("compact",))
        return sigma

    def norm(self, p, cfg=None):
        return lp_norm(self.primitive(), _check_p(p), cfg)


def pair_delta_train(s, G):
    """integral of sG = -sum a_n [G(y_n) - G(x_n)], with G at every
    endpoint in one call."""
    a, x, y = np.array(s.atoms, dtype=float).reshape(-1, 3).T
    Gy, Gx = np.split(G.G_values(np.concatenate([y, x])), 2)
    return -math.fsum(a * (Gy - Gx))


@dataclass(frozen=True)
class StepApproximation:
    train: DeltaTrain
    error: float  # ||f - s_n||'_p


def step_approximate(f, n, cfg=None):
    """Best-effort step approximation of F on an |F|-mass quantile mesh.

    Returns s_n = sigma_n' with sigma_n piecewise constant on n cells,
    together with the approximation error ||f - s_n||'_p.
    """
    if n < 1:
        raise LprimError("step_approximate needs n >= 1")
    cfg = _config_for(cfg, f.osc_wavelength)
    F = f.F
    lo, hi = extent(F)
    grid = np.linspace(lo, hi, 4096)
    dens = np.abs(F.values(grid))
    dens = np.where(np.isfinite(dens), dens, 0.0)
    mass = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(grid))])
    if mass[-1] == 0.0:
        edges = np.linspace(lo, hi, n + 1)
    else:
        quantiles = np.linspace(0.0, mass[-1], n + 1)
        edges = np.interp(quantiles, mass, grid)
        edges[0], edges[-1] = lo, hi
        edges = np.maximum.accumulate(edges)
    atoms = []
    eps = (hi - lo) * 1e-12
    for a, b in zip(edges[:-1], edges[1:]):
        if b - a <= eps:
            continue
        v = integrate(F, a, b, cfg).value / (b - a)
        if v != 0.0:
            atoms.append((v, a, b))
    train = DeltaTrain(atoms)
    err = lp_norm(F - train.primitive(), f.p, cfg)
    return StepApproximation(train, err)


# -- membership (integral criterion) -------------------------------------------


@dataclass(frozen=True)
class MembershipResult:
    verdict: str  # "certified" | "not certified" | "inconclusive"
    integral_zero: bool | None
    weighted_exists: bool | None
    conditional: bool
    details: dict = field(default_factory=dict)


def _improper_limit(e, cfg, osc=None):
    """One-sided truncation limits of the line integral of e.

    Returns (limit, last_fluctuation, settled).  When the oscillation
    wavelength is known, partial integrals are averaged over one period,
    which removes the leading oscillatory term of a conditionally
    convergent integral.
    """
    lam = osc or cfg.osc_wavelength
    r0 = effective_radius(e)
    if lam is not None:
        r0 = lam * math.ceil(r0 / lam)
    total_r = integrate(e, 0.0, r0, cfg).value
    total_l = integrate(e, -r0, 0.0, cfg).value

    def averaged(base, side, r):
        if lam is None:
            return base
        # mean of I(u) over u in (r, r+lam): adds a linearly weighted tail
        w = parse_expr(f"({r + lam!r} - abs(x))*(1/{lam!r})")
        lo, hi = (r, r + lam) if side > 0 else (-(r + lam), -r)
        return base + integrate(e * w, lo, hi, cfg).value

    vals = []
    r = r0
    for _ in range(12):
        vals.append(averaged(total_r, +1, r) + averaged(total_l, -1, r))
        total_r += integrate(e, r, 2 * r, cfg).value
        total_l += integrate(e, -2 * r, -r, cfg).value
        r *= 2
        if len(vals) >= 3:
            d1 = abs(vals[-1] - vals[-2])
            d2 = abs(vals[-2] - vals[-3])
            if d1 <= max(cfg.abs_tol, 1e-12 * abs(vals[-1])) and d2 <= 10 * max(
                cfg.abs_tol, 1e-10
            ):
                return vals[-1], d1, True
    d1 = abs(vals[-1] - vals[-2])
    d2 = abs(vals[-2] - vals[-3])
    settled = d1 < d2 and d1 < 1e-3
    return vals[-1], d1, settled


def membership_check(f_pointwise, p, alpha, cfg=None, osc_wavelength=None):
    """Integral criterion for f in L'^p: (a) the line integral of f is 0 and
    (b) the integral of |t|^alpha f(t) dt exists for some alpha > 1/p.

    Absolutely convergent cases go straight through line quadrature;
    conditionally convergent ones use truncation limits and are flagged.
    """
    p = _check_p(p)
    if not alpha > 1.0 / p:
        raise ExponentError(f"membership needs alpha > 1/p = {1.0 / p}")
    cfg = _config_for(cfg, osc_wavelength)
    weight = abs(parse_expr("x")).power(alpha)
    weighted = weight * f_pointwise

    details = {}
    conditional = False

    def exists(e):
        nonlocal conditional
        d = e.decay
        absolutely = d[0] in ("compact", "gaussian", "exponential") or (
            d[0] == "power" and d[1] > 1.0
        )
        if absolutely:
            res = integrate_line(e, cfg)
            return res.value, res.converged
        conditional = True
        val, fluct, settled = _improper_limit(e, cfg)
        return val, settled

    val_a, ok_a = exists(f_pointwise)
    details["integral"] = val_a
    val_b, ok_b = exists(weighted)
    details["weighted_integral"] = val_b

    if not ok_a or not ok_b:
        return MembershipResult("inconclusive", None, None, conditional, details)
    zero = abs(val_a) <= max(1e-6, 100 * cfg.abs_tol)
    verdict = "certified" if zero else "not certified"
    return MembershipResult(verdict, zero, True, conditional, details)


# -- weak vanishing of FG (relative-measure bound) -----------------------------


def weak_vanishing_bound(f, G, M, N, eps, cfg=None, samples=20_001):
    """Relative measure of {x in (M,N): |F G| > eps} against its bound.

    Bound: ||F chi_(M,N)||_p ||g||_q (N^q - M^q)^(1/q) / (eps q^(1/q) (N-M))
    for p > 1, and ||F chi_(M,N)||_1 ||g||_inf N / (eps (N-M)) at p = 1.
    """
    if not 0 < M < N:
        raise LprimError("weak_vanishing_bound needs 0 < M < N")
    if eps <= 0:
        raise LprimError("eps must be positive")
    cfg = _config_for(cfg, f.osc_wavelength)
    xs = scan_grid(f.F, M, N, samples - 1)
    FG = f.F.values(xs) * G.G_values(xs)
    FG = np.where(np.isfinite(FG), FG, 0.0)
    ratio = float(np.mean(np.abs(FG) > eps))

    restricted = f.F * parse_expr(f"indicator({M!r},{N!r})")
    fp = lp_norm(restricted, f.p, cfg)
    if f.p == 1.0:
        bound = fp * G.norm * N / (eps * (N - M))
    else:
        q = G.q
        bound = fp * G.norm * (N**q - M**q) ** (1.0 / q) / (eps * q ** (1.0 / q) * (N - M))
    return ratio, bound


def gateaux_profile(f, g, t_grid, cfg=None):
    """M(t) = ||f + t g||'_p on the grid; |M'| <= ||g||'_p (Gateaux bound)."""
    f._same(g)
    if not 1.0 < f.p < math.inf:
        raise ExponentError("gateaux_profile needs 1 < p < oo")
    cfg = _config_for(cfg, f.osc_wavelength)
    return [lp_norm(f.F + g.F * float(t), f.p, cfg) for t in t_grid]

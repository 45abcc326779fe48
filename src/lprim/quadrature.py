"""Adaptive quadrature on intervals and the real line.

Panel rule: 15-point Kronrod with embedded 7-point Gauss, error from the
difference of the pair.  Intervals are pre-split at every declared
singularity and kink; panels adjacent to a hard singularity switch to a
tanh-sinh (double-exponential) rule, which absorbs any integrable endpoint
power/log singularity.  Whole-line integrals truncate with doubling shells
whose tails are certified through the integrand's decay class.

One engine serves every integral: a family of integrals (a convolution
sampled at many x, say) shares one panel pool, each integral keeping its
own split points and stopping rule, and a single integral is the family
with one owner.  One builder (``_family``) gives every family its split
points, supports and truncation radii from the metadata of its factors:
f(y), the same for every owner, or K(x_i - y), moved for owner i.
Convolutions of F with the Poisson kernel and its x-derivatives map the
line onto a finite angle interval first (``angle_integral``), so they
need no tails.

Fourier integrals, the integral of f(x) e^{-isx} dx at many s, take a
Filon-Legendre rule instead (``FourierSampling``): f is sampled once on
Legendre panels adapted to f alone, and the oscillation is integrated
exactly, so neither the work nor the error grows with s.  The sampling
is one object, and every s it is called at, in one call or across
calls, shares it; ``fourier_integral`` builds one and calls it once.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass

import numpy as np
from scipy.special import binom
from scipy.special import spherical_jn as _sp_spherical_jn

from .errors import ConvergenceError, IntegrabilityError, LprimError
from .expr import decay_centres, decay_mul, growth

# -- 7/15 Gauss-Kronrod pair (full-precision QUADPACK constants) ----------

_XGK_HALF = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
)
_WGK_HALF = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG_HALF = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)

XGK = np.array([-x for x in _XGK_HALF[:-1]] + [0.0] + list(reversed(_XGK_HALF[:-1])))
WGK = np.array(list(_WGK_HALF[:-1]) + [_WGK_HALF[-1]] + list(reversed(_WGK_HALF[:-1])))
_wg = [0.0] * 15
for _i, _w in enumerate(_WG_HALF[:-1]):
    _wg[1 + 2 * _i] = _w
    _wg[13 - 2 * _i] = _w
_wg[7] = _WG_HALF[-1]
WG = np.array(_wg)

_MAX_PANELS = 400_000


def _env_tol(name, default):
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        v = float(raw)
    except ValueError as exc:
        raise LprimError(f"bad value for {name}: {raw!r}") from exc
    if v <= 0:
        raise LprimError(f"{name} must be positive")
    return v


@dataclass(frozen=True)
class QuadConfig:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    max_depth: int = 48
    truncation_radius: float = 1e6
    osc_wavelength: float | None = None

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise LprimError("tolerances must be positive")
        if self.max_depth < 1:
            raise LprimError("max_depth must be >= 1")

    @staticmethod
    def from_env(**overrides):
        kw = dict(
            abs_tol=_env_tol("LPRIM_ABS_TOL", 1e-10),
            rel_tol=_env_tol("LPRIM_REL_TOL", 1e-8),
        )
        kw.update(overrides)
        return QuadConfig(**kw)


@dataclass(frozen=True)
class QuadResult:
    value: float
    err_est: float
    converged: bool

    def __add__(self, other):
        return QuadResult(
            self.value + other.value,
            self.err_est + other.err_est,
            self.converged and other.converged,
        )


DEFAULT_CONFIG = QuadConfig()


# ---------------------------------------------------------------------------
# integral families
#
# Every integral is one owner of a family: owner i integrates fn(i, y) dy
# with its own interval, split points, support and stopping rule, and the
# owners still active share each kernel evaluation.  A single integral is
# the family with one owner.

_MAX_EVAL_POINTS = 1 << 14  # points per kernel evaluation: their arrays stay in cache


@dataclass(frozen=True)
class FamilyResult:
    """Per-owner values, error estimates and convergence flags."""

    value: np.ndarray
    err_est: np.ndarray
    converged: np.ndarray

    def __add__(self, other):
        return FamilyResult(
            self.value + other.value,
            self.err_est + other.err_est,
            self.converged & other.converged,
        )

    def __getitem__(self, i):
        return QuadResult(float(self.value[i]), float(self.err_est[i]), bool(self.converged[i]))

    def owners(self, owner, n):
        """Sum the entries into n owners: entry j belongs to owner[j]."""
        return FamilyResult(
            np.bincount(owner, self.value, n),
            np.bincount(owner, self.err_est, n),
            np.bincount(owner, ~self.converged, n) == 0,
        )


@dataclass(frozen=True)
class _Family:
    """Integrands fn(i, y) with per-owner metadata.

    ``sing`` and ``cuts`` are (owners, m) arrays: the declared singular
    points, and those together with every other point to split at.  ``support``
    is None or a pair of per-owner arrays; ``radius`` is the effective
    radius of each owner; ``decay`` is shared by all owners, and so is
    ``similar``, a FunctionExpr.similar (r, sigma) with r > 0, or None."""

    fn: object
    sing: np.ndarray
    cuts: np.ndarray
    radius: np.ndarray
    support: tuple | None
    decay: tuple
    similar: tuple | None = None


# A decay centre's bump may be narrow next to the panel that holds it, and
# a rule on a long panel can step over it: split at c and c +- 2^k,
# k = -4..6, so that near c no panel is longer than its distance from c.
_CENTRE_STEPS = (0.0,) + tuple(s * 2.0 ** k for k in range(-4, 7) for s in (1.0, -1.0))


def _centre_cuts(f, centred=False):
    """Split points around each decay centre of ``f``; ``centred`` adds
    the centre 0 that a gaussian or exponential tag leaves implicit."""
    centres = decay_centres(f.decay)
    if centred and f.decay[0] in ("gaussian", "exponential"):
        centres = (0.0,) + centres
    return tuple(c + s for c in centres for s in _CENTRE_STEPS)


def _rows(points, n, xs=None):
    """(n, len(points)) rows of points: ``points`` in every row, or x_i - p
    in row i for an array ``xs``."""
    pts = np.array(points, dtype=float)
    return pts[None].repeat(n, axis=0) if xs is None else xs[:, None] - pts


def _join(rows):
    """The row arrays side by side."""
    return rows[0] if len(rows) == 1 else np.concatenate(rows, axis=1)


def _family(fn, n, factors, extra=(), line=False, decay=None):
    """The family of n owners integrating fn(i, y), with the metadata of a
    product of the ``factors``: pairs (f, xs) of a FunctionExpr f and
    either None, for the factor f(y) of every owner, or an array xs, for
    the factor f(x_i - y) of owner i.

    Owner i splits at its factors' singular points, kinks and decay centre
    cuts, where its factor places them, and at ``extra``: one sequence for
    every owner, or an (n, m) array padded with nan.  On the line
    (``line``), its support is the intersection of its factors' supports,
    and its radius is effective_radius's over its factors' feature points
    and decay centres.  ``decay`` is the integrand's decay class, the
    first factor's by default."""
    per_owner = isinstance(extra, np.ndarray) and extra.ndim == 2
    sing, far = (), ()  # of the factors f(y)
    cuts = () if per_owner else tuple(extra)
    moved = []  # (xs, singular points, other cuts, far points) of the factors f(x_i - y)
    radius = support = None
    for f, xs in factors:
        s, c = tuple(f.singularities), tuple(f.kinks) + _centre_cuts(f)
        p = f.feature_points() + decay_centres(f.decay) if line else ()
        if xs is None:
            sing, cuts, far = sing + s, cuts + c, far + p
        else:
            moved.append((xs, s, c, p))
        if line and f.support is not None:
            a, b = f.support if xs is None else (xs - f.support[1], xs - f.support[0])
            support = (a, b) if support is None else (np.maximum(support[0], a),
                                                      np.minimum(support[1], b))
    # the singular points lead: those of the factors f(x_i - y), then f(y)'s
    cut_rows = _join([_rows(s, n, xs) for xs, s, _, _ in moved] + [_rows(sing + cuts, n)]
                     + [_rows(c, n, xs) for xs, _, c, _ in moved] + [extra] * per_owner)
    leading = len(sing) + sum(len(s) for _, s, _, _ in moved)
    if line:
        radius = np.full(n, max(8.0, 1.5 * max(map(abs, far), default=-math.inf) + 4.0))
        if moved:
            shifted = np.abs(_join([_rows(p, n, xs) for xs, _, _, p in moved]))
            radius = np.maximum(radius, 1.5 * shifted.max(axis=1, initial=-math.inf) + 4.0)
        if support is not None:  # an empty one, hi < lo, _integrate_line clips
            support = (np.full(n, support[0]), np.full(n, support[1]))
    f, xs = factors[0]
    sim = f.similar if len(factors) == 1 and xs is None else None
    return _Family(fn, cut_rows[:, :leading], cut_rows, radius, support,
                   f.decay if decay is None else decay, sim if sim and sim[0] > 0.0 else None)


def _single(f, extra_splits=(), line=False):
    """The one-owner family of the FunctionExpr ``f``."""
    return _family(lambda owner, ys: f.values(ys), 1, ((f, None),), extra_splits, line)


def _in_chunks(fn, per_row, *rows):
    """fn(*rows) on slices of the row arrays, so that one call evaluates at
    most _MAX_EVAL_POINTS points (per_row points a row, one row at least);
    fn returns a tuple of per-row arrays, which are joined."""
    step = max(1, _MAX_EVAL_POINTS // per_row)
    if len(rows[0]) <= step:
        return fn(*rows)
    parts = [fn(*(r[i:i + step] for r in rows)) for i in range(0, len(rows[0]), step)]
    return tuple(np.concatenate(p) for p in zip(*parts))


# ---------------------------------------------------------------------------
# Gauss-Kronrod panel pool


def _gk_eval(fn, owner, lo, hi, rounding=False):
    """Kronrod estimate and |Kronrod - Gauss| per panel [lo, hi].  With
    ``rounding`` the error is at least a rounding floor, 8 eps times the
    Kronrod sum of |fn| (QUADPACK takes 50 eps): the error a few ulps in
    each sample leave in the sum.  A third array then marks the panels
    whose error is that floor."""
    return _in_chunks(lambda o, l, h: _gk_panels(fn, o, l, h, rounding), XGK.size,
                      owner, lo, hi)


_ROUNDING = 8.0 * np.finfo(float).eps
_W_KG = np.stack([WGK, WG])


def _gk_panels(fn, owner, lo, hi, rounding):
    h = 0.5 * (hi - lo)
    ys = (0.5 * (lo + hi))[:, None] + h[:, None] * XGK
    vals = np.asarray(fn(np.repeat(owner, XGK.size), ys.ravel()), dtype=float).reshape(ys.shape)
    bad = ~np.isfinite(vals)
    poisoned = bad.any()
    if poisoned:
        vals[bad] = 0.0
    # The row sums go through einsum, whose per-row order is fixed: BLAS
    # gemv (vals @ WGK) rounds a row differently with the number of rows
    # in the call, and a family member's value must not depend on which
    # other members share its evaluation (sample_function batches all
    # its segments into one call per round).
    k, g = np.einsum("ij,kj->ki", vals, _W_KG) * h
    err = np.abs(k - g)
    out = (k, err)
    if rounding:
        floor = _ROUNDING * np.einsum("ij,j->i", np.abs(vals), WGK) * h
        out = (k, np.maximum(err, floor), err <= floor)
    if poisoned:
        # a non-finite sample poisons its panel: force refinement there
        out[1][bad.any(axis=1)] = np.inf
    return out


# panel pool columns
_LO, _HI, _K, _ERR, _SHARE, _DEPTH = range(6)


def _adaptive_gk(fn, owner, a, b, cfg, group=None):
    """Globally adaptive GK on the intervals [a[j], b[j]], one panel pool.

    Interval j integrates fn(owner[j], .) and keeps its own stopping rule:
    it is done when its summed error is within max(abs_tol, rel_tol * |its
    total|), when no panel exceeds that tolerance's share for its width,
    or when refining would pass _MAX_PANELS panels; no panel goes deeper
    than max_depth.  Done intervals leave the pool.

    With ``group``, interval j is a piece of integral group[j]: its
    relative tolerance is taken of the smaller of its own total and the
    integral's, so that pieces which cancel still meet the integral's
    tolerance, and the pieces of one integral leave the pool together.
    Its panels' errors take the rounding floor (see _gk_eval), and a panel
    whose error is that floor is not split.
    """
    n = a.size
    width = b - a
    value = np.zeros(n)
    err_total = np.zeros(n)
    seg = np.nonzero(width > 0)[0]
    lo, hi, share = a[seg], b[seg], 1.0
    if cfg.osc_wavelength is not None:
        # at most half a wavelength a panel
        count = np.clip(np.ceil(width[seg] / (0.5 * cfg.osc_wavelength)),
                        1, _MAX_PANELS // 2).astype(int)
        seg = np.repeat(seg, count)
        i = np.arange(seg.size) - np.repeat(np.cumsum(count) - count, count)
        count = np.repeat(count, count)
        step = width[seg] / count
        lo = a[seg] + i * step
        hi = np.where(i + 1 == count, b[seg], lo + step)
        share = 1.0 / count
    rounding = group is not None

    def evaluate(rows, segs):
        rows[:, _K], rows[:, _ERR], *floored = _gk_eval(fn, owner[segs], rows[:, _LO],
                                                        rows[:, _HI], rounding)
        if floored:
            # refining cannot lower an error at the rounding floor: such a
            # panel counts as refined to the full depth
            rows[floored[0], _DEPTH] = cfg.max_depth

    pool = np.empty((seg.size, 6))
    pool[:, _LO], pool[:, _HI], pool[:, _SHARE], pool[:, _DEPTH] = lo, hi, share, 0.0
    evaluate(pool, seg)
    panels = np.bincount(seg, minlength=n)

    def scale(total):
        if group is None:
            return np.abs(total)
        return np.minimum(np.abs(total), np.abs(np.bincount(group, total, n))[group])

    for rnd in range(cfg.max_depth + 1):
        total = np.bincount(seg, pool[:, _K], n)
        tol = np.maximum(cfg.abs_tol, cfg.rel_tol * scale(value + total))
        done = np.bincount(seg, pool[:, _ERR], n) <= tol
        last = rnd == cfg.max_depth or done.all()
        if not last:
            need = ((pool[:, _ERR] > tol[seg] * pool[:, _SHARE])
                    & (pool[:, _DEPTH] < cfg.max_depth))
            n_need = np.bincount(seg[need], minlength=n)
            done |= (n_need == 0) | (panels + n_need > _MAX_PANELS)
            if group is not None:
                # a done piece waits, unrefined, for the rest of its integral
                need &= ~done[seg]
                n_need = np.bincount(seg[need], minlength=n)
                done = (np.bincount(group, ~done, n) == 0)[group]
            last = done.all()
        if last or done.any():
            # done intervals leave the pool; a non-finite panel error counts 1
            out = slice(None) if last else done[seg]
            err = pool[out, _ERR]
            value += total if last else np.bincount(seg[out], pool[out, _K], n)
            err_total += np.bincount(seg[out], np.where(np.isfinite(err), err, 1.0), n)
            if last:
                break
            keep = ~out
            seg, pool, need = seg[keep], pool[keep], need[keep]
        # split every panel that needs it in halves
        half = pool[need]
        m = half.shape[0]
        half = np.concatenate([half, half])
        mid = 0.5 * (half[:m, _LO] + half[:m, _HI])
        half[:m, _HI] = mid
        half[m:, _LO] = mid
        half[:, _SHARE] *= 0.5
        half[:, _DEPTH] += 1.0
        new_seg = np.tile(seg[need], 2)
        evaluate(half, new_seg)
        panels += n_need
        keep = ~need
        seg = np.concatenate([seg[keep], new_seg])
        pool = np.concatenate([pool[keep], half])

    tol = np.maximum(cfg.abs_tol, cfg.rel_tol * scale(value))
    return FamilyResult(value, err_total, err_total <= tol)


# ---------------------------------------------------------------------------
# tanh-sinh rule for singular-endpoint panels

_TS_TMAX = 6.5
_TS_MAX_LEVEL = 11


@functools.lru_cache(maxsize=_TS_MAX_LEVEL + 1)
def _ts_nodes(level):
    """Step, abscissae t, weights and endpoint offsets 1 +- tanh(u) of one level."""
    h = 2.0 ** (-level)
    kmax = int(math.floor(_TS_TMAX / h))
    ks = np.arange(-kmax, kmax + 1)
    if level > 0:
        ks = ks[ks % 2 != 0]
    ts = ks * h
    with np.errstate(over="ignore"):
        u = 0.5 * math.pi * np.sinh(ts)
        w = 0.5 * math.pi * np.cosh(ts) / np.cosh(u) ** 2
        # stable offsets from each endpoint: 1 +- tanh(u)
        off_lo = 2.0 / (1.0 + np.exp(-2.0 * np.clip(u, -700, 700)))
        off_hi = 2.0 / (1.0 + np.exp(2.0 * np.clip(u, -700, 700)))
    return h, ts, w, np.where(ts <= 0, off_lo, -off_hi)


def _ts_level(fn, owner, a, b, level):
    """One level's sums on the intervals: (weighted sum, outer-band sum,
    whether any node fell inside)."""
    h, ts, w, off = _ts_nodes(level)

    def sums(owner, a, b):
        s = 0.5 * (b - a)
        xs = np.where(ts <= 0, a[:, None], b[:, None]) + s[:, None] * off
        ok = (xs > a[:, None]) & (xs < b[:, None]) & (w > 0)
        vals = np.zeros(xs.shape)
        vals[ok] = fn(np.broadcast_to(owner[:, None], xs.shape)[ok], xs[ok])
        vals = np.where(np.isfinite(vals), vals, 0.0) * w
        band = np.abs(ts) >= _TS_TMAX - 0.75
        return (s * h * vals.sum(axis=1), s * h * np.abs(vals[:, band]).sum(axis=1),
                ok.any(axis=1))

    return _in_chunks(sums, ts.size, owner, a, b)


def _tanh_sinh(fn, owner, a, b, cfg):
    """Double-exponential rule on the intervals (a[j], b[j]); endpoints
    never sampled.  Intervals are refined level by level together and
    leave when their level-to-level change is within tolerance."""
    n = a.size
    value = np.zeros(n)
    err = np.zeros(n)
    conv = np.ones(n, dtype=bool)
    total = np.zeros(n)
    prev_delta = np.full(n, np.nan)
    first = np.full(n, np.nan)
    last3 = np.full((n, 3), np.nan)  # the three latest estimates, newest last
    count = np.zeros(n, dtype=int)
    act = np.nonzero(b > a)[0]
    for level in range(_TS_MAX_LEVEL + 1):
        if act.size == 0:
            break
        contrib, outer, has = _ts_level(fn, owner[act], a[act], b[act], level)
        if level == 0:
            # integrable endpoint singularities decay doubly exponentially
            # in the transformed variable; mass left in the outermost band
            # means the integral diverges (e.g. logarithmically)
            if np.any(has & (outer > np.maximum(1e-7, 1e-5 * np.abs(contrib)))):
                raise IntegrabilityError(
                    "endpoint singularity too strong: integrability not certified"
                )
            est = contrib
        else:
            est = 0.5 * total[act] + contrib
        # an interval with no node inside at this level keeps its state
        upd = act[has]
        est = est[has]
        total[upd] = est
        count[upd] += 1
        first[upd] = np.where(np.isnan(first[upd]), est, first[upd])
        last3[upd] = np.column_stack([last3[upd, 1], last3[upd, 2], est])
        delta = np.abs(est - last3[upd, 1])
        tol = np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(est))
        fin = (delta <= tol) & (level >= 3)
        if level >= 6 and np.any(
            ~fin
            & (delta > 4.0 * prev_delta[upd])
            & (np.abs(est) > 10.0 * np.maximum(1.0, np.abs(first[upd])))
        ):
            raise IntegrabilityError(
                "tanh-sinh refinement diverges: non-integrable singularity"
            )
        value[upd[fin]] = est[fin]
        err[upd[fin]] = delta[fin]
        prev_delta[upd] = delta
        keep = np.ones(act.size, dtype=bool)
        keep[np.nonzero(has)[0][fin]] = False
        act = act[keep]
    # the rest did not converge: divergence heuristics
    rest = act
    steps = np.abs(np.diff(last3[rest], axis=1))
    if np.any((count[rest] >= 4) & (steps[:, 1] >= steps[:, 0])
              & (np.abs(last3[rest, 2]) > 1e6)):
        raise IntegrabilityError(
            "tanh-sinh estimates grow without bound: non-integrable singularity"
        )
    value[rest] = total[rest]
    err[rest] = np.where(count[rest] > 1, np.abs(total[rest] - last3[rest, 1]), np.inf)
    conv[rest] = False
    return FamilyResult(value, err, conv)


# ---------------------------------------------------------------------------
# self-similar rule for the piece [0, 1] of sigma^r h, sigma the Cantor function

_SS_NODES = 8  # Gauss-Legendre samples of h on a cell
_SS_TERMS = 17  # binomial terms in sigma: the rest is below 8^-17 of a cell


@functools.cache
def cantor_moments(K, N):
    """M[k, n] = integral over [0, 1] of v^k sigma(t)^n dt, v = 2t - 1, k <= K,
    n <= N.  On the thirds of [0, 1], v = (v' - 2)/3 with sigma = sigma(t')/2,
    sigma = 1/2, and v = (v' + 2)/3 with sigma = (1 + sigma(t'))/2, so that
    M[k, n] (2^n 3^(k+1) - 2) is a sum of the M[i, j] before it, in which
    M[k, n] is still 0 (as Lad & Taylor, Statist. Probab. Lett. 13, 1992,
    find the moments of the Cantor measure)."""
    M = np.zeros((K + 1, N + 1))
    for n, k in np.ndindex(N + 1, K + 1):
        i, bn = np.arange(k + 1), binom(n, np.arange(n + 1))
        bk = binom(k, i) * 2.0 ** (k - i)
        outer = (bk * (-1.0) ** (k - i)) @ M[:k + 1, n] + bk @ M[:k + 1, :n + 1] @ bn
        middle = (1 + (-1) ** k) / (2 * (k + 1))
        M[k, n] = (middle + outer) / (2.0 ** n * 3.0 ** (k + 1) - 2.0)
    return M


@functools.cache
def _ss_tables():
    """The nodes v in [-1, 1], the map from samples at them to coefficients
    of v^k, and the moments, built on first use: importing costs nothing."""
    v = np.polynomial.legendre.leggauss(_SS_NODES)[0]
    return v, np.linalg.inv(np.vander(v, increasing=True)), cantor_moments(
        _SS_NODES - 1, _SS_TERMS - 1)


def _self_similar(similar, fn, owner, a, b, cfg):
    """Integrals over [0, 1] of fn(owner[j], .) = sigma^r h, h smooth: on
    ternary cells, where sigma = c + s sigma(t), s <= c/8, and gaps, where
    sigma = c (s = 0, as on a cell at depth ``level``), h = fn/sigma^r is
    the polynomial through _SS_NODES samples and (c + s sigma)^r a binomial
    series, closed by cantor_moments.  The error adds h's last two
    coefficients, the series' remainder and sigma's distance from its cut at
    ``level`` digits; the cell at c = 0 is dropped with the bound s^r w
    max|h|.  A cell splits in thirds while its error exceeds its share."""
    (r, sigma), n, level = similar, owner.size, similar[1].cantor_level
    v, mono, M = _ss_tables()
    coef, rest = binom(r, np.arange(_SS_TERMS)), abs(binom(r, _SS_TERMS))
    value, err, deep = np.zeros(n), np.zeros(n), np.full(n, 1.0 / 16.0)
    tiny = 3.0 ** -cfg.max_depth  # the narrowest cell that splits
    leaves = np.array([np.arange(n), a, b - a, np.zeros(n), np.ones(n)])  # j, x0, w, c, s

    def thirds(leaves):
        j, x0, w, c, s = np.tile(leaves, 3)
        third = np.repeat([0.0, 1.0, 2.0], leaves.shape[1])
        c, s = c + (third > 0) * 0.5 * s, (third != 1) * 0.5 * s
        flat = s <= 2.0 ** -level
        return np.stack([j, x0 + third * w / 3.0, w / 3.0, c + flat * 0.5 * s, s * ~flat])

    while leaves.shape[1]:
        j, x0, w, c, s = leaves
        j = j.astype(int)
        # split unsampled: slow series, and the cell at c = 0 down to its share
        slow = ((c > 0.0) & (c < 8.0 * s) | (c == 0.0) & (s > deep[j])) & (w > tiny)
        if slow.any():
            leaves = np.concatenate([leaves[:, ~slow], thirds(leaves[:, slow])], axis=1)
            continue
        ys = x0[:, None] + w[:, None] * (0.5 * v + 0.5)
        with np.errstate(all="ignore"):
            h = fn(np.repeat(owner[j], v.size), ys.ravel()).reshape(ys.shape) / sigma.fn(ys) ** r
            u, top, hmax = s / c, (c + s) ** r, np.abs(h).max(axis=1)
            poly = h @ mono.T
            val = w * c ** r * np.einsum("lk,kn,ln->l", poly, M,
                                         coef * u[:, None] ** np.arange(_SS_TERMS))
            e = w * (top * np.abs(poly[:, -2:]).sum(axis=1) + hmax * (
                c ** r * rest * u ** _SS_TERMS / (1.0 - u)
                + (s > 0) * r * top / c * 2.0 ** -(level + 1)))
            drop = c == 0.0
            val[drop], e[drop] = 0.0, (w * s ** r * hmax)[drop]
            e[~np.isfinite(e)] = np.inf
            tol = np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(value + np.bincount(j, val, n)))
            deep[j[drop]] = (tol[j] / hmax)[drop] ** (1.0 / r)
        split = (e > tol[j] * w) & (w > tiny) & (leaves.shape[1] < _MAX_PANELS)
        value += np.bincount(j[~split], val[~split], n)
        err += np.bincount(j[~split], e[~split], n)
        leaves = thirds(leaves[:, split])
    return FamilyResult(value, err, err <= np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(value)))


# ---------------------------------------------------------------------------
# finite intervals and the line, per family


def _integrate(fam, owner, a, b, cfg, group=None):
    """Integral of owner[j]'s integrand over [a[j], b[j]], a <= b, split at
    its singular points and split points; the pieces next to a singular
    point take the tanh-sinh rule, a piece [0, 1] of a family with a
    ``similar`` the self-similar rule, and all others share one GK pool.
    ``group``, one label per interval, holds the GK pieces of the
    intervals with one label to their tolerance together (see
    _adaptive_gk)."""
    cuts = fam.cuts[owner]
    inside = (cuts > a[:, None]) & (cuts < b[:, None])
    piece = None  # the interval of each piece, when some interval is split
    lo, hi = a, b
    if inside.any():
        pts = np.concatenate([a[:, None], np.where(inside, cuts, np.nan), b[:, None]], axis=1)
        pts.sort(axis=1)  # nan last
        lo, hi = pts[:, :-1], pts[:, 1:]
        real = hi > lo  # drops the nan padding and repeated points
        piece = np.nonzero(real)[0]
        lo, hi = lo[real], hi[real]
        owner = owner[piece]
        if group is not None:
            group = group[piece]
    if fam.sing.shape[1] == 0 and fam.similar is None:
        res = _adaptive_gk(fam.fn, owner, lo, hi, cfg, group)
    else:
        sing = fam.sing[owner]
        singular = ((lo[:, None] == sing) | (hi[:, None] == sing)).any(axis=1)
        similar = (lo == 0.0) & (hi == 1.0) & ~singular & (fam.similar is not None)
        smooth = ~singular & ~similar
        value = np.zeros(lo.size)
        err = np.zeros(lo.size)
        conv = np.ones(lo.size, dtype=bool)
        gk = functools.partial(_adaptive_gk, group=None if group is None else group[smooth])
        ss = functools.partial(_self_similar, fam.similar)
        for mask, rule in ((smooth, gk), (singular, _tanh_sinh), (similar, ss)):
            if mask.any():
                r = rule(fam.fn, owner[mask], lo[mask], hi[mask], cfg)
                value[mask], err[mask], conv[mask] = r.value, r.err_est, r.converged
        res = FamilyResult(value, err, conv)
    return res if piece is None else res.owners(piece, a.size)


def _power_tails(fam, r, cfg):
    """Both tails beyond |x| = r[i], pulled back to (0, 1] by x = +-r/t."""
    n = r.size
    owner = np.tile(np.arange(n), 2)
    sign = np.repeat([1.0, -1.0], n)
    rr = r[owner]

    def fn(j, ts):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            vals = fam.fn(owner[j], sign[j] * rr[j] / ts) * (rr[j] / ts**2)
        return np.where(np.isfinite(vals), vals, 0.0)

    tails = _tanh_sinh(fn, np.arange(2 * n), np.zeros(2 * n), np.ones(2 * n), cfg)
    return tails.owners(owner, n)


def _periodic_power_tails(fam, r, beta, lam, cfg):
    """Tails of an oscillatory power-decay integrand.

    For f(x) = P(x) x^(-beta) with P periodic of period lam, the tail over
    sign*(r, oo) equals the integral over one period of
    f(x) (x/lam)^beta zeta(beta, x/lam), x = sign*(r + u).  The identity
    is exact for an exactly-periodic oscillation against an exact power;
    a doubling cross-check (the tail from r against the shell [r, 2r] plus
    the tail from 2r) supplies the error estimate.
    """
    from scipy.special import zeta

    n = r.size
    owner = np.tile(np.arange(n), 4)
    sign = np.tile(np.repeat([1.0, -1.0], n), 2)
    start = np.concatenate([r, r, 2 * r, 2 * r])

    def fn(j, us):
        q = (start[j] + us) / lam
        vals = fam.fn(owner[j], sign[j] * (start[j] + us)) * q**beta * zeta(beta, q)
        return np.where(np.isfinite(vals), vals, 0.0)

    m = 4 * n
    t = _adaptive_gk(fn, np.arange(m), np.zeros(m), np.full(m, lam), cfg)
    near = slice(0, 2 * n)
    mid = _integrate(fam, owner[near], np.concatenate([r, -2 * r]),
                     np.concatenate([2 * r, -r]), cfg)
    t1 = t.value[near]
    check = np.abs(t1 - (mid.value + t.value[2 * n:]))
    ok = t.converged[near] & (
        check <= 10 * np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(t1)))
    return FamilyResult(t1, t.err_est[near] + check, ok).owners(owner[near], n)


def _integrate_line(fam, cfg):
    """Line integrals of a family; see integrate_line."""
    n = fam.radius.size
    every = np.arange(n)
    if fam.support is not None:
        lo = np.maximum(fam.support[0], -cfg.truncation_radius)
        hi = np.maximum(np.minimum(fam.support[1], cfg.truncation_radius), lo)
        return _integrate(fam, every, lo, hi, cfg)

    kind = fam.decay[0]
    r = fam.radius.copy()
    if kind == "power":
        beta = fam.decay[1]
        if beta <= 1.0:
            raise IntegrabilityError(
                f"power decay beta={beta} <= 1: line integral diverges"
            )
        if cfg.osc_wavelength is not None:
            lam = cfg.osc_wavelength
            r = lam * np.ceil(np.maximum(r, 64.0) / lam)
            total = _integrate(fam, every, -r, r, cfg)
            return total + _periodic_power_tails(fam, r, beta, lam, cfg)
        return _integrate(fam, every, -r, r, cfg) + _power_tails(fam, r, cfg)

    # gaussian / exponential / none: doubling shells, all active owners at once
    total = _integrate(fam, every, -r, r, cfg)
    value, err, conv = total.value, total.err_est, total.converged
    shell_tol = 0.25 * cfg.abs_tol
    prev_mass = np.full(n, np.nan)
    quiet = np.zeros(n, dtype=int)
    act = every[r < cfg.truncation_radius]
    conv[r >= cfg.truncation_radius] = False
    while act.size:
        ra = r[act]
        shells = _integrate(fam, np.tile(act, 2), np.concatenate([ra, -2 * ra]),
                            np.concatenate([2 * ra, -ra]), cfg)
        side = np.tile(np.arange(act.size), 2)  # right shells, then left
        mass = np.bincount(side, np.abs(shells.value) + shells.err_est, act.size)
        shells = shells.owners(side, act.size)
        value[act] += shells.value
        err[act] += shells.err_est
        conv[act] &= shells.converged
        if kind == "none":
            # only an identically-zero tail can be certified
            probe = np.concatenate([np.linspace(1.0, 2.0, 257), np.linspace(-2.0, -1.0, 257)])

            def nonzero(owner, r):
                vals = fam.fn(np.repeat(owner, probe.size), (r[:, None] * probe).ravel())
                return (vals.reshape(r.size, probe.size) != 0.0).any(axis=1),

            if np.any(mass != 0.0) or _in_chunks(nonzero, probe.size, act, ra)[0].any():
                raise ConvergenceError(
                    "decay class 'none' with nonzero tails: cannot certify convergence"
                )
            quiet[act] += 1
            fin = quiet[act] >= 2
        else:  # gaussian / exponential
            small = mass < shell_tol
            fin = small & (prev_mass[act] >= mass)
            quiet[act] += small & ~fin
            fin |= small & (quiet[act] >= 2)
            err[act[fin]] += 2 * mass[fin]
        prev_mass[act] = mass
        r[act] *= 2
        act = act[~fin]
        conv[act[r[act] >= cfg.truncation_radius]] = False
        act = act[r[act] < cfg.truncation_radius]
    return FamilyResult(value, err, conv)


# ---------------------------------------------------------------------------
# public entry points

_ONE = np.zeros(1, dtype=int)


def integrate(f, a, b, cfg=None, extra_splits=()):
    """Integrate ``f`` over the finite interval [a, b]."""
    cfg = cfg or DEFAULT_CONFIG
    a = float(a)
    b = float(b)
    if b < a:
        r = integrate(f, b, a, cfg, extra_splits)
        return QuadResult(-r.value, r.err_est, r.converged)
    return _integrate(_single(f, extra_splits), _ONE, np.array([a]), np.array([b]), cfg)[0]


def effective_radius(f, minimum=8.0):
    """A radius beyond every feature point and decay centre of ``f``."""
    far = [abs(p) for p in f.feature_points() + decay_centres(f.decay)]
    return max(minimum, 1.5 * max(far) + 4.0) if far else minimum


def extent(f, minimum=8.0):
    """The interval that holds f's mass: its support, or [-r, r] with r
    its effective_radius."""
    if f.support is not None:
        return f.support
    r = effective_radius(f, minimum)
    return -r, r


def integrate_line(f, cfg=None, extra_splits=()):
    """Integrate ``f`` over the whole real line.

    Compact support reduces to a finite interval.  Otherwise the integral
    is truncated, with doubling shells certifying the tails through the
    integrand's decay class; decay 'none' with nonzero tails is refused.
    """
    return _integrate_line(_single(f, extra_splits, line=True), cfg or DEFAULT_CONFIG)[0]


def convolve(K, g, xs, cfg=None):
    """(K * g)(x) = integral of K(x - y) g(y) dy for every x in ``xs``,
    as one integral family, whose owner for x has the factors K(x - y)
    and g(y)."""
    xs = np.asarray(xs, dtype=float).ravel()
    fam = _family(lambda owner, ys: K.values(xs[owner] - ys) * g.values(ys), xs.size,
                  ((K, xs), (g, None)), line=True,
                  decay=decay_mul(K.decay, g.decay, growth(K.root), growth(g.root)))
    return _integrate_line(fam, cfg or DEFAULT_CONFIG)


def angle_integral(F, weight, xs, ys, cfg=None):
    """Integral of weight(theta, y) F(x - y tan(theta)) d(theta) over
    (-pi/2, pi/2) for every pair of ``xs`` and ``ys``, as one integral family.

    The map t = x - y tan(theta) takes the line onto a finite interval, so
    no tails are needed.  A point c of the line lands at
    theta = arctan((x - c)/y): F's support [a, b] becomes the interval
    [arctan((x - b)/y), arctan((x - a)/y)], and its kinks and, without a
    support, the cuts c + _CENTRE_STEPS around each decay centre (0 among
    them for a gaussian or exponential tag) become split points.  The GK
    pieces of one integral meet its tolerance together (see _adaptive_gk).

    A singular point c of F cannot be approached closely in theta, whose
    rounding near arctan((x - c)/y) is y sec^2 times coarser in t, so its
    neighbourhood |t - c| < h, h = min(y, 1, a quarter of the distance to
    F's next feature point), is integrated in t by the tanh-sinh rule, with
    the kernel weight(theta, y) y/(y^2 + (x - t)^2) that d(theta) turns into.
    ``weight`` takes arrays of theta and of each one's y.
    """
    cfg = cfg or DEFAULT_CONFIG
    xs, ys = (a.ravel() for a in np.broadcast_arrays(np.asarray(xs, dtype=float),
                                                      np.asarray(ys, dtype=float)))
    n = xs.size
    every = np.arange(n)
    sa, sb = F.support if F.support is not None else (-math.inf, math.inf)
    cuts = tuple(F.kinks) + (() if F.support is not None else _centre_cuts(F, centred=True))

    def fn(owner, th):
        y = ys[owner]
        return weight(th, y) * F.values(xs[owner] - y * np.tan(th))

    fam = _Family(fn, np.zeros((n, 0)), np.arctan(_rows(cuts, n, xs) / ys[:, None]),
                  None, None, F.decay)
    # the line less the neighbourhoods of the singular points: intervals
    # [lo_t, hi_t] in t, one row per owner
    sing = np.array(sorted(F.singularities), dtype=float)
    h = np.zeros((n, sing.size))
    if sing.size:
        feats = F.feature_points()
        gap = np.array([min([abs(c - p) for p in feats if p != c], default=math.inf)
                        for c in sing])
        h = np.minimum(ys[:, None], np.minimum(1.0, 0.25 * gap))
    lo_t = np.clip(np.concatenate([np.full((n, 1), sa), sing + h], axis=1), sa, sb)
    hi_t = np.clip(np.concatenate([sing - h, np.full((n, 1), sb)], axis=1), lo_t, sb)
    owner = np.repeat(every, sing.size + 1)
    x, y = xs[owner], ys[owner]
    res = _integrate(fam, owner, np.arctan((x - hi_t.ravel()) / y),
                     np.arctan((x - lo_t.ravel()) / y), cfg, group=owner).owners(owner, n)
    if not sing.size:
        return res

    def near(owner, ts):
        s, y = xs[owner] - ts, ys[owner]
        return weight(np.arctan(s / y), y) * (y / (y * y + s * s)) * F.values(ts)

    owner = np.repeat(every, 2 * sing.size)
    c = np.tile(np.repeat(sing, 2), n)
    side = np.tile([-1.0, 1.0], n * sing.size)
    end = np.clip(c + side * np.repeat(h.ravel(), 2), sa, sb)
    lo, hi = np.clip(np.minimum(c, end), sa, sb), np.clip(np.maximum(c, end), sa, sb)
    return res + _tanh_sinh(near, owner, lo, hi, cfg).owners(owner, n)


def antiderivative(g, xs, k, cfg=None):
    """G_k(x) = integral of g(t) (x - t)^(k-1)/(k-1)! dt from 0 to x for every
    x in ``xs``, as one integral family: the k-fold antiderivative of g that
    vanishes at 0 with its lower iterates (Cauchy's formula).  Owner i
    integrates over [min(0, x_i), max(0, x_i)] and is negated for x_i < 0;
    every owner splits at g's singular points, kinks and centre cuts."""
    xs = np.asarray(xs, dtype=float).ravel()
    scale = 1.0 / math.factorial(k - 1)

    def fn(owner, ts):
        return g.values(ts) * ((xs[owner] - ts) ** (k - 1) * scale)

    fam = _family(fn, xs.size, ((g, None),))
    res = _integrate(fam, np.arange(xs.size), np.minimum(xs, 0.0), np.maximum(xs, 0.0),
                     cfg or DEFAULT_CONFIG)
    return FamilyResult(np.where(xs < 0, -res.value, res.value), res.err_est, res.converged)


class FamilyValues:
    """x -> one integral per x, on arrays of x, one integral family per call:
    ``integrals(xs)`` returns their FamilyResult.

    A point whose integral did not converge raises ConvergenceError naming
    ``layer`` and the point; ``max_err`` is the largest err_est seen.
    """

    def __init__(self, integrals, layer):
        self.integrals = integrals
        self.layer = layer
        self.max_err = 0.0

    def __call__(self, xs):
        xs = np.asarray(xs, dtype=float)
        res = self.integrals(xs)
        if not res.converged.all():
            i = int(np.argmin(res.converged))
            raise ConvergenceError(
                f"{self.layer}: integral at x={float(xs.ravel()[i])!r} did not converge "
                f"(err_est={res.err_est[i]:.3g})"
            )
        if res.err_est.size:
            self.max_err = max(self.max_err, float(res.err_est.max()))
        return res.value.reshape(xs.shape)

    def at(self, x):
        """The value at one point."""
        return float(self(np.array([float(x)]))[0])


class ConvolutionValues(FamilyValues):
    """x -> (K * g)(x), one ``convolve`` family per call."""

    def __init__(self, K, g, cfg, layer):
        super().__init__(lambda xs: convolve(K, g, xs, cfg), layer)


# ---------------------------------------------------------------------------
# Filon-Legendre rule for Fourier integrals
#
# The integrals of f(x) e^{-isx} dx at many s share one sampling of f, on
# panels adapted to f alone (FourierSampling, kept across calls).  On each
# panel f is replaced by its Legendre series from _FL_N Gauss-Legendre
# samples, and each P_k is integrated exactly against the oscillation:
#     integral_{-1}^{1} P_k(t) e^{-iwt} dt = 2 (-i)^k j_k(w),
# w = s times the panel's half-width.  The error is the series' error,
# whatever s is.  Chebyshev series would need moments whose recurrence is
# unstable once k > w; spherical Bessel functions are stable for all k, w.

_FL_N = 32
_FL_T, _FL_W = np.polynomial.legendre.leggauss(_FL_N)
# Legendre coefficients of a panel's samples: coef = vals @ _FL_COEF
_FL_COEF = (np.polynomial.legendre.legvander(_FL_T, _FL_N - 1) * _FL_W[:, None]
            * (np.arange(_FL_N) + 0.5))
_FL_MOMENT = 2.0 * (-1j) ** np.arange(_FL_N)
_FL_TAIL = 4  # the trailing coefficients whose sizes bound a panel's error
_FL_TERMS = 4  # terms of the asymptotic sum for power-decay tails
_FL_MOMENT_BATCH = 1 << 18  # moments per spherical_jn call, at most
# the tolerance is absolute, as |F^(s)| spans many orders of magnitude over
# s; for large F it is at least this share of the L^1 mass, near rounding
_FL_FLOOR = 256 * np.finfo(float).eps


def _fl_eval(f, lo, hi):
    """Legendre coefficients, error bound and L^1 mass of f on each panel
    [lo, hi]; a non-finite sample makes the error infinite."""

    def panels(lo, hi):
        h = 0.5 * (hi - lo)
        xs = (0.5 * (lo + hi))[:, None] + h[:, None] * _FL_T
        vals = np.asarray(f.values(xs.ravel()), dtype=float).reshape(xs.shape)
        bad = ~np.isfinite(vals).all(axis=1)
        vals[bad] = 0.0
        coef = vals @ _FL_COEF
        err = np.where(bad, np.inf, 2.0 * h * np.abs(coef[:, -_FL_TAIL:]).sum(axis=1))
        return coef, err, h * (np.abs(vals) @ _FL_W)

    return _in_chunks(panels, _FL_N, lo, hi)


def _fl_segments(f, a, b, cfg, hmax):
    """Adaptive Legendre panels on the segments [a[j], b[j]], inside which
    f is smooth.  A segment end at a singular point of f is graded toward
    by halving, until the piece touching it has half-width at most
    ``hmax``; those pieces are returned apart, for the tanh-sinh rule.
    Every other panel is bisected until its Legendre tail meets its share,
    by width, of the segment's tolerance max(abs_tol, _FL_FLOOR * the
    L^1 mass of f on the segment).  Below the _MAX_PANELS cap the
    segments do not interact: each gets the panels it would get alone.

    Returns (panels, singular pieces, per-segment error, converged, mass):
    panels as (lo, hi, coef, segment index), pieces as (lo, hi)."""
    sing = set(f.singularities)
    lo, hi, seg, s_lo, s_hi = [], [], [], [], []
    for j, (p, q) in enumerate(zip(a, b)):
        ends = [(p, 0.5 * (p + q)), (0.5 * (p + q), q)] if p in sing and q in sing else [(p, q)]
        for u, v in ends:
            if u in sing or v in sing:
                # pieces of halving width toward the singular end
                while 0.5 * (v - u) > hmax:
                    mid = 0.5 * (u + v)
                    lo.append(mid if u in sing else u)
                    hi.append(v if u in sing else mid)
                    seg.append(j)
                    u, v = (u, mid) if u in sing else (mid, v)
                s_lo.append(u)
                s_hi.append(v)
            else:
                lo.append(u)
                hi.append(v)
                seg.append(j)
    n = len(a)
    width = np.asarray(b, dtype=float) - np.asarray(a, dtype=float)
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    seg = np.array(seg, dtype=int)
    depth = np.zeros(lo.size)
    coef, err, mass = _fl_eval(f, lo, hi) if lo.size else (
        np.zeros((0, _FL_N)), np.zeros(0), np.zeros(0))
    for _ in range(cfg.max_depth + 1):
        tol = np.maximum(cfg.abs_tol, _FL_FLOOR * np.bincount(seg, mass, n))
        ok = np.bincount(seg, err, n) <= tol
        need = (~ok[seg] & (err > tol[seg] * (hi - lo) / width[seg])
                & (depth < cfg.max_depth))
        if not need.any() or lo.size + need.sum() > _MAX_PANELS:
            break
        mid = 0.5 * (lo[need] + hi[need])
        new_lo = np.concatenate([lo[need], mid])
        new_hi = np.concatenate([mid, hi[need]])
        new = _fl_eval(f, new_lo, new_hi)
        keep = ~need
        lo, hi = np.concatenate([lo[keep], new_lo]), np.concatenate([hi[keep], new_hi])
        seg = np.concatenate([seg[keep], np.tile(seg[need], 2)])
        depth = np.concatenate([depth[keep], np.tile(depth[need] + 1.0, 2)])
        coef, err, mass = (np.concatenate([old[keep], fresh])
                           for old, fresh in zip((coef, err, mass), new))
    seg_err = np.bincount(seg, err, n)
    return ((lo, hi, coef, seg), (np.array(s_lo, dtype=float), np.array(s_hi, dtype=float)),
            seg_err, seg_err <= tol, np.bincount(seg, mass, n))


def _fl_groups(lo, hi, coef):
    """The panels [lo, hi] grouped by half-width, for _filon_sum: the
    distinct half-widths, and for each the panels' midpoints and their
    Legendre coefficients times the moment factors 2 (-i)^k."""
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    weighted = coef * _FL_MOMENT
    widths = np.unique(half)
    return widths, [(mid[sel], weighted[sel]) for sel in (half == h for h in widths)]


def _filon_sum(groups, s):
    """Sum over the panels of ``groups`` (_fl_groups) of the integral of
    each panel's Legendre series times e^{-isx}, for every s; panels of
    equal width share moments, which come from one spherical_jn call per
    chunk of (s, width) pairs."""
    widths, parts = groups
    k = np.arange(_FL_N)
    out = np.zeros(s.size, dtype=complex)
    pairs = max(1, _FL_MOMENT_BATCH // _FL_N)  # (s, width) pairs per call
    nw = max(1, min(widths.size, pairs // max(1, s.size)))  # widths per call
    for i in range(0, s.size, pairs // nw):  # every s at once, unless many
        sq = s[i:i + pairs // nw]
        for c in range(0, widths.size, nw):
            moments = _sp_spherical_jn(k, sq[:, None, None] * widths[c:c + nw, None])
            # moments (q, k) of each width, with its panels
            for h, m, (mid, weighted) in zip(widths[c:c + nw], moments.transpose(1, 0, 2),
                                             parts[c:c + nw]):
                phase = np.exp(-1j * np.outer(sq, mid))
                out[i:i + sq.size] += h * np.einsum("qk,qk->q", m, phase @ weighted)
    return out


def _fl_singular(f, lo, hi, s, cfg):
    """Integrals of f(x) e^{-isx} over the pieces (lo, hi) that touch a
    singular point, of half-width at most 1/max|s|, by the tanh-sinh rule;
    one owner per (piece, s, cos or sin part)."""
    m, q = lo.size, s.size
    piece = np.repeat(np.arange(m), 2 * q)
    si = np.tile(np.repeat(np.arange(q), 2), m)
    sine = np.tile([False, True], m * q)

    def fn(j, ys):
        ang = s[si[j]] * ys
        return f.values(ys) * np.where(sine[j], -np.sin(ang), np.cos(ang))

    r = _tanh_sinh(fn, np.arange(2 * m * q), lo[piece], hi[piece], cfg)
    v = r.value.reshape(m, q, 2).sum(axis=0)
    return (v[:, 0] + 1j * v[:, 1], r.err_est.reshape(m, q, 2).sum(axis=(0, 2)),
            r.converged.reshape(m, q, 2).all(axis=(0, 2)))


def _power_tail_table(f, r, cfg):
    """What the asymptotic tail sum of a power-decay f needs at every s:
    the candidate radii R = r 2^k up to truncation_radius, the values of
    f, f', ..., f^(K) at R and -R (one evaluation per derivative), and the
    remainder bound at each R before its factor |s|^-K (infinite where a
    value is not finite).  Returns (Rs, vals, bound, K)."""
    beta = f.decay[1]
    if beta <= 1.0:
        raise IntegrabilityError(f"power decay beta={beta} <= 1: line integral diverges")
    derivs = [f]
    try:
        while len(derivs) <= _FL_TERMS:
            derivs.append(derivs[-1].diff())
    except LprimError:
        pass  # a node without a symbolic derivative: fewer terms
    K = len(derivs) - 1
    Rs = r * 2.0 ** np.arange(max(0, int(np.log2(cfg.truncation_radius / r))) + 1)
    vals = np.array([d.values(np.concatenate([Rs, -Rs])) for d in derivs])
    vals = vals.reshape(K + 1, 2, Rs.size)
    bound = np.abs(vals[K]).sum(axis=0) * Rs / (beta + K - 1.0)
    bound[~np.isfinite(vals).all(axis=(0, 1))] = np.inf
    return Rs, vals, bound, K


def _asymptotic_tails(table, s, cfg):
    """Both tails beyond |x| = R of the integral of f(x) e^{-isx} dx for a
    power-decay f, by the asymptotic sum
        e^{-isR} sum_k f^(k)(R) / (is)^(k+1) - e^{isR} sum_k f^(k)(-R) / (is)^(k+1),
    k < K, whose remainder is at most integral_{|x|>R} |f^(K)| / |s|^K,
    estimated as (|f^(K)(R)| + |f^(K)(-R)|) R / (beta + K - 1) / |s|^K.
    R is the first radius of ``table`` (_power_tail_table) where the
    remainder at the smallest |s| is within abs_tol / 4; if none is, this
    raises ConvergenceError.  Returns (R, tails, remainder per s)."""
    Rs, vals, bound, K = table
    fit = bound <= 0.25 * cfg.abs_tol * np.min(np.abs(s)) ** K
    if not fit.any():
        raise ConvergenceError(
            f"power-decay tail not within tolerance inside |x| <= {cfg.truncation_radius:g}")
    i = int(np.argmax(fit))
    R = Rs[i]
    inv = 1.0 / (1j * s[:, None]) ** np.arange(1, K + 1)  # (q, K)
    tails = (np.exp(-1j * s * R) * (inv @ vals[:K, 0, i])
             - np.exp(1j * s * R) * (inv @ vals[:K, 1, i]))
    return R, tails, bound[i] / np.abs(s) ** K


_NO_PANELS = (np.zeros(0), np.zeros(0), np.zeros((0, _FL_N)), 0.0, True)


class FourierSampling:
    """The Filon-Legendre sampling of f behind the integrals of
    f(x) e^{-isx} dx over the line.  Calling it at an array (or scalar)
    ``s``, all nonzero, gives a FamilyResult with one complex value per s.

    The line splits at f's singular points, kinks and support ends, and the
    Filon-Legendre rule integrates each panel.  Tails by decay class:
    compact support needs none; for gaussian and exponential decay, shells
    [R, 2R] are sampled as the line integrals' shells are, and twice the
    last shell's mass bounds the rest; power decay takes the asymptotic sum
    of _asymptotic_tails; decay 'none' is accepted only with vanishing
    shells.  The error estimate sums the panels' Legendre tails, the
    tanh-sinh errors and the tail bound.

    Every call shares one sampling.  The panels depend on f alone and are
    sampled on the first call, but for two parts that grow with the calls:
    - a segment that ends at a singular point is graded toward it down to
      pieces of half-width 1/max|s|, and graded again only when a call's
      1/max|s| is finer than every earlier one (a coarser call uses the
      finer grade); the pieces themselves take the tanh-sinh rule at each
      call;
    - a power tail starts at the radius R that the call's smallest |s|
      needs, and shells out to R are added when R passes every earlier one
      (a call with a smaller R uses the shells inside it only).
    So a call gets the value a sampling of its own s would give, up to the
    order of the sums, unless an earlier call graded a singular point more
    finely.
    """

    def __init__(self, f, cfg=None):
        self.f = f
        self.cfg = cfg or DEFAULT_CONFIG
        self._blocks = None  # [(reach, lo, hi, coef, err, ok)], reach ascending
        self._graded_ab = None  # the segments that end at a singular point
        self._graded = _NO_PANELS  # (lo, hi, coef, err, ok) of their panels
        self._pieces = (np.zeros(0), np.zeros(0))  # for the tanh-sinh rule
        self._grade = math.inf
        self._joined = {}  # number of blocks used -> (width groups, err, ok)
        self._table = None  # the power tail's _power_tail_table
        self._r = None  # the outer radius of the power-tail shells so far

    def _sample(self, a, b, hmax=math.inf):
        """_fl_segments of f on [a[j], b[j]]; (panels, pieces, err, ok, mass)."""
        return _fl_segments(self.f, a, b, self.cfg, hmax)

    def _setup(self):
        """The panels that do not depend on s: the core segments apart from
        those ending at a singular point, and the gaussian, exponential or
        'none' shells, to the quiet-shell stopping rule."""
        f, cfg = self.f, self.cfg
        feats = np.unique(np.array(f.feature_points() + _centre_cuts(f), dtype=float))

        def pieces(a, b):
            pts = np.concatenate([[a], feats[(feats > a) & (feats < b)], [b]])
            wide = pts[1:] > pts[:-1]
            return pts[:-1][wide], pts[1:][wide]

        lo, r = extent(f)  # without a support, the core is [-r, r]
        if f.support is not None:
            lo = max(lo, -cfg.truncation_radius)
            r = max(min(r, cfg.truncation_radius), lo)
        a, b = pieces(lo, r)
        sing = np.array(f.singularities, dtype=float)
        graded = np.isin(a, sing) | np.isin(b, sing)
        (lo, hi, coef, _), _, err, ok, _ = self._sample(a[~graded], b[~graded])
        # a block without panels carries the bound on the tails beyond it
        blocks = [(0.0, lo, hi, coef, err.sum(), bool(ok.all()))]
        if f.support is None and f.decay[0] == "power":
            self._table, self._r = _power_tail_table(f, r, cfg), r
        elif f.support is None:
            # gaussian / exponential / none: doubling shells, as _integrate_line
            kind = f.decay[0]
            prev, quiet = np.nan, 0
            while True:
                if r >= cfg.truncation_radius:
                    blocks.append((0.0,) + _NO_PANELS[:3] + (0.0, False))
                    break
                (lo, hi, coef, _), _, err, ok, mass = self._sample([r, -2 * r], [2 * r, -r])
                blocks.append((0.0, lo, hi, coef, err.sum(), bool(ok.all())))
                mass = mass.sum() + err.sum()
                r *= 2
                if kind == "none":
                    if mass != 0.0:
                        raise ConvergenceError(
                            "decay class 'none' with nonzero tails: cannot certify convergence")
                    quiet += 1
                    if quiet >= 2:
                        break
                    continue
                if mass < 0.25 * cfg.abs_tol:
                    if prev >= mass or quiet >= 1:
                        blocks.append((0.0,) + _NO_PANELS[:3] + (2 * mass, True))
                        break
                    quiet += 1
                prev = mass
        self._graded_ab = (a[graded], b[graded])
        self._blocks = blocks

    def _extend(self, R):
        """The power-tail shells [r, 2r] and [-2r, -r] from the outermost
        one sampled so far out to R, one block per shell pair."""
        rs = []
        r = self._r
        while r < R:
            rs.append(r)
            r *= 2
        if not rs:
            return
        rs = np.array(rs)
        n = rs.size
        (lo, hi, coef, seg), _, err, ok, _ = self._sample(np.concatenate([rs, -2 * rs]),
                                                          np.concatenate([2 * rs, -rs]))
        for j in range(n):
            sel = (seg == j) | (seg == j + n)
            self._blocks.append((2 * rs[j], lo[sel], hi[sel], coef[sel],
                                 err[j] + err[j + n], bool(ok[j] and ok[j + n])))
        self._r = r

    def __call__(self, s):
        s = np.atleast_1d(np.asarray(s, dtype=float)).ravel()
        if not np.all(s != 0.0):
            raise LprimError("fourier_integral needs s != 0")
        if self._blocks is None:
            self._setup()
        hmax = 1.0 / np.max(np.abs(s))
        if hmax < self._grade and self._graded_ab[0].size:
            (lo, hi, coef, _), self._pieces, err, ok, _ = self._sample(*self._graded_ab, hmax)
            self._graded = (lo, hi, coef, err.sum(), bool(ok.all()))
            self._grade = hmax
            self._joined.clear()
        R, tail, tail_err = math.inf, 0.0, 0.0
        if self._table is not None:
            R, tail, tail_err = _asymptotic_tails(self._table, s, self.cfg)
            self._extend(R)
        # the blocks within R and the graded panels, grouped by width once
        # per number of blocks
        n = sum(blk[0] <= R for blk in self._blocks)
        if n not in self._joined:
            used = [blk[1:] for blk in self._blocks[:n]] + [self._graded]
            lo, hi, coef = (np.concatenate(c) for c in list(zip(*used))[:3])
            self._joined[n] = (_fl_groups(lo, hi, coef), sum(u[3] for u in used),
                               all(u[4] for u in used))
        groups, err, ok = self._joined[n]
        value = _filon_sum(groups, s) + tail
        err = np.full(s.size, err) + tail_err
        conv = np.full(s.size, ok)
        if self._pieces[0].size:
            v, e, c = _fl_singular(self.f, *self._pieces, s, self.cfg)
            value, err, conv = value + v, err + e, conv & c
        return FamilyResult(value, err, conv)


def fourier_integral(f, s, cfg=None):
    """The integral of f(x) e^{-isx} dx over the line at every s of the
    array (or scalar) ``s``, all nonzero, from one sampling of f: a
    FourierSampling built for this call and called once.  A FamilyResult
    with one complex value per s."""
    return FourierSampling(f, cfg)(s)


def _scan_size(a, b, cfg, n):
    """Grid cells for a scan of [a, b]: at least ``n``, and 8 per
    ``cfg.osc_wavelength`` when one is set, at most 2,000,000."""
    if cfg.osc_wavelength:
        n = max(n, int(8 * (b - a) / cfg.osc_wavelength))
    return min(n, 2_000_000)


def scan_grid(f, a, b, n):
    """n + 1 equally spaced points from a to b, those that fall on a
    declared singular point of f nudged off it."""
    xs = np.linspace(a, b, n + 1)
    for s in f.singularities:
        xs[np.isclose(xs, s, rtol=0.0, atol=1e-300)] += (b - a) * 1e-9
    return xs


def find_sign_changes(f, a, b, n=2048):
    """Zeros of f in (a, b) located by grid scan plus bisection.

    Every bracket is bisected at once, one ``f.values`` call per step over
    the brackets still live.  A bracket takes at most 60 steps; it stops
    at a non-finite midpoint and collapses onto a midpoint where f is
    exactly zero."""
    xs = scan_grid(f, a, b, n)
    vals = f.values(xs)
    vals = np.where(np.isfinite(vals), vals, 0.0)
    sgn = np.sign(vals)
    flips = np.nonzero(sgn[:-1] * sgn[1:] < 0)[0]
    # exact grid hits: interior zeros flanked by nonzero values
    exact = np.nonzero((sgn[1:-1] == 0.0) & (sgn[:-2] != 0.0) & (sgn[2:] != 0.0))[0]
    lo, hi, flo = xs[flips], xs[flips + 1], vals[flips]
    live = np.arange(flips.size)
    for _ in range(60):
        if not live.size:
            break
        mid = 0.5 * (lo[live] + hi[live])
        fm = f.values(mid)
        zero = fm == 0.0
        step = np.isfinite(fm) & ~zero
        right = step & ((fm > 0) == (flo[live] > 0))  # the zero lies right of mid
        left = step & ~right
        lo[live[zero | right]] = mid[zero | right]
        hi[live[zero | left]] = mid[zero | left]
        flo[live[right]] = fm[right]
        live = live[step]
    return xs[exact + 1].tolist() + (0.5 * (lo + hi)).tolist()


def lp_norm(f, p, cfg=None, extra_splits=()):
    """(Integral of |f|^p over the line)^(1/p)."""
    return lp_norms(f, p, cfg, (tuple(extra_splits),))[0]


def lp_norms(f, p, cfg=None, cuts=((),), weight=None):
    """The L^p norms of f w_0, f w_1, ..., one per entry of ``cuts``, as one
    integral family: owner i integrates |f w_i|^p over the line.

    w_i is ``weight(i, ys)`` at the points ys, or 1 without ``weight``.
    Each |w_i| must be at most 1, so that f w_i decays like f.  Owner i
    splits at f's singular points, kinks, decay centre cuts and sign
    changes, from one scan of f for all owners, and at cuts[i], where w_i
    may change sign or lose smoothness.  Returns a list of floats; raises
    ConvergenceError when an owner's integral did not converge and its
    err_est exceeds 10 times its tolerance.
    """
    cfg = cfg or DEFAULT_CONFIG
    if not 1.0 <= p < math.inf:
        raise LprimError(f"exponent p={p} outside [1, oo)")
    integrand = abs(f) if p == 1.0 else abs(f).power(p)
    a, b = extent(f)
    zeros = find_sign_changes(f, a, b, _scan_size(a, b, cfg, 2048))
    n = len(cuts)
    # nan pads: never inside a piece
    extra = np.full((n, len(zeros) + max(map(len, cuts))), np.nan)
    extra[:, :len(zeros)] = zeros
    for i, c in enumerate(cuts):
        extra[i, len(zeros):len(zeros) + len(c)] = c

    def fn(owner, ys):
        vals = integrand.values(ys)
        return vals if weight is None else vals * np.abs(weight(owner, ys)) ** p

    res = _integrate_line(_family(fn, n, ((integrand, None),), extra, line=True), cfg)
    out = []
    for r in map(res.__getitem__, range(n)):
        if not r.converged and r.err_est > 10 * max(cfg.abs_tol, cfg.rel_tol * abs(r.value)):
            raise ConvergenceError(
                f"L^{p} norm integral did not converge (err_est={r.err_est:.3g})")
        out.append(max(r.value, 0.0) ** (1.0 / p))
    return out


def sup_norm(f, cfg=None):
    """Supremum of |f| (non-finite values count as 0), a lower bound: grid
    scan, then one golden-section search over the brackets of the eight
    largest grid values, one ``f.values`` call per step.  Declared singular
    points are treated as potentially unbounded and refused."""
    cfg = cfg or DEFAULT_CONFIG
    if f.singularities:
        raise ConvergenceError("sup_norm: declared singular points may be unbounded")

    def absf(xs):
        vals = np.abs(f.values(xs.ravel())).reshape(xs.shape)
        return np.where(np.isfinite(vals), vals, 0.0)

    a, b = extent(f, 64.0 if f.decay[0] == "none" else 16.0)
    n = _scan_size(a, b, cfg, 4096)
    xs = np.linspace(a, b, n + 1)
    vals = absf(xs)
    best = vals.max()
    top = np.argsort(vals)[-8:]
    lo, hi = xs[np.maximum(top - 1, 0)], xs[np.minimum(top + 1, n)]
    xatol, r = 1e-13 * np.maximum(1.0, np.abs(hi)), 0.5 * (math.sqrt(5.0) - 1.0)
    while np.any(hi - lo >= xatol):
        # the inner point kept from the last step is evaluated again, not carried
        x = np.stack((hi - r * (hi - lo), lo + r * (hi - lo)))
        g = absf(x)
        best = max(best, g.max())
        left = g[0] >= g[1]  # keep [lo, x[1]], else [x[0], hi]
        lo, hi = np.where(left, lo, x[0]), np.where(left, x[1], hi)
    return float(best)

"""Expression trees for real functions on the line.

Nodes evaluate on floats or numpy arrays and differentiate symbolically
(almost-everywhere derivative for the kinked primitives).  A
:class:`FunctionExpr` wraps a tree with the metadata the quadrature layer
needs: declared singular points, kink points (evaluable but non-smooth), an
optional exact support interval, a decay class tag, a sign when one is
known and, for a function that holds a sampled one, the window it was
sampled on.  The metadata of a tree follows from its children's by one
rule per node kind (:func:`combine`), whether the tree is parsed or built
with operators.
"""

from __future__ import annotations

import functools
import math
import weakref
from dataclasses import dataclass, replace

import numpy as np

from .errors import EvalDomainError, JetError, LprimError

# decay tags, ordered strongest first.  A gaussian or exponential tag may
# carry, as a second entry, the sorted centres of its bumps: exp(-(x - c)^2)
# peaks at c, which no singular point or kink marks, so the quadrature
# splits there and starts its tails beyond it.  A centre at 0 takes no
# entry: the truncation interval [-r, r] is centred on it.
DECAY_ORDER = ("compact", "gaussian", "exponential", "power", "none")
_FAST = ("gaussian", "exponential")


def _strength(decay):
    return DECAY_ORDER.index(decay[0])


def decay_centres(decay):
    """The recorded centres of a gaussian or exponential tag."""
    return decay[1] if decay[0] in _FAST and len(decay) > 1 else ()


def _fast_decay(kind, centres):
    centres = tuple(sorted(set(centres) - {0.0}))
    return (kind, centres) if centres else (kind,)


def _with_centres(d, *parts):
    """``d``, a fast decay taking the centres of every one of ``parts``."""
    if d[0] not in _FAST:
        return d
    return _fast_decay(d[0], [c for p in parts for c in decay_centres(p)])


def decay_add(d1, d2):
    """Decay of a sum: the weaker of the two (power betas take the min)."""
    if d1[0] == d2[0] == "power":
        return ("power", min(d1[1], d2[1]))
    return _with_centres(d1 if _strength(d1) >= _strength(d2) else d2, d1, d2)


def decay_mul(d1, d2, g1, g2):
    """Decay of a product, given polynomial growth bounds of the factors."""
    if d1[0] == "compact" or d2[0] == "compact":
        return ("compact",)
    if d1[0] == "power" and d2[0] == "power":
        return ("power", d1[1] + d2[1])
    if d1[0] == "none" and d2[0] == "none":
        return ("none",)
    if d1[0] != "none" and d2[0] != "none":
        # both factors decay: the product decays at least as fast as either
        return _with_centres(d1 if _strength(d1) < _strength(d2) else d2, d1, d2)
    # one side carries real decay; it survives a polynomially bounded cofactor
    strong, weak_growth = (d1, g2) if _strength(d1) < _strength(d2) else (d2, g1)
    if weak_growth == math.inf:
        return ("none",)
    if strong[0] == "power":
        beta = strong[1] - weak_growth
        return ("power", beta) if beta > 0 else ("none",)
    return strong


# ---------------------------------------------------------------------------
# nodes
#
# ``ev(x, m)`` runs inside the caller's ``np.errstate`` (FunctionExpr.values
# and __call__ enter it once per evaluation), on float arrays or numpy
# scalars.  Its memo ``m`` keeps the values of interned nodes, which may have
# several parents in a DAG; other values are freed after their one use.

_SLICE = 1 << 16  # points per ev() pass in FunctionExpr.values: a bounded memo


class Node:
    """Base expression node."""

    _interned = False  # True for nodes from the canonical constructors

    def ev(self, x, m):
        v = m.get(self)
        if v is None:
            v = self._ev(x, m)
            if self._interned:
                m[self] = v
        return v

    def _ev(self, x, m):
        raise NotImplementedError

    def diff(self):
        """Almost-everywhere derivative of the canonical copy of this node:
        each distinct node is differentiated once, and nothing is kept."""
        d = functools.cache(lambda n: n.deriv(d))
        try:
            return d(_canonical(self))
        finally:
            d.cache_clear()  # the cache and d form a cycle: leave no node in it

    def deriv(self, d):
        """The derivative, given ``d``, which differentiates a child."""
        raise LprimError(f"{type(self).__name__} is not differentiable")

    def subst_affine(self, a, b):
        """The node as a function of t where x = a*t + b.  Each distinct
        node is copied once, so a DAG stays a DAG, and the copy of an
        interned node is interned, so the evaluator's memo keeps it."""
        s = functools.cache(lambda n: n._subst(s, a, b))
        try:
            return s(self)
        finally:
            s.cache_clear()  # the cache and s form a cycle, as in diff()

    def _subst(self, s, a, b):
        """The substituted copy, given ``s``, which substitutes a child."""
        raise NotImplementedError

    def _rebuild(self, *args):
        """This node's kind on new arguments, interned if this node is."""
        return _build(self._interned, type(self), *args)


class Const(Node):
    def __init__(self, v):
        self.v = float(v)
        self._scalar = np.float64(self.v)

    def ev(self, x, m):  # a leaf: no memo
        # a numpy scalar broadcasts against array siblings and keeps numpy's
        # inf/nan arithmetic in constant subtrees
        return self._scalar

    def deriv(self, d):
        return const(0.0)

    def _subst(self, s, a, b):
        return self


class Var(Node):
    def ev(self, x, m):  # a leaf: no memo
        return x

    def deriv(self, d):
        return const(1.0)

    def _subst(self, s, a, b):
        k = self._interned
        node = self if a == 1.0 else _build(k, Mul, _build(k, Const, a), self)
        return _build(k, Add, node, _build(k, Const, b)) if b else node


class _Binary(Node):
    def __init__(self, a, b):
        self.a = a
        self.b = b

    def _subst(self, s, a, b):
        return self._rebuild(s(self.a), s(self.b))


class Add(_Binary):
    def _ev(self, x, m):
        return self.a.ev(x, m) + self.b.ev(x, m)

    def deriv(self, d):
        return add(d(self.a), d(self.b))


class Sub(_Binary):
    def _ev(self, x, m):
        return self.a.ev(x, m) - self.b.ev(x, m)

    def deriv(self, d):
        return add(d(self.a), neg(d(self.b)))


class Mul(_Binary):
    def _ev(self, x, m):
        return self.a.ev(x, m) * self.b.ev(x, m)

    def deriv(self, d):
        return add(mul(d(self.a), self.b), mul(self.a, d(self.b)))


class Div(_Binary):
    def _ev(self, x, m):
        return self.a.ev(x, m) / self.b.ev(x, m)

    def deriv(self, d):
        num = add(mul(d(self.a), self.b), neg(mul(self.a, d(self.b))))
        return div(num, mul(self.b, self.b))


class Neg(Node):
    def __init__(self, a):
        self.a = a

    def _ev(self, x, m):
        return -self.a.ev(x, m)

    def deriv(self, d):
        return neg(d(self.a))

    def _subst(self, s, a, b):
        return self._rebuild(s(self.a))


class Pow(Node):
    """base ^ exponent with a constant exponent."""

    def __init__(self, base, expo):
        self.base = base
        self.expo = float(expo)
        self._is_int = self.expo == int(self.expo) and abs(self.expo) < 64

    def _ev(self, x, m):
        b = self.base.ev(x, m)
        if not self._is_int:
            return np.power(b, self.expo)
        e = int(self.expo)
        if np.ndim(b) == 0:
            return b ** e
        # multiplication by squaring: much faster than np.power's
        # per-element pow() for integer exponents
        if e == 0:
            return np.ones_like(b)
        neg = e < 0
        e = abs(e)
        acc = None
        sq = b
        while e:
            if e & 1:
                acc = sq if acc is None else acc * sq
            e >>= 1
            if e:
                sq = sq * sq
        return 1.0 / acc if neg else acc

    def deriv(self, d):
        # pow_ turns x^1 into x and x^0 into 1: no 0/0 at x = 0 in x' or x^2''
        return mul(const(self.expo), mul(pow_(self.base, self.expo - 1.0), d(self.base)))

    def _subst(self, s, a, b):
        return self._rebuild(s(self.base), self.expo)


def _erf(x):
    from scipy.special import erf  # loaded on the first erf node evaluated

    return erf(x)


_UNARY_EV = {
    "exp": np.exp,
    "log": np.log,
    "sin": np.sin,
    "cos": np.cos,
    "atan": np.arctan,
    "erf": _erf,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "sgn": np.sign,
}

TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)


class Call(Node):
    def __init__(self, name, arg):
        if name not in _UNARY_EV:
            raise LprimError(f"unknown function {name!r}")
        self.name = name
        self.arg = arg

    def _ev(self, x, m):
        return _UNARY_EV[self.name](self.arg.ev(x, m))

    def deriv(self, d):
        a = self.arg
        da = d(a)
        table = {
            "exp": lambda: mul(self, da),
            "log": lambda: div(da, a),
            "sin": lambda: mul(call("cos", a), da),
            "cos": lambda: neg(mul(call("sin", a), da)),
            "atan": lambda: div(da, add(const(1.0), mul(a, a))),
            "erf": lambda: mul(
                mul(const(TWO_OVER_SQRT_PI), call("exp", neg(mul(a, a)))), da
            ),
            "sqrt": lambda: div(da, mul(const(2.0), self)),
            "abs": lambda: mul(call("sgn", a), da),  # a.e. derivative
            "sgn": lambda: const(0.0),  # a.e. derivative
        }
        return table[self.name]()

    def _subst(self, s, a, b):
        return self._rebuild(self.name, s(self.arg))


class Indicator(Node):
    """Characteristic function of (a, b); value 1/2 at the endpoints.

    The midpoint convention at jumps keeps grid-sampled Fourier sums
    second-order accurate.
    """

    def __init__(self, a, b):
        if not a < b:
            raise LprimError("indicator needs a < b")
        self.a = float(a)
        self.b = float(b)

    def _ev(self, x, m):
        return 0.5 * (np.sign(np.subtract(x, self.a)) - np.sign(np.subtract(x, self.b)))

    def deriv(self, d):
        return const(0.0)  # a.e. derivative

    def _subst(self, s, a, b):
        # x = a*t + b lies in (lo, hi)  <=>  t in the transformed interval
        lo = (self.a - b) / a
        hi = (self.b - b) / a
        if a < 0:
            lo, hi = hi, lo
        return Indicator(lo, hi)


_CMP = {"<": np.less, "<=": np.less_equal, ">": np.greater, ">=": np.greater_equal,
        "=": np.equal}


class Cmp(Node):
    """Comparison used in piecewise conditions.  Its operands' values go in
    the memo, as maximum and minimum take them as branches too."""

    OPS = tuple(_CMP)

    def __init__(self, lhs, op, rhs):
        if op not in self.OPS:
            raise LprimError(f"unknown comparison {op!r}")
        self.lhs = lhs
        self.op = op
        self.rhs = rhs

    def _ev(self, x, m):
        m[self.lhs], m[self.rhs] = self.lhs.ev(x, m), self.rhs.ev(x, m)
        return _CMP[self.op](m[self.lhs], m[self.rhs])

    def _subst(self, s, a, b):
        return Cmp(s(self.lhs), self.op, s(self.rhs))


class Piecewise(Node):
    """First matching branch wins; an `else` branch is optional (default 0)."""

    def __init__(self, branches, otherwise=None):
        self.branches = list(branches)
        self.otherwise = otherwise if otherwise is not None else Const(0.0)

    def _ev(self, x, m):
        out = m[self.otherwise] = self.otherwise.ev(x, m)  # kept, as in Cmp
        for cond, node in reversed(self.branches):
            out = np.where(cond.ev(x, m), node.ev(x, m), out)
        return out

    def deriv(self, d):
        return Piecewise([(c, d(n)) for c, n in self.branches], d(self.otherwise))

    def _subst(self, s, a, b):
        return Piecewise([(s(c), s(n)) for c, n in self.branches], s(self.otherwise))


class Wrapped(Node):
    """Opaque vectorized callable (quadrature-backed primitives, Cantor
    iterates, ...).  With the hook ``cantor_level``, ``fn`` is the Cantor
    function sigma, with kinks at 0 and 1: on [0, 1], sigma(x/3) = sigma(x)/2
    and sigma((x + 2)/3) = (1 + sigma(x))/2, and a cell of depth
    ``cantor_level`` is constant at its midpoint value."""

    def __init__(self, fn, name="<numeric>", growth_hint=math.inf, cantor_level=None):
        self.fn = fn
        self.name = name
        self.growth_hint = growth_hint
        self.cantor_level = cantor_level

    def _ev(self, x, m):
        if np.ndim(x):
            return np.asarray(self.fn(np.asarray(x, dtype=float)), dtype=float)
        return np.float64(self.fn(np.asarray([x], dtype=float))[0])

    def _subst(self, s, a, b):
        # the copy drops the hook: its self-similar cells are no longer [0, 1]'s
        base = self.fn
        return Wrapped(lambda xs: base(a * xs + b), name=f"{self.name}@affine",
                       growth_hint=self.growth_hint)


# ---------------------------------------------------------------------------
# canonical constructors, used by every deriv(): constants fold, +0, *1 and
# *0 drop, constant factors merge to the front, x^1 is x and x^0 is 1.  Nodes
# are interned by structure (children by identity) in a weak pool, so equal
# subtrees are one object, until nothing else holds them.

_POOL = {}  # structure key -> weak reference to the node


def _make(cls, *args):
    """The interned cls(*args), or its value when its children are constants."""
    key, vals = [cls], []
    for a in args:
        if isinstance(a, Node):
            vals.append(a._scalar if type(a) is Const else None)
            a = id(a)
        key.append(a)
    if vals and None not in vals:
        with np.errstate(all="ignore"):
            return const(cls(*args).ev(None, {}))
    key = tuple(key)
    node = _POOL.get(key, lambda: None)()  # None, or the live node of the key
    if node is None:
        node = cls(*args)
        node._interned = True
        # the entry goes with the node, unless a new node has taken the key
        _POOL[key] = weakref.ref(node, lambda r: _POOL.get(key) is r and _POOL.pop(key))
    return node


def _build(interned, cls, *args):
    return _make(cls, *args) if interned else cls(*args)


def const(v):
    return _make(Const, float(v) + 0.0)  # + 0.0: one zero, without a sign


def _is(n, v):
    return type(n) is Const and n.v == v


def add(a, b):
    return b if _is(a, 0.0) else a if _is(b, 0.0) else _make(Add, a, b)


def _split(n):
    """(constant factor, the rest or None) of a node; one level, unlike _scaled."""
    if type(n) is Const:
        return n.v, None
    return (n.a.v, n.b) if isinstance(n, Mul) and type(n.a) is Const else (1.0, n)


def mul(a, b):
    (ca, ra), (cb, rb) = _split(a), _split(b)
    c = ca * cb
    rest = rb if ra is None else ra if rb is None else _make(Mul, ra, rb)
    if rest is None or c == 0.0:
        return const(c)
    return rest if c == 1.0 else _make(Mul, const(c), rest)


def div(a, b):
    return a if _is(a, 0.0) or _is(b, 1.0) else _make(Div, a, b)


def neg(a):
    return mul(const(-1.0), a)


def pow_(base, expo):
    expo = float(expo)
    return const(1.0) if expo == 0.0 else base if expo == 1.0 else _make(Pow, base, expo)


def call(name, arg):
    return _make(Call, name, arg)


def _canonical(n):
    """``n`` rebuilt from the canonical constructors.  Interned nodes, and
    indicators, branches and wrapped callables, are kept as they are."""
    if n._interned or isinstance(n, (Indicator, Piecewise, Wrapped)):
        return n
    if isinstance(n, (Const, Var)):
        return const(n.v) if isinstance(n, Const) else _make(Var)
    if isinstance(n, Pow):
        return pow_(_canonical(n.base), n.expo)
    if isinstance(n, Call):
        return call(n.name, _canonical(n.arg))
    if isinstance(n, Neg):
        return neg(_canonical(n.a))
    a, b = _canonical(n.a), _canonical(n.b)
    return {Add: add, Sub: lambda a, b: add(a, neg(b)), Mul: mul, Div: div}[type(n)](a, b)


# ---------------------------------------------------------------------------
# tree analysis helpers


def _children(node):
    if isinstance(node, _Binary):
        return (node.a, node.b)
    if isinstance(node, (Neg,)):
        return (node.a,)
    if isinstance(node, Pow):
        return (node.base,)
    if isinstance(node, Call):
        return (node.arg,)
    if isinstance(node, Piecewise):
        out = []
        for c, n in node.branches:
            out += [c.lhs, c.rhs, n]
        out.append(node.otherwise)
        return tuple(out)
    return ()


def _zero_of(node):
    """If ``node`` vanishes exactly at one known point, return it: the root
    of an affine k*x + d (k != 0), under abs and positive powers."""
    if isinstance(node, Call) and node.name == "abs":
        return _zero_of(node.arg)
    if isinstance(node, Pow) and node.expo > 0:
        return _zero_of(node.base)
    line = _line(node)
    return None if line is None or line[0] == 0.0 else _root(line)


def growth(node):
    """Polynomial growth bound (degree) as |x| -> oo; inf when unknown."""
    if isinstance(node, Const):
        return 0.0
    if isinstance(node, Var):
        return 1.0
    if isinstance(node, (Add, Sub)):
        return max(growth(node.a), growth(node.b))
    if isinstance(node, Neg):
        return growth(node.a)
    if isinstance(node, Mul):
        return growth(node.a) + growth(node.b)
    if isinstance(node, Div):
        return growth(node.a) if isinstance(node.b, Const) else math.inf
    if isinstance(node, Pow):
        g = growth(node.base)
        if node.expo >= 0:
            return g * node.expo
        return math.inf if g == math.inf else 0.0
    if isinstance(node, Call):
        if node.name in ("sin", "cos", "atan", "erf", "sgn"):
            return 0.0
        if node.name in ("abs",):
            return growth(node.arg)
        if node.name == "sqrt":
            return 0.5 * growth(node.arg)
        if node.name == "log":
            return 0.5  # sublinear; any positive epsilon works here
        return math.inf  # exp
    if isinstance(node, Indicator):
        return 0.0
    if isinstance(node, Piecewise):
        gs = [growth(n) for _, n in node.branches] + [growth(node.otherwise)]
        return max(gs)
    if isinstance(node, Wrapped):
        return node.growth_hint
    return math.inf


def _scaled(n):
    """``n`` as (c, m) with n = c*m: c is read off constants, negations,
    constant factors and constant divisors, and m is None when n is constant.
    A product of two non-constant factors gives up the constants of both,
    m being a new product of the rest: -x*x is (-1, x*x)."""
    if isinstance(n, Const):
        return n.v, None
    if isinstance(n, Neg):
        c, m = _scaled(n.a)
        return -c, m
    if isinstance(n, (Mul, Div)):
        (ca, ma), (cb, mb) = _scaled(n.a), _scaled(n.b)
        if isinstance(n, Div) and mb is None and cb != 0.0:
            return ca / cb, ma
        if isinstance(n, Mul) and None in (ma, mb):
            return ca * cb, mb if ma is None else ma
        if isinstance(n, Mul):
            return ca * cb, n if ma is n.a and mb is n.b else Mul(ma, mb)
    return 1.0, n


def _line(n):
    """``n`` as (k, d) with n = k*x + d, or None when it is not affine in x."""
    if isinstance(n, Var):
        return 1.0, 0.0
    if isinstance(n, (Add, Sub)):
        la = _line(n.a)
        lb = None if la is None else _line(n.b)
        if lb is None:
            return None
        sign = 1.0 if isinstance(n, Add) else -1.0
        return la[0] + sign * lb[0], la[1] + sign * lb[1]
    c, m = _scaled(n)
    if m is None:
        return 0.0, c
    line = None if m is n else _line(m)
    return None if line is None else (c * line[0], c * line[1])


def _root(line):
    """The root of k*x + d, given (k, d) with k != 0."""
    return -line[1] / line[0] + 0.0  # + 0.0: the root 0 without a sign


def _neg_arg_decay(arg):
    """Decay class of exp(arg) when arg -> -infinity like -c |x|^gamma, c > 0."""

    def power_of(n):
        # matches |x - c|^g shapes: (k*x - d)^(2m), (k*x - d)*(j*x - e) with
        # one root and k*j > 0, abs(x - c)^g, positive multiples, as
        # (g, centres).  The tag records the root c: no feature point marks
        # it under an even power, and a kink alone misses a narrow peak
        c, m = _scaled(n)
        if m is not n:
            return power_of(m) if c > 0 and m is not None else None
        if isinstance(n, Call) and n.name == "abs" and _zero_of(n.arg) is not None:
            return 1.0, (_zero_of(n.arg),)
        if isinstance(n, Pow) and n.expo > 0:
            line = _line(n.base)
            if line is not None and line[0] != 0.0:
                # even powers only: an odd one grows at one end
                return (n.expo, (_root(line),)) if n.expo % 2 == 0 else None
            inner = power_of(n.base)
            return None if inner is None else (inner[0] * n.expo, inner[1])
        if isinstance(n, Mul):
            la, lb = _line(n.a), _line(n.b)
            if la and lb and la[0] * lb[0] > 0.0 and _root(la) == _root(lb):
                return 2.0, (_root(la),)
        return None  # Var alone is odd: grows at +inf only

    c, m = _scaled(arg)
    g, centres = (power_of(m) if c < 0 and m is not None else None) or (0.0, ())
    return _fast_decay("gaussian" if g >= 2 else "exponential", centres) if g >= 1 else ("none",)


# ---------------------------------------------------------------------------
# metadata: one rule per node kind, applied to the children's metadata


def _own_points(node):
    """The singular points and kinks that ``node`` adds to its children's."""
    sing, kinks = set(), set()
    if isinstance(node, Call) and node.name in ("abs", "sgn", "sqrt", "log"):
        z = _zero_of(node.arg)
        if z is not None:
            (sing if node.name == "log" else kinks).add(z)
    elif isinstance(node, Div):
        z = _zero_of(node.b)
        if z is not None:
            sing.add(z)
    elif isinstance(node, Pow) and node.expo < 1 and node.expo != 0:
        z = _zero_of(node.base)
        if z is not None:
            (sing if node.expo < 0 else kinks).add(z)
    elif isinstance(node, Indicator):
        kinks.update((node.a, node.b))
    elif isinstance(node, Wrapped) and node.cantor_level:
        kinks.update((0.0, 1.0))
    elif isinstance(node, Piecewise):
        # two sides affine in x (x, a constant, maximum(3*x, 1)'s sides)
        # cross at one point, unless they are parallel
        for c, _ in node.branches:
            la, lb = _line(c.lhs), _line(c.rhs)
            if la is not None and lb is not None and la[0] != lb[0]:
                kinks.add(_root((la[0] - lb[0], la[1] - lb[1])))
    return sing, kinks


def _merge_support_add(sa, sb):
    if sa is None or sb is None:
        return None
    return (min(sa[0], sb[0]), max(sa[1], sb[1]))


def _merge_support_mul(sa, sb):
    if sa is None:
        return sb
    if sb is None:
        return sa
    lo, hi = max(sa[0], sb[0]), min(sa[1], sb[1])
    return (lo, hi) if lo < hi else (lo, lo)


def _branch_values(kids):
    """The branch values among a Piecewise's children (see _children)."""
    return list(kids[2:-1:3]) + [kids[-1]]


def _support(node, kids):
    if isinstance(node, Indicator):
        return (node.a, node.b)
    if isinstance(node, Mul):
        return _merge_support_mul(kids[0].support, kids[1].support)
    if isinstance(node, (Add, Sub)):
        return _merge_support_add(kids[0].support, kids[1].support)
    if isinstance(node, Piecewise):
        return functools.reduce(_merge_support_add,
                                [k.support for k in _branch_values(kids)])
    if (isinstance(node, Neg) or (isinstance(node, Pow) and node.expo > 0)
            or (isinstance(node, Call) and node.name in ("abs", "sgn"))):
        # abs(f) and sgn(f) vanish wherever f does
        return kids[0].support
    return None


def _decay(node, kids):
    if isinstance(node, Const):
        return ("compact",) if node.v == 0.0 else ("none",)
    if isinstance(node, Neg) or (isinstance(node, Call) and node.name == "abs"):
        return kids[0].decay
    if isinstance(node, (Add, Sub)):
        return decay_add(kids[0].decay, kids[1].decay)
    if isinstance(node, Mul):
        return decay_mul(kids[0].decay, kids[1].decay, growth(node.a), growth(node.b))
    if isinstance(node, Div):
        if isinstance(node.b, Const):
            return kids[0].decay
        gb = growth(node.b)
        if 0.0 < gb < math.inf:
            # a polynomially growing denominator: the numerator times a
            # |x|^(-gb) factor (a fast-decaying numerator keeps its tag)
            return decay_mul(kids[0].decay, ("power", gb), growth(node.a), 0.0)
        return ("none",)
    if isinstance(node, Pow):
        d = kids[0].decay
        if node.expo > 0:
            return ("power", d[1] * node.expo) if d[0] == "power" else d
        g = growth(node.base)
        if node.expo < 0 and 0.0 < g < math.inf and d[0] == "none":
            return ("power", g * -node.expo)
        return ("none",)
    if isinstance(node, Call) and node.name == "exp":
        return _neg_arg_decay(node.arg)
    if isinstance(node, Piecewise):
        return functools.reduce(decay_add, [k.decay for k in _branch_values(kids)])
    return ("none",)


_SMOOTH = (0.0, None)  # the ``similar`` of a function without a Cantor node


def _similar(node, kids):
    """(r, sigma) when ``node`` is sigma^r times a function smooth on [0, 1]
    between its split points, sigma a Wrapped node with the Cantor hook:
    products add r, quotients subtract it, powers scale it, and abs and
    negation keep it while sgn drops it, as sigma >= 0.  None for any
    other node that holds a Cantor node or an opaque callable."""
    if isinstance(node, Wrapped):
        return (1.0, node) if node.cantor_level else None
    sims = [k.similar for k in kids]
    if sims.count(_SMOOTH) == len(sims):
        return _SMOOTH
    sigmas = {k[1] for k in sims if k} - {None}
    if None in sims or len(sigmas) != 1:
        return None
    r, kind = [k[0] for k in sims], node.name if isinstance(node, Call) else type(node)
    degree = {Mul: sum(r), Div: r[0] - r[-1], Pow: r[0] * getattr(node, "expo", 0.0),
              Neg: r[0], "abs": r[0], "sgn": 0.0}.get(kind)
    return None if degree is None else (degree, sigmas.pop())


def _sign(node, kids):
    """+1 when ``node`` is >= 0 wherever it is defined, -1 when it is <= 0,
    0 when not known, as for x, sin, cos, log and opaque callables."""
    call = node.name if isinstance(node, Call) else None
    if isinstance(node, Const):
        return 1 if node.v >= 0.0 else -1
    if isinstance(node, Indicator) or call in ("exp", "sqrt", "abs"):
        return 1
    signs = [k.sign for k in kids]
    if isinstance(node, Pow):
        if node.expo % 2 == 0:
            return 1
        # an odd power keeps the sign, and any power keeps a sign >= 0
        return signs[0] if node.expo % 2 == 1 or signs[0] == 1 else 0
    if isinstance(node, (Mul, Div)):
        return signs[0] * signs[1]
    if isinstance(node, Neg):
        return -signs[0]
    if isinstance(node, (Add, Sub)):
        b = -signs[1] if isinstance(node, Sub) else signs[1]
        return b if signs[0] == b else 0
    if call in ("sgn", "atan", "erf"):
        return signs[0]
    if isinstance(node, Piecewise):
        common = {k.sign for k in _branch_values(kids)}
        return common.pop() if len(common) == 1 else 0
    return 0


def _window_hull(windows):
    """The smallest interval holding every window that is not None, or None."""
    windows = [w for w in windows if w is not None]
    if not windows:
        return None
    return (min(w[0] for w in windows), max(w[1] for w in windows))


def combine(node, *kids):
    """``node`` as a FunctionExpr, its metadata computed by the rule for the
    node's kind from ``kids``: one FunctionExpr per entry of
    ``_children(node)``, carrying that child's metadata."""
    sing, kinks = _own_points(node)
    for k in kids:
        sing.update(k.singularities)
        kinks.update(k.kinks)
    support = _support(node, kids)
    decay = ("compact",) if support is not None else _decay(node, kids)
    return FunctionExpr(node, tuple(sorted(sing)), tuple(sorted(kinks - sing)),
                        support, decay, _similar(node, kids),
                        _window_hull(k.window for k in kids), _sign(node, kids))


# ---------------------------------------------------------------------------
# FunctionExpr


@dataclass(frozen=True)
class FunctionExpr:
    """A closed-form (or numerically backed) real function on the line."""

    root: Node
    singularities: tuple = ()
    kinks: tuple = ()
    support: tuple | None = None
    decay: tuple = ("none",)
    similar: tuple | None = None  # (r, sigma), or None when not known: see _similar
    # (lo, hi) holding every window a sampled part was sampled on
    # (sampling.sampled_expr), or None
    window: tuple | None = None
    sign: int = 0  # +1: >= 0 everywhere, -1: <= 0 everywhere, 0: not known (_sign)

    @staticmethod
    def from_node(node):
        """``node`` with metadata inferred bottom-up from its syntax."""
        return combine(node, *(FunctionExpr.from_node(c) for c in _children(node)))

    # -- evaluation ----------------------------------------------------------

    def __call__(self, x):
        x = float(x)
        if any(x == s for s in self.singularities):
            raise EvalDomainError(f"evaluation at declared singular point {x}")
        if self.support is not None and not (self.support[0] <= x <= self.support[1]):
            return 0.0
        with np.errstate(all="ignore"):
            return float(self.root.ev(np.float64(x), {}))

    def values(self, xs):
        """Vectorized evaluation; caller keeps clear of singular points."""
        xs = np.asarray(xs, dtype=float)
        with np.errstate(all="ignore"):
            if xs.size <= _SLICE:
                out = np.asarray(self.root.ev(xs, {}), dtype=float)
            else:  # a slice at a time, so that the memo stays small
                flat, out = xs.ravel(), np.empty(xs.size)
                for i in range(0, xs.size, _SLICE):
                    out[i:i + _SLICE] = self.root.ev(flat[i:i + _SLICE], {})
                out = out.reshape(xs.shape)
        if out.shape != xs.shape:
            out = np.broadcast_to(out, xs.shape).copy()
        if self.support is not None:
            lo, hi = self.support
            out = np.where((xs < lo) | (xs > hi), 0.0, out)
        return out

    def eval_jet(self, x, k):
        """(value, d1, ..., dk) at x for k <= 4, by repeated symbolic
        differentiation of the tree."""
        if not 0 <= k <= 4:
            raise JetError("jet order must be in [0, 4]")
        x = float(x)
        for s in self.singularities + self.kinks:
            if abs(x - s) < 1e-12:
                raise JetError(f"jet at non-smooth point {s}")
        out, node = [], self.root
        for i in range(k + 1):
            v = FunctionExpr(node)(x)
            if not math.isfinite(v):
                raise JetError(f"derivative {i} at {x} is not finite")
            out.append(v)
            if i < k:
                node = node.diff()
        return tuple(out)

    # -- calculus ------------------------------------------------------------

    def diff(self):
        """Almost-everywhere derivative.  Kinks of this function become
        potential singular points of the derivative."""
        return replace(self, root=self.root.diff(), sign=0,
                       singularities=tuple(sorted(set(self.singularities) | set(self.kinks))))

    # -- algebra -------------------------------------------------------------

    def __add__(self, other):
        other = _lift_scalar(other)
        return combine(Add(self.root, other.root), self, other)

    def __sub__(self, other):
        other = _lift_scalar(other)
        return combine(Sub(self.root, other.root), self, other)

    def __mul__(self, other):
        if isinstance(other, FunctionExpr):
            return combine(Mul(self.root, other.root), self, other)
        if other == 0.0:
            return FunctionExpr(Const(0.0), support=(0.0, 0.0), decay=("compact",))
        c = _lift_scalar(other)
        return combine(Mul(c.root, self.root), c, self)

    __rmul__ = __mul__

    def __neg__(self):
        return combine(Neg(self.root), self)

    def __abs__(self):
        # zeros of self are extra kinks found at quadrature time
        return combine(Call("abs", self.root), self)

    def power(self, r):
        """|self| is expected nonnegative-compatible for fractional r."""
        return combine(Pow(self.root, r), self)

    def affine(self, a, b):
        """The function t -> self(a*t + b), a != 0.  Each singular point,
        kink, support end and window end p moves to (p - b)/a, as the
        tree's indicator endpoints do, and so does each decay centre: the
        recorded ones and the centre 0 that a gaussian or exponential tag
        leaves implicit, which is recorded as -b/a.  The decay class is
        unchanged."""
        a, b = float(a), float(b)
        if a == 0.0:
            raise LprimError("affine map needs a != 0")
        if a == 1.0 and b == 0.0:
            return self

        def move(points):
            return tuple(sorted((p - b) / a for p in points))

        decay = self.decay
        if decay[0] in _FAST:
            decay = _fast_decay(decay[0], move((0.0,) + decay_centres(decay)))
        return replace(self, root=self.root.subst_affine(a, b),
                       singularities=move(self.singularities), kinks=move(self.kinks),
                       support=None if self.support is None else move(self.support),
                       window=None if self.window is None else move(self.window),
                       decay=decay, similar=_SMOOTH if self.similar == _SMOOTH else None)

    def feature_points(self):
        pts = set(self.singularities) | set(self.kinks)
        if self.support is not None:
            pts |= set(self.support)
        return tuple(sorted(pts))


def _lift_scalar(v):
    return v if isinstance(v, FunctionExpr) else FunctionExpr.from_node(Const(v))


def maximum(f, g):
    """Pointwise max; crossing points are located by the quadrature layer."""
    return combine(Piecewise([(Cmp(f.root, ">=", g.root), f.root)], g.root), f, g, f, g)


def minimum(f, g):
    return combine(Piecewise([(Cmp(f.root, "<=", g.root), f.root)], g.root), f, g, f, g)


def const_expr(v):
    return FunctionExpr.from_node(Const(v))


def var_expr():
    return FunctionExpr.from_node(Var())

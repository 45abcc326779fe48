import gc
import math
import tracemalloc

import numpy as np
import pytest

from lprim import expr
from lprim.corpus import corpus, tent
from lprim.errors import JetError, LprimError
from lprim.expr import FunctionExpr, Wrapped, maximum, minimum
from lprim.parser import parse_expr
from lprim.quadrature import integrate, integrate_line
from lprim.sampling import sampled_expr
from lprim.parser import parse_expr as P


def vals(e, xs):
    return e.values(np.asarray(xs, dtype=float))


class TestEvaluation:
    def test_polynomial(self):
        e = parse_expr("x^2 - 3*x + 1")
        assert vals(e, [0.0, 1.0, 2.0]) == pytest.approx([1.0, -1.0, -1.0])

    def test_unary_chain(self):
        e = parse_expr("exp(-x^2)*cos(x)")
        x = 0.7
        assert vals(e, [x])[0] == pytest.approx(math.exp(-x * x) * math.cos(x))

    def test_indicator_midpoint_convention(self):
        e = parse_expr("indicator(0,1)")
        assert vals(e, [-0.5, 0.0, 0.5, 1.0, 1.5]) == pytest.approx(
            [0.0, 0.5, 1.0, 0.5, 0.0]
        )

    def test_piecewise(self):
        e = parse_expr("piecewise(x < 0 -> -x, x < 1 -> x^2, else -> 1)")
        assert vals(e, [-2.0, 0.5, 3.0]) == pytest.approx([2.0, 0.25, 1.0])

    def test_abs_and_sign(self):
        e = abs(parse_expr("x"))
        assert vals(e, [-3.0, 4.0]) == pytest.approx([3.0, 4.0])

    def test_integer_power_matches_float_power(self):
        xs = np.linspace(0.1, 3.0, 17)
        e_int = parse_expr("x^3")
        e_neg = parse_expr("x^(-2)")
        assert vals(e_int, xs) == pytest.approx(xs ** 3)
        assert vals(e_neg, xs) == pytest.approx(xs ** -2.0)


class TestMetadata:
    def test_sampled_window_is_kept_by_the_algebra(self):
        from lprim.sampling import sampled_expr

        S = sampled_expr(np.cos, -2.0, 3.0, outside=np.cos, decay=("power", 2.0))
        T = sampled_expr(np.sin, 1.0, 5.0)
        assert S.window == (-2.0, 3.0) and S.support is None
        assert T.window == T.support == (1.0, 5.0)
        assert (S - P("exp(-x^2)")).window == (-2.0, 3.0)
        assert abs(S * T).power(2.0).window == (-2.0, 5.0)
        assert S.affine(-2.0, 1.0).window == (-1.0, 1.5)
        assert P("exp(-x^2)").window is None

    def test_indicator_support_and_kinks(self):
        e = parse_expr("indicator(0,1)")
        assert e.support == (0.0, 1.0)
        assert e.decay == ("compact",)
        assert set(e.kinks) >= {0.0, 1.0}

    def test_gaussian_decay(self):
        assert parse_expr("exp(-x^2)").decay[0] == "gaussian"

    def test_exponential_decay(self):
        assert parse_expr("exp(-abs(x))").decay[0] == "exponential"

    def test_power_decay(self):
        kind, beta = parse_expr("(abs(x)+1)^(-2.5)").decay
        assert kind == "power" and beta == pytest.approx(2.5)

    def test_power_decay_with_growth_cofactor(self):
        kind, beta = parse_expr("x*(abs(x)+1)^(-2.5)").decay
        assert kind == "power" and beta == pytest.approx(1.5)

    def test_product_of_decays_takes_stronger(self):
        e = parse_expr("exp(-x^2)") * parse_expr("(x^2+1)^(-1)")
        assert e.decay[0] == "gaussian"

    @pytest.mark.parametrize("src,kinks", [
        ("piecewise(x < -1.3 -> 0, x < 1 -> 1, else -> 0)", (-1.3, 1.0)),
        ("piecewise(x < -2 -> 0, else -> 1)", (-2.0,)),
        ("piecewise(-2*0.25 > x -> 0, else -> 1)", (-0.5,)),
    ])
    def test_piecewise_thresholds_with_constant_sides(self, src, kinks):
        # a negated or scaled constant is a threshold as a bare one is
        assert parse_expr(src).kinks == kinks

    def test_negative_threshold_splits_the_line_integral(self):
        res = integrate_line(parse_expr("piecewise(x < -1.3 -> 0, x < 1 -> 1, else -> 0)"))
        assert res.converged and res.value == 2.3

    def test_affine_sides_kink_where_they_cross(self):
        e = minimum(parse_expr("3*x"), parse_expr("1+0*x")) * parse_expr("indicator(0,1)")
        assert e.kinks == (0.0, 1.0 / 3.0, 1.0)
        assert integrate(e, 0.0, 1.0).value == pytest.approx(5.0 / 6.0, abs=1e-12)
        # parallel sides never cross
        assert maximum(parse_expr("2*x"), parse_expr("2*x+1")).kinks == ()

    def test_declared_singularity(self):
        e = parse_expr("sing(log(abs(x)), 0)")
        assert 0.0 in e.singularities

    def test_wrapped_growth_hint(self):
        w = FunctionExpr.from_node(
            Wrapped(lambda xs: np.ones_like(xs), name="one", growth_hint=0.0)
        )
        e = parse_expr("exp(-x^2)") * w
        assert e.decay[0] == "gaussian"


class TestTransforms:
    def test_translate(self):
        e = parse_expr("indicator(0,1)").affine(1.0, -2.0)
        assert vals(e, [0.5, 2.5])[0] == 0.0
        assert vals(e, [2.5])[0] == 1.0
        assert e.support == (2.0, 3.0)

    def test_dilate_preserves_mass_shape(self):
        e = parse_expr("exp(-x^2)").affine(2.0, 0.0) * 2.0
        x = 0.3
        assert vals(e, [x])[0] == pytest.approx(2.0 * math.exp(-(2 * x) ** 2))

    def test_diff_gaussian(self):
        e = parse_expr("exp(-x^2)").diff()
        x = 0.4
        assert vals(e, [x])[0] == pytest.approx(-2 * x * math.exp(-x * x))

    def test_lattice_max_min(self):
        f = parse_expr("x")
        g = parse_expr("0*x")
        hi = maximum(f, g)
        lo = minimum(f, g)
        assert vals(hi, [-1.0, 1.0]) == pytest.approx([0.0, 1.0])
        assert vals(lo, [-1.0, 1.0]) == pytest.approx([-1.0, 0.0])

    @pytest.mark.parametrize("op", [maximum, minimum])
    def test_lattice_operands_evaluated_once(self, op):
        calls = []

        def counted(fn):
            return FunctionExpr(Wrapped(lambda xs: calls.append(fn.__name__) or fn(xs)))

        e = op(counted(np.sin), counted(np.cos))
        xs = np.linspace(-2.0, 2.0, 9)
        want = (np.maximum if op is maximum else np.minimum)(np.sin(xs), np.cos(xs))
        assert np.array_equal(e.values(xs), want)
        assert sorted(calls) == ["cos", "sin"]


class TestJets:
    def test_eval_jet_orders(self):
        e = parse_expr("exp(-x^2)")
        x = 0.6
        j = e.eval_jet(x, 2)
        assert j[0] == pytest.approx(math.exp(-x * x))
        assert j[1] == pytest.approx(-2 * x * math.exp(-x * x))
        assert j[2] == pytest.approx((4 * x * x - 2) * math.exp(-x * x))

    def test_jet_of_rational(self):
        e = parse_expr("(x^2+1)^(-1)")
        j = e.eval_jet(1.0, 1)
        assert j[0] == pytest.approx(0.5)
        assert j[1] == pytest.approx(-0.5)

    def test_jet_refused_at_feature_point_and_on_nonfinite(self):
        with pytest.raises(JetError):
            parse_expr("abs(x)").eval_jet(0.0, 1)
        with pytest.raises(JetError):
            parse_expr("sqrt(x)").eval_jet(-1.0, 0)
        with pytest.raises(JetError):
            parse_expr("exp(-x^2)").eval_jet(0.0, 5)

    def test_wrapped_not_differentiable(self):
        w = FunctionExpr.from_node(Wrapped(lambda xs: xs, name="id"))
        with pytest.raises(LprimError):
            w.diff()


def C(name, *params):
    """A corpus primitive by name."""
    return tent().expr if name == "tent" else corpus(name, *params)


# expression -> (singularities, kinks, support, decay).  Parsed trees and
# operator-built ones take their metadata from the same per-node rules.
METADATA_TABLE = [
    ('corpus:indicator', lambda: C('indicator'),
     (), (0.0, 1.0), (0.0, 1.0), ('compact',)),
    ('corpus:gaussian', lambda: C('gaussian'),
     (), (), None, ('gaussian',)),
    ('corpus:power_tail(2.5)', lambda: C('power_tail', 2.5),
     (), (0.0,), None, ('power', 1.5)),
    ('corpus:power_tail(4)', lambda: C('power_tail', 4.0),
     (), (0.0,), None, ('power', 3.0)),
    ('corpus:sin_over_abs', lambda: C('sin_over_abs'),
     (0.0,), (), None, ('power', 1.0)),
    ('corpus:gamma_cusp', lambda: C('gamma_cusp', 0.25),
     (0.0,), (), None, ('exponential',)),
    ('corpus:log_cusp', lambda: C('log_cusp'),
     (0.0,), (), None, ('exponential',)),
    ('corpus:cantor', lambda: C('cantor_primitive'),
     (), (0.0, 1.0), None, ('gaussian',)),
    ('corpus:weierstrass', lambda: C('weierstrass'),
     (), (), None, ('gaussian',)),
    ('corpus:tent', lambda: C('tent'),
     (), (0.0, 1.0, 2.0), (0.0, 2.0), ('compact',)),
    ('corpus:osc_exp_cube', lambda: C('osc_exp_cube'),
     (), (0.0,), None, ('power', 2.0)),
    ('corpus:x2_sin_inv4', lambda: C('x2_sin_inv4'),
     (0.0,), (-1.0, 1.0), (-1.0, 1.0), ('compact',)),
    ('corpus:sobolev_gn', lambda: C('sobolev_gn', 0.5, 2.0),
     (), (0.0, 0.5, 1.0), (0.0, 1.0), ('compact',)),
    ('density:exp(-x^2)', lambda: P('exp(-x^2)'),
     (), (), None, ('gaussian',)),
    ('density:exp(-abs(x))', lambda: P('exp(-abs(x))'),
     (), (0.0,), None, ('exponential',)),
    ('density:indicator(-1,2)', lambda: P('indicator(-1,2)'),
     (), (-1.0, 2.0), (-1.0, 2.0), ('compact',)),
    ('density:(x^2+1)^(-1)', lambda: P('(x^2+1)^(-1)'),
     (), (), None, ('power', 2.0)),
    ('density:cos(x)*exp(-x^2)', lambda: P('cos(x)*exp(-x^2)'),
     (), (), None, ('gaussian',)),
    ('density:x*exp(-x^2)', lambda: P('x*exp(-x^2)'),
     (), (), None, ('gaussian',)),
    ('young:x*exp(-x^2)', lambda: P('x*exp(-x^2)'),
     (), (), None, ('gaussian',)),
    ('young:tentexpr', lambda: P('indicator(-1,1)*(1-abs(x))'),
     (), (-1.0, 0.0, 1.0), (-1.0, 1.0), ('compact',)),
    ('young:-2*x*exp(-x^2)', lambda: P('-2*x*exp(-x^2)'),
     (), (), None, ('gaussian',)),
    ('young:indicator(0,2)', lambda: P('indicator(0,2)'),
     (), (0.0, 2.0), (0.0, 2.0), ('compact',)),
    ('parse:gauss*box', lambda: P('exp(-x^2)*indicator(0,1)'),
     (), (0.0, 1.0), (0.0, 1.0), ('compact',)),
    ('op:gauss*box', lambda: P('exp(-x^2)') * P('indicator(0,1)'),
     (), (0.0, 1.0), (0.0, 1.0), ('compact',)),
    ('op:box*expabs', lambda: P('indicator(0,1)') * P('exp(-abs(x))'),
     (), (0.0, 1.0), (0.0, 1.0), ('compact',)),
    ('op:gauss*rational', lambda: P('exp(-x^2)') * P('(x^2+1)^(-1)'),
     (), (), None, ('gaussian',)),
    ('op:powertail*x', lambda: P('(abs(x)+1)^(-2.5)') * P('x'),
     (), (0.0,), None, ('power', 1.5)),
    ('op:x*x', lambda: P('x') * P('x'),
     (), (), None, ('none',)),
    ('op:box*box', lambda: P('indicator(0,1)') * P('indicator(2,3)'),
     (), (0.0, 1.0, 2.0, 3.0), (2.0, 2.0), ('compact',)),
    ('op:box+gauss', lambda: P('indicator(0,1)') + P('exp(-x^2)'),
     (), (0.0, 1.0), None, ('gaussian',)),
    ('op:box-box', lambda: P('indicator(0,1)') - P('indicator(2,3)'),
     (), (0.0, 1.0, 2.0, 3.0), (0.0, 3.0), ('compact',)),
    ('op:F*2.5', lambda: P('x*(abs(x)+1)^(-2.5)') * 2.5,
     (), (0.0,), None, ('power', 1.5)),
    ('op:2.5*F', lambda: 2.5 * P('sing(log(abs(x)), 0)*exp(-abs(x))'),
     (0.0,), (), None, ('exponential',)),
    ('op:F*0', lambda: P('exp(-x^2)') * 0.0,
     (), (), (0.0, 0.0), ('compact',)),
    ('op:F+1', lambda: P('exp(-x^2)') + 1.0,
     (), (), None, ('none',)),
    ('op:-F', lambda: -P('indicator(0,1)*x'),
     (), (0.0, 1.0), (0.0, 1.0), ('compact',)),
    ('op:cusp*box', lambda: P('sing(abs(x)^(-0.5), 0)*exp(-abs(x))') * P('indicator(0,1)'),
     (0.0,), (1.0,), (0.0, 1.0), ('compact',)),
    ('parse:sin/abs', lambda: P('sin(x)/abs(x)'),
     (0.0,), (), None, ('power', 1.0)),
    ('parse:1/(x-1)', lambda: P('1/(x-1)'),
     (1.0,), (), None, ('power', 1.0)),
    # a gaussian numerator keeps its tag over a growing denominator
    ('parse:gauss/(x^2+1)', lambda: P('exp(-x^2)/(x^2+1)'),
     (), (), None, ('gaussian',)),
    ('parse:1/(x^2+1)', lambda: P('1/(x^2+1)'),
     (), (), None, ('power', 2.0)),
    # growth 1 over growth 2: decays like |x|^(-1)
    ('parse:x/(x^2+1)', lambda: P('x/(x^2+1)'),
     (), (), None, ('power', 1.0)),
    ('parse:box/x', lambda: P('indicator(1,2)/x'),
     (0.0,), (1.0, 2.0), None, ('compact',)),
    ('parse:(x+2)^(-1)', lambda: P('(x+2)^(-1)'),
     (-2.0,), (), None, ('power', 1.0)),
    ('parse:piecewise', lambda: P('piecewise(x < 0 -> -x, x < 1 -> x^2, else -> 1)'),
     (), (0.0, 1.0), None, ('none',)),
    ('parse:piecewise-box',
     lambda: P('piecewise(x < 0 -> 0, x < 1 -> indicator(-1,2), else -> 0)'),
     (), (-1.0, 0.0, 1.0, 2.0), None, ('compact',)),
    ('parse:abs(x)', lambda: P('abs(x)'),
     (), (0.0,), None, ('none',)),
    # abs adds the kink at a syntactic zero on both paths
    ('op:abs(x)', lambda: abs(P('x')),
     (), (0.0,), None, ('none',)),
    ('op:abs(x-1)', lambda: abs(P('x-1')),
     (), (1.0,), None, ('none',)),
    ('op:abs(box)', lambda: abs(P('indicator(0,1)')),
     (), (0.0, 1.0), (0.0, 1.0), ('compact',)),
    # abs keeps its argument's support on both paths
    ('parse:abs(box)', lambda: P('abs(indicator(0,1))'),
     (), (0.0, 1.0), (0.0, 1.0), ('compact',)),
    ('op:abs(powertail)', lambda: abs(P('x*(abs(x)+1)^(-2.5)')),
     (), (0.0,), None, ('power', 1.5)),
    ('parse:sqrt(abs(x))', lambda: P('sqrt(abs(x))'),
     (), (0.0,), None, ('none',)),
    ('parse:abs(x)^0.5', lambda: P('abs(x)^0.5'),
     (), (0.0,), None, ('none',)),
    ('op:abs(x)^0.75', lambda: abs(P('x')).power(0.75),
     (), (0.0,), None, ('none',)),
    ('op:abs(x)^2', lambda: abs(P('x')).power(2.0),
     (), (0.0,), None, ('none',)),
    ('op:gauss^2', lambda: P('exp(-x^2)').power(2.0),
     (), (), None, ('gaussian',)),
    ('op:abs(powertail)^1.5', lambda: abs(P('x*(abs(x)+1)^(-2.5)')).power(1.5),
     (), (0.0,), None, ('power', 2.25)),
    ('op:abs(sinabs)^2', lambda: abs(P('sin(x)/abs(x)')).power(2.0),
     (0.0,), (), None, ('power', 2.0)),
    ('op:abs(box)^3', lambda: abs(P('indicator(0,1)')).power(3.0),
     (), (0.0, 1.0), (0.0, 1.0), ('compact',)),
    ('parse:log(abs(x-2))', lambda: P('log(abs(x-2))'),
     (2.0,), (), None, ('none',)),
    ('parse:sgn(x)', lambda: P('sgn(x)'),
     (), (0.0,), None, ('none',)),
    # two affine sides kink where they cross
    ('op:max(x,0x)', lambda: maximum(P('x'), P('0*x')),
     (), (0.0,), None, ('none',)),
    ('op:min(x,0x)', lambda: minimum(P('x'), P('0*x')),
     (), (0.0,), None, ('none',)),
    ('op:min(gauss,box)', lambda: minimum(P('exp(-x^2)'), P('indicator(0,1)')),
     (), (0.0, 1.0), None, ('gaussian',)),
    ('op:max(box,box2)', lambda: maximum(P('indicator(0,1)'), P('indicator(0.5,2)')),
     (), (0.0, 0.5, 1.0, 2.0), (0.0, 2.0), ('compact',)),
    ('op:max(cusp,gauss)',
     lambda: maximum(P('sing(log(abs(x)), 0)*exp(-abs(x))'), P('exp(-x^2)')),
     (0.0,), (), None, ('exponential',)),
    ('diff:gauss', lambda: P('exp(-x^2)').diff(),
     (), (), None, ('gaussian',)),
    ('diff:box', lambda: P('indicator(0,1)').diff(),
     (0.0, 1.0), (0.0, 1.0), (0.0, 1.0), ('compact',)),
    ('diff:abs(x)', lambda: P('abs(x)').diff(),
     (0.0,), (0.0,), None, ('none',)),
    ('diff:tent', lambda: C('tent').diff(),
     (0.0, 1.0, 2.0), (0.0, 1.0, 2.0), (0.0, 2.0), ('compact',)),
    ('diff:powertail', lambda: P('x*(abs(x)+1)^(-2.5)').diff(),
     (0.0,), (0.0,), None, ('power', 1.5)),
    ('diff2:x2', lambda: P('x^2').diff().diff(),
     (), (), None, ('none',)),
    ('translate:box+2', lambda: P('indicator(0,1)').affine(1.0, -2.0),
     (), (2.0, 3.0), (2.0, 3.0), ('compact',)),
    ('translate:gauss-1.5', lambda: P('exp(-x^2)').affine(1.0, 1.5),
     (), (), None, ('gaussian', (-1.5,))),
    ('translate:rational+1.88', lambda: P('(x^2+1)^(-1)').affine(1.0, -1.88),
     (), (), None, ('power', 2.0)),
    ('translate:logcusp+0.3', lambda: P('sing(log(abs(x)), 0)*exp(-abs(x))').affine(1.0, -0.3),
     (0.3,), (), None, ('exponential', (0.3,))),
    ('translate:tent-0.7', lambda: C('tent').affine(1.0, 0.7),
     (), (-0.7, 0.30000000000000004, 1.3), (-0.7, 1.3), ('compact',)),
    ('dilate:box*0.5', lambda: P('indicator(0,1)').affine(2.0, 0.0) * 2.0,
     (), (0.0, 0.5), (0.0, 0.5), ('compact',)),
    ('dilate:gauss*3', lambda: P('exp(-x^2)').affine((1 / 3), 0.0) * (1 / 3),
     (), (), None, ('gaussian',)),
    ('dilate:cusp*0.25', lambda: P('abs(x-1)^(-0.25)*exp(-abs(x))').affine(4.0, 0.0) * 4.0,
     (0.25,), (0.0,), None, ('exponential',)),
    ('reflect:box@0.5', lambda: P('indicator(0,1)').affine(-1.0, 0.5),
     (), (-0.5, 0.5), (-0.5, 0.5), ('compact',)),
    ('reflect:cusp@0.5', lambda: P('sing(abs(x)^(-0.5), 0)*exp(-abs(x))').affine(-1.0, 0.5),
     (0.5,), (), None, ('exponential', (0.5,))),
    ('reflect:tent@-1.25', lambda: C('tent').affine(-1.0, -1.25),
     (), (-3.25, -2.25, -1.25), (-3.25, -1.25), ('compact',)),
    ('reflect:powertail@2', lambda: P('x*(abs(x)+1)^(-2.5)').affine(-1.0, 2.0),
     (), (2.0,), None, ('power', 1.5)),
    ('dilate:box*3', lambda: P('indicator(0,1)').affine((1 / 3), 0.0) * (1 / 3),
     (), (0.0, 3.0), (0.0, 3.0), ('compact',)),
    ('dilate:tent*0.3', lambda: C('tent').affine((1 / 0.3), 0.0) * (1 / 0.3),
     (), (0.0, 0.3, 0.6), (0.0, 0.6), ('compact',)),
    # even powers of a shifted variable: x - c and x + c have a known zero,
    # the centre the gaussian tag records for the quadrature
    ('parse:exp(-(x-1)^2)', lambda: P('exp(-(x-1)^2)'),
     (), (), None, ('gaussian', (1.0,))),
    ('parse:exp(-(x+2.5)^4)', lambda: P('exp(-(x+2.5)^4)'),
     (), (), None, ('gaussian', (-2.5,))),
    ('parse:x*exp(-(x-1)^2)', lambda: P('x*exp(-(x-1)^2)'),
     (), (), None, ('gaussian', (1.0,))),
    ('parse:exp(-(x-1)^3)', lambda: P('exp(-(x-1)^3)'),
     (), (), None, ('none',)),
    ('parse:exp(-(x-1)^2)*box', lambda: P('exp(-(x-1)^2)*indicator(0,1)'),
     (), (0.0, 1.0), (0.0, 1.0), ('compact',)),
    ('parse:exp(-(x-50)^2)+exp(-(x+30)^4)', lambda: P('exp(-(x-50)^2)+exp(-(x+30)^4)'),
     (), (), None, ('gaussian', (-30.0, 50.0))),
    ('parse:exp(-(x-1)^2)+exp(-abs(x))', lambda: P('exp(-(x-1)^2)+exp(-abs(x))'),
     (), (0.0,), None, ('exponential', (1.0,))),
    ('translate:shifted gauss+49', lambda: P('exp(-(x-1)^2)').affine(1.0, -49.0),
     (), (), None, ('gaussian', (49.0, 50.0))),
    ('dilate:shifted gauss*0.5', lambda: P('exp(-(x-1)^2)').affine(2.0, 0.0),
     (), (), None, ('gaussian', (0.5,))),
    # a positive constant factor or divisor of the exponent keeps its class
    ('parse:exp(-3*x^2)', lambda: P('exp(-3*x^2)'),
     (), (), None, ('gaussian',)),
    ('parse:exp(-x^2/2)', lambda: P('exp(-x^2/2)'),
     (), (), None, ('gaussian',)),
    ('parse:exp(-2*abs(x))', lambda: P('exp(-2*abs(x))'),
     (), (0.0,), None, ('exponential',)),
    ('parse:exp(-x^2/(-2))', lambda: P('exp(-x^2/(-2))'),
     (), (), None, ('none',)),
    # an even power of a scaled or shifted variable, or a square written as
    # a product of one affine factor with itself, is even too
    ('parse:exp(-(2*x)^2)', lambda: P('exp(-(2*x)^2)'),
     (), (), None, ('gaussian',)),
    ('parse:exp(-(2*x-1)^2)', lambda: P('exp(-(2*x-1)^2)'),
     (), (), None, ('gaussian', (0.5,))),
    ('parse:exp(-x*x)', lambda: P('exp(-x*x)'),
     (), (), None, ('gaussian',)),
    ('parse:exp(-(x-1)*(x-1))', lambda: P('exp(-(x-1)*(x-1))'),
     (), (), None, ('gaussian', (1.0,))),
    ('parse:exp(-(2*x)^3)', lambda: P('exp(-(2*x)^3)'),
     (), (), None, ('none',)),
    ('parse:exp(-x*(-x))', lambda: P('exp(-x*(-x))'),
     (), (), None, ('none',)),
    # the root of a scaled affine argument is a kink, a pole or a centre
    ('parse:exp(-abs(2*x-1))', lambda: P('exp(-abs(2*x-1))'),
     (), (0.5,), None, ('exponential', (0.5,))),
    ('parse:1/(2*x-1)', lambda: P('1/(2*x-1)'),
     (0.5,), (), None, ('power', 1.0)),
    # abs(x - c) records its centre c, as (x - c)^(2k) does
    ('parse:exp(-abs(x+300)^4)', lambda: P('exp(-abs(x+300)^4)'),
     (), (-300.0,), None, ('gaussian', (-300.0,))),
    ('parse:exp(-abs(x-2))', lambda: P('exp(-abs(x-2))'),
     (), (2.0,), None, ('exponential', (2.0,))),
]


# one row per rule of expr._sign: +1 is >= 0 everywhere, -1 is <= 0
# everywhere and 0 is not known
SIGN_TABLE = [
    ('const', lambda: P('2.5'), 1),
    ('negative const', lambda: P('-2.5'), -1),
    ('indicator', lambda: P('indicator(0,2)'), 1),
    ('exp', lambda: P('exp(x)'), 1),
    ('sqrt', lambda: P('sqrt(x)'), 1),
    ('abs', lambda: P('abs(sin(x))'), 1),
    ('even power', lambda: P('sin(x)^2'), 1),
    ('negative even power', lambda: P('x^(-2)'), 1),
    ('odd power', lambda: P('(-exp(x))^3'), -1),
    ('power of a sign >= 0', lambda: P('exp(x)^0.5'), 1),
    ('fractional power', lambda: P('x^0.5'), 0),
    ('product', lambda: P('-exp(-x^2)*indicator(0,1)'), -1),
    ('quotient', lambda: P('-1/(x^2+1)'), -1),
    ('product with unknown', lambda: P('x*exp(-x^2)'), 0),
    ('sum sharing a sign', lambda: P('exp(-x^2) + indicator(0,1)'), 1),
    ('sum of mixed signs', lambda: P('exp(-x^2) - indicator(0,1)'), 0),
    ('difference of opposite signs', lambda: P('-exp(-x^2) - indicator(0,1)'), -1),
    ('op:sum', lambda: P('exp(-x^2)') + P('indicator(0,1)'), 1),
    ('op:difference', lambda: P('indicator(0,1)') - P('exp(-x^2)'), 0),
    ('op:scalar product', lambda: P('exp(-x^2)') * -2.0, -1),
    ('negation', lambda: -P('exp(-x^2)'), -1),
    ('sgn', lambda: P('sgn(-exp(x))'), -1),
    ('atan', lambda: P('atan(x^2)'), 1),
    ('erf', lambda: P('erf(-abs(x))'), -1),
    ('sgn of unknown', lambda: P('sgn(x)'), 0),
    ('piecewise, common sign',
     lambda: P('piecewise(x < 0 -> exp(x), x < 1 -> 1, else -> x^2)'), 1),
    ('piecewise, mixed signs', lambda: P('piecewise(x < 0 -> -1, else -> 1)'), 0),
    ('maximum', lambda: maximum(P('exp(x)'), P('abs(x)')), 1),
    ('x', lambda: P('x'), 0),
    ('sin', lambda: P('sin(x)'), 0),
    ('cos', lambda: P('cos(x)'), 0),
    ('log', lambda: P('log(abs(x))'), 0),
    ('tent', lambda: P('indicator(-1,1)*(1-abs(x))'), 0),
    ('wrapped', lambda: FunctionExpr.from_node(Wrapped(np.abs)), 0),
    ('sampled', lambda: sampled_expr(np.abs, -1.0, 1.0), 0),
    ('affine', lambda: P('-exp(-x^2)').affine(-2.0, 1.0), -1),
    ('derivative', lambda: P('exp(-x^2)').diff(), 0),
]


class TestMetadataTable:
    @pytest.mark.parametrize("label,build,sing,kinks,support,decay", METADATA_TABLE,
                             ids=[row[0] for row in METADATA_TABLE])
    def test_metadata(self, label, build, sing, kinks, support, decay):
        e = build()
        assert (e.singularities, e.kinks, e.support, e.decay) == (sing, kinks, support, decay)

    @pytest.mark.parametrize("label,build,sign", SIGN_TABLE, ids=[row[0] for row in SIGN_TABLE])
    def test_sign(self, label, build, sign):
        e = build()
        assert e.sign == sign
        if sign:  # the sign holds on a grid through the feature points
            vals = e.values(np.linspace(-4.0, 4.0, 801))
            assert np.all(sign * vals[np.isfinite(vals)] >= 0.0)

    def test_parser_and_operators_agree(self):
        for src, built in [
            ("abs(x)", abs(P("x"))),
            ("abs(indicator(0,1))", abs(P("indicator(0,1)"))),
            ("exp(-x^2)*indicator(0,1)", P("exp(-x^2)") * P("indicator(0,1)")),
            ("abs(x)^0.75", abs(P("x")).power(0.75)),
            ("x*(abs(x)+1)^(-2.5) - exp(-x^2)", P("x*(abs(x)+1)^(-2.5)") - P("exp(-x^2)")),
        ]:
            e = P(src)
            assert (e.singularities, e.kinks, e.support, e.decay, e.sign) == (
                built.singularities, built.kinks, built.support, built.decay, built.sign), src


class TestAffine:
    def test_values_follow_the_map(self):
        F = P("exp(-x^2)*indicator(-1,2)")
        G = F.affine(-2.5, 0.75)
        ts = np.array([-0.6, -0.1, 0.0, 0.2, 0.5])
        assert G.values(ts) == pytest.approx(F.values(-2.5 * ts + 0.75), abs=1e-15)
        # the support ends are the preimages of 2 and -1, as in the tree
        assert G.support == ((2.0 - 0.75) / -2.5, (-1.0 - 0.75) / -2.5)

    def test_identity_and_degenerate(self):
        F = P("x*exp(-x^2)")
        assert F.affine(1.0, 0.0) is F
        with pytest.raises(LprimError):
            F.affine(0.0, 1.0)

    @pytest.mark.parametrize("a, b", [(1.0, -50.0), (1.0, 50.0), (-2.0, 30.0)])
    def test_translated_gaussian_keeps_its_mass(self, a, b):
        # the implicit centre 0 moves to -b/a, where the bump now is
        G = P("exp(-x^2)").affine(a, b)
        assert G.decay == ("gaussian", (-b / a,))
        res = integrate_line(G)
        assert res.converged
        assert res.value == pytest.approx(math.sqrt(math.pi) / abs(a), rel=1e-10)

    def test_keeps_the_sharing_of_a_derivative(self):
        # each distinct node is copied once: the copy of the 28-node DAG
        # of the 4th derivative stays a DAG (x becomes x + 3)
        D = _fourth(P("x*exp(-x^2)"))
        A = D.affine(1.0, 3.0)
        assert _distinct(A.root) <= 40
        xs = np.linspace(-6.0, 6.0, 15001)
        np.testing.assert_array_equal(A.values(xs), D.values(xs + 3.0))


# closed forms of (f''', f'''')
def _gauss_d34(x):
    g = math.exp(-x * x)
    return (12 * x - 8 * x ** 3) * g, (16 * x ** 4 - 48 * x * x + 12) * g


def _rational_d34(x):
    r = 1.0 + x * x
    return 24 * x * (1 - x * x) / r ** 4, 24 * (5 * x ** 4 - 10 * x * x + 1) / r ** 5


def _xgauss_d34(x):
    g = math.exp(-x * x)
    return (-8 * x ** 4 + 24 * x * x - 6) * g, (16 * x ** 5 - 80 * x ** 3 + 60 * x) * g


class TestHigherDerivatives:
    """x^2 differentiates to 2*x^1, then to a constant: no x^(-1) factor,
    so the third and fourth derivatives stay finite at 0."""

    CASES = [("exp(-x^2)", _gauss_d34), ("(x^2+1)^(-1)", _rational_d34),
             ("x*exp(-x^2)", _xgauss_d34)]

    @pytest.mark.parametrize("src,closed", CASES)
    def test_third_and_fourth_at_zero(self, src, closed):
        d3 = P(src).diff().diff().diff()
        d4 = d3.diff()
        want3, want4 = closed(0.0)
        assert d3(0.0) == pytest.approx(want3, abs=1e-14)
        assert d4(0.0) == pytest.approx(want4, abs=1e-14)
        assert d3.values([0.0])[0] == pytest.approx(want3, abs=1e-14)
        assert d4.values([0.0])[0] == pytest.approx(want4, abs=1e-14)

    @pytest.mark.parametrize("src,closed", CASES)
    def test_third_and_fourth_off_zero(self, src, closed):
        xs = np.array([-1.3, -0.2, 0.7, 2.1])
        d3 = P(src).diff().diff().diff()
        d4 = d3.diff()
        want = np.array([closed(x) for x in xs])
        assert d3.values(xs) == pytest.approx(want[:, 0], rel=1e-12, abs=1e-14)
        assert d4.values(xs) == pytest.approx(want[:, 1], rel=1e-12, abs=1e-14)

    @pytest.mark.parametrize("src,closed", CASES)
    def test_eval_jet_matches_closed_forms(self, src, closed):
        for x in (0.0, 0.7):
            j = P(src).eval_jet(x, 4)
            assert j[3] == pytest.approx(closed(x)[0], rel=1e-12, abs=1e-14)
            assert j[4] == pytest.approx(closed(x)[1], rel=1e-12, abs=1e-14)


class TestConstantSubtrees:
    def test_division_by_zero_gives_inf_not_an_exception(self):
        e = P("x/(2 - 2)")
        assert math.isinf(e(0.5))
        assert np.isinf(e.values([0.5, 1.5])).all()

    def test_constant_broadcasts(self):
        out = P("2.5").values(np.zeros((2, 3)))
        assert out.shape == (2, 3) and (out == 2.5).all()


def _distinct(node):
    """The number of distinct node objects under ``node``."""
    seen, todo = set(), [node]
    while todo:
        n = todo.pop()
        if id(n) not in seen:
            seen.add(id(n))
            todo.extend(expr._children(n))
    return len(seen)


def _fourth(e):
    for _ in range(4):
        e = e.diff()
    return e


class TestCompactDerivatives:
    """diff() builds a small DAG from canonical, interned nodes, and values()
    evaluates each distinct node once."""

    # closed forms of the fourth derivatives
    CLOSED = [
        ("x*exp(-x^2)", lambda x: (16 * x**5 - 80 * x**3 + 60 * x) * np.exp(-x * x)),
        ("exp(-x^2)", lambda x: (16 * x**4 - 48 * x**2 + 12) * np.exp(-x * x)),
        ("(x^2+1)^(-1)", lambda x: 24 * (5 * x**4 - 10 * x**2 + 1) / (x * x + 1) ** 5),
    ]

    @pytest.mark.parametrize("src,closed", CLOSED, ids=[c[0] for c in CLOSED])
    def test_fourth_derivative_against_closed_form(self, src, closed):
        xs = np.linspace(-6.0, 6.0, 2001)
        want = closed(xs)
        got = _fourth(P(src)).values(xs)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("src", ["x*exp(-x^2)", "(x^2+1)^(-1)"])
    def test_fourth_derivative_is_small(self, src):
        assert _distinct(_fourth(P(src)).root) <= 100

    def test_poisson_kernel_fourth_derivative_is_small(self):
        from lprim.poisson import _kernel_n
        assert _distinct(_kernel_n(0.7, 4).root) <= 100

    def test_canonical_constructors(self):
        x = expr.Var()
        two = expr.const(2.0)
        assert expr.pow_(x, 1.0) is x
        assert expr.pow_(x, 0.0) is expr.const(1.0)
        assert expr.add(x, expr.const(0.0)) is x
        assert expr.mul(expr.const(1.0), x) is x
        assert expr.mul(x, expr.const(0.0)) is expr.const(0.0)
        assert expr.mul(two, expr.const(3.0)).v == 6.0
        assert expr.call("exp", expr.const(0.0)).v == 1.0
        # constant factors merge to the front; -a is -1 * a
        m = expr.mul(two, expr.mul(x, expr.const(3.0)))
        assert isinstance(m, expr.Mul) and m.a.v == 6.0 and m.b is x
        assert expr.neg(expr.neg(x)) is x
        # equal structures are one object
        assert expr.mul(x, expr.pow_(x, 2.0)) is expr.mul(x, expr.pow_(x, 2.0))

    def test_x_to_the_0_and_1_differentiate_to_constants(self):
        assert isinstance(P("x^1").diff().root, expr.Const)
        assert P("x^1").diff().root.v == 1.0
        assert P("x^0").diff().root.v == 0.0
        assert P("x^2").diff().diff().root.v == 2.0

    def test_each_distinct_node_evaluated_once(self, monkeypatch):
        calls = []

        def exp(v):
            calls.append(np.size(v))
            return np.exp(v)

        monkeypatch.setitem(expr._UNARY_EV, "exp", exp)
        d4 = _fourth(P("x*exp(-x^2)"))
        xs = np.linspace(-1.0, 1.0, 7)
        want = (16 * xs**5 - 80 * xs**3 + 60 * xs) * np.exp(-xs * xs)
        assert d4.values(xs) == pytest.approx(want, rel=1e-13, abs=1e-13)
        assert calls == [7]

    def test_large_input_is_evaluated_in_slices(self):
        # values are computed a slice at a time; shape and values hold
        d4 = _fourth(P("x*exp(-x^2)"))
        xs = np.linspace(-6.0, 6.0, 3 * expr._SLICE + 5).reshape(-1, 1)
        got = d4.values(xs)
        assert got.shape == xs.shape
        assert np.array_equal(got[:7, 0], d4.values(xs[:7, 0]))
        want = self.CLOSED[0][1](xs)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_memory_of_a_wrapped_derivative_is_bounded(self):
        # operator-built nodes over the DAG of a 4th derivative: the memo of
        # its 28 values is kept for one slice, not for all 2M points (16 MB each)
        d = abs(_fourth(P("x*exp(-x^2)"))).power(2)
        xs = np.linspace(-6.0, 6.0, 1 << 21)
        tracemalloc.start()
        try:
            got = d.values(xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * xs.nbytes  # the output, its slices and the memo
        assert np.array_equal(got[:9], d.values(xs[:9]))

    def test_no_derivative_outlives_its_caller(self):
        # reference counting alone frees a dropped derivative and its pool
        # entries: diff() leaves no cycle that holds nodes
        F = P("x*exp(-x^2)")
        gc.collect()
        gc.disable()
        try:
            before = len(expr._POOL)
            d4 = _fourth(F)
            assert len(expr._POOL) > before
            del d4
            assert len(expr._POOL) == before
        finally:
            gc.enable()

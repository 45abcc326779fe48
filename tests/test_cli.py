import json
import math

import pytest

from lprim.cli import dispatch, load_descriptor, main, render_csv
from lprim.errors import SchemaError
from lprim.expr import FunctionExpr
from lprim.lpspace import DeltaTrain, Multiplier, PrimitiveDistribution


def run(*argv):
    return dispatch(list(argv))


def rows(report):
    return {label: value for label, value, _ in report.outputs}


class TestDescriptors:
    def test_dsl_string(self):
        e = load_descriptor("exp(-x^2)")
        assert isinstance(e, FunctionExpr)

    def test_primitive_json(self):
        obj = load_descriptor(json.dumps({"primitive": {"expr": "exp(-x^2)"}, "p": 2}))
        assert isinstance(obj, PrimitiveDistribution) and obj.p == 2.0

    def test_density_json(self):
        obj = load_descriptor(json.dumps({"density": "exp(-abs(x))", "q": 2}))
        assert isinstance(obj, Multiplier)

    def test_atoms_json(self):
        obj = load_descriptor(json.dumps({"atoms": [[1.0, 0.0, 1.0]]}))
        assert isinstance(obj, DeltaTrain)

    def test_p_below_one_rejected(self):
        with pytest.raises(SchemaError):
            load_descriptor(json.dumps({"primitive": "indicator(0,1)", "p": 0.5}))

    def test_bad_json_rejected(self):
        with pytest.raises(SchemaError):
            load_descriptor("{not json")

    def test_unknown_shape_rejected(self):
        with pytest.raises(SchemaError):
            load_descriptor(json.dumps({"something": 1}))

    def test_support_override(self):
        obj = load_descriptor(
            json.dumps({"expr": "cos(x)", "support": [-1.0, 1.0]})
        )
        assert obj.support == (-1.0, 1.0)


class TestExitCodes:
    def test_norm_success(self):
        report, code = run("norm", "--p", "2", "--f", "indicator(0,1)")
        assert code == 0
        assert rows(report)["norm"] == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("src", ["exp(-(x-1)^2)", "exp(-(x-50)^2)"])
    def test_norm_of_shifted_gaussian(self, src):
        # tagged gaussian with its centre, so the tails start beyond the bump
        report, code = run("norm", "--p", "1", "--f", src)
        assert code == 0
        assert rows(report)["norm"] == pytest.approx(math.sqrt(math.pi), abs=1e-10)

    @pytest.mark.parametrize("src,want", [("exp(-3*x^2)", math.sqrt(math.pi / 3)),
                                          ("exp(-x^2/2)", math.sqrt(2 * math.pi)),
                                          ("exp(-(2*x)^2)", math.sqrt(math.pi) / 2),
                                          ("exp(-x*x)", math.sqrt(math.pi))])
    def test_norm_of_scaled_gaussian(self, src, want):
        report, code = run("norm", "--p", "1", "--f", src)
        assert code == 0
        assert rows(report)["norm"] == pytest.approx(want, abs=1e-10)

    def test_conv_of_gaussians(self):
        # e^{-x^2} * e^{-x^2} = sqrt(pi/2) e^{-x^2/2}, whose L^1 norm is pi
        report, code = run("conv", "--p", "1", "--r", "1", "--F", "exp(-x^2)",
                           "--g=exp(-x^2)", "--x", "0")
        assert code == 0
        assert rows(report)["norm_r"] == pytest.approx(math.pi, abs=1e-8)

    def test_usage_error(self):
        report, code = run("norm", "--p", "2")
        assert code == 1
        assert report.command == "usage-error"

    def test_unknown_subcommand(self):
        _, code = run("frobnicate")
        assert code == 1

    def test_malformed_expression(self):
        report, code = run("norm", "--p", "2", "--f", "exp(-x^2")
        assert code == 1
        assert "error" in rows(report)

    def test_bad_exponent_is_input_error(self):
        _, code = run("norm", "--p", "0.5", "--f", "indicator(0,1)")
        assert code == 1

    def test_norm_outside_lp_is_error(self):
        # the distribution builds without its norm; the norm row raises
        report, code = run("norm", "--p", "1", "--f", "1+0*x")
        assert code == 1
        assert "ConvergenceError" in rows(report)["error"]

    @pytest.mark.parametrize("p, src, want", [
        ("1", "exp(-x^2)/(x^2+1)", math.pi * math.e * math.erfc(1.0)),
        ("2", "x/(x^2+1)", math.sqrt(math.pi / 2)),
    ], ids=["gauss-over-quadratic", "x-over-quadratic"])
    def test_norm_of_quotient(self, p, src, want):
        report, code = run("norm", "--p", p, "--f", src)
        assert code == 0
        assert rows(report)["norm"] == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("p", ["2", "1.5"])
    def test_norm_at_quadratic_poles_names_the_interval(self, p):
        # the poles +-1 of x/(x^2-1) are singular points: the tanh-sinh rule
        # next to them refuses, naming a piece that ends at one of them
        report, code = run("norm", "--p", p, "--f", "x/(x^2-1)")
        assert code == 1
        message = rows(report)["error"]
        assert message.startswith("IntegrabilityError: ") and "non-integrable" in message
        lo, hi = map(float, message.split(" on [")[1].rstrip("]").split(", "))
        assert {lo, hi} & {-1.0, 1.0}

    def test_verify_suite_passes(self):
        report, code = run("verify", "--suite", "star-algebra")
        assert code == 0
        assert report.pass_fail and all(ok for _, ok, _ in report.pass_fail)

    def test_unknown_suite_is_input_error(self):
        _, code = run("verify", "--suite", "nonexistent")
        assert code == 1


class TestSubcommands:
    def test_pair(self):
        report, code = run(
            "pair", "--p", "1", "--F", "indicator(0,1)", "--g", "indicator(-5,5)"
        )
        assert code == 0
        assert rows(report)["pair"] == pytest.approx(-1.0, abs=1e-10)

    def test_pair_atoms(self):
        atoms = json.dumps({"atoms": [[1.0, 0.0, 1.0]]})
        report, code = run(
            "pair", "--p", "1", "--F", atoms, "--g", "indicator(-5,5)"
        )
        assert code == 0

    def test_dualnorm(self):
        report, code = run("dualnorm", "--p", "2", "--f", "indicator(0,1)")
        assert code == 0
        assert rows(report)["dualnorm"] == pytest.approx(1.0, rel=1e-6)

    def test_reconstruct(self):
        report, code = run(
            "reconstruct", "--p", "1", "--F", "indicator(0,1)", "--x", "0.5",
            "--ns", "2,4"
        )
        assert code == 0
        vals = list(rows(report).values())
        assert all(v == pytest.approx(1.0, abs=1e-9) for v in vals)

    def test_fourier_header_and_values(self):
        report, code = run("fourier", "--F", "indicator(-1,1)", "--s", "1,2")
        assert code == 0
        assert report.header == "s,re,im,err_est"
        for (label, re, im, err_est) in report.outputs:
            s = float(label)
            error = abs(complex(re, im) - 2j * math.sin(s))
            assert error <= 1e-9
            assert err_est >= error
        assert render_csv(report).splitlines()[1].count(",") == 3

    @pytest.mark.parametrize("F, ss, primitive_only", [
        ("indicator(-1,1)", "1,2,3.14159", False),
        ("exp(-x^2)", "0.5,3,49,50,51,120,999", False),
        ("exp(-x^2)", "-60,-3,7.7,200", True)])
    def test_fourier_rows_equal_the_per_s_values(self, F, ss, primitive_only):
        # one Transform.values call for the whole --s list gives the rows
        # that one fourier (or Transform.at) call per s gives
        from lprim.fourier import fourier, transform_of
        from lprim.parser import parse_expr

        argv = ["fourier", "--F", F, f"--s={ss}"] + ["--primitive-only"] * primitive_only
        report, code = run(*argv)
        assert code == 0
        f = PrimitiveDistribution(parse_expr(F), 1.0)
        for (label, re, im, err_est), s in zip(report.outputs, ss.split(",")):
            v = transform_of(f).at(float(s)) if primitive_only else fourier(f, float(s))
            assert (label, re, im, err_est) == ("%.17g" % float(s), v.re, v.im, v.err_est)

    def test_fourier_names_the_unconverged_s(self, monkeypatch):
        from lprim import cli
        from lprim.quadrature import QuadConfig

        class Shallow:
            @staticmethod
            def from_env(**overrides):
                return QuadConfig(max_depth=1, **overrides)

        monkeypatch.setattr(cli, "QuadConfig", Shallow)
        report, code = run("fourier", "--F", "exp(-x^2)", "--s", "0.5,3")
        assert code == 1
        [(label, message, _)] = report.outputs
        assert label == "error" and "fourier: transform at s=0.5 did not converge" in message

    def test_parseval(self):
        report, code = run(
            "parseval", "--F", "exp(-x^2)", "--G", "exp(-x^2)"
        )
        assert code == 0
        assert rows(report)["gap"] <= 1e-4

    def test_poisson(self):
        report, code = run(
            "poisson", "--F", "indicator(0,1)", "--x", "0.5", "--y", "1"
        )
        assert code == 0
        expected = 2 * math.atan(0.5) / math.pi
        assert rows(report)["u(0.5,1)"] == pytest.approx(expected, abs=1e-9)

    def test_poisson_err_est_is_the_integral_error(self):
        report, code = run("poisson", "--F", "exp(-x^2)", "--x", "0.3", "--y", "0.5",
                           "--n", "1")
        assert code == 0
        [(label, value, err)] = report.outputs
        assert label == "u(0.3,0.5)"
        assert 0.0 < err <= 1e-8

    @pytest.mark.parametrize("F, n, xs", [("exp(-x^2)", 1, "-1,0.3,2.5"),
                                          ("indicator(-1,1)", 2, "0.3,-0.95,1,4"),
                                          ("sing(abs(x)^(-0.5), 0)*exp(-abs(x))", 0, "0,0.2")])
    def test_poisson_rows_equal_the_one_point_rows(self, F, n, xs):
        # the whole --x list is one angle family; each row keeps its own
        # point's value and err_est, as a call with that point alone gives
        argv = ["poisson", "--F", F, "--y", "0.05", "--n", str(n)]
        report, code = run(*argv, f"--x={xs}")
        assert code == 0
        assert len(report.outputs) == len(xs.split(","))
        for row, x in zip(report.outputs, xs.split(",")):
            one, code = run(*argv, f"--x={x}")
            assert code == 0 and one.outputs == [row]

    def test_poisson_converge_err_est_is_the_sampling_error(self):
        report, code = run("poisson-converge", "--F", "indicator(0,1)", "--p", "1",
                           "--ys", "1,0.3")
        assert code == 0
        errs = [err for _, _, err in report.outputs]
        assert len(errs) == 2 and all(0.0 < e <= 2e-7 for e in errs)

    def test_membership(self):
        report, code = run("membership", "--p", "2", "--f", "x*indicator(-1,1)")
        assert code == 0
        assert rows(report)["verdict"] == "certified"

    def test_star_leading_dash_density(self):
        report, code = run(
            "star", "--F=indicator(0,1)", "--G=exp(-x^2)", "--x=0"
        )
        assert code == 0
        assert rows(report)["density(0)"] == pytest.approx(
            1 - math.exp(-1), abs=1e-7
        )

    @pytest.mark.parametrize("argv", [
        ("conv", "--p", "1", "--r", "1", "--F", "indicator(0,1)", "--g=-2*x*exp(-x^2)"),
        ("star", "--F", "indicator(0,1)", "--G", "exp(-x^2)"),
    ], ids=["conv", "star"])
    def test_density_rows_carry_the_family_err_est(self, argv):
        report, code = run(*argv, "--x=-0.5,0,0.7,1.5")
        assert code == 0
        dens = [(v, e) for label, v, e in report.outputs if label.startswith("density(")]
        assert len(dens) == 4
        assert all(0.0 < e <= max(1e-10, 1e-8 * abs(v)) for v, e in dens)

    @pytest.mark.parametrize("argv", [
        ("conv", "--p", "1", "--r", "1", "--F", "indicator(0,1)", "--g", "0*exp(-x^2)"),
        ("star", "--F", "0*indicator(0,1)", "--G", "exp(-x^2)"),
    ], ids=["conv", "star"])
    def test_zero_product_density_rows_are_exact(self, argv):
        report, code = run(*argv, "--x=-0.5,0,0.7")
        assert code == 0
        dens = [(v, e) for label, v, e in report.outputs if label.startswith("density(")]
        assert dens == [(0.0, 0.0)] * 3


class TestOutputContract:
    def test_deterministic_csv(self):
        a, _ = run("norm", "--p", "2", "--f", "exp(-x^2)")
        b, _ = run("norm", "--p", "2", "--f", "exp(-x^2)")
        assert render_csv(a) == render_csv(b)

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "result.csv"
        code = main(["norm", "--p", "2", "--f", "indicator(0,1)",
                     "--out", str(path)])
        assert code == 0
        text = path.read_text()
        assert text.startswith("label,value,err_est\n")
        value = float(text.splitlines()[1].split(",")[1])
        assert value == pytest.approx(1.0, abs=1e-10)
        assert capsys.readouterr().out == ""

    def test_tolerance_flags_accepted_after_subcommand(self):
        _, code = run("norm", "--p", "2", "--f", "indicator(0,1)",
                      "--abs-tol", "1e-8")
        assert code == 0

    def test_env_tolerances(self, monkeypatch):
        monkeypatch.setenv("LPRIM_ABS_TOL", "1e-6")
        _, code = run("norm", "--p", "2", "--f", "indicator(0,1)")
        assert code == 0


def test_cli_tolerances_reach_pair(monkeypatch):
    import lprim.cli
    from lprim.quadrature import QuadConfig

    seen = []

    def spy(f, G, cfg=None):
        seen.append(cfg)
        return 0.0

    monkeypatch.setattr(lprim.cli, "pair", spy)
    report, code = run("pair", "--p", "1", "--F", "indicator(0,1)", "--g", "exp(-x^2)",
                       "--abs-tol", "1e-12", "--rel-tol", "1e-11")
    assert code == 0
    assert seen == [QuadConfig.from_env(abs_tol=1e-12, rel_tol=1e-11)]


@pytest.mark.parametrize("argv,norm_row", [
    (("conv", "--p", "1", "--r", "1", "--F", "indicator(0,1)", "--g", "indicator(0,2)"), "norm_r"),
    (("star", "--F", "indicator(0,1)", "--G", "indicator(-1,1)*(1-abs(x))"), "norm_1"),
], ids=["conv", "star"])
def test_cli_tolerances_reach_product_norm(monkeypatch, argv, norm_row):
    # the product's own norm (the norm_r / norm_1 row) is taken with the
    # requested tolerances, as the factors' norms are
    import lprim.lpspace
    from lprim.quadrature import QuadConfig

    seen = []
    norm = lprim.lpspace.lp_norm

    def spy(F, p, cfg=None, *args):
        seen.append(cfg)
        return norm(F, p, cfg, *args)

    monkeypatch.setattr(lprim.lpspace, "lp_norm", spy)
    report, code = run(*argv, "--rel-tol", "1e-4")
    assert code == 0 and norm_row in rows(report)
    assert len(seen) >= 2  # the factors' norms and the product's
    assert seen == [QuadConfig.from_env(rel_tol=1e-4)] * len(seen)


@pytest.mark.parametrize("argv,norm_row", [
    (("conv", "--p", "1", "--r", "1", "--F", "exp(-x^2)", "--g=exp(-x^2)"), "norm_r"),
    (("star", "--F", "exp(-x^2)", "--G=exp(-x^2)"), "norm_1"),
], ids=["conv", "star"])
def test_loose_tolerances_reach_the_product_sampling(argv, norm_row):
    # the product is sampled to a multiple of abs_tol, not to a fixed 1e-9,
    # which the spline cannot meet on integrals certified to 1e-6
    report, code = run(*argv, "--abs-tol", "1e-6", "--rel-tol", "1e-5")
    assert code == 0
    assert rows(report)[norm_row] == pytest.approx(math.pi, rel=1e-5)


@pytest.mark.parametrize("F,norm", [("exp(-x^2)", math.pi),
                                    ("indicator(0,1)", math.sqrt(math.pi))],
                         ids=["gaussian", "box"])
def test_tight_tolerances_reach_the_product_sampling(F, norm):
    # cubic panels need samples growing like tol^(-1/4): at abs_tol 1e-12 a
    # segment takes more than the 4,096 that sample_function allows by default
    report, code = run("conv", "--p", "1", "--r", "1", "--F", F, "--g=exp(-x^2)",
                       "--abs-tol", "1e-12", "--rel-tol", "1e-10")
    assert code == 0
    assert rows(report)["norm_r"] == pytest.approx(norm, rel=1e-10)


@pytest.mark.parametrize("argv", [
    ("pair", "--p", "2", "--n", "2", "--F", "exp(-x^2)", "--g", "exp(-x^2)"),
    ("poisson", "--F", "exp(-x^2)", "--x", "0.3", "--y", "0.5", "--n", "2"),
], ids=["pair-n", "poisson"])
def test_cli_tolerances_reach_nth_norm(monkeypatch, norm_calls, argv):
    # an NthDistribution built by the CLI takes its norm with the requested
    # tolerances (neither subcommand reads it, so the test reads it)
    import lprim.cli
    from lprim.quadrature import QuadConfig

    built = []
    cls = lprim.cli.NthDistribution

    def keep(*args, **kwargs):
        built.append(cls(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(lprim.cli, "NthDistribution", keep)
    _, code = run(*argv, "--rel-tol", "1e-4")
    assert code == 0 and len(built) == 1 and norm_calls == []
    built[0].norm
    assert norm_calls == [QuadConfig.from_env(rel_tol=1e-4)]

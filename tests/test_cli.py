"""Command-line interface: reports, CSV outputs, exit codes, determinism."""
import argparse
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from logheat import (
    BracketError,
    Infeasible,
    NumericalError,
    SearchError,
    build_counterexample,
    variance_certificate,
)
from logheat import cli
from logheat.cli import _build_parser, main


@pytest.fixture
def mixture_file(tmp_path):
    path = tmp_path / "mixture.json"
    path.write_text(json.dumps({
        "type": "gaussian_mixture",
        "components": [[0.5, [-2.0], 1.0], [0.5, [2.0], 1.0]],
    }))
    return str(path)


@pytest.fixture
def perturbed_file(tmp_path):
    path = tmp_path / "perturbed.json"
    path.write_text(json.dumps({
        "type": "perturbed_1d",
        "alpha": 1.0,
        "h_knots": [0.0],
        "h_slopes": [0.5, -0.5],
    }))
    return str(path)


@pytest.fixture
def atomic_file(tmp_path):
    path = tmp_path / "atoms.json"
    path.write_text(json.dumps({"type": "atomic", "atoms": [[0.3, [0.0]], [0.7, [2.0]]]}))
    return str(path)


@pytest.fixture
def mixture2d_file(tmp_path):
    path = tmp_path / "mixture2d.json"
    path.write_text(json.dumps({
        "type": "gaussian_mixture", "dim": 2,
        "components": [[0.5, [0.0, 0.0], 1.0], [0.5, [2.0, 1.0], 1.0]],
    }))
    return str(path)


def read_json(tmp_path, name):
    with open(os.path.join(str(tmp_path), name)) as fh:
        return json.load(fh)


class TestBounds:
    def test_frozen_values(self, tmp_path, capsys):
        rc = main(["bounds", "--alpha", "1", "--lip", "1", "--t", "4",
                   "--out", str(tmp_path)])
        assert rc == 0
        rep = read_json(tmp_path, "bounds.json")
        assert rep["lower"] == pytest.approx(0.0705573, abs=1e-6)
        assert rep["upper"] == pytest.approx(0.25)
        assert rep["t_star"] == pytest.approx(4.0)
        assert rep["thm3"] == pytest.approx(math.exp(2.5), rel=1e-12)
        shown = json.loads(capsys.readouterr().out)
        assert "wall_time" in shown
        assert "wall_time" not in rep

    def test_domain_error_exit_2(self, capsys):
        assert main(["bounds", "--alpha", "1", "--t", "0"]) == 2
        assert "error" in capsys.readouterr().err

    def test_usage_exit_64(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "--alpha", "1"])
        assert exc.value.code == 64

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 64


class TestHessianScan:
    def test_mixture_scan(self, tmp_path, capsys, mixture_file):
        rc = main(["hessian-scan", "--measure", mixture_file, "--t", "2",
                   "--points", "11", "--out", str(tmp_path)])
        assert rc == 0
        rep = read_json(tmp_path, "hessian_scan.json")
        assert rep["upper_envelope"] == pytest.approx(0.5)
        assert rep["max_curvature"] <= 0.5 + 1e-9
        with open(rep["csv"]) as fh:
            lines = fh.read().splitlines()
        assert lines[0].split(",")[0] == "z"
        assert len(lines) == 12

    def test_missing_file_exit_2(self, capsys):
        assert main(["hessian-scan", "--measure", "/no/such.json", "--t", "1"]) == 2

    @pytest.mark.parametrize("doc", [
        {"type": "atomic", "atoms": [[0.3, [0.0]], [0.7, [2.0]]]},
        {"type": "counterexample", "psi": "linear", "truncation": 20},
    ], ids=["atomic", "counterexample"])
    def test_no_envelope_parameters(self, tmp_path, capsys, doc):
        # a measure without (alpha, lip) is scanned against the bounds 1/t and -inf
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        assert main(["hessian-scan", "--measure", str(path), "--t", "0.5", "--points", "5",
                     "--out", str(tmp_path)]) == 0
        rep = read_json(tmp_path, "hessian_scan.json")
        assert rep["lower_envelope"] == -math.inf and rep["upper_envelope"] == 2.0
        arr = np.loadtxt(rep["csv"], delimiter=",", skiprows=1)
        assert arr.shape == (5, 7) and np.all(arr[:, 2] <= 2.0)


    def test_nan_weight_exit_2(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        path.write_text(json.dumps({
            "type": "gaussian_mixture",
            "components": [[math.nan, [0.0], 1.0], [0.5, [1.0], 1.0]],
        }))
        assert main(["hessian-scan", "--measure", str(path), "--t", "1"]) == 2
        out = capsys.readouterr()
        assert out.err.startswith("error: ")
        assert "NaN" not in out.out + out.err

    def test_malformed_component_exit_2(self, tmp_path, capsys):
        path = tmp_path / "short.json"
        path.write_text(json.dumps({
            "type": "gaussian_mixture", "components": [[0.5, [0.0]], [0.5, [1.0], 1.0]],
        }))
        assert main(["hessian-scan", "--measure", str(path), "--t", "1"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("obj, message", [
        ({"type": "atomic", "atoms": [[1, [0, 1]], [1, [2]]]}, "malformed field: setting an array"),
        ({"type": "atomic", "atoms": [[1, "a"], [1, 2]]}, "malformed field: could not convert"),
        ({"type": "perturbed_1d", "alpha": "x"}, "malformed field: could not convert"),
        ({"type": "perturbed_1d"}, "needs the field 'alpha'"),
        ({"type": "gaussian_mixture", "dim": 2, "components": [[1, 0, 1], [1, 2, 1]]},
         "every mean needs dim = 2 coordinates"),
        ({"type": "counterexample", "truncation": "abc"}, "malformed field: invalid literal"),
        ({"type": "atomic", "atoms": [[math.nan, 0], [1, 2]]}, "must be positive and finite"),
        ({"type": "atomic", "atoms": [[0, 0], [1, 2]]}, "must be positive and finite"),
        ({"type": "atomic", "atoms": [[1, math.inf], [1, 2]]}, "locations must be finite"),
    ], ids=["ragged-location", "string-location", "string-alpha", "missing-alpha",
            "dim-mismatch", "string-truncation", "nan-weight", "zero-weight", "inf-location"])
    def test_malformed_measure_exit_2(self, tmp_path, capsys, obj, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        assert main(["hessian-scan", "--measure", str(path), "--t", "1", "--points", "3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and "Traceback" not in err


class TestTransport:
    def test_perturbed_report(self, tmp_path, capsys, perturbed_file):
        rc = main(["transport", "--measure", perturbed_file, "--points", "65",
                   "--samples", "2000", "--out", str(tmp_path)])
        assert rc == 0
        rep = read_json(tmp_path, "transport.json")
        assert rep["ks_stat"] < 0.05
        assert rep["empirical_lipschitz"] <= rep["exp_integral_theta_max"] * 1.02
        assert rep["exp_integral_theta_max"] <= rep["thm3_constant"] * 1.05
        flow = np.loadtxt(rep["csv"], delimiter=",", skiprows=1)
        assert flow.shape == (65, 2)
        assert np.all(np.diff(flow[:, 1]) >= 0)
        assert "t_max" not in rep  # the flow map has no horizon


class TestCounterexample:
    def test_certificate(self, tmp_path, capsys):
        rc = main(["counterexample", "--t", "1", "--target-m", "5",
                   "--out", str(tmp_path)])
        assert rc == 0
        rep = read_json(tmp_path, "certificate.json")
        assert rep["variance"] >= 25.0 * (1 - 1e-6)
        assert rep["curvature"] <= -24.0 + 1e-6
        assert rep["M"] == 5.0
        # dropped untilted mass beyond the truncation index
        assert 0.0 < rep["tail_bound"] < 0.02

    def test_truncation_too_small_nonzero_exit(self, capsys):
        rc = main(["counterexample", "--t", "1", "--target-m", "50",
                   "--truncation", "10"])
        assert rc in (2, 3)


class TestTwoAtom:
    def test_threshold(self, tmp_path, capsys):
        rc = main(["two-atom", "--x0", "2", "--t", "1", "--out", str(tmp_path)])
        assert rc == 0
        rep = read_json(tmp_path, "two_atom.json")
        assert rep["z_bar"] == pytest.approx(1.0)
        assert rep["curvature_at_z_bar"] == pytest.approx(0.0, abs=1e-10)
        assert rep["threshold_t"] == pytest.approx(1.0)

    def test_validation_exit_2(self, capsys):
        assert main(["two-atom", "--x0", "0", "--t", "1"]) == 2

    @pytest.mark.parametrize("argv, name", [
        (["--x0", "2", "--t", "inf"], "t"), (["--x0", "nan", "--t", "1"], "x0"),
        (["--x0", "2", "--t", "1", "--w0", "inf"], "w0"),
    ])
    def test_non_finite_exit_2(self, capsys, argv, name):
        assert main(["two-atom", *argv]) == 2
        assert capsys.readouterr().err.startswith(f"error: {name} must be finite")

    @pytest.mark.parametrize("argv, prefix", [
        (["--x0", "1e-300", "--t", "1e10"], "error: x0 = 1e-300 and t = 10000000000.0 are"),
        (["--x0", "1e308", "--t", "1"], "error: x0 = 1e+308 and t = 1.0 are"),
        (["--x0", "2", "--t", "1", "--w0", "1e-300", "--w1", "1e300"], "error: w0 is"),
    ])
    def test_extreme_finite_exit_2(self, capsys, argv, prefix):
        assert main(["two-atom", *argv]) == 2
        assert capsys.readouterr().err.startswith(prefix)

    @pytest.mark.parametrize("error", [NumericalError, BracketError, SearchError])
    def test_numerical_error_class_exit_3(self, monkeypatch, capsys, error):
        # the error class alone sets the exit code
        assert issubclass(error, NumericalError)

        def fail(*args):
            raise error("no root")

        monkeypatch.setattr(cli, "two_atom_analysis", fail)
        assert main(["two-atom", "--x0", "2", "--t", "1"]) == 3
        assert capsys.readouterr().err == "error: no root\n"


class TestDecompose:
    def test_polynomial(self, tmp_path, capsys):
        rc = main(["decompose", "--coeffs", "0,0,-2,0,1", "--alpha", "1",
                   "--beta", "4", "--radius", "0.65", "--out", str(tmp_path)])
        assert rc == 0
        rep = read_json(tmp_path, "decompose.json")
        assert rep["lip_cert"] == pytest.approx(6.5)
        assert rep["min_V_second_derivative"] >= 1.0 - 1e-4
        assert rep["max_H_slope"] <= 6.5 + 1e-9

    def test_mixture_analysis(self, tmp_path, capsys, mixture_file):
        rc = main(["decompose", "--measure", mixture_file, "--out", str(tmp_path)])
        assert rc == 0
        rep = read_json(tmp_path, "decompose.json")
        assert rep["feasible"] is True
        assert rep["alpha"] == pytest.approx(0.5)

    def test_needs_input(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["decompose"])
        assert exc.value.code == 64

    def test_measure_and_coeffs_exclusive(self, capsys, mixture_file):
        with pytest.raises(SystemExit) as exc:
            main(["decompose", "--measure", mixture_file, "--coeffs", "0,0,1"])
        assert exc.value.code == 64
        assert "not allowed with argument" in capsys.readouterr().err

    def test_infeasible_report(self, monkeypatch, tmp_path, capsys, mixture_file):
        monkeypatch.setattr(cli, "analyze_mixture_1d",
                            lambda m: Infeasible(reason="no radius", radius_cap=7.5))
        assert main(["decompose", "--measure", mixture_file, "--out", str(tmp_path)]) == 0
        assert read_json(tmp_path, "decompose.json") == {
            "command": "decompose", "feasible": False, "reason": "no radius", "radius_cap": 7.5}

    def test_precondition_exit_2(self, capsys):
        # U = -x^2 violates convexity outside every radius
        rc = main(["decompose", "--coeffs", "0,0,-1", "--alpha", "1",
                   "--beta", "5", "--radius", "0.5"])
        assert rc == 2


class TestMixture:
    def test_scan(self, tmp_path, capsys, mixture_file):
        rc = main(["mixture", "--measure", mixture_file, "--points", "21",
                   "--out", str(tmp_path)])
        assert rc == 0
        rep = read_json(tmp_path, "mixture.json")
        assert rep["max_violation_refined"] <= 1e-8
        assert rep["max_violation_crude"] <= 1e-10
        arr = np.loadtxt(rep["csv"], delimiter=",", skiprows=1)
        assert arr.shape == (21, 4)

    def test_rejects_perturbed(self, capsys, perturbed_file):
        assert main(["mixture", "--measure", perturbed_file]) == 2


class TestNonMixtureInputs:
    """The library rejects a measure that is not a 1D Gaussian mixture; the
    CLI turns its error into exit 2 and one line on stderr."""

    @pytest.mark.parametrize("cmd, fixture, message", [
        ("mixture", "perturbed_file", "PerturbedLogConcave1D has no posterior kernel"),
        ("mixture", "atomic_file", "AtomicMeasure has no posterior kernel"),
        ("mixture", "mixture2d_file", "GaussianMixture has dim 2; this kernel is 1D only"),
        ("decompose", "perturbed_file", "PerturbedLogConcave1D has no posterior kernel"),
        ("decompose", "atomic_file", "AtomicMeasure has no posterior kernel"),
        ("decompose", "mixture2d_file", "mixture must be 1D, got dim 2"),
        ("hessian-scan --t 1", "mixture2d_file",
         "GaussianMixture has dim 2; this kernel is 1D only"),
    ])
    def test_exit_2(self, request, tmp_path, capsys, cmd, fixture, message):
        path = request.getfixturevalue(fixture)
        assert main([*cmd.split(), "--measure", path, "--out", str(tmp_path / "out")]) == 2
        out = capsys.readouterr()
        assert out.err == f"error: {message}\n"
        assert out.out == "" and not (tmp_path / "out").exists()


class TestReverseSde:
    def test_sampler(self, tmp_path, capsys, mixture_file):
        rc = main(["reverse-sde", "--measure", mixture_file, "--n", "2000",
                   "--steps", "100", "--t1", "3", "--out", str(tmp_path)])
        assert rc == 0
        rep = read_json(tmp_path, "reverse_sde.json")
        assert rep["ks_stat"] < 0.06
        assert abs(rep["sample_mean"]) < 0.2
        arr = np.loadtxt(rep["csv"], delimiter=",", skiprows=1)
        assert arr.shape == (2000,)


    def test_negative_seed_exit_2(self, tmp_path, capsys, mixture_file):
        rc = main(["reverse-sde", "--measure", mixture_file, "--n", "10",
                   "--steps", "2", "--seed", "-1", "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_infinite_horizon_exit_2(self, tmp_path, capsys, mixture_file):
        rc = main(["reverse-sde", "--measure", mixture_file, "--n", "10",
                   "--steps", "2", "--t1", "inf", "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: need 0 < t1 <= 745.1332191019411 (e^(-t1) > 0), got t1=inf\n")


class TestInvalidArguments:
    @pytest.mark.parametrize("argv, prefix", [
        ("hessian-scan --measure {mix} --t 1 --points 0", "--points must"),
        ("hessian-scan --measure {mix} --t 1 --points -3", "--points must"),
        ("mixture --measure {mix} --points 0", "--points must"),
        ("transport --measure {gauss} --points 9 --samples 0", "n_samples must"),
        ("transport --measure {gauss} --points 1 --samples 10", "need n_points"),
        ("decompose --coeffs 0,0,x", "--coeffs must"),
        ("bounds --alpha 1 --t inf", "t must be finite"),
        ("bounds --alpha 1 --lip inf --t 1", "lip must be finite"),
        ("bounds --alpha 1 --t 1e-320", "t = 1e-320 is out of range: 1/t overflows"),
        ("bounds --alpha 1 --t 400", "t = 400.0 is out of range: e^(2t) - 1"),
        ("bounds --alpha 1 --t 1 --radius inf", "radius must be finite"),
        ("bounds --alpha 1 --t 1 --radius nan", "radius must be finite"),
        ("bounds --alpha 1 --t 1 --radius -1", "radius must be nonnegative"),
        ("bounds --alpha 1 --t 1 --third-deriv nan", "third_deriv must be finite"),
        ("decompose --coeffs 0,0,1 --radius nan", "radius must be finite"),
        ("decompose --coeffs 0,0,1 --radius inf", "radius must be finite"),
        ("decompose --coeffs 0,0,1 --alpha nan", "alpha must be finite"),
        ("decompose --coeffs 0,0,1 --beta nan", "beta must be finite"),
        ("counterexample --t 1 --target-m inf", "M must be finite"),
        ("counterexample --t inf --target-m 2", "t must be finite"),
        ("counterexample --t 1 --target-m 2 --psi linear --coefficient nan", "psi must be finite"),
        ("bounds --alpha 1 --lip 100 --t 1",
         "alpha = 1.0, lip = 100.0, third_deriv = 0.0 are out of range: the thm3 or fms"),
        ("bounds --alpha 1 --lip 1e200 --t 1",
         "alpha = 1.0, lip = 1e+200, t = 1.0 are out of range: (lip/c + c^-1/2)^2 / t"),
        ("bounds --alpha 1e-300 --lip 1 --t 1",
         "alpha = 1e-300, lip = 1.0 are out of range: (lip/alpha + alpha^-1/2)^2 overflows"),
        ("decompose --coeffs 0,0,1 --alpha -5 --beta 1 --radius 1", "alpha must be positive"),
        ("decompose --coeffs 0,0,1 --alpha 0", "alpha must be positive"),
        ("decompose --measure {mix} --alpha 5", "--measure takes no --alpha: they are read"),
        ("decompose --measure {mix} --beta 3", "--measure takes no --beta: they are read"),
        ("decompose --measure {mix} --radius 9", "--measure takes no --radius: they are read"),
        ("decompose --measure {mix} --alpha 5 --beta 3 --radius 9",
         "--measure takes no --alpha, --beta, --radius: they are read only with --coeffs"),
    ], ids=["scan-points-0", "scan-points-neg", "mixture-points-0", "transport-samples-0",
            "transport-points-1", "decompose-bad-coeff", "bounds-t-inf", "bounds-lip-inf",
            "bounds-t-1e-320", "bounds-t-400", "bounds-radius-inf", "bounds-radius-nan",
            "bounds-radius-neg", "bounds-third-deriv-nan", "decompose-radius-nan",
            "decompose-radius-inf", "decompose-alpha-nan", "decompose-beta-nan",
            "counterexample-m-inf", "counterexample-t-inf", "counterexample-psi-nan",
            "bounds-lip-100", "bounds-lip-1e200", "bounds-alpha-1e-300", "decompose-alpha-neg",
            "decompose-alpha-0", "decompose-measure-alpha", "decompose-measure-beta",
            "decompose-measure-radius", "decompose-measure-all"])
    def test_exit_2(self, argv, prefix, tmp_path, capsys, mixture_file):
        # one line on stderr naming the argument, and no report on stdout
        gauss = tmp_path / "gauss.json"
        gauss.write_text(json.dumps({"type": "gaussian_mixture", "components": [[1, [0], 1]]}))
        argv = [a.format(mix=mixture_file, gauss=gauss) for a in argv.split()]
        assert main(argv + ["--out", str(tmp_path)]) == 2
        out, err = capsys.readouterr()
        assert err.startswith(f"error: {prefix}") and err.count("\n") == 1 and out == ""


    @pytest.mark.parametrize("argv", [
        ["bounds", "--alpha", "1", "--t", "4"],
        ["hessian-scan", "--measure", "m.json", "--t", "1"],
        ["counterexample", "--t", "1", "--target-m", "5"],
        ["two-atom", "--x0", "2", "--t", "1"],
        ["decompose", "--coeffs", "0,0,1"],
        ["mixture", "--measure", "m.json"],
    ], ids=lambda argv: argv[0])
    def test_seed_only_where_read(self, argv, capsys):
        # only transport and reverse-sde draw random numbers
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--seed", "1"])
        assert exc.value.code == 64
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


# every subcommand's options as (flags, default, required, type, choices), in
# the order --help lists them
_OPTIONS = {
    "bounds": [("--alpha", None, True, float, None), ("--lip", 0.0, False, float, None),
               ("--t", None, True, float, None), ("--radius", 0.0, False, float, None),
               ("--third-deriv", 0.0, False, float, None), ("--lsi-c", 1.0, False, float, None)],
    "hessian-scan": [("--measure", None, True, None, None), ("--t", None, True, float, None),
                     ("--z-min", None, False, float, None), ("--z-max", None, False, float, None),
                     ("--points", 41, False, int, None)],
    "transport": [("--measure", None, True, None, None), ("--points", 257, False, int, None),
                  ("--samples", 20000, False, int, None), ("--seed", 0, False, int, None)],
    "counterexample": [("--psi", "zero", False, None, ["linear", "quadratic", "zero"]),
                       ("--coefficient", 1.0, False, float, None),
                       ("--truncation", 60, False, int, None), ("--t", None, True, float, None),
                       ("--target-m", None, True, float, None)],
    "two-atom": [("--x0", None, True, float, None), ("--w0", 0.5, False, float, None),
                 ("--w1", 0.5, False, float, None), ("--t", None, True, float, None)],
    "decompose": [("--measure", None, False, None, None), ("--coeffs", None, False, None, None),
                  ("--alpha", 1.0, False, float, None), ("--beta", 0.0, False, float, None),
                  ("--radius", 0.0, False, float, None)],
    "mixture": [("--measure", None, True, None, None), ("--x-min", None, False, float, None),
                ("--x-max", None, False, float, None), ("--points", 101, False, int, None)],
    "reverse-sde": [("--measure", None, True, None, None), ("--n", 20000, False, int, None),
                    ("--steps", 400, False, int, None), ("--t1", 3.0, False, float, None),
                    ("--seed", 0, False, int, None)],
}


class TestParser:
    def test_options_per_subcommand(self):
        parser = _build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert list(sub.choices) == list(_OPTIONS)
        for name, sp in sub.choices.items():
            got = [(*a.option_strings, a.default, a.required, a.type,
                    None if a.choices is None else list(a.choices))
                   for a in sp._actions if a.option_strings and a.dest != "help"]
            assert got == _OPTIONS[name] + [("--out", None, False, None, None)], name


class TestDeterminism:
    def test_rerun_byte_identical(self, tmp_path, capsys, mixture_file):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            rc = main(["reverse-sde", "--measure", mixture_file, "--n", "500",
                       "--steps", "50", "--seed", "9", "--out", str(d)])
            assert rc == 0
        assert (d1 / "samples.csv").read_bytes() == (d2 / "samples.csv").read_bytes()
        r1 = json.loads((d1 / "reverse_sde.json").read_text())
        r2 = json.loads((d2 / "reverse_sde.json").read_text())
        r1.pop("csv"), r2.pop("csv")  # embeds the per-run output path
        assert r1 == r2

    @pytest.mark.parametrize("argv, name", [
        (["transport", "--measure", "{perturbed}", "--points", "33", "--samples", "500"],
         "transport.json"),
        (["counterexample", "--t", "1", "--target-m", "5"], "certificate.json"),
    ], ids=["transport", "counterexample"])
    def test_diagnostics_on_stdout_only(self, tmp_path, capsys, perturbed_file, argv, name):
        # the same --out directory twice, since transport.json embeds its CSV path
        written = []
        for _ in range(2):
            capsys.readouterr()
            assert main([a.format(perturbed=perturbed_file) for a in argv]
                        + ["--out", str(tmp_path)]) == 0
            shown = json.loads(capsys.readouterr().out)
            written.append((tmp_path / name).read_bytes())
        assert written[0] == written[1]
        assert "diagnostics" not in json.loads(written[0])
        if argv[0] == "transport":
            expected = {"velocity_evals": 774, "steps_per_unit": 100}
        else:
            cert = variance_certificate(build_counterexample(lambda x: 0.0), 1.0, 5.0)
            expected = {"split_evals": cert.split_evals, "escalations": cert.escalations}
        assert shown["diagnostics"] == expected

    def test_bounds_rerun_identical(self, tmp_path, capsys):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            main(["bounds", "--alpha", "1.3", "--lip", "0.7", "--t", "2.5",
                  "--out", str(d)])
        assert (d1 / "bounds.json").read_bytes() == (d2 / "bounds.json").read_bytes()


class TestImport:
    def test_scipy_optimize_and_integrate_load_lazily(self):
        # both cost a few tenths of a second of every CLI call; nothing in
        # the library needs scipy.integrate or scipy.optimize
        import logheat

        src = os.path.dirname(os.path.dirname(logheat.__file__))
        code = ("import sys, logheat; "
                "print([m for m in ('scipy.optimize', 'scipy.integrate') if m in sys.modules])")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, check=True)
        assert out.stdout.strip() == "[]"

    def test_import_loads_no_scipy(self):
        # scipy.special alone costs about a quarter second; it is imported only
        # where a perturbed density evaluates log Phi.  numpy.polynomial (about
        # 4 ms) is imported where theta_envelope forms its default rule
        code = ("import sys, logheat; print(sorted(m for m in sys.modules if m.split('.')[0] "
                "== 'scipy' or m.startswith('numpy.polynomial')))")
        out = subprocess.run([sys.executable, "-c", code],
                             capture_output=True, text=True, env=_src_env(), check=True)
        assert out.stdout.strip() == "[]"

    @pytest.mark.parametrize("argv", [
        ["bounds", "--alpha", "1.3", "--lip", "0.7", "--t", "2.5"],
        ["hessian-scan", "--measure", "{mixture}", "--t", "1", "--points", "11"],
        ["counterexample", "--t", "1", "--target-m", "2"],
        ["two-atom", "--x0", "2", "--t", "1"],
        ["decompose", "--measure", "{mixture}"],
        ["mixture", "--measure", "{mixture}", "--points", "11"],
        ["transport", "--measure", "{gauss}", "--points", "33", "--samples", "500"],
        ["reverse-sde", "--measure", "{mixture}", "--n", "500", "--steps", "20"],
    ], ids=lambda argv: argv[0])
    def test_subcommand_runs_without_scipy(self, tmp_path, mixture_file, argv):
        # Phi and its inverse are numpy kernels: every subcommand on a mixture runs on numpy
        gauss = tmp_path / "gauss.json"
        gauss.write_text(json.dumps({"type": "gaussian_mixture", "components": [[1, [0], 1]]}))
        argv = ([a.format(mixture=mixture_file, gauss=gauss) for a in argv]
                + ["--out", str(tmp_path)])
        run = f"from logheat.cli import main; assert main({argv!r}) == 0"
        out = subprocess.run([sys.executable, "-c", _SCIPY_MODULES.format(run)],
                             capture_output=True, text=True, env=_src_env(), check=True)
        assert out.stdout.strip().splitlines()[-1] == "[]"


_SCIPY_MODULES = ("import sys\n{}\n"
                  "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")


def _src_env():
    import logheat

    return {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(logheat.__file__))}

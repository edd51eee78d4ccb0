import csv
import json
import re
from pathlib import Path

import numpy as np
import pytest
from draws import SEEDS
from hypothesis import given, settings

from refcascade import validation
from refcascade.cli import main
from refcascade.config import SCHEMA
from refcascade.manipulator import ArmParams, TwoLinkArm
from refcascade.validation import suite_skew_symmetry

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
RAMP_CFG = CONFIGS / "ramp_adaptive.ini"


RUN_CFG = """
[controller]
variant = adaptive
ell = 2

[trajectory]
kind = polynomial
coeffs = 0.4 0.1 ; -0.3 0.05

[run]
dt = 0.002
duration = 2
"""


@pytest.fixture
def run_config(tmp_path):
    p = tmp_path / "exp.ini"
    p.write_text(RUN_CFG)
    return p


class TestRunCommand:
    def test_run_writes_outputs(self, run_config, tmp_path):
        out = tmp_path / "out"
        code = main(["run", "--config", str(run_config), "--out", str(out), "--quiet"])
        assert code == 0
        assert (out / "log.csv").exists()
        assert (out / "metrics.json").exists()
        header = (out / "log.csv").read_text().splitlines()[0]
        assert header.startswith("t,q1,q2,qdot1,qdot2,qd1,qd2,dq1,dq2")

    def test_byte_identical_reruns(self, run_config, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(run_config), "--out", str(out_a), "--quiet"]) == 0
        assert main(["run", "--config", str(run_config), "--out", str(out_b), "--quiet"]) == 0
        assert (out_a / "log.csv").read_bytes() == (out_b / "log.csv").read_bytes()

    def test_unknown_option_exit_2(self, capsys):
        assert main(["run", "--bogus"]) == 2
        assert "unrecognized arguments: --bogus" in capsys.readouterr().err

    def test_missing_config_exit_2(self, tmp_path):
        code = main(["run", "--config", str(tmp_path / "nope.ini"), "--out", str(tmp_path / "o")])
        assert code == 2

    @pytest.mark.parametrize("text", [
        b"[run]\ndt = 0.002\ndt = 0.004\n",  # duplicate key
        b"[run]\ndt = 0.002\n[run]\nduration = 2\n",  # duplicate section
        b"[run]\ndt = 0.002\nduration\n",  # key with no '='
        b"dt = 0.002\n",  # no section header
        b"[run]\nduration = 5%\n",  # '%', which interpolation would read
        b"[run]\n# caf\xe9\ndt = 0.002\n",  # not UTF-8
    ])
    def test_malformed_config_exit_2(self, tmp_path, capsys, text):
        path = tmp_path / "bad.ini"
        path.write_bytes(text)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_bad_override_exit_2(self, run_config, tmp_path):
        code = main([
            "run", "--config", str(run_config), "--out", str(tmp_path / "o"),
            "--set", "run.bogus=1",
        ])
        assert code == 2

    @pytest.mark.parametrize("spec", ["auto:abc", "1 2 x 4 5"])
    def test_non_numeric_theta_hat0_exit_2(self, run_config, tmp_path, spec):
        code = main([
            "run", "--config", str(run_config), "--out", str(tmp_path / "o"), "--quiet",
            "--set", f"controller.theta_hat0={spec}",
        ])
        assert code == 2

    @pytest.mark.parametrize("overrides", [
        # the removed provenance-only seed is an unknown key
        ["run.seed=0"],
        # stacked_single adapts one tone: a second estimate is refused, not dropped
        ["controller.variant=stacked_single", "controller.freq_hat0=1 2"],
        # an explicit tone-layer denominator must be Hurwitz
        ["controller.variant=stacked_multi", "controller.n_star=1", "gains.hstar_den=1 -1"],
        # the removed Coriolis fault-injection knob is an unknown key
        ["model.coriolis_sign=-1"],
        # signal data the trajectory and disturbance classes refuse
        ["trajectory.kind=polynomial", "trajectory.coeffs=1 2 3 4 5 6 7 8"],
        ["trajectory.kind=multisine", "trajectory.tones=1@-2"],
        ["disturbance.tones=1@0"],
    ])
    def test_rejected_override_exit_2(self, run_config, tmp_path, overrides):
        args = ["run", "--config", str(run_config), "--out", str(tmp_path / "o"), "--quiet"]
        for pair in overrides:
            args += ["--set", pair]
        assert main(args) == 2

    @pytest.mark.parametrize("overrides", [
        ["gains.k=nan"],
        ["gains.gamma=nan"],
        ["controller.variant=passive", "gains.lambda=nan"],
        ["controller.variant=passive", "gains.lambda_d=inf"],
        ["controller.variant=stacked_single", "gains.gamma_freq=nan"],
        ["controller.variant=stacked_multi", "gains.hstar_rate=nan"],
        ["controller.variant=filtered_adaptive", "gains.alpha_star=nan"],
        ["controller.variant=nldamp", "gains.lambda_d=-5"],
        ["gains.k=-1"],
        ["controller.variant=passive", "gains.lam_corr=-1"],
        ["controller.variant=filtered_adaptive", "gains.k=0"],
        ["controller.variant=pid", "gains.kd=0"],
        ["controller.variant=stacked_multi", "gains.hstar_rate=-2"],
    ], ids=lambda overrides: overrides[-1])
    def test_non_finite_or_negative_gain_exit_2(self, run_config, tmp_path, capsys, overrides):
        args = ["run", "--config", str(run_config), "--out", str(tmp_path / "o"), "--quiet"]
        for pair in overrides:
            args += ["--set", pair]
        assert main(args) == 2
        # the refusal names the key the user typed
        key = overrides[-1].split("=")[0]
        assert re.search(rf"\b{re.escape(key)}\b", capsys.readouterr().err)

    @pytest.mark.parametrize("entries, code", [("2", 0), ("2 3", 0), ("2 3 4", 2)],
                             ids=["one", "n", "wrong count"])
    @pytest.mark.parametrize("key, setting", [
        ("gains.k", []),
        ("gains.gamma_freq", ["controller.variant=stacked_multi", "controller.n_star=2"]),
        ("controller.freq_hat0", ["controller.variant=stacked_multi", "controller.n_star=2"]),
        ("trajectory.offset", []),
        ("disturbance.bias", []),
    ], ids=lambda v: v if isinstance(v, str) else None)
    def test_one_entry_serves_every_channel(self, run_config, tmp_path, capsys, key, setting,
                                            entries, code):
        # n = 2 joints, or n_star = 2 tones
        args = ["run", "--config", str(run_config), "--out", str(tmp_path / "o"), "--quiet",
                "--set", "run.duration=0.1"]
        for pair in setting + [f"{key}={entries}"]:
            args += ["--set", pair]
        assert main(args) == code
        if code:
            assert key in capsys.readouterr().err

    @pytest.mark.parametrize("command, overrides", [
        ("run", ["model.l1=1e200"]),  # l1**2 overflows
        ("run", ["model.m2=1e300", "model.l1=1e10"]),  # m2 l1^2 is infinite
        ("validate", ["model.l1=1e200"]),
        ("validate", ["model.m2=1e300", "model.l1=1e10"]),
    ], ids=lambda v: v if isinstance(v, str) else " ".join(v))
    def test_overflowing_model_exit_2(self, tmp_path, capsys, command, overrides):
        args = [command, "--config", str(RAMP_CFG), "--out", str(tmp_path / "o"),
                "--set", "run.duration=0.1"]
        for pair in overrides:
            args += ["--set", pair]
        assert main(args) == 2
        assert "lumped parameters" in capsys.readouterr().err

    @pytest.mark.parametrize("config, overrides, named", [
        ("tone_two", ["gains.hstar_rate=1e200"], "gains.hstar_rate"),
        ("tone_two", ["gains.hstar_rate=1e80"], "gains.hstar_rate"),  # ran on an inf coefficient
        ("tone_two", ["gains.alpha_star_star=1e200"], "gains.alpha_star_star"),
        ("tone_two", ["gains.kappa_star=1e200"], "gains.kappa_star"),
        ("tone_single", ["gains.alpha_star=1e200"], "gains.alpha_star"),
        ("tone_single", ["controller.variant=filtered_adaptive", "gains.alpha_star=1e200"],
         "gains.alpha_star"),
        ("tone_two", ["gains.alpha=1e100"], "gains.alpha, gains.kappa"),
        ("ramp_adaptive", ["gains.alpha=1e150"], "gains.alpha, gains.kappa"),
        ("ramp_adaptive", ["gains.alpha=1e200", "gains.kappa=1e200"], "gains.alpha, gains.kappa"),
        # finite derived coefficients whose product overflows in the compiled maps
        ("tone_single", ["gains.lam_corr=1e10", "gains.alpha_star=1e150"], "coefficients overflow"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
    def test_overflowing_gain_exit_2(self, tmp_path, capsys, config, overrides, named):
        # refused when built, naming the gains, and without a numpy warning,
        # which tier-1 turns into an error (exit 4)
        args = ["run", "--config", str(RAMP_CFG.parent / f"{config}.ini"),
                "--out", str(tmp_path / "o"), "--quiet", "--set", "run.duration=0.1"]
        for pair in overrides:
            args += ["--set", pair]
        assert main(args) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("overrides", [
        ["controller.freeze_freq=true"],
        ["controller.freq_hat0=1 2 3"],
        ["controller.variant=stacked_single", "controller.n_star=3"],
        ["controller.variant=plain", "controller.theta_hat0=auto:0.7"],
    ], ids=lambda overrides: " ".join(overrides))
    def test_option_the_variant_does_not_take_exit_2(self, run_config, tmp_path, overrides):
        # the run config's variant is adaptive, which takes only theta_hat0
        args = ["run", "--config", str(run_config), "--out", str(tmp_path / "o"), "--quiet"]
        for pair in overrides:
            args += ["--set", pair]
        assert main(args) == 2

    @pytest.mark.parametrize("override", ["run.duration=nan", "run.duration=inf", "run.dt=nan"])
    def test_non_finite_run_length_exit_2(self, run_config, tmp_path, override):
        code = main([
            "run", "--config", str(run_config), "--out", str(tmp_path / "o"), "--quiet",
            "--set", override,
        ])
        assert code == 2

    @pytest.mark.parametrize("overrides", [
        ["run.duration=1e300"],
        ["run.dt=1e-300", "run.duration=1"],
        ["run.dt=1e-300", "run.duration=1e300"],  # the step count overflows a float
    ], ids=lambda overrides: " ".join(overrides))
    def test_unallocatable_run_length_exit_2(self, tmp_path, capsys, overrides):
        args = ["run", "--config", str(RAMP_CFG), "--out", str(tmp_path / "o"), "--quiet"]
        for pair in overrides:
            args += ["--set", pair]
        assert main(args) == 2
        assert "run.duration / run.dt" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides", [
        ["model.m1=nan"],
        ["model.g0=inf"],
        ["run.q0=nan 0"],
        ["trajectory.offset=inf 0"],
        ["disturbance.bias=nan 0"],
        ["controller.theta_hat0=nan 1 1 1 1"],
        ["controller.theta_hat0=auto:nan"],
        ["controller.variant=stacked_single", "controller.freq_hat0=nan"],
        ["controller.variant=stacked_multi", "gains.hstar_den=abc 1"],
    ], ids=lambda overrides: overrides[-1])
    def test_non_finite_config_value_exit_2(self, tmp_path, overrides):
        # each of these used to run into a divergence (exit 3) or an
        # internal error (exit 4) instead of being refused when parsed
        args = ["run", "--config", str(RAMP_CFG), "--out", str(tmp_path / "o"), "--quiet",
                "--set", "run.duration=1"]
        for pair in overrides:
            args += ["--set", pair]
        assert main(args) == 2

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("name, dt, duration", [
        ("ramp_adaptive", "0.5", None),
        ("tone_two", "1", None),
        ("order_sweep", "1", None),
        ("tone_single", "1", None),
        ("pid_equivalence", "2", "100"),
    ])
    def test_divergent_configs_exit_3_without_warnings(self, tmp_path, name, dt, duration):
        # numpy's overflow and invalid-value warnings stay inside integrate
        args = ["run", "--config", str(RAMP_CFG.parent / f"{name}.ini"),
                "--out", str(tmp_path / "o"), "--quiet", "--set", f"run.dt={dt}"]
        if duration is not None:
            args += ["--set", f"run.duration={duration}"]
        assert main(args) == 3
        assert (tmp_path / "o" / "log.csv").exists()

    def test_divergent_run_exit_3(self, tmp_path):
        code = main([
            "run", "--out", str(tmp_path / "o"), "--quiet",
            "--set", "controller.variant=pid",
            "--set", "gains.kp=4000", "--set", "gains.kd=2",
            "--set", "run.dt=0.5", "--set", "run.duration=100",
        ])
        assert code == 3
        assert (tmp_path / "o" / "log.csv").exists()
        # a run that diverges within 9 steps still gets its metrics report
        out = tmp_path / "short"
        assert main(["run", "--config", str(RAMP_CFG), "--out", str(out), "--quiet",
                     "--set", "run.dt=0.5", "--set", "gains.k=1e9"]) == 3
        assert json.loads((out / "metrics.json").read_text())["diverged"] is True


class TestSweepCommand:
    def test_sweep_table(self, run_config, tmp_path):
        out = tmp_path / "sw"
        code = main([
            "sweep", "--config", str(run_config), "--out", str(out), "--quiet",
            "--axis", "ell", "--values", "1,2",
            "--set", "run.duration=1",
        ])
        assert code == 0
        rows = list(csv.DictReader(open(out / "sweep.csv")))
        assert [r["axis_value"] for r in rows] == ["1", "2"]

    def test_diverging_value_is_a_row(self, tmp_path):
        out = tmp_path / "sw"
        code = main([
            "sweep", "--config", str(RAMP_CFG.parent / "order_sweep.ini"), "--out", str(out),
            "--quiet", "--set", "run.duration=1", "--axis", "gain:k", "--values", "20,1e12",
        ])
        assert code == 0
        rows = list(csv.DictReader(open(out / "sweep.csv")))
        assert [r["diverged"] for r in rows] == ["0", "1"]

    def test_value_read_as_an_option_exit_2(self, run_config, tmp_path, capsys):
        # argparse reads "-1,2" as an option, so a negative first value is
        # written --values=-1,2; its usage error is an exit code, not SystemExit
        code = main([
            "sweep", "--config", str(run_config), "--out", str(tmp_path / "sw"),
            "--quiet", "--axis", "kappa", "--values", "-1,2",
        ])
        assert code == 2
        assert "expected one argument" in capsys.readouterr().err
        assert not (tmp_path / "sw").exists()

    def test_non_numeric_value_exit_2(self, run_config, tmp_path):
        code = main([
            "sweep", "--config", str(run_config), "--out", str(tmp_path / "sw"),
            "--quiet", "--axis", "ell", "--values", "a",
        ])
        assert code == 2

    @pytest.mark.parametrize("axis, values", [
        ("bogus", ""),
        ("gain:nosuch", ""),
        ("ell", "1,,2"),
        ("ell", "1,"),
    ])
    def test_bad_axis_or_empty_field_exit_2(self, run_config, tmp_path, axis, values):
        code = main([
            "sweep", "--config", str(run_config), "--out", str(tmp_path / "sw"),
            "--quiet", "--axis", axis, "--values", values,
        ])
        assert code == 2
        assert not (tmp_path / "sw" / "sweep.csv").exists()

    def test_empty_values(self, run_config, tmp_path):
        code = main([
            "sweep", "--config", str(run_config), "--out", str(tmp_path / "sw"),
            "--quiet", "--axis", "ell", "--values", "",
        ])
        assert code == 0


class TestPidCompare:
    def test_matched_equivalence(self, tmp_path):
        code = main([
            "pid-compare", "--out", str(tmp_path / "o"), "--quiet",
            "--set", "trajectory.kind=polynomial",
            "--set", "trajectory.coeffs=0.4 0.25 ; -0.2 0.15",
            "--set", "disturbance.bias=0.5 -0.3",
            "--set", "run.q0=0.2 -0.1",
            "--set", "run.duration=5",
        ])
        assert code == 0

    def test_unmatched_initialization_runs_both_laws(self, tmp_path):
        # matched_init belongs to the reformulated law; the textbook run
        # must not refuse it
        code = main([
            "pid-compare", "--out", str(tmp_path / "o"), "--quiet",
            "--set", "trajectory.kind=polynomial",
            "--set", "trajectory.coeffs=0.4 0.25 ; -0.2 0.15",
            "--set", "run.q0=0.2 -0.1",
            "--set", "run.duration=1",
            "--set", "controller.matched_init=false",
        ])
        assert code == 1  # the torques differ, but both runs completed


class TestPlotData:
    def test_series_files(self, run_config, tmp_path):
        out = tmp_path / "out"
        main(["run", "--config", str(run_config), "--out", str(out), "--quiet"])
        code = main([
            "plot-data", "--log", str(out / "log.csv"), "--out", str(out), "--quiet",
        ])
        assert code == 0
        for name in ("tracking_error.csv", "lyapunov.csv", "estimates.csv"):
            assert (out / name).exists()
        n_rows = len(open(out / "log.csv").read().splitlines())
        assert len(open(out / "tracking_error.csv").read().splitlines()) == n_rows

    def test_missing_log_exit_2(self, tmp_path):
        code = main(["plot-data", "--log", str(tmp_path / "nope.csv"), "--out", str(tmp_path)])
        assert code == 2

    @pytest.mark.parametrize("text", [
        b"q1,dq1,V,Vaux\n0.1,0.1,1,0\n",  # no t
        b"t,dq1,Vaux\n0,0.1,0\n",  # no V
        b"t,dq1,V\n0,0.1,1\n",  # no Vaux
        b"t,dq1,V,Vaux\n0,0.1,1,0\n0.1,abc,1,0\n",  # a non-numeric dq cell
        b"t,dq1,V,Vaux\n0,0.1,1,0\n0.1,0.2,1,\n",  # an empty cell
        b"t,dq1,V,Vaux\n0,0.1,1,0\n0.1,0.2,1\n",  # a short row
        b"t,dq1,V,Vaux\n0,0.1,1,\xe9\n",  # not UTF-8
    ])
    def test_malformed_log_exit_2_before_writing(self, tmp_path, text):
        log = tmp_path / "log.csv"
        log.write_bytes(text)
        out = tmp_path / "out"
        assert main(["plot-data", "--log", str(log), "--out", str(out), "--quiet"]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("text,names", [
        (b"t,V,Vaux\n0,1,0\n", "dq1"),  # no tracking error at all
        (b"t,q1,q2,dq1,V,Vaux\n0,0,0,0.1,1,0\n", "dq2"),  # one joint's missing
        (b"t,dq1,dq3,V,Vaux\n0,0.1,0.1,1,0\n", "dq2"),  # a gap
    ])
    def test_missing_dq_columns_exit_2(self, tmp_path, capsys, text, names):
        log = tmp_path / "log.csv"
        log.write_bytes(text)
        out = tmp_path / "out"
        assert main(["plot-data", "--log", str(log), "--out", str(out), "--quiet"]) == 2
        assert names in capsys.readouterr().err
        assert not out.exists()

    def test_directory_as_log_exit_2(self, tmp_path):
        out = tmp_path / "out"
        assert main(["plot-data", "--log", str(tmp_path), "--out", str(out), "--quiet"]) == 2
        assert not out.exists()


class TestHelp:
    def test_help_lists_schema_keys(self, capsys):
        assert main(["--help"]) == 0
        text = capsys.readouterr().out
        for key in ("gains", "kappa", "alpha_star", "csv_decimate", "variant", "tones"):
            assert key in text


class TestValidateCommand:
    def test_pristine_build_passes(self, capsys, tmp_path):
        code = main(["validate", "--out", str(tmp_path)])
        text = capsys.readouterr().out
        assert code == 0
        assert "[PASS]" in text and "[FAIL]" not in text

    def test_invalid_model_fails(self, capsys, tmp_path):
        # the suites run on the model built from the overrides, and a failed
        # suite is exit 1
        code = main(["validate", "--out", str(tmp_path), "--set", "model.i2=-1"])
        text = capsys.readouterr().out
        assert code == 1
        # an indefinite inertia has an unbounded condition number
        assert "[FAIL] inertia-positive-definite" in text
        assert "max condition number inf" in text

    def test_skew_suite_catches_flipped_coriolis(self):
        class FlippedArm(TwoLinkArm):
            def coriolis(self, q, qdot):
                return -super().coriolis(q, qdot)

        assert not suite_skew_symmetry(FlippedArm()).passed
        assert suite_skew_symmetry(TwoLinkArm()).passed

    def test_non_finite_measurements_fail(self, monkeypatch):
        # a NaN residual compares false against every tolerance, so taking
        # the worst case must keep it rather than drop it
        model = TwoLinkArm(ArmParams(m2=float("nan")))
        monkeypatch.setattr(validation, "oracle_realization_gaps",
                            lambda configs, *args: [float("nan")] * len(configs))
        with np.errstate(invalid="ignore", over="ignore"):
            results = [suite(model) for suite in validation._MODEL_SUITES]
            results.append(validation.suite_cascade_equivalence())
        assert len(results) == 6
        for result in results:
            assert not result.passed, result


# -- fuzzed malformed arguments: a configuration error, never an internal one --

# characters that no number, boolean, tone list, variant, estimate or
# trajectory kind holds, so text with one of them never parses
POISON = list("#$!?&~")
NUMBER_LIKE = list("0123456789.eE+- ")
NAME_LIKE = list("abcdefghijklmnopqrstuvwxyz_")
NON_FINITE = ["nan", "inf", "-inf", "1e999"]


def _pick(rng, items):
    return items[int(rng.integers(len(items)))]


def _garbage(rng, alphabet=NUMBER_LIKE):
    """Up to five characters of ``alphabet`` with a poison character among them."""
    chars = [_pick(rng, alphabet) for _ in range(int(rng.integers(0, 6)))]
    chars.insert(int(rng.integers(len(chars) + 1)), _pick(rng, POISON))
    return "".join(chars)


def _bad_value(rng, typ):
    if typ != "str" and rng.integers(2):
        value = _pick(rng, NON_FINITE)
        return f"{value}@2" if typ == "tones" else value
    return _garbage(rng)


def _malformed_set(rng):
    section = _pick(rng, sorted(SCHEMA))
    key = _pick(rng, sorted(SCHEMA[section]))
    form = int(rng.integers(5))
    if form == 0:
        return f"{section}.{key}{_garbage(rng)}"  # no '='
    if form == 1:
        return f"{key}={rng.uniform(0.5, 2.0)!r}"  # no section
    if form == 2:
        return f"{_garbage(rng, NAME_LIKE)}.{key}=1"
    if form == 3:
        return f"{section}.{_garbage(rng, NAME_LIKE)}=1"
    return f"{section}.{key}={_bad_value(rng, SCHEMA[section][key][0])}"


# a sweep axis and values it takes
AXES = {"ell": ["2", "3"], "kappa": ["1", "2.5"], "gain:k": ["5", "10", "20"]}


def _malformed_values(rng):
    axis = _pick(rng, sorted(AXES))
    fields = [_pick(rng, AXES[axis]) for _ in range(int(rng.integers(1, 4)))]
    bad = _pick(rng, ["", " ", _garbage(rng), _pick(rng, NON_FINITE)])
    fields.insert(int(rng.integers(len(fields) + 1)), bad)
    return axis, ",".join(fields)


@settings(max_examples=60)
@given(seed=SEEDS)
def test_malformed_arguments_exit_2(tmp_path_factory, seed):
    # malformed --set pairs of every form, among good ones, and sweep
    # values with a malformed field, all refused before any run
    rng = np.random.default_rng(seed)
    out = tmp_path_factory.getbasetemp() / "fuzz"
    pairs = [_malformed_set(rng)] + [f"run.duration={rng.uniform(0.5, 2.0)!r}"] * int(rng.integers(2))
    sets = [arg for pair in rng.permutation(pairs).tolist() for arg in ("--set", pair)]
    assert main(["run", "--config", str(CONFIGS / "order_sweep.ini"), "--out", str(out),
                 "--quiet", *sets]) == 2, sets
    axis, values = _malformed_values(rng)
    assert main(["sweep", "--config", str(CONFIGS / "order_sweep.ini"), "--out", str(out),
                 "--quiet", "--axis", axis, f"--values={values}"]) == 2, (axis, values)

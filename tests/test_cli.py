import csv
from pathlib import Path

import pytest

from refcascade.cli import main
from refcascade.manipulator import TwoLinkArm
from refcascade.validation import suite_skew_symmetry

RAMP_CFG = Path(__file__).resolve().parent.parent / "configs" / "ramp_adaptive.ini"


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

    def test_missing_config_exit_2(self, tmp_path):
        code = main(["run", "--config", str(tmp_path / "nope.ini"), "--out", str(tmp_path / "o")])
        assert code == 2

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
    ], ids=lambda overrides: overrides[-1])
    def test_non_finite_or_negative_gain_exit_2(self, run_config, tmp_path, overrides):
        args = ["run", "--config", str(run_config), "--out", str(tmp_path / "o"), "--quiet"]
        for pair in overrides:
            args += ["--set", pair]
        assert main(args) == 2

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


class TestHelp:
    def test_help_lists_schema_keys(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
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

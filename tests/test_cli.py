import csv

import pytest

from refcascade.cli import main


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
    ])
    def test_rejected_override_exit_2(self, run_config, tmp_path, overrides):
        args = ["run", "--config", str(run_config), "--out", str(tmp_path / "o"), "--quiet"]
        for pair in overrides:
            args += ["--set", pair]
        assert main(args) == 2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
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

    def test_flipped_coriolis_fails(self, capsys, tmp_path):
        code = main([
            "validate", "--out", str(tmp_path),
            "--set", "model.coriolis_sign=-1",
        ])
        text = capsys.readouterr().out
        assert code == 1
        assert "[FAIL] coriolis-skew-symmetry" in text

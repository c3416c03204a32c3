import json
import math

import numpy as np
import pytest

from hopfcap.cli import OUTPUT_DIR_ENV, main

CHECK_FIELDS = {
    "name", "lhs", "rhs", "abs_err", "rel_err", "tolerance", "passed", "policy", "context",
}

FAST = ["--orders", "24,12,24", "--t-grid", "0.1,0.2"]


def run_verify(tmp_path, *extra):
    out = tmp_path / "report.json"
    code = main(["verify", "--output", str(out), *FAST, *extra])
    return code, out


class TestVerifyCommand:
    def test_hopf_all_pass(self, tmp_path):
        code, out = run_verify(tmp_path, "--field", "hopf")
        assert code == 0
        reports = json.loads(out.read_text())
        assert isinstance(reports, list) and reports
        for r in reports:
            assert set(r) == CHECK_FIELDS
            assert r["passed"] is True

    def test_perturbed_all_pass(self, tmp_path):
        code, out = run_verify(tmp_path, "--field", "perturbed", "--amplitude", "0.5")
        assert code == 0
        names = [r["name"] for r in json.loads(out.read_text())]
        assert "boundary_sigma2_integral" in names
        assert "image_volume_t0.1" in names

    def test_twisted_perturbed_passes_without_image_volume(self, tmp_path):
        code, out = run_verify(
            tmp_path, "--field", "perturbed", "--amplitude", "1.2",
            "--exponent", "2", "--twist", "angular",
        )
        assert code == 0
        names = [r["name"] for r in json.loads(out.read_text())]
        assert not any(n.startswith("image_volume") for n in names)

    def test_failure_exit_code(self, tmp_path):
        code, out = run_verify(
            tmp_path, "--field", "hopf", "--mode", "fd", "--sigma-tol", "1e-14"
        )
        assert code == 1
        assert any(not r["passed"] for r in json.loads(out.read_text()))

    def test_invalid_radius_exit_two(self, tmp_path):
        code, _ = run_verify(tmp_path, "--cap-radius", "3.2")
        assert code == 2

    def test_unknown_flag_exit_two(self):
        assert main(["verify", "--no-such-flag"]) == 2

    def test_missing_subcommand_exit_two(self):
        assert main([]) == 2

    def test_deterministic_output(self, tmp_path):
        _, out1 = run_verify(tmp_path, "--field", "perturbed", "--amplitude", "0.3")
        text1 = out1.read_text()
        out1.unlink()
        _, out2 = run_verify(tmp_path, "--field", "perturbed", "--amplitude", "0.3")
        assert text1 == out2.read_text()

    def test_output_dir_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path))
        code = main(["verify", "--field", "hopf", *FAST])
        assert code == 0
        assert (tmp_path / "verify.json").exists()
        assert capsys.readouterr().out == ""


class TestFunctionalsCommand:
    def test_hopf_half_sphere_values(self, tmp_path):
        out = tmp_path / "f.json"
        code = main([
            "functionals", "--field", "hopf", "--cap-radius", str(math.pi / 2),
            "--orders", "32,16,32", "--output", str(out),
        ])
        assert code == 0
        rows = json.loads(out.read_text())
        assert rows["energy"] == pytest.approx(2.5 * math.pi**2, rel=1e-10)
        assert rows["volume"] == pytest.approx(2 * math.pi**2, rel=1e-10)
        assert rows["energy_surplus"] == pytest.approx(0.0, abs=1e-9)

    def test_zero_amplitude_matches_hopf(self, tmp_path):
        outs = []
        for i, args in enumerate(
            [["--field", "hopf"], ["--field", "perturbed", "--amplitude", "0"]]
        ):
            out = tmp_path / f"f{i}.json"
            main(["functionals", *args, "--orders", "24,12,24", "--output", str(out)])
            outs.append(json.loads(out.read_text()))
        for key in ("energy", "volume", "hopf_energy", "hopf_volume"):
            assert outs[0][key] == outs[1][key]

    def test_csv_format(self, tmp_path):
        out = tmp_path / "f.csv"
        code = main([
            "functionals", "--field", "hopf", "--orders", "24,12,24",
            "--format", "csv", "--output", str(out),
        ])
        assert code == 0
        header, values = out.read_text().strip().splitlines()
        assert header.split(",")[:2] == ["field", "energy"]
        assert len(values.split(",")) == len(header.split(","))

    def test_stdout_by_default(self, capsys):
        code = main(["functionals", "--field", "hopf", "--orders", "24,12,24"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["field"] == "hopf"


class TestSweepCommand:
    def test_default_grid(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main([
            "sweep", "--orders", "24,12,24",
            "--amplitudes=-0.5,-0.25,0,0.25,0.5", "--output", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "amplitude,energy,volume"
        data = [line.split(",") for line in lines[1:] if not line.startswith("#")]
        assert len(data) == 5
        assert all(len(row) == 3 for row in data)
        footer = lines[-1]
        assert footer.startswith("#")
        assert "argmin_energy=0.0" in footer
        assert "argmin_volume=0.0" in footer

    def test_single_point_grid(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--orders", "16,8,16", "--amplitudes", "0", "--output", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len([l for l in lines[1:] if not l.startswith("#")]) == 1

    def test_grid_without_zero_rejected(self):
        assert main(["sweep", "--amplitudes", "0.25,0.5"]) == 2


@pytest.fixture
def no_compute(monkeypatch):
    """Fail the test if a command gets as far as evaluating a field."""

    def refuse(*_args, **_kwargs):
        raise AssertionError("heavy work started before input validation")

    monkeypatch.setattr("hopfcap.cli.run_all", refuse)
    monkeypatch.setattr("hopfcap.cli.energy_and_volume", refuse)
    monkeypatch.setattr("hopfcap.cli.sweep_family", refuse)


class TestInputValidation:
    def test_orders_need_three_entries(self, tmp_path, no_compute, capsys):
        code, out = run_verify(tmp_path, "--orders", "8,8,8,8")
        assert code == 2
        assert "3 entries" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_output_directory(self, tmp_path, no_compute):
        out = tmp_path / "missing" / "x.json"
        assert main(["verify", "--output", str(out), *FAST]) == 2
        assert main(["functionals", "--output", str(out)]) == 2
        assert main(["sweep", "--output", str(out)]) == 2

    def test_missing_output_dir_env(self, tmp_path, monkeypatch, no_compute):
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path / "missing"))
        assert main(["verify", *FAST]) == 2

    def test_verify_rejects_csv(self, tmp_path, no_compute):
        code, out = run_verify(tmp_path, "--format", "csv")
        assert code == 2
        assert not out.exists()

    def test_sweep_rejects_json(self, tmp_path, no_compute):
        assert main(["sweep", "--format", "json", "--output", str(tmp_path / "s.json")]) == 2

    def test_offset_out_of_range(self, tmp_path, no_compute):
        code, _ = run_verify(tmp_path, "--t-grid", "0.1,0.6")
        assert code == 2

    def test_functionals_rejects_verify_flags(self, no_compute, capsys):
        assert main(["functionals", "--t-grid", "0.4", "--integral-tol", "5"]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_sweep_rejects_field_flags(self, no_compute, capsys):
        argv = ["sweep", "--field", "small-cap", "--amplitude", "9", "--axis", "0,0,1,0"]
        assert main(argv) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flag",
        [(c, f) for c in ("functionals", "sweep")
         for f in ("--t-grid=0.1", "--sigma-tol=1", "--integral-tol=1", "--bound-tol=1",
                   "--det-floor=1")]
        + [("sweep", f) for f in ("--field=hopf", "--amplitude=1", "--axis=0,0,1,0")],
    )
    def test_flag_not_read_is_rejected(self, command, flag, no_compute):
        assert main([command, flag]) == 2


class TestSmallCapFlags:
    """verify --field small-cap runs the counterexample on the cap and rule it is given."""

    def small_cap(self, tmp_path, *extra):
        out = tmp_path / "small.json"
        code = main(["verify", "--field", "small-cap", "--output", str(out), *extra])
        reports = {r["name"]: r for r in json.loads(out.read_text())} if out.exists() else {}
        return code, reports

    def test_cap_radius_is_honoured(self, tmp_path):
        code, reports = self.small_cap(tmp_path, "--cap-radius", "0.3", "--orders", "16,8,16")
        assert code == 0
        rep = reports["small_cap_energy_below_hopf"]
        assert rep["context"]["cap_radius"] == 0.3
        assert rep["lhs"] == pytest.approx(2.5 * (0.3 - math.sin(0.6) / 2) * 2 * math.pi)

    def test_orders_are_honoured(self, tmp_path):
        code, reports = self.small_cap(tmp_path, "--cap-radius", "0.3", "--orders", "16,8,16")
        assert code == 0
        assert all(r["context"]["orders"] == [16, 8, 16] for n, r in reports.items() if n.startswith("small"))

    def test_montecarlo_rejected(self, tmp_path, no_compute, capsys):
        code, reports = self.small_cap(tmp_path, "--rule", "montecarlo", "--samples", "5000")
        assert code == 2 and not reports
        assert "Gauss rules only" in capsys.readouterr().err

    def test_default_radius_fails_mean_gradient(self, tmp_path):
        # On the unit-radius cap the mean |grad v|^2 (about 0.2 r^2) exceeds 0.1.
        code, reports = self.small_cap(tmp_path, "--orders", "16,8,16")
        assert code == 1
        assert [n for n, r in reports.items() if not r["passed"]] == ["small_cap_mean_gradient_sq"]
        assert reports["small_cap_mean_gradient_sq"]["lhs"] == pytest.approx(0.217, abs=0.005)


def _strict_loads(text):
    def reject(constant):
        raise ValueError(f"non-finite {constant} in JSON")

    return json.loads(text, parse_constant=reject)


class TestStrictReports:
    def test_det_floor_rejection_is_null(self, tmp_path):
        code, out = run_verify(
            tmp_path, "--field", "perturbed", "--amplitude", "3.0", "--t-grid", "0.5"
        )
        assert code == 1
        report = {r["name"]: r for r in _strict_loads(out.read_text())}["image_volume_t0.5"]
        assert report["passed"] is False
        assert report["lhs"] is None
        assert report["abs_err"] is None and report["rel_err"] is None
        assert "below the floor" in report["context"]["det_floor_rejection"]

    def test_sweep_exit_one_when_minimality_fails(self, tmp_path, monkeypatch):
        from hopfcap import SweepResult

        amps = np.array([0.0, 0.5])

        def off_center_sweep(*_args, **_kwargs):
            return SweepResult(
                amplitudes=amps,
                energies=np.array([2.0, 1.0]),
                volumes=np.array([2.0, 1.0]),
                argmin_energy=1,
                argmin_volume=1,
                refined_energy_min=0.5,
                refined_volume_min=0.5,
            )

        monkeypatch.setattr("hopfcap.cli.sweep_family", off_center_sweep)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--orders", "16,8,16", "--output", str(out)]) == 1
        assert "argmin_energy=0.5" in out.read_text()

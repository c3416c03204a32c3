import argparse
import ctypes
import json
import math
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hopfcap.cli import _build_parser, _openblas, _stop_idle_blas_pool, main
from hopfcap.quadrature import build_gauss_rule

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(__file__).resolve().parents[1] / "src"

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
        reports = {r["name"]: r for r in json.loads(out.read_text())}
        assert "boundary_sigma2_integral" in reports
        assert "image_volume_t0.1" in reports
        oracle = reports["ad_fd_jet_agreement"]
        assert oracle["passed"] is True and oracle["lhs"] <= 1e-8

    def test_twisted_perturbed_passes_without_image_volume(self, tmp_path):
        # A twisted field reads no offsets, so FAST's --t-grid is left out.
        out = tmp_path / "report.json"
        code = main([
            "verify", "--output", str(out), "--orders", "24,12,24", "--field", "perturbed",
            "--amplitude", "1.2", "--exponent", "2", "--twist", "angular",
        ])
        assert code == 0
        names = [r["name"] for r in json.loads(out.read_text())]
        assert not any(n.startswith("image_volume") for n in names)

    def test_failure_exit_code(self, tmp_path):
        # t = 0.5 folds the map of a large bump: its image-volume row fails.
        code, out = run_verify(
            tmp_path, "--field", "perturbed", "--amplitude", "3.0", "--t-grid", "0.5"
        )
        assert code == 1
        assert any(not r["passed"] for r in json.loads(out.read_text()))

    def test_negative_zero_offset_names_its_row_t0(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["verify", "--field", "hopf", "--orders", "16,8,16", "--t-grid=-0", "--output", str(out)])
        assert code == 0
        rows = [r for r in json.loads(out.read_text()) if r["name"].startswith("image_volume")]
        assert [r["name"] for r in rows] == ["image_volume_t0"]
        assert math.copysign(1.0, rows[0]["context"]["t"]) == 1.0

    @pytest.mark.parametrize("radius", ["1e-5", "1e-6", "1e-8"])
    def test_hopf_passes_on_a_tiny_cap(self, tmp_path, radius):
        # vol(K) = pi (2r - sin 2r) cancels on a tiny cap: written out, it
        # failed energy_bound and volume_bound at 1e-5 and was 0.0 at 1e-8.
        out = tmp_path / "report.json"
        argv = ["verify", "--field", "hopf", "--cap-radius", radius, "--orders", "16,8,16"]
        assert main([*argv, "--output", str(out)]) == 0

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

    def test_no_environment_variable_redirects_the_report(self, tmp_path, monkeypatch, capsys):
        # Without --output the report goes to stdout; HOPFCAP_OUTPUT_DIR
        # used to send it to a file in that directory instead.
        monkeypatch.setenv("HOPFCAP_OUTPUT_DIR", str(tmp_path))
        assert main(["functionals", "--orders", "16,8,16"]) == 0
        assert set(json.loads(capsys.readouterr().out)) >= {"energy", "volume"}
        assert list(tmp_path.iterdir()) == []

    def test_montecarlo_on_a_tiny_cap(self, capsys):
        # The radial CDF's 2 rho - sin 2 rho was 0 on this cap, so every
        # Monte Carlo node was NaN and the command crashed (exit 3).
        argv = ["functionals", "--field", "perturbed", "--rule", "montecarlo", "--cap-radius", "1e-9"]
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert math.isfinite(report["energy"]) and report["energy"] > 0.0

    def test_stdout_by_default(self, capsys):
        code = main(["functionals", "--field", "hopf", "--orders", "24,12,24"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["field"] == "hopf"


class TestBoundedMemory:
    def test_million_nodes_within_80_mb(self):
        # 128 * 64 * 128 = 1 048 576 nodes.  The rule builds its nodes and
        # weights one block at a time and the jet is reduced inside each
        # block, so no array is as long as the rule: the peak (about 40 MB,
        # of which the interpreter is about 29 MB) does not grow with the
        # orders.  A fresh process reports its own peak (MB = 1e6 bytes, as
        # bench/child.py counts): Linux's VmHWM, the peak of its own address
        # space.  Its ru_maxrss would count this test process's resident set
        # too, which a child started by vfork carries through exec.
        child = (
            "import os, resource, sys\n"
            "from hopfcap.cli import main\n"
            "code = main(['functionals', '--field', 'perturbed', '--orders', '128,64,128'])\n"
            "peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "if os.path.exists('/proc/self/status'):\n"
            "    peak = next(int(l.split()[1]) for l in open('/proc/self/status') if l.startswith('VmHWM'))\n"
            "print('maxrss_kb', peak, file=sys.stderr)\n"
            "sys.exit(code)\n"
        )
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", child],
            capture_output=True, text=True, timeout=300, env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["field"] == "perturbed"
        peak_mb = int(re.search(r"maxrss_kb (\d+)", proc.stderr).group(1)) * 1024 / 1e6
        assert peak_mb <= 80.0


@pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallopt"), reason="needs the C library's mallopt")
def test_jet_blocks_reuse_freed_memory():
    # Each of the sweep's 9 jets allocates and frees the same block
    # temporaries.  Under glibc's default policy every block faults its
    # pages in again (about 29 000 minor faults for this command); with the
    # freed memory kept mapped it takes about 1 800.
    child = (
        "import contextlib, io, resource, sys\n"
        "from hopfcap.cli import main\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['sweep', '--orders', '32,16,32'])\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        "sys.exit(code)\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", child],
        capture_output=True, text=True, timeout=300, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) <= 15_000


def test_same_report_without_mallopt(monkeypatch, capsys):
    # A C library without mallopt keeps its own allocator policy; the
    # command still runs and prints the same bytes.
    argv = ["functionals", "--field", "perturbed", "--orders", "16,8,16"]
    assert main(argv) == 0
    expected = capsys.readouterr().out
    monkeypatch.setattr("hopfcap.cli._c_library", lambda: object())
    assert main(argv) == 0
    assert capsys.readouterr().out == expected


def _run_with_two_blas_threads(child: str) -> str:
    """Run ``child`` in a fresh interpreter allowed two BLAS threads; its stdout."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "2"}
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.skipif((os.cpu_count() or 1) < 2 or _openblas() is None, reason="needs two CPUs and numpy's OpenBLAS")
def test_no_blas_worker_spins_during_a_command():
    # A threaded product right before main leaves an OpenBLAS worker
    # busy-waiting for about 125 ms, longer than these three commands take.
    # main stops the idle pool first, so the other threads' CPU (the
    # process's CPU time minus this thread's) stays near zero; without that
    # it is about as large as the calling thread's own.
    child = (
        "import contextlib, io, time\n"
        "import numpy as np\n"
        "from hopfcap.cli import main\n"
        "a = np.ones((600, 600))\n"
        "a @ a\n"
        "process0, own0 = time.process_time(), time.thread_time()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for argv in (['verify', '--field', 'perturbed'], ['functionals'], ['sweep']):\n"
        "        assert main([*argv, '--orders', '16,8,16']) == 0\n"
        "own = time.thread_time() - own0\n"
        "print(own, time.process_time() - process0 - own)\n"
    )
    own, other = map(float, _run_with_two_blas_threads(child).split())
    assert other <= 0.1 * own, (own, other)


def test_blas_works_after_main():
    # The next threaded call starts the stopped pool again, with the same
    # bits; stopping a pool that is already stopped does nothing.
    child = (
        "import contextlib, io\n"
        "import numpy as np\n"
        "from hopfcap.cli import _stop_idle_blas_pool, main\n"
        "a = np.sin(np.arange(360_000.0)).reshape(600, 600)\n"
        "before = a @ a\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['functionals', '--orders', '16,8,16']) == 0\n"
        "after = a @ a\n"
        "_stop_idle_blas_pool()\n"
        "_stop_idle_blas_pool()\n"
        "print(np.array_equal(before, after), np.array_equal(before, a @ a))\n"
    )
    assert _run_with_two_blas_threads(child).split() == ["True", "True"]


@pytest.mark.parametrize("found", [None, object()], ids=["no-object", "no-symbol"])
def test_blas_pool_left_alone_without_openblas(found, monkeypatch, capsys):
    # Without numpy's OpenBLAS object, or without its shutdown symbol, the
    # pool is left as it is and the command prints the same bytes.
    argv = ["functionals", "--field", "perturbed", "--orders", "16,8,16"]
    assert main(argv) == 0
    expected = capsys.readouterr().out
    monkeypatch.setattr("hopfcap.cli._openblas", lambda: found)
    assert _stop_idle_blas_pool() is None
    assert main(argv) == 0
    assert capsys.readouterr() == (expected, "")


def _openblas_on_x86_64() -> bool:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return platform.machine().lower() in ("x86_64", "amd64") and "openblas" in str(blas.get("name"))


@pytest.mark.skipif(not _openblas_on_x86_64(), reason="needs OpenBLAS on x86-64")
def test_report_bytes_do_not_depend_on_the_blas_kernel():
    # The same commands in child processes under the kernel OpenBLAS picks
    # for this CPU and under its oldest x86-64 kernel print the same bytes.
    # On an off-centre cap every node mixes the center and all three tangent
    # vectors, so a rule built with a BLAS product would differ here.
    off_centre = "--cap-center=0.32163376045133846,-0.5360562674188974,0.7504787743864564,0.214422506967559"
    commands = [
        (0, ["verify", "--field", "perturbed", "--amplitude", "0.5", "--orders", "32,16,32",
             "--axis", "0,0.6,0.8,0"]),
        (0, ["sweep", "--orders", "32,16,32"]),
        (0, ["verify", "--field", "small-cap", "--cap-radius", "0.3", "--orders", "16,8,16"]),
        (0, ["functionals", "--field", "perturbed", "--rule", "montecarlo", "--samples", "20000",
             "--seed", "3", "--axis", "0,0.6,0.8,0"]),
        # Exit 1: Monte Carlo rows are held to Gauss tolerances, and the
        # perturbed field's sigma and image-volume rows miss them.
        (1, ["verify", "--field", "perturbed", "--rule", "montecarlo", "--seed", "1", off_centre]),
        (0, ["verify", "--field", "perturbed", "--orders", "24,12,24", "--axis", "0,0.6,0.8,0", off_centre]),
    ]
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env.update(PYTHONPATH=path, OPENBLAS_NUM_THREADS="1")
    for code, argv in commands:
        outputs = []
        for kernel in ({}, {"OPENBLAS_CORETYPE": "Prescott"}):
            proc = subprocess.run(
                [sys.executable, "-m", "hopfcap.cli", *argv],
                capture_output=True, timeout=300, env={**env, **kernel},
            )
            assert proc.returncode == code, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1], argv


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--field", "perturbed", "--orders", "16,8,16"],
        ["verify", "--rule", "montecarlo", "--samples", "2000"],
        ["functionals"],
        ["sweep"],
    ],
    ids=["verify-gauss", "verify-montecarlo", "functionals", "sweep"],
)
def test_commands_do_not_load_numpy_random(argv):
    # Every seeded sample comes from the interpreter's own generator;
    # loading numpy's would add about 6 MB to the peak resident set.
    child = (
        "import contextlib, io, sys\n"
        "from hopfcap.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main({argv!r})\n"
        "print('numpy.random' in sys.modules)\n"
        "sys.exit(code)\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", child],
        capture_output=True, text=True, timeout=300, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


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

    # The grid rows of `sweep --orders 16,8,16`: the refinement adds
    # amplitudes but changes none of these bytes.
    GRID_ROWS = (
        "amplitude,energy,volume\n"
        "-1.0,10.291746393356267,7.94096799951397\n"
        "-0.5,8.997705081718916,7.138059732193062\n"
        "-0.25,8.674194753809576,6.924848001868876\n"
        "0.0,8.566357977839798,6.8530863822718295\n"
        "0.25,8.674194753809576,6.924848001868876\n"
        "0.5,8.997705081718916,7.138059732193062\n"
        "1.0,10.291746393356268,7.94096799951397\n"
    )

    def test_grid_rows_and_refined_footer(self, capsys):
        assert main(["sweep", "--orders", "16,8,16"]) == 0
        rows, footer = capsys.readouterr().out.rsplit("#", 1)
        assert rows == self.GRID_ROWS
        # The refinement returns the grid's exact 0 on the even family,
        # whatever the roundoff, and on the twisted family as well.
        refined = " refined_energy_min=0.0 refined_volume_min=0.0\n"
        assert footer == " argmin_energy=0.0 argmin_volume=0.0" + refined
        assert main(["sweep", "--orders", "16,8,16", "--twist", "angular"]) == 0
        assert capsys.readouterr().out.endswith(refined)

    def test_single_point_grid(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--orders", "16,8,16", "--amplitudes", "0", "--output", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len([l for l in lines[1:] if not l.startswith("#")]) == 1

    def test_negative_zero_amplitude_prints_zero(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--orders", "16,8,16", "--amplitudes=-0,0.5", "--output", str(out)])
        assert code == 0
        text = out.read_text()
        assert text.splitlines()[1].startswith("0.0,")
        assert "argmin_energy=0.0 argmin_volume=0.0 " in text
        assert "-0" not in text

    def test_grid_without_zero_rejected(self, no_compute, capsys):
        # 1e-9 is close to 0 but its bump field is not the Hopf field.
        for grid in ("0.25,0.5", "1e-9,0.5"):
            assert main(["sweep", "--amplitudes", grid]) == 2
            assert "must include 0" in capsys.readouterr().err


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
        # A file in a missing directory, an existing directory, the empty
        # name and a name too long for the file system are all rejected
        # before any field is evaluated.
        too_long = str(tmp_path / ("a" * 300 + ".json"))
        for out in (str(tmp_path / "missing" / "x.json"), str(tmp_path), "", too_long):
            assert main(["verify", "--output", out, *FAST]) == 2
            assert main(["functionals", "--output", out]) == 2
            assert main(["sweep", "--output", out]) == 2

    def test_existing_output_keeps_its_bytes_on_bad_input(self, tmp_path, no_compute):
        # The output probe opens the file for appending; a run that then
        # exits 2 leaves an existing file as it was.
        out = tmp_path / "report.json"
        out.write_bytes(b"earlier report\n")
        assert main(["verify", "--output", str(out), *FAST, "--orders", "8,8,8,8"]) == 2
        assert main(["functionals", "--output", str(out), "--exponent", "1"]) == 2
        assert out.read_bytes() == b"earlier report\n"

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

    @pytest.mark.parametrize("mode", ["ad", "fd"])
    @pytest.mark.parametrize("command", ["verify", "functionals", "sweep"])
    def test_mode_flag_is_gone(self, command, mode, no_compute, capsys):
        # Every report carries the AD-against-FD oracle row; there is no
        # whole-run FD mode.
        assert main([command, "--mode", mode]) == 2
        assert "unrecognized arguments: --mode" in capsys.readouterr().err

    def test_sweep_rejects_field_flags(self, no_compute, capsys):
        argv = ["sweep", "--field", "small-cap", "--amplitude", "9", "--axis", "0,0,1,0"]
        assert main(argv) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flag",
        [(c, f) for c in ("verify", "functionals", "sweep")
         for f in ("--sigma-tol=1", "--integral-tol=1", "--bound-tol=1", "--det-floor=1")]
        + [(c, "--t-grid=0.1") for c in ("functionals", "sweep")]
        + [("sweep", f) for f in ("--field=hopf", "--amplitude=1", "--axis=0,0,1,0")],
    )
    def test_flag_not_read_is_rejected(self, command, flag, no_compute):
        assert main([command, flag]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--field", "hopf", "--amplitude", "9"],
            ["verify", "--field", "hopf", "--exponent", "7"],
            ["verify", "--field", "hopf", "--twist", "angular"],
            ["functionals", "--field", "small-cap", "--amplitude", "2"],
            ["functionals", "--field", "small-cap", "--axis", "0,0,1,0"],
            ["verify", "--field", "small-cap", "--t-grid", "0.1"],
            ["sweep", "--samples", "7"],
            ["functionals", "--rule", "montecarlo", "--samples", "5000", "--orders", "8,8,8,8"],
            ["verify", "--field", "perturbed", "--twist", "angular", "--t-grid", "0.1"],
        ],
    )
    def test_flag_the_field_or_rule_ignores_is_rejected(self, argv, no_compute, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        if argv[-2] == "--t-grid":
            # Offsets are the configuration's: VerifyConfig names the field
            # and its twist.
            twist = "angular" if "angular" in argv else "none"
            assert f"field {argv[2]!r} with twist {twist!r} has no image-volume rows" in err
        else:
            # The error names the flag as typed.
            assert f"{argv[-2]} not read by" in err

    @pytest.mark.parametrize(
        "argv",
        [["sweep", "--exponent", "1"], ["functionals", "--field", "perturbed", "--exponent", "1"]],
        ids=["sweep", "functionals"],
    )
    def test_bad_exponent_rejected(self, argv, no_compute, capsys):
        assert main(argv) == 2
        assert "exponent must be >= 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["verify", "--cap-center", "nan,0,0,0", "--orders", "16,8,16"], "nan"),
            (["functionals", "--cap-center", "nan,0,0,0", "--orders", "16,8,16"], "nan"),
            (["verify", "--field", "perturbed", "--amplitude", "nan", "--orders", "16,8,16"], "nan"),
            (["functionals", "--field", "perturbed", "--amplitude", "inf", "--orders", "16,8,16"], "inf"),
            (["verify", "--field", "hopf", "--axis", "0,nan,0,0", "--orders", "16,8,16"], "nan"),
            (["sweep", "--amplitudes", "nan,0", "--orders", "16,8,16"], "nan"),
            (["verify", "--orders", "8,4,8"], "(8, 4, 8)"),
            (["functionals", "--orders", "12,6,12"], "(12, 6, 12)"),
            # Offsets whose rows would share a name (-0 is 0), and a repeated
            # amplitude (-0 is 0), whose refinement bracket would have zero width.
            (["verify", "--field", "perturbed", "--orders", "16,8,16", "--t-grid", "0.1,0.1000001"],
             "'image_volume_t0.1', 'image_volume_t0.1'"),
            (["sweep", "--orders", "16,8,16", "--amplitudes", "0,0,0.5"], "repeats"),
            (["sweep", "--orders", "16,8,16", "--amplitudes=-0,0,0.5"], "repeats"),
            (["verify", "--field", "hopf", "--orders", "16,8,16", "--t-grid=0,-0"],
             "'image_volume_t0', 'image_volume_t0'"),
            # The theta weights miss 2 by 7.9e-6 at n_theta = 4 on every cap.
            (["verify", "--field", "hopf", "--cap-radius", "0.01", "--orders", "4,4,4"], "(4, 4, 4)"),
            (["functionals", "--cap-radius", "0.01", "--orders", "8,4,8"], "(8, 4, 8)"),
            # One draw of the standard library's generator holds at most
            # 33 554 431 words: 3 per sample.
            (["functionals", "--rule", "montecarlo", "--samples", "11184811"], "at most 11184810"),
            # An axis or a cap centre that is not a 4-vector.
            (["verify", "--field", "hopf", "--axis", "0,1,0", "--orders", "16,8,16"],
             "axis must be a 4-vector quaternion"),
            (["functionals", "--cap-center", "1,0,0", "--orders", "16,8,16"],
             "SpherePoint needs a 4-vector, got shape (3,)"),
            # Caps whose volume is not a normal float: the checks failed
            # (exit 1), the energy read 0.0 (exit 0), or a division by the
            # volume crashed (exit 3).
            (["verify", "--field", "hopf", "--orders", "16,8,16", "--cap-radius", "1e-106"],
             "cap radius 1e-106 is too small"),
            (["functionals", "--field", "hopf", "--rule", "montecarlo", "--cap-radius", "1e-200"],
             "cap radius 1e-200 is too small"),
            (["verify", "--field", "small-cap", "--cap-radius", "1e-110", "--orders", "16,8,16"],
             "cap radius 1e-110 is too small"),
        ],
    )
    def test_bad_value_exits_two_naming_it(self, argv, named, no_compute, capsys):
        # Non-finite values and orders too low for the rule are input errors.
        assert main(argv) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["functionals", "--field", "perturbed", "--amplitude", "1e300", "--orders", "16,8,16"],
            ["sweep", "--amplitudes", "0,1e300", "--orders", "16,8,16"],
        ],
        ids=["functionals", "sweep"],
    )
    def test_huge_amplitude_exits_two(self, argv, no_compute, capsys):
        # A finite amplitude beyond the bump family's bound is bad input,
        # not an overflow in the jet.
        assert main(argv) == 2
        assert "1e+300" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["verify", "--seed", "x"], "--seed: seed must be a non-negative integer, got 'x'"),
            (["functionals", "--seed", "1.5"], "--seed: seed must be a non-negative integer, got '1.5'"),
            (["verify", "--orders", "x"], "--orders: expected comma-separated integers, got 'x'"),
            (["sweep", "--orders", "32,16.5,32"], "--orders: expected comma-separated integers, got '32,16.5,32'"),
            (["functionals", "--cap-center", "1,a,0,0"], "--cap-center: expected comma-separated numbers, got '1,a,0,0'"),
            (["sweep", "--amplitudes", "0,,1"], "--amplitudes: expected comma-separated numbers, got '0,,1'"),
            (["verify", "--t-grid", "0.1;0.2"], "--t-grid: expected comma-separated numbers, got '0.1;0.2'"),
        ],
        ids=["seed", "seed-float", "orders", "orders-float", "cap-center", "amplitudes", "t-grid"],
    )
    def test_malformed_value_names_the_expected_form(self, argv, expected, no_compute, capsys):
        # argparse would name the private type function ("invalid _seed value").
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"argument {expected}" in err and "invalid" not in err

    @pytest.mark.parametrize("rule", [[], ["--rule", "montecarlo"]], ids=["gauss", "montecarlo"])
    @pytest.mark.parametrize("command", ["verify", "functionals", "sweep"])
    def test_negative_seed_exits_two(self, command, rule, no_compute, capsys):
        # The stdlib generator would silently draw seed 1's sample for -1.
        assert main([command, "--seed", "-1", *rule]) == 2
        assert "seed must be a non-negative integer, got -1" in capsys.readouterr().err


class TestUnexpectedErrors:
    def test_crash_exits_three(self, monkeypatch, capsys):
        def crash(*_args, **_kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr("hopfcap.cli.run_all", crash)
        assert main(["verify", "--orders", "16,8,16"]) == 3
        err = capsys.readouterr().err
        assert "Traceback" in err and "RuntimeError: boom" in err

    def test_value_error_in_compute_exits_three(self, monkeypatch, capsys):
        # Input is validated before the computation starts, so a ValueError
        # raised inside it (say integrate's non-finite guard) is a crash.
        def compute_error(*_args, **_kwargs):
            raise ValueError("non-finite integrand value")

        monkeypatch.setattr("hopfcap.cli.run_all", compute_error)
        assert main(["verify", "--orders", "16,8,16"]) == 3
        assert "ValueError: non-finite integrand value" in capsys.readouterr().err


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

    def test_main_cap_rule_built_once(self, tmp_path, monkeypatch):
        built = []

        def counting(cap, *orders):
            built.append((cap.radius, orders))
            return build_gauss_rule(cap, *orders)

        for module in ("hopfcap.cli", "hopfcap.checks"):
            monkeypatch.setattr(f"{module}.build_gauss_rule", counting)
        code, _ = self.small_cap(tmp_path, "--cap-radius", "0.3", "--orders", "16,8,16")
        assert code == 0
        # The main cap, built by the CLI, then one rule per scaling radius.
        assert built == [(r, (16, 8, 16)) for r in (0.3, 0.05, 0.1, 0.2)]

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


def subcommand_parsers():
    """The parser of each subcommand, by name."""
    return next(
        a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ).choices


def test_no_option_has_a_single_choice():
    """An option with one allowed value could only ever be set to its default."""
    single = [
        (name, action.option_strings)
        for name, p in subcommand_parsers().items()
        for action in p._actions
        if action.choices is not None and len(action.choices) == 1
    ]
    assert single == []


class TestReadme:
    """README's CLI section lists exactly the flags the parser defines."""

    def test_cli_section_matches_parser(self):
        text = README.read_text()
        section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
        documented = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
        defined = {
            name: {
                opt
                for action in p._actions
                if not isinstance(action, argparse._HelpAction)
                for opt in action.option_strings
            }
            for name, p in subcommand_parsers().items()
        }
        assert {n: sorted(opts - documented) for n, opts in defined.items()} == {n: [] for n in defined}
        assert sorted(documented - set().union(*defined.values())) == []

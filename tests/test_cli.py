import csv
import os
import subprocess
import sys

import numpy as np
import pytest

import fracext
from fracext import ConvergenceError, Generator
from fracext.cli import (
    ConfigError,
    builtin_matrix,
    main,
    parse_config,
    resolve_vector,
)

from conftest import relerr


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestConfigParsing:
    def test_full_config(self, tmp_path):
        path = write_config(
            tmp_path,
            "# demo configuration\n"
            "matrix = diag-demo\n"
            "u = ones\n"
            "s = 0.5   # order\n"
            "nodes = 64\n"
            "tol = 1e-10\n"
            "ygrid_count = 9\n",
        )
        config = parse_config(path, "trace_neumann")
        assert config.matrix_source == "diag-demo"
        assert config.s == 0.5
        assert config.nodes == 64
        assert config.ygrid_count == 9

    def test_missing_s_is_line_numbered(self, tmp_path):
        path = write_config(tmp_path, "matrix = diag-demo\n")
        with pytest.raises(ConfigError) as err:
            parse_config(path, "spectral")
        assert ":2:" in str(err.value) and "'s'" in str(err.value)

    def test_unknown_key(self, tmp_path):
        path = write_config(tmp_path, "matrix = diag-demo\nwibble = 3\ns = 0.5\n")
        with pytest.raises(ConfigError) as err:
            parse_config(path, "spectral")
        assert ":2:" in str(err.value)

    def test_bad_value(self, tmp_path):
        path = write_config(tmp_path, "matrix = diag-demo\ns = abc\n")
        with pytest.raises(ConfigError) as err:
            parse_config(path, "spectral")
        assert ":2:" in str(err.value) and "'s'" in str(err.value)

    def test_integer_order_rejected(self, tmp_path):
        path = write_config(tmp_path, "matrix = diag-demo\ns = 2.0\n")
        with pytest.raises(ConfigError, match="noninteger"):
            parse_config(path, "spectral")

    def test_duplicate_key(self, tmp_path):
        path = write_config(tmp_path, "matrix = diag-demo\ns = 0.5\ns = 0.7\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(path, "spectral")

    def test_missing_equals(self, tmp_path):
        path = write_config(tmp_path, "matrix diag-demo\n")
        with pytest.raises(ConfigError, match="key = value"):
            parse_config(path, "spectral")

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, "matrix = diag-demo\n")  # missing s
        status = main(["spectral", "--config", path])
        assert status == 2
        assert ":2:" in capsys.readouterr().err


class TestBuiltins:
    def test_diag_demo(self):
        gen = builtin_matrix("diag-demo")
        assert sorted(gen.eigenvalues.real) == [-9.0, -4.0, -1.0]

    def test_laplacian_small_spectrum(self):
        gen = builtin_matrix("laplacian1d:2")
        eigs = np.sort(gen.eigenvalues.real)
        expected = np.sort([-9.0 * 4 * np.sin(np.pi / 6) ** 2, -9.0 * 4 * np.sin(np.pi / 3) ** 2])
        assert np.allclose(eigs, expected, rtol=1e-12)

    def test_random_bitwise_reproducible(self):
        a = builtin_matrix("random:8:7")
        b = builtin_matrix("random:8:7")
        assert np.array_equal(a.matrix, b.matrix)

    def test_bad_names(self):
        for bad in ("wat", "laplacian1d:1", "laplacian1d:x", "random:8", "random:2:z"):
            with pytest.raises(ValueError):
                builtin_matrix(bad)

    def test_vectors(self):
        assert np.all(resolve_vector("ones", 3, 0) == 1.0)
        basis = resolve_vector("basis:2", 3, 0)
        assert basis[1] == 1.0 and basis[0] == basis[2] == 0.0
        assert np.array_equal(resolve_vector("random:5", 4, 0), resolve_vector("random:5", 4, 9))
        with pytest.raises(ValueError):
            resolve_vector("basis:9", 3, 0)
        with pytest.raises(ValueError):
            resolve_vector("nope", 3, 0)


class TestRuns:
    def test_spectral_from_matrix_file(self, tmp_path, capsys):
        mat = np.diag([-1.0, -4.0])
        gen = Generator(mat)
        matrix_path = tmp_path / "mat.txt"
        gen.to_file(matrix_path)
        out = tmp_path / "result.csv"
        path = write_config(
            tmp_path, f"matrix = {matrix_path}\ns = 0.5\nout = {out}\n"
        )
        assert main(["spectral", "--config", path]) == 0
        with open(out, newline="") as handle:
            handle.readline()  # comment header
            rows = list(csv.DictReader(handle))
        got = np.array([float(r["re"]) + 1j * float(r["im"]) for r in rows])
        assert relerr(got, np.array([1.0, 2.0])) <= 1e-14

    def test_balakrishnan_run(self, tmp_path):
        out = tmp_path / "bala.csv"
        path = write_config(tmp_path, f"matrix = diag-demo\ns = 1.5\nout = {out}\n")
        assert main(["balakrishnan", "--config", path]) == 0
        assert out.exists()

    def test_trace_run_and_out_override(self, tmp_path):
        out = tmp_path / "trace.csv"
        path = write_config(tmp_path, "matrix = diag-demo\ns = 0.5\n")
        assert main(["trace_neumann", "--config", path, "--out", str(out)]) == 0
        assert out.exists()
        with open(out, newline="") as handle:
            header = handle.readline()
        assert header.startswith("level,y")

    def test_trace_neumann_schedule_head(self, tmp_path):
        """Unset ``ygrid_start`` scales with ``||L||_2`` for ``trace_neumann`` only."""

        def first_y(method, extra=""):
            out = tmp_path / f"{method}.csv"
            path = write_config(
                tmp_path, f"matrix = laplacian1d:64\ns = 1.5\nout = {out}\n{extra}"
            )
            assert main([method, "--config", path]) == 0
            with open(out, newline="") as handle:
                if method == "extend":
                    handle.readline()  # comment header
                return [float(row["y"]) for row in csv.DictReader(handle)]

        head = 4.0 / np.sqrt(builtin_matrix("laplacian1d:64").norm2)
        assert first_y("trace_neumann")[0] == pytest.approx(head, rel=1e-9)
        assert first_y("trace_neumann", "ygrid_start = 0.2\n")[0] == 0.2
        assert max(first_y("extend", "ygrid_count = 3\n")) == 0.4

    def test_incremental_run(self, tmp_path):
        out = tmp_path / "inc.csv"
        path = write_config(
            tmp_path, f"matrix = diag-demo\ns = 1.5\nout = {out}\nygrid_count = 8\n"
        )
        assert main(["trace_incremental", "--config", path]) == 0

    def test_bbw_run(self, tmp_path):
        out = tmp_path / "bbw.csv"
        path = write_config(tmp_path, f"matrix = diag-demo\ns = 0.5\nk = 1\nout = {out}\n")
        assert main(["bbw", "--config", path]) == 0

    def test_extend_run(self, tmp_path):
        out = tmp_path / "profile.csv"
        path = write_config(
            tmp_path,
            f"matrix = diag-demo\ns = 1.5\nout = {out}\nygrid_count = 5\n",
        )
        assert main(["extend", "--config", path]) == 0
        text = out.read_text()
        assert text.startswith("# s=1.5, dim=3")

    def test_unreadable_matrix_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, "matrix = /nonexistent/m.txt\ns = 0.5\n")
        assert main(["spectral", "--config", path]) == 2

    def test_missing_config_flag(self):
        with pytest.raises(SystemExit) as err:
            main(["spectral"])
        assert err.value.code == 2

    def test_unknown_method(self):
        with pytest.raises(SystemExit) as err:
            main(["does_not_exist", "--config", "x"])
        assert err.value.code == 2


def test_laplacian_trace_matches_sine_oracle(tmp_path):
    """CLI end-to-end on the discrete Dirichlet second-difference operator."""
    from fracext.verify import dirichlet_sine_power

    out = tmp_path / "lap.csv"
    path = write_config(tmp_path, f"matrix = laplacian1d:8\ns = 0.5\nout = {out}\n")
    assert main(["trace_neumann", "--config", path]) == 0
    with open(out, newline="") as handle:
        rows = list(csv.DictReader(handle))
    deepest = max(int(r["level"]) for r in rows)
    final = [r for r in rows if int(r["level"]) == deepest][-1]
    got = np.array([float(final[f"re_{i}"]) + 1j * float(final[f"im_{i}"]) for i in range(1, 9)])
    oracle = dirichlet_sine_power(8, 0.5, np.ones(8))
    assert relerr(got, oracle) <= 1e-6


def test_nonconvergent_quadrature_exits_3(tmp_path, capsys, monkeypatch):
    def stalled(*args, **kwargs):
        raise ConvergenceError("subordination moments: trapezoid refinement stalled",
                               achieved=1e-3, required=1e-12)

    monkeypatch.setattr("fracext.cli.trace_incremental", stalled)
    path = write_config(
        tmp_path, f"matrix = diag-demo\ns = 0.5\nout = {tmp_path/'x.csv'}\nygrid_count = 4\n"
    )
    status = main(["trace_incremental", "--config", path])
    assert status == 3
    assert "numerical failure" in capsys.readouterr().err


def test_verify_accepts_config(tmp_path):
    path = write_config(tmp_path, "matrix = diag-demo\n")
    from fracext.cli import parse_config

    config = parse_config(path, "verify")
    assert config.method == "verify"


def test_python_m_fracext_help():
    src = os.path.dirname(os.path.dirname(os.path.abspath(fracext.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run([sys.executable, "-m", "fracext", "--help"], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("usage: fracext")

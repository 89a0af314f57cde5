import csv
import io
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gamma

import fracext.fracpow
import fracext.quadrature
import fracext.traces
from fracext import (
    ConvergenceError,
    FracOrder,
    Generator,
    bbw_estimate,
    bbw_frac_power,
    d_constant,
    default_ysched,
    domain_membership,
    initial_condition_suite,
    neumann_y0,
    random_generator,
    trace_constants,
    trace_incremental,
    trace_neumann,
)

from conftest import relerr


class TestConstants:
    def test_special_values(self):
        assert abs(trace_constants(0.5).c_s + 1.0) <= 1e-14
        assert abs(trace_constants(1.5).c_s - 2.0) <= 1e-14
        assert abs(trace_constants(1.5).d_s - 4.0 / 3.0) <= 1e-14

    def test_d_only_on_window(self):
        assert trace_constants(0.5).d_s is None
        assert trace_constants(2.5).d_s is None
        with pytest.raises(ValueError, match="1 < s < 2"):
            d_constant(2.5)

    @settings(max_examples=40, deadline=None)
    @given(s=st.floats(min_value=0.02, max_value=1.98))
    def test_closed_forms(self, s):
        try:
            order = FracOrder(s)
        except ValueError:
            return
        c_general = trace_constants(order).c_s
        if s < 1.0:
            reference = -gamma(1.0 - s) / (4.0 ** (s - 0.5) * gamma(s))
        else:
            reference = gamma(2.0 - s) / (4.0 ** (s - 1.5) * gamma(s))
        assert abs(c_general - reference) <= 1e-12 * max(1.0, abs(reference))


class TestSchedule:
    def test_default(self):
        sched = default_ysched()
        assert sched[0] == 0.4 and len(sched) == 11
        assert np.allclose(sched[:-1] / sched[1:], 2.0)

    def test_neumann_head_scales_with_norm(self, diag_gen):
        from fracext.cli import builtin_matrix

        assert neumann_y0(diag_gen) == 0.4  # ||L||_2 = 4 <= 100
        assert neumann_y0(Generator(np.diag([-100.0, -1.0]))) == 0.4
        lap = builtin_matrix("laplacian1d:64")
        assert neumann_y0(lap) == pytest.approx(4.0 / np.sqrt(lap.norm2), rel=1e-15)
        u = np.ones(64, dtype=complex)
        est = trace_neumann(lap, 1.5, u)
        assert est.y_sequence[0] == neumann_y0(lap)
        assert est.converged and est.oracle_err <= 1e-10
        assert trace_neumann(diag_gen, 0.5, np.ones(2, dtype=complex)).y_sequence[0] == 0.4

    def test_validation(self):
        with pytest.raises(ValueError, match="factor"):
            default_ysched(factor=1.5)
        with pytest.raises(ValueError, match="geometric"):
            trace_neumann(
                Generator(np.diag([-1.0])), 0.5, np.ones(1, dtype=complex),
                ysched=[0.4, 0.2, 0.11],
            )


class TestNeumann:
    def test_diagonal_half(self, diag_gen):
        est = trace_neumann(diag_gen, 0.5, np.array([1.0, 1.0], dtype=complex))
        assert relerr(est.value, np.array([1.0, 2.0])) <= 1e-6
        assert est.converged
        assert est.method == "neumann_general"

    def test_zero_input(self, diag_gen):
        est = trace_neumann(diag_gen, 0.5, np.zeros(2, dtype=complex))
        assert np.all(est.value == 0)

    def test_random_high_order(self, rand8, rand8_u):
        est = trace_neumann(rand8, 2.7, rand8_u)
        assert est.oracle_err <= 1e-5
        assert est.converged

    def test_operator_form_carries_factorial(self, diag_gen):
        u = np.array([1.0, 1.0], dtype=complex)
        radial = trace_neumann(diag_gen, 2.5, u, form="radial")
        operator = trace_neumann(diag_gen, 2.5, u, form="operator")
        assert relerr(operator.raw_limit, factorial(2) * radial.raw_limit) <= 1e-5
        assert relerr(operator.value, radial.value) <= 1e-5


class TestIncremental:
    def test_scalar_half(self, scalar_gen):
        est = trace_incremental(scalar_gen, 0.5, np.ones(1, dtype=complex))
        assert abs(est.value[0] - 1.0) <= 1e-4
        assert est.method == "incremental_s01"

    def test_zero_input(self, diag_gen):
        est = trace_incremental(diag_gen, 0.5, np.zeros(2, dtype=complex))
        assert np.all(est.value == 0)

    def test_diagonal_three_halves(self, diag_gen):
        est = trace_incremental(diag_gen, 1.5, np.array([1.0, 1.0], dtype=complex))
        assert relerr(est.value, np.array([1.0, 8.0])) <= 1e-3
        assert est.method == "incremental_s12"

    def test_outside_window(self, diag_gen):
        with pytest.raises(ValueError, match="incremental"):
            trace_incremental(diag_gen, 2.5, np.ones(2, dtype=complex))


class TestInitialConditions:
    def test_table_passes(self, diag_gen):
        report = initial_condition_suite(diag_gen, 2.5, np.array([1.0, 1.0], dtype=complex))
        assert report.all_passed
        kinds = {line.kind for line in report.lines}
        assert kinds == {
            "radial_value",
            "operator_value",
            "weighted_derivative_zero",
            "neumann",
        }
        values = [l for l in report.lines if l.kind == "radial_value"]
        assert [l.m for l in values] == [0, 1, 2]

    def test_first_moment_line_on_scalar(self, scalar_gen):
        # the m=1 value limit is Gamma(1.5)/Gamma(2.5) * L u = -(2/3) u
        report = initial_condition_suite(scalar_gen, 2.5, np.ones(1, dtype=complex))
        line = next(l for l in report.lines if l.kind == "radial_value" and l.m == 1)
        assert line.error <= 1e-4 and line.passed

    def test_zero_lines_small(self, diag_gen):
        report = initial_condition_suite(diag_gen, 2.5, np.array([1.0, 1.0], dtype=complex))
        zeros = [l for l in report.lines if l.kind == "weighted_derivative_zero"]
        assert [l.m for l in zeros] == [0, 1]
        assert all(l.error <= 1e-4 for l in zeros)


class TestMembership:
    def test_always_true_on_matrices(self, rand8, rand8_u):
        flag, est = domain_membership(rand8, 1.5, rand8_u)
        assert flag and est.converged

    def test_zero_vector(self, diag_gen):
        flag, est = domain_membership(diag_gen, 0.5, np.zeros(2, dtype=complex))
        assert flag
        assert np.all(est.value == 0)

    def test_refinement_stability(self, rand8, rand8_u):
        flag8, est8 = domain_membership(rand8, 1.5, rand8_u, ysched=default_ysched(count=8))
        flag12, est12 = domain_membership(rand8, 1.5, rand8_u, ysched=default_ysched(count=12))
        assert flag8 and flag12
        assert relerr(est8.value, est12.value) <= 1e-4


class TestSerialization:
    def test_csv_rows_estimate_the_power(self, diag_gen):
        u = np.array([1.0, 1.0], dtype=complex)
        est = trace_neumann(diag_gen, 0.5, u)
        buffer = io.StringIO()
        est.to_csv(buffer)
        buffer.seek(0)
        rows = list(csv.DictReader(buffer))
        deepest = max(int(r["level"]) for r in rows)
        final = [r for r in rows if int(r["level"]) == deepest][-1]
        vec = np.array(
            [float(final["re_1"]) + 1j * float(final["im_1"]),
             float(final["re_2"]) + 1j * float(final["im_2"])]
        )
        assert relerr(vec, est.value) <= 1e-14
        assert any(r["diff_norm"] for r in rows)

    def test_csv_bytes_are_those_of_csv_writer(self, rand8, rand8_u):
        """Rows formatted in one operation each match per-number ``csv.writer`` fields."""
        est = trace_neumann(rand8, 1.5, rand8_u)
        special = [-0.0, -0.0j, 5e-324, -1.5e150, 0.1, 1 / 3, 1e-5, 2j]
        est.extrapolant_table[0][0] = np.array(special)
        scale = est.constant if est.constant else 1.0
        reference = io.StringIO(newline="")
        writer = csv.writer(reference)
        parts = [f"{p}_{i}" for i in range(1, rand8_u.size + 1) for p in ("re", "im")]
        writer.writerow(["level", "y", *parts, "diff_norm"])
        for level, entries in enumerate(est.extrapolant_table):
            prev = None
            for i, entry in enumerate(entries):
                vec = np.atleast_1d(entry) / scale
                diff = "" if prev is None else f"{np.linalg.norm(vec - prev):.6e}"
                row = [level, f"{est.y_sequence[i + level]:.10g}"]
                for z in vec:
                    row += [f"{complex(z).real:.17g}", f"{complex(z).imag:.17g}"]
                writer.writerow(row + [diff])
                prev = vec
        written = io.StringIO(newline="")
        est.to_csv(written)
        assert written.getvalue() == reference.getvalue()

    def test_bbw_estimate_table(self, diag_gen):
        u = np.array([1.0, 1.0], dtype=complex)
        est = bbw_estimate(diag_gen, 1.5, 2, u)
        assert est.method == "bbw"
        assert est.oracle_err <= 1e-4
        assert len(est.y_sequence) == 13
        buffer = io.StringIO()
        est.to_csv(buffer)
        assert buffer.getvalue().startswith("level,y")


class TestBBWEstimate:
    @pytest.mark.parametrize("s", [0.3, 1.5, 2.7])
    def test_value_is_bbw_frac_power_bitwise(self, rand8, rand8_u, s):
        est = bbw_estimate(rand8, s, int(s) + 1, rand8_u)
        assert np.array_equal(est.value, bbw_frac_power(rand8, s, int(s) + 1, rand8_u))
        assert est.converged and est.oracle_err <= 1e-4

    def test_one_richardson_table_per_estimate(self, diag_gen, monkeypatch):
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return fracext.quadrature.richardson_table(*args, **kwargs)

        monkeypatch.setattr(fracext.traces, "richardson_table", spy)
        monkeypatch.setattr(fracext.fracpow, "richardson_table", spy)
        bbw_estimate(diag_gen, 1.5, 2, np.ones(2, dtype=complex))
        assert len(calls) == 1

    def test_non_cauchy_ladder_reports_not_converged(self, diag_gen, monkeypatch):
        """Where bbw_frac_power raises, the estimate carries converged=False."""
        u = np.ones(2, dtype=complex)
        monkeypatch.setattr(fracext.fracpow, "_BBW_CONV_TOL", 1e-16)
        with pytest.raises(ConvergenceError, match="Cauchy"):
            bbw_frac_power(diag_gen, 0.5, 1, u)
        monkeypatch.setattr(fracext.traces, "_BBW_CONV_TOL", 1e-16)
        est = bbw_estimate(diag_gen, 0.5, 1, u)
        assert not est.converged
        assert est.oracle_err <= 1e-4


def test_oracle_equivalence_sweep():
    for seed in (0, 5, 9):
        gen = random_generator(8, seed)
        u = np.random.default_rng(300 + seed).standard_normal(8) + 0j
        for s in (0.3, 0.5, 1.5, 2.7):
            est = trace_neumann(gen, s, u)
            assert est.oracle_err <= 1e-5, (seed, s, est.oracle_err)
            if s < 2.0:
                inc = trace_incremental(gen, s, u)
                assert inc.oracle_err <= 1e-3, (seed, s, inc.oracle_err)

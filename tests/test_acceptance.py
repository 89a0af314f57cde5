"""Acceptance gate: every shipped criterion at its stated tolerance.

Each test runs one criterion through the same functions the CLI ``verify``
method uses and prints its pass/fail line, so ``pytest -s tests/test_acceptance.py``
doubles as the acceptance report.
"""

from fracext import verify


def _run(check):
    result = check()
    print(result.summary())
    assert result.passed, result.summary()


def test_criterion_01_scalar_closed_form():
    _run(verify.check_scalar_closed_form)


def test_criterion_02_normalization_identity():
    _run(verify.check_normalization)


def test_criterion_03_oracle_reconciliation():
    _run(verify.check_oracle_reconciliation)


def test_criterion_04_trace_constants():
    _run(verify.check_constants)


def test_criterion_05_initial_condition_table():
    _run(verify.check_initial_conditions)


def test_criterion_06_pde_residuals():
    _run(verify.check_pde_residuals)


def test_criterion_07_uniqueness_cross_check():
    _run(verify.check_uniqueness_cross)


def test_criterion_08_bbw_constant():
    _run(verify.check_bbw_constant)


def test_criterion_08_rejects_a_constant_off_by_1e_10(monkeypatch):
    """A closed form 1e-10 relative off its value fails the QUADPACK comparison."""
    exact = verify.c_constant
    monkeypatch.setattr(verify, "c_constant", lambda s, k: (1.0 + 1e-10) * exact(s, k))
    assert not verify.check_bbw_constant().passed


def test_criterion_09_cross_representation():
    _run(verify.check_cross_representation)


def test_criterion_10_cli_demo():
    _run(verify.check_cli_demo)


def test_criterion_11_stiff_radial_powers():
    _run(verify.check_stiff_radial_powers)


def test_invariant_sweeps():
    for check in verify.INVARIANTS:
        result = check()
        print(result.summary())
        assert result.passed, result.summary()


def test_cli_verify_exits_clean(capsys):
    """The shipped `fracext verify` run reports all-pass with exit status 0."""
    from fracext.cli import main

    status = main(["verify"])
    out = capsys.readouterr().out
    assert status == 0
    assert "FAIL" not in out

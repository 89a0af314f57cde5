import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import fracext
from fracext import Generator, load_vector, random_generator
from fracext.operators import parse_complex

from conftest import relerr


def test_semigroup_identity_at_zero(diag_gen):
    u = np.array([0.3, -1.2], dtype=complex)
    assert np.allclose(diag_gen.semigroup(0.0, u), u, rtol=0, atol=0)


def test_semigroup_diagonal_values(diag_gen):
    u = np.array([1.0, 1.0], dtype=complex)
    out = diag_gen.semigroup(np.log(2.0), u)
    assert np.allclose(out, [0.5, 0.0625], rtol=1e-14)


def test_semigroup_matches_expm_oracle():
    rng = np.random.default_rng(11)
    basis = rng.standard_normal((8, 8))
    mat = -(basis @ basis.T) - 0.5 * np.eye(8)  # symmetric negative definite
    gen = Generator(mat)
    u = rng.standard_normal(8) + 0j
    for t in (0.1, 0.7, 2.5):
        assert relerr(gen.semigroup(t, u), expm(t * mat) @ u) <= 1e-12


def test_semigroup_law_sampled(rand8, rand8_u):
    rng = np.random.default_rng(5)
    scale = np.linalg.norm(rand8_u)
    for _ in range(10):
        t1, t2 = rng.uniform(0.0, 10.0, size=2)
        both = rand8.semigroup(t1 + t2, rand8_u)
        nested = rand8.semigroup(t1, rand8.semigroup(t2, rand8_u))
        assert np.linalg.norm(both - nested) <= 1e-11 * scale


def test_generator_limit_first_order(rand8, rand8_u):
    hs = np.array([1e-2, 1e-3, 1e-4, 1e-5])
    errs = [
        np.linalg.norm((rand8.semigroup(h, rand8_u) - rand8_u) / h - rand8.apply(rand8_u))
        for h in hs
    ]
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert slope >= 0.9


def test_uniform_bound(rand8, rand8_u):
    scale = np.linalg.norm(rand8_u)
    for t in np.linspace(0.0, 25.0, 51):
        assert np.linalg.norm(rand8.semigroup(t, rand8_u)) <= rand8.bound_M * scale


def test_semigroup_batch_matches_single(rand8, rand8_u):
    ts = np.array([0.0, 0.3, 1.7, 9.0])
    batch = rand8.semigroup_batch(ts, rand8_u)
    for row, t in zip(batch, ts):
        assert np.allclose(row, rand8.semigroup(t, rand8_u), rtol=1e-13, atol=0)


def test_semigroup_rejects_negative_time(diag_gen):
    with pytest.raises(ValueError):
        diag_gen.semigroup(-0.1, np.ones(2, dtype=complex))


def test_resolvent_scalar():
    gen = Generator(np.diag([-1.0]))
    out = gen.resolvent(1.0, np.ones(1, dtype=complex))
    assert abs(out[0] - 0.5) < 1e-15


def test_resolvent_roundtrip(rand8, rand8_u):
    for mu in (0.01, 1.0, 50.0):
        via = rand8.resolvent(mu, rand8_u)
        back = mu * via - rand8.apply(via)
        assert relerr(back, rand8_u) <= 1e-12


def test_resolvent_nonnegativity_bound(rand8):
    eye = np.eye(rand8.dim)
    for mu in np.logspace(-3, 3, 40):
        norm = np.linalg.norm(mu * np.linalg.inv(mu * eye - rand8.matrix), 2)
        assert norm <= rand8.bound_M * (1.0 + 1e-9)


def test_resolvent_rejects_eigenvalue(diag_gen):
    with pytest.raises(ValueError):
        diag_gen.resolvent(-1.0, np.ones(2, dtype=complex))


def test_frac_power_diagonal(diag_gen):
    out = diag_gen.frac_power(0.5, np.array([1.0, 1.0], dtype=complex))
    assert np.allclose(out, [1.0, 2.0], rtol=1e-14)


@settings(max_examples=20, deadline=None)
@given(
    s1=st.floats(min_value=0.1, max_value=2.0),
    s2=st.floats(min_value=0.1, max_value=2.0),
)
def test_frac_power_additivity(s1, s2):
    gen = random_generator(5, 17)
    u = np.random.default_rng(18).standard_normal(5) + 0j
    once = gen.frac_power(s1 + s2, u)
    twice = gen.frac_power(s1, gen.frac_power(s2, u))
    assert relerr(twice, once) <= 1e-12


def test_frac_power_square_root_squares_back():
    mat = np.array([[-5.0, 4.0], [4.0, -5.0]])  # eigenvalues -1, -9
    gen = Generator(mat)
    root = gen.frac_power_matrix(0.5)
    assert relerr(root @ root, -mat) <= 1e-12


def test_frac_power_s1_is_matrix(rand8, rand8_u):
    assert relerr(rand8.frac_power(1.0, rand8_u), -rand8.apply(rand8_u)) <= 1e-12


def test_yosida_scalar_formula():
    lam = 3.0
    gen = Generator(np.diag([-lam]))
    for eps in (0.5, 0.01):
        reg = gen.yosida(eps)
        assert abs(-reg.matrix[0, 0] - lam / (1 + eps * lam)) < 1e-13


def test_yosida_inverse_convergence(rand8):
    eye = np.eye(rand8.dim)
    exact = np.linalg.inv(eye - rand8.matrix)
    gaps = []
    for eps in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
        reg = rand8.yosida(eps)
        gaps.append(np.linalg.norm(np.linalg.inv(eye - reg.matrix) - exact, 2))
    assert all(gaps[i + 1] < gaps[i] for i in range(len(gaps) - 1))


def test_yosida_defect_identity(rand8, rand8_u):
    # f_eps = A U_eps - A_eps U_eps must match eps^-1 (eps^-1 + A)^-1 A (eps^-1 + A)^-1 (A u)
    a_mat = -rand8.matrix
    eye = np.eye(rand8.dim)
    norms = []
    for eps in (1e-1, 1e-3, 1e-6):
        reg = rand8.yosida(eps)
        u_eps = np.linalg.solve(eye + eps * a_mat, rand8_u)
        direct = a_mat @ u_eps - (-reg.matrix) @ u_eps
        inner = np.linalg.solve(eye / eps + a_mat, a_mat @ rand8_u)
        identity = np.linalg.solve(eye / eps + a_mat, a_mat @ inner) / eps
        assert relerr(direct, identity) <= 1e-9
        norms.append(np.linalg.norm(direct))
    assert norms[-1] < 1e-3 * norms[0]


def test_construction_rejects_unstable_spectrum():
    with pytest.raises(ValueError, match="left half-plane"):
        Generator(np.diag([1.0, -2.0]))
    with pytest.raises(ValueError, match="left half-plane"):
        Generator(np.diag([0.0, -2.0]))


def test_construction_rejects_jordan_block():
    with pytest.raises(ValueError):
        Generator(np.array([[-1.0, 1.0], [0.0, -1.0]]))


def test_construction_rejects_nonsquare():
    with pytest.raises(ValueError, match="square"):
        Generator(np.ones((2, 3)))


def test_dimension_mismatch_errors(diag_gen):
    with pytest.raises(ValueError, match="dimension"):
        diag_gen.semigroup(1.0, np.ones(3, dtype=complex))


def test_parse_complex_forms():
    assert parse_complex("1.5") == 1.5
    assert parse_complex("-2i") == -2j
    assert parse_complex("3.0-0.25i") == 3.0 - 0.25j
    with pytest.raises(ValueError):
        parse_complex("spam")


def test_matrix_file_roundtrip(tmp_path):
    mat = np.array([[-2.0 + 0.1j, 0.3], [0.2 - 0.5j, -3.0]])
    gen = Generator(mat)
    path = tmp_path / "mat.txt"
    gen.to_file(path)
    back = Generator.from_file(path)
    assert np.allclose(back.matrix, mat, rtol=0, atol=1e-15)


def test_matrix_file_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("2\n1 2 3\n4 5 6\n")
    with pytest.raises(ValueError, match="entries"):
        Generator.from_file(bad)
    empty = tmp_path / "empty.txt"
    empty.write_text("\n")
    with pytest.raises(ValueError, match="empty"):
        Generator.from_file(empty)


def test_load_vector(tmp_path):
    path = tmp_path / "vec.txt"
    path.write_text("1.0 2.5-1i\n-3i\n")
    vec = load_vector(path)
    assert np.allclose(vec, [1.0, 2.5 - 1j, -3j])
    with pytest.raises(ValueError, match="length"):
        load_vector(path, dim=2)


def test_random_generator_reproducible():
    first = random_generator(8, 7)
    second = random_generator(8, 7)
    assert np.array_equal(first.matrix, second.matrix)
    eigs = np.sort(first.eigenvalues.real)
    assert eigs.min() >= -10.0 - 1e-9 and eigs.max() <= -0.5 + 1e-9


def test_schur_factor_reconstructs_and_is_cached(rand8):
    tri, unitary = rand8.schur
    assert np.array_equal(np.tril(tri, -1), np.zeros_like(tri))
    recon = unitary @ tri @ unitary.conj().T
    assert np.linalg.norm(recon - rand8.matrix) <= 1e-12 * np.linalg.norm(rand8.matrix)
    assert not tri.flags.writeable and not unitary.flags.writeable
    assert rand8.schur is rand8.schur


def test_bound_m_is_lazy(rand8):
    assert "bound_M" not in vars(rand8)
    cond = np.linalg.cond(rand8.eigvecs, 2)
    assert abs(rand8.bound_M - cond) <= 1e-10 * cond
    assert "bound_M" in vars(rand8)


def test_import_leaves_scipy_linalg_unloaded():
    src = os.path.dirname(os.path.dirname(os.path.abspath(fracext.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = "import sys, fracext; print('scipy.linalg' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"

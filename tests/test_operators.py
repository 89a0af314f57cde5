import copy
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
from fracext.cli import builtin_matrix
from fracext.operators import _FLUSH, _apply, _check_spectrum, parse_complex
from fracext.verify import _sine_modes, dirichlet_sine_power

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


def test_from_modes_real_eigvecs_match_complex_product(rand8):
    """A real ``V`` maps eigencoordinate rows back in real arithmetic, to the complex product's digits."""
    lap = builtin_matrix("laplacian1d:64")
    nonnormal = Generator(np.array([[-1.0 + 2.0j, 0.5], [0.0, -3.0 - 1.0j]]))
    assert lap._v.dtype == rand8._v.dtype == np.float64
    assert nonnormal._v.dtype == complex
    rng = np.random.default_rng(5)
    for gen in (lap, rand8, nonnormal):
        forced = copy.copy(gen)
        forced._v = gen.eigvecs  # a complex V takes the complex product
        real_rows = rng.standard_normal((3, 4, gen.dim))
        for rows in (real_rows, real_rows + 1j * rng.standard_normal(real_rows.shape)):
            got = gen._from_modes(rows)
            assert got.dtype == complex
            assert relerr(got, rows @ gen.eigvecs.T) <= 1e-14
            assert relerr(got, forced._from_modes(rows)) <= 1e-14


def test_semigroup_rejects_negative_time(diag_gen):
    with pytest.raises(ValueError):
        diag_gen.semigroup(-0.1, np.ones(2, dtype=complex))


@pytest.mark.parametrize("t", [np.nan, np.inf])
def test_semigroup_rejects_non_finite_time(diag_gen, t):
    u = np.ones(2, dtype=complex)
    with pytest.raises(ValueError, match="finite"):
        diag_gen.semigroup(t, u)
    with pytest.raises(ValueError, match="finite"):
        diag_gen.semigroup_batch([0.5, t], u)


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


@pytest.mark.parametrize("mu", [np.nan, np.inf, complex(1.0, np.nan)])
def test_resolvent_rejects_non_finite_point(diag_gen, mu):
    with pytest.raises(ValueError, match="finite"):
        diag_gen.resolvent(mu, np.ones(2, dtype=complex))


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


@pytest.mark.parametrize("eps", [np.nan, np.inf])
def test_yosida_rejects_non_finite_parameter(diag_gen, eps):
    with pytest.raises(ValueError, match="finite"):
        diag_gen.yosida(eps)


@pytest.mark.parametrize("bad", [np.nan, complex(-1.0, np.nan)])
def test_spectrum_check_rejects_nan_eigenvalues(bad):
    with pytest.raises(ValueError, match="left half-plane.*nan"):
        _check_spectrum(np.array([-2.0, bad, -1.0], dtype=complex))


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


def test_hermitian_schur_factor_is_diagonal(rand8):
    """A Hermitian ``L`` keeps a diagonal ``T``; any other keeps LAPACK's triangle."""
    rng = np.random.default_rng(38)
    noise = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    for gen in (builtin_matrix("laplacian1d:64"),
                Generator(-(noise @ noise.conj().T) - np.eye(12))):
        assert gen._hermitian
        tri, unitary = gen.schur
        assert np.array_equal(tri, np.diag(tri.diagonal().real))
        recon = unitary @ tri @ unitary.conj().T
        assert np.linalg.norm(recon - gen.matrix) <= 1e-13 * np.linalg.norm(gen.matrix, 2)
    from scipy.linalg import rsf2csf, schur

    tri, _ = rsf2csf(*schur(rand8.matrix.real, output="real"))
    assert np.array_equal(rand8.schur[0], tri) and np.triu(tri, 1).any()


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


# -- Hermitian fast path and yosida factor reuse ------------------------------------


def _forbid(monkeypatch, *names):
    def refuse(*args, **kwargs):
        raise AssertionError("unexpected eigendecomposition")

    for name in names:
        monkeypatch.setattr(np.linalg, name, refuse)


def _complex_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    lam = -np.linspace(0.5, 20.0, dim)
    mat = (q * lam) @ q.conj().T
    return (mat + mat.conj().T) / 2.0, q, lam  # exactly Hermitian


def _assert_hermitian_factors(gen):
    assert gen.eigenvalues.dtype == complex
    assert np.array_equal(gen.eigvecs_inv, gen.eigvecs.conj().T)
    ref = np.linalg.norm(gen.matrix, 2)
    assert abs(gen.norm2 - ref) <= 1e-13 * ref


def test_hermitian_laplacian_skips_eig(monkeypatch):
    _forbid(monkeypatch, "eig")
    gen = builtin_matrix("laplacian1d:256")
    _assert_hermitian_factors(gen)
    basis, mu = _sine_modes(256)
    u = np.random.default_rng(30).standard_normal(256) + 0j
    for s in (0.3, 1.5, 2.7):
        assert relerr(gen.frac_power(s, u), dirichlet_sine_power(256, s, u)) <= 1e-10
    for t in (1e-4, 1e-2, 0.1):
        assert relerr(gen.semigroup(t, u), basis @ (np.exp(-t * mu) * (basis @ u))) <= 1e-10


def test_complex_hermitian_skips_eig(monkeypatch):
    mat, q, lam = _complex_hermitian(12, 31)
    _forbid(monkeypatch, "eig")
    gen = Generator(mat)
    _assert_hermitian_factors(gen)
    u = np.random.default_rng(32).standard_normal(12) + 0j
    for s in (0.3, 1.5):
        oracle = q @ ((-lam) ** s * (q.conj().T @ u))
        assert relerr(gen.frac_power(s, u), oracle) <= 1e-12
    assert relerr(gen.semigroup(0.3, u), q @ (np.exp(0.3 * lam) * (q.conj().T @ u))) <= 1e-12


def test_near_hermitian_inputs_take_general_path(monkeypatch):
    herm, _, _ = _complex_hermitian(10, 33)
    nudged = herm.copy()
    nudged[2, 5] = complex(np.nextafter(nudged[2, 5].real, np.inf), nudged[2, 5].imag)
    # complex symmetric, not Hermitian: Q diag(lam) Q^T with Q complex orthogonal
    rng = np.random.default_rng(34)
    skew = 0.2 * (rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10)))
    orth = expm(skew - skew.T)
    lam = -np.linspace(1.0, 8.0, 10)
    sym = (orth * lam) @ orth.T
    sym = (sym + sym.T) / 2.0
    reference = Generator(herm)
    _forbid(monkeypatch, "eigh")
    near, cplx = Generator(nudged), Generator(sym)
    u = np.random.default_rng(35).standard_normal(10) + 0j
    assert not np.array_equal(near.eigvecs_inv, near.eigvecs.conj().T)
    for s in (0.3, 1.5):
        assert relerr(near.frac_power(s, u), reference.frac_power(s, u)) <= 1e-12
        assert relerr(cplx.frac_power(s, u), orth @ ((-lam) ** s * (orth.T @ u))) <= 1e-12
    assert relerr(near.semigroup(0.2, u), reference.semigroup(0.2, u)) <= 1e-12
    assert relerr(cplx.semigroup(0.2, u), orth @ (np.exp(0.2 * lam) * (orth.T @ u))) <= 1e-12
    assert abs(near.norm2 - reference.norm2) <= 1e-12 * reference.norm2


@pytest.mark.parametrize("parent", ["laplacian1d:64", "random:8:3"])
def test_yosida_reuses_factors(monkeypatch, parent):
    gen = builtin_matrix(parent)
    gen.bound_M, gen.schur  # cache both on the parent first
    _forbid(monkeypatch, "eig", "eigh")
    eps = 0.01
    reg = gen.yosida(eps)
    assert reg._v is gen._v and reg._vinv is gen._vinv
    assert np.array_equal(reg.eigvecs, gen.eigvecs)
    a = -gen.eigenvalues
    assert np.array_equal(reg.eigenvalues, -a / (1 + eps * a))
    assert "bound_M" not in vars(reg) and "schur" not in vars(reg)
    tri, unitary = reg.schur
    scale = np.linalg.norm(reg.matrix)
    assert np.linalg.norm(unitary @ tri @ unitary.conj().T - reg.matrix) <= 1e-12 * scale
    assert abs(reg.bound_M - np.linalg.cond(reg.eigvecs, 2)) <= 1e-10 * reg.bound_M
    ref = np.linalg.norm(reg.matrix, 2)
    assert abs(reg.norm2 - ref) <= 1e-12 * ref
    twice = reg.yosida(0.02)  # A/(1 + 0.01 A) regularized again is A/(1 + 0.03 A)
    assert twice._v is gen._v
    assert relerr(twice.eigenvalues, gen.yosida(0.03).eigenvalues) <= 1e-14
    u = np.random.default_rng(36).standard_normal(gen.dim) + 0j
    assert relerr(twice.matrix @ u, gen.yosida(0.03).matrix @ u) <= 1e-12


def test_yosida_laplacian_sine_oracle():
    gen = builtin_matrix("laplacian1d:64")
    basis, mu = _sine_modes(64)
    u = np.random.default_rng(37).standard_normal(64) + 0j
    for eps in (1e-1, 1e-3, 1e-5):
        reg = gen.yosida(eps)
        oracle = basis @ (-(mu / (1 + eps * mu)) * (basis @ u))
        assert relerr(reg.matrix @ u, oracle) <= 1e-12
        assert reg.norm2 == np.max(np.abs(reg.eigenvalues))


# -- real LAPACK for real generators ---------------------------------------------------


def _spy(monkeypatch, *names):
    """Record ``(name, dtype)`` of the first argument of each named ``np.linalg`` call."""
    seen = []
    for name in names:
        def spy(a, *args, _call=getattr(np.linalg, name), _name=name, **kwargs):
            seen.append((_name, np.asarray(a).dtype))
            return _call(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    return seen


def _complex_nonnormal(dim, seed):
    rng = np.random.default_rng(seed)
    vecs = np.eye(dim) + 0.25 * (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    lam = -rng.uniform(0.5, 10.0, dim) + 1j * rng.uniform(-5.0, 5.0, dim)
    return (vecs * lam) @ np.linalg.inv(vecs)


def _rotation_blocks(pairs, seed):
    """Real ``L`` with eigenvalues ``a_j +- i b_j``: damped 2x2 rotations conjugated by a real ``V``.

    Returns ``L`` and its eigenpairs ``(lam, W)`` built without an eigensolver.
    """
    rng = np.random.default_rng(seed)
    a, b = -rng.uniform(0.5, 10.0, pairs), rng.uniform(0.5, 5.0, pairs)
    blocks = np.zeros((2 * pairs, 2 * pairs))
    modes = np.zeros((2 * pairs, 2 * pairs), dtype=complex)
    lam = np.empty(2 * pairs, dtype=complex)
    for j in range(pairs):
        i = 2 * j
        blocks[i:i + 2, i:i + 2] = [[a[j], b[j]], [-b[j], a[j]]]
        modes[i:i + 2, i:i + 2] = np.array([[1.0, 1.0], [1j, -1j]]) / np.sqrt(2.0)
        lam[i:i + 2] = a[j] + 1j * b[j], a[j] - 1j * b[j]
    vecs = np.eye(2 * pairs) + 0.25 * rng.standard_normal((2 * pairs, 2 * pairs))
    return vecs @ blocks @ np.linalg.inv(vecs), lam, vecs @ modes


@pytest.mark.parametrize("name, calls", [
    ("random:64:1", {"eig", "inv", "norm"}),
    ("laplacian1d:64", {"eigh", "norm"}),
    ("diag-demo", {"eigh", "norm"}),
])
def test_real_generators_reach_lapack_as_float64(monkeypatch, name, calls):
    mat = builtin_matrix(name).matrix
    seen = _spy(monkeypatch, "eig", "eigh", "inv", "norm")
    gen = Generator(mat)
    gen.bound_M, gen.yosida(0.01)
    assert {call for call, _ in seen} == calls
    assert all(dtype == np.float64 for _, dtype in seen), seen
    assert gen.matrix.dtype == gen.eigenvalues.dtype == gen.eigvecs.dtype == complex
    assert gen.eigvecs_inv.dtype == complex and not gen.eigvecs.flags.writeable


@pytest.mark.parametrize("build", [lambda: _complex_nonnormal(16, 40),
                                   lambda: _complex_hermitian(12, 41)[0]])
def test_complex_generators_stay_complex(monkeypatch, build):
    mat = build()
    seen = _spy(monkeypatch, "eig", "eigh", "inv", "norm")
    gen = Generator(mat)
    gen.bound_M, gen.yosida(0.01)
    assert seen and all(dtype == np.complex128 for _, dtype in seen), seen


def test_zero_imaginary_input_factors_bitwise_like_real(tmp_path):
    gen = builtin_matrix("random:8:3")
    path = tmp_path / "random8.txt"
    gen.to_file(path)
    back = Generator.from_file(path)
    for attr in ("matrix", "eigenvalues", "eigvecs", "eigvecs_inv"):
        assert np.array_equal(getattr(back, attr), getattr(gen, attr)), attr
    assert back.norm2 == gen.norm2 and back.bound_M == gen.bound_M


def test_real_generator_with_complex_pairs():
    mat, lam, modes = _rotation_blocks(6, 42)
    gen = Generator(mat)
    assert mat.dtype == np.float64
    nearest = np.min(np.abs(gen.eigenvalues[:, None] - lam[None, :]), axis=1)
    assert np.max(nearest) <= 1e-12 * np.max(np.abs(lam))
    assert gen.eigvecs.imag.any()
    rng = np.random.default_rng(43)
    u = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    coords = np.linalg.solve(modes, u)
    for s in (0.3, 1.5, -0.7):
        assert relerr(gen.frac_power(s, u), modes @ ((-lam) ** s * coords)) <= 1e-12
    for t in (1e-3, 0.1, 2.0):
        assert relerr(gen.semigroup(t, u), modes @ (np.exp(t * lam) * coords)) <= 1e-12
    ref = np.linalg.norm(mat.astype(complex), 2)
    assert abs(gen.norm2 - ref) <= 1e-12 * ref


@pytest.mark.parametrize("parent", ["random:16:2", "laplacian1d:32"])
def test_yosida_of_real_parent_is_exactly_real(parent):
    assert not builtin_matrix(parent).yosida(0.01).matrix.imag.any()


@pytest.mark.parametrize("build", [
    lambda: builtin_matrix("random:16:2").matrix,
    lambda: _rotation_blocks(8, 45)[0],
    lambda: _complex_nonnormal(16, 46),
])
def test_resolvent_real_and_complex_shifts(monkeypatch, build):
    """Non-Hermitian ``L`` solve through ``V`` and ``V^{-1}`` with refinement, and run no solver."""
    mat = build()
    gen = Generator(mat)
    rng = np.random.default_rng(47)
    u = rng.standard_normal(gen.dim) + 1j * rng.standard_normal(gen.dim)
    shifts = (0.5, 50, np.float64(3.0), 5.0 + 5.0j, -2.0 + 0.5j, 2.0 + 0j)
    refs = [np.linalg.solve(mu * np.eye(gen.dim) - gen.matrix, u) for mu in shifts]
    seen = _spy(monkeypatch, "solve", "inv")
    for mu, ref in zip(shifts, refs):
        assert relerr(gen.resolvent(mu, u), ref) <= 1e-12, mu
    assert not seen


def _convection_diffusion(n, pe):
    """Central-difference ``L = D2 - pe D1`` on ``n`` interior points of ``(0, 1)``: real, non-normal."""
    h = 1.0 / (n + 1)
    off = np.ones(n - 1)
    d2 = (np.diag(np.full(n, -2.0)) + np.diag(off, 1) + np.diag(off, -1)) / h**2
    d1 = (np.diag(off, 1) - np.diag(off, -1)) / (2.0 * h)
    return d2 - pe * d1


def _spy_corrections(monkeypatch):
    """Record the norm of each ``spectral_apply`` result: a resolvent's first solve, then its corrections."""
    sizes = []
    spectral_apply = Generator.spectral_apply

    def spy(self, fvals, u):
        out = spectral_apply(self, fvals, u)
        sizes.append(np.linalg.norm(out))
        return out

    monkeypatch.setattr(Generator, "spectral_apply", spy)
    return sizes


class TestIllConditionedResolvent:
    """Convection-diffusion at ``n = 64``, ``pe = 30``: ``cond(V)`` about 2.7e6.

    Each refinement step shrinks the error by a factor that grows with
    ``cond(V)`` and as ``mu`` nears the spectrum.  Next to the eigenvalue of
    largest modulus, ``lam0``, at a relative gap of 1e-6 two steps converge
    (corrections 6e-6, then 4e-11, relative); at 1e-10 each step gains only
    about a factor of 16, the steps run out and the dense solve answers.
    """

    @pytest.fixture(scope="class")
    def case(self):
        gen = Generator(_convection_diffusion(64, 30.0))
        assert 1e6 < gen.bound_M < 1e7 and gen._real and not gen._lam.imag.any()
        lam0 = gen._lam[np.argmax(np.abs(gen._lam))]
        u = np.random.default_rng(54).standard_normal(gen.dim) + 0j
        return gen, lam0, u

    def test_two_steps_converge_near_the_spectrum(self, monkeypatch, case):
        gen, lam0, u = case
        calls = _spy(monkeypatch, "solve", "inv")
        sizes = _spy_corrections(monkeypatch)
        x = gen.resolvent(lam0 * (1.0 + 1e-6), u)
        assert not calls
        assert len(sizes) == 3  # the spectral solve and two corrections
        assert sizes[1] > 1e-7 * np.linalg.norm(x) and sizes[2] <= 1e-10 * np.linalg.norm(x)

    def test_dense_solve_answers_where_refinement_does_not_converge(self, monkeypatch, case):
        gen, lam0, u = case
        mu = lam0 * (1.0 + 1e-10)
        ref = np.linalg.solve(mu * np.eye(gen.dim) - gen.matrix, u)
        calls = _spy(monkeypatch, "solve", "inv")
        assert relerr(gen.resolvent(mu, u), ref) <= 1e-14
        assert [name for name, _ in calls] == ["solve"]

    @pytest.mark.parametrize("mu", [0.5, 5.0 + 5.0j])
    def test_far_shifts_match_solve(self, case, mu):
        gen, _, u = case
        ref = np.linalg.solve(mu * np.eye(gen.dim) - gen.matrix, u)
        assert relerr(gen.resolvent(mu, u), ref) <= 1e-13


@pytest.mark.parametrize("build, dtype", [
    (lambda: builtin_matrix("laplacian1d:64").matrix.real.copy(), np.float64),
    (lambda: builtin_matrix("random:16:2").matrix.real.copy(), np.float64),
    (lambda: _complex_nonnormal(16, 55), complex),
])
def test_matrix_stored_once_in_its_own_dtype(build, dtype):
    """``L`` is kept once as ``_mat``; the complex ``matrix`` is made only when read."""
    mat = build()
    gen = Generator(mat)
    assert gen._mat.dtype == dtype and gen._real == (dtype == np.float64)
    assert gen._mat.flags.c_contiguous and gen._mat.flags.owndata and not gen._mat.flags.writeable
    u = np.random.default_rng(56).standard_normal(gen.dim) + 0j
    gen.resolvent(0.5, u), gen.resolvent(5.0 + 5.0j, u), gen.apply(u)
    gen.apply_minus_power(3, u), gen.frac_power(0.3, u), gen.norm2, gen.schur
    fracext.ode_cross_solve(gen, 0.4, u, u, 0.5 / np.sqrt(gen.norm2))
    reg = gen.yosida(0.01)
    reg.apply(u), reg.resolvent(0.5, u)
    assert "matrix" not in gen.__dict__ and "matrix" not in reg.__dict__
    public = gen.matrix
    assert public.dtype == complex and not public.flags.writeable
    assert np.array_equal(public, mat) and gen.matrix is public


# -- stored factors and the real spectral kernel ----------------------------------------


def _stored_factor_cases():
    rotation = _rotation_blocks(6, 44)[0]
    return {
        "laplacian1d:64": (builtin_matrix("laplacian1d:64"), np.float64),
        "random:8:3": (builtin_matrix("random:8:3"), np.float64),
        "complex-nonnormal": (Generator(_complex_nonnormal(16, 45)), complex),
        "real-with-pairs": (Generator(rotation), complex),
        "complex-diagonal": (Generator(np.diag([-1.0 + 2.0j, -3.0, -0.5 - 4.0j])), np.float64),
    }


@pytest.mark.parametrize("case", list(_stored_factor_cases()))
def test_stored_factors_own_dtype_contiguous_read_only(case):
    gen, dtype = _stored_factor_cases()[case]
    for arr in (gen._v, gen._vinv):
        assert arr.dtype == dtype
        assert arr.flags.c_contiguous and arr.flags.owndata and not arr.flags.writeable
    for public, stored in ((gen.eigvecs, gen._v), (gen.eigvecs_inv, gen._vinv)):
        assert public.dtype == complex and not public.flags.writeable
        assert np.array_equal(public, stored)
    assert gen.eigenvalues.dtype == complex and np.array_equal(gen._lam, gen.eigenvalues)
    assert gen._lam.dtype == (complex if gen.eigenvalues.imag.any() else np.float64)


@pytest.mark.parametrize("case", list(_stored_factor_cases()))
def test_spectral_reads_match_complex_product(case):
    """Every spectral read agrees with the complex product ``V diag(f) V^{-1} u`` for any ``u``."""
    gen, _ = _stored_factor_cases()[case]
    vecs, vecs_inv, lam = gen.eigvecs, gen.eigvecs_inv, gen.eigenvalues
    rng = np.random.default_rng(46)
    real_u = rng.standard_normal(gen.dim)
    wide = rng.standard_normal(2 * gen.dim) + 1j * rng.standard_normal(2 * gen.dim)
    for u in (real_u + 1j * rng.standard_normal(gen.dim), real_u, wide[::2]):
        coords = vecs_inv @ u
        fvals = 1.0 / (0.3 - lam)
        assert relerr(gen.spectral_apply(fvals, u), vecs @ (fvals * coords)) <= 1e-14
        for t in (0.01, 1.0):
            got = gen.semigroup(t, u)
            assert got.dtype == complex
            assert relerr(got, vecs @ (np.exp(t * lam) * coords)) <= 1e-14
        for s in (0.3, 1.5, -0.7):
            assert relerr(gen.frac_power(s, u), vecs @ (np.exp(s * np.log(-lam)) * coords)) <= 1e-14
        ts = np.array([0.0, 0.2, 3.0])
        ref = (np.exp(np.multiply.outer(ts, lam)) * coords) @ vecs.T
        assert relerr(gen.semigroup_batch(ts, u), ref) <= 1e-14
    for s in (0.3, 1.5):
        got = gen.frac_power_matrix(s)
        assert got.dtype == complex
        assert relerr(got, (vecs * np.exp(s * np.log(-lam))) @ vecs_inv) <= 1e-14


def test_semigroup_flush_keeps_digits_on_stiff_laplacian():
    """At ``t = 1e-3`` the fast modes of ``laplacian1d:512`` give weights far below ``tiny/eps``.

    Flushing them to zero changes the result by less than ``n * tiny/eps``
    absolute against the unflushed product, and the result still matches the
    complex product and the sine-basis oracle.
    """
    n, t = 512, 1e-3
    gen = builtin_matrix("laplacian1d:512")
    u = np.random.default_rng(47).standard_normal(n) + 0j
    weights = np.exp(t * gen._lam) * _apply(gen._vinv, u)
    tiny = (weights != 0.0) & (np.abs(weights) < _FLUSH)
    assert tiny.any()  # the flush has work to do
    assert not gen.spectral_apply(np.full(n, 1e-300), u).any()
    got = gen.semigroup(t, u)
    assert np.max(np.abs(got - _apply(gen._v, weights))) <= n * _FLUSH
    reference = gen.eigvecs @ (np.exp(t * gen.eigenvalues) * (gen.eigvecs_inv @ u))
    assert relerr(got, reference) <= 1e-14
    basis, mu = _sine_modes(n)
    assert relerr(got, basis @ (np.exp(-t * mu) * (basis @ u))) <= 1e-10


# -- Hermitian resolvent through the unitary eigenbasis, and the lazy 2-norm ------------


def _hermitian_case(case):
    """A Hermitian generator and its oracle ``(basis, a)``: ``-L = basis diag(a) basis^H``."""
    if case == "complex-hermitian":
        mat, q, lam = _complex_hermitian(12, 48)
        return Generator(mat), q, -lam
    return (builtin_matrix(case), *_sine_modes(int(case.split(":")[1])))


@pytest.mark.parametrize("case", ["laplacian1d:64", "laplacian1d:512", "laplacian1d:1024",
                                  "complex-hermitian"])
def test_hermitian_resolvent_matches_solve_and_eigenbasis(monkeypatch, case):
    """The spectral solve with one refinement step agrees with the LU and the eigenbasis, with no solver.

    What one fixed-precision step leaves is the rounding of the residual
    ``mu x - L x``, the same size as the LU's backward error: on
    ``laplacian1d:1024`` at ``mu = -2+0.5j`` both solves were up to 1.5e-12
    and 4.7e-13 from the sine basis over 20 vectors, so the two may differ by
    more than 1e-12.  Without the step the spectral solve is up to 3.9e-11 off.
    """
    gen, basis, a = _hermitian_case(case)
    assert gen._hermitian
    rng = np.random.default_rng(49)
    u = rng.standard_normal(gen.dim) + 1j * rng.standard_normal(gen.dim)
    shifts = (0.5, 50, 5.0 + 5.0j, -2.0 + 0.5j)
    refs = [np.linalg.solve(mu * np.eye(gen.dim) - gen.matrix, u) for mu in shifts]
    seen = _spy(monkeypatch, "solve", "inv")
    for mu, ref in zip(shifts, refs):
        got = gen.resolvent(mu, u)
        assert relerr(got, ref) <= 2e-12, mu
        assert relerr(got, basis @ ((basis.conj().T @ u) / (mu + a))) <= 2e-12, mu
    assert not seen


def test_hermitian_resolvent_needs_its_refinement_step():
    """On ``laplacian1d:1024`` at ``mu = 0.5`` the bare spectral solve loses digits; one step restores them."""
    n, mu = 1024, 0.5
    gen = builtin_matrix(f"laplacian1d:{n}")
    basis, a = _sine_modes(n)
    u = np.random.default_rng(50).standard_normal(n) + 0j
    oracle = basis @ ((basis @ u) / (mu + a))
    bare = gen.spectral_apply(1.0 / (mu - gen._lam), u)
    assert relerr(bare, oracle) > 5e-12
    assert relerr(gen.resolvent(mu, u), oracle) <= 1e-12


@pytest.mark.parametrize("name", ["laplacian1d:64", "random:8:3"])
def test_resolvent_refusals_on_both_paths(name):
    gen = builtin_matrix(name)
    u = np.ones(gen.dim, dtype=complex)
    with pytest.raises(ValueError, match="coincides"):
        gen.resolvent(gen.eigenvalues[3], u)
    for mu in (np.nan, np.inf, complex(1.0, np.inf)):
        with pytest.raises(ValueError, match="finite"):
            gen.resolvent(mu, u)


def _spy_two_norms(monkeypatch):
    """Count 2-norm SVDs: ``np.linalg.norm(..., 2)`` and direct ``np.linalg.svd`` calls."""
    calls = []
    norm, svd = np.linalg.norm, np.linalg.svd

    def spy_norm(x, ord=None, *args, **kwargs):
        if ord == 2:
            calls.append("norm")
        return norm(x, ord, *args, **kwargs)

    def spy_svd(*args, **kwargs):
        calls.append("svd")
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", spy_norm)
    monkeypatch.setattr(np.linalg, "svd", spy_svd)
    return calls


@pytest.mark.parametrize("build", [
    lambda: builtin_matrix("random:64:1").matrix.real.copy(),
    lambda: _rotation_blocks(6, 51)[0],
    lambda: _complex_nonnormal(16, 52),
])
def test_norm2_is_computed_on_first_read(monkeypatch, build):
    """A non-Hermitian ``L`` and its ``yosida`` child each take their own SVD, only when read."""
    mat = build()
    ref = np.linalg.norm(mat, 2)
    calls = _spy_two_norms(monkeypatch)
    gen = Generator(mat)
    reg = gen.yosida(0.01)
    assert not calls and "norm2" not in vars(gen) and "norm2" not in vars(reg)
    assert gen.norm2 == ref
    assert calls == ["norm"] and "norm2" not in vars(reg)
    got = reg.norm2
    assert calls == ["norm", "norm"]
    monkeypatch.undo()
    own = reg.matrix.real.copy() if reg._real else reg.matrix  # real V and lam: a real child
    assert got == np.linalg.norm(own, 2) and got < gen.norm2


@pytest.mark.parametrize("build", [
    lambda: builtin_matrix("laplacian1d:64").matrix.real.copy(),
    lambda: _complex_hermitian(12, 53)[0],
])
def test_hermitian_norm2_is_the_spectral_radius(monkeypatch, build):
    mat = build()
    calls = _spy_two_norms(monkeypatch)
    gen = Generator(mat)
    reg = gen.yosida(0.01)
    for g in (gen, reg):
        assert g.norm2 == np.max(np.abs(g.eigenvalues))
    assert not calls

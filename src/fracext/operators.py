"""Matrix generators of uniformly bounded semigroups and their spectral calculus.

A :class:`Generator` wraps a diagonalizable square matrix ``L`` whose spectrum
lies in the open left half-plane.  That class of matrices generates uniformly
bounded semigroups ``e^{tL}`` (with bound ``cond(V)`` for the eigenvector
matrix ``V``) and has ``0`` in its resolvent set, so every fractional-power
construction in this package is well defined on it.  The eigendecomposition
is computed at construction, along one of two paths:

* Hermitian ``L`` (exactly equal to its conjugate transpose, as is every real
  symmetric matrix): one ``eigh``; ``V^{-1} = V^H``, with no inverse.
* Any other ``L``: a general ``eig`` and an explicit ``inv(V)``.

On either path a real ``L`` (no imaginary part, whatever its dtype) is factored
in real arithmetic: ``eigh``/``eig`` and the reconstruction check run LAPACK's
real drivers, and so does ``inv(V)`` when ``V`` comes back real (a real ``L``
with complex-conjugate eigenvalue pairs has a complex ``V``).

The 2-norm ``||L||_2`` is computed on first read: ``max|lam|`` for a
Hermitian ``L``, otherwise one SVD of ``L`` in its own dtype (real for a real
``L``).  :meth:`Generator.resolvent` runs in ``O(d^2)`` for every ``L``: a
solve through the stored ``V`` and ``V^{-1}`` plus iterative refinement
against ``L`` itself, with one dense solve kept for the shifts where the
refinement does not converge.

``L``, ``V`` and ``V^{-1}`` are stored in their own dtype: real whenever they
have no imaginary part, as owned, C-contiguous, read-only arrays, and the
spectrum is kept real too when it is.  Every product with ``L``
(:meth:`Generator.apply`, :meth:`Generator.apply_minus_power`, the
resolvent's residual) and every spectral product (:meth:`Generator.spectral_apply`,
the semigroup, the fractional powers and the per-mode routes' eigencoordinates)
goes through one kernel, :func:`_apply`: a real factor meets a complex vector
in one real GEMM on the vector's interleaved (real, imaginary) pairs, half the
work of the complex product and with no complex copy of the factor.

:meth:`Generator.yosida` builds its regularized generator from the parent's
stored ``V`` and ``V^{-1}``, so it runs no new eigendecomposition; with real
``V`` and eigenvalues its matrix product is real.  Two further
factors are computed on first use and then cached: the complex Schur form
``L = Z T Z^H`` that the Balakrishnan resolvents solve against (for a real
``L`` made complex from the real Schur form; for a Hermitian ``L`` with a
diagonal ``T``, so its solves are divisions), and the semigroup bound
``cond_2(V)``.  All operations are pure functions of this
data and safe to call from multiple threads.
"""

from functools import cached_property

import numpy as np

__all__ = [
    "Generator",
    "load_vector",
    "parse_complex",
    "random_generator",
]

_RECON_TOL = 1e-10
# Refinement steps a resolvent takes before it falls back to a dense solve.
_REFINE_STEPS = 4
# Spectral weights below this are flushed to zero: each would only make
# subnormal products inside the map-back, and all of them together change the
# result by less than ``n * _FLUSH * max|V|`` absolute.
_FLUSH = np.finfo(float).tiny / np.finfo(float).eps


def parse_complex(token):
    """Parse a matrix-file entry written like ``1.5``, ``-2i`` or ``3.0-0.25i``."""
    text = token.strip().replace("I", "i")
    if not text:
        raise ValueError("empty entry")
    try:
        return complex(text.replace("i", "j"))
    except ValueError:
        raise ValueError(f"cannot parse complex entry {token!r}") from None


def _format_complex(z):
    return f"{z.real:.17g}{z.imag:+.17g}i"


def _real_if_real(arr):
    """``arr`` as a real array when it has no imaginary part, so LAPACK runs its real drivers."""
    return arr.real.copy() if np.iscomplexobj(arr) and not arr.imag.any() else arr


def _frozen(arr):
    """``arr`` as an owned, C-contiguous, read-only copy; real when it has no imaginary part."""
    arr = np.array(_real_if_real(arr), order="C")
    arr.setflags(write=False)
    return arr


def _complex_copy(arr):
    out = arr.astype(complex)
    out.setflags(write=False)
    return out


def _apply(mat, x):
    """``mat`` applied to every vector along the last axis of ``x``: ``x @ mat.T``.

    A real ``mat`` and a complex ``x`` run one real GEMM on the interleaved
    (real, imaginary) pairs of ``x``, half the flops of the complex product
    and with no complex copy of ``mat``; for a single contiguous vector the
    pairs are a view of ``x``, ``(mat @ x.view(float).reshape(-1, 2))``.
    """
    lead, size = x.shape[:-1], x.shape[-1]
    rows = x.reshape(-1, size)
    if np.iscomplexobj(mat) or not np.iscomplexobj(x):
        return (rows @ mat.T).reshape(lead + (mat.shape[0],))
    pairs = np.ascontiguousarray(rows).view(float).reshape(-1, size, 2)
    out = mat @ pairs.transpose(1, 0, 2).reshape(size, -1)
    out = out.reshape(mat.shape[0], -1, 2).transpose(1, 0, 2)
    return np.ascontiguousarray(out).view(complex).reshape(lead + (mat.shape[0],))


def _check_spectrum(lam):
    bad = lam[~((lam.real < 0.0) & np.isfinite(lam))]  # NaN eigenvalues fail too
    if bad.size:
        worst = bad[np.argmax(bad.real)]
        raise ValueError(
            f"generator spectrum must lie in the open left half-plane; "
            f"found eigenvalue {worst}"
        )


class Generator:
    """Diagonalizable matrix generator with spectrum in the open left half-plane.

    Parameters
    ----------
    matrix : array_like
        Square matrix ``L``.  Rejected unless every eigenvalue has a negative
        real part and the eigendecomposition reconstructs ``L`` to a relative
        residual of ``1e-10``.  A Hermitian ``L`` is factored by ``eigh``
        (``V`` unitary, ``V^{-1} = V^H``); any other ``L``, near-Hermitian
        ones included, by ``eig`` and ``inv(V)``.  A real ``L`` (no imaginary
        part, whatever its dtype) is factored with real LAPACK calls,
        ``inv(V)`` whenever ``V`` is real.

    Attributes
    ----------
    dim : int
        Size of the matrix.
    matrix : ndarray
        The matrix ``L``, as a complex read-only copy made on first read.  The
        library itself computes with the stored ``_mat``, real whenever ``L``
        has no imaginary part.
    eigenvalues : ndarray
        Eigenvalues ``lam_i`` with ``Re(lam_i) < 0`` (complex, read-only).
    eigvecs, eigvecs_inv : ndarray
        Factor pair ``V``, ``V^{-1}`` with ``L = V diag(lam) V^{-1}``, as
        complex read-only copies made on first read.  The library itself
        computes with the stored factors ``_v`` and ``_vinv`` (and the
        spectrum ``_lam``), which are real whenever they have no imaginary
        part.
    norm2 : float
        ``||L||_2``, cached on first read: ``max|lam|`` for a Hermitian
        ``L``, otherwise a 2-norm SVD of ``L`` in its own dtype.
    bound_M : float
        ``cond_2(V)``, a surrogate for ``sup_t ||e^{tL}||`` (cached on first use).
    schur : tuple of ndarray
        Complex Schur factors ``(T, Z)`` (cached on first use).

    Cached factors are computed on first use and kept.  Two threads that read
    one for the first time at once at worst compute the same value twice.
    """

    def __init__(self, matrix):
        mat = np.array(matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"generator matrix must be square, got shape {mat.shape}")
        mat = _real_if_real(mat)  # a real L runs LAPACK's real drivers
        hermitian = np.array_equal(mat, mat.conj().T)
        if hermitian:
            lam, vecs = np.linalg.eigh(mat)
        else:
            lam, vecs = np.linalg.eig(mat)
        _check_spectrum(lam)
        vecs_inv = vecs.conj().T if hermitian else np.linalg.inv(vecs)
        scale = np.linalg.norm(mat)
        residual = np.linalg.norm((vecs * lam) @ vecs_inv - mat)
        if residual > _RECON_TOL * max(scale, 1e-300):
            raise ValueError(
                "matrix is not reliably diagonalizable: eigendecomposition "
                f"residual {residual:.3e} exceeds {_RECON_TOL:.0e} * ||L||"
            )
        self._set_factors(mat, lam, _frozen(vecs), _frozen(vecs_inv), hermitian)

    def _set_factors(self, mat, lam, vecs, vecs_inv, hermitian):
        """Store ``L = V diag(lam) V^{-1}``.

        ``vecs`` and ``vecs_inv`` are stored as given, so they must already be
        :func:`_frozen`; ``mat`` is frozen here.  ``hermitian`` means ``V`` is
        unitary, so ``L`` is normal and its 2-norm is the spectral radius.
        """
        eigenvalues = np.asarray(lam, dtype=complex)
        eigenvalues.setflags(write=False)
        self._mat = _frozen(mat)
        self.dim = self._mat.shape[0]
        self.eigenvalues = eigenvalues
        self._lam = _frozen(lam)
        self._v = vecs
        self._vinv = vecs_inv
        self._hermitian = hermitian

    @property
    def _real(self):
        """Whether ``L`` has no imaginary part, so ``_mat`` is real."""
        return not np.iscomplexobj(self._mat)

    @cached_property
    def matrix(self):
        """``L`` as a complex read-only array."""
        return _complex_copy(self._mat)

    @cached_property
    def eigvecs(self):
        """``V`` as a complex read-only array."""
        return _complex_copy(self._v)

    @cached_property
    def eigvecs_inv(self):
        """``V^{-1}`` as a complex read-only array."""
        return _complex_copy(self._vinv)

    @cached_property
    def norm2(self):
        """``||L||_2``: the spectral radius of a Hermitian ``L``, else one SVD of ``L``.

        A real ``L`` takes LAPACK's real SVD.
        """
        if self._hermitian:
            return float(np.max(np.abs(self._lam)))
        return float(np.linalg.norm(self._mat, 2))

    @cached_property
    def bound_M(self):
        """``cond_2(V)``, a surrogate for ``sup_t ||e^{tL}||``."""
        return float(np.linalg.norm(self._v, 2) * np.linalg.norm(self._vinv, 2))

    @cached_property
    def schur(self):
        """Read-only complex Schur factors ``(T, Z)``: ``L = Z T Z^H``, ``T`` upper triangular.

        Computed from ``L`` alone, independent of the eigendecomposition.  A
        real ``L`` takes LAPACK's real Schur form, whose 2x2 blocks
        ``rsf2csf`` then rotates into the same complex layout.  A Hermitian
        ``L`` keeps only the real part of ``T``'s diagonal: its Schur form is
        diagonal and real (Golub & Van Loan, *Matrix Computations*, 7.1), so
        what LAPACK leaves above the diagonal or in the imaginary parts is
        rounding, and ``(T, Z)`` stays a Schur form with the same backward
        error.  The resolvent solves then need no back substitution.
        """
        from scipy.linalg import rsf2csf, schur  # deferred: importing scipy.linalg is slow

        if self._real:
            tri, unitary = rsf2csf(*schur(self._mat, output="real"))
        else:
            tri, unitary = schur(self._mat, output="complex")
        if self._hermitian:
            tri = np.diag(tri.diagonal().real).astype(complex)
        tri.setflags(write=False)
        unitary.setflags(write=False)
        return tri, unitary

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_file(cls, path):
        """Load a generator from a plain-text matrix file.

        Format: first line is the dimension, then ``dim`` rows of ``dim``
        whitespace-separated entries; complex entries are written ``a+bi``.
        """
        with open(path, "r", encoding="utf-8") as handle:
            lines = [ln for ln in (raw.strip() for raw in handle) if ln and not ln.startswith("#")]
        if not lines:
            raise ValueError(f"{path}: empty matrix file")
        try:
            dim = int(lines[0])
        except ValueError:
            raise ValueError(f"{path}: first line must be the dimension, got {lines[0]!r}") from None
        if dim < 1 or len(lines) < dim + 1:
            raise ValueError(f"{path}: expected {dim} matrix rows after the dimension line")
        rows = []
        for i in range(dim):
            parts = lines[1 + i].split()
            if len(parts) != dim:
                raise ValueError(f"{path}: row {i + 1} has {len(parts)} entries, expected {dim}")
            rows.append([parse_complex(p) for p in parts])
        return cls(np.array(rows, dtype=complex))

    def to_file(self, path):
        """Write the matrix in the plain-text format accepted by :meth:`from_file`."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(f"{self.dim}\n")
            for row in self._mat:
                handle.write(" ".join(_format_complex(z) for z in row) + "\n")

    # -- internals ------------------------------------------------------------

    def _check_vector(self, u):
        vec = np.asarray(u, dtype=complex)
        if vec.shape != (self.dim,):
            raise ValueError(
                f"vector shape {vec.shape} does not match generator dimension {self.dim}"
            )
        return vec

    def _modes(self, u):
        """Eigenvalues ``lam`` and eigencoordinates ``c = V^{-1} u``.

        Each comes back real when it has no imaginary part (every Hermitian
        ``L`` has a real spectrum), so per-mode integrands run in real
        arithmetic wherever they can.
        """
        coords = _apply(self._vinv, u)
        return self._lam, (coords if coords.imag.any() else coords.real)

    def _from_modes(self, rows):
        """``V`` applied to each row of eigencoordinates: ``rows @ V^T``, complex.

        A real ``V`` runs in real arithmetic, half the work of the complex
        product (a quarter for real ``rows``).
        """
        return _apply(self._v, rows).astype(complex, copy=False)

    def spectral_apply(self, fvals, u):
        """Apply ``V diag(fvals) V^{-1}`` to ``u``.

        Weights ``|fvals_i (V^{-1} u)_i|`` below ``tiny/eps`` (about 1e-292)
        are flushed to zero first: they could only make subnormal products,
        which are slow, and change the result by less than
        ``n * 1e-292 * max|V|`` absolute.
        """
        weights = np.asarray(fvals) * _apply(self._vinv, self._check_vector(u))
        weights[np.abs(weights) < _FLUSH] = 0.0
        return _apply(self._v, weights)

    # -- semigroup and resolvent ----------------------------------------------

    def semigroup(self, t, u):
        """Apply ``e^{tL}`` for ``t >= 0``."""
        if not 0.0 <= t < np.inf:
            raise ValueError(f"semigroup time must be nonnegative and finite, got {t}")
        return self.spectral_apply(np.exp(t * self._lam), u)

    def semigroup_batch(self, ts, u):
        """Apply ``e^{t_j L} u`` for a batch of times; shape ``(len(ts), dim)``.

        Times may be passed in any order but must be nonnegative; the output
        row order matches the input order.
        """
        ts = np.asarray(ts, dtype=float)
        if not np.all((ts >= 0.0) & (ts < np.inf)):
            raise ValueError("semigroup times must be nonnegative and finite")
        coords = _apply(self._vinv, self._check_vector(u))
        return self._from_modes(np.exp(np.multiply.outer(ts, self._lam)) * coords)

    def resolvent(self, mu, u):
        """Apply ``(mu I - L)^{-1}`` (``mu`` finite and off the spectrum) in ``O(d^2)``.

        ``x = V diag(1/(mu - lam)) V^{-1} u``, then steps of iterative
        refinement against ``L`` itself, ``x += V diag(1/(mu - lam)) V^{-1} r``
        with ``r = u - (mu x - L x)`` (Higham, *Accuracy and Stability of
        Numerical Algorithms*, 2nd ed., 12.2), until a correction is at most
        ``1e-10 ||x||``, the tolerance of the factorization's reconstruction
        check.  Without refinement the eigendecomposition's rounding costs up
        to two digits on ``laplacian1d:1024``; with it the error is that of
        the rounded residual, as for an LU.  Each step shrinks the error by a
        factor that grows with ``cond(V)`` and as ``mu`` nears the spectrum,
        so one step is usually enough.  Where that factor is not small (``mu``
        next to an eigenvalue of an ill-conditioned ``V``) a correction fails
        to halve, or four steps run out, and one dense solve answers instead.
        """
        u = self._check_vector(u)
        if not np.isfinite(mu):
            raise ValueError(f"resolvent point must be finite, got mu={mu}")
        gap = np.min(np.abs(mu - self._lam))
        if gap < 1e-14 * max(1.0, abs(mu)):
            raise ValueError(f"mu={mu} coincides with an eigenvalue of L")
        fvals = 1.0 / (mu - self._lam)
        x = self.spectral_apply(fvals, u)
        last = np.linalg.norm(x)
        for _ in range(_REFINE_STEPS):
            step = self.spectral_apply(fvals, u - (mu * x - _apply(self._mat, x)))
            x = x + step
            size = np.linalg.norm(step)
            if size <= _RECON_TOL * np.linalg.norm(x):
                return x
            if not size <= 0.5 * last:  # stalled, or not finite
                break
            last = size
        return np.linalg.solve(mu * np.eye(self.dim) - self._mat, u)

    def apply(self, u):
        """Apply ``L`` itself."""
        return _apply(self._mat, self._check_vector(u))

    def apply_minus_power(self, k, u):
        """Apply ``(-L)^k = A^k`` for integer ``k >= 0`` by repeated products."""
        w = self._check_vector(u).copy()
        for _ in range(k):
            w = -_apply(self._mat, w)
        return w

    # -- fractional powers (the spectral oracle) -------------------------------

    def frac_power(self, s, u):
        """Apply ``(-L)^s`` exactly through the eigendecomposition.

        Uses the principal branch of ``(-lam)^s``, which is analytic because
        ``-lam`` lies in the open right half-plane.  Any real ``s`` is
        accepted; negative ``s`` gives the corresponding negative power.
        """
        return self.spectral_apply(np.exp(s * np.log(-self._lam)), u)

    def frac_power_matrix(self, s):
        """Dense matrix of ``(-L)^s`` (for inspection and tests), complex."""
        powers = np.exp(s * np.log(-self._lam))
        return _apply(self._vinv.T, self._v * powers).astype(complex, copy=False)

    # -- regularization ---------------------------------------------------------

    def yosida(self, eps):
        """Return the generator whose negative is ``A_eps = A(I + eps A)^{-1}``, ``A = -L``.

        The bounded regularization of ``A``: eigenvalues map to
        ``a_i / (1 + eps a_i)`` with ``a_i = -lam_i``.  The result shares this
        generator's read-only ``V`` and ``V^{-1}`` and runs no new
        eigendecomposition; its Schur factors, ``bound_M`` and ``norm2`` are
        computed afresh from its own matrix on first use.
        """
        if not 0 < eps < np.inf:
            raise ValueError(f"regularization parameter must be positive and finite, got {eps}")
        a = -self.eigenvalues
        lam = _frozen(-(a / (1.0 + eps * a)))
        _check_spectrum(lam)
        # Real V and lam give a real product, so norm2 takes a real SVD.
        mat = _apply(self._vinv.T, self._v * lam)
        # No reconstruction check: mat is built from these very factors.
        reg = Generator.__new__(Generator)
        reg._set_factors(mat, lam, self._v, self._vinv, self._hermitian)
        return reg


def load_vector(path, dim=None):
    """Load a vector from a text file of whitespace/newline-separated ``a+bi`` entries."""
    with open(path, "r", encoding="utf-8") as handle:
        tokens = [tok for raw in handle for tok in raw.split() if not tok.startswith("#")]
    if not tokens:
        raise ValueError(f"{path}: empty vector file")
    vec = np.array([parse_complex(tok) for tok in tokens], dtype=complex)
    if dim is not None and vec.shape != (dim,):
        raise ValueError(f"{path}: vector length {vec.size} does not match dimension {dim}")
    return vec


def random_generator(dim, seed):
    """Seeded random diagonalizable generator with real spectrum in ``[-10, -0.5)``.

    Built as a similarity transform ``V diag(d) V^{-1}`` of a random negative
    diagonal, with ``V = I + 0.25 N`` for a standard-normal ``N`` so the
    eigenbasis is mildly non-orthogonal but far from defective.  Bitwise
    reproducible for a fixed seed.
    """
    rng = np.random.default_rng(seed)
    diag = rng.uniform(-10.0, -0.5, size=dim)
    vecs = np.eye(dim) + 0.25 * rng.standard_normal((dim, dim))
    mat = (vecs * diag) @ np.linalg.inv(vecs)
    return Generator(mat)

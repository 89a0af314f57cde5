"""Matrix generators of uniformly bounded semigroups and their spectral calculus.

A :class:`Generator` wraps a diagonalizable square matrix ``L`` whose spectrum
lies in the open left half-plane.  That class of matrices generates uniformly
bounded semigroups ``e^{tL}`` (with bound ``cond(V)`` for the eigenvector
matrix ``V``) and has ``0`` in its resolvent set, so every fractional-power
construction in this package is well defined on it.  The eigendecomposition
and the 2-norm ``||L||_2`` are computed at construction, along one of two
paths:

* Hermitian ``L`` (exactly equal to its conjugate transpose, as is every real
  symmetric matrix): one ``eigh``; ``V^{-1} = V^H`` and ``||L||_2 = max|lam|``,
  with no inverse and no SVD.
* Any other ``L``: a general ``eig``, an explicit ``inv(V)`` and a 2-norm SVD.

:meth:`Generator.yosida` builds its regularized generator from the parent's
``V`` and ``V^{-1}``, so it runs no new eigendecomposition.  Two further
factors are computed on first use and then cached: the complex Schur form
``L = Z T Z^H`` that the Balakrishnan resolvents solve against, and the
semigroup bound ``cond_2(V)``.  All operations are pure functions of this
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


def _check_spectrum(lam):
    if np.any(lam.real >= 0.0):
        worst = lam[np.argmax(lam.real)]
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
        (``V`` unitary, ``V^{-1} = V^H``, ``norm2 = max|lam|``); any other
        ``L``, near-Hermitian ones included, by ``eig``, ``inv(V)`` and an SVD.

    Attributes
    ----------
    dim : int
        Size of the matrix.
    matrix : ndarray
        The matrix ``L`` (complex, read-only).
    eigenvalues : ndarray
        Eigenvalues ``lam_i`` with ``Re(lam_i) < 0`` (complex on both paths).
    eigvecs, eigvecs_inv : ndarray
        Factor pair ``V``, ``V^{-1}`` with ``L = V diag(lam) V^{-1}``.
    norm2 : float
        ``||L||_2``.
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
        hermitian = np.array_equal(mat, mat.conj().T)
        if hermitian:
            lam, vecs = np.linalg.eigh(mat)
            lam = lam.astype(complex)
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
        self._set_factors(mat, lam, vecs, vecs_inv, hermitian)

    def _set_factors(self, mat, lam, vecs, vecs_inv, hermitian):
        """Store ``L = V diag(lam) V^{-1}`` read-only and compute ``||L||_2``.

        ``hermitian`` means ``V`` is unitary, so ``L`` is normal and its
        2-norm is the spectral radius.
        """
        for arr in (mat, lam, vecs, vecs_inv):
            arr.setflags(write=False)
        self.dim = mat.shape[0]
        self.matrix = mat
        self.eigenvalues = lam
        self.eigvecs = vecs
        self.eigvecs_inv = vecs_inv
        self._hermitian = hermitian
        self.norm2 = float(np.max(np.abs(lam))) if hermitian else float(np.linalg.norm(mat, 2))

    @cached_property
    def bound_M(self):
        """``cond_2(V)``, a surrogate for ``sup_t ||e^{tL}||``."""
        return float(np.linalg.norm(self.eigvecs, 2) * np.linalg.norm(self.eigvecs_inv, 2))

    @cached_property
    def schur(self):
        """Read-only complex Schur factors ``(T, Z)``: ``L = Z T Z^H``, ``T`` upper triangular.

        Computed from ``L`` alone, independent of the eigendecomposition.
        """
        from scipy.linalg import schur  # deferred: importing scipy.linalg is slow

        tri, unitary = schur(self.matrix, output="complex")
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
            for row in self.matrix:
                handle.write(" ".join(_format_complex(z) for z in row) + "\n")

    # -- internals ------------------------------------------------------------

    def _check_vector(self, u):
        vec = np.asarray(u, dtype=complex)
        if vec.shape != (self.dim,):
            raise ValueError(
                f"vector shape {vec.shape} does not match generator dimension {self.dim}"
            )
        return vec

    def spectral_apply(self, fvals, u):
        """Apply ``V diag(fvals) V^{-1}`` to ``u``."""
        u = self._check_vector(u)
        return self.eigvecs @ (np.asarray(fvals) * (self.eigvecs_inv @ u))

    # -- semigroup and resolvent ----------------------------------------------

    def semigroup(self, t, u):
        """Apply ``e^{tL}`` for ``t >= 0``."""
        if t < 0:
            raise ValueError(f"semigroup time must be nonnegative, got {t}")
        return self.spectral_apply(np.exp(t * self.eigenvalues), u)

    def semigroup_batch(self, ts, u):
        """Apply ``e^{t_j L} u`` for a batch of times; shape ``(len(ts), dim)``.

        Times may be passed in any order but must be nonnegative; the output
        row order matches the input order.
        """
        ts = np.asarray(ts, dtype=float)
        if ts.size and ts.min() < 0:
            raise ValueError("semigroup times must be nonnegative")
        coords = self.eigvecs_inv @ self._check_vector(u)
        phases = np.exp(np.multiply.outer(ts, self.eigenvalues))
        return (phases * coords) @ self.eigvecs.T

    def resolvent(self, mu, u):
        """Apply ``(mu I - L)^{-1}`` by a dense solve (``mu`` off the spectrum)."""
        u = self._check_vector(u)
        gap = np.min(np.abs(mu - self.eigenvalues))
        if gap < 1e-14 * max(1.0, abs(mu)):
            raise ValueError(f"mu={mu} coincides with an eigenvalue of L")
        return np.linalg.solve(mu * np.eye(self.dim) - self.matrix, u)

    def apply(self, u):
        """Apply ``L`` itself."""
        return self.matrix @ self._check_vector(u)

    def apply_minus_power(self, k, u):
        """Apply ``(-L)^k = A^k`` for integer ``k >= 0`` by repeated products."""
        w = self._check_vector(u).copy()
        for _ in range(k):
            w = -(self.matrix @ w)
        return w

    # -- fractional powers (the spectral oracle) -------------------------------

    def frac_power(self, s, u):
        """Apply ``(-L)^s`` exactly through the eigendecomposition.

        Uses the principal branch of ``(-lam)^s``, which is analytic because
        ``-lam`` lies in the open right half-plane.  Any real ``s`` is
        accepted; negative ``s`` gives the corresponding negative power.
        """
        powers = np.exp(s * np.log(-self.eigenvalues))
        return self.spectral_apply(powers, u)

    def frac_power_matrix(self, s):
        """Dense matrix of ``(-L)^s`` (for inspection and tests)."""
        powers = np.exp(s * np.log(-self.eigenvalues))
        return (self.eigvecs * powers) @ self.eigvecs_inv

    # -- regularization ---------------------------------------------------------

    def yosida(self, eps):
        """Return the generator whose negative is ``A_eps = A(I + eps A)^{-1}``, ``A = -L``.

        The bounded regularization of ``A``: eigenvalues map to
        ``a_i / (1 + eps a_i)`` with ``a_i = -lam_i``.  The result shares this
        generator's read-only ``V`` and ``V^{-1}`` and runs no new
        eigendecomposition; its Schur factors and ``bound_M`` are computed
        afresh from its own matrix on first use.
        """
        if eps <= 0:
            raise ValueError(f"regularization parameter must be positive, got {eps}")
        a = -self.eigenvalues
        lam = -(a / (1.0 + eps * a))
        _check_spectrum(lam)
        mat = (self.eigvecs * lam) @ self.eigvecs_inv
        # No reconstruction check: mat is built from these very factors.
        reg = Generator.__new__(Generator)
        reg._set_factors(mat, lam, self.eigvecs, self.eigvecs_inv, self._hermitian)
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


def random_generator(dim, seed, spectrum=(-10.0, -0.5), mix=0.25):
    """Seeded random diagonalizable generator with real spectrum in ``spectrum``.

    Built as a similarity transform ``V diag(d) V^{-1}`` of a random negative
    diagonal, with ``V = I + mix * N`` for a standard-normal ``N`` so the
    eigenbasis is mildly non-orthogonal but far from defective.  Bitwise
    reproducible for a fixed seed.
    """
    lo, hi = spectrum
    if not (lo < hi < 0):
        raise ValueError(f"spectrum interval must be negative, got {spectrum}")
    rng = np.random.default_rng(seed)
    diag = rng.uniform(lo, hi, size=dim)
    vecs = np.eye(dim) + mix * rng.standard_normal((dim, dim))
    mat = (vecs * diag) @ np.linalg.inv(vecs)
    return Generator(mat)

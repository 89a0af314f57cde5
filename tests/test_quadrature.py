import warnings
from dataclasses import fields

import numpy as np
import pytest
from scipy.special import ellipj, ellipk

import fracext.fracpow
from fracext import Generator
from fracext.cli import builtin_matrix
from fracext.quadrature import (
    ConvergenceError,
    QuadratureSpec,
    _lattice_calls,
    _lattice_refine,
    _norm,
    _sizes,
    _weighted_sum,
    exp_sinh,
    exp_sinh_window,
    extrapolation_spread,
    hht_contour,
    refine,
    richardson_table,
    trapezoid_lattice,
    trapezoid_refine,
)

from conftest import nonnormal_factors


def test_spec_validation():
    assert [f.name for f in fields(QuadratureSpec)] == ["nodes", "tol"]
    assert QuadratureSpec() == QuadratureSpec(128, 1e-12)
    QuadratureSpec(32, 1e-10)
    QuadratureSpec(16, 1e-10)
    for nodes in (4, 15):
        with pytest.raises(ValueError, match="at least 16 nodes"):
            QuadratureSpec(nodes, 1e-10)
    with pytest.raises(ValueError, match="tolerance"):
        QuadratureSpec(32, -1.0)


@pytest.mark.parametrize("tol", [np.nan, np.inf])
def test_spec_rejects_non_finite_tolerance(tol):
    with pytest.raises(ValueError, match="finite"):
        QuadratureSpec(32, tol)


def test_trapezoid_refine_gaussian():
    val = trapezoid_refine(lambda x: np.exp(-x * x), -8.0, 8.0, 1e-13)
    assert abs(val - np.sqrt(np.pi)) < 1e-12


def hht_contour_reference(lo, hi, tau):
    """The contour formed as published: SciPy's real ``ellipj`` through A&S 16.21, and ``1/k - sn``."""
    r = np.sqrt(hi / lo)
    k = (r - 1.0) / (r + 1.0)
    m = k * k
    quarter, complementary = ellipk(m), ellipk(1.0 - m)
    s, c, d, _ = ellipj(quarter * tau, m)
    s1, c1, d1, _ = ellipj(0.5 * complementary, 1.0 - m)
    den = c1**2 + m * s**2 * s1**2
    sn = (s * d1 + 1j * c * d * s1 * c1) / den
    cn = (c * c1 - 1j * s * d * s1 * d1) / den
    dn = (d * c1 * d1 - 1j * m * s * c * s1) / den
    scale = np.sqrt(lo * hi)
    z = scale * (1.0 / k + sn) / (1.0 / k - sn)
    return z, quarter * (2.0 / k) * scale * cn * dn / (1.0 / k - sn) ** 2


@pytest.mark.parametrize("lo, hi", [(1.0, 4.0), (0.5, 10.0), (2.0, 6.7e3), (1e-3, 1.0)])
def test_hht_contour_matches_the_published_map(lo, hi):
    tau = np.linspace(-1.0, 3.0, 129)
    z, dz = hht_contour(lo, hi, tau)
    z_ref, dz_ref = hht_contour_reference(lo, hi, tau)
    assert np.max(np.abs(z - z_ref) / np.abs(z_ref)) <= 1e-13
    assert np.max(np.abs(dz - dz_ref) / np.abs(dz_ref)) <= 1e-13
    assert np.isclose(z[0], z[-1], rtol=1e-15) and abs(z[0].imag) <= 1e-15 * z[0].real


@pytest.mark.parametrize("ratio", [1e2, 1e8, 1e16])
def test_hht_contour_cauchy_integral_at_both_ends(ratio):
    # -1/(2 pi i) int z^-0.3 / (z - x) dz = x^-0.3 for x anywhere in [lo, hi], the ends included,
    # where the published form of the map cancels once the ratio is large
    x = np.array([1.0, 1.0 + 1e-9, np.sqrt(ratio), ratio * (1.0 - 1e-9), ratio])

    def cauchy(tau):
        z, dz = hht_contour(1.0, ratio, tau)
        return (z**-0.3 * dz / (-2j * np.pi))[:, None] / (z[:, None] - x)

    got = trapezoid_refine(cauchy, -1.0, 3.0, 1e-15, h0=1.0 / 16.0)
    assert np.max(np.abs(got - x**-0.3) / x**-0.3) <= 1e-13


def test_refinement_failure_raises():
    # a jump defeats the trapezoid rule: it does not converge within its level budget
    def jump(x):
        return (x > 1.0 / 3.0).astype(float)

    with pytest.raises(ConvergenceError, match="trapezoid") as err:
        trapezoid_refine(jump, 0.0, 1.0, 1e-13)
    assert 1e-4 < err.value.achieved < 1e-1


def recording(f):
    """``f`` wrapped to keep a copy of every node array it is called on."""
    calls = []

    def g(x):
        calls.append(np.array(x))
        return f(x)

    return g, calls


def test_two_level_integrals_call_the_integrand_once():
    # an integral that closes on its second or third level evaluates all three in one call, on
    # the grid of the first call's step in increasing order
    g, calls = recording(lambda x: np.exp(-x * x))
    assert abs(trapezoid_refine(g, -8.0, 8.0, 1e-13) - np.sqrt(np.pi)) <= 1e-15
    assert len(calls) == 1 and np.array_equal(calls[0], -8.0 + 0.25 * np.arange(65))


@pytest.mark.parametrize("order", ["C", "F"])
def test_first_call_sums_each_level_as_a_call_of_its_own(order):
    # the joint first call changes no sum: each level's is bitwise the one a call of its own gives;
    # values stored node-fastest, as the triangular sweep stores its solutions, sum each level's
    # share as a strided view, which agrees to rounding
    freqs = np.random.default_rng(4).uniform(0.5, 2.0, 48) + 0.5j

    def g(x):
        return np.asarray(np.exp(-np.multiply.outer(x * x, freqs)), order=order)

    def levels():
        value = mass = 0.0
        for x, w in trapezoid_lattice(-6.0, 6.0, 2.0, levels=9):  # the first call's step is 0.5
            vals = g(x)
            new_value, new_mass = _weighted_sum(w, vals, _sizes(vals))
            value, mass = 0.5 * value + new_value, 0.5 * mass + new_mass
            yield value[None], [mass]

    expected = refine(levels(), 1e-13, "per level")[0]
    got = trapezoid_refine(g, -6.0, 6.0, 1e-13, h0=0.5)
    if order == "C":
        assert np.array_equal(got, expected)
    else:
        assert np.linalg.norm(got - expected) <= 1e-15 * np.linalg.norm(expected)


@pytest.mark.parametrize("matrix", ["random:128:7", "laplacian1d:128", "nonnormal"])
def test_resolvent_and_bbw_level_sizes(monkeypatch, matrix):
    # one trapezoid call per integral and one sweep per integrand call, the first serving its
    # first three levels: a real spectrum on the contour, a complex one on the exp-sinh map
    trapezoids, sweeps, mapped = [], [], []

    def named(f, *args, name, **kwargs):
        trapezoids.append(name)
        return trapezoid(f, *args, name=name, **kwargs)

    def counted(alpha, beta, tri, rhs):
        x = solve(alpha, beta, tri, rhs)
        sweeps.append(len(x))
        return x

    def recorded(t):
        mapped.append(len(t))
        return exp_sinh(t)

    solve, trapezoid = fracext.fracpow._shifted_triangular_solve, fracext.fracpow.trapezoid_refine
    monkeypatch.setattr(fracext.fracpow, "trapezoid_refine", named)
    monkeypatch.setattr(fracext.fracpow, "_shifted_triangular_solve", counted)
    monkeypatch.setattr(fracext.fracpow, "exp_sinh", recorded)
    if matrix == "nonnormal":
        vecs, lam = nonnormal_factors()
        gen = Generator((vecs * lam) @ np.linalg.inv(vecs))
    else:
        gen = builtin_matrix(matrix)
    u = np.random.default_rng(1).standard_normal(gen.dim) + 0j
    fracext.fracpow.balakrishnan_general(gen, 0.3, u)
    fracext.fracpow.bbw_frac_power(gen, 0.3, 1, u)
    # the contour's first call takes 64 steps over the period at hi/lo = 20 (random:128:7) and
    # 128 at 6.7e3 (laplacian1d:128), the exp-sinh map's QuadratureSpec.nodes = 128 across its
    # window; every integral certifies its tail on its third level, in one sweep
    assert sweeps == {"random:128:7": [65], "laplacian1d:128": [129], "nonnormal": [129]}[matrix]
    assert mapped == ([129] if matrix == "nonnormal" else [])
    assert trapezoids == ["balakrishnan", "bbw rays"]


@pytest.mark.parametrize("matrix, sizes", [("random:128:7", [129]), ("laplacian1d:128", [129, 128]),
                                           ("nonnormal", [129])])
def test_second_kind_level_sizes(monkeypatch, matrix, sizes):
    # the exp-sinh map on every spectrum: the first call lays the first three levels in one
    # sweep; on laplacian1d:128 the integral needs one level more
    sweeps = []

    def counted(alpha, beta, tri, rhs):
        x = solve(alpha, beta, tri, rhs)
        sweeps.append(len(x))
        return x

    solve = fracext.fracpow._shifted_triangular_solve
    monkeypatch.setattr(fracext.fracpow, "_shifted_triangular_solve", counted)
    if matrix == "nonnormal":
        vecs, lam = nonnormal_factors()
        gen = Generator((vecs * lam) @ np.linalg.inv(vecs))
    else:
        gen = builtin_matrix(matrix)
    u = np.random.default_rng(1).standard_normal(gen.dim) + 0j
    for s in (0.3, 1.5):
        sweeps.clear()
        fracext.fracpow.balakrishnan_second_kind(gen, s, u)
        assert sweeps == sizes, s


def block_sums(funcs, masks):
    """``_lattice_refine`` sums of one block per function; ``masks`` keeps each call's open mask."""

    def sums(nodes, weights, parts, open_):
        masks.append(open_.copy())
        vals = [f(nodes) for f, live in zip(funcs, open_) if live]
        for part in parts:
            shares = [_weighted_sum(weights[part], v[part], _sizes(v[part])) for v in vals]
            values, masses = zip(*shares)
            yield np.array(values), np.array(masses)

    return sums


def test_lattice_refine_blocks_match_single_block_runs():
    # blocks close on their own: each stacked value is bitwise the one a run of that block alone
    # gives, and a call evaluates only the blocks open at it
    funcs = [lambda x: np.exp(-x * x), lambda x: 1.0 / np.cosh(x)]  # sech needs one level more
    masks = []
    both = _lattice_refine(_lattice_calls(-40.0, 40.0, 0.5, "probe"), block_sums(funcs, masks), 2,
                           1e-13, "probe")
    for b, f in enumerate(funcs):
        single = _lattice_refine(_lattice_calls(-40.0, 40.0, 0.5, "probe"), block_sums([f], []), 1,
                                 1e-13, "probe")
        assert both[b] == single[0]
    assert [mask.tolist() for mask in masks] == [[True, True], [True, True], [False, True]]


@pytest.mark.parametrize("sig", [1e-6, 0.3, 1.0 - 1e-6])
def test_exp_sinh_resolvent_integral(sig):
    # int_0^inf mu^-sig / (mu + lam) dmu = pi lam^-sig / sin(pi sig) in x = log mu, for lam in the
    # right half-plane, nearly imaginary ones too: the window's tails and the map's trapezoid rule
    # at the first call's 128 steps across it meet the target at sig near 0 and 1 alike
    lam = np.array([1e-3, 1.0, 1e4, 1e-6 + 1e3j, 1.0 - 30j])
    size = np.abs(lam)
    t_lo, t_hi = exp_sinh_window(size.min(), size.max(), 1.0 - sig, sig)

    def g(t):
        x, dx = exp_sinh(t)
        inner = (x <= 0.0)[:, None]
        c = np.exp(-np.abs(x))[:, None]  # mu below 1, 1/mu above: no overflow at either end
        weight = np.exp(np.where(inner[:, 0], (1.0 - sig) * x, -sig * x))
        return (dx * weight)[:, None] / np.where(inner, c + lam, 1.0 + c * lam)

    got = trapezoid_refine(g, t_lo, t_hi, 1e-13, h0=(t_hi - t_lo) / 128.0)
    exact = np.pi * lam**-sig / np.sin(np.pi * min(sig, 1.0 - sig))
    assert np.linalg.norm(got - exact) <= 1e-14 * np.linalg.norm(exact)


def test_trapezoid_levels_evaluate_each_node_once():
    lo, hi, h0 = -40.0, 40.3, 1.0
    g, calls = recording(lambda x: 1.0 / np.cosh(x))
    val = trapezoid_refine(g, lo, hi, 1e-13, h0=h0)
    assert len(calls) >= 2 and all(np.all(np.diff(x) > 0.0) for x in calls)
    levels = len(calls) + 2  # the first call serves the first three, from step 4 h0
    nodes = np.concatenate(calls)
    count = int(np.ceil((hi - lo) / (4.0 * h0) - 0.5)) * 2 ** (levels - 1)
    h = 4.0 * h0 / 2 ** (levels - 1)
    finest = lo + h * np.arange(count + 1)
    assert len(nodes) == len(finest) == len(np.unique(nodes))
    assert np.array_equal(np.sort(nodes), finest)
    weights = np.full(len(finest), h)
    weights[[0, -1]] *= 0.5
    reference = np.sum(weights / np.cosh(finest))
    assert abs(val - reference) <= 1e-15 * abs(reference)


def test_nested_vector_values_match_the_direct_sum():
    def f(x):
        return np.stack([np.exp(-x * x), 1j * x * np.exp(-x * x), np.exp(-x * x + 0.5j * x)], axis=1)

    g, calls = recording(f)
    val = trapezoid_refine(g, -7.0, 7.0, 1e-13, h0=0.5)  # first level of step 2
    assert len(calls) >= 2
    h = 0.5 / 2 ** (len(calls) - 1)  # the first call has step h0, each later one halves it
    finest = -7.0 + h * np.arange(round(14.0 / h) + 1)
    weights = np.full(len(finest), h)
    weights[[0, -1]] *= 0.5
    reference = weights @ f(finest)
    assert val.shape == (3,)
    assert np.linalg.norm(val - reference) <= 1e-15 * np.linalg.norm(reference)

    # values with more than one axis after the node axis keep their shape
    val = trapezoid_refine(lambda x: f(x).reshape(-1, 3, 1), -7.0, 7.0, 1e-13, h0=0.5)
    assert val.shape == (3, 1)
    assert np.linalg.norm(val[:, 0] - reference) <= 1e-15 * np.linalg.norm(reference)


@pytest.mark.parametrize("steps", [0.3, 1.9, 2.1, 5.9, 6.1, 10.0, 13.7])
def test_trapezoid_refine_covers_its_window_to_within_two_steps(steps):
    # the lattice starts from step 4 h0, so windows that are not a multiple of 4 h0 are
    # covered to within 2 h0 of hi, or to lo + 4 h0 when they are shorter than 2 h0
    lo, h0 = -1.0, 0.25
    hi = lo + steps * h0
    g, calls = recording(np.ones_like)
    trapezoid_refine(g, lo, hi, 1e-12, h0=h0)
    first = calls[0]
    assert first[0] == lo and np.allclose(np.diff(first), h0)
    if steps < 2.0:
        assert first[-1] == lo + 4.0 * h0
    else:
        assert abs(first[-1] - hi) <= 2.0 * h0 and (first[-1] - lo) % (4.0 * h0) == 0.0


@pytest.mark.parametrize(
    "lo, hi, h0",
    [(0.0, 1.0, 0.0), (0.0, 1.0, -0.1), (-np.inf, 1.0, 0.25), (0.0, np.inf, 0.25),
     (np.nan, 1.0, 0.25), (0.0, 1.0, np.inf)],
)
def test_trapezoid_rejects_bad_window(lo, hi, h0):
    with pytest.raises(ValueError, match=r"probe: trapezoid window"):
        trapezoid_refine(np.exp, lo, hi, 1e-12, h0=h0, name="probe")


def test_richardson_eliminates_prescribed_powers():
    # synthetic data V + a y^0.7 + b y^2 on a geometric sequence
    limit = 3.0
    ys = 0.5 * 0.5 ** np.arange(8)
    vals = limit + 2.0 * ys**0.7 - 1.4 * ys**2
    est = richardson_table(list(vals), [0.7, 2.0])[-1][-1]
    assert abs(est - limit) < 1e-12


def test_richardson_table_shapes():
    vals = [np.array([v, 2 * v]) for v in (4.0, 2.0, 1.0)]
    table = richardson_table(vals, [1.0, 2.0])
    assert len(table) == 3
    assert len(table[0]) == 3 and len(table[-1]) == 1


def test_extrapolation_spread():
    table = [[np.array([1.0]), np.array([1.5]), np.array([1.75])], [np.array([2.0]), np.array([2.0])]]
    assert extrapolation_spread(table) == 0.0
    assert np.isinf(extrapolation_spread([[np.array([1.0])]]))


def norm_of_one_row(value):
    """The per-row 2-norm, scaled by the largest magnitude, one row at a time."""
    size = np.abs(value).ravel()
    peak = size.max()
    if not 0.0 < peak < np.inf:
        return float(peak)
    size = size / peak
    return float(peak * np.sqrt(size @ size))


def test_stacked_norm_matches_row_by_row():
    """Rows holding 0, inf, nan and 1e200 keep the overflow guard, and nothing warns."""
    rng = np.random.default_rng(3)
    rows = rng.standard_normal((9, 2, 5)) + 1j * rng.standard_normal((9, 2, 5))
    rows[1] = 0.0
    rows[2, 0, 3] = np.inf
    rows[3] *= 1e200
    rows[4, 1, 1] = np.nan
    rows[5] *= 1e-200
    rows[6, :, :] = 1e200
    rows[6, 0, 0] = np.inf
    rows[7] = 5e-324
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        norms = _norm(rows)
        reals = _norm(rows.real)
    for got, row in zip(norms, rows):
        ref = norm_of_one_row(row)
        assert got == pytest.approx(ref, rel=1e-15) or (np.isnan(got) and np.isnan(ref))
    for got, row in zip(reals, rows.real):
        ref = norm_of_one_row(row)
        assert got == pytest.approx(ref, rel=1e-15) or (np.isnan(got) and np.isnan(ref))
    assert norms[3] == pytest.approx(1e200 * np.linalg.norm(rows[3] / 1e200), rel=1e-15)


def close_levels(blocks, tol):
    """For each block (a list of ``(value, mass)`` levels), the level the stopping rule closes it at.

    A block closes where its change meets the target, or where the change fell below half the
    previous one and the geometric tail ``change rho/(1 - rho)`` meets it.
    """
    out = []
    for levels in blocks:
        last = None
        for i in range(1, len(levels)):
            value, mass = levels[i]
            change = norm_of_one_row(value - levels[i - 1][0])
            target = max(tol * max(1.0, norm_of_one_row(value)), 32.0 * np.finfo(float).eps * mass)
            rho = 1.0 if last is None else change / last
            if change <= target or (rho < 0.5 and change * rho / (1.0 - rho) <= target):
                out.append(i)
                break
            last = change
        else:
            out.append(None)
    return out


def test_refine_closes_each_block_where_a_per_block_loop_does():
    """Geometric changes at different rates and scales; one block is stopped by its roundoff floor."""
    rng = np.random.default_rng(11)
    depth, tol = 10, 1e-10
    scales = np.array([1.0, 1e-3, 1e5, 1.0, 1e150, 0.0, 1.0])
    rates = 10.0 ** np.array([-2.3, -3.3, -1.7, -0.7, -3.3, -2.6, -4.3])
    masses = np.array([1.0, 1.0, 1.0, 1e10, 1e150, 1.0, 1.0])
    limits = scales[:, None] * (rng.standard_normal((7, 3)) + 1j * rng.standard_normal((7, 3)))
    steps = np.maximum(scales, 1.0)[:, None] * rng.standard_normal((7, 3))
    blocks = [[(limits[b] + rates[b] ** i * steps[b], masses[b]) for i in range(depth)]
              for b in range(len(scales))]
    expected = close_levels(blocks, tol)
    assert None not in expected and len(set(expected)) >= 4
    sent = []

    def levels():
        for i in range(depth):
            open_ = yield np.array([b[i][0] for b in blocks]), np.array([b[i][1] for b in blocks])
            sent.append(open_)

    result = refine(levels(), tol, "probe")
    # after level i refine sends the blocks still open; the last level's closures end the call
    closed_at = [next((i for i, mask in enumerate(sent) if not mask[b]), len(sent))
                 for b in range(len(scales))]
    assert closed_at == expected
    for b, level in enumerate(expected):
        assert np.array_equal(result[b], blocks[b][level][0])


@pytest.mark.parametrize("rho", [0.5, 0.75, 1.0, 2.0])
def test_refine_never_closes_early_where_the_change_did_not_halve(rho):
    """Changes falling by ``rho >= 1/2`` close a block only where two levels agree.

    Where they stall (``rho = 1``) or grow, ``change rho/(1 - rho)`` is no bound at all, and
    the levels run out instead.
    """
    tol, depth = 1e-10, 20
    changes = 1e-8 * rho ** np.arange(depth - 1)
    values = np.concatenate(([1.0], 1.0 + np.cumsum(changes)))
    agree = [i + 1 for i, c in enumerate(changes) if c <= tol * values[i + 1]]
    sent = []

    def levels():
        for v in values:
            sent.append((yield np.array([[v]]), (v,)))

    if not agree:
        with pytest.raises(ConvergenceError, match="stalled"):
            refine(levels(), tol, "probe")
        assert len(sent) == depth
        return
    result = refine(levels(), tol, "probe")
    assert len(sent) == agree[0] and result[0, 0] == values[agree[0]]


def test_h2_sequence_closes_where_its_richardson_tail_meets_the_target():
    """The trapezoid rule on ``e^x`` over ``[0, 1]``, which does not decay: ``O(h^2)`` changes.

    Its level of step ``h`` is ``(e - 1) (h/2) coth(h/2)``, so each change is about a quarter of
    the previous one (``rho = 1/4``) and the geometric tail ``change rho/(1 - rho)`` is
    Richardson's ``change/3``.  The rule closes the first level whose ``change/3`` meets the
    target, one level before two levels agree, and that level is within the target of the
    exact value.
    """
    exact = np.expm1(1.0)
    tol, h0 = 1e-5, 1.0 / 32.0
    steps = 4.0 * h0 / 2.0 ** np.arange(9)  # the lattice's levels, from step 4 h0
    values = exact * (0.5 * steps) / np.tanh(0.5 * steps)
    changes = values[:-1] - values[1:]  # changes[i] at level i + 2
    target = tol * values
    tail = [i + 2 for i, c in enumerate(changes) if c / 3.0 <= target[i + 1]][0]
    agree = [i + 2 for i, c in enumerate(changes) if c <= target[i + 1]][0]
    assert (tail, agree) == (5, 6)
    g, calls = recording(np.exp)
    val = trapezoid_refine(g, 0.0, 1.0, tol, h0=h0)
    assert [len(x) for x in calls] == [33, 32, 64]  # levels 1 to 3 in one call, then 4 and 5
    assert abs(val - values[tail - 1]) <= 1e-14 * exact
    assert tol * exact / 2.0 < val - exact <= tol * exact


def richardson_by_entry(values, exponents, ratio=2.0):
    """The table built one entry at a time."""
    levels = [[np.asarray(v) for v in values]]
    for p in exponents:
        prev = levels[-1]
        if len(prev) < 2:
            break
        factor = ratio ** (-p)
        levels.append([(prev[i + 1] - factor * prev[i]) / (1.0 - factor)
                       for i in range(len(prev) - 1)])
    return levels


@pytest.mark.parametrize("kind", ["scalars", "list", "array"])
def test_stacked_richardson_matches_the_entry_recursion(kind):
    rng = np.random.default_rng(5)
    ys = 0.4 * 0.5 ** np.arange(9)
    base = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    rows = base + np.outer(ys**0.6, rng.standard_normal(4)) + np.outer(ys**2, base)
    values = {"scalars": list(rows[:, 0].real), "list": list(rows), "array": rows}[kind]
    exponents = [0.6, 2.0, 2.6, 4.0]
    table = richardson_table(values, exponents, ratio=2.0)
    reference = richardson_by_entry(values, exponents, ratio=2.0)
    assert len(table) == len(reference)
    for level, ref in zip(table, reference):
        assert len(level) == len(ref)
        for got, want in zip(level, ref):
            assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want) + 1e-300)
    assert extrapolation_spread(table) == extrapolation_spread(reference)

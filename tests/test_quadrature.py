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
    _norm,
    _roundoff_floor,
    _sizes,
    _weighted_sum,
    extrapolation_spread,
    hht_contour,
    integrate_unit,
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


def test_integrate_unit_power_singularities():
    # int_0^1 x^p dx = 1/(1+p), handled exactly by the power substitution; at p = -0.999 the value
    # 1000 is known only to the roundoff floor refine stops at (7.1e-12), the size of the
    # 2^-49 * 1000 = 1.8e-12 of weight that integrate_unit drops next to 1
    for p in (-0.5, -0.9, -0.999, 0.7):
        val = integrate_unit(lambda x: np.ones_like(x), 1e-13, singular_power=p)
        exact = 1.0 / (1.0 + p)
        assert abs(val - exact) < (_roundoff_floor(exact) if p == -0.999 else 1e-12), p


def test_integrate_unit_log_endpoint():
    # int_0^1 x^{-1/2} log(1/x)-free smooth part: use sin for a generic check
    val = integrate_unit(np.sin, 1e-13)
    assert abs(val - (1.0 - np.cos(1.0))) < 1e-12


def test_integrate_unit_vector_valued():
    val = integrate_unit(lambda x: np.stack([x, x**2], axis=1), 1e-13)
    assert np.allclose(val, [0.5, 1.0 / 3.0], atol=1e-12)


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
    # a jump defeats both rules: neither converges within its level budget
    def jump(x):
        return (x > 1.0 / 3.0).astype(float)

    with pytest.raises(ConvergenceError, match="trapezoid") as err:
        trapezoid_refine(jump, 0.0, 1.0, 1e-13)
    assert 1e-4 < err.value.achieved < 1e-1
    with pytest.raises(ConvergenceError, match="tanh-sinh") as err:
        integrate_unit(jump, 1e-13)
    assert 1e-4 < err.value.achieved < 1e-1


def recording(f):
    """``f`` wrapped to keep a copy of every node array it is called on."""
    calls = []

    def g(x):
        calls.append(np.array(x))
        return f(x)

    return g, calls


def recording_blocks(f):
    """Block-form ``f`` wrapped to keep a copy of every list of node arrays it is called on."""
    calls = []

    def g(xs):
        calls.append([None if x is None else np.array(x) for x in xs])
        return f(xs)

    return g, calls


def tanh_sinh_reference(h):
    """The step-``h`` tanh-sinh rule on ``(0, 1)``, laid at once: nodes and weights."""
    t = h * np.arange(-round(4.0 / h), round(4.0 / h) + 1)
    z = 0.5 * np.pi * np.sinh(t)
    x = 1.0 / (1.0 + np.exp(-2.0 * z))
    w = h * (0.25 * np.pi) * np.cosh(t) / np.cosh(z) ** 2
    w[[0, -1]] *= 0.5
    keep = (x > 0.0) & (x < 1.0 - 2.0**-49)
    return x[keep], w[keep]


def test_tanh_sinh_nodes_inside_interval():
    for p in (0.0, -0.5, 0.7):
        g, calls = recording(np.cos)
        integrate_unit(g, 1e-14, singular_power=p)
        x = np.concatenate(calls)
        assert np.all(x > 0.0) and np.all(x < 1.0), p


def test_tanh_sinh_nodes_strictly_increase():
    # nodes next to 1 that would round onto a neighbour are dropped, each evaluated once
    for j in range(3, 9):
        h = 2.0**-j
        g, calls = recording(np.ones_like)
        total = integrate_unit(g, 1e-14, nodes0=2 ** (j + 2))  # first step 2h
        assert all(np.all(np.diff(x) > 0.0) for x in calls), h
        assert np.all(np.diff(np.sort(np.concatenate(calls))) > 0.0), h
        assert abs(total - 1.0) <= 1e-14, h  # the finest weights sum to 1


@pytest.mark.parametrize("f, p", [(np.cos, 0.0), (np.ones_like, -0.999), (np.sin, 0.7)])
def test_integrate_unit_level_sizes(f, p):
    # the first call serves the levels of steps 2, 1 and 1/2 (15 nodes once the ends are dropped),
    # then one call per level; the level of step 1/8 certifies its geometric tail.  At p = -0.999
    # the 8, 8 and 16 nodes of those calls where x underflows to 0 are laid as one
    g, calls = recording(f)
    integrate_unit(g, 1e-14, singular_power=p, nodes0=16)
    assert [len(x) for x in calls] == ([8, 7, 13] if p == -0.999 else [15, 14, 28])


def test_two_level_integrals_call_the_integrand_once():
    # an integral that closes on its second or third level evaluates all three in one call, on
    # the grid of the first call's step in increasing order
    g, calls = recording(lambda x: np.exp(-x * x))
    assert abs(trapezoid_refine(g, -8.0, 8.0, 1e-13) - np.sqrt(np.pi)) <= 1e-15
    assert len(calls) == 1 and np.array_equal(calls[0], -8.0 + 0.25 * np.arange(65))
    g, calls = recording(np.ones_like)
    assert abs(integrate_unit(g, 1e-13, nodes0=64) - 1.0) <= 1e-14
    assert len(calls) == 1 and np.array_equal(calls[0], tanh_sinh_reference(0.125)[0])


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
    # a real spectrum: one sweep per integrand call of the contour's trapezoid rule, the first
    # serving its first three levels; a complex one keeps tanh-sinh, whose two halves are blocks
    # of one call, solved in one sweep per call
    unit_sizes, trapezoids, sweeps = {}, [], []

    def sized(f, *args, name, **kwargs):
        g, calls = recording_blocks(f)
        value = integrate_unit(g, *args, name=name, **kwargs)
        unit_sizes[name] = calls
        return value

    def named(f, *args, name, **kwargs):
        trapezoids.append(name)
        return trapezoid(f, *args, name=name, **kwargs)

    def counted(alpha, beta, tri, rhs):
        x = solve(alpha, beta, tri, rhs)
        sweeps.append(len(x))
        return x

    solve, trapezoid = fracext.fracpow._shifted_triangular_solve, fracext.fracpow.trapezoid_refine
    monkeypatch.setattr(fracext.fracpow, "integrate_unit", sized)
    monkeypatch.setattr(fracext.fracpow, "trapezoid_refine", named)
    monkeypatch.setattr(fracext.fracpow, "_shifted_triangular_solve", counted)
    if matrix == "nonnormal":
        vecs, lam = nonnormal_factors()
        gen = Generator((vecs * lam) @ np.linalg.inv(vecs))
    else:
        gen = builtin_matrix(matrix)
    u = np.random.default_rng(1).standard_normal(gen.dim) + 0j
    fracext.fracpow.balakrishnan_general(gen, 0.3, u)
    fracext.fracpow.bbw_frac_power(gen, 0.3, 1, u)
    # the contour's first call takes 64 steps over the period at hi/lo = 20 (random:128:7) and
    # 128 at 6.7e3 (laplacian1d:128); every integral certifies its tail on its third level, in
    # one sweep
    assert sweeps == {"random:128:7": [65], "laplacian1d:128": [129],
                      "nonnormal": [228]}[matrix]
    if matrix == "nonnormal":
        inner, outer = ([len(x[b]) for x in unit_sizes["balakrishnan"] if x[b] is not None]
                        for b in (0, 1))
        assert inner == [114] and outer == [114]  # levels of 29, 28 and 57 nodes each
        assert trapezoids == ["bbw rays"]  # BBW runs on its rays, not on integrate_unit
    else:
        assert trapezoids == ["balakrishnan", "bbw rays"] and not unit_sizes


@pytest.mark.parametrize("matrix, sizes", [("random:128:7", [228]), ("laplacian1d:128", [228, 113]),
                                           ("nonnormal", [228])])
def test_second_kind_level_sizes(monkeypatch, matrix, sizes):
    # split tanh-sinh on every spectrum: the first call lays the first three levels of both halves
    # (114 nodes each) in one sweep; on laplacian1d:128 one half needs one level more
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


def test_integrate_unit_blocks_match_single_calls():
    # one f call for both blocks; a closed block is passed None from then on
    funcs = [np.cos, lambda x: np.exp(-40.0 * x)]
    powers = [0.0, -0.5]
    g, calls = recording_blocks(lambda xs: [None if x is None else f(x) for f, x in zip(funcs, xs)])
    both = integrate_unit(g, 1e-14, singular_power=powers, nodes0=16)
    assert both.shape == (2,)
    for b, (f, p) in enumerate(zip(funcs, powers)):
        single, single_calls = recording(f)
        value = integrate_unit(single, 1e-14, singular_power=p, nodes0=16)
        assert abs(both[b] - value) <= 1e-15 * abs(value)
        nodes = [x[b] for x in calls]
        assert all(x is None for x in nodes[len(single_calls):])
        assert all(np.array_equal(x, y) for x, y in zip(nodes, single_calls))
    closed = [len([x for x in nodes if x is not None]) for nodes in zip(*calls)]
    assert len(calls) == max(closed) and min(closed) < len(calls)


@pytest.mark.parametrize("complex_block", [0, 1])
def test_integrate_unit_blocks_of_mixed_dtypes(complex_block):
    # a real and a complex block stack in the promoted dtype, whichever of them closes first
    blocks = [(np.cos, 0.0), (lambda x: np.exp((-40.0 + 3.0j) * x), -0.5)]
    funcs, powers = zip(*(blocks if complex_block == 1 else blocks[::-1]))
    g, calls = recording_blocks(lambda xs: [None if x is None else f(x) for f, x in zip(funcs, xs)])
    both = integrate_unit(g, 1e-14, singular_power=powers, nodes0=16)
    assert both.dtype == complex
    for b, (f, p) in enumerate(zip(funcs, powers)):
        value = integrate_unit(f, 1e-14, singular_power=p, nodes0=16)
        assert np.isrealobj(value) == (b != complex_block)
        assert abs(both[b] - value) <= 1e-15 * abs(value)
    closed = [len([x for x in nodes if x is not None]) for nodes in zip(*calls)]
    assert min(closed) < max(closed) == len(calls)


def test_integrate_unit_blocks_merge_zero_nodes():
    # near p = -1 about half the nodes underflow to x = 0: each call evaluates it once per block,
    # and once in the scalar form too
    def f(x):
        return np.stack([np.cos(x), 1.0 + x], axis=1)

    powers = [-0.999, -0.99]
    g, calls = recording_blocks(lambda xs: [None if x is None else f(x) for x in xs])
    both = integrate_unit(g, 1e-12, singular_power=powers, nodes0=128)
    assert all(np.count_nonzero(x == 0.0) == 1 for xs in calls for x in xs if x is not None)
    for b, p in enumerate(powers):
        single, single_calls = recording(f)
        value = integrate_unit(single, 1e-12, singular_power=p, nodes0=128)
        assert np.linalg.norm(both[b] - value) <= 1e-15 * np.linalg.norm(value)
        merged = [x[b] for x in calls if x[b] is not None]
        assert len(merged) == len(single_calls)
        assert all(np.array_equal(x, y) for x, y in zip(merged, single_calls))
    # the first three levels, of 114 nodes (64 of them at x = 0 for p = -0.999, 39 for -0.99), in
    # one call: 51 and 76 once merged; p = -0.999 needs one level more, of 113 nodes (63 at 0)
    assert [[None if x is None else len(x) for x in xs] for xs in calls] == [[51, 76], [51, None]]
    assert all(np.all(np.diff(x) > 0.0) for xs in calls for x in xs if x is not None)


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


def test_integrate_unit_levels_evaluate_each_node_once():
    g, calls = recording(np.cos)
    val = integrate_unit(g, 1e-14, nodes0=16)
    assert len(calls) >= 2 and all(np.all(np.diff(x) > 0.0) for x in calls)
    nodes = np.concatenate(calls)
    finest_x, finest_w = tanh_sinh_reference(0.5 / 2 ** (len(calls) - 1))  # first call's step 1/2
    assert len(nodes) == len(finest_x)
    assert np.array_equal(np.sort(nodes), finest_x)
    reference = np.sum(finest_w * np.cos(finest_x))
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

    g, calls = recording(lambda x: f(x).reshape(-1, 3, 1))
    val = integrate_unit(g, 1e-13, singular_power=-0.5, nodes0=16)
    assert len(calls) >= 2
    w_nodes, weights = tanh_sinh_reference(0.5 / 2 ** (len(calls) - 1))
    reference = 2.0 * (weights @ f(w_nodes**2))
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

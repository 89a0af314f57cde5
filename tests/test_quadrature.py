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
    _nested,
    _norm,
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
    # int_0^1 x^p dx = 1/(1+p), handled exactly by the power substitution
    for p in (-0.5, -0.9, -0.999, 0.7):
        val = integrate_unit(lambda x: np.ones_like(x), 1e-13, singular_power=p)
        assert abs(val - 1.0 / (1.0 + p)) < 1e-12


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
    # levels of 15, 14, 28 and 57 nodes: the first call serves the first two
    g, calls = recording(f)
    integrate_unit(g, 1e-14, singular_power=p, nodes0=16)
    assert [len(x) for x in calls] == [29, 28, 57]


def test_two_level_integrals_call_the_integrand_once():
    # an integral that closes on its second level evaluates both levels in one call, on the
    # step-h/2 grid in increasing order
    g, calls = recording(lambda x: np.exp(-x * x))
    assert abs(trapezoid_refine(g, -8.0, 8.0, 1e-13) - np.sqrt(np.pi)) <= 1e-15
    assert len(calls) == 1 and np.array_equal(calls[0], -8.0 + 0.125 * np.arange(129))
    g, calls = recording(np.ones_like)
    assert abs(integrate_unit(g, 1e-13, nodes0=64) - 1.0) <= 1e-14
    assert len(calls) == 1 and np.array_equal(calls[0], tanh_sinh_reference(0.0625)[0])


@pytest.mark.parametrize("order", ["C", "F"])
def test_first_call_sums_each_level_as_a_call_of_its_own(order):
    # the joint first call changes no sum: each level's is bitwise the one a call of its own gives,
    # also for values stored node-fastest, as the triangular sweep stores its solutions
    freqs = np.random.default_rng(4).uniform(0.5, 2.0, 48) + 0.5j

    def g(x):
        return np.asarray(np.exp(-np.multiply.outer(x * x, freqs)), order=order)

    sums = (_weighted_sum(w, g(x)) for x, w in trapezoid_lattice(-6.0, 6.0, 0.5))
    expected = refine(_nested(sums), 1e-13, "per level")[0]
    assert np.array_equal(trapezoid_refine(g, -6.0, 6.0, 1e-13, h0=0.5), expected)


@pytest.mark.parametrize("matrix", ["random:128:7", "laplacian1d:128", "nonnormal"])
def test_resolvent_and_bbw_level_sizes(monkeypatch, matrix):
    # a real spectrum: one sweep per integrand call of the contour's trapezoid rule, the first
    # serving its first two levels; a complex one keeps tanh-sinh, whose two halves are blocks of
    # one call, solved in one sweep per call
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
    # laplacian1d:128's first contour level (64 steps over the period) is off by 2e-12 here, so
    # a third level runs; every other integral closes on its second level, in one sweep
    assert sweeps == {"random:128:7": [129], "laplacian1d:128": [129, 128],
                      "nonnormal": [454]}[matrix]
    if matrix == "nonnormal":
        inner, outer = ([len(x[b]) for x in unit_sizes["balakrishnan"] if x[b] is not None]
                        for b in (0, 1))
        assert inner == [227] and outer == [227]  # levels of 114 and 113 nodes each
        assert trapezoids == ["bbw rays"]  # BBW runs on its rays, not on integrate_unit
    else:
        assert trapezoids == ["balakrishnan", "bbw rays"] and not unit_sizes


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


def test_integrate_unit_blocks_merge_zero_nodes():
    # near p = -1 about half the nodes underflow to x = 0: each call evaluates it once per block
    def f(x):
        return np.stack([np.cos(x), 1.0 + x], axis=1)

    powers = [-0.999, -0.99]
    g, calls = recording_blocks(lambda xs: [None if x is None else f(x) for x in xs])
    both = integrate_unit(g, 1e-12, singular_power=powers, nodes0=128)
    assert all(np.count_nonzero(x == 0.0) <= 1 for xs in calls for x in xs if x is not None)
    for b, p in enumerate(powers):
        single, single_calls = recording(f)
        value = integrate_unit(single, 1e-12, singular_power=p, nodes0=128)
        assert np.linalg.norm(both[b] - value) <= 1e-15 * np.linalg.norm(value)
        merged = [x[b] for x in calls if x[b] is not None]
        assert len(merged) == len(single_calls)
        for x, y in zip(merged, single_calls):
            assert np.count_nonzero(y == 0.0) > 1 and np.array_equal(x[1:], y[y > 0.0])
    # both levels, of 114 and 113 nodes, in one call: 51 + 51 - 1 and 76 + 76 - 1 once merged
    assert [[len(x) for x in xs] for xs in calls] == [[101, 151]]
    assert all(np.all(np.diff(x) > 0.0) for xs in calls for x in xs)


def test_trapezoid_levels_evaluate_each_node_once():
    lo, hi, h0 = -40.0, 40.3, 1.0
    g, calls = recording(lambda x: 1.0 / np.cosh(x))
    val = trapezoid_refine(g, lo, hi, 1e-13, h0=h0)
    assert len(calls) >= 2 and all(np.all(np.diff(x) > 0.0) for x in calls)
    levels = len(calls) + 1  # the first call serves the first two
    nodes = np.concatenate(calls)
    count = int(np.ceil((hi - lo) / h0 - 0.5)) * 2 ** (levels - 1)
    h = h0 / 2 ** (levels - 1)
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
    finest_x, finest_w = tanh_sinh_reference(0.5 / 2 ** len(calls))  # len(calls) + 1 levels
    assert len(nodes) == len(finest_x)
    assert np.array_equal(np.sort(nodes), finest_x)
    reference = np.sum(finest_w * np.cos(finest_x))
    assert abs(val - reference) <= 1e-15 * abs(reference)


def test_nested_vector_values_match_the_direct_sum():
    def f(x):
        return np.stack([np.exp(-x * x), 1j * x * np.exp(-x * x), np.exp(-x * x + 0.5j * x)], axis=1)

    g, calls = recording(f)
    val = trapezoid_refine(g, -7.0, 7.0, 1e-13, h0=1.0)
    assert len(calls) >= 2
    h = 1.0 / 2 ** len(calls)  # the first call serves the first two levels
    finest = -7.0 + h * np.arange(round(14.0 / h) + 1)
    weights = np.full(len(finest), h)
    weights[[0, -1]] *= 0.5
    reference = weights @ f(finest)
    assert val.shape == (3,)
    assert np.linalg.norm(val - reference) <= 1e-15 * np.linalg.norm(reference)

    g, calls = recording(lambda x: f(x).reshape(-1, 3, 1))
    val = integrate_unit(g, 1e-13, singular_power=-0.5, nodes0=16)
    assert len(calls) >= 2
    w_nodes, weights = tanh_sinh_reference(0.5 / 2 ** len(calls))
    reference = 2.0 * (weights @ f(w_nodes**2))
    assert val.shape == (3, 1)
    assert np.linalg.norm(val[:, 0] - reference) <= 1e-15 * np.linalg.norm(reference)


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
    """For each block (a list of ``(value, mass)`` levels), the level the stopping rule closes it at."""
    out = []
    for levels in blocks:
        for i in range(1, len(levels)):
            value, mass = levels[i]
            change = norm_of_one_row(value - levels[i - 1][0])
            target = max(tol * max(1.0, norm_of_one_row(value)), 32.0 * np.finfo(float).eps * mass)
            if change <= target:
                out.append(i)
                break
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

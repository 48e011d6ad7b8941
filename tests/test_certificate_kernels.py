"""The certificate kernels against references that do every cell's work.

`bvn_cdf_grid` evaluates the nodes once per distinct correlation and
integrates each band of |rho| in place with that band's rule; the searches
sweep one (mu1, mu2) cell of each symmetry orbit and integrate valid
configurations only; the soundness enumeration filters on balance first and
scores the kept functions in one quadratic form.  Each is checked here
against a reference that evaluates every cell (or every function) one by
one; the searches also against the full-plane sweep.  The kernel's accuracy
is checked against the independent references of `bvn_reference`.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import log_ndtr, ndtr

from bvn_reference import mpmath_bvn, quad_bvn
from cardcsp import dictator, landscape
from cardcsp.dictator import (DictGadget, build_gadget, dict_value,
                              gadget_balance, hypercube_labels,
                              soundness_enumerate)
from cardcsp.instance import generate
from cardcsp.landscape import (SDP_FLOOR, EdgeConfig, _ratio_on_grid,
                               bvn_cdf, bvn_cdf_grid,
                               config_valid_mask, edge_sdp_value,
                               edge_sdp_value_grid, ratio_search,
                               rounded_value, rounded_value_grid,
                               worst_separation)
from cardcsp.oracle import exact_mixture_moments
from cardcsp.rounding import threshold

# Gauss-Legendre node counts on the arcsine path by band of |rho|: 6 below
# 0.3, 12 below 0.75 and 20 below 0.925 (Genz 2004); from there to 1 the
# high-correlation form with 20 nodes
_BANDS = ((0.3, 6), (0.75, 12), (0.925, 20))
_HIGH = 0.925


def _bits(x):
    return np.ascontiguousarray(x, dtype=float).view(np.uint64)


# -- reference kernel and searches: every cell, nodes per cell --------------

def _high_every_cell(a, b, rho):
    """Genz's BVND for 0.925 <= |rho| < 1, nodes per cell: Phi2 minus its
    value at rho = sign(rho), at finite thresholds a, b.  The kernel's
    arithmetic, so that the two agree bit for bit."""
    nodes, weights = np.polynomial.legendre.leggauss(20)
    sign = np.sign(rho)[:, None]
    a, b = a[:, None], b[:, None]
    hk, bs = sign * a * b, (a - sign * b) ** 2
    c, d = (4.0 - hk) / 8.0, (12.0 - hk) / 80.0
    r2 = ((1.0 - np.abs(rho)) * (1.0 + np.abs(rho)))[:, None]
    x = 0.5 * np.sqrt(r2) * (nodes + 1.0)
    xs, rs = x * x, np.sqrt(1.0 - x * x)
    r, root = np.sqrt(r2), np.sqrt(bs)
    closed = (r * np.exp(-0.5 * (bs / r2 + hk))
              * (1.0 - c * (bs - r2) * (1.0 - d * bs) / 3.0 + c * d * r2 * r2)
              - np.sqrt(2.0 * np.pi) * np.exp(log_ndtr(-root / r) - 0.5 * hk)
              * root * (1.0 - c * bs * (1.0 - d * bs) / 3.0))
    asr = -0.5 * (bs / xs + hk)
    rest = (np.exp(asr) * (1.0 + c * xs * (1.0 + 5.0 * d * xs))
            - np.exp(asr - 0.5 * hk * xs / (1.0 + rs) ** 2) / rs)
    rest = 0.5 * r[:, 0] * np.einsum("ck,k->c", rest, weights)
    return sign[:, 0] * (rest - closed[:, 0]) / (2.0 * np.pi)


def _at_minus_one(t1, t2, p1, p2):
    """Phi2 at rho = -1, Phi(t1) + Phi(t2) - 1 clipped at 0, as Phi(t2) -
    Phi(-t1) when t1 >= 0 and Phi(t1) - Phi(-t2) otherwise."""
    first = t1 >= 0
    return np.maximum(0.0, np.where(first, p2, p1)
                      - ndtr(-np.where(first, t1, t2)))


def _bvn_every_cell(t1, t2, rho, bands=_BANDS):
    """Phi2 with the arcsine-path rules of ``bands`` below 0.925, the
    high-correlation form from there, then the closed forms at |rho| = 1
    and at infinite thresholds."""
    t1, t2, rho = np.broadcast_arrays(np.asarray(t1, dtype=float),
                                      np.asarray(t2, dtype=float),
                                      np.asarray(rho, dtype=float))
    a = np.where(np.isfinite(t1), t1, 0.0)
    b = np.where(np.isfinite(t2), t2, 0.0)
    integral = np.zeros(rho.shape)
    low = 0.0
    for high, k in bands:
        cells = (np.abs(rho) >= low) & (np.abs(rho) < high)
        low = high
        nodes, weights = np.polynomial.legendre.leggauss(k)
        upper = np.arcsin(rho[cells])
        theta = 0.5 * upper[:, None] * (nodes + 1.0)
        s = np.sin(theta)
        c2 = np.cos(theta) ** 2
        ak, bk = a[cells][:, None], b[cells][:, None]
        integrand = np.exp(-(ak * ak - 2.0 * s * ak * bk + bk * bk)
                           / (2.0 * c2))
        integral[cells] = 0.5 * upper * np.einsum("ck,k->c", integrand,
                                                  weights)
    p1, p2 = ndtr(t1), ndtr(t2)
    out = p1 * p2 + integral / (2.0 * np.pi)
    high = (np.abs(rho) >= _HIGH) & (np.abs(rho) < 1.0)
    if high.any():
        rest = _high_every_cell(a[high], b[high], rho[high])
        at_one = np.where(rho[high] > 0, np.minimum(p1, p2)[high],
                          _at_minus_one(t1, t2, p1, p2)[high])
        out[high] = at_one + rest
    out = np.where(rho >= 1.0, np.minimum(p1, p2), out)
    out = np.where(rho <= -1.0, _at_minus_one(t1, t2, p1, p2), out)
    out = np.where(t1 == -np.inf, 0.0, out)
    out = np.where(t2 == -np.inf, 0.0, out)
    out = np.where((t1 == np.inf) & np.isfinite(t2), p2, out)
    out = np.where((t2 == np.inf) & np.isfinite(t1), p1, out)
    out = np.where((t1 == np.inf) & (t2 == np.inf), 1.0, out)
    return np.clip(out, 0.0, 1.0)


def _rounded_every_cell(kind, mu1, mu2, rho):
    t1, t2 = threshold(mu1), threshold(mu2)
    bvn = _bvn_every_cell(t1, t2, rho)
    if kind == "cut":
        return np.clip(ndtr(t1) + ndtr(t2) - 2.0 * bvn, 0.0, 1.0)
    return np.clip(1.0 - (1.0 - ndtr(t1) - ndtr(t2) + bvn), 0.0, 1.0)


def _ratio_every_cell(kind, mu1, mu2, rho):
    sdp = edge_sdp_value_grid(kind, mu1, mu2, rho)
    rounded = _rounded_every_cell(kind, mu1, mu2, rho)
    valid = config_valid_mask(mu1, mu2, rho) & (sdp > SDP_FLOOR)
    return np.where(valid, rounded / np.where(valid, sdp, 1.0), np.inf)


def _orbit_cells(kind, resolution, orbits):
    """Mask of the (i, j) cells the sweeps start from: with ``orbits``, one
    of each orbit of the endpoint swap (i <= j) and, for a cut, of the joint
    negation too (i + j <= resolution - 1); else the full plane."""
    i, j = np.meshgrid(np.arange(resolution), np.arange(resolution),
                       indexing="ij")
    if not orbits:
        return np.ones(i.shape, dtype=bool)
    return (i <= j) & ((i + j <= resolution - 1) | (kind != "cut"))


def _ratio_search_every_cell(kind, resolution, refinement_rounds, top_k=24,
                             orbits=True):
    mus = np.linspace(-1.0, 1.0, resolution)
    best = []
    M1, M2 = np.meshgrid(mus, mus, indexing="ij")
    keep = _orbit_cells(kind, resolution, orbits)
    M1, M2 = M1[keep], M2[keep]  # row-major, as the sweep orders its cells
    for rho in mus:
        ratio = _ratio_every_cell(kind, M1, M2, np.full_like(M1, rho))
        for f in np.argsort(ratio)[:max(1, top_k // 4)]:
            if np.isfinite(ratio[f]):
                best.append((float(ratio[f]), float(M1[f]), float(M2[f]),
                             float(rho)))
    best = sorted(best)[:top_k]
    trace = [{"stage": "grid", "min_ratio": best[0][0]}]
    step = np.full(3, mus[1] - mus[0])
    lipschitz = 0.0
    for round_idx in range(refinement_rounds):
        new_best = list(best)
        for _, m1, m2, rh in best:
            lo = np.maximum([m1, m2, rh] - step, -1.0)
            hi = np.minimum([m1, m2, rh] + step, 1.0)
            G1, G2, G3 = np.meshgrid(*(np.linspace(lo[c], hi[c], 9)
                                       for c in range(3)), indexing="ij")
            ratio = _ratio_every_cell(kind, G1, G2, G3)
            finite = ratio[np.isfinite(ratio)]
            if finite.size == 0:
                continue
            if finite.size > 1:
                lipschitz = max(lipschitz, float((finite.max() - finite.min())
                                                 / max(np.max(hi - lo), 1e-12)))
            i, j, k = np.unravel_index(np.argmin(ratio, axis=None), ratio.shape)
            new_best.append((float(ratio[i, j, k]), float(G1[i, j, k]),
                             float(G2[i, j, k]), float(G3[i, j, k])))
        best = sorted(new_best)[:top_k]
        step = step * 2.0 / 8
        trace.append({"stage": f"refine{round_idx}", "min_ratio": best[0][0]})
    minimum, m1, m2, rh = best[0]
    argmin = EdgeConfig(m1, m2, rh)
    sdp = edge_sdp_value(kind, argmin)
    error_bar = (landscape._BVN_ERROR / max(sdp, SDP_FLOOR)
                 + lipschitz * float(np.max(step)))
    return minimum, argmin, trace, error_bar


def _worst_separation_every_cell(eps, resolution, refinement_rounds=4,
                                 orbits=True):
    m_target = 1.0 - 2.0 * eps

    def eval_grid(g1, g2, keep=True):
        M1, M2 = np.meshgrid(g1, g2, indexing="ij")
        denom = np.sqrt(np.clip((1 - M1**2) * (1 - M2**2), 1e-300, None))
        rho = (m_target - M1 * M2) / denom
        feasible = rho <= 1.0 + 1e-12
        rho = np.clip(rho, -1.0, 1.0)
        valid = config_valid_mask(M1, M2, rho) & feasible & keep
        sep = _rounded_every_cell("cut", M1, M2, rho)
        return M1, M2, rho, np.where(valid, sep, -np.inf)

    def argmax(M1, M2, rho, sep):
        i, j = np.unravel_index(np.argmax(sep, axis=None), sep.shape)
        return (float(sep[i, j]), float(M1[i, j]), float(M2[i, j]),
                float(rho[i, j]))

    g = np.linspace(-0.999, 0.999, resolution)
    best = argmax(*eval_grid(g, g, _orbit_cells("cut", resolution, orbits)))
    step = g[1] - g[0]
    for _ in range(refinement_rounds):
        m1, m2 = best[1], best[2]
        cand = argmax(*eval_grid(
            np.linspace(max(-0.999999, m1 - step), min(0.999999, m1 + step), 17),
            np.linspace(max(-0.999999, m2 - step), min(0.999999, m2 + step), 17)))
        if cand[0] > best[0]:
            best = cand
        step = step / 4.0
    return best[0], EdgeConfig(*best[1:])


# -- kernel -------------------------------------------------------------------

_THRESHOLDS = st.one_of(st.floats(-6.0, 6.0),
                        st.sampled_from([np.inf, -np.inf, 0.0]))
_RHOS = st.one_of(st.floats(-1.0, 1.0), st.sampled_from([-1.0, 1.0, 0.0]))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), m=st.integers(1, 4), n=st.integers(1, 6),
       rho_shape=st.sampled_from(["scalar", "row", "column", "full"]))
def test_bvn_grid_does_not_depend_on_the_shape_of_rho(data, m, n, rho_shape):
    t1 = np.array(data.draw(st.lists(_THRESHOLDS, min_size=m * n,
                                     max_size=m * n))).reshape(m, n)
    t2 = np.array(data.draw(st.lists(_THRESHOLDS, min_size=n, max_size=n)))
    # a small pool, so that cells share correlations
    pool = data.draw(st.lists(_RHOS, min_size=1, max_size=3))
    shape = {"scalar": (), "row": (n,), "column": (m, 1), "full": (m, n)}[rho_shape]
    size = int(np.prod(shape))
    rho = np.array(data.draw(st.lists(st.sampled_from(pool), min_size=size,
                                      max_size=size))).reshape(shape)
    got = bvn_cdf_grid(t1, t2, rho)
    assert got.shape == (m, n)
    wide = np.broadcast_arrays(t1, t2, rho)
    np.testing.assert_array_equal(_bits(got), _bits(bvn_cdf_grid(*wide)))
    np.testing.assert_array_equal(_bits(got), _bits(_bvn_every_cell(*wide)))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), size=st.integers(2, 40))
def test_bvn_grid_cell_alone_equals_the_cell_in_a_batch(data, size):
    def draw(cells):
        return np.array(data.draw(st.lists(cells, min_size=size, max_size=size)))

    t1, t2, rho = draw(_THRESHOLDS), draw(_THRESHOLDS), draw(_RHOS)
    batch = bvn_cdf_grid(t1, t2, rho)
    alone = np.array([bvn_cdf_grid(t1[i], t2[i], rho[i]) for i in range(size)])
    np.testing.assert_array_equal(_bits(batch), _bits(alone))
    # the same cells in another layout: a column of a wider batch
    wide = bvn_cdf_grid(t1[:, None], np.stack([t2, -t2], axis=1), rho[:, None])
    np.testing.assert_array_equal(_bits(batch), _bits(wide[:, 0]))


def test_scalar_entry_points_are_the_grid_kernel_on_one_cell():
    rng = np.random.default_rng(3)
    for _ in range(20):
        config = EdgeConfig(*rng.uniform(-0.95, 0.95, size=3))
        for kind in ("cut", "max2sat"):
            grid = rounded_value_grid(kind, config.mu1, config.mu2,
                                      config.rhobar)
            assert _bits(rounded_value(kind, config)) == _bits(grid)
        t1, t2 = threshold(config.mu1), threshold(config.mu2)
        assert _bits(bvn_cdf(t1, t2, config.rhobar)) == _bits(
            bvn_cdf_grid(t1, t2, config.rhobar))


def _accuracy_battery(low, high, size=300, seed=11):
    """Cells with thresholds in [-6, 6] or infinite and |rho| in [low, high):
    random inside the band and 1e-12 inside either edge, both signs."""
    rng = np.random.default_rng(seed)
    edges = [low + 1e-12, high - 1e-12] + ([low] if low > 0 else [])
    magnitude = np.concatenate([rng.uniform(low, high, size), edges, edges])
    sign = np.where(np.arange(magnitude.size) % 2 == 0, 1.0, -1.0)
    rho = np.concatenate([sign * magnitude, -sign * magnitude])
    t1, t2 = rng.uniform(-6.0, 6.0, (2, rho.size))
    t1[rng.random(rho.size) < 0.05] = np.inf
    t1[rng.random(rho.size) < 0.05] = -np.inf
    t2[rng.random(rho.size) < 0.05] = np.inf
    t2[rng.random(rho.size) < 0.05] = -np.inf
    return t1, t2, rho


@pytest.mark.parametrize("low, high", [(0.0, 0.3), (0.3, 0.75), (0.75, 0.925)])
def test_bvn_grid_band_rule_is_as_accurate_as_48_nodes(low, high):
    t1, t2, rho = _accuracy_battery(low, high)
    got = bvn_cdf_grid(t1, t2, rho)
    nodes48 = _bvn_every_cell(t1, t2, rho, bands=((_HIGH, 48),))
    assert np.abs(got - nodes48).max() <= 4.5e-16
    finite = np.isfinite(t1) & np.isfinite(t2)
    adaptive = np.array([quad_bvn(*cell) for cell in
                         zip(t1[finite], t2[finite], rho[finite])])
    assert np.abs(got[finite] - adaptive).max() <= 1e-13


def _mpmath_battery(band, size, seed):
    """Finite cells with |rho| in ``band``, both signs, thresholds in
    [-6, 6]: t2 at random for half of them and t2 = +-t1 + delta (the sign
    of rho), delta up to 0.01, for the other half."""
    rng = np.random.default_rng(seed)
    rho = rng.uniform(*band, size) * np.where(np.arange(size) % 2, 1.0, -1.0)
    t1 = rng.uniform(-6.0, 6.0, size)
    near = np.sign(rho) * t1 + rng.uniform(-0.01, 0.01, size)
    t2 = np.where(np.arange(size) % 4 < 2, rng.uniform(-6.0, 6.0, size), near)
    return t1, t2, rho


def _mpmath_error(t1, t2, rho):
    exact = np.array([mpmath_bvn(*cell) for cell in zip(t1, t2, rho)])
    return np.abs(bvn_cdf_grid(t1, t2, rho) - exact).max()


@pytest.mark.parametrize("band", [(0.0, 0.3), (0.3, 0.75), (0.75, 0.925),
                                  (0.925, 1.0)])
def test_bvn_grid_is_within_its_bound_of_mpmath(band):
    # the bound is stated with a margin: 2.2e-16 at most when measured
    assert landscape._BVN_ERROR <= 1e-14
    assert _mpmath_error(*_mpmath_battery(band, 50, seed=17)) <= (
        landscape._BVN_ERROR)


def test_bvn_grid_high_correlation_accuracy():
    """rho = +-(1 - 10^u), u in [-12, -2], with t2 near t1 (rho > 0) or -t1
    (rho < 0), where the arcsine path is sharp, and the cells where the
    48-node rule missed by 1.1e-7 and 5.2e-5 and adaptive quadrature by
    4.1e-7."""
    rng = np.random.default_rng(23)
    size = 240
    rho = (1.0 - 10.0 ** rng.uniform(-12.0, -2.0, size)) * np.where(
        np.arange(size) % 2, 1.0, -1.0)
    t1 = rng.uniform(-3.0, 3.0, size)
    t2 = np.sign(rho) * t1 + rng.normal(size=size) * 10.0 ** rng.uniform(
        -8.0, 0.0, size)
    found = np.array([(0.791, -0.786, -1.0 + 8.4e-6),
                      (-0.0510, -0.0490, 1.0 - 3.1e-10),
                      (-0.43825437576067561, -0.43825048675792211,
                       0.99999999999783307)])
    t1, t2, rho = (np.concatenate([x, f]) for x, f in zip((t1, t2, rho),
                                                           found.T))
    assert _mpmath_error(t1, t2, rho) <= landscape._BVN_ERROR


def test_bvn_grid_at_minus_one_does_not_cancel_against_one():
    # Phi(t1) + Phi(t2) - 1 would lose Phi(-6) to the rounding of 1 + Phi(-6)
    # (a relative error of 5.6e-8); beyond the clip at 40, the value is its
    # t1 = +inf limit to the bit
    assert bvn_cdf_grid(41.0, -6.0, -0.95) == ndtr(-6.0)
    assert bvn_cdf_grid(-6.0, 41.0, -0.95) == ndtr(-6.0)
    assert bvn_cdf_grid(41.0, -6.0, -1.0) == ndtr(-6.0)
    assert bvn_cdf_grid(7.0, -6.0, -1.0) == ndtr(-6.0) - ndtr(-7.0)


# -- searches -----------------------------------------------------------------

# Each cell's rule is chosen by its own correlation and its sum is a
# row-wise reduction, so a cell's value does not depend on its position in a
# batch (see the kernel tests above), and the searches' outputs are compared
# whole.

@pytest.mark.parametrize("kind", ["cut", "max2sat"])
@pytest.mark.parametrize("resolution", [41, 64])
def test_ratio_grid_equals_every_cell_reference(kind, resolution):
    mus = np.linspace(-1.0, 1.0, resolution)
    M1, M2 = np.meshgrid(mus, mus, indexing="ij")
    for rho in mus:
        ratio, sdp, rounded, valid = _ratio_on_grid(kind, M1, M2, rho)
        want = _ratio_every_cell(kind, M1, M2, np.full_like(M1, rho))
        np.testing.assert_array_equal(_bits(ratio), _bits(want))
        assert np.isnan(rounded[~valid]).all()


@pytest.mark.parametrize("kind", ["cut", "max2sat"])
@pytest.mark.parametrize("k", [1, 3, 4])
def test_ratio_grid_on_axes_equals_the_meshgrid_call(kind, k):
    """rho slices (k, 1, 1) against mu1 (m, 1) and mu2 (1, m): the plane
    terms are broadcast once per call, and every output is the one of the
    same cells given as full arrays."""
    mus = np.linspace(-1.0, 1.0, 41)
    rhos = mus[np.linspace(0, 40, k).astype(int)]  # -1 and every band
    mu1, mu2, rho = mus[:, None], mus[None, :], rhos[:, None, None]
    on_axes = _ratio_on_grid(kind, mu1, mu2, rho)
    full = np.broadcast_arrays(mu1, mu2, rho)
    for got, want in zip(on_axes, _ratio_on_grid(kind, *full)):
        assert got.shape == (k, 41, 41)
        np.testing.assert_array_equal(_bits(got), _bits(want))
    np.testing.assert_array_equal(_bits(on_axes[0]),
                                  _bits(_ratio_every_cell(kind, *full)))


@pytest.mark.parametrize("kind", ["cut", "max2sat"])
@pytest.mark.parametrize("resolution", [50, 60, 64])
def test_ratio_search_equals_every_cell_reference(kind, resolution):
    cert = ratio_search(kind, resolution=resolution)
    minimum, argmin, trace, error_bar = _ratio_search_every_cell(kind,
                                                                 resolution, 3)
    assert cert.argmin == argmin
    assert cert.refinement_trace == trace
    assert _bits(cert.minimum_ratio) == _bits(minimum)
    assert _bits(cert.error_bar) == _bits(error_bar)


@pytest.mark.parametrize("kind", ["cut", "max2sat"])
@pytest.mark.parametrize("resolution", [50, 60, 64])
def test_ratio_search_minimum_equals_the_full_plane_search(kind, resolution):
    """Sweeping one cell per orbit finds the full-plane minimum, at the
    full-plane argmin or at its image under a symmetry of the kind."""
    cert = ratio_search(kind, resolution=resolution)
    minimum, argmin, _, _ = _ratio_search_every_cell(kind, resolution, 3,
                                                     orbits=False)
    assert cert.minimum_ratio == pytest.approx(minimum, rel=1e-15, abs=0)
    images = [(argmin.mu1, argmin.mu2), (argmin.mu2, argmin.mu1)]
    if kind == "cut":
        images += [(-m2, -m1) for m1, m2 in images]
    assert cert.argmin.rhobar == argmin.rhobar
    assert any(np.allclose((cert.argmin.mu1, cert.argmin.mu2), image,
                           rtol=0, atol=1e-15) for image in images)


def test_ratio_search_memory_is_bounded_by_its_cell_budget():
    """At resolution 200 one rho slice (40,000 cells) is more than the
    sweep's cell budget, so slices go one at a time."""
    tracemalloc.start()
    try:
        ratio_search("cut", resolution=200)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 12e6


@pytest.mark.parametrize("eps", [0.0025, 0.04, 0.3])
@pytest.mark.parametrize("resolution", [60, 77, 100])
def test_worst_separation_equals_every_cell_reference(eps, resolution):
    worst, argmax = worst_separation(eps, resolution=resolution)
    ref_worst, ref_argmax = _worst_separation_every_cell(eps, resolution)
    assert _bits(worst) == _bits(ref_worst)
    assert argmax == ref_argmax
    full_plane, _ = _worst_separation_every_cell(eps, resolution, orbits=False)
    assert worst == pytest.approx(full_plane, rel=1e-15, abs=0)


# -- soundness ----------------------------------------------------------------

def _gadget(R, family, n, assignments, weights):
    inst = generate(family, n)
    sol = exact_mixture_moments(inst, assignments, weights, level=2)
    return build_gadget(sol, inst, 0.1, R=R)


# unequal mixture weights give each gadget two or three distinct marginals;
# each assignment's complement keeps the vertex weights complement-symmetric,
# so the odd functions (dictators among them) are balanced
GADGETS = {
    "cycle4": ("cycle", 4, [(0, 1, 0, 1), (1, 0, 1, 0)], [0.7, 0.3]),
    "cycle6": ("cycle", 6, [(0, 1, 0, 1, 0, 1), (1, 0, 1, 0, 1, 0),
                            (0, 0, 1, 1, 0, 1), (1, 1, 0, 0, 1, 0)],
               [0.4, 0.1, 0.3, 0.2]),
}


def _boolean_functions(R):
    size = 1 << R
    codes = np.arange(1 << size)
    return 1.0 - 2.0 * ((codes[:, None] >> np.arange(size)) & 1)


def _grid_functions(R, points):
    mesh = np.linspace(-1.0, 1.0, points)
    grids = np.meshgrid(*([mesh] * (1 << R)), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def _influence_by_flips(F, ell, p0, R):
    """p0 (1 - p0) E[(F(z) - F(z with coordinate ell flipped))^2] under the
    product measure on the whole cube."""
    mu = np.prod(np.where(hypercube_labels(R) == 1, p0, 1 - p0), axis=1)
    flipped = np.arange(1 << R) ^ (1 << (R - 1 - ell))
    return p0 * (1 - p0) * (mu @ (F - F[flipped]) ** 2)


def _soundness_by_loop(gadget, tau, functions, balance_tol=1e-9):
    """(function id, balance, max influence, value) per admitted function,
    one function at a time."""
    marginals = np.unique(np.round(gadget.vertex_marginals, 12))
    rows = []
    for k, F in enumerate(functions):
        balance = gadget.vertex_weights @ F
        if abs(balance) > balance_tol:
            continue
        top = max(_influence_by_flips(F, ell, p0, gadget.R)
                  for p0 in marginals for ell in range(gadget.R))
        if top <= tau + 1e-12:
            rows.append((k, balance, top,
                         0.5 * (1.0 - F @ gadget.edge_weights @ F)))
    return rows


def _assert_same_rows(report, rows, gadget, functions):
    """The report lists the reference's rows in id order; each balance is,
    bit for bit and sign of zero included, the full table's, and the witness
    is a writable copy of the lowest-id maximizer."""
    assert report.candidates == len(rows)
    assert report.empty == (not rows)
    ids = [r[0] for r in rows]
    assert [r[0] for r in report.rows] == ids
    for got, want in zip(report.rows, rows):
        assert got[1:] == pytest.approx(want[1:], abs=1e-12)
    np.testing.assert_array_equal(
        _bits(report.balances),
        _bits(gadget_balance(gadget, functions)[ids] if ids else []))
    if ids:
        # the subset alone, as a matrix product would block it differently
        np.testing.assert_array_equal(
            _bits(report.balances),
            _bits(gadget_balance(gadget, functions[ids])))
    if rows:
        assert report.max_value == pytest.approx(max(r[3] for r in rows),
                                                 abs=1e-12)
        # the lowest id at the report's maximum: functions of equal value
        # (the dictators of a tensor power) can round to values an ulp apart
        # in another order in the loop's sums
        first = int(np.flatnonzero(report.values == report.max_value)[0])
        np.testing.assert_array_equal(_bits(report.witness),
                                      _bits(functions[ids[first]]))
        assert report.witness.flags.writeable
        assert dict_value(gadget, report.witness) == pytest.approx(
            report.max_value, abs=1e-12)
    else:
        assert report.max_value is None and report.witness is None


@pytest.mark.parametrize("name", sorted(GADGETS))
@pytest.mark.parametrize("R", [2, 3])
def test_soundness_equals_loop_reference(name, R):
    gadget = _gadget(R, *GADGETS[name])
    assert len(np.unique(np.round(gadget.vertex_marginals, 12))) >= 2
    functions = _boolean_functions(R)
    for tau in (1.0, 0.8, 0.5, 0.3, 0.0):
        _assert_same_rows(soundness_enumerate(gadget, tau),
                          _soundness_by_loop(gadget, tau, functions), gadget,
                          functions)


def test_soundness_equals_loop_reference_at_r4():
    # one loop pass at tau = 1 admits every balanced function; a smaller tau
    # keeps the rows whose max influence is within it
    gadget = _gadget(4, *GADGETS["cycle4"])
    functions = _boolean_functions(4)
    every = _soundness_by_loop(gadget, 1.0, functions)
    for tau in (1.0, 0.8, 0.3, 0.0):
        _assert_same_rows(soundness_enumerate(gadget, tau),
                          [r for r in every if r[2] <= tau + 1e-12], gadget,
                          functions)


def test_soundness_table_is_shared_and_read_only():
    table = dictator._boolean_functions(3)
    assert dictator._boolean_functions(3) is table
    np.testing.assert_array_equal(table, _boolean_functions(3))
    with pytest.raises(ValueError):
        table[0, 0] = 1.0
    # two different gadgets in a row read the same table
    for name in sorted(GADGETS):
        gadget = _gadget(3, *GADGETS[name])
        _assert_same_rows(soundness_enumerate(gadget, 0.8),
                          _soundness_by_loop(gadget, 0.8, _boolean_functions(3)),
                          gadget, _boolean_functions(3))
    assert dictator._boolean_functions(3) is table
    np.testing.assert_array_equal(table, _boolean_functions(3))


@pytest.mark.parametrize("name", sorted(GADGETS))
@pytest.mark.parametrize("R", [1, 2])
def test_soundness_grid_mode_equals_loop_reference(name, R):
    gadget = _gadget(R, *GADGETS[name])
    functions = _grid_functions(R, 5)
    for tau in (1.0, 0.5):
        _assert_same_rows(
            soundness_enumerate(gadget, tau, mode="grid"),
            _soundness_by_loop(gadget, tau, functions), gadget, functions)


@st.composite
def _any_gadget(draw):
    """Tables that ``DictGadget.from_json`` admits but ``build_gadget`` does
    not make: vertex weights of small integers over their total, with exact
    zeros likely, a random symmetric edge table, and 1-3 source marginals."""
    R = draw(st.integers(1, 3))
    size = 1 << R
    counts = np.array(draw(st.lists(st.integers(0, 3), min_size=size,
                                    max_size=size)
                           .filter(lambda c: sum(c) > 0)), dtype=float)
    upper = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=size * size,
                                   max_size=size * size))).reshape(size, size)
    marginals = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=1,
                                       max_size=3)))
    return DictGadget(R=R, eps=0.1, vertex_weights=counts / counts.sum(),
                      edge_weights=(upper + upper.T) / 2,
                      vertex_marginals=marginals,
                      source_weights=np.full(marginals.size, 1 / marginals.size),
                      provenance={})


@settings(max_examples=60, deadline=None)
@given(gadget=_any_gadget(), tau=st.sampled_from([1.0, 0.8, 0.3, 0.0]),
       mode=st.sampled_from(["boolean_exhaustive", "grid"]))
def test_soundness_pairs_negations_on_any_tables(gadget, tau, mode):
    """-F pairs with F on any tables, not only tensor powers."""
    if mode == "grid" and gadget.R > 2:
        mode = "boolean_exhaustive"
    functions = (_grid_functions(gadget.R, 5) if mode == "grid"
                 else _boolean_functions(gadget.R))
    _assert_same_rows(soundness_enumerate(gadget, tau, mode=mode),
                      _soundness_by_loop(gadget, tau, functions), gadget,
                      functions)


@settings(max_examples=60, deadline=None)
@given(gadget=_any_gadget())
def test_balance_of_a_function_does_not_depend_on_its_stack(gadget):
    """Each balance in a stack is, bit for bit, the function's own, and -F's
    is 0.0 - b: the mirrored rows of soundness_enumerate rely on both."""
    functions = _boolean_functions(gadget.R)
    stacked = gadget_balance(gadget, functions)
    alone = np.array([gadget_balance(gadget, F) for F in functions])
    np.testing.assert_array_equal(_bits(stacked), _bits(alone))
    np.testing.assert_array_equal(_bits(stacked[::-1]), _bits(0.0 - stacked))

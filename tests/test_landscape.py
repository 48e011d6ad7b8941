import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bvn_reference import quad_bvn
from cardcsp import landscape
from cardcsp.errors import CapacityError, CardCspError
from cardcsp.landscape import (EdgeConfig, bvn_cdf, bvn_cdf_grid,
                               config_valid_mask, edge_sdp_value,
                               edge_sdp_value_grid,
                               landscape_csv, ratio_search, rounded_value,
                               rounded_value_grid, sqrt_eps_curve,
                               worst_separation)
from cardcsp.oracle import mc_bvn


def test_bvn_arcsine_closed_form():
    # P(Z1 <= 0, Z2 <= 0) = 1/4 + arcsin(rho) / (2 pi)
    for rho in np.linspace(-0.999, 0.999, 31):
        expected = 0.25 + np.arcsin(rho) / (2 * np.pi)
        assert bvn_cdf(0.0, 0.0, rho) == pytest.approx(expected, abs=1e-10)


def test_bvn_independence_factorization():
    from scipy.special import ndtr
    for t1, t2 in [(0.3, -0.7), (1.5, 1.5), (-2.0, 0.1)]:
        assert bvn_cdf(t1, t2, 0.0) == pytest.approx(ndtr(t1) * ndtr(t2),
                                                     abs=1e-12)


def test_bvn_extreme_correlations():
    from scipy.special import ndtr
    assert bvn_cdf(0.5, 1.0, 1.0) == pytest.approx(ndtr(0.5))
    assert bvn_cdf(0.5, -0.5, -1.0) == pytest.approx(ndtr(0.5) + ndtr(-0.5) - 1)
    assert bvn_cdf(-1.0, 1.0, -1.0) == pytest.approx(0.0, abs=1e-12)


def test_bvn_infinite_thresholds():
    from scipy.special import ndtr
    assert bvn_cdf(np.inf, 0.3, 0.5) == pytest.approx(ndtr(0.3))
    assert bvn_cdf(-np.inf, 0.3, 0.5) == 0.0
    assert float(bvn_cdf_grid(np.inf, np.inf, 0.2)) == 1.0


@pytest.mark.parametrize("rho", [0.5, 0.95, -0.95, 1.0 - 1e-9, -1.0])
def test_bvn_huge_thresholds_are_the_infinite_limit(rho):
    # the squares of thresholds this large overflow unless clipped
    t = np.array([-6.0, 0.3, 6.0, np.inf, -np.inf])
    for huge in (41.0, 1e20, 1e300):
        t_huge = np.where(np.isinf(t), np.sign(t) * huge, t)
        for sign in (1.0, -1.0):
            for got, want in [
                    (bvn_cdf_grid(sign * huge, t_huge, rho),
                     bvn_cdf_grid(sign * np.inf, t, rho)),
                    (bvn_cdf_grid(t_huge, sign * huge, rho),
                     bvn_cdf_grid(t, sign * np.inf, rho))]:
                np.testing.assert_allclose(got, want, rtol=0,
                                           atol=landscape._BVN_ERROR)


@pytest.mark.parametrize("rho", [1e-306, -1.2e-306, 7e-307, 1e-120])
def test_bvn_tiny_correlation_is_the_independent_value(rho):
    # on a path this short the value is the independent one
    from scipy.special import ndtr
    for t1, t2 in [(-0.3, -0.3), (0.0, 0.5), (1.2, -0.4)]:
        assert bvn_cdf(t1, t2, rho) == pytest.approx(ndtr(t1) * ndtr(t2),
                                                     abs=1e-15)


def test_bvn_grid_matches_adaptive():
    # adaptive quadrature is a reference below |rho| = 0.925 only
    rng = np.random.default_rng(5)
    for _ in range(40):
        t1, t2 = rng.normal(size=2) * 1.5
        rho = rng.uniform(-0.92, 0.92)
        assert float(bvn_cdf_grid(t1, t2, rho)) == pytest.approx(
            quad_bvn(t1, t2, rho), abs=1e-13)


def test_bvn_matches_monte_carlo():
    est, sigma = mc_bvn(0.4, -0.3, 0.6, samples=200_000, seed=1)
    assert abs(bvn_cdf(0.4, -0.3, 0.6) - est) <= 4 * sigma


def test_bvn_rejects_bad_correlation():
    with pytest.raises(CardCspError):
        bvn_cdf(0.0, 0.0, 1.5)


@pytest.mark.parametrize("rho", [1.5, -7.0, 1.0 + 2.0**-52, np.nan,
                                 [0.2, 1.5], [[np.nan], [0.3]]])
def test_entry_points_refuse_a_bad_correlation(rho):
    calls = [lambda: bvn_cdf_grid(0.2, 0.1, rho),
             lambda: rounded_value_grid("cut", 0.1, -0.2, rho)]
    if np.ndim(rho) == 0:
        calls += [lambda: bvn_cdf(0.2, 0.1, rho),
                  lambda: rounded_value("cut", EdgeConfig(0.1, -0.2, rho))]
    for call in calls:
        with pytest.raises(CardCspError, match="out of"):
            call()


def test_edge_config_validity():
    assert EdgeConfig(0.0, 0.0, -1.0).is_valid()
    # equal biases with full anti-correlation push p_{--} negative
    assert not EdgeConfig(0.5, 0.5, -1.0).is_valid()
    mask = config_valid_mask(np.array([0.0, 0.5]), np.array([0.0, 0.5]),
                             np.array([-1.0, -1.0]))
    assert mask.tolist() == [True, False]


def test_separation_prob_limits():
    # antipodal unbiased pair always separates; identical pair never does
    assert rounded_value("cut", EdgeConfig(0.0, 0.0, -1.0)) == \
        pytest.approx(1.0)
    assert rounded_value("cut", EdgeConfig(0.0, 0.0, 1.0)) == \
        pytest.approx(0.0)
    # independent unbiased pair separates half the time
    assert rounded_value("cut", EdgeConfig(0.0, 0.0, 0.0)) == \
        pytest.approx(0.5)


def test_edge_sdp_values():
    assert edge_sdp_value("cut", EdgeConfig(0.0, 0.0, -1.0)) == pytest.approx(1.0)
    assert edge_sdp_value("cut", EdgeConfig(0.0, 0.0, 0.0)) == pytest.approx(0.5)
    # unbiased independent clause fails with probability 1/4
    assert edge_sdp_value("max2sat", EdgeConfig(0.0, 0.0, 0.0)) == \
        pytest.approx(0.75)


def test_unbiased_slice_reproduces_hyperplane_constant():
    # min over rho of (arccos(rho)/pi) / ((1-rho)/2) at mu1 = mu2 = 0
    rho = np.linspace(-1 + 1e-9, 1 - 1e-9, 200_001)
    oracle = float(((np.arccos(rho) / np.pi) / ((1 - rho) / 2)).min())
    assert oracle == pytest.approx(0.8785672, abs=1e-6)
    mus = np.zeros_like(rho)
    from cardcsp.landscape import rounded_value_grid, edge_sdp_value_grid
    ratio = (rounded_value_grid("cut", mus, mus, rho)
             / edge_sdp_value_grid("cut", mus, mus, rho))
    assert float(ratio.min()) == pytest.approx(oracle, abs=1e-4)


_UNIT = st.floats(-1.0, 1.0)


def _payoffs(kind, config):
    """Rounded value (scalar and grid entry points) and SDP value."""
    grid = rounded_value_grid(kind, config.mu1, config.mu2, config.rhobar)
    return np.array([rounded_value(kind, config), float(grid),
                     edge_sdp_value(kind, config)])


@settings(max_examples=150, deadline=None)
@given(mu1=_UNIT, mu2=_UNIT, rhobar=_UNIT)
def test_configs_are_invariant_under_their_symmetries(mu1, mu2, rhobar):
    """The searches sweep one (mu1, mu2) cell per orbit: swapping the
    endpoints keeps every kind's values, and negating both biases keeps a
    cut's."""
    config = EdgeConfig(mu1, mu2, rhobar)
    assume(config.is_valid())
    swapped = EdgeConfig(mu2, mu1, rhobar)
    negated = EdgeConfig(-mu1, -mu2, rhobar)
    assert swapped.is_valid() and negated.is_valid()
    for kind in ("cut", "max2sat"):
        np.testing.assert_allclose(_payoffs(kind, swapped),
                                   _payoffs(kind, config), rtol=0, atol=1e-12)
    np.testing.assert_allclose(_payoffs("cut", negated),
                               _payoffs("cut", config), rtol=0, atol=1e-12)


@pytest.mark.parametrize("kind", ["cut", "max2sat"])
@pytest.mark.parametrize("m", [1, 2, 3, 8, 9, 64])
def test_orbit_cells_hold_one_cell_of_every_orbit(kind, m):
    i, j = landscape._orbits(kind, m)
    moves = [lambda a, b: (a, b), lambda a, b: (b, a)]
    if kind == "cut":
        moves += [lambda a, b: (m - 1 - a, m - 1 - b),
                  lambda a, b: (m - 1 - b, m - 1 - a)]
    images = {move(a, b) for a, b in zip(i.tolist(), j.tolist())
              for move in moves}
    assert images == {(a, b) for a in range(m) for b in range(m)}
    # Burnside: as many cells as orbits, so none is met twice
    fixed = m * m + m if kind != "cut" else m * m + 2 * m + m % 2
    assert len(i) == fixed // len(moves)


def test_clauses_are_not_invariant_under_negation():
    # negating both biases turns the clause (+, +) into (-, -), so the
    # orbits of the 2-Sat search are swap pairs only
    config = EdgeConfig(0.5, 0.5, 0.0)
    negated = EdgeConfig(-0.5, -0.5, 0.0)
    assert edge_sdp_value("max2sat", config) == pytest.approx(0.9375)
    assert edge_sdp_value("max2sat", negated) == pytest.approx(0.4375)
    assert rounded_value("max2sat", config) - rounded_value(
        "max2sat", negated) > 0.4


def test_ratio_search_small_grid():
    cert = ratio_search("cut", resolution=60)
    assert 0.84 <= cert.minimum_ratio <= 0.87
    assert cert.argmin.is_valid()
    doc = cert.to_json()
    assert "minimum_ratio" in doc


def test_ratio_search_rejects_coarse_grid():
    with pytest.raises(CardCspError):
        ratio_search("cut", resolution=10)


_KIND_ENTRY_POINTS = {
    "edge_sdp_value": lambda k: edge_sdp_value(k, EdgeConfig(0.1, -0.2, 0.3)),
    "edge_sdp_value_grid": lambda k: edge_sdp_value_grid(k, 0.1, -0.2, 0.3),
    "rounded_value": lambda k: rounded_value(k, EdgeConfig(0.1, -0.2, 0.3)),
    "rounded_value_grid": lambda k: rounded_value_grid(k, 0.1, -0.2, 0.3),
    "ratio_search": lambda k: ratio_search(k, resolution=50),
    # the call alone, with no next(): the kind is checked before it returns
    "landscape_csv": lambda k: landscape_csv(k, resolution=20),
}


@pytest.mark.parametrize("entry", sorted(_KIND_ENTRY_POINTS))
@pytest.mark.parametrize("kind", ["maxcut-bisection", "mincut-bisection",
                                  "alpha-cut", "2sat", "foo"])
def test_entry_points_take_only_the_two_payoff_kinds(entry, kind):
    """"cut" and "max2sat" only: an instance kind is not a payoff kind, and
    a minimization has no ratio certificate here."""
    with pytest.raises(CardCspError, match="unknown payoff kind"):
        _KIND_ENTRY_POINTS[entry](kind)


_GRID_ENTRY_POINTS = {
    "ratio_search": lambda r: ratio_search("cut", resolution=r),
    "worst_separation": lambda r: worst_separation(0.01, resolution=r),
    "sqrt_eps_curve": lambda r: sqrt_eps_curve([0.01, 0.04], resolution=r),
    "landscape_csv": lambda r: "".join(landscape_csv("cut", resolution=r)),
}


@pytest.mark.parametrize("entry", sorted(_GRID_ENTRY_POINTS))
@pytest.mark.parametrize("resolution, error", [
    (64.0, CardCspError), ("64", CardCspError), (True, CardCspError),
    (np.int64(64), CardCspError), (10**6, CapacityError),
    (landscape._RESOLUTION_CAP + 1, CapacityError),
])
def test_resolution_gate_fires_before_any_grid(monkeypatch, entry, resolution,
                                               error):
    def no_grid(*args, **kwargs):
        raise AssertionError("a grid was built before the resolution gate")

    monkeypatch.setattr(np, "linspace", no_grid)
    with pytest.raises(CardCspError, match="resolution") as raised:
        _GRID_ENTRY_POINTS[entry](resolution)
    assert isinstance(raised.value, error)
    if error is CardCspError:
        assert not isinstance(raised.value, CapacityError)


def test_resolution_gate_admits_its_cap():
    worst, config = worst_separation(0.3, resolution=landscape._RESOLUTION_CAP)
    assert 0 < worst < 1 and config.is_valid()


def test_landscape_csv_shape():
    pieces = list(landscape_csv("cut", resolution=60))
    # one piece per chunk of 4 rho slices: the whole text is never held
    assert len(pieces) == 15
    lines = "".join(pieces).strip().splitlines()
    assert lines[0] == "mu1,mu2,rhobar,rounded,sdp,ratio"
    assert len(lines) > 1000


def test_worst_separation_decreases_with_eps():
    s1, cfg1 = worst_separation(0.01, resolution=100)
    s2, cfg2 = worst_separation(0.04, resolution=100)
    assert 0 < s1 < s2 < 1
    assert cfg1.is_valid()
    # configs sit on the sdp = eps boundary
    assert edge_sdp_value("cut", cfg1) == pytest.approx(0.01, abs=1e-9)


def test_sqrt_eps_exponent():
    curve = sqrt_eps_curve([0.0025, 0.01, 0.04, 0.09], resolution=100)
    assert 0.4 <= curve["beta"] <= 0.6


@pytest.mark.parametrize("eps_values", [[0.01], [0.01, 0.01], []])
def test_sqrt_eps_curve_needs_two_distinct_eps(eps_values):
    with pytest.raises(CardCspError, match="two distinct eps"):
        sqrt_eps_curve(eps_values, resolution=20)

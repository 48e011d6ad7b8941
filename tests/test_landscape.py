import numpy as np
import pytest

from cardcsp.errors import CardCspError
from cardcsp.landscape import (EdgeConfig, bvn_cdf, bvn_cdf_grid,
                               config_valid_mask, edge_sdp_value,
                               landscape_csv, ratio_search, separation_prob,
                               sqrt_eps_curve, worst_separation)
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


def test_bvn_grid_matches_adaptive():
    rng = np.random.default_rng(5)
    for _ in range(40):
        t1, t2 = rng.normal(size=2) * 1.5
        rho = rng.uniform(-0.999, 0.999)
        assert float(bvn_cdf_grid(t1, t2, rho)) == pytest.approx(
            bvn_cdf(t1, t2, rho), abs=1e-10)


def test_bvn_matches_monte_carlo():
    est, sigma = mc_bvn(0.4, -0.3, 0.6, samples=200_000, seed=1)
    assert abs(bvn_cdf(0.4, -0.3, 0.6) - est) <= 4 * sigma


def test_bvn_rejects_bad_correlation():
    with pytest.raises(CardCspError):
        bvn_cdf(0.0, 0.0, 1.5)


def test_edge_config_validity():
    assert EdgeConfig(0.0, 0.0, -1.0).is_valid()
    # equal biases with full anti-correlation push p_{--} negative
    assert not EdgeConfig(0.5, 0.5, -1.0).is_valid()
    mask = config_valid_mask(np.array([0.0, 0.5]), np.array([0.0, 0.5]),
                             np.array([-1.0, -1.0]))
    assert mask.tolist() == [True, False]


def test_separation_prob_limits():
    # antipodal unbiased pair always separates; identical pair never does
    assert separation_prob(EdgeConfig(0.0, 0.0, -1.0)) == pytest.approx(1.0)
    assert separation_prob(EdgeConfig(0.0, 0.0, 1.0)) == pytest.approx(0.0)
    # independent unbiased pair separates half the time
    assert separation_prob(EdgeConfig(0.0, 0.0, 0.0)) == pytest.approx(0.5)


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


def test_ratio_search_small_grid():
    cert = ratio_search("cut", resolution=60)
    assert 0.84 <= cert.minimum_ratio <= 0.87
    assert cert.argmin.is_valid(tol=1e-6)
    doc = cert.to_json()
    assert "minimum_ratio" in doc


def test_ratio_search_rejects_coarse_grid():
    with pytest.raises(CardCspError):
        ratio_search("cut", resolution=10)


def test_landscape_csv_shape():
    text = landscape_csv("cut", resolution=60)
    lines = text.strip().splitlines()
    assert lines[0] == "mu1,mu2,rhobar,rounded,sdp,ratio"
    assert len(lines) > 1000


def test_worst_separation_decreases_with_eps():
    s1, cfg1 = worst_separation(0.01, resolution=100)
    s2, cfg2 = worst_separation(0.04, resolution=100)
    assert 0 < s1 < s2 < 1
    assert cfg1.is_valid(tol=1e-6)
    # configs sit on the sdp = eps boundary
    assert edge_sdp_value("cut", cfg1) == pytest.approx(0.01, abs=1e-9)


def test_sqrt_eps_exponent():
    curve = sqrt_eps_curve([0.0025, 0.01, 0.04, 0.09], resolution=100)
    assert 0.4 <= curve["beta"] <= 0.6


@pytest.mark.parametrize("eps_values", [[0.01], [0.01, 0.01], []])
def test_sqrt_eps_curve_needs_two_distinct_eps(eps_values):
    with pytest.raises(CardCspError, match="two distinct eps"):
        sqrt_eps_curve(eps_values, resolution=20)

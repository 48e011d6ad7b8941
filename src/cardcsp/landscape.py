"""Single-edge analysis of the threshold rounding: bivariate normal
orthant probabilities, separation probabilities, the sqrt(eps) law, and the
numerical worst-case approximation-ratio certificate.

One kernel, `bvn_cdf_grid`, gives Phi2(t1, t2; rho) = P(Z1 <= t1, Z2 <= t2)
to `bvn_cdf`, the rounded values and every search.  It is Genz's method
(2004, Statistics and Computing 14): Plackett's identity dPhi2/drho = phi2,
the bivariate density, integrated with Gauss-Legendre rules by band of |rho|.
Below 0.925 it runs from rho = 0 on the arcsine path r = sin(theta),

    Phi2 = Phi(t1) Phi(t2) + 1/(2 pi) int_0^asin(rho)
           exp(-(t1^2 - 2 t1 t2 sin(theta) + t2^2) / (2 cos(theta)^2)) dtheta,

an analytic integrand that 6, 12 and 20 nodes integrate to double precision
for |rho| below 0.3, 0.75 and 0.925.  Above, the path nears the pole at
theta = pi/2, sharp when t2 is near t1 (rho > 0), so it runs from rho = 1
on x = sqrt(1 - r^2) (Drezner & Wesolowsky 1990).  With hk = t1 t2 and
bs = (t1 - t2)^2,

    Phi2 = min(Phi(t1), Phi(t2)) - 1/(2 pi) int_0^sqrt(1 - rho^2)
           exp(-(bs / x^2 + hk) / 2) exp(-hk x^2 / (2 (1 + s)^2)) / s dx,

s = sqrt(1 - x^2).  The last factor's terms to x^4, 1 + c x^2 (1 + 5 d x^2),
c = (4 - hk)/8, d = (12 - hk)/80, integrate in closed form; the 20-node rule
takes the smooth rest.  For rho < 0, Phi2(t1, t2; rho) =
Phi(t1) - Phi2(t1, -t2; -rho), which is max(0, Phi(t1) + Phi(t2) - 1) at -1,
taken as Phi(t2) - Phi(-t1) when t1 >= 0 and Phi(t1) - Phi(-t2) otherwise, so
that a small value does not cancel against 1.  The error bound
``_BVN_ERROR`` = 1e-14 is measured, with a margin of 45: the largest absolute
error against 30-digit mpmath (phi(x) Phi((t2 - rho x) / sqrt(1 - rho^2))
integrated over x <= t1) is 2.2e-16 on 903 seeded cells (150 per band, half
with t2 near +-t1; 300 at rho = +-(1 - 10^u), u in [-12, -2]; cells where
earlier kernels missed), measured again with this form at rho = -1.  The
tests keep such a battery.  Phi and log Phi come from ``scipy.special``,
imported by the functions that call them, so that importing the package and
running the pipeline load no scipy.

The payoff kinds are "cut" and "max2sat" (a (+, +) clause), both maximized:
rounded / SDP bounds maximization only, so Min Bisection has no certificate.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

import numpy as np

from .errors import CardCspError, _admit_int, _admit_real
from .rounding import threshold

SDP_FLOOR = 1e-6  # configs below this payoff value are excluded from ratios
_TOP_K = 24             # cells the ratio search refines around
_RATIO_ROUNDS = 3       # refinement rounds of the ratio search
_SEPARATION_ROUNDS = 4  # refinement rounds of the worst-separation search
_SWEEP_CELLS = 1 << 14  # cells per call of a rho sweep, at least one slice
_VALID_TOL = 1e-9       # slack on |rhobar| <= 1 and p_ab >= 0
# points per axis: a (mu1, mu2, rho) grid of at most 2^24 cells, so a CSV of
# at most about 8 million rows and a ratio search of a few seconds
_RESOLUTION_CAP = 256


# -- bivariate normal ------------------------------------------------------

# Gauss-Legendre rules by band of |rho|: 6, 12 and 20 nodes on the arcsine
# path, 20 on the high-correlation rest below 1, none at 1
_GL_BANDS = np.array([0.3, 0.75, 0.925, 1.0])
_GL_RULES = tuple(np.polynomial.legendre.leggauss(k) for k in (6, 12, 20))
_BVN_ERROR = 1e-14  # absolute error bound of the kernel (module docstring)


def bvn_cdf(t1: float, t2: float, rho: float) -> float:
    """P(Z1 <= t1, Z2 <= t2) at correlation rho: `bvn_cdf_grid` on one cell."""
    return float(bvn_cdf_grid(t1, t2, rho))


def bvn_cdf_grid(t1, t2, rho):
    """P(Z1 <= t1, Z2 <= t2) on broadcastable t1, t2, rho, to within
    ``_BVN_ERROR``.  A correlation outside [-1, 1], or NaN, is an error."""
    from scipy.special import ndtr

    t1, t2, rho = (np.asarray(x, dtype=float) for x in (t1, t2, rho))
    values, inverse = _distinct(rho)
    _require_correlations(values)
    return _bvn_finish(_bvn_integral(t1, t2, values, inverse), t1, t2, rho,
                       ndtr(t1), ndtr(t2))


def _require_correlations(rho):
    """Refuse a correlation outside [-1, 1], or NaN."""
    bad = np.asarray(rho)[~(np.abs(rho) <= 1.0)]
    if bad.size:
        raise CardCspError(f"correlation {bad[0]} out of [-1, 1]")


def _on_cells(x, mask):
    """x at the cells of mask; a scalar stays one value."""
    return x if np.ndim(x) == 0 else np.broadcast_to(x, mask.shape)[mask]


def _distinct(rho, cells=None):
    """The distinct values of rho, and the index among them of the
    correlation of each cell of the mask ``cells`` (of each entry of rho if
    None).  The values are taken on rho's own axes, before the cells are
    selected, unless the cells are fewer."""
    if cells is not None and np.size(rho) > np.count_nonzero(cells):
        rho, cells = _on_cells(rho, cells), None
    values, inverse = np.unique(rho, return_inverse=True)
    inverse = inverse.reshape(np.shape(rho))
    return values, inverse if cells is None else _on_cells(inverse, cells)


def _bvn_integral(t1, t2, values, inverse):
    """The integral term of `bvn_cdf_grid` at broadcastable t1, t2 and
    correlations ``values[inverse]``, 0 where `_bvn_finish` is exact.  Nodes
    are taken once per entry of ``values``, and each band's cells together."""
    t1, t2 = np.asarray(t1, dtype=float), np.asarray(t2, dtype=float)
    inverse = np.asarray(inverse)
    shape = np.broadcast_shapes(t1.shape, t2.shape, inverse.shape)
    band = np.searchsorted(_GL_BANDS, np.abs(values), side="right")
    cell_band = np.where(np.isfinite(t1) & np.isfinite(t2), band[inverse], -1)
    inverse = np.broadcast_to(inverse, shape)
    # Phi2 equals its limit beyond |t| = 40; clipping keeps the squares finite
    a, b = (np.broadcast_to(np.clip(t, -40.0, 40.0), shape) for t in (t1, t2))
    integral = np.zeros(shape)
    forms = [(_arcsine_path, rule) for rule in _GL_RULES]
    forms.append((_high_remainder, _GL_RULES[-1]))
    for k, (form, (nodes, weights)) in enumerate(forms):
        mine = band == k
        if not mine.any():
            continue
        cells = cell_band == k
        u = (np.cumsum(mine) - 1)[inverse[cells]]
        integral[cells] = form(a[cells][:, None], b[cells][:, None],
                               values[mine], u, nodes, weights)
    return integral


def _arcsine_path(a, b, rho, u, nodes, weights):
    """The arcsine-path integral at the thresholds a, b of each cell (a
    column) and the correlation rho[u]."""
    upper = np.arcsin(rho)
    theta = 0.5 * upper[:, None] * (nodes + 1.0)
    # exp(-(a^2 - 2 s a b + b^2) / (2 c2)) in place, in one (cell, node) buffer
    integrand = (2.0 * np.sin(theta))[u]
    integrand *= a
    integrand *= b
    np.subtract(a * a, integrand, out=integrand)
    integrand += b * b
    integrand /= (-2.0 * np.cos(theta) ** 2)[u]
    np.exp(integrand, out=integrand)
    # a row-by-row dot product in einsum's own loop, not BLAS (whose order
    # for a row depends on where it falls in its blocks of rows), so a
    # cell's value depends on its own (t1, t2, rho) only
    return 0.5 * upper[u] * np.einsum("ck,k->c", integrand, weights)


def _high_remainder(a, b, rho, u, nodes, weights):
    """Phi2 minus its value at rho = sign(rho), for 0.925 <= |rho| < 1, at
    the thresholds a, b of each cell (a column) and the correlation rho[u]:
    the closed-form terms and the rule on the rest (Genz's BVND)."""
    from scipy.special import log_ndtr

    sign = np.sign(rho)[u, None]
    hk, bs = sign * a * b, (a - sign * b) ** 2
    c, d = (4.0 - hk) / 8.0, (12.0 - hk) / 80.0
    r2 = (1.0 - np.abs(rho)) * (1.0 + np.abs(rho))  # 1 - rho^2, accurately
    x = 0.5 * np.sqrt(r2)[:, None] * (nodes + 1.0)  # nodes on [0, sqrt(r2)]
    r2, xs, rs = r2[u, None], (x * x)[u], np.sqrt(1.0 - x * x)[u]
    r, root = np.sqrt(r2), np.sqrt(bs)
    closed = (r * np.exp(-0.5 * (bs / r2 + hk))
              * (1.0 - c * (bs - r2) * (1.0 - d * bs) / 3.0 + c * d * r2 * r2)
              - np.sqrt(2.0 * np.pi) * np.exp(log_ndtr(-root / r) - 0.5 * hk)
              * root * (1.0 - c * bs * (1.0 - d * bs) / 3.0))
    # exponents <= 0, so no cell overflows whatever its thresholds
    asr = -0.5 * (bs / xs + hk)
    rest = (np.exp(asr) * (1.0 + c * xs * (1.0 + 5.0 * d * xs))
            - np.exp(asr - 0.5 * hk * xs / (1.0 + rs) ** 2) / rs)
    rest = 0.5 * r[:, 0] * np.einsum("ck,k->c", rest, weights)
    return sign[:, 0] * (rest - closed[:, 0]) / (2.0 * np.pi)


def _bvn_finish(integral, t1, t2, rho, p1, p2):
    """P(Z1 <= t1, Z2 <= t2) from `_bvn_integral` and p1 = Phi(t1),
    p2 = Phi(t2): the value at rho = +-1 plus the remainder from
    |rho| = 0.925 on, else p1 p2 plus the path integral over 2 pi (exact at
    an infinite threshold, where the integral is 0).  At rho = -1 the value
    Phi(t1) + Phi(t2) - 1 is taken as Phi(t2) - Phi(-t1) when t1 >= 0 and
    Phi(t1) - Phi(-t2) otherwise (Genz 2004), clipped at 0, so a small
    value does not cancel against 1."""
    from scipy.special import ndtr

    path = (np.abs(rho) < _GL_BANDS[2]) | ~(np.isfinite(t1) & np.isfinite(t2))
    out = np.where(path, p1 * p2 + integral / (2.0 * np.pi),
                   np.minimum(p1, p2) + integral)
    low = (rho < 0.0) & ~path
    if low.any():
        a, b, pa, pb, rest = (_on_cells(x, low)
                              for x in (t1, t2, p1, p2, integral))
        first = a >= 0.0
        at_one = np.where(first, pb, pa) - ndtr(-np.where(first, a, b))
        out[low] = np.maximum(0.0, at_one) + rest
    return np.clip(out, 0.0, 1.0)


# -- edge configurations ---------------------------------------------------

@dataclass(frozen=True)
class EdgeConfig:
    mu1: float
    mu2: float
    rhobar: float  # <wbar_i, wbar_j>

    def is_valid(self):
        return bool(config_valid_mask(self.mu1, self.mu2, self.rhobar))


def config_m(mu1, mu2, rhobar):
    """Second moment E[x_i x_j]."""
    return mu1 * mu2 + rhobar * np.sqrt(
        np.clip((1 - mu1**2) * (1 - mu2**2), 0.0, None))


def config_valid_mask(mu1, mu2, rhobar):
    """|rhobar| <= 1 and p_ab = (1 + a mu1 + b mu2 + ab m)/4 >= 0 for a, b
    in {+1, -1}, up to ``_VALID_TOL``."""
    m = config_m(mu1, mu2, rhobar)
    ok = np.abs(rhobar) <= 1 + _VALID_TOL
    for a in (1, -1):
        for b in (1, -1):
            ok = ok & ((1 + a * mu1 + b * mu2 + a * b * m) / 4 >= -_VALID_TOL)
    return ok


def edge_sdp_value(kind: str, config: EdgeConfig) -> float:
    """Value of one payoff term under the SDP local distribution."""
    return float(edge_sdp_value_grid(kind, np.asarray(config.mu1),
                                     np.asarray(config.mu2),
                                     np.asarray(config.rhobar)))


def _is_cut(kind):
    """True for "cut", False for "max2sat"; any other kind is an error."""
    if kind not in ("cut", "max2sat"):
        raise CardCspError(f"unknown payoff kind {kind!r} (cut or max2sat)")
    return kind == "cut"


def edge_sdp_value_grid(kind, mu1, mu2, rhobar):
    m = config_m(mu1, mu2, rhobar)
    if _is_cut(kind):
        return (1.0 - m) / 2.0
    # clause (+, +): unsatisfied only when both literals are false
    p_mm = (1.0 - mu1 - mu2 + m) / 4.0
    return 1.0 - p_mm


def _rounded(kind, p1, p2, orthant):
    """Expected payoff of the rounded labels for one term, from p1 = Phi(t1),
    p2 = Phi(t2) and the orthant value P(Z1 <= t1, Z2 <= t2): the
    separation probability for a cut, one minus the both-false probability
    for a clause."""
    if _is_cut(kind):
        value = p1 + p2 - 2.0 * orthant
    else:
        value = 1.0 - (1.0 - p1 - p2 + orthant)
    return np.clip(value, 0.0, 1.0)


def rounded_value(kind: str, config: EdgeConfig) -> float:
    """Expected payoff of the rounded labels for one term:
    `rounded_value_grid` on one cell."""
    return float(rounded_value_grid(kind, config.mu1, config.mu2,
                                    config.rhobar))


def rounded_value_grid(kind, mu1, mu2, rhobar):
    """Expected payoff of the rounded labels for one term, on a grid.  A
    correlation outside [-1, 1], or NaN, is an error."""
    _require_correlations(rhobar)
    return _rounded_grid(kind, mu1, mu2, rhobar)


def _phi(mu):
    """The threshold t of the bias mu, and Phi(t)."""
    from scipy.special import ndtr

    t = threshold(mu)
    return t, ndtr(t)


def _rounded_grid(kind, mu1, mu2, rhobar, cells=None, phi=None):
    """The rounded value on broadcastable mu1, mu2, rhobar, at the cells of
    the mask ``cells`` (every cell if None).  Thresholds and Phi are taken
    on each input's own axes (``phi`` = (`_phi`(mu1), `_phi`(mu2)) if the
    caller has them), before the cells are selected, and so are the
    distinct correlations (`_distinct`)."""
    (t1, p1), (t2, p2) = (_phi(mu1), _phi(mu2)) if phi is None else phi
    values, inverse = _distinct(rhobar, cells)
    if cells is not None:
        t1, t2, p1, p2, rhobar = (_on_cells(x, cells)
                                  for x in (t1, t2, p1, p2, rhobar))
    orthant = _bvn_finish(_bvn_integral(t1, t2, values, inverse), t1, t2,
                          rhobar, p1, p2)
    return _rounded(kind, p1, p2, orthant)


def separation_prob(config: EdgeConfig) -> float:
    """Probability the rounding labels the two endpoints differently."""
    return rounded_value("cut", config)


# -- ratio certificate -----------------------------------------------------

@dataclass
class RatioCertificate:
    payoff_kind: str
    grid_resolution: int
    minimum_ratio: float
    argmin: EdgeConfig
    refinement_trace: list
    error_bar: float = 0.0

    def to_json(self):
        return json.dumps({
            "schema": "cardcsp.ratio_certificate/1",
            "payoff_kind": self.payoff_kind,
            "grid_resolution": self.grid_resolution,
            "minimum_ratio": self.minimum_ratio,
            "argmin": {"mu1": self.argmin.mu1, "mu2": self.argmin.mu2,
                       "rhobar": self.argmin.rhobar},
            "refinement_trace": self.refinement_trace,
            "error_bar": self.error_bar,
        }, indent=2)


def _orbits(kind, m):
    """Index arrays (i, j), in row-major order, of one cell of each orbit of
    the m x m plane of an axis symmetric about 0 (entry m - 1 - i is minus
    entry i).  The rounded and SDP values and the validity of a config are
    invariant when the two endpoints swap, (i, j) -> (j, i), so i <= j is
    kept; for a cut they are also invariant when both biases are negated,
    (i, j) -> (m - 1 - i, m - 1 - j), so i + j <= m - 1 is kept too.  The
    test is on indices, not values, so rounding in the axis cannot drop an
    orbit."""
    i, j = np.ogrid[:m, :m]
    keep = i <= j
    if _is_cut(kind):
        keep &= i + j <= m - 1
    return np.nonzero(keep)


def _orbit_plane(kind, axis):
    """The cells of `_orbits` on the plane axis x axis: (mu1, mu2) and their
    thresholds and Phi as `_rounded_grid` takes them, from one `_phi` of
    the axis."""
    i, j = _orbits(kind, len(axis))
    t, p = _phi(axis)
    return (axis[i], axis[j]), ((t[i], p[i]), (t[j], p[j]))


def _ratio_on_grid(kind, mu1, mu2, rhobar, phi=None):
    """Ratio, SDP value, rounded value and validity on a grid of configs
    given as broadcastable axes (``phi`` as in `_rounded_grid`).

    Each factor is evaluated on the axes it depends on, so terms of the
    (mu1, mu2) plane come out once for every rho.  The rounded value is
    integrated on the valid cells only; elsewhere it is NaN and the ratio
    +inf.
    """
    sdp = edge_sdp_value_grid(kind, mu1, mu2, rhobar)
    valid = config_valid_mask(mu1, mu2, rhobar) & (sdp > SDP_FLOOR)
    rounded = np.full(valid.shape, np.nan)
    rounded[valid] = _rounded_grid(kind, mu1, mu2, rhobar, valid, phi)
    ratio = np.full(valid.shape, np.inf)
    ratio[valid] = rounded[valid] / sdp[valid]
    return ratio, sdp, rounded, valid


def _rho_chunks(rhos, plane):
    """rhos in runs of whole slices of ``plane`` cells, at most
    ``_SWEEP_CELLS`` cells a run unless one slice is larger."""
    step = max(1, _SWEEP_CELLS // plane)
    return [rhos[s:s + step] for s in range(0, len(rhos), step)]


def ratio_search(kind: str, resolution: int = 200) -> RatioCertificate:
    """Worst ratio (rounded value / SDP value) over valid edge configs.

    Grid sweep over one (mu1, mu2) cell of each symmetry orbit
    (`_orbits`), followed by local shrinking searches around the best cells;
    deterministic.  The error bar is ``_BVN_ERROR`` over the SDP value plus
    the refinement's Lipschitz estimate times its last step.
    """
    _admit_int("resolution", resolution, 50, cap=_RESOLUTION_CAP)
    mus = np.linspace(-1.0, 1.0, resolution)
    rhos = np.linspace(-1.0, 1.0, resolution)
    (mu1, mu2), phi = _orbit_plane(kind, mus)
    best = []  # (ratio, mu1, mu2, rho)
    for chunk in _rho_chunks(rhos, len(mu1)):
        # one row of the plane's orbit cells per rho
        ratio, _, _, _ = _ratio_on_grid(kind, mu1, mu2, chunk[:, None], phi)
        top = np.argsort(ratio, axis=1)[:, :_TOP_K // 4]
        for rho, row, cells in zip(chunk, ratio, top):
            for c in cells:
                if np.isfinite(row[c]):
                    best.append((float(row[c]), float(mu1[c]),
                                 float(mu2[c]), float(rho)))
    best.sort()
    best = best[:_TOP_K]
    trace = [{"stage": "grid", "min_ratio": best[0][0]}]
    step = np.array([mus[1] - mus[0], mus[1] - mus[0], rhos[1] - rhos[0]])
    local_res = 9
    lipschitz = 0.0
    for round_idx in range(_RATIO_ROUNDS):
        # one call for all local boxes: axes (box, mu1, mu2, rho)
        centers = np.array([b[1:] for b in best])
        lo = np.maximum(centers - step, -1.0)
        hi = np.minimum(centers + step, 1.0)
        g = np.linspace(lo, hi, local_res, axis=-1)  # (box, coordinate, point)
        ratio, _, _, _ = _ratio_on_grid(kind, g[:, 0, :, None, None],
                                        g[:, 1, None, :, None],
                                        g[:, 2, None, None, :])
        new_best = list(best)
        for b, box in enumerate(ratio):
            finite = np.isfinite(box)
            if not finite.any():
                continue
            spread = box[finite]
            if spread.size > 1:
                lipschitz = max(lipschitz,
                                float((spread.max() - spread.min())
                                      / max(np.max(hi[b] - lo[b]), 1e-12)))
            i, j, k = np.unravel_index(np.argmin(box, axis=None), box.shape)
            new_best.append((float(box[i, j, k]), float(g[b, 0, i]),
                             float(g[b, 1, j]), float(g[b, 2, k])))
        new_best.sort()
        best = new_best[:_TOP_K]
        step = step * 2.0 / (local_res - 1)
        trace.append({"stage": f"refine{round_idx}", "min_ratio": best[0][0]})
    minimum, m1, m2, rh = best[0]
    argmin = EdgeConfig(m1, m2, rh)
    sdp = edge_sdp_value(kind, argmin)
    error_bar = (_BVN_ERROR / max(sdp, SDP_FLOOR)
                 + lipschitz * float(np.max(step)))
    return RatioCertificate(payoff_kind=kind, grid_resolution=resolution,
                            minimum_ratio=minimum, argmin=argmin,
                            refinement_trace=trace, error_bar=float(error_bar))


def landscape_csv(kind: str, resolution: int = 60):
    """One CSV row per valid grid cell: mu1, mu2, rhobar, rounded, sdp,
    ratio.  Returns an iterator over the text: the header with the first
    rho chunk's rows, then one chunk's rows at a time, so the whole CSV
    (about 3.9 M rows at resolution 200) is never held at once.  The kind
    and resolution are checked before the iterator is returned."""
    _is_cut(kind)
    _admit_int("resolution", resolution, 2, cap=_RESOLUTION_CAP)
    mus = np.linspace(-1.0, 1.0, resolution)

    def pieces():
        text = io.StringIO()
        writer = csv.writer(text)
        writer.writerow(["mu1", "mu2", "rhobar", "rounded", "sdp", "ratio"])
        for chunk in _rho_chunks(mus, resolution ** 2):
            ratio, sdp, rounded, valid = _ratio_on_grid(
                kind, mus[:, None], mus, chunk[:, None, None])
            writer.writerows(
                [f"{mus[i]:.6f}", f"{mus[j]:.6f}", f"{chunk[k]:.6f}",
                 f"{rounded[k, i, j]:.8f}", f"{sdp[k, i, j]:.8f}",
                 f"{ratio[k, i, j]:.8f}"]
                for k, i, j in zip(*np.nonzero(valid)))
            yield text.getvalue()
            text.seek(0)
            text.truncate()

    return pieces()


# -- sqrt(eps) law ---------------------------------------------------------

def worst_separation(eps: float, resolution: int = 200):
    """max separation probability over valid configs with cut SDP value <=
    eps.

    Separation is monotone non-increasing in rhobar at fixed biases, so the
    maximum sits on the boundary m = 1 - 2 eps; the search reduces to the
    (mu1, mu2) square with rhobar solved from the boundary equation.  The
    first grid holds one cell of each symmetry orbit (`_orbits`).
    """
    _admit_real("eps", eps, 0, 0.5, "()")
    _admit_int("resolution", resolution, 2, cap=_RESOLUTION_CAP)
    m_target = 1.0 - 2.0 * eps

    def eval_grid(m1, m2, phi=None):
        """The best cell of broadcastable m1, m2: (separation, mu1, mu2,
        rho)."""
        denom = np.sqrt(np.clip((1 - m1**2) * (1 - m2**2), 1e-300, None))
        rho = (m_target - m1 * m2) / denom
        feasible = rho <= 1.0 + 1e-12
        rho = np.clip(rho, -1.0, 1.0)
        valid = config_valid_mask(m1, m2, rho) & feasible
        sep = np.full(valid.shape, -np.inf)
        sep[valid] = _rounded_grid("cut", m1, m2, rho, valid, phi)
        cell = np.unravel_index(np.argmax(sep, axis=None), sep.shape)
        return (float(sep[cell]), float(np.broadcast_to(m1, sep.shape)[cell]),
                float(np.broadcast_to(m2, sep.shape)[cell]), float(rho[cell]))

    g = np.linspace(-0.999, 0.999, resolution)
    plane, phi = _orbit_plane("cut", g)
    best = eval_grid(*plane, phi)
    step = g[1] - g[0]
    for _ in range(_SEPARATION_ROUNDS):
        m1, m2 = best[1], best[2]
        cand = eval_grid(
            np.linspace(max(-0.999999, m1 - step), min(0.999999, m1 + step),
                        17)[:, None],
            np.linspace(max(-0.999999, m2 - step), min(0.999999, m2 + step), 17))
        if cand[0] > best[0]:
            best = cand
        step = step / 4.0
    return best[0], EdgeConfig(best[1], best[2], best[3])


def sqrt_eps_curve(eps_values, resolution: int = 200):
    """Worst separation per eps, plus the fitted power-law exponent."""
    if len(set(eps_values)) < 2:
        raise CardCspError("the exponent fit needs at least two distinct eps values")
    rows = []
    for eps in eps_values:
        worst, argmax = worst_separation(eps, resolution=resolution)
        rows.append({"eps": float(eps), "worst_separation": worst,
                     "argmax": {"mu1": argmax.mu1, "mu2": argmax.mu2,
                                "rhobar": argmax.rhobar}})
    xs = np.log([r["eps"] for r in rows])
    ys = np.log([max(r["worst_separation"], 1e-300) for r in rows])
    beta, log_c = np.polyfit(xs, ys, 1)
    return {"rows": rows, "beta": float(beta), "prefactor": float(np.exp(log_c))}

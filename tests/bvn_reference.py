"""Independent references for the orthant probability
Phi2(t1, t2; rho) = P(Z1 <= t1, Z2 <= t2) of a standard bivariate normal,
at finite thresholds and |rho| < 1.  `cardcsp.oracle.mc_bvn` is the third.

- `quad_bvn`: adaptive double-precision quadrature of the arcsine path.
  Only for |rho| < 0.925: nearer |rho| = 1 the path's integrand is sharp
  when t2 is close to +-t1, and quad misses, mostly without a warning. On
  300 seeded cells with rho = +-(1 - 10^u), u in [-12, -2], and t2 near
  +-t1, 35 missed `mpmath_bvn` by more than 1e-13 and 9 of them warned;
  at (-0.43825437576067561, -0.43825048675792211, 0.99999999999783307) it
  misses by 4.1e-7.
- `mpmath_bvn`: 18-digit integral of phi(x) Phi((t2 - rho x) / s) over
  x <= t1, s = sqrt(1 - rho^2), split where the second factor falls from
  1 to 0 (x = t2 / rho, on the scale s / |rho|); good to about 1e-18 at
  every |rho| < 1, in about 20 ms a cell.
"""

import mpmath
import numpy as np
from scipy.integrate import quad
from scipy.special import ndtr

_MP_LOW = -12.0  # Phi(-12) = 1.8e-33: the integral starts here


def quad_bvn(t1, t2, rho):
    """Phi2 by `scipy.integrate.quad` on the arcsine path, |rho| < 0.925."""
    assert abs(rho) < 0.925, "quad misses near |rho| = 1"

    def integrand(theta):
        return np.exp(-(t1 * t1 - 2.0 * np.sin(theta) * t1 * t2 + t2 * t2)
                      / (2.0 * np.cos(theta) ** 2))

    val, _ = quad(integrand, 0.0, np.arcsin(rho), epsabs=1e-13, epsrel=1e-12)
    return float(ndtr(t1) * ndtr(t2) + val / (2.0 * np.pi))


def mpmath_bvn(t1, t2, rho, dps=18):
    """Phi2 by mpmath, to about 10^-dps, |rho| < 1."""
    assert abs(rho) < 1.0
    if t1 <= _MP_LOW:
        return 0.0
    with mpmath.workdps(dps):
        t1, t2, r = mpmath.mpf(t1), mpmath.mpf(t2), mpmath.mpf(rho)
        s = mpmath.sqrt((1 - r) * (1 + r))
        scale = 1 / (s * mpmath.sqrt(2))

        def f(x):
            # phi(x) Phi((t2 - r x) / s), without the constant factor
            return mpmath.exp(-x * x / 2) * mpmath.erfc((r * x - t2) * scale)

        points = [_MP_LOW]
        if r != 0:
            edge, width = t2 / r, s / abs(r)
            points += [p for p in (edge - 8 * width, edge + 8 * width)
                       if _MP_LOW < p < t1]
        integral = mpmath.quad(f, points + [t1])
        return float(integral / (2 * mpmath.sqrt(2 * mpmath.pi)))

"""Machine-speed reference for the benchmark's times.

On a shared machine the speed of one core drifts by a third over minutes, as
other tenants come and go, and the drift moves every kind of code together.
``SpeedProbe.sample`` times a fixed kernel that calls no cardcsp code: dense
symmetric eigendecompositions (d = 96 to 233), sparse triangular solves (a
small random system and a 4,900-unknown grid Laplacian), elementwise numpy
over 200,000 values, and interpreter work on dicts and tuples, the kinds of
work the pipeline does.  The run samples it just before and just after every
timed operation, and ``reference`` converts the operation's time to reference
seconds, seconds at the speed at which the kernel takes ``REFERENCE_S``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

REFERENCE_S = 0.025


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._dense = []
        for d in (96, 160, 233):
            a = rng.standard_normal((d, d))
            self._dense.append(a + a.T)
        self._wide = rng.standard_normal(200_000)
        small = sp.random(600, 600, density=0.01, random_state=1, format="csc")
        self._small = spla.splu((small + 4 * sp.identity(600, format="csc")).tocsc())
        self._small_rhs = rng.standard_normal(600)
        k = 70
        path = sp.diags([-1.0, -1.0], [-1, 1], shape=(k, k))
        grid = (sp.kron(sp.identity(k), path + 4 * sp.identity(k))
                + sp.kron(path, sp.identity(k)))
        self._grid = spla.splu(grid.tocsc())
        self._grid_rhs = rng.standard_normal(k * k)
        self.samples = []

    def _kernel(self):
        for a in self._dense:
            np.linalg.eigh(a)
        for _ in range(20):
            self._small.solve(self._small_rhs)
        for _ in range(4):
            self._grid.solve(self._grid_rhs)
        np.exp(-np.sin(self._wide) ** 2).sum()
        table = {}
        for i in range(15_000):
            table[(i % 97, i)] = i * 0.5
        return sum(v for k, v in table.items() if k[0] < 50)

    def sample(self) -> float:
        """Time the kernel once; returns and keeps the time."""
        t0 = time.perf_counter()
        self._kernel()
        self.samples.append(time.perf_counter() - t0)
        return self.samples[-1]

    def reference(self, seconds: float, before: float, after: float) -> float:
        """``seconds`` measured between the samples ``before`` and ``after``,
        in reference seconds."""
        return seconds * REFERENCE_S / ((before + after) / 2)

    def scale(self) -> float:
        """Factor from this run's seconds to reference seconds, by the
        median of all samples."""
        return REFERENCE_S / statistics.median(self.samples)

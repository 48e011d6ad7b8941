"""The batched seeding kernel against numpy's per-object generators.

``instance._sub_seeds`` and ``instance._trial_gaussians`` mirror numpy's
SeedSequence hash and PCG64 seeding over whole arrays; numpy's own
``SeedSequence``/``default_rng`` objects, one per seed, are the reference.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cardcsp import generate
from cardcsp.instance import _sub_seeds, _trial_gaussians
from cardcsp.oracle import exact_mixture_moments
from cardcsp.rounding import pipeline


def _numpy_sub_seeds(seed, count):
    return [int(s.generate_state(1)[0])
            for s in np.random.SeedSequence(seed).spawn(count)]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 128 - 1), count=st.integers(0, 300))
@example(seed=0, count=0)
@example(seed=0, count=256)
@example(seed=2 ** 32 - 1, count=1)
@example(seed=2 ** 32 + 7, count=32)
@example(seed=2 ** 96, count=3)
@example(seed=2 ** 128 - 1, count=5)
# five or more entropy words: no zero padding, the index mixes in last
@example(seed=2 ** 128, count=7)
@example(seed=2 ** 200 + 3, count=7)
def test_sub_seeds_equal_numpy_spawn(seed, count):
    got = _sub_seeds(seed, count)
    assert got == _numpy_sub_seeds(seed, count)
    assert all(type(s) is int for s in got)


@settings(max_examples=60, deadline=None)
@given(seeds=st.lists(st.integers(0, 2 ** 32 - 1), min_size=1, max_size=20),
       r=st.integers(1, 40))
@example(seeds=[0, 1, 2 ** 32 - 1], r=1)
@example(seeds=_sub_seeds(12345, 256), r=9)
def test_trial_gaussians_equal_default_rng_bitwise(seeds, r):
    g = _trial_gaussians(seeds, r)
    reference = np.array([np.random.default_rng(s).standard_normal(r)
                          for s in seeds])
    assert g.shape == (len(seeds), r)
    assert g.tobytes() == reference.tobytes()


def test_pipeline_builds_no_generator_per_trial(monkeypatch):
    inst = generate("cycle", 8)
    sol = exact_mixture_moments(inst, [(0, 1) * 4, (1, 0) * 4, (0, 0, 1, 1) * 2],
                                [0.5, 0.25, 0.25], level=3)
    calls = []
    default_rng = np.random.default_rng

    def counted(*args, **kwargs):
        calls.append(args)
        return default_rng(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counted)
    result = pipeline(inst, level=3, trials=64, seed=5, solution=sol)
    # decorrelate's one generator; the trials take none
    assert len(calls) <= 1
    assert result.best.seed in _numpy_sub_seeds(5, 64)

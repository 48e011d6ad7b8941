"""The per-layer metrics of ``perfbench/run.py --trace 1`` are read off spans
named after public module functions (``sdp_solver.solve``, ...).  The tracer
wraps only public functions defined in their module, so a renamed or
privatized function would silently zero a metric; these names fail here
instead."""

import importlib
import inspect

import pytest

TRACED = {
    "sdp_solver": ("solve", "project_psd"),
    "lasserre": ("build_relaxation", "check_feasibility"),
    "independence": ("decorrelate", "alpha_independence"),
    "rounding": ("pipeline", "bias_decompose"),
    "landscape": ("bvn_cdf_grid", "ratio_search", "sqrt_eps_curve"),
    "dictator": ("build_gadget", "soundness_enumerate"),
    "oracle": ("brute_force",),
    "instance": ("generate",),
}


@pytest.mark.parametrize("module, name", [(m, n) for m, names in TRACED.items()
                                          for n in names])
def test_traced_name_is_a_public_function_of_its_module(module, name):
    owner = importlib.import_module(f"cardcsp.{module}")
    fn = getattr(owner, name, None)
    assert inspect.isfunction(fn), f"cardcsp.{module}.{name} is not a function"
    assert fn.__module__ == owner.__name__

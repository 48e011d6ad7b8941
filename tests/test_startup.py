"""What importing the package and calling its kernels load, checked in a
fresh interpreter."""

import subprocess
import sys
from pathlib import Path

import cardcsp

SRC = str(Path(cardcsp.__file__).resolve().parents[1])

PROBE = """
import sys
sys.path.insert(0, {src!r})
loaded = lambda: [m for m in ("scipy.integrate", "scipy.optimize")
                  if m in sys.modules]
import cardcsp
print(loaded())
import cardcsp.cli
print(loaded())
from cardcsp.landscape import EdgeConfig, rounded_value
cardcsp.bvn_cdf(0.3, -0.2, 0.5)
cardcsp.bvn_cdf(0.3, 0.31, 0.999)
rounded_value("max2sat", EdgeConfig(0.1, -0.2, 0.4))
cardcsp.ratio_search("cut", resolution=50)
print(loaded())
"""


def test_no_kernel_call_loads_scipy_integrate_or_optimize():
    out = subprocess.run([sys.executable, "-c", PROBE.format(src=SRC)],
                         capture_output=True, text=True, check=True).stdout
    assert out.split("\n")[:3] == ["[]", "[]", "[]"]


SOLVE_PROBE = """
import sys
sys.path.insert(0, {src!r})
import cardcsp
import cardcsp.cli
inst = cardcsp.generate("cycle", 4)
result = cardcsp.pipeline(inst, trials=4)
assert cardcsp.check_feasibility(result.solution, inst).passes(1e-5)
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_relax_solve_round_and_check_load_no_scipy():
    out = subprocess.run([sys.executable, "-c", SOLVE_PROBE.format(src=SRC)],
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"

"""What importing the package loads, checked in a fresh interpreter."""

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
cardcsp.bvn_cdf(0.3, -0.2, 0.5)
print("scipy.integrate" in sys.modules)
"""


def test_scipy_integrate_loads_on_the_first_bvn_cdf_call():
    out = subprocess.run([sys.executable, "-c", PROBE.format(src=SRC)],
                         capture_output=True, text=True, check=True).stdout
    assert out.split("\n")[:3] == ["[]", "[]", "True"]

"""Built-in benchmark suite: small cut instances with brute-force ground
truth, run end to end through the solve/decorrelate/round/repair pipeline."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

from .errors import CapacityError, CardCspError, ParseError, _admit_int
from .instance import CspInstance, _sub_seeds, generate
from .oracle import _BISECTION_CAP, brute_force
from .rounding import pipeline


def default_suite() -> list[tuple[str, CspInstance]]:
    """Twelve named instances, all even-order cut problems small enough to
    enumerate exactly."""
    entries = [
        ("cycle4", generate("cycle", 4)),
        ("cycle6", generate("cycle", 6)),
        ("complete4", generate("complete", 4)),
        ("complete6", generate("complete", 6)),
        ("two_cliques8", generate("two_cliques", 8)),
        ("two_cliques10", generate("two_cliques", 10)),
        ("gnp10_a", generate("gnp", 10, seed=7, p=0.5)),
        ("gnp10_b", generate("gnp", 10, seed=11, p=0.35)),
        ("planted10_e01", generate("planted", 10, seed=3, eps=0.01)),
        ("planted10_e05", generate("planted", 10, seed=5, eps=0.05)),
        ("planted12_e10", generate("planted", 12, seed=9, eps=0.1)),
        ("gnp12", generate("gnp", 12, seed=17, p=0.4)),
    ]
    return entries


@dataclass
class BenchRow:
    name: str
    n: int
    optimum: float
    sdp_objective: float
    rounded_value: float
    ratio: float
    balance: float
    achieved_alpha: float
    seed: int
    status: str
    iterations: int
    solve_s: float  # wall time of the SDP solve

    def as_dict(self):
        return asdict(self)


@dataclass
class BenchReport:
    rows: list = field(default_factory=list)
    min_ratio: float = float("inf")

    def to_json(self):
        return json.dumps({
            "schema": "cardcsp.bench/1",
            "min_ratio": self.min_ratio,
            "rows": [r.as_dict() for r in self.rows],
        }, indent=2)


def run_bench(entries=None, level: int = 2, trials: int = 32, seed: int = 0,
              alpha_target: float = 0.1, solver_config=None) -> BenchReport:
    """Pipeline each instance and compare the repaired value against the
    brute-force bisection optimum."""
    if entries is None:
        entries = default_suite()
    if not entries:
        raise CardCspError("empty benchmark configuration")
    report = BenchReport()
    for (name, instance), sub_seed in zip(entries,
                                          _sub_seeds(seed, len(entries))):
        exact = brute_force(instance)
        result = pipeline(instance, level=level, trials=trials, seed=sub_seed,
                          alpha_target=alpha_target, solver_config=solver_config)
        opt = exact.optimum
        ratio = result.best.value / opt if opt > 0 else 1.0
        report.rows.append(BenchRow(
            name=name, n=instance.n, optimum=opt,
            sdp_objective=result.sdp_objective,
            rounded_value=result.best.value, ratio=float(ratio),
            balance=result.best.balance,
            achieved_alpha=result.achieved_alpha, seed=sub_seed,
            status=result.solve_report.status,
            iterations=result.solve_report.iterations,
            solve_s=result.solve_report.seconds))
        report.min_ratio = min(report.min_ratio, float(ratio))
    return report


_ENTRY_KEYS = ("name", "family", "n", "seed", "params")


def entries_from_config(doc) -> list[tuple[str, CspInstance]]:
    """Benchmark config: {"instances": [{"name", "family", "n", "seed",
    "params"}, ...]}.  A malformed one raises ``ParseError``; an n that
    ``brute_force`` could not score raises ``CapacityError`` before the
    instance is generated.  Every error names the entry by its position
    (from 1) and its name."""
    items = doc.get("instances", []) if isinstance(doc, dict) else None
    if not isinstance(items, list):
        raise ParseError('benchmark config must be an object whose "instances" '
                         "is a list")
    if not items:
        raise CardCspError("benchmark config lists no instances")
    entries = []
    for position, item in enumerate(items, 1):
        label = f"benchmark entry {position}"
        if isinstance(item, dict) and "name" in item:
            label += f" ({item['name']!r})"
        try:
            entries.append(_entry(item))
        except CardCspError as exc:
            raise type(exc)(f"{label}: {exc}") from None
    return entries


def _entry(item) -> tuple[str, CspInstance]:
    """One config entry as (name, instance)."""
    if not isinstance(item, dict):
        raise ParseError("must be an object")
    unknown = sorted(set(item) - set(_ENTRY_KEYS))
    if unknown:
        raise ParseError(f"unknown keys {', '.join(unknown)} (allowed: "
                         f"{', '.join(_ENTRY_KEYS)})")
    try:
        family, n = item["family"], item["n"]
        seed, params = item.get("seed", 0), item.get("params", {})
        name = item.get("name", family)
        if not (isinstance(family, str) and isinstance(name, str)
                and isinstance(params, dict)):
            raise TypeError("family and name must be strings, params an object")
        _admit_int("n", n, 2, cap=_BISECTION_CAP)
        return name, generate(family, n, seed=seed, **params)
    except KeyError as exc:
        raise ParseError(f"lacks {exc}") from None
    except CapacityError:
        raise
    except (CardCspError, TypeError, ValueError) as exc:
        raise ParseError(str(exc)) from None

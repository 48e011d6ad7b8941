"""CSP instances with a global cardinality constraint.

An instance is a collection of weighted payoff terms on small variable
subsets, a probability distribution over the variables (vertex weights) and
a cardinality function prescribing the fraction of variables per domain
value.  Max/Min Bisection, alpha-Max Cut and globally constrained Max 2-Sat
all fit this shape with domain size q = 2.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

import numpy as np

from .errors import ParseError, CardCspError, _admit_int, _admit_real

CUT_KINDS = ("maxcut-bisection", "mincut-bisection", "alpha-cut")
KNOWN_KINDS = CUT_KINDS + ("max2sat",)


@dataclass(frozen=True)
class CardinalityFunction:
    """Target fraction of variables per domain value.  Must sum to 1."""

    proportions: tuple[Fraction, ...]

    def __post_init__(self):
        props = tuple(Fraction(p) for p in self.proportions)
        object.__setattr__(self, "proportions", props)
        if sum(props) != 1:
            raise CardCspError(f"cardinality proportions sum to {sum(props)}, not 1")
        if any(p < 0 or p > 1 for p in props):
            raise CardCspError("cardinality proportions must lie in [0, 1]")

    @property
    def q(self):
        return len(self.proportions)

    def as_floats(self):
        return np.array([float(p) for p in self.proportions])


def bisection_cardinality(q=2):
    return CardinalityFunction(tuple(Fraction(1, q) for _ in range(q)))


@dataclass(frozen=True)
class PayoffTerm:
    """A payoff on an ordered variable subset.

    ``table`` is row-major over local assignments in [q]^scope; all values
    lie in [0, 1].  ``weight`` is the term's probability mass under W.
    """

    scope: tuple[int, ...]
    table: tuple[float, ...]
    weight: float
    q: int = 2

    def __post_init__(self):
        if len(set(self.scope)) != len(self.scope):
            raise CardCspError(f"repeated variable in scope {self.scope}")
        if len(self.table) != self.q ** len(self.scope):
            raise CardCspError("payoff table size does not match scope")
        if not all(-1e-12 <= v <= 1 + 1e-12 for v in self.table):
            raise CardCspError("payoff values must lie in [0, 1]")
        _admit_real("payoff weight", self.weight, 0, math.inf, "[)")

    def value(self, local_assignment):
        idx = 0
        for a in local_assignment:
            idx = idx * self.q + int(a)
        return self.table[idx]


@dataclass(frozen=True)
class CspInstance:
    """Immutable CSP instance with global cardinality constraint."""

    n: int
    q: int
    payoffs: tuple[PayoffTerm, ...]
    vertex_weights: tuple[float, ...]
    cardinality: CardinalityFunction
    kind: str = "maxcut-bisection"

    def __post_init__(self):
        _admit_int("n", self.n, 1)
        _admit_int("q", self.q, 1)
        if self.kind not in KNOWN_KINDS:
            raise CardCspError(f"unknown problem kind {self.kind!r}")
        if not self.payoffs:
            raise CardCspError("no payoff terms")
        total = sum(t.weight for t in self.payoffs)
        if abs(total - 1.0) > 1e-9:
            raise CardCspError(f"payoff weights sum to {total}, not 1")
        if len(self.vertex_weights) != self.n:
            raise CardCspError("vertex weight vector length mismatch")
        if not all(math.isfinite(w) and w >= 0 for w in self.vertex_weights):
            raise CardCspError("vertex weights must be finite and nonnegative")
        if abs(sum(self.vertex_weights) - 1.0) > 1e-9:
            raise CardCspError("vertex weights must sum to 1")
        if self.cardinality.q != self.q:
            raise CardCspError("cardinality domain size mismatch")
        for t in self.payoffs:
            if any(v < 0 or v >= self.n for v in t.scope):
                raise CardCspError(f"scope {t.scope} out of range")
            if t.q != self.q:
                raise CardCspError(f"term {t.scope} has q = {t.q}, not {self.q}")

    @property
    def sense(self):
        """'max' or 'min' depending on the problem kind."""
        return "min" if self.kind == "mincut-bisection" else "max"

    @property
    def weights_array(self):
        return np.asarray(self.vertex_weights)

    def evaluate(self, assignment):
        """Weighted payoff of assignments (..., n) in [q]^n: a float for one
        assignment, an array over the leading axes for a stack.  Terms are
        summed in order, so every row gets the value it gets alone."""
        assignment = np.asarray(assignment, dtype=int)
        if assignment.shape[-1:] != (self.n,):
            raise CardCspError(f"assignment length {assignment.shape} != n={self.n}")
        if ((assignment < 0) | (assignment >= self.q)).any():
            raise CardCspError(f"assignment values must lie in 0..{self.q - 1}")
        total = np.zeros(assignment.shape[:-1])
        for t in self.payoffs:
            idx = np.zeros(assignment.shape[:-1], dtype=int)
            for v in t.scope:
                idx = idx * self.q + assignment[..., v]
            total += t.weight * np.asarray(t.table)[idx]
        return float(total) if total.ndim == 0 else total

    def balance(self, assignment):
        """Weighted frequency of each domain value under the assignment."""
        assignment = np.asarray(assignment, dtype=int)
        w = self.weights_array
        return np.array([float(w[assignment == a].sum()) for a in range(self.q)])

    def weighted_degrees(self):
        """Per-variable total payoff weight of incident terms."""
        deg = np.zeros(self.n)
        for t in self.payoffs:
            for v in t.scope:
                deg[v] += t.weight
        return deg

    # -- JSON round trip ----------------------------------------------------

    def to_json(self) -> str:
        doc = {
            "schema": "cardcsp.instance/1",
            "n": self.n,
            "q": self.q,
            "kind": self.kind,
            "cardinality": [str(p) for p in self.cardinality.proportions],
            "vertex_weights": [repr(float(w)) for w in self.vertex_weights],
            "payoffs": [
                {
                    "scope": list(t.scope),
                    "table": [repr(float(v)) for v in t.table],
                    "weight": repr(float(t.weight)),
                }
                for t in self.payoffs
            ],
        }
        return json.dumps(doc, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "CspInstance":
        """Parse a ``cardcsp.instance/1`` document; a malformed or invalid
        one raises ``ParseError``."""
        with _document(text, "cardcsp.instance/1", "instance") as doc:
            q = doc["q"]
            payoffs = tuple(
                PayoffTerm(
                    scope=tuple(_admit_int("scope vertex", v, 0)
                                for v in t["scope"]),
                    table=tuple(float(v) for v in t["table"]),
                    weight=float(t["weight"]),
                    q=q,
                )
                for t in doc["payoffs"]
            )
            return cls(
                n=doc["n"],
                q=q,
                payoffs=payoffs,
                vertex_weights=tuple(float(w) for w in doc["vertex_weights"]),
                cardinality=CardinalityFunction(tuple(Fraction(p) for p in doc["cardinality"])),
                kind=doc["kind"],
            )


# numpy's SeedSequence hash (O'Neill's seed_seq) and the PCG64 multiplier
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash(value, const, mult):
    """One hashmix of uint32 ``value`` under the hash constant ``const`` (a
    Python int); returns the mixed value and the next constant."""
    value = value ^ np.uint32(const)
    const = const * mult & _MASK32
    value = value * np.uint32(const)
    return value ^ (value >> np.uint32(16)), const


def _mix(x, y):
    """seed_seq's mix of two uint32 pool words."""
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> np.uint32(16))


def _seed_state(entropy, words):
    """``SeedSequence.generate_state(words)`` for every row of a (count, L)
    uint32 array of assembled entropy, as a (count, words) uint32 array: the
    first four words fill the pool, every pool word mixes into every other,
    any further words mix into each, and the state is read off the pool.
    The hash constants do not depend on the data, so every row shares them."""
    width = entropy.shape[1]
    pool = [entropy[:, i] if i < width else np.zeros(len(entropy), np.uint32)
            for i in range(_POOL)]
    const = _INIT_A
    with np.errstate(over="ignore"):
        for i in range(_POOL):
            pool[i], const = _hash(pool[i], const, _MULT_A)
        for src in range(_POOL):
            for dst in range(_POOL):
                if src != dst:
                    h, const = _hash(pool[src], const, _MULT_A)
                    pool[dst] = _mix(pool[dst], h)
        for src in range(_POOL, width):
            for dst in range(_POOL):
                h, const = _hash(entropy[:, src], const, _MULT_A)
                pool[dst] = _mix(pool[dst], h)
        const, state = _INIT_B, []
        for i in range(words):
            word, const = _hash(pool[i % _POOL], const, _MULT_B)
            state.append(word)
    return np.stack(state, axis=1)


def _sub_seeds(seed, count):
    """``count`` seeds spawned from a checked ``seed`` by numpy's
    SeedSequence rule: the first 32-bit word of each child's state.  A
    child's entropy is the seed's 32-bit words, zero-padded up to the pool
    size, then its index."""
    _admit_int("seed", seed, 0)
    words = [seed >> s & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    entropy = np.zeros((count, max(len(words), _POOL) + 1), dtype=np.uint32)
    entropy[:, :len(words)] = words
    entropy[:, -1] = np.arange(count)
    return _seed_state(entropy, 1)[:, 0].tolist()


def _trial_gaussians(sub_seeds, r):
    """(len(sub_seeds), r) array whose row k is, bit for bit,
    ``np.random.default_rng(sub_seeds[k]).standard_normal(r)``.  The 32-bit
    sub-seeds are hashed at once into PCG64's four seed words, and one
    PCG64 takes each trial's state in turn."""
    words = _seed_state(np.asarray(sub_seeds, dtype=np.uint32).reshape(-1, 1),
                        8).tolist()
    bitgen = np.random.PCG64(0)
    gen = np.random.Generator(bitgen)
    out = np.empty((len(words), r))
    for k, w in enumerate(words):
        # seed word u_j = w[2j] + 2^32 w[2j + 1]; initstate is u0 2^64 + u1,
        # the stream u2 2^64 + u3.  Set-seq seeding (O'Neill 2014): state 0,
        # one step, add initstate, one step.
        initstate = w[1] << 96 | w[0] << 64 | w[3] << 32 | w[2]
        inc = (w[5] << 96 | w[4] << 64 | w[7] << 32 | w[6]) << 1 & _MASK128 | 1
        state = ((inc + initstate) * _PCG_MULT + inc) & _MASK128
        bitgen.state = {"bit_generator": "PCG64",
                        "state": {"state": state, "inc": inc},
                        "has_uint32": 0, "uinteger": 0}
        out[k] = gen.standard_normal(r)
    return out


def _numbers(values, read):
    """An array of a JSON list, each entry read by ``read``."""
    if not isinstance(values, list):
        raise TypeError(f"expected a list, got {values!r}")
    return np.array([read(v) for v in values])


@contextmanager
def _document(text, schema, what):
    """The JSON object in ``text``, which must carry ``schema``; a malformed
    document, or an error while the block reads it, raises ParseError."""
    try:
        doc = json.loads(text)
        if not isinstance(doc, dict) or doc.get("schema") != schema:
            raise CardCspError(f"schema is not {schema}")
        yield doc
    except KeyError as exc:
        raise ParseError(f"{what} document lacks {exc}") from None
    except (CardCspError, TypeError, ValueError, ZeroDivisionError,
            OverflowError) as exc:
        raise ParseError(f"bad {what} document: {exc}") from None


# -- payoff tables ---------------------------------------------------------

CUT_TABLE = (0.0, 1.0, 1.0, 0.0)  # row-major over (a, b) in {0,1}^2


def clause_table(sign_i: int, sign_j: int):
    """Max 2-Sat clause table.  Domain value 0 means literal sign +1 (true)."""
    table = []
    for a, b in product((0, 1), (0, 1)):
        lit_i = 1 - 2 * a  # value 0 -> +1, value 1 -> -1
        lit_j = 1 - 2 * b
        satisfied = (lit_i == sign_i) or (lit_j == sign_j)
        table.append(1.0 if satisfied else 0.0)
    return tuple(table)


def _pair_instance(n, terms, kind, vertex_weights, cardinality):
    """Instance of (scope, table, weight) terms with the weights normalized;
    uniform vertex weights and bisection unless given."""
    if not terms:
        raise CardCspError("no payoff terms")
    total = sum(w for _, _, w in terms)
    if not 0 < total < math.inf:
        raise CardCspError("payoff weights must have a positive, finite total")
    if vertex_weights is None:
        vertex_weights = [1.0 / n] * n
    return CspInstance(n=n, q=2,
                       payoffs=tuple(PayoffTerm(s, t, w / total) for s, t, w in terms),
                       vertex_weights=tuple(vertex_weights),
                       cardinality=cardinality or bisection_cardinality(), kind=kind)


def cut_instance(n, edges, kind="maxcut-bisection", vertex_weights=None,
                 cardinality=None):
    """Build a cut instance from weighted edges [(u, v, w), ...]."""
    return _pair_instance(n, [((min(u, v), max(u, v)), CUT_TABLE, w)
                              for u, v, w in edges],
                          kind, vertex_weights, cardinality)


def max2sat_instance(n, clauses, vertex_weights=None, cardinality=None):
    """Build a globally constrained Max 2-Sat instance.

    ``clauses`` is a list of (i, j, sign_i, sign_j, weight).
    """
    return _pair_instance(n, [((i, j), clause_table(si, sj), w) if i <= j else
                              ((j, i), clause_table(sj, si), w)
                              for i, j, si, sj, w in clauses],
                          "max2sat", vertex_weights, cardinality)


# -- edge-list loader ------------------------------------------------------

def _weight(token: str, lineno: int, what: str) -> float:
    """A finite nonnegative weight, or a line-numbered ``ParseError``."""
    try:
        w = float(token)
    except ValueError:
        w = math.nan
    if not (math.isfinite(w) and w >= 0):
        raise ParseError(f"{what} {token!r} is not finite and nonnegative", lineno)
    return w


def load_edge_list(text: str) -> CspInstance:
    """Parse an edge-list document.

    Format::

        kind maxcut-bisection            # optional header, before any edge
        vertex 0 0.25                    # optional vertex-weight lines
        0 1 [weight]                     # one edge per line

    For ``kind max2sat`` the edge lines hold nonzero DIMACS-style literals
    (variable ids are |lit| - 1, the sign is the literal sign).
    ``kind alpha-cut <alpha>`` sets the cardinality to (alpha, 1 - alpha).
    Weights must be finite and nonnegative, with a positive, finite total.
    """
    kind = "maxcut-bisection"
    alpha = None
    edges = []
    vertex_weights = {}
    max_vertex = -1
    edge_line = vertex_line = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "kind":
            if len(parts) < 2 or parts[1] not in KNOWN_KINDS:
                raise ParseError(f"unknown problem kind {parts[1:]}", lineno)
            if edges:
                raise ParseError("kind must precede the edge lines", lineno)
            kind = parts[1]
            if kind == "alpha-cut":
                if len(parts) != 3:
                    raise ParseError("alpha-cut requires a fraction", lineno)
                try:
                    alpha = Fraction(parts[2])
                except (ValueError, ZeroDivisionError):
                    raise ParseError(f"bad alpha {parts[2]!r}", lineno) from None
                if not 0 <= alpha <= 1:
                    raise ParseError("alpha must be in [0, 1]", lineno)
            continue
        if parts[0] == "vertex":
            try:
                v = int(parts[1])
                w = _weight(parts[2], lineno, "vertex weight")
            except (IndexError, ValueError):
                raise ParseError(f"malformed vertex line {line!r}", lineno) from None
            if v < 0:
                raise ParseError("vertex ids must be nonnegative", lineno)
            vertex_weights[v] = w
            max_vertex = max(max_vertex, v)
            vertex_line = lineno
            continue
        if len(parts) not in (2, 3):
            raise ParseError(f"malformed edge line {line!r}", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"malformed edge line {line!r}", lineno) from None
        w = _weight(parts[2], lineno, "edge weight") if len(parts) == 3 else 1.0
        edge_line = lineno
        if kind == "max2sat":
            if u == 0 or v == 0:
                raise ParseError("literal 0 is not allowed", lineno)
            si, sj = (1 if u > 0 else -1), (1 if v > 0 else -1)
            i, j = abs(u) - 1, abs(v) - 1
            if i == j:
                raise ParseError("clause on a single variable", lineno)
            edges.append((i, j, si, sj, w))
            max_vertex = max(max_vertex, i, j)
        else:
            if u < 0 or v < 0:
                raise ParseError("vertex ids must be nonnegative", lineno)
            if u == v:
                raise ParseError(f"self-loop {u}-{v} rejected for cut problems", lineno)
            edges.append((u, v, w))
            max_vertex = max(max_vertex, u, v)
    if not edges:
        raise ParseError("no payoff terms")
    n = max_vertex + 1
    weights = None
    if vertex_weights:
        weights = [0.0] * n
        for v, w in vertex_weights.items():
            weights[v] = w
        total = sum(weights)
        if not 0 < total < math.inf:
            raise ParseError("vertex weights must have a positive, finite total",
                             vertex_line)
        weights = tuple(w / total for w in weights)
    cardinality = None
    if kind == "alpha-cut":
        cardinality = CardinalityFunction((alpha, 1 - alpha))
    try:
        if kind == "max2sat":
            return max2sat_instance(n, edges, vertex_weights=weights)
        return cut_instance(n, edges, kind=kind, vertex_weights=weights,
                            cardinality=cardinality)
    except CardCspError as exc:  # the edge weights' total
        raise ParseError(str(exc), edge_line) from None


# -- generators ------------------------------------------------------------

def generate(family: str, n: int, seed: int = 0, **params) -> CspInstance:
    """Deterministic instance generators: cycle, complete, gnp (edge
    probability p), two_cliques, planted (near-bisectable with parameter
    eps).  A ``params`` key the family does not read raises
    ``CardCspError``."""
    _admit_int("seed", seed, 0)
    _admit_int("n", n, 2)
    if n % 2 != 0:
        raise CardCspError("bisection instances require an even number of vertices")
    reads = {"cycle": (), "complete": (), "gnp": ("p",), "two_cliques": (),
             "planted": ("eps",)}
    if family not in reads:
        raise CardCspError(f"unknown family {family!r}")
    unread = sorted(set(params) - set(reads[family]))
    if unread:
        raise CardCspError(f"{family} does not read params {', '.join(unread)} "
                           f"(it reads: {', '.join(reads[family]) or 'none'})")
    if family == "cycle":
        edges = [(i, (i + 1) % n, 1.0) for i in range(n)]
    elif family == "complete":
        edges = [(i, j, 1.0) for i, j in combinations(range(n), 2)]
    elif family == "gnp":
        p = _admit_real("p", params.get("p", 0.5), 0, 1, "(]")
        rng = np.random.default_rng(seed)
        edges = [(i, j, 1.0) for i, j in combinations(range(n), 2)
                 if rng.random() < p]
        if not edges:
            edges = [(0, 1, 1.0)]
    elif family == "two_cliques":
        # two disjoint copies of K_{n/2}: the classic Max Cut -> Max Bisection
        # reduction shape
        half = n // 2
        edges = [(i, j, 1.0) for i, j in combinations(range(half), 2)]
        edges += [(half + i, half + j, 1.0) for i, j in combinations(range(half), 2)]
        if not edges:
            edges = [(0, 1, 1.0)]
    elif family == "planted":
        eps = _admit_real("eps", params.get("eps", 0.05), 0, 1, "[)")
        rng = np.random.default_rng(seed)
        half = n // 2
        crossing = [(i, half + j) for i in range(half) for j in range(half)]
        inside = [(i, j) for i, j in combinations(range(half), 2)]
        inside += [(half + i, half + j) for i, j in combinations(range(half), 2)]
        m_cross = max(1, n)
        m_in = len(inside)
        cross_sel = [crossing[t] for t in
                     rng.choice(len(crossing), size=min(m_cross, len(crossing)),
                                replace=False)]
        in_sel = [inside[t] for t in
                  rng.choice(m_in, size=min(max(1, m_in // 2), m_in),
                             replace=False)] if eps > 0 else []
        w_cross = (1.0 - eps) / len(cross_sel)
        edges = [(u, v, w_cross) for u, v in cross_sel]
        if in_sel:
            w_in = eps / len(in_sel)
            edges += [(u, v, w_in) for u, v in in_sel]
    return cut_instance(n, edges)

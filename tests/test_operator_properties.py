"""Property tests of the relaxation's constraint operator, and of the
reduced basis and closed-form affine projection the solver runs on, over
random instances: domain size 2 or 3, levels 2 and 3, random vertex
weights."""

from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cardcsp import sdp_solver
from cardcsp.instance import (CardinalityFunction, CspInstance, PayoffTerm,
                              generate)
from cardcsp.lasserre import (MomentSolution, _reduced_basis,
                              build_index_set, build_relaxation,
                              check_feasibility, integral_lift)
from cardcsp.sdp_solver import _affine_projection

SETTINGS = settings(max_examples=40, deadline=None)


def _instance(q, parts, target_parts):
    """Instance with vertex weights and cardinality in proportion to the
    given nonnegative integers; one payoff term on (0, 1)."""
    n = len(parts)
    total = sum(parts)
    target_total = sum(target_parts)
    term = PayoffTerm((0, 1), (1.0,) * q * q, 1.0, q)
    return CspInstance(
        n, q, (term,), tuple(p / total for p in parts),
        CardinalityFunction(tuple(Fraction(t, target_total)
                                  for t in target_parts)))


def _target_met_by(parts, base, q):
    """Per value, the total weight the assignment ``base`` gives it."""
    return [sum(p for p, a in zip(parts, base) if a == v) for v in range(q)]


@st.composite
def shapes(draw):
    q = draw(st.sampled_from([2, 3]))
    level = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(level, 6 if level == 2 else 5))
    return q, level, n


@st.composite
def balanced_mixtures(draw):
    """An instance whose vertices come in pairs of equal weight, and a convex
    mixture of assignments that differ by swaps within pairs, all of which
    meet the cardinality target exactly."""
    q, level, n = draw(shapes())
    base = draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n))
    pair_parts = draw(st.lists(st.integers(1, 9), min_size=(n + 1) // 2,
                               max_size=(n + 1) // 2))
    parts = [pair_parts[j // 2] for j in range(n)]
    target = _target_met_by(parts, base, q)
    inst = _instance(q, parts, target)
    swaps = draw(st.lists(st.lists(st.booleans(), min_size=n // 2,
                                   max_size=n // 2), min_size=1, max_size=4))
    assignments = []
    for swap in swaps:
        a = list(base)
        for i, flip in enumerate(swap):
            if flip:
                a[2 * i], a[2 * i + 1] = a[2 * i + 1], a[2 * i]
        assignments.append(a)
    mix = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=len(swaps),
                                 max_size=len(swaps))))
    mix /= mix.sum()
    gram = sum(p * integral_lift(inst, a, level).gram
               for p, a in zip(mix, assignments))
    return inst, level, MomentSolution(level, n, q,
                                       build_index_set(n, q, level), gram)


@st.composite
def single_lifts(draw):
    """Any assignment of an instance with random weights and target."""
    q, level, n = draw(shapes())
    parts = draw(st.lists(st.integers(0, 9), min_size=n, max_size=n)
                 .filter(lambda ps: sum(ps) > 0))
    target = draw(st.lists(st.integers(0, 9), min_size=q, max_size=q)
                  .filter(lambda ts: sum(ts) > 0))
    inst = _instance(q, parts, target)
    assignment = draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n))
    return inst, level, assignment


def merge_assignments(s, alpha, t, beta):
    """Merged (subset, assignment) of two compatible indexed events, or None."""
    merged = dict(zip(s, alpha))
    for var, val in zip(t, beta):
        if merged.setdefault(var, val) != val:
            return None
    subset = tuple(sorted(merged))
    return subset, tuple(merged[v] for v in subset)


def _reference_rows(inst, level):
    """The rows written out one at a time, in order, as lists of
    (r, c, coefficient) on entries of G, with the event column of each
    cardinality row (-1 elsewhere)."""
    n, q = inst.n, inst.q
    w, target = inst.weights_array, inst.cardinality.as_floats()
    indices = build_index_set(n, q, level)
    pos = {idx: r for r, idx in enumerate(indices)}
    rows = [([(0, 0, 1.0)], -1)]
    for r in range(1, len(indices)):
        for c in range(r, len(indices)):
            (s, a), (t, b) = indices[r], indices[c]
            if len(set(s) | set(t)) > level:
                continue
            merged = merge_assignments(s, a, t, b)
            tie = [] if merged is None else [(0, pos[merged], -1.0)]
            rows.append(([(r, c, 1.0)] + tie, -1))
    events = [idx for idx in indices if len(idx[0]) < level]
    for s, a in events:
        for j in range(n):
            if j not in s:
                rows.append(([(0, pos[(s, a)], -1.0)] + [
                    (0, pos[merge_assignments(s, a, (j,), (v,))], 1.0)
                    for v in range(q)], -1))
    for s, a in events:
        for v in range(q):
            own = sum(w[j] for j, x in zip(s, a) if x == v)
            rows.append(([(0, pos[(s, a)], own - target[v])] + [
                (0, pos[merge_assignments(s, a, (j,), (v,))], w[j])
                for j in range(n) if j not in s], pos[(s, a)]))
    return len(indices), rows


@settings(max_examples=15, deadline=None)
@given(single_lifts())
def test_operator_matches_rows_written_one_at_a_time(case):
    inst, level, _ = case
    ops = build_relaxation(inst, level).constraints
    d, rows = _reference_rows(inst, level)
    assert len(ops) == len(rows)
    assert ops.event.tolist() == [event for _, event in rows]
    assert ops.b.tolist() == [1.0] + [0.0] * (len(rows) - 1)
    for i, (row, _) in enumerate(rows):
        expected = {}
        for r, c, v in row:
            halves = [(r * d + c, v)] if r == c else \
                [(r * d + c, v / 2), (c * d + r, v / 2)]
            for col, part in halves:
                expected[col] = expected.get(col, 0.0) + part
        got = ops.A.getrow(i)
        assert dict(zip(got.indices.tolist(), got.data.tolist())) == \
            {col: v for col, v in expected.items() if v != 0.0}


@SETTINGS
@given(balanced_mixtures())
def test_every_row_holds_on_mixtures_of_balanced_lifts(case):
    inst, level, mixture = case
    ops = build_relaxation(inst, level).constraints
    assert np.abs(ops.A @ mixture.gram.reshape(-1) - ops.b).max() <= 1e-12
    assert check_feasibility(mixture, inst).passes(1e-12)


@SETTINGS
@given(balanced_mixtures(), st.data(), st.floats(1e-6, 1.0))
def test_consistency_violation_is_the_entry_perturbation(case, data, delta):
    inst, level, mixture = case
    indices = mixture.indices
    r = data.draw(st.integers(1, len(indices) - 1))
    near = [c for c in range(r, len(indices))
            if len(set(indices[r][0]) | set(indices[c][0])) <= level]
    c = data.draw(st.sampled_from(near))
    mixture.gram[r, c] += delta
    if r != c:
        mixture.gram[c, r] += delta
    report = check_feasibility(mixture, inst)
    assert report.consistency_violation == pytest.approx(delta, rel=1e-9)
    assert report.cardinality_violation <= 1e-12


@SETTINGS
@given(single_lifts())
def test_cardinality_violation_of_a_lift(case):
    inst, level, assignment = case
    w = inst.weights_array
    counts = np.array([w[np.array(assignment) == v].sum()
                       for v in range(inst.q)])
    expected = np.abs(counts - inst.cardinality.as_floats()).max()
    report = check_feasibility(integral_lift(inst, assignment, level), inst)
    assert report.cardinality_violation == pytest.approx(expected, abs=1e-12)
    assert report.consistency_violation <= 1e-12


@pytest.mark.parametrize("n,level,rows", [(12, 2, 2343), (6, 3, 5961)])
def test_row_counts(n, level, rows):
    program = build_relaxation(generate("gnp", n, seed=1, p=0.5), level)
    assert len(program.constraints) == rows


# -- the reduced basis G' = G[R, R] the solver runs on ----------------------

@st.composite
def mixtures(draw):
    """A convex mixture of the lifts of up to five arbitrary assignments."""
    q, level, n = draw(shapes())
    inst = _instance(q, [1] * n, [1] * q)
    assignments = draw(st.lists(
        st.lists(st.integers(0, q - 1), min_size=n, max_size=n),
        min_size=1, max_size=5))
    k = len(assignments)
    mix = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=k,
                                 max_size=k)))
    mix /= mix.sum()
    return sum(p * integral_lift(inst, a, level).gram
               for p, a in zip(mix, assignments)), n, q, level


@SETTINGS
@given(mixtures())
def test_lift_recovers_mixtures_of_any_assignments(case):
    gram, n, q, level = case
    red, P = _reduced_basis(build_index_set(n, q, level), n, q)
    assert np.abs(P @ gram[np.ix_(red, red)] @ P.T - gram).max() <= 1e-12
    assert np.linalg.matrix_rank(P) == len(red)


def _reduced_rows(constraints, d, red):
    """Reference rows over vec(G[R, R]): the program's rows whose support
    lies inside R x R, restricted to those columns and scaled to unit norm.
    Rows without coefficients, which constrain nothing, are dropped."""
    inside = np.zeros(d, dtype=bool)
    inside[red] = True
    cols = (red[:, None] * d + red).ravel()
    A = constraints.A
    outside = ~(inside[A.indices // d] & inside[A.indices % d])
    row_of = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    spill = np.bincount(row_of, weights=outside, minlength=A.shape[0])
    rows = np.flatnonzero((spill == 0) & (np.diff(A.indptr) > 0))
    A = A[rows][:, cols]
    norms = np.sqrt(np.asarray(A.multiply(A).sum(axis=1)).ravel())
    A.data /= np.repeat(norms, np.diff(A.indptr))
    return A, constraints.b[rows] / norms


@SETTINGS
@given(balanced_mixtures())
def test_reduced_rows_hold_on_mixtures_of_balanced_lifts(case):
    inst, level, mixture = case
    program = build_relaxation(inst, level)
    red, _ = _reduced_basis(program.indices, inst.n, inst.q)
    A, b = _reduced_rows(program.constraints, program.dim, red)
    block = mixture.gram[np.ix_(red, red)]
    assert np.abs(A @ block.reshape(-1) - b).max() <= 1e-12


@st.composite
def small_instances(draw):
    """Random vertex weights and a target that some assignment meets, n
    small enough for dense algebra over vec(G[R, R])."""
    q = draw(st.sampled_from([2, 3]))
    level = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(level, 4 if level == 2 else 3))
    parts = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    base = draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n))
    target = _target_met_by(parts, base, q)
    return _instance(q, parts, target), level


@settings(max_examples=15, deadline=None)
@given(small_instances(), st.integers(0, 2 ** 32 - 1))
def test_reduced_rows_imply_every_row(case, seed):
    """Any symmetric block meeting the reduced rows lifts to a matrix that
    meets every row of the program."""
    inst, level = case
    program = build_relaxation(inst, level)
    red, P = _reduced_basis(program.indices, inst.n, inst.q)
    A, b = _reduced_rows(program.constraints, program.dim, red)
    A = A.toarray()
    y = np.random.default_rng(seed).standard_normal((len(red), len(red)))
    y = ((y + y.T) / 2).reshape(-1)
    block = y - np.linalg.lstsq(A, A @ y - b, rcond=None)[0]
    assert np.abs(A @ block - b).max() <= 1e-9
    gram = P @ block.reshape(len(red), len(red)) @ P.T
    ops = program.constraints
    assert np.abs(ops.A @ gram.reshape(-1) - ops.b).max() <= 1e-9


@st.composite
def projection_cases(draw):
    """An instance as in ``small_instances`` but with vertex weights that
    may be zero, its reduced basis, and a random symmetric block."""
    q = draw(st.sampled_from([2, 3]))
    level = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(level, 4 if level == 2 else 3))
    parts = draw(st.lists(st.integers(0, 9), min_size=n, max_size=n)
                 .filter(lambda ps: sum(ps) > 0))
    base = draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n))
    program = build_relaxation(
        _instance(q, parts, _target_met_by(parts, base, q)), level)
    red, P = _reduced_basis(program.indices, n, q)
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    y = scale * rng.standard_normal((len(red), len(red)))
    return program, red, P, (y + y.T) / 2


@settings(max_examples=25, deadline=None)
@given(projection_cases())
def test_projection_is_the_least_squares_projection(case):
    program, red, _, y = case
    project = _affine_projection(program.constraints, program.dim, red)
    A, b = _reduced_rows(program.constraints, program.dim, red)
    A = A.toarray()
    v = y.reshape(-1)
    expected = v - np.linalg.lstsq(A, A @ v - b, rcond=None)[0]
    scale = max(1.0, np.abs(y).max())
    assert np.abs(project(y).reshape(-1) - expected).max() <= 1e-10 * scale


@settings(max_examples=25, deadline=None)
@given(projection_cases())
def test_projection_is_idempotent_and_keeps_symmetry(case):
    program, red, _, y = case
    project = _affine_projection(program.constraints, program.dim, red)
    once = project(y)
    assert np.array_equal(once, once.T)
    scale = max(1.0, np.abs(y).max())
    assert np.abs(project(once) - once).max() <= 1e-12 * scale


@settings(max_examples=25, deadline=None)
@given(projection_cases())
def test_projection_meets_the_reduced_and_the_full_rows(case):
    program, red, P, y = case
    project = _affine_projection(program.constraints, program.dim, red)
    A, b = _reduced_rows(program.constraints, program.dim, red)
    block = project(y)
    scale = max(1.0, np.abs(y).max())
    assert np.abs(A @ block.reshape(-1) - b).max() <= 1e-12 * scale
    gram = P @ block @ P.T
    ops = program.constraints
    assert np.abs(ops.A @ gram.reshape(-1) - ops.b).max() <= 1e-9 * scale


@st.composite
def ternary_instances(draw):
    """n = 4, q = 3: random payoff tables on random pairs, random vertex
    weights, and a target met exactly by some assignment."""
    n, q = 4, 3
    parts = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    base = draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n))
    target = _target_met_by(parts, base, q)
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1))
                          .filter(lambda e: e[0] != e[1]),
                          min_size=1, max_size=4))
    terms = tuple(PayoffTerm(e, tuple(draw(st.lists(
        st.sampled_from([0.0, 0.5, 1.0]), min_size=q * q, max_size=q * q))),
        1.0 / len(pairs), q) for e in pairs)
    total = sum(parts)
    return CspInstance(n, q, terms, tuple(p / total for p in parts),
                       CardinalityFunction(tuple(Fraction(t, total)
                                                 for t in target)))


@settings(max_examples=8, deadline=None)
@given(ternary_instances())
def test_ternary_solve_is_feasible_and_bounds_the_optimum(inst):
    program = build_relaxation(inst, 2)
    solution, report = sdp_solver.solve(program)
    assert report.status == "optimal"
    assert solution.indices == program.indices
    feas = check_feasibility(solution, inst)
    assert max(feas.psd_violation, feas.consistency_violation,
               feas.cardinality_violation) <= 1e-5
    target = inst.cardinality.as_floats()
    best = max(inst.evaluate(a) for a in product(range(3), repeat=inst.n)
               if np.abs(inst.balance(a) - target).max() <= 1e-12)
    assert report.objective >= best - 1e-4

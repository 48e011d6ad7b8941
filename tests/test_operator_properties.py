"""Property tests of the relaxation's constraint operator, and of the
reduced basis and closed-form affine projection the solver runs on, over
random instances: domain size 2 or 3, levels 2 and 3 (2 to 4 for the
lift's recursion), random vertex weights."""

from dataclasses import fields, is_dataclass
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cardcsp import sdp_solver
from cardcsp.instance import (CardinalityFunction, CspInstance, PayoffTerm,
                              generate)
from cardcsp.lasserre import (MomentSolution, _cached_layout, _layout, _rows,
                              build_index_set, build_relaxation,
                              check_feasibility, integral_lift,
                              local_distributions, solution_objective)
from cardcsp.rounding import pipeline
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
def balanced_mixtures(draw, signed=False):
    """An instance whose vertices come in pairs of equal weight, and a convex
    mixture of assignments that differ by swaps within pairs, all of which
    meet the cardinality target exactly.

    ``signed``: the first assignment takes a negative weight (the weights
    still sum to 1, so every row holds) and is the only one with its value
    on vertex 0, so G[i, i] < 0 at the index i of that event and G is not
    PSD."""
    q, level, n = draw(shapes())
    base = draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n))
    if signed:
        base[1] = (base[0] + draw(st.integers(1, q - 1))) % q
    pair_parts = draw(st.lists(st.integers(1, 9), min_size=(n + 1) // 2,
                               max_size=(n + 1) // 2))
    parts = [pair_parts[j // 2] for j in range(n)]
    target = _target_met_by(parts, base, q)
    inst = _instance(q, parts, target)
    swaps = draw(st.lists(st.lists(st.booleans(), min_size=n // 2,
                                   max_size=n // 2),
                          min_size=2 if signed else 1, max_size=4))
    if signed:
        for k, swap in enumerate(swaps):
            swap[0] = k > 0
    assignments = []
    for swap in swaps:
        a = list(base)
        for i, flip in enumerate(swap):
            if flip:
                a[2 * i], a[2 * i + 1] = a[2 * i + 1], a[2 * i]
        assignments.append(a)
    mix = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=len(swaps),
                                 max_size=len(swaps))))
    if signed:
        mix[1:] *= (1 + mix[0]) / mix[1:].sum()
        mix[0] *= -1
    else:
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


def _vec_rows(constraints, d):
    """The rows as one sparse operator over vec(G), with every coefficient
    on an off-diagonal entry split in halves over the entry and its mirror:
    A vec(G) - b is the residual on a symmetric G, and the least-squares
    correction of a symmetric matrix stays symmetric."""
    rows, cols, coefs = constraints.forms
    cons = 1 + np.arange(len(constraints.r))
    tied = constraints.tie >= 0
    row = np.concatenate([rows, cons, cons[tied]])
    r = np.concatenate([np.zeros_like(cols), constraints.r,
                        np.zeros(tied.sum(), dtype=int)])
    c = np.concatenate([cols, constraints.c, constraints.tie[tied]])
    coef = np.concatenate([coefs, np.ones(len(cons)), -np.ones(tied.sum())])
    off = r != c
    A = sp.csr_matrix(
        (np.concatenate([np.where(off, coef / 2, coef), coef[off] / 2]),
         (np.concatenate([row, row[off]]),
          np.concatenate([r * d + c, c[off] * d + r[off]]))),
        shape=(len(constraints), d * d))
    A.eliminate_zeros()  # the forms keep zero coefficients
    return A


@settings(max_examples=15, deadline=None)
@given(single_lifts())
def test_operator_matches_rows_written_one_at_a_time(case):
    inst, level, _ = case
    ops = build_relaxation(inst, level).constraints
    d, rows = _reference_rows(inst, level)
    assert len(ops) == len(rows)
    assert ops.event.tolist() == [event for _, event in rows]
    assert ops.b.tolist() == [1.0] + [0.0] * (len(rows) - 1)
    consistency = range(1, 1 + len(ops.r))
    for i, (row, _) in enumerate(rows):
        expected = {}
        if i in consistency:
            (r, c, one), *tie = row
            assert (ops.r[i - 1], ops.c[i - 1], one) == (r, c, 1.0)
            assert ops.tie[i - 1] == (tie[0][1] if tie else -1)
        else:
            for r, c, v in row:
                assert r == 0
                expected[c] = expected.get(c, 0.0) + v
        mine = ops.forms[0] == i
        got = dict(zip(ops.forms[1][mine].tolist(),
                       ops.forms[2][mine].tolist()))
        assert len(got) == mine.sum()  # no column twice in a row
        assert {col: v for col, v in got.items() if v != 0.0} == \
            {col: v for col, v in expected.items() if v != 0.0}
    y = np.random.default_rng(len(rows)).standard_normal((d, d))
    y += y.T
    assert np.abs(ops.residual(y) - (_vec_rows(ops, d) @ y.reshape(-1) - ops.b)
                  ).max() <= 1e-12


@SETTINGS
@given(balanced_mixtures())
def test_every_row_holds_on_mixtures_of_balanced_lifts(case):
    inst, level, mixture = case
    ops = build_relaxation(inst, level).constraints
    assert np.abs(ops.residual(mixture.gram)).max() <= 1e-12
    assert check_feasibility(mixture, inst).passes(1e-12)


def _readings(solution, inst):
    """Every number read off a moment solution: each index's probability,
    the local distributions of every size, the objective and the
    feasibility report."""
    return ([solution.prob(s, a) for s, a in solution.indices],
            [local_distributions(solution, size).tolist()
             for size in range(solution.level + 1)],
            solution_objective(solution, inst),
            check_feasibility(solution, inst))


@SETTINGS
@given(balanced_mixtures(), st.integers(0, 2 ** 32 - 1))
def test_every_reader_reads_the_symmetric_part_of_the_gram(case, seed):
    """A mixture's gram plus a random antisymmetric part: the solution
    stores the symmetric part, so every reading, and every reading after a
    JSON round trip, is that of the solution built from the symmetric
    part.  Once the feasibility check read the symmetric part and the other
    readers row 0."""
    inst, level, mixture = case
    twist = np.random.default_rng(seed).standard_normal(mixture.gram.shape)
    gram = mixture.gram + twist - twist.T
    skewed = MomentSolution(level, inst.n, inst.q, mixture.indices, gram)
    symmetric = MomentSolution(level, inst.n, inst.q, mixture.indices,
                               (gram + gram.T) / 2)
    expected = _readings(symmetric, inst)
    assert _readings(skewed, inst) == expected
    assert _readings(MomentSolution.from_json(skewed.to_json()), inst) == \
        expected


def test_a_skewed_row_0_is_read_as_the_lift():
    """The cycle4 lift plus 0.3 on row 0 and -0.3 on column 0, off the
    diagonal, once passed the check while ``prob`` read 1.3, the objective
    1.6 and the pipeline raised ``InconsistentSolutionError``."""
    inst = generate("cycle", 4)
    lift = integral_lift(inst, (0, 1, 0, 1))
    twist = np.zeros_like(lift.gram)
    twist[0, 1:] = 0.3
    twist[1:, 0] = -0.3
    skewed = MomentSolution(2, 4, 2, lift.indices, lift.gram + twist)
    assert check_feasibility(skewed, inst).passes(1e-14)
    assert skewed.prob((0,), (0,)) == pytest.approx(1.0, abs=1e-15)
    assert solution_objective(skewed, inst) == pytest.approx(1.0, abs=1e-15)
    pipeline(inst, trials=4, solution=skewed)


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


def _full_psd_violation(gram):
    """max(0, -lambda_min) of the symmetric part, from the full spectrum."""
    sym = (gram + gram.T) / 2
    return max(0.0, float(-scipy.linalg.eigvalsh(sym, driver="evd")[0]))


def _basis(n, q, level):
    """R and the lift P of the shape's layout."""
    red, lift, _ = _layout(n, q, level).basis
    return red, lift


def _lift_residual(gram, n, q, level):
    """Largest absolute row sum of G - P G[R, R] P^T."""
    red, P = _basis(n, q, level)
    return np.abs(gram - P @ gram[np.ix_(red, red)] @ P.T).sum(axis=1).max()


@SETTINGS
@given(balanced_mixtures(signed=True))
def test_psd_violation_of_a_signed_mixture_is_the_full_spectrum_value(case):
    inst, level, mixture = case
    report = check_feasibility(mixture, inst)
    assert report.consistency_violation <= 1e-12
    assert report.cardinality_violation <= 1e-12
    assert report.psd_violation > 0
    assert abs(report.psd_violation - _full_psd_violation(mixture.gram)) \
        <= 1e-12


def _noise(where, size, red, P, rng):
    """Symmetric noise with largest absolute row sum ``size``: anywhere on G,
    only off the block G[R, R], or on the block and lifted by P, which
    keeps G in the lift's image."""
    if where == "lifted":
        noise = P @ rng.standard_normal((len(red), len(red))) @ P.T
    else:
        noise = rng.standard_normal((len(P), len(P)))
        if where == "outside":
            noise[np.ix_(red, red)] = 0.0
    noise += noise.T
    noise *= size / np.abs(noise).sum(axis=1).max()
    return noise


@SETTINGS
@given(st.one_of(balanced_mixtures(), balanced_mixtures(signed=True)),
       st.sampled_from(["anywhere", "outside", "lifted"]),
       st.sampled_from([1e-13, 5e-13, 1e-12, 1e-9, 1e-3]),
       st.integers(0, 2 ** 32 - 1))
def test_psd_violation_never_under_reports(case, where, size, seed):
    """Symmetric noise (``_noise``).  Off the lift's image by more than the
    rounding constant, the full spectrum is read."""
    inst, level, mixture = case
    n, q = inst.n, inst.q
    red, P = _basis(n, q, level)
    noise = _noise(where, size, red, P, np.random.default_rng(seed))
    perturbed = MomentSolution(level, n, q, mixture.indices,
                               mixture.gram + noise)
    full = _full_psd_violation(perturbed.gram)
    psd = check_feasibility(perturbed, inst).psd_violation
    assert psd >= full - 1e-13
    if where == "lifted":
        assert psd <= full + 1e-12
    elif _lift_residual(perturbed.gram, n, q, level) > 1e-11:
        assert psd == pytest.approx(full, rel=1e-12, abs=1e-15)


@SETTINGS
@given(st.one_of(balanced_mixtures(), balanced_mixtures(signed=True)),
       st.sampled_from(["anywhere", "outside", "lifted"]),
       st.sampled_from([0.0, 1e-13, 1e-9]),
       st.sampled_from([1e-14, 5e-13, 1e-12, 1e-9, 1e-3]),
       st.integers(0, 2 ** 32 - 1))
def test_psd_violation_of_an_asymmetric_gram_never_under_reports(
        case, where, size, skew, seed):
    """Symmetric noise (``_noise``) plus an antisymmetric part with largest
    absolute row sum ``skew``.  The solution stores the symmetric part, and
    the check reads it: the report is never below its full-spectrum
    value."""
    inst, level, mixture = case
    n, q = inst.n, inst.q
    red, P = _basis(n, q, level)
    rng = np.random.default_rng(seed)
    noise = _noise(where, size, red, P, rng) if size else 0.0
    twist = rng.standard_normal((len(P), len(P)))
    twist -= twist.T
    twist *= skew / np.abs(twist).sum(axis=1).max()
    perturbed = MomentSolution(level, n, q, mixture.indices,
                               mixture.gram + noise + twist)
    full = _full_psd_violation(perturbed.gram)
    psd = check_feasibility(perturbed, inst).psd_violation
    assert psd >= full - 1e-13
    if where == "lifted":
        assert psd <= full + skew + 1e-12


@pytest.mark.parametrize("side", ["column", "row"])
def test_psd_violation_counts_a_one_sided_residual(side):
    """-1e-13 on 16 entries of one column of a gram outside R (or of its
    row), not mirrored: the solution stores the symmetric part, whose
    residual is in that row and column both, and the check's bound from
    the residual's column sums stays above the full-spectrum value near
    1.9e-13."""
    inst = generate("cycle", 6)
    gram = sum(p * integral_lift(inst, a, 3).gram for p, a in zip(
        [1 / 3, 1 / 7, 11 / 21],
        [(0, 1, 0, 1, 0, 1), (1, 1, 0, 0, 1, 0), (0, 0, 1, 1, 0, 1)]))
    red = _layout(6, 2, 3).basis[0]
    i = np.setdiff1d(np.arange(len(gram)), red)[5]
    others = np.setdiff1d(np.arange(len(gram)), [i])
    j = np.random.default_rng(0).choice(others, 16, replace=False)
    if side == "column":
        gram[j, i] -= 1e-13
    else:
        gram[i, j] -= 1e-13
    solution = MomentSolution(3, 6, 2, build_index_set(6, 2, 3), gram)
    psd = check_feasibility(solution, inst).psd_violation
    assert 1.5e-13 < _full_psd_violation(gram) <= psd <= 1e-12


@SETTINGS
@given(balanced_mixtures(), st.data())
def test_psd_violation_counts_the_residual_off_the_block(case, data):
    """-delta/k on every entry among k indices outside R: E has norm and
    largest absolute row sum delta, below the rounding constant, and the
    block G[R, R] is unchanged, so only the Weyl term covers the negative
    eigenvalue near -delta."""
    inst, level, mixture = case
    n, q = inst.n, inst.q
    red = _layout(n, q, level).basis[0]
    outside = np.setdiff1d(np.arange(len(mixture.indices)), red)
    subset = data.draw(st.lists(st.sampled_from(outside.tolist()),
                                min_size=1, unique=True))
    delta = 5e-13
    gram = mixture.gram.copy()
    gram[np.ix_(subset, subset)] -= delta / len(subset)
    perturbed = MomentSolution(level, n, q, mixture.indices, gram)
    psd = check_feasibility(perturbed, inst).psd_violation
    assert _full_psd_violation(gram) - 1e-13 <= psd <= 1e-12


@pytest.mark.parametrize("family,n,level", [
    ("cycle", 4, 2), ("complete", 4, 2), ("cycle", 6, 2), ("complete", 6, 2),
    ("two_cliques", 8, 2), ("two_cliques", 10, 2), ("complete", 6, 3),
    ("two_cliques", 6, 3)])
def test_psd_violation_of_solver_outputs_is_the_full_spectrum_value(
        family, n, level):
    inst = generate(family, n)
    solution, report = sdp_solver.solve(build_relaxation(inst, level))
    assert report.status == "optimal"
    assert np.array_equal(solution.gram, solution.gram.T)
    # the block certificate, not the full spectrum, reads these
    assert _lift_residual(solution.gram, n, 2, level) <= 1e-12
    assert abs(check_feasibility(solution, inst).psd_violation
               - _full_psd_violation(solution.gram)) <= 1e-12


def test_rows_are_those_of_the_instance_not_of_the_last_one_built():
    uniform = _instance(2, [1, 1, 1, 1], [1, 1])
    skewed = _instance(2, [1, 2, 3, 4], [1, 1])
    first = build_relaxation(uniform, 2).constraints
    second = build_relaxation(skewed, 2).constraints
    # the shape-only rows are the layout's own arrays; the forms are each
    # instance's, as a build from a fresh layout writes them
    r, c, tie, b, event, _, (at_rows, at_cols) = _layout(4, 2, 2).rows
    for ops in (first, second):
        for got, held in zip((ops.r, ops.c, ops.tie, ops.b, ops.event,
                              *ops.forms[:2]),
                             (r, c, tie, b, event, at_rows, at_cols)):
            assert got is held
    _cached_layout.cache_clear()
    fresh = _rows(skewed, 2)
    assert np.array_equal(second.forms[2], fresh.forms[2])
    assert not np.array_equal(second.forms[2], first.forms[2])
    # meets the uniform target, misses the skewed one by (1 + 3 - 5) / 10
    lift = integral_lift(skewed, (0, 1, 0, 1), 2)
    assert check_feasibility(lift, skewed).cardinality_violation == \
        pytest.approx(0.1, abs=1e-12)


def test_rows_refuse_writes():
    rows = build_relaxation(generate("cycle", 4), 2).constraints
    held = [rows.r, rows.c, rows.tie, rows.b, rows.event, *rows.forms]
    layout = _layout(4, 2, 2)
    *shape_rows, (at_rows, at_cols) = layout.rows
    held += [layout.values, layout.offsets, *layout.basis, *shape_rows,
             at_rows, at_cols, *layout.block, layout.stages[0],
             *(a for stage in layout.stages[1] for a in stage)]
    assert isinstance(layout.indices, tuple)
    for array in held:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[0]


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


def _held_arrays(obj):
    """(shape, entries) of every array a dataclass holds, at any depth,
    tuples of arrays included."""
    if is_dataclass(obj):
        for f in fields(obj):
            yield from _held_arrays(getattr(obj, f.name))
    elif isinstance(obj, tuple):
        for item in obj:
            yield from _held_arrays(item)
    elif isinstance(obj, np.ndarray):
        yield obj.shape, obj.size


def test_program_holds_no_array_of_d_squared_entries():
    program = build_relaxation(generate("gnp", 12, seed=1, p=0.5), 3)
    d = program.dim
    assert d == 2049
    held = list(_held_arrays(program))
    for shape, entries in held:
        assert max(shape) < d * d and entries < d * d
    assert len(held) == 9  # c, and the eight arrays of the rows


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
    red, P = _basis(n, q, level)
    assert np.abs(P @ gram[np.ix_(red, red)] @ P.T - gram).max() <= 1e-12
    assert np.linalg.matrix_rank(P) == len(red)
    # row i reads only events at or before i, as _psd_violation assumes
    assert not P[np.arange(len(P))[:, None] < red].any()
    # T is the triangular factor of P = Q T
    T = _layout(n, q, level).basis[2]
    assert np.abs(T.T @ T - P.T @ P).max() <= 1e-9


def _lift_by_loop(indices, q):
    """R and P entry by entry: expanding every [x_j = q - 1] in the event
    (S, alpha) as 1 - sum_{a < q - 1} [x_j = a] keeps the variables below
    q - 1 and, with sign -1 each, any of those valued q - 1."""
    red = [k for k, (_, alpha) in enumerate(indices)
           if all(a < q - 1 for a in alpha)]
    P = np.zeros((len(indices), len(red)))
    for row, (s, alpha) in enumerate(indices):
        top = {v for v, a in zip(s, alpha) if a == q - 1}
        for col, k in enumerate(red):
            t, beta = indices[k]
            kept = dict(zip(t, beta))
            if (set(t) <= set(s) and set(s) - set(t) <= top
                    and all(kept[v] == a for v, a in zip(s, alpha)
                            if v not in top)):
                P[row, col] = (-1) ** len(top & set(t))
    return red, P


@settings(max_examples=15, deadline=None)
@given(shapes())
def test_lift_equals_inclusion_exclusion_by_loop(shape):
    q, level, n = shape
    red, P = _lift_by_loop(build_index_set(n, q, level), q)
    layout_red, layout_P = _basis(n, q, level)
    assert layout_red.tolist() == red
    assert np.array_equal(layout_P, P)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([2, 3]), st.sampled_from([2, 3, 4]), st.data())
def test_lift_recursion_applies_p(q, level, data):
    """The layout's ``lift`` of X, by its stages' recursion, is P X within
    1e-12 of the size of |P| |X|, on X of any number of columns."""
    n = data.draw(st.integers(level, 6 if level == 2 else 5))
    red, P = _basis(n, q, level)
    columns = data.draw(st.sampled_from([(), (1,), (3,), (len(red),)]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    X = rng.standard_normal((len(red),) + columns)
    got = _layout(n, q, level).lift(X)
    assert got.shape == (len(P),) + columns
    assert np.abs(got - P @ X).max() <= 1e-12 * (np.abs(P) @ np.abs(X)).max()


@settings(max_examples=15, deadline=None)
@given(shapes())
def test_scaled_lift_shortens_no_vector(shape):
    """sigma_min(T W) = 1 (P^T P >= I since P[R] = I): the norms of the
    solver's flat iterates bound the lifted residuals from below, which its
    probes read as a shortcut."""
    q, level, n = shape
    TW = _layout(n, q, level).scaled[1]
    assert np.linalg.svd(TW, compute_uv=False).min() >= 1 - 1e-12


def _reduced_rows(constraints, d, red):
    """Reference rows over vec(G[R, R]): the program's rows whose support
    lies inside R x R, restricted to those columns and scaled to unit norm.
    Rows without coefficients, which constrain nothing, are dropped."""
    inside = np.zeros(d, dtype=bool)
    inside[red] = True
    cols = (red[:, None] * d + red).ravel()
    A = _vec_rows(constraints, d)
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
    red = _layout(inst.n, inst.q, level).basis[0]
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
    red, P = _basis(inst.n, inst.q, level)
    A, b = _reduced_rows(program.constraints, program.dim, red)
    A = A.toarray()
    y = np.random.default_rng(seed).standard_normal((len(red), len(red)))
    y = ((y + y.T) / 2).reshape(-1)
    block = y - np.linalg.lstsq(A, A @ y - b, rcond=None)[0]
    assert np.abs(A @ block - b).max() <= 1e-9
    gram = P @ block.reshape(len(red), len(red)) @ P.T
    assert np.abs(program.constraints.residual(gram)).max() <= 1e-9


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
    red, P = _basis(n, q, level)
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    y = scale * rng.standard_normal((len(red), len(red)))
    return program, red, P, (y + y.T) / 2


def _program_layout(program):
    return _layout(program.n, program.q, program.level)


def _working_basis(n, q, level):
    """W with G[R, R] = W M W^T for the solver's M, from its definition: for
    q = 2, W[S, T] = 2^-|S| 2^(|T|/2) [T in S] over R's subsets (M the
    scaled parity moments); for q >= 3, the identity."""
    red = _layout(n, q, level).basis[0]
    if q != 2:
        return np.eye(len(red))
    subsets = [set(build_index_set(n, q, level)[i][0]) for i in red]
    return np.array([[2.0 ** (len(T) / 2 - len(S)) if T <= S else 0.0
                      for T in subsets] for S in subsets])


def _projection(program, red):
    """The solver's projection on its blocks of M, embedded in the full
    matrix (0 outside the blocks), and the program's rows on vec(M): the
    reduced rows through G[R, R] = W M W^T, on the blocks' entries."""
    layout = _program_layout(program)
    d = len(red)
    sel = np.concatenate([(b[:, None] * d + b).ravel()
                          for b in sdp_solver._blocks(program, layout)])
    project = _affine_projection(program.constraints, layout, sel)

    def embedded(m):
        out = np.zeros(d * d)
        out[sel] = project(m.reshape(-1)[sel])
        return out.reshape(d, d)

    A, b = _reduced_rows(program.constraints, program.dim, red)
    W = _working_basis(program.n, program.q, program.level)
    return embedded, W, (A.toarray() @ np.kron(W, W))[:, sel], b, sel


def _flip_invariant_case(parts, level):
    """A case whose program is invariant under the label flip (all-ones
    payoffs, half the weight on each value): the solver splits M in two."""
    n = len(parts)
    program = build_relaxation(_instance(2, parts, [1, 1]), level)
    red, P = _basis(n, 2, level)
    y = np.random.default_rng(n).standard_normal((len(red), len(red)))
    return program, red, P, (y + y.T) / 2


FLIP_INVARIANT = [_flip_invariant_case([1, 1, 2, 2], 2),
                  _flip_invariant_case([1, 1, 2], 3)]


@settings(max_examples=25, deadline=None)
@example(FLIP_INVARIANT[0])
@example(FLIP_INVARIANT[1])
@given(projection_cases())
def test_projection_is_the_least_squares_projection(case):
    """On two blocks, the least-squares point with the entries between the
    parities held at 0."""
    program, red, _, y = case
    project, _, A, b, sel = _projection(program, red)
    v = y.reshape(-1)[sel]
    expected = np.zeros(y.size)
    expected[sel] = v - np.linalg.lstsq(A, A @ v - b, rcond=None)[0]
    scale = max(1.0, np.abs(y).max())
    assert np.abs(project(y).reshape(-1) - expected).max() <= 1e-10 * scale


@settings(max_examples=25, deadline=None)
@given(projection_cases())
def test_projection_is_idempotent_and_keeps_symmetry(case):
    program, red, _, y = case
    project = _projection(program, red)[0]
    once = project(y)
    assert np.array_equal(once, once.T)
    scale = max(1.0, np.abs(y).max())
    assert np.abs(project(once) - once).max() <= 1e-12 * scale


@settings(max_examples=25, deadline=None)
@example(FLIP_INVARIANT[0])
@example(FLIP_INVARIANT[1])
@given(projection_cases())
def test_projection_meets_the_reduced_and_the_full_rows(case):
    program, red, P, y = case
    project, W, A, b, sel = _projection(program, red)
    block = project(y)
    scale = max(1.0, np.abs(y).max())
    assert np.abs(A @ block.reshape(-1)[sel] - b).max() <= 1e-12 * scale
    gram = P @ W @ block @ W.T @ P.T
    assert np.abs(program.constraints.residual(gram)).max() <= 1e-9 * scale


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

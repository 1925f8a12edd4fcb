import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import quadratic
from hesselab import flow, transport
from hesselab.errors import (BadParams, Infeasible, NotDeterministic,
                             OutOfDomain)
from hesselab.potentials import GridPotential
from hesselab.transport import (DiscreteMeasure, TransportPlan, barycentric_map,
                                cost_matrix, holder_modulus, plan_tv,
                                solve_exact, weak_continuity_rows)


def brute_force_assignment_cost(C):
    """Exhaustive minimum over bijections for equal-weight square instances."""
    m = C.shape[0]
    best = np.inf
    for perm in itertools.permutations(range(m)):
        best = min(best, sum(C[i, perm[i]] for i in range(m)) / m)
    return best


def random_instance(m, seed, dim=2):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(m, dim))
    Y = rng.normal(size=(m, dim)) + np.array([2.5, 0.0])
    return X, Y


def looped_cost_matrix(source, X, Y):
    """Reference: one ``value`` call per pair, in row-major order."""
    C = np.empty((X.shape[0], Y.shape[0]))
    for a, x in enumerate(X):
        for b, y in enumerate(Y):
            C[a, b] = source.value(x - y)
    return C


def looped_distinct(points):
    """Reference: no two rows equal by ``np.array_equal``."""
    m = points.shape[0]
    return not any(np.array_equal(points[a], points[b])
                   for a in range(m) for b in range(a + 1, m))


def window_instance(m, seed):
    """Supports of the flowed-window OT instances (sources at x1 ~ 1.2)."""
    rng = np.random.default_rng(seed)
    X = np.stack([rng.uniform(1.0, 1.35, m), rng.uniform(-0.18, 0.18, m)], axis=1)
    Y = np.stack([rng.uniform(-0.12, 0.12, m), rng.uniform(-0.15, 0.15, m)], axis=1)
    return X, Y


# -- measures ------------------------------------------------------------------------

def test_measure_validation():
    pts = np.array([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(BadParams):
        DiscreteMeasure(pts, np.array([0.5, 0.6]))
    with pytest.raises(BadParams):
        DiscreteMeasure(pts, np.array([1.0, 0.0]))
    with pytest.raises(BadParams):
        DiscreteMeasure(np.zeros((2, 2)), np.array([0.5, 0.5]))
    mu = DiscreteMeasure.uniform(pts)
    assert mu.weights.sum() == 1.0


def test_uniform_measure_on_no_points_raises():
    with pytest.raises(BadParams, match="at least one"):
        DiscreteMeasure.uniform(np.zeros((0, 2)))
    with pytest.raises(BadParams, match="at least one"):
        DiscreteMeasure.uniform([])


_COORD = st.sampled_from([0.0, -0.0, 1.0, -1.5, 0.25, np.nan])


@st.composite
def support_rows(draw):
    """Rows from a few coordinates, so repeats are common, plus planted
    copies (with the signs of zeros flipped) of earlier rows."""
    m = draw(st.integers(1, 7))
    d = draw(st.integers(1, 3))
    P = np.array(draw(st.lists(st.lists(_COORD, min_size=d, max_size=d),
                               min_size=m, max_size=m)), dtype=float)
    for a, b in draw(st.lists(st.tuples(st.integers(0, m - 1),
                                        st.integers(0, m - 1)), max_size=3)):
        P[b] = P[a] if draw(st.booleans()) else np.where(P[a] == 0.0, -P[a], P[a])
    return P


@given(support_rows())
def test_distinct_support_check_matches_pairwise_loop(P):
    """The sort-based check rejects exactly the supports the pairwise
    ``np.array_equal`` loop rejects: -0.0 equals 0.0, NaN rows equal none."""
    try:
        DiscreteMeasure.uniform(P)
        accepted = True
    except BadParams as exc:
        assert "distinct" in str(exc)
        accepted = False
    assert accepted == looped_distinct(P)


def test_distinct_support_check_edge_rows():
    for P, distinct in (([[0.0, 1.0], [-0.0, 1.0]], False),
                        ([[np.nan, 1.0], [np.nan, 1.0]], True),
                        ([[0.5], [0.25], [0.5]], False),
                        ([[1.0, 2.0], [2.0, 1.0]], True)):
        P = np.array(P)
        assert looped_distinct(P) == distinct
        if distinct:
            DiscreteMeasure.uniform(P)
        else:
            with pytest.raises(BadParams):
                DiscreteMeasure.uniform(P)


# -- cost matrices -------------------------------------------------------------------

def test_quadratic_cost_diagonal_zero():
    q = quadratic(2)
    X = np.array([[0.1, 0.2], [0.6, 0.4]])
    C = cost_matrix(q, X, X)
    assert np.allclose(np.diag(C), 0.0, atol=1e-15)


def test_cost_matrix_out_of_domain(ball2):
    X = np.array([[0.9, 0.0]])
    Y = np.array([[-0.9, 0.0]])
    with pytest.raises(OutOfDomain):
        cost_matrix(ball2, X, Y)


def window_checkpoints(handle, steps):
    grid = flow.GridSpec(shape=(36, 36), spacing=0.036,
                         origin=np.array([0.55, -0.65]))
    state = flow.init(handle, grid, "frozen-window")
    pots = [flow.to_grid_potential(state)]
    for _ in range(steps):
        state = flow.step(state, flow.adaptive_dt(state))
    return pots + [flow.to_grid_potential(state)]


def test_batched_cost_matrix_is_the_looped_one(radial, ball2):
    """One batched evaluation gives the bytes of the pairwise loop on window
    checkpoints (t = 0 and flowed), a 1-D grid potential and closed forms."""
    X, Y = window_instance(24, 5)
    for pot in window_checkpoints(radial, 3):
        C = cost_matrix(pot, X, Y)
        assert C.tobytes() == looped_cost_matrix(pot, X, Y).tobytes()
    axis = np.linspace(0.5, 2.5, 41)
    line = GridPotential(np.array([0.5]), axis[1] - axis[0], -np.log(axis))
    x1, y1 = np.linspace(1.0, 1.9, 9)[:, None], np.linspace(-0.3, 0.2, 7)[:, None]
    assert cost_matrix(line, x1, y1).tobytes() == \
        looped_cost_matrix(line, x1, y1).tobytes()
    assert cost_matrix(radial, X, Y).tobytes() == \
        looped_cost_matrix(radial, X, Y).tobytes()
    Xb, Yb = 0.3 * X - np.array([0.3, 0.0]), 0.5 * Y
    assert cost_matrix(ball2, Xb, Yb).tobytes() == \
        looped_cost_matrix(ball2, Xb, Yb).tobytes()


def test_batched_cost_matrix_raises_the_looped_error(radial):
    """A difference outside the grid box raises the loop's OutOfDomain, for
    the first offending pair in row-major order; a NaN difference too."""
    pot = window_checkpoints(radial, 0)[0]
    X, Y = window_instance(4, 9)
    X[2] = [0.4, 0.0]          # (2, b) leaves the box through x1 ...
    Y[1] = [0.0, 0.8]          # ... and (a, 1) through x2; (0, 1) comes first
    X_nan = X.copy()
    X_nan[0, 1] = np.nan       # now (0, 0) comes first
    for X_bad, (a, b) in ((X, (0, 1)), (X_nan, (0, 0))):
        errors = []
        for evaluate in (cost_matrix, looped_cost_matrix):
            with pytest.raises(OutOfDomain) as info:
                evaluate(pot, X_bad, Y)
            errors.append(str(info.value))
        assert errors[0] == errors[1]
        assert errors[0].startswith(f"point {X_bad[a] - Y[b]} outside box")


def test_even_potential_checkpoint_cost_is_symmetric(ball2):
    """psi even and X = Y makes C[a,b] = psi(x_a - x_b) symmetric."""
    grid = flow.GridSpec(shape=(40, 40), spacing=0.025,
                         origin=np.array([-0.5, -0.5]))
    state = flow.init(ball2, grid, "frozen-window")
    chk = flow.to_grid_potential(state)
    X = np.array([[0.1, 0.05], [-0.08, 0.11], [0.0, -0.12]])
    C = cost_matrix(chk, X, X)
    assert np.all(np.isfinite(C))
    assert np.abs(C - C.T).max() < 1e-9


def test_flowed_cost_continuity(radial):
    grid = flow.GridSpec(shape=(36, 36), spacing=0.036,
                         origin=np.array([0.55, -0.65]))
    state = flow.init(radial, grid, "frozen-window")
    X = np.array([[1.1, 0.1], [1.3, -0.1]])
    Y = np.array([[0.05, 0.02], [-0.05, -0.08]])
    C0 = cost_matrix(flow.to_grid_potential(state), X, Y)
    t = 0.004
    dt = flow.adaptive_dt(state)
    steps = int(np.ceil(t / dt))
    out = state
    for _ in range(steps):
        out = flow.step(out, t / steps)
    C1 = cost_matrix(flow.to_grid_potential(out), X, Y)
    assert np.abs(C1 - C0).max() < 10.0 * t  # O(t) drift, rhs is O(1)
    assert np.abs(C1 - C0).max() > 0.0


# -- exact solver ---------------------------------------------------------------------

@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7, 8])
def test_solver_matches_brute_force(m):
    for seed in (0, 1):
        X, Y = random_instance(m, 10 * m + seed)
        mu, nu = DiscreteMeasure.uniform(X), DiscreteMeasure.uniform(Y)
        C = np.array([[np.sum((x - y) ** 2) / 2 for y in Y] for x in X])
        plan = solve_exact(mu, nu, C)
        assert plan.cost == pytest.approx(brute_force_assignment_cost(C), abs=1e-11)
        assert plan.certified
        assert plan.marginal_residual < 1e-10


def seeded_weights(m, seed):
    """Non-uniform positive weights summing to 1 (the last one closes the sum)."""
    w = np.random.default_rng(seed).uniform(0.5, 1.5, m)
    w /= w.sum()
    w[-1] = 1.0 - w[:-1].sum()
    return w


def spied_linprog(monkeypatch):
    """Replace transport.linprog by a pass-through that records each call."""
    from scipy.optimize import linprog
    calls = []

    def spy(*args, **kwargs):
        calls.append(kwargs["method"])
        return linprog(*args, **kwargs)

    monkeypatch.setattr(transport, "linprog", spy)
    return calls


def test_solver_pins_dual_simplex_and_keeps_the_looped_plan(monkeypatch):
    """On non-uniform measures solve_exact calls the HiGHS dual simplex; its
    plan is byte-identical to the LP whose marginal rows are built by Python
    loops and solved with the default HiGHS choice."""
    from scipy.optimize import linprog
    from scipy.sparse import coo_matrix
    m = 32
    X, Y = random_instance(m, 3)
    mu, nu = DiscreteMeasure(X, seeded_weights(m, 4)), DiscreteMeasure(Y, seeded_weights(m, 5))
    C = np.array([[np.sum((x - y) ** 2) / 2 for y in Y] for x in X])
    methods = spied_linprog(monkeypatch)
    plan = solve_exact(mu, nu, C)
    assert methods == ["highs-ds"]
    assert plan.certified
    rows, cols = [], []
    for a in range(m):
        for b in range(m):
            rows.append(a)
            cols.append(a * m + b)
    for b in range(m):
        for a in range(m):
            rows.append(m + b)
            cols.append(a * m + b)
    A_eq = coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(2 * m, m * m))
    ref = linprog(C.ravel(), A_eq=A_eq, b_eq=np.concatenate([mu.weights, nu.weights]),
                  bounds=(0, None), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    assert plan.coupling.tobytes() == ref.x.reshape(m, m).tobytes()


def lp_path_plan(mu, nu, C):
    """The plan the LP path gives, with the residuals solve_exact computes."""
    return transport._residual_plan(mu, nu, C, *transport._lp_plan(mu, nu, C))


@pytest.mark.parametrize("m", [1, 2, 7, 32, 96])
def test_assignment_path_matches_lp_path(monkeypatch, m):
    """Uniform equal-size instances take the assignment path; its plan has
    the LP path's support and cost, and both carry certified duals."""
    calls = spied_linprog(monkeypatch)
    for seed in (0, 1, 2):
        X, Y = window_instance(m, 100 * m + seed)
        mu, nu = DiscreteMeasure.uniform(X), DiscreteMeasure.uniform(Y)
        C = np.sqrt(((X[:, None] - Y[None]) ** 2).sum(axis=2))
        C = C - np.log(C + 1.0)          # the radial_sym cost at t = 0
        fast = solve_exact(mu, nu, C)
        assert calls == [], "the assignment path called linprog"
        slow = lp_path_plan(mu, nu, C)
        calls.clear()
        assert np.array_equal(fast.coupling > 1e-12, slow.coupling > 1e-12)
        assert fast.cost == pytest.approx(slow.cost, rel=1e-12, abs=0.0)
        for plan in (fast, slow):
            assert plan.certified
            red = C - plan.dual_u[:, None] - plan.dual_v[None, :]
            assert red.min() >= -1e-12
        assert fast.marginal_residual <= 1e-12


@pytest.mark.parametrize("C", [
    np.full((6, 6), 0.7), 1.0 - np.eye(6),
    np.sqrt(2.0) * np.subtract.outer(0.1 * np.arange(6) + 0.65, 0.1 * np.arange(6)).T])
def test_assignment_path_certifies_ties(C):
    """Costs where many permutations tie: constant, 1 - I, and y_b - x_a
    with every y above every x, where all permutations tie in exact
    arithmetic and rounding breaks the ties by 1e-16."""
    mu = DiscreteMeasure.uniform(np.arange(6.0)[:, None])
    plan = solve_exact(mu, mu, C)
    assert plan.certified
    assert plan.cost == pytest.approx(brute_force_assignment_cost(C), abs=1e-12)


def test_non_optimal_assignment_is_infeasible(monkeypatch):
    """A permutation the duals can improve on raises Infeasible: the
    certificate does not rest on the assignment solver being right."""
    X, Y = random_instance(7, 4)
    mu, nu = DiscreteMeasure.uniform(X), DiscreteMeasure.uniform(Y)
    C = np.array([[np.sum((x - y) ** 2) / 2 for y in Y] for x in X])
    rows, cols = transport.linear_sum_assignment(C)
    monkeypatch.setattr(transport, "linear_sum_assignment",
                        lambda C: (rows, np.roll(cols, 1)))
    with pytest.raises(Infeasible, match="negative cycle"):
        solve_exact(mu, nu, C)


def test_infeasible_plan_is_not_certified():
    """Zero duals meet slackness and feasibility on any C >= 0, and the
    optimal duals meet them on any part of the optimal support, so the
    certificate rests on primal feasibility: the zero coupling, the optimum
    with one row's mass taken off, and the optimum with mass swapped onto
    two negative entries (right marginals, cost below the optimum) are
    refused."""
    X, Y = random_instance(5, 4)
    mu, nu = DiscreteMeasure.uniform(X), DiscreteMeasure.uniform(Y)
    C = np.array([[np.sum((x - y) ** 2) / 2 for y in Y] for x in X])
    zeros = np.zeros(5)
    empty = transport._residual_plan(mu, nu, C, np.zeros((5, 5)), zeros, zeros)
    assert empty.marginal_residual == pytest.approx(0.2)
    assert not empty.certified
    best = solve_exact(mu, nu, C)
    assert best.certified
    short = best.coupling.copy()
    short[0] = 0.0
    plan = transport._residual_plan(mu, nu, C, short, best.dual_u, best.dual_v)
    assert plan.slack_residual <= best.slack_residual
    assert plan.marginal_residual == pytest.approx(0.2)
    assert not plan.certified
    sigma = best.coupling.argmax(axis=1)
    swap = best.coupling.copy()
    swap[[0, 1], sigma[[0, 1]]] += 0.1
    swap[[0, 1], sigma[[1, 0]]] -= 0.1
    plan = transport._residual_plan(mu, nu, C, swap, best.dual_u, best.dual_v)
    assert plan.marginal_residual < 1e-15
    assert plan.slack_residual <= best.slack_residual
    assert plan.cost < best.cost - 1e-3
    assert not plan.certified


def test_unequal_or_non_uniform_measures_take_the_lp_path(monkeypatch):
    calls = spied_linprog(monkeypatch)
    X, Y = random_instance(6, 8)
    C = np.array([[np.sum((x - y) ** 2) / 2 for y in Y] for x in X])
    mu, nu = DiscreteMeasure.uniform(X), DiscreteMeasure.uniform(Y)
    for a, b, Cab in ((DiscreteMeasure.uniform(X[:4]), nu, C[:4]),
                      (DiscreteMeasure(X, seeded_weights(6, 1)), nu, C),
                      (mu, DiscreteMeasure(Y, seeded_weights(6, 2)), C)):
        before = len(calls)
        plan = solve_exact(a, b, Cab)
        assert calls[before:] == ["highs-ds"]
        assert plan.certified
        assert plan.marginal_residual < 1e-10


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_cost_raises_bad_params_on_both_paths(monkeypatch, bad):
    calls = spied_linprog(monkeypatch)
    X, Y = random_instance(5, 6)
    C = np.array([[np.sum((x - y) ** 2) / 2 for y in Y] for x in X])
    C[2, 3] = bad
    uniform = DiscreteMeasure.uniform(X), DiscreteMeasure.uniform(Y)
    weighted = DiscreteMeasure(X, seeded_weights(5, 3)), uniform[1]
    for mu, nu in (uniform, weighted):
        with pytest.raises(BadParams, match="NaN or infinite"):
            solve_exact(mu, nu, C)
    assert calls == []


def test_solver_with_radial_cost(radial):
    X, Y = random_instance(6, 5)
    X = X * 0.1 + np.array([1.2, 0.0])
    Y = Y * 0.1 - np.array([1.2, 0.0])
    mu, nu = DiscreteMeasure.uniform(X), DiscreteMeasure.uniform(Y)
    C = cost_matrix(radial, X, Y)
    plan = solve_exact(mu, nu, C)
    assert plan.cost == pytest.approx(brute_force_assignment_cost(C), abs=1e-11)
    assert plan.certified


def test_monotone_matching_optimal_in_1d():
    rng = np.random.default_rng(3)
    x = np.sort(rng.normal(size=7))
    y = np.sort(rng.normal(size=7)) + 3.0
    mu = DiscreteMeasure.uniform(x[:, None])
    nu = DiscreteMeasure.uniform(y[:, None])
    C = np.array([[(a - b) ** 2 / 2 for b in y] for a in x])
    plan = solve_exact(mu, nu, C)
    sorted_cost = float(np.mean([(a - b) ** 2 / 2 for a, b in zip(x, y)]))
    assert plan.cost == pytest.approx(sorted_cost, abs=1e-12)


def test_identity_coupling_for_zero_diagonal():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    mu = DiscreteMeasure.uniform(pts)
    C = np.ones((3, 3)) - np.eye(3)
    plan = solve_exact(mu, mu, C)
    assert np.allclose(plan.coupling, np.eye(3) / 3.0, atol=1e-12)


def test_infeasible_inputs():
    mu = DiscreteMeasure.uniform(np.array([[0.0, 0.0], [1.0, 1.0]]))
    nu = DiscreteMeasure.uniform(np.array([[0.0, 1.0], [2.0, 0.0], [3.0, 1.0]]))
    with pytest.raises(Infeasible):
        solve_exact(mu, nu, np.zeros((2, 2)))


def test_cost_lipschitz_in_cost_matrix():
    X, Y = random_instance(6, 7)
    mu, nu = DiscreteMeasure.uniform(X), DiscreteMeasure.uniform(Y)
    C = np.array([[np.sum((x - y) ** 2) / 2 for y in Y] for x in X])
    base = solve_exact(mu, nu, C)
    rng = np.random.default_rng(11)
    for _ in range(5):
        D = rng.normal(size=C.shape) * 0.05
        other = solve_exact(mu, nu, C + D)
        assert abs(other.cost - base.cost) <= np.abs(D).max() + 1e-12


# -- maps and moduli ----------------------------------------------------------------------

def test_identity_coupling_modulus_is_identity_quotient():
    """The identity map's quotient is |dx|^(1-alpha); exactly 1 at alpha = 1."""
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    mu = DiscreteMeasure.uniform(pts)
    plan = TransportPlan(coupling=np.eye(3) / 3.0, cost=0.0,
                         dual_u=np.zeros(3), dual_v=np.zeros(3),
                         slack_residual=0.0, feasibility_residual=0.0,
                         marginal_residual=0.0)
    assert holder_modulus(plan, mu, pts, alpha=1.0) == pytest.approx(1.0, abs=1e-12)
    expected = max(np.linalg.norm(pts[a] - pts[b]) ** 0.3
                   for a in range(3) for b in range(a + 1, 3))
    assert holder_modulus(plan, mu, pts, alpha=0.7) == pytest.approx(expected,
                                                                     abs=1e-12)


def test_translation_map_is_lipschitz_one():
    rng = np.random.default_rng(13)
    X = rng.normal(size=(6, 2))
    shift = np.array([4.0, 1.0])
    Y = X + shift
    mu, nu = DiscreteMeasure.uniform(X), DiscreteMeasure.uniform(Y)
    C = np.array([[np.sum((x - y) ** 2) / 2 for y in Y] for x in X])
    plan = solve_exact(mu, nu, C)
    T = barycentric_map(plan, mu, Y)
    assert np.allclose(T, X + shift, atol=1e-10)
    assert holder_modulus(plan, mu, Y, alpha=1.0) == pytest.approx(1.0, abs=1e-9)


def test_not_deterministic_refused():
    pts2 = np.array([[0.0, 0.0], [1.0, 0.0]])
    pts3 = np.array([[0.0, 1.0], [1.0, 1.0], [2.0, 1.0]])
    mu = DiscreteMeasure.uniform(pts2)
    nu = DiscreteMeasure.uniform(pts3)
    diffuse = np.outer(mu.weights, nu.weights)
    plan = TransportPlan(coupling=diffuse, cost=0.0, dual_u=np.zeros(2),
                         dual_v=np.zeros(3), slack_residual=0.0,
                         feasibility_residual=0.0, marginal_residual=0.0)
    with pytest.raises(NotDeterministic):
        barycentric_map(plan, mu, pts3)


def test_plan_tv():
    P1 = np.eye(2) / 2
    P2 = np.array([[0.0, 0.5], [0.5, 0.0]])
    assert plan_tv(P1, P2) == pytest.approx(1.0)
    assert plan_tv(P1, P1) == 0.0


# -- weak-continuity experiment --------------------------------------------------------------

def test_weak_continuity_requires_base_time():
    mu = DiscreteMeasure.uniform(np.array([[0.0, 0.0], [1.0, 0.0]]))
    nu = DiscreteMeasure.uniform(np.array([[0.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(BadParams):
        weak_continuity_rows({0.01: np.zeros((2, 2))}, mu, nu, 0.5)


def test_weak_continuity_quadratic_rows_identical():
    rng = np.random.default_rng(17)
    X = rng.normal(size=(5, 2))
    Y = rng.normal(size=(5, 2)) + 3.0
    mu, nu = DiscreteMeasure.uniform(X), DiscreteMeasure.uniform(Y)
    C = np.array([[np.sum((x - y) ** 2) / 2 for y in Y] for x in X])
    rows = weak_continuity_rows({0.0: C, 0.01: C, 0.02: C}, mu, nu, 0.5)
    assert all(r["cost"] == rows[0]["cost"] for r in rows)
    assert all(r["plan_tv_to_t0"] == 0.0 for r in rows)


def test_weak_continuity_solves_each_time_once(monkeypatch):
    X, Y = random_instance(4, 23)
    mu, nu = DiscreteMeasure.uniform(X), DiscreteMeasure.uniform(Y)
    C = np.array([[np.sum((x - y) ** 2) / 2 for y in Y] for x in X])
    times = (0.0, 0.01, 0.02)
    solves = []

    def counted(*args):
        solves.append(args)
        return solve_exact(*args)

    monkeypatch.setattr(transport, "solve_exact", counted)
    rows = weak_continuity_rows({t: (1.0 + t) * C for t in times}, mu, nu, 0.5)
    assert len(solves) == len(times)
    assert rows[0]["plan_tv_to_t0"] == 0.0


def test_weak_continuity_radial_experiment(radial):
    grid = flow.GridSpec(shape=(36, 36), spacing=0.036,
                         origin=np.array([0.55, -0.65]))
    rng = np.random.default_rng(13)
    X = np.stack([rng.uniform(1.0, 1.35, 8), rng.uniform(-0.18, 0.18, 8)], axis=1)
    Y = np.stack([rng.uniform(-0.12, 0.12, 8), rng.uniform(-0.15, 0.15, 8)], axis=1)
    mu, nu = DiscreteMeasure.uniform(X), DiscreteMeasure.uniform(Y)
    state = flow.init(radial, grid, "frozen-window")
    costs = {}
    for t in (0.0, 0.005, 0.01):
        while state.t < t - 1e-12:
            state = flow.step(state, min(flow.adaptive_dt(state), t - state.t))
        costs[t] = cost_matrix(flow.to_grid_potential(state), X, Y)
    rows = weak_continuity_rows(costs, mu, nu, alpha=0.5)
    assert [r["t"] for r in rows] == [0.0, 0.005, 0.01]
    tv = [r["plan_tv_to_t0"] for r in rows]
    assert all(tv[i] <= tv[i + 1] + 1e-9 for i in range(len(tv) - 1))
    assert all(np.isfinite(r["holder_modulus"]) for r in rows)
    assert all(r["slack_residual"] < 1e-9 for r in rows)
    # cost should drift with t (the flow genuinely changes the cost)
    assert rows[-1]["cost"] != rows[0]["cost"]

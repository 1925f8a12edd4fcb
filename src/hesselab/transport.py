"""Exact discrete optimal transport for difference costs c(x,y) = psi(x-y).

The solver takes two uniform measures of one size m, the instances every
experiment builds.  They are solved as an assignment: the vertices of their
coupling polytope are the permutation matrices divided by m (Birkhoff-von
Neumann), so a minimum-cost assignment (Jonker-Volgenant, scipy's
linear_sum_assignment) is an exact optimum of the LP over couplings.  Its
duals are shortest-path potentials of the column graph.  A plan carries
these dual potentials and is certified at 1e-9 by primal feasibility (its
marginals and no negative entry), complementary slackness and dual
feasibility, computed here from the weights, C, the plan and the duals
alone, so the certificate does not rest on the assignment solver being
right.  Instances solve independently; each solve is single-threaded.  A
cost matrix is one batched evaluation of psi over all m * k differences,
with the errors the pointwise evaluation raises.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import BadParams, Infeasible, NotDeterministic

SLACK_TOL = 1e-9
DOMINANCE_FLOOR = 0.5  # least share of a row's mass its largest entry must carry


@dataclass
class DiscreteMeasure:
    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        self.weights = np.asarray(self.weights, dtype=float)
        if self.points.shape[0] != self.weights.shape[0]:
            raise BadParams("points/weights length mismatch")
        if np.any(self.weights <= 0):
            raise BadParams("weights must be positive")
        if abs(self.weights.sum() - 1.0) > 1e-12:
            raise BadParams("weights must sum to 1 within 1e-12")
        # sorted lexicographically, equal rows are neighbours; == keeps
        # -0.0 equal to 0.0 and a row holding a NaN equal to no other row
        P = self.points
        S = P[np.lexsort(P.T[::-1])] if P.shape[1] else P
        if np.any(np.all(S[1:] == S[:-1], axis=1)):
            raise BadParams("support points must be distinct")

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @classmethod
    def uniform(cls, points) -> "DiscreteMeasure":
        points = np.atleast_2d(np.asarray(points, dtype=float))
        m = points.shape[0]
        if points.size == 0:
            raise BadParams("a uniform measure needs at least one support point")
        w = np.full(m, 1.0 / m)
        w[-1] = 1.0 - w[:-1].sum()
        return cls(points, w)


def cost_matrix(source, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """C[a, b] = psi(x_a - y_b) for a potential handle or checkpoint handle.

    ``source`` is a potential handle (a catalog handle, or a grid potential
    extracted from a flow checkpoint).  All m * k differences go to one
    ``source.values_at`` call, which raises OutOfDomain for the first pair
    (a, b) in row-major order whose difference leaves the domain.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    D = X[:, None, :] - Y[None, :, :]
    return source.values_at(D.reshape(-1, D.shape[2])).reshape(D.shape[:2])


@dataclass
class TransportPlan:
    coupling: np.ndarray
    cost: float
    dual_u: np.ndarray
    dual_v: np.ndarray
    slack_residual: float       # max |C - u - v| on the support
    feasibility_residual: float  # worst min(C - u - v) violation below 0
    marginal_residual: float     # max |row or column sum - weight|

    @property
    def certified(self) -> bool:
        return (self.marginal_residual < SLACK_TOL
                and self.coupling.min() > -SLACK_TOL
                and self.slack_residual < SLACK_TOL
                and self.feasibility_residual > -SLACK_TOL)


def solve_exact(mu: DiscreteMeasure, nu: DiscreteMeasure,
                C: np.ndarray) -> TransportPlan:
    """Exact optimal coupling of two uniform measures of one size m, with
    dual certificate.

    The coupling is an assignment, exact because some optimal coupling is a
    permutation matrix divided by m; the duals are shortest-path potentials
    (``_assignment_duals``).  The returned residuals are computed from the
    weights, C, the plan and the duals.  Raises Infeasible when C does not
    have the measures' shape, and BadParams on a non-finite cost, on sizes
    that differ or on weights that are not uniform.  Suitable for supports
    up to about a thousand points.
    """
    C = np.asarray(C, dtype=float)
    m, k = mu.size, nu.size
    if C.shape != (m, k):
        raise Infeasible(f"cost matrix shape {C.shape} != ({m}, {k})")
    if not np.isfinite(C).all():
        raise BadParams("cost matrix has a NaN or infinite entry")
    if m != k or any(np.abs(w - 1.0 / m).max() > 1e-12
                     for w in (mu.weights, nu.weights)):
        raise BadParams(f"exact OT needs two uniform measures of one size, "
                        f"got sizes {m} and {k}")
    rows, cols = linear_sum_assignment(C)
    P = np.zeros((m, k))
    P[rows, cols] = mu.weights
    u, v = _assignment_duals(C, cols)
    return _residual_plan(mu, nu, C, P, u, v)


def _residual_plan(mu: DiscreteMeasure, nu: DiscreteMeasure, C: np.ndarray,
                   P: np.ndarray, u: np.ndarray, v: np.ndarray) -> TransportPlan:
    """The plan with its cost, its marginal residual against the weights of
    mu and nu, and the residuals of the duals (u, v)."""
    red = C - u[:, None] - v[None, :]
    support = P > 1e-12
    slack = float(np.abs(red[support]).max()) if support.any() else 0.0
    feas = float(red.min())
    marg = max(np.abs(P.sum(axis=1) - mu.weights).max(),
               np.abs(P.sum(axis=0) - nu.weights).max())
    return TransportPlan(coupling=P, cost=float(np.sum(P * C)), dual_u=u,
                         dual_v=v, slack_residual=slack,
                         feasibility_residual=feas,
                         marginal_residual=float(marg))


def _assignment_duals(C: np.ndarray, sigma: np.ndarray):
    """Duals (u, v) with u[a] + v[sigma[a]] = C[a, sigma[a]] and u + v <= C.

    v is the shortest-path distance, from a source with a zero arc to every
    column, in the column graph with an arc sigma[a] -> b of weight
    C[a, b] - C[a, sigma[a]]; C[a, b] - u[a] - v[b] is then that arc's
    weight plus v[sigma[a]] - v[b] >= 0.  Bellman-Ford fixes v within
    m + 1 passes unless the graph has a negative cycle, which would lower
    the assignment's cost: then Infeasible is raised.  A pass counts as a
    change only where it lowers v by more than tol, the rounding a cycle of
    m arcs can gather, so a tie between assignments that rounding turns
    into a cycle of weight -1e-16 is not taken for one; C - u - v then
    stays above about -tol, which the caller's residuals check.
    """
    m = C.shape[0]
    inv = np.empty(m, dtype=int)
    inv[sigma] = np.arange(m)
    W = C[inv] - C[inv, np.arange(m)][:, None]  # W[j, b]: arc j -> b, W[j, j] = 0
    tol = 8 * m * np.finfo(float).eps * np.abs(C).max()
    v = np.zeros(m)
    for _ in range(m + 1):
        nxt = (v[:, None] + W).min(axis=0)
        if np.all(nxt >= v - tol):
            return C[np.arange(m), sigma] - v[sigma], v
        v = nxt
    raise Infeasible("assignment duals found a negative cycle: the "
                     "assignment is not optimal")


def barycentric_map(plan: TransportPlan, Y: np.ndarray) -> np.ndarray:
    """T(x_a) = sum_b coupling[a,b] y_b / mu_a, mu_a the coupling's row mass.

    Refuses (NotDeterministic) when any row's largest entry carries less
    than DOMINANCE_FLOOR of the row mass: such a coupling is too diffuse to
    read as a map.
    """
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    P = plan.coupling
    row_mass = P.sum(axis=1)
    dominance = P.max(axis=1) / np.maximum(row_mass, 1e-300)
    if float(dominance.min()) < DOMINANCE_FLOOR:
        raise NotDeterministic(
            f"row dominance {dominance.min():.3f} below {DOMINANCE_FLOOR}")
    return (P @ Y) / row_mass[:, None]


def holder_modulus(plan: TransportPlan, mu: DiscreteMeasure, Y: np.ndarray,
                   alpha: float) -> float:
    """max over pairs a < b of |T(x_a)-T(x_b)| / |x_a-x_b|^alpha, NaN quotients
    skipped.  A norm is the root of a BLAS dot product, as np.linalg.norm's of
    one pair is; numpy's power may round apart from the scalar one."""
    T, X = barycentric_map(plan, Y), mu.points
    a, b = np.triu_indices(X.shape[0], 1)
    dx, dT = (np.sqrt(d[:, None, :] @ d[:, :, None])[:, 0, 0] for d in (X[a] - X[b], T[a] - T[b]))
    return float(np.fmax.reduce(dT / dx**alpha, initial=0.0))


def plan_tv(P1: np.ndarray, P2: np.ndarray) -> float:
    """Total-variation distance between two couplings on the same grid."""
    return 0.5 * float(np.abs(P1 - P2).sum())


def weak_continuity_rows(costs_by_t: dict, mu: DiscreteMeasure,
                         nu: DiscreteMeasure, alpha: float) -> list[dict]:
    """Solve the instance under each flowed cost; report cost, modulus, and
    plan distance to the t = 0 plan, in increasing t order."""
    ts = sorted(costs_by_t)
    if ts[0] != 0.0:
        raise BadParams("weak-continuity experiment needs the t = 0 cost")
    plans = [solve_exact(mu, nu, costs_by_t[t]) for t in ts]
    rows = []
    for t, plan in zip(ts, plans):
        try:
            modulus = holder_modulus(plan, mu, nu.points, alpha)
        except NotDeterministic:
            modulus = float("nan")
        rows.append({
            "t": t,
            "cost": plan.cost,
            "holder_modulus": modulus,
            "plan_tv_to_t0": plan_tv(plan.coupling, plans[0].coupling),
            "slack_residual": plan.slack_residual,
        })
    return rows

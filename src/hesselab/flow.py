"""Potential-level flow d(psi)/dt = 2 log det Hess(psi) on 2-D grids.

Periodic mode evolves the periodic part of psi = (1/2) x.A.x + u(x) on the
unit torus; the quadratic matrix A is constant under the flow.
Frozen-window mode evolves psi = u on interior nodes of a box window, so
its A is 0; the boundary ring of width 2 (the monitor stencil radius)
follows the linearly extrapolated interior update rather than the PDE.
Holding the ring at its initial values instead is unconditionally unstable
whenever det Hess deviates from 1 (the interior drifts relative to the
ring by 2 log det per unit time, so the interface Hessian loses positivity
at a rate independent of the step size) and would break the fixed-point
property of det-constant potentials; the extrapolated ring is the stable
surrogate.  Because no boundary treatment is exact, the monitored set
retreats inward by the stencil radius per monitor epoch plus a
diffusive-front margin (see monitor_offset).

Spatial discretization is second-order central differences; time stepping
is the classical four-stage explicit scheme with the adaptive step

    dt = 0.25 * h^2 / (2 * max_nodes lambda_max(Hess^-1)),

the linearization being a heat equation with diffusion tensor 2 Hess^-1.

Every stage evaluates the Hessian with one 2-D kernel (_hessian): u is
copied once into a buffer padded by one wrapped node per side, and each
Hessian field is a sum of slices of that buffer.  The sums keep the
operation order of the jets._STENCILS rows, so the fields equal the
roll-based grid_derivative ones bit for bit; window mode discards the
wrapped values on its ring.  The checked nodes are fixed once per step (all
of them on the torus, the window minus its ring), and on the torus log det
is taken without a mask, since every node has just passed the check.
step checks the new state after its four stages (five Hessian evaluations);
run carries that det to the next step's first stage (four per step) in its
loop, not on the state, so a caller's edit of state.u cannot make it stale.

A single writer owns the state during a run; monitors act on snapshots.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _extrema
from .curvature import core_form, oab_trace, scalar
from .errors import (BadParams, IncompatibleMode, SingularHessian,
                     StabilityFailure)
from .jets import (_STENCILS, PotentialJet, pd_check, symmetric_from_orders,
                   symmetrize)
from .potentials import GridPotential, PotentialHandle, QuadraticPlusPeriodic

RING = 2  # boundary ring width == widest monitor stencil radius
MONITOR_KAPPA = 1.25  # heat-kernel standard deviations of monitor_offset's margin
MONITOR_ANGLES = 240  # scan angles of each monitor extremization
KR_TOL = 1e-6  # kr_probe's allowance below zero for ORTH_ABC_min
KR_SAMPLE_PER_AXIS = 5  # kr_probe's monitor nodes per grid axis

CHANNELS = ("S_min", "S_max", "ABC_max", "ORTH_ABC_min", "H_pol_min",
            "O_max", "chen_residual", "hpol_bound_residual")


@dataclass
class GridSpec:
    shape: tuple[int, ...]
    spacing: float | None = None          # derived for torus: 1/shape[0]
    origin: np.ndarray | None = None      # window lower corner


@dataclass
class FlowState:
    mode: str                              # 'periodic' | 'frozen-window'
    u: np.ndarray                          # periodic part / window values
    spacing: float
    origin: np.ndarray
    quad: np.ndarray                       # torus quadratic matrix; 0 on a window
    t: float = 0.0

    @property
    def n(self) -> int:
        return self.u.ndim

    @property
    def shape(self) -> tuple[int, ...]:
        return self.u.shape

    def node_coords(self, idx: tuple[int, ...]) -> np.ndarray:
        return self.origin + self.spacing * np.asarray(idx, dtype=float)


# -- stencil application over whole grids --------------------------------------

def _axis_derivative(u: np.ndarray, axis: int, order: int, h: float) -> np.ndarray:
    offs, coefs = _STENCILS[order]
    out = np.zeros_like(u)
    for o, c in zip(offs, coefs):
        if c == 0.0:
            continue
        out += c * (u if o == 0 else np.roll(u, -o, axis=axis))
    return out / h**order


def grid_derivative(u: np.ndarray, orders: tuple[int, ...], h: float) -> np.ndarray:
    """Mixed partial with the given per-axis orders, periodic wrap.

    Window callers must discard a ring of width 2 where the wrap is invalid.
    """
    out = u
    for axis, order in enumerate(orders):
        if order:
            out = _axis_derivative(out, axis, order, h)
    return out


def _hessian(u: np.ndarray, h: float, quad: np.ndarray) -> list:
    """Total Hessian fields [hxx, hyy, hxy] of (1/2) x.quad.x + u on a 2-D
    grid with periodic wrap.

    u is copied once into a buffer padded by one wrapped node per side, and
    each field is a sum of slices of that buffer.  The sums keep the order of
    the _STENCILS rows, so the fields equal grid_derivative's bit for bit.
    """
    p = np.empty((u.shape[0] + 2, u.shape[1] + 2))
    p[1:-1, 1:-1] = u
    p[0], p[-1] = p[-2], p[1]  # rows first, then whole columns: corners wrap
    p[:, 0], p[:, -1] = p[:, -2], p[:, 1]
    m2 = -2.0 * u
    h2 = h**2
    fields = []
    for i, (minus, plus) in enumerate(((p[:-2, 1:-1], p[2:, 1:-1]),
                                       (p[1:-1, :-2], p[1:-1, 2:]))):
        d = minus + m2  # ((u[i-1] + -2 u[i]) + u[i+1]) / h^2 along axis i
        d += plus
        d /= h2
        d += quad[i, i]
        fields.append(d)
    dx = -0.5 * p[:-2]  # (-u[i-1]/2 + u[i+1]/2) / h along x, then along y
    dx += 0.5 * p[2:]
    dx /= h
    d = -0.5 * dx[:, :-2]
    d += 0.5 * dx[:, 2:]
    d /= h
    d += quad[0, 1]
    fields.append(d)
    return fields


def _interior(state: FlowState) -> tuple:
    """Index of the checked nodes: all of them, or the window minus its ring."""
    if state.mode == "periodic":
        return (slice(None),) * state.n
    return tuple(slice(RING, m - RING) for m in state.shape)


def _checked_det(fields, inner: tuple, t: float) -> np.ndarray:
    """det Hess on the nodes inner, for taking its log.

    Raises StabilityFailure at the first of those nodes where the Hessian is
    not positive definite or det is not finite (a NaN entry included).
    """
    hxx, hyy, hxy = (f[inner] for f in fields)
    det = hxx * hyy - hxy * hxy
    if not det.size or (det.min() > 0.0 and hxx.min() > 0.0 and det.max() < np.inf):
        return det
    first = np.argwhere((det <= 0.0) | (hxx <= 0.0) | ~np.isfinite(det))[0]
    node = tuple(int(v) + (s.start or 0) for v, s in zip(first, inner))
    raise StabilityFailure("Hessian lost positive-definiteness", node=node, time=t)


# -- operations -----------------------------------------------------------------

def init(handle: PotentialHandle, grid: GridSpec, mode: str) -> FlowState:
    """Sample the potential on the grid and verify convexity everywhere.

    Both the grid and the potential must be 2-D.
    """
    if mode not in ("periodic", "frozen-window"):
        raise BadParams(f"unknown boundary mode {mode!r}")
    if mode == "periodic" and not isinstance(handle, QuadraticPlusPeriodic):
        raise IncompatibleMode("periodic mode needs a quadratic-plus-periodic potential")
    if len(grid.shape) != 2 or handle.n != 2:
        kind = "torus" if mode == "periodic" else "window"
        raise BadParams(f"a {len(grid.shape)}-D {kind} grid for a potential in "
                        f"n = {handle.n}: the flow runs on 2-D grids in n = 2")
    if mode == "periodic":
        m = grid.shape[0]
        if m < 1 or any(s != m for s in grid.shape):
            raise BadParams(f"a torus grid needs m x m nodes, m >= 1, got {grid.shape}")
        spacing, origin, quad = 1.0 / m, np.zeros(handle.n), handle.quad.copy()
    else:
        if grid.spacing is None or grid.origin is None:
            raise BadParams("frozen-window mode needs spacing and origin")
        if not 0.0 < grid.spacing < np.inf:
            raise BadParams(f"window spacing must be finite and > 0, got {grid.spacing}")
        if min(grid.shape) < 2 * RING + 1:  # a node inside the ring to check
            raise BadParams(f"window grids need >= {2 * RING + 1} nodes per axis, "
                            f"got {grid.shape}")
        spacing, quad = float(grid.spacing), np.zeros((2, 2))
        origin = np.asarray(grid.origin, dtype=float)
    axes = [origin[i] + np.arange(s) * spacing for i, s in enumerate(grid.shape)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in mesh], axis=1)
    u = (np.array([handle.periodic_value(p) for p in pts]) if mode == "periodic"
         else handle.values_at(pts))
    state = FlowState(mode=mode, u=u.reshape(grid.shape), spacing=spacing,
                      origin=origin, quad=quad)
    _checked_det(_hessian(state.u, spacing, quad), _interior(state), state.t)
    return state


def _lambda_min(state: FlowState) -> float:
    """Smallest Hessian eigenvalue over the checked nodes."""
    inner = _interior(state)
    hxx, hyy, hxy = (f[inner] for f in _hessian(state.u, state.spacing, state.quad))
    tr = hxx + hyy
    det = hxx * hyy - hxy * hxy
    disc = np.sqrt(np.maximum(tr * tr - 4.0 * det, 0.0))
    return float(((tr - disc) / 2.0).min())


def adaptive_dt(state: FlowState) -> float:
    """0.25 h^2 / (2 max lambda_max(Hess^-1)) over checked nodes."""
    lam_min = _lambda_min(state)
    if lam_min <= 0.0 or not np.isfinite(lam_min):
        raise SingularHessian("degenerate Hessian: no stable step size")
    return 0.25 * state.spacing**2 / (2.0 / lam_min)


def _extend_ring(du: np.ndarray) -> None:
    """Fill the boundary ring of du in place by linear extrapolation of the
    interior update."""
    for v in (du, du.T):  # rows, then columns; du.T is a view, so writes land in du
        m = v.shape[0]
        for r in range(RING - 1, -1, -1):
            v[r] = 2.0 * v[r + 1] - v[r + 2]
            v[m - 1 - r] = 2.0 * v[m - 2 - r] - v[m - 3 - r]


def step(state: FlowState, dt: float, carry: list | None = None) -> FlowState:
    """One four-stage explicit step; the window ring follows the interior.

    carry is run's one-item list: det Hess of state on its checked nodes, or
    None.  It stands in for the first stage's and is replaced by the new
    state's, which the step checks anyway.
    """
    carry = [None] if carry is None else carry
    h, t, quad = state.spacing, state.t, state.quad
    periodic = state.mode == "periodic"
    inner = _interior(state)

    def rhs(u, det=None):
        if det is None:
            det = _checked_det(_hessian(u, h, quad), inner, t)
        logdet = np.log(det)
        if periodic:
            return 2.0 * logdet
        du = np.zeros_like(u)
        du[inner] = 2.0 * logdet
        _extend_ring(du)
        return du

    u = state.u
    k1 = rhs(u, carry[0])
    k2 = rhs(u + 0.5 * dt * k1)
    k3 = rhs(u + 0.5 * dt * k2)
    k4 = rhs(u + dt * k3)
    new_u = u + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    if not np.all(np.isfinite(new_u)):
        node = tuple(int(v) for v in np.argwhere(~np.isfinite(new_u))[0])
        raise StabilityFailure("non-finite values", node=node, time=t)
    out = FlowState(mode=state.mode, u=new_u, spacing=h, origin=state.origin,
                    quad=quad, t=t + dt)
    carry[0] = _checked_det(_hessian(new_u, h, quad), inner, out.t)
    return out


# -- grid jets and monitors -------------------------------------------------------

_JET_ORDERS_2D = {
    "grad": ((1, 0), (0, 1)),
    "hess": ((2, 0), (1, 1), (0, 2)),
    "third": ((3, 0), (2, 1), (1, 2), (0, 3)),
    "fourth": ((4, 0), (3, 1), (2, 2), (1, 3), (0, 4)),
}


def grid_jets(state: FlowState) -> dict:
    """All derivative fields needed for curvature monitoring (n = 2)."""
    h = state.spacing
    u = state.u
    fields = {}
    for group, orders in _JET_ORDERS_2D.items():
        for o in orders:
            fields[o] = grid_derivative(u, o, h)
    return fields


def jet_at_node(state: FlowState, fields: dict, idx: tuple[int, int]) -> PotentialJet:
    a = state.quad
    x = state.node_coords(idx)
    grad = np.array([fields[(1, 0)][idx], fields[(0, 1)][idx]]) + a @ x
    hess = np.array([
        [a[0, 0] + fields[(2, 0)][idx], a[0, 1] + fields[(1, 1)][idx]],
        [a[0, 1] + fields[(1, 1)][idx], a[1, 1] + fields[(0, 2)][idx]],
    ])
    third, fourth = (symmetric_from_orders(2, k, lambda o: fields[o][idx])
                     for k in (3, 4))
    value = float(state.u[idx]) + 0.5 * float(x @ a @ x)
    ok, lo, hi = pd_check(hess)
    if not ok:
        raise StabilityFailure(
            f"monitored node lost convexity (lambda_min={lo:.3e})",
            node=idx, time=state.t)
    return PotentialJet(x=x, value=value, gradient=grad, hessian=symmetrize(hess),
                        third=third, fourth=fourth)


def monitor_offset(state0: FlowState, epoch: int, elapsed: float) -> int:
    """Depth (in nodes) excluded from monitoring in window mode.

    The ring error spreads diffusively with coefficient bounded by
    2 max lambda_max(Hess^-1), so the monitored set retreats by RING nodes
    per epoch plus MONITOR_KAPPA standard deviations of the heat kernel.
    """
    if state0.mode == "periodic":
        return 0
    lam_min = _lambda_min(state0)
    diffusion = 2.0 / lam_min
    spread = MONITOR_KAPPA * np.sqrt(2.0 * diffusion * max(elapsed, 0.0)) / state0.spacing
    return RING * (1 + epoch) + int(np.ceil(spread))


def monitor_nodes(state: FlowState, per_axis: int, offset: int) -> list[tuple[int, int]]:
    """Evenly spread sample nodes at depth >= offset from the window edge."""
    lo = 0 if state.mode == "periodic" else offset
    out = []
    for m in state.shape:
        hi = m if state.mode == "periodic" else m - offset
        if hi - lo < 1:
            raise StabilityFailure("monitored window shrank to nothing",
                                   time=state.t)
        out.append(np.unique(np.linspace(lo, hi - 1, per_axis).astype(int)))
    return [(int(i), int(j)) for i in out[0] for j in out[1]]


@dataclass
class MonitorSeries:
    times: list = field(default_factory=list)
    channels: dict = field(default_factory=dict)
    labels: dict = field(default_factory=dict)

    def record(self, t: float, values: dict):
        self.times.append(t)
        for k, v in values.items():
            self.channels.setdefault(k, []).append(v)

    def channel(self, name: str) -> np.ndarray:
        return np.asarray(self.channels[name])


def _channel_values(state: FlowState, nodes) -> dict:
    fields = grid_jets(state)
    S_vals, abc_max, orth_min, hpol_min, o_vals = [], [], [], [], []
    for idx in nodes:
        sample = core_form(jet_at_node(state, fields, idx))
        Ef = sample.E_frame
        S_vals.append(scalar(sample))
        mx, _ = _extrema.pair_extrema(Ef, orth=False, n_angles=MONITOR_ANGLES)
        abc_max.append(mx.value)
        _, omn = _extrema.pair_extrema(Ef, orth=True, n_angles=MONITOR_ANGLES)
        orth_min.append(omn.value)
        _, hmn = _extrema.quartic_extrema(Ef, n_angles=MONITOR_ANGLES)
        hpol_min.append(hmn.value)
        o_vals.append(oab_trace(sample))
    return {
        "S_min": float(np.min(S_vals)), "S_max": float(np.max(S_vals)),
        "ABC_max": float(np.max(abc_max)),
        "ORTH_ABC_min": float(np.min(orth_min)),
        "H_pol_min": float(np.min(hpol_min)),
        "O_max": float(np.max(o_vals)),
    }


def run(state: FlowState, T: float, sample_per_axis: int = 5,
        monitor_epochs: int = 10) -> tuple[FlowState, MonitorSeries]:
    """Advance to time T, recording the CHANNELS every few steps.

    chen_residual is S_min + n/(t + n/K) with K = -(initial S_min) when that
    is positive, else the K -> infinity limit S_min + n/t.  On a stability
    failure the exception carries the partial series.
    """
    if T <= state.t:
        raise BadParams("run needs T > current time")
    dt = adaptive_dt(state)
    steps = max(1, int(np.ceil((T - state.t) / dt)))
    dt = (T - state.t) / steps
    every = max(1, steps // monitor_epochs)
    series = MonitorSeries()
    n = state.n
    state0 = state

    def observe(st: FlowState, epoch: int):
        offset = monitor_offset(state0, epoch, st.t - state0.t)
        nodes = monitor_nodes(st, sample_per_axis, offset)
        vals = _channel_values(st, nodes)
        if series.times:
            K = series.labels["K"]
        else:
            s0 = vals["S_min"]
            K = -s0 if s0 < -1e-12 else np.inf
            series.labels["K"] = K
        shift = n / K if np.isfinite(K) else 0.0
        denom = (st.t - state0.t) + shift
        vals["chen_residual"] = vals["S_min"] + (n / denom if denom > 0 else np.inf)
        bound = (n / denom if denom > 0 else np.inf) + 2.0 * max(vals["O_max"], 0.0)
        vals["hpol_bound_residual"] = (vals["H_pol_min"] / bound
                                       if np.isfinite(bound) and bound > 0 else 0.0)
        series.record(st.t, vals)

    epoch = 0
    observe(state, epoch)
    carry = [None]
    try:
        for k in range(1, steps + 1):
            state = step(state, dt, carry)
            if k % every == 0 or k == steps:
                epoch += 1
                observe(state, epoch)
    except StabilityFailure as exc:
        exc.partial_series = series
        raise
    return state, series


@dataclass
class KrVerdict:
    regular: bool
    epsilon: float
    first_violation: tuple | None
    series: MonitorSeries

    @property
    def label(self) -> str:
        if self.regular:
            return f"KR-WEAKLY-REGULAR({self.epsilon:g})"
        t, v = self.first_violation
        return f"VIOLATION(t={t:g}, ORTH_ABC_min={v:.3e})"


def kr_probe(handle: PotentialHandle, eps: float, grid: GridSpec,
             monitor_epochs: int = 8) -> KrVerdict:
    """Run the frozen-window flow to time eps and test the orthogonal-pair
    minimum.

    The monitor samples KR_SAMPLE_PER_AXIS nodes per axis.  Verdict is
    weakly regular when ORTH_ABC_min >= -KR_TOL at every recorded positive
    time; otherwise the first violating time is reported.
    """
    state = init(handle, grid, "frozen-window")
    _, series = run(state, eps, sample_per_axis=KR_SAMPLE_PER_AXIS,
                    monitor_epochs=monitor_epochs)
    times = np.asarray(series.times)
    vals = series.channel("ORTH_ABC_min")
    for t, v in zip(times[1:], vals[1:]):  # positive times only
        if v < -KR_TOL:
            return KrVerdict(False, eps, (float(t), float(v)), series)
    return KrVerdict(True, eps, None, series)


def to_grid_potential(state: FlowState) -> GridPotential:
    if state.mode != "frozen-window":
        raise BadParams("grid potentials are extracted from window states")
    return GridPotential(state.origin, state.spacing, state.u, name="flow-checkpoint")

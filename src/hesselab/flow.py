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

Spatial discretization is second-order central differences.  The
linearization is a heat equation with diffusion tensor 2 Hess^-1, so an
explicit step is stable for

    dt <= 0.25 * h^2 / (2 * max_nodes lambda_max(Hess^-1)).

Both modes take a stabilized semi-implicit predictor-corrector at
DT_FACTOR times that bound.  With R(u) = 2 log det Hess(u), Delta_h the
3-point stencil Laplacian and kappa = 2 / lambda_min, the largest diffusion
coefficient of the step's first state, it solves

    (I - dt kappa Delta_h) d* = dt R(u),
    (I - dt kappa Delta_h / 2) d = dt (R(u) + R(u + d*)) / 2
                                   - dt kappa Delta_h d* / 2,

and sets u+ = u + d.  The kappa terms cancel to O(dt^3), so the step is
Heun's second-order method stabilized; on a linear mode whose rate is
kappa times its stencil symbol it is Crank-Nicolson.  Each solve is four
small products in an eigenbasis of Delta_h (_helmholtz), built once per grid
and kept.  On the torus it is the real Hartley basis (_hartley): on the
lab's grids (m <= 64) faster than an rfft2/irfft2 pair, and without the
0.3-0.8 MiB that numpy's FFT takes on first use.  On a window d lives at
depth >= RING and the ring extrapolates it, which makes the second
difference 0 on each axis's first and last interior node; the linear
interpolants of the end values and the Dirichlet sines of the nodes between
are then its eigenbasis (_ramp_sines).

Every Hessian evaluation is one 2-D kernel (_hessian) over the checked
nodes: all of them on the torus, where u is copied once into a buffer
padded by one wrapped node per side, and the window minus its ring, whose
stencils read slices of u itself and never reach the wrap.  Each field is
a sum of slices, in the operation order of the jets._STENCILS rows, so the
fields equal whole-grid roll stencils bit for bit (the tests keep those
stencils, grid_derivative in conftest.py, as the oracle).  On the torus log
det is taken without a mask, since every node has just passed the check.
step checks the new state after it is built and keeps that check's det and
lambda_min on it, its u read-only; adaptive_dt and the next step read them,
so a step evaluates the Hessian twice (predictor, new state) in both modes.
A state whose u is replaced is evaluated afresh.  run checks its first
state once, on a copy.

The monitors evaluate the stencils at the monitored nodes only (grid_jets),
on each node's 5 x 5 wrapped patch in the roll stencils' order, so the
values equal the whole-grid ones bit for bit on the torus and at window
depth >= RING.  An epoch's nodes form one stack along a leading axis: one
jet, one core form and one extremizer call per objective, equal to the
node-by-node values bit for bit.  run takes max(E, ceil((T - t) /
adaptive_dt)) steps for E monitor epochs and records t, then after step k
whenever k E // steps grows: epoch j ends at step ceil(j steps / E), the
last at T.

A single writer owns the state during a run; monitors act on snapshots.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

import numpy as np

from . import _extrema
from .curvature import core_form, oab_trace, scalar
from .errors import (BadParams, IncompatibleMode, SingularHessian,
                     StabilityFailure)
from .jets import _STENCILS, PotentialJet, pd_check, symmetric_from_orders
from .potentials import GridPotential, PotentialHandle, QuadraticPlusPeriodic

RING = 2  # boundary ring width == widest monitor stencil radius
MONITOR_KAPPA = 1.25  # heat-kernel standard deviations of monitor_offset's margin
MONITOR_ANGLES = 240  # scan angles of each monitor extremization
DT_FACTOR = 16  # dt over the explicit bound (sweeps in CHANGES.md)

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
    _checked = (None, None, None)          # (u, det, lambda_min) that step stored

    @property
    def n(self) -> int:
        return self.u.ndim

    @property
    def shape(self) -> tuple[int, ...]:
        return self.u.shape

    def node_coords(self, idx: tuple[int, ...]) -> np.ndarray:
        return self.origin + self.spacing * np.asarray(idx, dtype=float)


# -- Hessian fields ------------------------------------------------------------

def _hessian(u: np.ndarray, h: float, quad: np.ndarray, ring: int = 0) -> list:
    """Total Hessian fields [hxx, hyy, hxy] of (1/2) x.quad.x + u on a 2-D
    grid: at every node with periodic wrap if ring is 0, else at the nodes
    at depth >= ring, whose stencils stay inside the grid.

    Each field is a sum of slices of p, which holds the field's nodes and
    one more per side: a copy of u padded by one wrapped node per side, or a
    view of u.  The sums keep the order of the _STENCILS rows, so they equal
    the whole-grid roll stencils bit for bit.
    """
    if ring:
        p = u[ring - 1:u.shape[0] + 1 - ring, ring - 1:u.shape[1] + 1 - ring]
    else:
        p = np.empty((u.shape[0] + 2, u.shape[1] + 2))
        p[1:-1, 1:-1] = u
        p[0], p[-1] = p[-2], p[1]  # rows first, then whole columns: corners wrap
        p[:, 0], p[:, -1] = p[:, -2], p[:, 1]
    m2 = -2.0 * p[1:-1, 1:-1]
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


def _checked_det(fields, ring: int, t: float) -> np.ndarray:
    """det Hess of the fields of the nodes at depth >= ring, for taking its log.

    Raises StabilityFailure at the first of those nodes where the Hessian is
    not positive definite or det is not finite (a NaN entry included).
    """
    hxx, hyy, hxy = fields
    det = hxx * hyy - hxy * hxy
    if not det.size or (det.min() > 0.0 and hxx.min() > 0.0 and det.max() < np.inf):
        return det
    first = np.argwhere((det <= 0.0) | (hxx <= 0.0) | ~np.isfinite(det))[0]
    raise StabilityFailure("Hessian lost positive-definiteness",
                           node=tuple(int(v) + ring for v in first), time=t)


def _lambda_min(fields) -> float:
    """Smallest eigenvalue of the Hessian fields."""
    hxx, hyy, hxy = fields
    tr = hxx + hyy
    det = hxx * hyy - hxy * hxy
    disc = np.sqrt(np.maximum(tr * tr - 4.0 * det, 0.0))
    return float(((tr - disc) / 2.0).min())


def _state_hessian(state: FlowState) -> tuple:
    """(Hessian fields of state, their depth): over all nodes on the torus,
    over the window minus its ring."""
    ring = 0 if state.mode == "periodic" else RING
    return _hessian(state.u, state.spacing, state.quad, ring), ring


def _checks(state: FlowState) -> tuple:
    """(det, lambda_min) of state over its checked nodes: the ones step stored
    if state.u is the array they were taken from, else evaluated and checked."""
    u, det, lam = state._checked
    if u is not state.u:
        fields, ring = _state_hessian(state)
        det, lam = _checked_det(fields, ring, state.t), _lambda_min(fields)
    return det, lam


def _state_lambda_min(state: FlowState) -> float:
    """lambda_min of state over its checked nodes: the one step stored (see
    _checks), else evaluated, unchecked."""
    u, _, lam = state._checked
    return lam if u is state.u else _lambda_min(_state_hessian(state)[0])


def _sealed(state: FlowState) -> FlowState:
    """state with its _checks stored on it and its u read-only; returns state."""
    state._checked = (state.u, *_checks(state))
    state.u.flags.writeable = False
    return state


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
    u = handle.periodic_value(pts) if mode == "periodic" else handle.values_at(pts)
    state = FlowState(mode=mode, u=u.reshape(grid.shape), spacing=spacing,
                      origin=origin, quad=quad)
    _checked_det(*_state_hessian(state), state.t)
    return state


def adaptive_dt(state: FlowState) -> float:
    """DT_FACTOR times the explicit bound 0.25 h^2 / (2 max lambda_max(Hess^-1))
    over the checked nodes, on the torus and the window alike: both take the
    semi-implicit step.  lambda_min is the one step stored on the state, if
    any (see step)."""
    lam_min = _state_lambda_min(state)
    if lam_min <= 0.0 or not np.isfinite(lam_min):
        raise SingularHessian("degenerate Hessian: no stable step size")
    return DT_FACTOR * (0.25 * state.spacing**2 / (2.0 / lam_min))


def _with_ring(d: np.ndarray, ring: int) -> np.ndarray:
    """The update d of the nodes at depth >= ring on the whole grid: d itself
    on the torus; on a window, d inside a ring filled by linear extrapolation,
    rows within d's columns, then whole columns (views of the padded copy)."""
    if not ring:
        return d
    du = np.pad(d, ring)
    for v in (du[:, ring:-ring], du.T):
        m = v.shape[0]
        for r in range(ring - 1, -1, -1):
            v[r] = 2.0 * v[r + 1] - v[r + 2]
            v[m - 1 - r] = 2.0 * v[m - 2 - r] - v[m - 3 - r]
    return du


@functools.cache
def _hartley(m: int, h: float) -> tuple:
    """The Hartley matrix cas(2 pi jk / m) / sqrt(m), symmetric, orthogonal and
    an eigenbasis of the ring's second difference (eigenvalues -4/h^2 sin^2(pi
    k / m)), and the torus symbol of -Delta_h over (j, k), both read-only."""
    k = np.arange(m)
    r = (2 * np.pi / m) * k
    cas = ((np.cos(r) + np.sin(r)) / np.sqrt(m))[np.outer(k, k) % m]
    symbol = (4.0 / h**2) * np.sin(0.5 * r) ** 2
    symbol = symbol[:, None] + symbol
    cas.flags.writeable = symbol.flags.writeable = False
    return cas, symbol


@functools.cache
def _ramp_sines(n: int, h: float) -> tuple:
    """An eigenbasis of the window's second difference on an axis of n
    interior nodes, its inverse and its symbol for -Delta_h, all read-only:
    the linear interpolants of the two end values (symbol 0; one if n is 1),
    then sin(pi k j / (n - 1)) with symbol 4/h^2 sin^2(pi k / (2 (n - 1))),
    k = 1 .. n - 2."""
    s = 1.0 / max(n - 1, 1)
    j, k = s * np.arange(n), np.arange(1, n - 1)
    basis = np.column_stack([1.0 - j, j, np.sin(np.pi * np.outer(j, k))])[:, :n]
    symbol = np.concatenate([[0.0, 0.0], (4.0 / h**2) * np.sin(0.5 * np.pi * s * k) ** 2])
    out = basis, np.linalg.inv(basis), symbol[:n]
    for a in out:
        a.flags.writeable = False
    return out


def _helmholtz(rhs: np.ndarray, c: float, h: float, periodic: bool = True) -> np.ndarray:
    """x with (I - c Delta_h) x = rhs, Delta_h the 3-point stencil Laplacian
    of spacing h: on an m x m torus, four m x m products in _hartley's basis;
    on a window's interior nodes, four products in _ramp_sines' bases."""
    if periodic:
        cas, symbol = _hartley(rhs.shape[0], h)
        return cas @ ((cas @ rhs @ cas) / (1.0 + c * symbol)) @ cas
    (vx, ix, sx), (vy, iy, sy) = (_ramp_sines(m, h) for m in rhs.shape)
    return vx @ ((ix @ rhs @ iy.T) / (1.0 + c * (sx[:, None] + sy))) @ vy.T


def step(state: FlowState, dt: float) -> FlowState:
    """One predictor-corrector step of the module docstring, on the torus and
    the window alike.  Since the predictor gives -dt kappa Delta_h d* =
    dt R(u) - d*, the corrector's right side is dt R(u) + dt R(u + d*) / 2
    - d* / 2, with no Laplacian to apply.

    The new state is checked, its u is read-only and it keeps the det and
    lambda_min of that check, which adaptive_dt and the next step read for
    as long as its u is that array: an in-place edit raises ValueError, and
    a replaced u is evaluated and checked again.
    """
    u, h, quad, t = state.u, state.spacing, state.quad, state.t
    ring = 0 if state.mode == "periodic" else RING
    det, lam_min = _checks(state)
    kappa = 2.0 / lam_min
    r0 = 2.0 * np.log(det)
    pred = _helmholtz(dt * r0, dt * kappa, h, not ring)
    r1 = 2.0 * np.log(_checked_det(_hessian(u + _with_ring(pred, ring), h, quad, ring),
                                   ring, t))
    new_u = u + _with_ring(_helmholtz(dt * r0 + 0.5 * dt * r1 - 0.5 * pred,
                                      0.5 * dt * kappa, h, not ring), ring)
    if not np.all(np.isfinite(new_u)):
        node = tuple(int(v) for v in np.argwhere(~np.isfinite(new_u))[0])
        raise StabilityFailure("non-finite values", node=node, time=t)
    return _sealed(FlowState(mode=state.mode, u=new_u, spacing=h, origin=state.origin,
                             quad=quad, t=t + dt))


# -- grid jets and monitors -------------------------------------------------------

def grid_jets(state: FlowState, nodes) -> dict:
    """The 14 partials of u of orders 1 to 4 at the nodes, as {orders: (N,)
    array}, from each node's 5 x 5 wrapped patch: the _STENCILS rows along
    axis 0, then along axis 1 (see the module docstring)."""
    h = state.spacing
    idx = np.asarray(nodes)
    near = np.arange(-RING, RING + 1)
    rows = (idx[:, :1] + near) % state.shape[0]
    cols = (idx[:, 1:] + near) % state.shape[1]
    patch = state.u[rows[:, :, None], cols[:, None, :]]

    def along(v, order):  # the order-th stencil at the centre of v's axis 1
        offs, coefs = _STENCILS[order]
        out = 0.0
        for o, c in zip(offs, coefs):
            if c != 0.0:
                out = out + c * v[:, RING + o]
        return out / h**order

    across = [patch[:, RING]] + [along(patch, a) for a in range(1, 5)]  # by axis-0 order
    return {(a, b): along(across[a], b) if b else across[a][:, RING]
            for a in range(5) for b in range(5 - a) if a + b}


def jet_at_node(state: FlowState, values: dict, nodes) -> PotentialJet:
    """The stacked jet of psi at the nodes from their grid_jets values; raises
    StabilityFailure at the first node whose Hessian is not positive definite.
    The Hessian adds state.quad's upper triangle, mirrored, so it is symmetric."""
    a = state.quad
    x = state.node_coords(nodes)
    hess, third, fourth = (symmetric_from_orders(2, k, values.__getitem__) for k in (2, 3, 4))
    hess += np.triu(a) + np.triu(a, 1).T
    ok, lo, _ = pd_check(hess)
    if not ok.all():
        k = int(np.argmin(ok))
        raise StabilityFailure(f"monitored node lost convexity (lambda_min={lo[k]:.3e})",
                               node=tuple(nodes[k]), time=state.t)
    return PotentialJet(x=x, value=state.u[tuple(np.asarray(nodes).T)]
                        + 0.5 * np.einsum("ni,ij,nj->n", x, a, x),
                        gradient=np.stack([values[(1, 0)], values[(0, 1)]], axis=1) + x @ a.T,
                        hessian=hess, third=third, fourth=fourth)


def monitor_offset(state0: FlowState, epoch: int, elapsed: float) -> int:
    """Depth (in nodes) excluded from monitoring in window mode.

    The ring error spreads diffusively with coefficient bounded by
    2 max lambda_max(Hess^-1), so the monitored set retreats by RING nodes
    per epoch plus MONITOR_KAPPA standard deviations of the heat kernel.
    """
    if state0.mode == "periodic":
        return 0
    diffusion = 2.0 / _state_lambda_min(state0)
    spread = MONITOR_KAPPA * np.sqrt(2.0 * diffusion * max(elapsed, 0.0)) / state0.spacing
    return RING * (1 + epoch) + int(np.ceil(spread))


def _monitorable(state: FlowState, offset: int) -> bool:
    """Whether state has nodes at depth >= offset on every axis (all on the torus)."""
    return state.mode == "periodic" or min(state.shape) > 2 * offset


def monitor_nodes(state: FlowState, per_axis: int, offset: int) -> list[tuple[int, int]]:
    """Evenly spread sample nodes at depth >= offset from the window edge."""
    if not _monitorable(state, offset):
        raise StabilityFailure("monitored window shrank to nothing", time=state.t)
    lo = 0 if state.mode == "periodic" else offset
    out = [np.unique(np.linspace(lo, m - 1 - lo, per_axis).astype(int)) for m in state.shape]
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
    """The six node channels over the nodes: one stacked jet and core form, and
    one extremizer call per objective, refining only the end its channel reads."""
    sample = core_form(jet_at_node(state, grid_jets(state, nodes), nodes))
    Ef = sample.E_frame
    S = scalar(sample)
    mx, _ = _extrema.pair_extrema(Ef, n_angles=MONITOR_ANGLES, end="max")
    _, omn = _extrema.pair_extrema(Ef, orth=True, n_angles=MONITOR_ANGLES, end="min")
    _, hmn = _extrema.quartic_extrema(Ef, n_angles=MONITOR_ANGLES, end="min")
    return {"S_min": float(S.min()), "S_max": float(S.max()),
            "ABC_max": float(mx.value.max()), "ORTH_ABC_min": float(omn.value.min()),
            "H_pol_min": float(hmn.value.min()), "O_max": float(oab_trace(sample).max())}


def run(state: FlowState, T: float, sample_per_axis: int,
        monitor_epochs: int) -> tuple[FlowState, MonitorSeries]:
    """Advance to time T, recording the CHANNELS at t and at the end of each
    of monitor_epochs epochs (the module docstring gives the rule).

    chen_residual is S_min + n/(t + n/K) with K = -(initial S_min) when that
    is positive, else the K -> infinity limit S_min + n/t.  On a stability
    failure the exception carries the partial series.  The first state is
    checked once, on a copy, whose lambda_min adaptive_dt (SingularHessian
    unless > 0) and then every epoch's monitor_offset read; BadParams before
    the first step if the last epoch's depth leaves no node to monitor.
    """
    if T <= state.t:
        raise BadParams("run needs T > current time")
    state0 = state = _sealed(replace(state, u=state.u.copy()))
    dt = adaptive_dt(state)  # SingularHessian before monitor_offset divides by lambda_min
    depth = monitor_offset(state0, monitor_epochs, T - state0.t)
    if not _monitorable(state0, depth):
        raise BadParams(f"the last epoch's monitor depth, {depth} nodes, leaves no node "
                        f"of the {state.shape[0]} x {state.shape[1]} window")
    steps = max(monitor_epochs, int(np.ceil((T - state.t) / dt)))
    dt = (T - state.t) / steps
    series = MonitorSeries()
    n = state.n

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
    try:
        for k in range(1, steps + 1):
            state = step(state, dt)
            if k * monitor_epochs // steps > epoch:
                epoch += 1
                observe(state, epoch)
    except StabilityFailure as exc:
        exc.partial_series = series
        raise
    return state, series


def to_grid_potential(state: FlowState) -> GridPotential:
    if state.mode != "frozen-window":
        raise BadParams("grid potentials are extracted from window states")
    return GridPotential(state.origin, state.spacing, state.u, name="flow-checkpoint")

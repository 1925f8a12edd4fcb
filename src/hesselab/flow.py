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

A window takes the classical four-stage explicit step at that bound.  On
the torus the step is a stabilized semi-implicit predictor-corrector, which
takes PERIODIC_DT_FACTOR times the bound.  With R(u) = 2 log det Hess(u),
Delta_h the 3-point stencil Laplacian and kappa = 2 / lambda_min, the
largest diffusion coefficient of the step's first state, it solves

    (I - dt kappa Delta_h) d* = dt R(u),
    (I - dt kappa Delta_h / 2) d = dt (R(u) + R(u + d*)) / 2
                                   - dt kappa Delta_h d* / 2,

and sets u+ = u + d.  The kappa terms cancel to O(dt^3), so the step is
Heun's second-order method stabilized; on a linear mode whose rate is
kappa times its stencil symbol it is Crank-Nicolson.  Each solve divides
by the stencil's symbol 4/h^2 (sin^2 pi k_x h + sin^2 pi k_y h) in the
real Hartley basis (_helmholtz): four m x m products, O(m^3).  On the
lab's grids (m <= 64) that takes less time than an rfft2/irfft2 pair, and
it leaves out the 0.3-0.8 MiB of resident memory that numpy's FFT takes on
first use.  The window ring is extrapolated, not periodic, so the window
keeps the explicit step.

Every Hessian evaluation is one 2-D kernel (_hessian): u is copied once
into a buffer padded by one wrapped node per side, and each Hessian field
is a sum of slices of that buffer.  The sums keep the operation order of
the jets._STENCILS rows, so the fields equal whole-grid roll stencils bit
for bit (the tests keep those stencils, grid_derivative in conftest.py, as
the oracle); window mode discards the wrapped values on its ring.  The
checked nodes are fixed once per step (all of them on the torus, the window
minus its ring), and on the torus log det is taken without a mask, since
every node has just passed the check.  step checks the new state after it
is built: a torus step evaluates the Hessian three times (state, predictor,
new state), a window step five times (four stages, new state).  run carries
the new state's Hessian to the next step's first evaluation, not on the
state, so a caller's edit of state.u cannot make it stale.

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

from dataclasses import dataclass, field

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
PERIODIC_DT_FACTOR = 16  # torus dt over the explicit bound (sweep in CHANGES.md)

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


# -- Hessian fields over whole grids --------------------------------------------

def _hessian(u: np.ndarray, h: float, quad: np.ndarray) -> list:
    """Total Hessian fields [hxx, hyy, hxy] of (1/2) x.quad.x + u on a 2-D
    grid with periodic wrap.

    u is copied once into a buffer padded by one wrapped node per side, and
    each field is a sum of slices of that buffer.  The sums keep the order of
    the _STENCILS rows, so they equal the whole-grid roll stencils bit for bit.
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


def _checked_hessian(u: np.ndarray, h: float, quad: np.ndarray, inner: tuple,
                     t: float) -> tuple:
    """(Hessian fields of u, det Hess on the nodes inner), checked by
    _checked_det."""
    fields = _hessian(u, h, quad)
    return fields, _checked_det(fields, inner, t)


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
    _checked_det(_hessian(state.u, spacing, quad), _interior(state), state.t)
    return state


def _lambda_min(fields, inner: tuple) -> float:
    """Smallest eigenvalue of the Hessian fields over the nodes inner."""
    hxx, hyy, hxy = (f[inner] for f in fields)
    tr = hxx + hyy
    det = hxx * hyy - hxy * hxy
    disc = np.sqrt(np.maximum(tr * tr - 4.0 * det, 0.0))
    return float(((tr - disc) / 2.0).min())


def _state_lambda_min(state: FlowState) -> float:
    """Smallest Hessian eigenvalue of state over its checked nodes."""
    return _lambda_min(_hessian(state.u, state.spacing, state.quad), _interior(state))


def adaptive_dt(state: FlowState) -> float:
    """The explicit bound 0.25 h^2 / (2 max lambda_max(Hess^-1)) over the
    checked nodes on a window; PERIODIC_DT_FACTOR times it on the torus,
    whose step is semi-implicit."""
    lam_min = _state_lambda_min(state)
    if lam_min <= 0.0 or not np.isfinite(lam_min):
        raise SingularHessian("degenerate Hessian: no stable step size")
    dt = 0.25 * state.spacing**2 / (2.0 / lam_min)
    return PERIODIC_DT_FACTOR * dt if state.mode == "periodic" else dt


def _extend_ring(du: np.ndarray) -> None:
    """Fill the boundary ring of du in place by linear extrapolation of the
    interior update."""
    for v in (du, du.T):  # rows, then columns; du.T is a view, so writes land in du
        m = v.shape[0]
        for r in range(RING - 1, -1, -1):
            v[r] = 2.0 * v[r + 1] - v[r + 2]
            v[m - 1 - r] = 2.0 * v[m - 2 - r] - v[m - 3 - r]


def _helmholtz(rhs: np.ndarray, c: float, h: float) -> np.ndarray:
    """x with (I - c Delta_h) x = rhs on an m x m torus, Delta_h the 3-point
    stencil Laplacian of spacing h.

    The Hartley matrix cas(2 pi jk / m) / sqrt(m) is symmetric, orthogonal
    and an eigenbasis of the ring's second difference, with eigenvalues
    -4/h^2 sin^2(pi k / m); so the solve is four m x m products.
    """
    m = rhs.shape[0]
    k = np.arange(m)
    r = (2 * np.pi / m) * k
    cas = ((np.cos(r) + np.sin(r)) / np.sqrt(m))[np.outer(k, k) % m]
    symbol = (4.0 / h**2) * np.sin(0.5 * r) ** 2
    return cas @ ((cas @ rhs @ cas) / (1.0 + c * (symbol[:, None] + symbol))) @ cas


def _periodic_update(u, dt, h, quad, fields, det, inner, t) -> np.ndarray:
    """The torus predictor-corrector of the module docstring, from u's
    checked Hessian fields and det.  Since the predictor gives
    -dt kappa Delta_h d* = dt R(u) - d*, the corrector's right side is
    dt R(u) + dt R(u + d*) / 2 - d* / 2, with no Laplacian to apply."""
    kappa = 2.0 / _lambda_min(fields, inner)
    r0 = 2.0 * np.log(det)
    pred = _helmholtz(dt * r0, dt * kappa, h)
    r1 = 2.0 * np.log(_checked_det(_hessian(u + pred, h, quad), inner, t))
    return u + _helmholtz(dt * r0 + 0.5 * dt * r1 - 0.5 * pred, 0.5 * dt * kappa, h)


def _window_update(u, dt, h, quad, det, inner, t) -> np.ndarray:
    """The four-stage explicit step on a window, from u's checked det; the
    ring follows the interior."""
    def rhs(u, det=None):
        if det is None:
            det = _checked_det(_hessian(u, h, quad), inner, t)
        du = np.zeros_like(u)
        du[inner] = 2.0 * np.log(det)
        _extend_ring(du)
        return du

    k1 = rhs(u, det)
    k2 = rhs(u + 0.5 * dt * k1)
    k3 = rhs(u + 0.5 * dt * k2)
    k4 = rhs(u + dt * k3)
    return u + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def step(state: FlowState, dt: float, carry: list | None = None) -> FlowState:
    """One step: the semi-implicit predictor-corrector on the torus, the
    four-stage explicit step on a window (see the module docstring).

    carry is run's one-item list: the Hessian fields of state and its det on
    the checked nodes, or None.  It stands in for the step's first Hessian
    evaluation and is replaced by the new state's, which the step checks
    anyway.
    """
    carry = [None] if carry is None else carry
    h, t, quad = state.spacing, state.t, state.quad
    inner = _interior(state)
    if carry[0] is None:
        carry[0] = _checked_hessian(state.u, h, quad, inner, t)
    fields, det = carry[0]
    if state.mode == "periodic":
        new_u = _periodic_update(state.u, dt, h, quad, fields, det, inner, t)
    else:
        new_u = _window_update(state.u, dt, h, quad, det, inner, t)
    if not np.all(np.isfinite(new_u)):
        node = tuple(int(v) for v in np.argwhere(~np.isfinite(new_u))[0])
        raise StabilityFailure("non-finite values", node=node, time=t)
    out = FlowState(mode=state.mode, u=new_u, spacing=h, origin=state.origin,
                    quad=quad, t=t + dt)
    carry[0] = _checked_hessian(new_u, h, quad, inner, out.t)
    return out


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
    lam_min = _state_lambda_min(state0)
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
    """The six node channels over the nodes: one stacked jet and core form,
    and one call of each extremizer for each objective."""
    sample = core_form(jet_at_node(state, grid_jets(state, nodes), nodes))
    Ef = sample.E_frame
    S = scalar(sample)
    mx, _ = _extrema.pair_extrema(Ef, n_angles=MONITOR_ANGLES)
    _, omn = _extrema.pair_extrema(Ef, orth=True, n_angles=MONITOR_ANGLES)
    _, hmn = _extrema.quartic_extrema(Ef, n_angles=MONITOR_ANGLES)
    return {"S_min": float(S.min()), "S_max": float(S.max()),
            "ABC_max": float(mx.value.max()), "ORTH_ABC_min": float(omn.value.min()),
            "H_pol_min": float(hmn.value.min()), "O_max": float(oab_trace(sample).max())}


def run(state: FlowState, T: float, sample_per_axis: int,
        monitor_epochs: int) -> tuple[FlowState, MonitorSeries]:
    """Advance to time T, recording the CHANNELS at t and at the end of each
    of monitor_epochs epochs (the module docstring gives the rule).

    chen_residual is S_min + n/(t + n/K) with K = -(initial S_min) when that
    is positive, else the K -> infinity limit S_min + n/t.  On a stability
    failure the exception carries the partial series.
    """
    if T <= state.t:
        raise BadParams("run needs T > current time")
    dt = adaptive_dt(state)
    steps = max(monitor_epochs, int(np.ceil((T - state.t) / dt)))
    dt = (T - state.t) / steps
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

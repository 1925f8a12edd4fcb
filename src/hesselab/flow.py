"""Potential-level flow d(psi)/dt = 2 log det Hess(psi) - lambda * psi on grids.

Periodic mode evolves the periodic part of psi = (1/2) x.A.x + u(x) on the
unit torus (the quadratic matrix evolves by dA/dt = -lambda A; for the
unnormalized flow it is constant).  Frozen-window mode evolves interior
nodes of a box window; the boundary ring of width 2 (the monitor stencil
radius) follows the linearly extrapolated interior update rather than the
PDE.  Holding the ring at its initial values instead is unconditionally
unstable whenever det Hess deviates from 1 (the interior drifts relative
to the ring by 2 log det per unit time, so the interface Hessian loses
positivity at a rate independent of the step size) and would break the
fixed-point property of det-constant potentials; the extrapolated ring is
the stable surrogate.  Because no boundary treatment is exact, the
monitored set retreats inward by the stencil radius per monitor epoch plus
a diffusive-front margin (see monitor_offset).

Spatial discretization is second-order central differences; time stepping
is the classical four-stage explicit scheme with the adaptive step

    dt = 0.25 * h^2 / (2 * max_nodes lambda_max(Hess^-1)),

the linearization being a heat equation with diffusion tensor 2 Hess^-1.

Every stage evaluates the Hessian with one kernel (_hessian) for n = 1 and
n = 2: u is copied once into a buffer padded by one wrapped node per side,
and each Hessian field is a sum of slices of that buffer.  The sums keep the
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

import functools
import itertools
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
    quad: np.ndarray | None = None         # torus quadratic matrix
    t: float = 0.0
    lam: float = 0.0

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


@functools.cache
def _pad_plan(n: int):
    """Index tuples _hessian uses on an n-D grid padded by one node per side:
    the unpadded nodes, the wrap copies per axis, the -1/+1 shifts per axis,
    and the shifts of each mixed pair i < j (along i, then along j)."""
    def at(axis, off, full=()):  # nodes shifted by off along axis
        return tuple(slice(1 + off, -1 + off or None) if a == axis else
                     slice(None) if a in full else slice(1, -1) for a in range(n))

    lead = [(slice(None),) * a for a in range(n)]
    wrap = [(s + (0,), s + (-2,), s + (-1,), s + (1,)) for s in lead]
    second = [(at(i, -1), at(i, 1)) for i in range(n)]
    every = tuple(range(n))
    mixed = [(i, j, at(i, -1, (j,)), at(i, 1, (j,)), at(j, -1, every), at(j, 1, every))
             for i, j in itertools.combinations(range(n), 2)]
    return at(0, 0), wrap, second, mixed


def _hessian(u: np.ndarray, h: float, quad: np.ndarray | None) -> list:
    """Total Hessian fields of (1/2) x.quad.x + u with periodic wrap.

    u is copied once into a buffer padded by one wrapped node per side, and
    each field is a sum of slices of that buffer.  The sums keep the order of
    the _STENCILS rows, so the fields equal grid_derivative's bit for bit.
    Returns the diagonal fields in axis order, then hij for i < j.
    """
    n = u.ndim
    inner, wrap, second, mixed = _pad_plan(n)
    p = np.empty(tuple(m + 2 for m in u.shape))
    p[inner] = u
    for lo, lo_src, hi, hi_src in wrap:  # later axes copy whole planes: corners wrap
        p[lo] = p[lo_src]
        p[hi] = p[hi_src]
    a = np.zeros((n, n)) if quad is None else quad
    m2 = -2.0 * u
    h2 = h**2
    fields = []
    for i, (minus, plus) in enumerate(second):  # ((u[i-1] + -2 u[i]) + u[i+1]) / h^2
        d = p[minus] + m2
        d += p[plus]
        d /= h2
        d += a[i, i]
        fields.append(d)
    for i, j, minus_i, plus_i, minus_j, plus_j in mixed:
        di = -0.5 * p[minus_i]  # (-u[i-1]/2 + u[i+1]/2) / h along i, then along j
        di += 0.5 * p[plus_i]
        di /= h
        d = -0.5 * di[minus_j]
        d += 0.5 * di[plus_j]
        d /= h
        d += a[i, j]
        fields.append(d)
    return fields


def _hessian_fields(state: FlowState) -> list:
    """Total Hessian entry fields on the grid: (hxx,) or (hxx, hyy, hxy)."""
    quad = state.quad if state.mode == "periodic" else None
    return _hessian(state.u, state.spacing, quad)


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
    hxx = fields[0][inner]
    if len(fields) == 1:
        det = hxx
        message = "Hessian lost positivity"
    else:
        hyy, hxy = (f[inner] for f in fields[1:])
        det = hxx * hyy - hxy * hxy
        message = "Hessian lost positive-definiteness"
    if not det.size or (det.min() > 0.0 and hxx.min() > 0.0 and det.max() < np.inf):
        return det
    first = np.argwhere((det <= 0.0) | (hxx <= 0.0) | ~np.isfinite(det))[0]
    node = tuple(int(v) + (s.start or 0) for v, s in zip(first, inner))
    raise StabilityFailure(message, node=node, time=t)


# -- operations -----------------------------------------------------------------

def init(handle: PotentialHandle, grid: GridSpec, mode: str,
         lam: float = 0.0) -> FlowState:
    """Sample the potential on the grid and verify convexity everywhere."""
    if mode not in ("periodic", "frozen-window"):
        raise BadParams(f"unknown boundary mode {mode!r}")
    if mode == "periodic":
        if not isinstance(handle, QuadraticPlusPeriodic):
            raise IncompatibleMode(
                "periodic mode needs a quadratic-plus-periodic potential")
        if len(grid.shape) != handle.n:
            raise BadParams(f"a {len(grid.shape)}-D torus grid for a potential "
                            f"in n = {handle.n}")
        m = grid.shape[0]
        if any(s != m for s in grid.shape):
            raise BadParams("torus grids must be square")
        spacing, origin, quad = 1.0 / m, np.zeros(handle.n), handle.quad.copy()
    else:
        if grid.spacing is None or grid.origin is None:
            raise BadParams("frozen-window mode needs spacing and origin")
        if not 0.0 < grid.spacing < np.inf:
            raise BadParams(f"window spacing must be finite and > 0, got {grid.spacing}")
        spacing, quad = float(grid.spacing), None
        origin = np.asarray(grid.origin, dtype=float)
    axes = [origin[i] + np.arange(s) * spacing for i, s in enumerate(grid.shape)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in mesh], axis=1)
    u = (handle.values_at(pts) if quad is None
         else np.array([handle.periodic_value(p) for p in pts]))
    state = FlowState(mode=mode, u=u.reshape(grid.shape), spacing=spacing,
                      origin=origin, quad=quad, lam=lam)
    _checked_det(_hessian_fields(state), _interior(state), state.t)
    return state


def _lambda_min(state: FlowState) -> float:
    """Smallest Hessian eigenvalue over the checked nodes."""
    inner = _interior(state)
    fields = [f[inner] for f in _hessian_fields(state)]
    if state.n == 1:
        return float(fields[0].min())
    hxx, hyy, hxy = fields
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
    for axis in range(du.ndim):
        v = np.moveaxis(du, axis, 0)  # a view: writes land in du
        m = v.shape[0]
        for r in range(RING - 1, -1, -1):
            v[r] = 2.0 * v[r + 1] - v[r + 2]
            v[m - 1 - r] = 2.0 * v[m - 2 - r] - v[m - 3 - r]


def step(state: FlowState, dt: float | None = None,
         carry: list | None = None) -> FlowState:
    """One four-stage explicit step; the window ring follows the interior.

    carry is run's one-item list: det Hess of state on its checked nodes, or
    None.  It stands in for the first stage's and is replaced by the new
    state's, which the step checks anyway.
    """
    if dt is None:
        dt = adaptive_dt(state)
    carry = [None] if carry is None else carry
    h, lam, t = state.spacing, state.lam, state.t
    periodic = state.mode == "periodic"
    inner = _interior(state)

    def rhs(u, quad, det=None):
        if det is None:
            det = _checked_det(_hessian(u, h, quad if periodic else None), inner, t)
        logdet = np.log(det)
        if periodic:
            du = 2.0 * logdet - lam * u
        else:
            du = np.zeros_like(u)
            du[inner] = 2.0 * logdet - lam * u[inner]
            _extend_ring(du)
        return du, None if quad is None else -lam * quad

    def adv(field, k, frac):
        return None if field is None else field + frac * dt * k

    u, q = state.u, state.quad
    k1u, k1q = rhs(u, q, carry[0])
    k2u, k2q = rhs(adv(u, k1u, 0.5), adv(q, k1q, 0.5))
    k3u, k3q = rhs(adv(u, k2u, 0.5), adv(q, k2q, 0.5))
    k4u, k4q = rhs(adv(u, k3u, 1.0), adv(q, k3q, 1.0))
    new_u = u + (dt / 6.0) * (k1u + 2 * k2u + 2 * k3u + k4u)
    new_q = None if q is None else q + (dt / 6.0) * (k1q + 2 * k2q + 2 * k3q + k4q)
    if not np.all(np.isfinite(new_u)):
        node = tuple(int(v) for v in np.argwhere(~np.isfinite(new_u))[0])
        raise StabilityFailure("non-finite values", node=node, time=t)
    out = FlowState(mode=state.mode, u=new_u, spacing=h, origin=state.origin,
                    quad=new_q, t=t + dt, lam=lam)
    carry[0] = _checked_det(_hessian_fields(out), inner, out.t)
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
    if state.n != 2:
        raise BadParams("curvature monitoring is implemented for n = 2 grids")
    h = state.spacing
    u = state.u
    fields = {}
    for group, orders in _JET_ORDERS_2D.items():
        for o in orders:
            fields[o] = grid_derivative(u, o, h)
    return fields


def jet_at_node(state: FlowState, fields: dict, idx: tuple[int, int]) -> PotentialJet:
    a = state.quad if (state.quad is not None and state.mode == "periodic") \
        else np.zeros((2, 2))
    x = state.node_coords(idx)
    grad = np.array([fields[(1, 0)][idx], fields[(0, 1)][idx]])
    if state.quad is not None and state.mode == "periodic":
        grad = grad + a @ x
    hess = np.array([
        [a[0, 0] + fields[(2, 0)][idx], a[0, 1] + fields[(1, 1)][idx]],
        [a[0, 1] + fields[(1, 1)][idx], a[1, 1] + fields[(0, 2)][idx]],
    ])
    third, fourth = (symmetric_from_orders(2, k, lambda o: fields[o][idx])
                     for k in (3, 4))
    value = float(state.u[idx])
    if state.quad is not None and state.mode == "periodic":
        value += 0.5 * float(x @ a @ x)
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


def run(state: FlowState, T: float, sample_per_axis: int = 5, monitor_epochs: int = 10,
        dt: float | None = None) -> tuple[FlowState, MonitorSeries]:
    """Advance to time T, recording the CHANNELS every few steps.

    chen_residual is S_min + n/(t + n/K) with K = -(initial S_min) when that
    is positive, else the K -> infinity limit S_min + n/t.  On a stability
    failure the exception carries the partial series.
    """
    if T <= state.t:
        raise BadParams("run needs T > current time")
    if dt is None:
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
        t_rel = st.t - series.labels.get("t0", st.t)
        if not series.times:
            series.labels["t0"] = st.t
            t_rel = 0.0
        denom = t_rel + shift
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
             mode: str = "frozen-window", monitor_epochs: int = 8) -> KrVerdict:
    """Run the flow to time eps and test the orthogonal-pair minimum.

    The monitor samples KR_SAMPLE_PER_AXIS nodes per axis.  Verdict is
    weakly regular when ORTH_ABC_min >= -KR_TOL at every recorded positive
    time; otherwise the first violating time is reported.
    """
    state = init(handle, grid, mode)
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

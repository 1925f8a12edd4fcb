from dataclasses import replace

import numpy as np
import pytest

from conftest import (bidisk_product_exact, cone2d_exact, grid_derivative, quadratic,
                      ref_adaptive_dt, ref_channel_values, ref_extend_ring, ref_helmholtz,
                      ref_window_step)
from hesselab import flow
from hesselab.cli import _write_series
from hesselab.errors import (BadParams, IncompatibleMode, SingularHessian,
                             StabilityFailure)
from hesselab.potentials import CalabiBall, LogBarrier, catalog


def torus(m=32):
    return flow.GridSpec(shape=(m, m))


def ball_window():
    return flow.GridSpec(shape=(40, 40), spacing=0.025,
                         origin=np.array([-0.5, -0.5]))


def radial_window():
    return flow.GridSpec(shape=(44, 44), spacing=0.028,
                         origin=np.array([0.35, -0.55]))


# -- init / dt ----------------------------------------------------------------------

def test_init_quadratic_torus_unit_det():
    state = flow.init(quadratic(2), torus(64), "periodic")
    hxx, hyy, hxy = flow._hessian(state.u, state.spacing, state.quad)
    det = hxx * hyy - hxy * hxy
    assert np.allclose(det, 1.0, atol=1e-12)


def test_init_perturbed_torus_valid():
    handle = catalog("quadratic_plus_periodic", amplitude=0.05)
    state = flow.init(handle, torus(32), "periodic")
    assert state.t == 0.0


def test_init_window_valid(ball2):
    state = flow.init(ball2, ball_window(), "frozen-window")
    assert state.mode == "frozen-window"


@pytest.mark.parametrize("spacing", [0.0, -0.025, np.nan, np.inf])
def test_init_window_rejects_bad_spacing(ball2, spacing):
    grid = flow.GridSpec(shape=(40, 40), spacing=spacing, origin=np.array([-0.5, -0.5]))
    with pytest.raises(BadParams, match="spacing"):
        flow.init(ball2, grid, "frozen-window")


@pytest.mark.parametrize("n, shape", [(3, (8, 8)), (2, (8,)), (2, (8, 8, 8)),
                                      (1, (8,)), (3, (8, 8, 8))])
def test_init_torus_rejects_a_grid_of_another_dimension(n, shape):
    handle = catalog("quadratic_plus_periodic", n=n, amplitude=0.05)
    with pytest.raises(BadParams, match="torus grid"):
        flow.init(handle, flow.GridSpec(shape=shape), "periodic")


def test_incompatible_mode(ball2):
    with pytest.raises(IncompatibleMode):
        flow.init(ball2, torus(16), "periodic")
    with pytest.raises(BadParams):
        flow.init(quadratic(2), torus(16), "no-such-mode")


@pytest.mark.parametrize("handle, shape", [
    (LogBarrier(), (32,)), (LogBarrier(), (32, 32)),
    (CalabiBall(n=2), (32,)), (CalabiBall(n=3), (8, 8, 8))])
def test_init_window_rejects_a_grid_or_potential_that_is_not_2d(handle, shape):
    """The flow runs on 2-D grids in n = 2 only; a window of another grid or
    potential dimension is refused before the potential is sampled."""
    grid = flow.GridSpec(shape=shape, spacing=0.01, origin=np.full(len(shape), 0.5))
    with pytest.raises(BadParams, match="window grid for a potential in n = "):
        flow.init(handle, grid, "frozen-window")


def test_adaptive_dt_formula():
    """16 times 0.25 h^2 / (2 / lambda_min), on the torus and a window alike."""
    assert flow.DT_FACTOR == 16
    state = flow.init(quadratic(2), torus(64), "periodic")
    assert flow.adaptive_dt(state) == pytest.approx(16 * 0.25 / (2 * 64**2), rel=1e-12)
    doubled = flow.init(quadratic(2, quad=2.0 * np.eye(2)), torus(64), "periodic")
    assert flow.adaptive_dt(doubled) == pytest.approx(16 * 0.25 / 64**2, rel=1e-12)
    window = flow.GridSpec(shape=(16, 16), spacing=1.0 / 16, origin=np.zeros(2))
    doubled = flow.init(quadratic(2, quad=2.0 * np.eye(2)), window, "frozen-window")
    assert flow.adaptive_dt(doubled) == pytest.approx(16 * 0.25 / 16**2, rel=1e-12)


def _hessian_states():
    ball = catalog("calabi_ball", n=2)
    quad = np.array([[1.5, 0.25], [0.25, 0.75]])
    bumpy = catalog("quadratic_plus_periodic", quad=quad, amplitude=0.05, wave=(1, 2))
    torus_state = flow.init(bumpy, torus(24), "periodic")
    window = flow.init(ball, ball_window(), "frozen-window")
    return {"periodic-2d": torus_state, "window-2d": window}


@pytest.mark.parametrize("which", ["periodic-2d", "window-2d"])
def test_hessian_fields_match_grid_derivative(which):
    """The padded-buffer kernel equals the per-axis roll stencils bit for bit."""
    state = _hessian_states()[which]
    a = state.quad if state.mode == "periodic" else np.zeros((2, 2))
    orders = [((2, 0), a[0, 0]), ((0, 2), a[1, 1]), ((1, 1), a[0, 1])]
    fields = flow._hessian(state.u, state.spacing, state.quad)
    assert len(fields) == len(orders)
    for got, (o, base) in zip(fields, orders):
        want = base + grid_derivative(state.u, o, state.spacing)
        assert got.shape == state.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("which", ["periodic-2d", "window-2d"])
def test_node_stencils_match_grid_derivative(which):
    """grid_jets at every torus node (rows and columns 0 and m - 1 among them)
    and every window node at depth >= RING equals the whole-grid roll
    stencils bit for bit."""
    state = _hessian_states()[which]
    depth = 0 if state.mode == "periodic" else flow.RING
    nodes = [(i, j) for i in range(depth, state.shape[0] - depth)
             for j in range(depth, state.shape[1] - depth)]
    got = flow.grid_jets(state, nodes)
    orders = sorted(got)
    assert orders == sorted((a, b) for a in range(5) for b in range(5) if 1 <= a + b <= 4)
    rows, cols = np.array(nodes).T
    for o in orders:
        want = grid_derivative(state.u, o, state.spacing)
        assert got[o].shape == (len(nodes),)
        assert got[o].tobytes() == want[rows, cols].tobytes(), o


@pytest.mark.parametrize("which,node,message", [
    ("periodic-2d", (7, 7), "positive-definiteness"),
    ("window-2d", (13, 13), "positive-definiteness"),
])
def test_nonconvex_bump_fails_at_its_node(which, node, message):
    """A spike that breaks convexity fails the first stage at a fixed node,
    with the state's time."""
    state = _hessian_states()[which]
    state.t = 0.25
    idx = tuple(m // 3 for m in state.shape)
    state.u[idx] += 0.5 * state.spacing**2 * 8.0
    with pytest.raises(StabilityFailure, match=message) as err:
        flow.step(state, 1e-6)
    assert err.value.node == node
    assert err.value.time == 0.25


@pytest.mark.parametrize("which", ["periodic-2d", "window-2d"])
def test_interior_fields_match_grid_derivative(which):
    """The fields at depth >= RING read no node of depth 0, so no wrapped one,
    and equal the whole-grid roll stencils there bit for bit."""
    state = _hessian_states()[which]
    inner = (slice(flow.RING, -flow.RING),) * 2
    a = state.quad
    orders = [((2, 0), a[0, 0]), ((0, 2), a[1, 1]), ((1, 1), a[0, 1])]
    u = np.full_like(state.u, np.nan)  # depth 0 is NaN
    u[1:-1, 1:-1] = state.u[1:-1, 1:-1]
    fields = flow._hessian(u, state.spacing, state.quad, flow.RING)
    for got, (o, base) in zip(fields, orders):
        want = (base + grid_derivative(state.u, o, state.spacing))[inner]
        assert got.tobytes() == want.tobytes()


def test_ring_fill_reads_the_interior_only():
    """_with_ring, given the interior alone, fills the ring around it as the
    first-written fill fills a zeroed one, bit for bit; a torus update (ring
    0) comes back as is."""
    interior = np.random.default_rng(5).normal(size=(8, 9))
    want = np.zeros((12, 13))
    want[2:-2, 2:-2] = interior
    ref_extend_ring(want)
    assert flow._with_ring(interior, flow.RING).tobytes() == want.tobytes()
    assert flow._with_ring(interior, 0) is interior


# -- the window step against fresh evaluations -------------------------------------

OT_WINDOW = flow.GridSpec(shape=(36, 36), spacing=0.036, origin=np.array([0.55, -0.65]))


def fresh(state: flow.FlowState) -> flow.FlowState:
    """state with a copy of its u, so that step and adaptive_dt read nothing
    that an earlier step stored and evaluate its Hessian afresh."""
    return replace(state, u=state.u.copy())


def fresh_step(state: flow.FlowState, dt: float, step=flow.step) -> flow.FlowState:
    """The public step (bound at import, so that a patched flow.step may call
    this) on a fresh copy of state."""
    return step(fresh(state), dt)


def fresh_adaptive_dt(state: flow.FlowState) -> float:
    """DT_FACTOR times the explicit bound from the padded whole-grid Hessian."""
    return flow.DT_FACTOR * ref_adaptive_dt(state)


def test_ot_window_loop_equals_fresh_steps(radial):
    """ot-window's loop, adaptive_dt and step up to each checkpoint time, gives
    the checkpoints of public step calls on fresh states, with the bound from
    the whole-grid Hessian, bit for bit, in 26 steps (the explicit bound took
    392)."""
    state = ref = flow.init(radial, OT_WINDOW, "frozen-window")
    steps = 0
    for t in (0.004, 0.008):
        while state.t < t - 1e-12:
            state = flow.step(state, min(flow.adaptive_dt(state), t - state.t))
            steps += 1
        while ref.t < t - 1e-12:
            ref = fresh_step(ref, min(fresh_adaptive_dt(ref), t - ref.t))
        assert state.t == ref.t
        assert state.u.tobytes() == ref.u.tobytes()
    assert steps == 26


@pytest.mark.parametrize("name, grid, T", [("calabi_ball", ball_window(), 0.006),
                                           ("radial_sym", radial_window(), 0.0015)])
def test_window_run_equals_fresh_steps(monkeypatch, name, grid, T):
    """flow.run on a window records the series and reaches the final u of a
    run through public step calls on fresh states and the bound from the
    whole-grid Hessian, bit for bit."""
    handle = catalog(name, n=2) if name == "calabi_ball" else catalog(name, C=1.0)
    state = flow.init(handle, grid, "frozen-window")
    out = []
    for patch in ({}, {"step": fresh_step, "adaptive_dt": fresh_adaptive_dt}):
        with monkeypatch.context() as m:
            for attr, fn in patch.items():
                m.setattr(flow, attr, fn)
            final, series = flow.run(state, T, monitor_epochs=3, sample_per_axis=3)
        out.append((final.t, final.u.tobytes(), np.asarray(series.times).tobytes(),
                    {k: np.asarray(v).tobytes() for k, v in series.channels.items()}))
    assert out[0] == out[1]


@pytest.mark.parametrize("which, counts", [("window-2d", [4, 2, 2, 2]),
                                           ("periodic-2d", [4, 2, 2, 2])])
def test_hessian_evaluations_per_step(monkeypatch, which, counts):
    """adaptive_dt then step: from a state that step returned, a window or
    torus step evaluates the Hessian twice (predictor and new state); from an
    init state, adaptive_dt and the step's first state evaluate it too."""
    state = _hessian_states()[which]
    calls, real = [], flow._hessian
    monkeypatch.setattr(flow, "_hessian", lambda *a: calls.append(1) or real(*a))
    got = []
    for _ in counts:
        before = len(calls)
        state = flow.step(state, flow.adaptive_dt(state))
        got.append(len(calls) - before)
    assert got == counts


@pytest.mark.parametrize("which, per_step", [("window-2d", 2), ("periodic-2d", 2)])
def test_run_checks_its_first_state_once(monkeypatch, which, per_step):
    """run evaluates its first state's Hessian once, for adaptive_dt, every
    epoch's monitor_offset and the first step alike, then per_step times a
    step."""
    state = _hessian_states()[which]
    T = 8.5 * flow.adaptive_dt(state)  # 9 steps
    calls, real = [], flow._hessian
    monkeypatch.setattr(flow, "_hessian", lambda *a: calls.append(1) or real(*a))
    flow.run(state, T, monitor_epochs=3, sample_per_axis=2)
    assert len(calls) == 1 + 9 * per_step


# -- stepped states are read-only ---------------------------------------------------

def test_stepped_state_is_read_only_and_init_state_is_not(ball2):
    state = flow.init(ball2, ball_window(), "frozen-window")
    out = flow.step(state, 1e-6)
    with pytest.raises(ValueError):
        out.u[5, 5] += 1.0
    state.u[5, 5] += 0.0
    assert state.u.flags.writeable


def test_replaced_u_of_a_stepped_state_is_checked_again():
    """adaptive_dt and step read the Hessian of a stepped window state's
    replaced u, and the non-convex bump on an edited copy of its u fails the
    next step at its node, with the state's time."""
    state = flow.step(_hessian_states()["window-2d"], 1e-9)
    state.u = 2.0 * state.u
    assert flow.adaptive_dt(state) == fresh_adaptive_dt(state)
    assert flow.step(state, 1e-6).u.tobytes() == fresh_step(state, 1e-6).u.tobytes()
    state.u = state.u / 2.0
    state.t = 0.25
    state.u[tuple(m // 3 for m in state.shape)] += 0.5 * state.spacing**2 * 8.0
    with pytest.raises(StabilityFailure, match="positive-definiteness") as err:
        flow.step(state, 1e-6)
    assert err.value.node == (13, 13)
    assert err.value.time == 0.25


# -- batched monitors against the node-by-node oracle --------------------------------

TORUS_WAVES = ((1, 0), (0, 1), (1, 1), (1, -1), (2, 0),
               (0, 2), (2, 1), (1, 2), (2, -1), (1, -2))


def _batched_and_node_by_node(monkeypatch, state, T, per_axis, epochs):
    """The channel series of one run with the batched monitors and one with
    ref_channel_values, each as {channel: bytes}, with the times' bytes."""
    out = []
    for monitor in (flow._channel_values, ref_channel_values):
        with monkeypatch.context() as m:
            m.setattr(flow, "_channel_values", monitor)
            _, series = flow.run(state, T, per_axis, epochs)
        out.append(({k: np.asarray(v).tobytes() for k, v in series.channels.items()},
                    np.asarray(series.times).tobytes()))
    return out


@pytest.mark.parametrize("wave", TORUS_WAVES + (None,))
def test_batched_monitors_equal_node_by_node_on_the_torus(monkeypatch, wave):
    """A 64^2 torus run to T = 0.008 with 3 epochs on 3 x 3 nodes records
    every channel bit for bit as the node-by-node monitors do, for each of
    the ten single waves and the flat torus."""
    handle = (catalog("quadratic_plus_periodic", amplitude=0.0) if wave is None else
              catalog("quadratic_plus_periodic", amplitude=0.2, wave=wave))
    state = flow.init(handle, torus(64), "periodic")
    batched, node_by_node = _batched_and_node_by_node(monkeypatch, state, 0.008, 3, 3)
    assert batched == node_by_node


@pytest.mark.parametrize("per_axis", [3, 4, 5])
@pytest.mark.parametrize("name", ["calabi_ball", "radial_sym"])
def test_batched_monitors_equal_node_by_node_on_windows(monkeypatch, name, per_axis):
    """Window runs of calabi_ball and radial_sym, 2 epochs on 3, 4 and 5
    nodes per axis, record the node-by-node series bit for bit."""
    handle, grid = ((catalog("calabi_ball", n=2), ball_window()) if name == "calabi_ball"
                    else (catalog("radial_sym", C=1.0), radial_window()))
    state = flow.init(handle, grid, "frozen-window")
    T = 6 * flow.adaptive_dt(state)
    batched, node_by_node = _batched_and_node_by_node(monkeypatch, state, T, per_axis, 2)
    assert batched == node_by_node


def test_nonconvex_monitored_node_fails_at_its_node():
    """Monitored nodes whose stencil Hessian is not positive definite raise
    StabilityFailure naming the first of them in the node order, with the
    state's time, as the node-by-node monitors do."""
    state = _hessian_states()["periodic-2d"]
    state.t = 0.125
    nodes = flow.monitor_nodes(state, 3, 0)
    for idx in (nodes[5], nodes[2]):  # lowers hxx there by 8, below quad[0, 0]
        state.u[idx] += 0.5 * state.spacing**2 * 8.0
    for monitor in (flow._channel_values, ref_channel_values):
        with pytest.raises(StabilityFailure, match="monitored node lost convexity") as err:
            monitor(state, nodes)
        assert err.value.node == nodes[2]
        assert err.value.time == 0.125


# a step that the semi-implicit window step does not survive on ball_window:
# one of 2e4 DT_FACTOR = 3.2e5 explicit bounds (1e5 bounds still passes)
OVERSIZED = 2e4


def test_oversized_window_step_fails_after_the_step(ball2):
    """The predictor passes; the new state's check fails at its first
    non-convex node, at the new time."""
    state = flow.init(ball2, ball_window(), "frozen-window")
    dt = OVERSIZED * flow.adaptive_dt(state)
    with pytest.raises(StabilityFailure, match="positive-definiteness") as err:
        flow.step(state, dt)
    assert err.value.node == (2, 2)
    assert err.value.time == dt


def test_checked_det_rejects_a_nan_entry():
    """A NaN in hxy alone leaves hxx positive; the det check catches it."""
    ones, hxy = np.ones((3, 3)), np.zeros((3, 3))
    hxy[1, 2] = np.nan
    with pytest.raises(StabilityFailure, match="positive-definiteness") as err:
        flow._checked_det([ones, ones, hxy], 0, 0.0)
    assert err.value.node == (1, 2)


class NanSampleBall(CalabiBall):
    """-log(1 - |x|^2) with a NaN value at the origin."""

    def _value(self, x):
        return np.nan if not x.any() else super()._value(x)


def test_window_init_rejects_a_nan_sample():
    """u[20, 20] (the origin) is NaN, so the first checked node with a NaN
    Hessian is its diagonal neighbour (19, 19), through hxy."""
    with pytest.raises(StabilityFailure, match="positive-definiteness") as err:
        flow.init(NanSampleBall(), ball_window(), "frozen-window")
    assert err.value.node == (19, 19)


def test_adaptive_dt_singular():
    degenerate = flow.FlowState(mode="frozen-window", u=np.zeros((12, 12)),
                                spacing=0.1, origin=np.zeros(2), quad=np.zeros((2, 2)))
    with pytest.raises(SingularHessian):
        flow.adaptive_dt(degenerate)


def test_run_on_a_near_degenerate_window_raises_singular_hessian():
    """A window whose checked Hessian is diag(1, 1e-20) passes the det check
    (det = 1e-20 > 0), but lambda_min rounds to 0; run raises SingularHessian
    before monitor_offset divides by it."""
    i, j = np.meshgrid(np.arange(5.0) - 2.0, np.arange(5.0) - 2.0, indexing="ij")
    state = flow.FlowState(mode="frozen-window", u=0.5 * i**2 + 0.5e-20 * j**2,
                           spacing=1.0, origin=np.zeros(2), quad=np.zeros((2, 2)))
    fields = flow._hessian(state.u, 1.0, state.quad, flow.RING)
    assert flow._checked_det(fields, flow.RING, 0.0).min() > 0.0
    assert flow._lambda_min(fields) == 0.0
    with pytest.raises(SingularHessian):
        flow.run(state, 1.0, sample_per_axis=3, monitor_epochs=1)


# -- stepping ------------------------------------------------------------------------

def test_quadratic_exactly_stationary():
    state = flow.init(quadratic(2), torus(64), "periodic")
    out = state
    for _ in range(20):
        out = flow.step(out, flow.adaptive_dt(out))
    assert np.abs(out.u - state.u).max() == 0.0


def test_constant_hessian_uniform_drift():
    c = 2.0
    state = flow.init(quadratic(2, quad=c * np.eye(2)), torus(32), "periodic")
    dt = 1e-4
    out = state
    for _ in range(10):
        out = flow.step(out, dt)
    expect = 2 * 2 * np.log(c) * out.t  # 2 n t log c, n = 2
    assert np.abs(out.u - state.u - expect).max() < 1e-12


@pytest.mark.parametrize("wave,k2", [((1, 0), 1.0), ((1, 1), 2.0)])
def test_linearized_decay_rates(wave, k2):
    """Small periodic perturbations decay at 8 pi^2 |k|^2 within 5%."""
    eps = 1e-4
    amp = eps * (2 * np.pi) ** 2 * k2
    handle = catalog("quadratic_plus_periodic", amplitude=amp, wave=wave)
    state = flow.init(handle, torus(64), "periodic")
    k = np.asarray(wave, dtype=float)
    axes = [np.arange(64) / 64.0 for _ in range(2)]
    mesh = np.meshgrid(*axes, indexing="ij")
    phase = 2 * np.pi * (k[0] * mesh[0] + k[1] * mesh[1])
    mode = np.cos(phase)

    def amplitude(st):
        return 2.0 * float(np.mean(st.u * mode))

    a0 = amplitude(state)
    T = 0.004 / k2
    steps = int(np.ceil(T / flow.adaptive_dt(state)))
    out = state
    dt = T / steps
    for _ in range(steps):
        out = flow.step(out, dt)
    a1 = amplitude(out)
    rate = np.log(a0 / a1) / out.t
    assert rate == pytest.approx(8 * np.pi**2 * k2, rel=0.05)


def test_helmholtz_solve_matches_a_dense_solve():
    """The Hartley-basis solve of (I - c Delta_h) x = rhs on a 6 x 6 torus
    equals a dense solve with the 3-point stencil Laplacian."""
    m, h, c = 6, 1.0 / 6, 0.37
    ring = np.roll(np.eye(m), 1, axis=1) + np.roll(np.eye(m), -1, axis=1) - 2 * np.eye(m)
    laplacian = (np.kron(ring, np.eye(m)) + np.kron(np.eye(m), ring)) / h**2
    rhs = np.random.default_rng(5).normal(size=(m, m))
    dense = np.linalg.solve(np.eye(m * m) - c * laplacian, rhs.ravel()).reshape(m, m)
    assert np.abs(flow._helmholtz(rhs, c, h) - dense).max() <= 1e-13


@pytest.mark.parametrize("m", [16, 24, 64])
def test_cached_helmholtz_equals_the_uncached_solve(m):
    """The solve on the cached basis equals the basis built afresh on every
    call to the bit, on later calls too; the cached arrays are read-only."""
    h = 1.0 / m
    rhs = np.random.default_rng(m).normal(size=(m, m))
    for c in (3.1e-4, 0.37):
        for _ in range(2):
            assert flow._helmholtz(rhs, c, h).tobytes() == ref_helmholtz(rhs, c, h).tobytes()
    cas, symbol = flow._hartley(m, h)
    assert flow._hartley(m, h)[0] is cas
    for a in (cas, symbol):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0] = 0.0


def dense_window_laplacian(shape: tuple, h: float) -> np.ndarray:
    """The 5-point Laplacian of a window's interior, its ring filled by
    _with_ring, as a dense matrix: one column per interior node."""
    cols = []
    for e in np.eye(shape[0] * shape[1]):
        full = flow._with_ring(e.reshape(shape), flow.RING)
        lap = grid_derivative(full, (2, 0), h) + grid_derivative(full, (0, 2), h)
        cols.append(lap[flow.RING:-flow.RING, flow.RING:-flow.RING].ravel())
    return np.stack(cols, axis=1)


@pytest.mark.parametrize("grid", [(9, 13), (5, 5), (6, 6), (5, 8)])
def test_window_helmholtz_matches_a_dense_solve(grid):
    """The solve on a window's interior equals a dense solve of (I - c Delta_h)
    with the Laplacian of the ring-filled grid: on a rectangular window, and on
    5 x 5 and 6 x 6 grids, whose 1 and 2 interior nodes per axis have no sine."""
    h, c = 0.1, 0.37e-2
    shape = tuple(m - 2 * flow.RING for m in grid)
    laplacian = dense_window_laplacian(shape, h)
    rhs = np.random.default_rng(sum(grid)).normal(size=shape)
    dense = np.linalg.solve(np.eye(laplacian.shape[0]) - c * laplacian,
                            rhs.ravel()).reshape(shape)
    assert np.abs(flow._helmholtz(rhs, c, h, periodic=False) - dense).max() <= 1e-13


@pytest.mark.parametrize("n", [1, 2, 3, 32])
def test_cached_window_basis_is_read_only_and_equals_a_fresh_build(n):
    """_ramp_sines is built once per (n, h), read-only, and bit for bit the
    basis, inverse and symbol built afresh."""
    h = 0.036
    cached = flow._ramp_sines(n, h)
    assert flow._ramp_sines(n, h)[0] is cached[0]
    for a, b in zip(cached, flow._ramp_sines.__wrapped__(n, h)):
        assert a.tobytes() == b.tobytes()
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0


def rk4_oracle(state, T, steps):
    """u at time T of the torus flow by the classical four-stage explicit
    scheme, the step the semi-implicit one replaced."""
    def rhs(u):
        hxx, hyy, hxy = flow._hessian(u, state.spacing, state.quad)
        return 2.0 * np.log(hxx * hyy - hxy * hxy)

    u, dt = state.u, T / steps
    for _ in range(steps):
        k1 = rhs(u)
        k2 = rhs(u + 0.5 * dt * k1)
        k3 = rhs(u + 0.5 * dt * k2)
        k4 = rhs(u + dt * k3)
        u = u + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return u


def test_periodic_step_is_second_order():
    """Halving dt cuts the error against an RK4 oracle at a quarter of the
    explicit bound by about 4 (a first-order step would give 2)."""
    handle = catalog("quadratic_plus_periodic", amplitude=0.3, wave=(1, 2))
    state = flow.init(handle, torus(16), "periodic")
    T = 2 * flow.adaptive_dt(state)
    exact = rk4_oracle(state, T, 128)
    errors = []
    for steps in (32, 64):
        out = state
        for _ in range(steps):
            out = flow.step(out, T / steps)
        errors.append(np.abs(out.u - exact).max())
    assert 3.5 <= errors[0] / errors[1] <= 4.5


def test_window_step_is_second_order(ball2):
    """Halving dt cuts the error of the window step against the four-stage
    explicit step at a quarter of the explicit bound by about 4."""
    state = flow.init(ball2, ball_window(), "frozen-window")
    T = 2 * flow.adaptive_dt(state)
    exact = state
    for _ in range(128):
        exact = ref_window_step(exact, T / 128)
    errors = []
    for steps in (16, 32):
        out = state
        for _ in range(steps):
            out = flow.step(out, T / steps)
        errors.append(np.abs(out.u - exact.u).max())
    assert 3.5 <= errors[0] / errors[1] <= 4.5


def _march(state, T, step, bound):
    """state at T after ceil((T - t) / bound) equal steps, as run takes them."""
    steps = int(np.ceil((T - state.t) / bound(state)))
    dt = (T - state.t) / steps
    for _ in range(steps):
        state = step(state, dt)
    return state


def _closed_form_errors(state, exact) -> tuple:
    """|u - exact| at the centre node and its max over depth >= 8."""
    idx = np.stack(np.meshgrid(*map(np.arange, state.shape), indexing="ij"), axis=-1)
    err = np.abs(state.u - exact(state.origin + state.spacing * idx, state.t))
    return err[tuple(m // 2 for m in state.shape)], err[8:-8, 8:-8].max()


@pytest.mark.parametrize("name, exact, origin, grids", [
    ("bidisk_product", bidisk_product_exact, (0.5, 0.5), [(48, 0.02), (96, 0.01)]),
    ("cone2d", cone2d_exact, (1.0, -0.3), [(40, 0.02), (80, 0.01)])],
    ids=["bidisk_product", "cone2d"])
def test_window_flow_matches_the_closed_forms(name, exact, origin, grids):
    """At two spacings the window step at DT_FACTOR errs against the closed
    form no more than the four-stage explicit step at the explicit bound:
    within 5% over depth >= 8, at most 1.1 times at the centre; and the
    centre error falls by at least 3 when the spacing halves."""
    centre = []
    for m, h in grids:
        state = flow.init(catalog(name), flow.GridSpec((m, m), h, np.array(origin)),
                          "frozen-window")
        new = _closed_form_errors(_march(state, 0.004, flow.step, flow.adaptive_dt), exact)
        ref = _closed_form_errors(_march(state, 0.004, ref_window_step, ref_adaptive_dt), exact)
        assert new[1] <= 1.05 * ref[1], (m, new, ref)
        assert new[0] <= 1.1 * ref[0], (m, new, ref)
        centre.append(new[0])
    assert centre[0] >= 3.0 * centre[1]


def test_step_counts_time():
    state = flow.init(quadratic(2), torus(16), "periodic")
    out = flow.step(state, 1e-3)
    assert out.t == pytest.approx(1e-3)
    assert state.t == 0.0  # input state untouched


@pytest.mark.parametrize("which", ["periodic-2d", "window-2d"])
def test_run_matches_a_loop_of_steps(which):
    """Each step stores its closing det and lambda_min on the state it returns,
    and run's final state equals a loop of public step calls bit for bit."""
    state = _hessian_states()[which]
    T = 8.5 * flow.adaptive_dt(state)
    out, _ = flow.run(state, T, monitor_epochs=2, sample_per_axis=2)
    steps = 9  # ceil(T / adaptive_dt), and run then takes dt = T / steps
    ref = state
    for _ in range(steps):
        ref = flow.step(ref, T / steps)
    assert out.t == ref.t
    assert out.u.tobytes() == ref.u.tobytes()
    assert out.quad.tobytes() == ref.quad.tobytes()
    if which == "window-2d":
        assert np.array_equal(out.quad, np.zeros((2, 2)))


# -- runs and monitors ------------------------------------------------------------------

@pytest.mark.parametrize("epochs, dts, steps", [(3, 0.5, 3), (3, 2.5, 3), (3, 16.5, 17),
                                                (4, 9.5, 10)])
def test_run_records_exactly_the_epochs_asked_for(monkeypatch, epochs, dts, steps):
    """Fewer steps than epochs, as many, and more: epoch j ends after step
    ceil(j steps / epochs), the last at T."""
    state = flow.init(quadratic(2), torus(8), "periodic")
    T = dts * flow.adaptive_dt(state)
    taken = []
    real_step = flow.step
    monkeypatch.setattr(flow, "step", lambda *a: taken.append(1) or real_step(*a))
    out, series = flow.run(state, T, monitor_epochs=epochs, sample_per_axis=1)
    assert len(taken) == steps and out.t == pytest.approx(T, rel=1e-12)
    want = [-(-j * steps // epochs) * (T / steps) for j in range(epochs + 1)]
    assert series.times == pytest.approx(want, rel=1e-12)
    assert series.times[-1] == out.t


def test_run_quadratic_channels_zero_and_chen_guard():
    state = flow.init(quadratic(2), torus(32), "periodic")
    _, series = flow.run(state, 0.01, monitor_epochs=3, sample_per_axis=3)
    for ch in ("S_min", "S_max", "ABC_max", "ORTH_ABC_min", "H_pol_min", "O_max"):
        assert np.allclose(series.channel(ch), 0.0, atol=1e-10)
    chen = series.channel("chen_residual")
    assert np.isinf(chen[0])      # K -> infinity guard at t = 0
    assert np.all(chen[1:] > 0)   # n / t with S_min = 0


def test_run_stationarity_of_curvature_channels():
    """det-constant potentials: every curvature channel constant to 1e-10."""
    state = flow.init(quadratic(2, quad=np.diag([2.0, 0.5])), torus(32), "periodic")
    _, series = flow.run(state, 0.01, monitor_epochs=4, sample_per_axis=3)
    for ch in ("S_min", "S_max", "ABC_max", "ORTH_ABC_min", "H_pol_min", "O_max"):
        vals = series.channel(ch)
        assert np.abs(vals - vals[0]).max() < 1e-10


def test_run_chen_bound_perturbed_torus():
    handle = catalog("quadratic_plus_periodic", amplitude=0.05)
    state = flow.init(handle, torus(32), "periodic")
    _, series = flow.run(state, 0.05, monitor_epochs=5, sample_per_axis=4)
    assert series.channel("chen_residual")[1:].min() >= -1e-6
    assert series.labels["K"] > 0


def test_window_run_abc_stays_nonpositive(ball2):
    state = flow.init(ball2, ball_window(), "frozen-window")
    _, series = flow.run(state, 0.006, monitor_epochs=4, sample_per_axis=4)
    assert series.channel("ABC_max").max() <= 1e-6
    assert series.channel("H_pol_min").max() <= 1e-6  # diagonal restriction


def test_window_run_reports_partial_series_on_failure(ball2, monkeypatch):
    """A run whose first step fails raises with the series recorded so far.
    Within the time that monitor_offset lets a run of ball_window reach, no
    step fails, so the depth is pinned at RING and the step is oversized."""
    state = flow.init(ball2, ball_window(), "frozen-window")
    dt = OVERSIZED * flow.adaptive_dt(state)
    monkeypatch.setattr(flow, "adaptive_dt", lambda st: dt)
    monkeypatch.setattr(flow, "monitor_offset", lambda *a: flow.RING)
    with pytest.raises(StabilityFailure, match="positive-definiteness") as err:
        flow.run(state, 2 * dt, monitor_epochs=2, sample_per_axis=5)
    assert err.value.partial_series.times == [0.0]
    assert err.value.node == (2, 2)
    assert err.value.time == dt


def test_monitor_window_shrinks_to_nothing_raises(radial, monkeypatch):
    """A window whose last epoch would monitor no node is refused before the
    first step, naming the depth and the grid; monitor_nodes itself raises
    StabilityFailure at that depth."""
    grid = flow.GridSpec(shape=(16, 16), spacing=0.028,
                         origin=np.array([0.35, -0.2]))
    state = flow.init(radial, grid, "frozen-window")
    depth = flow.monitor_offset(state, 8, 0.01)
    monkeypatch.setattr(flow, "step", None)  # any step would raise TypeError
    with pytest.raises(BadParams, match=f"depth, {depth} nodes, .* 16 x 16 window"):
        flow.run(state, 0.01, monitor_epochs=8, sample_per_axis=3)
    with pytest.raises(StabilityFailure, match="shrank to nothing"):
        flow.monitor_nodes(state, 3, depth)


def test_csv_round_trip(tmp_path):
    state = flow.init(quadratic(2), torus(16), "periodic")
    _, series = flow.run(state, 0.002, monitor_epochs=2, sample_per_axis=3)
    path = tmp_path / "series.csv"
    _write_series(path, series)
    header = path.read_text().splitlines()[0]
    assert header.startswith("t,S_min,S_max,ABC_max,ORTH_ABC_min,H_pol_min,O_max")
    dat = path.with_suffix(".dat").read_text().splitlines()
    assert dat[0].startswith("# t S_min S_max ABC_max ORTH_ABC_min H_pol_min O_max")
    assert len(dat) == len(series.times) + 1


# -- orthogonal-pair sign on windows ------------------------------------------------------

def window_orth_min(handle, grid, T, epochs):
    """(times, ORTH_ABC_min) of a frozen-window run with 5 nodes per axis."""
    _, series = flow.run(flow.init(handle, grid, "frozen-window"), T,
                         sample_per_axis=5, monitor_epochs=epochs)
    return np.asarray(series.times), series.channel("ORTH_ABC_min")


def test_window_orth_min_radial_nonnegative(radial):
    _, orth = window_orth_min(radial, radial_window(), 0.0015, 3)
    assert orth.min() >= -1e-6


def test_window_orth_min_ball_goes_negative(ball2):
    times, orth = window_orth_min(ball2, ball_window(), 0.002, 3)
    assert ((times > 0) & (orth < -1e-6)).any()


def test_window_orth_min_quadratic_degenerate_nonnegative():
    window = flow.GridSpec(shape=(24, 24), spacing=1.0 / 24, origin=np.zeros(2))
    _, orth = window_orth_min(quadratic(2), window, 0.002, 2)
    assert orth.min() >= -1e-6


# -- grid potentials from window states --------------------------------------------------------

def test_to_grid_potential_matches_closed_form_at_t0(ball2):
    state = flow.init(ball2, ball_window(), "frozen-window")
    chk = flow.to_grid_potential(state)
    x = np.array([0.04, -0.03])
    jg = chk.jet(x)
    je = ball2.jet(x)
    assert abs(jg.value - je.value) < 1e-8
    assert np.abs(jg.hessian - je.hessian).max() < 5e-3
    with pytest.raises(BadParams):
        flow.to_grid_potential(flow.init(quadratic(2), torus(8), "periodic"))

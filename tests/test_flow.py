import numpy as np
import pytest

from conftest import quadratic
from hesselab import flow
from hesselab.cli import _write_series
from hesselab.errors import (BadParams, IncompatibleMode, SingularHessian,
                             StabilityFailure)
from hesselab.potentials import LogBarrier, catalog


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
    hxx, hyy, hxy = flow._hessian_fields(state)
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


@pytest.mark.parametrize("n, shape", [(3, (8, 8)), (2, (8,)), (2, (8, 8, 8))])
def test_init_torus_rejects_a_grid_of_another_dimension(n, shape):
    handle = catalog("quadratic_plus_periodic", n=n, amplitude=0.05)
    with pytest.raises(BadParams, match="torus grid"):
        flow.init(handle, flow.GridSpec(shape=shape), "periodic")


def test_incompatible_mode(ball2):
    with pytest.raises(IncompatibleMode):
        flow.init(ball2, torus(16), "periodic")
    with pytest.raises(BadParams):
        flow.init(quadratic(2), torus(16), "no-such-mode")


def test_adaptive_dt_formula():
    state = flow.init(quadratic(2), torus(64), "periodic")
    assert flow.adaptive_dt(state) == pytest.approx(0.25 / (2 * 64**2), rel=1e-12)
    doubled = flow.init(quadratic(2, quad=2.0 * np.eye(2)), torus(64), "periodic")
    assert flow.adaptive_dt(doubled) == pytest.approx(0.25 / 64**2, rel=1e-12)


def _hessian_states():
    ball = catalog("calabi_ball", n=2)
    quad = np.array([[1.5, 0.25], [0.25, 0.75]])
    bumpy = catalog("quadratic_plus_periodic", quad=quad, amplitude=0.05, wave=(1, 2))
    torus_state = flow.init(bumpy, torus(24), "periodic")
    window = flow.init(ball, ball_window(), "frozen-window")
    line = flow.init(catalog("log_barrier"),
                     flow.GridSpec(shape=(32,), spacing=0.01, origin=[0.5]),
                     "frozen-window")
    return {"periodic-2d": torus_state, "window-2d": window, "window-1d": line}


@pytest.mark.parametrize("which", ["periodic-2d", "window-2d", "window-1d"])
def test_hessian_fields_match_grid_derivative(which):
    """The padded-buffer kernel equals the per-axis roll stencils bit for bit."""
    state = _hessian_states()[which]
    a = state.quad if state.mode == "periodic" else np.zeros((state.n, state.n))
    if state.n == 1:
        orders = [((2,), a[0, 0])]
    else:
        orders = [((2, 0), a[0, 0]), ((0, 2), a[1, 1]), ((1, 1), a[0, 1])]
    fields = flow._hessian_fields(state)
    assert len(fields) == len(orders)
    for got, (o, base) in zip(fields, orders):
        want = base + flow.grid_derivative(state.u, o, state.spacing)
        assert got.shape == state.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("which,node,message", [
    ("periodic-2d", (7, 7), "positive-definiteness"),
    ("window-2d", (13, 13), "positive-definiteness"),
    ("window-1d", (10,), "positivity"),
])
def test_nonconvex_bump_fails_at_its_node(which, node, message):
    """A spike that breaks convexity fails the first stage at a fixed node,
    with the state's time."""
    state = _hessian_states()[which]
    state.t = 0.25
    idx = tuple(m // 3 for m in state.shape)
    state.u[idx] += 0.5 * state.spacing**2 * (8.0 if state.n == 2 else 40.0)
    with pytest.raises(StabilityFailure, match=message) as err:
        flow.step(state, 1e-6)
    assert err.value.node == node
    assert err.value.time == 0.25


def test_oversized_window_step_fails_after_the_step(ball2):
    state = flow.init(ball2, ball_window(), "frozen-window")
    dt = 50 * flow.adaptive_dt(state)
    with pytest.raises(StabilityFailure, match="positive-definiteness") as err:
        flow.step(state, dt)
    assert err.value.node == (2, 3)
    assert err.value.time == dt


def test_checked_det_rejects_a_nan_entry_in_1d():
    with pytest.raises(StabilityFailure, match="positivity") as err:
        flow._checked_det([np.array([1.0, np.nan, 1.0])], (slice(None),), 0.0)
    assert err.value.node == (1,)


class NanSampleBarrier(LogBarrier):
    """-log x with a NaN value at x = 0.6."""

    def _value(self, x):
        return np.nan if x[0] == 0.6 else super()._value(x)


def test_one_dimensional_init_rejects_a_nan_sample():
    """u[10] is NaN, so the first checked node with a NaN Hessian is 9."""
    grid = flow.GridSpec(shape=(32,), spacing=0.01, origin=[0.5])
    with pytest.raises(StabilityFailure, match="positivity") as err:
        flow.init(NanSampleBarrier(), grid, "frozen-window")
    assert err.value.node == (9,)


def test_adaptive_dt_singular():
    degenerate = flow.FlowState(mode="frozen-window", u=np.zeros((12, 12)),
                                spacing=0.1, origin=np.zeros(2))
    with pytest.raises(SingularHessian):
        flow.adaptive_dt(degenerate)


# -- stepping ------------------------------------------------------------------------

def test_quadratic_exactly_stationary():
    state = flow.init(quadratic(2), torus(64), "periodic")
    out = state
    for _ in range(20):
        out = flow.step(out)
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


def test_one_dimensional_window_step():
    handle = catalog("log_barrier")
    grid = flow.GridSpec(shape=(32,), spacing=0.01, origin=[0.5])
    state = flow.init(handle, grid, "frozen-window")
    dt = flow.adaptive_dt(state)
    new = flow.step(state, dt)
    x = 0.5 + 0.01 * np.arange(32)
    inner = slice(flow.RING, 32 - flow.RING)
    rate = (new.u - state.u)[inner] / dt
    # d(psi)/dt = 2 log det Hess(-log x) = -4 log x
    assert np.abs(rate + 4.0 * np.log(x[inner])).max() <= 1e-3


def test_step_counts_time():
    state = flow.init(quadratic(2), torus(16), "periodic")
    out = flow.step(state, 1e-3)
    assert out.t == pytest.approx(1e-3)
    assert state.t == 0.0  # input state untouched


@pytest.mark.parametrize("which", ["periodic-2d", "window-2d"])
def test_run_matches_a_loop_of_steps(which):
    """run carries each step's closing det to the next step's first stage; its
    final state equals a loop of public step calls bit for bit."""
    state = _hessian_states()[which]
    T = 8.5 * flow.adaptive_dt(state)
    out, _ = flow.run(state, T, monitor_epochs=2, sample_per_axis=2,
                      dt=0.5 * flow.adaptive_dt(state))
    steps = 17  # ceil(T / dt), and run then takes dt = T / steps
    ref = state
    for _ in range(steps):
        ref = flow.step(ref, T / steps)
    assert out.t == ref.t
    assert out.u.tobytes() == ref.u.tobytes()
    if which == "periodic-2d":
        assert out.quad.tobytes() == ref.quad.tobytes()
    else:
        assert out.quad is None and ref.quad is None


# -- runs and monitors ------------------------------------------------------------------

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


def test_window_run_reports_partial_series_on_failure(ball2):
    state = flow.init(ball2, ball_window(), "frozen-window")
    with pytest.raises(StabilityFailure) as err:
        # huge fixed step destroys positive-definiteness immediately
        flow.run(state, 0.01, monitor_epochs=2, dt=5e-3)
    assert hasattr(err.value, "partial_series")


def test_monitor_window_shrinks_to_nothing_raises(radial):
    grid = flow.GridSpec(shape=(16, 16), spacing=0.028,
                         origin=np.array([0.35, -0.2]))
    state = flow.init(radial, grid, "frozen-window")
    with pytest.raises(StabilityFailure):
        flow.run(state, 0.01, monitor_epochs=8, sample_per_axis=3)


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


# -- weak-regularity probe ------------------------------------------------------------------

def test_kr_probe_radial_regular(radial):
    verdict = flow.kr_probe(radial, 0.0015, radial_window(), monitor_epochs=3)
    assert verdict.regular
    assert verdict.label.startswith("KR-WEAKLY-REGULAR")
    assert verdict.series.channel("ORTH_ABC_min").min() >= -1e-6


def test_kr_probe_detects_negative_orthogonal_curvature(ball2):
    verdict = flow.kr_probe(ball2, 0.002, ball_window(), monitor_epochs=3)
    assert not verdict.regular
    t, v = verdict.first_violation
    assert t > 0 and v < -1e-6


def test_kr_probe_quadratic_degenerate_is_regular():
    verdict = flow.kr_probe(quadratic(2), 0.002, torus(16), mode="periodic",
                            monitor_epochs=2)
    assert verdict.regular


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

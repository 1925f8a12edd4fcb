import itertools
import math

import numpy as np
import pytest
from hypothesis import settings
from scipy.optimize import minimize_scalar

from hesselab import _extrema, flow
from hesselab.curvature import (CurvatureSample, core_form, full_abc_trace, oab_trace,
                                scalar)
from hesselab.errors import BlowUp, StabilityFailure
from hesselab.domains import DomainSpec
from hesselab.jets import _STENCILS, PotentialJet, pd_check, symmetric_from_orders, symmetrize
from hesselab.potentials import PotentialHandle, QuadraticPlusPeriodic, catalog
from hesselab.reaction import BLOWUP_CAP

# property tests draw the same examples on every run, so the suite stays
# deterministic; no example database is written
settings.register_profile("deterministic", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("deterministic")


# -- oracles and fixtures the tests share ------------------------------------

def quadratic(n: int = 2, quad: np.ndarray | None = None) -> QuadraticPlusPeriodic:
    """Pure quadratic potential (periodic amplitude zero)."""
    return QuadraticPlusPeriodic(n=n, amplitude=0.0, quad=quad)


def _axis_derivative(u: np.ndarray, axis: int, order: int, h: float) -> np.ndarray:
    offs, coefs = _STENCILS[order]
    out = np.zeros_like(u)
    for o, c in zip(offs, coefs):
        if c == 0.0:
            continue
        out += c * (u if o == 0 else np.roll(u, -o, axis=axis))
    return out / h**order


def grid_derivative(u: np.ndarray, orders: tuple[int, ...], h: float) -> np.ndarray:
    """Mixed partial of a grid field with the given per-axis orders, by
    whole-grid roll stencils with periodic wrap: the oracle of the flow's
    Hessian fields and node stencils.  On a window the ring of width 2 reads
    wrapped values and means nothing.
    """
    out = u
    for axis, order in enumerate(orders):
        if order:
            out = _axis_derivative(out, axis, order, h)
    return out


def seeded_tensors(n: int, k: int) -> list[np.ndarray]:
    """Seeded normal tensors, some with -0.0 and +-inf entries, plus all -0.0."""
    out = [np.full((n,) * k, -0.0)]
    for seed in range(4):
        rng = np.random.default_rng(1000 * n + 10 * k + seed)
        T = rng.normal(size=(n,) * k)
        if seed >= 2:
            T[rng.random(T.shape) < 0.4] = -0.0
        if seed == 3:
            flat = T.reshape(-1)
            flat[rng.integers(0, flat.size)] = np.inf
            flat[rng.integers(0, flat.size)] = -np.inf
        out.append(T)
    return out


# -- the curvature class and the reaction ODE, as first written: oracles of
# -- the table kernels, which must reproduce them to the bit

def ref_class_orbit(idx):
    i, j, k, l = idx
    orbit = {(i, j, k, l)}
    frontier = set(orbit)
    while frontier:
        nxt = set()
        for (a, b, c, d) in frontier:
            for q in ((c, b, a, d), (a, d, c, b), (b, a, d, c)):
                if q not in orbit:
                    orbit.add(q)
                    nxt.add(q)
        frontier = nxt
    return orbit


def ref_mirror_symmetrize(E):
    """Orbit means by an orbit walk, members added in sorted order."""
    n = E.shape[0]
    out = np.empty_like(E)
    seen = np.zeros(E.shape, dtype=bool)
    for idx in itertools.product(range(n), repeat=4):
        if seen[idx]:
            continue
        orbit = ref_class_orbit(idx)
        val = sum(E[p] for p in sorted(orbit)) / len(orbit)
        for p in orbit:
            out[p] = val
            seen[p] = True
    return out


def ref_symmetry_defect(E):
    """Largest deviation of E from its three swapped transposes; NaN when
    any deviation is NaN, whichever swap it comes from."""
    devs = [float(np.abs(E - E.transpose(g)).max())
            for g in ((2, 1, 0, 3), (0, 3, 2, 1), (1, 0, 3, 2))]
    return math.nan if any(map(math.isnan, devs)) else max(devs)


def ref_q_contraction(T):
    """Q(T) by two n^2 x n^2 products and transposed views of the results."""
    m = T.shape[0] ** 2
    t1 = (T.reshape(m, m) @ T.transpose(1, 0, 2, 3).reshape(m, m)).reshape(T.shape)
    B = T.transpose(0, 2, 1, 3).reshape(m, m)  # B[(ik), (pq)] = T[ipkq]
    t3 = (B @ B).reshape(T.shape).transpose(0, 2, 1, 3)
    return 2.0 * (t1 + t1.transpose(0, 3, 2, 1) - t3)


def ref_integrate_ode(A0, T, dt):
    """RK4 on the oracles, step for step as reaction.integrate_ode with
    record_every = 1: (times, tensors, max drift), or the BlowUp and
    StabilityFailure that integrate_ode raises, at the same time."""
    A, t, drift_max = A0.copy(), 0.0, 0.0
    times, tensors = [0.0], [A0.copy()]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(int(np.ceil(T / dt))):
            h = min(dt, T - t)
            k1 = ref_q_contraction(A)
            k2 = ref_q_contraction(A + 0.5 * h * k1)
            k3 = ref_q_contraction(A + 0.5 * h * k2)
            k4 = ref_q_contraction(A + h * k3)
            A = A + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            t += h
            m = float(np.abs(A).max())
            if not m <= BLOWUP_CAP:
                raise BlowUp(t, (times, tensors))
            drift = ref_symmetry_defect(A)
            drift_max = max(drift_max, drift)
            if drift > 1e-13 * max(1.0, m):
                raise StabilityFailure("symmetry drift", time=t)
            A = ref_mirror_symmetrize(A)
            times.append(t)
            tensors.append(A)
    return times, tensors, drift_max


# -- the flow monitors, n = 2 extremizer, transport moduli and box checks as first
# -- written, node by node, tensor by tensor and pair by pair: oracles of the batched kernels

def ref_grid_jets(state, nodes) -> list[dict]:
    """One {orders: value} per node, from the batched stencils' rows."""
    values = flow.grid_jets(state, nodes)
    return [{o: v[k] for o, v in values.items()} for k in range(len(nodes))]


def ref_jet_at_node(state, values: dict, idx) -> PotentialJet:
    """The jet of psi at node idx from that node's ref_grid_jets values."""
    a = state.quad
    x = state.node_coords(idx)
    grad = np.array([values[(1, 0)], values[(0, 1)]]) + a @ x
    hess = np.array([
        [a[0, 0] + values[(2, 0)], a[0, 1] + values[(1, 1)]],
        [a[0, 1] + values[(1, 1)], a[1, 1] + values[(0, 2)]],
    ])
    third, fourth = (symmetric_from_orders(2, k, values.__getitem__) for k in (3, 4))
    value = float(state.u[idx]) + 0.5 * float(x @ a @ x)
    ok, lo, hi = pd_check(hess)
    if not ok:
        raise StabilityFailure(f"monitored node lost convexity (lambda_min={lo:.3e})",
                               node=idx, time=state.t)
    return PotentialJet(x=x, value=value, gradient=grad, hessian=symmetrize(hess),
                        third=third, fourth=fourth)


def ref_channel_values(state, nodes) -> dict:
    """The six node channels, one node and one extremizer call at a time."""
    S_vals, abc_max, orth_min, hpol_min, o_vals = [], [], [], [], []
    for idx, values in zip(nodes, ref_grid_jets(state, nodes)):
        sample = core_form(ref_jet_at_node(state, values, idx))
        Ef = sample.E_frame
        S_vals.append(scalar(sample))
        mx, _ = _extrema.pair_extrema(Ef, orth=False, n_angles=flow.MONITOR_ANGLES)
        abc_max.append(mx.value)
        _, omn = _extrema.pair_extrema(Ef, orth=True, n_angles=flow.MONITOR_ANGLES)
        orth_min.append(omn.value)
        _, hmn = _extrema.quartic_extrema(Ef, n_angles=flow.MONITOR_ANGLES)
        hpol_min.append(hmn.value)
        o_vals.append(oab_trace(sample))
    return {
        "S_min": float(np.min(S_vals)), "S_max": float(np.max(S_vals)),
        "ABC_max": float(np.max(abc_max)),
        "ORTH_ABC_min": float(np.min(orth_min)),
        "H_pol_min": float(np.min(hpol_min)),
        "O_max": float(np.max(o_vals)),
    }


def _ref_coeff_matrix(T: np.ndarray) -> np.ndarray:
    """C[a, b] = <T, B_a (x) B_b> over the slot pairs (1,3) and (2,4)."""
    return np.einsum("ijkl,aik,bjl->ab", T, _extrema._DYADS, _extrema._DYADS)


def _ref_quadratic_trig(M: np.ndarray) -> tuple:
    """u(theta)^T M u(theta) as the coefficients (p0, .., p4) of
    p0 + p1 cos theta + p2 sin theta + p3 cos 2 theta + p4 sin 2 theta."""
    S = 0.5 * (M + M.T)
    return (float(S[0, 0] + 0.5 * (S[1, 1] + S[2, 2])), float(2.0 * S[0, 1]),
            float(2.0 * S[0, 2]), float(0.5 * (S[1, 1] - S[2, 2])), float(S[1, 2]))


def _ref_unit_at(t: float) -> np.ndarray:
    return np.array([math.cos(t), math.sin(t)])


def ref_extrema_2d(T: np.ndarray, n_angles: int, kind: str) -> tuple:
    """(max, min) of one tensor for kind "pair", "orth" or "quartic" at n = 2:
    the single-tensor kernel as first written, with its own scans, start
    nodes, coefficient tuples and witness re-evaluation (the scalar Newton
    refinement, _newton_2t, is the library's)."""
    C = _ref_coeff_matrix(T)
    th, U = _extrema._grid(n_angles)
    if kind == "pair":
        abg = U @ C
        hyp = np.hypot(abg[:, 1], abg[:, 2])
        coeffs = [tuple(float(c) for c in C[:, j]) + (0.0, 0.0) for j in range(3)]
        scans = ((abg[:, 0] + hyp, 1.0), (abg[:, 0] - hyp, -1.0))
    else:
        flip = _extrema._FLIP if kind == "orth" else 1.0
        vals = np.einsum("ab,na,nb->n", C, U, U * flip)
        coeffs = [_ref_quadratic_trig(C * flip), (), ()]
        scans = ((vals, 0.0), (vals, 0.0))
    out = []
    for maximize, (vals, s) in zip((True, False), scans):
        x0 = 2.0 * float(th[np.argmax(vals) if maximize else np.argmin(vals)])
        x = _extrema._newton_2t(x0, 2.0 * np.pi / len(th), maximize, *coeffs, s)
        v = _ref_unit_at(0.5 * x)
        if kind == "quartic":
            out.append(_extrema.Extremum(_extrema.quartic_value(T, v), v))
            continue
        if kind == "orth":
            w = np.array([-v[1], v[0]])
        else:  # the inner angle's closed form: 2p = arg(s * (beta, gamma))
            _, b, g = np.array([1.0, math.cos(x), math.sin(x)]) @ C
            w = _ref_unit_at(0.5 * math.atan2(s * g, s * b) if b or g else 0.0)
        out.append(_extrema.Extremum(_extrema.pair_value(T, v, w), v, w))
    return tuple(out)


def ref_holder_modulus(T: np.ndarray, X: np.ndarray, alpha: float) -> float:
    """max over pairs a < b of |T_a - T_b| / |X_a - X_b|^alpha, pair by pair."""
    worst = 0.0
    for a in range(X.shape[0]):
        for b in range(a + 1, X.shape[0]):
            dx = float(np.linalg.norm(X[a] - X[b]))
            dT = float(np.linalg.norm(T[a] - T[b]))
            worst = max(worst, dT / dx**alpha)
    return worst


def ref_box_inside(P: np.ndarray, bounds: np.ndarray, margin: float) -> np.ndarray:
    """Rows of P at distance >= margin inside the box, by the row minimum."""
    dist = np.minimum((P - bounds[:, 0]).min(axis=1), (bounds[:, 1] - P).min(axis=1))
    return dist >= margin


def argmax_near(fun, t: float, span: float) -> float:
    """Maximizer of the scalar function fun on [t - span, t + span]."""
    res = minimize_scalar(lambda a: -fun(a), bounds=(t - span, t + span),
                          method="bounded", options={"xatol": 1e-12})
    return float(res.x)


def is_fully_symmetric(T: np.ndarray) -> bool:
    k = T.ndim
    return all(
        np.array_equal(T, np.transpose(T, perm))
        for perm in itertools.permutations(range(k))
    )


def exact_polarized_average(sample: CurvatureSample) -> float:
    """Closed-form value of the polarized sphere average (moment identity)."""
    n = sample.n
    return (2.0 * scalar(sample) + full_abc_trace(sample)) / (n * (n + 2))


def trig_coefficients(fit) -> np.ndarray:
    """(a0, .., a4) of a berger.TrigFit."""
    return np.array([fit.a0, fit.a1, fit.a2, fit.a3, fit.a4])


def write_grid_file(path, origin, spacing, values):
    """Write the grid potential text format that read_grid_file reads."""
    values = np.asarray(values, dtype=float)
    origin = np.atleast_1d(np.asarray(origin, dtype=float))
    n = origin.shape[0]
    with open(path, "w") as fh:
        head = [str(n), repr(float(spacing))]
        head += [repr(float(v)) for v in origin]
        head += [str(m) for m in values.shape]
        fh.write(" ".join(head) + "\n")
        flat = values.ravel()
        for start in range(0, flat.size, 8):
            fh.write(" ".join(repr(float(v)) for v in flat[start:start + 8]) + "\n")


def scaled_jet(jet: PotentialJet, c: float) -> PotentialJet:
    """Jet of c * psi at the same point."""
    return PotentialJet(
        x=jet.x.copy(),
        value=c * jet.value,
        gradient=c * jet.gradient,
        hessian=c * jet.hessian,
        third=c * jet.third,
        fourth=c * jet.fourth,
    )


class ScaledHandle(PotentialHandle):
    """c * psi for a base handle; used by scale-invariance tests."""

    def __init__(self, base: PotentialHandle, c: float):
        super().__init__(f"{base.name}_x{c}", base.domain)
        self.base = base
        self.c = float(c)

    def _value(self, x):
        return self.c * self.base._value(x)

    def _jet(self, x):
        return scaled_jet(self.base._jet(x), self.c)


class AffineImage(PotentialHandle):
    """psi(L x) for invertible L; jets by the tensor transformation law."""

    def __init__(self, base: PotentialHandle, L: np.ndarray):
        self.base = base
        self.L = np.asarray(L, dtype=float)
        n = base.n
        # a safe box that maps inside the base domain is enough for tests
        dom = DomainSpec(n, "box", {"bounds": self._bounds()}, base.domain.margin)
        super().__init__(f"{base.name}_affine", dom)

    def _bounds(self):
        n = self.base.n
        return np.stack([-0.2 * np.ones(n), 0.2 * np.ones(n)], axis=1)

    def _value(self, x):
        return self.base._value(self.L @ x)

    def _jet(self, x):
        jet = self.base.jet(self.L @ x)
        L = self.L
        return PotentialJet(
            x=np.asarray(x, float),
            value=jet.value,
            gradient=L.T @ jet.gradient,
            hessian=L.T @ jet.hessian @ L,
            third=np.einsum("abc,ai,bj,ck->ijk", jet.third, L, L, L),
            fourth=np.einsum("abcd,ai,bj,ck,dl->ijkl", jet.fourth, L, L, L, L),
        )


class ConcaveQuadratic(PotentialHandle):
    """-|x|^2 on a box; deliberately violates convexity."""

    def __init__(self, n: int = 2):
        bounds = np.stack([-np.ones(n), np.ones(n)], axis=1)
        dom = DomainSpec(n, "box", {"bounds": bounds}, 1e-6)
        super().__init__("concave_test", dom)

    def _value(self, x):
        return -float(x @ x)

    def _jet(self, x):
        n = x.shape[0]
        return PotentialJet(x=x, value=self._value(x), gradient=-2.0 * x,
                            hessian=-2.0 * np.eye(n), third=np.zeros((n,) * 3),
                            fourth=np.zeros((n,) * 4))


@pytest.fixture(scope="session")
def ball2():
    return catalog("calabi_ball", n=2)


@pytest.fixture(scope="session")
def cone():
    return catalog("cone2d")


@pytest.fixture(scope="session")
def radial():
    return catalog("radial_sym", C=1.0)


@pytest.fixture(scope="session")
def bidisk():
    return catalog("bidisk_product")


@pytest.fixture(scope="session")
def quad2():
    return quadratic(2)

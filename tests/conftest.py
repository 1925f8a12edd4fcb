import itertools
import math

import numpy as np
import pytest
from hypothesis import settings
from scipy.optimize import minimize_scalar

from hesselab.curvature import CurvatureSample, full_abc_trace, scalar
from hesselab.errors import BlowUp, StabilityFailure
from hesselab.domains import DomainSpec
from hesselab.jets import _STENCILS, PotentialJet
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

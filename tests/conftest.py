import itertools

import numpy as np
import pytest
from hypothesis import settings
from scipy.optimize import minimize_scalar

from hesselab.curvature import CurvatureSample, full_abc_trace, scalar
from hesselab.domains import DomainSpec
from hesselab.jets import _STENCILS, PotentialJet
from hesselab.potentials import PotentialHandle, QuadraticPlusPeriodic, catalog

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

"""Catalog of convex potentials with exact fourth-order jets.

Closed-form handles return exact derivative tensors; grid handles
differentiate a smooth spline interpolant with second-order central
stencils (spacing ``max(1e-3, 2 * grid spacing)``).

Handles are immutable after construction and jet evaluation is pure, so
they are safe for unlimited concurrent reads.
"""

from __future__ import annotations

import inspect
import math
from pathlib import Path

import numpy as np

from .domains import DomainSpec
from .errors import BadGridFile, BadParams, UnknownName
from .jets import (PotentialJet, fd_jet, jet_from_inner, neg_log_jet,
                   pd_check, radial_r_jets, symmetrize)


class PotentialHandle:
    """Base class: a named convex potential on a domain."""

    def __init__(self, name: str, domain: DomainSpec):
        self.name = name
        self.domain = domain

    @property
    def n(self) -> int:
        return self.domain.n

    def value(self, x: np.ndarray) -> float:
        x = self.domain.require(x)
        return self._value(x)

    def values_at(self, pts: np.ndarray) -> np.ndarray:
        """``value`` at each row of ``pts``, with its checks and errors."""
        return np.array([self.value(x) for x in pts])

    def jet(self, x: np.ndarray) -> PotentialJet:
        """Exact (or stencil) jet at an interior point; verifies convexity."""
        x = self.domain.require(x)
        return self._jet(x).validate()

    def _value(self, x: np.ndarray) -> float:
        raise NotImplementedError

    def _jet(self, x: np.ndarray) -> PotentialJet:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    def __repr__(self):
        return f"<{type(self).__name__} {self.name} n={self.n}>"


class LogBarrier(PotentialHandle):
    """-log(x) on the half-line x > 0."""

    def __init__(self, margin: float = 1e-3):
        dom = DomainSpec(1, "half-space", {"axes": (0,)}, margin)
        super().__init__("log_barrier", dom)

    def _value(self, x):
        return -float(np.log(x[0]))

    def _jet(self, x):
        u = float(x[0])
        return neg_log_jet(x, u, np.ones(1), np.zeros((1, 1)))

    def describe(self):
        return "-log(x) on {x > 0}"


class BidiskProduct(PotentialHandle):
    """-log(x1) - log(x2) on the positive quadrant."""

    def __init__(self, margin: float = 1e-3):
        dom = DomainSpec(2, "half-space", {"axes": (0, 1)}, margin)
        super().__init__("bidisk_product", dom)

    def _value(self, x):
        return -float(np.log(x[0]) + np.log(x[1]))

    def _jet(self, x):
        n = 2
        grad = -1.0 / x
        hess = np.diag(1.0 / x**2)
        third = np.zeros((n,) * 3)
        fourth = np.zeros((n,) * 4)
        for i in range(n):
            third[i, i, i] = -2.0 / x[i] ** 3
            fourth[i, i, i, i] = 6.0 / x[i] ** 4
        return PotentialJet(x=x, value=self._value(x), gradient=grad,
                            hessian=hess, third=third, fourth=fourth)

    def describe(self):
        return "-log(x1) - log(x2) on {x1 > 0, x2 > 0}"


class BidiskTrig(PotentialHandle):
    """-log(cos(x1) + cos(x2)); evaluated on the inscribed disk of the
    diamond |x1| + |x2| < pi/2 (a conservative convexity region)."""

    def __init__(self, margin: float = 1e-3):
        dom = DomainSpec(2, "ball", {"radius": np.pi / (2.0 * np.sqrt(2.0))}, margin)
        super().__init__("bidisk_trig", dom)

    def _value(self, x):
        return -float(np.log(np.cos(x[0]) + np.cos(x[1])))

    def _jet(self, x):
        n = 2
        u = float(np.cos(x[0]) + np.cos(x[1]))
        ui = -np.sin(x)
        uij = np.diag(-np.cos(x))
        uijk = np.zeros((n,) * 3)
        uijkl = np.zeros((n,) * 4)
        for i in range(n):
            uijk[i, i, i] = np.sin(x[i])
            uijkl[i, i, i, i] = np.cos(x[i])
        return neg_log_jet(x, u, ui, uij, uijk, uijkl)

    def describe(self):
        return "-log(cos(x1) + cos(x2)) on the disk inscribed in {|x1|+|x2| < pi/2}"


class CalabiBall(PotentialHandle):
    """-log(1 - |x|^2) on the unit ball."""

    def __init__(self, n: int = 2, margin: float = 0.02):
        dom = DomainSpec(n, "ball", {"radius": 1.0}, margin)
        super().__init__("calabi_ball", dom)

    def _value(self, x):
        return -float(np.log(1.0 - x @ x))

    def _jet(self, x):
        n = self.n
        u = float(1.0 - x @ x)
        ui = -2.0 * x
        uij = -2.0 * np.eye(n)
        return neg_log_jet(x, u, ui, uij)

    def describe(self):
        return f"-log(1 - |x|^2) on the unit ball in R^{self.n}"


class Cone2D(PotentialHandle):
    """-log(x1^2 - x2^2) on the planar cone |x1| > |x2|."""

    def __init__(self, margin: float = 1e-3):
        dom = DomainSpec(2, "cone", {}, margin)
        super().__init__("cone2d", dom)

    def _value(self, x):
        return -float(np.log(x[0] ** 2 - x[1] ** 2))

    def _jet(self, x):
        u = float(x[0] ** 2 - x[1] ** 2)
        ui = np.array([2.0 * x[0], -2.0 * x[1]])
        uij = np.diag([2.0, -2.0])
        return neg_log_jet(x, u, ui, uij)

    def describe(self):
        return "-log(x1^2 - x2^2) on the cone {|x1| > |x2|}"


class RadialSym(PotentialHandle):
    """|x| - C log(|x| + C); smooth away from the origin, so the domain
    excludes a ball of radius ``margin`` around 0."""

    def __init__(self, n: int = 2, C: float = 1.0, margin: float = 0.1):
        if C <= 0:
            raise BadParams(f"radial_sym requires C > 0, got {C}")
        dom = DomainSpec(n, "full-space", {"exclude_radius": margin}, margin)
        super().__init__("radial_sym", dom)
        self.C = float(C)

    def _value(self, x):
        r = float(np.linalg.norm(x))
        return r - self.C * float(np.log(r + self.C))

    def _jet(self, x):
        C = self.C
        r, ri, rij, rijk, rijkl = radial_r_jets(x)
        f = (
            r - C * np.log(r + C),
            r / (r + C),
            C / (r + C) ** 2,
            -2.0 * C / (r + C) ** 3,
            6.0 * C / (r + C) ** 4,
        )
        return jet_from_inner(x, r, ri, rij, rijk, rijkl, f)

    def describe(self):
        return f"|x| - C log(|x| + C), C={self.C}, on R^{self.n} minus a ball at 0"


class QuadraticPlusPeriodic(PotentialHandle):
    """(1/2) x^T A x + amplitude * cos(2 pi k.x) / (2 pi |k|)^2 on the unit torus.

    ``amplitude`` is the peak size of the Hessian perturbation, so the jet
    is strongly convex whenever |amplitude| < lambda_min(A).
    """

    def __init__(self, n: int = 2, amplitude: float = 0.0,
                 wave: tuple[int, ...] | None = None,
                 quad: np.ndarray | None = None):
        wave = tuple(wave) if wave is not None else (1,) + (0,) * (n - 1)
        if len(wave) != n:
            raise BadParams("wave vector length must match dimension")
        A = np.eye(n) if quad is None else np.asarray(quad, dtype=float)
        if A.shape != (n, n) or not np.isfinite(A).all():
            raise BadParams(f"quadratic part must be a finite {n}x{n} matrix, "
                            f"got {quad!r}")
        ok, lo, _ = pd_check(A)
        if not ok:
            raise BadParams("quadratic part must be positive definite")
        if abs(amplitude) >= lo:
            raise BadParams(
                f"amplitude {amplitude} >= lambda_min(A) = {lo}: not uniformly convex")
        if amplitude != 0.0 and all(k == 0 for k in wave):
            raise BadParams("nonzero amplitude requires a nonzero wave vector")
        dom = DomainSpec(n, "torus", {}, 0.0)
        super().__init__("quadratic_plus_periodic", dom)
        self.amplitude = float(amplitude)
        self.wave = np.asarray(wave, dtype=float)
        self.quad = A
        k2 = float(self.wave @ self.wave)
        self._scale = self.amplitude / ((2 * np.pi) ** 2 * k2) if k2 > 0 else 0.0

    def periodic_value(self, x: np.ndarray):
        """The periodic part at the point x, or at each row of an (m, n) array."""
        x = np.asarray(x, dtype=float)
        phase = x @ (2 * np.pi * self.wave)
        values = self._scale * np.cos(phase) if self._scale else np.zeros_like(phase)
        return float(values) if x.ndim == 1 else values

    def _value(self, x):
        return 0.5 * float(x @ self.quad @ x) + self.periodic_value(x)

    def _jet(self, x):
        n = self.n
        k = self.wave
        phase = 2 * np.pi * float(k @ x)
        c, s = np.cos(phase), np.sin(phase)
        a = self._scale
        tp = 2 * np.pi
        grad = self.quad @ x - a * tp * s * k
        hess = self.quad - a * tp**2 * c * np.einsum("i,j->ij", k, k)
        third = a * tp**3 * s * np.einsum("i,j,k->ijk", k, k, k)
        fourth = a * tp**4 * c * np.einsum("i,j,k,l->ijkl", k, k, k, k)
        return PotentialJet(x=np.asarray(x, float), value=self._value(x),
                            gradient=grad, hessian=symmetrize(hess),
                            third=symmetrize(third), fourth=symmetrize(fourth))

    def describe(self):
        return (f"(1/2) x.A.x + periodic cosine (amplitude {self.amplitude}, "
                f"wave {tuple(int(v) for v in self.wave)}) on the unit torus T^{self.n}")


class GridPotential(PotentialHandle):
    """Potential sampled on a uniform grid, differentiated by stencils.

    Jets carry the stencils' second-order truncation error; spacing for the
    stencils is ``max(1e-3, 2 * grid spacing)``.
    """

    def __init__(self, origin: np.ndarray, spacing: float, values: np.ndarray,
                 name: str = "grid"):
        values = np.asarray(values, dtype=float)
        origin = np.atleast_1d(np.asarray(origin, dtype=float))
        n = origin.shape[0]
        if values.ndim != n:
            raise BadParams(f"value array rank {values.ndim} != dimension {n}")
        if n not in (1, 2):
            raise BadParams("grid potentials support n in {1, 2}")
        if min(values.shape) < 6 or not spacing > 0:  # quintic spline: 6 nodes
            raise BadParams(f"grid needs >= 6 nodes per axis and spacing > 0, "
                            f"got shape {values.shape}, spacing {spacing}")
        self.origin = origin
        self.spacing = float(spacing)
        self.values = values
        self.fd_h = max(1e-3, 2.0 * self.spacing)
        hi = origin + (np.array(values.shape) - 1) * self.spacing
        bounds = np.stack([origin, hi], axis=1)
        # the stencil (radius 2) must stay inside the data
        margin = 2.0 * self.fd_h + 1e-12
        dom = DomainSpec(n, "box", {"bounds": bounds}, margin)
        super().__init__(name, dom)
        self._spline, self._spline_rows = self._build_spline()

    def _build_spline(self):
        """(scalar evaluator at one point, batched evaluator over rows)."""
        from scipy.interpolate import InterpolatedUnivariateSpline, RectBivariateSpline
        axes = [self.origin[i] + self.spacing * np.arange(self.values.shape[i])
                for i in range(self.n)]
        if self.n == 1:
            sp = InterpolatedUnivariateSpline(axes[0], self.values, k=5)
            return lambda x: float(sp(x[0])), lambda P: sp(P[:, 0])
        sp = RectBivariateSpline(axes[0], axes[1], self.values, kx=5, ky=5)
        return (lambda x: float(sp(x[0], x[1])[0, 0]),
                lambda P: sp(P[:, 0], P[:, 1], grid=False))

    def _value(self, x):
        return self._spline(x)

    def values_at(self, pts):
        """One box check and one spline call over all rows of ``pts``; the
        first row outside the box (or NaN) raises as ``value`` raises there."""
        P = np.asarray(pts, dtype=float)
        if P.shape[1:] != (self.n,):
            return super().values_at(P)
        bounds = self.domain.params["bounds"]
        dist = np.minimum((P - bounds[:, 0]).min(axis=1), (bounds[:, 1] - P).min(axis=1))
        inside = dist >= self.domain.margin
        if not inside.all():
            self.domain.require(P[np.argmin(inside)])
        return self._spline_rows(P)

    def _jet(self, x):
        return fd_jet(self._spline, x, self.fd_h)

    def describe(self):
        return (f"grid-sampled potential, {self.values.shape} nodes, "
                f"spacing {self.spacing}")

    @classmethod
    def from_file(cls, path: str | Path) -> "GridPotential":
        origin, spacing, values = read_grid_file(path)
        return cls(origin, spacing, values)


# -- grid potential text format ----------------------------------------------
# header line: n h x0_1 .. x0_n m_1 .. m_n   (dims then origin then shape)
# then the values in row-major order, whitespace/comma separated.

def read_grid_file(path: str | Path):
    toks: list[str] = []
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeError) as exc:
        raise BadGridFile(f"cannot read grid file {path}: {exc}") from exc
    try:
        header = lines[0].replace(",", " ").split()
        n = int(header[0])
        spacing = float(header[1])
        origin = np.array([float(v) for v in header[2:2 + n]])
        shape = tuple(int(v) for v in header[2 + n:2 + 2 * n])
        for line in lines[1:]:
            toks.extend(line.replace(",", " ").split())
        values = np.array([float(v) for v in toks])
    except (IndexError, ValueError) as exc:
        raise BadGridFile(f"malformed grid file {path}: {exc}") from exc
    if len(origin) != n or len(shape) != n or values.size != math.prod(shape):
        raise BadGridFile(f"grid file {path} holds {values.size} values, "
                          f"its header announces shape {shape}")
    return origin, spacing, values.reshape(shape)


# -- catalog ------------------------------------------------------------------

_CATALOG = {
    "log_barrier": LogBarrier,
    "bidisk_product": BidiskProduct,
    "bidisk_trig": BidiskTrig,
    "calabi_ball": CalabiBall,
    "cone2d": Cone2D,
    "radial_sym": RadialSym,
    "quadratic_plus_periodic": QuadraticPlusPeriodic,
    "grid": GridPotential.from_file,
}
CATALOG_NAMES = tuple(_CATALOG)


def catalog(name: str, **params) -> PotentialHandle:
    """Build a catalog potential by name; raises UnknownName / BadParams."""
    if name not in _CATALOG:
        raise UnknownName(f"no catalog potential named {name!r}")
    return _CATALOG[name](**params)


def catalog_parameters(name: str) -> list[inspect.Parameter]:
    """The parameters that catalog(name, ...) takes, with their defaults."""
    return list(inspect.signature(_CATALOG[name]).parameters.values())


def catalog_entries() -> list[tuple[str, str]]:
    """(name, description) rows for every catalog potential."""
    rows = []
    for name in CATALOG_NAMES:
        if name == "grid":
            rows.append((name, "potential loaded from a grid text file "
                               "(header: n h x0.. shape.., then row-major values)"))
        else:
            rows.append((name, catalog(name).describe()))
    return rows

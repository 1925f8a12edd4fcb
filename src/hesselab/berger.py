"""Sphere-averaging identities for curvature forms.

Monte Carlo integrals are seeded and use antithetic pairs (z, -z): the odd
part of any integrand cancels exactly, and ``count`` below always means the
number of independent antithetic pairs.  For the (even) quartic integrands
here the pair members agree, so each pair contributes one independent value
and standard errors are sample std / sqrt(count).

The polarized-sphere average of E(z,z,z,z) over the real unit sphere in an
h-orthonormal polarized frame is an exact linear functional of two frame
traces,

    avg = (2 * S + T) / (n (n + 2)),

where S = sum_ab E[a,a,b,b] is the scalar trace and T = sum_ab E[a,b,a,b]
is the anti-bisectional trace *including* the diagonal (T = O + sum of
sectional diagonals).  The real-sphere fourth moments force the diagonal
terms into T; dropping them leaves a structural residual.  The fit below
therefore regresses on (S, T) and reports beta/alpha, which is 1/2 in this
normalization (the complex-sphere weighting would give a different ratio;
see the berger report emitted by the CLI for the side-by-side numbers).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _extrema
from .curvature import CurvatureSample, full_abc_trace, scalar
from .errors import BadFrame, BadParams, NotNegativeHSC


def _pair_points(n: int, count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(count, n))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    return z


@dataclass
class SphereMoments:
    n: int
    count: int
    seed: int
    m4: float
    m22: float
    se4: float
    se22: float
    exact_m4: float
    exact_m22: float
    per_coordinate_m4: np.ndarray

    @property
    def ratio(self) -> float:
        return self.m4 / self.m22

    @property
    def exact_ratio(self) -> float:
        return self.exact_m4 / self.exact_m22


def sphere_moments(n: int, count: int, seed: int) -> SphereMoments:
    """Estimates of the fourth moments of the real unit sphere S^{n-1}.

    Returns Monte Carlo values of E[z_j^4] and E[z_j^2 z_k^2] together with
    the exact values 3/(n(n+2)) and 1/(n(n+2)).
    """
    if n < 2:
        raise BadParams("sphere moments need n >= 2")
    if count < 1:
        raise BadParams("count must be >= 1")
    z = _pair_points(n, count, seed)
    quarts = z**4
    m4_all = quarts.mean(axis=0)
    v4 = quarts[:, 0]
    v22 = z[:, 0] ** 2 * z[:, 1] ** 2
    return SphereMoments(
        n=n, count=count, seed=seed,
        m4=float(v4.mean()), m22=float(v22.mean()),
        se4=float(v4.std(ddof=1) / np.sqrt(count)),
        se22=float(v22.std(ddof=1) / np.sqrt(count)),
        exact_m4=3.0 / (n * (n + 2)), exact_m22=1.0 / (n * (n + 2)),
        per_coordinate_m4=m4_all,
    )


@dataclass
class SphereAverage:
    estimate: float
    standard_error: float
    count: int
    seed: int


def polarized_average(sample: CurvatureSample, count: int, seed: int) -> SphereAverage:
    """Monte Carlo average of E(z,z,z,z) over the polarized unit sphere."""
    z = _pair_points(sample.n, count, seed)
    vals = np.einsum("abcd,na,nb,nc,nd->n", sample.E_frame, z, z, z, z)
    return SphereAverage(
        estimate=float(vals.mean()),
        standard_error=float(vals.std(ddof=1) / np.sqrt(count)),
        count=count, seed=seed,
    )


@dataclass
class DecompositionFit:
    alpha: float
    beta: float
    residual: float            # max |avg - alpha*S - beta*T| over the batch
    combined_mc_error: float   # rms of the per-sample standard errors
    averages: list

    @property
    def beta_over_alpha(self) -> float:
        return self.beta / self.alpha


def decomposition_fit(samples: list[CurvatureSample], count: int,
                      seed: int) -> DecompositionFit:
    """Least-squares fit avg ~ alpha * S + beta * T across a batch.

    S is the frame scalar trace, T the diagonal-inclusive anti-bisectional
    trace; the exact weights are 2/(n(n+2)) and 1/(n(n+2)).
    """
    if len(samples) < 2:
        raise BadParams("fit needs a batch of at least two samples")
    avgs, ses, Ss, Ts = [], [], [], []
    for i, smp in enumerate(samples):
        sa = polarized_average(smp, count, seed + i)
        avgs.append(sa.estimate)
        ses.append(sa.standard_error)
        Ss.append(scalar(smp))
        Ts.append(full_abc_trace(smp))
    M = np.stack([Ss, Ts], axis=1)
    y = np.asarray(avgs)
    coef, *_ = np.linalg.lstsq(M, y, rcond=None)
    resid = float(np.abs(M @ coef - y).max())
    return DecompositionFit(
        alpha=float(coef[0]), beta=float(coef[1]), residual=resid,
        combined_mc_error=float(np.sqrt(np.mean(np.square(ses)))),
        averages=avgs,
    )


# -- plane restriction of the sectional form -----------------------------------

@dataclass
class TrigFit:
    """Even-harmonic model a0 + a1 cos2t + a2 sin2t + a3 cos4t + a4 sin4t."""

    a0: float
    a1: float
    a2: float
    a3: float
    a4: float
    residual: float

    @property
    def coefficients(self) -> np.ndarray:
        return np.array([self.a0, self.a1, self.a2, self.a3, self.a4])

    def __call__(self, theta):
        t = np.asarray(theta, dtype=float)
        return (self.a0 + self.a1 * np.cos(2 * t) + self.a2 * np.sin(2 * t)
                + self.a3 * np.cos(4 * t) + self.a4 * np.sin(4 * t))


def _check_pair_orthonormal(sample: CurvatureSample, X, Xp):
    g = sample.h
    G = np.array([
        [X @ g @ X, X @ g @ Xp],
        [Xp @ g @ X, Xp @ g @ Xp],
    ])
    if np.abs(G - np.eye(2)).max() > 1e-10:
        raise BadFrame("plane vectors are not h-orthonormal within 1e-10")


def plane_fit(sample: CurvatureSample, X: np.ndarray, Xp: np.ndarray,
              n_angles: int = 360) -> TrigFit:
    """Discrete Fourier projection of f(t) = E(X_t, X_t, X_t, X_t) on the
    5-term even-harmonic model, X_t = cos(t) X + sin(t) Xp.

    The restriction is band-limited to the modeled harmonics, so the
    residual is numerical-noise sized for exact jets.
    """
    X = np.asarray(X, float)
    Xp = np.asarray(Xp, float)
    _check_pair_orthonormal(sample, X, Xp)
    th = np.linspace(0.0, 2 * np.pi, n_angles, endpoint=False)
    V = np.cos(th)[:, None] * X[None, :] + np.sin(th)[:, None] * Xp[None, :]
    vals = np.einsum("ijkl,ai,aj,ak,al->a", sample.E, V, V, V, V)
    a0 = float(vals.mean())
    a1 = float(2.0 * np.mean(vals * np.cos(2 * th)))
    a2 = float(2.0 * np.mean(vals * np.sin(2 * th)))
    a3 = float(2.0 * np.mean(vals * np.cos(4 * th)))
    a4 = float(2.0 * np.mean(vals * np.sin(4 * th)))
    fit = TrigFit(a0, a1, a2, a3, a4, 0.0)
    fit.residual = float(np.abs(vals - fit(th)).max())
    return fit


@dataclass
class WedgeReport:
    h_min: float
    planes_checked: int
    worst_fifth_margin: float      # max over planes of a0 - h_min/5 (<= tol)
    worst_wedge_margin: float      # max over planes, |t|<=pi/12 of f(t) - h_min/5
    tolerance: float
    passed: bool


def fifth_and_wedge_checks(sample: CurvatureSample, n_perp: int = 16,
                           seed: int = 0) -> WedgeReport:
    """At the polarized sectional minimizer X: in every (X, Xp) plane the
    plane average satisfies a0 <= H(X)/5 and the sectional value stays
    below H(X)/5 on the wedge |t| <= pi/12.

    Requires strictly negative polarized sectional values (NotNegativeHSC
    otherwise).  For n = 2 there is a single plane; for n >= 3 a seeded set
    of n_perp orthonormal completions is scanned.
    """
    Ef = sample.E_frame
    n = sample.n
    if n < 2:
        raise BadParams("plane checks need n >= 2")
    _, mn = _extrema.quartic_extrema(Ef)
    tol = 1e-9 * (1.0 + float(np.abs(Ef).max()))
    if mn.value >= -tol:
        raise NotNegativeHSC(
            f"polarized sectional minimum {mn.value:.3e} is not strictly negative")
    Xf = mn.v
    if n == 2:
        perps = [np.array([-Xf[1], Xf[0]])]
    else:
        rng = np.random.default_rng(seed)
        perps = []
        for _ in range(n_perp):
            u = rng.normal(size=n)
            u -= (u @ Xf) * Xf
            perps.append(u / np.linalg.norm(u))
    bound = mn.value / 5.0
    th = np.linspace(-np.pi / 12.0, np.pi / 12.0, 61)
    worst_fifth = -np.inf
    worst_wedge = -np.inf
    for P in perps:
        V = np.cos(th)[:, None] * Xf[None, :] + np.sin(th)[:, None] * P[None, :]
        vals = np.einsum("abcd,na,nb,nc,nd->n", Ef, V, V, V, V)
        full = np.linspace(0.0, 2 * np.pi, 360, endpoint=False)
        Vf = np.cos(full)[:, None] * Xf[None, :] + np.sin(full)[:, None] * P[None, :]
        a0 = float(np.einsum("abcd,na,nb,nc,nd->n", Ef, Vf, Vf, Vf, Vf).mean())
        worst_fifth = max(worst_fifth, a0 - bound)
        worst_wedge = max(worst_wedge, float(vals.max()) - bound)
    return WedgeReport(
        h_min=mn.value, planes_checked=len(perps),
        worst_fifth_margin=float(worst_fifth), worst_wedge_margin=float(worst_wedge),
        tolerance=tol, passed=(worst_fifth <= tol and worst_wedge <= tol),
    )


# -- Ricci as a sphere average ---------------------------------------------------

@dataclass
class RicciAverage:
    lhs: float
    integral: float
    standard_error: float
    calibrated_constant: float

    @property
    def ratio(self) -> float:
        return self.lhs / self.integral if self.integral != 0 else np.nan


def ricci_average(sample: CurvatureSample, count: int, seed: int,
                  direction: np.ndarray | None = None) -> RicciAverage:
    """Ricci value in a polarized unit direction vs. the Monte Carlo average
    of the bisectional pairing with unit (1,0)-vectors.

    The engine normalization makes the ratio equal to the complex dimension
    n (each unit vector contributes 1/n of its trace on average); the ratio
    is returned for constancy checks and the constant n is reported.
    """
    n = sample.n
    Ef = sample.E_frame
    rng = np.random.default_rng(seed)
    if direction is None:
        Xf = rng.normal(size=n)
        Xf /= np.linalg.norm(Xf)
    else:
        d = np.asarray(direction, float)
        # direction is given in coordinates: convert to frame components
        F = sample.frame
        Xf = np.linalg.solve(F, d)
        Xf /= np.linalg.norm(Xf)
    M = np.einsum("abkl,a,b->kl", Ef, Xf, Xf)
    lhs = float(np.trace(M))
    u = rng.normal(size=(count, n))
    v = rng.normal(size=(count, n))
    Z = u + 1j * v
    Z /= np.linalg.norm(Z, axis=1, keepdims=True)
    vals = np.real(np.einsum("kl,nk,nl->n", M.astype(complex), Z, Z.conj()))
    return RicciAverage(
        lhs=lhs,
        integral=float(vals.mean()),
        standard_error=float(vals.std(ddof=1) / np.sqrt(count)),
        calibrated_constant=float(n),
    )

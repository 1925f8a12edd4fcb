"""Sphere-averaging identities for curvature forms.

Every sphere average here integrates a polynomial of degree at most 4, and
one fixed cubature rule integrates it exactly (``_sphere_rule``): on S^{n-1}
the points +-e_i with weight (4 - n)/(2 n (n + 2)) and (+-e_i +- e_j)/sqrt(2)
with weight 1/(n (n + 2)), 2 n^2 points in all, integrate every polynomial of
degree <= 5.  At n = 2 they are 8 equally spaced directions; for n >= 5 the
axis weights are negative.  No average is drawn at random, so each identity
below holds to rounding.

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

The Ricci average runs over the complex unit sphere of C^n.  Writing
z = u + iv puts it on the real sphere S^{2n-1}, where the same rule is exact.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import _extrema
from .curvature import CurvatureSample, full_abc_trace, scalar
from .errors import BadFrame, BadParams, NotNegativeHSC


@functools.cache
def _sphere_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only points (2 n^2, n) and weights of the degree-5 rule on S^{n-1}."""
    eye = np.eye(n)
    i, j = np.triu_indices(n, 1)
    diagonals = np.concatenate([eye[i] + eye[j], eye[i] - eye[j]]) / np.sqrt(2.0)
    points = np.concatenate([eye, -eye, diagonals, -diagonals])
    weights = np.repeat([(4.0 - n) / (2 * n * (n + 2)), 1.0 / (n * (n + 2))],
                        [2 * n, 2 * len(diagonals)])
    points.flags.writeable = weights.flags.writeable = False
    return points, weights


def polarized_average(sample: CurvatureSample) -> float:
    """Average of E(z,z,z,z) over the polarized unit sphere."""
    z, w = _sphere_rule(sample.n)
    return float(w @ np.einsum("abcd,na,nb,nc,nd->n", sample.E_frame, z, z, z, z))


@dataclass
class DecompositionFit:
    alpha: float
    beta: float
    residual: float            # max |avg - alpha*S - beta*T| over the batch
    averages: list

    @property
    def beta_over_alpha(self) -> float:
        return self.beta / self.alpha


def decomposition_fit(samples: list[CurvatureSample]) -> DecompositionFit:
    """Least-squares fit avg ~ alpha * S + beta * T across a batch.

    S is the frame scalar trace, T the diagonal-inclusive anti-bisectional
    trace; the exact weights are 2/(n(n+2)) and 1/(n(n+2)).
    """
    if len(samples) < 2:
        raise BadParams("fit needs a batch of at least two samples")
    avgs = [polarized_average(smp) for smp in samples]
    M = np.array([[scalar(smp), full_abc_trace(smp)] for smp in samples])
    y = np.asarray(avgs)
    coef, *_ = np.linalg.lstsq(M, y, rcond=None)
    return DecompositionFit(alpha=float(coef[0]), beta=float(coef[1]),
                            residual=float(np.abs(M @ coef - y).max()), averages=avgs)


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


def plane_fit(sample: CurvatureSample, X: np.ndarray, Xp: np.ndarray) -> TrigFit:
    """Discrete Fourier projection of f(t) = E(X_t, X_t, X_t, X_t) on the
    5-term even-harmonic model, X_t = cos(t) X + sin(t) Xp.

    The restriction is band-limited to the modeled harmonics, so the
    residual is numerical-noise sized for exact jets.
    """
    X = np.asarray(X, float)
    Xp = np.asarray(Xp, float)
    _check_pair_orthonormal(sample, X, Xp)
    th = np.linspace(0.0, 2 * np.pi, 360, endpoint=False)
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


def fifth_and_wedge_checks(sample: CurvatureSample) -> WedgeReport:
    """At the polarized sectional minimizer X: in every (X, Xp) plane the
    plane average satisfies a0 <= H(X)/5 and the sectional value stays
    below H(X)/5 on the wedge |t| <= pi/12.

    Requires strictly negative polarized sectional values (NotNegativeHSC
    otherwise).  For n = 2 there is a single plane; for n >= 3 a set of 16
    orthonormal completions, drawn with seed 0, is scanned.  The plane
    average is exact (the n = 2 sphere rule); the wedge is sampled on 61
    angles.
    """
    Ef = sample.E_frame
    n = sample.n
    if n < 2:
        raise BadParams("plane checks need n >= 2")
    _, mn = _extrema.quartic_extrema(Ef, end="min")
    tol = 1e-9 * (1.0 + float(np.abs(Ef).max()))
    if mn.value >= -tol:
        raise NotNegativeHSC(
            f"polarized sectional minimum {mn.value:.3e} is not strictly negative")
    Xf = mn.v
    if n == 2:
        perps = np.array([[-Xf[1], Xf[0]]])
    else:
        u = np.random.default_rng(0).normal(size=(16, n))
        u -= np.outer(u @ Xf, Xf)
        perps = u / np.linalg.norm(u, axis=1, keepdims=True)
    planes = np.stack([np.broadcast_to(Xf, perps.shape), perps], axis=1)

    def restricted(circle):
        """f at the unit vectors circle (k, 2) of every (X, P) plane: (planes, k)."""
        V = circle @ planes
        return np.einsum("abcd,pka,pkb,pkc,pkd->pk", Ef, V, V, V, V)

    bound = mn.value / 5.0
    z, w = _sphere_rule(2)
    worst_fifth = float((restricted(z) @ w).max()) - bound
    th = np.linspace(-np.pi / 12.0, np.pi / 12.0, 61)
    worst_wedge = float(restricted(np.stack([np.cos(th), np.sin(th)], axis=1)).max()) - bound
    return WedgeReport(
        h_min=mn.value, planes_checked=len(perps),
        worst_fifth_margin=worst_fifth, worst_wedge_margin=worst_wedge,
        tolerance=tol, passed=(worst_fifth <= tol and worst_wedge <= tol),
    )


# -- Ricci as a sphere average ---------------------------------------------------

@dataclass
class RicciAverage:
    lhs: float
    integral: float
    calibrated_constant: float

    @property
    def ratio(self) -> float:
        return self.lhs / self.integral if self.integral != 0 else np.nan


def ricci_average(sample: CurvatureSample, direction: np.ndarray | None = None,
                  seed: int = 0) -> RicciAverage:
    """Ricci value in a polarized unit direction vs. the average of the
    bisectional pairing over unit (1,0)-vectors.  With no direction given,
    one is drawn with the seed.

    The engine normalization makes the ratio equal to the complex dimension
    n (each unit vector contributes 1/n of its trace on average); the ratio
    is returned for constancy checks and the constant n is reported.
    """
    n = sample.n
    if direction is None:
        Xf = np.random.default_rng(seed).normal(size=n)
    else:
        # direction is given in coordinates: convert to frame components
        Xf = np.linalg.solve(sample.frame, np.asarray(direction, float))
    Xf /= np.linalg.norm(Xf)
    M = np.einsum("abkl,a,b->kl", sample.E_frame, Xf, Xf)
    p, w = _sphere_rule(2 * n)
    Z = p[:, :n] + 1j * p[:, n:]
    vals = np.real(np.einsum("kl,nk,nl->n", M.astype(complex), Z, Z.conj()))
    return RicciAverage(lhs=float(np.trace(M)), integral=float(w @ vals),
                        calibrated_constant=float(n))

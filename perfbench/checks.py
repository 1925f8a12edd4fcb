"""Checks of the program's outputs against computations made apart from it.

Every check is a pure function of numpy arrays and plain numbers: it takes
an output of the program (and the inputs it was computed from) and returns
a list of ``Problem``s, empty when the output is right.  Nothing here calls
into hesselab, so a check cannot agree with the program by sharing its code.
``selftest.py`` feeds each check one deliberately wrong output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment


# random h-unit pairs per sampled point in the certificate bracket
PAIRS_PER_POINT = 2000


@dataclass(frozen=True)
class Problem:
    """One failed check.  ``known`` marks the program fault that the
    benchmark keeps and counts as a failed operation (see README)."""

    message: str
    known: bool = False


# -- certify-n3 ------------------------------------------------------------------

def core_form(hess: np.ndarray, third: np.ndarray, fourth: np.ndarray) -> np.ndarray:
    """E[ijkl] = h^{pq} psi_ikp psi_jlq - psi_ijkl, without symmetrization."""
    hinv = np.linalg.inv(hess)
    return np.einsum("pq,ikp,jlq->ijkl", hinv, third, third) - fourth


def random_h_pairs(hess: np.ndarray, count: int, orth: bool,
                   rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """``count`` pairs of h-unit vectors (h-orthogonal pairs when ``orth``)."""
    n = hess.shape[0]

    def h_unit(z):
        return z / np.sqrt(np.einsum("ai,ij,aj->a", z, hess, z))[:, None]

    v = h_unit(rng.normal(size=(count, n)))
    w = rng.normal(size=(count, n))
    if orth:
        w = w - np.einsum("ai,ij,aj->a", v, hess, w)[:, None] * v
    return v, h_unit(w)


def quantity_values(E: np.ndarray, hess: np.ndarray, quantity: str,
                    v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Certified quantity at each row pair (v, w); HSC_POL uses v only."""
    if quantity == "HSC_POL":
        nv2 = np.einsum("ai,ij,aj->a", v, hess, v)
        return np.einsum("ijkl,ai,aj,ak,al->a", E, v, v, v, v) / nv2**2
    return np.einsum("ijkl,ai,aj,ak,al->a", E, v, w, v, w)


def check_certificate(quantity: str, verdict: str, extremal_value: float,
                      max_value: float, min_value: float, tolerance: float,
                      witness_v: np.ndarray, witness_w: np.ndarray | None,
                      witness_jet: tuple, point_jets: list[tuple],
                      expected_verdict: str | None,
                      rng: np.random.Generator) -> list[Problem]:
    """Verdict fixed by theory, random bracket, and witness re-evaluation.

    ``point_jets`` are (hessian, third, fourth) at every sampled point and
    ``witness_jet`` the same at the witness point.  Two failures are marked
    ``known``, the extremizer faults the benchmark keeps: an HSC_POL witness
    that does not reproduce the extremal value (the quartic search leaves
    the unit sphere), and an ORTH_ABC max below the random bracket (the
    orthogonal alternating search stops short of the maximum).
    """
    problems = []
    if expected_verdict is not None and verdict != expected_verdict:
        problems.append(Problem(f"{quantity}: verdict {verdict}, theory gives "
                                f"{expected_verdict}"))
    orth = quantity == "ORTH_ABC"
    lo, hi = np.inf, -np.inf
    for hess, third, fourth in point_jets:
        E = core_form(hess, third, fourth)
        v, w = random_h_pairs(hess, PAIRS_PER_POINT, orth, rng)
        vals = quantity_values(E, hess, quantity, v, w)
        lo, hi = min(lo, float(vals.min())), max(hi, float(vals.max()))
    if max_value < hi - tolerance:
        problems.append(Problem(f"{quantity}: certified max {max_value!r} below "
                                f"random pair value {hi!r}",
                                known=quantity == "ORTH_ABC"))
    if min_value > lo + tolerance:
        problems.append(Problem(f"{quantity}: certified min {min_value!r} above "
                                f"random pair value {lo!r}"))
    hess, third, fourth = witness_jet
    w = witness_v if witness_w is None else witness_w
    again = float(quantity_values(core_form(hess, third, fourth), hess, quantity,
                                  witness_v[None, :], w[None, :])[0])
    if not abs(again - extremal_value) <= tolerance:
        problems.append(Problem(
            f"{quantity}: witness gives {again!r}, certificate says "
            f"{extremal_value!r} (|diff| {abs(again - extremal_value):.3e} > "
            f"tolerance {tolerance:.3e})", known=quantity == "HSC_POL"))
    return problems


def check_end_time(reported: float, requested: float) -> list[Problem]:
    """The program reports reaching the time it was asked for."""
    if not abs(reported - requested) <= 1e-9 * abs(requested):
        return [Problem(f"final time {reported!r}, requested {requested!r}")]
    return []


# -- flow-torus ------------------------------------------------------------------

def mode_amplitude(u: np.ndarray, wave: tuple[int, int]) -> float:
    """Coefficient a of a cos(2 pi k.x) in a periodic grid field."""
    m = u.shape[0]
    x = np.arange(m) / m
    phase = 2 * np.pi * (wave[0] * x[:, None] + wave[1] * x[None, :])
    return 2.0 * float(np.mean(u * np.cos(phase)))


def check_decay(u0: np.ndarray, u1: np.ndarray, elapsed: float,
                wave: tuple[int, int]) -> list[Problem]:
    """Single-mode decay rate within 5% of the linearized 8 pi^2 |k|^2."""
    a0, a1 = mode_amplitude(u0, wave), mode_amplitude(u1, wave)
    target = 8 * np.pi**2 * (wave[0] ** 2 + wave[1] ** 2)
    if a0 == 0.0 or a1 / a0 <= 0.0:
        return [Problem(f"mode {wave}: amplitude {a0!r} -> {a1!r} does not decay")]
    rate = np.log(a0 / a1) / elapsed
    if not abs(rate - target) <= 0.05 * target:
        return [Problem(f"mode {wave}: decay rate {rate:.4f}, linearized "
                        f"{target:.4f} (off by more than 5%)")]
    return []


def check_chen(times: np.ndarray, residual: np.ndarray) -> list[Problem]:
    """chen_residual >= -1e-6 at every recorded positive time."""
    bad = [(float(t), float(r)) for t, r in zip(times, residual) if t > 0 and r < -1e-6]
    if bad:
        return [Problem(f"chen_residual below -1e-6 at (t, value) {bad[:3]}")]
    return []


def check_fixed_point(u0: np.ndarray, u1: np.ndarray,
                      abc_max: np.ndarray) -> list[Problem]:
    """The flat torus is a fixed point: no drift, no positive ABC."""
    problems = []
    drift = float(np.abs(u1 - u0).max())
    if not drift <= 1e-12:
        problems.append(Problem(f"flat torus drifted by {drift:.3e} (> 1e-12)"))
    if not float(np.max(abc_max)) <= 1e-6:
        problems.append(Problem(f"flat torus ABC_max {float(np.max(abc_max))!r} > 1e-6"))
    return problems


# -- reaction-ode ----------------------------------------------------------------

def check_scalar_ode(a0: float, t: float, a_final: float) -> list[Problem]:
    """n = 1: dA/dt = 2 A^2 has the solution a0 / (1 - 2 a0 t)."""
    exact = a0 / (1.0 - 2.0 * a0 * t)
    if not abs(a_final - exact) <= 1e-8:
        return [Problem(f"n=1 ODE at t={t!r}: {a_final!r}, closed form {exact!r}")]
    return []


def check_blowup(a0: float, blowup_time: float | None) -> list[Problem]:
    """A positive a0 must blow up within 5% of its pole 1 / (2 a0)."""
    pole = 1.0 / (2.0 * a0)
    if blowup_time is None:
        return [Problem(f"a0={a0!r}: no blow-up reported (pole at {pole!r})")]
    if not abs(blowup_time - pole) <= 0.05 * pole:
        return [Problem(f"a0={a0!r}: blow-up at {blowup_time!r}, pole at {pole!r}")]
    return []


def unit_pair_grid(n: int, count: int, rng: np.random.Generator):
    """Random unit pairs, plus a dense (theta, phi) grid when n = 2."""
    v = rng.normal(size=(count, n))
    w = rng.normal(size=(count, n))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    if n == 2:
        th = np.linspace(0.0, np.pi, 181)
        T, P = (g.ravel() for g in np.meshgrid(th, th, indexing="ij"))
        v = np.concatenate([v, np.stack([np.cos(T), np.sin(T)], axis=1)])
        w = np.concatenate([w, np.stack([np.cos(P), np.sin(P)], axis=1)])
    return v, w


def check_nonpositive(A: np.ndarray, v: np.ndarray, w: np.ndarray) -> list[Problem]:
    """Non-positive ABC is kept: A(v,w,v,w) <= 1e-9 (1 + max|A|) on the pairs."""
    worst = float(np.einsum("ijkl,ai,aj,ak,al->a", A, v, w, v, w).max())
    bound = 1e-9 * (1.0 + float(np.abs(A).max()))
    if not worst <= bound:
        return [Problem(f"n={A.shape[0]} ODE lost non-positive ABC: pair value "
                        f"{worst!r} > {bound:.3e}")]
    return []


# -- ot-window -------------------------------------------------------------------

def check_plan(C: np.ndarray, coupling: np.ndarray, cost: float,
               certified: bool) -> list[Problem]:
    """Uniform measures of equal size: the LP optimum is an assignment."""
    m = C.shape[0]
    rows, cols = linear_sum_assignment(C)
    exact = float(C[rows, cols].sum()) / m
    problems = []
    if not abs(cost - exact) <= 1e-10 * max(abs(exact), 1e-300):
        problems.append(Problem(f"m={m}: LP cost {cost!r}, assignment cost {exact!r}"))
    if not certified:
        problems.append(Problem(f"m={m}: plan not certified by its duals"))
    resid = max(float(np.abs(coupling.sum(axis=1) - 1.0 / m).max()),
                float(np.abs(coupling.sum(axis=0) - 1.0 / m).max()))
    if not resid <= 1e-12:
        problems.append(Problem(f"m={m}: marginal residual {resid:.3e} > 1e-12"))
    return problems


def radial_sym_value(d: np.ndarray, C: float) -> np.ndarray:
    """|d| - C log(|d| + C), the closed form the flow starts from."""
    r = np.linalg.norm(d, axis=-1)
    return r - C * np.log(r + C)


def check_initial_cost(cost: np.ndarray, X: np.ndarray, Y: np.ndarray,
                       C: float) -> list[Problem]:
    """At t = 0 the checkpoint cost is the closed-form cost within 1e-9."""
    exact = radial_sym_value(X[:, None, :] - Y[None, :, :], C)
    err = float(np.abs(cost - exact).max())
    if not err <= 1e-9:
        return [Problem(f"t=0 grid cost differs from closed form by {err:.3e}")]
    return []

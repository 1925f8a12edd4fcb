"""Extremization of curvature forms over unit vectors.

All routines act on a rank-4 tensor ``T`` expressed in a frame where the
metric is the identity, with the index symmetries T[ijkl] = T[kjil] =
T[ilkj] = T[jilk].  The pair objective is T(v,w,v,w) over unit vectors;
the quartic objective is T(v,v,v,v).

n = 2 reduces exactly: the objectives are low-degree trigonometric
polynomials, the inner angle is eliminated in closed form, and the
remaining angle is scanned on a dense grid with Newton refinement, so no
basin can be missed.  n >= 3 uses seeded multi-restart alternating
eigensolves for the pair objective (each half-step is exact, the value is
monotone) and great-circle line searches for the quartic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ZeroVector


@dataclass
class Extremum:
    value: float
    v: np.ndarray
    w: np.ndarray | None = None


def _unit(v: np.ndarray) -> np.ndarray:
    nv = np.linalg.norm(v)
    if nv == 0:
        raise ZeroVector("zero direction")
    return v / nv


def pair_value(T: np.ndarray, v: np.ndarray, w: np.ndarray) -> float:
    return float(np.einsum("ijkl,i,j,k,l->", T, v, w, v, w))


def quartic_value(T: np.ndarray, v: np.ndarray) -> float:
    return float(np.einsum("ijkl,i,j,k,l->", T, v, v, v, v))


# -- n = 2: exact reduction to one angle ----------------------------------------
#
# With v = (cos t, sin t), the dyad v v^T is affine in (1, cos 2t, sin 2t), so
# T(v, w, v, w) = u(t)^T C u(p) for a fixed 3x3 matrix C.  For each t the
# extremum over p is alpha +- sqrt(beta^2 + gamma^2) with (alpha, beta, gamma)
# = u(t)^T C, leaving a one-angle trigonometric problem solved on a dense grid
# with Newton refinement.

def _dyad_basis() -> np.ndarray:
    B = np.zeros((3, 2, 2))
    B[0] = 0.5 * np.eye(2)
    B[1] = 0.5 * np.diag([1.0, -1.0])
    B[2] = 0.5 * np.array([[0.0, 1.0], [1.0, 0.0]])
    return B


_DYADS = _dyad_basis()


def _coeff_matrix(T: np.ndarray) -> np.ndarray:
    """C[a, b] = <T, B_a (x) B_b> over the slot pairs (1,3) and (2,4)."""
    return np.einsum("ijkl,aik,bjl->ab", T, _DYADS, _DYADS)


def _angle_u(t):
    return np.array([1.0, np.cos(2.0 * t), np.sin(2.0 * t)])


def _vec_of(t):
    return np.array([np.cos(t), np.sin(t)])


def _scan_refine(fun, grid_values, n_angles: int, ends=(True, False)) -> list:
    """[(t, fun(t)) for each end (True: max)], Newton-refined from the best
    node of grid_values(U), whose rows are (1, cos 2t, sin 2t) on [0, pi)."""
    th = np.linspace(0.0, np.pi, n_angles, endpoint=False)
    U = np.stack([np.ones_like(th), np.cos(2 * th), np.sin(2 * th)], axis=1)
    vals = grid_values(U)
    span = np.pi / n_angles
    return [_refine_1d(fun, th[np.argmax(vals) if mx else np.argmin(vals)], mx, span)
            for mx in ends]


def _pair_extrema_2d(T: np.ndarray, n_angles: int, maximize: bool) -> Extremum:
    C = _coeff_matrix(T)
    sgn = 1.0 if maximize else -1.0

    def outer(t):
        a, b, g = _angle_u(t) @ C
        return a + sgn * np.hypot(b, g)

    def grid_values(U):
        abg = U @ C
        return abg[:, 0] + sgn * np.hypot(abg[:, 1], abg[:, 2])

    [(t_star, v_star)] = _scan_refine(outer, grid_values, n_angles, (maximize,))
    a, b, g = _angle_u(t_star) @ C
    hyp = np.hypot(b, g)
    if hyp > 0:
        c2p, s2p = sgn * b / hyp, sgn * g / hyp
        p_star = 0.5 * np.arctan2(s2p, c2p)
    else:
        p_star = 0.0
    return Extremum(float(v_star), _vec_of(t_star), _vec_of(p_star))


def _refine_1d(fun, t0, maximize, span, iters=60):
    sgn = 1.0 if maximize else -1.0
    h = span * 0.25
    t, best = t0, fun(t0)
    for _ in range(iters):
        fm, fp = fun(t - h), fun(t + h)
        d1 = (fp - fm) / (2 * h)
        d2 = (fp - 2 * best + fm) / h**2
        if abs(d2) > 1e-300:
            step = -d1 / d2
        else:
            step = sgn * d1
        step = min(max(step, -span), span)
        cand_t = t + step
        cand = fun(cand_t)
        if sgn * (cand - best) >= 0 and abs(step) > 0:
            t, best = cand_t, cand
            h = max(abs(step) * 0.5, 1e-9)
        else:
            h *= 0.5
            if h < 1e-12:
                break
    return t, best


# -- n >= 3: alternating eigensolves / geodesic search --------------------------

def _constrained_eigvec(Q: np.ndarray, avoid: np.ndarray | None, pick: int) -> np.ndarray:
    """Extremal unit eigenvector of Q, restricted to avoid^perp when given.

    The restriction deflates the avoided direction by shifting its eigenvalue
    past the relevant end of the spectrum (rank-one update, no basis build).
    """
    if avoid is not None:
        shift = (np.abs(Q).sum() + 1.0)
        if pick == -1:
            Q = Q - shift * np.outer(avoid, avoid)
        else:
            Q = Q + shift * np.outer(avoid, avoid)
    _, vecs = np.linalg.eigh(Q)
    u = vecs[:, pick]
    if avoid is not None:
        u = u - (u @ avoid) * avoid
        u = _unit(u)
    return u


def _alternating_pair(T, v, w, maximize, orth, iters=200, tol=1e-14):
    """For fixed v the objective is a quadratic form in w (and symmetrically),
    so each half-step is an exact eigensolve; the value is monotone."""
    pick = -1 if maximize else 0
    sgn = 1.0 if maximize else -1.0
    v = _unit(v)
    w = _unit(w)
    if orth:
        w = _unit(w - (w @ v) * v)
    f = pair_value(T, v, w)
    stall = 0
    for _ in range(iters):
        Qv = np.einsum("ijkl,i,k->jl", T, v, v)
        Qv = 0.5 * (Qv + Qv.T)
        w = _constrained_eigvec(Qv, v if orth else None, pick)
        Pw = np.einsum("ijkl,j,l->ik", T, w, w)
        Pw = 0.5 * (Pw + Pw.T)
        v = _constrained_eigvec(Pw, w if orth else None, pick)
        f2 = pair_value(T, v, w)
        if sgn * (f2 - f) <= tol * (1.0 + abs(f2)):
            stall += 1
            if stall >= 2:
                f = max(f, f2) if maximize else min(f, f2)
                break
        else:
            stall = 0
        f = f2
    return Extremum(f, v, w)


_CIRC_GRID = np.linspace(0.0, np.pi, 64, endpoint=False)
_CIRC_COS = np.cos(_CIRC_GRID)
_CIRC_SIN = np.sin(_CIRC_GRID)


def _geodesic_quartic(T, v, maximize, iters=60, tol=1e-14):
    """Great-circle line search: along any geodesic the quartic restricts to a
    degree-4 trigonometric polynomial, extremized by a dense grid + Newton."""
    sgn = 1.0 if maximize else -1.0
    v = _unit(v)
    f = quartic_value(T, v)
    for _ in range(iters):
        g = 4.0 * np.einsum("ijkl,j,k,l->i", T, v, v, v)
        g = g - (g @ v) * v
        gn = np.linalg.norm(g)
        if gn < tol * (1.0 + abs(f)):
            break
        d = g / gn

        def circ(s):
            return quartic_value(T, np.cos(s) * v + np.sin(s) * d)

        V = _CIRC_COS[:, None] * v[None, :] + _CIRC_SIN[:, None] * d[None, :]
        vals = np.einsum("ijkl,ai,aj,ak,al->a", T, V, V, V, V)
        s0 = _CIRC_GRID[int(np.argmax(sgn * vals))]
        s_star, f_star = _refine_1d(circ, s0, maximize, np.pi / 64)
        if sgn * (f_star - f) <= tol * (1.0 + abs(f)):
            break
        v = _unit(np.cos(s_star) * v + np.sin(s_star) * d)
        f = f_star
    return Extremum(f, v)


# -- public entry points ------------------------------------------------------

def pair_extrema(T: np.ndarray, orth: bool = False, n_angles: int = 720,
                 restarts: int = 64, seed: int = 0) -> tuple[Extremum, Extremum]:
    """(max, min) of T(v,w,v,w) over unit vectors, optionally with v.w = 0."""
    n = T.shape[0]
    if n == 1:
        v = np.ones(1)
        if orth:
            raise ZeroVector("no orthogonal pairs in dimension 1")
        val = pair_value(T, v, v)
        return Extremum(val, v, v.copy()), Extremum(val, v, v.copy())
    if n == 2:
        if orth:
            C = _coeff_matrix(T)

            def f(t):
                u = _angle_u(t)
                return float(u @ C @ np.array([1.0, -u[1], -u[2]]))

            (tmax, vmax), (tmin, vmin) = _scan_refine(
                f, lambda U: np.einsum("ab,na,nb->n", C, U, U * [1.0, -1.0, -1.0]),
                n_angles)

            def pair_of(t):
                return (np.array([np.cos(t), np.sin(t)]),
                        np.array([-np.sin(t), np.cos(t)]))

            vM, wM = pair_of(tmax)
            vm, wm = pair_of(tmin)
            return Extremum(vmax, vM, wM), Extremum(vmin, vm, wm)
        return (_pair_extrema_2d(T, n_angles, True),
                _pair_extrema_2d(T, n_angles, False))
    rng = np.random.default_rng(seed)
    best_max = best_min = None
    for _ in range(restarts):
        v0 = rng.normal(size=n)
        w0 = rng.normal(size=n)
        mx = _alternating_pair(T, v0, w0, True, orth)
        mn = _alternating_pair(T, v0.copy(), w0.copy(), False, orth)
        if best_max is None or mx.value > best_max.value:
            best_max = mx
        if best_min is None or mn.value < best_min.value:
            best_min = mn
    return best_max, best_min


def quartic_extrema(T: np.ndarray, n_angles: int = 720, restarts: int = 64,
                    seed: int = 0) -> tuple[Extremum, Extremum]:
    """(max, min) of T(v,v,v,v) over unit vectors."""
    n = T.shape[0]
    if n == 1:
        v = np.ones(1)
        val = quartic_value(T, v)
        return Extremum(val, v), Extremum(val, v)
    if n == 2:
        C = _coeff_matrix(T)

        def f(t):
            u = _angle_u(t)
            return float(u @ C @ u)

        (tmax, vmax), (tmin, vmin) = _scan_refine(
            f, lambda U: np.einsum("ab,na,nb->n", C, U, U), n_angles)
        return (Extremum(vmax, np.array([np.cos(tmax), np.sin(tmax)])),
                Extremum(vmin, np.array([np.cos(tmin), np.sin(tmin)])))
    rng = np.random.default_rng(seed)
    best_max = best_min = None
    for _ in range(restarts):
        v0 = rng.normal(size=n)
        mx = _geodesic_quartic(T, v0, True)
        mn = _geodesic_quartic(T, v0.copy(), False)
        if best_max is None or mx.value > best_max.value:
            best_max = mx
        if best_min is None or mn.value < best_min.value:
            best_min = mn
    return best_max, best_min

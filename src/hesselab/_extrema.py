"""Extremization of curvature forms over unit vectors.

All routines act on a rank-4 tensor ``T`` expressed in a frame where the
metric is the identity, with the index symmetries T[ijkl] = T[kjil] =
T[ilkj] = T[jilk].  The pair objective is T(v,w,v,w) over unit vectors;
the quartic objective is T(v,v,v,v).

n = 2 reduces exactly to one angle theta = 2t of v = (cos t, sin t): the
objectives are low-degree trigonometric polynomials in theta, or such a
polynomial plus the norm of a pair of them once the inner angle is
eliminated in closed form.  The angle is scanned on a grid, and the best
node is refined by Newton's method on f'(theta) = 0 with exact derivatives,
kept inside the bracket of the node's two neighbours (bisection otherwise).
The scan picks the basin; nothing yet bounds what lies between its nodes.
Returned values are recomputed from the returned unit vectors.  n >= 3 uses
seeded multi-restart alternating eigensolves for the pair objective (each
half-step is exact, the value is monotone) and great-circle line searches
for the quartic.

The search settings live here and nowhere else: ``n_angles`` scan nodes
(read at n = 2 only), and ``restarts`` start points drawn from ``seed``
(read at n >= 3 only), by default 720, 64 and 0.  Two callers override
them: ``flow._channel_values`` scans MONITOR_ANGLES nodes, and
``reaction.noab_probe`` passes its own restarts and a seed per trial.
"""

from __future__ import annotations

import functools
import math
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
# For v = (cos t, sin t) the dyad v v^T is affine in u(theta) = (1, cos theta,
# sin theta), theta = 2t, so T(v, w, v, w) = u(theta)^T C u(phi) for
# w = (cos p, sin p), phi = 2p.  Each objective is alpha + s |(beta, gamma)|
# in theta: the pair has (alpha, beta, gamma) = u(theta)^T C once p is
# eliminated and s = +-1; the quartic has alpha = u^T C u and ORTH
# (phi = theta + pi) alpha = u^T C diag(1, -1, -1) u, both with s = 0.

_DYADS = 0.5 * np.array([np.eye(2), np.diag([1.0, -1.0]), [[0.0, 1.0], [1.0, 0.0]]])
_FLIP = np.array([1.0, -1.0, -1.0])  # u(theta + pi) = _FLIP * u(theta)


def _coeff_matrix(T: np.ndarray) -> np.ndarray:
    """C[a, b] = <T, B_a (x) B_b> over the slot pairs (1,3) and (2,4)."""
    return np.einsum("ijkl,aik,bjl->ab", T, _DYADS, _DYADS)


@functools.cache
def _grid(n_angles: int):
    """Nodes t on [0, pi) and their rows (1, cos 2t, sin 2t), read-only."""
    th = np.linspace(0.0, np.pi, n_angles, endpoint=False)
    U = np.stack([np.ones_like(th), np.cos(2 * th), np.sin(2 * th)], axis=1)
    th.flags.writeable = U.flags.writeable = False
    return th, U


def _quadratic_trig(M: np.ndarray) -> tuple:
    """u(theta)^T M u(theta) as the coefficients (p0, .., p4) of
    p0 + p1 cos theta + p2 sin theta + p3 cos 2 theta + p4 sin 2 theta."""
    S = 0.5 * (M + M.T)
    return (float(S[0, 0] + 0.5 * (S[1, 1] + S[2, 2])), float(2.0 * S[0, 1]),
            float(2.0 * S[0, 2]), float(0.5 * (S[1, 1] - S[2, 2])), float(S[1, 2]))


def _trig_jet(p: tuple, c1: float, s1: float, c2: float, s2: float) -> tuple:
    """Value and first two theta-derivatives of the trigonometric polynomial p."""
    return (p[0] + p[1] * c1 + p[2] * s1 + p[3] * c2 + p[4] * s2,
            p[2] * c1 - p[1] * s1 + 2.0 * (p[4] * c2 - p[3] * s2),
            -(p[1] * c1 + p[2] * s1) - 4.0 * (p[3] * c2 + p[4] * s2))


def _objective_jet(x: float, alpha: tuple, beta: tuple, gamma: tuple, s: float):
    """(f, f', f'') of alpha + s * hypot(beta, gamma) at theta = x."""
    c1, s1 = math.cos(x), math.sin(x)
    at = (c1, s1, c1 * c1 - s1 * s1, 2.0 * s1 * c1)
    f, f1, f2 = _trig_jet(alpha, *at)
    if s:
        b, b1, b2 = _trig_jet(beta, *at)
        g, g1, g2 = _trig_jet(gamma, *at)
        r = math.hypot(b, g)
        if r > 0.0:  # a kink of |(b, g)| is never an extremum of the wanted end
            r1 = (b * b1 + g * g1) / r
            f, f1 = f + s * r, f1 + s * r1
            f2 += s * (b1 * b1 + b * b2 + g1 * g1 + g * g2 - r1 * r1) / r
    return f, f1, f2


def _newton_2t(th: np.ndarray, vals: np.ndarray, maximize: bool, alpha: tuple,
               beta: tuple, gamma: tuple, s: float) -> float:
    """Angle theta = 2t where f'(theta) = 0, refined from the best node of vals.

    The bracket starts at the node's two neighbours and shrinks to the side
    where the wanted end rises; a Newton step that leaves it, or is taken
    where f curves the wrong way, is replaced by bisection.  Iteration stops
    when f' is exactly 0 or the step no longer moves theta.
    """
    sgn = 1.0 if maximize else -1.0
    x = 2.0 * float(th[np.argmax(vals) if maximize else np.argmin(vals)])
    d = 2.0 * np.pi / len(th)
    lo, hi = x - d, x + d
    for _ in range(64):
        _, g, g2 = _objective_jet(x, alpha, beta, gamma, s)
        g, g2 = sgn * g, sgn * g2
        if g > 0.0:
            lo = x
        elif g < 0.0:
            hi = x
        else:
            break
        nx = x - g / g2 if g2 < 0.0 else None
        if nx is None or not lo < nx < hi:
            nx = 0.5 * (lo + hi)
        if nx == x:
            break
        x = nx
    return x


def _unit_at(t: float) -> np.ndarray:
    return np.array([math.cos(t), math.sin(t)])


def _extrema_2d(T: np.ndarray, n_angles: int, kind: str) -> tuple[Extremum, Extremum]:
    """(max, min) for kind "pair", "orth" or "quartic" at n = 2."""
    C = _coeff_matrix(T)
    th, U = _grid(n_angles)
    if kind == "pair":
        abg = U @ C
        hyp = np.hypot(abg[:, 1], abg[:, 2])
        coeffs = [tuple(float(c) for c in C[:, j]) + (0.0, 0.0) for j in range(3)]
        scans = ((abg[:, 0] + hyp, 1.0), (abg[:, 0] - hyp, -1.0))
    else:
        flip = _FLIP if kind == "orth" else 1.0
        vals = np.einsum("ab,na,nb->n", C, U, U * flip)
        coeffs = [_quadratic_trig(C * flip), (), ()]
        scans = ((vals, 0.0), (vals, 0.0))
    out = []
    for maximize, (vals, s) in zip((True, False), scans):
        x = _newton_2t(th, vals, maximize, *coeffs, s)
        v = _unit_at(0.5 * x)
        if kind == "quartic":
            out.append(Extremum(quartic_value(T, v), v))
            continue
        if kind == "orth":
            w = np.array([-v[1], v[0]])
        else:  # the inner angle's closed form: 2p = arg(s * (beta, gamma))
            _, b, g = np.array([1.0, math.cos(x), math.sin(x)]) @ C
            w = _unit_at(0.5 * math.atan2(s * g, s * b) if b or g else 0.0)
        out.append(Extremum(pair_value(T, v, w), v, w))
    return tuple(out)


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
        return _extrema_2d(T, n_angles, "orth" if orth else "pair")
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
        return _extrema_2d(T, n_angles, "quartic")
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

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
A Newton step that rounds to no move ends the refinement where it is, even
on the end of the bracket, so a refinement costs about four evaluations.
The scan picks the basin; nothing yet bounds what lies between its nodes.
Returned values are recomputed from the returned unit vectors.  At n = 2
the entry points take a stack of tensors (leading axes): one einsum or
matmul per objective scans it, each (tensor, requested end) gets its own
Newton run and one einsum recomputes the values, each the tensor's own to
the bit.  Only the ends a caller asks for (``end``) are refined at any n,
each the same to the bit as that end of a call for both.  A T with a NaN
or inf entry raises BadParams before any scan or LAPACK call.

n >= 3 uses seeded multi-restart alternating eigensolves for the pair
objective (each half-step is exact, the value is monotone).  The quartic
scans a fixed node set of the upper hemisphere (it is even) and refines the
best node of each end by Riemannian Newton steps on the sphere; here too
the scan picks the basin.

The search settings live here: ``n_angles`` scan nodes (n = 2), and
``restarts`` pair start points from ``seed`` (n >= 3), by default 720, 64
and 0.  ``flow._channel_values`` scans MONITOR_ANGLES nodes, and
``reaction.noab_probe`` passes its own restarts and a seed per trial.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BadParams, ZeroVector
from .jets import symmetrize


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


def _checked_ends(T: np.ndarray, end: str | None) -> tuple:
    """The slots of (max, min) that end asks for; BadParams for any other
    end and for a T with a NaN or inf entry."""
    if end not in ("max", "min", None):
        raise BadParams(f"end must be 'max', 'min' or None, got {end!r}")
    if not np.isfinite(T).all():
        raise BadParams("extremization needs a finite tensor, got a NaN or inf entry")
    return (0, 1) if end is None else ((0,) if end == "max" else (1,))


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


@functools.cache
def _grid(n_angles: int):
    """Nodes t on [0, pi) and their rows (1, cos 2t, sin 2t), read-only."""
    th = np.linspace(0.0, np.pi, n_angles, endpoint=False)
    U = np.stack([np.ones_like(th), np.cos(2 * th), np.sin(2 * th)], axis=1)
    th.flags.writeable = U.flags.writeable = False
    return th, U


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


def _newton_2t(x: float, d: float, maximize: bool, alpha: tuple, beta: tuple,
               gamma: tuple, s: float) -> float:
    """Angle theta = 2t where f'(theta) = 0, refined from the scan's best node.

    The bracket starts at the node's two neighbours x -+ d and shrinks to the side
    where the wanted end rises; a Newton step that leaves it, or is taken
    where f curves the wrong way, is replaced by bisection.  Iteration stops
    when f' is exactly 0 or the step no longer moves theta.  A Newton step
    that rounds to no move is tested before the bracket: theta has just
    become an end of the bracket, and bisecting from there would walk back
    to it at the cost of some twenty evaluations.
    """
    sgn = 1.0 if maximize else -1.0
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
        if nx != x and (nx is None or not lo < nx < hi):
            nx = 0.5 * (lo + hi)
        if nx == x:
            break
        x = nx
    return x


def _extrema_2d(T: np.ndarray, n_angles: int, kind: str, ends: tuple) -> tuple:
    """(max, min) for kind "pair", "orth" or "quartic" at n = 2 over the stack
    axes of T (none for one tensor), the slots of ends only (None in the
    other); a single tensor goes through as a stack of one."""
    stack = T.shape[:-4]
    T = T.reshape((-1,) + T.shape[-4:])
    C = np.einsum("mijkl,aik,bjl->mab", T, _DYADS, _DYADS)  # <T, B_a (x) B_b>
    th, U = _grid(n_angles)
    coeffs = np.zeros((len(T), 3, 5))  # alpha, beta, gamma: p . (1, cos, sin, cos 2, sin 2)
    if kind == "pair":
        abg = U @ C
        hyp = np.hypot(abg[..., 1], abg[..., 2])
        scans, s = (abg[..., 0] + hyp, abg[..., 0] - hyp), (1.0, -1.0)
        coeffs[:, :, :3] = np.swapaxes(C, 1, 2)
    else:  # alpha = u^T Q u
        Q = C * _FLIP if kind == "orth" else C
        scans, s = (np.einsum("mab,na,nb->mn", Q, U, U),) * 2, (0.0, 0.0)
        S = 0.5 * (Q + np.swapaxes(Q, 1, 2))
        coeffs[:, 0] = np.stack([S[:, 0, 0] + 0.5 * (S[:, 1, 1] + S[:, 2, 2]), 2.0 * S[:, 0, 1],
                                 2.0 * S[:, 0, 2], 0.5 * (S[:, 1, 1] - S[:, 2, 2]), S[:, 1, 2]], 1)
    start = 2.0 * th[np.stack([(np.argmax, np.argmin)[e](scans[e], 1) for e in ends], axis=1)]
    d = 2.0 * np.pi / n_angles
    x = [[_newton_2t(x0, d, e == 0, *c, s[e]) for e, x0 in zip(ends, xm)]
         for xm, c in zip(start.tolist(), coeffs.tolist())]
    V = np.array([[(math.cos(0.5 * a), math.sin(0.5 * a)) for a in xm] for xm in x])
    if kind == "quartic":
        W = V
    elif kind == "orth":
        W = V[..., ::-1] * [-1.0, 1.0]  # v turned a quarter
    else:  # the inner angle's closed form: 2p = arg(s * (beta, gamma))
        rows = np.array([[(1.0, math.cos(a), math.sin(a)) for a in xm] for xm in x])
        bg = (rows[:, :, None] @ C[:, None])[:, :, 0, 1:].tolist()
        p = [[0.5 * math.atan2(s[e] * g, s[e] * b) if b or g else 0.0
              for (b, g), e in zip(bm, ends)] for bm in bg]
        W = np.array([[(math.cos(q), math.sin(q)) for q in qm] for qm in p])
    values = np.einsum("mijkl,mei,mej,mek,mel->me", T, V, W, V, W).reshape(stack + (-1,))
    V, W = V.reshape(stack + (-1, 2)), W.reshape(stack + (-1, 2))
    out = [None, None]
    for i, e in enumerate(ends):
        out[e] = Extremum(values[..., i] if stack else float(values[i]), V[..., i, :],
                          None if kind == "quartic" else W[..., i, :])
    return tuple(out)


# -- n >= 3: alternating eigensolves (pair), sphere scan and Newton (quartic) --

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
    so each half-step is an exact eigensolve; the value is monotone up to
    rounding.  The last iterate is returned with its own value."""
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
        stall = stall + 1 if sgn * (f2 - f) <= tol * (1.0 + abs(f2)) else 0
        f = f2
        if stall >= 2:
            break
    return Extremum(f, v, w)


_FIBONACCI_NODES = 4000  # hemisphere nodes at n = 3
_GAUSSIAN_NODES = 32000  # hemisphere nodes at n >= 4, drawn with _GAUSSIAN_SEED
_GAUSSIAN_SEED = 0
_NEWTON_STEPS = 32


@functools.cache
def _sphere(n: int):
    """Unit nodes v of the upper hemisphere of S^{n-1} and their rows
    vec(v v^T), read-only: the spherical Fibonacci set at n = 3, a seeded
    Gaussian draw at n >= 4."""
    if n == 3:
        z = (np.arange(_FIBONACCI_NODES) + 0.5) / _FIBONACCI_NODES
        phi = np.arange(_FIBONACCI_NODES) * (np.pi * (3.0 - math.sqrt(5.0)))
        r = np.sqrt(1.0 - z * z)
        V = np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
    else:
        V = np.random.default_rng(_GAUSSIAN_SEED).normal(size=(_GAUSSIAN_NODES, n))
        V *= np.copysign(1.0, V[:, -1:]) / np.linalg.norm(V, axis=1, keepdims=True)
    VV = np.einsum("ni,nj->nij", V, V).reshape(len(V), n * n)
    V.flags.writeable = VV.flags.writeable = False
    return V, VV


def _newton_quartic(S2: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Riemannian Newton steps for the fully symmetric quartic S(v,v,v,v) on
    the unit sphere from v, S2 = S.reshape(n^2, n^2).  With g = 4 S(v,v,v,.)
    and H = 12 S(v,v,.,.), the step solves [H - (g.v) I, v; v^T, 0] (d, mu) =
    ((g.v) v - g, 0), dropping the flat directions of a degenerate extremum.
    Steps are taken while they shrink; the first that does not is rounding."""
    n = len(v)
    K = np.zeros((n + 1, n + 1))
    rhs = np.zeros(n + 1)
    last = np.inf
    for _ in range(_NEWTON_STEPS):
        M = (S2 @ np.outer(v, v).ravel()).reshape(n, n)  # S(., ., v, v)
        g = 4.0 * M @ v
        K[:n, :n] = 12.0 * M - (g @ v) * np.eye(n)
        K[:n, n] = K[n, :n] = v
        rhs[:n] = (g @ v) * v - g
        d = np.linalg.lstsq(K, rhs, rcond=1e-12)[0][:n]
        step = np.linalg.norm(d)
        if not step < last:
            break
        v, last = _unit(v + d), step
    return v


# -- public entry points ------------------------------------------------------

def pair_extrema(T: np.ndarray, orth: bool = False, n_angles: int = 720,
                 restarts: int = 64, seed: int = 0, end: str | None = None) -> tuple:
    """(max, min) of T(v,w,v,w) over unit vectors, optionally with v.w = 0;
    end "max" or "min" refines only that end, bit for bit, and gives None for the other.

    At n = 2, T may carry stack axes (..., 2, 2, 2, 2); each end is then an
    Extremum of arrays over the stack."""
    ends = _checked_ends(T, end)
    n = T.shape[-1]
    if n == 1:
        v = np.ones(1)
        if orth:
            raise ZeroVector("no orthogonal pairs in dimension 1")
        val = pair_value(T, v, v)
        return tuple(Extremum(val, v, v.copy()) if e in ends else None for e in (0, 1))
    if n == 2:
        return _extrema_2d(T, n_angles, "orth" if orth else "pair", ends)
    rng = np.random.default_rng(seed)
    best = [None, None]
    for _ in range(restarts):
        v0, w0 = rng.normal(size=n), rng.normal(size=n)
        for e in ends:
            ext = _alternating_pair(T, v0, w0, e == 0, orth)
            if best[e] is None or (ext.value < best[e].value if e else ext.value > best[e].value):
                best[e] = ext
    return tuple(best)


def quartic_extrema(T: np.ndarray, n_angles: int = 720, end: str | None = None) -> tuple:
    """(max, min) of T(v,v,v,v) over unit vectors; end and the stack axes of
    T at n = 2 as in pair_extrema."""
    ends = _checked_ends(T, end)
    n = T.shape[-1]
    if n == 1:
        v = np.ones(1)
        val = quartic_value(T, v)
        return tuple(Extremum(val, v) if e in ends else None for e in (0, 1))
    if n == 2:
        return _extrema_2d(T, n_angles, "quartic", ends)
    S2 = symmetrize(T).reshape(n * n, n * n)
    V, VV = _sphere(n)
    vals = np.einsum("na,na->n", VV @ S2, VV)

    def refined(e):
        v = _newton_quartic(S2, _unit(V[np.argmin(vals) if e else np.argmax(vals)]))
        return Extremum(quartic_value(T, v), v)

    return tuple(refined(e) if e in ends else None for e in (0, 1))

"""Derivative jets of scalar potentials up to fourth order.

A jet packages value, gradient, Hessian and the symmetric third/fourth
derivative tensors at a point.  These tensors are the sole input to all
curvature computations, so their index symmetries are enforced bitwise:
every entry of an orbit under index permutation is the same float.

The finite-difference path composes second-order central stencils per axis
(tensor products for mixed partials), so every derivative carries an O(h^2)
truncation error.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NotConvexHere, ZeroVector

# scale-aware positive-definiteness threshold: lambda_min > PD_RTOL*(1+lambda_max)
PD_RTOL = 1e-10


def index_images(n: int, k: int, perms: tuple) -> np.ndarray:
    """Table whose row r holds, for each flat index of an order-k tensor of
    side n, the flat index of its image (i_g[0], i_g[1], ..) under
    g = perms[r]; for an involution g, T.ravel()[row] is T.transpose(g)."""
    idx = np.indices((n,) * k).reshape(k, n**k)
    strides = n ** np.arange(k - 1, -1, -1)
    return np.stack([strides @ idx[list(g)] for g in perms])


@functools.cache
def orbit_table(n: int, k: int, group: tuple | None = None):
    """Read-only (orbits, owner, sizes) for the index orbits of an order-k
    tensor of side n under axis permutations g: (i_0, i_1, ..) -> (i_g[0],
    i_g[1], ..), default all.  Row r of ``orbits`` holds orbit r's flat
    indices in increasing order, padded with n**k (a zero slot), and rows
    are ordered by least index; ``owner`` maps a flat index to its row.
    ``orbits`` is stored column-major, so ``orbits.T`` is C-contiguous."""
    if group is None:
        group = tuple(itertools.permutations(range(k)))
    size = n**k
    images = index_images(n, k, group)
    owner = np.full(size, -1, dtype=np.intp)
    rows = []
    for flat in range(size):
        if owner[flat] < 0:
            members = np.unique(images[:, flat])
            owner[members] = len(rows)
            rows.append(members)
    sizes = np.array([len(m) for m in rows])
    orbits = np.full((sizes.max(), len(rows)), size, dtype=np.intp).T
    for r, members in enumerate(rows):
        orbits[r, :len(members)] = members
    for arr in (orbits, owner, sizes):
        arr.flags.writeable = False
    return orbits, owner, sizes


def symmetrize(T: np.ndarray, group: tuple | None = None) -> np.ndarray:
    """Return T with each index orbit under ``group`` (default: all axis
    permutations) set to its mean, bitwise equal across the orbit.  Members
    are added one at a time from +0.0 in increasing flat-index order, which
    defines the mean's rounding: gathered through the C-contiguous
    ``orbits.T``, member c of every orbit is row c, and reducing over axis 0
    adds whole rows in turn (along contiguous memory, numpy would pair the
    additions differently)."""
    T = np.asarray(T, dtype=float)
    orbits, owner, sizes = orbit_table(T.shape[0], T.ndim, group)
    members = np.append(T.ravel(), 0.0)[orbits.T]
    return (np.add.reduce(members, axis=0, initial=0.0) / sizes)[owner].reshape(T.shape)


def symmetric_from_orders(n: int, order: int, value_of: Callable) -> np.ndarray:
    """Fully symmetric tensor taking value_of(orders) on each index orbit,
    where orders[i] counts the occurrences of axis i in the index; called
    once per orbit, in increasing order of the orbit's least index."""
    orbits, owner, _ = orbit_table(n, order)
    digits = (orbits[:, :1] // n ** np.arange(order) % n).tolist()  # of least indices
    vals = [value_of(tuple(map(d.count, range(n)))) for d in digits]
    return np.array(vals, dtype=float)[owner].reshape((n,) * order)


def pd_check(H: np.ndarray) -> tuple[bool, float, float]:
    """Scale-aware PD test; returns (ok, lambda_min, lambda_max)."""
    w = np.linalg.eigvalsh(H)
    lo, hi = float(w[0]), float(w[-1])
    return lo > PD_RTOL * (1.0 + abs(hi)), lo, hi


@dataclass
class PotentialJet:
    """Value and derivatives of a convex potential at one point."""

    x: np.ndarray
    value: float
    gradient: np.ndarray
    hessian: np.ndarray
    third: np.ndarray
    fourth: np.ndarray

    @property
    def n(self) -> int:
        return self.x.shape[0]

    def validate(self) -> "PotentialJet":
        """Check symmetry and strong convexity; raise NotConvexHere on failure."""
        ok, lo, hi = pd_check(self.hessian)
        if not ok:
            raise NotConvexHere(
                f"hessian at {self.x} has lambda_min={lo:.3e} (lambda_max={hi:.3e})"
            )
        return self


# -- central finite-difference stencils (all second-order accurate) ----------

_STENCILS = {
    0: ((0,), (1.0,)),
    1: ((-1, 0, 1), (-0.5, 0.0, 0.5)),
    2: ((-1, 0, 1), (1.0, -2.0, 1.0)),
    3: ((-2, -1, 0, 1, 2), (-0.5, 1.0, 0.0, -1.0, 0.5)),
    4: ((-2, -1, 0, 1, 2), (1.0, -4.0, 6.0, -4.0, 1.0)),
}


def fd_partial(values: Callable[[np.ndarray], float], x: np.ndarray,
               orders: tuple[int, ...], h: float, cache: dict) -> float:
    """Mixed partial d^{|orders|} f / prod_i dx_i^{orders[i]} by tensor-product stencils."""
    x = np.asarray(x, dtype=float)
    axes = [a for a, o in enumerate(orders) if o > 0]
    offs = [_STENCILS[orders[a]][0] for a in axes]
    coefs = [_STENCILS[orders[a]][1] for a in axes]
    total = 0.0
    scale = h ** sum(orders)
    for combo in itertools.product(*(range(len(o)) for o in offs)):
        c = 1.0
        pt = x.copy()
        for which, ci in enumerate(combo):
            c *= coefs[which][ci]
            pt[axes[which]] += offs[which][ci] * h
        if c == 0.0:
            continue
        key = tuple(pt.tolist())
        if key not in cache:
            cache[key] = values(pt)
        total += c * cache[key]
    return total / scale


def fd_jet(values: Callable[[np.ndarray], float], x: np.ndarray, h: float) -> PotentialJet:
    """Full jet of a scalar function by second-order central differences.

    The function is evaluated at O(5^k) stencil points per mixed partial;
    evaluations are cached across partials so each grid point is used once.
    """
    x = np.asarray(x, dtype=float)
    cache: dict = {}
    value = values(x.copy())
    grad, hess, third, fourth = [
        symmetric_from_orders(x.shape[0], k,
                              lambda o: fd_partial(values, x, o, h, cache))
        for k in (1, 2, 3, 4)]
    return PotentialJet(x=x, value=value, gradient=grad, hessian=hess,
                        third=third, fourth=fourth)


# -- composite closed-form jet builders --------------------------------------

def jet_from_inner(x: np.ndarray, u: float, ui: np.ndarray, uij: np.ndarray,
                   uijk: np.ndarray, uijkl: np.ndarray,
                   f_derivs: tuple[float, float, float, float, float]) -> PotentialJet:
    """Jet of f(u(x)) from the jets of u and scalar derivatives f, f', .., f''''."""
    n = x.shape[0]
    f0, f1, f2, f3, f4 = f_derivs
    grad = f1 * ui
    hess = f2 * np.einsum("i,j->ij", ui, ui) + f1 * uij
    third = (
        f3 * np.einsum("i,j,k->ijk", ui, ui, ui)
        + f2 * (np.einsum("ij,k->ijk", uij, ui)
                + np.einsum("ik,j->ijk", uij, ui)
                + np.einsum("jk,i->ijk", uij, ui))
        + f1 * uijk
    )
    quad = np.einsum("i,j,k,l->ijkl", ui, ui, ui, ui)
    pair2 = (np.einsum("ij,kl->ijkl", uij, uij)
             + np.einsum("ik,jl->ijkl", uij, uij)
             + np.einsum("il,jk->ijkl", uij, uij))
    pair1 = (np.einsum("ij,k,l->ijkl", uij, ui, ui)
             + np.einsum("ik,j,l->ijkl", uij, ui, ui)
             + np.einsum("il,j,k->ijkl", uij, ui, ui)
             + np.einsum("jk,i,l->ijkl", uij, ui, ui)
             + np.einsum("jl,i,k->ijkl", uij, ui, ui)
             + np.einsum("kl,i,j->ijkl", uij, ui, ui))
    third1 = (np.einsum("ijk,l->ijkl", uijk, ui)
              + np.einsum("ijl,k->ijkl", uijk, ui)
              + np.einsum("ikl,j->ijkl", uijk, ui)
              + np.einsum("jkl,i->ijkl", uijk, ui))
    fourth = f4 * quad + f3 * pair1 + f2 * (pair2 + third1) + f1 * uijkl
    return PotentialJet(
        x=np.asarray(x, float),
        value=f0,
        gradient=grad,
        hessian=symmetrize(hess),
        third=symmetrize(third),
        fourth=symmetrize(fourth),
    )


def neg_log_jet(x: np.ndarray, u: float, ui: np.ndarray, uij: np.ndarray,
                uijk: np.ndarray | None = None,
                uijkl: np.ndarray | None = None) -> PotentialJet:
    """Jet of -log(u(x)); u must be positive at x."""
    n = np.asarray(x).shape[0]
    if uijk is None:
        uijk = np.zeros((n,) * 3)
    if uijkl is None:
        uijkl = np.zeros((n,) * 4)
    f = (-np.log(u), -1.0 / u, 1.0 / u**2, -2.0 / u**3, 6.0 / u**4)
    return jet_from_inner(np.asarray(x, float), u, ui, uij, uijk, uijkl, f)


def radial_r_jets(x: np.ndarray) -> tuple[float, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Jets of r(x) = |x| away from the origin."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    r = float(np.linalg.norm(x))
    if r == 0.0:
        raise ZeroVector("radial jets undefined at the origin")
    e = np.eye(n)
    ri = x / r
    rij = e / r - np.einsum("i,j->ij", x, x) / r**3
    rijk = (
        -(np.einsum("ij,k->ijk", e, x) + np.einsum("ik,j->ijk", e, x)
          + np.einsum("jk,i->ijk", e, x)) / r**3
        + 3.0 * np.einsum("i,j,k->ijk", x, x, x) / r**5
    )
    rijkl = (
        -(np.einsum("ij,kl->ijkl", e, e) + np.einsum("ik,jl->ijkl", e, e)
          + np.einsum("il,jk->ijkl", e, e)) / r**3
        + 3.0 * (np.einsum("ij,k,l->ijkl", e, x, x) + np.einsum("ik,j,l->ijkl", e, x, x)
                 + np.einsum("il,j,k->ijkl", e, x, x) + np.einsum("jk,i,l->ijkl", e, x, x)
                 + np.einsum("jl,i,k->ijkl", e, x, x) + np.einsum("kl,i,j->ijkl", e, x, x)) / r**5
        - 15.0 * np.einsum("i,j,k,l->ijkl", x, x, x, x) / r**7
    )
    return r, ri, rij, rijk, rijkl

"""Algebraic curvature tensors and the reaction side of the flow.

Tensors live in a unitary polarized frame (reference metric = identity)
and carry the symmetries A[ijkl] = A[kjil] = A[ilkj] = A[jilk].  The
reaction quadratic

    Q(A)[ijkl] = 2 (A[ijpq] A[qpkl] + A[ilpq] A[qpkj] - A[ipkq] A[pjql])

drives the tensor ODE dA/dt = Q(A).  Q is two n^2 x n^2 matrix products:
one for the first term, one for the third, and the second term is the
first with j and l swapped.  Boundary tensors for the null-vector suites
are produced by the shift A - m * (I x I) that moves the pair maximum of
A(v,w,v,w) to zero while keeping the maximizing pair fixed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _extrema
from .curvature import (CURVATURE_GROUP, CurvatureSample, mirror_symmetrize,
                        symmetry_defect)
from .errors import (BadParams, BlowUp, NotExtremal, NotNegativeABC, NotPSD,
                     StabilityFailure)
from .jets import orbit_table

BLOWUP_CAP = 1e12
NOAB_Q_THRESHOLD = -1e-6  # noab_probe's hit: Q below this at the boundary pair
NOAB_RESTARTS = 24  # noab_probe's restarts per boundary shift


@dataclass
class AlgCurvTensor:
    """Dimension-n algebraic curvature tensor in a unitary polarized frame."""

    A: np.ndarray

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=float)
        if self.A.ndim != 4 or len(set(self.A.shape)) != 1:
            raise BadParams("tensor must have shape (n, n, n, n)")
        if not np.all(np.isfinite(self.A)):
            raise BadParams("tensor entries must be finite")
        if symmetry_defect(self.A) > 0:
            self.A = mirror_symmetrize(self.A)

    @classmethod
    def _projected(cls, A: np.ndarray) -> "AlgCurvTensor":
        """Wrap a finite float tensor that mirror_symmetrize has returned.

        Its symmetry defect is exactly 0 (every orbit member holds the same
        mean), so the checks of __post_init__ are skipped.
        """
        tensor = cls.__new__(cls)
        tensor.A = A
        return tensor

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def norm(self) -> float:
        return float(np.abs(self.A).max())

    def pair_value(self, v: np.ndarray, w: np.ndarray) -> float:
        return _extrema.pair_value(self.A, v, w)

    @classmethod
    def random(cls, n: int, seed: int, scale: float = 1.0) -> "AlgCurvTensor":
        rng = np.random.default_rng(seed)
        raw = rng.normal(size=(n,) * 4) * scale
        return cls(mirror_symmetrize(raw))

    @classmethod
    def from_sample(cls, sample: CurvatureSample) -> "AlgCurvTensor":
        return cls(sample.E_frame.copy())

    # -- canonical text serialization ----------------------------------------

    def to_text(self) -> str:
        lines = [str(self.n)]
        for idx in canonical_indices(self.n):
            lines.append(" ".join(map(str, idx)) + " " + repr(float(self.A[idx])))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "AlgCurvTensor":
        rows = [ln for ln in text.splitlines() if ln.strip()]
        n = int(rows[0])
        _, owner, sizes = orbit_table(n, 4, CURVATURE_GROUP)
        vals = np.zeros(len(sizes))
        for ln in rows[1:]:
            toks = ln.split()
            flat = np.ravel_multi_index(tuple(int(t) for t in toks[:4]), (n,) * 4)
            vals[owner[flat]] = float(toks[4])
        return cls(vals[owner].reshape((n,) * 4))


def canonical_indices(n: int) -> list[tuple[int, int, int, int]]:
    """Lexicographically-least representative of each symmetry orbit."""
    orbits, _, _ = orbit_table(n, 4, CURVATURE_GROUP)
    return list(zip(*(a.tolist() for a in np.unravel_index(orbits[:, 0], (n,) * 4))))


def identity_shift_tensor(n: int) -> np.ndarray:
    """T[ijkl] = delta_ik delta_jl; adds t |v|^2 |w|^2 to every pair value."""
    eye = np.eye(n)
    return np.einsum("ik,jl->ijkl", eye, eye)


# -- reaction quadratic and ODE -------------------------------------------------

def _q_contraction(T: np.ndarray) -> np.ndarray:
    # two n^2 x n^2 products: t1 pairs (ij | pq) with (pq | kl), and the
    # second term A[ilpq] A[qpkj] is t1 with j and l swapped
    m = T.shape[0] ** 2
    t1 = (T.reshape(m, m) @ T.transpose(1, 0, 2, 3).reshape(m, m)).reshape(T.shape)
    B = T.transpose(0, 2, 1, 3).reshape(m, m)  # B[(ik), (pq)] = T[ipkq]
    t3 = (B @ B).reshape(T.shape).transpose(0, 2, 1, 3)
    return 2.0 * (t1 + t1.transpose(0, 3, 2, 1) - t3)


def q_quadratic(A: AlgCurvTensor) -> AlgCurvTensor:
    """Reaction quadratic Q(A); output re-symmetrized onto the class."""
    Q = _q_contraction(A.A)
    drift = symmetry_defect(Q)
    out = AlgCurvTensor(mirror_symmetrize(Q))
    out_drift = drift / max(A.norm**2, 1e-300)
    if out_drift > 1e-10:
        raise BadParams(f"reaction quadratic left the symmetry class: {out_drift:.3e}")
    return out


@dataclass
class OdeTrajectory:
    times: list[float]
    tensors: list[AlgCurvTensor]
    max_symmetry_drift: float = 0.0

    def final(self) -> AlgCurvTensor:
        return self.tensors[-1]


def integrate_ode(A0: AlgCurvTensor, T: float, dt: float,
                  record_every: int = 1) -> OdeTrajectory:
    """Classical 4-stage integration of dA/dt = Q(A).

    Each accepted step is re-symmetrized; the worst drift is logged on the
    trajectory.  Raises BlowUp (with the partial trajectory attached) when
    any entry exceeds 1e12 or turns non-finite.
    """
    if not (0.0 <= T < np.inf and 0.0 < dt < np.inf and record_every >= 1):
        raise BadParams(f"need finite T >= 0, finite dt > 0 and record_every >= 1, "
                        f"got T={T!r}, dt={dt!r}, record_every={record_every!r}")
    steps = int(np.ceil(T / dt))
    A = A0.A.copy()
    t = 0.0
    traj = OdeTrajectory([0.0], [AlgCurvTensor(A.copy())])

    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, steps + 1):
            h = min(dt, T - t)
            k1 = _q_contraction(A)
            k2 = _q_contraction(A + 0.5 * h * k1)
            k3 = _q_contraction(A + 0.5 * h * k2)
            k4 = _q_contraction(A + h * k3)
            A = A + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            t += h
            m = float(np.abs(A).max())
            if not m <= BLOWUP_CAP:  # a NaN entry makes m NaN
                raise BlowUp(t, traj)
            drift = symmetry_defect(A)
            traj.max_symmetry_drift = max(traj.max_symmetry_drift, drift)
            if drift > 1e-13 * max(1.0, m):
                raise StabilityFailure(
                    f"symmetry drift {drift:.3e} beyond tolerance", time=t)
            A = mirror_symmetrize(A)
            if step % record_every == 0 or t >= T:
                traj.times.append(t)
                traj.tensors.append(AlgCurvTensor._projected(A.copy()))
    return traj


# -- extremal pairs and boundary construction -----------------------------------

MAX_ABC = "MAX_ABC"
MIN_ORTH_ABC = "MIN_ORTH_ABC"


def extremal_pair(A: AlgCurvTensor, mode: str):
    """Extremize A(v, w, v, w) over unit pairs; returns (v, w, value)."""
    if mode == MAX_ABC:
        mx, _ = _extrema.pair_extrema(A.A)
        return mx.v, mx.w, mx.value
    if mode == MIN_ORTH_ABC:
        _, mn = _extrema.pair_extrema(A.A, orth=True)
        return mn.v, mn.w, mn.value
    raise BadParams(f"unknown extremal mode {mode!r}")


def shift_to_boundary(A: AlgCurvTensor, mode: str = MAX_ABC):
    """Shift A along I x I so the selected extremum lands exactly at zero.

    Returns (boundary tensor, v, w).  The shift changes every pair value by
    the same amount on unit pairs, so the witness pair is preserved.
    """
    v, w, val = extremal_pair(A, mode)
    shifted = AlgCurvTensor(A.A - val * identity_shift_tensor(A.n))
    return shifted, v, w


# -- null-vector verification ----------------------------------------------------

@dataclass
class NullVectorReport:
    v: np.ndarray
    w: np.ndarray
    first_derivative_residual: float
    hform_min_eig: float
    q_value: float
    sharper_value: float
    scale: float
    passed: bool = field(init=False)
    identity_tol: float = field(init=False)
    q_tol: float = field(init=False)
    psd_tol: float = field(init=False)

    def __post_init__(self):
        self.identity_tol = 1e-7 * max(self.scale, 1e-300)
        self.q_tol = 1e-8 * max(self.scale**2, 1e-300)
        self.psd_tol = 1e-8 * max(self.scale, 1.0)
        self.passed = (
            self.first_derivative_residual < self.identity_tol
            and self.hform_min_eig > -self.psd_tol
            and self.q_value <= self.q_tol
            and self.sharper_value <= self.q_tol
        )


def hform_blocks(A: AlgCurvTensor, v: np.ndarray, w: np.ndarray):
    """M1, M2, N of the boundary bilinear form; G1 = [[M1,N],[N^T,M2]]."""
    T = A.A
    M1 = -np.einsum("ijkl,j,l->ik", T, w, w)
    M2 = -np.einsum("ijkl,i,k->jl", T, v, v)
    N = -2.0 * np.einsum("ijkl,i,j->kl", T, v, w)
    return M1, M2, N


def assemble_block(M1, M2, N) -> np.ndarray:
    n = M1.shape[0]
    G = np.zeros((2 * n, 2 * n))
    G[:n, :n] = M1
    G[:n, n:] = N
    G[n:, :n] = N.T
    G[n:, n:] = M2
    return G


def null_vector_check_negative(A: AlgCurvTensor) -> NullVectorReport:
    """Verify the boundary structure at the pair maximum of a non-positive tensor.

    Requires the maximum of A(v,w,v,w) over unit pairs to sit inside the
    degenerate band around zero (NotExtremal otherwise).  Checks, at the
    witness (V, W): vanishing of the directional first derivatives, negative
    semidefiniteness of the boundary bilinear form, the sign of Q at the
    witness, and the sharper inequality Q + <M1, M2> <= 0.
    """
    scale = A.norm
    v, w, val = extremal_pair(A, MAX_ABC)
    band = 1e-9 * (1.0 + scale)
    if abs(val) > band:
        raise NotExtremal(
            f"pair maximum {val:.3e} is not inside the degenerate band {band:.3e}")
    T = A.A
    c = np.einsum("ijkl,i,k,l->j", T, v, v, w)
    d = np.einsum("ijkl,j,k,l->i", T, w, v, w)
    resid = max(np.abs(c).max(), np.abs(d).max())
    M1, M2, N = hform_blocks(A, v, w)
    G = assemble_block(M1, M2, N)
    min_eig = float(np.linalg.eigvalsh(G)[0])
    q = q_quadratic(A)
    qv = q.pair_value(v, w)
    sharper = qv + float(np.sum(M1 * M2))
    return NullVectorReport(v=v, w=w, first_derivative_residual=float(resid),
                            hform_min_eig=min_eig, q_value=qv,
                            sharper_value=sharper, scale=scale)


# -- block trace lemma -----------------------------------------------------------

@dataclass
class BlockMatrixInstance:
    M1: np.ndarray
    M2: np.ndarray
    N: np.ndarray

    @property
    def G1(self) -> np.ndarray:
        return assemble_block(self.M1, self.M2, self.N)

    @classmethod
    def random(cls, n: int, seed: int, rank: int | None = None) -> "BlockMatrixInstance":
        """G1 = B^T B for uniform B; rank-deficient B covers boundary cases."""
        rng = np.random.default_rng(seed)
        rows = 2 * n if rank is None else rank
        B = rng.uniform(-1.0, 1.0, size=(rows, 2 * n))
        G = B.T @ B
        return cls(M1=G[:n, :n].copy(), M2=G[n:, n:].copy(), N=G[:n, n:].copy())


def trace_lemma(instance: BlockMatrixInstance) -> float:
    """Tr(M1 M2 - N^2) for a PSD block instance.

    Verifies the PSD precondition (eigenvalues >= -1e-12 * scale) and the
    rotation similarity between [[M1,N],[N^T,M2]] and [[M2,-N^T],[-N,M1]]
    (characteristic polynomials agree to 1e-9 relative).
    """
    G1 = instance.G1
    scale = max(np.abs(G1).max(), 1.0)
    if float(np.linalg.eigvalsh(G1)[0]) < -1e-12 * scale:
        raise NotPSD("block matrix is not positive semidefinite")
    n = instance.M1.shape[0]
    J = np.zeros((2 * n, 2 * n))
    J[:n, n:] = np.eye(n)
    J[n:, :n] = -np.eye(n)
    G2 = assemble_block(instance.M2, instance.M1, -instance.N.T)
    sim = J @ G1 @ J.T
    if np.abs(sim - G2).max() > 1e-12 * scale:
        raise NotPSD("rotation similarity identity failed")
    p1 = np.poly(np.linalg.eigvalsh(G1))
    p2 = np.poly(np.linalg.eigvalsh(G2))
    pscale = max(np.abs(p1).max(), 1.0)
    if np.abs(p1 - p2).max() > 1e-9 * pscale:
        raise NotPSD("characteristic polynomials of similar blocks diverged")
    return float(np.trace(instance.M1 @ instance.M2 - instance.N @ instance.N))


# -- probe for sign failure of Q on the orthogonal boundary in n >= 3 ------------

@dataclass
class NoabCounterexample:
    tensor: AlgCurvTensor
    v: np.ndarray
    w: np.ndarray
    q_value: float
    orth_min_after_shift: float
    trial: int


def noab_probe(n: int, seed: int, trials: int) -> NoabCounterexample | None:
    """Search boundary tensors (orthogonal pair minimum shifted to zero) for
    a witness pair where Q is decisively negative (below NOAB_Q_THRESHOLD).

    Each trial draws a random tensor, shifts its orthogonal-pair minimum to
    zero with NOAB_RESTARTS restarts seeded by the trial, and evaluates Q at
    the vanishing pair.  A hit is re-verified with four times the restarts
    and the next seed before being returned.
    """
    if trials < 1:
        raise BadParams("trials must be >= 1")
    rng = np.random.default_rng(seed)
    for trial in range(trials):
        sub = int(rng.integers(0, 2**63 - 1))
        A = AlgCurvTensor.random(n, sub)
        _, mn = _extrema.pair_extrema(A.A, orth=True, restarts=NOAB_RESTARTS, seed=sub)
        shifted = AlgCurvTensor(A.A - mn.value * identity_shift_tensor(n))
        qv = q_quadratic(shifted).pair_value(mn.v, mn.w)
        if qv < NOAB_Q_THRESHOLD:
            # verify the boundary quality with a stronger search
            _, check = _extrema.pair_extrema(shifted.A, orth=True,
                                             restarts=4 * NOAB_RESTARTS, seed=sub + 1)
            band = 1e-8 * (1.0 + shifted.norm)
            if check.value > -band:
                return NoabCounterexample(tensor=shifted, v=mn.v, w=mn.w, q_value=qv,
                                          orth_min_after_shift=check.value,
                                          trial=trial)
    return None


# -- componentwise control from sectional and orthogonal bounds ------------------

@dataclass
class PolarizationReport:
    worst_margin: float
    violations: list
    passed: bool


def polarization_bounds(A: AlgCurvTensor, H_bound: float, O_bound: float,
                        check_sign: bool = True) -> PolarizationReport:
    """Check every component of a non-positive tensor against the chained
    bounds implied by |A(v,v,v,v)| <= H_bound (unit v) and
    |A(v,w,v,w)| <= O_bound (unit orthogonal pairs).

    The chain bounds successively wider index patterns by polarization:
      two-index pattern (a,a,a,b)                -> sqrt(H*O)
      bisectional pattern (a,a,b,b)/(a,b,b,a)    -> 1.5 H + 0.5 O + 2 sqrt(H*O)
      one-shared-index pattern (a,a,b,c)          -> (H + 7 O + 4 sqrt(H*O)) / 4
      all-distinct pattern (a,b,c,d)              -> 3 O
    each obtained from the discriminant of a sign-constrained quadratic or
    from evaluating the quartic at the corners t, s = +-1.
    """
    if H_bound < 0 or O_bound < 0:
        raise BadParams("bounds must be nonnegative")
    if check_sign:
        _, _, vmax = extremal_pair(A, MAX_ABC)
        if vmax > 1e-9 * (1.0 + A.norm):
            raise NotNegativeABC(f"pair maximum {vmax:.3e} is positive")
    H, O = float(H_bound), float(O_bound)
    root = np.sqrt(H * O)
    b_ho = root
    b2 = 1.5 * H + 0.5 * O + 2.0 * root
    b3 = 0.25 * H + 1.75 * O + root
    b4 = 3.0 * O
    tol = 1e-9 * (1.0 + A.norm)

    def class_bound(idx) -> float:
        i, j, k, l = idx
        P = tuple(sorted((i, k)))
        Qm = tuple(sorted((j, l)))
        distinct = len(set(idx))
        if distinct == 1:  # sectional
            return H
        if distinct == 2:
            if P[0] == P[1] and Qm[0] == Qm[1]:  # orthogonal
                return O
            if P == Qm:  # bisectional
                return b2
            return b_ho  # two-index polar
        if distinct == 3:
            if P[0] == P[1] or Qm[0] == Qm[1]:  # step-one
                return O
            return b3  # one shared index
        return b4  # all distinct

    worst = -np.inf
    violations = []
    for idx in canonical_indices(A.n):
        bound = class_bound(idx)
        margin = abs(float(A.A[idx])) - bound
        worst = max(worst, margin)
        if margin > tol:
            violations.append((idx, float(A.A[idx]), bound))
    return PolarizationReport(worst_margin=float(worst), violations=violations,
                              passed=not violations)

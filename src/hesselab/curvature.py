"""Curvature of the tube-domain metric of a convex potential.

The engine stores the metric as h = Hess(psi) and the core curvature form

    E[i,j,k,l] = psi^{pq} psi_{ikp} psi_{jlq} - psi_{ijkl},

where psi^{pq} is the inverse Hessian.  E carries the index symmetries
E[ijkl] = E[kjil] = E[ilkj] = E[jilk] (enforced bitwise) and is a fixed
positive multiple of the curvature tensor of the lifted metric evaluated
on polarized directions, so every sign statement about it is
convention-free.  Closed-form comparisons each calibrate one positive
constant, recorded in the tests.

All operations here are pure given immutable inputs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import _extrema
from .certificates import SignCertificate, verdict_from_extrema
from .errors import BadParams, SingularHessian, SingularMixedHessian, ZeroVector
from .jets import PotentialJet, index_images, symmetrize
from .potentials import PotentialHandle

QUANTITIES = ("ABC", "ORTH_ABC", "HSC_POL")


# E[ijkl] = E[kjil] = E[ilkj] = E[jilk] generate the 8 symmetries of a square
# with corners i, j, k, l; each entry lists the index positions of one image
CURVATURE_GROUP = ((0, 1, 2, 3), (0, 3, 2, 1), (1, 0, 3, 2), (1, 2, 3, 0),
                   (2, 1, 0, 3), (2, 3, 0, 1), (3, 0, 1, 2), (3, 2, 1, 0))


@functools.cache
def _swap_images(n: int) -> np.ndarray:
    """Flat index images under the three generating swaps, all involutions."""
    return index_images(n, 4, ((2, 1, 0, 3), (0, 3, 2, 1), (1, 0, 3, 2)))


def mirror_symmetrize(E: np.ndarray) -> np.ndarray:
    """Enforce the curvature symmetry class bitwise (orbit means)."""
    return symmetrize(E, CURVATURE_GROUP)


def symmetry_defect(E: np.ndarray) -> float:
    """Max deviation of E from its images under the three generating swaps;
    NaN when any difference is NaN."""
    flat = E.ravel()
    return float(np.abs(flat - flat[_swap_images(E.shape[0])]).max())


@dataclass
class CurvatureSample:
    """Pointwise curvature data: metric h, core form E, and frame caches; a
    stack of samples when the fields carry a leading stack axis."""

    x: np.ndarray
    h: np.ndarray
    E: np.ndarray
    _frame: np.ndarray | None = field(default=None, repr=False)
    _E_frame: np.ndarray | None = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return self.h.shape[-1]

    @property
    def frame(self) -> np.ndarray:
        """Columns are the h-orthonormal polarized frame vectors (Cholesky)."""
        if self._frame is None:
            self._frame = np.linalg.inv(np.linalg.cholesky(self.h)).mT
        return self._frame

    @property
    def E_frame(self) -> np.ndarray:
        """E in the Cholesky frame (identity metric)."""
        if self._E_frame is None:
            F = self.frame
            Ef = np.einsum("...ijkl,...ia,...jb,...kc,...ld->...abcd", self.E, F, F, F, F)
            self._E_frame = mirror_symmetrize(Ef)
        return self._E_frame


def core_form(jet: PotentialJet) -> CurvatureSample:
    """Core curvature form from a potential jet; from a stacked jet, the
    stack of samples, each equal to the bit to its own core_form."""
    h = jet.hessian
    try:
        hinv = np.linalg.inv(h)
    except np.linalg.LinAlgError as exc:
        raise SingularHessian(f"hessian at {jet.x} is singular") from exc
    if not np.all(np.isfinite(hinv)):
        raise SingularHessian(f"hessian at {jet.x} is singular")
    E = np.einsum("...pq,...ikp,...jlq->...ijkl", hinv, jet.third, jet.third) - jet.fourth
    return CurvatureSample(x=np.asarray(jet.x, float).copy(), h=h.copy(),
                           E=mirror_symmetrize(E))


# -- pointwise scalar quantities ----------------------------------------------

def anti_bisectional(sample: CurvatureSample, v: np.ndarray, w: np.ndarray) -> float:
    """E(v, w, v, w) in coordinate components."""
    v = np.asarray(v, float)
    w = np.asarray(w, float)
    return float(np.einsum("ijkl,i,j,k,l->", sample.E, v, w, v, w))


def hsc(sample: CurvatureSample, v: np.ndarray) -> float:
    """Polarized sectional value E(v,v,v,v) / |v|_h^4 (scale-invariant)."""
    v = np.asarray(v, float)
    nv2 = float(v @ sample.h @ v)
    if nv2 <= 0.0 or not np.any(v):
        raise ZeroVector("hsc requires a nonzero direction")
    raw = float(np.einsum("ijkl,i,j,k,l->", sample.E, v, v, v, v))
    return raw / nv2**2


def hsc_full(sample: CurvatureSample, a: np.ndarray, b: np.ndarray,
             normalized: bool = True) -> float:
    """Sectional value of the non-polarized vector a + i b through the real
    form of E; reduces to hsc for b = 0."""
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    if not (np.any(a) or np.any(b)):
        raise ZeroVector("hsc_full requires a nonzero direction")
    X = a + 1j * b
    raw = np.einsum("ijkl,i,j,k,l->", sample.E.astype(complex),
                    X, X.conj(), X, X.conj())
    raw = float(raw.real)
    if not normalized:
        return raw
    nv2 = float(np.real(X.conj() @ sample.h @ X))
    return raw / nv2**2


def ricci(sample: CurvatureSample) -> np.ndarray:
    """Ricci matrix in the h-orthonormal polarized frame."""
    return np.einsum("...abcc->...ab", sample.E_frame)


def scalar(sample: CurvatureSample) -> float | np.ndarray:
    """Frame trace of the Ricci matrix: a float, or an array over a stack."""
    S = np.trace(ricci(sample), axis1=-2, axis2=-1)
    return S if S.ndim else float(S)


def full_abc_trace(sample: CurvatureSample) -> float:
    """sum_{a,b} E(F_a, F_b, F_a, F_b) over the frame, diagonal included."""
    return float(np.einsum("abab->", sample.E_frame))


def oab_trace(sample: CurvatureSample) -> float | np.ndarray:
    """Orthogonal anti-bisectional trace: sum over frame pairs a != b.

    The value depends on the frame; this is the Cholesky frame of h.  A
    float, or an array over a stack.
    """
    Ef = sample.E_frame
    O = np.einsum("...abab->...", Ef) - np.einsum("...aaaa->...", Ef)
    return O if O.ndim else float(O)


# -- MTW tensor (independent code path from core_form) -------------------------

def mtw_tensor(handle: PotentialHandle, x: np.ndarray, y: np.ndarray,
               xi: np.ndarray, eta: np.ndarray) -> float:
    """Transport-regularity tensor of the cost c(x,y) = psi(x-y).

    Assembled from the cost's own multi-index derivatives: for this cost
    family c_{ij} = psi_ij(x-y), each y-derivative contributes a sign flip,
    and the mixed Hessian c_{i,j} = -psi_ij must be inverted.
    """
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    xi = np.asarray(xi, float)
    eta = np.asarray(eta, float)
    jet = handle.jet(x - y)  # raises OutOfDomain if x - y leaves the domain
    c_ij_p = -jet.third          # two x-derivatives, one y-derivative
    c_q_rs = jet.third           # one x-derivative, two y-derivatives
    c_ij_rs = jet.fourth         # two x, two y
    mixed = -jet.hessian         # c_{i,j}
    try:
        mixed_inv = np.linalg.inv(mixed)
    except np.linalg.LinAlgError as exc:
        raise SingularMixedHessian(str(exc)) from exc
    inner = np.einsum("ijp,pq,qrs->ijrs", c_ij_p, mixed_inv, c_q_rs) - c_ij_rs
    eta_up = mixed_inv @ eta
    return float(np.einsum("ijrs,i,j,r,s->", inner, xi, xi, eta_up, eta_up))


# -- sign certification over a region ------------------------------------------

@dataclass
class RegionSpec:
    """Seeded point sampling for certify_sign."""

    count: int = 25
    seed: int = 7
    extent: float | None = None


def _sample_extrema(sample: CurvatureSample, quantity: str):
    Ef = sample.E_frame
    if quantity == "HSC_POL":
        return _extrema.quartic_extrema(Ef)
    # "ABC" or "ORTH_ABC"; certify_sign has checked the name
    return _extrema.pair_extrema(Ef, orth=quantity != "ABC")


def _to_coords(sample: CurvatureSample, ext: _extrema.Extremum):
    F = sample.frame
    v = F @ ext.v
    w = F @ ext.w if ext.w is not None else None
    return v, w


def certify_sign(handle: PotentialHandle, quantity: str,
                 region: RegionSpec | None = None) -> SignCertificate:
    """Extremize a curvature quantity over sampled points and unit vectors.

    Vectors are unit with respect to h at each point; orthogonality (for
    ORTH_ABC, which needs n >= 2) is h-orthogonality.  The degenerate band is
    scale-aware: 1e-9 * (1 + max |E| at the witness point).
    """
    region = region or RegionSpec()
    if quantity not in QUANTITIES:
        raise BadParams(f"quantity must be one of {QUANTITIES}")
    extent = region.extent
    if region.count < 1 or region.seed < 0 or not (extent is None or extent > 0.0):
        raise BadParams("region count must be >= 1, seed >= 0 and extent None or > 0")
    if quantity == "ORTH_ABC" and handle.n < 2:
        raise BadParams(f"ORTH_ABC needs orthogonal pairs, so n >= 2; got n = {handle.n}")
    pts = handle.domain.sample(region.count, region.seed, extent=extent)
    gmax = gmin = None
    for p in pts:
        sample = core_form(handle.jet(p))
        mx, mn = _sample_extrema(sample, quantity)
        for ext, is_max in ((mx, True), (mn, False)):
            rec = (ext.value, sample, ext)
            if is_max and (gmax is None or ext.value > gmax[0]):
                gmax = rec
            if not is_max and (gmin is None or ext.value < gmin[0]):
                gmin = rec
    scale_pt = gmax if abs(gmax[0]) >= abs(gmin[0]) else gmin
    tol = 1e-9 * (1.0 + float(np.abs(scale_pt[1].E_frame).max()))
    verdict, extremal = verdict_from_extrema(gmax[0], gmin[0], tol)
    chosen = gmax if extremal == gmax[0] else gmin
    v, w = _to_coords(chosen[1], chosen[2])
    return SignCertificate(
        verdict=verdict,
        extremal_value=extremal,
        witness_point=chosen[1].x,
        witness_v=v,
        witness_w=w,
        tolerance=tol,
        samples_scanned=region.count,
        quantity=quantity,
        extra={"max_value": gmax[0], "min_value": gmin[0]},
    )


def reevaluate_witness(handle: PotentialHandle, cert: SignCertificate) -> float:
    """Recompute the certified quantity at the stored witness."""
    sample = core_form(handle.jet(cert.witness_point))
    if cert.quantity == "HSC_POL":
        return hsc(sample, cert.witness_v)
    return anti_bisectional(sample, cert.witness_v, cert.witness_w)


def scan_csv_rows(handle: PotentialHandle, points: np.ndarray) -> list[dict]:
    """Per-point scan rows: x, S, O, polarized-HSC min, ABC extrema, witness."""
    rows = []
    for p in points:
        sample = core_form(handle.jet(p))
        _, hmn = _extrema.quartic_extrema(sample.E_frame, end="min")
        amx, amn = _extrema.pair_extrema(sample.E_frame)
        v, w = _to_coords(sample, amn)
        row = {"S": scalar(sample), "O": oab_trace(sample),
               "Hmin_pol": hmn.value, "ABC_min": amn.value,
               "ABC_max": amx.value}
        for i in range(sample.n):
            row[f"x{i + 1}"] = float(p[i])
        for i in range(sample.n):
            row[f"wit_v{i + 1}"] = float(v[i])
            row[f"wit_w{i + 1}"] = float(w[i])
        rows.append(row)
    return rows

"""The extremizer against dense brute forces.

At n = 2 the brute force does not use the angle reduction of _extrema: the
pair ends come from the eigenvalues of T(v, ., v, .) at each of 4001
directions v, the ORTH and quartic ends from direct contractions there.
Each end must reach the brute force within 1e-12 (1 + max |T|), return the
value of its own witness, and sit where the derivatives along the witness
angles vanish to rounding.  Hypothesis draws its examples under the
derandomized profile registered in conftest.py.

At n >= 3 the quartic ends meet the same conditions against a brute force
that scans seeded Gaussian directions and polishes the best of them with
BFGS; certificates of the polarized sectional curvature on the same
regions reproduce their value at their witness.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import minimize

from hesselab import _extrema
from hesselab.curvature import (RegionSpec, certify_sign, core_form,
                                mirror_symmetrize, reevaluate_witness)
from hesselab.potentials import catalog
from hesselab.reaction import AlgCurvTensor

NODES = 4001


def _turn(v):
    """d/dt of (cos t, sin t) at v."""
    return np.array([-v[1], v[0]])


def _form(T, a, b, c, d):
    return float(np.einsum("ijkl,i,j,k,l->", T, a, b, c, d))


def brute_force(T) -> dict:
    t = np.linspace(0.0, np.pi, NODES, endpoint=False)
    V = np.stack([np.cos(t), np.sin(t)], axis=1)
    W = np.stack([-np.sin(t), np.cos(t)], axis=1)
    Q = np.einsum("ijkl,ni,nk->njl", T, V, V)
    ev = np.linalg.eigvalsh(0.5 * (Q + Q.transpose(0, 2, 1)))
    orth = np.einsum("ijkl,ni,nj,nk,nl->n", T, V, W, V, W)
    quartic = np.einsum("ijkl,ni,nj,nk,nl->n", T, V, V, V, V)
    return {"pair": (ev[:, -1].max(), ev[:, 0].min()),
            "orth": (orth.max(), orth.min()),
            "quartic": (quartic.max(), quartic.min())}


def check_n2_ends(T, n_angles):
    scale = 1.0 + float(np.abs(T).max())
    tol = 1e-12 * scale
    rounding = 1e-13 * scale
    brute = brute_force(T)
    ends = {"pair": _extrema.pair_extrema(T, n_angles=n_angles),
            "orth": _extrema.pair_extrema(T, orth=True, n_angles=n_angles),
            "quartic": _extrema.quartic_extrema(T, n_angles=n_angles)}
    for kind, (mx, mn) in ends.items():
        for ext, best, sgn in ((mx, brute[kind][0], 1.0), (mn, brute[kind][1], -1.0)):
            assert sgn * (ext.value - best) >= -tol, (kind, sgn, ext.value, best)
            v, w = ext.v, ext.w
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-15)
            if kind == "quartic":
                assert ext.value == _extrema.quartic_value(T, v)
                slope = 4.0 * _form(T, _turn(v), v, v, v)
                assert abs(slope) <= rounding, (kind, sgn, slope)
                continue
            assert ext.value == _extrema.pair_value(T, v, w)
            assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-15)
            dv = _form(T, _turn(v), w, v, w) + _form(T, v, w, _turn(v), w)
            dw = _form(T, v, _turn(w), v, w) + _form(T, v, w, v, _turn(w))
            if kind == "orth":  # w turns with v
                assert abs(v @ w) <= 1e-15
                dv, dw = dv + dw, 0.0
            assert abs(dv) <= rounding and abs(dw) <= rounding, (kind, sgn, dv, dw)


def _unit_entry(index, value):
    T = np.zeros((2, 2, 2, 2))
    T[index] = value
    return T


def _catalog_frames(name, extent):
    handle = catalog(name, n=2) if name == "calabi_ball" else catalog(name)
    return [core_form(handle.jet(p)).E_frame
            for p in handle.domain.sample(4, 37, extent=extent)]


FIXED = {
    "E1111-rank-one": [_unit_entry((0, 0, 0, 0), 1.0)],
    "E2222-negative": [_unit_entry((1, 1, 1, 1), -2.5)],
    "zero": [np.zeros((2, 2, 2, 2))],
    "cone2d": _catalog_frames("cone2d", None),
    "calabi_ball": _catalog_frames("calabi_ball", 0.9),
}


@pytest.mark.parametrize("n_angles", [240, 720])
@pytest.mark.parametrize("case", sorted(FIXED))
def test_n2_ends_fixed_cases(case, n_angles):
    for T in FIXED[case]:
        check_n2_ends(T, n_angles)


@given(arrays(np.float64, (2, 2, 2, 2),
              elements=st.floats(-1e3, 1e3, allow_nan=False, width=64)),
       st.sampled_from([240, 720]))
def test_n2_ends_random_tensors(X, n_angles):
    check_n2_ends(mirror_symmetrize(X), n_angles)


# -- n >= 3: the quartic ---------------------------------------------------------

SPHERE_NODES = 20000
POLISHED = 8


def quartic_brute_force(T) -> tuple[float, float]:
    """(max, min) of T(v,v,v,v): seeded Gaussian directions, the best
    POLISHED of them for each end polished by BFGS on v / |v|."""
    n = T.shape[0]
    X = np.random.default_rng(1).normal(size=(SPHERE_NODES, n))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    vals = np.einsum("ijkl,ni,nj,nk,nl->n", T, X, X, X, X)
    ends = []
    for sgn in (1.0, -1.0):
        def neg(x):
            u = x / np.linalg.norm(x)
            return -sgn * _form(T, u, u, u, u)
        polished = [-sgn * minimize(neg, X[i], method="BFGS", options={"gtol": 1e-13}).fun
                    for i in np.argsort(-sgn * vals)[:POLISHED]]
        ends.append(max(polished) if sgn > 0 else min(polished))
    return ends[0], ends[1]


# the calabi_ball and radial_sym regions of the n = 3 HSC_POL certificates
REGIONS = {"calabi_ball": RegionSpec(count=2, seed=7, extent=0.9),
           "radial_sym": RegionSpec(count=1, seed=15)}


def _region_frames(name):
    handle = catalog(name, n=3)
    region = REGIONS[name]
    return [core_form(handle.jet(p)).E_frame
            for p in handle.domain.sample(region.count, region.seed, extent=region.extent)]


HIGHER = {f"random-n{n}-seed{seed}": [AlgCurvTensor.random(n, seed).A]
          for n in (3, 4) for seed in range(10)}
HIGHER.update((name, _region_frames(name)) for name in REGIONS)


@pytest.mark.parametrize("case", sorted(HIGHER))
def test_quartic_ends_match_brute_force_at_n_3_and_4(case):
    for T in HIGHER[case]:
        scale = 1.0 + float(np.abs(T).max())
        best = quartic_brute_force(T)
        for ext, end, sgn in zip(_extrema.quartic_extrema(T), best, (1.0, -1.0)):
            v = ext.v
            assert sgn * (ext.value - end) >= -1e-12 * scale, (sgn, ext.value, end)
            assert ext.value == _extrema.quartic_value(T, v)
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-15)
            g = 4.0 * np.einsum("ijkl,j,k,l->i", T, v, v, v)
            assert np.linalg.norm(g - (g @ v) * v) <= 1e-13 * scale, sgn


@pytest.mark.parametrize("name", sorted(REGIONS))
def test_hsc_witness_reproduces_in_3d(name):
    handle = catalog(name, n=3)
    cert = certify_sign(handle, "HSC_POL", REGIONS[name])
    again = reevaluate_witness(handle, cert)
    assert abs(again - cert.extremal_value) <= cert.tolerance, (again, cert.extremal_value)

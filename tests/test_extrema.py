"""The n = 2 extremizer against a dense brute force.

The brute force does not use the angle reduction of _extrema: the pair ends
come from the eigenvalues of T(v, ., v, .) at each of 4001 directions v, the
ORTH and quartic ends from direct contractions there.  Each end must reach
the brute force within 1e-12 (1 + max |T|), return the value of its own
witness, and sit where the derivatives along the witness angles vanish to
rounding.  Hypothesis draws its examples under the derandomized profile
registered in conftest.py.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hesselab import _extrema
from hesselab.curvature import core_form, mirror_symmetrize
from hesselab.potentials import catalog

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

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
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import minimize

from hesselab import _extrema
from hesselab.curvature import (RegionSpec, certify_sign, core_form,
                                mirror_symmetrize, reevaluate_witness)
from hesselab.errors import BadParams
from hesselab.potentials import catalog
from hesselab.reaction import AlgCurvTensor

from conftest import ref_extrema_2d

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


def check_ends_equal_first_kernel(S, n_angles):
    """pair, ORTH and quartic ends over the stack S, and of each tensor alone,
    equal the single-tensor kernel as first written: value, v and w to the bit."""
    for kind in ("pair", "orth", "quartic"):
        if kind == "quartic":
            call = lambda T: _extrema.quartic_extrema(T, n_angles=n_angles)  # noqa: E731
        else:
            call = lambda T: _extrema.pair_extrema(T, orth=kind == "orth",  # noqa: E731
                                                   n_angles=n_angles)
        stacked = call(S)
        for i, T in enumerate(S):
            for ext, one, ref in zip(stacked, call(T), ref_extrema_2d(T, n_angles, kind)):
                assert type(one.value) is float and one.value == ref.value, (kind, i)
                assert ext.value[i].tobytes() == np.float64(ref.value).tobytes(), (kind, i)
                for got in (ext.v[i], one.v):
                    assert got.tobytes() == ref.v.tobytes(), (kind, i)
                if kind == "quartic":
                    assert ext.w is one.w is ref.w is None
                    continue
                for got in (ext.w[i], one.w):
                    assert got.tobytes() == ref.w.tobytes(), (kind, i)


@pytest.mark.parametrize("n_angles", [240, 720])
@pytest.mark.parametrize("case", sorted(FIXED))
def test_n2_fixed_cases_equal_first_kernel(case, n_angles):
    check_ends_equal_first_kernel(np.stack(FIXED[case]), n_angles)


@given(arrays(np.float64, (3, 2, 2, 2, 2),
              elements=st.floats(-1e3, 1e3, allow_nan=False, width=64)),
       st.sampled_from([240, 720]))
def test_n2_random_tensors_equal_first_kernel(X, n_angles):
    check_ends_equal_first_kernel(mirror_symmetrize(X), n_angles)


# -- n = 2 stacks: one call over many tensors ---------------------------------------

def check_stack_equals_tensors(S, n_angles):
    """pair_extrema (pair and ORTH) and quartic_extrema over the stack S
    return, for each tensor, its own single-tensor ends bit for bit."""
    calls = (lambda T: _extrema.pair_extrema(T, n_angles=n_angles),
             lambda T: _extrema.pair_extrema(T, orth=True, n_angles=n_angles),
             lambda T: _extrema.quartic_extrema(T, n_angles=n_angles))
    for call in calls:
        stacked = call(S)
        for i, T in enumerate(S):
            for ext, one in zip(stacked, call(T)):
                assert type(one.value) is float
                assert ext.value[i].tobytes() == np.float64(one.value).tobytes()
                assert ext.v[i].tobytes() == one.v.tobytes()
                assert (ext.w is None) == (one.w is None)
                assert ext.w is None or ext.w[i].tobytes() == one.w.tobytes()


@given(arrays(np.float64, (1, 2, 2, 2, 2),
              elements=st.floats(-1e3, 1e3, allow_nan=False, width=64)),
       st.sampled_from([240, 720]))
def test_n2_stack_of_one_equals_the_tensor(X, n_angles):
    check_stack_equals_tensors(mirror_symmetrize(X), n_angles)


@settings(max_examples=3, phases=(Phase.generate,))  # a failing seed needs no shrinking
@given(st.integers(0, 2**32 - 1), st.sampled_from([240, 720]))
def test_n2_stack_of_1600_equals_its_tensors(seed, n_angles):
    """Seeded tensors with entries scaled per tensor by 10^-6 to 10^6, about
    one in twenty of them zero."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(1600, 2, 2, 2, 2)) * 10.0 ** rng.uniform(-6, 6, (1600, 1, 1, 1, 1))
    X[rng.random(1600) < 0.05] = 0.0
    check_stack_equals_tensors(mirror_symmetrize(X), n_angles)


def test_n2_two_stack_axes_equal_one():
    """A (2, 5) stack gives the ends of the same ten tensors as one axis."""
    S = mirror_symmetrize(np.random.default_rng(4).normal(size=(10, 2, 2, 2, 2)))
    for orth in (False, True):
        mx, mn = _extrema.pair_extrema(S.reshape(2, 5, 2, 2, 2, 2), orth=orth)
        assert mx.value.shape == (2, 5) and mx.v.shape == mx.w.shape == (2, 5, 2)
        flat = _extrema.pair_extrema(S, orth=orth)
        assert mx.value.tobytes() == flat[0].value.tobytes()
        assert mn.v.tobytes() == flat[1].v.tobytes() and mn.w.tobytes() == flat[1].w.tobytes()


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


# -- the cost and the bookkeeping of the searches ----------------------------------

def test_n2_newton_stops_once_converged(monkeypatch):
    """A refinement that has converged ends where it is: over 500 seeded
    tensors at 240 and 720 angles, a refinement evaluates the objective at
    most 6 times on average (bisecting back from the bracket's end took
    about 22)."""
    calls, runs = [0], [0]
    jet, newton = _extrema._objective_jet, _extrema._newton_2t

    def counted_jet(*args):
        calls[0] += 1
        return jet(*args)

    def counted_newton(*args):
        runs[0] += 1
        return newton(*args)

    monkeypatch.setattr(_extrema, "_objective_jet", counted_jet)
    monkeypatch.setattr(_extrema, "_newton_2t", counted_newton)
    rng = np.random.default_rng(19)
    for n_angles in (240, 720):
        for _ in range(500):
            T = mirror_symmetrize(rng.normal(size=(2, 2, 2, 2)))
            _extrema.pair_extrema(T, n_angles=n_angles)
            _extrema.pair_extrema(T, orth=True, n_angles=n_angles)
            _extrema.quartic_extrema(T, n_angles=n_angles)
    assert runs[0] == 2 * 500 * 6
    assert calls[0] / runs[0] <= 6.0, calls[0] / runs[0]


def test_orth_pair_ends_return_their_own_value_at_n_3():
    """A stalled alternating search returns the iterate whose value it keeps."""
    handle = catalog("calabi_ball", n=3)
    for p in handle.domain.sample(12, 7, extent=0.9):
        T = core_form(handle.jet(p)).E_frame
        for ext in _extrema.pair_extrema(T, orth=True):
            assert ext.value == _extrema.pair_value(T, ext.v, ext.w)


# -- one end on request ----------------------------------------------------------

def _random_frames(shape, seed):
    """Seeded tensors of the curvature symmetry class with the given shape."""
    return mirror_symmetrize(np.random.default_rng(seed).normal(size=shape))


ONE_END_CASES = {"n1": _random_frames((1, 1, 1, 1), 1),
                 "n2": _random_frames((2, 2, 2, 2), 2),
                 "n2-stack-9": _random_frames((9, 2, 2, 2, 2), 3),
                 "n2-stack-3x3": _random_frames((3, 3, 2, 2, 2, 2), 4),
                 "n3": AlgCurvTensor.random(3, 5).A,
                 "n4": AlgCurvTensor.random(4, 6).A}
KINDS = ("pair", "orth", "quartic")


def _extremize(T, kind, **kw):
    if kind == "quartic":
        return _extrema.quartic_extrema(T, n_angles=240, **kw)
    return _extrema.pair_extrema(T, orth=kind == "orth", n_angles=240, restarts=8, **kw)


@pytest.mark.parametrize("case, kind", [(case, kind) for case in sorted(ONE_END_CASES)
                                         for kind in KINDS if (case, kind) != ("n1", "orth")])
def test_one_end_equals_that_end_of_both(case, kind):
    """end "max" or "min" returns that end of the call for both, value, v and
    w to the bit, and None in the other slot (n = 1 has no orthogonal pairs)."""
    T = ONE_END_CASES[case]
    both = _extremize(T, kind)
    for slot, end in enumerate(("max", "min")):
        got = _extremize(T, kind, end=end)
        assert got[1 - slot] is None, (end, got)
        ext, ref = got[slot], both[slot]
        assert type(ext.value) is type(ref.value), end
        assert np.asarray(ext.value).tobytes() == np.asarray(ref.value).tobytes(), end
        assert ext.v.tobytes() == ref.v.tobytes(), end
        assert (ext.w is None) == (ref.w is None) == (kind == "quartic"), end
        assert ext.w is None or ext.w.tobytes() == ref.w.tobytes(), end


@pytest.mark.parametrize("end", ["both", "", "MAX", 0, ("max",)])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_unknown_end_is_refused(n, end):
    T = AlgCurvTensor.random(n, 7).A if n > 1 else np.ones((1, 1, 1, 1))
    for call in (_extrema.pair_extrema, _extrema.quartic_extrema):
        with pytest.raises(BadParams, match="end must be"):
            call(T, end=end)


@pytest.mark.parametrize("kind", KINDS)
def test_n2_newton_runs_once_per_tensor_and_requested_end(kind, monkeypatch):
    runs = [0]
    newton = _extrema._newton_2t

    def counted(*args):
        runs[0] += 1
        return newton(*args)

    monkeypatch.setattr(_extrema, "_newton_2t", counted)
    S = ONE_END_CASES["n2-stack-9"]
    for end, per_tensor in (("max", 1), ("min", 1), (None, 2)):
        runs[0] = 0
        _extremize(S, kind, end=end)
        assert runs[0] == 9 * per_tensor, (end, runs[0])


@pytest.mark.parametrize("orth", [False, True])
def test_n3_ascents_run_once_per_restart_and_requested_end(orth, monkeypatch):
    runs = [0]
    ascent = _extrema._alternating_pair

    def counted(*args, **kw):
        runs[0] += 1
        return ascent(*args, **kw)

    monkeypatch.setattr(_extrema, "_alternating_pair", counted)
    T = ONE_END_CASES["n3"]
    for end, per_restart in (("max", 1), ("min", 1), (None, 2)):
        runs[0] = 0
        _extrema.pair_extrema(T, orth=orth, restarts=5, end=end)
        assert runs[0] == 5 * per_restart, (end, runs[0])


def test_n3_quartic_newton_runs_once_per_requested_end(monkeypatch):
    runs = [0]
    newton = _extrema._newton_quartic

    def counted(*args):
        runs[0] += 1
        return newton(*args)

    monkeypatch.setattr(_extrema, "_newton_quartic", counted)
    for end, expected in (("max", 1), ("min", 1), (None, 2)):
        runs[0] = 0
        _extrema.quartic_extrema(ONE_END_CASES["n3"], end=end)
        assert runs[0] == expected, (end, runs[0])


# -- tensors with a NaN or inf entry ----------------------------------------------

@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("case", ["n1", "n2", "n2-stack-9", "n3", "n4"])
def test_non_finite_tensor_is_refused_before_any_solve(case, bad, capfd):
    """A NaN or inf entry raises BadParams for every objective and end; no
    solver runs, so LAPACK prints nothing."""
    T = ONE_END_CASES[case].copy()
    T.reshape(-1)[T.size // 2] = bad
    for kind in KINDS:
        if kind == "orth" and T.shape[-1] == 1:
            continue
        for end in (None, "max", "min"):
            with pytest.raises(BadParams, match="finite"):
                _extremize(T, kind, end=end)
    assert capfd.readouterr().err == ""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hesselab import _extrema, reaction
from hesselab.curvature import core_form, mirror_symmetrize
from hesselab.errors import (BadParams, BlowUp, NotExtremal, NotNegativeABC,
                             NotPSD, StabilityFailure)
from hesselab.reaction import (AlgCurvTensor, BlockMatrixInstance,
                               canonical_indices, identity_shift_tensor,
                               integrate_ode, noab_probe,
                               null_vector_check_negative,
                               polarization_bounds, q_quadratic,
                               shift_to_boundary, trace_lemma)


def q_einsum(T):
    """The three-einsum contraction that _q_contraction replaced."""
    t1 = np.einsum("ijpq,qpkl->ijkl", T, T)
    t2 = np.einsum("ilpq,qpkj->ijkl", T, T)
    t3 = np.einsum("ipkq,pjql->ijkl", T, T)
    return 2.0 * (t1 + t2 - t3)


# zeros and entries of size 0.01..4, so no product falls below the normal range
ENTRIES = st.one_of(st.just(0.0), st.floats(0.01, 4.0), st.floats(-4.0, -0.01))


@st.composite
def curvature_tensors(draw):
    n = draw(st.integers(1, 4))
    return mirror_symmetrize(draw(arrays(np.float64, (n,) * 4, elements=ENTRIES)))


@given(curvature_tensors())
def test_q_contraction_matches_the_einsum_reference(A):
    Q, ref = reaction._q_contraction(A), q_einsum(A)
    n = A.shape[0]
    if n == 1:
        assert Q.tobytes() == ref.tobytes()
    else:
        tol = 8 * n**2 * np.finfo(float).eps * np.abs(A).max() ** 2
        assert np.abs(Q - ref).max() <= tol


def test_q_scalar_case():
    A = AlgCurvTensor(np.full((1, 1, 1, 1), 0.7))
    assert q_quadratic(A).A[0, 0, 0, 0] == pytest.approx(2 * 0.49, abs=1e-15)
    Z = AlgCurvTensor(np.zeros((2,) * 4))
    assert not q_quadratic(Z).A.any()


def test_q_preserves_symmetry_class():
    for n, seed in ((2, 0), (3, 1), (4, 2)):
        A = AlgCurvTensor.random(n, seed)
        Q = q_quadratic(A).A
        assert np.array_equal(Q, Q.transpose(2, 1, 0, 3))
        assert np.array_equal(Q, Q.transpose(0, 3, 2, 1))
        assert np.array_equal(Q, Q.transpose(1, 0, 3, 2))


def test_noab_structural_identity_exact():
    """With the n = 2 boundary constraints the orthogonal-pair component of Q
    is the perfect square 4 A[1,1,1,2]^2, exactly."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for trial in range(1000):
        A = AlgCurvTensor.random(2, int(rng.integers(0, 2**62))).A
        for idx in [(0, 1, 0, 1), (1, 0, 1, 0)]:
            A[idx] = 0.0
        m = A[(0, 1, 0, 0)]
        for idx in [(0, 1, 0, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, 0, 1, 0),
                    (0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, 1), (1, 1, 1, 0)]:
            A[idx] = m
        Q = q_quadratic(AlgCurvTensor(A)).A
        worst = max(worst, abs(Q[0, 1, 0, 1] - 4.0 * A[0, 0, 0, 1] ** 2))
    assert worst <= 1e-12


def test_ode_negative_branch_closed_form():
    A0 = AlgCurvTensor(np.full((1, 1, 1, 1), -1.0))
    traj = integrate_ode(A0, 0.5, 1e-3)
    assert traj.times[-1] == pytest.approx(0.5)
    assert traj.final().A[0, 0, 0, 0] == pytest.approx(-0.5, abs=1e-8)
    assert traj.max_symmetry_drift == 0.0


def test_ode_positive_branch_blowup_near_pole():
    A0 = AlgCurvTensor(np.full((1, 1, 1, 1), 1.0))
    with pytest.raises(BlowUp) as err:
        integrate_ode(A0, 1.0, 1e-3)
    assert abs(err.value.time - 0.5) / 0.5 < 0.05


def test_ode_zero_constant_and_sign_persistence():
    Z = AlgCurvTensor(np.zeros((1,) * 4))
    traj = integrate_ode(Z, 0.3, 1e-2)
    assert all(not t.A.any() for t in traj.tensors)
    A0 = AlgCurvTensor(np.full((1, 1, 1, 1), -2.0))
    traj = integrate_ode(A0, 3.0, 1e-3, record_every=100)
    vals = [t.A[0, 0, 0, 0] for t in traj.tensors]
    assert all(v < 0 for v in vals)
    assert vals[-1] > vals[0]  # decays toward zero from below
    assert abs(vals[-1]) < 0.2
    with pytest.raises(BadParams):
        integrate_ode(A0, 1.0, 0.0)


@pytest.mark.parametrize("T, dt, every", [
    (np.nan, 1e-3, 1), (np.inf, 1e-3, 1), (-1.0, 1e-3, 1), (1.0, np.nan, 1),
    (1.0, np.inf, 1), (1.0, -1e-3, 1), (1.0, 1e-3, 0)])
def test_ode_rejects_bad_time_step_and_recording(T, dt, every):
    A0 = AlgCurvTensor(np.full((1, 1, 1, 1), -1.0))
    with pytest.raises(BadParams):
        integrate_ode(A0, T, dt, record_every=every)


def spoil_q(monkeypatch, at_call, value, idx=(0, 1, 0, 1)):
    """Make the at_call-th Q evaluation (from 1) return value at idx."""
    clean, calls = reaction._q_contraction, [0]

    def q(T):
        calls[0] += 1
        out = clean(T)
        if calls[0] == at_call:
            out[idx] = value
        return out
    monkeypatch.setattr(reaction, "_q_contraction", q)


def small_tensor():
    """The draw of AlgCurvTensor.random(2, 5), scaled by 0.1 before it is
    symmetrized."""
    raw = np.random.default_rng(5).normal(size=(2,) * 4) * 0.1
    return AlgCurvTensor(mirror_symmetrize(raw))


@pytest.mark.parametrize("value", [np.nan, np.inf, 1e16])
def test_ode_blowup_on_a_bad_entry(monkeypatch, value):
    """A NaN, an inf or an above-cap entry ends the step that made it."""
    A0 = small_tensor()
    clean = integrate_ode(A0, 0.01, 1e-3)
    spoil_q(monkeypatch, 4 * 5 + 2, value)  # k2 of step 6
    with pytest.raises(BlowUp) as err:
        integrate_ode(A0, 0.01, 1e-3)
    assert err.value.time == clean.times[6]
    assert err.value.trajectory.times == clean.times[:6]


def test_ode_asymmetric_q_is_a_stability_failure(monkeypatch):
    spoil_q(monkeypatch, 1, 1.0, idx=(0, 0, 0, 1))  # its orbit mates keep theirs
    with pytest.raises(StabilityFailure) as err:
        integrate_ode(small_tensor(), 0.01, 1e-3)
    assert err.value.time == 1e-3


def test_extremal_pair_modes(bidisk, ball2):
    # product of negative one-dimensional factors: the mixed block vanishes,
    # so the pair maximum is exactly zero (attained at disjoint directions)
    sample = core_form(bidisk.jet(np.array([0.8, 1.2])))
    A = AlgCurvTensor(sample.E_frame.copy())
    mx, _ = _extrema.pair_extrema(A.A)
    assert mx.value == pytest.approx(0.0, abs=1e-12)
    # the ball potential is strictly negative on every interior pair
    strict = AlgCurvTensor(core_form(ball2.jet(np.array([0.2, 0.3]))).E_frame.copy())
    mx2, _ = _extrema.pair_extrema(strict.A)
    assert mx2.value < -1e-3
    flat = AlgCurvTensor(np.zeros((2,) * 4))
    mx0, _ = _extrema.pair_extrema(flat.A)
    assert mx0.value == 0.0


def test_constructed_noab_boundary_has_zero_witness():
    A = AlgCurvTensor.random(2, 19)
    _, mn = _extrema.pair_extrema(A.A, orth=True)
    B = AlgCurvTensor(A.A - mn.value * identity_shift_tensor(2))
    v, w = mn.v, mn.w
    assert B.pair_value(v, w) == pytest.approx(0.0, abs=1e-12)
    assert abs(v @ w) < 1e-9


def test_explicit_noab_boundary_tensor_witness_at_axes():
    """I x I with the mixed orthogonal orbit zeroed: pair values on
    orthogonal unit pairs are sin^2(2t)/2 >= 0, vanishing at (e1, e2)."""
    T = identity_shift_tensor(2)
    for idx in [(0, 1, 0, 1), (1, 0, 1, 0)]:
        T[idx] = 0.0
    A = AlgCurvTensor(T)
    _, mn = _extrema.pair_extrema(A.A, orth=True)
    assert mn.value == pytest.approx(0.0, abs=1e-12)
    angle = abs(np.arctan2(abs(mn.v[1]), abs(mn.v[0])))
    assert min(angle, abs(angle - np.pi / 2)) < 1e-6  # axis pair (e1, e2)


def test_shift_preserves_witness_and_lands_on_zero():
    A = AlgCurvTensor.random(3, 11)
    B, v, w = shift_to_boundary(A)
    assert B.pair_value(v, w) == pytest.approx(0.0, abs=1e-11)
    T = identity_shift_tensor(3)
    assert np.array_equal(T, T.transpose(2, 1, 0, 3))


def test_null_vector_check_on_engine_boundary_tensor(ball2):
    sample = core_form(ball2.jet(np.array([0.35, 0.1])))
    A = AlgCurvTensor(sample.E_frame.copy())
    B, _, _ = shift_to_boundary(A)
    rep = null_vector_check_negative(B)
    assert rep.passed
    assert rep.first_derivative_residual < rep.identity_tol
    assert rep.hform_min_eig > -rep.psd_tol
    assert rep.q_value <= rep.q_tol
    assert rep.sharper_value <= rep.q_tol


def test_null_vector_check_trivial_and_precondition():
    Z = AlgCurvTensor(np.zeros((1,) * 4))
    rep = null_vector_check_negative(Z)
    assert rep.passed and rep.q_value == 0.0
    A = AlgCurvTensor.random(2, 23)  # generic tensor: max is far from 0
    with pytest.raises(NotExtremal):
        null_vector_check_negative(A)


def test_null_vector_randomized_suite_small():
    rng = np.random.default_rng(41)
    for trial in range(30):
        n = 2 + trial % 2
        A = AlgCurvTensor.random(n, int(rng.integers(0, 2**62)))
        B, _, _ = shift_to_boundary(A)
        assert null_vector_check_negative(B).passed


def test_trace_lemma_identity_and_footnote():
    inst = BlockMatrixInstance(M1=np.eye(3), M2=np.eye(3), N=np.zeros((3, 3)))
    assert trace_lemma(inst) == pytest.approx(3.0, abs=1e-14)
    foot = BlockMatrixInstance(M1=np.array([[0.0, 0.0], [0.0, 1.0]]),
                               M2=np.array([[1.0, 0.0], [0.0, 0.0]]),
                               N=np.array([[0.0, 0.0], [1.0, 0.0]]))
    assert trace_lemma(foot) == 0.0


def test_trace_lemma_randomized_and_not_psd():
    rng = np.random.default_rng(6)
    worst = np.inf
    for _ in range(500):
        n = int(rng.integers(1, 7))
        rank = None if rng.random() < 0.7 else int(rng.integers(1, 2 * n + 1))
        inst = BlockMatrixInstance.random(n, int(rng.integers(0, 2**62)), rank=rank)
        worst = min(worst, trace_lemma(inst))
    assert worst >= -1e-9
    bad = BlockMatrixInstance(M1=np.eye(2), M2=np.eye(2), N=3.0 * np.eye(2))
    with pytest.raises(NotPSD):
        trace_lemma(bad)


def test_noab_probe_finds_counterexample_in_3d():
    cx = noab_probe(3, seed=11, trials=2000)
    assert cx is not None
    assert cx.q_value < -1e-6
    assert cx.orth_min_after_shift > -1e-8 * (1 + cx.tensor.norm)
    # witness pair is orthogonal and achieves the boundary value zero
    assert abs(cx.v @ cx.w) < 1e-9
    assert cx.tensor.pair_value(cx.v, cx.w) == pytest.approx(0.0, abs=1e-10)


def test_noab_probe_finds_nothing_in_2d():
    assert noab_probe(2, seed=11, trials=1000) is None
    with pytest.raises(BadParams):
        noab_probe(3, seed=1, trials=0)


def test_polarization_bounds_flat_and_engine(ball2):
    flat = AlgCurvTensor(np.zeros((2,) * 4))
    rep = polarization_bounds(flat, 0.0, 0.0)
    assert rep.passed and rep.worst_margin <= 0.0
    for point in (np.array([0.3, 0.0]), np.array([0.1, 0.45])):
        sample = core_form(ball2.jet(point))
        A = AlgCurvTensor(sample.E_frame.copy())
        _, hmn = _extrema.quartic_extrema(A.A)
        _, omn = _extrema.pair_extrema(A.A, orth=True)
        omx, _ = _extrema.pair_extrema(A.A, orth=True)
        H_bound = abs(hmn.value)
        O_bound = max(abs(omn.value), abs(omx.value))
        rep = polarization_bounds(A, H_bound, O_bound)
        assert rep.passed, rep.violations


def test_polarization_bounds_randomized_negative_tensors():
    rng = np.random.default_rng(17)
    for trial in range(60):
        n = 2 + trial % 2
        A = AlgCurvTensor.random(n, int(rng.integers(0, 2**62)))
        B, _, _ = shift_to_boundary(A)
        _, hmn = _extrema.quartic_extrema(B.A)
        omx, omn = _extrema.pair_extrema(B.A, orth=True, restarts=32)
        H_bound = abs(hmn.value)
        O_bound = max(abs(omn.value), abs(omx.value))
        rep = polarization_bounds(B, H_bound, O_bound, check_sign=False)
        assert rep.passed, (trial, rep.violations)


def test_polarization_bounds_requires_negative_abc():
    A = AlgCurvTensor(identity_shift_tensor(2))  # positive pair values
    with pytest.raises(NotNegativeABC):
        polarization_bounds(A, 1.0, 1.0)
    with pytest.raises(BadParams):
        polarization_bounds(A, -1.0, 1.0, check_sign=False)


def test_tensor_serialization_roundtrip():
    A = AlgCurvTensor.random(3, 29)
    text = A.to_text()
    B = AlgCurvTensor.from_text(text)
    assert np.array_equal(A.A, B.A)


def test_canonical_indices_partition_the_index_set():
    import itertools
    from hesselab.curvature import CURVATURE_GROUP
    from hesselab.jets import orbit_table
    for n in (2, 3):
        reps = canonical_indices(n)
        orbits, _, sizes = orbit_table(n, 4, CURVATURE_GROUP)
        assert len(reps) == len(orbits)
        covered = set()
        for rep, row, size in zip(reps, orbits, sizes):
            orbit = set(zip(*(a.tolist() for a in
                              np.unravel_index(row[:size], (n,) * 4))))
            assert orbit == {tuple(rep[p] for p in g) for g in CURVATURE_GROUP}
            assert min(orbit) == rep
            assert not (orbit & covered)
            covered |= orbit
        assert covered == set(itertools.product(range(n), repeat=4))

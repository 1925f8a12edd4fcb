import itertools

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import AffineImage, ScaledHandle, argmax_near, quadratic
from hesselab import _extrema
from hesselab.certificates import DEGENERATE, NONPOSITIVE
from hesselab.curvature import (RegionSpec, anti_bisectional,
                                certify_sign, core_form, full_abc_trace, hsc,
                                hsc_full, mtw_tensor, oab_trace,
                                reevaluate_witness, ricci, scalar,
                                symmetry_defect)
from hesselab.errors import OutOfDomain, ZeroVector
from hesselab.jets import fd_jet
from hesselab.potentials import catalog


# -- independent oracle: curvature of the lifted potential on C^n ---------------

def _wirtinger(T: np.ndarray, spec: list, n: int) -> complex:
    """Mixed Wirtinger derivative from the real derivative tensor of the lift.

    spec entries are ("z", i) or ("zbar", i); T is the real derivative tensor
    of psi^h over (x, y) coordinates with axes 0..n-1 = x, n..2n-1 = y.
    """
    total = 0.0 + 0.0j
    for combo in itertools.product((0, 1), repeat=len(spec)):
        coef = 1.0 + 0.0j
        idx = []
        for (kind, i), pick_y in zip(spec, combo):
            if pick_y:
                coef *= (0.5j) if kind == "zbar" else (-0.5j)
                idx.append(n + i)
            else:
                coef *= 0.5
                idx.append(i)
        total += coef * T[tuple(idx)]
    return total


def lifted_curvature_fd(handle, x: np.ndarray, h: float) -> np.ndarray:
    """R_{i jbar k lbar} of the tube metric of psi^h, by finite differences of
    the lift over (x, y) in R^{2n} and the standard Kahler curvature formula."""
    n = x.shape[0]

    def lift(p):
        return handle._value(p[:n])  # psi^h(x + i y) = psi(x)

    p0 = np.concatenate([x, np.zeros(n)])
    jet = fd_jet(lift, p0, h)
    g = np.empty((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            g[i, j] = _wirtinger(jet.hessian, [("z", i), ("zbar", j)], n)
    ginv = np.linalg.inv(g)
    dg = np.empty((n, n, n), dtype=complex)        # d g_{i jbar} / d z^k
    ddg = np.empty((n, n, n, n), dtype=complex)    # d^2 g_{i jbar} / dz^k dzbar^l
    for i, j, k in itertools.product(range(n), repeat=3):
        dg[i, j, k] = _wirtinger(jet.third, [("z", i), ("zbar", j), ("z", k)], n)
    for i, j, k, l in itertools.product(range(n), repeat=4):
        ddg[i, j, k, l] = _wirtinger(
            jet.fourth, [("z", i), ("zbar", j), ("z", k), ("zbar", l)], n)
    R = np.empty((n, n, n, n), dtype=complex)
    for i, j, k, l in itertools.product(range(n), repeat=4):
        corr = sum(ginv[p, q] * dg[i, q, k] * np.conj(dg[j, p, l])
                   for p in range(n) for q in range(n))
        R[i, j, k, l] = -ddg[i, j, k, l] + corr
    return R


def lifted_curvature_richardson(handle, x, h=0.032):
    """Two-level Richardson extrapolation of the O(h^2) stencils."""
    R1 = lifted_curvature_fd(handle, x, h)
    R2 = lifted_curvature_fd(handle, x, h / 2)
    R4 = lifted_curvature_fd(handle, x, h / 4)
    Ra = (4.0 * R2 - R1) / 3.0
    Rb = (4.0 * R4 - R2) / 3.0
    return (16.0 * Rb - Ra) / 15.0


@pytest.mark.parametrize("point", [np.array([0.25, -0.1]), np.array([0.0, 0.4])])
def test_core_form_matches_lifted_fd_oracle(ball2, point):
    """Engine E equals 16x the lifted-metric curvature tensor to 1e-6."""
    sample = core_form(ball2.jet(point))
    R = lifted_curvature_richardson(ball2, point)
    assert np.abs(R.imag).max() < 1e-7
    assert np.abs(16.0 * R.real - sample.E).max() < 1e-6


def test_scalar_matches_lifted_fd_oracle(ball2):
    point = np.array([0.2, 0.3])
    sample = core_form(ball2.jet(point))
    R = lifted_curvature_richardson(ball2, point).real
    g = 0.25 * ball2.jet(point).hessian
    ginv = np.linalg.inv(g)
    S_oracle = float(np.einsum("ij,kl,ijkl->", ginv, ginv, R))
    assert scalar(sample) == pytest.approx(S_oracle, abs=1e-6)


def test_log_barrier_core_value():
    sample = core_form(catalog("log_barrier").jet(np.array([1.0])))
    assert sample.E[0, 0, 0, 0] == pytest.approx(-2.0, abs=1e-14)


def test_quadratic_core_form_flat(quad2):
    sample = core_form(quad2.jet(np.array([0.3, 0.8])))
    assert not sample.E.any()


def test_core_form_symmetries_exact(ball2, cone, radial):
    rng = np.random.default_rng(3)
    for handle in (ball2, cone, radial):
        pts = handle.domain.sample(3, 11)
        for p in pts:
            E = core_form(handle.jet(p)).E
            assert symmetry_defect(E) == 0.0
            assert np.array_equal(E, E.transpose(2, 1, 0, 3))
            assert np.array_equal(E, E.transpose(0, 3, 2, 1))
            assert np.array_equal(E, E.transpose(1, 0, 3, 2))


# -- anti-bisectional values -----------------------------------------------------

def paper_pair(sample, theta, phi):
    """Unit vector at angle theta with the raised unit covector at angle phi."""
    v = np.array([np.cos(theta), np.sin(theta)])
    w = np.array([np.sin(phi), -np.cos(phi)])
    return v, np.linalg.solve(sample.h, w)


def test_calabi_origin_angle_formula(ball2):
    sample = core_form(ball2.jet(np.zeros(2)))
    for theta, phi in [(0.3, 1.2), (1.0, 0.1), (2.2, 2.2)]:
        v, wt = paper_pair(sample, theta, phi)
        val = anti_bisectional(sample, v, wt)
        assert val == pytest.approx(np.cos(2 * (theta - phi)) - 2.0, abs=1e-12)
    # convention-free ratio: aligned over crossed = 1/3
    v, wt = paper_pair(sample, 0.4, 0.4)
    aligned = anti_bisectional(sample, v, wt)
    v, wt = paper_pair(sample, 0.4, 0.4 + np.pi / 2)
    crossed = anti_bisectional(sample, v, wt)
    assert aligned / crossed == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_bidisk_mixed_block_vanishes(bidisk):
    sample = core_form(bidisk.jet(np.array([0.9, 1.4])))
    assert anti_bisectional(sample, np.eye(2)[0], np.eye(2)[1]) == 0.0


def test_abc_diagonal_is_sectional(ball2):
    sample = core_form(ball2.jet(np.array([0.2, 0.1])))
    v = np.array([0.4, -1.1])
    raw = float(np.einsum("ijkl,i,j,k,l->", sample.E, v, v, v, v))
    assert anti_bisectional(sample, v, v) == raw


# -- sectional values --------------------------------------------------------------

def test_hsc_quadratic_zero(quad2):
    sample = core_form(quad2.jet(np.array([0.5, 0.5])))
    assert hsc(sample, np.array([1.0, 2.0])) == 0.0


def test_hsc_log_barrier_constant():
    handle = catalog("log_barrier")
    vals = [hsc(core_form(handle.jet(np.array([x]))), np.ones(1))
            for x in (0.5, 1.0, 2.0)]
    assert np.allclose(vals, -2.0, atol=1e-12)


def test_hsc_scale_invariant_in_vector(ball2):
    sample = core_form(ball2.jet(np.array([0.3, -0.2])))
    v = np.array([0.7, 0.4])
    assert hsc(sample, v) == pytest.approx(hsc(sample, 3.7 * v), rel=1e-12)
    with pytest.raises(ZeroVector):
        hsc(sample, np.zeros(2))


_HSC_HANDLES = [catalog("calabi_ball", n=2), catalog("calabi_ball", n=3),
                catalog("cone2d"), catalog("radial_sym", C=1.0),
                catalog("bidisk_product")]


@st.composite
def hsc_scalings(draw):
    """A core form at a sampled domain point, a direction v with
    |v| >= 1e-3 and a scale s != 0 with 1e-3 <= |s| <= 1e3."""
    handle = draw(st.sampled_from(_HSC_HANDLES))
    x = handle.domain.sample(1, draw(st.integers(0, 2**31 - 1)))[0]
    v = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=handle.n,
                               max_size=handle.n)))
    assume(np.linalg.norm(v) >= 1e-3)
    s = draw(st.floats(1e-3, 1e3)) * draw(st.sampled_from([-1.0, 1.0]))
    return core_form(handle.jet(x)), v, s


@given(hsc_scalings())
def test_hsc_scale_invariance_property(case):
    """hsc(sample, s v) == hsc(sample, v) within 1e-12 relative."""
    sample, v, s = case
    assert hsc(sample, s * v) == pytest.approx(hsc(sample, v), rel=1e-12, abs=0.0)


def test_hsc_full_reduces_to_hsc(ball2):
    sample = core_form(ball2.jet(np.array([0.25, 0.15])))
    a = np.array([0.9, -0.3])
    assert hsc_full(sample, a, np.zeros(2)) == pytest.approx(hsc(sample, a), rel=1e-12)
    flat = core_form(quadratic(2).jet(np.array([0.2, 0.2])))
    assert hsc_full(flat, a, np.array([0.1, 0.4])) == 0.0


def ball_family_bound(s):
    return -2.0 * (3 + 3 * s + 9 * s**2 + s**3) / ((s - 1) ** 4 * (s + 1))


@pytest.mark.parametrize("s", [0.0, 0.2, 0.5, 0.8])
def test_hsc_full_family_max_matches_closed_form(ball2, s):
    """Max over (a, b) of the raw quartic on e1 + (a+ib) e2 equals twice the
    closed-form bound (one calibrated constant, here exactly 2)."""
    sample = core_form(ball2.jet(np.array([np.sqrt(s), 0.0])))
    grid = np.linspace(-2.0, 2.0, 41)
    best = -np.inf
    for a in grid:
        for b in grid:
            X = np.array([1.0, 0.0]) + a * np.array([0.0, 1.0])
            val = hsc_full(sample, np.array([1.0, a]), np.array([0.0, b]),
                           normalized=False)
            best = max(best, val)
    assert best == pytest.approx(2.0 * ball_family_bound(s), rel=1e-6)


def test_hsc_family_ratio_nine_over_220(ball2):
    vals = {}
    for s in (0.0, 0.5):
        sample = core_form(ball2.jet(np.array([np.sqrt(s), 0.0])))
        vals[s] = hsc_full(sample, np.array([1.0, 0.0]), np.zeros(2),
                           normalized=False)
    assert vals[0.0] / vals[0.5] == pytest.approx(9.0 / 220.0, rel=1e-10)


# -- traces -------------------------------------------------------------------------

def test_ricci_scalar_flat(quad2):
    sample = core_form(quad2.jet(np.array([0.1, 0.9])))
    assert not ricci(sample).any()
    assert scalar(sample) == 0.0


def test_bidisk_ricci_block_diagonal(bidisk):
    sample = core_form(bidisk.jet(np.array([0.7, 1.3])))
    R = ricci(sample)
    assert np.allclose(R, np.diag([-2.0, -2.0]), atol=1e-12)
    assert scalar(sample) == pytest.approx(-4.0, abs=1e-12)
    lb = catalog("log_barrier")
    s1 = scalar(core_form(lb.jet(np.array([0.7]))))
    s2 = scalar(core_form(lb.jet(np.array([1.3]))))
    assert scalar(sample) == pytest.approx(s1 + s2, abs=1e-12)


def test_oab_trace_two_dim_structure(ball2, bidisk):
    sample = core_form(ball2.jet(np.array([0.5, 0.0])))
    Ef = sample.E_frame
    assert oab_trace(sample) == pytest.approx(2.0 * Ef[0, 1, 0, 1], abs=1e-14)
    # frozen engine regression at s = 0.25
    assert oab_trace(sample) == pytest.approx(-0.72, abs=1e-12)
    assert scalar(sample) == pytest.approx(-6.816, abs=1e-12)
    flatten = core_form(bidisk.jet(np.array([1.0, 2.0])))
    assert oab_trace(flatten) == pytest.approx(0.0, abs=1e-14)


def test_oab_trace_frame_dependence_and_invariant_sum(ball2):
    """The orthogonal trace is frame-dependent; the diagonal-inclusive pair
    trace is rotation-invariant."""
    sample = core_form(ball2.jet(np.array([0.5, 0.2])))
    F = sample.frame
    base = oab_trace(sample)
    full = full_abc_trace(sample)
    for theta in (0.3, 1.1):
        c, s = np.cos(theta), np.sin(theta)
        rot = np.array([[c, -s], [s, c]])
        frame_rows = (F @ rot.T).T
        Ef = np.einsum("ijkl,ai,bj,ck,dl->abcd", sample.E, frame_rows,
                       frame_rows, frame_rows, frame_rows)
        rotated_full = float(np.einsum("abab->", Ef))
        rotated = rotated_full - float(np.einsum("aaaa->", Ef))
        assert rotated_full == pytest.approx(full, abs=1e-9)
        # record: the exclusive trace moves with the frame for this metric
        assert abs(rotated - base) > 1e-6


# -- transport-regularity tensor ----------------------------------------------------

def test_mtw_quadratic_zero(quad2):
    val = mtw_tensor(quad2, np.array([0.3, 0.4]), np.array([0.1, 0.1]),
                     np.array([1.0, 2.0]), np.array([2.0, -1.0]))
    assert val == 0.0


def test_mtw_abc_ratio_is_one(ball2, cone, radial):
    """The two independent code paths agree with ratio exactly 1 (frozen)."""
    rng = np.random.default_rng(8)
    for handle in (ball2, cone, radial):
        pts = handle.domain.sample(20, 21)
        for p in pts:
            xi = rng.normal(size=2)
            eta = rng.normal(size=2)
            y = 0.25 * p
            mv = mtw_tensor(handle, p + y, y, xi, eta)
            sample = core_form(handle.jet(p))
            ref = anti_bisectional(sample, xi, np.linalg.solve(sample.h, eta))
            if abs(ref) > 1e-10:
                assert mv / ref == pytest.approx(1.0, abs=1e-9)


def test_mtw_radial_orthogonal_nonnegative(radial):
    rng = np.random.default_rng(4)
    pts = radial.domain.sample(50, 31)
    for p in pts:
        xi = rng.normal(size=2)
        eta_raw = rng.normal(size=2)
        sample = core_form(radial.jet(p))
        # enforce eta(xi) = 0 by projecting the covector
        eta = eta_raw - (eta_raw @ xi) / (xi @ xi) * xi
        assert abs(eta @ xi) < 1e-12 * np.linalg.norm(eta) * np.linalg.norm(xi) + 1e-15
        val = mtw_tensor(radial, p, np.zeros(2), xi, eta)
        assert val >= -1e-10 * (1 + abs(val))


def test_mtw_out_of_domain(ball2):
    with pytest.raises(OutOfDomain):
        mtw_tensor(ball2, np.array([2.0, 0.0]), np.zeros(2),
                   np.ones(2), np.ones(2))


# -- sign certification ---------------------------------------------------------------

def test_certify_cone_nonpositive_with_quarter_pi_witness(cone):
    cert = certify_sign(cone, "ABC", RegionSpec(count=12, seed=5))
    assert cert.verdict == NONPOSITIVE
    # in the raised-covector chart the degenerate maximum sits at
    # theta = phi = pi/4 (mod the sign symmetries of the two angles)
    sample = core_form(cone.jet(cert.witness_point))

    def family(theta, phi):
        v, wt = paper_pair(sample, theta, phi)
        return anti_bisectional(sample, v, wt)

    grid = np.linspace(0.0, np.pi, 360, endpoint=False)
    vals = np.array([[family(t, p) for p in grid] for t in grid])
    it, ip = np.unravel_index(np.argmax(vals), vals.shape)
    t, p = grid[it], grid[ip]
    for _ in range(3):
        t = argmax_near(lambda a: family(a, p), t, np.pi / 360)
        p = argmax_near(lambda a: family(t, a), p, np.pi / 360)
    assert family(t, p) == pytest.approx(0.0, abs=1e-9)
    assert t == pytest.approx(p, abs=1e-6)
    assert min(abs(t - np.pi / 4), abs(t - 3 * np.pi / 4)) < 1e-6


def test_certify_quadratic_degenerate(quad2):
    for q in ("ABC", "ORTH_ABC", "HSC_POL"):
        cert = certify_sign(quad2, q, RegionSpec(count=4, seed=2))
        assert cert.verdict == DEGENERATE


def test_certify_ball_nonpositive_and_witness_reproduces(ball2):
    cert = certify_sign(ball2, "ABC", RegionSpec(count=10, seed=6, extent=0.9))
    assert cert.verdict == NONPOSITIVE
    again = reevaluate_witness(ball2, cert)
    assert again == pytest.approx(cert.extremal_value, abs=1e-12)


def test_hsc_witness_reproduces_in_2d(ball2):
    cert = certify_sign(ball2, "HSC_POL", RegionSpec(count=4, seed=6, extent=0.9))
    again = reevaluate_witness(ball2, cert)
    assert again == hsc(core_form(ball2.jet(cert.witness_point)), cert.witness_v)
    assert again == pytest.approx(cert.extremal_value, abs=1e-12)


def test_certify_scale_invariance(ball2):
    base = certify_sign(ball2, "ABC", RegionSpec(count=6, seed=9, extent=0.8))
    for c in (0.5, 3.0):
        scaled = ScaledHandle(ball2, c)
        cert = certify_sign(scaled, "ABC", RegionSpec(count=6, seed=9, extent=0.8))
        assert cert.verdict == base.verdict
        assert np.allclose(cert.witness_point, base.witness_point)
        for bw, cw in ((base.witness_v, cert.witness_v),
                       (base.witness_w, cert.witness_w)):
            cosine = abs(bw @ cw) / (np.linalg.norm(bw) * np.linalg.norm(cw))
            assert cosine == pytest.approx(1.0, abs=1e-6)


def test_affine_invariance_of_normalized_quantities(ball2):
    rng = np.random.default_rng(12)
    L = np.eye(2) + 0.35 * rng.normal(size=(2, 2))
    image = AffineImage(ball2, L)
    x = np.array([0.05, -0.08])
    s_base = core_form(ball2.jet(L @ x))
    s_img = core_form(image.jet(x))
    # normalized sectional extrema agree (tensor law + h-normalization)
    mb = _extrema.quartic_extrema(s_base.E_frame, n_angles=1440)
    mi = _extrema.quartic_extrema(s_img.E_frame, n_angles=1440)
    assert mi[0].value == pytest.approx(mb[0].value, rel=1e-9, abs=1e-12)
    assert mi[1].value == pytest.approx(mb[1].value, rel=1e-9, abs=1e-12)
    pb = _extrema.pair_extrema(s_base.E_frame, n_angles=1440)
    pi = _extrema.pair_extrema(s_img.E_frame, n_angles=1440)
    assert pi[0].value == pytest.approx(pb[0].value, rel=1e-9, abs=1e-12)
    assert pi[1].value == pytest.approx(pb[1].value, rel=1e-9, abs=1e-12)


def test_nonpositive_abc_implies_nonpositive_polarized_sectional(ball2):
    """Diagonal restriction: a NONPOSITIVE pair certificate forces the
    polarized sectional certificate to be non-positive as well."""
    region = RegionSpec(count=8, seed=15, extent=0.85)
    abc = certify_sign(ball2, "ABC", region)
    assert abc.verdict == NONPOSITIVE
    hsc_cert = certify_sign(ball2, "HSC_POL", region)
    assert hsc_cert.extra["max_value"] <= hsc_cert.tolerance

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import exact_polarized_average, exact_tolerance, quadratic, trig_coefficients
from hesselab import _extrema, berger
from hesselab.curvature import core_form, full_abc_trace, ricci, scalar
from hesselab.errors import BadFrame, BadParams, NotNegativeHSC
from hesselab.potentials import catalog


def samples_on(handle, count, seed, extent=None):
    pts = handle.domain.sample(count, seed, extent=extent)
    return [core_form(handle.jet(p)) for p in pts]


# -- the sphere rule -------------------------------------------------------------------

MOMENT_TOL = 2e-12  # 1e-12 (1 + max|E|): the monomials z1^4 and z1^2 z2^2 have max|E| = 1


def rule_moments(n):
    """(per-coordinate E[z_j^4], E[z_0^2 z_1^2]) under the sphere rule on S^{n-1}."""
    z, w = berger._sphere_rule(n)
    return w @ z**4, float(w @ (z[:, 0] * z[:, 1]) ** 2)


@settings(max_examples=40)
@given(st.integers(2, 6), arrays(np.float64, (6, 6, 6, 6), elements=st.floats(-1e3, 1e3)))
def test_sphere_rule_integrates_quartic_forms(n, T):
    """The rule integrates every quartic form, symmetric or not: the sphere
    average of T(z,z,z,z) is the sum of T's three index pairings over
    n (n + 2).  Its weights sum to 1, its points are unit vectors and it
    integrates z z^T to I/n."""
    T = T[:n, :n, :n, :n]
    z, w = berger._sphere_rule(n)
    assert len(w) == 2 * n * n
    pairings = (np.einsum("aabb->", T) + np.einsum("abab->", T)
                + np.einsum("abba->", T)) / (n * (n + 2))
    quartic = w @ np.einsum("abcd,pa,pb,pc,pd->p", T, z, z, z, z)
    assert abs(quartic - pairings) <= 1e-12 * (1.0 + np.abs(T).max())
    assert abs(w.sum() - 1.0) <= 1e-15
    assert np.abs(np.linalg.norm(z, axis=1) - 1.0).max() <= 1e-15
    assert np.abs(np.einsum("p,pa,pb->ab", w, z, z) - np.eye(n) / n).max() <= 1e-15


def test_sphere_moments_n2():
    m4, m22 = rule_moments(2)
    assert abs(m4[0] - 3.0 / 8.0) <= MOMENT_TOL
    assert abs(m22 - 1.0 / 8.0) <= MOMENT_TOL
    assert abs(m4[0] / m22 - 3.0) <= MOMENT_TOL
    # the n = 2 rule is 8 equally spaced directions of equal weight
    z, w = berger._sphere_rule(2)
    angles = np.sort(np.mod(np.arctan2(z[:, 1], z[:, 0]), 2 * np.pi))
    assert np.abs(angles - np.arange(8) * np.pi / 4).max() <= 1e-15
    assert np.all(w == 1.0 / 8.0)


def test_sphere_moments_n3():
    m4, m22 = rule_moments(3)
    assert abs(m4[0] - 1.0 / 5.0) <= MOMENT_TOL
    assert abs(m22 - 1.0 / 15.0) <= MOMENT_TOL


def test_sphere_moments_coordinate_symmetry():
    m4, _ = rule_moments(3)
    assert float(np.ptp(m4)) <= MOMENT_TOL
    # S^0 is {-1, 1}: the rule at n = 1 is those two points, each of weight 1/2
    z, w = berger._sphere_rule(1)
    assert z.ravel().tolist() == [1.0, -1.0] and w.tolist() == [0.5, 0.5]


def test_moment_determinism():
    """The rule is built once per n and cannot be written to."""
    z, w = berger._sphere_rule(2)
    again = berger._sphere_rule(2)
    assert again[0] is z and again[1] is w
    with pytest.raises(ValueError):
        z[0, 0] = 0.0
    with pytest.raises(ValueError):
        w[0] = 0.0


# -- polarized average and its exact functional -------------------------------------

def test_polarized_average_flat():
    sample = core_form(quadratic(2).jet(np.array([0.3, 0.3])))
    assert berger.polarized_average(sample) == 0.0
    assert exact_polarized_average(sample) == 0.0


def test_polarized_average_matches_moment_identity(ball2, cone):
    for handle, extent in ((ball2, 0.85), (cone, None)):
        for sample in samples_on(handle, 3, 13, extent=extent):
            avg = berger.polarized_average(sample)
            exact = exact_polarized_average(sample)
            assert abs(avg - exact) <= exact_tolerance([sample])


def check_exact_weights(fit, samples):
    """The fit recovers alpha = 2/(n(n + 2)) and beta = 1/(n(n + 2)) at n = 2,
    with no residual, up to rounding."""
    tol = exact_tolerance(samples)
    assert fit.residual <= tol
    assert abs(fit.alpha - 0.25) <= tol
    assert abs(fit.beta - 0.125) <= tol
    assert abs(fit.beta_over_alpha - 0.5) <= tol


def test_decomposition_fit_calabi_batch(ball2):
    samples = samples_on(ball2, 7, 19, extent=0.85)
    check_exact_weights(berger.decomposition_fit(samples), samples)


def test_decomposition_consistent_across_potentials(ball2, cone):
    mixed = samples_on(ball2, 4, 23, extent=0.8) + samples_on(cone, 4, 29)
    check_exact_weights(berger.decomposition_fit(mixed), mixed)
    with pytest.raises(BadParams):
        berger.decomposition_fit(mixed[:1])


# -- plane fits -----------------------------------------------------------------------

def frame_pair(sample, theta=0.0):
    F = sample.frame
    c, s = np.cos(theta), np.sin(theta)
    return F @ np.array([c, s]), F @ np.array([-s, c])


def test_plane_fit_flat():
    sample = core_form(quadratic(2).jet(np.array([0.4, 0.6])))
    X, Xp = frame_pair(sample)
    fit = berger.plane_fit(sample, X, Xp)
    assert np.allclose(trig_coefficients(fit), 0.0, atol=1e-15)
    assert fit.residual < 1e-15


def test_plane_fit_calabi_origin(ball2):
    sample = core_form(ball2.jet(np.zeros(2)))
    X, Xp = frame_pair(sample)
    fit = berger.plane_fit(sample, X, Xp)
    assert fit.a0 < 0
    assert fit.residual < 1e-10


def test_plane_fit_band_limited_everywhere(ball2, cone, radial):
    for handle, extent in ((ball2, 0.8), (cone, None), (radial, None)):
        for sample in samples_on(handle, 2, 31, extent=extent):
            X, Xp = frame_pair(sample, theta=0.37)
            fit = berger.plane_fit(sample, X, Xp)
            scale = 1.0 + np.abs(trig_coefficients(fit)).max()
            assert fit.residual < 1e-8 * scale


def test_plane_fit_bad_frame(ball2):
    sample = core_form(ball2.jet(np.array([0.3, 0.0])))
    with pytest.raises(BadFrame):
        berger.plane_fit(sample, np.array([1.0, 0.0]), np.array([0.0, 1.0]))


def minimizer_plane_fit(sample):
    """Trig fit in the plane of the polarized sectional minimizer."""
    _, mn = _extrema.quartic_extrema(sample.E_frame)
    Xf = mn.v
    Pf = np.array([-Xf[1], Xf[0]])
    F = sample.frame
    return berger.plane_fit(sample, F @ Xf, F @ Pf)


@pytest.mark.parametrize("name,extent", [
    ("calabi_ball", 0.85), ("bidisk_trig", None), ("cone2d", None),
])
def test_minimizer_constraints(name, extent):
    """At every numerically located plane minimizer: a2 + 2 a4 = 0,
    a1 + 4 a3 <= 0, a1 <= 0 (up to the residual tolerance)."""
    handle = catalog(name) if name != "calabi_ball" else catalog(name, n=2)
    for sample in samples_on(handle, 4, 37, extent=extent):
        fit = minimizer_plane_fit(sample)
        scale = 1.0 + np.abs(trig_coefficients(fit)).max()
        assert abs(fit.a2 + 2 * fit.a4) < 1e-8 * scale
        assert fit.a1 + 4 * fit.a3 <= 1e-8 * scale
        assert fit.a1 <= 1e-8 * scale


# -- the one-fifth and wedge estimates --------------------------------------------------

def test_fifth_and_wedge_bidisk(bidisk):
    sample = core_form(bidisk.jet(np.array([0.9, 1.6])))
    rep = berger.fifth_and_wedge_checks(sample)
    assert rep.passed
    assert rep.h_min < 0
    assert rep.worst_fifth_margin <= rep.tolerance
    assert rep.worst_wedge_margin <= rep.tolerance


def test_fifth_and_wedge_calabi(ball2):
    sample = core_form(ball2.jet(np.array([np.sqrt(0.5), 0.0])))
    rep = berger.fifth_and_wedge_checks(sample)
    assert rep.passed


def test_fifth_and_wedge_calabi_3d():
    handle = catalog("calabi_ball", n=3)
    sample = core_form(handle.jet(np.array([0.3, 0.1, -0.2])))
    rep = berger.fifth_and_wedge_checks(sample)
    assert rep.passed
    assert rep.planes_checked == 16


def test_fifth_and_wedge_rejects_flat():
    sample = core_form(quadratic(2).jet(np.array([0.2, 0.2])))
    with pytest.raises(NotNegativeHSC):
        berger.fifth_and_wedge_checks(sample)


# -- Ricci as a sphere average -------------------------------------------------------------

def test_ricci_average_flat():
    sample = core_form(quadratic(2).jet(np.array([0.1, 0.2])))
    ra = berger.ricci_average(sample, seed=8)
    assert ra.lhs == 0.0 and ra.integral == 0.0


def test_ricci_average_bidisk_factor(bidisk):
    sample = core_form(bidisk.jet(np.array([0.8, 1.1])))
    ra = berger.ricci_average(sample, sample.frame @ np.array([1.0, 0.0]))
    # first factor contributes its whole sectional value to the Ricci entry
    assert ra.lhs == pytest.approx(-2.0, abs=1e-12)
    assert abs(ra.lhs / ra.integral - 2.0) <= exact_tolerance([sample])


def test_ricci_average_ratio_constant(ball2):
    rng = np.random.default_rng(10)
    samples = samples_on(ball2, 10, 41, extent=0.85)
    ratios = np.array([berger.ricci_average(sample, sample.frame @ rng.normal(size=2)).ratio
                       for sample in samples])
    tol = exact_tolerance(samples)
    assert np.abs(ratios - 2.0).max() <= tol
    assert float(np.ptp(ratios)) <= 2 * tol


def test_ricci_average_ratio_matches_dimension_in_3d():
    handle = catalog("calabi_ball", n=3)
    sample = core_form(handle.jet(np.array([0.25, -0.1, 0.15])))
    ra = berger.ricci_average(sample, seed=77)
    assert ra.calibrated_constant == 3.0
    assert abs(ra.ratio - 3.0) <= exact_tolerance([sample])


def test_decomposition_fit_average_of_first_sample(ball2):
    samples = samples_on(ball2, 4, 51, extent=0.8)
    fit = berger.decomposition_fit(samples)
    tol = exact_tolerance(samples)
    assert abs(fit.averages[0] - exact_polarized_average(samples[0])) <= tol
    assert abs(fit.beta / fit.alpha - 0.5) <= tol
    assert fit.residual <= tol

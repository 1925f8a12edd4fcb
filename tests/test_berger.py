import numpy as np
import pytest

from conftest import exact_polarized_average, quadratic
from hesselab import _extrema, berger
from hesselab.curvature import core_form, full_abc_trace, ricci, scalar
from hesselab.errors import BadFrame, BadParams, NotNegativeHSC
from hesselab.potentials import catalog


def samples_on(handle, count, seed, extent=None):
    pts = handle.domain.sample(count, seed, extent=extent)
    return [core_form(handle.jet(p)) for p in pts]


# -- sphere moments ---------------------------------------------------------------

def test_sphere_moments_n2():
    mom = berger.sphere_moments(2, 200000, seed=1)
    assert mom.exact_m4 == pytest.approx(3.0 / 8.0)
    assert mom.exact_m22 == pytest.approx(1.0 / 8.0)
    assert abs(mom.m4 - mom.exact_m4) <= 3 * mom.se4
    assert abs(mom.m22 - mom.exact_m22) <= 3 * mom.se22
    assert mom.exact_ratio == pytest.approx(3.0)


def test_sphere_moments_n3():
    mom = berger.sphere_moments(3, 200000, seed=2)
    assert mom.exact_m4 == pytest.approx(1.0 / 5.0)
    assert mom.exact_m22 == pytest.approx(1.0 / 15.0)
    assert abs(mom.m4 - mom.exact_m4) <= 3 * mom.se4
    assert abs(mom.m22 - mom.exact_m22) <= 3 * mom.se22


def test_sphere_moments_coordinate_symmetry():
    mom = berger.sphere_moments(3, 100000, seed=3)
    spread = float(np.ptp(mom.per_coordinate_m4))
    assert spread < 6 * mom.se4
    with pytest.raises(BadParams):
        berger.sphere_moments(1, 100, seed=1)


def test_moment_determinism():
    a = berger.sphere_moments(2, 5000, seed=9)
    b = berger.sphere_moments(2, 5000, seed=9)
    assert a.m4 == b.m4 and a.m22 == b.m22


# -- polarized average and its exact functional -------------------------------------

def test_polarized_average_flat():
    sample = core_form(quadratic(2).jet(np.array([0.3, 0.3])))
    avg = berger.polarized_average(sample, 2000, seed=4)
    assert avg.estimate == 0.0
    assert exact_polarized_average(sample) == 0.0


def test_polarized_average_matches_moment_identity(ball2, cone):
    for handle, extent in ((ball2, 0.85), (cone, None)):
        for sample in samples_on(handle, 3, 13, extent=extent):
            mc = berger.polarized_average(sample, 40000, seed=7)
            exact = exact_polarized_average(sample)
            assert abs(mc.estimate - exact) <= 4 * mc.standard_error + 1e-12


def test_decomposition_fit_calabi_batch(ball2):
    samples = samples_on(ball2, 7, 19, extent=0.85)
    fit = berger.decomposition_fit(samples, 20000, seed=5)
    assert fit.residual <= 3 * fit.combined_mc_error
    # exact weights for n = 2 are 2/8 and 1/8
    assert fit.alpha == pytest.approx(0.25, abs=0.02)
    assert fit.beta == pytest.approx(0.125, abs=0.02)
    assert fit.beta_over_alpha == pytest.approx(0.5, abs=0.06)


def test_decomposition_consistent_across_potentials(ball2, cone):
    mixed = samples_on(ball2, 4, 23, extent=0.8) + samples_on(cone, 4, 29)
    fit = berger.decomposition_fit(mixed, 20000, seed=6)
    assert fit.residual <= 3 * fit.combined_mc_error
    assert fit.alpha == pytest.approx(0.25, abs=0.02)
    assert fit.beta == pytest.approx(0.125, abs=0.02)
    with pytest.raises(BadParams):
        berger.decomposition_fit(mixed[:1], 100, seed=1)


# -- plane fits -----------------------------------------------------------------------

def frame_pair(sample, theta=0.0):
    F = sample.frame
    c, s = np.cos(theta), np.sin(theta)
    return F @ np.array([c, s]), F @ np.array([-s, c])


def test_plane_fit_flat():
    sample = core_form(quadratic(2).jet(np.array([0.4, 0.6])))
    X, Xp = frame_pair(sample)
    fit = berger.plane_fit(sample, X, Xp)
    assert np.allclose(fit.coefficients, 0.0, atol=1e-15)
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
            scale = 1.0 + np.abs(fit.coefficients).max()
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
        scale = 1.0 + np.abs(fit.coefficients).max()
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
    rep = berger.fifth_and_wedge_checks(sample, n_perp=12, seed=3)
    assert rep.passed
    assert rep.planes_checked == 12


def test_fifth_and_wedge_rejects_flat():
    sample = core_form(quadratic(2).jet(np.array([0.2, 0.2])))
    with pytest.raises(NotNegativeHSC):
        berger.fifth_and_wedge_checks(sample)


# -- Ricci as a sphere average -------------------------------------------------------------

def test_ricci_average_flat():
    sample = core_form(quadratic(2).jet(np.array([0.1, 0.2])))
    ra = berger.ricci_average(sample, 2000, seed=8)
    assert ra.lhs == 0.0 and ra.integral == 0.0


def test_ricci_average_bidisk_factor(bidisk):
    sample = core_form(bidisk.jet(np.array([0.8, 1.1])))
    ra = berger.ricci_average(sample, 50000, seed=9,
                              direction=sample.frame @ np.array([1.0, 0.0]))
    # first factor contributes its whole sectional value to the Ricci entry
    assert ra.lhs == pytest.approx(-2.0, abs=1e-12)
    assert ra.lhs / ra.integral == pytest.approx(2.0, abs=0.1)


def test_ricci_average_ratio_constant(ball2):
    rng = np.random.default_rng(10)
    ratios = []
    ses = []
    for i, sample in enumerate(samples_on(ball2, 10, 41, extent=0.85)):
        d = rng.normal(size=2)
        ra = berger.ricci_average(sample, 30000, seed=100 + i,
                                  direction=sample.frame @ d)
        ratios.append(ra.ratio)
        ses.append(3 * ra.standard_error / abs(ra.integral))
    ratios = np.asarray(ratios)
    assert np.abs(ratios - 2.0).max() <= max(ses) + 0.05
    assert float(np.ptp(ratios)) <= 2 * max(ses) + 0.05


def test_ricci_average_ratio_matches_dimension_in_3d():
    handle = catalog("calabi_ball", n=3)
    sample = core_form(handle.jet(np.array([0.25, -0.1, 0.15])))
    ra = berger.ricci_average(sample, 60000, seed=77)
    assert ra.calibrated_constant == 3.0
    assert ra.ratio == pytest.approx(3.0, abs=0.15)


def test_decomposition_fit_average_of_first_sample(ball2):
    samples = samples_on(ball2, 4, 51, extent=0.8)
    fit = berger.decomposition_fit(samples, 20000, seed=3)
    assert fit.averages[0] == pytest.approx(
        exact_polarized_average(samples[0]), abs=0.05)
    assert fit.beta / fit.alpha == pytest.approx(0.5, abs=0.06)
    assert fit.residual < 0.05

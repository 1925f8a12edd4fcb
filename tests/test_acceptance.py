"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with: pytest tests/test_acceptance.py -v -s
"""

import itertools
import time

import numpy as np
import pytest

from conftest import argmax_near, exact_tolerance, quadratic, trig_coefficients
from hesselab import _extrema, berger, flow, reaction, transport
from hesselab.certificates import NONPOSITIVE
from hesselab.cli import verify_all
from hesselab.curvature import (RegionSpec, anti_bisectional,
                                certify_sign, core_form, mtw_tensor, scalar)
from hesselab.errors import BlowUp
from hesselab.potentials import catalog
from hesselab.transport import DiscreteMeasure, cost_matrix, solve_exact


def report(num, ok, detail):
    line = f"ACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'} -- {detail}"
    print(line)
    assert ok, line


# -- 1. transport tensor / anti-bisectional proportionality ------------------------

def test_criterion_01_mtw_abc_proportionality():
    t0 = time.time()
    worst_spread = 0.0
    rng = np.random.default_rng(101)
    for name, kw in (("calabi_ball", {"n": 2}), ("cone2d", {}),
                     ("radial_sym", {"C": 1.0})):
        handle = catalog(name, **kw)
        pts = handle.domain.sample(100, 17)
        ratios = []
        for p in pts:
            xi = rng.normal(size=2)
            eta = rng.normal(size=2)
            y = rng.normal(size=2) * 0.05
            val = mtw_tensor(handle, p + y, y, xi, eta)
            sample = core_form(handle.jet(p))
            ref = anti_bisectional(sample, xi, np.linalg.solve(sample.h, eta))
            if abs(ref) > 1e-11:
                ratios.append(val / ref)
        assert len(ratios) >= 100 * 0.9
        worst_spread = max(worst_spread, float(np.ptp(ratios)))
    elapsed = time.time() - t0
    report(1, worst_spread < 1e-8 and elapsed < 10.0,
           f"ratio spread {worst_spread:.2e} over 3 potentials x 100 triples, "
           f"{elapsed:.1f} s (< 10 s)")


# -- 2. ball-potential closed forms --------------------------------------------------

def ball_closed_form_2d(s, theta, phi):
    return (np.cos(2 * (theta - phi))
            - 2 * (1 + s + 2 * s * s) / (1 + s) ** 3
            + 2 * (-s + s * s) * np.cos(2 * phi) / (1 + s) ** 3)


def test_criterion_02_ball_formulas():
    t0 = time.time()
    handle = catalog("calabi_ball", n=2)
    ss = np.linspace(0.0, 0.9, 20)
    angles = np.linspace(0.0, np.pi, 20, endpoint=False)
    worst = 0.0
    for s in ss:
        sample = core_form(handle.jet(np.array([np.sqrt(s), 0.0])))
        hinv = np.linalg.inv(sample.h)
        for theta in angles:
            v = np.array([np.cos(theta), np.sin(theta)])
            Bv = np.einsum("ijkl,i,k->jl", sample.E, v, v)
            for phi in angles:
                w = hinv @ np.array([np.sin(phi), -np.cos(phi)])
                engine = float(w @ Bv @ w)
                worst = max(worst, abs(engine - ball_closed_form_2d(s, theta, phi)))
    pointwise_ok = worst <= 1e-8

    cert = certify_sign(handle, "ABC",
                        RegionSpec(count=25, seed=7, extent=np.sqrt(0.95)))
    sign_ok = cert.verdict == NONPOSITIVE

    h3 = catalog("calabi_ball", n=3)
    rng = np.random.default_rng(23)
    bound_ok = True
    for _ in range(1000):
        s = rng.uniform(0.0, 0.9)
        theta, phi, alpha = rng.uniform(0.0, np.pi, size=3)
        sample = core_form(h3.jet(np.array([np.sqrt(s), 0.0, 0.0])))
        v = np.array([np.cos(theta), np.sin(theta), 0.0])
        w = np.array([np.sin(phi), -np.cos(phi) * np.cos(alpha),
                      -np.cos(phi) * np.sin(alpha)])
        wt = np.linalg.solve(sample.h, w)
        val = anti_bisectional(sample, v, wt)
        bound_ok &= (1 + s) ** 3 * val <= -(1 - s) ** 3 + 1e-9
    elapsed = time.time() - t0
    report(2, pointwise_ok and sign_ok and bound_ok and elapsed < 60.0,
           f"2d closed form worst err {worst:.2e} on 20^3 grid (<= 1e-8), "
           f"certificate {cert.verdict}, n=3 bound at 1000 configs: {bound_ok}, "
           f"{elapsed:.1f} s (< 60 s)")


# -- 3. cone closed form ---------------------------------------------------------------

def test_criterion_03_cone_closed_form():
    handle = catalog("cone2d")
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(12):
        p = handle.domain.sample(1, int(rng.integers(0, 2**32)))[0]
        sample = core_form(handle.jet(p))
        hinv = np.linalg.inv(sample.h)
        for theta, phi in rng.uniform(0.0, np.pi, size=(25, 2)):
            v = np.array([np.cos(theta), np.sin(theta)])
            w = hinv @ np.array([np.sin(phi), -np.cos(phi)])
            engine = anti_bisectional(sample, v, w)
            worst = max(worst, abs(engine - (-1 + np.sin(2 * theta) * np.sin(2 * phi))))
    shape_ok = worst <= 1e-9

    sample = core_form(handle.jet(np.array([1.3, -0.4])))

    def family(t, p):
        v = np.array([np.cos(t), np.sin(t)])
        w = np.linalg.solve(sample.h, np.array([np.sin(p), -np.cos(p)]))
        return anti_bisectional(sample, v, w)

    grid = np.linspace(0.0, np.pi / 2, 2000)
    vals = np.array([[family(t, p) for p in grid[::40]] for t in grid[::40]])
    it, ip = np.unravel_index(np.argmax(vals), vals.shape)
    t, p = grid[::40][it], grid[::40][ip]
    for _ in range(4):
        t = argmax_near(lambda a: family(a, p), t, 0.02)
        p = argmax_near(lambda a: family(t, a), p, 0.02)
    witness_ok = (abs(t - np.pi / 4) < 1e-6 and abs(p - np.pi / 4) < 1e-6
                  and abs(family(t, p)) < 1e-9)
    report(3, shape_ok and witness_ok,
           f"shape err {worst:.2e} (<= 1e-9), degenerate witness at "
           f"({t:.8f}, {p:.8f}) vs pi/4 = {np.pi/4:.8f}")


# -- 4. block trace inequality -----------------------------------------------------------

def test_criterion_04_trace_lemma():
    t0 = time.time()
    rng = np.random.default_rng(5)
    worst = np.inf
    for _ in range(10000):
        n = int(rng.integers(1, 7))
        rank = None if rng.random() < 0.8 else int(rng.integers(1, 2 * n + 1))
        inst = reaction.BlockMatrixInstance.random(
            n, int(rng.integers(0, 2**62)), rank=rank)
        worst = min(worst, reaction.trace_lemma(inst))
    foot = reaction.BlockMatrixInstance(
        M1=np.array([[0.0, 0.0], [0.0, 1.0]]),
        M2=np.array([[1.0, 0.0], [0.0, 0.0]]),
        N=np.array([[0.0, 0.0], [1.0, 0.0]]))
    foot_val = reaction.trace_lemma(foot)
    elapsed = time.time() - t0
    report(4, worst >= -1e-9 and foot_val == 0.0 and elapsed < 5.0,
           f"min {worst:.2e} over 10^4 instances (>= -1e-9), boundary matrix "
           f"gives {foot_val}, {elapsed:.1f} s (< 5 s)")


# -- 5. null-vector suite ------------------------------------------------------------------

def test_criterion_05_null_vector_suite():
    t0 = time.time()
    rng = np.random.default_rng(3)
    failures = 0
    trials = 0
    # engine-built tensors
    for name, kw, extent in (("calabi_ball", {"n": 2}, 0.85), ("cone2d", {}, None),
                             ("radial_sym", {"C": 1.0}, None),
                             ("bidisk_trig", {}, None)):
        handle = catalog(name, **kw)
        for p in handle.domain.sample(20, 13, extent=extent):
            A = reaction.AlgCurvTensor(core_form(handle.jet(p)).E_frame.copy())
            B, _, _ = reaction.shift_to_boundary(A)
            failures += 0 if reaction.null_vector_check_negative(B).passed else 1
            trials += 1
    # random tensors, n = 2 and n = 3
    while trials < 200:
        n = 2 if trials % 2 == 0 else 3
        A = reaction.AlgCurvTensor.random(n, int(rng.integers(0, 2**62)))
        B, _, _ = reaction.shift_to_boundary(A)
        failures += 0 if reaction.null_vector_check_negative(B).passed else 1
        trials += 1
    elapsed = time.time() - t0
    report(5, failures == 0 and trials == 200,
           f"{trials} boundary tensors (engine + random, n = 2/3), "
           f"{failures} failures, {elapsed:.1f} s")


# -- 6. orthogonal-boundary algebra -----------------------------------------------------------

def test_criterion_06_noab_algebra():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        A = reaction.AlgCurvTensor.random(2, int(rng.integers(0, 2**62))).A
        for idx in [(0, 1, 0, 1), (1, 0, 1, 0)]:
            A[idx] = 0.0
        m = A[(0, 1, 0, 0)]
        for idx in [(0, 1, 0, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, 0, 1, 0),
                    (0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, 1), (1, 1, 1, 0)]:
            A[idx] = m
        Q = reaction.q_quadratic(reaction.AlgCurvTensor(A)).A
        worst = max(worst, abs(Q[0, 1, 0, 1] - 4.0 * A[0, 0, 0, 1] ** 2))
    identity_ok = worst <= 1e-12
    cx = reaction.noab_probe(3, seed=11, trials=100000)
    probe_ok = cx is not None and cx.q_value < -1e-6
    report(6, identity_ok and probe_ok,
           f"perfect-square identity worst dev {worst:.2e} over 10^3 tensors "
           f"(<= 1e-12); n=3 probe found Q = {cx.q_value:.4f} at trial {cx.trial}")


# -- 7. reaction ODE -----------------------------------------------------------------------------

def test_criterion_07_reaction_ode():
    A0 = reaction.AlgCurvTensor(np.full((1, 1, 1, 1), -1.0))
    traj = reaction.integrate_ode(A0, 0.5, 1e-3)
    err = abs(traj.final().A.ravel()[0] - (-0.5))
    neg_ok = err <= 1e-8
    try:
        reaction.integrate_ode(reaction.AlgCurvTensor(np.full((1, 1, 1, 1), 1.0)),
                               1.0, 1e-3)
        pole_ok, pole = False, np.nan
    except BlowUp as b:
        pole = b.time
        pole_ok = abs(pole - 0.5) / 0.5 <= 0.05
    report(7, neg_ok and pole_ok,
           f"negative branch err {err:.2e} at t=0.5 (<= 1e-8); "
           f"positive-branch pole located at {pole:.4f} (true 0.5, within 5%)")


# -- 8. flow correctness --------------------------------------------------------------------------

def test_criterion_08_flow_correctness():
    t0 = time.time()
    state = flow.init(quadratic(2), flow.GridSpec(shape=(64, 64)), "periodic")
    out = state
    dt = flow.adaptive_dt(state)
    steps = int(np.ceil(1.0 / dt))
    for _ in range(steps):
        out = flow.step(out, dt)
    drift = float(np.abs(out.u - state.u).max())
    stationary_ok = drift <= 1e-12 and out.t >= 1.0

    rates_ok = True
    details = []
    for wave, k2 in (((1, 0), 1.0), ((1, 1), 2.0)):
        eps = 1e-4
        handle = catalog("quadratic_plus_periodic",
                         amplitude=eps * (2 * np.pi) ** 2 * k2, wave=wave)
        st = flow.init(handle, flow.GridSpec(shape=(64, 64)), "periodic")
        k = np.asarray(wave, dtype=float)
        mesh = np.meshgrid(*(np.arange(64) / 64.0,) * 2, indexing="ij")
        mode = np.cos(2 * np.pi * (k[0] * mesh[0] + k[1] * mesh[1]))
        a0 = 2.0 * float(np.mean(st.u * mode))
        T = 0.004 / k2
        n_steps = int(np.ceil(T / flow.adaptive_dt(st)))
        cur = st
        for _ in range(n_steps):
            cur = flow.step(cur, T / n_steps)
        a1 = 2.0 * float(np.mean(cur.u * mode))
        rate = np.log(a0 / a1) / cur.t
        target = 8 * np.pi**2 * k2
        details.append(f"k={wave}: rate {rate:.2f} vs {target:.2f}")
        rates_ok &= abs(rate - target) / target <= 0.05
    elapsed = time.time() - t0
    report(8, stationary_ok and rates_ok and elapsed < 120.0,
           f"stationary drift {drift:.2e} over t in [0,1] on 64^2 (<= 1e-12); "
           + "; ".join(details) + f"; {elapsed:.1f} s (< 2 min)")


# -- 9. scalar-curvature lower bound along the flow -------------------------------------------------

def test_criterion_09_chen_bound():
    worst = np.inf
    for amp in (0.02, 0.05, 0.1):
        handle = catalog("quadratic_plus_periodic", amplitude=amp)
        state = flow.init(handle, flow.GridSpec(shape=(32, 32)), "periodic")
        _, series = flow.run(state, 0.5, monitor_epochs=10, sample_per_axis=4)
        worst = min(worst, float(series.channel("chen_residual")[1:].min()))
    report(9, worst >= -1e-6,
           f"chen residual worst {worst:.3e} (>= -1e-6) over three torus runs "
           f"(amplitudes 0.02/0.05/0.1, T = 0.5)")


# -- 10. preserved-sign surrogates -------------------------------------------------------------------

def test_criterion_10_sign_preservation_surrogates():
    # torus with nonpositive (identically zero) pair curvature
    state = flow.init(quadratic(2), flow.GridSpec(shape=(32, 32)), "periodic")
    _, s_t = flow.run(state, 0.05, monitor_epochs=4, sample_per_axis=4)
    torus_ok = float(s_t.channel("ABC_max").max()) <= 1e-6

    ball = catalog("calabi_ball", n=2)
    st = flow.init(ball, flow.GridSpec(shape=(40, 40), spacing=0.025,
                                       origin=np.array([-0.5, -0.5])),
                   "frozen-window")
    _, s_b = flow.run(st, 0.006, monitor_epochs=4, sample_per_axis=4)
    ball_ok = float(s_b.channel("ABC_max").max()) <= 1e-6

    radial = catalog("radial_sym", C=1.0)
    st = flow.init(radial, flow.GridSpec(shape=(44, 44), spacing=0.028,
                                         origin=np.array([0.35, -0.55])),
                   "frozen-window")
    _, s_r = flow.run(st, 0.0015, monitor_epochs=3, sample_per_axis=4)
    radial_ok = float(s_r.channel("ORTH_ABC_min").min()) >= -1e-6

    report(10, torus_ok and ball_ok and radial_ok,
           "desk-scale surrogates of the complete-manifold preserved-sign "
           f"statements: torus ABC_max <= 1e-6 ({torus_ok}), window ABC_max "
           f"<= 1e-6 ({ball_ok}), window ORTH_ABC_min >= -1e-6 ({radial_ok})")


# -- 11. averaging suite -------------------------------------------------------------------------------

def test_criterion_11_berger_suite():
    """Every identity of the averaging suite holds to rounding, 1e-12 (1 + max|E|):
    the sphere rule integrates the quartic forms exactly."""
    z, w = berger._sphere_rule(2)
    m4, m22 = float(w @ z[:, 0] ** 4), float(w @ (z[:, 0] * z[:, 1]) ** 2)
    mom_tol = 2e-12  # the monomials z1^4 and z1^2 z2^2 have max|E| = 1
    mom_ok = abs(m4 - 3.0 / 8.0) <= mom_tol and abs(m22 - 1.0 / 8.0) <= mom_tol
    ratio_ok = abs(m4 / m22 - 3.0) <= mom_tol

    ball = catalog("calabi_ball", n=2)
    samples = [core_form(ball.jet(p))
               for p in ball.domain.sample(7, 19, extent=0.85)]
    fit = berger.decomposition_fit(samples)
    fit_tol = exact_tolerance(samples)
    fit_ok = (fit.residual <= fit_tol and abs(fit.alpha - 0.25) <= fit_tol
              and abs(fit.beta - 0.125) <= fit_tol)

    batches = {
        "calabi_ball": samples[:4],
        "bidisk_trig": [core_form(catalog("bidisk_trig").jet(p))
                        for p in catalog("bidisk_trig").domain.sample(4, 23)],
        "cone2d": [core_form(catalog("cone2d").jet(p))
                   for p in catalog("cone2d").domain.sample(4, 29)],
    }
    trig_ok = True
    wedge_ok = True
    for name, batch in batches.items():
        for sample in batch:
            _, mn = _extrema.quartic_extrema(sample.E_frame)
            Xf = mn.v
            F = sample.frame
            fitp = berger.plane_fit(sample, F @ Xf,
                                    F @ np.array([-Xf[1], Xf[0]]))
            scale = 1.0 + np.abs(trig_coefficients(fitp)).max()
            trig_ok &= abs(fitp.a2 + 2 * fitp.a4) < 1e-8 * scale
            trig_ok &= fitp.a1 + 4 * fitp.a3 <= 1e-8 * scale
            trig_ok &= fitp.a1 <= 1e-8 * scale
            rep = berger.fifth_and_wedge_checks(sample)
            wedge_ok &= rep.passed

    rng = np.random.default_rng(10)
    ricci_samples = samples + batches["cone2d"][:3]
    ratios = np.array([berger.ricci_average(sample, sample.frame @ rng.normal(size=2)).ratio
                       for sample in ricci_samples])
    ricci_tol = exact_tolerance(ricci_samples)
    ricci_ok = float(np.abs(ratios - 2.0).max()) <= ricci_tol

    report(11, mom_ok and ratio_ok and fit_ok and trig_ok and wedge_ok and ricci_ok,
           f"moments exact to {mom_tol:.0e} ({mom_ok}); 4th/2-2 moment ratio "
           f"{m4 / m22!r} is the real-sphere 3 ({ratio_ok}); decomposition residual "
           f"{fit.residual:.2e}, alpha {fit.alpha!r}, beta {fit.beta!r} exact to "
           f"{fit_tol:.2e} ({fit_ok}); plane-minimizer constraints ({trig_ok}); 1/5 and "
           f"pi/12 checks ({wedge_ok}); Ricci-average ratio within "
           f"{float(np.abs(ratios - 2.0).max()):.1e} of n = 2 across "
           f"{len(ratios)} samples ({ricci_ok})")


# -- 12. transport suite -------------------------------------------------------------------------------

def brute_force_assignment_cost(C):
    m = C.shape[0]
    best = np.inf
    for perm in itertools.permutations(range(m)):
        best = min(best, sum(C[i, perm[i]] for i in range(m)) / m)
    return best


def test_criterion_12_ot_suite():
    rng = np.random.default_rng(55)
    exact_ok = True
    cert_ok = True
    for m in range(2, 9):
        for trial in range(2):
            X = rng.normal(size=(m, 2))
            Y = rng.normal(size=(m, 2)) + np.array([2.0, 0.5])
            mu, nu = DiscreteMeasure.uniform(X), DiscreteMeasure.uniform(Y)
            C = np.array([[np.sum((x - y) ** 2) / 2 for y in Y] for x in X])
            plan = solve_exact(mu, nu, C)
            exact_ok &= abs(plan.cost - brute_force_assignment_cost(C)) < 1e-11
            cert_ok &= plan.slack_residual < 1e-9
            cert_ok &= plan.feasibility_residual > -1e-9

    radial = catalog("radial_sym", C=1.0)
    grid = flow.GridSpec(shape=(36, 36), spacing=0.036,
                         origin=np.array([0.55, -0.65]))
    X = np.stack([rng.uniform(1.0, 1.35, 9), rng.uniform(-0.18, 0.18, 9)], axis=1)
    Y = np.stack([rng.uniform(-0.12, 0.12, 9), rng.uniform(-0.15, 0.15, 9)], axis=1)
    mu, nu = DiscreteMeasure.uniform(X), DiscreteMeasure.uniform(Y)
    state = flow.init(radial, grid, "frozen-window")
    costs = {}
    for t in (0.0, 0.004, 0.008):
        while state.t < t - 1e-12:
            state = flow.step(state, min(flow.adaptive_dt(state), t - state.t))
        costs[t] = cost_matrix(flow.to_grid_potential(state), X, Y)
    rows = transport.weak_continuity_rows(costs, mu, nu, alpha=0.5)
    tv = [r["plan_tv_to_t0"] for r in rows]
    table_ok = (len(rows) == 3
                and all(r["slack_residual"] < 1e-9 for r in rows)
                and all(tv[i] <= tv[i + 1] + 1e-9 for i in range(len(tv) - 1)))
    report(12, exact_ok and cert_ok and table_ok,
           f"exhaustive oracle match on sizes 2..8 ({exact_ok}); dual "
           f"certificates at 1e-9 ({cert_ok}); weak-continuity table with "
           f"plan distance decreasing toward t=0: tv = {tv} ({table_ok})")


# -- 13. reproducibility --------------------------------------------------------------------------------

def test_criterion_13_verify_all_reproducibility(tmp_path):
    t0 = time.time()
    outs = []
    for sub in ("run1", "run2"):
        out = tmp_path / sub
        code = verify_all(out)
        assert code == 0
        blobs = {}
        for f in sorted(out.rglob("*")):
            if f.is_file():
                blobs[str(f.relative_to(out))] = f.read_bytes()
        outs.append(blobs)
    elapsed = time.time() - t0
    identical = outs[0] == outs[1] and len(outs[0]) > 0
    report(13, identical and elapsed < 900.0,
           f"two verify-all runs produced byte-identical files "
           f"({len(outs[0])} files), total {elapsed:.1f} s (< 15 min)")

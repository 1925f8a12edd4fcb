"""Self-test of the benchmark's checks: a check that cannot fail proves nothing.

Each check gets one output that is right, which it must accept, and at
least one deliberately wrong output, which it must reject.  The right
outputs are built here from closed forms, without the program.

    python3 perfbench/selftest.py

Exits 0 when every check behaves, 1 otherwise.
"""

import sys

import numpy as np

import checks


def _certificate_cases():
    # psi with hess = I, third = 0, fourth = sym(I x I) (the jet of |x|^4 / 8
    # at 0 plus |x|^2 / 2): E(v,w,v,w) = -(|v|^2 |w|^2 + 2 (v.w)^2), so over
    # unit pairs ABC has max -1 (orthogonal pairs) and min -3 (v = +-w).
    n = 3
    eye = np.eye(n)
    fourth = (np.einsum("ij,kl->ijkl", eye, eye) + np.einsum("ik,jl->ijkl", eye, eye)
              + np.einsum("il,jk->ijkl", eye, eye))
    jet = (eye, np.zeros((n, n, n)), fourth)
    right = dict(quantity="ABC", verdict="NONPOSITIVE", extremal_value=-1.0,
                 max_value=-1.0, min_value=-3.0, tolerance=4e-9,
                 witness_v=eye[0], witness_w=eye[1], witness_jet=jet,
                 point_jets=[jet], expected_verdict="NONPOSITIVE")

    def run(**changes):
        kw = dict(right, **changes)
        return checks.check_certificate(rng=np.random.default_rng(0), **kw)

    yield "certificate: right", run(), False
    yield "certificate: max below the random bracket", run(max_value=-1.001), True
    yield "certificate: min above the random bracket", run(min_value=-2.9), True
    yield "certificate: verdict against theory", run(verdict="MIXED"), True
    yield "certificate: witness off its value", run(witness_w=eye[0]), True
    hsc = run(quantity="HSC_POL", extremal_value=-3.0, max_value=-3.0,
              min_value=-3.0, witness_w=None)
    yield "certificate HSC_POL: right", hsc, False
    off = run(quantity="HSC_POL", extremal_value=-3.01, max_value=-3.0,
              min_value=-3.01, witness_w=None)
    yield "certificate HSC_POL: witness off (the known fault)", off, True
    yield ("certificate HSC_POL: witness fault marked known",
           [p for p in off if not p.known], False)
    orth = dict(quantity="ORTH_ABC", extremal_value=-1.0, max_value=-1.0, min_value=-1.0)
    yield "certificate ORTH_ABC: right", run(**orth), False
    short = run(**dict(orth, max_value=-1.001))
    yield "certificate ORTH_ABC: max below the bracket (the known fault)", short, True
    yield ("certificate ORTH_ABC: bracket fault marked known",
           [p for p in short if not p.known], False)
    yield ("certificate ABC: bracket failure not marked known",
           [p for p in run(max_value=-1.001) if not p.known], True)


def _flow_cases():
    m, wave, eps, t = 64, (2, 1), 1e-4, 0.008
    x = np.arange(m) / m
    u0 = eps * np.cos(2 * np.pi * (wave[0] * x[:, None] + wave[1] * x[None, :]))
    rate = 8 * np.pi**2 * 5
    yield "decay: right", checks.check_decay(u0, u0 * np.exp(-rate * t), t, wave), False
    yield ("decay: rate off by 10%",
           checks.check_decay(u0, u0 * np.exp(-1.1 * rate * t), t, wave), True)
    yield "decay: growing mode", checks.check_decay(u0, 2 * u0, t, wave), True
    times = np.array([0.0, 0.004, 0.008])
    yield "chen: right", checks.check_chen(times, np.array([-5.0, 1e-3, 2e-3])), False
    yield "chen: negative at t > 0", checks.check_chen(times, np.array([0.0, -1e-5, 1.0])), True
    zero = np.zeros((m, m))
    yield "fixed point: right", checks.check_fixed_point(zero, zero, np.zeros(3)), False
    yield ("fixed point: drift 1e-11",
           checks.check_fixed_point(zero, zero + 1e-11, np.zeros(3)), True)
    yield ("fixed point: ABC_max 1e-5",
           checks.check_fixed_point(zero, zero, np.array([0.0, 1e-5])), True)


def _reaction_cases():
    a0, t = -1.5, 0.5
    exact = a0 / (1 - 2 * a0 * t)
    yield "scalar ODE: right", checks.check_scalar_ode(a0, t, exact), False
    yield "scalar ODE: off by 1e-7", checks.check_scalar_ode(a0, t, exact + 1e-7), True
    yield "end time: right", checks.check_end_time(0.5 * (1 + 1e-15), 0.5), False
    yield "end time: stopped short", checks.check_end_time(0.5 - 1e-6, 0.5), True
    yield "blow-up: right", checks.check_blowup(2.0, 0.25), False
    yield "blow-up: 10% late", checks.check_blowup(2.0, 0.275), True
    yield "blow-up: none raised", checks.check_blowup(2.0, None), True
    for n in (2, 3):
        eye = np.eye(n)
        A = -np.einsum("ik,jl->ijkl", eye, eye)  # A(v,w,v,w) = -|v|^2 |w|^2
        v, w = checks.unit_pair_grid(n, 500, np.random.default_rng(1))
        yield f"non-positive ABC n={n}: right", checks.check_nonpositive(A, v, w), False
        bad = A.copy()
        bad[0, 1, 0, 1] = bad[1, 0, 1, 0] = 1.5  # A(e1, e2, e1, e2) = 1.5 > 0
        yield (f"non-positive ABC n={n}: positive pair value",
               checks.check_nonpositive(bad, v, w), True)


def _transport_cases():
    rng = np.random.default_rng(2)
    m = 12
    X = np.stack([rng.uniform(1.0, 1.35, m), rng.uniform(-0.18, 0.18, m)], 1)
    Y = np.stack([rng.uniform(-0.12, 0.12, m), rng.uniform(-0.15, 0.15, m)], 1)
    C = checks.radial_sym_value(X[:, None, :] - Y[None, :, :], 1.0)
    from scipy.optimize import linear_sum_assignment
    rows, cols = linear_sum_assignment(C)
    P = np.zeros((m, m))
    P[rows, cols] = 1.0 / m
    cost = float(np.sum(P * C))
    yield "plan: right", checks.check_plan(C, P, cost, True), False
    yield "plan: cost off by 1e-6", checks.check_plan(C, P, cost + 1e-6, True), True
    yield "plan: not certified", checks.check_plan(C, P, cost, False), True
    leaky = P.copy()
    leaky[rows[0], cols[0]] += 1e-9
    yield "plan: marginal off by 1e-9", checks.check_plan(C, leaky, cost, True), True
    yield "t=0 cost: right", checks.check_initial_cost(C, X, Y, 1.0), False
    yield "t=0 cost: off by 1e-8", checks.check_initial_cost(C + 1e-8, X, Y, 1.0), True


def main() -> int:
    bad = 0
    for group in (_certificate_cases, _flow_cases, _reaction_cases, _transport_cases):
        for name, problems, must_reject in group():
            ok = bool(problems) == must_reject
            bad += not ok
            verdict = "rejected" if problems else "accepted"
            print(f"{'ok  ' if ok else 'FAIL'} {name}: {verdict}")
    print(f"{bad} check(s) misbehaved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

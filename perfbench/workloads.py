"""The four workloads.  Each one is a sequence of alike rounds.

A workload builds its inputs from the seed (``inputs``), makes the timed
calls into the program through ``clock`` (``run_round``) and checks the
outputs afterwards (``check_round``).  One operation is one certificate,
one flow run, one ODE trajectory or one transport instance.  Every round
holds the same operations on fresh seeded inputs, so the share of failed
operations is the same in every run.  In each workload one block of alike
operations (the same calls on different seeded inputs) is timed with
``clock.unit``: these are the samples of ``unit_p50_ms``.  The other
operations are timed with ``clock.section`` and count in ``wall_s`` only.

The package is reached only through ``hl``, the namespace of freshly
imported hesselab modules handed over by ``run.py``; a module-level import
here would keep the copy that set-up timing discarded.
"""

from __future__ import annotations

import numpy as np

import checks


def round_rng(seed: int, r: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, r, salt])


def jet_arrays(jet) -> tuple:
    return jet.hessian, jet.third, jet.fourth


class CertifyN3:
    """certify_sign in n = 3: the multi-restart extremizer is ~99% of the time."""

    name = "certify-n3"
    # (potential, quantity, points per certificate, extent, verdict fixed by
    # theory, fixed region seed).  Two certificates hit a known extremizer
    # fault (see CHANGES.md, FOUND): calabi_ball HSC_POL fails its witness
    # check and calabi_ball ORTH_ABC its random bracket.  They run on fixed
    # regions where the fault shows, not on seeded points, so that they fail
    # in every round of every run.
    UNITS = (
        ("ball", "ABC", 1, 0.9, "NONPOSITIVE", None),
        ("ball", "HSC_POL", 2, 0.9, "NONPOSITIVE", 7),
        ("ball", "ORTH_ABC", 24, 0.9, "NONPOSITIVE", 777041196),
    ) + (("radial", "ORTH_ABC", 6, None, "NONNEGATIVE", None),) * 8 + (
        ("radial", "ABC", 1, None, None, None),
    )
    # The samples of unit_p50_ms are the eight 6-point radial_sym ORTH_ABC
    # certificates, which do nearly equal work; the other certificates are
    # timed as sections, since their work differs from these and from each
    # other.
    ALIKE = ("radial", "ORTH_ABC")

    def setup(self, hl, seed):
        return {"seed": seed,
                "ball": hl.potentials.catalog("calabi_ball", n=3),
                "radial": hl.potentials.catalog("radial_sym", n=3)}

    def inputs(self, hl, ctx, r):
        units = []
        for k, (pot, quantity, count, extent, verdict, fixed) in enumerate(self.UNITS):
            if fixed is not None:
                region_seed, check_seed = fixed, [fixed]
            else:
                region_seed = int(round_rng(ctx["seed"], r, k).integers(2**31))
                check_seed = [ctx["seed"], r, k, 1]
            region = hl.curvature.RegionSpec(count=count, seed=region_seed,
                                             extent=extent)
            units.append((pot, quantity, region, verdict, check_seed))
        return units

    def run_round(self, hl, ctx, units, clock):
        return [(clock.unit if (pot, quantity) == self.ALIKE else clock.section)(
                    hl.curvature.certify_sign, ctx[pot], quantity, region)
                for pot, quantity, region, _, _ in units]

    def check_round(self, hl, ctx, r, units, certs):
        out = []
        for (pot, quantity, region, verdict, check_seed), cert in zip(units, certs):
            handle = ctx[pot]
            points = handle.domain.sample(region.count, region.seed, extent=region.extent)
            out.append(checks.check_certificate(
                quantity, cert.verdict, cert.extremal_value,
                cert.extra["max_value"], cert.extra["min_value"], cert.tolerance,
                cert.witness_v, cert.witness_w,
                jet_arrays(handle.jet(cert.witness_point)),
                [jet_arrays(handle.jet(p)) for p in points],
                verdict, np.random.default_rng(check_seed)))
        return out


class FlowTorus:
    """Periodic 64^2 flow of single-mode perturbations with monitor epochs."""

    name = "flow-torus"
    WAVES = ((1, 0), (0, 1), (1, 1), (1, -1), (2, 0),
             (0, 2), (2, 1), (1, 2), (2, -1), (1, -2))
    MODES_PER_ROUND = 4
    GRID = 64
    T = 0.008
    EPOCHS = 3
    PER_AXIS = 3

    def setup(self, hl, seed):
        return {"seed": seed, "grid": hl.flow.GridSpec(shape=(self.GRID, self.GRID))}

    def inputs(self, hl, ctx, r):
        rng = round_rng(ctx["seed"], r, 0)
        picks = rng.choice(len(self.WAVES), self.MODES_PER_ROUND, replace=False)
        units = []
        for i in picks:
            wave = self.WAVES[int(i)]
            k2 = wave[0] ** 2 + wave[1] ** 2
            # periodic part eps cos(2 pi k.x) with |eps| ~ 1e-4: the linear regime
            eps = rng.uniform(0.5e-4, 1.5e-4) * rng.choice((-1.0, 1.0))
            units.append((wave, hl.potentials.catalog(
                "quadratic_plus_periodic", amplitude=eps * (2 * np.pi) ** 2 * k2,
                wave=wave)))
        units.append((None, hl.potentials.catalog("quadratic_plus_periodic",
                                                  amplitude=0.0)))
        return units

    def run_round(self, hl, ctx, units, clock):
        def flow_run(handle):
            state = hl.flow.init(handle, ctx["grid"], "periodic")
            final, series = hl.flow.run(state, self.T, monitor_epochs=self.EPOCHS,
                                        sample_per_axis=self.PER_AXIS)
            return state.u, final, series

        # the single modes are the alike units; the flat run is a section
        return [(clock.unit if wave else clock.section)(flow_run, handle)
                for wave, handle in units]

    def check_round(self, hl, ctx, r, units, outputs):
        out = []
        for (wave, _), (u0, final, series) in zip(units, outputs):
            times = np.asarray(series.times)
            problems = checks.check_chen(times, series.channel("chen_residual"))
            problems += checks.check_end_time(final.t, self.T)
            if wave is None:
                problems += checks.check_fixed_point(u0, final.u,
                                                     series.channel("ABC_max"))
            else:
                problems += checks.check_decay(u0, final.u, self.T, wave)
            out.append(problems)
        return out


class ReactionOde:
    """dA/dt = Q(A) from non-positive-ABC tensors, plus the n = 1 closed form."""

    name = "reaction-ode"
    STEPS = 400
    # final time TAU / max|A0|: the calabi_ball tensors blow up (to -inf)
    # no earlier than 0.5 / max|A0|, so every trajectory stays bounded
    TAU = 0.15
    # (potential, n, points per round, extent)
    SOURCES = (("cone2d", 2, 2, None), ("calabi_ball", 3, 5, 0.9),
               ("calabi_ball", 4, 2, 0.9))
    # The samples of unit_p50_ms are the n = 3 trajectories: 400 steps on
    # tensors of one size.  The n = 1, 2 and 4 ones are timed as sections.
    ALIKE = ("calabi_ball", 3)
    PAIRS = 4000

    def setup(self, hl, seed):
        cat = hl.potentials.catalog
        return {"seed": seed, "cone2d": {2: cat("cone2d")},
                "calabi_ball": {3: cat("calabi_ball", n=3), 4: cat("calabi_ball", n=4)}}

    def inputs(self, hl, ctx, r):
        rng = round_rng(ctx["seed"], r, 0)
        tensor = hl.reaction.AlgCurvTensor
        a_neg = -float(rng.uniform(0.5, 2.0))
        a_pos = float(rng.uniform(0.5, 2.0))
        units = [("decay", tensor(np.full((1, 1, 1, 1), a_neg)), 0.5, 0.5 / self.STEPS),
                 ("blowup", tensor(np.full((1, 1, 1, 1), a_pos)), 1.0 / a_pos,
                  0.5 / a_pos / self.STEPS)]
        for pot, n, count, extent in self.SOURCES:
            handle = ctx[pot][n]
            pts = handle.domain.sample(count, int(rng.integers(2**31)), extent=extent)
            for p in pts:
                E = hl.curvature.core_form(handle.jet(p)).E_frame
                T = self.TAU / float(np.abs(E).max())
                units.append((pot, tensor(E), T, T / self.STEPS))
        return units

    def run_round(self, hl, ctx, units, clock):
        def blowup(A0, T, dt):
            try:
                hl.reaction.integrate_ode(A0, T, dt)
            except hl.errors.BlowUp as exc:
                return exc.time
            return None

        outputs = []
        for kind, A0, T, dt in units:
            fn = blowup if kind == "blowup" else hl.reaction.integrate_ode
            timed = clock.unit if (kind, A0.n) == self.ALIKE else clock.section
            outputs.append(timed(fn, A0, T, dt))
        return outputs

    def check_round(self, hl, ctx, r, units, outputs):
        out = []
        for k, ((kind, A0, T, dt), res) in enumerate(zip(units, outputs)):
            a0 = float(A0.A.ravel()[0])
            if kind == "blowup":
                out.append(checks.check_blowup(a0, res))
            elif kind == "decay":
                out.append(checks.check_end_time(res.times[-1], T)
                           + checks.check_scalar_ode(a0, T, float(res.final().A.ravel()[0])))
            else:
                rng = np.random.default_rng([ctx["seed"], r, k, 1])
                v, w = checks.unit_pair_grid(A0.n, self.PAIRS, rng)
                problems = checks.check_nonpositive(A0.A, v, w)
                if problems:  # the input itself must satisfy the theorem's premise
                    raise RuntimeError(f"{kind} input tensor: {problems[0].message}")
                out.append(checks.check_nonpositive(res.final().A, v, w))
        return out


class OtWindow:
    """Frozen-window flow of radial_sym, then exact OT on the flowed costs."""

    name = "ot-window"
    C = 1.0
    TIMES = (0.0, 0.004, 0.008)
    SIZES = (32, 64, 96)
    # The samples of unit_p50_ms are the m = 64 instances, one per
    # checkpoint; the m = 32 and m = 96 ones are timed as sections.
    ALIKE = 64

    def setup(self, hl, seed):
        grid = hl.flow.GridSpec(shape=(36, 36), spacing=0.036,
                                origin=np.array([0.55, -0.65]))
        return {"seed": seed, "grid": grid,
                "handle": hl.potentials.catalog("radial_sym", C=self.C)}

    def inputs(self, hl, ctx, r):
        rng = round_rng(ctx["seed"], r, 0)
        units = []
        for i in range(len(self.TIMES)):
            for m in self.SIZES:
                X = np.stack([rng.uniform(1.0, 1.35, m), rng.uniform(-0.18, 0.18, m)], 1)
                Y = np.stack([rng.uniform(-0.12, 0.12, m), rng.uniform(-0.15, 0.15, m)], 1)
                units.append((i, X, Y))
        return units

    def run_round(self, hl, ctx, units, clock):
        flow, transport = hl.flow, hl.transport

        def checkpoints():
            state = flow.init(ctx["handle"], ctx["grid"], "frozen-window")
            pots = []
            for t in self.TIMES:
                while state.t < t - 1e-12:
                    state = flow.step(state, min(flow.adaptive_dt(state), t - state.t))
                pots.append(flow.to_grid_potential(state))
            return pots

        def instance(pot, X, Y):
            C = transport.cost_matrix(pot, X, Y)
            mu = transport.DiscreteMeasure.uniform(X)
            nu = transport.DiscreteMeasure.uniform(Y)
            return C, transport.solve_exact(mu, nu, C)

        pots = clock.section(checkpoints)
        return [(clock.unit if len(X) == self.ALIKE else clock.section)(
                    instance, pots[i], X, Y) for i, X, Y in units]

    def check_round(self, hl, ctx, r, units, outputs):
        out = []
        for (i, X, Y), (C, plan) in zip(units, outputs):
            problems = checks.check_plan(C, plan.coupling, plan.cost, plan.certified)
            if self.TIMES[i] == 0.0:
                problems += checks.check_initial_cost(C, X, Y, self.C)
            out.append(problems)
        return out


WORKLOADS = {w.name: w for w in (CertifyN3(), FlowTorus(), ReactionOde(), OtWindow())}

"""Config-driven experiment runner.

Commands:
    hesselab run <config>    execute one experiment described by an INI-style
                             config (flat key = value pairs under section
                             headers); exit 0 when all asserted properties
                             pass, 1 on a property failure, 2 on config errors
    hesselab catalog         list the built-in potentials
    hesselab verify-all      run the built-in verification suite (deterministic
                             seeded experiments, byte-stable CSV outputs)

Every experiment is seeded; identical configs produce byte-identical CSV
files.  Timestamps never enter CSV outputs.
"""

from __future__ import annotations

import argparse
import configparser
import sys
from pathlib import Path

import numpy as np

from . import berger, flow, reaction, transport
from .curvature import (RegionSpec, anti_bisectional, certify_sign, core_form,
                        mtw_tensor, scan_csv_rows)
from .errors import BadGridFile, BadParams, ConfigError, HesselabError
from .potentials import CATALOG_NAMES, catalog, catalog_entries
from .transport import DiscreteMeasure

# -- config plumbing -------------------------------------------------------------

class Config:
    """Typed access to a flat key-value config with section headers."""

    def __init__(self, parser: configparser.ConfigParser):
        self._p = parser

    @classmethod
    def from_file(cls, path) -> "Config":
        parser = configparser.ConfigParser()
        parser.optionxform = str  # keep key case (potential parameters)
        read = parser.read(path)
        if not read:
            raise ConfigError(f"cannot read config file {path}")
        return cls(parser)

    @classmethod
    def from_dict(cls, data: dict) -> "Config":
        parser = configparser.ConfigParser()
        parser.optionxform = str
        for section, values in data.items():
            parser[section] = {k: str(v) for k, v in values.items()}
        return cls(parser)

    def get(self, section: str, key: str, cast=str, default=None):
        if not self._p.has_option(section, key):
            if default is None:
                raise ConfigError(f"missing [{section}] {key}")
            return default
        raw = self._p.get(section, key)
        try:
            return self._p.getboolean(section, key) if cast is bool else cast(raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for [{section}] {key}: {raw!r}") from exc

    def section(self, name: str) -> dict:
        return dict(self._p[name]) if self._p.has_section(name) else {}


def _potential_from(cfg: Config):
    sec = cfg.section("potential")
    if "name" not in sec:
        raise ConfigError("missing [potential] name")
    name = sec.pop("name")
    if name not in CATALOG_NAMES:
        raise ConfigError(f"unknown potential {name!r}")
    kwargs = {}
    try:
        for key, raw in sec.items():
            if key in ("n",):
                kwargs[key] = int(raw)
            elif key in ("wave",):
                kwargs[key] = tuple(int(v) for v in raw.split())
            elif key in ("path",):
                kwargs[key] = raw
            else:
                kwargs[key] = float(raw)
    except ValueError as exc:
        raise ConfigError(f"bad [potential] value: {exc}") from exc
    try:
        return catalog(name, **kwargs)
    except (BadGridFile, BadParams) as exc:
        raise ConfigError(str(exc)) from exc
    except TypeError as exc:
        raise ConfigError(f"bad parameters for {name}: {exc}") from exc


def _out(outdir: Path, name: str) -> Path:
    """outdir / name; outdir is made when an experiment first writes to it."""
    outdir.mkdir(parents=True, exist_ok=True)
    return outdir / name


def _write_csv(path: Path, rows: list[dict], columns: list[str]) -> None:
    """Write rows as a CSV and as its plot-ready .dat twin: the same
    formatted fields, whitespace-delimited, with a '# ' header."""
    body = [[_fmt(row[c]) for c in columns] for row in rows]
    for suffix, sep, lead in ((".csv", ",", ""), (".dat", " ", "# ")):
        lines = [lead + sep.join(columns)] + [sep.join(fields) for fields in body]
        path.with_suffix(suffix).write_text("\n".join(lines) + "\n")


def _write_series(path: Path, series: flow.MonitorSeries) -> None:
    rows = [{"t": t, **{c: series.channels[c][i] for c in flow.CHANNELS}}
            for i, t in enumerate(series.times)]
    _write_csv(path, rows, ["t", *flow.CHANNELS])


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


# -- experiment implementations ---------------------------------------------------

def _exp_curvature_scan(cfg: Config, outdir: Path):
    handle = _potential_from(cfg)
    count = cfg.get("scan", "count", int, 25)
    seed = cfg.get("scan", "seed", int, 7)
    extent = cfg.get("scan", "extent", float, -1.0)
    if count < 1 or seed < 0:
        raise ConfigError(f"[scan] needs count >= 1 and seed >= 0, "
                          f"got count = {count}, seed = {seed}")
    pts = handle.domain.sample(count, seed, extent=None if extent < 0 else extent)
    rows = scan_csv_rows(handle, pts)
    cols = ([f"x{i+1}" for i in range(handle.n)]
            + ["S", "O", "Hmin_pol", "ABC_min", "ABC_max"]
            + [f"wit_v{i+1}" for i in range(handle.n)]
            + [f"wit_w{i+1}" for i in range(handle.n)])
    _write_csv(_out(outdir, "curvature_scan.csv"), rows, cols)
    return True, [f"scanned {count} points of {handle.name}"]


def _exp_certify(cfg: Config, outdir: Path):
    handle = _potential_from(cfg)
    quantity = cfg.get("certify", "quantity")
    count = cfg.get("certify", "count", int, 25)
    seed = cfg.get("certify", "seed", int, 7)
    extent = cfg.get("certify", "extent", float, -1.0)
    expect = cfg.get("certify", "expect", str, "")
    try:
        cert = certify_sign(handle, quantity,
                            RegionSpec(count=count, seed=seed,
                                       extent=None if extent < 0 else extent))
    except BadParams as exc:
        raise ConfigError(f"bad [certify] parameters: {exc}") from exc
    _out(outdir, f"certificate_{handle.name}_{quantity}.txt").write_text(cert.to_text())
    msg = (f"{handle.name} {quantity}: {cert.verdict} "
           f"(extremal {cert.extremal_value!r})")
    ok = (not expect) or cert.verdict == expect
    if not ok:
        msg += f" EXPECTED {expect}"
    return ok, [msg]


def _exp_flow_run(cfg: Config, outdir: Path):
    handle = _potential_from(cfg)
    mode = cfg.get("flow", "mode", str, "periodic")
    m = cfg.get("flow", "nodes", int, 32)
    T = cfg.get("flow", "time", float, 0.05)
    lam = cfg.get("flow", "lambda", float, 0.0)
    epochs = cfg.get("flow", "epochs", int, 8)
    per_axis = cfg.get("flow", "sample_per_axis", int, 4)
    if epochs < 1 or per_axis < 1:
        raise ConfigError(f"[flow] needs epochs >= 1 and sample_per_axis >= 1, "
                          f"got epochs = {epochs}, sample_per_axis = {per_axis}")
    if mode == "periodic":
        grid = flow.GridSpec(shape=(m, m))
    else:
        origin = np.array([cfg.get("flow", "origin_x", float),
                           cfg.get("flow", "origin_y", float)])
        spacing = cfg.get("flow", "spacing", float)
        grid = flow.GridSpec(shape=(m, m), spacing=spacing, origin=origin)
    try:
        state = flow.init(handle, grid, mode, lam=lam)
    except BadParams as exc:
        raise ConfigError(f"bad [flow] grid: {exc}") from exc
    final, series = flow.run(state, T, sample_per_axis=per_axis,
                             monitor_epochs=epochs)
    _write_series(_out(outdir, f"flow_{handle.name}.csv"), series)
    lines = [f"flow {handle.name} mode={mode} T={T:g}: {len(series.times)} epochs"]
    ok = True
    # config key, printed name, upper ("<=") or lower (">=") bound, statistic
    for key, name, op, statistic in (
            ("assert_abc_max_below", "ABC_max worst", "<=", series.channel("ABC_max").max),
            ("assert_orth_min_above", "ORTH_ABC_min worst", ">=",
             series.channel("ORTH_ABC_min").min),
            ("assert_chen_above", "chen_residual worst", ">=",
             series.channel("chen_residual")[1:].min),
            ("assert_stationary_below", "potential drift", "<=", np.abs(final.u - state.u).max)):
        bound = cfg.get("flow", key, float, np.nan)
        if np.isnan(bound):
            continue
        worst = float(statistic())
        good = worst <= bound if op == "<=" else worst >= bound
        lines.append(f"  {name} {worst!r} {op} {bound!r}: {good}")
        ok = ok and good
    return ok, lines


def _exp_kr_probe(cfg: Config, outdir: Path):
    handle = _potential_from(cfg)
    eps = cfg.get("probe", "epsilon", float, 0.01)
    m = cfg.get("probe", "nodes", int, 40)
    origin = np.array([cfg.get("probe", "origin_x", float),
                       cfg.get("probe", "origin_y", float)])
    spacing = cfg.get("probe", "spacing", float)
    expect_regular = cfg.get("probe", "expect_regular", bool, True)
    epochs = cfg.get("probe", "epochs", int, 5)
    if epochs < 1:
        raise ConfigError(f"[probe] needs epochs >= 1, got {epochs}")
    grid = flow.GridSpec(shape=(m, m), spacing=spacing, origin=origin)
    verdict = flow.kr_probe(handle, eps, grid, monitor_epochs=epochs)
    _write_series(_out(outdir, f"kr_probe_{handle.name}.csv"), verdict.series)
    ok = verdict.regular == expect_regular
    return ok, [f"kr-probe {handle.name}: {verdict.label}"]


def _exp_ode_run(cfg: Config, outdir: Path):
    a0 = cfg.get("ode", "a0", float, -1.0)
    T = cfg.get("ode", "time", float, 0.5)
    dt = cfg.get("ode", "dt", float, 1e-3)
    if not (np.isfinite(a0) and 0.0 < T < np.inf and 0.0 < dt < np.inf):
        raise ConfigError(f"[ode] needs finite a0, time > 0 and dt > 0, "
                          f"got a0 = {a0}, time = {T}, dt = {dt}")
    A = reaction.AlgCurvTensor(np.full((1, 1, 1, 1), a0))
    traj = reaction.integrate_ode(A, T, dt, record_every=max(1, int(T / dt / 50)))
    rows = [{"t": t, "value": float(tensor.A.ravel()[0]),
             "closed_form": a0 / (1.0 - 2.0 * a0 * t)}
            for t, tensor in zip(traj.times, traj.tensors)]
    _write_csv(_out(outdir, "ode_run.csv"), rows, ["t", "value", "closed_form"])
    err = max(abs(r["value"] - r["closed_form"]) for r in rows)
    tol = cfg.get("ode", "tolerance", float, 1e-8)
    return err <= tol, [f"ode n=1 a0={a0:g}: max closed-form error {err!r}"]


def _exp_null_vector_suite(cfg: Config, outdir: Path):
    trials = cfg.get("suite", "trials", int, 50)
    seed = cfg.get("suite", "seed", int, 3)
    dims = cfg.get("suite", "dims", lambda raw: [int(v) for v in raw.split()], [2, 3])
    if not dims or min(dims) < 1:
        raise ConfigError(f"[suite] dims must be integers >= 1, got {dims}")
    probe_trials = cfg.get("suite", "probe_trials", int, 2000)
    rng = np.random.default_rng(seed)
    rows = []
    failures = 0
    for trial in range(trials):
        n = dims[trial % len(dims)]
        A = reaction.AlgCurvTensor.random(n, int(rng.integers(0, 2**62)))
        B, _, _ = reaction.shift_to_boundary(A)
        rep = reaction.null_vector_check_negative(B)
        rows.append({"trial": trial, "n": n,
                     "first_derivative_residual": rep.first_derivative_residual,
                     "hform_min_eig": rep.hform_min_eig,
                     "q_value": rep.q_value,
                     "sharper_value": rep.sharper_value,
                     "passed": int(rep.passed)})
        failures += 0 if rep.passed else 1
    _write_csv(_out(outdir, "null_vector_suite.csv"), rows,
               ["trial", "n", "first_derivative_residual", "hform_min_eig",
                "q_value", "sharper_value", "passed"])
    lines = [f"null-vector suite: {trials} boundary tensors, {failures} failures"]
    cx = reaction.noab_probe(3, seed=seed + 1, trials=probe_trials)
    probe_ok = cx is not None
    if probe_ok:
        _out(outdir, "noab_counterexample.txt").write_text(cx.tensor.to_text())
        lines.append(f"n=3 orthogonal-boundary probe: Q = {cx.q_value!r} at "
                     f"trial {cx.trial} (counterexample serialized)")
    else:
        lines.append("n=3 orthogonal-boundary probe: no counterexample found")
    return failures == 0 and probe_ok, lines


def _exp_trace_suite(cfg: Config, outdir: Path):
    trials = cfg.get("suite", "trials", int, 2000)
    seed = cfg.get("suite", "seed", int, 5)
    max_n = cfg.get("suite", "max_dim", int, 6)
    if max_n < 1:
        raise ConfigError(f"[suite] needs max_dim >= 1, got {max_n}")
    rng = np.random.default_rng(seed)
    worst = np.inf
    for _ in range(trials):
        n = int(rng.integers(1, max_n + 1))
        rank = None if rng.random() < 0.8 else int(rng.integers(1, 2 * n + 1))
        inst = reaction.BlockMatrixInstance.random(n, int(rng.integers(0, 2**62)),
                                                   rank=rank)
        worst = min(worst, reaction.trace_lemma(inst))
    ok = worst >= -1e-9
    _out(outdir, "trace_suite.txt").write_text(
        f"trials = {trials}\nmin_value = {worst!r}\npassed = {ok}\n")
    return ok, [f"trace suite: min value {worst!r} over {trials} instances"]


def _exp_berger_suite(cfg: Config, outdir: Path):
    seed = cfg.get("suite", "seed", int, 9)
    count = cfg.get("suite", "count", int, 20000)
    lines = []
    ok = True
    mom = berger.sphere_moments(2, count, seed)
    good = (abs(mom.m4 - mom.exact_m4) <= 3 * mom.se4
            and abs(mom.m22 - mom.exact_m22) <= 3 * mom.se22)
    ok &= good
    lines.append(f"moments n=2: m4 {mom.m4!r} (exact {mom.exact_m4!r}), "
                 f"m22 {mom.m22!r} (exact {mom.exact_m22!r}): {good}")
    lines.append(f"fourth/mixed moment ratio: measured {mom.ratio!r}; "
                 f"real-sphere identity gives 3, the complex-sphere weighting "
                 f"would give 2 (reported, not gated)")
    handle = catalog("calabi_ball", n=2)
    pts = handle.domain.sample(6, seed + 1, extent=0.8)
    samples = [core_form(handle.jet(p)) for p in pts]
    fit = berger.decomposition_fit(samples, count // 4, seed + 2)
    good = fit.residual <= 3 * fit.combined_mc_error
    ok &= good
    lines.append(f"decomposition: alpha {fit.alpha!r} beta {fit.beta!r} "
                 f"beta/alpha {fit.beta_over_alpha!r} residual {fit.residual!r} "
                 f"(3x mc {3 * fit.combined_mc_error!r}): {good}")
    rep = berger.fifth_and_wedge_checks(samples[0])
    ok &= rep.passed
    lines.append(f"fifth/wedge margins: {rep.worst_fifth_margin!r} "
                 f"{rep.worst_wedge_margin!r}: {rep.passed}")
    # sectional restriction of the first sample, for plotting
    F = samples[0].frame
    X, Xp = F @ np.array([1.0, 0.0]), F @ np.array([0.0, 1.0])
    fitp = berger.plane_fit(samples[0], X, Xp)
    thetas = np.linspace(0.0, 2 * np.pi, 120, endpoint=False)
    _write_csv(_out(outdir, "plane_restriction.csv"),
               [{"theta": float(t), "f": float(fitp(t))} for t in thetas],
               ["theta", "f"])
    ratios = []
    for i, smp in enumerate(samples):
        ra = berger.ricci_average(smp, count // 4, seed + 3 + i)
        ratios.append(ra.ratio)
    spread = float(np.ptp(ratios))
    good = spread <= 0.2
    ok &= good
    lines.append(f"ricci-average ratios spread {spread!r} around n=2: {good}")
    _out(outdir, "berger_suite.txt").write_text("\n".join(lines) + "\n")
    return ok, lines


def _exp_ot_experiment(cfg: Config, outdir: Path):
    handle = _potential_from(cfg)
    seed = cfg.get("ot", "seed", int, 13)
    npts = cfg.get("ot", "points", int, 9)
    alpha = cfg.get("ot", "alpha", float, 0.5)
    t_list = cfg.get("ot", "times", lambda raw: [float(v) for v in raw.split()],
                     [0.0, 0.005, 0.01])
    m = cfg.get("ot", "nodes", int, 36)
    origin = np.array([cfg.get("ot", "origin_x", float, 0.55),
                       cfg.get("ot", "origin_y", float, -0.65)])
    spacing = cfg.get("ot", "spacing", float, 0.036)
    if not (t_list and min(t_list) == 0.0 and np.isfinite(t_list).all()):
        raise ConfigError(f"[ot] times must be finite, >= 0 and include 0: {t_list}")
    if npts < 1 or m < 6 or seed < 0 or not spacing > 0:  # quintic spline: 6 nodes
        raise ConfigError(f"[ot] needs points >= 1, nodes >= 6, seed >= 0 and spacing > 0, "
                          f"got points = {npts}, nodes = {m}, seed = {seed}, spacing = {spacing}")
    rng = np.random.default_rng(seed)
    X = np.stack([rng.uniform(1.0, 1.35, npts), rng.uniform(-0.18, 0.18, npts)], axis=1)
    Y = np.stack([rng.uniform(-0.12, 0.12, npts), rng.uniform(-0.15, 0.15, npts)], axis=1)
    mu, nu = DiscreteMeasure.uniform(X), DiscreteMeasure.uniform(Y)
    grid = flow.GridSpec(shape=(m, m), spacing=spacing, origin=origin)
    state = flow.init(handle, grid, "frozen-window")
    costs = {}
    for t in sorted(t_list):
        if t > state.t:
            dt = flow.adaptive_dt(state)
            nsteps = max(1, int(np.ceil((t - state.t) / dt)))
            dt_sub = (t - state.t) / nsteps
            for _ in range(nsteps):
                state = flow.step(state, dt_sub)
        chk = flow.to_grid_potential(state)
        costs[t] = transport.cost_matrix(chk, X, Y)
    rows = transport.weak_continuity_rows(costs, mu, nu, alpha)
    _write_csv(_out(outdir, f"ot_weak_continuity_{handle.name}.csv"), rows,
               ["t", "cost", "holder_modulus", "plan_tv_to_t0", "slack_residual"])
    tv = [r["plan_tv_to_t0"] for r in rows]
    certified = all(r["slack_residual"] < 1e-9 for r in rows)
    monotone = all(tv[i] <= tv[i + 1] + 1e-9 for i in range(len(tv) - 1))
    ok = certified and monotone
    return ok, [f"ot weak-continuity: tv {tv}, certified {certified}, "
                f"monotone-toward-0 {monotone}"]


_EXPERIMENTS = {
    "curvature-scan": _exp_curvature_scan,
    "certify": _exp_certify,
    "flow-run": _exp_flow_run,
    "kr-probe": _exp_kr_probe,
    "ode-run": _exp_ode_run,
    "null-vector-suite": _exp_null_vector_suite,
    "trace-suite": _exp_trace_suite,
    "berger-suite": _exp_berger_suite,
    "ot-experiment": _exp_ot_experiment,
}


def run_config(cfg: Config, outdir: Path | None = None) -> int:
    """Execute one experiment; returns the process exit code."""
    try:
        kind = cfg.get("experiment", "kind")
        if kind not in _EXPERIMENTS:
            raise ConfigError(f"unknown experiment kind {kind!r}")
        out = Path(cfg.get("output", "dir", str, "out")) if outdir is None else outdir
        ok, lines = _EXPERIMENTS[kind](cfg, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except HesselabError as exc:
        print(f"FAIL {type(exc).__name__}: {exc}")
        return 1
    for line in lines:
        print(line)
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


# -- verify-all -------------------------------------------------------------------

def _mtw_ratio_check(outdir: Path):
    rows = []
    worst_spread = 0.0
    for name, kw in (("calabi_ball", {"n": 2}), ("cone2d", {}),
                     ("radial_sym", {"C": 1.0})):
        handle = catalog(name, **kw)
        rng = np.random.default_rng(101)
        pts = handle.domain.sample(60, 17)
        ratios = []
        for p in pts:
            xi = rng.normal(size=2)
            eta = rng.normal(size=2)
            val = mtw_tensor(handle, p, np.zeros(2), xi, eta)
            sample = core_form(handle.jet(p))
            ref = anti_bisectional(sample, xi, np.linalg.solve(sample.h, eta))
            if abs(ref) > 1e-12:
                ratios.append(val / ref)
        spread = float(np.ptp(ratios))
        worst_spread = max(worst_spread, spread)
        rows.append({"potential": name, "ratio_mean": float(np.mean(ratios)),
                     "spread": spread})
    _write_csv(outdir / "mtw_ratio.csv", rows, ["potential", "ratio_mean", "spread"])
    ok = worst_spread < 1e-8
    return ok, [f"mtw/abc ratio spread {worst_spread!r}"]


def _verify_all_experiments():
    """(name, config) pairs for the built-in suite; seeds pinned."""
    return [
        ("certify-cone", {
            "experiment": {"kind": "certify"},
            "potential": {"name": "cone2d"},
            "certify": {"quantity": "ABC", "count": 20, "seed": 11,
                        "expect": "NONPOSITIVE"},
        }),
        ("certify-ball", {
            "experiment": {"kind": "certify"},
            "potential": {"name": "calabi_ball", "n": 2},
            "certify": {"quantity": "ABC", "count": 20, "seed": 11,
                        "extent": 0.95, "expect": "NONPOSITIVE"},
        }),
        ("scan-ball", {
            "experiment": {"kind": "curvature-scan"},
            "potential": {"name": "calabi_ball", "n": 2},
            "scan": {"count": 16, "seed": 4, "extent": 0.9},
        }),
        ("trace-suite", {
            "experiment": {"kind": "trace-suite"},
            "suite": {"trials": 2000, "seed": 5, "max_dim": 6},
        }),
        ("null-vector-suite", {
            "experiment": {"kind": "null-vector-suite"},
            "suite": {"trials": 40, "seed": 3, "dims": "2 3"},
        }),
        ("ode-negative", {
            "experiment": {"kind": "ode-run"},
            "ode": {"a0": -1.0, "time": 0.5, "dt": 1e-3, "tolerance": 1e-8},
        }),
        ("flow-quadratic", {
            "experiment": {"kind": "flow-run"},
            "potential": {"name": "quadratic_plus_periodic", "amplitude": 0.0},
            "flow": {"mode": "periodic", "nodes": 32, "time": 0.02,
                     "epochs": 4, "assert_stationary_below": 1e-12,
                     "assert_abc_max_below": 1e-6},
        }),
        ("flow-periodic", {
            "experiment": {"kind": "flow-run"},
            "potential": {"name": "quadratic_plus_periodic", "amplitude": 0.05},
            "flow": {"mode": "periodic", "nodes": 32, "time": 0.05,
                     "epochs": 5, "assert_chen_above": -1e-6},
        }),
        ("flow-ball-window", {
            "experiment": {"kind": "flow-run"},
            "potential": {"name": "calabi_ball", "n": 2},
            "flow": {"mode": "frozen-window", "nodes": 40, "time": 0.006,
                     "origin_x": -0.5, "origin_y": -0.5, "spacing": 0.025,
                     "epochs": 4, "sample_per_axis": 4,
                     "assert_abc_max_below": 1e-6},
        }),
        ("kr-probe-radial", {
            "experiment": {"kind": "kr-probe"},
            "potential": {"name": "radial_sym", "C": 1.0},
            "probe": {"epsilon": 0.0015, "nodes": 44, "origin_x": 0.35,
                      "origin_y": -0.55, "spacing": 0.028, "epochs": 3,
                      "expect_regular": True},
        }),
        ("berger-suite", {
            "experiment": {"kind": "berger-suite"},
            "suite": {"seed": 9, "count": 20000},
        }),
        ("ot-radial", {
            "experiment": {"kind": "ot-experiment"},
            "potential": {"name": "radial_sym", "C": 1.0},
            "ot": {"seed": 13, "points": 9, "alpha": 0.5,
                   "times": "0 0.01 0.02"},
        }),
    ]


def verify_all(outdir: Path) -> int:
    outdir.mkdir(parents=True, exist_ok=True)
    results = []
    ok_all = True
    ok, lines = _mtw_ratio_check(outdir)
    results.append(("mtw-ratio", ok, lines))
    ok_all &= ok
    for name, data in _verify_all_experiments():
        cfg = Config.from_dict(data)
        sub = outdir / name
        sub.mkdir(parents=True, exist_ok=True)
        kind = cfg.get("experiment", "kind")
        try:
            ok, lines = _EXPERIMENTS[kind](cfg, sub)
        except HesselabError as exc:
            ok, lines = False, [f"{type(exc).__name__}: {exc}"]
        results.append((name, ok, lines))
        ok_all &= ok
    report = []
    for name, ok, lines in results:
        report.append(f"[{'PASS' if ok else 'FAIL'}] {name}")
        report.extend("    " + ln for ln in lines)
    (outdir / "summary.txt").write_text("\n".join(report) + "\n")
    print("\n".join(report))
    print("ALL PASS" if ok_all else "SUITE FAILED")
    return 0 if ok_all else 1


# -- entry point --------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hesselab",
        description="curvature, transport-regularity and flow experiments "
                    "for convex-potential tube metrics")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run one experiment config")
    p_run.add_argument("config", type=Path)
    sub.add_parser("catalog", help="list built-in potentials")
    p_ver = sub.add_parser("verify-all", help="run the verification suite")
    p_ver.add_argument("--outdir", type=Path, default=Path("verify_out"))
    args = parser.parse_args(argv)
    if args.command == "catalog":
        for name, desc in catalog_entries():
            print(f"{name:26} {desc}")
        return 0
    if args.command == "run":
        try:
            cfg = Config.from_file(args.config)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        return run_config(cfg)
    if args.command == "verify-all":
        return verify_all(args.outdir)
    return 2


if __name__ == "__main__":
    sys.exit(main())

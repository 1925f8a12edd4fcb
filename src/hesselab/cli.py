"""Config-driven experiment runner.

Commands:
    hesselab run <config>    execute one experiment described by an INI-style
                             config (flat key = value pairs under section
                             headers); exit 0 when all asserted properties
                             pass, 1 on a property failure, 2 on config errors
    hesselab catalog         list the built-in potentials
    hesselab verify-all      run the built-in verification suite (deterministic
                             seeded experiments, byte-stable CSV outputs)

``_KEYS`` declares every key of every experiment kind, and the whole config
is checked against it before the experiment starts: an unknown section or
key (the nearest known one is named), a missing, unparsable, non-finite or
out-of-range value is a config error.  Every experiment is seeded; identical
configs produce byte-identical CSV files.  Timestamps never enter CSV outputs.
"""

from __future__ import annotations

import argparse
import configparser
import difflib
import math
import sys
from pathlib import Path

import numpy as np

from . import berger, flow, reaction, transport
from .certificates import VERDICTS
from .curvature import (QUANTITIES, RegionSpec, anti_bisectional, certify_sign,
                        core_form, mtw_tensor, scan_csv_rows)
from .errors import BadGridFile, BadParams, ConfigError, HesselabError, IncompatibleMode
from .potentials import CATALOG_NAMES, catalog, catalog_entries, catalog_parameters
from .transport import DiscreteMeasure

# -- config plumbing -------------------------------------------------------------

class Config:
    """The text of a config: {section: {key: raw value}}."""

    def __init__(self, sections: dict[str, dict[str, str]]):
        self.sections = sections

    @classmethod
    def from_file(cls, path) -> "Config":
        # "%" is an ordinary character, and a [DEFAULT] section is a section
        parser = configparser.ConfigParser(interpolation=None, default_section="")
        parser.optionxform = str  # keep key case (potential parameters)
        try:
            with open(path, encoding="utf-8") as fh:
                parser.read_file(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}") from exc
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError(f"malformed config file {path}: {exc}") from exc
        return cls({name: dict(parser[name]) for name in parser.sections()})

    @classmethod
    def from_dict(cls, data: dict) -> "Config":
        return cls({section: {k: str(v) for k, v in values.items()}
                    for section, values in data.items()})


REQUIRED = object()  # the default of a key that a config must set


def _ints(raw: str) -> list[int]:
    return [int(v) for v in raw.split()]


def _floats(raw: str) -> list[float]:
    return [float(v) for v in raw.split()]


# _KEYS[kind][section][key] = (parse, default, rule).  A default of None
# leaves the key unset; a rule is a bound ">= b" or "> b" that each value
# (each element of a list, which must not be empty) meets, or a tuple of the
# allowed values.  Every float must be finite.  The [potential] keys past
# name are the named constructor's parameters (_potential_keys).
_POTENTIAL = {"name": (str, REQUIRED, CATALOG_NAMES)}
_ASSERTS = {key: (float, None, None) for key in (
    "assert_abc_max_below", "assert_orth_min_above", "assert_chen_above",
    "assert_stationary_below")}
_WINDOW = ("origin_x", "origin_y", "spacing")
_KEYS = {kind: {"experiment": {"kind": (str, REQUIRED, None)},  # read first: picks the table
                "output": {"dir": (str, "out", None)}, **sections}
         for kind, sections in {
    "curvature-scan": {"potential": _POTENTIAL, "scan": {
        "count": (int, 25, ">= 1"), "seed": (int, 7, ">= 0"), "extent": (float, None, "> 0")}},
    "certify": {"potential": _POTENTIAL, "certify": {
        "quantity": (str, REQUIRED, QUANTITIES), "count": (int, 25, ">= 1"),
        "seed": (int, 7, ">= 0"), "extent": (float, None, "> 0"),
        "expect": (str, "", ("",) + VERDICTS)}},
    "flow-run": {"potential": _POTENTIAL, "flow": {
        "mode": (str, "periodic", ("periodic", "frozen-window")), "nodes": (int, 32, ">= 1"),
        "time": (float, 0.05, "> 0"), "epochs": (int, 8, ">= 1"),
        "sample_per_axis": (int, 4, ">= 1"), **_ASSERTS,
        # the window keys: frozen-window mode only (_exp_flow_run)
        "origin_x": (float, None, None), "origin_y": (float, None, None),
        "spacing": (float, None, "> 0")}},
    "ode-run": {"ode": {
        "a0": (float, -1.0, None), "time": (float, 0.5, "> 0"), "dt": (float, 1e-3, "> 0"),
        "tolerance": (float, 1e-8, None)}},
    "null-vector-suite": {"suite": {
        "trials": (int, 50, ">= 1"), "seed": (int, 3, ">= 0"), "dims": (_ints, (2, 3), ">= 1"),
        "probe_trials": (int, 2000, ">= 1")}},
    "trace-suite": {"suite": {
        "trials": (int, 2000, ">= 1"), "seed": (int, 5, ">= 0"), "max_dim": (int, 6, ">= 1")}},
    "berger-suite": {"suite": {"seed": (int, 9, ">= 0")}},
    "ot-experiment": {"potential": _POTENTIAL, "ot": {
        "seed": (int, 13, ">= 0"), "points": (int, 9, ">= 1"), "alpha": (float, 0.5, None),
        "times": (_floats, (0.0, 0.005, 0.01), ">= 0"),
        "nodes": (int, 36, ">= 6"),  # the quintic spline needs 6 nodes
        "origin_x": (float, 0.55, None), "origin_y": (float, -0.65, None),
        "spacing": (float, 0.036, "> 0")}},
}.items()}

# parsers of the catalog parameters that are not floats; quad has no text form
_PARAMETER_PARSE = {"n": int, "wave": _ints, "path": str, "quad": None}


def _potential_keys(name) -> dict:
    """The [potential] table of catalog(name): name, then the constructor's
    parameters with a text form, defaulted as the constructor defaults them."""
    keys = dict(_POTENTIAL)
    for param in catalog_parameters(name) if name in CATALOG_NAMES else ():
        parse = _PARAMETER_PARSE.get(param.name, float)
        if parse is not None:
            keys[param.name] = (parse, REQUIRED if param.default is param.empty
                                else param.default, None)
    return keys


def _nearest(word: str, known, form: str = "{}") -> str:
    match = difflib.get_close_matches(word, list(known), n=1)
    names = [form.format(name) for name in match or known]
    return f" (did you mean {names[0]}?)" if match else f" (known: {', '.join(names)})"


def _value(section: str, key: str, parse, rule, raw: str):
    try:
        value = parse(raw)
        if value == []:
            raise ValueError(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for [{section}] {key}: {raw!r}") from exc
    for v in value if isinstance(value, list) else [value]:
        if isinstance(v, float) and not math.isfinite(v):
            raise ConfigError(f"[{section}] {key} must be finite, got {raw!r}")
        if isinstance(rule, tuple) and v not in rule:
            raise ConfigError(f"[{section}] {key} must be one of "
                              f"{', '.join(map(repr, rule))}, got {raw!r}")
        if isinstance(rule, str):
            op, bound = rule.split()
            if not (v >= float(bound) if op == ">=" else v > float(bound)):
                raise ConfigError(f"[{section}] {key} must be {rule}, got {raw!r}")
    return value


def _checked(cfg: Config) -> dict:
    """{section: {key: value}} of every key the experiment reads, parsed and
    checked against _KEYS, with the defaults filled in.  Raises one
    ConfigError that names every unknown, missing or bad section and key."""
    kind = cfg.sections.get("experiment", {}).get("kind")
    if kind not in _KEYS:
        raise ConfigError("missing [experiment] kind" if kind is None else
                          f"unknown experiment kind {kind!r}{_nearest(kind, _KEYS)}")
    table = dict(_KEYS[kind])
    if "potential" in table:
        table["potential"] = _potential_keys(cfg.sections.get("potential", {}).get("name"))
    errors = [f"unknown section [{name}]{_nearest(name, table, '[{}]')}"
              for name in cfg.sections if name not in table]
    checked = {}
    for section, keys in table.items():
        given = cfg.sections.get(section, {})
        errors += [f"unknown key [{section}] {key}{_nearest(key, keys)}"
                   for key in given if key not in keys]
        checked[section] = {}
        for key, (parse, default, rule) in keys.items():
            try:
                if key not in given and default is REQUIRED:
                    raise ConfigError(f"missing [{section}] {key}")
                checked[section][key] = (_value(section, key, parse, rule, given[key])
                                         if key in given else default)
            except ConfigError as exc:
                errors.append(str(exc))
    if errors:
        raise ConfigError("; ".join(errors))
    return checked


def _potential_from(c: dict):
    try:
        return catalog(**c["potential"])
    except (BadGridFile, BadParams) as exc:
        raise ConfigError(str(exc)) from exc


def _flow_state(handle, c: dict, section: str, mode: str) -> flow.FlowState:
    """flow.init of handle on the nodes x nodes grid of [section]: the torus,
    or the window at (origin_x, origin_y) with the given spacing.  A grid or
    mode the potential cannot take is a config error."""
    s = c[section]
    m = s["nodes"]
    grid = flow.GridSpec(shape=(m, m)) if mode == "periodic" else flow.GridSpec(
        shape=(m, m), spacing=s["spacing"], origin=np.array([s["origin_x"], s["origin_y"]]))
    try:
        return flow.init(handle, grid, mode)
    except (BadParams, IncompatibleMode) as exc:
        raise ConfigError(f"bad [{section}] grid: {exc}") from exc


def _out(outdir: Path, name: str) -> Path:
    """outdir / name; outdir is made when an experiment first writes to it."""
    outdir.mkdir(parents=True, exist_ok=True)
    return outdir / name


def _write_csv(path: Path, rows: list[dict], columns: list[str]) -> None:
    """Write rows as a CSV and as its plot-ready .dat twin: the same
    formatted fields, whitespace-delimited, with a '# ' header."""
    body = [[repr(float(row[c])) if isinstance(row[c], float) else str(row[c])
             for c in columns] for row in rows]
    for suffix, sep, lead in ((".csv", ",", ""), (".dat", " ", "# ")):
        lines = [lead + sep.join(columns)] + [sep.join(fields) for fields in body]
        path.with_suffix(suffix).write_text("\n".join(lines) + "\n")


def _write_series(path: Path, series: flow.MonitorSeries) -> None:
    rows = [{"t": t, **{c: series.channels[c][i] for c in flow.CHANNELS}}
            for i, t in enumerate(series.times)]
    _write_csv(path, rows, ["t", *flow.CHANNELS])


# -- experiment implementations ---------------------------------------------------

def _exp_curvature_scan(c: dict, outdir: Path):
    handle = _potential_from(c)
    count = c["scan"]["count"]
    pts = handle.domain.sample(count, c["scan"]["seed"], extent=c["scan"]["extent"])
    rows = scan_csv_rows(handle, pts)
    cols = ([f"x{i+1}" for i in range(handle.n)]
            + ["S", "O", "Hmin_pol", "ABC_min", "ABC_max"]
            + [f"wit_v{i+1}" for i in range(handle.n)]
            + [f"wit_w{i+1}" for i in range(handle.n)])
    _write_csv(_out(outdir, "curvature_scan.csv"), rows, cols)
    return True, [f"scanned {count} points of {handle.name}"]


def _exp_certify(c: dict, outdir: Path):
    handle = _potential_from(c)
    cc = c["certify"]
    quantity, expect = cc["quantity"], cc["expect"]
    try:
        cert = certify_sign(handle, quantity, RegionSpec(count=cc["count"], seed=cc["seed"],
                                                         extent=cc["extent"]))
    except BadParams as exc:
        raise ConfigError(f"bad [certify] parameters: {exc}") from exc
    _out(outdir, f"certificate_{handle.name}_{quantity}.txt").write_text(cert.to_text())
    msg = (f"{handle.name} {quantity}: {cert.verdict} "
           f"(extremal {cert.extremal_value!r})")
    ok = (not expect) or cert.verdict == expect
    if not ok:
        msg += f" EXPECTED {expect}"
    return ok, [msg]


def _exp_flow_run(c: dict, outdir: Path):
    handle = _potential_from(c)
    f = c["flow"]
    mode, T = f["mode"], f["time"]
    given = [key for key in _WINDOW if f[key] is not None]
    if given != (list(_WINDOW) if mode == "frozen-window" else []):
        raise ConfigError(f"[flow] {', '.join(_WINDOW)} are required in frozen-window mode "
                          f"and refused in periodic mode; {mode} mode got "
                          f"{', '.join(given) or 'none'}")
    state = _flow_state(handle, c, "flow", mode)
    try:
        final, series = flow.run(state, T, sample_per_axis=f["sample_per_axis"],
                                 monitor_epochs=f["epochs"])
    except BadParams as exc:
        raise ConfigError(f"bad [flow] run: {exc}") from exc
    _write_series(_out(outdir, f"flow_{handle.name}.csv"), series)
    lines = [f"flow {handle.name} mode={mode} T={T:g}: {len(series.times) - 1} epochs"]
    ok = True
    # config key, printed name, upper ("<=") or lower (">=") bound, statistic
    for key, name, op, statistic in (
            ("assert_abc_max_below", "ABC_max worst", "<=", series.channel("ABC_max").max),
            ("assert_orth_min_above", "ORTH_ABC_min worst", ">=",
             series.channel("ORTH_ABC_min").min),
            ("assert_chen_above", "chen_residual worst", ">=",
             series.channel("chen_residual")[1:].min),
            ("assert_stationary_below", "potential drift", "<=", np.abs(final.u - state.u).max)):
        bound = f[key]
        if bound is None:
            continue
        worst = float(statistic())
        good = worst <= bound if op == "<=" else worst >= bound
        lines.append(f"  {name} {worst!r} {op} {bound!r}: {good}")
        ok = ok and good
    return ok, lines


def _exp_ode_run(c: dict, outdir: Path):
    a0, T, dt = c["ode"]["a0"], c["ode"]["time"], c["ode"]["dt"]
    A = reaction.AlgCurvTensor(np.full((1, 1, 1, 1), a0))
    traj = reaction.integrate_ode(A, T, dt, record_every=max(1, int(T / dt / 50)))
    rows = [{"t": t, "value": float(tensor.A.ravel()[0]),
             "closed_form": a0 / (1.0 - 2.0 * a0 * t)}
            for t, tensor in zip(traj.times, traj.tensors)]
    _write_csv(_out(outdir, "ode_run.csv"), rows, ["t", "value", "closed_form"])
    err = max(abs(r["value"] - r["closed_form"]) for r in rows)
    return err <= c["ode"]["tolerance"], [f"ode n=1 a0={a0:g}: max closed-form error {err!r}"]


def _exp_null_vector_suite(c: dict, outdir: Path):
    trials, seed, dims = c["suite"]["trials"], c["suite"]["seed"], c["suite"]["dims"]
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
    cx = reaction.noab_probe(3, seed=seed + 1, trials=c["suite"]["probe_trials"])
    probe_ok = cx is not None
    if probe_ok:
        _out(outdir, "noab_counterexample.txt").write_text(cx.tensor.to_text())
        lines.append(f"n=3 orthogonal-boundary probe: Q = {cx.q_value!r} at "
                     f"trial {cx.trial} (counterexample serialized)")
    else:
        lines.append("n=3 orthogonal-boundary probe: no counterexample found")
    return failures == 0 and probe_ok, lines


def _exp_trace_suite(c: dict, outdir: Path):
    trials, seed, max_n = c["suite"]["trials"], c["suite"]["seed"], c["suite"]["max_dim"]
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


def _exp_berger_suite(c: dict, outdir: Path):
    """Every identity is gated at 1e-12 (1 + max|E|): the averages are exact
    cubature, so only rounding separates them from their closed forms."""
    seed = c["suite"]["seed"]
    lines = []
    z, w = berger._sphere_rule(2)
    m4, m22 = float(w @ z[:, 0] ** 4), float(w @ (z[:, 0] * z[:, 1]) ** 2)
    tol = 2e-12  # the monomials z1^4 and z1^2 z2^2 have max|E| = 1
    good = abs(m4 - 0.375) <= tol and abs(m22 - 0.125) <= tol
    ok = good
    lines.append(f"moments n=2: m4 {m4!r} (exact 0.375), m22 {m22!r} (exact 0.125): {good}")
    good = abs(m4 / m22 - 3.0) <= tol
    ok &= good
    lines.append(f"fourth/mixed moment ratio: {m4 / m22!r}; real-sphere identity gives 3, "
                 f"the complex-sphere weighting would give 2: {good}")
    handle = catalog("calabi_ball", n=2)
    pts = handle.domain.sample(6, seed + 1, extent=0.8)
    samples = [core_form(handle.jet(p)) for p in pts]
    tol = 1e-12 * (1.0 + max(float(np.abs(smp.E_frame).max()) for smp in samples))
    fit = berger.decomposition_fit(samples)
    good = (fit.residual <= tol and abs(fit.alpha - 0.25) <= tol
            and abs(fit.beta - 0.125) <= tol)
    ok &= good
    lines.append(f"decomposition: alpha {fit.alpha!r} (exact 0.25) beta {fit.beta!r} "
                 f"(exact 0.125) beta/alpha {fit.beta_over_alpha!r} residual "
                 f"{fit.residual!r} (limit {tol!r}): {good}")
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
    ratios = [berger.ricci_average(smp, seed=seed + 3 + i).ratio
              for i, smp in enumerate(samples)]
    worst = float(np.abs(np.subtract(ratios, 2.0)).max())
    good = worst <= tol
    ok &= good
    lines.append(f"ricci-average ratios: max |ratio - n| {worst!r} at n=2 "
                 f"(limit {tol!r}): {good}")
    _out(outdir, "berger_suite.txt").write_text("\n".join(lines) + "\n")
    return ok, lines


def _exp_ot_experiment(c: dict, outdir: Path):
    o = c["ot"]
    if 0.0 not in o["times"]:
        raise ConfigError(f"[ot] times must include 0, got {o['times']}")
    handle = _potential_from(c)
    npts = o["points"]
    rng = np.random.default_rng(o["seed"])
    X = np.stack([rng.uniform(1.0, 1.35, npts), rng.uniform(-0.18, 0.18, npts)], axis=1)
    Y = np.stack([rng.uniform(-0.12, 0.12, npts), rng.uniform(-0.15, 0.15, npts)], axis=1)
    mu, nu = DiscreteMeasure.uniform(X), DiscreteMeasure.uniform(Y)
    state = _flow_state(handle, c, "ot", "frozen-window")
    costs = {}
    for t in sorted(o["times"]):
        if t > state.t:
            dt = flow.adaptive_dt(state)
            nsteps = max(1, int(np.ceil((t - state.t) / dt)))
            dt_sub = (t - state.t) / nsteps
            for _ in range(nsteps):
                state = flow.step(state, dt_sub)
        chk = flow.to_grid_potential(state)
        costs[t] = transport.cost_matrix(chk, X, Y)
    rows = transport.weak_continuity_rows(costs, mu, nu, o["alpha"])
    _write_csv(_out(outdir, f"ot_weak_continuity_{handle.name}.csv"), rows,
               ["t", "cost", "holder_modulus", "plan_tv_to_t0", "slack_residual"])
    tv = [r["plan_tv_to_t0"] for r in rows]
    certified = all(r["slack_residual"] < 1e-9 for r in rows)
    monotone = all(tv[i] <= tv[i + 1] + 1e-9 for i in range(len(tv) - 1))
    ok = certified and monotone
    return ok, [f"ot weak-continuity: tv {tv}, certified {certified}, "
                f"monotone-toward-0 {monotone}"]


# each kind of _KEYS runs _exp_<kind>, with "-" read as "_"
_EXPERIMENTS = {kind: globals()["_exp_" + kind.replace("-", "_")] for kind in _KEYS}


def run_config(cfg: Config, outdir: Path | None = None) -> int:
    """Execute one experiment; returns the process exit code."""
    try:
        c = _checked(cfg)
        out = Path(c["output"]["dir"]) if outdir is None else outdir
        ok, lines = _EXPERIMENTS[c["experiment"]["kind"]](c, out)
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
            xi, eta = rng.normal(size=2), rng.normal(size=2)
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
        ("certify-cone", {"experiment": {"kind": "certify"}, "potential": {"name": "cone2d"},
                          "certify": {"quantity": "ABC", "count": 20, "seed": 11,
                                      "expect": "NONPOSITIVE"}}),
        ("certify-ball", {"experiment": {"kind": "certify"},
                          "potential": {"name": "calabi_ball", "n": 2},
                          "certify": {"quantity": "ABC", "count": 20, "seed": 11,
                                      "extent": 0.95, "expect": "NONPOSITIVE"}}),
        ("scan-ball", {"experiment": {"kind": "curvature-scan"},
                       "potential": {"name": "calabi_ball", "n": 2},
                       "scan": {"count": 16, "seed": 4, "extent": 0.9}}),
        ("trace-suite", {"experiment": {"kind": "trace-suite"},
                         "suite": {"trials": 2000, "seed": 5, "max_dim": 6}}),
        ("null-vector-suite", {"experiment": {"kind": "null-vector-suite"},
                               "suite": {"trials": 40, "seed": 3, "dims": "2 3"}}),
        ("ode-negative", {"experiment": {"kind": "ode-run"},
                          "ode": {"a0": -1.0, "time": 0.5, "dt": 1e-3, "tolerance": 1e-8}}),
        ("flow-quadratic", {"experiment": {"kind": "flow-run"},
                            "potential": {"name": "quadratic_plus_periodic", "amplitude": 0.0},
                            "flow": {"mode": "periodic", "nodes": 32, "time": 0.02,
                                     "epochs": 4, "assert_stationary_below": 1e-12,
                                     "assert_abc_max_below": 1e-6}}),
        ("flow-periodic", {"experiment": {"kind": "flow-run"},
                           "potential": {"name": "quadratic_plus_periodic", "amplitude": 0.05},
                           "flow": {"mode": "periodic", "nodes": 32, "time": 0.05,
                                    "epochs": 5, "assert_chen_above": -1e-6}}),
        ("flow-ball-window", {"experiment": {"kind": "flow-run"},
                              "potential": {"name": "calabi_ball", "n": 2},
                              "flow": {"mode": "frozen-window", "nodes": 40, "time": 0.006,
                                       "origin_x": -0.5, "origin_y": -0.5, "spacing": 0.025,
                                       "epochs": 4, "sample_per_axis": 4,
                                       "assert_abc_max_below": 1e-6}}),
        ("flow-radial-window", {"experiment": {"kind": "flow-run"},
                                "potential": {"name": "radial_sym", "C": 1.0},
                                "flow": {"mode": "frozen-window", "nodes": 44, "time": 0.0015,
                                         "origin_x": 0.35, "origin_y": -0.55,
                                         "spacing": 0.028, "epochs": 3, "sample_per_axis": 5,
                                         "assert_orth_min_above": -1e-6}}),
        ("berger-suite", {"experiment": {"kind": "berger-suite"},
                          "suite": {"seed": 9}}),
        ("ot-radial", {"experiment": {"kind": "ot-experiment"},
                       "potential": {"name": "radial_sym", "C": 1.0},
                       "ot": {"seed": 13, "points": 9, "alpha": 0.5, "times": "0 0.01 0.02"}}),
    ]


def verify_all(outdir: Path) -> int:
    outdir.mkdir(parents=True, exist_ok=True)
    results = [("mtw-ratio", *_mtw_ratio_check(outdir))]
    for name, data in _verify_all_experiments():
        sub = outdir / name
        sub.mkdir(parents=True, exist_ok=True)
        try:
            c = _checked(Config.from_dict(data))
            ok, lines = _EXPERIMENTS[c["experiment"]["kind"]](c, sub)
        except HesselabError as exc:
            ok, lines = False, [f"{type(exc).__name__}: {exc}"]
        results.append((name, ok, lines))
    ok_all = all(ok for _, ok, _ in results)
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
    sub.add_parser("run", help="run one experiment config").add_argument("config", type=Path)
    sub.add_parser("catalog", help="list built-in potentials")
    sub.add_parser("verify-all", help="run the verification suite").add_argument(
        "--outdir", type=Path, default=Path("verify_out"))
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
    return verify_all(args.outdir)


if __name__ == "__main__":
    sys.exit(main())

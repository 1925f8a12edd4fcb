import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import write_grid_file
from hesselab.cli import (_KEYS, Config, _checked, _floats, _ints, _potential_keys,
                          _verify_all_experiments, main, run_config)
from hesselab.potentials import CATALOG_NAMES, catalog_entries


def test_catalog_listing(capsys):
    assert main(["catalog"]) == 0
    out = capsys.readouterr().out
    assert "cone2d" in out
    assert "calabi_ball" in out
    assert "|x1| > |x2|" in out  # domain description present
    assert len([ln for ln in out.splitlines() if ln.strip()]) >= 7


def test_catalog_entries_complete():
    names = [n for n, _ in catalog_entries()]
    assert names == list(CATALOG_NAMES)


def certify_config(tmp_path, name="cone2d", expect="NONPOSITIVE"):
    cfg = tmp_path / "certify.ini"
    cfg.write_text(f"""
[experiment]
kind = certify

[potential]
name = {name}

[certify]
quantity = ABC
count = 8
seed = 3
expect = {expect}

[output]
dir = {tmp_path / 'out'}
""")
    return cfg


def test_run_certify_config(tmp_path, capsys):
    code = main(["run", str(certify_config(tmp_path))])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out
    cert = tmp_path / "out" / "certificate_cone2d_ABC.txt"
    assert cert.exists()
    assert "NONPOSITIVE" in cert.read_text()


def test_run_config_property_failure_exits_1(tmp_path, capsys):
    code = main(["run", str(certify_config(tmp_path, expect="NONNEGATIVE"))])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_unknown_potential_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the default [output] dir is ./out
    cfg = tmp_path / "bad.ini"
    cfg.write_text("""
[experiment]
kind = certify

[potential]
name = not_a_potential

[certify]
quantity = ABC
""")
    assert main(["run", str(cfg)]) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.ini"]


def test_unknown_kind_exits_2(tmp_path):
    cfg = tmp_path / "bad2.ini"
    cfg.write_text("[experiment]\nkind = make-coffee\n")
    assert main(["run", str(cfg)]) == 2


def test_missing_config_file_exits_2(tmp_path):
    assert main(["run", str(tmp_path / "nowhere.ini")]) == 2


def test_trace_suite_config(tmp_path, capsys):
    cfg = tmp_path / "trace.ini"
    cfg.write_text(f"""
[experiment]
kind = trace-suite

[suite]
trials = 500
seed = 5

[output]
dir = {tmp_path / 'out'}
""")
    assert main(["run", str(cfg)]) == 0
    report = (tmp_path / "out" / "trace_suite.txt").read_text()
    assert "min_value" in report


def test_scan_outputs_are_deterministic(tmp_path):
    base = """
[experiment]
kind = curvature-scan

[potential]
name = calabi_ball
n = 2

[scan]
count = 6
seed = 4
extent = 0.8

[output]
dir = {out}
"""
    runs = []
    for sub in ("a", "b"):
        cfg = tmp_path / f"scan_{sub}.ini"
        cfg.write_text(base.format(out=tmp_path / sub))
        assert main(["run", str(cfg)]) == 0
        runs.append((tmp_path / sub / "curvature_scan.csv").read_bytes())
    assert runs[0] == runs[1]
    header = runs[0].decode().splitlines()[0]
    assert header.startswith("x1,x2,S,O,Hmin_pol,ABC_min")


def test_ode_config_dict(tmp_path):
    cfg = Config.from_dict({
        "experiment": {"kind": "ode-run"},
        "ode": {"a0": -1.0, "time": 0.25, "dt": 1e-3},
        "output": {"dir": str(tmp_path / "ode")},
    })
    assert run_config(cfg) == 0
    assert any((tmp_path / "ode").iterdir())


@pytest.mark.parametrize("key, value", [
    ("time", "nan"), ("time", "inf"), ("time", "-1"), ("time", "0"),
    ("dt", "nan"), ("dt", "0"), ("dt", "-0.001"), ("dt", "inf"), ("a0", "nan")])
def test_bad_ode_run_config_exits_2(tmp_path, capsys, monkeypatch, key, value):
    """Each bad [ode] key is a config error, reported without a traceback."""
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "ode.ini"
    cfg.write_text(f"""
[experiment]
kind = ode-run

[ode]
{key} = {value}
""")
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "config error: " in err and key in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def certify_dict(potential=None, **certify):
    return Config.from_dict({
        "experiment": {"kind": "certify"},
        "potential": {"name": "cone2d", **(potential or {})},
        "certify": {"quantity": "ABC", "count": 2, **certify},
    })


def test_non_integer_potential_dimension_exits_2(tmp_path, capsys):
    cfg = certify_dict(potential={"name": "calabi_ball", "n": "abc"})
    assert run_config(cfg, tmp_path) == 2
    assert "config error" in capsys.readouterr().err


def test_unknown_certify_quantity_exits_2(tmp_path, capsys):
    assert run_config(certify_dict(quantity="FOO"), tmp_path) == 2
    assert "quantity" in capsys.readouterr().err


def test_truncated_grid_file_exits_2(tmp_path, capsys):
    path = tmp_path / "short.grid"
    path.write_text("2 0.1 0.0 0.0 2 2\n1.0 2.0 3.0\n")
    cfg = certify_dict(potential={"name": "grid", "path": str(path)})
    assert run_config(cfg, tmp_path / "out") == 2
    assert "3 values" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("potential", [
    {"name": "radial_sym", "C": "-1"},
    {"name": "quadratic_plus_periodic", "amplitude": "5"},
    {"name": "calabi_ball", "n": "0"},
    {"name": "grid", "spacing": "0.1"}])
def test_out_of_range_catalog_parameters_exit_2(tmp_path, capsys, potential):
    """Parameters the catalog refuses are config errors, and a grid read
    from a file refuses every other key, as the other entries do."""
    if potential["name"] == "grid":
        path = tmp_path / "bowl.grid"
        axes = np.linspace(-1.0, 1.0, 8)
        write_grid_file(path, [-1.0, -1.0], axes[1] - axes[0],
                        np.add.outer(axes**2, axes**2))
        potential = {**potential, "path": str(path)}
    cfg = Config.from_dict({"experiment": {"kind": "curvature-scan"},
                            "potential": potential})
    assert run_config(cfg, tmp_path / "out") == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_zero_certify_count_exits_2(tmp_path, capsys):
    assert run_config(certify_dict(count=0), tmp_path) == 2
    assert "count" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("points", "0"), ("times", "x"), ("nodes", "2"), ("times", "0.005 0.01"),
    ("seed", "-1"), ("spacing", "-0.036")])
def test_bad_ot_experiment_config_exits_2(tmp_path, capsys, monkeypatch, key, value):
    """Each bad [ot] key is a config error, reported without a traceback."""
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "ot.ini"
    cfg.write_text(f"""
[experiment]
kind = ot-experiment

[potential]
name = radial_sym

[ot]
{key} = {value}
""")
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "config error: " in err and key in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


# each line exactly as flow-run prints it; each key's two bounds bracket its worst value
@pytest.mark.parametrize("key, bound, code, line", [
    ("assert_abc_max_below", "0.001", 0,
     "  ABC_max worst 0.00011412901190502311 <= 0.001: True"),
    ("assert_abc_max_below", "1e-05", 1,
     "  ABC_max worst 0.00011412901190502311 <= 1e-05: False"),
    ("assert_orth_min_above", "-3.0", 0,
     "  ORTH_ABC_min worst -2.378609541085706 >= -3.0: True"),
    ("assert_orth_min_above", "-2.0", 1,
     "  ORTH_ABC_min worst -2.378609541085706 >= -2.0: False"),
    ("assert_chen_above", "2.5", 0,
     "  chen_residual worst 3.538154641980011 >= 2.5: True"),
    ("assert_chen_above", "6.0", 1,
     "  chen_residual worst 3.538154641980011 >= 6.0: False"),
    ("assert_stationary_below", "0.001", 0,
     "  potential drift 0.00013688288802267027 <= 0.001: True"),
    ("assert_stationary_below", "0.0001", 1,
     "  potential drift 0.00013688288802267027 <= 0.0001: False"),
])
def test_flow_run_assert_table(tmp_path, capsys, key, bound, code, line):
    cfg = Config.from_dict({
        "experiment": {"kind": "flow-run"},
        "potential": {"name": "quadratic_plus_periodic", "amplitude": 0.05,
                      "wave": "1 2"},
        "flow": {"mode": "periodic", "nodes": 16, "time": 0.002, "epochs": 2,
                 "sample_per_axis": 2, key: bound},
    })
    assert run_config(cfg, tmp_path) == code
    assert capsys.readouterr().out.splitlines() == [
        "flow quadratic_plus_periodic mode=periodic T=0.002: 2 epochs",
        line, "FAIL" if code else "PASS"]


def test_periodic_flow_on_a_grid_of_another_dimension_exits_2(tmp_path, capsys,
                                                              monkeypatch):
    """flow-run builds a 2-D torus; an n = 3 potential on it is a config
    error, reported without a traceback."""
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "flow.ini"
    cfg.write_text("""
[experiment]
kind = flow-run

[potential]
name = quadratic_plus_periodic
n = 3

[flow]
mode = periodic
nodes = 8
""")
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "config error: bad [flow] grid: a 2-D torus grid" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("epochs, depth", [(1, 10), (2, 12), (3, 14)])
def test_window_with_no_node_to_monitor_exits_2(tmp_path, capsys, monkeypatch, epochs,
                                                depth):
    """A 20 x 20 cone2d window at spacing 0.04 run to T = 0.004 has no node at
    its last epoch's monitor depth: a config error before the first step,
    naming the depth and the grid, reported without a traceback."""
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "flow.ini"
    cfg.write_text(f"""
[experiment]
kind = flow-run

[potential]
name = cone2d

[flow]
mode = frozen-window
nodes = 20
origin_x = 1.0
origin_y = -0.3
spacing = 0.04
time = 0.004
epochs = {epochs}
""")
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert (f"config error: bad [flow] run: the last epoch's monitor depth, {depth} nodes, "
            f"leaves no node of the 20 x 20 window") in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, message", [
    (b"[experiment]\nkind = flow-run\n[potential]\nname = cone2d\n"
     b"[flow]\nmode = periodic\nnodes = 8\n",
     "bad [flow] grid: periodic mode needs a quadratic-plus-periodic potential"),
    (b"[experiment]\nkind = certify\n[potential]\nname = log_barrier\n"
     b"[certify]\nquantity = ORTH_ABC\ncount = 2\n",
     "bad [certify] parameters: ORTH_ABC needs orthogonal pairs")],
    ids=["periodic-cone2d", "orth-abc-n1"])
def test_a_mode_or_quantity_the_potential_cannot_take_exits_2(tmp_path, monkeypatch, capsys,
                                                              text, message):
    """Periodic mode evolves the periodic part of quadratic_plus_periodic, and
    n = 1 has no orthogonal pairs: either asked of another potential is a
    config error, reported without a traceback."""
    code, err = _run_file(tmp_path, monkeypatch, capsys, text)
    assert code == 2
    assert err.startswith("config error: " + message)
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind, potential, section, key, value", [
    ("curvature-scan", "cone2d", "scan", "count", "-1"),
    ("curvature-scan", "cone2d", "scan", "seed", "-1"),
    ("certify", "cone2d", "certify", "seed", "-3"),
    ("null-vector-suite", "cone2d", "suite", "dims", "0"),
    ("trace-suite", "cone2d", "suite", "max_dim", "0"),
    ("flow-run", "quadratic_plus_periodic", "flow", "epochs", "0"),
    ("flow-run", "quadratic_plus_periodic", "flow", "sample_per_axis", "0"),
    # the window sign probe, once the kr-probe kind, keeps its case names
    pytest.param("flow-run", "radial_sym", "flow", "epochs", "0",
                 id="kr-probe-radial_sym-probe-epochs-0"),
    ("trace-suite", "cone2d", "suite", "trials", "-5"),
    ("trace-suite", "cone2d", "suite", "seed", "-2"),
    ("null-vector-suite", "cone2d", "suite", "seed", "-1"),
    ("null-vector-suite", "cone2d", "suite", "trials", "0"),
    ("null-vector-suite", "cone2d", "suite", "probe_trials", "0"),
    ("berger-suite", "cone2d", "suite", "seed", "-4"),
    ("flow-run", "quadratic_plus_periodic", "flow", "time", "0"),
    ("flow-run", "quadratic_plus_periodic", "flow", "lambda", "0.3"),
    pytest.param("flow-run", "radial_sym", "flow", "spacing", "0",
                 id="kr-probe-radial_sym-probe-spacing-0"),
    pytest.param("flow-run", "radial_sym", "flow", "time", "0",
                 id="kr-probe-radial_sym-probe-epsilon-0"),
    ("flow-run", "quadratic_plus_periodic", "potential", "quad", "2"),
    ("curvature-scan", "cone2d", "scan", "extent", "-1"),
    ("certify", "cone2d", "certify", "extent", "0"),
    ("ot-experiment", "radial_sym", "ot", "alpha", "inf"),
    ("ode-run", "cone2d", "ode", "tolerance", "inf"),
    ("flow-run", "quadratic_plus_periodic", "flow", "assert_chen_above", "nan"),
    ("flow-run", "quadratic_plus_periodic", "flow", "assert_abc_max_below", "inf"),
    ("flow-run", "quadratic_plus_periodic", "flow", "nodes", "0"),
    pytest.param("flow-run", "radial_sym", "flow", "nodes", "4",
                 id="kr-probe-radial_sym-probe-nodes-4")])
def test_unusable_counts_seeds_and_flags_exit_2(tmp_path, capsys, monkeypatch,
                                                kind, potential, section, key, value):
    """A value an experiment cannot use is a config error, reported without
    a traceback.  The flow is the unnormalized one, so [flow] lambda is
    refused.  No float key takes nan or inf, a given extent is > 0, a window
    needs 5 nodes per axis (a node inside its ring of 2) and a torus at
    least 1.  A flow on radial_sym runs on a frozen window."""
    monkeypatch.chdir(tmp_path)
    required = {"certify": {"quantity": "ABC"}, "flow": {"nodes": "8"}}
    if potential == "radial_sym":
        required["flow"].update({"mode": "frozen-window", "origin_x": "0.35",
                                 "origin_y": "-0.55", "spacing": "0.028"})
    sections = {"experiment": {"kind": kind}, "potential": {"name": potential}}
    sections.setdefault(section, {}).update({**required.get(section, {}), key: value})
    cfg = tmp_path / "bad.ini"
    cfg.write_text("".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                           for name, keys in sections.items()))
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "config error: " in err and key in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind, section", [("flow-run", "flow"), ("ot-experiment", "ot")])
def test_one_dimensional_potential_on_a_flow_window_exits_2(tmp_path, capsys, monkeypatch,
                                                            kind, section):
    """flow-run and ot-experiment build 2-D windows; a 1-D potential on one
    is a config error, reported without a traceback.  ot-experiment has no
    mode key: its grid is always a window."""
    monkeypatch.chdir(tmp_path)
    mode = "mode = frozen-window\n" if kind == "flow-run" else ""
    cfg = tmp_path / "flow.ini"
    cfg.write_text(f"""
[experiment]
kind = {kind}

[potential]
name = log_barrier

[{section}]
{mode}nodes = 8
origin_x = 0.5
origin_y = 0.5
spacing = 0.01
""")
    assert main(["run", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert (f"config error: bad [{section}] grid: a 2-D window grid for a potential "
            f"in n = 1") in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


# the smallest config of each kind that exits 0, and the numeric keys the kind
# reads from it, by section: the section's keys and its potential's
SMALLEST = {
    "curvature-scan": ({"potential": {"name": "calabi_ball"}, "scan": {"count": 1}},
                       {"scan": ("count", "seed", "extent"),
                        "potential": ("n", "margin")}),
    "certify": ({"potential": {"name": "cone2d"},
                 "certify": {"quantity": "ABC", "count": 1}},
                {"certify": ("count", "seed", "extent"), "potential": ("margin",)}),
    "flow-run": ({"potential": {"name": "quadratic_plus_periodic"},
                  "flow": {"nodes": 8, "time": 1e-3, "epochs": 1, "sample_per_axis": 1}},
                 {"flow": ("nodes", "time", "epochs", "sample_per_axis",
                           "assert_abc_max_below", "assert_orth_min_above",
                           "assert_chen_above", "assert_stationary_below", "origin_x",
                           "origin_y", "spacing"),
                  "potential": ("n", "amplitude", "wave", "quad")}),
    "ode-run": ({"ode": {"time": 0.01}}, {"ode": ("a0", "time", "dt", "tolerance")}),
    "null-vector-suite": ({"suite": {"trials": 1, "seed": 0, "probe_trials": 2}},
                          {"suite": ("trials", "seed", "dims", "probe_trials")}),
    "trace-suite": ({"suite": {"trials": 1}}, {"suite": ("trials", "seed", "max_dim")}),
    "berger-suite": ({}, {"suite": ("seed",)}),
    "ot-experiment": ({"potential": {"name": "radial_sym"},
                       "ot": {"points": 2, "times": "0"}},
                      {"ot": ("seed", "points", "alpha", "times", "nodes", "origin_x",
                              "origin_y", "spacing"),
                       "potential": ("n", "C", "margin")}),
}


# the window sign probe, once the kr-probe kind: a frozen-window flow-run on
# radial_sym that asserts ORTH_ABC_min >= -1e-6.  Its sweep cases keep their
# kr-probe names, [probe] <old key>, for the [flow] key that took its place
SIGN_PROBE = {"potential": {"name": "radial_sym"},
              "flow": {"mode": "frozen-window", "nodes": 12, "origin_x": 0.35,
                       "origin_y": -0.55, "spacing": 0.028, "time": 1e-5, "epochs": 1,
                       "sample_per_axis": 5, "assert_orth_min_above": -1e-6}}
PROBE_KEYS = {("probe", "epsilon"): ("flow", "time"), ("probe", "nodes"): ("flow", "nodes"),
              ("probe", "origin_x"): ("flow", "origin_x"),
              ("probe", "origin_y"): ("flow", "origin_y"),
              ("probe", "spacing"): ("flow", "spacing"), ("probe", "epochs"): ("flow", "epochs"),
              **{("potential", key): ("potential", key) for key in ("n", "C", "margin")}}


def _sweep_cases():
    for kind, (base, keys) in SMALLEST.items():
        yield pytest.param(kind, base, None, None, None, id=f"{kind}-None-None-None")
        for section, names in keys.items():
            for key in names:
                for value in ("nan", "inf"):
                    yield pytest.param(kind, base, section, key, value,
                                       id=f"{kind}-{section}-{key}-{value}")
    yield pytest.param("flow-run", SIGN_PROBE, None, None, None, id="kr-probe-None-None-None")
    for (old_section, old_key), (section, key) in PROBE_KEYS.items():
        for value in ("nan", "inf"):
            yield pytest.param("flow-run", SIGN_PROBE, section, key, value,
                               id=f"kr-probe-{old_section}-{old_key}-{value}")


@pytest.mark.parametrize("kind, base, section, key, value", list(_sweep_cases()))
def test_nan_or_inf_in_a_numeric_key_never_passes(tmp_path, capsys, kind, base, section,
                                                  key, value):
    """Each numeric key of the smallest config of each kind, and of the
    window sign probe, set to nan and then to inf one at a time, is a config
    error (exit 2), never a run that passes or fails later, and never a
    traceback.  The config as it stands exits 0 (key None), so no case
    passes for want of a usable config."""
    data = {"experiment": {"kind": kind}}
    data.update((name, dict(keys)) for name, keys in base.items())
    if key is not None:
        data.setdefault(section, {})[key] = value
    code = run_config(Config.from_dict(data), tmp_path)
    assert code == (0 if key is None else 2)
    assert "Traceback" not in capsys.readouterr().err


def test_smallest_lists_every_numeric_key_of_its_kind():
    """The nan/inf sweep covers every numeric key that _KEYS declares for a
    kind, and every numeric parameter of the kind's smallest potential."""
    for kind, (base, keys) in SMALLEST.items():
        table = dict(_KEYS[kind])
        if "potential" in table:
            table["potential"] = _potential_keys(base["potential"]["name"])
        for section, specs in table.items():
            numeric = {key for key, (parse, _, _) in specs.items()
                       if parse in (int, float, _ints, _floats)}
            assert numeric <= set(keys.get(section, ())), (kind, section)


def test_every_verify_all_config_passes_the_checker():
    for name, data in _verify_all_experiments():
        checked = _checked(Config.from_dict(data))
        assert checked["experiment"]["kind"] == data["experiment"]["kind"], name


def _run_file(tmp_path, monkeypatch, capsys, text: bytes):
    """Exit code and stderr of `hesselab run` on a config file written in
    tmp_path, the working directory (the default [output] dir is ./out)."""
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "run.ini"
    cfg.write_bytes(text)
    code = main(["run", str(cfg)])
    return code, capsys.readouterr().err


# a misspelt or misplaced section, key or value, each once silently ignored or
# reported without the key: (config, words the message must contain)
@pytest.mark.parametrize("text, words", [
    ("[experiment]\nkind = ode-run\n[ode]\ntme = 5.0\n", ("[ode] tme", "time")),
    ("[experiment]\nkind = ode-run\n[odee]\ntime = 5.0\n", ("[odee]", "[ode]")),
    ("[experiment]\nkind = trace-suite\n[suite]\ntrials = 1\ndims = 2 3\n",
     ("[suite] dims",)),
    ("[experiment]\nkind = certify\n[potential]\nname = cone2d\n[certify]\n"
     "quantity = ABC\ncount = 1\nexpect = NONPOSTIVE\n",
     ("[certify] expect", "NONPOSITIVE", "NONNEGATIVE", "MIXED", "DEGENERATE")),
    ("[experiment]\nkind = flow-run\n[potential]\nname = quadratic_plus_periodic\n"
     "[flow]\nnodes = 8\nmode = perodic\n",
     ("[flow] mode", "'periodic'", "'frozen-window'")),
    ("[experiment]\nkind = certify\n[potential]\nname = cone2d\nmargn = 0.1\n"
     "[certify]\nquantity = ABC\ncount = 1\n", ("[potential] margn", "margin")),
    # berger-suite averages by a fixed sphere rule: it draws no count of points
    ("[experiment]\nkind = berger-suite\n[suite]\nseed = 9\ncount = 20000\n",
     ("unknown key [suite] count",)),
])
def test_unknown_or_misspelt_config_exits_2_naming_the_key(tmp_path, monkeypatch, capsys,
                                                           text, words):
    code, err = _run_file(tmp_path, monkeypatch, capsys, text.encode())
    assert code == 2
    assert err.startswith("config error: ")
    for word in words:
        assert word in err
    assert "Traceback" not in err and "TypeError" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text", [
    b"[experiment]\nkind = ode-run\nkind = trace-suite\n",
    b"[experiment]\nkind = ode-run\n[experiment]\nkind = ode-run\n",
    b"kind = ode-run\n[experiment]\nkind = ode-run\n",
    b"[experiment]\nkind = certify\n[potential]\nname = cone2d\n"
    b"[certify]\nquantity = ABC\ncount = 1\nseed = 3%x\n",
    b"[experiment]\nkind = ode-run\n[ode]\ntime = 0.01 \xff\n",
], ids=["repeated-key", "repeated-section", "no-section-header", "percent", "not-utf-8"])
def test_malformed_config_file_exits_2(tmp_path, monkeypatch, capsys, text):
    """A file configparser or UTF-8 cannot read is a config error, without a
    traceback; "%" is an ordinary character, so a "%" in a number is a bad
    value."""
    code, err = _run_file(tmp_path, monkeypatch, capsys, text)
    assert code == 2
    assert err.startswith("config error: ")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_percent_in_a_value_is_read_literally(tmp_path, monkeypatch, capsys):
    code, err = _run_file(tmp_path, monkeypatch, capsys, b"[experiment]\nkind = ode-run\n"
                          b"[ode]\ntime = 0.01\n[output]\ndir = out%x\n")
    assert (code, err) == (0, "")
    assert (tmp_path / "out%x" / "ode_run.csv").exists()


@pytest.mark.parametrize("mode, window, message", [
    ("periodic", {"spacing": "0.1"}, "periodic mode got spacing"),
    ("frozen-window", {"origin_x": "0.5", "origin_y": "0.5"},
     "frozen-window mode got origin_x, origin_y")])
def test_flow_window_keys_follow_the_mode(tmp_path, capsys, mode, window, message):
    """The window keys are required in frozen-window mode and refused in
    periodic mode, where they were once dropped silently."""
    cfg = Config.from_dict({"experiment": {"kind": "flow-run"},
                            "potential": {"name": "quadratic_plus_periodic"},
                            "flow": {"mode": mode, "nodes": 8, **window}})
    assert run_config(cfg, tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "[flow] origin_x, origin_y, spacing are required" in err and message in err
    assert not (tmp_path / "out").exists()


# -- config fuzzer -------------------------------------------------------------

# keys a draw leaves as SMALLEST has them: the window keys go with the mode (a
# check of two keys); [potential] too, whose parameters the constructors check
HELD = {"flow": ("mode", "origin_x", "origin_y", "spacing")}
NAMES = st.from_regex(r"[a-z][a-z_]{0,11}", fullmatch=True)


def _text(value) -> str:
    if isinstance(value, list):
        return " ".join(map(_text, value))
    return repr(value) if isinstance(value, float) else str(value)


def _near(parse, rule, base):
    """Values in range, near the smallest config's value base."""
    if isinstance(rule, tuple):
        return st.sampled_from(rule)
    if parse in (int, _ints):  # every count has a bound ">= b"
        low = int(rule.split()[1])
        counts = st.integers(low, low + 2)
        return counts if parse is int else st.lists(counts, min_size=1, max_size=3)
    if parse is _floats:  # [ot] times: 0, then a few flow times
        return st.lists(st.floats(0.0, 1e-3), max_size=2).map(lambda ts: [0.0, *ts])
    if base is None and rule:  # an optional key with a bound: a value past it
        base = float(rule.split()[1]) + 1.0
    if base is None:
        return st.floats(-1.0, 1.0)
    return st.floats(min(base / 2, base), max(base / 2, base))


def _outside(parse, rule):
    """Values no config may give the key: out of range, unparsable or not finite."""
    bad = [st.just("x1")] if parse is not str else []
    if isinstance(rule, tuple):
        bad.append(NAMES.filter(lambda v: v not in rule))
    elif parse in (float, _floats):
        bad.append(st.sampled_from(["nan", "inf", "-inf"]))
    if isinstance(rule, str):
        op, bound = rule.split()
        if parse in (int, _ints):
            bad.append(st.integers(int(bound) - 3, int(bound) - (op == ">=")).map(_text))
        else:
            bad.append(st.floats(float(bound) - 1.0, float(bound),
                                 exclude_max=op == ">=").map(_text))
    return st.one_of(bad)


@settings(max_examples=200)
@given(st.data())
def test_config_fuzzer(data):
    """Configs drawn from _KEYS around the smallest config of each kind: an
    unknown section or key, or a value out of range, exits 2 and names it;
    values in range exit 0 or 1; nothing escapes as an exception."""
    kind = data.draw(st.sampled_from(sorted(SMALLEST)), label="kind")
    base, _ = SMALLEST[kind]
    sections = {"experiment": {"kind": kind}}
    sections.update((name, dict(keys)) for name, keys in base.items())
    table = {name: specs for name, specs in _KEYS[kind].items()
             if name not in ("experiment", "output", "potential")}
    keys = [(name, key) for name, specs in table.items() for key in specs
            if key not in HELD.get(name, ())]
    case = data.draw(st.sampled_from(["unknown section", "unknown key", "outside", "near"]),
                     label="case")
    if case == "unknown section":
        name = data.draw(NAMES.filter(lambda n: n not in _KEYS[kind]), label="section")
        sections[name] = {"count": "1"}
        words = (f"unknown section [{name}]",)
    elif case == "unknown key":
        name = data.draw(st.sampled_from(sorted(sections)), label="section")
        known = (_potential_keys(sections["potential"]["name"]) if name == "potential"
                 else _KEYS[kind][name])
        key = data.draw(NAMES.filter(lambda k: k not in known), label="key")
        sections[name][key] = "1"
        words = (f"unknown key [{name}] {key}",)
    elif case == "outside":
        name, key = data.draw(st.sampled_from(keys), label="key")
        parse, _, rule = table[name][key]
        sections.setdefault(name, {})[key] = data.draw(_outside(parse, rule), label="value")
        words = (f"[{name}] {key}",)
    else:
        for name, key in data.draw(st.lists(st.sampled_from(keys), min_size=1, max_size=3,
                                            unique=True), label="keys"):
            parse, default, rule = table[name][key]
            value = data.draw(_near(parse, rule, base.get(name, {}).get(key, default)),
                              label=key)
            sections.setdefault(name, {})[key] = _text(value)
        words = ()
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        sections["output"] = {"dir": str(out)}
        cfg = Path(tmp) / "fuzz.ini"
        cfg.write_text("".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                               for name, keys in sections.items()))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["run", str(cfg)])
        if case == "near":
            assert code in (0, 1), err.getvalue()
        else:
            assert code == 2 and not out.exists()
            assert all(word in err.getvalue() for word in words), err.getvalue()

import numpy as np
import pytest

from conftest import write_grid_file
from hesselab.cli import Config, main, run_config
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


# each line exactly as flow-run printed it when each assert key had its own branch
@pytest.mark.parametrize("key, bound, code, line", [
    ("assert_abc_max_below", "0.001", 0,
     "  ABC_max worst 7.629760867322588e-05 <= 0.001: True"),
    ("assert_abc_max_below", "1e-05", 1,
     "  ABC_max worst 7.629760867322588e-05 <= 1e-05: False"),
    ("assert_orth_min_above", "-3.0", 0,
     "  ORTH_ABC_min worst -2.378609541085708 >= -3.0: True"),
    ("assert_orth_min_above", "-2.0", 1,
     "  ORTH_ABC_min worst -2.378609541085708 >= -2.0: False"),
    ("assert_chen_above", "2.5", 0,
     "  chen_residual worst 2.907217800526917 >= 2.5: True"),
    ("assert_chen_above", "3.0", 1,
     "  chen_residual worst 2.907217800526917 >= 3.0: False"),
    ("assert_stationary_below", "0.001", 0,
     "  potential drift 0.00013574696608663513 <= 0.001: True"),
    ("assert_stationary_below", "0.0001", 1,
     "  potential drift 0.00013574696608663513 <= 0.0001: False"),
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
        "flow quadratic_plus_periodic mode=periodic T=0.002: 4 epochs",
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


@pytest.mark.parametrize("kind, potential, section, key, value", [
    ("curvature-scan", "cone2d", "scan", "count", "-1"),
    ("curvature-scan", "cone2d", "scan", "seed", "-1"),
    ("certify", "cone2d", "certify", "seed", "-3"),
    ("null-vector-suite", "cone2d", "suite", "dims", "0"),
    ("trace-suite", "cone2d", "suite", "max_dim", "0"),
    ("flow-run", "quadratic_plus_periodic", "flow", "epochs", "0"),
    ("flow-run", "quadratic_plus_periodic", "flow", "sample_per_axis", "0"),
    ("kr-probe", "radial_sym", "probe", "epochs", "0"),
    ("kr-probe", "radial_sym", "probe", "expect_regular", "ture"),
    ("trace-suite", "cone2d", "suite", "trials", "-5"),
    ("trace-suite", "cone2d", "suite", "seed", "-2"),
    ("null-vector-suite", "cone2d", "suite", "seed", "-1"),
    ("null-vector-suite", "cone2d", "suite", "trials", "0"),
    ("null-vector-suite", "cone2d", "suite", "probe_trials", "0"),
    ("berger-suite", "cone2d", "suite", "seed", "-4"),
    ("berger-suite", "cone2d", "suite", "count", "0"),
    ("flow-run", "quadratic_plus_periodic", "flow", "time", "0"),
    ("flow-run", "quadratic_plus_periodic", "flow", "lambda", "0.3"),
    ("kr-probe", "radial_sym", "probe", "spacing", "0"),
    ("kr-probe", "radial_sym", "probe", "epsilon", "0"),
    ("flow-run", "quadratic_plus_periodic", "potential", "quad", "2"),
    ("curvature-scan", "cone2d", "scan", "extent", "-1"),
    ("certify", "cone2d", "certify", "extent", "0"),
    ("ot-experiment", "radial_sym", "ot", "alpha", "inf"),
    ("ode-run", "cone2d", "ode", "tolerance", "inf"),
    ("flow-run", "quadratic_plus_periodic", "flow", "assert_chen_above", "nan"),
    ("flow-run", "quadratic_plus_periodic", "flow", "assert_abc_max_below", "inf"),
    ("flow-run", "quadratic_plus_periodic", "flow", "nodes", "0"),
    ("kr-probe", "radial_sym", "probe", "nodes", "4")])
def test_unusable_counts_seeds_and_flags_exit_2(tmp_path, capsys, monkeypatch,
                                                kind, potential, section, key, value):
    """A value an experiment cannot use is a config error, reported without
    a traceback; a boolean is one of 1/true/yes/on or 0/false/no/off.  The
    flow is the unnormalized one, so [flow] lambda is refused.  No float key
    takes nan or inf, a given extent is > 0, a window needs 5 nodes per axis
    (a node inside its ring of 2) and a torus at least 1."""
    monkeypatch.chdir(tmp_path)
    required = {"certify": {"quantity": "ABC"}, "flow": {"nodes": "8"},
                "probe": {"origin_x": "0.35", "origin_y": "-0.55", "spacing": "0.028",
                          "nodes": "8"}}
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


@pytest.mark.parametrize("kind, section", [("flow-run", "flow"), ("kr-probe", "probe")])
def test_one_dimensional_potential_on_a_flow_window_exits_2(tmp_path, capsys, monkeypatch,
                                                            kind, section):
    """flow-run and kr-probe build 2-D windows; a 1-D potential on one is a
    config error, reported without a traceback."""
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "flow.ini"
    cfg.write_text(f"""
[experiment]
kind = {kind}

[potential]
name = log_barrier

[{section}]
mode = frozen-window
nodes = 8
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
                           "assert_chen_above", "assert_stationary_below"),
                  "potential": ("n", "amplitude", "wave", "quad")}),
    "kr-probe": ({"potential": {"name": "radial_sym"},
                  "probe": {"epsilon": 1e-5, "nodes": 12, "origin_x": 0.35,
                            "origin_y": -0.55, "spacing": 0.028, "epochs": 1}},
                 {"probe": ("epsilon", "nodes", "origin_x", "origin_y", "spacing",
                            "epochs"),
                  "potential": ("n", "C", "margin")}),
    "ode-run": ({"ode": {"time": 0.01}}, {"ode": ("a0", "time", "dt", "tolerance")}),
    "null-vector-suite": ({"suite": {"trials": 1, "seed": 0, "probe_trials": 2}},
                          {"suite": ("trials", "seed", "dims", "probe_trials")}),
    "trace-suite": ({"suite": {"trials": 1}}, {"suite": ("trials", "seed", "max_dim")}),
    "berger-suite": ({"suite": {"count": 200}}, {"suite": ("seed", "count")}),
    "ot-experiment": ({"potential": {"name": "radial_sym"},
                       "ot": {"points": 2, "times": "0"}},
                      {"ot": ("seed", "points", "alpha", "times", "nodes", "origin_x",
                              "origin_y", "spacing"),
                       "potential": ("n", "C", "margin")}),
}


def _sweep_cases():
    for kind, (_, keys) in SMALLEST.items():
        yield kind, None, None, None
        for section, names in keys.items():
            for key in names:
                for value in ("nan", "inf"):
                    yield kind, section, key, value


@pytest.mark.parametrize("kind, section, key, value", list(_sweep_cases()))
def test_nan_or_inf_in_a_numeric_key_never_passes(tmp_path, capsys, kind, section, key,
                                                  value):
    """Each numeric key of the smallest config of each kind, set to nan and
    then to inf one at a time, is a config error (exit 2), never a run that
    passes or fails later, and never a traceback.  The config as it stands
    exits 0 (key None), so no case passes for want of a usable config."""
    base, _ = SMALLEST[kind]
    data = {"experiment": {"kind": kind}}
    data.update((name, dict(keys)) for name, keys in base.items())
    if key is not None:
        data.setdefault(section, {})[key] = value
    code = run_config(Config.from_dict(data), tmp_path)
    assert code == (0 if key is None else 2)
    assert "Traceback" not in capsys.readouterr().err

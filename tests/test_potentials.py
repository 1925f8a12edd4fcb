import numpy as np
import pytest

from conftest import (ConcaveQuadratic, is_fully_symmetric, quadratic,
                      ref_box_inside, write_grid_file)
from hesselab.errors import (BadGridFile, BadParams, NotConvexHere, OutOfDomain,
                             UnknownName)
from hesselab.jets import fd_jet
from hesselab.potentials import (CATALOG_NAMES, GridPotential, catalog,
                                 read_grid_file)


def test_log_barrier_jet_values():
    handle = catalog("log_barrier")
    jet = handle.jet(np.array([1.0]))
    assert jet.gradient[0] == pytest.approx(-1.0, abs=1e-14)
    assert jet.hessian[0, 0] == pytest.approx(1.0, abs=1e-14)
    assert jet.third[0, 0, 0] == pytest.approx(-2.0, abs=1e-14)
    assert jet.fourth[0, 0, 0, 0] == pytest.approx(6.0, abs=1e-14)


def test_calabi_origin_jet():
    handle = catalog("calabi_ball", n=2)
    jet = handle.jet(np.zeros(2))
    assert jet.value == pytest.approx(0.0, abs=1e-15)
    assert np.allclose(jet.gradient, 0.0)
    assert np.allclose(jet.hessian, 2.0 * np.eye(2))
    assert np.allclose(jet.third, 0.0)
    assert jet.fourth[0, 0, 0, 0] == pytest.approx(12.0, abs=1e-12)
    assert jet.fourth[0, 0, 1, 1] == pytest.approx(4.0, abs=1e-12)
    assert jet.fourth[0, 1, 1, 1] == pytest.approx(0.0, abs=1e-12)
    assert jet.fourth[1, 1, 1, 1] == pytest.approx(12.0, abs=1e-12)


def test_quadratic_jets_vanish():
    handle = quadratic(3)
    rng = np.random.default_rng(0)
    for _ in range(3):
        jet = handle.jet(rng.uniform(0, 1, size=3))
        assert np.allclose(jet.hessian, np.eye(3))
        assert not jet.third.any()
        assert not jet.fourth.any()


@pytest.mark.parametrize("name,point", [
    ("calabi_ball", np.array([0.31, -0.22])),
    ("cone2d", np.array([1.4, 0.6])),
    ("radial_sym", np.array([0.9, -0.5])),
    ("bidisk_trig", np.array([0.4, -0.3])),
    ("bidisk_product", np.array([0.8, 1.7])),
    ("quadratic_plus_periodic", np.array([0.37, 0.81])),
])
def test_closed_form_jets_match_stencils(name, point):
    kwargs = {"amplitude": 0.3} if name == "quadratic_plus_periodic" else {}
    handle = catalog(name, **kwargs)
    jet = handle.jet(point)
    ref = fd_jet(lambda x: handle._value(x), point, h=0.004)
    scale = 1.0 + np.abs(jet.fourth).max()
    assert np.abs(jet.gradient - ref.gradient).max() < 1e-4 * scale
    assert np.abs(jet.hessian - ref.hessian).max() < 1e-4 * scale
    assert np.abs(jet.third - ref.third).max() < 2e-4 * scale
    assert np.abs(jet.fourth - ref.fourth).max() < 5e-4 * scale


def test_jet_tensor_symmetry_random_points():
    rng = np.random.default_rng(2)
    handle = catalog("calabi_ball", n=3)
    for _ in range(3):
        x = rng.uniform(-0.3, 0.3, size=3)
        jet = handle.jet(x)
        assert is_fully_symmetric(jet.third)
        assert is_fully_symmetric(jet.fourth)
        # spot-check a random permutation pair bitwise
        idx = tuple(rng.integers(0, 3, size=4))
        perm = tuple(idx[i] for i in rng.permutation(4))
        assert jet.fourth[idx] == jet.fourth[perm]


def test_fd_convergence_order():
    """Observed order of the stencil jets on a halving sequence, within 0.5 of 2."""
    handle = catalog("calabi_ball", n=2)
    x = np.array([0.3, 0.1])
    exact = handle.jet(x)
    hs = [0.16, 0.08, 0.04, 0.02]
    errs = []
    for h in hs:
        approx = fd_jet(lambda p: handle._value(p), x, h)
        errs.append(max(
            np.abs(approx.hessian - exact.hessian).max(),
            np.abs(approx.third - exact.third).max(),
            np.abs(approx.fourth - exact.fourth).max(),
        ))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(len(hs) - 1)]
    assert abs(np.median(orders) - 2.0) < 0.5


@pytest.mark.parametrize("name", ["calabi_ball", "radial_sym"])
def test_rotational_covariance(name):
    handle = catalog(name) if name == "radial_sym" else catalog(name, n=2)
    theta = 0.7
    R = np.array([[np.cos(theta), -np.sin(theta)],
                  [np.sin(theta), np.cos(theta)]])
    x = np.array([0.45, 0.1])
    j1 = handle.jet(x)
    j2 = handle.jet(R @ x)
    # psi(R x) = psi(x) for these potentials: jets transform by R factors
    assert j2.value == pytest.approx(j1.value, abs=1e-12)
    assert np.abs(R.T @ j2.gradient - j1.gradient).max() < 1e-9
    assert np.abs(R.T @ j2.hessian @ R - j1.hessian).max() < 1e-9
    t3 = np.einsum("abc,ai,bj,ck->ijk", j2.third, R, R, R)
    t4 = np.einsum("abcd,ai,bj,ck,dl->ijkl", j2.fourth, R, R, R, R)
    assert np.abs(t3 - j1.third).max() < 1e-9
    assert np.abs(t4 - j1.fourth).max() < 1e-9


def test_domain_errors():
    handle = catalog("calabi_ball", n=2)
    with pytest.raises(OutOfDomain):
        handle.jet(np.array([0.999, 0.0]))  # violates the margin
    with pytest.raises(OutOfDomain):
        handle.jet(np.array([1.5, 0.0]))
    cone = catalog("cone2d")
    with pytest.raises(OutOfDomain):
        cone.jet(np.array([0.5, 0.8]))


def test_not_convex_here():
    with pytest.raises(NotConvexHere):
        ConcaveQuadratic().jet(np.array([0.2, 0.1]))


def test_catalog_errors():
    with pytest.raises(UnknownName):
        catalog("no_such_potential")
    with pytest.raises(BadParams):
        catalog("radial_sym", C=-1.0)
    with pytest.raises(BadParams):
        catalog("radial_sym", C=0.0)
    with pytest.raises(BadParams):
        catalog("quadratic_plus_periodic", amplitude=1.5)


def test_catalog_covers_required_names():
    for name in CATALOG_NAMES:
        if name == "grid":
            continue
        handle = catalog(name)
        assert handle.name == name


def test_cone_domain_matches_construction():
    cone = catalog("cone2d")
    assert cone.domain.contains(np.array([1.0, 0.5]))
    assert cone.domain.contains(np.array([-2.0, 1.2]))
    assert not cone.domain.contains(np.array([0.5, 0.6]))


def test_quadratic_plus_periodic_zero_amplitude_matches_quadratic():
    qpp = catalog("quadratic_plus_periodic", amplitude=0.0)
    q = quadratic(2)
    rng = np.random.default_rng(5)
    for _ in range(3):
        x = rng.uniform(0, 1, size=2)
        j1, j2 = qpp.jet(x), q.jet(x)
        assert j1.value == pytest.approx(j2.value, abs=1e-15)
        assert np.array_equal(j1.hessian, j2.hessian)
        assert np.array_equal(j1.fourth, j2.fourth)


def test_truncated_grid_file_raises(tmp_path):
    path = tmp_path / "short.grid"
    write_grid_file(path, np.array([0.0, 0.0]), 0.1, np.arange(12.0).reshape(3, 4))
    text = path.read_text()
    path.write_text(text[:text.rindex(" ")] + "\n")  # drop the last value
    with pytest.raises(BadGridFile, match="11 values"):
        read_grid_file(path)
    with pytest.raises(BadGridFile):
        catalog("grid", path=str(path))
    with pytest.raises(BadGridFile, match="cannot read"):
        read_grid_file(tmp_path / "missing.grid")


def test_grid_file_with_a_time_line_is_malformed(tmp_path):
    """The format has no t = <time> line: a file that holds one is refused."""
    path = tmp_path / "timed.grid"
    write_grid_file(path, np.array([0.0, 0.0]), 0.1, np.arange(36.0).reshape(6, 6))
    head, rest = path.read_text().split("\n", 1)
    path.write_text(f"{head}\nt = 0.25\n{rest}")
    with pytest.raises(BadGridFile, match="malformed"):
        read_grid_file(path)


def test_grid_file_roundtrip(tmp_path):
    handle = catalog("calabi_ball", n=2)
    axes = np.linspace(-0.4, 0.4, 41)
    vals = np.array([[handle._value(np.array([a, b])) for b in axes] for a in axes])
    path = tmp_path / "ball.grid"
    write_grid_file(path, np.array([-0.4, -0.4]), axes[1] - axes[0], vals)
    origin, spacing, values = read_grid_file(path)
    assert spacing == axes[1] - axes[0] and np.array_equal(origin, [-0.4, -0.4])
    assert np.array_equal(values, vals)
    grid = GridPotential(origin, spacing, values)
    x = np.array([0.05, -0.1])
    jg = grid.jet(x)
    je = handle.jet(x)
    scale = 1.0 + np.abs(je.fourth).max()
    assert np.abs(jg.hessian - je.hessian).max() < 1e-3 * scale
    assert np.abs(jg.fourth - je.fourth).max() < 2e-2 * scale


def test_grid_catalog_entry(tmp_path):
    axes = np.linspace(0.5, 2.5, 51)
    vals = -np.log(axes)
    path = tmp_path / "bar.grid"
    write_grid_file(path, np.array([0.5]), axes[1] - axes[0], vals)
    handle = catalog("grid", path=str(path))
    jet = handle.jet(np.array([1.0]))
    # second-order truncation at fd spacing 2h dominates the error budget
    assert jet.hessian[0, 0] == pytest.approx(1.0, rel=2e-2)
    assert jet.third[0, 0, 0] == pytest.approx(-2.0, rel=5e-2)


def test_grid_potential_needs_six_nodes_per_axis():
    """The quintic spline needs 6 nodes on each axis and increasing node
    coordinates; fewer nodes or a spacing <= 0 is BadParams."""
    with pytest.raises(BadParams, match="6 nodes"):
        GridPotential(np.array([0.0]), 0.1, np.arange(5.0))
    with pytest.raises(BadParams, match="6 nodes"):
        GridPotential(np.array([0.0, 0.0]), 0.1, np.ones((8, 5)))
    with pytest.raises(BadParams, match="6 nodes"):
        GridPotential(np.array([0.0, 0.0]), 0.1, np.ones((2, 2)))
    for spacing in (0.0, -0.1, np.nan):
        with pytest.raises(BadParams, match="spacing > 0"):
            GridPotential(np.array([0.0, 0.0]), spacing, np.ones((8, 8)))
    GridPotential(np.array([0.0, 0.0]), 0.1, np.ones((6, 6)))


def test_grid_box_check_decides_as_the_row_minimum(monkeypatch):
    """values_at's column-by-column box check judges every row as the row
    minimum of its distances to the box does, on seeded points, NaN rows and
    points exactly at the margin and one float to either side, and sends the
    same first outside row to domain.require."""
    grid = GridPotential(np.array([-0.4, -0.3]), 0.04, np.zeros((21, 16)))
    bounds, margin = grid.domain.params["bounds"], grid.domain.margin
    rng = np.random.default_rng(23)
    rows = [rng.uniform(bounds[:, 0] - 2 * margin, bounds[:, 1] + 2 * margin)
            for _ in range(400)]
    centre = bounds.mean(axis=1)
    for c in range(2):
        for edge in (bounds[c, 0] + margin, bounds[c, 1] - margin):
            for at in (np.nextafter(edge, -np.inf), edge, np.nextafter(edge, np.inf)):
                row = centre.copy()
                row[c] = at
                rows.append(row)
        row = centre.copy()
        row[c] = np.nan
        rows.append(row)
    rows.append(np.full(2, np.nan))
    P = np.array(rows)
    want = ref_box_inside(P, bounds, margin)
    assert 0 < want.sum() < len(P)
    sent = []

    def require(domain, x):
        sent.append(np.array(x))
        raise OutOfDomain("outside")

    monkeypatch.setattr(type(grid.domain), "require", require)
    for row, inside in zip(P, want):
        sent.clear()
        if inside:
            grid.values_at(row[None])
        else:
            with pytest.raises(OutOfDomain):
                grid.values_at(row[None])
        assert len(sent) == (not inside)
    sent.clear()
    with pytest.raises(OutOfDomain):
        grid.values_at(P)
    assert sent[0].tobytes() == P[np.argmin(want)].tobytes()


def test_values_at_is_value_per_row():
    """Batched evaluation equals ``value`` row by row, closed form and grid;
    a row of the wrong length raises the same OutOfDomain."""
    ball = catalog("calabi_ball", n=2)
    axes = np.linspace(-0.4, 0.4, 21)
    grid = GridPotential(np.array([-0.4, -0.4]), axes[1] - axes[0],
                         np.array([[ball.value(np.array([a, b])) for b in axes]
                                   for a in axes]))
    pts = np.array([[0.05, -0.1], [0.0, 0.0], [-0.2, 0.15]])
    for handle in (ball, grid):
        looped = np.array([handle.value(p) for p in pts])
        assert handle.values_at(pts).tobytes() == looped.tobytes()
        with pytest.raises(OutOfDomain, match="expected"):
            handle.values_at(np.zeros((2, 3)))

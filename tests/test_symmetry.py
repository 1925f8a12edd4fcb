"""Orbit-table symmetrizers against the orbit walks they replaced.

The reference functions here and in conftest.py are the earlier orbit-walk
implementations, kept verbatim: the table kernels must reproduce them to the
bit, entries of -0.0 and inf included.  The property tests run under the
derandomized Hypothesis profile registered in conftest.py.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import (ref_class_orbit, ref_mirror_symmetrize, ref_symmetry_defect,
                      seeded_tensors)
from hesselab.curvature import CURVATURE_GROUP, mirror_symmetrize, symmetry_defect
from hesselab.jets import orbit_table, symmetrize
from hesselab.reaction import AlgCurvTensor, canonical_indices, q_quadratic

# -- reference implementations (orbit walks) -----------------------------------


def ref_symmetrize(T):
    T = np.asarray(T, dtype=float)
    k = T.ndim
    n = T.shape[0]
    out = np.empty_like(T)
    for idx in itertools.combinations_with_replacement(range(n), k):
        perms = set(itertools.permutations(idx))
        val = sum(T[p] for p in sorted(perms)) / len(perms)
        for p in perms:
            out[p] = val
    return out


def ref_canonical_indices(n):
    reps = []
    seen = set()
    for idx in itertools.product(range(n), repeat=4):
        if idx in seen:
            continue
        orbit = ref_class_orbit(idx)
        seen |= orbit
        reps.append(min(orbit))
    return sorted(reps)


# -- bitwise agreement with the references --------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_mirror_symmetrize_matches_orbit_walk_bitwise(n):
    for T in seeded_tensors(n, 4):
        with np.errstate(invalid="ignore"):  # inf + -inf
            assert mirror_symmetrize(T).tobytes() == ref_mirror_symmetrize(T).tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_symmetrize_matches_orbit_walk_bitwise(n):
    for k in (1, 2, 3, 4):
        for T in seeded_tensors(n, k):
            with np.errstate(invalid="ignore"):  # inf + -inf
                assert symmetrize(T).tobytes() == ref_symmetrize(T).tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_stacked_symmetrize_equals_each_tensor_bitwise(n):
    """A stack along a leading axis, under the curvature group or the whole
    group of its order-k permutations, gives each tensor's own orbit means
    bit for bit, C-contiguous (einsum's rounding depends on strides)."""
    for k, group in ((4, CURVATURE_GROUP), (2, None), (3, None), (4, None)):
        group = group or tuple(itertools.permutations(range(k)))
        stack = np.stack(seeded_tensors(n, k))
        with np.errstate(invalid="ignore"):  # inf + -inf
            got = symmetrize(stack, group)
            want = np.stack([ref_symmetrize(T) if k < 4 or group != CURVATURE_GROUP
                             else ref_mirror_symmetrize(T) for T in stack])
        assert got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_symmetry_defect_matches_the_three_transposes(n):
    for T in seeded_tensors(n, 4):
        with np.errstate(invalid="ignore"):  # inf - inf
            got, want = symmetry_defect(T), ref_symmetry_defect(T)
        if math.isnan(want):
            assert math.isnan(got)
        else:
            assert np.float64(got).tobytes() == np.float64(want).tobytes()


@pytest.mark.parametrize("pos", [(0, 0, 0, 1), (1, 0, 0, 0), (0, 0, 1, 1)])
def test_symmetry_defect_is_nan_when_a_swap_fixes_an_inf(pos):
    """A single inf entry at an index that the first, second or third swap
    fixes gives inf - inf there; the defect is NaN whichever swap it is."""
    E = np.zeros((2,) * 4)
    E[pos] = np.inf
    with np.errstate(invalid="ignore"):
        assert math.isnan(symmetry_defect(E))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_canonical_indices_match_orbit_walk(n):
    assert canonical_indices(n) == ref_canonical_indices(n)


def test_curvature_group_is_the_closure_of_the_three_swaps():
    idx = (0, 1, 2, 3)
    images = {tuple(idx[p] for p in g) for g in CURVATURE_GROUP}
    assert len(CURVATURE_GROUP) == 8
    assert images == ref_class_orbit(idx)


def test_orbit_table_rows_are_the_orbits():
    for n in (1, 2, 3):
        orbits, owner, sizes = orbit_table(n, 4, CURVATURE_GROUP)
        shape = (n,) * 4
        for r, row in enumerate(orbits):
            members = row[:sizes[r]]
            assert np.all(row[sizes[r]:] == n**4)  # padding is the zero slot
            assert np.all(np.diff(members) > 0)
            assert np.all(owner[members] == r)
            rep = np.unravel_index(members[0], shape)
            orbit = {tuple(int(i) for i in np.unravel_index(f, shape)) for f in members}
            assert orbit == ref_class_orbit(tuple(int(i) for i in rep))
        assert not orbits.flags.writeable and not owner.flags.writeable
        assert orbits.T.flags.c_contiguous  # symmetrize adds its rows in turn


# -- property tests ---------------------------------------------------------------

FINITE = st.floats(-1e6, 1e6, allow_nan=False, width=64)


@st.composite
def tensors(draw, order=None):
    n = draw(st.integers(1, 4))
    k = order if order is not None else draw(st.integers(1, 4))
    return draw(arrays(np.float64, (n,) * k, elements=FINITE))


def groups_for(T):
    if T.ndim == 4:
        return (None, CURVATURE_GROUP)
    return (None,)


@given(tensors())
def test_symmetrize_is_idempotent(T):
    # exact up to the rounding of the orbit sum: adding up m equal members
    # one at a time may move their mean by m rounding errors (m <= 24 here)
    for group in groups_for(T):
        S = symmetrize(T, group)
        np.testing.assert_allclose(symmetrize(S, group), S, rtol=24 * 2.0**-52, atol=0)


@given(tensors())
def test_symmetrize_output_is_bit_invariant_under_its_group(T):
    for group in groups_for(T):
        S = symmetrize(T, group)
        perms = itertools.permutations(range(T.ndim)) if group is None else group
        for g in perms:
            assert np.transpose(S, g).tobytes() == S.tobytes()


@given(tensors(order=4))
def test_q_quadratic_is_bit_exact_in_the_curvature_class(T):
    Q = q_quadratic(AlgCurvTensor(mirror_symmetrize(T))).A
    for g in CURVATURE_GROUP:
        assert np.transpose(Q, g).tobytes() == Q.tobytes()

import json
import math
import random
import re

import pytest

from detindex import (
    CoeffMatrices,
    StrataIndexData,
    chi_bar_hyperplane,
    chi_fiber,
    coeff_matrices,
    isolated_indices,
    ph_index,
    phn_from_radial,
    radial_from_phn,
    smoothable_index,
    stratum_dim,
)
from detindex import conversions
from detindex.cli import run
from detindex.conversions import _ph_sum

from conftest import chi_bar_sum, time_limit


# -- resolution fiber Euler characteristics -------------------------------------

def test_chi_fiber_examples():
    assert chi_fiber(1, 1, 2, 3, 2) == 3
    assert chi_fiber(1, 3, 2, 3, 2) == 6
    for k in (1, 2, 3):
        assert chi_fiber(2, k, 2, 3, 2) == 1  # top stratum: a point


def test_chi_fiber_argument_validation():
    with pytest.raises(ValueError):
        chi_fiber(0, 1, 2, 3, 2)
    with pytest.raises(ValueError):
        chi_fiber(1, 4, 2, 3, 2)


# -- hyperplane section --------------------------------------------------------

def test_chi_bar_hyperplane_examples():
    assert chi_bar_hyperplane(2, 3, 2) == 1
    assert chi_bar_hyperplane(3, 3, 2) == 2
    for m in range(1, 7):
        assert chi_bar_hyperplane(m, m + 2, 1) == -1


def test_chi_bar_hyperplane_matches_alternating_sum():
    for m in range(1, 11):
        for t in range(1, m + 1):
            assert chi_bar_hyperplane(m, m, t) == chi_bar_sum(m, t)


def test_chi_bar_hyperplane_precondition():
    with pytest.raises(ValueError):
        chi_bar_hyperplane(3, 2, 2)


# -- coefficient matrices --------------------------------------------------------

def test_coeff_matrices_232():
    mats = coeff_matrices(2, 3, 2)
    assert mats.nmat == ((1, -1), (0, 1))
    assert mats.mmat == ((1, 1), (0, 1))


def test_coeff_matrices_diagonal_is_one():
    for m in range(1, 7):
        for n in range(m, 7):
            for t in range(1, m + 1):
                mats = coeff_matrices(m, n, t)
                for i in range(t):
                    assert mats.nmat[i][i] == 1
                    assert mats.mmat[i][i] == 1


def test_coeff_matrices_inverse_identity_range():
    for m in range(1, 9):
        for n in range(m, 9):
            for t in range(1, m + 1):
                mats = coeff_matrices(m, n, t)
                for i in range(t):
                    for j in range(t):
                        s = sum(mats.nmat[i][k] * mats.mmat[k][j] for k in range(t))
                        assert s == (1 if i == j else 0)


@pytest.mark.parametrize("nmat, mmat", [
    (((1,),), ((2,),)),
    (((1, -1), (0, 1)), ((1, -1), (0, 1))),  # the 2,3,2 nmat paired with itself, not with its inverse
])
def test_coeff_matrices_reject_a_pair_that_is_not_inverse(nmat, mmat):
    with pytest.raises(AssertionError, match="not inverse to each other"):
        CoeffMatrices(nmat, mmat)


def test_coeff_matrices_check_every_entry():
    # The check reads the band k = i..j of each product entry only after
    # both matrices are found upper triangular, so one wrong entry
    # anywhere, below the diagonal or on or above it, still raises.
    good = coeff_matrices(5, 6, 4)
    for which in ("nmat", "mmat"):
        for i in range(4):
            for j in range(4):
                mats = {"nmat": [list(row) for row in good.nmat], "mmat": [list(row) for row in good.mmat]}
                mats[which][i][j] += 1
                message = "not upper triangular" if i > j else "not inverse to each other"
                with pytest.raises(AssertionError, match=message):
                    CoeffMatrices(tuple(map(tuple, mats["nmat"])), tuple(map(tuple, mats["mmat"])))


def test_coeff_matrices_reject_an_inverse_pair_that_is_not_upper_triangular():
    lower, inverse = ((1, 0), (1, 1)), ((1, 0), (-1, 1))
    with pytest.raises(AssertionError, match="not upper triangular"):
        CoeffMatrices(lower, inverse)


def test_coeff_matrix_entry_via_hyperplane_section():
    # n_ij is the signed reduced Euler characteristic of a hyperplane
    # section of the normal matrix space, with sign from its dimension
    for m in range(2, 6):
        for n in range(m, 6):
            t = m
            mats = coeff_matrices(m, n, t)
            for i in range(1, t + 1):
                for j in range(i, t + 1):
                    d_ij = (m - i + 1) * (n - i + 1) - (m - j + 1) * (n - j + 1)
                    via_section = (-1) ** ((d_ij - 1) % 2) * chi_bar_hyperplane(
                        m - i + 1, n - i + 1, j - i + 1
                    )
                    assert mats.nmat[i - 1][j - 1] == via_section


def test_nmat_133_entry_and_row_product():
    mats = coeff_matrices(3, 3, 3)
    assert mats.nmat[0][2] == 1  # (-1)^{12} * binom(2, 0)
    s = sum(mats.nmat[0][k] * mats.mmat[k][2] for k in range(3))
    assert s == 0


# -- the resolution-index formula ---------------------------------------------------

def test_ph_index_single_stratum_reduction():
    rng = random.Random(41)
    for _ in range(300):
        n = rng.randint(1, 7)
        ambient = rng.randint(1, 9)
        d = stratum_dim(1, n, 1, ambient)
        rad, chi = rng.randint(-9, 9), rng.randint(-9, 9)
        data = StrataIndexData(1, n, 1, ambient, (rad,), (chi,))
        for k in (1, 2, 3):
            assert ph_index(data, k) == smoothable_index(rad, chi - 1, d)


def test_ph_index_node_value():
    data = StrataIndexData(1, 1, 1, 2, (1,), (0,))
    assert ph_index(data, 1) == 2


def test_ph_index_zero_data_leaves_convention_term():
    # all-zero inputs isolate the deepest-stratum convention slot
    data = StrataIndexData(2, 3, 2, 4, (0, 0), (0, 0))
    d = stratum_dim(2, 3, 2, 4)
    for k in (1, 2, 3):
        assert ph_index(data, k) == (-1) ** (d % 2) * (-chi_fiber(1, k, 2, 3, 2))


def test_ph_sum_telescopes_when_fibers_are_trivial():
    dims = (stratum_dim(2, 3, 1, 4), stratum_dim(2, 3, 2, 4))
    for r2 in (-3, 0, 5):
        for c2 in (-2, 0, 7):
            got = _ph_sum(dims, (9, r2), (11, c2), (1, 1))
            sign_top = (-1) ** (dims[1] % 2)
            assert got == sign_top * (sign_top * r2 - 1 + c2)


# -- radial / Nash-bundle conversions -------------------------------------------------

def test_radial_from_phn_single_stratum():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(1, 6)
        ambient = rng.randint(1, 8)
        phn, chibar = rng.randint(-9, 9), rng.randint(-9, 9)
        d = stratum_dim(1, n, 1, ambient)
        got = radial_from_phn([phn], 1, n, 1, ambient, chibar)
        assert got == phn + (-1) ** ((d - 1) % 2) * chibar


def test_radial_from_phn_232_coefficients():
    # n_12 = -1, n_22 = 1
    ambient = 4
    d = stratum_dim(2, 3, 2, ambient)
    for p1, p2, chibar in ((3, 5, 2), (-1, 0, 4), (7, -2, -3)):
        got = radial_from_phn([p1, p2], 2, 3, 2, ambient, chibar)
        assert got == -p1 + p2 + (-1) ** ((d - 1) % 2) * chibar


def test_phn_matches_resolution_index_for_single_stratum():
    rng = random.Random(9)
    for _ in range(200):
        n = rng.randint(1, 6)
        ambient = rng.randint(1, 8)
        rad, chi = rng.randint(-9, 9), rng.randint(-9, 9)
        data = StrataIndexData(1, n, 1, ambient, (rad,), (chi,))
        assert phn_from_radial([rad], [chi - 1], 1, n, 1, ambient) == ph_index(data, 1)


def test_conversion_round_trip_randomized():
    rng = random.Random(17)
    for _ in range(500):
        m = rng.randint(1, 6)
        n = rng.randint(m, 7)
        t = rng.randint(1, m)
        ambient = rng.randint(1, 12)
        rad = [rng.randint(-9, 9) for _ in range(t)]
        chibar = [rng.randint(-9, 9) for _ in range(t)]
        phn = [phn_from_radial(rad[:j], chibar[:j], m, n, j, ambient) for j in range(1, t + 1)]
        assert radial_from_phn(phn, m, n, t, ambient, chibar[-1]) == rad[-1]


def test_conversions_read_the_last_column_of_the_matrices():
    # A unit vector in slot i reads coefficient (i, t): from mmat in
    # phn_from_radial, from nmat in radial_from_phn.
    for n in range(1, 9):
        for m in range(1, n + 1):
            for t in range(1, m + 1):
                mats = coeff_matrices(m, n, t)
                ambient = m * n
                for i in range(1, t + 1):
                    unit = [int(k == i) for k in range(1, t + 1)]
                    assert phn_from_radial(unit, [0] * t, m, n, t, ambient) == mats.mmat[i - 1][t - 1]
                    assert radial_from_phn(unit, m, n, t, ambient, 0) == mats.nmat[i - 1][t - 1]


def test_convert_builds_no_coefficient_matrices(monkeypatch, tmp_path):
    # One column per conversion: no t x t matrix pair is built and checked.
    def refuse(*args):
        raise AssertionError("a conversion built both coefficient matrices")

    monkeypatch.setattr(conversions, "coeff_matrices", refuse)
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"type": [80, 80, 80], "N": 6561, "radial": list(range(80)),
                                "chi": [1] * 80}))
    with time_limit(2):
        assert run(["convert", str(path), "--output", str(tmp_path / "report.json")]) == 0
    result = json.loads((tmp_path / "report.json").read_text())["result"]
    assert result["radial_roundtrip"] == 79 and len(result["phn_per_stratum"]) == 80


# -- isolated non-smoothable case ------------------------------------------------------

def test_isolated_indices_fiber_values_232():
    # reduced fiber Euler characteristics: 2, 1, 5 for the three resolutions
    ph1, _ = isolated_indices(2, 3, 2, 6, 0, 0, 1, 1)
    ph2, _ = isolated_indices(2, 3, 2, 6, 0, 0, 1, 2)
    ph3, _ = isolated_indices(2, 3, 2, 6, 0, 0, 1, 3)
    d = stratum_dim(2, 3, 2, 6)
    assert d == 4
    assert (ph1, ph2, ph3) == (2, 1, 5)
    # and they match the unreduced fiber characteristics minus one
    for k, value in ((1, ph1), (2, ph2), (3, ph3)):
        assert value == (chi_fiber(1, k, 2, 3, 2) - 1)


def test_isolated_indices_degenerate_to_smoothable_formula():
    rng = random.Random(3)
    for _ in range(200):
        m = rng.randint(1, 5)
        n = rng.randint(m, 6)
        t = rng.randint(1, m)
        ambient = (m - t + 2) * (n - t + 2)
        rad, chibar = rng.randint(-9, 9), rng.randint(-9, 9)
        d = stratum_dim(m, n, t, ambient)
        for k in (1, 2, 3):
            ph, phn = isolated_indices(m, n, t, ambient, rad, chibar, 0, k)
            assert ph == smoothable_index(rad, chibar, d)
            assert phn == smoothable_index(rad, chibar, d)


def test_isolated_indices_consistent_with_stratified_formula():
    # feeding the isolated case's stratum data through the general formulas
    # reproduces the reduced ones
    rng = random.Random(29)
    for _ in range(300):
        m = rng.randint(2, 5)
        n = rng.randint(m, 6)
        t = rng.randint(2, m)
        ambient = (m - t + 2) * (n - t + 2)
        if ambient - (m - t + 1) * (n - t + 1) <= 0:
            continue
        rad_t, chi_t = rng.randint(-9, 9), rng.randint(-9, 9)
        chi_sing = rng.randint(0, 9)
        rad = [1] * (t - 1) + [rad_t]
        chi = [0] * (t - 2) + [chi_sing, chi_t]
        data = StrataIndexData(m, n, t, ambient, tuple(rad), tuple(chi))
        chibar = [c - 1 for c in chi]
        for k in (1, 2, 3):
            ph, phn = isolated_indices(m, n, t, ambient, rad_t, chi_t - 1, chi_sing, k)
            assert ph_index(data, k) == ph
            assert phn_from_radial(rad, chibar, m, n, t, ambient) == phn


def test_isolated_indices_precondition():
    with pytest.raises(ValueError):
        isolated_indices(2, 3, 2, 4, 0, 0, 0, 1)


def test_strata_index_data_validation():
    with pytest.raises(ValueError):
        StrataIndexData(2, 3, 2, 4, (1,), (0, 0))
    with pytest.raises(ValueError):
        StrataIndexData(3, 2, 2, 4, (1, 1), (0, 0))


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: coeff_matrices(2, 3, 0), "t must be at least 1", id="coeff-t-zero"),
    pytest.param(lambda: phn_from_radial([1], [0, 3], 2, 3, 2, 6), "radial and chibar vectors must have length t",
                 id="phn-short-radial"),
    pytest.param(lambda: phn_from_radial([1, 3], [0], 2, 3, 2, 6), "radial and chibar vectors must have length t",
                 id="phn-short-chibar"),
    pytest.param(lambda: radial_from_phn([1], 2, 3, 2, 6, 3), "phn vector must have length t", id="radial-short-phn"),
    pytest.param(lambda: isolated_indices(2, 3, 2, 6, 1, 0, 1, 4), "resolution index must be 1, 2 or 3",
                 id="isolated-k-four"),
])
def test_rejected_arguments_name_the_fault(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()

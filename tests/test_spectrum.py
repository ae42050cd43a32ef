import itertools
import math
from fractions import Fraction

import pytest

import bifurcbox as bb
import bifurcbox.spectrum
from bifurcbox.errors import ConfigError, IncompletePrefix, OutOfDomain
from bifurcbox.spectrum import parse_side_sq

from conftest import integrate_box


def brute_force_values(domain, nmax):
    """Enumeration oracle: all mode values with indices up to nmax."""
    vals = []
    for idx in itertools.product(range(1, nmax + 1), repeat=domain.dimension):
        vals.append((domain.mode_value(idx), idx))
    vals.sort()
    return vals


def test_square_first_mode(square):
    modes = bb.enumerate_modes(square, 1)
    assert modes[0].indices == (1, 1)
    assert modes[0].value == Fraction(2)
    assert square.eigenvalue_unit == 1.0  # pi-sided box: lambda_1 = 2


def test_cube_eigenvalue_six_modes(cube):
    modes = [m for m in bb.enumerate_modes(cube, 10) if m.value == 6]
    assert {m.indices for m in modes} == {(1, 1, 2), (1, 2, 1), (2, 1, 1)}


def test_square_eigenvalue_five_modes(square):
    oracle = [idx for v, idx in brute_force_values(square, 5) if v == 5]
    modes = [m for m in bb.enumerate_modes(square, 10) if m.value == 5]
    assert [m.indices for m in modes] == sorted(oracle)
    assert {m.indices for m in modes} == {(1, 2), (2, 1)}


def oracle_domains(square, cube):
    """(domain, nmax) pairs whose oracle holds the first 40 modes: the first
    60 agree with those of an oracle to index 60 (2-D) or 24 (3-D)."""
    return [
        (square, 12),
        (cube, 12),
        (bb.DomainSpec.from_strings(["1/7", "13/3"]), 24),
        (bb.DomainSpec.from_strings(["pi^2", "2pi^2", "9/4 pi^2"]), 12),
        (bb.DomainSpec.from_strings(["1", "1", "1"]), 12),  # plain unit: lambda in pi^2
    ]


def test_enumeration_matches_oracle_prefix(square, cube):
    for domain, nmax in oracle_domains(square, cube):
        modes = bb.enumerate_modes(domain, 40)
        oracle = brute_force_values(domain, nmax)[:40]
        assert [(m.value, m.indices) for m in modes] == oracle


def test_find_group_matches_oracle(square, cube):
    for domain, nmax in oracle_domains(square, cube):
        oracle = brute_force_values(domain, nmax)[:60]  # holds every group of j <= 40
        for j in range(1, 41):
            value = oracle[j - 1][0]
            members = [idx for v, idx in oracle if v == value]
            first = [v for v, _ in oracle].index(value) + 1
            group = bb.find_group(domain, j=j)
            assert (group.value, group.j, group.k) == (value, first, len(members))
            assert [m.indices for m in group.modes] == sorted(members)
            lam = float(value) * domain.eigenvalue_unit
            assert bb.find_group(domain, eigenvalue=lam) == group
            assert bb.find_group(domain, eigenvalue=lam * (1 + 5e-10)) == group
        # midway between two groups, and below the ground value, nothing matches
        for value in (oracle[0][0] / 2, (oracle[0][0] + oracle[1][0]) / 2):
            with pytest.raises(ValueError):
                bb.find_group(domain, eigenvalue=float(value) * domain.eigenvalue_unit)


@pytest.mark.parametrize("lam", [325, 54])
def test_find_group_by_eigenvalue_scans_few_modes(square, cube, lam, monkeypatch):
    # one scan below lambda: work proportional to the modes up to the group
    domain = square if lam == 325 else cube
    calls = []
    mode_value = bb.DomainSpec.mode_value
    monkeypatch.setattr(bb.DomainSpec, "mode_value",
                        lambda self, idx: calls.append(idx) or mode_value(self, idx))
    group = bb.find_group(domain, eigenvalue=lam)
    assert group.value == lam
    assert len(calls) <= 4 * (group.j + group.k - 1)


def test_square_group_prefix(square):
    groups = bb.enumerate_groups(square, 3)
    assert [(g.value, g.k, g.j) for g in groups] == [
        (Fraction(2), 1, 1),
        (Fraction(5), 2, 2),
        (Fraction(8), 1, 4),
    ]


def test_cube_group_prefix(cube):
    groups = bb.enumerate_groups(cube, 2)
    assert [(g.value, g.k, g.j) for g in groups] == [
        (Fraction(3), 1, 1),
        (Fraction(6), 3, 2),
    ]


def test_lambda50_group_has_multiplicity_three(sq_g50):
    assert sq_g50.k == 3
    assert sq_g50.j == 31
    assert [m.indices for m in sq_g50.modes] == [(1, 7), (5, 5), (7, 1)]


def test_group_spectrum_single_mode_incomplete(square):
    modes = bb.enumerate_modes(square, 1)
    with pytest.raises(IncompletePrefix):
        bb.group_spectrum(modes)


def test_group_spectrum_drops_uncertified_tail(square):
    modes = bb.enumerate_modes(square, 4)  # (1,1), (1,2), (2,1), (2,2)
    groups = bb.group_spectrum(modes)
    assert [g.value for g in groups] == [Fraction(2), Fraction(5)]
    certified = bb.group_spectrum(modes, next_value=Fraction(10))
    assert [g.value for g in certified] == [Fraction(2), Fraction(5), Fraction(8)]


def test_group_spectrum_rejects_unsorted(square):
    modes = bb.enumerate_modes(square, 4)
    with pytest.raises(ValueError):
        bb.group_spectrum(modes[::-1])


def test_index_consistency(square, cube):
    for domain in (square, cube):
        groups = bb.enumerate_groups(domain, 12)
        below = 0
        for g in groups:
            assert g.j == below + 1
            below += g.k


def test_grouping_is_exact_not_tolerant():
    # side squares differing at the 12th digit keep the modes apart
    eps = Fraction(1, 10**12)
    dom = bb.DomainSpec(2, (Fraction(1), Fraction(1) + eps), pi_squared=True)
    modes = bb.enumerate_modes(dom, 6)
    vals = [m.value for m in modes if set(m.indices) == {1, 2}]
    assert len(vals) == 2 and vals[0] != vals[1]
    groups = bb.group_spectrum(modes, next_value=Fraction(100))
    assert all(g.k == 1 for g in groups)


def test_modes_sorted_lexicographically_inside_group(sq_g5, sq_g50):
    for g in (sq_g5, sq_g50):
        idx = [m.indices for m in g.modes]
        assert idx == sorted(idx)


def test_eigenfunction_center_value(square):
    mode = bb.enumerate_modes(square, 1)[0]
    val = bb.eigenfunction_eval(mode, square, (math.pi / 2, math.pi / 2))
    assert val == pytest.approx(2.0 / math.pi, rel=1e-14)


def test_eigenfunction_boundary_zero(square, sq_g5):
    for mode in sq_g5.modes:
        assert bb.eigenfunction_eval(mode, square, (0.0, 1.0)) == 0.0
        assert bb.eigenfunction_eval(mode, square, (math.pi, 0.3)) == pytest.approx(0.0, abs=1e-15)


def test_eigenfunction_cube_value(cube, cube_g6):
    mode = next(m for m in cube_g6.modes if m.indices == (1, 1, 2))
    val = bb.eigenfunction_eval(mode, cube, (math.pi / 2, math.pi / 2, math.pi / 4))
    assert val == pytest.approx(math.sqrt(8.0 / math.pi**3), rel=1e-14)


def test_eigenfunction_out_of_domain(square):
    mode = bb.enumerate_modes(square, 1)[0]
    with pytest.raises(OutOfDomain):
        bb.eigenfunction_eval(mode, square, (-0.1, 1.0))
    with pytest.raises(OutOfDomain):
        bb.eigenfunction_eval(mode, square, (1.0, math.pi + 1e-9))
    with pytest.raises(OutOfDomain):
        bb.eigenfunction_eval(mode, square, (1.0,))


def test_normalization_against_quadrature(square, cube):
    for domain in (square, cube):
        for mode in bb.enumerate_modes(domain, 12):
            mass = integrate_box(
                lambda *xs: bb.eigenfunction_eval(mode, domain, xs) ** 2,
                domain.sides,
            )
            assert abs(mass - 1.0) <= 1e-10


def test_orthogonality_within_groups(square, sq_g5, sq_g50):
    for g in (sq_g5, sq_g50):
        for mi, mh in itertools.combinations(g.modes, 2):
            overlap = integrate_box(
                lambda *xs: bb.eigenfunction_eval(mi, square, xs)
                * bb.eigenfunction_eval(mh, square, xs),
                square.sides,
            )
            assert abs(overlap) <= 1e-10


def test_find_group_by_inner_index(square):
    # j addressing a non-leading member of the multiplet returns the multiplet
    assert bb.find_group(square, j=3).value == Fraction(5)
    with pytest.raises(ValueError):
        bb.find_group(square, j=2, eigenvalue=5)
    with pytest.raises(ValueError):
        bb.find_group(square, eigenvalue=5.5)
    for bad in (float("nan"), float("inf"), -5.0):
        with pytest.raises(ValueError, match="no eigenvalue"):
            bb.find_group(square, eigenvalue=bad)
    with pytest.raises(ValueError, match="too large"):
        bb.find_group(square, eigenvalue=1e12)


def test_parse_side_sq():
    assert parse_side_sq("pi^2") == (Fraction(1), True)
    assert parse_side_sq("4pi^2") == (Fraction(4), True)
    assert parse_side_sq("9/4 pi^2") == (Fraction(9, 4), True)
    assert parse_side_sq("2.25") == (Fraction(9, 4), False)
    with pytest.raises(ConfigError):
        parse_side_sq("banana")
    with pytest.raises(ConfigError):
        parse_side_sq("-1")
    with pytest.raises(ConfigError):
        bb.DomainSpec.from_strings(["pi^2", "2.0"])  # mixed units


def test_rectangle_sides():
    dom = bb.DomainSpec.from_strings(["pi^2", "4pi^2"])
    assert dom.sides == pytest.approx((math.pi, 2 * math.pi))
    assert dom.mode_value((1, 2)) == Fraction(2)


def test_enumerate_modes_count_validation(square):
    with pytest.raises(ValueError):
        bb.enumerate_modes(square, 0)


@pytest.mark.parametrize("domain", ["square", "cube"])
def test_count_beyond_the_scan_ceiling_is_refused_by_the_first_scan(domain, monkeypatch):
    # no bound below the Weyl volume's B holds 900000 modes, and the box
    # that bound needs exceeds the ceiling: one scan, not a doubling series
    calls = []
    modes_below = bifurcbox.spectrum._modes_below
    monkeypatch.setattr(bifurcbox.spectrum, "_modes_below",
                        lambda *args: calls.append(args) or modes_below(*args))
    with pytest.raises(ValueError, match="too large"):
        bb.enumerate_groups(getattr(bb.DomainSpec, domain)(), 900000)
    assert len(calls) <= 1

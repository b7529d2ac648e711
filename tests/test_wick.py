"""Canonical polynomial representation and block extraction."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasivac import Statistics, TransformedBlocks, WickPolynomial
from quasivac.errors import DegreeCapError, IndexRangeError
from quasivac.wick import (
    PRUNE_THRESHOLD,
    Blocks,
    TermParity,
    canonicalize_term,
    extract_blocks,
)

from conftest import random_free_hermitian
from references import max_abs_diff, reassemble

BOSE = Statistics.BOSE
FERMI = Statistics.FERMI

#: Term lists of degree up to 8 on three modes, repeated indices included.
TERMS = st.lists(st.tuples(
    st.lists(st.integers(1, 3), max_size=4),
    st.lists(st.integers(1, 3), max_size=4),
    st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
), max_size=8)


def adjoint_by_reordering(poly):
    """The adjoint's coefficients through ``canonicalize_term``: each key
    reversed and sorted again, its coefficient conjugated."""
    accum = {}
    for (cr, an), c in poly.items():
        key, cc = canonicalize_term(poly.stats, an[::-1], cr[::-1], np.conj(c))
        if cc != 0:
            accum[key] = accum.get(key, 0j) + cc
    return accum


class TestCanonicalize:
    def test_fermi_transposition_sign(self):
        key, c = canonicalize_term(FERMI, [2, 1], [], 1.0)
        assert key == ((1, 2), ())
        assert c == -1.0

    def test_bose_symmetric(self):
        key, c = canonicalize_term(BOSE, [2, 1], [], 1.0)
        assert key == ((1, 2), ())
        assert c == 1.0

    def test_fermi_repeated_index_vanishes(self):
        _, c = canonicalize_term(FERMI, [1, 1], [], 1.0)
        assert c == 0

    def test_idempotent_on_canonical_input(self):
        key, c = canonicalize_term(FERMI, [1, 3, 5], [2, 4], 2.5)
        assert key == ((1, 3, 5), (2, 4))
        assert c == 2.5

    def test_index_range(self):
        with pytest.raises(IndexRangeError):
            canonicalize_term(BOSE, [0], [], 1.0)
        with pytest.raises(IndexRangeError):
            canonicalize_term(BOSE, [3], [], 1.0, n_modes=2)

    @given(st.permutations(list(range(1, 6))))
    @settings(max_examples=150, deadline=None)
    def test_fermi_sign_matches_inversion_parity(self, perm):
        # independent parity routine: count inversions directly
        inversions = sum(
            1
            for i in range(len(perm))
            for j in range(i + 1, len(perm))
            if perm[i] > perm[j]
        )
        expected = -1.0 if inversions % 2 else 1.0
        key, c = canonicalize_term(FERMI, perm, [], 1.0)
        assert key == (tuple(range(1, 6)), ())
        assert c == expected


class TestAddTerm:
    def test_cancellation_empties(self):
        poly = WickPolynomial.empty(1, BOSE).add_term([1], [1], 1.0).add_term([1], [1], -1.0)
        assert len(poly) == 0

    def test_fermi_reordering_stored_with_sign(self):
        poly = WickPolynomial.empty(2, FERMI).add_term([2, 1], [], 1.0)
        assert poly.terms[((1, 2), ())] == -1.0

    def test_bose_repeated_index(self):
        poly = WickPolynomial.empty(1, BOSE).add_term([1, 1], [], 0.5)
        assert poly.terms[((1, 1), ())] == 0.5

    def test_prune_threshold(self):
        # pruning is relative to the largest non-constant |coefficient|
        poly = WickPolynomial.empty(1, BOSE).add_term([1], [1], 1.0).add_term([1, 1], [], 1e-15)
        assert list(poly.terms) == [((1,), (1,))]
        poly = WickPolynomial.empty(1, BOSE).add_term([1], [1], PRUNE_THRESHOLD / 10)
        assert poly.terms == {((1,), (1,)): PRUNE_THRESHOLD / 10}

    def test_scaling_keeps_every_term(self):
        poly = WickPolynomial.from_terms(
            1, BOSE, [([1], [1], 1.0), ([1, 1], [], 0.3), ([], [1, 1], 0.3), ([], [], 0.1)]
        )
        small = poly.scaled(1e-15)
        assert small.terms == {key: 1e-15 * c for key, c in poly.items()}
        assert len(small.scaled(0.0)) == 0

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, complex(0.0, math.inf),
                                     complex(1.5e308, 1.5e308)])
    def test_non_finite_coefficient_is_rejected(self, bad):
        # an infinite pair made the relative cut infinite, which dropped the
        # finite a*a and kept two inf+nanj terms; finite parts whose modulus
        # passes the float range raised a bare OverflowError from abs()
        with pytest.raises(ValueError, match="not finite"):
            WickPolynomial.from_terms(
                1, BOSE, [([1], [1], 1.0), ([1, 1], [], bad), ([], [1, 1], bad)]
            )
        with pytest.raises(ValueError, match="not finite"):
            WickPolynomial.empty(1, BOSE).add_term([1], [1], 1.0).add_term([], [], bad)

    def test_degree_cap(self):
        with pytest.raises(DegreeCapError):
            WickPolynomial.empty(1, BOSE).add_term([1] * 5, [1] * 4, 1.0)

    def test_coefficient_accessor_applies_sign(self):
        poly = WickPolynomial.empty(2, FERMI).add_term([1, 2], [], 0.7)
        assert poly.coefficient([2, 1], []) == pytest.approx(-0.7)


class TestParity:
    def test_even(self):
        poly = WickPolynomial.empty(1, BOSE).add_term([1], [1], 1.0)
        assert poly.parity() is TermParity.EVEN

    def test_odd(self):
        poly = WickPolynomial.empty(1, BOSE).add_term([1], [], 1.0).add_term([], [1], 1.0)
        assert poly.parity() is TermParity.ODD

    def test_mixed(self):
        poly = WickPolynomial.empty(1, BOSE).add_term([], [1], 1.0).add_term([1], [1], 1.0)
        assert poly.parity() is TermParity.MIXED

    def test_empty_is_even(self):
        assert WickPolynomial.empty(3, FERMI).parity() is TermParity.EVEN


class TestHermitian:
    def test_number_operator(self):
        poly = WickPolynomial.empty(1, BOSE).add_term([1], [1], 1.0)
        assert poly.is_hermitian(1e-12)

    def test_missing_conjugate(self):
        poly = WickPolynomial.empty(1, BOSE).add_term([1], [], 1j)
        assert not poly.is_hermitian(1e-12)

    def test_bose_anomalous_pair(self):
        lam = 0.3
        poly = (
            WickPolynomial.empty(1, BOSE)
            .add_term([1, 1], [], lam)
            .add_term([], [1, 1], np.conj(lam))
        )
        assert poly.is_hermitian(1e-12)

    def test_fermi_anomalous_needs_reordering_sign(self):
        # (c a*_1 a*_2)^dag = conj(c) a_2 a_1 = -conj(c) a_1 a_2
        good = (
            WickPolynomial.empty(2, FERMI)
            .add_term([1, 2], [], 0.5)
            .add_term([], [1, 2], -0.5)
        )
        bad = (
            WickPolynomial.empty(2, FERMI)
            .add_term([1, 2], [], 0.5)
            .add_term([], [1, 2], 0.5)
        )
        assert good.is_hermitian(1e-12)
        assert not bad.is_hermitian(1e-12)

    def test_non_finite_coefficient_is_not_hermitian(self):
        # built past the constructors, which reject it: abs(nan) > tol is False;
        # the finite quartic term keeps the scale finite
        poly = WickPolynomial(1, BOSE, {((1, 1), (1, 1)): 1.0,
                                        ((1,), (1,)): complex(math.nan, 0.0)})
        assert poly.scale == 1.0
        assert not poly.is_hermitian(1e-12)

    def test_overflowing_difference_is_not_finite(self):
        # a*a and aa each finite, but a*a minus the mirror of aa has a
        # modulus past the float range
        poly = WickPolynomial.from_terms(1, BOSE, [([1, 1], [], complex(-0.7e308, 0.7e308)),
                                                   ([], [1, 1], complex(0.7e308, 0.7e308))])
        with pytest.raises(ValueError, match="mirror difference .* is not finite"):
            poly.is_hermitian(1e-12)

    @given(st.sampled_from([BOSE, FERMI]), TERMS, st.floats(1e-15, 1e-3))
    @settings(max_examples=300, deadline=None)
    def test_mirror_closed_form_matches_reordering(self, stats, terms, tol):
        # the adjoint's closed form against reversing and re-sorting every
        # key, and is_hermitian against the coefficientwise difference
        # relative to the scale (to |c| too for the constant c)
        poly = WickPolynomial.from_terms(3, stats, terms)
        reference = adjoint_by_reordering(poly)
        assert dict(poly.adjoint().terms) == reference
        constant = abs(poly.terms.get(((), ()), 0j))
        assert poly.is_hermitian(tol) is all(
            abs(poly.terms.get(key, 0j) - reference.get(key, 0j))
            <= tol * (max(poly.scale, constant) if key == ((), ()) else poly.scale)
            for key in {*poly.terms, *reference})

    @given(st.sampled_from([BOSE, FERMI]), TERMS, st.sampled_from([-40, 0, 40]))
    @settings(max_examples=200, deadline=None)
    def test_hermitian_in_any_units(self, stats, terms, k):
        # every term summed with its mirror, then scaled by 2**k: the
        # rounding of the sums is relative, and so is the check
        mirrored = terms + [(an[::-1], cr[::-1], np.conj(c)) for cr, an, c in terms]
        poly = WickPolynomial.from_terms(3, stats, mirrored).scaled(2.0**k)
        assert poly.is_hermitian()
        assert poly.scale == max((abs(c) for (cr, an), c in poly.items() if cr or an),
                                 default=0.0)
        # the dataclass constructor and replace derive the same scale from the terms
        direct = WickPolynomial(3, stats, dict(poly.terms))
        assert direct.scale == poly.scale and direct.is_hermitian()
        assert dataclasses.replace(poly, terms={((), ()): 2.0}).scale == 0.0

    def test_scale_is_read_from_the_terms_only(self):
        # no caller sets the scale: it is not a constructor argument
        with pytest.raises(TypeError):
            WickPolynomial(1, BOSE, {((1,), (1,)): 2.0}, scale=1e-20)
        poly = WickPolynomial(1, BOSE, {((), ()): 5.0, ((1,), (1,)): 2.0 + 1e-12j})
        assert poly.scale == abs(2.0 + 1e-12j)
        assert poly.is_hermitian() and not poly.is_hermitian(1e-13)

    def test_adjoint_involution(self):
        rng = np.random.default_rng(7)
        for stats, n in [(BOSE, 2), (FERMI, 3)]:
            poly = random_free_hermitian(stats, n, rng, include_odd=True)
            twice = poly.adjoint().adjoint()
            assert max_abs_diff(poly, twice) < 1e-14


class TestExtractBlocks:
    def test_quadratic_oscillator(self):
        poly = (
            WickPolynomial.empty(1, BOSE)
            .add_term([1], [1], 1.0)
            .add_term([1, 1], [], 0.3)
            .add_term([], [1, 1], 0.3)
        )
        blocks = extract_blocks(poly)
        assert blocks.constant == 0
        assert np.allclose(blocks.linear, [0.0])
        assert np.allclose(blocks.pairing, [[0.3]])
        assert np.allclose(blocks.single_particle, [[1.0]])
        assert len(blocks.remainder) == 0
        assert blocks.linear_defect < 1e-14
        assert blocks.pairing_defect < 1e-14

    def test_quartic_goes_to_remainder(self):
        poly = WickPolynomial.empty(1, BOSE).add_term([1, 1], [1, 1], 1.0)
        blocks = extract_blocks(poly)
        assert blocks.constant == 0
        assert np.all(blocks.pairing == 0)
        assert np.all(blocks.single_particle == 0)
        assert blocks.remainder.terms[((1, 1), (1, 1))] == 1.0

    def test_pure_linear(self):
        poly = WickPolynomial.empty(1, BOSE).add_term([1], [], 0.5).add_term([], [1], 0.5)
        blocks = extract_blocks(poly)
        assert np.allclose(blocks.linear, [0.5])
        assert np.all(blocks.pairing == 0)
        assert np.all(blocks.single_particle == 0)
        assert blocks.constant == 0

    def test_pairing_symmetry_type(self):
        rng = np.random.default_rng(3)
        for stats, n in [(BOSE, 3), (FERMI, 3)]:
            poly = random_free_hermitian(stats, n, rng)
            blocks = extract_blocks(poly)
            if stats is BOSE:
                assert np.array_equal(blocks.pairing, blocks.pairing.T)
            else:
                assert np.array_equal(blocks.pairing, -blocks.pairing.T)

    def test_conjugate_defect_reported(self):
        poly = WickPolynomial.empty(1, BOSE).add_term([1], [], 1.0).add_term([], [1], 0.25)
        blocks = extract_blocks(poly)
        assert blocks.linear_defect == pytest.approx(0.75)


def _random_blocks(stats, n, rng):
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    pairing = (raw + raw.T) / 2 if stats is BOSE else (raw - raw.T) / 2
    draw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    single = (draw + draw.conj().T) / 2
    remainder = WickPolynomial.empty(n, stats).add_term(
        [1] * (3 if stats is BOSE else 1), [1] if stats is BOSE else [2, 3, 1], 0.4
    )
    return TransformedBlocks(
        stats=stats,
        n_modes=n,
        constant=complex(rng.standard_normal()),
        linear=rng.standard_normal(n) + 1j * rng.standard_normal(n),
        pairing=pairing,
        single_particle=single,
        remainder=remainder,
        linear_defect=0.0,
        pairing_defect=0.0,
    )


def test_blocks_take_their_arrays_over_read_only():
    linear, pairing = np.zeros(2, complex), np.eye(2, dtype=complex)
    blocks = Blocks(Statistics.BOSE, 1j, linear, pairing, None)
    assert blocks.linear is linear and blocks.pairing is pairing
    assert not linear.flags.writeable and not pairing.flags.writeable
    assert blocks.single_particle is None


class TestRoundTrip:
    @pytest.mark.parametrize("stats", [BOSE, FERMI])
    def test_blocks_to_poly_to_blocks(self, stats):
        rng = np.random.default_rng(11)
        for _ in range(10):
            blocks = _random_blocks(stats, 3, rng)
            back = extract_blocks(reassemble(blocks))
            assert abs(back.constant - blocks.constant) < 1e-12
            assert np.max(np.abs(back.linear - blocks.linear)) < 1e-12
            assert np.max(np.abs(back.pairing - blocks.pairing)) < 1e-12
            assert np.max(np.abs(back.single_particle - blocks.single_particle)) < 1e-12
            assert max_abs_diff(back.remainder, blocks.remainder) < 1e-12

    @pytest.mark.parametrize("stats", [BOSE, FERMI])
    def test_poly_to_blocks_to_poly(self, stats):
        rng = np.random.default_rng(13)
        for _ in range(10):
            poly = random_free_hermitian(stats, 3, rng, degree=6 if stats is BOSE else 4,
                                          include_odd=True)
            rebuilt = reassemble(extract_blocks(poly))
            assert max_abs_diff(poly, rebuilt) < 1e-12


@pytest.mark.parametrize("check, outcome", [
    (lambda: WickPolynomial.empty(0, BOSE), IndexRangeError),
    (lambda: WickPolynomial.empty(2, FERMI).add_term([1], [1], 1.0).coefficient([1, 1], []), 0),
    (lambda: WickPolynomial.empty(1, BOSE).is_hermitian(0), ValueError),
], ids=["no-modes", "repeated-fermi-index", "zero-tolerance"])
def test_invalid_input(check, outcome):
    if outcome == 0:
        assert check() == 0
    else:
        with pytest.raises(outcome):
            check()

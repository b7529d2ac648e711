"""Canonical polynomial representation and block extraction."""

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

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, complex(0.0, math.inf)])
    def test_non_finite_coefficient_is_rejected(self, bad):
        # an infinite pair made the relative cut infinite, which dropped the
        # finite a*a and kept two inf+nanj terms
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
        # built past the constructors, which reject it: abs(nan) > tol is False
        poly = WickPolynomial(1, BOSE, {((1,), (1,)): complex(math.nan, 0.0)})
        assert not poly.is_hermitian(1e-12)

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

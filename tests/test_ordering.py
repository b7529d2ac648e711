"""Normal ordering: commutation rewriting, substitutions, vacuum pairing."""

import math

import numpy as np
import pytest

from quasivac import FockBasis, Statistics, WickPolynomial, inverse, quantize
from quasivac.errors import StatisticsMismatchError
from quasivac.ordering import multiply_linear, product_vacuum_expectation, substitute_linear
from quasivac.wick import TermParity

from conftest import ladder, poly_product, random_free_hermitian, random_valid_map, rewritten
from references import max_abs_diff

BOSE = Statistics.BOSE
FERMI = Statistics.FERMI


class TestMultiplyLinear:
    def test_bose_ccr(self):
        poly = WickPolynomial.empty(1, BOSE).add_term([], [1], 1.0)
        out = multiply_linear(poly, *ladder(1, 1, True))
        assert out.terms[((), ())] == 1.0
        assert out.terms[((1,), (1,))] == 1.0
        assert len(out) == 2

    def test_fermi_car(self):
        poly = WickPolynomial.empty(1, FERMI).add_term([], [1], 1.0)
        out = multiply_linear(poly, *ladder(1, 1, True))
        assert out.terms[((), ())] == 1.0
        assert out.terms[((1,), (1,))] == -1.0

    def test_fermi_anticommutation_distinct_modes(self):
        poly = WickPolynomial.empty(2, FERMI).add_term([], [1], 1.0)
        out = multiply_linear(poly, *ladder(2, 2, True))
        assert out.terms == {((2,), (1,)): -1.0}

    def test_dimension_mismatch(self):
        poly = WickPolynomial.empty(2, BOSE).add_term([1], [], 1.0)
        with pytest.raises(StatisticsMismatchError):
            multiply_linear(poly, *ladder(3, 1, True))

    @pytest.mark.parametrize("stats", [BOSE, FERMI])
    def test_matches_dense_matrices(self, stats):
        """Quantized product of matrices equals quantizing the product polynomial."""
        rng = np.random.default_rng(42)
        n = 2
        basis = FockBasis.build(stats, n, cutoff=9)
        for _ in range(6):
            poly = random_free_hermitian(stats, n, rng, degree=4, include_odd=True)
            creation = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            annihilation = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            scalar = complex(rng.standard_normal())
            op_poly = WickPolynomial.empty(n, stats).add_term([], [], scalar)
            for i in range(1, n + 1):
                op_poly = op_poly.add_term([i], [], creation[i - 1])
                op_poly = op_poly.add_term([], [i], annihilation[i - 1])
            product = multiply_linear(poly, creation, annihilation, scalar)
            mat_poly = quantize(poly, basis)
            mat_op = quantize(op_poly, basis)
            expected = mat_poly @ mat_op
            got = quantize(product, basis)
            # compare action on low-occupation vectors, away from the truncation edge
            for col in range(basis.dimension):
                if max(basis.occupations[col]) <= 3:
                    assert np.max(np.abs(got[:, col] - expected[:, col])) < 1e-8


class TestSubstitute:
    def test_identity_substitution(self):
        rng = np.random.default_rng(5)
        for stats in (BOSE, FERMI):
            n = 2
            poly = random_free_hermitian(stats, n, rng, include_odd=True)
            out = substitute_linear(poly, np.eye(n), np.zeros((n, n)), np.zeros(n))
            assert max_abs_diff(poly, out) < 1e-14

    def test_bose_squeeze_expansion(self):
        # a = c b + s b*:  a*a -> s^2 + c s (b*b* + bb) + (c^2 + s^2) b*b
        r = 0.37
        c, s = math.cosh(r), math.sinh(r)
        poly = WickPolynomial.empty(1, BOSE).add_term([1], [1], 1.0)
        out = substitute_linear(poly, [[c]], [[s]], [0])
        assert out.terms[((), ())] == pytest.approx(s * s)
        assert out.terms[((1, 1), ())] == pytest.approx(c * s)
        assert out.terms[((), (1, 1))] == pytest.approx(c * s)
        assert out.terms[((1,), (1,))] == pytest.approx(c * c + s * s)
        assert len(out) == 4

    def test_fermi_swap(self):
        # a -> b*:  a*a -> 1 - b*b
        poly = WickPolynomial.empty(1, FERMI).add_term([1], [1], 1.0)
        out = substitute_linear(poly, [[0]], [[1]], [0])
        assert out.terms[((), ())] == 1.0
        assert out.terms[((1,), (1,))] == -1.0

    @pytest.mark.parametrize("stats", [BOSE, FERMI])
    def test_involution(self, stats):
        rng = np.random.default_rng(17)
        n = 2
        for _ in range(5):
            poly = random_free_hermitian(stats, n, rng, include_odd=(stats is BOSE))
            m = random_valid_map(stats, n, rng, shift_scale=0.2 if stats is BOSE else 0.0)
            forward = rewritten(poly, m)
            back = rewritten(forward, inverse(m))
            assert max_abs_diff(poly, back) < 1e-10

    @pytest.mark.parametrize("stats", [BOSE, FERMI])
    def test_parity_preserved_exactly(self, stats):
        rng = np.random.default_rng(23)
        n = 2
        poly = random_free_hermitian(stats, n, rng, include_odd=False)
        assert poly.parity() is TermParity.EVEN
        m = random_valid_map(stats, n, rng)
        out = rewritten(poly, m)
        for (cr, an) in out.terms:
            assert (len(cr) + len(an)) % 2 == 0

    def test_degree_eight_terminates(self):
        n = 2
        poly = WickPolynomial.empty(n, BOSE).add_term([1] * 4, [1] * 4, 1.0)
        rng = np.random.default_rng(1)
        m = random_valid_map(BOSE, n, rng, pair_scale=0.1)
        out = rewritten(poly, m)
        assert out.degree() <= 8
        assert len(out) > 0


class TestVacuumExpectation:
    def test_number_zero(self):
        poly = WickPolynomial.empty(1, BOSE).add_term([1], [1], 1.0)
        assert poly.coefficient((), ()) == 0

    def test_constant_read_off(self):
        poly = WickPolynomial.empty(1, BOSE).add_term([], [], 3.5).add_term([1], [1], 1.0)
        assert poly.coefficient((), ()) == 3.5

    def test_squeeze_constant(self):
        r = 0.37
        c, s = math.cosh(r), math.sinh(r)
        poly = WickPolynomial.empty(1, BOSE).add_term([1], [1], 1.0)
        out = substitute_linear(poly, [[c]], [[s]], [0])
        assert out.coefficient((), ()) == pytest.approx(s * s)


class TestPairingExpectation:
    """The pairing-sum route must agree with the normal-ordering route."""

    @pytest.mark.parametrize("stats", [BOSE, FERMI])
    def test_matches_normal_ordering(self, stats):
        rng = np.random.default_rng(31)
        n = 2
        for n_ops in range(0, 7):
            # factor k: sum_j u_kj a_j + v_kj a*_j + shift_k
            u, v, shift = np.zeros((n_ops, n), complex), np.zeros((n_ops, n), complex), []
            for k in range(n_ops):
                v[k] = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                u[k] = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                shift.append(complex(rng.standard_normal()) if rng.random() < 0.5 else 0j)
            chain = WickPolynomial.empty(n, stats).add_term([], [], 1.0)
            for k in range(n_ops):
                chain = multiply_linear(chain, v[k], u[k], shift[k])
            direct = product_vacuum_expectation(stats, u, v, shift)
            assert abs(direct - chain.coefficient((), ())) < 1e-10


class TestParityAlgebra:
    @pytest.mark.parametrize("stats", [BOSE, FERMI])
    def test_product_parity_xor(self, stats):
        rng = np.random.default_rng(41)
        n = 2
        even = random_free_hermitian(stats, n, rng, degree=2, include_odd=False)
        odd = WickPolynomial.empty(n, stats).add_term([1], [], 1.0).add_term([], [2], 0.5)
        assert poly_product(even, even).parity() is TermParity.EVEN
        assert poly_product(even, odd).parity() is TermParity.ODD
        prod = poly_product(odd, odd)
        assert prod.parity() in (TermParity.EVEN,)


def _one_mode(stats=BOSE):
    return WickPolynomial.empty(1, stats).add_term([1], [1], 1.0)


@pytest.mark.parametrize("build", [
    lambda: multiply_linear(_one_mode(), np.ones(1), np.ones(2)),
    lambda: product_vacuum_expectation(BOSE, np.ones((2, 1)), np.ones((2, 2)), np.zeros(2)),
    lambda: substitute_linear(_one_mode(), np.ones((2, 1)), np.ones((2, 1)), np.zeros(2)),
    lambda: substitute_linear(_one_mode(), np.ones((1, 2)), np.ones((1, 2)), np.zeros(1)),
], ids=["operator-lengths", "mixed-mode-counts", "image-count", "image-modes"])
def test_mismatched_operators_are_rejected(build):
    with pytest.raises(StatisticsMismatchError):
        build()

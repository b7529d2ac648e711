"""Truncated Fock oracle: ladder maps, quantization, Gaussian vectors."""

import math

import numpy as np
import pytest

from quasivac import (
    BogoliubovMap,
    FockBasis,
    Generator,
    Statistics,
    WickPolynomial,
    compose,
    from_generator,
    ground_energy,
    quantize,
    residual_blocks,
    state_of_map,
)
from quasivac.bogoliubov import ThoulessChart, random_number_conserving, reflection
from quasivac.errors import DimensionCapError, TailToleranceError
from quasivac.fock import (
    _chart_through_reflections,
    apply_linear,
    sparse_matrix,
    states_of_maps,
)
from quasivac.variational import oracle_state

from conftest import bcs_hamiltonian, random_free_hermitian, random_valid_map, squeezed_oscillator
from references import exp_generator, expectation, gaussian_vector, ladders, vacuum_vector

BOSE = Statistics.BOSE
FERMI = Statistics.FERMI


def row_of(basis, *occupation):
    """Row of an occupation tuple in the basis enumeration."""
    return int(np.dot(basis.strides, occupation))


def number_operator(n, stats):
    poly = WickPolynomial.empty(n, stats)
    for i in range(1, n + 1):
        poly = poly.add_term([i], [i], 1.0)
    return poly


class TestBasis:
    def test_mode_one_fastest_enumeration(self):
        basis = FockBasis.build(BOSE, 2, cutoff=1)
        order = [tuple(row) for row in basis.occupations]
        assert order == [(0, 0), (1, 0), (0, 1), (1, 1)]
        assert row_of(basis, 0, 0) == 0  # the vacuum leads

    @pytest.mark.parametrize("stats,n,cutoff", [(BOSE, 3, 2), (BOSE, 3, (3, 1, 2)), (FERMI, 4, 1)])
    def test_strides_locate_every_row(self, stats, n, cutoff):
        basis = FockBasis.build(stats, n, cutoff)
        assert np.array_equal(basis.occupations @ basis.strides, np.arange(basis.dimension))
        assert not basis.strides.flags.writeable

    def test_dimension_cap(self):
        with pytest.raises(DimensionCapError):
            FockBasis.build(BOSE, 2, cutoff=100)
        with pytest.raises(DimensionCapError):
            FockBasis.build(FERMI, 13)

    def test_per_mode_cutoffs(self):
        basis = FockBasis.build(BOSE, 2, cutoff=(2, 1))
        assert basis.dimension == 6
        assert basis.cutoffs == (2, 1)
        assert [tuple(row) for row in basis.occupations] == [
            (0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1),
        ]


class TestLadders:
    def test_fermi_single_mode_matrix(self):
        basis = FockBasis.build(FERMI, 1)
        ann, cre = ladders(basis)[0]
        assert np.array_equal(ann, np.array([[0, 1], [0, 0]], dtype=complex))
        assert np.array_equal(cre, ann.conj().T)

    def test_bose_matrix_elements(self):
        basis = FockBasis.build(BOSE, 1, cutoff=2)
        ann, cre = ladders(basis)[0]
        vec = np.zeros(3, complex)
        vec[2] = 1.0  # |2>
        assert np.allclose(ann @ vec, [0, math.sqrt(2), 0])
        assert np.array_equal(cre, ann.conj().T)

    def test_fermi_car_exact(self):
        basis = FockBasis.build(FERMI, 2)
        (a1, c1), (a2, c2) = ladders(basis)
        eye = np.eye(basis.dimension)
        assert np.array_equal(a1 @ a2 + a2 @ a1, np.zeros_like(a1))
        assert np.array_equal(c1 @ c2 + c2 @ c1, np.zeros_like(a1))
        assert np.array_equal(a1 @ c1 + c1 @ a1, eye)
        assert np.array_equal(a1 @ c2 + c2 @ a1, np.zeros_like(a1))

    def test_bose_ccr_on_untruncated_states(self):
        basis = FockBasis.build(BOSE, 2, cutoff=5)
        (a1, c1), (a2, c2) = ladders(basis)
        comm = a1 @ c1 - c1 @ a1
        cross = a1 @ c2 - c2 @ a1
        for col in range(basis.dimension):
            if basis.occupations[col][0] < 5:
                assert abs(comm[col, col] - 1.0) < 1e-14
            assert np.max(np.abs(cross[:, col])) < 1e-14


class TestRaisingMaps:
    @pytest.mark.parametrize(
        "stats,n,cutoff", [(BOSE, 2, (3, 1)), (BOSE, 3, (2, 3, 1)), (FERMI, 3, 1)]
    )
    def test_maps_reproduce_quantized_ladders(self, stats, n, cutoff):
        # the Jordan-Wigner signs of the Fermi case sit in the factors
        basis = FockBasis.build(stats, n, cutoff)
        for i, (src, dst, fac) in enumerate(basis.raising, start=1):
            cre = np.zeros((basis.dimension, basis.dimension), complex)
            cre[dst, src] = fac
            unit_cre = WickPolynomial.from_terms(n, stats, [((i,), (), 1.0)])
            unit_ann = WickPolynomial.from_terms(n, stats, [((), (i,), 1.0)])
            assert np.array_equal(cre, quantize(unit_cre, basis))
            assert np.array_equal(cre.T, quantize(unit_ann, basis))

    def test_maps_cached_read_only(self):
        basis = FockBasis.build(BOSE, 2, cutoff=(2, 1))
        # built once per basis, shared read-only
        assert basis.raising is basis.raising
        for arrays in basis.raising:
            assert not any(arr.flags.writeable for arr in arrays)


class TestQuantize:
    def test_number_operator_diagonal(self):
        basis = FockBasis.build(BOSE, 2, cutoff=3)
        mat = quantize(number_operator(2, BOSE), basis)
        expected = np.diag(basis.occupations.sum(axis=1).astype(complex))
        assert np.allclose(mat, expected, atol=1e-12)
        assert np.count_nonzero(mat - np.diag(np.diag(mat))) == 0

    def test_matches_ladder_products(self):
        rng = np.random.default_rng(3)
        cases = [(BOSE, 2, 5), (FERMI, 3, 1), (BOSE, 3, 2), (BOSE, 2, (3, 1))]
        for stats, n, cutoff in cases:
            basis = FockBasis.build(stats, n, cutoff)
            pairs = ladders(basis)
            poly = random_free_hermitian(stats, n, rng, include_odd=True)
            expected = np.zeros((basis.dimension, basis.dimension), complex)
            for (cr, an), coeff in poly.items():
                mat = np.eye(basis.dimension, dtype=complex)
                for i in cr:
                    mat = mat @ pairs[i - 1][1]
                for i in an:
                    mat = mat @ pairs[i - 1][0]
                expected += coeff * mat
            assert np.max(np.abs(quantize(poly, basis) - expected)) < 1e-12

    def test_hermitian_input_gives_hermitian_matrix(self):
        rng = np.random.default_rng(5)
        basis = FockBasis.build(BOSE, 2, cutoff=6)
        poly = random_free_hermitian(BOSE, 2, rng, include_odd=True)
        mat = quantize(poly, basis)
        assert np.max(np.abs(mat - mat.conj().T)) < 1e-12

    def test_constant_term_adds_identity(self):
        basis = FockBasis.build(FERMI, 2)
        poly = WickPolynomial.empty(2, FERMI).add_term([], [], 2.5).add_term([1], [1], 1.0)
        mat = quantize(poly, basis)
        bare = quantize(WickPolynomial.empty(2, FERMI).add_term([1], [1], 1.0), basis)
        assert np.array_equal(mat, bare + 2.5 * np.eye(basis.dimension))

    def test_squeezed_oscillator_ground_energy(self):
        # closed form: (sqrt(omega^2 - 4 lam^2) - omega) / 2 = -0.1
        for cutoff, tol in [(8, 5e-5), (12, 1e-6)]:
            basis = FockBasis.build(BOSE, 1, cutoff)
            assert ground_energy(squeezed_oscillator(), basis) == pytest.approx(-0.1, abs=tol)

    def test_bcs_ground_energy(self):
        basis = FockBasis.build(FERMI, 2)
        exact = 1.0 - math.sqrt(1.25)
        assert ground_energy(bcs_hamiltonian(), basis) == pytest.approx(exact, abs=1e-10)


class TestGaussianVector:
    def test_trivial_chart_is_vacuum(self):
        basis = FockBasis.build(BOSE, 2, cutoff=4)
        chart = ThoulessChart(BOSE, np.zeros((2, 2), complex), np.zeros(2, complex))
        vec = gaussian_vector(chart, basis)
        expected = np.zeros(basis.dimension)
        expected[0] = 1.0
        assert np.allclose(vec.amplitudes, expected)
        assert vec.norm_defect < 1e-12

    def test_bose_scalar_amplitudes(self):
        c = 0.4
        basis = FockBasis.build(BOSE, 1, cutoff=24, dimension_cap=8192)
        chart = ThoulessChart(BOSE, np.array([[c]], dtype=complex), np.zeros(1, complex))
        vec = gaussian_vector(chart, basis)
        norm_factor = (1 - c * c) ** 0.25
        for k in range(0, 9):
            expected = (
                norm_factor * c**k * math.sqrt(math.factorial(2 * k))
                / (2**k * math.factorial(k))
            )
            assert vec.amplitudes[2 * k] == pytest.approx(expected, abs=1e-10)
            if 2 * k + 1 < basis.dimension:
                assert vec.amplitudes[2 * k + 1] == 0
        assert vec.norm_defect < 1e-9

    def test_fermi_two_mode_vector(self):
        t = 0.7
        basis = FockBasis.build(FERMI, 2)
        z = np.array([[0, t], [-t, 0]], dtype=complex)
        vec = gaussian_vector(ThoulessChart(FERMI, z, np.zeros(2, complex)), basis)
        norm = 1.0 / math.sqrt(1 + t * t)
        expected = np.zeros(4, complex)
        expected[row_of(basis, 0, 0)] = norm
        expected[row_of(basis, 1, 1)] = t * norm
        assert np.allclose(vec.amplitudes, expected, atol=1e-12)
        assert vec.norm_defect < 1e-12

    def test_displacement_gives_coherent_state(self):
        y = 0.4 - 0.1j
        alpha = 1j * y
        basis = FockBasis.build(BOSE, 1, cutoff=20)
        chart = ThoulessChart(BOSE, np.zeros((1, 1), complex), np.array([y]))
        vec = gaussian_vector(chart, basis)
        phase = vec.amplitudes[0] / abs(vec.amplitudes[0])
        for k in range(8):
            expected = (
                math.exp(-abs(alpha) ** 2 / 2) * alpha**k / math.sqrt(math.factorial(k))
            )
            assert vec.amplitudes[k] / phase == pytest.approx(expected, abs=1e-10)

    def test_norm_defect_counts_weight_outside_the_box(self):
        # a coherent state |alpha| = 1.5 keeps sum_{k<=4} e^{-2.25} 2.25^k / k!
        # of its weight in a cutoff-4 box (a box that small raises by default)
        basis = FockBasis.build(BOSE, 1, cutoff=4)
        chart = ThoulessChart(BOSE, np.zeros((1, 1), complex), np.array([1.5 + 0j]))
        vec = gaussian_vector(chart, basis, tail_tol=1.0)
        kept = sum(math.exp(-2.25) * 2.25**k / math.factorial(k) for k in range(5))
        assert vec.norm_defect == pytest.approx(1.0 - math.sqrt(kept), rel=1e-12)

    def test_tail_tolerance_error(self):
        basis = FockBasis.build(BOSE, 1, cutoff=10)
        chart = ThoulessChart(BOSE, np.array([[0.9]], dtype=complex), np.zeros(1, complex))
        with pytest.raises(TailToleranceError):
            gaussian_vector(chart, basis)

    def test_tail_tolerance_error_counts_the_displacement(self):
        # a coherent state of amplitude 3 keeps 29% of its weight past 10
        # quanta, which the pair-amplitude estimate alone does not see
        basis = FockBasis.build(BOSE, 1, cutoff=10)
        chart = ThoulessChart(BOSE, np.zeros((1, 1), complex), np.array([3.0 + 0j]))
        with pytest.raises(TailToleranceError):
            gaussian_vector(chart, basis)


class TestExpGenerator:
    def test_zero_generator_fixes_vector(self):
        basis = FockBasis.build(BOSE, 1, cutoff=8)
        vac = vacuum_vector(basis)
        zero = Generator(BOSE, np.zeros((1, 1), complex), np.zeros(1, complex))
        out = exp_generator(zero, basis, vac)
        assert np.allclose(out.amplitudes, vac.amplitudes)

    def test_unitary_on_truncated_space(self):
        rng = np.random.default_rng(7)
        basis = FockBasis.build(BOSE, 1, cutoff=12)
        g = Generator(BOSE, np.array([[0.3j]]), np.array([0.2 + 0.1j]))
        out = exp_generator(g, basis, vacuum_vector(basis))
        assert out.norm_defect < 1e-12


class TestExpectation:
    def test_vacuum_number(self):
        basis = FockBasis.build(BOSE, 2, cutoff=4)
        nmat = quantize(number_operator(2, BOSE), basis)
        assert expectation(vacuum_vector(basis), nmat) == 0

    def test_fermi_occupied_mode(self):
        basis = FockBasis.build(FERMI, 1)
        eps = 0.77
        hmat = quantize(WickPolynomial.empty(1, FERMI).add_term([1], [1], eps), basis)
        e1 = np.zeros(1, complex)
        e1[0] = 1.0
        vec = state_of_map(reflection(e1), basis)
        assert expectation(vec, hmat) == pytest.approx(eps)

    def test_squeeze_energy_closed_form(self):
        t = 0.25
        basis = FockBasis.build(BOSE, 1, cutoff=24, dimension_cap=8192)
        hmat = quantize(squeezed_oscillator(), basis)
        m = BogoliubovMap(
            BOSE,
            np.array([[math.cosh(t)]], dtype=complex),
            np.array([[math.sinh(t)]], dtype=complex),
            np.zeros(1, complex),
        )
        vec = state_of_map(m, basis)
        expected = math.sinh(t) ** 2 - 0.3 * math.sinh(2 * t)
        assert expectation(vec, hmat).real == pytest.approx(expected, abs=1e-9)
        assert abs(expectation(vec, hmat).imag) < 1e-10


class TestStateOfMap:
    def test_fermi_odd_swap_is_occupied_state(self):
        basis = FockBasis.build(FERMI, 1)
        e1 = np.zeros(1, complex)
        e1[0] = 1.0
        vec = state_of_map(reflection(e1), basis)
        assert abs(vec.amplitudes[row_of(basis, 1)]) == pytest.approx(1.0)

    def test_fermi_fully_occupied_slater(self):
        # u = 0, v = 1 on two modes: even but maximally degenerate
        basis = FockBasis.build(FERMI, 2)
        m = BogoliubovMap(
            FERMI, np.zeros((2, 2), complex), np.eye(2, dtype=complex), np.zeros(2, complex)
        )
        vec = state_of_map(m, basis)
        assert abs(vec.amplitudes[row_of(basis, 1, 1)]) == pytest.approx(1.0)

    @pytest.mark.parametrize("stats", [BOSE, FERMI])
    def test_quasiparticle_operators_annihilate_state(self, stats):
        rng = np.random.default_rng(11)
        n = 2
        cutoff = 16
        basis = FockBasis.build(stats, n, cutoff)
        pairs = ladders(basis)
        for _ in range(4):
            m = random_valid_map(
                stats, n, rng, pair_scale=0.12, shift_scale=0.2 if stats is BOSE else 0.0,
                gauge=True,
            )
            vec = state_of_map(m, basis)
            for i in range(n):
                bop = sum(m.u[i, j] * pairs[j][0] + m.v[i, j] * pairs[j][1]
                          for j in range(n))
                residual = bop @ vec.amplitudes + m.shift[i] * vec.amplitudes
                assert np.linalg.norm(residual) < 1e-7

    @pytest.mark.parametrize("n", [1, 2])
    def test_displaced_vector_is_exact_projection(self, n):
        # the in-box part of the state in a box 16 quanta wider, renormalized,
        # is the state built in the oracle's own box
        rng = np.random.default_rng(29 + n)
        h = number_operator(n, BOSE)
        for _ in range(3):
            m = random_valid_map(BOSE, n, rng, pair_scale=0.3, shift_scale=0.3, gauge=True)
            vec = oracle_state(m, h)
            basis = vec.basis
            wide = FockBasis.build(BOSE, n, basis.cutoffs[0] + 16)
            inbox = state_of_map(m, wide).amplitudes[basis.occupations @ wide.strides]
            inbox = inbox / np.linalg.norm(inbox)
            assert np.max(np.abs(vec.amplitudes - inbox)) < 1e-13

    def test_fermi_odd_random_map_annihilated(self):
        rng = np.random.default_rng(13)
        n = 3
        basis = FockBasis.build(FERMI, n)
        pairs = ladders(basis)
        e2 = np.zeros(n, complex)
        e2[1] = 1.0
        from quasivac import compose

        m = compose(reflection(e2), random_valid_map(FERMI, n, rng, pair_scale=0.4))
        vec = state_of_map(m, basis)
        for i in range(n):
            bop = sum(m.u[i, j] * pairs[j][0] + m.v[i, j] * pairs[j][1] for j in range(n))
            assert np.linalg.norm(bop @ vec.amplitudes) < 1e-10


class TestStackedStates:
    @pytest.mark.parametrize("stats,n,cutoff,shift_scale,reflect", [
        (BOSE, 2, (9, 7), 0.0, False),   # squeezed
        (BOSE, 2, (12, 10), 0.4, False),  # squeezed and displaced
        (FERMI, 3, 1, 0.0, False),        # even
        (FERMI, 3, 1, 0.0, True),         # odd, through a reflection
    ])
    def test_rows_are_the_states_of_each_map(self, stats, n, cutoff, shift_scale, reflect):
        rng = np.random.default_rng(41)
        basis = FockBasis.build(stats, n, cutoff)
        maps = []
        for k in range(4):
            m = random_valid_map(stats, n, rng, pair_scale=0.3, shift_scale=shift_scale,
                                 gauge=True)
            if reflect:
                m = compose(reflection(np.eye(n, dtype=complex)[k % n]), m)
            maps.append(m)
        amps, defects = states_of_maps(maps, basis, tail_tol=1.0)
        assert amps.shape == (len(maps), basis.dimension)
        for row, defect, m in zip(amps, defects, maps):
            one = state_of_map(m, basis, tail_tol=1.0)
            phase = np.vdot(one.amplitudes, row)
            assert abs(abs(phase) - 1.0) < 1e-12
            assert np.max(np.abs(row - phase * one.amplitudes)) < 1e-12
            assert defect == pytest.approx(one.norm_defect, abs=1e-12)

    def test_two_occupied_orbitals_peel_twice(self):
        # modes 1 and 2 occupied on top of a pair in modes 3 and 4, mixed by
        # a gauge so that no coordinate reflection is one of the occupied
        # directions: u is rank deficient by two, and each peeled reflection
        # raises its rank by one
        rng = np.random.default_rng(5)
        n = 4
        basis = FockBasis.build(FERMI, n)
        pair = np.zeros((n, n), complex)
        pair[2, 3], pair[3, 2] = 0.4 + 0.2j, -0.4 - 0.2j
        m = from_generator(Generator(FERMI, pair, np.zeros(n, complex)))
        for k in (0, 1):
            m = compose(reflection(np.eye(n, dtype=complex)[k]), m)
        m = compose(m, random_number_conserving(n, FERMI, rng))
        assert not m.odd
        assert np.linalg.matrix_rank(m.u, tol=1e-8) == n - 2
        _, applied = _chart_through_reflections(m)
        assert len(applied) == 2
        vec = states_of_maps([m], basis)[0][0]
        pairs = ladders(basis)
        for i in range(n):
            bop = sum(m.u[i, j] * pairs[j][0] + m.v[i, j] * pairs[j][1] for j in range(n))
            assert np.linalg.norm(bop @ vec) < 1e-10
        assert not vec[basis.occupations.sum(axis=1) % 2 == 1].any()

    def test_a_row_cut_off_by_the_box_raises(self):
        # the middle map is a coherent state of amplitude 3, whose 10-quantum
        # box cuts off 29% of its weight
        basis = FockBasis.build(BOSE, 1, cutoff=10)
        near = BogoliubovMap(BOSE, np.eye(1), np.zeros((1, 1)), np.array([0.1 + 0j]))
        far = BogoliubovMap(BOSE, np.eye(1), np.zeros((1, 1)), np.array([3.0 + 0j]))
        states_of_maps([near, near], basis)
        with pytest.raises(TailToleranceError, match="cuts off"):
            states_of_maps([near, far, near], basis)
        squeezed = BogoliubovMap(BOSE, np.array([[math.cosh(1.5)]]),
                                 np.array([[math.sinh(1.5)]]), np.zeros(1, complex))
        with pytest.raises(TailToleranceError, match="estimated series tail"):
            states_of_maps([near, squeezed], basis)


class TestSparseAction:
    @pytest.mark.parametrize("stats,n,cutoff", [(BOSE, 2, (4, 3)), (BOSE, 1, 9), (FERMI, 3, 1)])
    def test_polynomial_action_is_the_quantized_product(self, stats, n, cutoff):
        # each normal-ordered monomial is the product of its quantized
        # ladders: no intermediate state of a column in the box leaves it
        rng = np.random.default_rng(43)
        basis = FockBasis.build(stats, n, cutoff)
        pairs = ladders(basis)
        for _ in range(3):
            poly = random_free_hermitian(stats, n, rng, include_odd=True)
            block = rng.standard_normal((3, basis.dimension)) + 1j * rng.standard_normal(
                (3, basis.dimension))
            expected = np.zeros_like(block)
            for (cr, an), coeff in poly.items():
                op = np.eye(basis.dimension)
                for i in cr:
                    op = op @ pairs[i - 1][1]
                for i in an:
                    op = op @ pairs[i - 1][0]
                expected += coeff * (op @ block.T).T
            matrix = sparse_matrix(poly, basis)
            assert np.max(np.abs((matrix @ block.T).T - expected)) < 1e-12
            assert np.array_equal(matrix.toarray(), quantize(poly, basis))

    @pytest.mark.parametrize("stats,n,cutoff", [(BOSE, 2, (4, 3)), (FERMI, 3, 1)])
    def test_linear_action_is_the_ladder_sum(self, stats, n, cutoff):
        rng = np.random.default_rng(47)
        basis = FockBasis.build(stats, n, cutoff)
        pairs = ladders(basis)
        cre = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
        ann = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
        block = rng.standard_normal((2, basis.dimension)) + 0j
        got = apply_linear(basis, cre, ann, block)
        for k in range(2):
            op = sum(cre[k, j] * pairs[j][1] + ann[k, j] * pairs[j][0] for j in range(n))
            assert np.max(np.abs(got[k] - op @ block[k])) < 1e-12


class TestEngineOracleAgreement:
    @pytest.mark.parametrize("stats,n,cutoff", [(BOSE, 1, 20), (BOSE, 2, 14), (FERMI, 3, 1)])
    def test_expectation_agreement(self, stats, n, cutoff):
        rng = np.random.default_rng(17)
        basis = FockBasis.build(stats, n, cutoff)
        for _ in range(4):
            h = random_free_hermitian(stats, n, rng)
            m = random_valid_map(
                stats, n, rng, pair_scale=0.1, shift_scale=0.15 if stats is BOSE else 0.0,
                gauge=True,
            )
            vec = state_of_map(m, basis)
            assert vec.norm_defect < 1e-6
            engine = residual_blocks(h, m).constant
            oracle = expectation(vec, quantize(h, basis))
            assert abs(engine - oracle) < 1e-6

    def test_truncation_monotonicity(self):
        t = 0.45
        h = squeezed_oscillator()
        m = BogoliubovMap(
            BOSE,
            np.array([[math.cosh(t)]], dtype=complex),
            np.array([[math.sinh(t)]], dtype=complex),
            np.zeros(1, complex),
        )
        engine = residual_blocks(h, m).constant.real
        discrepancies = []
        for cutoff in (8, 12, 16, 20):
            basis = FockBasis.build(BOSE, 1, cutoff)
            vec = state_of_map(m, basis, tail_tol=1.0)
            oracle = expectation(vec, quantize(h, basis)).real
            discrepancies.append(abs(engine - oracle))
        for before, after in zip(discrepancies, discrepancies[1:]):
            assert after <= before + 1e-13

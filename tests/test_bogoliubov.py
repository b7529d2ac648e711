"""Bogoliubov map algebra, generators and charts."""

import math

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg._matfuncs_expm import pick_pade_structure

from quasivac import (
    BogoliubovMap,
    FockBasis,
    Generator,
    Statistics,
    compose,
    from_generator,
    inverse,
    state_of_map,
)
from quasivac import bogoliubov
from quasivac.bogoliubov import (
    chart_from_map,
    compose_arrays,
    exponential_map,
    identity,
    inverse_arrays,
    random_generator,
    random_number_conserving,
    reflection,
    relative_overlap,
)
from quasivac.errors import ChartDomainError, DegeneracyError, InvalidGeneratorError

from conftest import random_bounded_hamiltonian, random_valid_map
from references import (
    chart_from_generator,
    exp_generator,
    gaussian_vector,
    preserves_form,
    residual_norms,
    vacuum_vector,
)

BOSE = Statistics.BOSE
FERMI = Statistics.FERMI


def bose_squeeze(t):
    """One-mode map with u = cosh t, v = sinh t."""
    return from_generator(Generator(BOSE, np.array([[1j * t]]), np.zeros(1, complex)))


def unit_vector(n, rng):
    y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return y / np.linalg.norm(y)


class TestIdentityComposeInverse:
    def test_identity_values(self):
        m = identity(1, BOSE)
        assert np.allclose(m.u, [[1.0]])
        assert np.allclose(m.v, [[0.0]])
        assert np.allclose(m.shift, [0.0])
        assert residual_norms(m) == (0.0, 0.0)
        m2 = identity(2, FERMI)
        assert np.allclose(m2.u, np.eye(2))
        assert np.allclose(m2.v, 0)

    @pytest.mark.parametrize("stats", [BOSE, FERMI])
    def test_identity_law(self, stats):
        rng = np.random.default_rng(2)
        m = random_valid_map(stats, 3, rng, shift_scale=0.3 if stats is BOSE else 0.0)
        left = compose(identity(3, stats), m)
        right = compose(m, identity(3, stats))
        for composed in (left, right):
            assert np.max(np.abs(composed.u - m.u)) < 1e-12
            assert np.max(np.abs(composed.v - m.v)) < 1e-12
            assert np.max(np.abs(composed.shift - m.shift)) < 1e-12

    @pytest.mark.parametrize("stats", [BOSE, FERMI])
    def test_compose_inverse_is_identity(self, stats):
        rng = np.random.default_rng(3)
        for _ in range(5):
            m = random_valid_map(
                stats, 3, rng, pair_scale=0.4, shift_scale=0.5 if stats is BOSE else 0.0,
                gauge=True,
            )
            for composed in (compose(m, inverse(m)), compose(inverse(m), m)):
                assert np.max(np.abs(composed.u - np.eye(3))) < 1e-10
                assert np.max(np.abs(composed.v)) < 1e-10
                assert np.max(np.abs(composed.shift)) < 1e-10

    def test_inverse_of_identity(self):
        m = inverse(identity(2, BOSE))
        assert np.allclose(m.u, np.eye(2))
        assert np.allclose(m.v, 0)

    def test_squeeze_composition_adds_parameters(self):
        r1, r2 = 0.3, 0.45
        composed = compose(bose_squeeze(r1), bose_squeeze(r2))
        expected = bose_squeeze(r1 + r2)
        assert np.max(np.abs(composed.u - expected.u)) < 1e-12
        assert np.max(np.abs(composed.v - expected.v)) < 1e-12

    def test_inverse_of_squeeze_negates(self):
        m = inverse(bose_squeeze(0.6))
        expected = bose_squeeze(-0.6)
        assert np.max(np.abs(m.u - expected.u)) < 1e-12
        assert np.max(np.abs(m.v - expected.v)) < 1e-12

    def test_inverse_transports_displacement(self):
        rng = np.random.default_rng(8)
        m = random_valid_map(BOSE, 2, rng, pair_scale=0.3, shift_scale=0.7)
        inv = inverse(m)
        expected = -(inv.u @ m.shift + inv.v @ np.conj(m.shift))
        assert np.max(np.abs(inv.shift - expected)) < 1e-12

    @pytest.mark.parametrize("stats", [BOSE, FERMI])
    def test_group_conditions_and_form_preservation(self, stats):
        rng = np.random.default_rng(5)
        for _ in range(5):
            m = random_valid_map(
                stats, 3, rng, pair_scale=0.5, shift_scale=0.4 if stats is BOSE else 0.0,
                gauge=True,
            )
            assert max(residual_norms(m)) <= 1e-10
            assert preserves_form(m, rng, n_pairs=20) < 1e-10

    def test_fermi_parity_homomorphism(self):
        rng = np.random.default_rng(7)
        e1 = np.zeros(2, complex)
        e1[0] = 1.0
        odd = reflection(e1)
        even = random_valid_map(FERMI, 2, rng)
        assert compose(odd, odd).odd is False
        assert compose(odd, even).odd is True
        assert compose(even, odd).odd is True
        assert compose(even, even).odd is False
        assert max(residual_norms(compose(odd, even))) <= 1e-10

    def test_results_are_read_only_and_the_constructor_copies(self):
        rng = np.random.default_rng(9)
        m = random_valid_map(BOSE, 2, rng, pair_scale=0.3, shift_scale=0.2)
        g = random_generator(2, BOSE, rng, 0.2, 0.1)
        for out in (compose(m, m), inverse(m), from_generator(g)):
            assert not any(a.flags.writeable for a in (out.u, out.v, out.shift))
        u = np.array(m.u)
        built = BogoliubovMap(BOSE, u, m.v, m.shift)
        u[0, 0] += 1.0
        assert built.u[0, 0] == m.u[0, 0]


class TestReflection:
    def test_single_mode_values(self):
        e1 = np.zeros(2, complex)
        e1[0] = 1.0
        m = reflection(e1)
        assert np.allclose(m.u, np.diag([0.0, -1.0]))
        assert np.allclose(m.v, np.diag([1.0, 0.0]))
        assert m.odd
        assert residual_norms(m) == (0.0, 0.0)


class TestFromGenerator:
    def test_zero_generator(self):
        m = from_generator(Generator(FERMI, np.zeros((2, 2), complex), np.zeros(2, complex)))
        assert np.allclose(m.u, np.eye(2))
        assert np.allclose(m.v, 0)

    def test_bose_squeeze_values(self):
        t = 0.8
        m = bose_squeeze(t)
        assert np.allclose(m.u, [[math.cosh(t)]], atol=1e-12)
        assert np.allclose(m.v, [[math.sinh(t)]], atol=1e-12)

    def test_fermi_rotation_block(self):
        t = 0.4
        pair = np.array([[0, t], [-t, 0]], dtype=complex)
        m = from_generator(Generator(FERMI, pair, np.zeros(2, complex)))
        assert np.allclose(m.u, math.cos(t) * np.eye(2), atol=1e-12)
        expected_v = np.array([[0, -1j * math.sin(t)], [1j * math.sin(t), 0]])
        assert np.allclose(m.v, expected_v, atol=1e-12)

    def test_pure_displacement(self):
        y = np.array([0.3 - 0.2j, 0.1j])
        m = from_generator(Generator(BOSE, np.zeros((2, 2), complex), y))
        assert np.allclose(m.u, np.eye(2))
        assert np.allclose(m.v, 0)
        assert np.allclose(m.shift, -1j * y)

    def test_generator_symmetry_enforced(self):
        with pytest.raises(InvalidGeneratorError):
            Generator(BOSE, np.array([[0, 1.0], [-1.0, 0]]), np.zeros(2, complex))
        with pytest.raises(InvalidGeneratorError):
            Generator(FERMI, np.array([[0, 1.0], [1.0, 0]]), np.zeros(2, complex))
        with pytest.raises(InvalidGeneratorError):
            Generator(FERMI, np.zeros((2, 2), complex), np.ones(2, complex))

    @pytest.mark.parametrize("stats", [BOSE, FERMI])
    def test_result_is_valid_map(self, stats):
        rng = np.random.default_rng(11)
        for _ in range(5):
            g = random_generator(3, stats, rng, pair_scale=0.5,
                                 shift_scale=0.5 if stats is BOSE else 0.0)
            assert max(residual_norms(from_generator(g))) <= 1e-10


class TestCharts:
    def test_zero_generator_chart(self):
        zero = Generator(BOSE, np.zeros((2, 2), complex), np.zeros(2, complex))
        chart = chart_from_generator(zero)
        assert np.allclose(chart.z, 0)
        assert np.allclose(chart.shift, 0)

    def test_bose_scalar_tanh(self):
        s = 0.6
        g = Generator(BOSE, np.array([[1j * s / 2]]), np.zeros(1, complex))
        chart = chart_from_generator(g)
        # z = i tanh(|pair|) pair/|pair| = -tanh(s/2)
        assert np.allclose(chart.z, [[-math.tanh(s / 2)]], atol=1e-12)

    def test_fermi_scalar_tan(self):
        t = 0.4
        pair = np.array([[0, t], [-t, 0]], dtype=complex)
        chart = chart_from_generator(Generator(FERMI, pair, np.zeros(2, complex)))
        assert np.allclose(chart.z[0, 1], 1j * math.tan(t), atol=1e-12)
        assert np.allclose(chart.z, -chart.z.T)

    def test_fermi_chart_domain(self):
        pair = np.array([[0, 1.7], [-1.7, 0]], dtype=complex)
        with pytest.raises(ChartDomainError):
            chart_from_generator(Generator(FERMI, pair, np.zeros(2, complex)))

    def test_fermi_generator_beyond_chart_still_valid_group_element(self):
        pair = np.array([[0, 1.7], [-1.7, 0]], dtype=complex)
        m = from_generator(Generator(FERMI, pair, np.zeros(2, complex)))
        assert max(residual_norms(m)) <= 1e-10

    def test_chart_from_map_identity(self):
        chart = chart_from_map(identity(2, BOSE))
        assert np.allclose(chart.z, 0)
        assert np.allclose(chart.shift, 0)

    def test_chart_of_squeeze(self):
        t = 0.8
        chart = chart_from_map(bose_squeeze(t))
        assert np.allclose(chart.z, [[-math.tanh(t)]], atol=1e-12)

    def test_fermi_swap_degenerate(self):
        swap = BogoliubovMap(
            FERMI, np.zeros((1, 1), complex), np.eye(1, dtype=complex), np.zeros(1, complex)
        )
        with pytest.raises(DegeneracyError):
            chart_from_map(swap)

    def test_chart_matches_generator_route(self):
        rng = np.random.default_rng(13)
        for stats in (BOSE, FERMI):
            for _ in range(5):
                g = random_generator(3, stats, rng, pair_scale=0.2,
                                     shift_scale=0.3 if stats is BOSE else 0.0)
                direct = chart_from_generator(g)
                via_map = chart_from_map(from_generator(g))
                assert np.max(np.abs(direct.z - via_map.z)) < 1e-11
                assert np.max(np.abs(direct.shift - via_map.shift)) < 1e-11

    def test_bose_chart_norm_below_one(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            m = random_valid_map(BOSE, 3, rng, pair_scale=0.8, gauge=True)
            chart = chart_from_map(m)
            assert np.linalg.norm(chart.z, 2) < 1.0


class TestStateLevelConsistency:
    """Generator exponential and chart vector describe the same state."""

    def overlap(self, stats, n, cutoff, g):
        basis = FockBasis.build(stats, n, cutoff)
        via_exp = exp_generator(g, basis, vacuum_vector(basis))
        via_chart = gaussian_vector(chart_from_generator(g), basis)
        return abs(np.vdot(via_exp.amplitudes, via_chart.amplitudes))

    def test_bose_one_mode(self):
        rng = np.random.default_rng(19)
        for _ in range(3):
            g = random_generator(1, BOSE, rng, pair_scale=0.25)
            assert self.overlap(BOSE, 1, 24, g) > 1 - 1e-8

    def test_bose_with_displacement(self):
        rng = np.random.default_rng(23)
        g = random_generator(1, BOSE, rng, pair_scale=0.2, shift_scale=0.3)
        assert self.overlap(BOSE, 1, 24, g) > 1 - 1e-8

    def test_fermi_two_modes(self):
        rng = np.random.default_rng(29)
        for _ in range(3):
            g = random_generator(2, FERMI, rng, pair_scale=0.4)
            assert self.overlap(FERMI, 2, 1, g) > 1 - 1e-10


class TestGaugeCovariance:
    @pytest.mark.parametrize("stats", [BOSE, FERMI])
    def test_right_gauge_leaves_state_invariant(self, stats):
        from quasivac import state_of_map

        rng = np.random.default_rng(37)
        n = 2
        basis = FockBasis.build(stats, n, cutoff=14)
        m = random_valid_map(stats, n, rng, pair_scale=0.15,
                             shift_scale=0.2 if stats is BOSE else 0.0)
        base = state_of_map(m, basis)
        for _ in range(3):
            gauged = compose(m, random_number_conserving(n, stats, rng))
            vec = state_of_map(gauged, basis)
            assert abs(np.vdot(base.amplitudes, vec.amplitudes)) > 1 - 1e-9

    @pytest.mark.parametrize("stats", [BOSE, FERMI])
    def test_right_gauge_leaves_blocks_invariant(self, stats):
        from quasivac import residual_blocks

        rng = np.random.default_rng(31)
        h = random_bounded_hamiltonian(stats, 2, rng, quartic=True)
        m = random_valid_map(stats, 2, rng, pair_scale=0.3)
        base = residual_blocks(h, m)
        base_spec = np.linalg.eigvalsh(
            (base.single_particle + base.single_particle.conj().T) / 2
        )
        for _ in range(5):
            gauged = compose(m, random_number_conserving(2, stats, rng))
            sweep = residual_blocks(h, gauged)
            spec = np.linalg.eigvalsh(
                (sweep.single_particle + sweep.single_particle.conj().T) / 2
            )
            assert abs(sweep.constant - base.constant) < 1e-8
            assert abs(sweep.linear_norm - base.linear_norm) < 1e-8
            assert abs(sweep.pairing_norm - base.pairing_norm) < 1e-8
            assert np.max(np.abs(spec - base_spec)) < 1e-8


def overlap(m1, m2):
    """|<Phi_1|Phi_2>|^2 through the relative map, as the merge test forms it."""
    return relative_overlap(inverse(m1), (m2.u, m2.v, m2.shift), m2.odd)


class TestOverlap:
    """Onishi's formula against the dense Fock states of both maps."""

    @staticmethod
    def dense(m1, m2, basis):
        a, b = state_of_map(m1, basis).amplitudes, state_of_map(m2, basis).amplitudes
        return abs(np.vdot(a, b)) ** 2

    @pytest.mark.parametrize("n,cutoff", [(1, 40), (2, 24)])
    @pytest.mark.parametrize("shift_scale", [0.0, 0.3])
    def test_bose(self, n, cutoff, shift_scale):
        rng = np.random.default_rng(41 + n)
        basis = FockBasis.build(BOSE, n, cutoff)
        for _ in range(3):
            m1, m2 = (random_valid_map(BOSE, n, rng, 0.3, shift_scale, gauge=True)
                      for _ in range(2))
            assert overlap(m1, m2) == pytest.approx(self.dense(m1, m2, basis), abs=1e-10)
            assert overlap(m1, m1) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("reflected", [False, True])
    def test_fermi_same_parity(self, n, reflected):
        rng = np.random.default_rng(47 + n)
        basis = FockBasis.build(FERMI, n)
        for _ in range(3):
            m1, m2 = (random_valid_map(FERMI, n, rng, 0.6, gauge=True) for _ in range(2))
            if reflected:
                m1, m2 = (compose(m, reflection(unit_vector(n, rng))) for m in (m1, m2))
            assert m1.odd == m2.odd == reflected
            assert overlap(m1, m2) == pytest.approx(self.dense(m1, m2, basis), abs=1e-10)

    def test_fermi_opposite_parity_is_zero(self):
        rng = np.random.default_rng(53)
        m1 = random_valid_map(FERMI, 3, rng, 0.6, gauge=True)
        m2 = compose(random_valid_map(FERMI, 3, rng, 0.6), reflection(unit_vector(3, rng)))
        assert self.dense(m1, m2, FockBasis.build(FERMI, 3)) < 1e-28
        assert overlap(m1, m2) == 0.0
        assert overlap(m2, m1) == 0.0


class TestRelativeOverlap:
    """The merge test's overlap, taken from the iterate's arrays: undisplaced,
    bit for bit the determinant of the relative map's u block as ``compose``
    forms it."""

    @staticmethod
    def u_only(m1, m2):
        det = float(abs(np.linalg.det(compose(inverse(m1), m2).u)))
        return det if m1.stats is FERMI else 1.0 / det

    @pytest.mark.parametrize("stats", [BOSE, FERMI])
    def test_even_maps_read_the_relative_u_block_bitwise(self, stats):
        rng = np.random.default_rng(59)
        for n in (1, 2, 3, 4):
            for scale in (0.1, 0.6):
                m1, m2 = (random_valid_map(stats, n, rng, scale, gauge=True) for _ in range(2))
                for a, b in ((m1, m2), (m2, m1), (m1, m1)):
                    assert overlap(a, b) == self.u_only(a, b)

    def test_fermi_odd_maps(self):
        rng = np.random.default_rng(61)
        for n in (2, 3):
            even = random_valid_map(FERMI, n, rng, 0.6, gauge=True)
            odd1, odd2 = (compose(random_valid_map(FERMI, n, rng, 0.6, gauge=True),
                                  reflection(unit_vector(n, rng))) for _ in range(2))
            # a relative map of odd parity reads 0, in either order
            assert overlap(even, odd1) == 0.0
            assert overlap(odd1, even) == 0.0
            # two odd maps make an even relative map
            assert overlap(odd1, odd2) == self.u_only(odd1, odd2) > 0.0

    def test_displaced_bose_maps_take_the_full_formula(self):
        rng = np.random.default_rng(67)
        for n in (1, 2, 3):
            plain = random_valid_map(BOSE, n, rng, 0.3, gauge=True)
            moved1, moved2 = (random_valid_map(BOSE, n, rng, 0.3, 0.5, gauge=True)
                              for _ in range(2))
            for a, b in ((plain, moved1), (moved1, plain), (moved1, moved2)):
                # the displacement factor is what the u block alone would miss
                assert overlap(a, b) < self.u_only(a, b) * (1.0 - 1e-3)
                assert overlap(a, b) == pytest.approx(overlap(b, a), rel=1e-12)
            assert overlap(moved1, moved1) == pytest.approx(1.0, abs=1e-12)


def action_matrix(pair, shift):
    """The generator's action on the column (a, a*), with the affine column
    appended when the shift is nonzero: the matrix ``exponential_map``
    exponentiates."""
    n = pair.shape[0]
    k = 2 * n + bool(np.any(shift != 0))
    a = np.zeros((k, k), complex)
    a[:n, n : 2 * n] = -1j * pair
    a[n : 2 * n, :n] = 1j * np.conj(pair)
    if k > 2 * n:
        a[:n, 2 * n] = -1j * shift
        a[n : 2 * n, 2 * n] = 1j * np.conj(shift)
    return a


def same_bytes(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def random_pair(stats, n, rng, norm):
    """Random pair matrix of the statistics' symmetry and spectral norm ``norm``."""
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    pair = (raw + raw.T) / 2 if stats is BOSE else (raw - raw.T) / 2
    top = np.linalg.norm(pair, 2)  # 0 for one fermionic mode
    return pair * (norm / top) if top else pair


class TestExponentialMatchesScipy:
    """``exponential_map`` calls scipy's Padé kernels itself; its blocks must
    be, byte for byte, those of ``scipy.linalg.expm`` on the same matrix."""

    @staticmethod
    def check(stats, pair, shift):
        e = scipy.linalg.expm(action_matrix(pair, shift))
        n = pair.shape[0]
        u, v, out_shift = exponential_map(stats, pair, shift)
        assert same_bytes(u, e[:n, :n])
        assert same_bytes(v, e[:n, n : 2 * n])
        assert same_bytes(out_shift, e[:n, 2 * n] if e.shape[0] > 2 * n else np.zeros(n, complex))

    @pytest.mark.parametrize("stats", [BOSE, FERMI])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_pair_norms_from_small_to_squared(self, stats, n):
        rng = np.random.default_rng(71 + n)
        for norm in (1e-3, 0.05, 0.3, 1.0, 2.5, 8.0):
            pair = random_pair(stats, n, rng, norm)
            shifts = [np.zeros(n, complex)]
            if stats is BOSE:
                shifts.append(0.4 * (rng.standard_normal(n) + 1j * rng.standard_normal(n)))
            for shift in shifts:
                self.check(stats, pair, shift)

    def test_large_norms_run_the_squarings(self):
        # below norm ~5.4 no squaring runs; the byte test above must reach one
        work = np.zeros((5, 4, 4), complex)
        work[0] = action_matrix(random_pair(BOSE, 2, np.random.default_rng(3), 8.0),
                                np.zeros(2, complex))
        assert pick_pade_structure(work)[1] > 0

    @pytest.mark.parametrize("stats", [BOSE, FERMI])
    def test_identity(self, stats):
        for n in (1, 3):
            self.check(stats, np.zeros((n, n), complex), np.zeros(n, complex))
            u, v, shift = exponential_map(stats, np.zeros((n, n), complex), np.zeros(n, complex))
            assert same_bytes(u, np.eye(n, dtype=complex)) and not v.any() and not shift.any()

    def test_shift_only(self):
        # a pure displacement's matrix is upper triangular, and scipy's expm
        # writes +0.0 below the diagonal of its exponential where the Padé
        # kernels leave -0.0: the bytes agree once the zeros' sign is dropped
        rng = np.random.default_rng(79)
        for n in (1, 2, 4):
            shift = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            zero = np.zeros((n, n), complex)
            e = scipy.linalg.expm(action_matrix(zero, shift))
            blocks = exponential_map(BOSE, zero, shift)
            for got, want in zip(blocks, (e[:n, :n], e[:n, n : 2 * n], e[:n, 2 * n])):
                assert same_bytes(got + 0.0, want + 0.0)
            u, _, out_shift = blocks
            assert np.allclose(u, np.eye(n)) and np.allclose(out_shift, -1j * shift)

    @pytest.mark.parametrize("kernel, code, error", [
        ("pick_pade_structure", (-1, 0), MemoryError),
        ("pade_UV_calc", -3, RuntimeError),
        ("pade_UV_calc", -11, MemoryError),
    ])
    def test_kernel_failures_raise_as_scipy_does(self, monkeypatch, kernel, code, error):
        monkeypatch.setattr(bogoliubov, kernel, lambda *args: code)
        with pytest.raises(error):
            exponential_map(BOSE, np.eye(2, dtype=complex), np.zeros(2, complex))


class TestZeroShiftKernels:
    """Unshifted maps do no shift arithmetic: their zero shifts are fresh
    arrays; displaced ones take the full formula bit for bit."""

    @staticmethod
    def arrays(m):
        return m.u, m.v, m.shift

    @staticmethod
    def fresh(out, *inputs):
        return not any(np.shares_memory(out, x) for x in inputs)

    @pytest.mark.parametrize("stats", [BOSE, FERMI])
    def test_unshifted_zero_shifts_are_fresh_and_equal_the_formula(self, stats):
        rng = np.random.default_rng(83)
        for n in (1, 2, 3):
            m1, m2 = (self.arrays(random_valid_map(stats, n, rng, 0.5, gauge=True))
                      for _ in range(2))
            (u1, v1, s1), (u2, v2, s2) = m1, m2
            shift = compose_arrays(m1, m2)[2]
            assert self.fresh(shift, s1, s2)
            assert np.array_equal(shift, u2 @ s1 + v2 @ np.conj(s1) + s2)
            inv_u, inv_v, shift = inverse_arrays(stats, m1)
            assert self.fresh(shift, s1)
            assert np.array_equal(shift, -(inv_u @ s1 + inv_v @ np.conj(s1)))
            pair, zero = random_pair(stats, n, rng, 0.5), np.zeros(n, complex)
            shift = exponential_map(stats, pair, zero)[2]
            assert self.fresh(shift, pair, zero)
            # the full formula: the affine column appended, although it is zero
            aug = np.zeros((2 * n + 1, 2 * n + 1), complex)
            aug[: 2 * n, : 2 * n] = action_matrix(pair, zero)
            assert np.array_equal(shift, scipy.linalg.expm(aug)[:n, 2 * n])

    def test_displaced_maps_take_the_full_formula_bitwise(self):
        rng = np.random.default_rng(89)
        for n in (1, 2, 3):
            plain = self.arrays(random_valid_map(BOSE, n, rng, 0.4, gauge=True))
            moved = [self.arrays(random_valid_map(BOSE, n, rng, 0.4, 0.5, gauge=True))
                     for _ in range(2)]
            for m1, m2 in ((plain, moved[0]), (moved[0], plain), tuple(moved)):
                (u1, v1, s1), (u2, v2, s2) = m1, m2
                want = (u2 @ u1 + v2 @ np.conj(v1), u2 @ v1 + v2 @ np.conj(u1),
                        u2 @ s1 + v2 @ np.conj(s1) + s2)
                assert all(map(same_bytes, compose_arrays(m1, m2), want))
            u, v, s = moved[0]
            inv_u, inv_v = u.conj().T, -1.0 * v.T
            want = inv_u, inv_v, -(inv_u @ s + inv_v @ np.conj(s))
            assert all(map(same_bytes, inverse_arrays(BOSE, moved[0]), want))

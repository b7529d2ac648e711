"""Minimization over Gaussian states and the stationarity certification."""

import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest

from quasivac import (
    BogoliubovMap,
    FockBasis,
    Generator,
    MinimizeOptions,
    Mode,
    RunStatus,
    Statistics,
    WickPolynomial,
    certify,
    compose,
    from_generator,
    ground_energy,
    minimize,
    quantize,
    residual_blocks,
    state_of_map,
)
from quasivac import bogoliubov, fock, variational
from quasivac.bogoliubov import identity, reflection
from quasivac.errors import (DimensionCapError, HermiticityError, ParityError,
                             StatisticsMismatchError)
from quasivac.ordering import CompiledPolynomial
from quasivac.variational import (
    FD_STEP,
    descent_direction,
    directional_derivative,
    result_at,
)
from quasivac.wick import DEGREE_CAP, Blocks

from conftest import (
    bcs_hamiltonian,
    displaced_oscillator,
    engine_builds,
    perfbench_module,
    random_bounded_hamiltonian,
    random_free_hermitian,
    random_valid_map,
    rewritten,
    squeezed_oscillator,
)
from references import expectation

BOSE = Statistics.BOSE
FERMI = Statistics.FERMI

SQUEEZE_RSTAR = math.atanh(0.6) / 2  # kills the anomalous block at omega=1, lam=0.3
BCS_EXACT = 1.0 - math.sqrt(1.25)
BCS_QP = math.sqrt(1.25)


def attractive_quartic():
    """-a*a + 0.1 a*a*aa: stationary at the vacuum, which is no minimum."""
    return WickPolynomial.from_terms(1, BOSE, [([1], [1], -1.0), ([1, 1], [1, 1], 0.1)])


def bose_squeeze(t):
    return from_generator(Generator(BOSE, np.array([[1j * t]]), np.zeros(1, complex)))


class TestResidualBlocks:
    def test_identity_transform(self):
        blocks = residual_blocks(squeezed_oscillator(), identity(1, BOSE))
        assert blocks.constant == 0
        assert np.allclose(blocks.linear, 0)
        assert np.allclose(blocks.pairing, [[0.3]])
        assert np.allclose(blocks.single_particle, [[1.0]])

    def test_diagonalizing_squeeze(self):
        blocks = residual_blocks(squeezed_oscillator(), bose_squeeze(SQUEEZE_RSTAR))
        assert blocks.pairing_norm < 1e-10
        assert blocks.constant.real == pytest.approx(-0.1, abs=1e-12)
        assert abs(blocks.constant.imag) < 1e-12
        assert np.allclose(blocks.single_particle, [[0.8]], atol=1e-10)
        # oracle: dense eigensolve reproduces the same energy
        basis = FockBasis.build(BOSE, 1, cutoff=16)
        assert ground_energy(squeezed_oscillator(), basis) == pytest.approx(-0.1, abs=1e-8)

    def test_fermi_swap_negative_quasiparticle(self):
        eps = 1.0
        h = WickPolynomial.empty(1, FERMI).add_term([1], [1], eps)
        e1 = np.ones(1, complex)
        blocks = residual_blocks(h, reflection(e1))
        assert blocks.constant.real == pytest.approx(eps)
        assert np.allclose(blocks.single_particle, [[-eps]], atol=1e-14)

    @pytest.mark.parametrize("stats", [BOSE, FERMI])
    def test_fast_route_matches_normal_ordering(self, stats):
        rng = np.random.default_rng(3)
        n = 2
        for _ in range(5):
            h = random_free_hermitian(stats, n, rng)
            m = random_valid_map(stats, n, rng, pair_scale=0.3,
                                 shift_scale=0.3 if stats is BOSE else 0.0, gauge=True)
            blocks = residual_blocks(h, m)
            engine = result_at(CompiledPolynomial(h), m).blocks
            assert abs(engine.constant - blocks.constant) < 1e-10
            for name in ("linear", "pairing", "single_particle"):
                assert np.max(np.abs(getattr(engine, name) - getattr(blocks, name))) < 1e-10

    @pytest.mark.parametrize("stats", [BOSE, FERMI])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_engine_matches_normal_ordering_up_to_the_degree_cap(self, stats, n):
        # odd, even and top-degree terms (Fermi reaches DEGREE_CAP at n = 4);
        # the pairing block and D of a degree-8 term use the 10-position tables
        rng = np.random.default_rng(100 + n)
        fermi = stats is FERMI
        top = min(DEGREE_CAP, 2 * n) if fermi else DEGREE_CAP
        for _ in range(3):
            entries = []
            for d in [top, top - 1, *rng.integers(0, top + 1, size=3)]:
                if fermi:
                    k = int(rng.integers(max(0, d - n), min(d, n) + 1))
                    cr, an = rng.choice(n, k, replace=False), rng.choice(n, d - k, replace=False)
                else:
                    k = int(rng.integers(0, d + 1))
                    cr, an = rng.integers(0, n, size=k), rng.integers(0, n, size=d - k)
                c = complex(rng.standard_normal(), rng.standard_normal())
                entries.append(([int(i) + 1 for i in cr], [int(i) + 1 for i in an], c))
            h = WickPolynomial.from_terms(n, stats, entries)
            m = random_valid_map(stats, n, rng, pair_scale=0.3,
                                 shift_scale=0.0 if fermi else 0.3, gauge=True)
            if fermi:
                m = compose(m, reflection(np.eye(n)[0]))
            blocks = residual_blocks(h, m)
            engine = result_at(CompiledPolynomial(h), m).blocks
            scale = max(1.0, abs(blocks.constant), np.max(np.abs(blocks.linear)),
                        np.max(np.abs(blocks.pairing)))
            assert abs(engine.constant - blocks.constant) <= 1e-12 * scale
            assert np.max(np.abs(engine.linear - blocks.linear)) <= 1e-12 * scale
            assert np.max(np.abs(engine.pairing - blocks.pairing)) <= 1e-12 * scale
            d_scale = max(1.0, abs(blocks.constant), np.max(np.abs(blocks.single_particle)))
            d_diff = engine.single_particle - blocks.single_particle
            assert np.max(np.abs(d_diff)) <= 1e-12 * d_scale

    @pytest.mark.parametrize("stats", [BOSE, FERMI])
    @pytest.mark.parametrize("k", [-60, -20, 20, 60])
    def test_scaling_h_by_a_power_of_two_scales_every_block_exactly(self, stats, k):
        # normal ordering prunes relative to the largest coefficient, so no
        # scale of H drops a term (the bosonic maps are shifted)
        rng = np.random.default_rng(11)
        bose = stats is BOSE
        h = random_free_hermitian(stats, 2, rng, include_odd=bose)
        m = random_valid_map(stats, 2, rng, pair_scale=0.3, shift_scale=0.3 if bose else 0.0)
        base, scaled = residual_blocks(h, m), residual_blocks(h.scaled(2.0**k), m)
        assert len(base.remainder) > 0
        assert scaled.remainder.terms == {key: 2.0**k * c for key, c in base.remainder.items()}
        for name in ("constant", "linear", "pairing", "single_particle",
                     "linear_defect", "pairing_defect"):
            assert np.array_equal(getattr(scaled, name), 2.0**k * getattr(base, name)), name


    @pytest.mark.parametrize("m", [identity(1, FERMI), identity(2, BOSE)],
                             ids=["statistics", "modes"])
    def test_mismatched_map_is_rejected(self, m):
        with pytest.raises(StatisticsMismatchError):
            residual_blocks(squeezed_oscillator(), m)


class TestDescentDirection:
    def test_zero_blocks_give_zero_generator(self):
        blocks = residual_blocks(
            WickPolynomial.empty(1, BOSE).add_term([1], [1], 1.0), identity(1, BOSE)
        )
        pair, shift = descent_direction(blocks.stats, blocks.linear, blocks.pairing)
        assert np.all(pair == 0)
        assert np.all(shift == 0)

    def test_bose_anomalous_direction(self):
        blocks = residual_blocks(squeezed_oscillator(), identity(1, BOSE))
        pair, shift = descent_direction(blocks.stats, blocks.linear, blocks.pairing)
        assert np.allclose(pair, [[0.3j]])
        assert np.all(shift == 0)

    def test_bose_full_linear_direction(self):
        blocks = residual_blocks(displaced_oscillator(), identity(1, BOSE))
        pair, shift = descent_direction(blocks.stats, blocks.linear, blocks.pairing)
        assert np.allclose(shift, [0.5j])
        assert np.allclose(pair, 0)

    @pytest.mark.parametrize("stats", [BOSE, FERMI])
    def test_first_order_decrease(self, stats):
        rng = np.random.default_rng(5)
        n = 2
        h = random_free_hermitian(stats, n, rng)
        m = random_valid_map(stats, n, rng, pair_scale=0.2)
        blocks = residual_blocks(h, m)
        g = Generator(stats, *descent_direction(blocks.stats, blocks.linear, blocks.pairing))
        expected = -2.0 * (blocks.pairing_norm**2 + blocks.linear_norm**2)
        assert directional_derivative(blocks, g) == pytest.approx(expected, rel=1e-12)


class TestGradientAgainstOracle:
    @pytest.mark.parametrize("stats,n,cutoff", [(BOSE, 1, 20), (BOSE, 2, 14), (FERMI, 2, 1)])
    def test_directional_derivative_matches_finite_differences(self, stats, n, cutoff):
        rng = np.random.default_rng(11)
        basis = FockBasis.build(stats, n, cutoff)
        h_step = 1e-4
        for _ in range(4):
            h = random_free_hermitian(stats, n, rng)
            m = random_valid_map(stats, n, rng, pair_scale=0.12,
                                 shift_scale=0.1 if stats is BOSE else 0.0, gauge=True)
            hmat = quantize(h, basis)
            blocks = residual_blocks(h, m)
            raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            pair = (raw + raw.T) / 2 if stats is BOSE else (raw - raw.T) / 2
            shift = (
                rng.standard_normal(n) + 1j * rng.standard_normal(n)
                if stats is BOSE
                else np.zeros(n, complex)
            )
            g = Generator(stats, pair, shift)
            g = g.scaled(1.0 / g.norm)

            def energy(s):
                probe = compose(m, from_generator(g.scaled(s)))
                vec, _ = state_of_map(probe, basis)
                return expectation(vec, hmat).real

            fd = (energy(h_step) - energy(-h_step)) / (2 * h_step)
            analytic = directional_derivative(blocks, g)
            assert abs(fd - analytic) <= max(1e-6, 1e-4 * abs(analytic))


class TestMinimizeNamedProblems:
    def test_number_operator_vacuum(self):
        res = minimize(
            WickPolynomial.empty(1, BOSE).add_term([1], [1], 1.0),
            Mode.BOSE_EVEN,
            MinimizeOptions(tol_grad=1e-10),
        )
        assert res.status is RunStatus.CONVERGED
        assert res.energy == 0
        assert res.residual < 1e-10
        assert np.allclose(res.spectrum, [1.0])
        assert res.iterations == 0

    def test_squeezed_oscillator(self):
        res = minimize(squeezed_oscillator(), Mode.BOSE_EVEN, MinimizeOptions(tol_grad=1e-9))
        assert res.status is RunStatus.CONVERGED
        assert res.energy == pytest.approx(-0.1, abs=1e-6)
        assert np.allclose(res.spectrum, [0.8], atol=1e-6)
        # oracle eigensolve at cutoff 12: Gaussian minimum is the true ground state
        basis = FockBasis.build(BOSE, 1, cutoff=12)
        gap = res.energy - ground_energy(squeezed_oscillator(), basis)
        assert abs(gap) < 1e-6

    def test_bcs_two_mode(self):
        res = minimize(bcs_hamiltonian(), Mode.FERMI_EVEN, MinimizeOptions(tol_grad=1e-9))
        assert res.status is RunStatus.CONVERGED
        assert res.energy == pytest.approx(BCS_EXACT, abs=1e-8)
        assert np.allclose(res.spectrum, [BCS_QP, BCS_QP], atol=1e-6)
        basis = FockBasis.build(FERMI, 2)
        gap = res.energy - ground_energy(bcs_hamiltonian(), basis)
        assert abs(gap) < 1e-8

    def test_displaced_oscillator(self):
        res = minimize(
            displaced_oscillator(), Mode.BOSE_FULL, MinimizeOptions(tol_grad=1e-11)
        )
        assert res.status is RunStatus.CONVERGED
        assert res.energy == pytest.approx(-0.25, abs=1e-8)
        assert res.blocks.linear_norm < 1e-10
        assert np.allclose(res.spectrum, [1.0], atol=1e-8)
        assert res.spectrum.min() >= -1e-8

    def test_fermi_odd_occupied_witness(self):
        h = WickPolynomial.empty(1, FERMI).add_term([1], [1], 1.0)
        res = minimize(h, Mode.FERMI_ODD, MinimizeOptions(tol_grad=1e-10))
        assert res.status is RunStatus.CONVERGED
        assert res.iterations == 0
        assert res.energy == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(res.spectrum, [-1.0], atol=1e-12)

    def test_unbounded_below_detected(self):
        h = (
            WickPolynomial.empty(1, BOSE)
            .add_term([1], [1], 0.5)
            .add_term([1, 1], [], 0.3)
            .add_term([], [1, 1], 0.3)
        )
        res = minimize(h, Mode.BOSE_EVEN, MinimizeOptions())
        assert res.status is RunStatus.UNBOUNDED_BELOW

    def test_energy_floor_follows_the_scale_of_h(self):
        # a large constant moves every energy but not the minimizer
        h = squeezed_oscillator().add_term([], [], -2e6)
        res = minimize(h, Mode.BOSE_EVEN, MinimizeOptions())
        assert res.status is RunStatus.CONVERGED
        assert res.energy == pytest.approx(-2e6 - 0.1, abs=1e-6)

    def test_tied_starts_return_the_earliest(self):
        # corpus problem 102: all four starts reach one minimum, their
        # energies differ only in rounding, and the identity start must win
        h = random_bounded_hamiltonian(BOSE, 1, np.random.default_rng(102), quartic=True)
        many = minimize(h, Mode.BOSE_EVEN,
                        MinimizeOptions(tol_grad=2.5e-9, seed=102, multistarts=4))
        one = minimize(h, Mode.BOSE_EVEN,
                       MinimizeOptions(tol_grad=2.5e-9, seed=102, multistarts=1))
        assert (many.n_starts, one.n_starts) == (4, 1)
        assert np.array_equal(many.map.u, one.map.u)
        assert np.array_equal(many.map.v, one.map.v)
        assert many.iterations == one.iterations

    @pytest.mark.parametrize("stats,mode", [(BOSE, Mode.BOSE_EVEN), (FERMI, Mode.FERMI_EVEN)])
    def test_minimize_does_not_normal_order(self, stats, mode, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("minimize called substitute_linear")

        monkeypatch.setattr(variational, "substitute_linear", refuse)
        h = random_bounded_hamiltonian(stats, 2, np.random.default_rng(43), quartic=True)
        res = minimize(h, mode, MinimizeOptions(seed=43))
        assert res.status is RunStatus.CONVERGED
        assert res.blocks.single_particle.shape == (2, 2)

    def test_iteration_cap_reported(self):
        res = minimize(
            squeezed_oscillator(),
            Mode.BOSE_EVEN,
            MinimizeOptions(max_iterations=2, tol_grad=1e-12),
        )
        assert res.status is RunStatus.MAX_ITERATIONS
        assert res.iterations == 2

    def test_line_search_stall_is_reported(self):
        # tol_grad = 0 cannot be met: the descent runs to the rounding floor,
        # where no trial step lowers the residual, long before the cap
        res = minimize(squeezed_oscillator(), Mode.BOSE_EVEN, MinimizeOptions(tol_grad=0.0))
        assert res.status is RunStatus.STALLED
        assert res.iterations < MinimizeOptions().max_iterations
        assert res.energy == pytest.approx(-0.1, abs=1e-12)
        # scaled by 1e-7, H stalls at its first step under the absolute
        # line-search noise (ROADMAP item 14): that stop is not the cap either
        tiny = minimize(squeezed_oscillator().scaled(1e-7), Mode.BOSE_EVEN)
        assert tiny.status is not RunStatus.MAX_ITERATIONS

    def test_random_starts_leave_a_symmetric_stationary_point(self):
        # a U(1)-symmetric H has no pairing block at the vacuum, so one start
        # stops there; the squeezed vacuum with N = 3/2 minimizes
        # E = -0.9 N + 0.3 N^2 over the even states
        one = minimize(attractive_quartic(), Mode.BOSE_EVEN, MinimizeOptions(multistarts=1))
        assert (one.status, one.iterations, one.energy) == (RunStatus.CONVERGED, 0, 0.0)
        res = minimize(attractive_quartic(), Mode.BOSE_EVEN)
        assert res.status is RunStatus.CONVERGED
        assert res.energy == pytest.approx(-0.675, abs=1e-9)
        assert res.n_starts > 1

    def test_bose_full_displaces_an_even_polynomial(self):
        # the linear block of an even H vanishes at zero shift, so only a
        # displaced start leaves the undisplaced states; a coherent state
        # with |alpha|^2 = 5 alone reaches -2.5
        res = minimize(attractive_quartic(), Mode.BOSE_FULL)
        assert res.status is RunStatus.CONVERGED
        assert res.energy < -2.5
        assert res.spectrum.min() > 0
        assert res.n_starts > 1


class TestClosedFormModels:
    def test_two_mode_bose_decoupling(self):
        # hopping + cross pairing decouple into two squeezed oscillators
        # with frequencies omega +- J and pairing +- lam/2
        omega, hop, lam = 1.0, 0.25, 0.4
        h = (
            WickPolynomial.empty(2, BOSE)
            .add_term([1], [1], omega)
            .add_term([2], [2], omega)
            .add_term([1], [2], hop)
            .add_term([2], [1], hop)
            .add_term([1, 2], [], lam)
            .add_term([], [1, 2], lam)
        )
        w_plus, w_minus = omega + hop, omega - hop
        om_plus = math.sqrt(w_plus**2 - lam**2)
        om_minus = math.sqrt(w_minus**2 - lam**2)
        exact = (om_plus - w_plus) / 2 + (om_minus - w_minus) / 2
        res = minimize(h, Mode.BOSE_EVEN, MinimizeOptions(tol_grad=1e-9))
        assert res.status is RunStatus.CONVERGED
        assert res.energy == pytest.approx(exact, abs=1e-7)
        assert np.allclose(res.spectrum, sorted([om_minus, om_plus]), atol=1e-6)
        basis = FockBasis.build(BOSE, 2, cutoff=12)
        gap = res.energy - ground_energy(h, basis)
        assert abs(gap) < 1e-6

    def test_three_mode_fermi_with_spectator(self):
        eps, delta, eps3 = 1.0, 0.5, 0.7
        h = (
            WickPolynomial.empty(3, FERMI)
            .add_term([1], [1], eps)
            .add_term([2], [2], eps)
            .add_term([3], [3], eps3)
            .add_term([1, 2], [], delta)
            .add_term([], [1, 2], -delta)
        )
        qp = math.sqrt(eps**2 + delta**2)
        res = minimize(h, Mode.FERMI_EVEN, MinimizeOptions(tol_grad=1e-9))
        assert res.status is RunStatus.CONVERGED
        assert res.energy == pytest.approx(eps - qp, abs=1e-8)
        assert np.allclose(res.spectrum, sorted([eps3, qp, qp]), atol=1e-6)
        gap = res.energy - ground_energy(h, FockBasis.build(FERMI, 3))
        assert abs(gap) < 1e-8

    def test_squeeze_and_displacement_combined(self):
        # linear term completed away at shift -mu/(omega + 2 lam), then the
        # squeezed-oscillator minimum on top
        omega, lam, mu = 1.0, 0.3, 0.2
        h = (
            WickPolynomial.empty(1, BOSE)
            .add_term([1], [1], omega)
            .add_term([1, 1], [], lam)
            .add_term([], [1, 1], lam)
            .add_term([1], [], mu)
            .add_term([], [1], mu)
        )
        om = math.sqrt(omega**2 - 4 * lam**2)
        exact = (om - omega) / 2 - mu**2 / (omega + 2 * lam)
        res = minimize(h, Mode.BOSE_FULL, MinimizeOptions(tol_grad=1e-10))
        assert res.status is RunStatus.CONVERGED
        assert res.energy == pytest.approx(exact, abs=1e-8)
        assert np.allclose(res.spectrum, [om], atol=1e-7)
        assert res.spectrum.min() >= -1e-8
        basis = FockBasis.build(BOSE, 1, cutoff=16)
        gap = res.energy - ground_energy(h, basis)
        assert abs(gap) < 1e-6
        report = certify(res, h, Mode.BOSE_FULL)
        assert report.passed


class TestMinimizeValidation:
    def test_rejects_non_hermitian(self):
        h = WickPolynomial.empty(1, BOSE).add_term([1], [], 1.0)
        with pytest.raises(HermiticityError):
            minimize(h, Mode.BOSE_FULL)

    def test_rejects_parity_violation(self):
        h = displaced_oscillator()
        with pytest.raises(ParityError):
            minimize(h, Mode.BOSE_EVEN)

    def test_rejects_statistics_mismatch(self):
        from quasivac.errors import StatisticsMismatchError

        with pytest.raises(StatisticsMismatchError):
            minimize(bcs_hamiltonian(), Mode.BOSE_EVEN)

    @pytest.mark.parametrize("field,value", [
        ("multistarts", 0), ("multistarts", -2), ("max_iterations", -5),
        ("tol_grad", -1.0), ("tol_grad", math.nan), ("tol_grad", math.inf),
    ])
    def test_rejects_invalid_options(self, field, value):
        with pytest.raises(ValueError, match=field):
            MinimizeOptions(**{field: value})

    def test_accepts_the_boundary_options(self):
        opts = MinimizeOptions(tol_grad=0.0, max_iterations=0, multistarts=1)
        res = minimize(squeezed_oscillator(), Mode.BOSE_EVEN, opts)
        assert (res.status, res.iterations, res.n_starts) == (RunStatus.MAX_ITERATIONS, 0, 1)


def _result_bytes(res):
    """Every number of a result, as bytes."""
    fields = [res.energy, res.residual, res.spectrum, res.trace, res.blocks.constant]
    fields += [getattr(res.map, f) for f in ("u", "v", "shift")]
    fields += [getattr(res.blocks, f) for f in ("linear", "pairing", "single_particle")]
    return (res.status, res.iterations, res.n_starts, res.map.odd,
            [np.asarray(f).tobytes() for f in fields])


class TestSharedEngine:
    """A polynomial compiles into one engine, built on first use and freed
    with the polynomial."""

    def test_minimize_result_at_and_certify_build_one_engine(self, monkeypatch):
        built = engine_builds(monkeypatch)
        h = squeezed_oscillator()
        res = minimize(h, Mode.BOSE_EVEN, MinimizeOptions(tol_grad=1e-9))
        result_at(CompiledPolynomial.of(h), res.map)
        assert certify(res, h, Mode.BOSE_EVEN).passed
        assert len(built) == 1
        minimize(h, Mode.BOSE_EVEN, MinimizeOptions(tol_grad=1e-9))
        assert len(built) == 1
        assert CompiledPolynomial.of(h) is built[0]()

    @pytest.mark.parametrize("stats,n,mode,seed", [
        (BOSE, 2, Mode.BOSE_EVEN, 11),
        (BOSE, 2, Mode.BOSE_FULL, 12),
        (FERMI, 3, Mode.FERMI_EVEN, 13),
        (FERMI, 3, Mode.FERMI_ODD, 14),
    ])
    def test_shared_and_fresh_engines_agree_bit_for_bit(self, stats, n, mode, seed):
        # the second minimize finds every plan the first compiled; in
        # bose-full the random extra starts are displaced, which compiles
        # the partial-matching plans too
        h = random_bounded_hamiltonian(stats, n, np.random.default_rng(seed), quartic=True)
        opts = MinimizeOptions(tol_grad=2.5e-9, seed=seed, multistarts=4)
        first = minimize(h, mode, opts)
        again = minimize(h, mode, opts)
        fresh = minimize(dataclasses.replace(h), mode, opts)
        assert _result_bytes(first) == _result_bytes(again) == _result_bytes(fresh)
        shared = CompiledPolynomial.of(h)
        assert (True in shared.plans) is (mode is Mode.BOSE_FULL)
        m = random_valid_map(stats, n, np.random.default_rng(seed), 0.2,
                             0.3 if mode is Mode.BOSE_FULL else 0.0)
        assert _result_bytes(result_at(shared, m)) == _result_bytes(
            result_at(CompiledPolynomial(h), m))

    def test_one_plan_per_shift_class(self):
        # the pairing block and D read the same slot sums, so a fresh
        # engine compiles one plan for an undisplaced map and one more,
        # over partial matchings, for a displaced one
        rng = np.random.default_rng(12)
        h = random_bounded_hamiltonian(BOSE, 2, rng, quartic=True, linear=True)
        engine = CompiledPolynomial(h)
        result_at(engine, random_valid_map(BOSE, 2, rng, 0.2))
        assert list(engine.plans) == [False]
        result_at(engine, random_valid_map(BOSE, 2, rng, 0.2, 0.3))
        assert list(engine.plans) == [False, True]

    def test_engine_dies_with_its_polynomial(self):
        # neither the result nor its certificate holds the engine
        h = squeezed_oscillator()
        res = minimize(h, Mode.BOSE_EVEN, MinimizeOptions(tol_grad=1e-9))
        cert = certify(res, h, Mode.BOSE_EVEN)
        engine = weakref.ref(CompiledPolynomial.of(h))
        del h
        gc.collect()
        assert engine() is None
        assert res.status is RunStatus.CONVERGED and cert.passed


class TestMergedStarts:
    """A start that reaches an earlier converged minimum stops there."""

    @pytest.mark.parametrize(
        "stats,n,mode,quartic,linear,seed",
        [
            (BOSE, 1, Mode.BOSE_EVEN, True, False, 102),
            (BOSE, 2, Mode.BOSE_EVEN, True, False, 104),
            (BOSE, 2, Mode.BOSE_FULL, True, True, 110),
            (FERMI, 3, Mode.FERMI_EVEN, True, False, 115),
            (FERMI, 3, Mode.FERMI_ODD, False, False, 119),
            (FERMI, 3, Mode.FERMI_ODD, True, False, 120),
        ],
    )
    def test_merging_changes_no_result(self, stats, n, mode, quartic, linear, seed,
                                       monkeypatch):
        # acceptance-corpus problems, each with several starts that all
        # reach one minimum
        h = random_bounded_hamiltonian(
            stats, n, np.random.default_rng(seed), quartic=quartic, linear=linear
        )
        opts = MinimizeOptions(tol_grad=2.5e-9, seed=seed, multistarts=4)
        calls = []
        engine = CompiledPolynomial.vacuum_blocks

        def counted(self, *args, **kwargs):
            calls.append(None)
            return engine(self, *args, **kwargs)

        monkeypatch.setattr(CompiledPolynomial, "vacuum_blocks", counted)
        merged = minimize(h, mode, opts)
        merged_calls = len(calls)
        # not 0: a state at an earlier minimum can read an overlap of 1 + ulp
        monkeypatch.setattr(variational, "MERGE_DELTA", -math.inf)
        calls.clear()
        separate = minimize(h, mode, opts)
        for name in ("status", "iterations", "energy", "residual", "n_starts"):
            assert getattr(merged, name) == getattr(separate, name)
        assert np.array_equal(merged.trace, separate.trace)
        assert np.array_equal(merged.spectrum, separate.spectrum)
        for name in ("u", "v", "shift", "odd"):
            assert np.array_equal(getattr(merged.map, name), getattr(separate.map, name))
        for name in ("constant", "linear", "pairing", "single_particle"):
            assert np.array_equal(getattr(merged.blocks, name), getattr(separate.blocks, name))
        assert merged_calls < len(calls)
        if seed in (104, 115):
            assert 2 * merged_calls <= len(calls)


class TestDefaultStarts:
    """By default the random extra starts run only when the best base start
    is neither unbounded nor a strict minimum of the chart Hessian."""

    @pytest.mark.parametrize("name,base", [
        ("corpus-102", 1), ("corpus-110", 1), ("corpus-115", 1), ("corpus-120", 3),
    ])
    def test_strict_minimum_draws_no_extra_starts(self, name, base):
        p = next(p for p in perfbench_module("inputs").corpus_problems() if p.name == name)
        res = minimize(p.h, p.mode, p.opts)
        alone = minimize(p.h, p.mode, dataclasses.replace(p.opts, multistarts=base))
        assert res.n_starts == base
        assert (res.status, res.iterations, res.energy) == (
            alone.status, alone.iterations, alone.energy)
        assert np.array_equal(res.trace, alone.trace)
        for field in ("u", "v", "shift"):
            assert np.array_equal(getattr(res.map, field), getattr(alone.map, field))

    def test_saddle_reached_after_moving_draws_the_extras(self):
        # mode 1 is a squeezed oscillator, mode 2 the attractive quartic: one
        # start moves for 34 iterations to a point stationary in both modes,
        # where mode 2's pair direction lowers the energy
        h = WickPolynomial.from_terms(2, BOSE, [
            ([1], [1], 1.0), ([1, 1], [], 0.3), ([], [1, 1], 0.3),
            ([2], [2], -1.0), ([2, 2], [2, 2], 0.1),
        ])
        one = minimize(h, Mode.BOSE_EVEN, MinimizeOptions(multistarts=1))
        assert (one.status, one.iterations) == (RunStatus.CONVERGED, 34)
        assert one.energy == pytest.approx(-0.1, abs=1e-12)
        assert np.allclose(one.spectrum, [-1.0, 0.8], atol=1e-10)
        res = minimize(h, Mode.BOSE_EVEN)
        assert res.status is RunStatus.CONVERGED
        assert res.energy == pytest.approx(-0.775, abs=1e-9)
        assert res.n_starts > 1

    def test_displacement_saddle_draws_the_extras_in_bose_full(self):
        # -a*a + 2 a*a*aa: the vacuum is a strict minimum over the even
        # states, but a displacement lowers the energy
        h = WickPolynomial.from_terms(1, BOSE, [([1], [1], -1.0), ([1, 1], [1, 1], 2.0)])
        even = minimize(h, Mode.BOSE_EVEN)
        assert (even.status, even.energy, even.n_starts) == (RunStatus.CONVERGED, 0.0, 1)
        full = minimize(h, Mode.BOSE_FULL)
        assert full.status is RunStatus.CONVERGED
        assert full.energy < -0.2
        assert full.n_starts > 1

    @pytest.mark.parametrize("mode", [Mode.BOSE_EVEN, Mode.BOSE_FULL])
    def test_flat_direction_is_no_strict_minimum(self, mode):
        # at the squeezed minimum of the U(1)-symmetric attractive quartic,
        # turning the squeeze phase leaves the energy unchanged: lambda_min
        # is 0, and only a central difference resolves it below 1e-6 max|lambda|
        h = attractive_quartic()
        res = minimize(h, mode)
        assert res.status is RunStatus.CONVERGED
        run = (res.map, res.status, res.iterations, res.trace)
        assert not variational._settled(CompiledPolynomial(h), run, mode)

    def test_unbounded_first_start_draws_no_extras(self):
        h = WickPolynomial.from_terms(1, BOSE, [
            ([1], [1], 1.0), ([1, 1], [], 0.5), ([], [1, 1], 0.5), ([1, 1], [1, 1], -0.1),
        ])
        res = minimize(h, Mode.BOSE_EVEN)
        assert (res.status, res.n_starts) == (RunStatus.UNBOUNDED_BELOW, 1)


class TestEngineCalls:
    @pytest.mark.parametrize(
        "stats,n,mode,quartic,linear,seed",
        [
            (BOSE, 2, Mode.BOSE_EVEN, True, False, 104),
            (BOSE, 2, Mode.BOSE_FULL, True, True, 110),
            (FERMI, 3, Mode.FERMI_EVEN, True, False, 115),
            (FERMI, 3, Mode.FERMI_ODD, True, False, 120),
        ],
    )
    def test_one_engine_call_per_trial(self, stats, n, mode, quartic, linear, seed,
                                       monkeypatch):
        # each line-search trial is one engine call whose blocks, if the
        # trial is accepted, are the next iterate's; add one call per start
        # and one for the result's D
        h = random_bounded_hamiltonian(
            stats, n, np.random.default_rng(seed), quartic=quartic, linear=linear
        )
        engine_calls, generated = [], []
        engine = CompiledPolynomial.vacuum_blocks
        generate = variational.exponential_map

        def counted_engine(self, *args, **kwargs):
            engine_calls.append(None)
            return engine(self, *args, **kwargs)

        def counted_generate(*args):
            generated.append(None)
            return generate(*args)

        monkeypatch.setattr(CompiledPolynomial, "vacuum_blocks", counted_engine)
        monkeypatch.setattr(variational, "exponential_map", counted_generate)
        res = minimize(h, mode, MinimizeOptions(tol_grad=2.5e-9, seed=seed, multistarts=4))
        # each trial exponentiates its step once; the random extra starts
        # go through from_generator, which this does not count
        trials = len(generated)
        assert res.status is RunStatus.CONVERGED
        assert trials > res.iterations
        assert len(engine_calls) == trials + res.n_starts + 1


class TestTrialsOnArrays:
    def test_maps_and_blocks_are_built_per_start_not_per_trial(self, monkeypatch):
        # a line-search trial runs on bare (u, v, shift) arrays: maps are
        # adopted or validated, and Blocks built, for the starts, the merge
        # test's minima and the result only
        p = next(p for p in perfbench_module("inputs").corpus_problems()
                 if p.name == "corpus-104")
        built = {"adopted": 0, "validated": 0, "blocks": 0, "trials": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                built[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(bogoliubov, "_adopt", counted("adopted", bogoliubov._adopt))
        monkeypatch.setattr(BogoliubovMap, "__post_init__",
                            counted("validated", BogoliubovMap.__post_init__))
        monkeypatch.setattr(Blocks, "__post_init__", counted("blocks", Blocks.__post_init__))
        monkeypatch.setattr(variational, "exponential_map",
                            counted("trials", variational.exponential_map))
        res = minimize(p.h, p.mode, dataclasses.replace(p.opts, multistarts=4))
        assert res.status is RunStatus.CONVERGED
        assert built.pop("trials") > 100 * res.n_starts
        assert all(count <= 3 * res.n_starts for count in built.values()), built


class TestTraceEndsAtResult:
    @pytest.mark.parametrize(
        "name", ["corpus-104", "corpus-110", "corpus-115", "corpus-120", "dense-bose3-203"]
    )
    def test_last_row_is_the_result_exactly(self, name):
        # the descent carries its iterate as arrays; result_at evaluates the
        # winner's final map again, and must read the same numbers
        inputs = perfbench_module("inputs")
        p = next(p for p in inputs.corpus_problems() + inputs.dense_problems() if p.name == name)
        res = minimize(p.h, p.mode, p.opts)
        assert res.status is RunStatus.CONVERGED
        assert tuple(res.trace[-1]) == (res.energy, res.residual)


class TestDescentInvariants:
    @pytest.mark.parametrize(
        "stats,mode",
        [(BOSE, Mode.BOSE_EVEN), (BOSE, Mode.BOSE_FULL), (FERMI, Mode.FERMI_EVEN)],
    )
    def test_monotone_energy_and_stationary_block_vanishing(self, stats, mode):
        rng = np.random.default_rng(23)
        h = random_bounded_hamiltonian(
            stats, 2, rng, quartic=True, linear=(mode is Mode.BOSE_FULL)
        )
        res = minimize(h, mode, MinimizeOptions(tol_grad=1e-8, seed=3))
        assert res.status is RunStatus.CONVERGED
        dmat = res.blocks.single_particle
        assert np.max(np.abs(dmat - dmat.conj().T)) < 1e-10
        assert abs(res.blocks.constant.imag) < 1e-10
        if mode is Mode.BOSE_FULL:
            # at a full-family minimum the quadratic block is positive
            assert res.spectrum.min() >= -1e-8
        energies = [e for e, _ in res.trace]
        for before, after in zip(energies, energies[1:]):
            assert after <= before + 1e-11 * max(1.0, abs(before))
        # converged residual means no linear or anomalous coefficients survive
        transformed = rewritten(h, res.map)
        for (cr, an), coeff in transformed.items():
            if len(cr) + len(an) == 1:
                assert abs(coeff) < 1e-8
            if (len(cr), len(an)) in ((2, 0), (0, 2)):
                assert abs(coeff) < 2e-8

    def test_a_trial_with_non_finite_norms_is_never_accepted(self):
        # an engine whose every moved state lowers the energy but overflows
        # the pairing block: no trial is taken, and the start stalls at a
        # finite trace
        class Engine:
            def vacuum_blocks(self, u, v, shift, single=False):
                moved = np.count_nonzero(v) > 0
                pairing = np.array([[math.inf if moved else 1.0]], complex)
                return complex(-1.0 if moved else 0.0), np.zeros(1, complex), pairing, None

        _, status, iterations, trace = variational._descend(
            Engine(), identity(1, BOSE), MinimizeOptions(), math.inf, [])
        assert (status, iterations) == (RunStatus.STALLED, 0)
        assert np.isfinite(trace).all()

    def test_even_runs_never_generate_odd_terms(self):
        rng = np.random.default_rng(29)
        h = random_bounded_hamiltonian(FERMI, 3, rng, quartic=True)
        res = minimize(h, Mode.FERMI_EVEN, MinimizeOptions(seed=5))
        transformed = rewritten(h, res.map)
        for (cr, an) in transformed.terms:
            assert (len(cr) + len(an)) % 2 == 0

    def test_fermi_odd_negative_block_witness(self):
        rng = np.random.default_rng(31)
        eps = float(rng.uniform(0.5, 2.0))
        h = WickPolynomial.empty(1, FERMI).add_term([1], [1], eps)
        res = minimize(h, Mode.FERMI_ODD, MinimizeOptions(tol_grad=1e-10))
        assert res.status is RunStatus.CONVERGED
        assert np.allclose(res.spectrum, [-eps], atol=1e-12)


@pytest.fixture(scope="module")
def corpus_certificates():
    """(h, mode, map, certificate) at each corpus minimum that ``certify``
    reaches: corpus-105 and 106 stop at the dimension cap."""
    out = []
    for p in perfbench_module("inputs").corpus_problems():
        m = minimize(p.h, p.mode, p.opts).map
        try:
            out.append((p.h, p.mode, m, certify(result_at(CompiledPolynomial.of(p.h), m),
                                                p.h, p.mode)))
        except DimensionCapError:
            continue
    return out


class TestCertify:
    def test_number_operator_trivial_pass(self):
        h = WickPolynomial.empty(1, BOSE).add_term([1], [1], 1.0)
        res = minimize(h, Mode.BOSE_EVEN, MinimizeOptions(tol_grad=1e-10))
        report = certify(res, h, Mode.BOSE_EVEN)
        assert report.passed
        assert report.quadratic_passed is None

    def test_squeezed_oscillator_certification(self):
        h = squeezed_oscillator()
        res = minimize(h, Mode.BOSE_EVEN, MinimizeOptions(tol_grad=1e-9))
        report = certify(res, h, Mode.BOSE_EVEN)
        assert report.fd_passed
        assert report.gauge_passed
        assert report.passed

    def test_squeezed_oscillator_full_mode_curvature(self):
        # even H run over the full family: displacement curvature reads 0.8
        h = squeezed_oscillator()
        res = minimize(h, Mode.BOSE_FULL, MinimizeOptions(tol_grad=1e-9))
        assert res.status is RunStatus.CONVERGED
        report = certify(res, h, Mode.BOSE_FULL)
        assert report.quadratic_passed
        assert max(report.quadratic_rel_errors) <= 0.05
        assert report.passed

    def test_displaced_quadratic_growth(self):
        h = displaced_oscillator()
        res = minimize(h, Mode.BOSE_FULL, MinimizeOptions(tol_grad=1e-11))
        report = certify(res, h, Mode.BOSE_FULL)
        assert report.quadratic_passed
        # fitted curvature approximates the single-particle block value 1.0
        assert max(report.quadratic_rel_errors) <= 0.05
        assert report.passed

    def test_bose_full_saddle_fails_the_displacement_check(self):
        # one start stops at the vacuum, which is stationary with D = [-1]:
        # every displacement lowers the energy, so it is no minimum
        h = attractive_quartic()
        res = minimize(h, Mode.BOSE_FULL, MinimizeOptions(multistarts=1))
        assert (res.status, res.energy) == (RunStatus.CONVERGED, 0.0)
        assert np.allclose(res.spectrum, [-1.0])
        report = certify(res, h, Mode.BOSE_FULL)
        assert report.fd_passed and report.gauge_passed
        assert report.quadratic_passed is False
        assert not report.passed

    @pytest.mark.parametrize("scale", [1.0, 2.0**20])
    def test_bose_full_minimum_with_a_flat_curvature_certifies(self, scale):
        # a*a*aa is least at the vacuum, where D = [0]: along a displacement
        # E = scale s^4, so the curvature fit reads scale FD_STEP^2 against
        # y* D y = 0, and its floor follows the scale; so does the FD bound,
        # the truncation measured at twice the step: the central difference's
        # truncation (0.51 scale FD_STEP^2) passed an absolute 1e-6 floor at
        # scale 1 but not at 2**20
        h = WickPolynomial.from_terms(1, BOSE, [([1, 1], [1, 1], scale)])
        res = minimize(h, Mode.BOSE_FULL)
        assert (res.status, res.energy) == (RunStatus.CONVERGED, 0.0)
        assert np.array_equal(res.spectrum, [0.0])
        report = certify(res, h, Mode.BOSE_FULL)
        assert max(report.quadratic_rel_errors) <= 0.05
        assert report.quadratic_passed is True
        assert report.fd_passed and report.passed

    def test_bose_full_saddle_with_one_descending_mode(self):
        # D = diag(-1, 100): y* D y > 0 on each of the five random
        # displacements of the curvature fit, but mode 1 alone lowers the
        # energy, so the check reads D's lowest eigenvalue
        h = WickPolynomial.from_terms(
            2, BOSE, [([1], [1], -1.0), ([2], [2], 100.0), ([1, 1], [1, 1], 0.1)]
        )
        res = minimize(h, Mode.BOSE_FULL, MinimizeOptions(multistarts=1))
        assert (res.status, res.iterations) == (RunStatus.CONVERGED, 0)
        assert np.allclose(res.spectrum, [-1.0, 100.0])
        report = certify(res, h, Mode.BOSE_FULL)
        assert max(report.quadratic_rel_errors) <= 0.05
        assert report.quadratic_passed is False

    def test_bcs_gauge_sweep(self):
        h = bcs_hamiltonian()
        res = minimize(h, Mode.FERMI_EVEN, MinimizeOptions(tol_grad=1e-9))
        report = certify(res, h, Mode.FERMI_EVEN)
        assert report.gauge_passed
        assert max(report.gauge_deltas["spectrum"]) < 1e-8
        assert report.passed

    def test_default_fd_step_certifies_corpus_107(self):
        # A correct minimum whose central-difference error at fd_step=1e-3
        # (1.6e-6) exceeded the 1e-6 tolerance floor of the FD check.
        h = random_bounded_hamiltonian(BOSE, 1, np.random.default_rng(107), linear=True)
        res = minimize(h, Mode.BOSE_FULL, MinimizeOptions(tol_grad=1e-9, seed=42))
        assert res.status is RunStatus.CONVERGED
        report = certify(res, h, Mode.BOSE_FULL)
        assert report.fd_passed
        assert report.passed

    def test_fd_floor_follows_the_scale_of_h(self):
        # scaled by 1e7, the energies round to about eps |H psi| = 2e-9 and
        # the slope to 8e-6; the FD bound counts that rounding at its size
        h = squeezed_oscillator().scaled(1e7)
        res = minimize(h, Mode.BOSE_EVEN)
        assert res.status is RunStatus.CONVERGED
        report = certify(res, h, Mode.BOSE_EVEN)
        assert report.fd_passed
        assert report.passed

    def test_gauge_bound_follows_the_scale_of_h(self):
        # scaled by 2**27, |D| is about 1.1e8 and a gauge sweep moves its
        # eigenvalue by a few ulps (4.5e-8), past an absolute 1e-8
        h = squeezed_oscillator().scaled(2.0**27)
        res = minimize(h, Mode.BOSE_EVEN)
        assert res.status is RunStatus.CONVERGED
        report = certify(res, h, Mode.BOSE_EVEN)
        assert max(report.gauge_deltas["spectrum"]) > 1e-8
        assert report.gauge_passed
        assert report.passed

    def test_gauge_check_catches_a_wrong_spectrum_at_scale(self):
        # the scaled bound is a few ulps of |D|: an eigenvalue off by 1e-12
        # of the scale of H still fails it
        h = squeezed_oscillator().scaled(2.0**27)
        res = minimize(h, Mode.BOSE_EVEN)
        wrong = dataclasses.replace(res, spectrum=res.spectrum * (1 + 1e-12))
        assert not certify(wrong, h, Mode.BOSE_EVEN).gauge_passed

    @pytest.mark.parametrize("scale", [2.0**-20, 1.0, 1e7])
    def test_fd_check_catches_a_wrong_pairing_block_at_scale(self, scale, monkeypatch):
        # with the cross-check off, a pairing block off by 1e-8 of the scale
        # of H must still fail the FD check, whose bound, the truncation and
        # rounding measured at the state, is below 1e-10 of it at every
        # scale; an absolute 1e-6 floor missed it at 2**-20 and at 1.  The
        # result is the scaled H's at the minimum of the unscaled one, which
        # the descent's absolute constants cannot move
        monkeypatch.setattr(variational, "_crosscheck_routes", lambda *args: None)
        h = squeezed_oscillator().scaled(scale)
        m = minimize(squeezed_oscillator(), Mode.BOSE_EVEN).map
        res = result_at(CompiledPolynomial.of(h), m)
        clean = certify(res, h, Mode.BOSE_EVEN)
        assert clean.fd_passed and max(clean.fd_tolerances) < 1e-10 * scale
        blocks = dataclasses.replace(res.blocks, pairing=res.blocks.pairing + 1e-8 * scale)
        report = certify(dataclasses.replace(res, blocks=blocks), h, Mode.BOSE_EVEN)
        assert not report.fd_passed

    @pytest.mark.parametrize("mu", [8.0, 16.0])
    def test_fd_bound_is_the_measured_truncation(self, mu):
        # -mu a*a + a*a*aa + 0.1 (a* + a) in bose-full is least at a displaced
        # squeezed state whose central difference misses the slope by 1.7
        # (mu = 8) and 1.3 (mu = 16) h.scale FD_STEP^2, past an absolute 1e-6
        # floor; the probes at twice the step measure that truncation, and
        # the extrapolated slope matches the analytic one to 1e-3 h.scale FD_STEP^2
        h = WickPolynomial.from_terms(1, BOSE, [([1], [1], -mu), ([1, 1], [1, 1], 1.0),
                                                ([1], [], 0.1), ([], [1], 0.1)])
        res = minimize(h, Mode.BOSE_FULL)
        assert res.status is RunStatus.CONVERGED
        report = certify(res, h, Mode.BOSE_FULL)
        assert max(report.fd_tolerances) > 1e-6
        assert max(report.fd_deviations) < 1e-3 * h.scale * FD_STEP**2
        assert report.fd_passed and report.passed

    @pytest.mark.parametrize("k", [-40, -20, 20, 40])
    def test_certification_scales_with_h(self, corpus_certificates, k):
        # at the unscaled minimum, certify on h.scaled(2**k) passes and fails
        # as on h, and its energies, deviations and tolerances are 2**k
        # times h's: every bound reads h.scale
        assert len(corpus_certificates) == 18
        for h, mode, m, base in corpus_certificates:
            scaled = h.scaled(2.0**k)
            cert = certify(result_at(CompiledPolynomial.of(scaled), m), scaled, mode)
            verdicts = ("fd_passed", "quadratic_passed", "gauge_passed", "passed")
            assert [getattr(cert, v) for v in verdicts] == [getattr(base, v) for v in verdicts]
            for name in ("expectation", "ground_energy", "fd_deviations", "fd_tolerances"):
                np.testing.assert_allclose(getattr(cert, name),
                                           2.0**k * np.asarray(getattr(base, name)),
                                           rtol=1e-12, atol=0)
            if base.quadratic_rel_errors is not None:
                np.testing.assert_allclose(cert.quadratic_rel_errors, base.quadratic_rel_errors,
                                           rtol=1e-12, atol=0)

    def test_fermi_odd_certification(self):
        h = WickPolynomial.empty(1, FERMI).add_term([1], [1], 1.0)
        res = minimize(h, Mode.FERMI_ODD, MinimizeOptions(tol_grad=1e-10))
        report = certify(res, h, Mode.FERMI_ODD)
        assert report.passed

    @pytest.mark.parametrize("mode,modes,error,reason", [
        (Mode.FERMI_ODD, 2, ParityError, "mode fermi-odd needs an odd map"),
        (Mode.BOSE_EVEN, 2, StatisticsMismatchError, "needs bose statistics"),
        (Mode.FERMI_EVEN, 3, StatisticsMismatchError, "polynomial and map differ"),
    ])
    def test_certify_checks_h_map_and_mode_agree(self, mode, modes, error, reason):
        # the even BCS minimum, certified in the odd sector, in a Bose mode,
        # or against an H of another mode count
        res = minimize(bcs_hamiltonian(), Mode.FERMI_EVEN)
        h = WickPolynomial.from_terms(
            modes, FERMI, [([k], [k], 1.0) for k in range(1, modes + 1)]
            + [([1, 2], [], 0.5), ([], [1, 2], -0.5)])
        with pytest.raises(error, match=reason):
            certify(res, h, mode)

    @pytest.mark.parametrize("mode,stats,seed,linear", [
        (Mode.BOSE_EVEN, BOSE, 103, False),
        (Mode.BOSE_FULL, BOSE, 109, True),
        (Mode.FERMI_EVEN, FERMI, 111, False),
        (Mode.FERMI_ODD, FERMI, 117, False),
    ])
    def test_cross_check_catches_one_wrong_block_entry(self, mode, stats, seed, linear):
        # the result's blocks are checked against an independent route to
        # 1e-8 relative: one entry off by 1e-6 relative must raise
        h = random_bounded_hamiltonian(stats, 2, np.random.default_rng(seed), linear=linear)
        res = minimize(h, mode, MinimizeOptions(tol_grad=1e-10, seed=seed))
        assert res.status is RunStatus.CONVERGED
        assert certify(res, h, mode).passed
        delta = 1e-6 * max(1.0, abs(res.energy))
        for name, entry in (("constant", ()), ("linear", (1,)), ("pairing", (0, 1)),
                            ("single_particle", (1, 0))):
            value = np.array(getattr(res.blocks, name))
            value[entry] += delta
            blocks = dataclasses.replace(res.blocks, **{name: value[()]})
            with pytest.raises(RuntimeError, match="inconsistency"):
                certify(dataclasses.replace(res, blocks=blocks), h, mode)

    def test_requires_converged_input(self):
        h = (
            WickPolynomial.empty(1, BOSE)
            .add_term([1], [1], 0.5)
            .add_term([1, 1], [], 0.3)
            .add_term([], [1, 1], 0.3)
        )
        res = minimize(h, Mode.BOSE_EVEN)
        with pytest.raises(ValueError):
            certify(res, h, Mode.BOSE_EVEN)

    def test_reports_the_expectation_and_tail_of_its_state(self):
        # the oracle state is built once and read twice: its <psi|H psi> and
        # norm defect are the report's, and psi is the state fock.states_in_box
        # builds for the map alone, in the same box
        h = displaced_oscillator()
        res = minimize(h, Mode.BOSE_FULL, MinimizeOptions(tol_grad=1e-11))
        report = certify(res, h, Mode.BOSE_FULL)
        m = res.map
        basis, amps, defects = fock.states_in_box(h.stats, m.u[None], m.v[None], m.shift[None],
                                                  [m.odd])
        hpsi = quantize(h, basis) @ amps[0]
        assert report.expectation == pytest.approx(np.vdot(amps[0], hpsi).real, abs=1e-12)
        assert report.expectation == pytest.approx(res.energy, abs=1e-10)
        assert report.tail_defect == defects[0]
        assert report.oracle_cutoff == basis.cutoffs[0]


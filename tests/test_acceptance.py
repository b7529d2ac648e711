"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import time

import numpy as np
import pytest

from quasivac import (
    FockBasis,
    Generator,
    MinimizeOptions,
    Mode,
    RunStatus,
    Statistics,
    WickPolynomial,
    compose,
    from_generator,
    ground_energy,
    minimize,
    quantize,
    residual_blocks,
    state_of_map,
)
from quasivac.bogoliubov import chart_arrays, random_number_conserving
from quasivac.fock import series_tail
from quasivac.variational import directional_derivative

from conftest import (
    bcs_hamiltonian,
    displaced_oscillator,
    random_bounded_hamiltonian,
    random_free_hermitian,
    random_valid_map,
    rewritten,
    squeezed_oscillator,
)
from references import (
    chart_from_generator,
    exp_generator,
    expectation,
    gaussian_vector,
    vacuum_vector,
)

BOSE = Statistics.BOSE
FERMI = Statistics.FERMI


def report(number, text):
    print(f"\nACCEPTANCE {number}: PASS - {text}")


CORPUS_LAYOUT = [
    # (stats, n, mode, quartic, linear, seed)
    (BOSE, 1, Mode.BOSE_EVEN, False, False, 101),
    (BOSE, 1, Mode.BOSE_EVEN, True, False, 102),
    (BOSE, 2, Mode.BOSE_EVEN, False, False, 103),
    (BOSE, 2, Mode.BOSE_EVEN, True, False, 104),
    (BOSE, 3, Mode.BOSE_EVEN, False, False, 105),
    (BOSE, 3, Mode.BOSE_EVEN, True, False, 106),
    (BOSE, 1, Mode.BOSE_FULL, False, True, 107),
    (BOSE, 1, Mode.BOSE_FULL, True, True, 108),
    (BOSE, 2, Mode.BOSE_FULL, False, True, 109),
    (BOSE, 2, Mode.BOSE_FULL, True, True, 110),
    (FERMI, 2, Mode.FERMI_EVEN, False, False, 111),
    (FERMI, 2, Mode.FERMI_EVEN, True, False, 112),
    (FERMI, 3, Mode.FERMI_EVEN, False, False, 113),
    (FERMI, 3, Mode.FERMI_EVEN, True, False, 114),
    (FERMI, 3, Mode.FERMI_EVEN, True, False, 115),
    (FERMI, 2, Mode.FERMI_EVEN, False, False, 116),
    (FERMI, 2, Mode.FERMI_ODD, False, False, 117),
    (FERMI, 2, Mode.FERMI_ODD, True, False, 118),
    (FERMI, 3, Mode.FERMI_ODD, False, False, 119),
    (FERMI, 3, Mode.FERMI_ODD, True, False, 120),
]


@pytest.fixture(scope="module")
def converged_corpus():
    """Twenty random Hermitian problems, minimized across all four modes."""
    runs = []
    for stats, n, mode, quartic, linear, seed in CORPUS_LAYOUT:
        rng = np.random.default_rng(seed)
        h = random_bounded_hamiltonian(stats, n, rng, quartic=quartic, linear=linear)
        res = minimize(h, mode, MinimizeOptions(tol_grad=2.5e-9, seed=seed))
        runs.append((h, mode, res))
    return runs


def test_criterion_1_stationary_block_residuals(converged_corpus):
    start = time.time()
    assert len(converged_corpus) >= 20
    for h, mode, res in converged_corpus:
        assert res.status is RunStatus.CONVERGED
        assert res.blocks.linear_norm + res.blocks.pairing_norm < 1e-8
        transformed = rewritten(h, res.map)
        for (cr, an), coeff in transformed.items():
            degree = (len(cr), len(an))
            if degree in ((1, 0), (0, 1), (2, 0), (0, 2)):
                assert abs(coeff) < 1e-8
    elapsed = time.time() - start
    assert elapsed < 60
    report(1, f"residuals and transformed coefficients < 1e-8 on "
              f"{len(converged_corpus)} converged runs ({elapsed:.1f}s)")


GRADIENT_CASES = (
    [(BOSE, 1, 20)] * 20 + [(BOSE, 2, 14)] * 15 + [(FERMI, 2, 1)] * 10 + [(FERMI, 3, 1)] * 5
)


def test_criterion_2_gradient_oracle_equivalence():
    start = time.time()
    rng = np.random.default_rng(2024)
    h_step = 1e-4
    bases = {}
    checked = 0
    for stats, n, cutoff in GRADIENT_CASES:
        key = (stats, n, cutoff)
        if key not in bases:
            bases[key] = FockBasis.build(stats, n, cutoff)
        basis = bases[key]
        h = random_free_hermitian(stats, n, rng)
        m = random_valid_map(
            stats, n, rng, pair_scale=0.12, shift_scale=0.1 if stats is BOSE else 0.0,
            gauge=True,
        )
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
            return expectation(state_of_map(probe, basis)[0], hmat).real

        fd = (energy(h_step) - energy(-h_step)) / (2 * h_step)
        analytic = directional_derivative(blocks, g)
        assert abs(fd - analytic) <= max(1e-6, 1e-4 * abs(analytic))
        checked += 1
    elapsed = time.time() - start
    assert checked == 50
    assert elapsed < 120
    report(2, f"50 directional derivatives match central differences ({elapsed:.1f}s)")


def test_criterion_3_squeezed_oscillator():
    start = time.time()
    h = squeezed_oscillator()
    res = minimize(h, Mode.BOSE_EVEN, MinimizeOptions(tol_grad=1e-9))
    assert res.status is RunStatus.CONVERGED
    assert abs(res.energy - (-0.1)) < 1e-6
    assert abs(res.spectrum[0] - 0.8) < 1e-6
    gap = res.energy - ground_energy(h, FockBasis.build(BOSE, 1, cutoff=12))
    assert abs(gap) < 1e-6
    elapsed = time.time() - start
    assert elapsed < 5
    report(3, f"energy -0.1, quasiparticle 0.8, eigensolve gap {gap:.1e} ({elapsed:.1f}s)")


def test_criterion_4_bcs_two_mode():
    start = time.time()
    h = bcs_hamiltonian()
    res = minimize(h, Mode.FERMI_EVEN, MinimizeOptions(tol_grad=1e-9))
    exact = 1.0 - math.sqrt(1.25)
    assert res.status is RunStatus.CONVERGED
    assert abs(res.energy - exact) < 1e-8
    assert np.max(np.abs(res.spectrum - math.sqrt(1.25))) < 1e-6
    gap = res.energy - ground_energy(h, FockBasis.build(FERMI, 2))
    assert abs(gap) < 1e-8
    elapsed = time.time() - start
    assert elapsed < 5
    report(4, f"energy 1-sqrt(1.25), spectrum doubly sqrt(1.25), gap {gap:.1e} "
              f"({elapsed:.1f}s)")


def test_criterion_5_displaced_oscillator():
    start = time.time()
    h = displaced_oscillator()
    res = minimize(h, Mode.BOSE_FULL, MinimizeOptions(tol_grad=1e-11))
    assert res.status is RunStatus.CONVERGED
    assert abs(res.energy - (-0.25)) < 1e-8
    assert res.blocks.linear_norm < 1e-10
    assert np.allclose(res.spectrum, [1.0], atol=1e-8)
    assert res.spectrum.min() >= -1e-8
    elapsed = time.time() - start
    assert elapsed < 5
    report(5, f"energy -0.25, linear residual {res.blocks.linear_norm:.1e}, "
              f"positive block ({elapsed:.1f}s)")


def test_criterion_6_odd_mode_nonpositivity_witness():
    start = time.time()
    h = WickPolynomial.empty(1, FERMI).add_term([1], [1], 1.0)
    res = minimize(h, Mode.FERMI_ODD, MinimizeOptions(tol_grad=1e-10))
    assert res.status is RunStatus.CONVERGED
    assert abs(res.spectrum[0] - (-1.0)) < 1e-12
    elapsed = time.time() - start
    assert elapsed < 1
    report(6, f"odd-sector block eigenvalue -1 within 1e-12 ({elapsed:.1f}s)")


CHART_CASES = (
    [(BOSE, 1, 24, 0.3, 0.0)] * 4
    + [(BOSE, 1, 24, 0.25, 0.3)] * 2
    + [(BOSE, 2, 14, 0.18, 0.0)] * 3
    + [(BOSE, 2, 14, 0.15, 0.2)] * 1
    + [(BOSE, 3, 8, 0.055, 0.0)] * 2
    + [(FERMI, 2, 1, 0.5, 0.0)] * 4
    + [(FERMI, 3, 1, 0.5, 0.0)] * 4
)


def test_criterion_7_state_parametrization_consistency():
    start = time.time()
    rng = np.random.default_rng(77)
    bases = {}
    checked = 0
    for stats, n, cutoff, pair_scale, shift_scale in CHART_CASES:
        key = (stats, n)
        if key not in bases:
            bases[key] = FockBasis.build(stats, n, cutoff)
        basis = bases[key]
        raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        pair = (raw + raw.T) / 2 if stats is BOSE else (raw - raw.T) / 2
        top = np.linalg.norm(pair, 2)
        if top > 0:
            pair *= pair_scale / top
        shift = (
            shift_scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
            if stats is BOSE
            else np.zeros(n, complex)
        )
        g = Generator(stats, pair, shift)
        via_exp, _ = exp_generator(g, basis, vacuum_vector(basis))
        via_chart, _ = gaussian_vector(*chart_from_generator(g), basis)
        overlap = abs(np.vdot(via_exp, via_chart))
        assert overlap > 1 - 1e-8
        checked += 1
    elapsed = time.time() - start
    assert checked == 20
    assert elapsed < 60
    report(7, f"20 generator/chart overlaps above 1 - 1e-8 ({elapsed:.1f}s)")


def test_criterion_8_gauge_invariance(converged_corpus):
    start = time.time()
    rng = np.random.default_rng(88)
    named = [
        (squeezed_oscillator(), minimize(squeezed_oscillator(), Mode.BOSE_EVEN,
                                         MinimizeOptions(tol_grad=1e-9))),
        (bcs_hamiltonian(), minimize(bcs_hamiltonian(), Mode.FERMI_EVEN,
                                     MinimizeOptions(tol_grad=1e-9))),
        (displaced_oscillator(), minimize(displaced_oscillator(), Mode.BOSE_FULL,
                                          MinimizeOptions(tol_grad=1e-11))),
    ]
    all_runs = [(h, res) for h, _, res in converged_corpus] + named
    for h, res in all_runs:
        assert res.status is RunStatus.CONVERGED
        base_spec = res.spectrum
        for _ in range(2):
            gauge = random_number_conserving(h.n_modes, h.stats, rng)
            sweep = residual_blocks(h, compose(res.map, gauge))
            spec = np.linalg.eigvalsh(
                (sweep.single_particle + sweep.single_particle.conj().T) / 2
            )
            assert abs(sweep.constant.real - res.energy) < 1e-8
            assert abs(sweep.linear_norm - res.blocks.linear_norm) < 1e-8
            assert abs(sweep.pairing_norm - res.blocks.pairing_norm) < 1e-8
            assert np.max(np.abs(spec - base_spec)) < 1e-8
    elapsed = time.time() - start
    assert elapsed < 30
    report(8, f"gauge sweeps on {len(all_runs)} converged runs ({elapsed:.1f}s)")


def test_criterion_9_instability_detected():
    start = time.time()
    h = (
        WickPolynomial.empty(1, BOSE)
        .add_term([1], [1], 0.5)
        .add_term([1, 1], [], 0.3)
        .add_term([], [1, 1], 0.3)
    )
    res = minimize(h, Mode.BOSE_EVEN, MinimizeOptions())
    assert res.status is RunStatus.UNBOUNDED_BELOW
    assert res.iterations < 5000
    elapsed = time.time() - start
    assert elapsed < 10
    report(9, f"indefinite quadratic flagged unbounded after {res.iterations} "
              f"iterations ({elapsed:.1f}s)")


EXPECTATION_CASES = (
    [(BOSE, 1, 20)] * 20 + [(BOSE, 2, 14)] * 15 + [(FERMI, 2, 1)] * 10 + [(FERMI, 3, 1)] * 5
)


def test_criterion_10_engine_oracle_expectation():
    start = time.time()
    rng = np.random.default_rng(1010)
    bases = {}
    checked = 0
    for stats, n, cutoff in EXPECTATION_CASES:
        key = (stats, n)
        if key not in bases:
            bases[key] = FockBasis.build(stats, n, cutoff)
        basis = bases[key]
        h = random_free_hermitian(stats, n, rng)
        m = random_valid_map(
            stats, n, rng, pair_scale=0.12, shift_scale=0.15 if stats is BOSE else 0.0,
            gauge=True,
        )
        if stats is BOSE:
            radius = np.linalg.norm(chart_arrays(m.stats, m.u, m.v, m.shift)[0], 2)
            assert series_tail(radius, min(basis.cutoffs)) < 1e-10
        vec, _ = state_of_map(m, basis)
        engine = residual_blocks(h, m).constant.real
        oracle = expectation(vec, quantize(h, basis)).real
        assert abs(engine - oracle) < 1e-6
        checked += 1
    elapsed = time.time() - start
    assert checked == 50
    assert elapsed < 120
    report(10, f"50 engine vs oracle expectations within 1e-6 ({elapsed:.1f}s)")

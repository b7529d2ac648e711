"""Gradient minimization of Hermitian polynomials over pure Gaussian states.

The state manifold is walked through Bogoliubov maps: at the current map U
the polynomial is rewritten in the transformed operators, and the linear and
anomalous quadratic blocks of that rewriting are exactly the gradient in the
generator chart recentered at U.  Steepest descent along the corresponding
generator direction (a statistics-dependent phase times the blocks, see
``descent_direction``) with Armijo backtracking therefore makes every
iterate a direct check of the first-order expansion; at convergence those
blocks vanish and only the constant, the particle-conserving quadratic block
and higher-order terms survive.

One engine, one oracle: the descent evaluates the blocks with the batched
Wick engine ``ordering.CompiledPolynomial``; ``residual_blocks`` normal
orders the substituted polynomial in full.  They are asserted against each
other at the end of every run (and property-tested), so a bug in either is
loud.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import fock
from .bogoliubov import (
    BogoliubovMap,
    Generator,
    chart_from_map,
    compose,
    from_generator,
    identity,
    inverse,
    random_number_conserving,
    reflection,
)
from .errors import HermiticityError, ParityError, StatisticsMismatchError
from .ordering import (
    CompiledPolynomial,
    LinearOperator,
    VacuumBlocks,
    product_vacuum_expectation,  # noqa: F401  (perfbench/spans.py wraps it in this namespace)
    substitute_linear,
)
from .wick import (
    Statistics,
    TermParity,
    TransformedBlocks,
    WickPolynomial,
    extract_blocks,
)


class Mode(Enum):
    BOSE_EVEN = "bose-even"
    BOSE_FULL = "bose-full"
    FERMI_EVEN = "fermi-even"
    FERMI_ODD = "fermi-odd"

    @property
    def statistics(self) -> Statistics:
        return Statistics.BOSE if self in (Mode.BOSE_EVEN, Mode.BOSE_FULL) else Statistics.FERMI


class RunStatus(Enum):
    CONVERGED = "converged"
    MAX_ITERATIONS = "max_iterations"
    UNBOUNDED_BELOW = "unbounded_below"


@dataclass
class MinimizeOptions:
    tol_grad: float = 1e-8
    max_iterations: int = 5000
    armijo: float = 1e-4
    step_init: float = 0.5
    step_shrink: float = 0.5
    max_backtracks: int = 60
    energy_floor: float = -1e6
    mixing_cap: float = 1e4
    step_norm_cap: float = 20.0
    multistarts: int | None = None
    seed: int = 0
    start_scale: float = 0.1
    odd_start: np.ndarray | None = None
    hermitian_tol: float = 1e-10


@dataclass(frozen=True)
class MinimizationResult:
    map: BogoliubovMap
    blocks: TransformedBlocks
    energy: float
    spectrum: np.ndarray
    residual: float
    iterations: int
    status: RunStatus
    trace: tuple
    n_starts: int = 1


def substitution_rows(m: BogoliubovMap) -> tuple[list[LinearOperator], list[LinearOperator]]:
    """Affine expressions of the original operators in the transformed ones.

    Row i of the returned (creation images, annihilation images) is what
    a*_i / a_i becomes when written in the b operators of the map.
    """
    inv = inverse(m)
    ann = [
        LinearOperator(inv.v[i, :], inv.u[i, :], inv.shift[i]) for i in range(m.n_modes)
    ]
    cre = [op.adjoint() for op in ann]
    return cre, ann


def residual_blocks(h: WickPolynomial, m: BogoliubovMap) -> TransformedBlocks:
    """Blocks of the polynomial rewritten in the transformed operators.

    This is the full normal-ordering route: substitute the inverse map into
    the polynomial, Wick order, and split by degree.
    """
    if h.stats is not m.stats or h.n_modes != m.n_modes:
        raise StatisticsMismatchError("polynomial and map disagree")
    cre, ann = substitution_rows(m)
    transformed = substitute_linear(h, cre, ann)
    return extract_blocks(transformed)


def pairing_gradient_sign(stats: Statistics) -> float:
    """Sign of the first-order pairing term in the energy expansion.

    Along a generator direction the truncated-Fock energy changes to first
    order by  sign * 2 Im(sum conj(pair) * pairing_block)
            + 2 Im(sum conj(shift) * linear_block),
    with sign +1 for bosons and -1 for fermions (checked against central
    finite differences of the brute-force expectation).
    """
    return 1.0 if stats is Statistics.BOSE else -1.0


def directional_derivative(blocks: TransformedBlocks, direction: Generator) -> float:
    """Analytic first-order energy change along a unit generator direction."""
    sign = pairing_gradient_sign(blocks.stats)
    return float(
        sign * 2.0 * np.imag(np.sum(np.conj(direction.pair) * blocks.pairing))
        + 2.0 * np.imag(np.sum(np.conj(direction.shift) * blocks.linear))
    )


def descent_direction(blocks: TransformedBlocks | VacuumBlocks, mode: Mode) -> Generator:
    """Steepest-descent generator: (gradient sign) * i * pairing, plus
    i * linear for BOSE_FULL.

    Along the scaled direction the first-order energy change is
    -2 s (|pairing|_F^2 + |linear|^2), strictly negative away from
    stationarity.
    """
    pair = pairing_gradient_sign(blocks.stats) * 1j * blocks.pairing
    shift = 1j * blocks.linear if mode is Mode.BOSE_FULL else np.zeros_like(blocks.linear)
    return Generator(blocks.stats, pair, shift)


def _check_mode(h: WickPolynomial, mode: Mode, tol: float) -> None:
    if h.stats is not mode.statistics:
        raise StatisticsMismatchError(
            f"mode {mode.value} needs {mode.statistics.value} statistics"
        )
    if not h.is_hermitian(tol):
        raise HermiticityError("the polynomial must be Hermitian")
    if mode is not Mode.BOSE_FULL and h.parity() is not TermParity.EVEN:
        raise ParityError(f"mode {mode.value} requires an even polynomial")


def _descend(compiled: CompiledPolynomial, mode: Mode, start: BogoliubovMap,
             opts: MinimizeOptions, want_linear: bool):
    u_map = start
    blocks = compiled.vacuum_blocks(inverse(u_map), want_linear)
    trace: list[tuple[float, float]] = []
    iterations = 0
    status = RunStatus.MAX_ITERATIONS
    while True:
        energy = float(blocks.constant.real)
        lin_norm = float(np.linalg.norm(blocks.linear))
        pair_norm = float(np.linalg.norm(blocks.pairing, "fro"))
        residual = lin_norm + pair_norm
        trace.append((energy, residual))
        if not math.isfinite(energy) or energy < opts.energy_floor:
            status = RunStatus.UNBOUNDED_BELOW
            break
        if float(np.linalg.norm(u_map.v, "fro")) > opts.mixing_cap:
            status = RunStatus.UNBOUNDED_BELOW
            break
        if residual < opts.tol_grad:
            status = RunStatus.CONVERGED
            break
        if iterations >= opts.max_iterations:
            status = RunStatus.MAX_ITERATIONS
            break
        direction = descent_direction(blocks, mode)
        slope = 2.0 * (
            pair_norm**2 + (lin_norm**2 if mode is Mode.BOSE_FULL else 0.0)
        )
        step = min(opts.step_init, opts.step_norm_cap / max(direction.norm, 1e-300))
        # Below this the Armijo decrement is invisible in double precision;
        # switch to accepting steps on strict residual decrease instead,
        # still requiring the energy not to rise beyond rounding noise.
        noise = 64.0 * np.finfo(float).eps * max(1.0, abs(energy))
        terminal = opts.armijo * step * slope < noise
        accepted = None
        for _ in range(opts.max_backtracks):
            candidate = compose(u_map, from_generator(direction.scaled(step)))
            # Armijo trials need the energy alone; a terminal trial's blocks
            # are those of the next iterate if it is accepted.
            trial = compiled.vacuum_blocks(inverse(candidate), want_linear and terminal, terminal)
            t_energy = float(trial.constant.real)
            if terminal:
                t_res = float(np.linalg.norm(trial.linear)) + float(
                    np.linalg.norm(trial.pairing, "fro")
                )
                better = t_energy <= energy + noise and t_res <= residual * (1.0 - 1e-3)
            else:
                better = t_energy <= energy - opts.armijo * step * slope
            if math.isfinite(t_energy) and better:
                accepted = candidate
                break
            step *= opts.step_shrink
        if accepted is None:
            # Stalled at the floating-point floor of the line search.
            status = RunStatus.MAX_ITERATIONS
            break
        u_map = accepted
        blocks = trial if terminal else compiled.vacuum_blocks(inverse(u_map), want_linear)
        iterations += 1
    return u_map, status, iterations, trace


def _starts(h: WickPolynomial, mode: Mode, opts: MinimizeOptions) -> list[BogoliubovMap]:
    n = h.n_modes
    rng = np.random.default_rng(opts.seed)
    if mode is Mode.FERMI_ODD:
        base: list[BogoliubovMap] = []
        if opts.odd_start is not None:
            y = np.asarray(opts.odd_start, complex)
            base.append(reflection(y / np.linalg.norm(y)))
        for k in range(n):
            direction = np.zeros(n, complex)
            direction[k] = 1.0
            base.append(reflection(direction))
    else:
        base = [identity(n, h.stats)]
    total = opts.multistarts
    if total is None:
        total = 1 if h.degree() <= 2 else 4
    extras = max(0, total - len(base))
    starts = list(base)
    for _ in range(extras):
        raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        pair = (raw + raw.T) / 2 if h.stats is Statistics.BOSE else (raw - raw.T) / 2
        g = Generator(h.stats, opts.start_scale * pair, np.zeros(n, complex))
        starts.append(compose(base[0], from_generator(g)))
    return starts


def minimize(
    h: WickPolynomial, mode: Mode, opts: MinimizeOptions | None = None
) -> MinimizationResult:
    """Minimize the expectation value over the Gaussian family of the mode.

    Runs steepest descent in the recentered generator chart from one or more
    starts, stops at gradient norm ``tol_grad``, the iteration cap, or a
    divergence guard, and reports the block decomposition at the final map
    computed through the full normal-ordering route.
    """
    opts = opts or MinimizeOptions()
    _check_mode(h, mode, opts.hermitian_tol)
    compiled = CompiledPolynomial(h)
    want_linear = mode is Mode.BOSE_FULL or h.parity() is not TermParity.EVEN
    runs = [
        _descend(compiled, mode, start, opts, want_linear) for start in _starts(h, mode, opts)
    ]
    unbounded = [r for r in runs if r[1] is RunStatus.UNBOUNDED_BELOW]
    converged = [r for r in runs if r[1] is RunStatus.CONVERGED]
    if unbounded:
        best = unbounded[0]
    elif converged:
        best = min(converged, key=lambda r: r[3][-1][0])
    else:
        best = min(runs, key=lambda r: r[3][-1][1])
    u_map, status, iterations, trace = best
    result = result_at(h, u_map, status, iterations, tuple(trace), len(runs))
    _crosscheck_routes(compiled, u_map, result.blocks)
    return result


def result_at(
    h: WickPolynomial,
    m: BogoliubovMap,
    status: RunStatus = RunStatus.CONVERGED,
    iterations: int = 0,
    trace: tuple | None = None,
    n_starts: int = 1,
) -> MinimizationResult:
    """The result at a map: blocks by full normal ordering, the spectrum of
    the Hermitian part of D, and by default a one-point trace."""
    blocks = residual_blocks(h, m)
    energy = float(blocks.constant.real)
    spectrum = np.linalg.eigvalsh(
        (blocks.single_particle + blocks.single_particle.conj().T) / 2
    )
    return MinimizationResult(
        map=m,
        blocks=blocks,
        energy=energy,
        spectrum=spectrum,
        residual=blocks.residual,
        iterations=iterations,
        status=status,
        trace=((energy, blocks.residual),) if trace is None else trace,
        n_starts=n_starts,
    )


def _crosscheck_routes(compiled: CompiledPolynomial, m: BogoliubovMap, blocks: TransformedBlocks) -> None:
    """The batched engine must reproduce the normal-ordering route."""
    _, constant, linear, pairing = compiled.vacuum_blocks(inverse(m), linear=True)
    scale = max(1.0, abs(constant))
    if (
        abs(constant - blocks.constant) > 1e-8 * scale
        or np.max(np.abs(linear - blocks.linear), initial=0.0) > 1e-8 * scale
        or np.max(np.abs(pairing - blocks.pairing), initial=0.0) > 1e-8 * scale
    ):
        raise RuntimeError("internal inconsistency between block evaluation routes")


@dataclass(frozen=True)
class CertificationReport:
    """Outcome of the stationarity battery at a converged map."""

    residual_linear: float
    residual_pairing: float
    fd_deviations: tuple
    fd_tolerances: tuple
    fd_passed: bool
    quadratic_rel_errors: tuple | None
    quadratic_passed: bool | None
    gauge_deltas: dict
    gauge_passed: bool
    oracle_cutoff: int | None

    @property
    def passed(self) -> bool:
        quad_ok = self.quadratic_passed is None or self.quadratic_passed
        return self.fd_passed and quad_ok and self.gauge_passed


def oracle_basis(
    m: BogoliubovMap,
    h: WickPolynomial,
    cutoff: int | None = None,
    dimension_cap: int = fock.DEFAULT_DIMENSION_CAP,
    tail_tol: float = fock.DEFAULT_TAIL_TOL,
) -> fock.FockBasis:
    """Truncated basis able to represent the state of the map within tail_tol.

    With ``cutoff=None`` the bosonic per-mode cutoff is grown until the
    geometric tail estimate of the state's pair amplitude clears the
    tolerance with margin.
    """
    if h.stats is Statistics.FERMI:
        return fock.FockBasis.build(h.stats, h.n_modes, dimension_cap=dimension_cap)
    if cutoff is not None:
        return fock.FockBasis.build(h.stats, h.n_modes, cutoff, dimension_cap=dimension_cap)
    reach = float(np.linalg.norm(chart_from_map(m).z, 2)) + 0.1
    reach = min(reach, 0.999)
    chosen = fock.DEFAULT_CUTOFF
    while True:
        pairs = chosen // 2
        est = reach ** (2 * (pairs + 1)) / (1.0 - reach * reach)
        if est < 0.1 * tail_tol:
            return fock.FockBasis.build(h.stats, h.n_modes, chosen, dimension_cap=dimension_cap)
        chosen += 2


def certify(
    result: MinimizationResult,
    h: WickPolynomial,
    mode: Mode,
    fd_step: float = 3e-4,
    n_directions: int = 10,
    n_gauges: int = 5,
    seed: int = 1234,
    cutoff: int | None = None,
    dimension_cap: int = fock.DEFAULT_DIMENSION_CAP,
    tail_tol: float = fock.DEFAULT_TAIL_TOL,
) -> CertificationReport:
    """Check the stationarity structure of a converged run against brute force.

    Four checks: residual norms of the linear and anomalous blocks;
    finite-difference derivatives of the truncated-Fock energy along random
    generator directions against the analytic first-order values; for the
    full bosonic mode, the quadratic growth of the energy along displacements
    against the particle-conserving block; invariance of the reported data
    under random gauge (number-conserving) right-compositions.
    """
    if result.status is not RunStatus.CONVERGED:
        raise ValueError("certification requires a converged result")
    rng = np.random.default_rng(seed)
    basis = oracle_basis(result.map, h, cutoff, dimension_cap, tail_tol)
    hmat = fock.quantize(h, basis)
    u_map = result.map
    blocks = result.blocks

    def oracle_energy(m: BogoliubovMap) -> float:
        vec = fock.state_of_map(m, basis, tail_tol)
        return float(fock.expectation(vec, hmat).real)

    fd_devs: list[float] = []
    fd_tols: list[float] = []
    for _ in range(n_directions):
        raw = rng.standard_normal((h.n_modes, h.n_modes)) + 1j * rng.standard_normal(
            (h.n_modes, h.n_modes)
        )
        pair = (raw + raw.T) / 2 if h.stats is Statistics.BOSE else (raw - raw.T) / 2
        shift = (
            rng.standard_normal(h.n_modes) + 1j * rng.standard_normal(h.n_modes)
            if mode is Mode.BOSE_FULL
            else np.zeros(h.n_modes, complex)
        )
        g = Generator(h.stats, pair, shift)
        g = g.scaled(1.0 / max(g.norm, 1e-300))
        e_plus = oracle_energy(compose(u_map, from_generator(g.scaled(fd_step))))
        e_minus = oracle_energy(compose(u_map, from_generator(g.scaled(-fd_step))))
        fd = (e_plus - e_minus) / (2 * fd_step)
        analytic = directional_derivative(blocks, g)
        fd_devs.append(abs(fd - analytic))
        fd_tols.append(max(1e-6, 1e-4 * abs(analytic)))
    fd_passed = all(d <= t for d, t in zip(fd_devs, fd_tols))

    quad_errors = None
    quad_passed = None
    if mode is Mode.BOSE_FULL:
        e_zero = oracle_energy(u_map)
        errs = []
        for _ in range(5):
            y = rng.standard_normal(h.n_modes) + 1j * rng.standard_normal(h.n_modes)
            y = y / np.linalg.norm(y)
            g = Generator(h.stats, np.zeros((h.n_modes, h.n_modes), complex), y)
            e_plus = oracle_energy(compose(u_map, from_generator(g.scaled(fd_step))))
            e_minus = oracle_energy(compose(u_map, from_generator(g.scaled(-fd_step))))
            # second central difference estimates E'' = 2c for E = B + c s^2
            fitted = (e_plus - 2 * e_zero + e_minus) / (2 * fd_step**2)
            analytic = float(np.real(np.conj(y) @ blocks.single_particle @ y))
            errs.append(abs(fitted - analytic) / max(abs(analytic), 1e-300))
        quad_errors = tuple(errs)
        quad_passed = all(e <= 0.05 for e in errs)

    base_spec = result.spectrum
    deltas = {"energy": [], "linear_norm": [], "pairing_norm": [], "spectrum": []}
    for _ in range(n_gauges):
        gauge = random_number_conserving(h.n_modes, h.stats, rng)
        sweep = result_at(h, compose(u_map, gauge))
        deltas["energy"].append(abs(sweep.energy - result.energy))
        deltas["linear_norm"].append(abs(sweep.blocks.linear_norm - blocks.linear_norm))
        deltas["pairing_norm"].append(abs(sweep.blocks.pairing_norm - blocks.pairing_norm))
        deltas["spectrum"].append(float(np.max(np.abs(sweep.spectrum - base_spec))))
    gauge_passed = all(d < 1e-8 for vals in deltas.values() for d in vals)

    return CertificationReport(
        residual_linear=blocks.linear_norm,
        residual_pairing=blocks.pairing_norm,
        fd_deviations=tuple(fd_devs),
        fd_tolerances=tuple(fd_tols),
        fd_passed=fd_passed,
        quadratic_rel_errors=quad_errors,
        quadratic_passed=quad_passed,
        gauge_deltas={k: tuple(v) for k, v in deltas.items()},
        gauge_passed=gauge_passed,
        oracle_cutoff=None if h.stats is Statistics.FERMI else basis.cutoffs[0],
    )

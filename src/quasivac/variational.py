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

The iterate and each line-search trial are bare (u, v, shift) arrays: a
trial is scipy's Padé kernels, the compose products and one engine call,
with no ``BogoliubovMap``, no ``Blocks`` and, unshifted, no shift arithmetic.

One engine, one oracle: every block ``minimize`` uses or reports (the
descent's, and the constant, linear, pairing and particle-conserving blocks
of a result) comes from the batched Wick engine
``ordering.CompiledPolynomial``.  ``certify`` asserts a result's blocks
against the same blocks read from its state in the truncated Fock space,
the expectations of H between the state and its one- and
two-quasiparticle excitations, so a bug in either is loud.
``residual_blocks`` normal orders the substituted polynomial in full; it is
the paper's rewritten H with its degree >= 3 remainder, and the tests
check the engine against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.linalg

from . import fock
from .bogoliubov import (
    BogoliubovMap,
    Generator,
    compose,
    compose_arrays,
    exponential_map,
    from_generator,
    identity,
    inverse,
    inverse_arrays,
    random_generator,
    random_number_conserving,
    reflection,
    relative_overlap,
)
from .errors import (HermiticityError, InconsistencyError, ParityError, QuasivacError,
                     StatisticsMismatchError)
from .ordering import (
    CompiledPolynomial,
    product_vacuum_expectation,  # noqa: F401  (perfbench/spans.py wraps it in this namespace)
    substitute_linear,
)
from .wick import (
    Blocks,
    Statistics,
    TermParity,
    TransformedBlocks,
    WickPolynomial,
    check_same_space,
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
    #: no trial step of the line search decreased the energy (or, at the
    #: rounding floor, the residual) before the backtracks ran out
    STALLED = "stalled"
    UNBOUNDED_BELOW = "unbounded_below"


# Line search: Armijo sufficient-decrease constant, first trial step, its
# shrink factor per backtrack and the number of backtracks before a stall;
# trial steps are also capped at this generator norm.
ARMIJO = 1e-4
STEP_INIT = 0.5
STEP_SHRINK = 0.5
MAX_BACKTRACKS = 60
STEP_NORM_CAP = 20.0

# Divergence guards: a run is unbounded below once the mixing norm |v|_F
# passes MIXING_CAP or its energy falls this many times H's ``scale`` (the
# largest non-constant |coefficient|) below its start energy.
MIXING_CAP = 1e4
ENERGY_FLOOR_SPAN = 1e6

#: Generator norm scale of the random extra starts.
START_SCALE = 0.1

#: A start whose state overlaps an earlier converged minimum to within this
#: of 1, at an energy no lower than the minimum's, stops as merged into it.
MERGE_DELTA = 1e-6

#: Energy differences below this times max(1, |E|) are rounding, not descent.
NOISE = 64.0 * np.finfo(float).eps

#: Random directions of the finite-difference check and gauges of the sweep.
FD_DIRECTIONS = 10
GAUGE_SWEEPS = 5

#: Central-difference step of the finite-difference check, and the seed its
#: directions, displacements and gauges are drawn from: fixed, so a stored
#: report's certification re-runs to the same numbers.
FD_STEP = 3e-4
CERTIFY_SEED = 1234

# certify's gauge-sweep bound, relative to max(s, |E|, |eigenvalues of D|)
# with H's scale s (``WickPolynomial.scale``): the largest delta measured on
# the benchmark's problem sets and on random minima is 1.7e-15 of that
GAUGE_RTOL = 1e-13


@dataclass
class MinimizeOptions:
    """Settings of ``minimize``.

    ``tol_grad`` is the stationarity residual (|linear| + |pairing|_F) at
    which a start counts as converged, ``max_iterations`` the descent steps
    allowed per start.  ``multistarts`` is the number of starts.  The base
    starts are the identity, or every unit reflection in FERMI_ODD; the extra
    starts are random, drawn from ``seed``, and in BOSE_FULL displaced as
    well.  By default (None) there are no extras at degree <= 2, and at higher
    degree 4 starts in all unless the best base start is unbounded or a
    strict minimum (see ``minimize``).  Starts exist because a symmetric
    polynomial can be stationary at the identity without a minimum there.
    A negative or non-finite ``tol_grad``, a negative ``max_iterations`` or
    ``multistarts`` below 1 raises ValueError.
    """

    tol_grad: float = 1e-8
    max_iterations: int = 5000
    multistarts: int | None = None
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.tol_grad) and self.tol_grad >= 0):
            raise ValueError(f"tol_grad must be finite and non-negative, got {self.tol_grad}")
        if self.max_iterations < 0:
            raise ValueError(f"max_iterations must be non-negative, got {self.max_iterations}")
        if self.multistarts is not None and self.multistarts < 1:
            raise ValueError(f"multistarts must be at least 1, got {self.multistarts}")


@dataclass(frozen=True, slots=True)
class MinimizationResult:
    map: BogoliubovMap
    blocks: Blocks
    energy: float
    spectrum: np.ndarray
    residual: float
    iterations: int
    status: RunStatus
    #: read-only (k, 2) float array of (energy, residual) per iterate
    trace: np.ndarray
    n_starts: int = 1


def residual_blocks(h: WickPolynomial, m: BogoliubovMap) -> TransformedBlocks:
    """Blocks of the polynomial rewritten in the transformed operators.

    This is the full normal-ordering route: substitute the inverse map's
    arrays into the polynomial, Wick order, and split by degree.
    """
    check_same_space(h, m, "polynomial and map")
    return extract_blocks(substitute_linear(h, *inverse_arrays(m.stats, (m.u, m.v, m.shift))))


def descent_direction(stats: Statistics, linear: np.ndarray, pairing: np.ndarray) -> tuple:
    """Steepest-descent generator data (pair, shift) at the linear and
    pairing blocks: sign * i * pairing and i * linear, with ``stats.sign``.

    Along a generator direction d the energy changes to first order by
    -2 Re <(pair, shift), d>  (checked against central finite differences
    of the brute-force expectation), which is -2 s (|pairing|_F^2 +
    |linear|^2) along s times this direction: strictly negative away from
    stationarity.  The linear block, and with it the shift, is zero outside
    BOSE_FULL: the other modes take even polynomials and unshifted maps.
    """
    return stats.sign * 1j * pairing, 1j * linear


def directional_derivative(blocks: Blocks, direction: Generator) -> float:
    """Analytic first-order energy change along a unit generator direction."""
    pair, shift = descent_direction(blocks.stats, blocks.linear, blocks.pairing)
    return -2.0 * float(np.real(np.vdot(pair, direction.pair) + np.vdot(shift, direction.shift)))


def _check_mode(h: WickPolynomial, mode: Mode) -> None:
    if h.stats is not mode.statistics:
        raise StatisticsMismatchError(
            f"mode {mode.value} needs {mode.statistics.value} statistics"
        )
    if not h.is_hermitian():
        raise HermiticityError("the polynomial must be Hermitian")
    if mode is not Mode.BOSE_FULL and h.parity() is not TermParity.EVEN:
        raise ParityError(f"mode {mode.value} requires an even polynomial")


def check_certifiable(h: WickPolynomial, m: BogoliubovMap, mode: Mode) -> None:
    """``certify``'s rule: H fits the mode (``_check_mode``) and the map's
    statistics and mode count, and the map is odd exactly in fermi-odd."""
    _check_mode(h, mode)
    check_same_space(h, m, "polynomial and map")
    if m.odd != (mode is Mode.FERMI_ODD):
        raise ParityError(f"mode {mode.value} needs an {'even' if m.odd else 'odd'} map")


def _noise(energy: float) -> float:
    return NOISE * max(1.0, abs(energy))


def _norm(a: np.ndarray) -> float:
    """``np.linalg.norm`` of a complex array (Frobenius for a matrix): its
    arithmetic, without its per-call checks."""
    flat = a.ravel(order="K")
    return math.sqrt(flat.real.dot(flat.real) + flat.imag.dot(flat.imag))


def _trace_array(rows) -> np.ndarray:
    out = np.array(rows, dtype=float, ndmin=2)
    out.setflags(write=False)
    return out


def _descend(compiled: CompiledPolynomial, start: BogoliubovMap,
             opts: MinimizeOptions, floor_depth: float,
             minima: list[tuple[BogoliubovMap, float]]):
    """One start's descent; a status of None means it merged into one of
    the converged ``minima``, (inverse map, energy) pairs of earlier starts.
    Non-finite energy or block norms raise QuasivacError at the start and
    reject a trial."""
    stats, odd, arrays = start.stats, start.odd, (start.u, start.v, start.shift)
    constant, linear, pairing, _ = compiled.vacuum_blocks(*arrays)
    norms = _norm(linear), _norm(pairing)
    floor = float(constant.real) - floor_depth
    trace: list[tuple[float, float]] = []
    iterations = 0
    while True:
        energy = float(constant.real)
        lin_norm, pair_norm = norms
        residual = lin_norm + pair_norm
        trace.append((energy, residual))
        if not all(map(math.isfinite, (energy, *norms))):  # only a start can get here
            raise QuasivacError("the blocks at a start overflow the float range")
        if energy < floor or _norm(arrays[1]) > MIXING_CAP:
            status = RunStatus.UNBOUNDED_BELOW
            break
        if residual < opts.tol_grad:
            status = RunStatus.CONVERGED
            break
        if any(energy >= e1 - _noise(e1)
               and 1.0 - relative_overlap(inv1, arrays, odd) < MERGE_DELTA
               for inv1, e1 in minima):
            status = None
            break
        if iterations >= opts.max_iterations:
            status = RunStatus.MAX_ITERATIONS
            break
        pair, shift = descent_direction(stats, linear, pairing)
        # i and the sign move no magnitude: the direction's norm is sqrt(squared)
        squared = pair_norm**2 + lin_norm**2
        slope = 2.0 * squared
        step = min(STEP_INIT, STEP_NORM_CAP / max(math.sqrt(squared), 1e-300))
        # Below this the Armijo decrement is invisible in double precision;
        # switch to accepting steps on strict residual decrease instead,
        # still requiring the energy not to rise beyond rounding noise.
        noise = _noise(energy)
        terminal = ARMIJO * step * slope < noise
        for _ in range(MAX_BACKTRACKS):
            candidate = compose_arrays(arrays, exponential_map(stats, step * pair, step * shift))
            # an accepted trial's blocks are the next iterate's
            trial = compiled.vacuum_blocks(*candidate)
            t_energy = float(trial[0].real)
            t_norms = _norm(trial[1]), _norm(trial[2])
            if terminal:
                better = t_energy <= energy + noise and sum(t_norms) <= residual * (1.0 - 1e-3)
            else:
                better = t_energy <= energy - ARMIJO * step * slope
            if better and all(map(math.isfinite, (t_energy, *t_norms))):
                break
            step *= STEP_SHRINK
        else:
            status = RunStatus.STALLED
            break
        arrays, (constant, linear, pairing, _), norms = candidate, trial, t_norms
        iterations += 1
    return BogoliubovMap(stats, *arrays, odd), status, iterations, _trace_array(trace)


def _starts(h: WickPolynomial, mode: Mode, opts: MinimizeOptions, settled):
    """The base starts, then the random extras: ``settled()`` is asked once
    the base starts have run, and only if its answer decides their number."""
    n = h.n_modes
    rng = np.random.default_rng(opts.seed)
    if mode is Mode.FERMI_ODD:
        base = [reflection(direction) for direction in np.eye(n, dtype=complex)]
    else:
        base = [identity(n, h.stats)]
    yield from base
    total = opts.multistarts
    if total is None:
        total = 1 if h.degree() <= 2 or len(base) >= 4 or settled() else 4
    # At zero shift the linear block of an even polynomial vanishes, so
    # BOSE_FULL descents leave the undisplaced states only from a shifted start.
    shift_scale = START_SCALE if mode is Mode.BOSE_FULL else 0.0
    for _ in range(total - len(base)):
        g = random_generator(n, h.stats, rng, START_SCALE, shift_scale)
        yield compose(base[0], from_generator(g))


def _settled(compiled: CompiledPolynomial, run: tuple, mode: Mode) -> bool:
    """Whether a run is unbounded, or converged where the chart Hessian's
    lambda_min exceeds 1e-6 max|lambda|: central differences (step 1e-4) of the
    engine gradient along unit real directions, each a flattened (pair, shift)."""
    m, status = run[0], run[1]
    if status is not RunStatus.CONVERGED:
        return status is RunStatus.UNBOUNDED_BELOW
    n, stats, arrays = m.n_modes, m.stats, (m.u, m.v, m.shift)
    # unit pair directions, symmetric or antisymmetric: a fermionic diagonal is empty
    rows, cols = np.triu_indices(n, (1 - stats.sign) // 2)
    unit = np.zeros((len(rows), n * n + n))
    unit[np.arange(len(rows)), cols * n + rows] = stats.sign * math.sqrt(0.5)
    unit[np.arange(len(rows)), rows * n + cols] = np.where(rows == cols, 1.0, math.sqrt(0.5))
    if mode is Mode.BOSE_FULL:
        unit = np.concatenate([unit, np.eye(n * n + n)[-n:]])
    directions = np.concatenate([unit, 1j * unit])

    def gradient(d: np.ndarray) -> np.ndarray:
        moved = compose_arrays(arrays, exponential_map(stats, d[:-n].reshape(n, n), d[-n:]))
        _, linear, pairing, _ = compiled.vacuum_blocks(*moved)
        pair, shift = descent_direction(stats, linear, pairing)
        # directional_derivative along every direction at once
        return -2.0 * np.real(directions @ np.concatenate([pair.ravel(), shift]).conj())

    hessian = np.array([gradient(1e-4 * d) - gradient(-1e-4 * d) for d in directions]) / 2e-4
    try:
        eig = np.linalg.eigvalsh((hessian + hessian.T) / 2)
    except np.linalg.LinAlgError:  # as in result_at: no verdict, so the extras run
        return False
    return eig.size == 0 or eig[0] > 1e-6 * np.max(np.abs(eig))


def _best(runs: list):
    """The first unbounded run, else the earliest lowest converged one, else the least residual."""
    unbounded = [r for r in runs if r[1] is RunStatus.UNBOUNDED_BELOW]
    converged = [r for r in runs if r[1] is RunStatus.CONVERGED]
    if unbounded:
        return unbounded[0]
    if converged:
        lowest = min(r[3][-1, 0] for r in converged)
        return next(r for r in converged if r[3][-1, 0] <= lowest + _noise(lowest))
    # no start converged, so none merged
    return min(runs, key=lambda r: r[3][-1, 1])


def minimize(
    h: WickPolynomial, mode: Mode, opts: MinimizeOptions | None = None
) -> MinimizationResult:
    """Minimize the expectation value over the Gaussian family of the mode.

    Runs steepest descent in the recentered generator chart from one or more
    starts, stops at gradient norm ``tol_grad``, the iteration cap, a
    line-search stall, or a divergence guard (``MIXING_CAP``, or an energy
    ``ENERGY_FLOOR_SPAN`` times ``h.scale`` below the start's), and reports
    the blocks at the final map, D included, from the same engine as the
    descent.  Nothing here normal orders: ``certify`` checks the blocks
    against the Fock state.  The starts run in order,
    and one whose state overlaps an earlier converged minimum to within
    ``MERGE_DELTA`` of 1 (``bogoliubov.relative_overlap``), at an energy no lower than
    that minimum's beyond the line-search noise, stops as merged: it found
    nothing new and takes no part in choosing the winner.  Converged starts
    whose energies lie within the line-search noise of the lowest tie, and
    the earliest of them wins.  By default the random extra starts run only
    at degree > 2, and only if the best base start is neither unbounded nor
    a strict minimum: it stalled, hit the cap, or converged where the chart
    Hessian (the second-order stability matrix) has an eigenvalue at or
    below 1e-6 of its largest.  ``n_starts`` counts the starts that ran.
    """
    opts = opts or MinimizeOptions()
    _check_mode(h, mode)
    compiled = CompiledPolynomial.of(h)
    runs = []
    minima: list[tuple[BogoliubovMap, float]] = []
    for start in _starts(h, mode, opts, lambda: _settled(compiled, _best(runs), mode)):
        runs.append(_descend(compiled, start, opts, ENERGY_FLOOR_SPAN * h.scale, minima))
        if runs[-1][1] is RunStatus.CONVERGED:
            minima.append((inverse(runs[-1][0]), runs[-1][3][-1, 0]))
    u_map, status, iterations, trace = _best(runs)
    return result_at(compiled, u_map, status, iterations, trace, len(runs))


def result_at(
    compiled: CompiledPolynomial,
    m: BogoliubovMap,
    status: RunStatus = RunStatus.CONVERGED,
    iterations: int = 0,
    trace: np.ndarray | None = None,
    n_starts: int = 1,
) -> MinimizationResult:
    """The result at a map: the engine's blocks with D, the spectrum of the
    Hermitian part of D, and by default a one-point trace.  An energy,
    residual or spectrum that is not finite raises QuasivacError."""
    blocks = Blocks(m.stats, *compiled.vacuum_blocks(m.u, m.v, m.shift, single=True))
    energy, d = float(blocks.constant.real), blocks.single_particle
    try:
        spectrum = np.linalg.eigvalsh((d + d.conj().T) / 2)
    except np.linalg.LinAlgError:  # LAPACK fails on entries near the float range's edge
        spectrum = np.full(m.n_modes, math.nan)
    if not np.isfinite([energy, blocks.residual, *spectrum]).all():
        raise QuasivacError("the blocks at the result overflow the float range")
    return MinimizationResult(
        map=m,
        blocks=blocks,
        energy=energy,
        spectrum=spectrum,
        residual=blocks.residual,
        iterations=iterations,
        status=status,
        trace=_trace_array((energy, blocks.residual)) if trace is None else trace,
        n_starts=n_starts,
    )


def _quasiparticle_ladders(m: BogoliubovMap, basis: fock.FockBasis, vec: np.ndarray,
                           adjoint: bool) -> np.ndarray:
    """Rows b*_i vec (``adjoint``) or b_i vec of the map's operators
    b_i = sum_j u_ij a_j + v_ij a*_j + shift_i."""
    cre, ann, shift = (m.u.conj(), m.v.conj(), m.shift.conj()) if adjoint else (m.v, m.u, m.shift)
    block = np.repeat(vec[None], m.n_modes, axis=0)
    return fock.apply_linear(basis, cre, ann, block) + shift[:, None] * block


def _state_blocks(m: BogoliubovMap, basis: fock.FockBasis, psi: np.ndarray, hpsi: np.ndarray,
                  excited: np.ndarray, h_excited: np.ndarray) -> Blocks:
    """The blocks read from the state psi of the map, which every b_i annihilates.

    With H psi and the rows b*_i psi and H b*_i psi:  E = <psi|H psi>,
    linear_i = <b*_i psi|H psi>, pairing_ij = 1/2 <b*_j b*_i psi|H psi>
    = 1/2 <b*_i psi|b_j H psi> and D_ij = <b*_i psi|H b*_j psi> - E delta_ij.
    """
    energy = np.vdot(psi, hpsi)
    lowered = _quasiparticle_ladders(m, basis, hpsi, adjoint=False)
    return Blocks(
        m.stats,
        energy,
        excited.conj() @ hpsi,
        0.5 * (excited.conj() @ lowered.T),
        excited.conj() @ h_excited.T - energy * np.eye(m.n_modes),
    )


def _crosscheck_routes(blocks: Blocks, oracle: Blocks) -> None:
    """The batched engine must reproduce the blocks read from the state, to
    1e-8 max(1, |E|) in H's units: the difference is the Fock box's
    truncation, which no multiple of H's scale bounds (README)."""
    scale = max(1.0, abs(blocks.constant))
    if abs(blocks.constant - oracle.constant) > 1e-8 * scale or any(
        np.max(np.abs(getattr(blocks, name) - getattr(oracle, name)), initial=0.0) > 1e-8 * scale
        for name in ("linear", "pairing", "single_particle")
    ):
        raise InconsistencyError("internal inconsistency between block evaluation routes")


@dataclass(frozen=True)
class CertificationReport:
    """Outcome of the stationarity battery at a converged map, with the
    per-mode cutoff of the oracle's box (1 for fermions), the expectation
    <psi|H psi> and ``norm_defect`` of the map's state psi in that box, and
    the exact ground energy of H in the box's parity sector of psi."""

    fd_deviations: tuple
    fd_tolerances: tuple
    fd_passed: bool
    quadratic_rel_errors: tuple | None
    quadratic_passed: bool | None
    gauge_deltas: dict
    gauge_passed: bool
    oracle_cutoff: int
    expectation: float
    tail_defect: float
    ground_energy: float

    @property
    def passed(self) -> bool:
        quad_ok = self.quadratic_passed is None or self.quadratic_passed
        return self.fd_passed and quad_ok and self.gauge_passed


def certify(
    result: MinimizationResult,
    h: WickPolynomial,
    mode: Mode,
    dimension_cap: int = fock.DEFAULT_DIMENSION_CAP,
) -> CertificationReport:
    """Check the stationarity structure of a converged run against brute force.

    The state psi of the result's map and the probe states of the checks
    below are built as one stack, psi its row 0, in the box
    ``fock.states_in_box`` picks for it: if that exceeds ``dimension_cap``
    the DimensionCapError ends the call.  H acts on psi, the probes and the
    excitations b*_i psi in one product with its sparse matrix
    (``fock.sparse_matrix``).  The report carries <psi|H psi>, psi's norm
    defect and the lowest eigenvalue of that matrix restricted to psi's
    parity sector (even occupation in ``bose-even`` and ``fermi-even``, odd
    in ``fermi-odd``, the whole box in ``bose-full``).  The result's blocks
    must first equal those read from psi to 1e-8 max(1, |E|) (else
    InconsistencyError, a RuntimeError): E = <psi|H psi>, linear_i = <b*_i psi|H psi>,
    pairing_ij = 1/2 <b*_j b*_i psi|H psi> and
    D_ij = <b*_i psi|H b*_j psi> - E delta_ij.  Every other bound is
    measured at the state or relative to H's ``scale`` s
    (``WickPolynomial.scale``), so certifying ``h.scaled(c)`` at the same
    map scales every number by c.  Four checks: residual norms of the
    linear and anomalous blocks; the slope of the truncated-Fock energy
    along ``FD_DIRECTIONS`` random generator directions, extrapolated from
    central differences at ``FD_STEP`` and twice it, against the analytic
    first-order values, to the truncation term the extrapolation removed
    plus the probes' rounding and box error; for the full bosonic mode, the
    quadratic growth of the energy along five random displacements y
    against the particle-conserving block D, to 0.05 of |y* D y| or, where
    D is flat, of a floor that clears the fit's O(FD_STEP^2) term and
    rounding at H's scale, with D's lowest eigenvalue not negative beyond
    1e-8 of its largest; invariance of the reported data under
    ``GAUGE_SWEEPS`` random gauge (number-conserving) right-compositions,
    to ``GAUGE_RTOL`` times the largest of s, |E| and the |eigenvalues| of
    D.  The directions, displacements and gauges are drawn from
    ``CERTIFY_SEED`` in that order.  A number of the report past the float
    range raises QuasivacError, and so does a result whose map, H and mode
    disagree (``check_certifiable``).
    """
    if result.status is not RunStatus.CONVERGED:
        raise ValueError("certification requires a converged result")
    check_certifiable(h, result.map, mode)
    rng = np.random.default_rng(CERTIFY_SEED)
    u_map = result.map
    blocks = result.blocks
    n = h.n_modes

    directions = []
    for _ in range(FD_DIRECTIONS):
        g = random_generator(n, h.stats, rng, 1.0, 1.0 if mode is Mode.BOSE_FULL else 0.0)
        directions.append(g.scaled(1.0 / max(g.norm, 1e-300)))
    displacements = []
    if mode is Mode.BOSE_FULL:
        for _ in range(5):
            y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            displacements.append(y / np.linalg.norm(y))
    steps = directions + [Generator(h.stats, np.zeros((n, n), complex), y) for y in displacements]
    # each step forward and back, then each direction twice as far, in one block
    # under psi: exp(-t G) is exp(t G)'s inverse and exp(2 t G) its square
    ahead = [exponential_map(h.stats, FD_STEP * g.pair, FD_STEP * g.shift) for g in steps]
    moves = [m for e in ahead for m in (e, inverse_arrays(h.stats, e))]
    moves += [compose_arrays(m, m) for m in moves[: 2 * FD_DIRECTIONS]]
    arrays = (u_map.u, u_map.v, u_map.shift)
    probes = compose_arrays(arrays, tuple(map(np.array, zip(*moves))))
    basis, states, defects = fock.states_in_box(
        h.stats, *(np.concatenate([a[None], p]) for a, p in zip(arrays, probes)),
        [u_map.odd] * (1 + len(moves)), dimension_cap)
    excited = _quasiparticle_ladders(u_map, basis, states[0], adjoint=True)
    matrix = fock.sparse_matrix(h, basis)
    acted = (matrix @ np.vstack([states, excited]).T).T
    count = len(states)
    oracle = _state_blocks(u_map, basis, states[0], acted[0], excited, acted[count:])
    _crosscheck_routes(blocks, oracle)
    energies = np.sum(states.conj() * acted[:count], axis=1).real.tolist()
    e_zero, e_pairs = energies[0], list(zip(energies[1::2], energies[2::2]))
    # per pair of probes: an energy's rounding, sqrt(dim) eps |H psi_t| (also
    # where E cancels to near 0), and the change of the weight 1 - (1 - defect)^2
    # the box cuts off, times H's largest absolute row sum, the energy it can carry
    sizes = np.linalg.norm(acted[1:count], axis=1).reshape(-1, 2).max(axis=1)
    sizes = (sizes * math.sqrt(len(basis.occupations)) * float(np.finfo(float).eps)).tolist()
    cuts = np.abs(np.diff((1 - (1 - defects[1:]) ** 2).reshape(-1, 2), axis=1))[:, 0]
    cuts = (cuts * float(abs(matrix).sum(axis=1).max())).tolist()
    # psi's parity sector: the whole box in bose-full, odd rows in fermi-odd, else even
    parity = basis.occupations.sum(axis=1) % 2
    sector = np.flatnonzero((parity == (mode is Mode.FERMI_ODD)) | (mode is Mode.BOSE_FULL))
    # a Fortran-ordered dense sector that LAPACK may overwrite is not copied again
    sector_matrix = matrix[sector][:, sector].toarray(order="F")
    try:  # LAPACK fails on entries at the float range's edge; the check below reports it
        ground = float(scipy.linalg.eigh(sector_matrix, eigvals_only=True, overwrite_a=True,
                                         subset_by_index=(0, 0), driver="evx",
                                         check_finite=False)[0])
    except np.linalg.LinAlgError:
        ground = math.nan

    fd_devs: list[float] = []
    fd_tols: list[float] = []
    far = len(steps)  # the pairs at twice the step follow those of every step
    for k, g in enumerate(directions):
        (e_plus, e_minus), (e_far, e_back) = e_pairs[k], e_pairs[far + k]
        # central differences at FD_STEP and twice it miss the slope by
        # E''' FD_STEP^2 / 6 and 4 times that, + O(FD_STEP^4): Richardson's
        # extrapolation cancels the term, and the term it cancels is its error bar
        narrow = (e_plus - e_minus) / (2 * FD_STEP)
        truncation = ((e_far - e_back) / (4 * FD_STEP) - narrow) / 3
        analytic = directional_derivative(blocks, g)
        fd_devs.append(abs(narrow - truncation - analytic))
        # the extrapolation, (4 narrow - wide) / 3, carries each difference's
        # rounding and box error with its weight
        rounding = 8 * max(sizes[k], sizes[far + k]) / FD_STEP
        box = (4 * cuts[k] / (2 * FD_STEP) + cuts[far + k] / (4 * FD_STEP)) / 3
        fd_tols.append(max(abs(truncation) + box + rounding, 1e-4 * abs(analytic)))
    fd_passed = all(d <= t for d, t in zip(fd_devs, fd_tols))

    quad_errors = None
    quad_passed = None
    if mode is Mode.BOSE_FULL:
        errs = []
        # a flat D leaves the fit its O(FD_STEP^2) term, FD_STEP^2 times the s^4
        # coefficient of E along y (taken up to 50 times H's scale), and its
        # rounding: the floor holds both within the 0.05 bound, and it is never
        # 0, so a constant H, whose fit is exactly 0, reads 0
        truncation = 50 * h.scale * FD_STEP**2
        for y, (e_plus, e_minus) in zip(displacements, e_pairs[FD_DIRECTIONS:]):
            # second central difference estimates E'' = 2c for E = B + c s^2
            fitted = (e_plus - 2 * e_zero + e_minus) / (2 * FD_STEP**2)
            analytic = float(np.real(np.conj(y) @ blocks.single_particle @ y))
            rounding = 8 * float(np.finfo(float).eps) * max(map(abs, (e_plus, e_zero, e_minus)))
            floor = 20 * max(truncation, rounding / FD_STEP**2, np.finfo(float).smallest_subnormal)
            errs.append(abs(fitted - analytic) / max(abs(analytic), floor))
        # y* D y < 0 for some y: a displacement lowers the energy, a saddle
        saddle = result.spectrum[0] < -1e-8 * float(np.max(np.abs(result.spectrum)))
        quad_errors = tuple(errs)
        quad_passed = all(e <= 0.05 for e in errs) and not saddle

    base_spec = result.spectrum
    compiled = CompiledPolynomial.of(h)
    deltas = {"energy": [], "linear_norm": [], "pairing_norm": [], "spectrum": []}
    for _ in range(GAUGE_SWEEPS):
        gauge = random_number_conserving(h.n_modes, h.stats, rng)
        sweep = result_at(compiled, compose(u_map, gauge))
        deltas["energy"].append(abs(sweep.energy - result.energy))
        deltas["linear_norm"].append(abs(sweep.blocks.linear_norm - blocks.linear_norm))
        deltas["pairing_norm"].append(abs(sweep.blocks.pairing_norm - blocks.pairing_norm))
        deltas["spectrum"].append(float(np.max(np.abs(sweep.spectrum - base_spec))))
    scale = max(h.scale, abs(result.energy), float(np.max(np.abs(base_spec))))
    gauge_passed = all(d <= GAUGE_RTOL * scale for vals in deltas.values() for d in vals)
    numbers = [e_zero, ground, *fd_devs, *fd_tols, *(quad_errors or ()),
               *(d for vals in deltas.values() for d in vals)]
    if not all(map(math.isfinite, numbers)):
        raise QuasivacError("the certification's numbers overflow the float range")

    return CertificationReport(
        fd_deviations=tuple(fd_devs),
        fd_tolerances=tuple(fd_tols),
        fd_passed=fd_passed,
        quadratic_rel_errors=quad_errors,
        quadratic_passed=quad_passed,
        gauge_deltas={k: tuple(v) for k, v in deltas.items()},
        gauge_passed=gauge_passed,
        oracle_cutoff=basis.cutoffs[0],
        expectation=e_zero,
        tail_defect=float(defects[0]),
        ground_energy=ground,
    )

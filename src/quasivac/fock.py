"""Brute-force verifier on dense truncated Fock spaces.

Occupation tuples are enumerated with mode 1 varying fastest, so a state's
row is its occupations dotted with the per-mode strides.  ``quantize`` is the
one route from operators to matrices: it applies each monomial to every
basis column at once, right to left, multiplying in sqrt(m) factors (Bose)
or Jordan-Wigner signs (Fermi), and drops a column when a mode empties or
passes its cutoff.  The ladder matrices are quantized once per basis and
cached on it; Gaussian vectors are built from them by the literal
exponential series.  Matrices stay dense: the module checks the polynomial
engine and the optimizer at small mode counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.sparse.linalg import expm_multiply

from .bogoliubov import (
    DEGENERACY_RTOL,
    BogoliubovMap,
    Generator,
    ThoulessChart,
    chart_from_map,
    compose,
    generator_polynomial,
    reflection,
)
from .errors import (
    DegeneracyError,
    DimensionCapError,
    StatisticsMismatchError,
    TailToleranceError,
)
from .wick import Statistics, WickPolynomial

#: Default per-mode occupation cutoff for bosonic truncations.
DEFAULT_CUTOFF = 10

#: Default cap on the truncated Fock dimension.
DEFAULT_DIMENSION_CAP = 4096

#: Gaussian vectors must reach an estimated series tail below this.
DEFAULT_TAIL_TOL = 1e-10


@dataclass(frozen=True)
class FockBasis:
    """Occupation-number basis with mode-1-fastest enumeration."""

    stats: Statistics
    n_modes: int
    cutoffs: tuple[int, ...]
    occupations: np.ndarray
    index: dict

    @classmethod
    def build(
        cls,
        stats: Statistics,
        n_modes: int,
        cutoff: int | tuple[int, ...] = DEFAULT_CUTOFF,
        dimension_cap: int = DEFAULT_DIMENSION_CAP,
    ) -> "FockBasis":
        if stats is Statistics.FERMI:
            cutoffs = (1,) * n_modes
        elif isinstance(cutoff, int):
            cutoffs = (cutoff,) * n_modes
        else:
            cutoffs = tuple(int(c) for c in cutoff)
            if len(cutoffs) != n_modes:
                raise StatisticsMismatchError("need one cutoff per mode")
        dim = 1
        for c in cutoffs:
            dim *= c + 1
        if dim > dimension_cap:
            raise DimensionCapError(
                f"dimension {dim} exceeds the cap {dimension_cap}"
            )
        occs = np.zeros((dim, n_modes), dtype=np.int64)
        k = np.arange(dim)
        stride = 1
        for i, c in enumerate(cutoffs):
            occs[:, i] = (k // stride) % (c + 1)
            stride *= c + 1
        occs.setflags(write=False)
        index = {tuple(int(x) for x in row): pos for pos, row in enumerate(occs)}
        return cls(stats, n_modes, cutoffs, occs, index)

    @property
    def dimension(self) -> int:
        return self.occupations.shape[0]

    @cached_property
    def ladders(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per-mode (annihilation, creation) matrices, read-only."""
        pairs = []
        for i in range(1, self.n_modes + 1):
            unit = WickPolynomial.from_terms(self.n_modes, self.stats, [((), (i,), 1.0)])
            ann = quantize(unit, self)
            cre = ann.conj().T
            ann.setflags(write=False)
            cre.setflags(write=False)
            pairs.append((ann, cre))
        return pairs


@dataclass(frozen=True)
class FockVector:
    """Normalized dense state vector plus a truncation diagnostic."""

    basis: FockBasis
    amplitudes: np.ndarray
    norm_defect: float = 0.0

    def __post_init__(self):
        amp = np.array(self.amplitudes, dtype=complex)
        if amp.shape != (self.basis.dimension,):
            raise StatisticsMismatchError("amplitude vector does not match the basis")
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)


def vacuum_vector(basis: FockBasis) -> FockVector:
    amp = np.zeros(basis.dimension, complex)
    amp[basis.index[(0,) * basis.n_modes]] = 1.0
    return FockVector(basis, amp)


def quantize(poly: WickPolynomial, basis: FockBasis) -> np.ndarray:
    """Dense matrix of the polynomial on the truncated space."""
    if poly.stats is not basis.stats or poly.n_modes != basis.n_modes:
        raise StatisticsMismatchError("polynomial and basis disagree")
    dim = basis.dimension
    out = np.zeros((dim, dim), dtype=complex)
    fermi = basis.stats is Statistics.FERMI
    # row offset of one quantum in each mode
    strides = np.cumprod((1,) + tuple(c + 1 for c in basis.cutoffs))[:-1]
    for (cr, an), coeff in poly.items():
        cols, occ, fac = np.arange(dim), basis.occupations, np.ones(dim)
        # right to left: the annihilators act first
        ops = [(i, -1) for i in reversed(an)] + [(i, 1) for i in reversed(cr)]
        for i, step in ops:
            m = occ[:, i - 1]
            live = m > 0 if step < 0 else m < basis.cutoffs[i - 1]
            # fancy indexing copies, so the basis's occupations stay intact
            cols, occ, fac = cols[live], occ[live], fac[live]
            if fermi:
                fac *= 1.0 - 2.0 * (occ[:, : i - 1].sum(axis=1) % 2)
            else:
                fac *= np.sqrt(occ[:, i - 1] + (step > 0))
            occ[:, i - 1] += step
        out[occ @ strides, cols] += coeff * fac
    return out


def build_ladders(basis: FockBasis) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-mode (annihilation, creation) pairs, cached on the basis."""
    return basis.ladders


def _linear_matrix(basis: FockBasis, x: np.ndarray) -> np.ndarray:
    """Matrix of sum_i x_i a*_i + conj(x_i) a_i."""
    out = np.zeros((basis.dimension, basis.dimension), dtype=complex)
    for (ann, cre), xi in zip(basis.ladders, x):
        out += xi * cre
        out += np.conj(xi) * ann
    return out


def expectation(vec: FockVector, matrix: np.ndarray) -> complex:
    if matrix.shape != (vec.basis.dimension, vec.basis.dimension):
        raise StatisticsMismatchError("matrix does not match the vector dimension")
    return complex(np.vdot(vec.amplitudes, matrix @ vec.amplitudes))


def ground_energy(poly: WickPolynomial, basis: FockBasis) -> float:
    """Smallest eigenvalue of the quantized (Hermitian) polynomial."""
    return float(np.linalg.eigvalsh(quantize(poly, basis))[0])


def estimate_series_tail(chart: ThoulessChart, basis: FockBasis) -> float:
    """Geometric tail estimate for the truncated pair-exponential series."""
    if chart.stats is Statistics.FERMI:
        return 0.0
    r = float(np.linalg.norm(chart.z, 2)) if chart.n_modes else 0.0
    if r == 0.0:
        return 0.0
    if r >= 1.0:
        return float("inf")
    pairs = min(basis.cutoffs) // 2
    return r ** (2 * (pairs + 1)) / (1.0 - r * r)


def gaussian_vector(
    chart: ThoulessChart, basis: FockBasis, tail_tol: float = DEFAULT_TAIL_TOL
) -> FockVector:
    """Normalized vector of the charted Gaussian state.

    Builds the pair-exponential series termwise, applies the determinant
    normalization, then the displacement (Bose) as a matrix exponential.
    The deviation of the constructed norm from 1 is kept as a diagnostic
    before the final exact normalization.
    """
    if chart.stats is not basis.stats or chart.n_modes != basis.n_modes:
        raise StatisticsMismatchError("chart and basis disagree")
    est = estimate_series_tail(chart, basis)
    if est >= tail_tol:
        raise TailToleranceError(
            f"estimated series tail {est:.3e} exceeds {tail_tol:.1e} at cutoffs "
            f"{basis.cutoffs}; raise the cutoff"
        )
    n = basis.n_modes
    ladders = basis.ladders
    pair_entries = [
        (i, j, chart.z[i, j])
        for i in range(n)
        for j in range(n)
        if chart.z[i, j] != 0
    ]

    def apply_pair(vec: np.ndarray) -> np.ndarray:
        out = np.zeros_like(vec)
        for i, j, zij in pair_entries:
            out += 0.5 * zij * (ladders[i][1] @ (ladders[j][1] @ vec))
        return out

    term = vacuum_vector(basis).amplitudes.copy()
    total = term.copy()
    max_pairs = sum(basis.cutoffs) // 2 + 1
    for k in range(1, max_pairs + 1):
        term = apply_pair(term) / k
        tnorm = np.linalg.norm(term)
        if tnorm == 0.0:
            break
        total += term
        if tnorm < 1e-17:
            break

    zdz = chart.z.conj().T @ chart.z
    if chart.stats is Statistics.BOSE:
        _, logdet = np.linalg.slogdet(np.eye(n) - zdz)
        norm_factor = math.exp(0.25 * logdet)
    else:
        _, logdet = np.linalg.slogdet(np.eye(n) + zdz)
        norm_factor = math.exp(-0.25 * logdet)
    total = norm_factor * total

    if chart.stats is Statistics.BOSE and np.any(chart.shift != 0):
        disp = _linear_matrix(basis, chart.shift)
        disp *= 1j  # in place: one dense matrix fewer at the memory peak
        total = expm_multiply(disp, total)

    norm = float(np.linalg.norm(total))
    defect = abs(norm - 1.0)
    return FockVector(basis, total / norm, norm_defect=defect)


def exp_generator(g: Generator, basis: FockBasis, vec: FockVector) -> FockVector:
    """Apply the exponential of the quantized generator to a vector."""
    if g.stats is not basis.stats or g.n_modes != basis.n_modes:
        raise StatisticsMismatchError("generator and basis disagree")
    gmat = quantize(generator_polynomial(g), basis)
    out = expm_multiply(1j * gmat, vec.amplitudes)
    norm = float(np.linalg.norm(out))
    return FockVector(basis, out / norm, norm_defect=abs(norm - 1.0))


def state_of_map(
    m: BogoliubovMap, basis: FockBasis, tail_tol: float = DEFAULT_TAIL_TOL
) -> FockVector:
    """Vector of the Gaussian state reached by applying the map to the vacuum.

    Bosonic maps go through the chart directly.  Fermionic maps that have no
    vacuum overlap (odd parity, or occupied Slater directions) are factored
    through unit-vector reflections until the remaining even part is
    nondegenerate; the reflections are then applied as dense unitaries.
    """
    if m.stats is Statistics.BOSE:
        return gaussian_vector(chart_from_map(m), basis, tail_tol)
    work = m
    applied: list[np.ndarray] = []
    for _ in range(m.n_modes + 1):
        try:
            chart = chart_from_map(work)
            break
        except DegeneracyError:
            work, direction = _peel_reflection(work)
            applied.append(direction)
    else:
        raise DegeneracyError("could not factor the map through reflections")
    vec = gaussian_vector(chart, basis, tail_tol)
    amp = vec.amplitudes
    for direction in reversed(applied):
        amp = _linear_matrix(basis, direction) @ amp
    return FockVector(basis, amp / np.linalg.norm(amp), norm_defect=vec.norm_defect)


def _numerical_rank(mat: np.ndarray) -> tuple[int, float]:
    svals = np.linalg.svd(mat, compute_uv=False)
    if svals.size == 0 or svals[0] == 0.0:
        return 0, 0.0
    return int(np.sum(svals > DEGENERACY_RTOL * svals[0])), float(svals[-1])


def _peel_reflection(work: BogoliubovMap) -> tuple[BogoliubovMap, np.ndarray]:
    """Pick the coordinate reflection that best regularizes the u block.

    Progress is measured by the numerical rank of u, which grows by one per
    reflection through an occupied direction.
    """
    n = work.n_modes
    base_rank, _ = _numerical_rank(work.u)
    best = None
    for k in range(n):
        direction = np.zeros(n, complex)
        direction[k] = 1.0
        candidate = compose(reflection(direction), work)
        score = _numerical_rank(candidate.u)
        if best is None or score > best[0]:
            best = (score, candidate, direction)
    assert best is not None
    (rank, _), candidate, direction = best
    if rank <= base_rank:
        raise DegeneracyError("reflections do not regularize the map")
    return candidate, direction

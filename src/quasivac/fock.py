"""Brute-force verifier on dense truncated Fock spaces.

Occupation tuples are enumerated with mode 1 varying fastest, so a state's
row is its occupations dotted with the per-mode strides.  ``quantize`` is the
one route from operators to matrices: it applies each monomial to every
basis column at once, right to left, multiplying in sqrt(m) factors (Bose)
or Jordan-Wigner signs (Fermi), and drops a column when a mode empties or
passes its cutoff.  State vectors never meet a ladder matrix: each basis
caches one index map per mode (source rows, target rows, factors) by the
same rules, and a creator or annihilator acts on a vector by one scatter.
A Gaussian vector, displaced or not, is the one series of
exp(1/2 a*.z.a* + beta.a*)|0>; truncated creators acting on the vacuum never
come back from past the cutoff, so it is the exact projection of the state
onto the box.  Operator matrices stay dense: the module checks the
polynomial engine and the optimizer at small mode counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bogoliubov import (
    DEGENERACY_RTOL,
    BogoliubovMap,
    ThoulessChart,
    chart_from_map,
    compose,
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
    #: row offset of one quantum in each mode: a state's row is occupations @ strides
    strides: np.ndarray

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
        strides = np.cumprod((1,) + tuple(c + 1 for c in cutoffs))[:-1]
        occs = (np.arange(dim)[:, None] // strides) % (np.array(cutoffs, dtype=np.int64) + 1)
        occs.setflags(write=False)
        strides.setflags(write=False)
        return cls(stats, n_modes, cutoffs, occs, strides)

    @property
    def dimension(self) -> int:
        return self.occupations.shape[0]

    @cached_property
    def raising(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Per-mode (source rows, target rows, factors) of a*_i, read-only.

        a*_i sends row src to row src + strides[i] times sqrt(m_i + 1)
        (Bose) or the Jordan-Wigner sign of the modes before i (Fermi), the
        rules of ``quantize``; a_i is the same map read backwards.
        """
        maps = []
        for i, cutoff in enumerate(self.cutoffs):
            occ = self.occupations[:, i]
            src = np.flatnonzero(occ < cutoff)
            if self.stats is Statistics.FERMI:
                fac = 1.0 - 2.0 * (self.occupations[src, :i].sum(axis=1) % 2)
            else:
                fac = np.sqrt(occ[src] + 1.0)
            dst = src + self.strides[i]
            for arr in (src, dst, fac):
                arr.setflags(write=False)
            maps.append((src, dst, fac))
        return maps


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
    amp[0] = 1.0  # all occupations zero
    return FockVector(basis, amp)


def quantize(poly: WickPolynomial, basis: FockBasis) -> np.ndarray:
    """Dense matrix of the polynomial on the truncated space."""
    if poly.stats is not basis.stats or poly.n_modes != basis.n_modes:
        raise StatisticsMismatchError("polynomial and basis disagree")
    dim = basis.dimension
    out = np.zeros((dim, dim), dtype=complex)
    fermi = basis.stats is Statistics.FERMI
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
        out[occ @ basis.strides, cols] += coeff * fac
    return out


def _apply_linear(basis: FockBasis, x: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """(sum_i x_i a*_i + conj(x_i) a_i) vec."""
    out = np.zeros_like(vec)
    for (src, dst, fac), xi in zip(basis.raising, x):
        out[dst] += xi * fac * vec[src]
        out[src] += np.conj(xi) * fac * vec[dst]
    return out


def expectation(vec: FockVector, matrix: np.ndarray) -> complex:
    if matrix.shape != (vec.basis.dimension, vec.basis.dimension):
        raise StatisticsMismatchError("matrix does not match the vector dimension")
    return complex(np.vdot(vec.amplitudes, matrix @ vec.amplitudes))


def ground_energy(poly: WickPolynomial, basis: FockBasis) -> float:
    """Smallest eigenvalue of the quantized (Hermitian) polynomial."""
    return float(np.linalg.eigvalsh(quantize(poly, basis))[0])


def series_tail(radius: float, cutoff: int) -> float:
    """Geometric tail estimate of the bosonic pair-exponential series.

    ``radius`` is the spectral norm of the pair amplitude z, ``cutoff`` the
    smallest per-mode occupation cutoff; the series diverges at radius 1.
    """
    if radius >= 1.0:
        return float("inf")
    return radius ** (2 * (cutoff // 2 + 1)) / (1.0 - radius * radius)


def gaussian_vector(
    chart: ThoulessChart, basis: FockBasis, tail_tol: float = DEFAULT_TAIL_TOL
) -> FockVector:
    """Normalized vector of the charted Gaussian state.

    The state is c exp(1/2 a*.z.a* + beta.a*)|0>, with alpha = i shift,
    beta = alpha - z conj(alpha) and c the determinant normalization times
    exp(-|alpha|^2/2 + 1/2 conj(alpha).z.conj(alpha)) (a displaced squeezed
    state; Ma & Rhodes, Phys. Rev. A 41, 4625 (1990)).  The series is summed
    term by term, and what it builds is the exact projection of the state
    onto the box.  ``norm_defect`` is 1 minus the norm of that projection,
    1 - sqrt(p) when the box holds probability p of the state, kept as a
    diagnostic before the final normalization.
    """
    if chart.stats is not basis.stats or chart.n_modes != basis.n_modes:
        raise StatisticsMismatchError("chart and basis disagree")
    est = 0.0
    if chart.stats is Statistics.BOSE:
        est = series_tail(float(np.linalg.norm(chart.z, 2)), min(basis.cutoffs))
    if est >= tail_tol:
        raise TailToleranceError(
            f"estimated series tail {est:.3e} exceeds {tail_tol:.1e} at cutoffs "
            f"{basis.cutoffs}; raise the cutoff"
        )
    n = basis.n_modes
    half_z = 0.5 * chart.z
    alpha = 1j * chart.shift
    beta = alpha - chart.z @ alpha.conj()

    def apply_exponent(vec: np.ndarray) -> np.ndarray:
        """(1/2 a*.z.a* + beta.a*) vec, with 2n ladder steps."""
        raised = np.zeros((n, vec.size), dtype=complex)
        for row, (src, dst, fac) in zip(raised, basis.raising):
            row[dst] = fac * vec[src]
        mixed = half_z @ raised + beta[:, None] * vec
        out = np.zeros_like(vec)
        for (src, dst, fac), row in zip(basis.raising, mixed):
            out[dst] += fac * row[src]
        return out

    # order k fills occupation sectors k..2k, so the box ends the series
    term = vacuum_vector(basis).amplitudes.copy()
    total = term.copy()
    for k in range(1, sum(basis.cutoffs) + 1):
        term = apply_exponent(term) / k
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
    # -|alpha|^2/2 + conj(alpha).z.conj(alpha)/2 = -conj(alpha).beta/2
    total = (norm_factor * np.exp(-0.5 * alpha.conj() @ beta)) * total

    norm = float(np.linalg.norm(total))
    defect = abs(norm - 1.0)
    return FockVector(basis, total / norm, norm_defect=defect)


def state_of_map(
    m: BogoliubovMap, basis: FockBasis, tail_tol: float = DEFAULT_TAIL_TOL
) -> FockVector:
    """Vector of the Gaussian state reached by applying the map to the vacuum.

    Bosonic maps go through the chart directly.  Fermionic maps that have no
    vacuum overlap (odd parity, or occupied Slater directions) are factored
    through unit-vector reflections until the remaining even part is
    nondegenerate; the reflections are then applied through the basis's
    ladder maps.
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
        amp = _apply_linear(basis, direction, amp)
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

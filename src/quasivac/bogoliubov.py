"""Bogoliubov transformations and pair-amplitude charts.

A map carries matrices (u, v), an affine shift (bosonic only) and a parity
flag (fermionic only), and acts on ladder operators as

    b_i = sum_j u_ij a_j + sum_j v_ij a*_j + shift_i ,

together with the conjugate relation for b*_i.  Valid bosonic maps preserve
the canonical commutators, which at matrix level reads

    u u^dag - v v^dag = 1,   u v^T = v u^T ,

and valid fermionic maps preserve the anticommutators,

    u u^dag + v v^dag = 1,   u v^T = -v u^T .

Charts: an even (nondegenerate, in the fermionic case) Gaussian state is
written as  normalization * displacement(shift) * exp(1/2 z_ij a*_i a*_j) vac
with z symmetric of norm < 1 (Bose) or antisymmetric (Fermi).

Generators: the pair (pair, shift) labels the unitary

    exp(i (X + Y)),  X = 1/2 sum_ij pair_ij a*_i a*_j + h.c.,
                     Y = sum_i shift_i a*_i + h.c.

The half-sum in X makes the chart matrix of the generated state exactly
z = i tanh(s)/s pair  (Bose) or  i tan(s)/s pair  (Fermi) with s the
singular-value argument sqrt(pair pair^dag); the tests compare that closed
form with ``chart_from_map(from_generator(g))``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg._matfuncs_expm import pade_UV_calc, pick_pade_structure

from .errors import (
    ChartDomainError,
    DegeneracyError,
    InvalidGeneratorError,
    InvalidMapError,
    StatisticsMismatchError,
)
from .wick import Statistics

#: Relative singular-value threshold below which a fermionic state counts as
#: having no vacuum overlap (the chart blows up there).
DEGENERACY_RTOL = 1e-10


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=complex)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, slots=True)
class BogoliubovMap:
    stats: Statistics
    u: np.ndarray
    v: np.ndarray
    shift: np.ndarray
    odd: bool = False

    def __post_init__(self):
        u = _readonly(self.u)
        v = _readonly(self.v)
        shift = _readonly(self.shift)
        n = u.shape[0]
        if u.shape != (n, n) or v.shape != (n, n) or shift.shape != (n,):
            raise InvalidMapError("u, v must be square and shift a matching vector")
        if self.stats is Statistics.FERMI and np.any(shift != 0):
            raise InvalidMapError("fermionic maps carry no affine shift")
        if self.stats is Statistics.BOSE and self.odd:
            raise InvalidMapError("bosonic maps have no odd parity sector")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "shift", shift)

    @property
    def n_modes(self) -> int:
        return self.u.shape[0]


def _adopt(stats: Statistics, u: np.ndarray, v: np.ndarray, shift: np.ndarray,
           odd: bool = False) -> BogoliubovMap:
    """Map on fresh complex arrays computed from valid maps: no checks, no copies."""
    for a in (u, v, shift):
        a.setflags(write=False)
    m = object.__new__(BogoliubovMap)
    for name, value in zip(("stats", "u", "v", "shift", "odd"), (stats, u, v, shift, odd)):
        object.__setattr__(m, name, value)
    return m


def identity(n: int, stats: Statistics) -> BogoliubovMap:
    return BogoliubovMap(stats, np.eye(n, dtype=complex), np.zeros((n, n), complex),
                         np.zeros(n, complex))


def compose_arrays(m1: tuple, m2: tuple) -> tuple:
    """(u, v, shift) of ``compose`` of two maps' (u, v, shift) arrays."""
    (u1, v1, s1), (u2, v2, s2) = m1, m2
    u, v = u2 @ u1 + v2 @ np.conj(v1), u2 @ v1 + v2 @ np.conj(u1)
    if np.count_nonzero(s1) or np.count_nonzero(s2):
        return u, v, u2 @ s1 + v2 @ np.conj(s1) + s2
    return u, v, np.zeros(len(s1), complex)


def compose(m1: BogoliubovMap, m2: BogoliubovMap) -> BogoliubovMap:
    """Map whose conjugation action applies m2 first, then m1."""
    if m1.stats is not m2.stats or m1.n_modes != m2.n_modes:
        raise StatisticsMismatchError("maps differ in statistics or mode count")
    arrays = compose_arrays((m1.u, m1.v, m1.shift), (m2.u, m2.v, m2.shift))
    return _adopt(m1.stats, *arrays, m1.odd ^ m2.odd)


def inverse_arrays(stats: Statistics, m: tuple) -> tuple:
    """(u, v, shift) of ``inverse``, by the adjoint closed form (no matrix inversion)."""
    u, v, shift = m
    inv_u = u.conj().T
    inv_v = -stats.sign * v.T
    if np.count_nonzero(shift):
        return inv_u, inv_v, -(inv_u @ shift + inv_v @ np.conj(shift))
    return inv_u, inv_v, np.zeros(len(shift), complex)


def inverse(m: BogoliubovMap) -> BogoliubovMap:
    """Group inverse of a map."""
    return _adopt(m.stats, *inverse_arrays(m.stats, (m.u, m.v, m.shift)), m.odd)


def relative_overlap(inv1: BogoliubovMap, m: tuple, odd: bool) -> float:
    """Squared overlap |<Phi_1|Phi_m>|^2 of the states of a map m1, given as
    its inverse inv1, and of the map m of (u, v, shift) arrays and parity
    odd: the vacuum overlap of their relative map w = compose(inv1, m).

    Onishi's formula (Onishi & Yoshida, Nucl. Phys. 80, 367 (1966)): |det w.u|
    for fermions (0 for an odd w) and 1/|det w.u| for bosons, times
    exp(-|beta|^2 + Re(beta^dag z conj(beta))) for a state of w displaced by
    beta = <a>, with z = -w.u^-1 w.v its chart matrix.  Undisplaced, only
    w.u is formed.
    """
    u, v, shift = m
    if inv1.stats is Statistics.BOSE and (np.count_nonzero(shift) or np.count_nonzero(inv1.shift)):
        w = compose_arrays((inv1.u, inv1.v, inv1.shift), m)
        beta = np.conj(inverse_arrays(Statistics.BOSE, w)[2])
        z = -np.linalg.solve(w[0], w[1])
        factor = math.exp(float(np.real(beta @ z @ beta)) - float(np.vdot(beta, beta).real))
        return 1.0 / float(abs(np.linalg.det(w[0]))) * factor
    det = 0.0 if odd ^ inv1.odd else float(abs(np.linalg.det(u @ inv1.u + v @ np.conj(inv1.v))))
    return det if inv1.stats is Statistics.FERMI else 1.0 / det


def number_conserving(p: np.ndarray, stats: Statistics) -> BogoliubovMap:
    """Gauge map mixing only like operators; p must be unitary."""
    p = np.asarray(p, dtype=complex)
    n = p.shape[0]
    if np.linalg.norm(p @ p.conj().T - np.eye(n)) > 1e-10:
        raise InvalidMapError("number-conserving maps require a unitary matrix")
    return BogoliubovMap(stats, p, np.zeros((n, n), complex), np.zeros(n, complex))


def reflection(direction: np.ndarray) -> BogoliubovMap:
    """Odd fermionic map implemented by the unitary  y_i a*_i + conj(y_i) a_i.

    Conjugation by that unitary sends a_k to  (y y^dag - 1) a + (y y^T) a*,
    which is what this returns; ``direction`` must be a unit vector.
    """
    y = np.asarray(direction, dtype=complex)
    if abs(np.linalg.norm(y) - 1.0) > 1e-12:
        raise InvalidMapError("reflection direction must have unit norm")
    n = y.shape[0]
    u = np.outer(y, np.conj(y)) - np.eye(n)
    v = np.outer(y, y)
    return BogoliubovMap(Statistics.FERMI, u, v, np.zeros(n, complex), odd=True)


@dataclass(frozen=True)
class Generator:
    """Quadratic-plus-linear Hermitian generator data (see module docstring)."""

    stats: Statistics
    pair: np.ndarray
    shift: np.ndarray

    def __post_init__(self):
        pair = _readonly(self.pair)
        shift = _readonly(self.shift)
        n = pair.shape[0]
        if pair.shape != (n, n) or shift.shape != (n,):
            raise InvalidGeneratorError("pair must be square and shift a matching vector")
        scale = max(1.0, float(np.max(np.abs(pair))) if pair.size else 0.0)
        if self.stats is Statistics.BOSE:
            if np.max(np.abs(pair - pair.T)) > 1e-12 * scale:
                raise InvalidGeneratorError("bosonic pair matrix must be symmetric")
        else:
            if np.max(np.abs(pair + pair.T)) > 1e-12 * scale:
                raise InvalidGeneratorError("fermionic pair matrix must be antisymmetric")
            if np.any(shift != 0):
                raise InvalidGeneratorError("fermionic generators carry no linear part")
        object.__setattr__(self, "pair", pair)
        object.__setattr__(self, "shift", shift)

    @property
    def n_modes(self) -> int:
        return self.pair.shape[0]

    def scaled(self, factor: float) -> "Generator":
        return Generator(self.stats, factor * self.pair, factor * self.shift)

    @property
    def norm(self) -> float:
        return math.sqrt(
            float(np.linalg.norm(self.pair, "fro")) ** 2 + float(np.linalg.norm(self.shift)) ** 2
        )


def _pade_exponential(work: np.ndarray) -> np.ndarray:
    """exp(work[0]) by ``scipy.linalg.expm``'s generic branch, without its
    checks: the Padé kernels (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl.
    31, 970 (2009)) on its (5, k, k) scratch.  On a triangular matrix, which
    expm sends to a branch of its own, the values are expm's too; only zeros
    below the diagonal may read -0.0 where expm writes +0.0."""
    m, s = pick_pade_structure(work)
    info = pade_UV_calc(work, m) if m >= 0 else m
    if info:
        raise (MemoryError if m < 0 or info <= -11 else RuntimeError)(
            f"scipy's Padé kernels failed in expm (error code {info})")
    e = work[0]
    for _ in range(s):
        e = e @ e
    return e


def exponential_map(stats: Statistics, pair: np.ndarray, shift: np.ndarray) -> tuple:
    """(u, v, shift) of conjugation by the unitary of generator arrays (pair,
    shift): one matrix exponential (``_pade_exponential``) of the generator's
    action on the column (a, a*), with an affine column appended for the
    bosonic linear part."""
    n = pair.shape[0]
    shifted = stats is Statistics.BOSE and np.count_nonzero(shift) > 0
    work = np.zeros((5, 2 * n + shifted, 2 * n + shifted), dtype=complex)
    a = work[0]
    a[:n, n : 2 * n] = -1j * pair
    a[n : 2 * n, :n] = 1j * np.conj(pair)
    if shifted:
        a[:n, 2 * n] = -1j * shift
        a[n : 2 * n, 2 * n] = 1j * np.conj(shift)
    e = _pade_exponential(work)
    out_shift = e[:n, 2 * n] if shifted else np.zeros(n, complex)
    return e[:n, :n], e[:n, n : 2 * n], out_shift


def from_generator(g: Generator) -> BogoliubovMap:
    """Bogoliubov map of conjugation by the generated unitary."""
    return _adopt(g.stats, *exponential_map(g.stats, g.pair, g.shift))


@dataclass(frozen=True)
class ThoulessChart:
    """Pair-amplitude chart data (z, shift) of a Gaussian state."""

    stats: Statistics
    z: np.ndarray
    shift: np.ndarray

    def __post_init__(self):
        z = _readonly(self.z)
        shift = _readonly(self.shift)
        n = z.shape[0]
        if z.shape != (n, n) or shift.shape != (n,):
            raise ChartDomainError("z must be square and shift a matching vector")
        scale = max(1.0, float(np.max(np.abs(z))) if z.size else 0.0)
        if self.stats is Statistics.BOSE:
            if np.max(np.abs(z - z.T)) > 1e-10 * scale:
                raise ChartDomainError("bosonic chart matrix must be symmetric")
            if n and np.linalg.norm(z, 2) >= 1.0:
                raise ChartDomainError("bosonic chart requires spectral norm below 1")
        else:
            if np.max(np.abs(z + z.T)) > 1e-10 * scale:
                raise ChartDomainError("fermionic chart matrix must be antisymmetric")
            if np.any(shift != 0):
                raise ChartDomainError("fermionic charts carry no displacement")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "shift", shift)

    @property
    def n_modes(self) -> int:
        return self.z.shape[0]


def chart_from_map(m: BogoliubovMap) -> ThoulessChart:
    """Chart of the state obtained by applying the map to the vacuum.

    Fermionic maps must be even and nondegenerate (u invertible within the
    rank tolerance); bosonic u blocks are always invertible.
    """
    n = m.n_modes
    if m.stats is Statistics.FERMI:
        if m.odd:
            raise DegeneracyError("odd maps have zero vacuum overlap, no chart exists")
        svals = np.linalg.svd(m.u, compute_uv=False)
        if n and svals[-1] < DEGENERACY_RTOL * max(svals[0], 1e-300):
            deficiency = int(np.sum(svals < DEGENERACY_RTOL * svals[0]))
            raise DegeneracyError(
                f"degenerate state: u block is rank deficient by {deficiency}"
            )
    z = -np.linalg.solve(m.u, m.v)
    shift = np.zeros(n, complex)
    if m.stats is Statistics.BOSE:
        shift = 1j * (m.u.conj().T @ m.shift - m.v.T @ np.conj(m.shift))
    return ThoulessChart(m.stats, (z + m.stats.sign * z.T) / 2, shift)


def random_generator(
    n: int,
    stats: Statistics,
    rng: np.random.Generator,
    pair_scale: float = 0.2,
    shift_scale: float = 0.0,
) -> Generator:
    """Random generator with the right symmetry; scales set the entry size."""
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    pair = pair_scale * ((raw + stats.sign * raw.T) / 2)
    shift = np.zeros(n, complex)
    if stats is Statistics.BOSE and shift_scale:
        shift = shift_scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return Generator(stats, pair, shift)


def random_number_conserving(
    n: int, stats: Statistics, rng: np.random.Generator
) -> BogoliubovMap:
    """Haar-ish random gauge map (unitary mixing of like operators)."""
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(raw)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return number_conserving(q, stats)

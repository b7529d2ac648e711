"""Canonical polynomials in creation/annihilation operators.

A polynomial is a keyed collection mapping a canonical term key, the pair
(creation index tuple, annihilation index tuple), to a complex coefficient.
The key ``((i1, ..., ik), (j1, ..., jm))`` stands for the normal-ordered
monomial ``a*_{i1} ... a*_{ik} a_{j1} ... a_{jm}`` with 1-based mode indices.

Canonical form: bosonic index tuples are sorted non-decreasing, fermionic
tuples strictly increasing.  Fermionic reordering signs are applied to the
coefficient at insertion time, and a repeated fermionic index kills the term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence, Tuple

import numpy as np

from .errors import DegreeCapError, IndexRangeError

#: Coefficients below this times the largest non-constant |coefficient| are
#: dropped at insertion, as are exact zeros.
PRUNE_THRESHOLD = 1e-14

#: Largest supported total degree; normal-ordering cost grows combinatorially.
DEGREE_CAP = 8

TermKey = Tuple[Tuple[int, ...], Tuple[int, ...]]


class Statistics(Enum):
    BOSE = "bose"
    FERMI = "fermi"

    @property
    def sign(self) -> int:
        """The exchange sign s of a_i a*_j = s a*_j a_i + delta_ij: +1 for
        bosons (CCR), -1 for fermions (CAR)."""
        return 1 if self is Statistics.BOSE else -1


class TermParity(Enum):
    EVEN = "even"
    ODD = "odd"
    MIXED = "mixed"


def _check_indices(indices: Sequence[int], n_modes: int | None) -> None:
    for i in indices:
        if not isinstance(i, (int, np.integer)) or i < 1:
            raise IndexRangeError(f"mode index {i!r} is not a positive integer")
        if n_modes is not None and i > n_modes:
            raise IndexRangeError(f"mode index {i} exceeds n_modes={n_modes}")


def _canonical_indices(stats: Statistics, indices: Sequence[int]) -> tuple[Tuple[int, ...], int]:
    """Sort one index list; returns (tuple, sign).  Sign 0 kills the term."""
    idx = [int(i) for i in indices]
    # Insertion sort, one exchange sign per transposition, keeps the sign exact.
    exchange, sign = stats.sign, 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign *= exchange
            j -= 1
    if stats is Statistics.FERMI and len(set(idx)) < len(idx):
        return tuple(idx), 0
    return tuple(idx), sign


def canonicalize_term(
    stats: Statistics,
    creation: Sequence[int],
    annihilation: Sequence[int],
    coeff: complex,
    n_modes: int | None = None,
) -> tuple[TermKey, complex]:
    """Bring one monomial to canonical key form.

    Returns the sorted key together with the coefficient multiplied by the
    fermionic permutation sign (bosonic coefficients pass through unchanged).
    A fermionic list with a repeated index returns coefficient zero.
    """
    _check_indices(creation, n_modes)
    _check_indices(annihilation, n_modes)
    cr, s1 = _canonical_indices(stats, creation)
    an, s2 = _canonical_indices(stats, annihilation)
    return (cr, an), complex(coeff) * (s1 * s2)


def _finalize(n_modes: int, stats: Statistics, accum: dict[TermKey, complex]) -> "WickPolynomial":
    terms: dict[TermKey, complex] = {}
    keys = sorted(accum)
    # The cut is relative to the largest non-constant |c| (the constant key
    # sorts first), so no scaling prunes a term its unscaled polynomial keeps,
    # and never below the least positive float, so exact zeros always go.
    rest = keys[1:] if keys and keys[0] == ((), ()) else keys
    cut = max(PRUNE_THRESHOLD * max(map(abs, map(accum.__getitem__, rest)), default=0.0),
              np.finfo(float).smallest_subnormal)
    for key in keys:
        c = accum[key]
        size = abs(c)
        if size < cut:
            continue
        # a NaN or infinite coefficient is never cut, so each one reaches here
        if not size < math.inf:
            raise ValueError(f"coefficient {c} of term {key} is not finite")
        if len(key[0]) + len(key[1]) > DEGREE_CAP:
            raise DegreeCapError(
                f"term of degree {len(key[0]) + len(key[1])} exceeds the cap {DEGREE_CAP}"
            )
        terms[key] = c
    poly = WickPolynomial.__new__(WickPolynomial)
    object.__setattr__(poly, "n_modes", n_modes)
    object.__setattr__(poly, "stats", stats)
    object.__setattr__(poly, "terms", MappingProxyType(terms))
    return poly


@dataclass(frozen=True)
class WickPolynomial:
    """Immutable normal-ordered polynomial in ladder operators."""

    n_modes: int
    stats: Statistics
    terms: Mapping[TermKey, complex]

    @classmethod
    def empty(cls, n_modes: int, stats: Statistics) -> "WickPolynomial":
        if n_modes < 1:
            raise IndexRangeError("n_modes must be positive")
        return _finalize(n_modes, stats, {})

    @classmethod
    def from_terms(
        cls,
        n_modes: int,
        stats: Statistics,
        entries: Iterable[tuple[Sequence[int], Sequence[int], complex]],
    ) -> "WickPolynomial":
        poly = cls.empty(n_modes, stats)
        accum: dict[TermKey, complex] = {}
        for creation, annihilation, coeff in entries:
            key, c = canonicalize_term(stats, creation, annihilation, coeff, n_modes)
            if c != 0:
                accum[key] = accum.get(key, 0j) + c
        return _finalize(n_modes, stats, accum)

    def add_term(
        self, creation: Sequence[int], annihilation: Sequence[int], coeff: complex
    ) -> "WickPolynomial":
        """Return a new polynomial with the monomial accumulated in."""
        key, c = canonicalize_term(self.stats, creation, annihilation, coeff, self.n_modes)
        accum = dict(self.terms)
        if c != 0:
            accum[key] = accum.get(key, 0j) + c
        return _finalize(self.n_modes, self.stats, accum)

    def coefficient(self, creation: Sequence[int], annihilation: Sequence[int]) -> complex:
        """Coefficient of the given monomial, including any reordering sign."""
        key, sign = canonicalize_term(self.stats, creation, annihilation, 1.0, self.n_modes)
        if sign == 0:
            return 0j
        return sign * self.terms.get(key, 0j)

    def items(self) -> Iterator[tuple[TermKey, complex]]:
        return iter(self.terms.items())

    def __len__(self) -> int:
        return len(self.terms)

    def degree(self) -> int:
        return max((len(k[0]) + len(k[1]) for k in self.terms), default=0)

    def parity(self) -> TermParity:
        """EVEN/ODD if every term has even/odd total degree, MIXED otherwise.

        The empty polynomial counts as even.
        """
        saw_even = saw_odd = False
        for (cr, an) in self.terms:
            if (len(cr) + len(an)) % 2 == 0:
                saw_even = True
            else:
                saw_odd = True
        if saw_odd and saw_even:
            return TermParity.MIXED
        if saw_odd:
            return TermParity.ODD
        return TermParity.EVEN

    def adjoint(self) -> "WickPolynomial":
        """Hermitian adjoint, with exact fermionic reordering signs."""
        accum: dict[TermKey, complex] = {}
        for (cr, an), c in self.terms.items():
            # (a*_{i1}..a*_{ik} a_{j1}..a_{jm})^† = a*_{jm}..a*_{j1} a_{ik}..a_{i1}
            key, cc = canonicalize_term(
                self.stats, tuple(reversed(an)), tuple(reversed(cr)), np.conj(c)
            )
            if cc != 0:
                accum[key] = accum.get(key, 0j) + cc
        return _finalize(self.n_modes, self.stats, accum)

    def is_hermitian(self, tol: float) -> bool:
        """True iff the polynomial equals its adjoint coefficientwise within
        tol; False on a non-finite difference."""
        if tol <= 0:
            raise ValueError("tol must be positive")
        for (cr, an), c in self.terms.items():
            # the adjoint maps keys one to one: its coefficient at this term's mirror
            key, mirror = canonicalize_term(self.stats, an[::-1], cr[::-1], np.conj(c))
            if not abs(self.terms.get(key, 0j) - mirror) <= tol:
                return False
        return True

    def scaled(self, factor: complex) -> "WickPolynomial":
        accum = {k: factor * c for k, c in self.terms.items()}
        return _finalize(self.n_modes, self.stats, accum)


@dataclass(frozen=True, slots=True)
class Blocks:
    """The degree <= 2 blocks of a normal-ordered polynomial,

        constant
        + sum_i conj(linear_i) b_i + linear_i b*_i
        + sum_ij pairing_ij b*_j b*_i + conj(pairing_ij) b_i b_j
        + sum_ij single_particle_ij b*_i b_j .

    ``pairing`` is symmetric (Bose) or antisymmetric (Fermi); its entries and
    the ``linear`` vector are the creation-side coefficients.
    ``single_particle`` is None where it was not evaluated.  The arrays are
    taken over, not copied, and made read-only in place.
    """

    stats: Statistics
    constant: complex
    linear: np.ndarray
    pairing: np.ndarray
    single_particle: np.ndarray | None

    def __post_init__(self):
        for name in ("linear", "pairing", "single_particle"):
            if getattr(self, name) is not None:
                arr = np.asarray(getattr(self, name), dtype=complex)
                arr.setflags(write=False)
                object.__setattr__(self, name, arr)

    @property
    def linear_norm(self) -> float:
        return float(np.linalg.norm(self.linear))

    @property
    def pairing_norm(self) -> float:
        return float(np.linalg.norm(self.pairing, "fro"))

    @property
    def residual(self) -> float:
        """Stationarity residual: 2-norm of linear plus Frobenius norm of pairing."""
        return self.linear_norm + self.pairing_norm


@dataclass(frozen=True, slots=True)
class TransformedBlocks(Blocks):
    """Every block of a normal-ordered polynomial: ``Blocks`` + ``remainder``.

    ``remainder`` holds the terms of total degree >= 3.  For input whose
    annihilation-side coefficients are not the conjugates of the creation
    side (non-Hermitian low-degree blocks) the mismatch is reported in
    ``linear_defect`` / ``pairing_defect``.
    """

    n_modes: int
    remainder: WickPolynomial
    linear_defect: float
    pairing_defect: float


def extract_blocks(poly: WickPolynomial) -> TransformedBlocks:
    """Split a polynomial into constant, linear, quadratic and remainder blocks."""
    n, sign = poly.n_modes, poly.stats.sign
    constant = poly.terms.get(((), ()), 0j)
    linear = np.zeros(n, dtype=complex)
    linear_low = np.zeros(n, dtype=complex)
    upper = np.zeros((n, n), dtype=complex)  # coefficient of a*_i a*_j, i <= j
    lower = np.zeros((n, n), dtype=complex)  # coefficient of a_i a_j, i <= j
    single = np.zeros((n, n), dtype=complex)
    remainder: dict[TermKey, complex] = {}
    for (cr, an), c in poly.terms.items():
        k, m = len(cr), len(an)
        if k + m == 0:
            continue
        if k + m >= 3:
            remainder[(cr, an)] = c
        elif (k, m) == (1, 0):
            linear[cr[0] - 1] = c
        elif (k, m) == (0, 1):
            linear_low[an[0] - 1] = c
        elif (k, m) == (2, 0):
            upper[cr[0] - 1, cr[1] - 1] = c
        elif (k, m) == (0, 2):
            lower[an[0] - 1, an[1] - 1] = c
        else:  # (1, 1)
            single[cr[0] - 1, an[0] - 1] = c

    # a*_i a*_j splits over both orders; a fermionic diagonal is empty
    pairing = (upper.T + sign * upper) / 2

    return TransformedBlocks(
        stats=poly.stats,
        n_modes=n,
        constant=constant,
        linear=linear,
        pairing=pairing,
        single_particle=single,
        remainder=_finalize(n, poly.stats, remainder),
        linear_defect=float(np.max(np.abs(linear_low - np.conj(linear)))),
        # the Hermitian conjugate of c a*_i a*_j is sign conj(c) a_i a_j
        pairing_defect=float(np.max(np.abs(lower - sign * np.conj(upper)))),
    )

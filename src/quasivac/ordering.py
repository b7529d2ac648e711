"""Normal ordering of ladder-operator products.

Rewrites products and linear substitutions into Wick order by bubbling the
inserted operator through a canonical monomial one adjacent swap at a time,
emitting a contraction term at every matching pair:

    a_i a*_j = s a*_j a_i + delta_ij,   s = +1 (Bose), -1 (Fermi)

Fermionic signs are accumulated as exact integer factors before any floating
multiplication, so antisymmetry cancellations are exact.

``CompiledPolynomial.vacuum_blocks`` evaluates vacuum expectations of
substituted products without ordering, as signed sums over precomputed
matching tables (Wick's theorem), batching all terms of one degree and all
probes together.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

from .errors import StatisticsMismatchError
from .wick import PRUNE_THRESHOLD, Statistics, TermKey, WickPolynomial, _finalize


class Side(Enum):
    LEFT = "left"
    RIGHT = "right"


@dataclass(frozen=True)
class LinearOperator:
    """Affine combination  sum_i creation_i b*_i + sum_i annihilation_i b_i + scalar."""

    creation: np.ndarray
    annihilation: np.ndarray
    scalar: complex = 0j

    def __post_init__(self):
        cr = np.asarray(self.creation, dtype=complex)
        an = np.asarray(self.annihilation, dtype=complex)
        if cr.ndim != 1 or an.ndim != 1 or cr.shape != an.shape:
            raise StatisticsMismatchError("creation/annihilation vectors must share one length")
        cr.setflags(write=False)
        an.setflags(write=False)
        object.__setattr__(self, "creation", cr)
        object.__setattr__(self, "annihilation", an)
        object.__setattr__(self, "scalar", complex(self.scalar))

    @property
    def n_modes(self) -> int:
        return self.creation.shape[0]

    @classmethod
    def unit_creation(cls, n: int, i: int) -> "LinearOperator":
        u = np.zeros(n, complex)
        u[i - 1] = 1.0
        return cls(u, np.zeros(n, complex))

    @classmethod
    def unit_annihilation(cls, n: int, i: int) -> "LinearOperator":
        v = np.zeros(n, complex)
        v[i - 1] = 1.0
        return cls(np.zeros(n, complex), v)

    def adjoint(self) -> "LinearOperator":
        return LinearOperator(
            np.conj(self.annihilation), np.conj(self.creation), np.conj(self.scalar)
        )


def _acc(out: dict, key: TermKey, val: complex) -> None:
    out[key] = out.get(key, 0j) + val


def _insert(stats: Statistics, tup: tuple, j: int, count: str) -> tuple | None:
    """Insert index j into a sorted tuple; returns (tuple, sign) or None.

    ``count`` selects which neighbours the operator is swapped past when it
    travels to its sorted slot: "greater" when appended from the right,
    "less" when prepended from the left.
    """
    if stats is Statistics.FERMI and j in tup:
        return None
    pos = 0
    while pos < len(tup) and tup[pos] <= j:
        pos += 1
    new = tup[:pos] + (j,) + tup[pos:]
    if stats is Statistics.BOSE:
        return new, 1
    passed = len(tup) - pos if count == "greater" else pos
    return new, (-1) ** passed


def _mul_right_creator(stats: Statistics, terms: dict, j: int) -> dict:
    """Normal order  terms * a*_j."""
    fermi = stats is Statistics.FERMI
    out: dict = {}
    for (cr, an), c in terms.items():
        sign = 1
        for t in range(len(an) - 1, -1, -1):
            if an[t] == j:
                _acc(out, (cr, an[:t] + an[t + 1:]), c * sign)
            if fermi:
                sign = -sign
        merged = _insert(stats, cr, j, "greater")
        if merged is not None:
            new_cr, msign = merged
            _acc(out, (new_cr, an), c * sign * msign)
    return out


def _mul_right_annihilator(stats: Statistics, terms: dict, j: int) -> dict:
    """Normal order  terms * a_j."""
    out: dict = {}
    for (cr, an), c in terms.items():
        merged = _insert(stats, an, j, "greater")
        if merged is not None:
            new_an, msign = merged
            _acc(out, (cr, new_an), c * msign)
    return out


def _mul_left_creator(stats: Statistics, terms: dict, j: int) -> dict:
    """Normal order  a*_j * terms."""
    out: dict = {}
    for (cr, an), c in terms.items():
        merged = _insert(stats, cr, j, "less")
        if merged is not None:
            new_cr, msign = merged
            _acc(out, (new_cr, an), c * msign)
    return out


def _mul_left_annihilator(stats: Statistics, terms: dict, j: int) -> dict:
    """Normal order  a_j * terms."""
    fermi = stats is Statistics.FERMI
    out: dict = {}
    for (cr, an), c in terms.items():
        sign = 1
        for t in range(len(cr)):
            if cr[t] == j:
                _acc(out, (cr[:t] + cr[t + 1:], an), c * sign)
            if fermi:
                sign = -sign
        merged = _insert(stats, an, j, "less")
        if merged is not None:
            new_an, msign = merged
            _acc(out, (cr, new_an), c * sign * msign)
    return out


def _mul_linear_dict(stats: Statistics, terms: dict, op: LinearOperator, side: Side) -> dict:
    out: dict = {}
    if op.scalar != 0:
        for key, c in terms.items():
            _acc(out, key, op.scalar * c)
    for j in range(1, op.n_modes + 1):
        u = op.creation[j - 1]
        if u != 0:
            part = (
                _mul_right_creator(stats, terms, j)
                if side is Side.RIGHT
                else _mul_left_creator(stats, terms, j)
            )
            for key, c in part.items():
                _acc(out, key, u * c)
        v = op.annihilation[j - 1]
        if v != 0:
            part = (
                _mul_right_annihilator(stats, terms, j)
                if side is Side.RIGHT
                else _mul_left_annihilator(stats, terms, j)
            )
            for key, c in part.items():
                _acc(out, key, v * c)
    # intermediate pruning keeps cancelled keys from riding along the chain
    return {key: c for key, c in out.items() if abs(c) >= PRUNE_THRESHOLD}


def multiply_linear(poly: WickPolynomial, op: LinearOperator, side: Side) -> WickPolynomial:
    """Normal-ordered product op * poly (LEFT) or poly * op (RIGHT)."""
    if op.n_modes != poly.n_modes:
        raise StatisticsMismatchError(
            f"operator has {op.n_modes} modes, polynomial has {poly.n_modes}"
        )
    out = _mul_linear_dict(poly.stats, dict(poly.terms), op, side)
    return _finalize(poly.n_modes, poly.stats, out)


def substitute_linear(
    poly: WickPolynomial,
    subst_creation: Sequence[LinearOperator],
    subst_annihilation: Sequence[LinearOperator],
) -> WickPolynomial:
    """Replace a*_i / a_i by the given affine combinations and normal order.

    The i-th creation operator is replaced by ``subst_creation[i-1]`` and the
    i-th annihilation operator by ``subst_annihilation[i-1]``; each monomial is
    expanded factor by factor in its stored order.
    """
    n = poly.n_modes
    if len(subst_creation) != n or len(subst_annihilation) != n:
        raise StatisticsMismatchError("substitution arrays must have length n_modes")
    for op in (*subst_creation, *subst_annihilation):
        if op.n_modes != n:
            raise StatisticsMismatchError("substitution operator has wrong mode count")
    stats = poly.stats
    result: dict = {}
    for (cr, an), c in poly.terms.items():
        acc: dict = {((), ()): c}
        for i in cr:
            acc = _mul_linear_dict(stats, acc, subst_creation[i - 1], Side.RIGHT)
        for i in an:
            acc = _mul_linear_dict(stats, acc, subst_annihilation[i - 1], Side.RIGHT)
        for key, val in acc.items():
            _acc(result, key, val)
    return _finalize(n, stats, result)


def vacuum_expectation(poly: WickPolynomial) -> complex:
    """Vacuum expectation of a normal-ordered polynomial: its constant term."""
    return poly.terms.get(((), ()), 0j)


def _matchings(positions: tuple, partial: bool):
    """Every perfect (or, if ``partial``, any) matching as (pairs, unmatched)."""
    if not positions:
        yield (), ()
        return
    first, rest = positions[0], positions[1:]
    if partial:
        for pairs, alone in _matchings(rest, partial):
            yield pairs, (first,) + alone
    for k, other in enumerate(rest):
        for pairs, alone in _matchings(rest[:k] + rest[k + 1:], partial):
            yield ((first, other),) + pairs, alone


@functools.cache
def _matching_table(probes: int, d: int, fermi: bool, partial: bool):
    """Wick expansion of  <p_0 .. p_{probes-1} O_0 .. O_{d-1}>  as arrays.

    The probes (positions -probes .. -1) are pure annihilators, so each
    contracts with a factor and none is left unmatched.  Matching e becomes
    row e of ``index``, pointing into the ``_pair_values`` vector (factor
    contractions, unmatched scalars, padding 1), and row e of ``scatter``: its
    sign, (-1)^crossings for fermions, in the column of the probes' partners
    (k, or k * d + l).
    """
    rows, targets, signs = [], [], []
    for pairs, alone in _matchings(tuple(range(-probes, d)), partial):
        if any(u < 0 for u in alone) or any(b < 0 for _, b in pairs):
            continue
        # pairs come sorted by first position, so the probes' pairs lead
        targets.append(sum(b * d ** (probes - 1 - p) for p, (_, b) in enumerate(pairs[:probes])))
        rows.append([a * d + b for a, b in pairs[probes:]] + [d * d + u for u in alone])
        crossings = sum(a < c < b < e for a, b in pairs for c, e in pairs)
        signs.append(-1.0 if fermi and crossings % 2 else 1.0)
    width = max([1] + [len(r) for r in rows])
    index = np.array([r + [d * d + d] * (width - len(r)) for r in rows], int).reshape(-1, width)
    scatter = np.zeros((len(rows), d**probes))
    scatter[np.arange(len(rows)), targets] = signs
    index.setflags(write=False)
    scatter.setflags(write=False)
    return index, scatter


def _pair_values(cre: np.ndarray, ann: np.ndarray, scalars: np.ndarray) -> np.ndarray:
    """Per product of d factors: contractions ann_k . cre_l, scalars, then 1."""
    t, d = scalars.shape
    contractions = np.matmul(ann, cre.transpose(0, 2, 1)).reshape(t, d * d)
    return np.concatenate([contractions, scalars, np.ones((t, 1))], axis=1)


def _matching_sums(values: np.ndarray, table) -> np.ndarray:
    """Signed sums over the table's matchings, per product and probe partners."""
    index, scatter = table
    weights = values[:, index[:, 0]]
    for column in index.T[1:]:
        weights = weights * values[:, column]
    return weights @ scatter


def product_vacuum_expectation(stats: Statistics, ops: Sequence[LinearOperator]) -> complex:
    """Vacuum expectation of an ordered product of affine ladder combinations.

    Evaluated as a sum over matchings (a loop hafnian for bosons, a Pfaffian
    with scalar loops for fermions): every pair contracts the annihilation
    part of an earlier factor with the creation part of a later one, with the
    fermionic crossing sign, and every unmatched factor contributes its
    scalar.  This is an independent route to the same number as normal
    ordering the product and reading off its constant term.
    """
    if not ops:
        return 1.0 + 0j
    if any(op.n_modes != ops[0].n_modes for op in ops):
        raise StatisticsMismatchError("operators must share one mode count")
    values = _pair_values(
        np.array([[op.creation for op in ops]]),
        np.array([[op.annihilation for op in ops]]),
        np.array([[op.scalar for op in ops]]),
    )
    table = _matching_table(0, len(ops), stats is Statistics.FERMI, True)
    return complex(_matching_sums(values, table)[0, 0])


class VacuumBlocks(NamedTuple):
    """Constant, linear and pairing blocks at one map, as ``TransformedBlocks``."""

    stats: Statistics
    constant: complex
    linear: np.ndarray
    pairing: np.ndarray


class CompiledPolynomial:
    """A polynomial's terms as index arrays, grouped by degree d.

    Each group is (rows (T, d), coefficients (T,)); a row lists a term's
    factors as rows of the stacked image table in ``vacuum_blocks``: a*_i at
    i - 1, a_i at n_modes + i - 1.  Built once, evaluated at many maps.
    """

    def __init__(self, poly: WickPolynomial):
        self.stats, self.n_modes = poly.stats, poly.n_modes
        by_degree: dict[int, tuple[list, list]] = {}
        for (cr, an), c in poly.items():
            rows, coeffs = by_degree.setdefault(len(cr) + len(an), ([], []))
            rows.append([i - 1 for i in cr] + [self.n_modes + i - 1 for i in an])
            coeffs.append(c)
        self.groups = [
            (np.array(rows, int).reshape(len(rows), d), np.array(coeffs, complex))
            for d, (rows, coeffs) in sorted(by_degree.items())
        ]

    def vacuum_blocks(self, inv, linear: bool, pairing: bool = True) -> VacuumBlocks:
        """Low-degree blocks after a_i -> sum_j u_ij b_j + v_ij b*_j + shift_i.

        ``inv`` carries (u, v, shift), as the inverse of a Bogoliubov map
        does.  The blocks are those of ``wick.extract_blocks`` on the
        rewritten polynomial: with <.> the b vacuum and O_t the rewritten
        product of term t,

            constant  = sum_t c_t <O_t>,
            linear[i] = sum_t c_t <b_i O_t>               (zero unless ``linear``),
            pairing   = (P +- P^T) / 4 with P[i, j] = sum_t c_t <b_j b_i O_t>
                        (- for fermions; zero unless ``pairing``),

        evaluating all terms of one degree, and all probes b, in one batch.
        """
        n = self.n_modes
        fermi = self.stats is Statistics.FERMI
        cre = np.concatenate([np.conj(inv.u), inv.v])
        ann = np.concatenate([np.conj(inv.v), inv.u])
        sca = np.concatenate([np.conj(inv.shift), inv.shift])
        constant = 0j
        lin = np.zeros(n, complex)
        pairs = np.zeros((n, n), complex)
        for rows, coeffs in self.groups:
            t, d = rows.shape
            c, scalars = cre[rows], sca[rows]
            values = _pair_values(c, ann[rows], scalars)
            partial = bool(np.any(scalars != 0))
            sums = _matching_sums(values, _matching_table(0, d, fermi, partial))
            constant += coeffs @ sums[:, 0]
            if linear:
                w = coeffs[:, None] * _matching_sums(values, _matching_table(1, d, fermi, partial))
                lin += w.reshape(-1) @ c.reshape(-1, n)
            if pairing:
                w = _matching_sums(values, _matching_table(2, d, fermi, partial)).reshape(t, d, d)
                # x[t, l, j] = sum_k w[t, k, l] c[t, k, j]: probe b_j meets factor k
                x = coeffs[:, None, None] * np.matmul(w.transpose(0, 2, 1), c)
                pairs += c.reshape(-1, n).T @ x.reshape(-1, n)
        # P counts the coefficient of b*_i b*_j once per order of the probes
        pairs = -0.25 * (pairs - pairs.T) if fermi else 0.25 * (pairs + pairs.T)
        return VacuumBlocks(self.stats, complex(constant), lin, pairs)

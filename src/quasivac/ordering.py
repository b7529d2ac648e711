"""Normal ordering of ladder-operator products.

Rewrites products and linear substitutions into Wick order by bubbling the
inserted operator through a canonical monomial one adjacent swap at a time,
emitting a contraction term at every matching pair:

    a_i a*_j = s a*_j a_i + delta_ij,   s = +1 (Bose), -1 (Fermi)

Fermionic signs are accumulated as exact integer factors before any floating
multiplication, so antisymmetry cancellations are exact.

``CompiledPolynomial`` evaluates vacuum expectations of substituted
products without ordering (Wick's theorem), through gather-product-scatter
plans compiled once with one row per (term, matching): a fixed number of
array operations per map gathers each row's contractions from the Gram
matrix of the substituted images, multiplies them and sums them into slots.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import StatisticsMismatchError
from .wick import PRUNE_THRESHOLD, Statistics, TermKey, WickPolynomial, _finalize


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

    def adjoint(self) -> "LinearOperator":
        return LinearOperator(
            np.conj(self.annihilation), np.conj(self.creation), np.conj(self.scalar)
        )


def _acc(out: dict, key: TermKey, val: complex) -> None:
    out[key] = out.get(key, 0j) + val


def _insert(stats: Statistics, tup: tuple, j: int) -> tuple | None:
    """Insert index j, appended on the right, into a sorted tuple.

    Returns (tuple, sign), the exchange sign to the number of greater
    indices j is swapped past, or None for a repeated fermionic index.
    """
    if stats is Statistics.FERMI and j in tup:
        return None
    pos = 0
    while pos < len(tup) and tup[pos] <= j:
        pos += 1
    return tup[:pos] + (j,) + tup[pos:], stats.sign ** (len(tup) - pos)


def _mul_right_creator(stats: Statistics, terms: dict, j: int) -> dict:
    """Normal order  terms * a*_j."""
    exchange, out = stats.sign, {}
    for (cr, an), c in terms.items():
        sign = 1
        for t in range(len(an) - 1, -1, -1):
            if an[t] == j:
                _acc(out, (cr, an[:t] + an[t + 1:]), c * sign)
            sign *= exchange
        merged = _insert(stats, cr, j)
        if merged is not None:
            new_cr, msign = merged
            _acc(out, (new_cr, an), c * sign * msign)
    return out


def _mul_right_annihilator(stats: Statistics, terms: dict, j: int) -> dict:
    """Normal order  terms * a_j."""
    out: dict = {}
    for (cr, an), c in terms.items():
        merged = _insert(stats, an, j)
        if merged is not None:
            new_an, msign = merged
            _acc(out, (cr, new_an), c * msign)
    return out


def _mul_linear_dict(stats: Statistics, terms: dict, op: LinearOperator) -> dict:
    """Normal order  terms * op."""
    out: dict = {}
    if op.scalar != 0:
        for key, c in terms.items():
            _acc(out, key, op.scalar * c)
    for j in range(1, op.n_modes + 1):
        u = op.creation[j - 1]
        if u != 0:
            for key, c in _mul_right_creator(stats, terms, j).items():
                _acc(out, key, u * c)
        v = op.annihilation[j - 1]
        if v != 0:
            for key, c in _mul_right_annihilator(stats, terms, j).items():
                _acc(out, key, v * c)
    # intermediate pruning keeps cancelled keys from riding along the chain
    return {key: c for key, c in out.items() if abs(c) >= PRUNE_THRESHOLD}


def multiply_linear(poly: WickPolynomial, op: LinearOperator) -> WickPolynomial:
    """Normal-ordered product poly * op."""
    if op.n_modes != poly.n_modes:
        raise StatisticsMismatchError(
            f"operator has {op.n_modes} modes, polynomial has {poly.n_modes}"
        )
    out = _mul_linear_dict(poly.stats, dict(poly.terms), op)
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
            acc = _mul_linear_dict(stats, acc, subst_creation[i - 1])
        for i in an:
            acc = _mul_linear_dict(stats, acc, subst_annihilation[i - 1])
        for key, val in acc.items():
            _acc(result, key, val)
    return _finalize(n, stats, result)


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
def _matching_table(probes: int, d: int, sign: int, partial: bool, right: bool = False):
    """Wick expansion of  <p_0 .. p_{probes-1} O_0 .. O_{d-1} q>  as arrays.

    The probes p (positions -probes .. -1) are pure annihilators and the
    optional right probe q (position d, if ``right``) a pure creator, so each
    probe contracts with a factor and none is left unmatched; matchings that
    contract two probes are left out.  Matching e becomes row e of
    ``index``: its factor contractions a * d + b (a < b), its unmatched
    factors d * d + u and padding d * d + d; entry e of ``signs``, the
    exchange ``sign`` to the number of crossings; and row e of
    ``partners``, the factor each probe contracts with, left to right.
    """
    ends = list(range(-probes, 0)) + ([d] if right else [])
    rows, partners, signs = [], [], []
    for pairs, alone in _matchings(tuple(range(-probes, d + right)), partial):
        partner = dict(pairs) | {b: a for a, b in pairs}
        if any(not 0 <= partner.get(p, -1) < d for p in ends):
            continue
        partners.append([partner[p] for p in ends])
        rows.append([a * d + b for a, b in pairs if a >= 0 and b < d] + [d * d + u for u in alone])
        crossings = sum(a < c < b < e for a, b in pairs for c, e in pairs)
        signs.append(float(sign**crossings))
    width = max([1] + [len(r) for r in rows])
    index = np.array([r + [d * d + d] * (width - len(r)) for r in rows], int).reshape(-1, width)
    table = (index, np.array(partners, int).reshape(len(rows), len(ends)), np.array(signs))
    for arr in table:
        arr.setflags(write=False)
    return table


def _compile(groups, images: int, sign: int, partial: bool, tables) -> tuple:
    """Plan of the sums of ``tables`` ((probes, right probe) pairs) over terms
    whose factors are rows of ``images`` images: per (table, term, matching)
    the positions of its values in [Gram matrix, scalars, 1] (padded with the
    1; stored transposed), its weight c_t * sign, and its slot (its probes'
    partners, after the earlier tables' slots) as real and imaginary halves."""
    one = images * images + images
    index, weights, slots = [np.zeros((0, 1), int)], [np.zeros(0)], [np.zeros(0, int)]
    offset = 0
    for probes, right in tables:
        for rows, coeffs in groups:
            t, d = rows.shape
            table, partners, signs = _matching_table(probes, d, sign, partial, right)
            pairs = (rows[:, :, None] * images + rows[:, None, :]).reshape(t, d * d)
            source = np.concatenate([pairs, images * images + rows, np.full((t, 1), one)], axis=1)
            index.append(source[:, table].reshape(-1, table.shape[1]))
            weights.append(np.outer(coeffs, signs).ravel())
            slot = np.zeros((t, len(signs)), int)
            for column in partners.T:
                slot = slot * images + rows[:, column]
            slots.append(offset + slot.ravel())
        offset += images ** (probes + right)
    width = max(part.shape[1] for part in index)
    index = np.concatenate([np.pad(part, ((0, 0), (0, width - part.shape[1])), constant_values=one)
                            for part in index])
    halves = (2 * np.concatenate(slots)[:, None] + np.arange(2)).ravel()
    return np.ascontiguousarray(index.T), np.concatenate(weights), halves, offset


def _gather_product_scatter(plan, values: np.ndarray) -> np.ndarray:
    """Per slot, the sum over its rows of weight times the gathered product."""
    index, weights, halves, size = plan
    terms = values[index[0]]
    for column in index[1:]:
        terms = terms * values[column]
    terms = terms * weights
    return np.bincount(halves, terms.view(float), 2 * size).view(complex)


def product_vacuum_expectation(stats: Statistics, ops: Sequence[LinearOperator]) -> complex:
    """Vacuum expectation of an ordered product of affine ladder combinations.

    Evaluated as a sum over matchings (a loop hafnian for bosons, a Pfaffian
    with scalar loops for fermions): every pair contracts the annihilation
    part of an earlier factor with the creation part of a later one, with the
    fermionic crossing sign, and every unmatched factor contributes its
    scalar.  This is an independent route to the same number as normal
    ordering the product and reading off its constant term, run as the plan
    of one term whose factors are the operators themselves.
    """
    if not ops:
        return 1.0 + 0j
    if any(op.n_modes != ops[0].n_modes for op in ops):
        raise StatisticsMismatchError("operators must share one mode count")
    cre, ann = np.array([op.creation for op in ops]), np.array([op.annihilation for op in ops])
    values = np.concatenate([(ann @ cre.T).ravel(), [op.scalar for op in ops], [1.0]])
    term = [(np.arange(len(ops))[None, :], np.ones(1, complex))]
    plan = _compile(term, len(ops), stats.sign, True, ((0, False),))
    return complex(_gather_product_scatter(plan, values)[0])


#: The (probes, right probe) tables of each plan, in slot order: the
#: constant (1 slot), the linear block (2n) and P ((2n)^2); D ((2n)^2).
PLANS = {"blocks": ((0, False), (1, False), (2, False)), "single": ((1, True),)}


class CompiledPolynomial:
    """A polynomial compiled into gather-product-scatter plans.

    Each term lists its factors as rows of the stacked image table in
    ``vacuum_blocks`` (a*_i at i - 1, a_i at n_modes + i - 1), grouped by
    degree.  The plans of ``PLANS``, over perfect matchings or, for shifted
    maps, partial ones, are compiled on first use and kept.
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
        self.plans: dict[tuple[str, bool], tuple] = {}

    def plan_sums(self, name: str, partial: bool, values: np.ndarray) -> np.ndarray:
        """Slot sums of a plan of ``PLANS`` at the gather source ``values``."""
        if (name, partial) not in self.plans:
            self.plans[name, partial] = _compile(self.groups, 2 * self.n_modes,
                                                 self.stats.sign, partial, PLANS[name])
        return _gather_product_scatter(self.plans[name, partial], values)

    def vacuum_blocks(self, u, v, shift, single: bool = False) -> tuple:
        """Blocks (constant, linear, pairing, single_particle) after
        a_i -> sum_j u_ij b_j + v_ij b*_j + shift_i, the arrays of a map's inverse.

        The blocks are those of ``wick.extract_blocks`` on the
        rewritten polynomial: with <.> the b vacuum and O_t the rewritten
        product of term t,

            constant  = sum_t c_t <O_t>,
            linear[i] = sum_t c_t <b_i O_t>,
            pairing   = (P + sign P^T) / 4 with the exchange sign and
                        P[i, j] = sum_t c_t <b_i b_j O_t>,
            single_particle[i, j] = sum_t c_t <b_i O_t b*_j> - constant delta_ij
                        (None unless ``single``).

        The 2n images of a*_i and a_i are stacked once, and their Gram
        matrix G = ann cre^T holds every contraction.  The "blocks" plan
        gathers from [G, scalars, 1], multiplies along its rows and scatters
        the weighted products into the constant, a 2n vector m and a (2n)^2
        matrix M, one slot per probe partner, and the "single" plan into
        M'; then linear = m cre, P = cre^T M cre and D = cre^T M' ann.  The
        delta_ij term is the contraction of b_i with b*_j, which the table
        of D leaves out.  Without a shift no image has a scalar, and the
        perfect-matching plans serve.
        """
        n, big = self.n_modes, 2 * self.n_modes
        cre = np.concatenate([np.conj(u), v])
        ann = np.concatenate([np.conj(v), u])
        values = np.empty(big * big + big + 1, complex)
        np.matmul(ann, cre.T, out=values[: big * big].reshape(big, big))
        np.conj(shift, out=values[big * big : big * big + n])
        values[big * big + n : -1] = shift
        values[-1] = 1
        partial = np.count_nonzero(shift) > 0
        sums = self.plan_sums("blocks", partial, values)
        p = cre.T @ sums[1 + big:].reshape(big, big) @ cre
        # P counts the coefficient of b*_i b*_j once per order of the probes
        pairing = 0.25 * (p + self.stats.sign * p.T)
        one_body = (cre.T @ self.plan_sums("single", partial, values).reshape(big, big) @ ann
                    if single else None)
        return complex(sums[0]), sums[1:1 + big] @ cre, pairing, one_body

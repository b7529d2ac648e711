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
from typing import Sequence

import numpy as np

from .errors import StatisticsMismatchError
from .wick import PRUNE_THRESHOLD, Blocks, Statistics, TermKey, WickPolynomial, _finalize


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

    Returns (tuple, sign), the fermionic sign counting the greater indices j
    is swapped past, or None for a repeated fermionic index.
    """
    if stats is Statistics.FERMI and j in tup:
        return None
    pos = 0
    while pos < len(tup) and tup[pos] <= j:
        pos += 1
    new = tup[:pos] + (j,) + tup[pos:]
    if stats is Statistics.BOSE:
        return new, 1
    return new, (-1) ** (len(tup) - pos)


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
def _matching_table(probes: int, d: int, fermi: bool, partial: bool, right: bool = False):
    """Wick expansion of  <p_0 .. p_{probes-1} O_0 .. O_{d-1} q>  as arrays.

    The probes p (positions -probes .. -1) are pure annihilators and the
    optional right probe q (position d, if ``right``) a pure creator, so each
    probe contracts with a factor and none is left unmatched; matchings that
    contract two probes are left out.  Matching e becomes row e of ``index``,
    pointing into the ``_pair_values`` vector (factor contractions, unmatched
    scalars, padding 1), and row e of ``scatter``: its sign, (-1)^crossings
    for fermions, in the column of the probes' partners (k, or k * d + l,
    left to right).
    """
    ends = list(range(-probes, 0)) + ([d] if right else [])
    rows, targets, signs = [], [], []
    for pairs, alone in _matchings(tuple(range(-probes, d + right)), partial):
        partner = dict(pairs) | {b: a for a, b in pairs}
        if any(not 0 <= partner.get(p, -1) < d for p in ends):
            continue
        targets.append(sum(partner[p] * d ** (len(ends) - 1 - k) for k, p in enumerate(ends)))
        rows.append([a * d + b for a, b in pairs if a >= 0 and b < d] + [d * d + u for u in alone])
        crossings = sum(a < c < b < e for a, b in pairs for c, e in pairs)
        signs.append(-1.0 if fermi and crossings % 2 else 1.0)
    width = max([1] + [len(r) for r in rows])
    index = np.array([r + [d * d + d] * (width - len(r)) for r in rows], int).reshape(-1, width)
    scatter = np.zeros((len(rows), d ** len(ends)))
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

    def vacuum_blocks(self, inv, gradient: bool = True, single: bool = False) -> Blocks:
        """Low-degree blocks after a_i -> sum_j u_ij b_j + v_ij b*_j + shift_i.

        ``inv`` carries (u, v, shift), as the inverse of a Bogoliubov map
        does.  The blocks are those of ``wick.extract_blocks`` on the
        rewritten polynomial: with <.> the b vacuum and O_t the rewritten
        product of term t,

            constant  = sum_t c_t <O_t>,
            linear[i] = sum_t c_t <b_i O_t>               (zero unless ``gradient``),
            pairing   = (P +- P^T) / 4 with P[i, j] = sum_t c_t <b_j b_i O_t>
                        (- for fermions; zero unless ``gradient``),
            single_particle[i, j] = sum_t c_t <b_i O_t b*_j> - constant delta_ij
                        (None unless ``single``),

        evaluating all terms of one degree, and all probes b, in one batch.
        The delta_ij term is the contraction of b_i with b*_j, which the
        table of ``single_particle`` leaves out.  Without a shift no factor
        has a scalar, so a table over an odd number of positions has no
        matching: the linear table runs only where a shift or an odd degree
        can make it nonzero.
        """
        n = self.n_modes
        fermi = self.stats is Statistics.FERMI
        cre = np.concatenate([np.conj(inv.u), inv.v])
        ann = np.concatenate([np.conj(inv.v), inv.u])
        sca = np.concatenate([np.conj(inv.shift), inv.shift])
        constant = 0j
        lin = np.zeros(n, complex)
        pairs = np.zeros((n, n), complex)
        one_body = np.zeros((n, n), complex) if single else None
        for rows, coeffs in self.groups:
            t, d = rows.shape
            c, a, scalars = cre[rows], ann[rows], sca[rows]
            values = _pair_values(c, a, scalars)
            partial = bool(np.any(scalars != 0))
            sums = _matching_sums(values, _matching_table(0, d, fermi, partial))
            constant += coeffs @ sums[:, 0]
            if gradient and (partial or d % 2):
                w = coeffs[:, None] * _matching_sums(values, _matching_table(1, d, fermi, partial))
                lin += w.reshape(-1) @ c.reshape(-1, n)
            if gradient:
                w = _matching_sums(values, _matching_table(2, d, fermi, partial)).reshape(t, d, d)
                # x[t, l, j] = sum_k w[t, k, l] c[t, k, j]: probe b_j meets factor k
                x = coeffs[:, None, None] * np.matmul(w.transpose(0, 2, 1), c)
                pairs += c.reshape(-1, n).T @ x.reshape(-1, n)
            if single:
                table = _matching_table(1, d, fermi, partial, True)
                w = _matching_sums(values, table).reshape(t, d, d)
                # x[t, k, j] = sum_l w[t, k, l] a[t, l, j]: b_i meets k, b*_j meets l
                x = coeffs[:, None, None] * np.matmul(w, a)
                one_body += c.reshape(-1, n).T @ x.reshape(-1, n)
        # P counts the coefficient of b*_i b*_j once per order of the probes
        pairs = -0.25 * (pairs - pairs.T) if fermi else 0.25 * (pairs + pairs.T)
        return Blocks(self.stats, complex(constant), lin, pairs, one_body)

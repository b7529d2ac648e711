"""Normal ordering of ladder-operator products.

One kernel, ``_mul_linear_dict``, normal orders a polynomial times an affine
combination of a*_j and a_j: a*_j appended on the right moves left past the
annihilators, emitting a contraction term at every a_j it passes,

    a_i a*_j = s a*_j a_i + delta_ij,   s = +1 (Bose), -1 (Fermi),

and either operator then joins its sorted index tuple with the exchange
sign of the greater indices it passes.  Signs are exact factors of +-1, so
antisymmetry cancellations are exact, and each product is pruned relative to
its largest coefficient (``wick._finalize``), so results scale with the
input.  ``substitute_linear`` chains the kernel over each monomial with the
images of the a_i, rows of bare (u, v, shift) arrays, and their adjoints.

``CompiledPolynomial`` evaluates vacuum expectations of substituted
products without ordering (Wick's theorem), through gather-product-scatter
plans compiled once with one row per (term, matching): a fixed number of
array operations per map gathers each row's contractions from the Gram
matrix of the substituted images, multiplies them and sums them into slots.
"""

from __future__ import annotations

import functools

import numpy as np

from .bogoliubov import inverse_arrays
from .errors import StatisticsMismatchError
from .wick import Statistics, TermKey, WickPolynomial, _finalize


def _acc(out: dict, key: TermKey, val: complex) -> None:
    out[key] = out.get(key, 0j) + val


def _mul_linear_dict(stats: Statistics, terms, creation, annihilation, scalar):
    """Normal order  terms * (creation . a* + annihilation . a + scalar),  one
    mode j at a time, as the module docstring says (a repeated fermionic
    index kills the term), and prune the product by ``_finalize``'s rule."""
    exchange, fermi, out = stats.sign, stats is Statistics.FERMI, {}
    if scalar != 0:
        for key, c in terms.items():
            _acc(out, key, scalar * c)
    for j in range(1, len(creation) + 1):
        for creator, w in ((True, creation[j - 1]), (False, annihilation[j - 1])):
            if w == 0:
                continue
            for (cr, an), c in terms.items():
                c = w * c
                if creator:
                    for t in range(len(an) - 1, -1, -1):
                        if an[t] == j:
                            _acc(out, (cr, an[:t] + an[t + 1:]), c)
                        c = exchange * c
                tup = cr if creator else an
                if fermi and j in tup:
                    continue
                greater = sum(i > j for i in tup)
                pos = len(tup) - greater
                tup = tup[:pos] + (j,) + tup[pos:]
                _acc(out, (tup, an) if creator else (cr, tup), exchange**greater * c)
    return _finalize(len(creation), stats, out).terms


def multiply_linear(poly: WickPolynomial, creation, annihilation, scalar=0j) -> WickPolynomial:
    """Normal-ordered product  poly * (creation . a* + annihilation . a + scalar)."""
    if np.shape(creation) != (poly.n_modes,) or np.shape(annihilation) != (poly.n_modes,):
        raise StatisticsMismatchError(f"operator vectors need {poly.n_modes} entries each")
    terms = _mul_linear_dict(poly.stats, poly.terms, creation, annihilation, scalar)
    return _finalize(poly.n_modes, poly.stats, terms)


def substitute_linear(poly: WickPolynomial, u, v, shift) -> WickPolynomial:
    """Replace a_i by row i of a map's inverse arrays (``inverse_arrays``),
    sum_j u_ij a_j + v_ij a*_j + shift_i, and a*_i by its adjoint, and normal
    order; each monomial is expanded factor by factor in its stored order."""
    n = poly.n_modes
    if np.shape(u) != (n, n) or np.shape(v) != (n, n) or np.shape(shift) != (n,):
        raise StatisticsMismatchError(f"substitute {n} rows of {n} modes each")
    adjoints = [(np.conj(u[i]), np.conj(v[i]), np.conj(shift[i])) for i in range(n)]
    result: dict = {}
    for (cr, an), c in poly.terms.items():
        acc = {((), ()): c}
        for i in cr:
            acc = _mul_linear_dict(poly.stats, acc, *adjoints[i - 1])
        for i in an:
            acc = _mul_linear_dict(poly.stats, acc, v[i - 1], u[i - 1], shift[i - 1])
        for key, val in acc.items():
            _acc(result, key, val)
    return _finalize(n, poly.stats, result)


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
def _matching_table(probes: int, d: int, sign: int, partial: bool):
    """Wick expansion of  <p_0 .. p_{probes-1} O_0 .. O_{d-1}>  as arrays.

    The probes p (positions -probes .. -1) are pure annihilators, so each
    probe contracts with a factor and none is left unmatched; matchings that
    contract two probes are left out.  Matching e becomes row e of
    ``index``: its factor contractions a * d + b (a < b), its unmatched
    factors d * d + u and padding d * d + d; entry e of ``signs``, the
    exchange ``sign`` to the number of crossings; and row e of
    ``partners``, the factor each probe contracts with, left to right.
    """
    ends = range(-probes, 0)
    rows, partners, signs = [], [], []
    for pairs, alone in _matchings(tuple(range(-probes, d)), partial):
        partner = dict(pairs) | {b: a for a, b in pairs}
        if any(partner.get(p, -1) < 0 for p in ends):
            continue
        partners.append([partner[p] for p in ends])
        rows.append([a * d + b for a, b in pairs if a >= 0] + [d * d + u for u in alone])
        crossings = sum(a < c < b < e for a, b in pairs for c, e in pairs)
        signs.append(float(sign**crossings))
    width = max([1] + [len(r) for r in rows])
    index = np.array([r + [d * d + d] * (width - len(r)) for r in rows], int).reshape(-1, width)
    table = (index, np.array(partners, int).reshape(len(rows), probes), np.array(signs))
    for arr in table:
        arr.setflags(write=False)
    return table


#: The probe counts of the plan's tables, in slot order: the constant
#: (1 slot), the linear block (2n) and the pairing sums M ((2n)^2).
PLANS = (0, 1, 2)


def _compile(groups, images: int, sign: int, partial: bool) -> tuple:
    """Plan of the sums of ``PLANS`` (probe counts) over terms whose factors
    are rows of ``images`` images: per (table, term, matching) the positions
    of its values in [Gram matrix, scalars, 1] (padded with the 1; stored
    transposed), its weight c_t * sign, and its slot (its probes' partners,
    after the earlier tables' slots) as real and imaginary halves."""
    one = images * images + images
    index, weights, slots = [np.zeros((0, 1), int)], [np.zeros(0)], [np.zeros(0, int)]
    offset = 0
    for probes in PLANS:
        for rows, coeffs in groups:
            t, d = rows.shape
            table, partners, signs = _matching_table(probes, d, sign, partial)
            pairs = (rows[:, :, None] * images + rows[:, None, :]).reshape(t, d * d)
            source = np.concatenate([pairs, images * images + rows, np.full((t, 1), one)], axis=1)
            index.append(source[:, table].reshape(-1, table.shape[1]))
            weights.append(np.outer(coeffs, signs).ravel())
            slot = np.zeros((t, len(signs)), int)
            for column in partners.T:
                slot = slot * images + rows[:, column]
            slots.append(offset + slot.ravel())
        offset += images**probes
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


def product_vacuum_expectation(stats: Statistics, u, v, shift) -> complex:
    """Vacuum expectation of an ordered product of affine ladder
    combinations, factor k the row sum_j u_kj a_j + v_kj a*_j + shift_k.

    Evaluated as a sum over matchings (a loop hafnian for bosons, a Pfaffian
    with scalar loops for fermions): every pair contracts the annihilation
    part of an earlier factor with the creation part of a later one, with the
    fermionic crossing sign, and every unmatched factor contributes its
    scalar.  This is an independent route to the same number as normal
    ordering the product and reading off its constant term, read from slot 0
    of the plan of one term whose factors are the rows themselves.
    """
    u, v, shift = (np.asarray(a, complex) for a in (u, v, shift))
    if u.ndim != 2 or v.shape != u.shape or shift.shape != u.shape[:1]:
        raise StatisticsMismatchError("u, v and shift must hold one row per factor")
    values = np.concatenate([(u @ v.T).ravel(), shift, [1.0]])
    term = [(np.arange(len(shift))[None, :], np.ones(1, complex))]
    plan = _compile(term, len(shift), stats.sign, True)
    return complex(_gather_product_scatter(plan, values)[0])


class CompiledPolynomial:
    """A polynomial compiled into gather-product-scatter plans.

    Each term lists its factors as rows of the stacked image table in
    ``vacuum_blocks`` (a*_i at i - 1, a_i at n_modes + i - 1), grouped by
    degree.  One plan of ``PLANS`` per shift class, over perfect matchings
    or, for shifted maps, partial ones, is compiled on first use and kept.
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
        self.plans: dict[bool, tuple] = {}

    @classmethod
    def of(cls, poly: WickPolynomial) -> "CompiledPolynomial":
        """The polynomial's own engine: built on first use and kept in its
        instance ``__dict__``, as ``functools.cached_property`` does on a
        frozen dataclass, so every plan compiles once and is freed with
        the polynomial.  Results hold maps and blocks, never the engine."""
        engine = poly.__dict__.get("_compiled")
        if engine is None:
            engine = poly.__dict__["_compiled"] = cls(poly)
        return engine

    def vacuum_blocks(self, u, v, shift, single: bool = False) -> tuple:
        """Blocks (constant, linear, pairing, single_particle) at a map's own
        (u, v, shift) arrays: after a_i -> sum_j u'_ij b_j + v'_ij b*_j +
        shift'_i, with (u', v', shift') its inverse's (``inverse_arrays``).

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
        matrix G = ann cre^T holds every contraction.  The plan gathers from
        [G, scalars, 1], multiplies along its rows and scatters the weighted
        products into the constant, a 2n vector m and a (2n)^2 matrix M, one
        slot per probe partner; then linear = m cre, P = cre^T M cre and
        D = sign cre^T M ann: moving the second probe to the right end, as
        b*_j, changes only whether the two probe lines cross, so each
        matching's weight picks up one exchange sign.  M leaves out delta_ij,
        the contraction of b_i with b*_j.  Without a shift no image has a
        scalar, and the perfect-matching plan serves.
        """
        u, v, shift = inverse_arrays(self.stats, (u, v, shift))
        n, big = self.n_modes, 2 * self.n_modes
        cre = np.concatenate([np.conj(u), v])
        ann = np.concatenate([np.conj(v), u])
        values = np.empty(big * big + big + 1, complex)
        np.matmul(ann, cre.T, out=values[: big * big].reshape(big, big))
        np.conj(shift, out=values[big * big : big * big + n])
        values[big * big + n : -1] = shift
        values[-1] = 1
        partial = np.count_nonzero(shift) > 0
        if partial not in self.plans:
            self.plans[partial] = _compile(self.groups, big, self.stats.sign, partial)
        sums = _gather_product_scatter(self.plans[partial], values)
        left = cre.T @ sums[1 + big:].reshape(big, big)
        p = left @ cre
        # P counts the coefficient of b*_i b*_j once per order of the probes
        pairing = 0.25 * (p + self.stats.sign * p.T)
        one_body = self.stats.sign * left @ ann if single else None
        return complex(sums[0]), sums[1:1 + big] @ cre, pairing, one_body

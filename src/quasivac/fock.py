"""Brute-force verifier on truncated Fock spaces.

Occupation tuples are enumerated with mode 1 varying fastest, so a state's
row is its occupations dotted with the per-mode strides.  Each basis
caches one index map per mode, ``raising`` (source rows, target rows,
factors): a*_i moves a row up one quantum in mode i times sqrt(m_i + 1)
(Bose) or a Jordan-Wigner sign (Fermi), and a_i is the same map read
backwards.  Every operator reaches the space through these maps: a
monomial acts on every basis column at once, right to left, and drops a
column when a mode empties or passes its cutoff, which gives its (row,
column, value) triples.  ``sparse_matrix`` sums them into one sparse
matrix, which acts on a stack of vectors as one product, and ``quantize``
is its dense form; ladders act on vectors through the same maps.
States come stacked: a (K, dim) block holds one vector per row, and K
charts (``bogoliubov.chart_arrays``) a (K, n, n) z and a (K, n) shift.
The Gaussian vectors of K charts, displaced or not, are the amplitudes of
exp(1/2 a*.z.a* + beta.a*)|0>, filled shell by shell of total occupation
from a_i psi = (beta_i + sum_j z_ij a*_j) psi; each amplitude in the box
needs only lower ones, so the block is the exact projection of the states
onto the box.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse

from .bogoliubov import BogoliubovMap, chart_arrays, compose_arrays, reflection_arrays
from .bogoliubov import compose  # noqa: F401  (perfbench/spans.py wraps it in this namespace)
from .errors import DimensionCapError, StatisticsMismatchError, TailToleranceError
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
        (Bose) or the Jordan-Wigner sign of the modes before i (Fermi); a_i
        is the same map read backwards.
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

    @cached_property
    def shells(self) -> tuple[np.ndarray, ...]:
        """The rows in order of total occupation, and the data of the
        amplitude recursion in that order.

        Returns (order, bounds, mode, inv, gather, factor).  Shell s holds
        positions bounds[s - 1]:bounds[s] of ``order`` (the vacuum, shell 0,
        is position 0).  Column p - 1 of the other arrays belongs to the row
        m = order[p]: the mode i of its first quantum and 1/f for the factor
        f of a*_i at r = m - e_i; ``gather`` row 0 is the position of r, and
        row j + 1 that of r - e_j, with ``factor`` 1 and the factor of a*_j
        from r - e_j to r (position 0 and factor 0 where r_j = 0).  The
        factors are those of ``raising``.
        """
        n, strides = self.n_modes, self.strides
        ladder = np.zeros((self.dimension, n))  # ladder[row, j]: factor of a*_j at row
        for j, (src, _, fac) in enumerate(self.raising):
            ladder[src, j] = fac
        occ = self.occupations
        total = occ.sum(axis=1)
        order = np.argsort(total, kind="stable")
        position = np.empty_like(order)
        position[order] = np.arange(order.size)
        rows = order[1:]
        mode = np.argmax(occ[rows] > 0, axis=1)
        src = rows - strides[mode]
        occupied = occ[src] > 0
        lower = np.where(occupied, src[:, None] - strides, 0)
        bounds = np.append(np.flatnonzero(np.diff(total[order])) + 1, order.size)
        gather = np.vstack([position[src], position[lower].T])
        factor = np.vstack([np.ones(src.size),
                            np.where(occupied, ladder[lower, np.arange(n)], 0.0).T])
        return order, bounds, mode, 1.0 / ladder[src, mode], gather, factor


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


def _monomial_rules(poly: WickPolynomial, basis: FockBasis):
    """(target rows, source columns, values) of each monomial on the basis.

    Each monomial acts on every basis column at once, right to left, through
    the ``raising`` map of each operator (read backwards for a_i), and drops
    a column that map does not reach.
    """
    if poly.stats is not basis.stats or poly.n_modes != basis.n_modes:
        raise StatisticsMismatchError("polynomial and basis disagree")
    dim = basis.dimension
    # (mode, +1 for a*_i or -1 for a_i) -> per row, its image row (-1: none) and factor
    ladders = {}
    for i, (src, dst, fac) in enumerate(basis.raising, start=1):
        for step, rows, images in ((1, src, dst), (-1, dst, src)):
            image, factor = np.full(dim, -1), np.zeros(dim)
            image[rows], factor[rows] = images, fac
            ladders[i, step] = image, factor
    rules = []
    for (cr, an), coeff in poly.items():
        rows, cols, fac = np.arange(dim), np.arange(dim), np.ones(dim)
        # right to left: the annihilators act first
        for op in [(i, -1) for i in reversed(an)] + [(i, 1) for i in reversed(cr)]:
            image, factor = ladders[op]
            live = image[rows] >= 0
            rows, cols, fac = rows[live], cols[live], fac[live]
            rows, fac = image[rows], fac * factor[rows]
        rules.append((rows, cols, coeff * fac))
    return rules


def sparse_matrix(poly: WickPolynomial, basis: FockBasis) -> scipy.sparse.csr_array:
    """Sparse matrix of the polynomial on the truncated space, the monomials'
    triples summed; ``matrix @ block.T`` applies it to a (K, dim) block."""
    rules = _monomial_rules(poly, basis)
    rows, cols, vals = (np.concatenate(parts) for parts in zip(*rules)) if rules else ([],) * 3
    dim = basis.dimension
    return scipy.sparse.csr_array((vals, (rows, cols)), shape=(dim, dim), dtype=complex)


def quantize(poly: WickPolynomial, basis: FockBasis) -> np.ndarray:
    """Dense matrix of the polynomial on the truncated space."""
    return sparse_matrix(poly, basis).toarray()


def apply_linear(basis: FockBasis, cre: np.ndarray, ann: np.ndarray,
                 block: np.ndarray) -> np.ndarray:
    """Row k of the (K, dim) block times sum_j cre[k, j] a*_j + ann[k, j] a_j."""
    out = np.zeros_like(block)
    for j, (src, dst, fac) in enumerate(basis.raising):
        out[:, dst] += (cre[:, j : j + 1] * fac) * block[:, src]
        out[:, src] += (ann[:, j : j + 1] * fac) * block[:, dst]
    return out


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


def gaussian_vectors(
    z: np.ndarray, shift: np.ndarray, basis: FockBasis, tail_tol: float = DEFAULT_TAIL_TOL
) -> tuple[np.ndarray, np.ndarray]:
    """Normalized vectors of the charted Gaussian states of a (K, n, n) stack
    of pair amplitudes z and a (K, n) stack of chart shifts (``chart_arrays``),
    as rows of a (K, dim) block, and their ``norm_defect`` values.

    State k is c_k exp(1/2 a*.z_k.a* + beta_k.a*)|0>, with alpha = i shift,
    beta = alpha - z conj(alpha) and c the determinant normalization times
    exp(-|alpha|^2/2 + 1/2 conj(alpha).z.conj(alpha)) (a displaced squeezed
    state; Ma & Rhodes, Phys. Rev. A 41, 4625 (1990)).  The amplitudes of
    all K states are filled together, shell by shell of total occupation
    (``FockBasis.shells``), and each is exact, so the block holds the exact
    projection of each state onto the box.  ``norm_defect`` is 1 minus the
    norm of that projection, 1 - sqrt(p) when the box holds probability p of
    the state, kept as a diagnostic before the final normalization.
    TailToleranceError is raised when, for any of the states, ``series_tail``
    of the pair amplitude (infinite at |z|_2 >= 1) or the weight 1 - p the
    box cuts off (which counts the displacement) reaches ``tail_tol``.
    """
    if basis.stats is Statistics.BOSE:
        # the tail grows with the radius: the largest of the K spectral norms decides
        est = series_tail(float(np.max(np.linalg.norm(z, 2, axis=(1, 2)), initial=0.0)),
                          min(basis.cutoffs))
        if est >= tail_tol:
            raise TailToleranceError(f"estimated series tail {est:.3e} exceeds {tail_tol:.1e} "
                                     f"at cutoffs {basis.cutoffs}; raise the cutoff")
    n, dim, count = basis.n_modes, basis.dimension, len(z)
    alpha = 1j * shift
    beta = alpha - (z @ alpha.conj()[:, :, None])[:, :, 0]
    # a_i exp(Q)|0> = (beta_i + sum_j z_ij a*_j) exp(Q)|0>: the row m = r + e_i
    # is (beta_i psi[r] + sum_j z_ij (a*_j psi)[r]) / f, all from lower shells
    order, bounds, mode, inv, gather, factor = basis.shells
    weights = factor * inv * np.concatenate(
        [beta[:, None, mode], z.transpose(0, 2, 1)[:, :, mode]], axis=1)
    shelled = np.zeros((count, dim), dtype=complex)
    shelled[:, 0] = 1.0  # the vacuum
    for start, stop in zip(bounds[:-1], bounds[1:]):
        t = slice(start - 1, stop - 1)
        shelled[:, start:stop] = np.sum(weights[:, :, t] * shelled[:, gather[:, t]], axis=1)
    total = np.empty_like(shelled)
    total[:, order] = shelled

    sign = basis.stats.sign
    _, logdet = np.linalg.slogdet(np.eye(n) - sign * (z.conj().transpose(0, 2, 1) @ z))
    norm_factor = np.exp(0.25 * sign * logdet)
    # -|alpha|^2/2 + conj(alpha).z.conj(alpha)/2 = -conj(alpha).beta/2
    total *= (norm_factor * np.exp(-0.5 * np.sum(alpha.conj() * beta, axis=1)))[:, None]

    norm = np.linalg.norm(total, axis=1)
    for weight in 1.0 - norm * norm:
        if weight >= tail_tol:
            raise TailToleranceError(f"the box at cutoffs {basis.cutoffs} cuts off "
                                     f"{weight:.3e} of the state; raise the cutoff")
    return total / norm[:, None], np.abs(norm - 1.0)


def states_of_maps(
    maps: list[BogoliubovMap], basis: FockBasis, tail_tol: float = DEFAULT_TAIL_TOL
) -> tuple[np.ndarray, np.ndarray]:
    """Vectors of the Gaussian states the maps reach from the vacuum, as rows
    of a (K, dim) block, and their ``norm_defect`` values: ``states_of_arrays``
    of the maps' stacked arrays, once the maps match the basis."""
    if any(m.stats is not basis.stats or m.n_modes != basis.n_modes for m in maps):
        raise StatisticsMismatchError("map and basis disagree")
    u, v, shift = (np.array([getattr(m, name) for m in maps]) for name in ("u", "v", "shift"))
    return states_of_arrays(basis, u, v, shift, [m.odd for m in maps], tail_tol)


def states_of_arrays(basis: FockBasis, u: np.ndarray, v: np.ndarray, shift: np.ndarray,
                     odd: list[bool], tail_tol: float = DEFAULT_TAIL_TOL
                     ) -> tuple[np.ndarray, np.ndarray]:
    """``states_of_maps`` of K maps of the basis's statistics and mode count,
    as their stacked (K, n, n) u and v, (K, n) shift and K parities.

    Bosonic maps go through their charts directly.  Fermionic maps are
    factored through unit-vector reflections into an even map with a
    bounded chart (``_reflections``); the reflections are then applied
    through the basis's ladder maps.  The charts are solved as one stack and
    go through one ``gaussian_vectors`` call.
    """
    u, v, shift = (np.array(a, dtype=complex) for a in (u, v, shift))  # the peel writes rows
    peeled: list[list[np.ndarray]] = [[] for _ in odd]
    if basis.stats is Statistics.FERMI:
        _, svals, vh = np.linalg.svd(u)
        peeled = [_reflections(*each) for each in zip(odd, svals, vh)]
        for k, applied in enumerate(peeled):
            for direction in applied:
                u[k], v[k], shift[k] = compose_arrays(reflection_arrays(direction),
                                                      (u[k], v[k], shift[k]))
    amps, defects = gaussian_vectors(*chart_arrays(basis.stats, u, v, shift), basis, tail_tol)
    for row, applied in zip(amps, peeled):
        # the last reflection peeled off is the first applied to the vector
        for direction in reversed(applied):
            row[:] = apply_linear(basis, direction[None], direction.conj()[None], row[None])[0]
        if applied:
            row /= np.linalg.norm(row)
    return amps, defects


def _reflections(odd: bool, svals: np.ndarray, vh: np.ndarray) -> list[np.ndarray]:
    """The unit-vector reflections peeled off a fermionic map of parity odd
    whose u has singular values svals and right-singular rows vh: each
    direction below 1/sqrt(2), smallest first, and one more when that
    count's parity is not the map's (a pair split by rounding).  A
    reflection swaps cos and sin on its level (Bloch & Messiah, Nucl. Phys.
    39, 95 (1962)), so the chart left has |z|_2 <= 1, also at and near a
    Slater determinant."""
    count = int(np.sum(svals < 2 ** -0.5))
    return list(vh[::-1][: count + (count % 2 != odd)].conj())


def state_of_map(
    m: BogoliubovMap, basis: FockBasis, tail_tol: float = DEFAULT_TAIL_TOL
) -> FockVector:
    """Vector of the Gaussian state reached by applying the map to the
    vacuum: ``states_of_maps`` of one map."""
    amps, defects = states_of_maps([m], basis, tail_tol)
    return FockVector(basis, amps[0], norm_defect=float(defects[0]))

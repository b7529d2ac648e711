"""Reference routes the tests compare the library against.

Each reaches a number by a route the library itself does not take: the
group conditions and the invariant form of a map read off its matrices, the
chart of a generator from its closed form instead of from its map, a
generator's state by exponentiating its quantized matrix, a block
decomposition rebuilt into a polynomial, dense ladder matrices quantized
from unit monomials, and expectations through dense matrices.  The vacuum
vector and the one-chart case of ``fock.gaussian_vectors`` are kept here
for the tests that build single states.  States are bare arrays, as
``fock.state_of_map`` returns them: an amplitude vector, paired with its
norm defect where the route measures one.  They use public names only.
"""

import math

import numpy as np
from scipy.sparse.linalg import expm_multiply

from quasivac import Statistics, WickPolynomial, from_generator, quantize
from quasivac.bogoliubov import chart_arrays
from quasivac.errors import StatisticsMismatchError
from quasivac.fock import DEFAULT_TAIL_TOL, gaussian_vectors


def residual_norms(m):
    """Frobenius norms of the two matrix-level group conditions."""
    sign = 1.0 if m.stats is Statistics.FERMI else -1.0
    eye = np.eye(m.n_modes)
    r1 = np.linalg.norm(m.u @ m.u.conj().T + sign * (m.v @ m.v.conj().T) - eye)
    r2 = np.linalg.norm(m.u @ m.v.T + sign * (m.v @ m.u.T))
    return float(r1), float(r2)


def preserves_form(m, rng, n_pairs=20):
    """Largest sampled violation of the invariant bilinear form.

    The linear part z -> u z + v conj(z) must preserve Im <z|z'> for bosons
    and Re <z|z'> for fermions; the affine shift drops out on differences.
    """
    n = m.n_modes
    worst = 0.0
    part = np.imag if m.stats is Statistics.BOSE else np.real
    for _ in range(n_pairs):
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        tz = m.u @ z + m.v @ np.conj(z)
        tw = m.u @ w + m.v @ np.conj(w)
        worst = max(worst, abs(part(np.vdot(tz, tw)) - part(np.vdot(z, w))))
    return worst


def _matrix_function_times(pair, fn):
    """Apply fn(sqrt(pair pair^dag)) (Hermitian eigendecomposition) times pair."""
    s = pair @ pair.conj().T
    w, vecs = np.linalg.eigh(s)
    args = np.sqrt(np.clip(w, 0.0, None))
    return (vecs * fn(args)) @ vecs.conj().T @ pair


def chart_from_generator(g):
    """(z, shift) arrays of the pair-amplitude chart of the generated state.

    Bose:  z = i tanh(s)/s pair;  Fermi:  z = i tan(s)/s pair with the chart
    domain restricted to spectral norm below pi/2 (ValueError beyond).
    """
    n = g.n_modes
    if g.stats is Statistics.FERMI:
        top = float(np.linalg.norm(g.pair, 2)) if n else 0.0
        if top >= math.pi / 2:
            raise ValueError(
                f"generator norm {top:.6f} >= pi/2 leaves the nondegenerate chart"
            )
        fn = lambda s: np.where(s > 1e-30, np.tan(s) / np.where(s > 1e-30, s, 1.0), 1.0)
    else:
        fn = lambda s: np.where(s > 1e-30, np.tanh(s) / np.where(s > 1e-30, s, 1.0), 1.0)
    z = 1j * _matrix_function_times(g.pair, fn)
    if g.stats is Statistics.BOSE:
        z = (z + z.T) / 2
        m = from_generator(g)
        shift = chart_arrays(g.stats, m.u, m.v, m.shift)[1]
    else:
        z = (z - z.T) / 2
        shift = np.zeros(n, complex)
    return z, shift


def generator_polynomial(g):
    """The generator as a normal-ordered polynomial (it already is one)."""
    n = g.n_modes
    entries = []
    for i in range(n):
        for j in range(n):
            c = g.pair[i, j]
            if c != 0:
                entries.append(((i + 1, j + 1), (), 0.5 * c))
                entries.append(((), (j + 1, i + 1), 0.5 * np.conj(c)))
    for i in range(n):
        y = g.shift[i]
        if y != 0:
            entries.append(((i + 1,), (), y))
            entries.append(((), (i + 1,), np.conj(y)))
    return WickPolynomial.from_terms(n, g.stats, entries)


def gaussian_vector(z, shift, basis, tail_tol=DEFAULT_TAIL_TOL):
    """(amplitudes, norm_defect) of the Gaussian state of one chart's (z, shift) arrays."""
    amps, defects = gaussian_vectors(np.array([z]), np.array([shift]), basis, tail_tol)
    return amps[0], float(defects[0])


def vacuum_vector(basis):
    amp = np.zeros(basis.dimension, complex)
    amp[0] = 1.0  # all occupations zero
    return amp


def expectation(vec, matrix):
    """<vec|matrix|vec> of an amplitude vector with a dense matrix, e.g. ``quantize``'s."""
    if matrix.shape != (len(vec), len(vec)):
        raise StatisticsMismatchError("matrix does not match the vector dimension")
    return complex(np.vdot(vec, matrix @ vec))


def exp_generator(g, basis, vec):
    """(amplitudes, norm_defect) of the exponential of the quantized
    generator applied to an amplitude vector."""
    assert g.stats is basis.stats and g.n_modes == basis.n_modes
    gmat = quantize(generator_polynomial(g), basis)
    out = expm_multiply(1j * gmat, vec)
    norm = float(np.linalg.norm(out))
    return out / norm, abs(norm - 1.0)


def ladders(basis):
    """Per-mode dense (annihilation, creation) matrices of the basis."""
    pairs = []
    for i in range(1, basis.n_modes + 1):
        unit = WickPolynomial.from_terms(basis.n_modes, basis.stats, [((), (i,), 1.0)])
        ann = quantize(unit, basis)
        pairs.append((ann, ann.conj().T))
    return pairs


def reassemble(blocks):
    """Rebuild the polynomial encoded by a block decomposition."""
    n = blocks.n_modes
    entries = []
    if blocks.constant != 0:
        entries.append(((), (), blocks.constant))
    for i in range(n):
        entries.append(((i + 1,), (), blocks.linear[i]))
        entries.append(((), (i + 1,), np.conj(blocks.linear[i])))
    for i in range(n):
        for j in range(n):
            entries.append(((j + 1, i + 1), (), blocks.pairing[i, j]))
            entries.append(((), (i + 1, j + 1), np.conj(blocks.pairing[i, j])))
            entries.append(((i + 1,), (j + 1,), blocks.single_particle[i, j]))
    entries.extend((cr, an, c) for (cr, an), c in blocks.remainder.items())
    return WickPolynomial.from_terms(n, blocks.stats, entries)


def max_abs_diff(p, q):
    """Largest coefficientwise difference of two polynomials on one space."""
    assert p.stats is q.stats and p.n_modes == q.n_modes
    keys = set(p.terms) | set(q.terms)
    return max((abs(p.terms.get(k, 0j) - q.terms.get(k, 0j)) for k in keys), default=0.0)

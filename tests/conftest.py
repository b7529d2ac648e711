"""Shared builders for randomized test inputs."""

import importlib.util
import os
import sys
import weakref

# One BLAS/OpenMP thread, set before numpy is first imported: the suite's
# matrices are small, and next to another CPU-bound process a thread pool
# spends most of its time waiting for a core.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from quasivac import Generator, Statistics, WickPolynomial, compose, from_generator  # noqa: E402
from quasivac.bogoliubov import inverse_arrays, random_number_conserving  # noqa: E402
from quasivac.ordering import CompiledPolynomial, multiply_linear, substitute_linear  # noqa: E402

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def perfbench_module(name):
    """A module of the benchmark, loaded once from its file in ``perfbench/``."""
    key = f"perfbench_{name}"
    if key not in sys.modules:
        spec = importlib.util.spec_from_file_location(key, os.path.join(PERFBENCH, f"{name}.py"))
        module = importlib.util.module_from_spec(spec)
        # dataclasses look their module up by name while the file runs
        sys.modules[key] = module
        spec.loader.exec_module(module)
    return sys.modules[key]


def engine_builds(monkeypatch):
    """A list that collects a weak reference to every ``CompiledPolynomial``
    built from now on."""
    built = []
    init = CompiledPolynomial.__init__

    def spy(self, poly):
        init(self, poly)
        built.append(weakref.ref(self))

    monkeypatch.setattr(CompiledPolynomial, "__init__", spy)
    return built


def squeezed_oscillator(lam=0.3, omega=1.0):
    """omega a*a + lam (a*a* + aa): least, 0.5 (sqrt(omega^2 - 4 lam^2) - omega),
    at a squeezed vacuum."""
    return (
        WickPolynomial.empty(1, Statistics.BOSE)
        .add_term([1], [1], omega)
        .add_term([1, 1], [], lam)
        .add_term([], [1, 1], lam)
    )


def bcs_hamiltonian(eps=1.0, delta=0.5):
    """eps (n_1 + n_2) + delta (a*_1 a*_2 + a_2 a_1): a two-mode BCS pair."""
    return (
        WickPolynomial.empty(2, Statistics.FERMI)
        .add_term([1], [1], eps)
        .add_term([2], [2], eps)
        .add_term([1, 2], [], delta)
        .add_term([], [1, 2], -delta)
    )


def displaced_oscillator(mu=0.5):
    """a*a + mu (a* + a): least, -mu^2, at the coherent state of amplitude -mu."""
    return (
        WickPolynomial.empty(1, Statistics.BOSE)
        .add_term([1], [1], 1.0)
        .add_term([1], [], mu)
        .add_term([], [1], mu)
    )


def random_free_hermitian(stats, n, rng, degree=4, scale=0.5, include_odd=False):
    """Random Hermitian polynomial, no boundedness guarantees."""
    poly = WickPolynomial.empty(n, stats)
    n_terms = int(rng.integers(3, 8))
    for _ in range(n_terms):
        d = int(rng.integers(1, degree + 1))
        if not include_odd and d % 2 == 1:
            d += 1 if d < degree else -1
        k = int(rng.integers(0, d + 1))
        if stats is Statistics.FERMI and (k > n or d - k > n):
            continue
        if stats is Statistics.FERMI:
            cr = list(rng.choice(n, size=k, replace=False) + 1)
            an = list(rng.choice(n, size=d - k, replace=False) + 1)
        else:
            cr = list(rng.integers(1, n + 1, size=k))
            an = list(rng.integers(1, n + 1, size=d - k))
        c = scale * (rng.standard_normal() + 1j * rng.standard_normal())
        poly = poly.add_term(cr, an, c)
        # mirror term keeps the sum Hermitian
        poly = poly.add_term(list(reversed(an)), list(reversed(cr)), np.conj(c))
    if len(poly) == 0:
        poly = poly.add_term([1], [1], 1.0)
    return poly


#: The acceptance corpus's builder is the benchmark's, so the tests' corpus
#: is the benchmark's by construction.
random_bounded_hamiltonian = perfbench_module("inputs").random_bounded_hamiltonian


def random_valid_map(stats, n, rng, pair_scale=0.2, shift_scale=0.0, gauge=False):
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    pair = (raw + raw.T) / 2 if stats is Statistics.BOSE else (raw - raw.T) / 2
    top = np.linalg.norm(pair, 2)
    if top > 0:
        pair *= pair_scale / top
    shift = np.zeros(n, complex)
    if stats is Statistics.BOSE and shift_scale:
        shift = shift_scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    m = from_generator(Generator(stats, pair, shift))
    if gauge:
        m = compose(m, random_number_conserving(n, stats, rng))
    return m


def ladder(n, i, creation):
    """a*_i (``creation``) or a_i on n modes as (creation, annihilation) vectors."""
    unit, zero = np.eye(n, dtype=complex)[i - 1], np.zeros(n, complex)
    return (unit, zero) if creation else (zero, unit)


def rewritten(h, m):
    """H in the map's b operators, normal ordered: a_i is replaced by row i
    of the inverse map's arrays."""
    return substitute_linear(h, *inverse_arrays(m.stats, (m.u, m.v, m.shift)))


def poly_product(p, q):
    """Normal-ordered product p * q through repeated linear multiplication."""
    n = p.n_modes
    entries = []
    for (cr, an), coeff in q.items():
        part = p.scaled(coeff)
        for i in cr:
            part = multiply_linear(part, *ladder(n, i, True))
        for i in an:
            part = multiply_linear(part, *ladder(n, i, False))
        entries += [(c, a, x) for (c, a), x in part.items()]
    return WickPolynomial.from_terms(n, p.stats, entries)

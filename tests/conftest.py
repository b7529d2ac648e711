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
from quasivac.bogoliubov import random_number_conserving  # noqa: E402
from quasivac.ordering import CompiledPolynomial, LinearOperator, multiply_linear  # noqa: E402

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


def random_bounded_hamiltonian(stats, n, rng, *, quartic=False, linear=False):
    """Random Hermitian polynomial with a Gaussian energy bounded below.

    Positive-definite particle-conserving quadratic part, anomalous part
    scaled well inside the stability region, optional non-negative diagonal
    quartic and small linear part.
    """
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    omega = raw @ raw.conj().T / n + np.eye(n) * (0.8 + 0.4 * rng.random())
    lam_min = float(np.linalg.eigvalsh(omega)[0])
    raw2 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    anom = (raw2 + raw2.T) / 2 if stats is Statistics.BOSE else (raw2 - raw2.T) / 2
    norm = float(np.linalg.norm(anom, 2))
    if norm > 0:
        anom *= 0.2 * lam_min / norm

    poly = WickPolynomial.empty(n, stats)
    for i in range(n):
        for j in range(n):
            if omega[i, j] != 0:
                poly = poly.add_term([i + 1], [j + 1], omega[i, j])
            if anom[i, j] != 0:
                poly = poly.add_term([j + 1, i + 1], [], anom[i, j])
                poly = poly.add_term([], [i + 1, j + 1], np.conj(anom[i, j]))
    if quartic:
        if stats is Statistics.BOSE:
            for i in range(1, n + 1):
                poly = poly.add_term([i, i], [i, i], 0.05 + 0.1 * rng.random())
        elif n >= 2:
            i, j = sorted(rng.choice(n, size=2, replace=False) + 1)
            poly = poly.add_term([int(i), int(j)], [int(i), int(j)], 0.1 + 0.2 * rng.random())
    if linear:
        mu = 0.3 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        for i in range(n):
            poly = poly.add_term([i + 1], [], mu[i])
            poly = poly.add_term([], [i + 1], np.conj(mu[i]))
    return poly


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
    """a*_i (``creation``) or a_i as a LinearOperator on n modes."""
    unit, zero = np.eye(n, dtype=complex)[i - 1], np.zeros(n, complex)
    return LinearOperator(unit, zero) if creation else LinearOperator(zero, unit)


def poly_product(p, q):
    """Normal-ordered product p * q through repeated linear multiplication."""
    n = p.n_modes
    entries = []
    for (cr, an), coeff in q.items():
        part = p.scaled(coeff)
        for i in cr:
            part = multiply_linear(part, ladder(n, i, True))
        for i in an:
            part = multiply_linear(part, ladder(n, i, False))
        entries += [(c, a, x) for (c, a), x in part.items()]
    return WickPolynomial.from_terms(n, p.stats, entries)

"""Seeded inputs of the three workloads.

Every problem is built here, from fixed generation seeds, so that a change
under ``tests/`` cannot shift what the benchmark measures.  The workload seed
given on the command line only sets the order in which a round visits the
problems (see ``ordered``); the problem set itself is fixed because the
descent's iteration counts are heavy-tailed, so a different random set would
move the timings by far more than any bound worth keeping.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from quasivac import MinimizeOptions, Mode, Statistics, WickPolynomial

BOSE = Statistics.BOSE
FERMI = Statistics.FERMI

#: The acceptance corpus: (stats, n, mode, quartic, linear, seed).
CORPUS_LAYOUT = [
    (BOSE, 1, Mode.BOSE_EVEN, False, False, 101),
    (BOSE, 1, Mode.BOSE_EVEN, True, False, 102),
    (BOSE, 2, Mode.BOSE_EVEN, False, False, 103),
    (BOSE, 2, Mode.BOSE_EVEN, True, False, 104),
    (BOSE, 3, Mode.BOSE_EVEN, False, False, 105),
    (BOSE, 3, Mode.BOSE_EVEN, True, False, 106),
    (BOSE, 1, Mode.BOSE_FULL, False, True, 107),
    (BOSE, 1, Mode.BOSE_FULL, True, True, 108),
    (BOSE, 2, Mode.BOSE_FULL, False, True, 109),
    (BOSE, 2, Mode.BOSE_FULL, True, True, 110),
    (FERMI, 2, Mode.FERMI_EVEN, False, False, 111),
    (FERMI, 2, Mode.FERMI_EVEN, True, False, 112),
    (FERMI, 3, Mode.FERMI_EVEN, False, False, 113),
    (FERMI, 3, Mode.FERMI_EVEN, True, False, 114),
    (FERMI, 3, Mode.FERMI_EVEN, True, False, 115),
    (FERMI, 2, Mode.FERMI_EVEN, False, False, 116),
    (FERMI, 2, Mode.FERMI_ODD, False, False, 117),
    (FERMI, 2, Mode.FERMI_ODD, True, False, 118),
    (FERMI, 3, Mode.FERMI_ODD, False, False, 119),
    (FERMI, 3, Mode.FERMI_ODD, True, False, 120),
]
CORPUS_TOL = 2.5e-9

#: Dense two-body problems: (stats, n, seed).
DENSE_LAYOUT = [
    (FERMI, 4, 201),
    (FERMI, 5, 202),
    (BOSE, 3, 203),
    (BOSE, 4, 204),
]
DENSE_TOL = 1e-8

#: The example specs of ``hamiltonians/`` and the mode each runs in.
EXAMPLE_MODES = {
    "squeezed_oscillator": Mode.BOSE_EVEN,
    "bcs_two_mode": Mode.FERMI_EVEN,
    "displaced_oscillator": Mode.BOSE_FULL,
    "quartic_number": Mode.BOSE_EVEN,
    "fermi_single_mode": Mode.FERMI_ODD,
    "unstable_oscillator": Mode.BOSE_EVEN,
}
REPORT_TOL = 1e-9


@dataclass(frozen=True)
class Problem:
    """One minimization: a named Hermitian polynomial, a mode and options."""

    name: str
    h: WickPolynomial
    mode: Mode
    opts: MinimizeOptions


@dataclass(frozen=True)
class Spec:
    """One ``cli.run`` call: a spec file on disk and its mode."""

    name: str
    path: str
    mode: Mode


def random_bounded_hamiltonian(stats, n, rng, *, quartic=False, linear=False):
    """Random Hermitian polynomial with a Gaussian energy bounded below.

    Positive-definite particle-conserving quadratic part, anomalous part
    scaled to a fifth of the smallest hopping eigenvalue, optional
    non-negative quartic part and small linear part.  The draws are those of
    the acceptance corpus, so at seeds 101-120 the result is term for term
    the corpus problem.
    """
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    omega = raw @ raw.conj().T / n + np.eye(n) * (0.8 + 0.4 * rng.random())
    lam_min = float(np.linalg.eigvalsh(omega)[0])
    raw2 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    anom = (raw2 + raw2.T) / 2 if stats is BOSE else (raw2 - raw2.T) / 2
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
        if stats is BOSE:
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


def dense_two_body(stats, n, rng):
    """Dense two-body Hamiltonian whose Gaussian energy is bounded below.

    A positive-definite hopping term, ``sum W_pq a*_i a*_j a_l a_k`` over all
    pairs p = (i, j), q = (k, l) (i < j for fermions, i <= j for bosons) with
    W positive semi-definite, and a pairing term a tenth of the smallest
    hopping eigenvalue.
    """
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    hop = raw @ raw.conj().T / n + np.eye(n)
    lam_min = float(np.linalg.eigvalsh(hop)[0])
    pairs = [(i, j) for i in range(n) for j in range(i, n) if stats is BOSE or i < j]
    p = len(pairs)
    raw = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
    w = 0.1 * raw @ raw.conj().T / p
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    pair = (raw + raw.T) / 2 if stats is BOSE else (raw - raw.T) / 2
    pair *= 0.1 * lam_min / float(np.linalg.norm(pair, 2))

    entries = []
    for i in range(n):
        for j in range(n):
            entries.append(([i + 1], [j + 1], hop[i, j]))
    for a, (i, j) in enumerate(pairs):
        for b, (k, l) in enumerate(pairs):
            entries.append(([i + 1, j + 1], [l + 1, k + 1], w[a, b]))
    for i, j in pairs:
        entries.append(([i + 1, j + 1], [], pair[i, j]))
        entries.append(([], [j + 1, i + 1], np.conj(pair[i, j])))
    return WickPolynomial.from_terms(n, stats, entries)


def corpus_problems() -> list[Problem]:
    out = []
    for stats, n, mode, quartic, linear, seed in CORPUS_LAYOUT:
        h = random_bounded_hamiltonian(
            stats, n, np.random.default_rng(seed), quartic=quartic, linear=linear
        )
        out.append(Problem(f"corpus-{seed}", h, mode, MinimizeOptions(tol_grad=CORPUS_TOL, seed=seed)))
    return out


def dense_problems() -> list[Problem]:
    out = []
    for stats, n, seed in DENSE_LAYOUT:
        h = dense_two_body(stats, n, np.random.default_rng(seed))
        mode = Mode.BOSE_EVEN if stats is BOSE else Mode.FERMI_EVEN
        opts = MinimizeOptions(tol_grad=DENSE_TOL, seed=seed, multistarts=1)
        out.append(Problem(f"dense-{stats.value}{n}-{seed}", h, mode, opts))
    return out


def spec_payload(h: WickPolynomial) -> dict:
    """Spec-file form of a polynomial (1-based indices, [re, im] coefficients)."""
    return {
        "statistics": h.stats.value,
        "modes": h.n_modes,
        "terms": [
            {"creation": list(cr), "annihilation": list(an), "coeff": [c.real, c.imag]}
            for (cr, an), c in h.items()
        ],
    }


def report_specs(root: str, spec_dir: str) -> list[Spec]:
    """The example specs plus the corpus's quadratic problems written as specs."""
    out = []
    for name, mode in EXAMPLE_MODES.items():
        path = os.path.join(root, "hamiltonians", f"{name}.json")
        if not os.path.isfile(path):
            raise FileNotFoundError(f"example spec {path} is missing")
        out.append(Spec(name, path, mode))
    os.makedirs(spec_dir, exist_ok=True)
    for problem, (_, _, _, quartic, _, _) in zip(corpus_problems(), CORPUS_LAYOUT):
        if quartic:
            continue
        path = os.path.join(spec_dir, f"{problem.name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(spec_payload(problem.h), fh)
        out.append(Spec(problem.name, path, problem.mode))
    return out


def ordered(items: list, seed: int) -> list:
    """The items in the order a round visits them under the workload seed."""
    perm = np.random.default_rng(seed).permutation(len(items))
    return [items[k] for k in perm]

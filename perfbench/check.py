"""Output checks made apart from the program.

Nothing here calls ``quasivac``: the checker builds its own Fock spaces and
ladder matrices with numpy (Jordan-Wigner signs for fermions, bosonic
ladders truncated at a total occupation), its own matrix of H from the
(creation, annihilation, coefficient) terms, and takes the Gaussian state of
a returned map to be the common null vector of the quasiparticle
annihilators  b_i = sum_j u_ij a_j + v_ij a*_j + shift_i.  Matrices are
stored sparse so that the bosonic spaces of three and four modes fit.

On that state it checks that

- the reported energy equals <psi|H|psi>;
- the energy is at least the lowest eigenvalue of the same H (variational
  bound);
- the linear block <psi|b_i H|psi> and the anomalous block
  <psi|b_j b_i H|psi> vanish (the stationarity property of the minimum);
- the reported quasiparticle spectrum is that of D_ij =
  <psi|b_i H b*_j|psi> - E delta_ij.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh

#: Relative tolerance on the reported energy.
ENERGY_TOL = 1e-8
#: Absolute tolerance on the linear and anomalous blocks at a minimum.
BLOCK_TOL = 1e-7
#: Absolute tolerance on each quasiparticle energy.
SPECTRUM_TOL = 1e-7
#: Largest weight the null vector may keep in its two top occupation shells.
TAIL_WEIGHT = 1e-12
#: Spaces up to this dimension are diagonalized densely.
DENSE_LIMIT = 400

#: Closed forms of the example specs: name -> (status, energy, spectrum).
CLOSED_FORMS = {
    "squeezed_oscillator": ("converged", -0.1, [0.8]),
    "bcs_two_mode": ("converged", 1.0 - math.sqrt(1.25), [math.sqrt(1.25)] * 2),
    "displaced_oscillator": ("converged", -0.25, [1.0]),
    "quartic_number": ("converged", 0.0, [1.0]),
    "fermi_single_mode": ("converged", 1.0, [-1.0]),
    "unstable_oscillator": ("unbounded_below", None, None),
}
CLOSED_FORM_TOL = 1e-7


@dataclass(frozen=True)
class Outcome:
    """What the program returned for one problem, as plain arrays."""

    status: str
    energy: float | None
    spectrum: np.ndarray | None
    u: np.ndarray | None
    v: np.ndarray | None
    shift: np.ndarray | None


def outcome_of_result(result) -> Outcome:
    """From a ``MinimizationResult``."""
    m = result.map
    return Outcome(result.status.value, result.energy, np.asarray(result.spectrum),
                   np.asarray(m.u), np.asarray(m.v), np.asarray(m.shift))


def outcome_of_report(report: dict) -> Outcome:
    """From a JSON report as ``cli.run`` writes it."""

    def cmat(rows):
        return np.array([[complex(re, im) for re, im in row] for row in rows])

    m = report.get("map")
    spectrum = report.get("D_spectrum")
    return Outcome(
        report["status"],
        report.get("energy"),
        None if spectrum is None else np.asarray(spectrum, float),
        None if m is None else cmat(m["u"]),
        None if m is None else cmat(m["v"]),
        None if m is None else np.array([complex(re, im) for re, im in m["shift"]]),
    )


@dataclass(frozen=True)
class Hamiltonian:
    """Terms (creation, annihilation, coefficient), 1-based, in product order.

    ``adjoints`` holds terms whose adjoint is added, for specs that ask for
    Hermitian completion.
    """

    stats: str
    n_modes: int
    terms: tuple
    adjoints: tuple = ()

    @classmethod
    def from_poly(cls, poly) -> "Hamiltonian":
        terms = tuple((tuple(cr), tuple(an), complex(c)) for (cr, an), c in poly.items())
        return cls(poly.stats.value, poly.n_modes, terms)

    @classmethod
    def from_spec(cls, path: str) -> "Hamiltonian":
        """Read a spec file, adding the adjoint of each term whose mirror is absent."""
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        terms = [(tuple(t["creation"]), tuple(t["annihilation"]), complex(*t["coeff"]))
                 for t in data["terms"]]
        adjoints = ()
        if data.get("hermitian_complete", False):
            keys = {(tuple(sorted(cr)), tuple(sorted(an))) for cr, an, _ in terms}
            adjoints = tuple(
                (cr, an, c) for cr, an, c in terms
                if (tuple(sorted(an)), tuple(sorted(cr))) not in keys
            )
        return cls(data["statistics"], data["modes"], tuple(terms), adjoints)


class Space:
    """Occupation basis with ladder matrices.

    Fermions: all 2^n occupations, a_i carrying the Jordan-Wigner sign of the
    occupied modes before i.  Bosons: occupations of total at most ``nmax``.
    """

    def __init__(self, stats: str, n: int, nmax: int):
        self.n = n
        cap = 1 if stats == "fermi" else nmax
        occs = [o for o in itertools.product(range(cap + 1), repeat=n) if sum(o) <= nmax]
        self.occ = np.array(occs, dtype=np.int64)
        self.dim = len(occs)
        index = {o: k for k, o in enumerate(occs)}
        self.ann = []
        for i in range(n):
            rows, cols, vals = [], [], []
            for k, o in enumerate(occs):
                if o[i] == 0:
                    continue
                lower = o[:i] + (o[i] - 1,) + o[i + 1:]
                rows.append(index[lower])
                cols.append(k)
                if stats == "fermi":
                    vals.append(-1.0 if sum(o[:i]) % 2 else 1.0)
                else:
                    vals.append(math.sqrt(o[i]))
            self.ann.append(sp.csr_matrix((vals, (rows, cols)), shape=(self.dim, self.dim)))
        self.cre = [a.T.tocsr() for a in self.ann]
        self.eye = sp.identity(self.dim, dtype=complex, format="csr")

    def monomial(self, cr, an) -> sp.csr_matrix:
        out = self.eye
        for i in cr:
            out = out @ self.cre[i - 1]
        for i in an:
            out = out @ self.ann[i - 1]
        return out

    def operator(self, h: Hamiltonian) -> sp.csr_matrix:
        out = sp.csr_matrix((self.dim, self.dim), dtype=complex)
        for cr, an, c in h.terms:
            out = out + c * self.monomial(cr, an)
        for cr, an, c in h.adjoints:
            out = out + (c * self.monomial(cr, an)).conj().T
        return out.tocsr()

    def quasiparticles(self, o: Outcome) -> list:
        return [
            sum((o.u[i, j] * self.ann[j] + o.v[i, j] * self.cre[j] for j in range(self.n)),
                o.shift[i] * self.eye).tocsr()
            for i in range(self.n)
        ]

    def shells(self) -> np.ndarray:
        return self.occ.sum(axis=1)


def _lowest(mat: sp.csr_matrix) -> tuple[float, np.ndarray]:
    """Lowest eigenpair of a Hermitian matrix, dense when small."""
    if mat.shape[0] <= DENSE_LIMIT:
        w, vecs = np.linalg.eigh(mat.toarray())
        return float(w[0]), vecs[:, 0]
    # k=1 can stall on a higher eigenvalue; three Ritz pairs converge reliably
    v0 = np.ones(mat.shape[0], complex)
    w, vecs = eigsh(mat, k=3, which="SA", v0=v0, tol=1e-14)
    return float(np.min(w)), vecs[:, np.argmin(w)]


def state_space(h: Hamiltonian, o: Outcome):
    """Space, quasiparticle annihilators, null vector and its support.

    Bosonic states are sought among occupations of total at most N inside a
    space of total N + margin, where every ladder product below applies
    exactly.  The null vector minimizes sum_i |b_i psi|^2 over the inner
    space: that is a compression of the quasiparticle number operator, whose
    second eigenvalue is at least 1, so truncation cannot produce a spurious
    null vector.  N grows until the vector's weight in its two top shells is
    below TAIL_WEIGHT.
    """
    fermi = h.stats == "fermi"
    nmax = h.n_modes if fermi else 8
    margin = 0 if fermi else 2 + max(len(cr) for cr, _, _ in h.terms + h.adjoints)
    while True:
        space = Space(h.stats, h.n_modes, nmax + margin)
        inner = space.shells() <= nmax
        bs = space.quasiparticles(o)
        cols = [b[:, inner] for b in bs]
        number = sum((b.conj().T @ b for b in cols), sp.csr_matrix((cols[0].shape[1],) * 2))
        _, vec = _lowest(number.tocsr())
        psi = np.zeros(space.dim, complex)
        psi[inner] = vec / np.linalg.norm(vec)
        if fermi or np.sum(np.abs(psi[space.shells() >= nmax - 1]) ** 2) < TAIL_WEIGHT:
            return space, bs, psi, inner
        if nmax >= 60:
            raise ValueError("the state needs a truncation beyond 60 quanta")
        nmax += 4


def check(h: Hamiltonian, o: Outcome, name: str = "") -> list[str]:
    """Problems found with one converged outcome; an empty list means correct."""
    errs = []
    where = f"{name}: " if name else ""
    closed = CLOSED_FORMS.get(name)
    if closed is not None and o.status != closed[0]:
        return [f"{where}status {o.status!r}, expected {closed[0]!r}"]
    if o.status != "converged":
        return errs if closed is not None else [f"{where}status {o.status!r}"]
    space, bs, psi, inner = state_space(h, o)
    hmat = space.operator(h)
    hpsi = hmat @ psi
    energy = float(np.vdot(psi, hpsi).real)
    scale = max(1.0, abs(energy))
    if not abs(o.energy - energy) <= ENERGY_TOL * scale:
        errs.append(f"{where}energy {o.energy!r} but <psi|H|psi> = {energy!r}")
    ground, _ = _lowest(hmat[inner][:, inner])
    if o.energy < ground - ENERGY_TOL * scale:
        errs.append(f"{where}energy {o.energy!r} below the lowest eigenvalue {ground!r}")
    excited = [b.conj().T @ psi for b in bs]
    linear = max(abs(np.vdot(x, hpsi)) for x in excited)
    pairing = max(
        abs(np.vdot(bs[i].conj().T @ x, hpsi)) for i in range(h.n_modes) for x in excited
    )
    if not max(linear, pairing) <= BLOCK_TOL:
        errs.append(f"{where}linear block {linear:.2e}, anomalous block {pairing:.2e}")
    dmat = np.array([[np.vdot(x, hmat @ y) for y in excited] for x in excited])
    dmat -= energy * np.eye(h.n_modes)
    spectrum = np.linalg.eigvalsh((dmat + dmat.conj().T) / 2)
    if not np.max(np.abs(spectrum - np.sort(o.spectrum))) <= SPECTRUM_TOL:
        errs.append(f"{where}spectrum {list(o.spectrum)} but D gives {list(spectrum)}")
    if closed is not None:
        _, want_energy, want_spectrum = closed
        if not abs(o.energy - want_energy) <= CLOSED_FORM_TOL:
            errs.append(f"{where}energy {o.energy!r}, closed form {want_energy!r}")
        if not np.max(np.abs(np.sort(o.spectrum) - want_spectrum)) <= CLOSED_FORM_TOL:
            errs.append(f"{where}spectrum {list(o.spectrum)}, closed form {want_spectrum}")
    return errs

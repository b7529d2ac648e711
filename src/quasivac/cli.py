"""File-driven front end: parse Hamiltonian specs, run modes, emit reports.

A Hamiltonian spec is a JSON object

    {
      "statistics": "bose" | "fermi",
      "modes": <int>,
      "terms": [
        {"creation": [1, 1], "annihilation": [], "coeff": [0.3, 0.0]},
        ...
      ],
      "hermitian_complete": false
    }

with 1-based mode indices.  ``hermitian_complete`` (a boolean) adds the
adjoint of every term whose mirror is missing; the parsed polynomial must be
Hermitian afterwards, and every coefficient finite, with no sum or modulus
past the float range, or the spec is rejected.  A ``NaN`` or ``Infinity`` token anywhere in
a spec or report file fails its parse.

``run`` minimizes a spec and certifies a converged minimum; its report's
``oracle`` block is read from that certificate alone (``_oracle_payload``).
The certification's FD step and seed are constants (``variational.FD_STEP``
and ``CERTIFY_SEED``); the report's ``tolerances`` hold ``tol_grad`` and the
oracle's ``dimension_cap`` (schema ``quasivac-report/4``), at which
``certify`` re-runs the certification from the stored map, stationary to
``tol_grad``, and checks the stored energy against the oracle's.  A ``/3``
report re-runs at the defaults, so one written at a non-default
``--fd-step`` is not reproduced.  Reports are strict JSON.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import sys
from typing import Any

import numpy as np

from . import fock
from .bogoliubov import BogoliubovMap
from .errors import (
    DimensionCapError,
    HermiticityError,
    InvalidMapError,
    QuasivacError,
    SpecFormatError,
)
from .ordering import CompiledPolynomial
from .variational import (
    CertificationReport,
    MinimizeOptions,
    MinimizationResult,
    Mode,
    RunStatus,
    certify,
    check_certifiable,
    minimize,
    result_at,
)
from .wick import Statistics, WickPolynomial, _finalize

REPORT_SCHEMA = "quasivac-report/4"

#: Bound on a stored map's group defects, relative to max(1, ||u||_F^2); the
#: maps ``minimize`` reports on the corpus, dense and report problems read at
#: most 3.4e-15.
MAP_RTOL = 1e-8

#: Bound on |stored energy - <psi|H psi>|, relative to max(H's scale, |<psi|H psi>|).
ENERGY_RTOL = 1e-7


def _fail(path: str, message: str) -> SpecFormatError:
    return SpecFormatError(f"{path}: {message}")


def load_spec(path: str) -> dict:
    """A file's JSON object; a NaN or Infinity token is a SpecFormatError."""

    def non_finite(token: str):
        raise _fail(path, f"non-finite number {token}")

    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, parse_constant=non_finite)
    except FileNotFoundError:
        raise _fail(path, "file not found")
    except json.JSONDecodeError as exc:
        raise _fail(path, f"invalid JSON at line {exc.lineno}, column {exc.colno}")
    if not isinstance(data, dict):
        raise _fail(path, "top level must be an object")
    return data


def parse_hamiltonian(path: str) -> WickPolynomial:
    """Parse a spec file into a canonical polynomial (``_hamiltonian_of``)."""
    return _hamiltonian_of(load_spec(path), path)


def _hamiltonian_of(data: Any, path: str) -> WickPolynomial:
    """Check a spec object and build its canonical polynomial.

    ``path`` names the object in messages.  The object's own
    ``hermitian_complete`` asks for completion.  Raises SpecFormatError with
    term/field diagnostics, and HermiticityError when the (possibly
    completed) polynomial is not Hermitian.
    """
    if not isinstance(data, dict):
        raise _fail(path, "must be an object")
    for key in ("statistics", "modes", "terms"):
        if key not in data:
            raise _fail(path, f"missing required field '{key}'")
    stats_name = data["statistics"]
    if stats_name not in ("bose", "fermi"):
        raise _fail(path, f"statistics must be 'bose' or 'fermi', got {stats_name!r}")
    stats = Statistics(stats_name)
    n_modes = data["modes"]
    # exact types: a JSON boolean is an int subclass
    if type(n_modes) is not int or n_modes < 1:
        raise _fail(path, "modes must be a positive integer")
    if not isinstance(data["terms"], list):
        raise _fail(path, "terms must be a list")

    entries = []
    for pos, term in enumerate(data["terms"]):
        where = f"terms[{pos}]"
        if not isinstance(term, dict):
            raise _fail(path, f"{where} must be an object")
        for key in ("creation", "annihilation", "coeff"):
            if key not in term:
                raise _fail(path, f"{where} is missing '{key}'")
        creation = term["creation"]
        annihilation = term["annihilation"]
        coeff = term["coeff"]
        for name, lst in (("creation", creation), ("annihilation", annihilation)):
            if not isinstance(lst, list) or not all(type(i) is int for i in lst):
                raise _fail(path, f"{where}.{name} must be a list of integers")
            for i in lst:
                if i < 1 or i > n_modes:
                    raise _fail(path, f"{where}.{name}: index {i} outside 1..{n_modes}")
            if stats is Statistics.FERMI and len(set(lst)) != len(lst):
                raise _fail(path, f"{where}.{name}: repeated fermionic index")
        if (
            not isinstance(coeff, list)
            or len(coeff) != 2
            or not all(type(x) in (int, float) for x in coeff)
        ):
            raise _fail(path, f"{where}.coeff must be [re, im]")
        try:
            finite = all(map(math.isfinite, coeff))
        except OverflowError:  # an integer beyond the float range
            finite = False
        if not finite:
            raise _fail(path, f"{where}.coeff is not finite")
        entries.append((creation, annihilation, complex(coeff[0], coeff[1])))

    complete = data.get("hermitian_complete", False)
    if type(complete) is not bool:
        raise _fail(path, "hermitian_complete must be true or false")
    try:
        poly = WickPolynomial.from_terms(n_modes, stats, entries)
        if complete:
            poly = _hermitian_completion(poly)
        hermitian = poly.is_hermitian()
    except QuasivacError:
        raise
    except ValueError as exc:  # a sum, modulus or mirror difference past the range
        raise _fail(path, f"the terms overflow the float range: {exc}") from None
    if not hermitian:
        hint = "" if complete else " (hermitian_complete not requested)"
        raise HermiticityError(f"{path}: polynomial is not Hermitian{hint}")
    return poly


def _hermitian_completion(poly: WickPolynomial) -> WickPolynomial:
    """Add the adjoint of every term whose mirror key is absent."""
    terms = dict(poly.terms)
    for key, coeff in poly.adjoint().items():
        terms.setdefault(key, coeff)
    return _finalize(poly.n_modes, poly.stats, terms)


def serialize_hamiltonian(poly: WickPolynomial) -> dict:
    return {
        "statistics": poly.stats.value,
        "modes": poly.n_modes,
        "terms": [
            {
                "creation": list(cr),
                "annihilation": list(an),
                "coeff": [c.real, c.imag],
            }
            for (cr, an), c in poly.items()
        ],
    }


def _complex_pairs(a: np.ndarray) -> list:
    """[re, im] pairs of plain floats, nested as the array is."""
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _matrix_from_payload(rows: list) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows], dtype=complex)


def serialize_map(m: BogoliubovMap) -> dict:
    return {
        "u": _complex_pairs(m.u),
        "v": _complex_pairs(m.v),
        "shift": _complex_pairs(m.shift),
        "odd": m.odd,
        "statistics": m.stats.value,
    }


def map_from_payload(payload: dict) -> BogoliubovMap:
    """A stored map, checked as input from outside: ``odd`` is a boolean, the
    entries are finite, and the group defects ||u u^dag - s v v^dag - 1||_F
    and ||u v^T - s v u^T||_F (s the exchange sign) are at most ``MAP_RTOL``
    max(1, ||u||_F^2); a defect that is NaN or overflows fails too.  Raises
    InvalidMapError otherwise."""
    # exact type, as the spec's integers: a non-empty string is truthy
    if type(payload["odd"]) is not bool:
        raise InvalidMapError(f"odd must be true or false, got {payload['odd']!r}")
    m = BogoliubovMap(
        Statistics(payload["statistics"]),
        _matrix_from_payload(payload["u"]),
        _matrix_from_payload(payload["v"]),
        np.array([complex(re, im) for re, im in payload["shift"]], dtype=complex),
        odd=payload["odd"],
    )
    if not all(np.isfinite(a).all() for a in (m.u, m.v, m.shift)):
        raise InvalidMapError("map entries must be finite")
    sign = m.stats.sign
    # an overflow fails the check below, so numpy need not warn of it; the
    # defect is divided by the scale, not the bound multiplied, so that an
    # overflowed scale makes the ratio NaN
    with np.errstate(over="ignore", invalid="ignore"):
        scale = max(1.0, np.linalg.norm(m.u) ** 2)
        defects = {
            "u u^dag - s v v^dag - 1": np.linalg.norm(
                m.u @ m.u.conj().T - sign * m.v @ m.v.conj().T - np.eye(m.n_modes)) / scale,
            "u v^T - s v u^T": np.linalg.norm(m.u @ m.v.T - sign * m.v @ m.u.T) / scale,
        }
    for name, relative in defects.items():
        if not relative <= MAP_RTOL:
            raise InvalidMapError(f"map is not a Bogoliubov map: ||{name}||_F is "
                                  f"{relative:.3g} of max(1, ||u||_F^2)")
    return m


def _certificate(result: MinimizationResult, poly: WickPolynomial, mode: Mode,
                 dimension_cap: int) -> CertificationReport | str:
    """``certify``'s report, or why it was skipped: its basis exceeds the cap."""
    try:
        return certify(result, poly, mode, dimension_cap=dimension_cap)
    except DimensionCapError as exc:
        return str(exc)


def _certification_payload(cert: CertificationReport | str) -> dict:
    if isinstance(cert, str):
        return {**dict.fromkeys(("fd_check", "quadratic_check", "gauge_check", "passed")),
                "skipped_reason": cert}
    return {
        "fd_check": {
            "deviations": list(cert.fd_deviations),
            "tolerances": list(cert.fd_tolerances),
            "passed": cert.fd_passed,
        },
        "quadratic_check": (
            None
            if cert.quadratic_rel_errors is None
            else {
                "relative_errors": list(cert.quadratic_rel_errors),
                "passed": cert.quadratic_passed,
            }
        ),
        "gauge_check": {
            "deltas": {k: list(v) for k, v in cert.gauge_deltas.items()},
            "passed": cert.gauge_passed,
        },
        "passed": cert.passed,
        "skipped_reason": None,
    }


def _oracle_payload(cert: CertificationReport | str) -> dict:
    """The certificate's state data and ground energy, both from the state's
    box and parity sector, and the gap <psi|H psi> - ground energy."""
    if isinstance(cert, str):
        keys = ("expectation", "ground_energy", "gap", "state_cutoff", "tail_defect")
        return {**dict.fromkeys(keys), "skipped_reason": cert}
    return {
        "expectation": cert.expectation,
        "ground_energy": cert.ground_energy,
        "gap": cert.expectation - cert.ground_energy,
        "state_cutoff": cert.oracle_cutoff,
        "tail_defect": cert.tail_defect,
        "skipped_reason": None,
    }


def run(
    spec_path: str,
    mode: Mode,
    seed: int = 42,
    tol: float = MinimizeOptions.tol_grad,
    report_path: str | None = None,
    max_iterations: int = MinimizeOptions.max_iterations,
    multistarts: int | None = None,
    dimension_cap: int = fock.DEFAULT_DIMENSION_CAP,
) -> dict:
    """Minimize the specced Hamiltonian and assemble the JSON report.

    ``seed`` draws the random starts.  A converged minimum is certified at
    the constant FD step and seed, in a Fock box that grows until it holds
    the state, up to ``dimension_cap``; ``tolerances`` records the cap, so
    re-certifying the report (``certify_report``) reproduces its
    ``certification``.  The ``oracle`` block reads the certificate: the
    state's expectation, the exact ground energy in its box and parity
    sector, and the gap between them.
    """
    report: dict[str, Any] = {
        "schema": REPORT_SCHEMA,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "mode": mode.value,
        "seed": seed,
        "tolerances": {"tol_grad": tol, "dimension_cap": dimension_cap},
        "spec_path": spec_path,
        "status": None,
        "error": None,
    }
    try:
        poly = parse_hamiltonian(spec_path)
        report["hamiltonian"] = serialize_hamiltonian(poly)
        opts = MinimizeOptions(
            tol_grad=tol, seed=seed, max_iterations=max_iterations, multistarts=multistarts
        )
        result = minimize(poly, mode, opts)
        report["status"] = result.status.value
        report["energy"] = result.energy
        report["D"] = _complex_pairs(result.blocks.single_particle)
        report["D_spectrum"] = [float(x) for x in result.spectrum]
        report["residual_K"] = result.blocks.linear_norm
        report["residual_O"] = result.blocks.pairing_norm
        report["iterations"] = result.iterations
        report["n_starts"] = result.n_starts
        report["trace_summary"] = {
            "first_energy": float(result.trace[0, 0]),
            "final_energy": float(result.trace[-1, 0]),
            "final_residual": float(result.trace[-1, 1]),
            "evaluations": len(result.trace),
        }
        report["map"] = serialize_map(result.map)
        if result.status is RunStatus.CONVERGED:
            cert = _certificate(result, poly, mode, dimension_cap)
            report["certification"] = _certification_payload(cert)
            report["oracle"] = _oracle_payload(cert)
        else:
            report["certification"] = None
            report["oracle"] = None
    except QuasivacError as exc:
        report["status"] = "error"
        report["error"] = {"type": type(exc).__name__, "message": str(exc)}
    if report_path:
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")
    return report


def _recertify(report_path: str) -> tuple[float, float, CertificationReport | str]:
    """A stored report's energy, its H's ``scale`` and ``_certificate`` at
    its map and ``tolerances.dimension_cap``, with the constant FD step and
    seed; a ``quasivac-report/3`` report, which records no cap, re-runs at the
    default cap and ``tol_grad``.  Raises QuasivacError when the report is
    not converged, fails the spec checks, lacks a valid energy, map, mode,
    cap or ``tol_grad``, its H, map and mode disagree (``check_certifiable``),
    or its map's residual is not below ``tol_grad``."""
    report = load_spec(report_path)
    if report.get("status") != "converged":
        raise QuasivacError(f"report status is {report.get('status')!r}")
    poly = _hamiltonian_of(report.get("hamiltonian"), f"{report_path}: hamiltonian")
    try:
        energy = float(report["energy"])
        stored, mode = map_from_payload(report["map"]), Mode(report["mode"])
        tolerances = report.get("tolerances", {})
        cap = tolerances.get("dimension_cap", fock.DEFAULT_DIMENSION_CAP)
        if type(cap) is not int or cap < 1:
            raise ValueError(f"tolerances.dimension_cap {cap!r} is not a positive integer")
        tol = tolerances.get("tol_grad", MinimizeOptions.tol_grad)
        if type(tol) not in (int, float) or not (math.isfinite(tol) and tol >= 0):
            raise ValueError(f"tolerances.tol_grad {tol!r} is not a finite non-negative number")
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise _fail(report_path, f"malformed report ({type(exc).__name__}: {exc})") from None
    check_certifiable(poly, stored, mode)
    result = result_at(CompiledPolynomial.of(poly), stored)
    if not result.residual < tol:
        raise QuasivacError(f"the stored map is not stationary: its residual "
                            f"{result.residual:.3g} is not below tol_grad {tol:.3g}")
    return energy, poly.scale, _certificate(result, poly, mode, cap)


def certify_report(report_path: str) -> dict:
    """Re-run the certification battery for a stored converged report, at
    the dimension cap it was certified at, with the ``oracle`` block of the
    state it builds and an ``energy_check``: the stored energy against the
    oracle's <psi|H psi>, within ``ENERGY_RTOL`` max(H's scale, |<psi|H psi>|)
    (difference and ``passed`` null when the battery is skipped).  ``passed``
    is the battery's and the energy check's."""
    try:
        energy, scale, cert = _recertify(report_path)
    except QuasivacError as exc:
        return {"passed": False, "reason": str(exc)}
    out = _certification_payload(cert)
    check = {"stored": energy, "difference": None, "passed": None}
    if not isinstance(cert, str):
        check["difference"] = abs(energy - cert.expectation)
        check["passed"] = check["difference"] <= ENERGY_RTOL * max(scale, abs(cert.expectation))
        out["passed"] = out["passed"] and check["passed"]
    return {**out, "oracle": _oracle_payload(cert), "energy_check": check}


def _positive_float(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="quasivac",
        description="Minimize ladder-operator Hamiltonians over pure Gaussian states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_min = sub.add_parser("minimize", help="run a minimization and write a report")
    p_min.add_argument("spec", help="path to a Hamiltonian spec JSON file")
    p_min.add_argument(
        "--mode",
        required=True,
        choices=[m.value for m in Mode],
    )
    p_min.add_argument("--tol", type=_positive_float, default=MinimizeOptions.tol_grad)
    p_min.add_argument("--seed", type=int, default=42)
    p_min.add_argument("--report", default=None, help="write the JSON report here")
    p_min.add_argument("--max-iterations", type=_positive_int,
                       default=MinimizeOptions.max_iterations)
    p_min.add_argument("--multistarts", type=_positive_int, default=None)
    p_min.add_argument("--dimension-cap", type=_positive_int, default=fock.DEFAULT_DIMENSION_CAP)

    p_cert = sub.add_parser("certify", help="re-run the certification of a report")
    p_cert.add_argument("report")

    args = parser.parse_args(argv)
    if args.command == "minimize":
        report = run(
            args.spec,
            Mode(args.mode),
            seed=args.seed,
            tol=args.tol,
            report_path=args.report,
            max_iterations=args.max_iterations,
            multistarts=args.multistarts,
            dimension_cap=args.dimension_cap,
        )
        if not args.report:
            json.dump(report, sys.stdout, indent=2, sort_keys=True)
            sys.stdout.write("\n")
        else:
            print(f"report written to {args.report} (status: {report['status']})")
        return 0 if report["status"] != "error" else 1
    out = certify_report(args.report)
    json.dump(out, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0 if out.get("passed") else 1


if __name__ == "__main__":
    raise SystemExit(main())

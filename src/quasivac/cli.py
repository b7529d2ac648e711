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

with 1-based mode indices.  ``hermitian_complete`` (or the CLI flag) adds the
adjoint of every term whose mirror is missing; the parsed polynomial must be
Hermitian afterwards or the spec is rejected.

``run`` minimizes a spec and certifies a converged minimum; its report's
``oracle`` block is read from that certificate alone (``_oracle_payload``).
``verify`` and ``certify`` re-run the certification at a stored report's map,
at the ``fd_step`` its ``tolerances`` record.
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
    QuasivacError,
    SpecFormatError,
)
from .ordering import CompiledPolynomial
from .variational import (
    FD_STEP,
    HERMITIAN_TOL,
    CertificationReport,
    MinimizeOptions,
    MinimizationResult,
    Mode,
    RunStatus,
    certify,
    minimize,
    result_at,
)
from .wick import Statistics, WickPolynomial, _finalize

REPORT_SCHEMA = "quasivac-report/3"


def _fail(path: str, message: str) -> SpecFormatError:
    return SpecFormatError(f"{path}: {message}")


def load_spec(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise _fail(path, "file not found")
    except json.JSONDecodeError as exc:
        raise _fail(path, f"invalid JSON at line {exc.lineno}, column {exc.colno}")
    if not isinstance(data, dict):
        raise _fail(path, "top level must be an object")
    return data


def parse_hamiltonian(path: str, hermitian_complete: bool | None = None) -> WickPolynomial:
    """Parse a spec file into a canonical polynomial (``_hamiltonian_of``)."""
    return _hamiltonian_of(load_spec(path), path, hermitian_complete)


def _hamiltonian_of(data: Any, path: str, hermitian_complete: bool | None = None) -> WickPolynomial:
    """Check a spec object and build its canonical polynomial.

    ``path`` names the object in messages.  ``hermitian_complete=None``
    defers to the object's own flag; True forces completion.  Raises
    SpecFormatError with term/field diagnostics, and HermiticityError when
    the (possibly completed) polynomial is not Hermitian.
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
    if not isinstance(n_modes, int) or n_modes < 1:
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
            if not isinstance(lst, list) or not all(isinstance(i, int) for i in lst):
                raise _fail(path, f"{where}.{name} must be a list of integers")
            for i in lst:
                if i < 1 or i > n_modes:
                    raise _fail(path, f"{where}.{name}: index {i} outside 1..{n_modes}")
            if stats is Statistics.FERMI and len(set(lst)) != len(lst):
                raise _fail(path, f"{where}.{name}: repeated fermionic index")
        if (
            not isinstance(coeff, list)
            or len(coeff) != 2
            or not all(isinstance(x, (int, float)) for x in coeff)
        ):
            raise _fail(path, f"{where}.coeff must be [re, im]")
        entries.append((creation, annihilation, complex(coeff[0], coeff[1])))

    poly = WickPolynomial.from_terms(n_modes, stats, entries)
    complete = data.get("hermitian_complete", False) if hermitian_complete is None else hermitian_complete
    if complete:
        poly = _hermitian_completion(poly)
    if not poly.is_hermitian(HERMITIAN_TOL):
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
    return BogoliubovMap(
        Statistics(payload["statistics"]),
        _matrix_from_payload(payload["u"]),
        _matrix_from_payload(payload["v"]),
        np.array([complex(re, im) for re, im in payload["shift"]], dtype=complex),
        odd=payload["odd"],
    )


def _certificate(result: MinimizationResult, poly: WickPolynomial, mode: Mode,
                 **settings) -> CertificationReport | str:
    """``certify``'s report at the given settings, or why it was skipped:
    its basis exceeds the cap."""
    try:
        return certify(result, poly, mode, **settings)
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
    tol: float = 1e-8,
    report_path: str | None = None,
    hermitian_complete: bool | None = None,
    fd_step: float = FD_STEP,
    max_iterations: int = 5000,
    multistarts: int | None = None,
    dimension_cap: int = fock.DEFAULT_DIMENSION_CAP,
) -> dict:
    """Minimize the specced Hamiltonian and assemble the JSON report.

    ``seed`` draws the random starts.  A converged minimum is certified at
    ``certify``'s own seed, as ``certify_report`` does, so re-certifying the
    report, at the ``fd_step`` its ``tolerances`` record, reproduces its
    ``certification``; its Fock box grows until it holds the state, up to
    ``dimension_cap``.  The ``oracle`` block reads the certificate: the
    state's expectation, the exact ground energy in its box and parity
    sector, and the gap between them.
    """
    report: dict[str, Any] = {
        "schema": REPORT_SCHEMA,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "mode": mode.value,
        "seed": seed,
        "tolerances": {"tol_grad": tol, "fd_step": fd_step},
        "spec_path": spec_path,
        "status": None,
        "error": None,
    }
    try:
        poly = parse_hamiltonian(spec_path, hermitian_complete)
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
            cert = _certificate(result, poly, mode, fd_step=fd_step, dimension_cap=dimension_cap)
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
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return report


def _recertify(report_path: str, fd_step: float | None = None,
               seed: int = 1234) -> tuple[float, float, CertificationReport | str]:
    """A stored report's energy, the FD step and ``_certificate`` at its map:
    ``fd_step`` if given, else the report's own ``tolerances.fd_step``, else
    ``FD_STEP`` for a report written without one.  Raises QuasivacError when
    the report is not converged, fails the spec checks or lacks a valid
    energy, map, mode or stored step."""
    report = load_spec(report_path)
    if report.get("status") != "converged":
        raise QuasivacError(f"report status is {report.get('status')!r}")
    poly = _hamiltonian_of(report.get("hamiltonian"), f"{report_path}: hamiltonian")
    try:
        energy = float(report["energy"])
        stored, mode = map_from_payload(report["map"]), Mode(report["mode"])
        if fd_step is None:
            fd_step = report.get("tolerances", {}).get("fd_step", FD_STEP)
            if not (isinstance(fd_step, (int, float)) and math.isfinite(fd_step) and fd_step > 0):
                raise ValueError(f"tolerances.fd_step {fd_step!r} is not a positive number")
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise _fail(report_path, f"malformed report ({type(exc).__name__}: {exc})") from None
    result = result_at(CompiledPolynomial.of(poly), stored)
    return energy, fd_step, _certificate(result, poly, mode, fd_step=fd_step, seed=seed)


def verify_report(report_path: str, tol: float = 1e-6) -> dict:
    """Recompute the oracle numbers of a stored report and compare."""
    try:
        energy, _, cert = _recertify(report_path)
    except QuasivacError as exc:
        return {"passed": False, "reason": str(exc)}
    oracle = _oracle_payload(cert)
    if oracle["skipped_reason"] is not None:
        return {"passed": False, "reason": oracle["skipped_reason"]}
    difference = abs(oracle["expectation"] - energy)
    return {
        "engine_energy": energy,
        "oracle_expectation": oracle["expectation"],
        "difference": difference,
        "ground_energy": oracle["ground_energy"],
        "gap": oracle["gap"],
        "tolerance": tol,
        "passed": bool(difference < tol),
    }


def certify_report(report_path: str, fd_step: float | None = None, seed: int = 1234) -> dict:
    """Re-run the certification battery for a stored converged report, with
    the ``oracle`` block of the state it builds, at ``fd_step`` or by default
    at the step the report was certified at."""
    try:
        _, fd_step, cert = _recertify(report_path, fd_step, seed)
    except QuasivacError as exc:
        return {"passed": False, "reason": str(exc)}
    return {**_certification_payload(cert), "oracle": _oracle_payload(cert), "fd_step": fd_step}


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
    p_min.add_argument("--tol", type=_positive_float, default=1e-8)
    p_min.add_argument("--seed", type=int, default=42)
    p_min.add_argument("--report", default=None, help="write the JSON report here")
    p_min.add_argument("--hermitian-complete", action="store_true", default=None)
    p_min.add_argument("--fd-step", type=_positive_float, default=FD_STEP)
    p_min.add_argument("--max-iterations", type=_positive_int, default=5000)
    p_min.add_argument("--multistarts", type=_positive_int, default=None)
    p_min.add_argument("--dimension-cap", type=_positive_int, default=fock.DEFAULT_DIMENSION_CAP)

    p_ver = sub.add_parser("verify", help="re-run the oracle checks of a report")
    p_ver.add_argument("report")
    p_ver.add_argument("--tol", type=_positive_float, default=1e-6)

    p_cert = sub.add_parser("certify", help="re-run the certification battery")
    p_cert.add_argument("report")
    p_cert.add_argument("--fd-step", type=_positive_float, default=None,
                        help="default: the report's own tolerances.fd_step")
    p_cert.add_argument("--seed", type=int, default=1234)

    args = parser.parse_args(argv)
    if args.command == "minimize":
        report = run(
            args.spec,
            Mode(args.mode),
            seed=args.seed,
            tol=args.tol,
            report_path=args.report,
            hermitian_complete=args.hermitian_complete,
            fd_step=args.fd_step,
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
    if args.command == "verify":
        out = verify_report(args.report, tol=args.tol)
    else:
        out = certify_report(args.report, fd_step=args.fd_step, seed=args.seed)
    json.dump(out, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0 if out.get("passed") else 1


if __name__ == "__main__":
    raise SystemExit(main())

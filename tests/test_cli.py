"""Spec parsing, report generation and the command-line entry points."""

import gc
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from quasivac import MinimizeOptions, Statistics, WickPolynomial, cli, fock, minimize, wick
from quasivac.errors import HermiticityError, SpecFormatError
from quasivac.cli import (
    _hamiltonian_of,
    certify_report,
    main,
    parse_hamiltonian,
    run,
    serialize_hamiltonian,
    verify_report,
)
from quasivac.ordering import CompiledPolynomial
from quasivac.variational import Mode, result_at

from conftest import engine_builds, perfbench_module, random_bounded_hamiltonian
from references import max_abs_diff

REPO = Path(__file__).resolve().parent.parent
SPECS = REPO / "hamiltonians"


def write_spec(tmp_path, payload, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestParse:
    def test_single_term(self, tmp_path):
        path = write_spec(
            tmp_path,
            {
                "statistics": "bose",
                "modes": 1,
                "terms": [{"creation": [1], "annihilation": [1], "coeff": [1.0, 0.0]}],
            },
        )
        poly = parse_hamiltonian(path)
        assert len(poly) == 1
        assert poly.terms[((1,), (1,))] == 1.0

    def test_hermitian_completion_adds_conjugate(self, tmp_path):
        path = write_spec(
            tmp_path,
            {
                "statistics": "bose",
                "modes": 1,
                "hermitian_complete": True,
                "terms": [{"creation": [1, 1], "annihilation": [], "coeff": [0.3, 0.0]}],
            },
        )
        poly = parse_hamiltonian(path)
        assert poly.terms[((1, 1), ())] == 0.3
        assert poly.terms[((), (1, 1))] == 0.3

    def test_fermi_repeated_index_rejected(self, tmp_path):
        path = write_spec(
            tmp_path,
            {
                "statistics": "fermi",
                "modes": 2,
                "terms": [{"creation": [1, 1], "annihilation": [], "coeff": [1.0, 0.0]}],
            },
        )
        with pytest.raises(SpecFormatError, match="repeated"):
            parse_hamiltonian(path)

    def test_non_hermitian_without_flag_rejected(self, tmp_path):
        payload = {
            "statistics": "bose",
            "modes": 1,
            "terms": [{"creation": [1, 1], "annihilation": [], "coeff": [0.3, 0.0]}],
        }
        with pytest.raises(HermiticityError):
            parse_hamiltonian(write_spec(tmp_path, payload))
        payload["hermitian_complete"] = True
        assert parse_hamiltonian(write_spec(tmp_path, payload)) is not None

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400])
    def test_non_finite_coefficient_rejected(self, value, tmp_path):
        # json reads NaN, Infinity and integers past the float range; a NaN
        # a*a ran to unbounded_below with energy NaN, a 400-digit one raised
        # OverflowError
        path = write_spec(tmp_path, {
            "statistics": "bose", "modes": 1, "hermitian_complete": True,
            "terms": [{"creation": [1], "annihilation": [1], "coeff": [1.0, 0.0]},
                      {"creation": [1, 1], "annihilation": [], "coeff": [value, 0.0]}],
        })
        with pytest.raises(SpecFormatError, match=r"terms\[1\]\.coeff .*finite"):
            parse_hamiltonian(path)
        report = run(path, Mode.BOSE_EVEN)
        assert report["status"] == "error"
        assert report["error"]["type"] == "SpecFormatError"
        assert "terms[1]" in report["error"]["message"]

    def test_index_out_of_range(self, tmp_path):
        path = write_spec(
            tmp_path,
            {
                "statistics": "bose",
                "modes": 1,
                "terms": [{"creation": [2], "annihilation": [2], "coeff": [1.0, 0.0]}],
            },
        )
        with pytest.raises(SpecFormatError, match="outside"):
            parse_hamiltonian(path)

    def test_malformed_json_diagnostics(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"statistics": "bose",')
        with pytest.raises(SpecFormatError, match="line"):
            parse_hamiltonian(str(path))

    def test_round_trip(self, tmp_path):
        path = write_spec(
            tmp_path,
            {
                "statistics": "fermi",
                "modes": 2,
                "hermitian_complete": True,
                "terms": [
                    {"creation": [1], "annihilation": [1], "coeff": [1.0, 0.0]},
                    {"creation": [1, 2], "annihilation": [], "coeff": [0.5, -0.25]},
                ],
            },
        )
        poly = parse_hamiltonian(path)
        rebuilt = _hamiltonian_of(serialize_hamiltonian(poly), "payload")
        assert max_abs_diff(poly, rebuilt) == 0
        assert rebuilt.stats is Statistics.FERMI

    def test_spec_builds_as_from_terms(self, tmp_path):
        # a repeated key, a fermionic pair in both orders and completion:
        # the spec's terms, their mirrors added where missing, summed once
        terms = [([1], [1], 1.0), ([1], [1], 0.5), ([2, 1], [], 0.25 - 0.5j),
                 ([1, 2], [], 0.125), ([3], [2], 0.75 + 0.25j)]
        mirrors = [(an[::-1], cr[::-1], np.conj(c)) for cr, an, c in terms[2:]]
        payload = {"statistics": "fermi", "modes": 3, "hermitian_complete": True,
                   "terms": [{"creation": cr, "annihilation": an,
                              "coeff": [complex(c).real, complex(c).imag]}
                             for cr, an, c in terms]}
        poly = parse_hamiltonian(write_spec(tmp_path, payload))
        expected = WickPolynomial.from_terms(3, Statistics.FERMI, terms + mirrors)
        assert dict(poly.terms) == dict(expected.terms)
        assert list(poly.terms) == list(expected.terms)
        assert poly.terms[(1, 2), ()] == -0.125 + 0.5j

    def test_spec_is_built_in_one_pass(self, tmp_path, monkeypatch):
        # the polynomial is finalized a fixed number of times per parse, not
        # once per term
        calls = []
        original = wick._finalize

        def spy(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(wick, "_finalize", spy)
        counts = []
        for size in (4, 40):
            terms = [{"creation": [1 + k % 2], "annihilation": [1 + k % 2], "coeff": [1.0, 0.0]}
                     for k in range(size)]
            calls.clear()
            poly = parse_hamiltonian(write_spec(
                tmp_path, {"statistics": "bose", "modes": 2, "terms": terms}))
            assert dict(poly.terms) == {((1,), (1,)): size / 2, ((2,), (2,)): size / 2}
            counts.append(len(calls))
        assert counts[0] == counts[1]


class TestRun:
    def test_squeezed_report_content(self, tmp_path):
        report = run(
            str(SPECS / "squeezed_oscillator.json"),
            Mode.BOSE_EVEN,
            seed=7,
            tol=1e-9,
        )
        assert report["status"] == "converged"
        assert report["energy"] == pytest.approx(-0.1, abs=1e-6)
        assert report["D_spectrum"][0] == pytest.approx(0.8, abs=1e-6)
        assert report["residual_K"] + report["residual_O"] < 1e-8
        assert report["certification"]["passed"]
        assert report["certification"]["skipped_reason"] is None
        assert abs(report["oracle"]["gap"]) < 1e-6

    def test_trace_contract(self):
        # the library keeps the trace as one read-only (k, 2) float array,
        # and the report summarizes it in plain JSON numbers
        spec = str(SPECS / "squeezed_oscillator.json")
        h = parse_hamiltonian(spec)
        res = minimize(h, Mode.BOSE_EVEN, MinimizeOptions(tol_grad=1e-9))
        point = result_at(CompiledPolynomial(h), res.map)
        for result, rows in ((res, res.iterations + 1), (point, 1)):
            assert result.trace.dtype == np.float64
            assert result.trace.shape == (rows, 2)
            assert not result.trace.flags.writeable
            assert tuple(result.trace[-1]) == (result.energy, result.residual)
        summary = run(spec, Mode.BOSE_EVEN, tol=1e-9)["trace_summary"]
        assert summary == {
            "first_energy": res.trace[0, 0],
            "final_energy": res.energy,
            "final_residual": res.residual,
            "evaluations": res.iterations + 1,
        }
        assert [type(v) for v in summary.values()] == [float, float, float, int]

    def test_displaced_minimum_fits_the_oracle_box(self, tmp_path):
        # H = a*a + 3 (a* + a) is least, -9, at the coherent state of
        # amplitude 3, nine quanta on average: a default-cutoff box cuts off
        # 29% of its weight
        spec = write_spec(tmp_path, {
            "statistics": "bose", "modes": 1, "hermitian_complete": True,
            "terms": [{"creation": [1], "annihilation": [1], "coeff": [1.0, 0.0]},
                      {"creation": [1], "annihilation": [], "coeff": [3.0, 0.0]}],
        })
        report = run(spec, Mode.BOSE_FULL, tol=1e-9)
        assert report["status"] == "converged"
        assert report["energy"] == pytest.approx(-9.0, abs=1e-8)
        oracle = report["oracle"]
        assert oracle["state_cutoff"] > 10
        assert oracle["tail_defect"] < 1e-10
        assert oracle["expectation"] == pytest.approx(-9.0, abs=1e-8)
        # the exact ground state is the same coherent state, so the ground
        # energy solved in the state's box is -9 too
        assert oracle["ground_energy"] == pytest.approx(-9.0, abs=1e-8)
        assert report["certification"]["passed"]

    def test_oracle_gap_is_never_negative(self, tmp_path):
        # the ground energy is solved in the box and parity sector of the
        # minimum's state, which holds that state, so no converged report may
        # put the variational energy below it beyond rounding
        inputs = perfbench_module("inputs")
        checked, negative = [], []
        for spec in inputs.report_specs(str(REPO), str(tmp_path)):
            report = run(spec.path, spec.mode, tol=inputs.REPORT_TOL)
            oracle = report["oracle"]
            if report["status"] != "converged" or oracle["skipped_reason"] is not None:
                continue
            checked.append(spec.name)
            if oracle["gap"] < -1e-9 * max(1.0, abs(report["energy"])):
                negative.append((spec.name, oracle["gap"]))
        assert negative == []
        assert len(checked) == 14  # all 16 but unstable_oscillator and corpus-105

    @pytest.mark.parametrize("name", ["fermi_single_mode", "corpus-117", "corpus-119"])
    def test_fermi_odd_gap_is_taken_in_the_odd_sector(self, name, tmp_path):
        # a quadratic H has a Gaussian ground state in each parity sector: the
        # odd minimum is exact there, though the even sector lies lower
        inputs = perfbench_module("inputs")
        spec = next(s for s in inputs.report_specs(str(REPO), str(tmp_path)) if s.name == name)
        assert spec.mode is Mode.FERMI_ODD
        report = run(spec.path, spec.mode, tol=inputs.REPORT_TOL)
        assert report["status"] == "converged"
        assert report["oracle"]["gap"] == pytest.approx(0.0, abs=1e-12)
        assert report["oracle"]["ground_energy"] == pytest.approx(report["energy"], abs=1e-12)

    @pytest.mark.parametrize("name,mode", [
        ("squeezed_oscillator", Mode.BOSE_EVEN),
        ("displaced_oscillator", Mode.BOSE_FULL),
        ("bcs_two_mode", Mode.FERMI_EVEN),
        ("fermi_single_mode", Mode.FERMI_ODD),
    ])
    def test_report_holds_plain_json_types(self, name, mode):
        # exact types: a numpy float64 is a float subclass and would pass isinstance
        plain = (dict, list, str, int, float, bool, type(None))
        found = set()

        def walk(node):
            found.add(type(node))
            if isinstance(node, dict):
                assert all(type(k) is str for k in node)
                for value in node.values():
                    walk(value)
            elif isinstance(node, list):
                for value in node:
                    walk(value)

        report = run(str(SPECS / f"{name}.json"), mode, tol=1e-9)
        assert report["status"] == "converged"
        walk(report)
        assert found <= set(plain), found - set(plain)

    def test_bcs_report(self):
        report = run(str(SPECS / "bcs_two_mode.json"), Mode.FERMI_EVEN, seed=3, tol=1e-9)
        assert report["status"] == "converged"
        assert report["energy"] == pytest.approx(1 - math.sqrt(1.25), abs=1e-8)
        assert np.allclose(report["D_spectrum"], [math.sqrt(1.25)] * 2, atol=1e-6)
        assert abs(report["oracle"]["gap"]) < 1e-8

    def test_quartic_number_conserving_vacuum(self):
        report = run(str(SPECS / "quartic_number.json"), Mode.BOSE_EVEN, seed=1, tol=1e-10)
        assert report["status"] == "converged"
        assert abs(report["energy"]) < 1e-10
        assert report["residual_K"] + report["residual_O"] < 1e-10

    def test_unbounded_status(self):
        report = run(str(SPECS / "unstable_oscillator.json"), Mode.BOSE_EVEN, seed=1)
        assert report["status"] == "unbounded_below"
        assert report["certification"] is None

    def test_certification_skipped_when_basis_exceeds_cap(self):
        report = run(
            str(SPECS / "squeezed_oscillator.json"), Mode.BOSE_EVEN, tol=1e-9, dimension_cap=8
        )
        assert report["status"] == "converged"
        assert report["error"] is None
        assert report["energy"] == pytest.approx(-0.1, abs=1e-6)
        cert = report["certification"]
        assert cert["passed"] is None
        assert all(cert[k] is None for k in ("fd_check", "quadratic_check", "gauge_check"))
        assert "exceeds the cap 8" in cert["skipped_reason"]
        assert report["oracle"]["skipped_reason"] is not None

    def test_determinism_modulo_timestamp(self, tmp_path):
        kwargs = dict(seed=11, tol=1e-8)
        r1 = run(str(SPECS / "bcs_two_mode.json"), Mode.FERMI_EVEN, **kwargs)
        r2 = run(str(SPECS / "bcs_two_mode.json"), Mode.FERMI_EVEN, **kwargs)
        r1.pop("timestamp")
        r2.pop("timestamp")
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)

    def test_error_encoded_in_report(self, tmp_path):
        path = write_spec(
            tmp_path,
            {
                "statistics": "bose",
                "modes": 1,
                "terms": [{"creation": [1, 1], "annihilation": [], "coeff": [0.3, 0.0]}],
            },
        )
        report = run(path, Mode.BOSE_EVEN)
        assert report["status"] == "error"
        assert report["error"]["type"] == "HermiticityError"

    def test_verify_round_trip(self, tmp_path):
        out = tmp_path / "report.json"
        report = run(
            str(SPECS / "squeezed_oscillator.json"),
            Mode.BOSE_EVEN,
            seed=7,
            tol=1e-9,
            report_path=str(out),
        )
        result = verify_report(str(out))
        assert result["passed"]
        assert result["difference"] < 1e-6
        assert result["oracle_expectation"] == report["oracle"]["expectation"]

    @pytest.mark.parametrize("name,mode", [
        ("squeezed_oscillator", Mode.BOSE_EVEN),
        ("displaced_oscillator", Mode.BOSE_FULL),
        ("fermi_single_mode", Mode.FERMI_ODD),
    ])
    def test_certify_reports_its_oracle(self, name, mode, tmp_path):
        # certify solves the ground energy in the state's box; it returns the
        # oracle block run wrote, read from the same certificate at the same map
        out = tmp_path / "report.json"
        report = run(str(SPECS / f"{name}.json"), mode, tol=1e-9, report_path=str(out))
        result = certify_report(str(out))
        assert result["passed"]
        assert result["oracle"] == report["oracle"]
        assert result["oracle"]["skipped_reason"] is None

    @pytest.mark.parametrize("name,mode,cap", [
        *((name, mode, fock.DEFAULT_DIMENSION_CAP)
          for name, mode in perfbench_module("inputs").EXAMPLE_MODES.items()),
        ("squeezed_oscillator", Mode.BOSE_EVEN, 8),
    ])
    def test_certify_reproduces_the_report_certification(self, name, mode, cap, tmp_path):
        # run certifies at the constant FD step and seed, whatever seed drew
        # the starts, and certify re-runs at the cap the report records: at
        # cap 8 the battery is skipped in both
        out = tmp_path / "report.json"
        report = run(str(SPECS / f"{name}.json"), mode, report_path=str(out), dimension_cap=cap)
        assert report["tolerances"] == {"tol_grad": 1e-8, "dimension_cap": cap}
        result = certify_report(str(out))
        if report["certification"] is None:
            assert report["status"] == "unbounded_below"
            assert result == {"passed": False, "reason": "report status is 'unbounded_below'"}
            return
        for check in ("fd_check", "quadratic_check", "gauge_check", "skipped_reason"):
            assert result[check] == report["certification"][check]
        assert result["passed"] is report["certification"]["passed"]

    def test_verify_and_certify_run_at_the_report_cap(self, tmp_path, monkeypatch):
        # the stored cap reaches certify, above the default too; a report
        # without one (schema /3) re-runs at the default cap
        caps = []
        original = cli.certify

        def spy(*args, dimension_cap):
            caps.append(dimension_cap)
            return original(*args, dimension_cap=dimension_cap)

        monkeypatch.setattr(cli, "certify", spy)
        path = self._malformed_report(
            tmp_path, lambda report: report["tolerances"].update(dimension_cap=8192))
        first = certify_report(path)
        assert verify_report(path)["passed"]
        stored = json.loads(Path(path).read_text())
        del stored["tolerances"]["dimension_cap"]
        Path(path).write_text(json.dumps(stored))
        assert certify_report(path) == first
        assert caps == [fock.DEFAULT_DIMENSION_CAP, 8192, 8192, fock.DEFAULT_DIMENSION_CAP]

    @pytest.mark.parametrize("value", [0, -8, 8.5, "8", None, True])
    def test_report_with_bad_dimension_cap_is_rejected(self, value, tmp_path):
        def edit(report):
            report["tolerances"]["dimension_cap"] = value

        path = self._malformed_report(tmp_path, edit)
        for result in (verify_report(path), certify_report(path)):
            assert result["passed"] is False
            assert "malformed report" in result["reason"]
            assert "dimension_cap" in result["reason"]

    def test_one_engine_per_run_verify_and_certify(self, tmp_path, monkeypatch):
        # minimize, result_at and certify share the polynomial's engine,
        # and no report outlives it
        built = engine_builds(monkeypatch)
        out = tmp_path / "report.json"
        report = run(str(SPECS / "displaced_oscillator.json"), Mode.BOSE_FULL,
                     report_path=str(out))
        counts = [len(built)]
        for again in (verify_report, certify_report):
            assert again(str(out))["passed"]
            counts.append(len(built))
        gc.collect()
        assert counts == [1, 2, 3]
        assert all(engine() is None for engine in built)
        assert report["certification"]["passed"]

    @pytest.mark.parametrize("name,mode,charts", [
        ("displaced_oscillator", Mode.BOSE_FULL, 31),
        ("squeezed_oscillator", Mode.BOSE_EVEN, 21),
    ])
    def test_one_fock_pass_per_report(self, name, mode, charts, monkeypatch):
        # the oracle state psi is built once, by certify, and the oracle
        # block reads it: the charts built are psi's and the probes' (one
        # per FD direction and sign, two per bose-full displacement)
        built = []
        original = fock.gaussian_vectors

        def spy(batch, *args, **kwargs):
            built.extend(batch)
            return original(batch, *args, **kwargs)

        monkeypatch.setattr(fock, "gaussian_vectors", spy)
        report = run(str(SPECS / f"{name}.json"), mode, tol=1e-9)
        assert report["certification"]["passed"]
        assert report["oracle"]["expectation"] == pytest.approx(report["energy"], abs=1e-10)
        assert len(built) == charts

    def _malformed_report(self, tmp_path, edit):
        out = tmp_path / "report.json"
        run(str(SPECS / "squeezed_oscillator.json"), Mode.BOSE_EVEN, tol=1e-9,
            report_path=str(out))
        report = json.loads(out.read_text())
        edit(report)
        out.write_text(json.dumps(report))
        return str(out)

    def test_report_with_index_zero_is_rejected(self, tmp_path, capsys):
        def edit(report):
            terms = report["hamiltonian"]["terms"]
            term = next(t for t in terms if t["creation"])
            term["creation"] = [0] * len(term["creation"])

        path = self._malformed_report(tmp_path, edit)
        for command in ("verify", "certify"):
            assert main([command, path]) == 1
            out = json.loads(capsys.readouterr().out)
            assert out["passed"] is False
            assert "index 0 outside 1..1" in out["reason"]

    def test_report_with_non_hermitian_hamiltonian_is_rejected(self, tmp_path):
        # dropping a*a* leaves its adjoint aa without a mirror
        def edit(report):
            terms = report["hamiltonian"]["terms"]
            terms[:] = [t for t in terms if t["annihilation"] or len(t["creation"]) != 2]

        path = self._malformed_report(tmp_path, edit)
        for result in (verify_report(path), certify_report(path)):
            assert result["passed"] is False
            assert "not Hermitian" in result["reason"]

    @pytest.mark.parametrize("field,value,reason", [
        ("map", None, "'map'"),
        ("mode", "bogus", "'bogus'"),
        ("energy", None, "'energy'"),
    ])
    def test_report_with_bad_field_is_rejected(self, field, value, reason, tmp_path, capsys):
        # a missing field (value None) or an unknown mode fails the check
        # with its reason instead of a traceback
        def edit(report):
            if value is None:
                del report[field]
            else:
                report[field] = value

        path = self._malformed_report(tmp_path, edit)
        for command in ("verify", "certify"):
            assert main([command, path]) == 1
            out = json.loads(capsys.readouterr().out)
            assert out["passed"] is False
            assert reason in out["reason"]

    @pytest.mark.parametrize("entry", ["nan", "1e300", "doubled"])
    def test_report_with_invalid_map_is_rejected(self, entry, tmp_path, capsys):
        # a stored map with a non-finite entry, one whose group relations
        # overflow, or a finite non-Bogoliubov map fails the check as a
        # malformed report instead of a traceback
        def edit(report):
            u = report["map"]["u"]
            if entry == "doubled":
                u[:] = [[[2 * x for x in pair] for pair in row] for row in u]
            else:
                u[0][0][0] = float(entry)

        path = self._malformed_report(tmp_path, edit)
        for command in ("verify", "certify"):
            assert main([command, path]) == 1
            out = json.loads(capsys.readouterr().out)
            assert out["passed"] is False
            assert "malformed report (InvalidMapError" in out["reason"]

    def test_verify_rejects_non_converged_report(self, tmp_path):
        out = tmp_path / "report.json"
        run(
            str(SPECS / "unstable_oscillator.json"),
            Mode.BOSE_EVEN,
            seed=1,
            report_path=str(out),
        )
        result = verify_report(str(out))
        assert not result["passed"]
        assert "unbounded_below" in result["reason"]

    def test_verify_reports_skipped_oracle(self, tmp_path):
        # three Bose modes whose state needs cutoff 18: 6859 > 4096 states
        h = random_bounded_hamiltonian(Statistics.BOSE, 3, np.random.default_rng(105))
        spec = write_spec(tmp_path, serialize_hamiltonian(h))
        out = tmp_path / "report.json"
        report = run(spec, Mode.BOSE_EVEN, tol=1e-9, report_path=str(out))
        assert report["status"] == "converged"
        assert report["certification"]["skipped_reason"] is not None
        result = verify_report(str(out))
        assert not result["passed"]
        assert "exceeds the cap" in result["reason"]


class TestCommandLine:
    def cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "quasivac", *args],
            capture_output=True,
            text=True,
            cwd=str(REPO),
        )

    def test_minimize_verify_certify(self, tmp_path):
        out = tmp_path / "report.json"
        res = self.cli(
            "minimize",
            str(SPECS / "squeezed_oscillator.json"),
            "--mode",
            "bose-even",
            "--tol",
            "1e-9",
            "--seed",
            "42",
            "--report",
            str(out),
        )
        assert res.returncode == 0, res.stderr
        report = json.loads(out.read_text())
        assert report["status"] == "converged"
        assert report["energy"] == pytest.approx(-0.1, abs=1e-6)

        verify = self.cli("verify", str(out))
        assert verify.returncode == 0, verify.stderr
        payload = json.loads(verify.stdout)
        assert payload["passed"]

        cert = self.cli("certify", str(out))
        assert cert.returncode == 0, cert.stderr
        payload = json.loads(cert.stdout)
        assert payload["passed"]

    def test_minimize_stdout_when_no_report_path(self):
        res = self.cli(
            "minimize",
            str(SPECS / "bcs_two_mode.json"),
            "--mode",
            "fermi-even",
            "--seed",
            "1",
        )
        assert res.returncode == 0, res.stderr
        report = json.loads(res.stdout)
        assert report["status"] == "converged"

    @pytest.mark.parametrize("args", [
        ("minimize", "--multistarts", "-3"),
        ("minimize", "--multistarts", "0"),
        ("minimize", "--dimension-cap", "0"),
        ("minimize", "--max-iterations", "-1"),
        ("minimize", "--tol", "-1", "--max-iterations", "3"),
        ("minimize", "--tol", "inf", "--max-iterations", "3"),
        ("verify", "--tol", "nan"),
    ])
    def test_bad_numbers_are_usage_errors(self, args, capsys):
        # rejected while the arguments are parsed: the report path is not read
        command, *options = args
        target = ([str(SPECS / "squeezed_oscillator.json"), "--mode", "bose-even"]
                  if command == "minimize" else ["missing.json"])
        with pytest.raises(SystemExit) as exc:
            main([command, *target, *options])
        assert exc.value.code == 2
        assert "must " in capsys.readouterr().err

    def test_cutoff_is_not_an_option(self, capsys):
        # the oracle's box is worked out from the state, so there is no knob
        with pytest.raises(SystemExit) as exc:
            main(["minimize", str(SPECS / "squeezed_oscillator.json"), "--mode", "bose-even",
                  "--cutoff", "12"])
        assert exc.value.code == 2
        assert "--cutoff" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ("minimize", "--fd-step", "1e-3"),
        ("minimize", "--hermitian-complete"),
        ("certify", "--fd-step", "1e-3"),
        ("certify", "--seed", "1234"),
    ])
    def test_certification_settings_are_not_options(self, args, capsys):
        # the FD step and the certification seed are constants, and a spec
        # asks for completion itself
        command, flag, *value = args
        target = ([str(SPECS / "squeezed_oscillator.json"), "--mode", "bose-even"]
                  if command == "minimize" else ["missing.json"])
        with pytest.raises(SystemExit) as exc:
            main([command, *target, flag, *value])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

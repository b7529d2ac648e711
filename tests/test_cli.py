"""Spec parsing, report generation and the command-line entry points."""

import gc
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasivac import MinimizeOptions, Statistics, WickPolynomial, cli, fock, minimize, wick
from quasivac.errors import HermiticityError, QuasivacError, SpecFormatError
from quasivac.cli import (
    _hamiltonian_of,
    certify_report,
    main,
    parse_hamiltonian,
    run,
    serialize_hamiltonian,
)
from quasivac.ordering import CompiledPolynomial
from quasivac.variational import HERMITIAN_TOL, Mode, result_at

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
        # a spec object can hold NaN and infinities, and json reads integers
        # past the float range; a NaN a*a ran to unbounded_below with energy
        # NaN, a 400-digit one raised OverflowError
        payload = {
            "statistics": "bose", "modes": 1, "hermitian_complete": True,
            "terms": [{"creation": [1], "annihilation": [1], "coeff": [1.0, 0.0]},
                      {"creation": [1, 1], "annihilation": [], "coeff": [value, 0.0]}],
        }
        with pytest.raises(SpecFormatError, match=r"terms\[1\]\.coeff .*finite"):
            _hamiltonian_of(payload, "payload")
        if isinstance(value, int):  # the float tokens fail the parse already
            report = run(write_spec(tmp_path, payload), Mode.BOSE_EVEN)
            assert report["status"] == "error"
            assert report["error"]["type"] == "SpecFormatError"
            assert "terms[1]" in report["error"]["message"]

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("field", ["coeff", "unread"])
    def test_non_finite_token_fails_the_parse(self, token, field, tmp_path):
        # json reads NaN and +-Infinity; one anywhere in a spec, even in a
        # field nothing reads, fails as the file is parsed, naming the token
        path = tmp_path / "spec.json"
        values = (token, "1.0") if field == "unread" else ("0", token)
        path.write_text('{"statistics": "bose", "modes": 1, "unread": %s, "terms": '
                        '[{"creation": [1], "annihilation": [1], "coeff": [%s, 0.0]}]}'
                        % values)
        with pytest.raises(SpecFormatError, match=f"non-finite number {token}$"):
            parse_hamiltonian(str(path))
        report = run(str(path), Mode.BOSE_EVEN)
        assert report["status"] == "error"
        assert report["error"]["type"] == "SpecFormatError"
        assert token in report["error"]["message"]

    @pytest.mark.parametrize("value", [math.nan, 1, 0, "yes", None, [True]])
    def test_hermitian_complete_must_be_a_boolean(self, value):
        # any truthy value turned completion on: a squeezed oscillator whose
        # a*a term had no mirror converged to -0.1 under a NaN
        payload = {
            "statistics": "bose", "modes": 1, "hermitian_complete": value,
            "terms": [{"creation": [1], "annihilation": [1], "coeff": [1.0, 0.0]},
                      {"creation": [1, 1], "annihilation": [], "coeff": [0.3, 0.0]}],
        }
        with pytest.raises(SpecFormatError, match="hermitian_complete must be true or false"):
            _hamiltonian_of(payload, "payload")

    @pytest.mark.parametrize("terms,complete,reason", [
        # two finite a*a terms of 1e308 sum to inf, which the polynomial
        # builder rejects with a ValueError naming the term
        ([("a*a", [1e308, 0.0])] * 2, True, r"term \(\(1, 1\), \(\)\)"),
        # finite parts whose modulus, or whose difference from the mirror
        # term's, passes the float range: abs() raises OverflowError
        ([("a*a", [1.5e308, 1.5e308])], True, "absolute value too large"),
        ([("a*a", [-0.7e308, 0.7e308]), ("aa", [0.7e308, 0.7e308])], False,
         "absolute value too large"),
    ])
    def test_overflowing_terms_are_a_spec_error(self, terms, complete, reason, tmp_path):
        # a SpecFormatError, not a traceback
        keys = {"a*a": ([1, 1], []), "aa": ([], [1, 1])}
        terms = [{"creation": keys[k][0], "annihilation": keys[k][1], "coeff": c}
                 for k, c in terms]
        path = write_spec(tmp_path, {
            "statistics": "bose", "modes": 1, "hermitian_complete": complete,
            "terms": [{"creation": [1], "annihilation": [1], "coeff": [1.0, 0.0]}, *terms],
        })
        with pytest.raises(SpecFormatError, match=f"overflow the float range.*{reason}"):
            parse_hamiltonian(path)
        report = run(path, Mode.BOSE_EVEN)
        assert report["status"] == "error"
        assert report["error"]["type"] == "SpecFormatError"

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


#: Coefficient parts: small numbers, every float (subnormals, +-inf and NaN
#: among them), the extremes and integers past the float range.
NUMBERS = st.one_of(
    st.floats(-4, 4), st.integers(-3, 3), st.floats(),
    st.sampled_from([math.inf, -math.inf, math.nan, 1e300, -1e300, 1e308, -1e308,
                     1.5e308, -1.5e308, 5e-324, -2.5e-320, 10**400, -10**400]),
)
JUNK = st.one_of(st.integers(-1, 4), st.floats(0, 4), st.text(max_size=2), st.none(),
                 st.booleans(), st.lists(st.integers(-1, 4), max_size=2))
INDICES = st.lists(st.integers(1, 3), max_size=3)
TERM = st.fixed_dictionaries(
    {"creation": INDICES, "annihilation": INDICES,
     "coeff": st.lists(NUMBERS, min_size=2, max_size=2)})
# a list of terms, or the list twice over, so that equal keys are summed
TERMS = st.lists(TERM, max_size=4).flatmap(lambda ts: st.sampled_from([ts, ts + ts]))
WELL_FORMED = st.fixed_dictionaries(
    {"statistics": st.sampled_from(["bose", "fermi"]), "modes": st.just(3), "terms": TERMS,
     "hermitian_complete": st.booleans()})
# a well-formed spec with one field, one term or one term's field replaced
# by junk, or dropped
MALFORMED = st.one_of(
    st.tuples(WELL_FORMED, st.sampled_from(
        ["statistics", "modes", "terms", "hermitian_complete"]), JUNK | NUMBERS),
    st.tuples(WELL_FORMED, st.sampled_from(["creation", "annihilation", "coeff", None]),
              JUNK | st.lists(JUNK, max_size=3)),
    st.tuples(WELL_FORMED, st.sampled_from(
        ["statistics", "modes", "terms", "hermitian_complete", "creation"]), st.just(KeyError)),
).map(lambda args: _spoil(*args))


def _spoil(spec, field, value):
    """The spec with a field of its own or of its first term set to value,
    or dropped when value is KeyError; field None replaces the first term."""
    target = spec
    if spec["terms"] and field in (None, "creation", "annihilation", "coeff"):
        if field is None:
            spec["terms"][0] = value
            return spec
        target = spec["terms"][0] = dict(spec["terms"][0])
    if value is KeyError:
        target.pop(field, None)
    elif field is not None:
        target[field] = value
    return spec


SPEC = st.one_of(WELL_FORMED, MALFORMED, JUNK)


@given(SPEC)
@settings(max_examples=250, deadline=None)
def test_spec_boundary_admits_only_finite_hermitian_polynomials(spec):
    # every spec object is either rejected with a reason, or built into a
    # Hermitian polynomial with finite coefficients
    try:
        poly = _hamiltonian_of(spec, "spec")
    except QuasivacError as exc:
        assert str(exc).strip() not in ("", "spec:")
        return
    assert poly.is_hermitian(HERMITIAN_TOL)
    assert all(math.isfinite(c.real) and math.isfinite(c.imag) for c in poly.terms.values())


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

    def test_report_specs_certify_as_reported(self, tmp_path):
        # certify re-runs a converged report's battery, a skipped one
        # included, returns the oracle block run wrote, read from the same
        # certificate at the same map, and passes its stored energy; the
        # report of a run that did not converge fails with the status as reason
        inputs = perfbench_module("inputs")
        skipped = []
        for spec in inputs.report_specs(str(REPO), str(tmp_path)):
            out = tmp_path / f"{spec.name}.out.json"
            report = run(spec.path, spec.mode, tol=inputs.REPORT_TOL, report_path=str(out))
            result = certify_report(str(out))
            if report["status"] != "converged":
                assert result == {"passed": False,
                                  "reason": f"report status is {report['status']!r}"}
                continue
            stored = dict(report["certification"], oracle=report["oracle"])
            assert {k: result[k] for k in stored} == stored, spec.name
            at_cap = stored["skipped_reason"] is not None
            skipped += [spec.name] * at_cap
            assert result["energy_check"]["passed"] is (None if at_cap else True)
        assert skipped == ["corpus-105"]

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

    @pytest.mark.parametrize("moved", [0.0, 1e-3])
    def test_certify_checks_the_stored_energy(self, moved, tmp_path, capsys):
        # the stored energy must lie within ENERGY_TOL of <psi|H psi>: a
        # report whose energy was moved by 1e-3 fails, though its battery
        # passes
        out = tmp_path / "report.json"
        report = run(str(SPECS / "squeezed_oscillator.json"), Mode.BOSE_EVEN, seed=7,
                     tol=1e-9, report_path=str(out))
        stored = json.loads(out.read_text())
        stored["energy"] += moved
        out.write_text(json.dumps(stored))
        assert main(["certify", str(out)]) == (1 if moved else 0)
        result = json.loads(capsys.readouterr().out)
        check = result["energy_check"]
        assert check["stored"] == report["energy"] + moved
        assert check["difference"] == abs(check["stored"] - report["oracle"]["expectation"])
        assert check["passed"] is (check["difference"] < cli.ENERGY_TOL) is (not moved)
        assert result["passed"] is check["passed"]
        assert result["oracle"] == report["oracle"]
        for key in ("fd_check", "quadratic_check", "gauge_check", "skipped_reason"):
            assert result[key] == report["certification"][key]
        assert report["certification"]["passed"]

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
        assert result["oracle"] == report["oracle"]
        skipped = report["certification"]["skipped_reason"] is not None
        assert result["energy_check"]["passed"] is (None if skipped else True)

    def test_certify_runs_at_the_report_cap(self, tmp_path, monkeypatch):
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
        assert first["passed"] and first["energy_check"]["passed"]
        stored = json.loads(Path(path).read_text())
        del stored["tolerances"]["dimension_cap"]
        Path(path).write_text(json.dumps(stored))
        assert certify_report(path) == first
        assert caps == [fock.DEFAULT_DIMENSION_CAP, 8192, fock.DEFAULT_DIMENSION_CAP]

    @pytest.mark.parametrize("value", [0, -8, 8.5, "8", None, True])
    def test_report_with_bad_dimension_cap_is_rejected(self, value, tmp_path):
        def edit(report):
            report["tolerances"]["dimension_cap"] = value

        result = certify_report(self._malformed_report(tmp_path, edit))
        assert result["passed"] is False
        assert "malformed report" in result["reason"]
        assert "dimension_cap" in result["reason"]

    def test_one_engine_per_run_and_certify(self, tmp_path, monkeypatch):
        # minimize, result_at and certify share the polynomial's engine,
        # and no report outlives it
        built = engine_builds(monkeypatch)
        out = tmp_path / "report.json"
        report = run(str(SPECS / "displaced_oscillator.json"), Mode.BOSE_FULL,
                     report_path=str(out))
        counts = [len(built)]
        assert certify_report(str(out))["passed"]
        counts.append(len(built))
        gc.collect()
        assert counts == [1, 2]
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
        assert main(["certify", path]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["passed"] is False
        assert "index 0 outside 1..1" in out["reason"]

    def test_report_with_non_hermitian_hamiltonian_is_rejected(self, tmp_path):
        # dropping a*a* leaves its adjoint aa without a mirror
        def edit(report):
            terms = report["hamiltonian"]["terms"]
            terms[:] = [t for t in terms if t["annihilation"] or len(t["creation"]) != 2]

        result = certify_report(self._malformed_report(tmp_path, edit))
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
        assert main(["certify", path]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["passed"] is False
        assert reason in out["reason"]

    @pytest.mark.parametrize("entry", ["1e999", "1e300", "doubled"])
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
        # json writes inf as the token Infinity, which fails the parse, and
        # reads the literal 1e999 as inf
        Path(path).write_text(Path(path).read_text().replace("Infinity", "1e999"))
        assert main(["certify", path]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["passed"] is False
        assert "malformed report (InvalidMapError" in out["reason"]

    def test_certify_reports_skipped_oracle(self, tmp_path, capsys):
        # three Bose modes whose state needs cutoff 18: 6859 > 4096 states;
        # the skipped battery has no verdict, which exits 1 too
        h = random_bounded_hamiltonian(Statistics.BOSE, 3, np.random.default_rng(105))
        spec = write_spec(tmp_path, serialize_hamiltonian(h))
        out = tmp_path / "report.json"
        report = run(spec, Mode.BOSE_EVEN, tol=1e-9, report_path=str(out))
        assert report["status"] == "converged"
        assert report["certification"]["skipped_reason"] is not None
        assert main(["certify", str(out)]) == 1
        result = json.loads(capsys.readouterr().out)
        assert result["passed"] is None
        assert "exceeds the cap" in result["skipped_reason"]
        assert result["skipped_reason"] == result["oracle"]["skipped_reason"]
        assert result["energy_check"] == {"stored": report["energy"], "difference": None,
                                          "passed": None}

    @pytest.mark.parametrize("edit", ["nan_energy", "inf_map", "overflowing_terms"])
    def test_report_with_non_finite_numbers_is_rejected(self, edit, tmp_path):
        # json writes NaN and Infinity tokens, which fail the parse; terms
        # whose sum overflows fail as in a spec, not with a ValueError
        def change(report):
            if edit == "nan_energy":
                report["energy"] = math.nan
            elif edit == "inf_map":
                report["map"]["v"][0][0][1] = -math.inf
            else:
                big = {"creation": [1, 1], "annihilation": [], "coeff": [1e308, 0.0]}
                report["hamiltonian"]["terms"] += [big, big]

        result = certify_report(self._malformed_report(tmp_path, change))
        assert result["passed"] is False
        reason = {"nan_energy": "non-finite number NaN",
                  "inf_map": "non-finite number -Infinity",
                  "overflowing_terms": "the terms overflow the float range"}[edit]
        assert reason in result["reason"]


class TestCommandLine:
    def cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "quasivac", *args],
            capture_output=True,
            text=True,
            cwd=str(REPO),
        )

    def test_minimize_certify(self, tmp_path):
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

        cert = self.cli("certify", str(out))
        assert cert.returncode == 0, cert.stderr
        payload = json.loads(cert.stdout)
        assert payload["passed"] and payload["energy_check"]["passed"]

        gone = self.cli("verify", str(out))
        assert gone.returncode == 2
        assert "invalid choice: 'verify'" in gone.stderr

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
    ])
    def test_bad_numbers_are_usage_errors(self, args, capsys):
        # rejected while the arguments are parsed: the spec is not read
        command, *options = args
        with pytest.raises(SystemExit) as exc:
            main([command, "missing.json", "--mode", "bose-even", *options])
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
        ("certify", "--tol", "1e-6"),
    ])
    def test_certification_settings_are_not_options(self, args, capsys):
        # the FD step, the certification seed and the stored energy's bound
        # are constants, and a spec asks for completion itself
        command, flag, *value = args
        target = ([str(SPECS / "squeezed_oscillator.json"), "--mode", "bose-even"]
                  if command == "minimize" else ["missing.json"])
        with pytest.raises(SystemExit) as exc:
            main([command, *target, flag, *value])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

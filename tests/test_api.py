"""The public surface: the exported names, the README quickstart and the
names the benchmark's tracer wraps."""

import ast
import contextlib
import dataclasses
import inspect
import io
import os
import re
from collections import Counter

import numpy as np
import pytest

import quasivac
from quasivac import cli

from conftest import perfbench_module

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
README = os.path.join(ROOT, "README.md")
SRC = os.path.join(ROOT, "src", "quasivac")

PUBLIC = {
    "WickPolynomial", "Statistics", "TransformedBlocks",
    "BogoliubovMap", "Generator", "compose", "inverse", "from_generator",
    "minimize", "certify", "residual_blocks", "MinimizeOptions", "MinimizationResult",
    "CertificationReport", "Mode", "RunStatus",
    "FockBasis", "quantize", "state_of_map", "ground_energy",
    "QuasivacError",
}


def test_all_is_the_documented_workflow():
    assert set(quasivac.__all__) == PUBLIC
    assert len(quasivac.__all__) == len(PUBLIC)
    for name in quasivac.__all__:
        assert getattr(quasivac, name) is not None


#: Definitions in src/ that nothing in src/ refers to, each kept for a reason.
UNREFERENCED = {
    # the CCR/CAR tests drive the ordering primitive through it
    "multiply_linear",
    # the read API of the exported WickPolynomial
    "coefficient",
    # the README quickstart's builder
    "add_term",
    # perfbench/spans.py wraps variational.product_vacuum_expectation
    "product_vacuum_expectation",
}


def _references(node):
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def test_src_defines_only_what_src_uses():
    # a function, class or method that no Name or Attribute of src/ refers to
    # outside its own body (imports do not count) and that __all__ does not
    # export is test-only code, which belongs under tests/
    trees = []
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                trees.append(ast.parse(fh.read()))
    refs = sum((_references(tree) for tree in trees), Counter())
    unused = {
        node.name
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in quasivac.__all__
        and refs[node.name] <= _references(node)[node.name]
    }
    assert unused == UNREFERENCED


def test_minimize_options_fields():
    fields = set(quasivac.MinimizeOptions.__dataclass_fields__)
    assert fields == {"tol_grad", "max_iterations", "multistarts", "seed"}


def test_certification_settings():
    # the FD step and the certification seed are constants and a spec asks
    # for completion itself: the oracle's dimension cap is the one setting
    # of a certification
    def params(fn):
        return list(inspect.signature(fn).parameters)

    assert params(quasivac.certify) == ["result", "h", "mode", "dimension_cap"]
    assert params(cli.run) == ["spec_path", "mode", "seed", "tol", "report_path",
                               "max_iterations", "multistarts", "dimension_cap"]
    assert params(cli.parse_hamiltonian) == ["path"]
    assert params(cli.certify_report) == ["report_path"]
    options = {}
    for command in ("minimize", "certify"):
        out = io.StringIO()
        with pytest.raises(SystemExit), contextlib.redirect_stdout(out):
            cli.main([command, "--help"])
        options[command] = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", out.getvalue()))
    assert options == {
        "minimize": {"--help", "--mode", "--tol", "--seed", "--report", "--max-iterations",
                     "--multistarts", "--dimension-cap"},
        "certify": {"--help"},
    }
    assert not hasattr(cli, "verify_report")


def test_command_line_defaults_are_minimize_options(monkeypatch):
    # run and the minimize subcommand read tol and max_iterations from
    # MinimizeOptions, so each default has one copy
    defaults = quasivac.MinimizeOptions()
    signature = inspect.signature(cli.run).parameters
    assert signature["tol"].default == defaults.tol_grad
    assert signature["max_iterations"].default == defaults.max_iterations
    calls = []
    monkeypatch.setattr(cli, "run", lambda *args, **kwargs: calls.append(kwargs) or {"status": "x"})
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["minimize", "spec.json", "--mode", "bose-even"]) == 0
    assert calls[0]["tol"] == defaults.tol_grad
    assert calls[0]["max_iterations"] == defaults.max_iterations
    assert calls[0]["seed"] == 42


def test_result_types_are_slotted():
    # a result and its map and blocks carry no per-instance __dict__, and
    # dataclasses.replace still rebuilds them through __post_init__
    h = quasivac.WickPolynomial.from_terms(
        1, quasivac.Statistics.BOSE, [([1], [1], 1.0), ([1, 1], [], 0.3), ([], [1, 1], 0.3)]
    )
    res = quasivac.minimize(h, quasivac.Mode.BOSE_EVEN)
    full = quasivac.residual_blocks(h, res.map)
    for obj, field, value in ((res, "iterations", 7), (res.map, "shift", [0.5]),
                              (res.blocks, "constant", 1j), (full, "linear_defect", 0.5)):
        assert not hasattr(obj, "__dict__")
        copy = dataclasses.replace(obj, **{field: value})
        assert type(copy) is type(obj)
        for f in dataclasses.fields(obj):
            expected = value if f.name == field else getattr(obj, f.name)
            assert np.array_equal(getattr(copy, f.name), expected)
    assert not dataclasses.replace(res.map, shift=[0.5]).shift.flags.writeable


def test_readme_quickstart_runs():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text[text.index("## Library quickstart"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, README, "exec"), {})
    lines = out.getvalue().splitlines()
    assert float(lines[0]) == pytest.approx(-0.1, abs=1e-9)
    assert float(lines[1].strip("[] ")) == pytest.approx(0.8, abs=1e-8)
    assert lines[-1] == "True"


def test_benchmark_tracer_targets_exist():
    # perfbench/spans.py replaces these attributes in place; a missing one
    # makes ``perfbench/run.py --trace 1`` raise AttributeError
    spans = perfbench_module("spans")
    assert spans.TARGETS
    for module, attr, name, _ in spans.TARGETS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} ({name})"
    originals = [(module, attr, getattr(module, attr)) for module, attr, _, _ in spans.TARGETS]
    tracer = spans.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert all(getattr(module, attr) is fn for module, attr, fn in originals)

"""The public surface: the exported names, the README quickstart and the
names the benchmark's tracer wraps."""

import contextlib
import importlib.util
import io
import os
import re

import pytest

import quasivac

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
README = os.path.join(ROOT, "README.md")

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


def test_minimize_options_fields():
    fields = set(quasivac.MinimizeOptions.__dataclass_fields__)
    assert fields == {"tol_grad", "max_iterations", "multistarts", "seed"}


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
    path = os.path.join(ROOT, "perfbench", "spans.py")
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for module, attr, name, _ in spans.TARGETS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} ({name})"

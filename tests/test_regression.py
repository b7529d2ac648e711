"""Regression reference: the corpus and dense problems keep their minima.

``data/minimize_reference.json`` holds the status, energy and spectrum of
``minimize`` on the 20 acceptance-corpus problems and the 4 dense two-body
problems of the benchmark, recorded from a tree whose results were checked
against the Fock oracle.  Every problem runs at ``TOL_GRAD``, far below its
own ``tol_grad``: D, and so the spectrum, is off the exact minimum to first
order in the final residual, and at the problems' own tolerances two paths
to one minimum read spectra up to 7.8e-10 apart.  Iteration and start
counts are left out, so that a change of the descent's path may move them;
the minimum it reaches may not move beyond 1e-10 relative.

Regenerate the file, after a deliberate change of the minima only, with

    PYTHONPATH=src python tests/test_regression.py
"""

import dataclasses
import json
import os

import numpy as np
import pytest

from quasivac import MinimizeOptions, minimize

from conftest import perfbench_module

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                    "minimize_reference.json")
RTOL = 1e-10
TOL_GRAD = 1e-11


def problems():
    inputs = perfbench_module("inputs")
    return inputs.corpus_problems() + inputs.dense_problems()


def record(p) -> dict:
    res = minimize(p.h, p.mode, dataclasses.replace(p.opts, tol_grad=TOL_GRAD))
    return {"status": res.status.value, "energy": res.energy,
            "spectrum": [float(x) for x in res.spectrum]}


@pytest.fixture(scope="module")
def reference():
    with open(DATA, encoding="utf-8") as fh:
        return json.load(fh)


def test_reference_covers_corpus_and_dense(reference):
    assert sorted(reference) == sorted(p.name for p in problems())
    assert len(reference) == 24


@pytest.mark.parametrize("p", problems(), ids=lambda p: p.name)
def test_minimum_matches_reference(reference, p):
    want, got = reference[p.name], record(p)
    assert got["status"] == want["status"]
    np.testing.assert_allclose(got["energy"], want["energy"], rtol=RTOL, atol=0)
    np.testing.assert_allclose(got["spectrum"], want["spectrum"], rtol=RTOL, atol=0)


@pytest.mark.parametrize("k", [-40, 40])
def test_scaled_problems_pass_the_hermiticity_guard(k):
    # 2**k scales every coefficient exactly, and with it the rounding-level
    # skew between mirror terms: the guard reads it relative to h.scale
    for p in problems():
        res = minimize(p.h.scaled(2.0**k), p.mode, MinimizeOptions(max_iterations=0, multistarts=1))
        assert res.iterations == 0


if __name__ == "__main__":
    os.makedirs(os.path.dirname(DATA), exist_ok=True)
    table = {p.name: record(p) for p in problems()}
    with open(DATA, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1)
        fh.write("\n")

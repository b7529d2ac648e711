"""Self-tests of the benchmark: inputs, independent checker, spans.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import dataclasses
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import numpy as np  # noqa: E402

import check  # noqa: E402
import inputs  # noqa: E402
from quasivac import minimize  # noqa: E402
from spans import Tracer  # noqa: E402


def test_corpus_equals_the_test_suite_corpus():
    sys.path.insert(0, os.path.join(ROOT, "tests"))
    try:
        from conftest import random_bounded_hamiltonian
    finally:
        sys.path.remove(os.path.join(ROOT, "tests"))
    problems = inputs.corpus_problems()
    assert [p.name for p in problems] == [f"corpus-{s}" for s in range(101, 121)]
    for problem, (stats, n, mode, quartic, linear, seed) in zip(problems, inputs.CORPUS_LAYOUT):
        theirs = random_bounded_hamiltonian(
            stats, n, np.random.default_rng(seed), quartic=quartic, linear=linear
        )
        assert dict(problem.h.terms) == dict(theirs.terms)
        assert problem.mode is mode
        assert problem.opts.seed == seed and problem.opts.tol_grad == 2.5e-9


def test_dense_sizes():
    sizes = [len(p.h) for p in inputs.dense_problems()]
    assert sizes == [64, 145, 57, 136]
    for p in inputs.dense_problems():
        assert p.h.is_hermitian(1e-12)


def test_order_depends_only_on_the_seed():
    items = list(range(20))
    assert inputs.ordered(items, 5) == inputs.ordered(items, 5)
    assert sorted(inputs.ordered(items, 5)) == items
    assert inputs.ordered(items, 5) != inputs.ordered(items, 6)


def _solved(k):
    p = inputs.corpus_problems()[k]
    return check.Hamiltonian.from_poly(p.h), check.outcome_of_result(minimize(p.h, p.mode, p.opts))


def test_checker_accepts_then_rejects_a_shifted_energy():
    h, out = _solved(0)
    assert check.check(h, out) == []
    off = dataclasses.replace(out, energy=out.energy + 1e-6)
    assert any("energy" in e for e in check.check(h, off))


def test_checker_rejects_maps_swapped_between_problems():
    (h1, out1), (h2, out2) = _solved(0), _solved(1)
    assert check.check(h2, out2) == []
    swap1 = dataclasses.replace(out1, u=out2.u, v=out2.v, shift=out2.shift)
    swap2 = dataclasses.replace(out2, u=out1.u, v=out1.v, shift=out1.shift)
    assert check.check(h1, swap1) != []
    assert check.check(h2, swap2) != []


def test_checker_reads_fermionic_and_completed_specs():
    path = os.path.join(ROOT, "hamiltonians", "bcs_two_mode.json")
    h = check.Hamiltonian.from_spec(path)
    assert len(h.adjoints) == 1
    space = check.Space("fermi", 2, 2)
    hmat = space.operator(h).toarray()
    assert np.allclose(hmat, hmat.conj().T)
    assert np.isclose(np.linalg.eigvalsh(hmat)[0], 1 - np.sqrt(1.25))


def test_spans_count_the_minimize_layers():
    p = inputs.corpus_problems()[1]
    tracer = Tracer()
    tracer.install()
    try:
        tracer.problem = p.name
        result = tracer.call("variational.minimize", minimize, p.h, p.mode, p.opts)
    finally:
        tracer.uninstall()
    m = tracer.layer_metrics(1)
    assert m["variational.iterations"] == result.iterations
    assert m["variational.starts"] == result.n_starts
    assert m["ordering.pve_calls"] > 0 and m["ordering.substitute_calls"] == 1
    assert m["variational.trials"] == m["bogoliubov.from_generator_calls"] > 0
    assert 0 < m["variational.minimize_self_s"] < m["variational.minimize_s"]
    assert m["fock.quantize_calls"] == 0
    assert all(s["problem"] == p.name for s in tracer.spans)

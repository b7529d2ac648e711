"""Spans around the calls into each layer of quasivac, recorded from outside.

``Tracer.install`` replaces public functions of ``ordering``, ``wick``,
``bogoliubov``, ``variational``, ``fock`` and ``cli`` in the module
namespaces they are called from with timing wrappers, and ``uninstall``
puts the originals back.  Each span records its name, the problem it belongs
to, start, end and parent.  Leaf calls made very often (the vacuum pairing
sums, generator exponentials and compositions) are summed as a count and a
time on their enclosing span instead of one record per call.  Spans stay in
memory until ``write``.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

from quasivac import cli, fock, variational

#: (module, attribute, span name, leaf)
TARGETS = [
    (variational, "product_vacuum_expectation", "ordering.pve", True),
    (variational, "from_generator", "bogoliubov.from_generator", True),
    (variational, "compose", "bogoliubov.compose", True),
    (fock, "compose", "bogoliubov.compose", True),
    (variational, "substitute_linear", "ordering.substitute", False),
    (variational, "extract_blocks", "wick.extract_blocks", False),
    (fock, "quantize", "fock.quantize", False),
    (fock, "state_of_map", "fock.state", False),
    (cli, "parse_hamiltonian", "cli.parse", False),
    (cli, "minimize", "variational.minimize", False),
    (cli, "certify", "variational.certify", False),
]


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[dict] = []
        self.stack: list[dict] = []
        self.problem: str | None = None
        self.saved: list[tuple] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span; a minimize span keeps the result's counts."""
        span = {"name": name, "problem": self.problem,
                "parent": self.stack[-1]["index"] if self.stack else None,
                "index": len(self.spans), "leaves": defaultdict(lambda: [0, 0.0])}
        self.spans.append(span)
        self.stack.append(span)
        span["start"] = self.clock()
        try:
            out = fn(*args, **kwargs)
        finally:
            span["end"] = self.clock()
            self.stack.pop()
        if name == "variational.minimize":
            span["iterations"] = out.iterations
            span["starts"] = out.n_starts
        return out

    def _wrap(self, name: str, fn, leaf: bool):
        if not leaf:
            return lambda *args, **kwargs: self.call(name, fn, *args, **kwargs)

        def timed(*args, **kwargs):
            t0 = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                slot = self.stack[-1]["leaves"][name]
                slot[0] += 1
                slot[1] += self.clock() - t0

        return timed

    def install(self) -> None:
        for module, attr, name, leaf in TARGETS:
            original = getattr(module, attr)
            self.saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, leaf))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self.saved):
            setattr(module, attr, original)
        self.saved.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                record = {k: v for k, v in span.items() if k != "leaves"}
                record["leaves"] = {k: {"calls": c, "s": s} for k, (c, s) in span["leaves"].items()}
                fh.write(json.dumps(record) + "\n")

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer totals divided by the number of rounds."""
        calls: dict[str, int] = defaultdict(int)
        busy: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        covered = [0.0] * len(self.spans)
        trials = iterations = starts = 0
        for span in self.spans:
            length = span["end"] - span["start"]
            calls[span["name"]] += 1
            busy[span["name"]] += length
            if span["parent"] is not None:
                covered[span["parent"]] += length
            for leaf, (count, seconds) in span["leaves"].items():
                calls[leaf] += count
                busy[leaf] += seconds
                covered[span["index"]] += seconds
            if span["name"] == "variational.minimize":
                trials += span["leaves"]["bogoliubov.from_generator"][0]
                iterations += span["iterations"]
                starts += span["starts"]
        for span in self.spans:
            own[span["name"]] += span["end"] - span["start"] - covered[span["index"]]
        raw = {
            "ordering.pve_calls": calls["ordering.pve"],
            "ordering.pve_s": busy["ordering.pve"],
            "ordering.substitute_calls": calls["ordering.substitute"],
            "ordering.substitute_s": busy["ordering.substitute"],
            "wick.extract_blocks_calls": calls["wick.extract_blocks"],
            "wick.extract_blocks_s": busy["wick.extract_blocks"],
            "bogoliubov.from_generator_calls": calls["bogoliubov.from_generator"],
            "bogoliubov.from_generator_s": busy["bogoliubov.from_generator"],
            "bogoliubov.compose_s": busy["bogoliubov.compose"],
            "variational.minimize_s": busy["variational.minimize"],
            "variational.minimize_self_s": own["variational.minimize"],
            "variational.iterations": iterations,
            "variational.starts": starts,
            "variational.trials": trials,
            "variational.certify_s": busy["variational.certify"],
            "variational.certify_self_s": own["variational.certify"],
            "fock.quantize_calls": calls["fock.quantize"],
            "fock.quantize_s": busy["fock.quantize"],
            "fock.state_calls": calls["fock.state"],
            "fock.state_s": busy["fock.state"],
            "cli.parse_s": busy["cli.parse"],
            "cli.run_self_s": own["cli.run"],
        }
        return {k: v / rounds for k, v in raw.items()}

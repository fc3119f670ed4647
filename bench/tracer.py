"""Tracing from outside the library: spans recorded around its public calls.

The library itself is not instrumented.  ``Tracer.install`` replaces each
listed public function with a wrapper that records a span (name, start,
end, parent), and rebinds the wrapper in every ``anyonsim`` module that
imported the original, so ``from .pauli import multiply`` call sites are
traced as well as ``tb.syndrome`` attribute calls.  ``uninstall`` restores
the originals, so untraced runs execute the unmodified code.

Self time of a span is its duration minus the durations of its direct
children.  Work counts are computed from call arguments (not counted by the
library) and are labelled as computed wherever they are reported.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time

# (module, attribute, span name); Tableau gate methods share one span name.
TRACED_FUNCTIONS = [
    ("diffusion", "sample_noise", "diffusion.sample_noise"),
    ("diffusion", "contrast_curve", "diffusion.contrast_curve"),
    ("tableau", "syndrome", "tableau.syndrome"),
    ("tableau", "expectation_pauli", "tableau.expectation_pauli"),
    ("tableau", "expectation_phase", "tableau.expectation_phase"),
    ("tableau", "prepare_ground_state", "tableau.prepare_ground_state"),
    ("tableau", "measure_pauli", "tableau.measure_pauli"),
    ("tableau", "apply_pauli_string", "tableau.apply_pauli_string"),
    ("tableau", "apply_controlled_string", "tableau.apply_controlled_string"),
    ("statevector", "from_tableau", "statevector.from_tableau"),
    ("statevector", "apply_pauli_exponential", "statevector.apply_pauli_exponential"),
    ("statevector", "apply_controlled_pauli", "statevector.apply_controlled_pauli"),
    ("statevector", "apply_gate", "statevector.apply_gate"),
    ("statevector", "apply_pauli_string", "statevector.apply_pauli_string"),
    ("statevector", "inner_product", "statevector.inner_product"),
    ("protocols", "run_interferometry", "protocols.run_interferometry"),
    ("protocols", "swap_in", "protocols.swap_in"),
    ("protocols", "swap_out", "protocols.swap_out"),
    ("protocols", "teleport_rotation", "protocols.teleport_rotation"),
    ("protocols", "probe_bloch", "protocols.probe_bloch"),
    ("pauli", "multiply", "pauli.multiply"),
    ("pauli", "from_string_path", "pauli.from_string_path"),
    ("lattice", "build_lattice", "lattice.build_lattice"),
    ("lattice", "shortest_string", "lattice.shortest_string"),
    ("lattice", "string_to_boundary", "lattice.string_to_boundary"),
    ("lattice", "logical_operators", "lattice.logical_operators"),
    ("lattice", "echo_mask", "lattice.echo_mask"),
]
TABLEAU_GATES = ("h", "s", "x_gate", "y_gate", "z_gate", "cx", "cz")
MODULES = ("diffusion", "tableau", "statevector", "protocols", "pauli", "lattice")
SPAN_NAMES = [name for _, _, name in TRACED_FUNCTIONS] + ["tableau.gates"]

AMP_BYTES = 16  # complex128


def _noise_samples(args):
    model, lattice = args[0], args[1]
    return {"diffusion.sample_noise.samples":
            lattice.n_edges * math.ceil(model.duration / model.dt)}


def _stabilizers(args):
    lattice = args[1]
    return {"tableau.syndrome.stabilizers": lattice.n_vertices + lattice.n_faces}


def _amps(args):
    amps = 1 << args[0].n
    return {"statevector.amps_touched": amps,
            "statevector.bytes_touched": AMP_BYTES * amps}


# Work counts computed from the arguments of a call, keyed by span name.
COUNTERS = {"diffusion.sample_noise": _noise_samples,
            "tableau.syndrome": _stabilizers}
COUNTERS.update({name: _amps for mod, _, name in TRACED_FUNCTIONS
                 if mod == "statevector"})
COUNTER_NAMES = ["diffusion.sample_noise.samples", "tableau.syndrome.stabilizers",
                 "statevector.amps_touched", "statevector.bytes_touched"]


def _stderr_max(result):
    return max(float(est.stderr.max()) for est in result)


# Health values read from return values: name -> (span, reader); max is kept.
HEALTH = {"diffusion.stderr_max": ("diffusion.contrast_curve", _stderr_max)}


class Tracer:
    """Spans and computed counts of one traced phase, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.health: dict[str, float] = {}
        self.recording = False
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def _wrap(self, fn, name):
        count = COUNTERS.get(name)
        health = [(key, read) for key, (span, read) in HEALTH.items() if span == name]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            spans, stack = self.spans, self.stack
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                for key, value in count(args).items():
                    self.counts[key] = self.counts.get(key, 0) + value
            for key, read in health:
                self.health[key] = max(self.health.get(key, 0.0), read(result))
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function and rebind it wherever it was imported."""
        from anyonsim import tableau

        for mod_name in MODULES:
            importlib.import_module(f"anyonsim.{mod_name}")
        modules = [m for key, m in sys.modules.items()
                   if key == "anyonsim" or key.startswith("anyonsim.")]
        for mod_name, attr, name in TRACED_FUNCTIONS:
            original = getattr(sys.modules[f"anyonsim.{mod_name}"], attr)
            wrapper = self._wrap(original, name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, original))
                        setattr(mod, key, wrapper)
        for gate in TABLEAU_GATES:
            original = vars(tableau.Tableau)[gate]
            self._saved.append((tableau.Tableau, gate, original))
            setattr(tableau.Tableau, gate, self._wrap(original, "tableau.gates"))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()

    # -- aggregation -------------------------------------------------------
    def layer_totals(self) -> dict[str, float]:
        """Per span name: calls and self seconds; per module: self seconds;
        plus the computed counts."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {f"{n}.{k}": 0.0 for n in SPAN_NAMES for k in ("calls", "self_s")}
        out.update({f"{m}.self_s": 0.0 for m in MODULES})
        out.update({k: 0.0 for k in COUNTER_NAMES})
        for (name, start, end, _), inner in zip(self.spans, child):
            own = (end - start) - inner
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += own
            out[f"{name.split('.')[0]}.self_s"] += own
        out.update(self.counts)
        return out

    def top_level_seconds(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

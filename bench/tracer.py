"""In-memory span recorder wrapped around the public functions of each layer.

The package has no tracing of its own, so the benchmark replaces layer
functions with timing wrappers for the duration of a traced batch and puts
the originals back afterwards.  ``cli`` binds names with ``from .simulate
import ...``, so a wrapper has to replace every module attribute of the
package that refers to the original, not only the one in the defining
module.  ``numpy.linalg.eigh`` and ``scipy.optimize.linprog`` are wrapped
as the kernels of the ``simulate`` and ``calibrate`` layers.

A span is ``[name, start, end, parent, flow]``; the layer is the part of the
name before the first dot.  Self time is a span's duration minus the
durations of its children (spans nest strictly: everything runs on one
thread).  Counters are recorded at the same boundaries, from argument
sizes, so they repeat exactly from run to run.
"""

from __future__ import annotations

import importlib
import math
import sys
import time
from collections import Counter, defaultdict


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _count_eigh(counts, args, kwargs):
    d = int(_arg(args, kwargs, 0, "a").shape[0])
    counts["simulate.eigh.dim3"] += d**3
    counts["simulate.eigh.bytes"] += 16 * d * d


def _count_offset_combos(counts, args, kwargs):
    # solve_intervals(array, target, assignments=None, offset_bound=8, ...)
    target = _arg(args, kwargs, 1, "target")
    bound = int(_arg(args, kwargs, 3, "offset_bound", 8))
    active = sum(1 for v in target.velocities if abs(v) > 1e-15)
    counts["calibrate.offset_combos"] += (2 * bound + 1) ** active if active else 0


def _count_lattice_candidates(counts, args, kwargs):
    # _scan_lattice(velocities, phases, modulus, tau_max, ...): the lattice
    # points t = (phi + m * modulus) / delta with t * delta between 0 and
    # tau_max * delta, generated per bond before any cut on candidates kept.
    velocities, phases, modulus, tau_max = (
        _arg(args, kwargs, i, key)
        for i, key in enumerate(("velocities", "phases", "modulus", "tau_max"))
    )
    for delta, phi in zip(velocities, phases):
        if abs(delta) < 1e-15:
            continue
        x_lo, x_hi = sorted((0.0, tau_max * delta))
        m_lo = math.ceil((x_lo - phi) / modulus - 1e-12)
        m_hi = math.floor((x_hi - phi) / modulus + 1e-12)
        counts["gates.lattice_candidates"] += max(0, m_hi - m_lo + 1)


def _count_artifact_bytes(counts, args, kwargs):
    counts["cli.artifact_bytes"] += len(_arg(args, kwargs, 2, "text").encode())


# (span name, module, attribute path, counter); the attribute path may name
# a method as "Class.method", and the counter sees the call's arguments.
TRACED = [
    ("cli.main", "dotgates.cli", "main", None),
    ("cli.cmd_check", "dotgates.cli", "cmd_check", None),
    ("cli.cmd_solve", "dotgates.cli", "cmd_solve", None),
    ("cli.cmd_simulate", "dotgates.cli", "cmd_simulate", None),
    ("cli.cmd_calibrate", "dotgates.cli", "cmd_calibrate", None),
    ("cli.cmd_apps", "dotgates.cli", "cmd_apps", None),
    ("cli.write", "dotgates.cli", "_write", _count_artifact_bytes),
    ("model.array_from_json", "dotgates.model", "array_from_json", None),
    ("gates.gate_from_json", "dotgates.gates", "GateSpec.from_json", None),
    ("gates.expand", "dotgates.gates", "GateSpec.expand", None),
    ("gates.mqcp_phase_solution", "dotgates.gates", "mqcp_phase_solution", None),
    ("gates.solve_parity", "dotgates.gates", "solve_parity", None),
    ("gates.assert_single_control", "dotgates.gates", "assert_single_control", None),
    ("gates.solve_dynamics", "dotgates.gates", "solve_dynamics", None),
    ("gates.scan_lattice", "dotgates.gates", "_scan_lattice", _count_lattice_candidates),
    ("gates.equiv_up_to_free_phase", "dotgates.gates", "equiv_up_to_free_phase", None),
    ("simulate.build_hamiltonian", "dotgates.simulate", "build_hamiltonian", None),
    ("simulate.simulate_gate", "dotgates.simulate", "simulate_gate", None),
    ("simulate.sweep_rows", "dotgates.simulate", "sweep_rows", None),
    ("simulate.optimal_phase_correction", "dotgates.simulate", "optimal_phase_correction", None),
    ("simulate.pulsed_evolution", "dotgates.simulate", "pulsed_evolution", None),
    ("simulate.eigh", "numpy.linalg", "eigh", _count_eigh),
    ("calibrate.choose_assignments", "dotgates.calibrate", "choose_assignments", None),
    ("calibrate.solve_intervals", "dotgates.calibrate", "solve_intervals", _count_offset_combos),
    ("calibrate.linprog", "scipy.optimize", "linprog", None),
    ("calibrate.kspace_path", "dotgates.calibrate", "kspace_path", None),
    ("calibrate.weave_dd", "dotgates.calibrate", "weave_dd", None),
    ("calibrate.extra_local_phases", "dotgates.calibrate", "extra_local_phases", None),
    ("calibrate.accumulated_bond_phases", "dotgates.calibrate", "accumulated_bond_phases", None),
    ("calibrate.pulse_matrix", "dotgates.calibrate", "PauliAssignment.matrix", None),
    ("calibrate.compose", "dotgates.calibrate", "PauliAssignment.compose", None),
    ("circuits.run_circuit", "dotgates.circuits", "run_circuit", None),
    ("circuits.order_reversal", "dotgates.circuits", "order_reversal", None),
    ("circuits.check_parity_run", "dotgates.circuits", "check_parity_run", None),
    ("circuits.parity_check_circuit", "dotgates.circuits", "parity_check_circuit", None),
]


class Tracer:
    """Records spans and counters while installed; see the module docstring."""

    # the counters the wrappers above record
    COUNTED = ("simulate.eigh.dim3", "simulate.eigh.bytes", "calibrate.offset_combos",
               "gates.lattice_candidates", "cli.artifact_bytes")

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.flow = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrapper(self, name, fn, counter):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.flow])
            stack.append(index)
            if counter is not None:
                counter(counts, args, kwargs)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Replace every reference to each traced function with a wrapper."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        for name, module_name, path, counter in TRACED:
            owner = importlib.import_module(module_name)
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrapper(name, original, counter)
            self._patch(owner, attr, wrapper)
            if cls_path:
                continue
            for mod_name, module in list(sys.modules.items()):
                if module is owner or not mod_name.startswith("dotgates"):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, attr, value):
        # save the raw attribute, so a classmethod goes back as a descriptor
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def summary(self, first_span: int = 0) -> dict[str, dict[str, float]]:
        """Calls and self time per span name, over spans from ``first_span``."""
        spans = self.spans[first_span:]
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= first_span:
                child[parent - first_span] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for (name, start, end, _, _), inner in zip(spans, child):
            out[name]["calls"] += 1
            out[name]["self_s"] += (end - start) - inner
        return dict(out)

"""Seeded input generators for the three workloads.

Every workload is a fixed batch of CLI flows.  The generator writes the
array and gate JSON files before any timing starts and records, per flow,
the command line, the exit code the flow must return, the truth its output
check needs and the number of distinct Hamiltonians its answer requires
(the denominator of ``simulate.eigh_per_array``).  The same seed gives the
same files; instances are never resampled.

Array conventions follow the acceptance suite: ladder Zeeman splittings
1.0 + 0.4 j with +/-0.05 jitter, |t|^2 in [0.72, 0.92] with random channel
phases, and inhomogeneous exchange J_scale * [0.6, 1.4].
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks

# J/eps sweep range of sweep_exact.  It stops at 1e-2, not 1e-1: at 1e-1 the
# ladder arrays at N = 9-10 leave the perturbative regime (minimum
# eigenvector overlap down to 0.29) and the whole sweep aborts with
# DegenerateSpectrum, which is an open item, not a timing question.
SWEEP_LO, SWEEP_HI = 1e-4, 1e-2

# Exchange scale of the calibrated arrays.  At 1e-3 the woven residual of
# 8-dot stars is 1e-2 at the median (second-order physics grows with J), so
# the acceptance tolerance of 1e-2 would fail on half the instances.
CALIBRATE_J = 2e-4


@dataclass
class Flow:
    label: str
    argv: list[str]
    expect_code: int
    out: Path
    check: Callable[["Flow"], list[str]]
    truth: dict = field(default_factory=dict)
    hamiltonians: int = 0
    notes: dict = field(default_factory=dict)


def ladder(n: int, rng) -> np.ndarray:
    return 1.0 + 0.4 * np.arange(n) + rng.uniform(-0.05, 0.05, n)


def bond_record(j: int, k: int, j_scale: float, rng) -> dict:
    t_sq = 0.72 + 0.2 * rng.random()
    phase_t, phase_s = rng.uniform(0.0, 2.0 * math.pi, 2)
    t = math.sqrt(t_sq) * complex(math.cos(phase_t), math.sin(phase_t))
    s = math.sqrt(1.0 - t_sq) * complex(math.cos(phase_s), math.sin(phase_s))
    return {
        "j": j,
        "k": k,
        "J": j_scale * (0.6 + 0.8 * rng.random()),
        "t": [t.real, t.imag],
        "s": [s.real, s.imag],
    }


def array_doc(n: int, edges, j_scale: float, rng) -> dict:
    return {
        "dots": [{"id": j, "zeeman": float(e)} for j, e in enumerate(ladder(n, rng))],
        "bonds": [bond_record(j, k, j_scale, rng) for j, k in edges],
    }


def star_edges(n):
    return [(0, k) for k in range(1, n)]


def chain_edges(n):
    return [(j, j + 1) for j in range(n - 1)]


def tree_edges(n, rng):
    return sorted((int(rng.integers(0, k)), k) for k in range(1, n))


def random_thetas(count, rng) -> np.ndarray:
    return rng.uniform(0.1, 2.0 * math.pi - 0.1, count)


def per_bond_gate(edges, thetas) -> dict:
    return {
        "factors": [
            {"control": j, "targets": [{"dot": k, "theta": float(th)}]}
            for (j, k), th in zip(edges, thetas)
        ]
    }


def star_gate(thetas) -> dict:
    return {
        "factors": [
            {"control": 0, "targets": [{"dot": k + 1, "theta": float(th)} for k, th in enumerate(thetas)]}
        ]
    }


class InputWriter:
    """Writes input files under ``workdir`` and collects the flows."""

    def __init__(self, workdir: Path):
        self.inputs = workdir / "inputs"
        self.outputs = workdir / "out"
        self.inputs.mkdir(parents=True, exist_ok=True)
        self.flows: list[Flow] = []

    def write(self, name: str, doc: dict) -> str:
        path = self.inputs / name
        path.write_text(json.dumps(doc))
        return str(path)

    def add(self, label, command, args, expect, check, truth=None, hamiltonians=0, files=()):
        out = self.outputs / label
        argv = [command, *args] + [x for pair in files for x in pair] + ["--out", str(out)]
        if command != "apps":
            argv += ["--jobs", "1"]
        self.flows.append(Flow(label, argv, expect, out, check, truth or {}, hamiltonians))

    def array_gate(self, label, array, gate):
        return (("--array", self.write(f"{label}.array.json", array)),
                ("--gate", self.write(f"{label}.gate.json", gate)))


def sweep_exact(b: InputWriter, rng, small: bool):
    """simulate --sweep on a star and a chain at N = 9 and a star at N = 10.

    The gate time is the acceptance suite's (pi/2) / mean |Delta|, passed
    with --tau: a time solved up to --tau-max can be long enough for the
    residues at J/eps = 1e-2 to wrap, which breaks the slope check."""
    plan = [("star", 4, 3), ("chain", 4, 3), ("star", 5, 2)] if small else \
           [("star", 9, 4), ("chain", 9, 4), ("star", 10, 2)]
    for i, (kind, n, steps) in enumerate(plan):
        label = f"sim-{kind}{n}-{i}"
        edges = star_edges(n) if kind == "star" else chain_edges(n)
        array = array_doc(n, edges, 1e-3, rng)
        vel = np.array([checks.velocity(r) for r in array["bonds"]])
        tau = (math.pi / 2) / float(np.mean(np.abs(vel)))
        gate = per_bond_gate(edges, np.mod(-2.0 * tau * vel, 2.0 * math.pi))
        b.add(label, "simulate", ["--sweep", f"{SWEEP_LO!r}:{SWEEP_HI!r}:{steps}", "--tau", repr(tau)],
              0, checks.check_simulate, {"sweep": (SWEEP_LO, SWEEP_HI, steps)},
              hamiltonians=1 + steps, files=b.array_gate(label, array, gate))


def stage_signs(n: int, edges) -> np.ndarray:
    """(stages, bonds) signs of the stage assignments the calibrator picks:
    the trivial one, then greedily every X-subset, smallest first, that
    raises the rank, until there are as many stages as bonds."""
    subsets = sorted(
        (tuple(j for j in range(n) if mask >> j & 1) for mask in range(1, 1 << n)),
        key=lambda s: (len(s), s),
    )
    rows = [np.ones(len(edges))]
    for subset in subsets:
        if len(rows) == len(edges):
            break
        flipped = np.isin(np.arange(n), subset)
        vec = np.array([-1.0 if flipped[j] != flipped[k] else 1.0 for j, k in edges])
        if np.linalg.matrix_rank(np.array(rows + [vec])) > len(rows):
            rows.append(vec)
    return np.array(rows)


def calibration_flow(b: InputWriter, label, n, edges, bound, rng):
    """calibrate --dd on a gate with one factor per bond, planted so that a
    schedule with positive stage durations reaches it within the offset bound.

    Random per-bond targets are often out of reach at small bounds (9-39 %
    of 9-dot instances at bound 2, 1-2 % of 8-dot ones at bound 3), so the
    generator draws the durations and derives the gate from them instead.
    """
    array = array_doc(n, edges, CALIBRATE_J, rng)
    velocities = np.array([checks.velocity(r) for r in array["bonds"]])
    bond_phase = velocities * (rng.uniform(0.2, 1.0, len(edges)) @ stage_signs(n, edges))
    bond_phase *= rng.uniform(0.6, 0.95) * bound * math.pi / np.max(np.abs(bond_phase))
    phases = np.mod(bond_phase, math.pi)
    thetas = np.mod(-2.0 * phases, 2.0 * math.pi)
    truth = {"bonds": edges, "velocities": velocities, "phases": phases, "n_dots": n}
    b.add(label, "calibrate", ["--dd", "--offset-bound", str(bound)], 0, checks.check_calibrate,
          truth, hamiltonians=1, files=b.array_gate(label, array, per_bond_gate(edges, thetas)))


def calibrate_dd(b: InputWriter, rng, small: bool):
    """calibrate --dd on inhomogeneous chains and stars: N = 9 at offset
    bound 2 and N = 8 at bound 3, the largest bounds under the search's cap
    of 4M offset combinations."""
    plan = [(4, 2, 1), (4, 3, 1)] if small else [(9, 2, 1), (8, 3, 2)]
    for n, bound, count in plan:
        for i in range(count):
            for kind, edges in (("chain", chain_edges(n)), ("star", star_edges(n))):
                calibration_flow(b, f"cal-{kind}{n}-m{bound}-{i}", n, edges, bound, rng)


def design_batch(b: InputWriter, rng, small: bool):
    """check/solve on stars, calibrate on 5-bond trees, and the two apps."""
    sizes = [3, 4] if small else list(range(3, 17)) * 2
    for i, n in enumerate(sizes):
        array = array_doc(n, star_edges(n), 1e-3, rng)
        thetas = random_thetas(n - 1, rng)
        theta_red = np.mod(checks.bits(n - 1) @ thetas, 2.0 * math.pi)
        truth = {
            "feasible": True,
            "theta_red": theta_red,
            "velocities": np.array([checks.velocity(r) for r in array["bonds"]]),
            "phases": np.mod(-0.5 * thetas, math.pi),
        }
        label = f"star{n}-{i}"
        files = b.array_gate(label, array, star_gate(thetas))
        b.add(f"check-{label}", "check", [], 0, checks.check_check, truth, files=files)
        # search the first ~100 lattice periods per bond: the default tau-max
        # makes the candidate count, and so the flow's cost, vary with the
        # random velocities, which moves the flows around flow_p50_s
        tau_max = 100 * math.pi / float(np.mean(np.abs(truth["velocities"])))
        b.add(f"solve-{label}", "solve", ["--tau-max", repr(tau_max)], 0, checks.check_solve,
              truth, files=files)
        # a doubly-controlled pi phase on qubits 0, 1, 2: never native
        raw = np.pi * np.all(checks.bits(n)[:, :3] == 1, axis=1)
        ccz = {"feasible": False, "theta_red": raw[1 << (n - 1):]}
        b.add(f"check-ccz-{label}", "check", [], 2, checks.check_check, ccz,
              files=(files[0], ("--gate", b.write(f"{label}.ccz.json", {"raw": raw.tolist()}))))
    # 14 of the 110 flows, so that flow_p90_s falls inside this group (the
    # offset search) rather than on the edge between it and the star flows
    for i in range(2 if small else 14):
        calibration_flow(b, f"cal-tree6-{i}", 6, tree_edges(6, rng), 8, rng)
    for n in ([3, 4] if small else range(3, 9)):
        b.add(f"reversal-{n}", "apps", ["reversal", "--n", str(n)], 0, checks.check_reversal, {"n": n})
    for targets in ([2] if small else (2, 3, 4)):
        for basis in ("z", "x"):
            seed = int(rng.integers(0, 2**31))
            b.add(f"parity-{targets}{basis}", "apps",
                  ["paritycheck", "--targets", str(targets), "--basis", basis,
                   "--trials", "32", "--seed", str(seed)],
                  0, checks.check_paritycheck, {"trials": 32})


GENERATORS = {"sweep_exact": sweep_exact, "calibrate_dd": calibrate_dd, "design_batch": design_batch}


def build(workload: str, seed: int, workdir: Path, small: bool = False) -> list[Flow]:
    """Write the inputs of one workload and return its flows."""
    rng = np.random.default_rng([seed, *workload.encode()])
    b = InputWriter(workdir)
    GENERATORS[workload](b, rng, small)
    return b.flows

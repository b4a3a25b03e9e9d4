"""Output checks for every benchmark flow, written independently of dotgates.

Each check reads the artifacts a flow wrote and the truth the generator
recorded for it, recomputes what it can with its own numpy, and returns a
list of problems (empty when the flow is correct).  Nothing here imports
the package under test, so a defect in it cannot also hide in its check.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

TWO_PI = 2.0 * math.pi
PARITY_TOL = 1e-9
RESIDUAL_TOL = 1e-9
LATTICE_TOL = 1e-9
BOUND_SLACK = 1e-12
SLOPE_WINDOW = (0.85, 1.15)
DD_RESIDUAL_TOL = 1e-2
DEFECT_TOL = 1e-9


def circular(a, b, modulus=TWO_PI):
    d = np.mod(np.asarray(a, dtype=float) - b, modulus)
    return np.minimum(d, modulus - d)


def bits(n):
    """(2^n, n) bit table, qubit 0 the most significant bit."""
    idx = np.arange(1 << n)
    return (idx[:, None] >> (n - 1 - np.arange(n))) & 1


def velocity(bond: dict) -> float:
    """Delta = (J / 2)(|t|^2 - |s|^2) of a bond record."""
    t2 = bond["t"][0] ** 2 + bond["t"][1] ** 2
    s2 = bond["s"][0] ** 2 + bond["s"][1] ** 2
    return 0.5 * bond["J"] * (t2 - s2)


def parity_residual(theta_red: np.ndarray, phi: np.ndarray) -> float:
    """Worst row of ``L phi - theta`` (mod 2pi); L's row for target bits a
    is (-1, (-1)^a_1, ..., (-1)^a_{N-1})."""
    n = len(phi)
    signs = 1 - 2 * bits(n - 1)
    lhs = -phi[0] + signs @ phi[1:]
    return float(np.max(circular(lhs, theta_red)))


def min_parity_residual(theta_red: np.ndarray) -> float:
    """Residual of the best solution of the parity rule (0 when feasible).

    Row zero and the single-bit rows fix phi_j = (theta(0) - theta(e_j)) / 2
    up to pi, which only moves the control phase by pi; both control
    branches are tried against every row.
    """
    n = int(theta_red.shape[0]).bit_length()
    phi = np.zeros(n)
    for j in range(n - 1):
        phi[1 + j] = 0.5 * (theta_red[0] - theta_red[1 << (n - 2 - j)])
    phi[0] = phi[1:].sum() - theta_red[0]
    flipped = phi.copy()
    flipped[0] += math.pi
    return min(parity_residual(theta_red, phi), parity_residual(theta_red, flipped))


def _load(out: Path, name: str):
    text = (out / name).read_text()
    return json.loads(text) if name.endswith(".json") else text


def check_check(flow) -> list[str]:
    doc = _load(flow.out, "check.json")
    theta = flow.truth["theta_red"]
    own = min_parity_residual(theta)
    problems = []
    if flow.truth["feasible"]:
        if own > PARITY_TOL:
            problems.append(f"generator's gate fails the parity rule ({own:.2e})")
        if doc["feasible"] is not True:
            problems.append("feasible gate reported infeasible")
        elif parity_residual(theta, np.asarray(doc["local_phases"])) > PARITY_TOL:
            problems.append("reported local phases do not solve L phi = theta")
    else:
        if own <= PARITY_TOL:
            problems.append("generator's infeasible gate solves the parity rule")
        if doc["feasible"] is not False or doc["second_control"] is not True:
            problems.append("CCZ-type gate not reported infeasible with a second control")
        if not doc["residual"] > PARITY_TOL:
            problems.append(f"infeasible verdict with residual {doc['residual']!r}")
    return problems


def _candidate_problems(cands, velocities, targets, modulus, branch) -> list[str]:
    problems = []
    for c in cands:
        own = float(np.max(circular(c["tau"] * velocities, targets, modulus)))
        if not abs(own - c["max_residual"]) <= RESIDUAL_TOL:
            problems.append(
                f"{branch} tau {c['tau']!r}: reported residual {c['max_residual']!r}, "
                f"recomputed {own!r}"
            )
    return problems


def check_solve(flow) -> list[str]:
    doc = _load(flow.out, "solve.json")
    velocities = flow.truth["velocities"]
    targets = np.mod(flow.truth["phases"], math.pi)
    problems = []
    if not doc["mod_pi"]:
        problems.append("no mod-pi candidates")
    if parity_residual(flow.truth["theta_red"], np.asarray(doc["local_phases"])) > PARITY_TOL:
        problems.append("reported local phases do not solve L phi = theta")
    problems += _candidate_problems(doc["mod_pi"], velocities, targets, math.pi, "mod_pi")
    problems += _candidate_problems(
        doc["mod_2pi"], velocities, np.mod(2.0 * targets, TWO_PI), TWO_PI, "mod_2pi"
    )
    return problems


def check_simulate(flow) -> list[str]:
    doc = _load(flow.out, "simulate.json")
    problems = []
    if doc["bound"] >= 0.0 and not doc["fidelity"] >= doc["bound"] - BOUND_SLACK:
        problems.append(f"fidelity {doc['fidelity']!r} below bound {doc['bound']!r}")
    lo, hi, steps = flow.truth["sweep"]
    lines = _load(flow.out, "sweep.csv").splitlines()
    if lines[0] != "j_over_eps,infidelity,bound,max_residue" or len(lines) != steps + 1:
        return problems + ["sweep table has the wrong header or row count"]
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    if not np.allclose(rows[:, 0], np.geomspace(lo, hi, steps), rtol=1e-12, atol=0.0):
        problems.append("sweep grid differs from the requested one")
    fidelity, bound = 1.0 - rows[:, 1], rows[:, 2]
    held = fidelity >= bound - BOUND_SLACK
    if not np.all(held | (bound < 0.0)):
        problems.append("a sweep point has fidelity below its nonnegative bound")
    slope = float(np.polyfit(np.log(rows[:, 0]), np.log(rows[:, 3]), 1)[0])
    if not SLOPE_WINDOW[0] <= slope <= SLOPE_WINDOW[1]:
        problems.append(f"residue slope {slope:.3f} outside 1 +/- 0.15")
    return problems


def schedule_phases(schedule: dict, bonds, velocities, n_dots) -> np.ndarray:
    """Per-bond accumulated phase of a schedule document: stage n runs with
    the dot signs left by the X/Y pulses of earlier stages."""
    sig = np.ones(n_dots)
    acc = np.zeros(len(bonds))
    ends = np.array(bonds)
    for stage in schedule["stages"]:
        acc += velocities * sig[ends[:, 0]] * sig[ends[:, 1]] * stage["tau"]
        for p in stage["pulse"]:
            if p["pauli"] in ("X", "Y"):
                sig[int(p["dot"])] *= -1
    return acc


def check_calibrate(flow) -> list[str]:
    truth = flow.truth
    record = _load(flow.out, "calibrate.json")
    problems = []
    for name, total_key in (("schedule.json", "total_time"), ("schedule_dd.json", "dd_total_time")):
        sched = _load(flow.out, name)
        acc = schedule_phases(sched, truth["bonds"], truth["velocities"], truth["n_dots"])
        off = float(np.max(circular(acc, truth["phases"], math.pi)))
        if not off <= LATTICE_TOL:
            problems.append(f"{name}: bond phases miss the target lattice by {off:.2e}")
        total = sum(st["tau"] for st in sched["stages"])
        if not math.isclose(total, record[total_key], rel_tol=1e-12, abs_tol=1e-12):
            problems.append(f"{name}: stage durations do not sum to {total_key}")
        if name == "schedule.json":
            reported = np.asarray(record["bond_phases_mod_pi"])
            if not float(np.max(circular(acc, reported, math.pi))) <= LATTICE_TOL:
                problems.append("reported bond phases differ from the schedule's")
    if not record["dd_equiv_residual"] <= DD_RESIDUAL_TOL:
        problems.append(f"woven residual {record['dd_equiv_residual']!r} above 1e-2")
    flow.notes["equiv_residual"] = record["equiv_residual"]
    return problems


def consecutive_ones_sign(a: int, n: int) -> int:
    s = format(a, f"0{n}b")
    return -1 if sum(1 for x, y in zip(s, s[1:]) if x == y == "1") % 2 else 1


NUMPY_REPR = "np.float64("


def _cell(text: str, flow) -> float:
    # Under numpy 2 the CLI writes each cell as repr(np.float64), for example
    # "np.float64(-0.0)", instead of a plain number.  That format defect is
    # reported through the flow's notes; the values are still checked.
    if text.startswith(NUMPY_REPR) and text.endswith(")"):
        flow.notes["numpy_repr_cells"] = True
        text = text[len(NUMPY_REPR):-1]
    return float(text)


def check_reversal(flow) -> list[str]:
    n = flow.truth["n"]
    text = _load(flow.out, f"reversal_{n}.csv")
    mat = np.array([[_cell(v, flow) for v in line.split(",")] for line in text.splitlines()])
    dim = 1 << n
    if mat.shape != (dim, dim):
        return [f"reversal matrix has shape {mat.shape}"]
    rev = np.array([int(format(a, f"0{n}b")[::-1], 2) for a in range(dim)])
    signs = mat[rev, np.arange(dim)]
    rest = mat.copy()
    rest[rev, np.arange(dim)] = 0.0
    problems = []
    if np.max(np.abs(rest)) > DEFECT_TOL or np.max(np.abs(np.abs(signs) - 1.0)) > DEFECT_TOL:
        problems.append("reversal matrix is not a signed bit-reversal permutation")
    expected = np.array([consecutive_ones_sign(a, n) for a in range(dim)])
    if np.any(np.sign(signs) != expected):
        problems.append("reversal signs disagree with the consecutive-ones parity")
    return problems


def check_paritycheck(flow) -> list[str]:
    doc = _load(flow.out, "paritycheck.json")
    runs = doc["runs"]
    problems = []
    if len(runs) != flow.truth["trials"]:
        problems.append(f"{len(runs)} runs, expected {flow.truth['trials']}")
    if any(r["outcome"] not in (1, -1) for r in runs):
        problems.append("an outcome is not +1 or -1")
    worst = max((r["defect"] for r in runs), default=0.0)
    if not worst <= DEFECT_TOL:
        problems.append(f"parity-check defect {worst:.2e} above 1e-9")
    if not doc["circuit"] or doc["circuit"][-1]["op"] != "measure":
        problems.append("transcript circuit does not end in a measurement")
    return problems

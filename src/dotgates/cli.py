"""Command-line front end: check, solve, simulate, calibrate, apps.

Inputs are the JSON array/gate documents; outputs are JSON reports and CSV
sweep tables under ``--out``.  Exit codes: 0 success (feasible), 2 target
infeasible or, for ``calibrate``, a schedule whose exact verify misses the
target by more than ``VERIFY_TOL``, 1 malformed input or bad selector.
Every flag has an environment-variable override prefixed ``DOTGATES_``
(for example ``DOTGATES_SEED``); identical inputs and seed produce
byte-identical outputs.

Run as ``python -m dotgates.cli <subcommand> ...``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import circuits
from .calibrate import (
    CalibrationTarget,
    InfeasibleSchedule,
    accumulated_bond_phases,
    choose_assignments,
    extra_local_phases,
    kspace_path,
    solve_intervals,
    weave_dd,
)
from .gates import (
    BondReading,
    GateSpec,
    PhaseVector,
    assert_single_control,
    equiv_up_to_free_phase,
    read_bonds,
    solve_dynamics,
)
from .model import DotArray, array_from_json
from .simulate import (
    DegenerateSpectrum,
    EigensolverFailure,
    Spectrum,
    simulate_gate,
    sweep_rows,
)


VERIFY_TOL = 1e-2  # equivalence residual a calibrated schedule must reach


def _env_default(name: str, fallback):
    value = os.environ.get(f"DOTGATES_{name}")
    return fallback if value is None else value


def _add_common(parser: argparse.ArgumentParser, need_gate: bool = True):
    parser.add_argument("--array", required=True, help="array JSON file")
    if need_gate:
        parser.add_argument("--gate", required=True, help="gate-spec JSON file")
    parser.add_argument("--out", default=_env_default("OUT", "."), help="output directory")
    parser.add_argument("--tol", type=float, default=float(_env_default("TOL", 1e-9)))
    parser.add_argument("--seed", type=int, default=int(_env_default("SEED", 0)))
    parser.add_argument(
        "--jobs", type=int, default=int(_env_default("JOBS", 1)),
        help="accepted for compatibility; sweeps run serially",
    )


def _load_array(path: str) -> DotArray:
    return array_from_json(Path(path).read_text())


def _load_gate(path: str) -> GateSpec:
    return GateSpec.from_json(Path(path).read_text())


def _write(out_dir: str, name: str, text: str) -> str:
    path = Path(out_dir)
    path.mkdir(parents=True, exist_ok=True)
    target = path / name
    target.write_text(text)
    return str(target)


def _infeasible_message(reading: BondReading) -> str:
    if reading.unbonded_pairs:
        return f"gate couples dot pairs {', '.join(map(str, reading.unbonded_pairs))} with no bond"
    return f"not one controlled phase per bond times a free phase (residual {reading.residual:.3e})"


def cmd_check(args) -> int:
    array = _load_array(args.array)
    target = _load_gate(args.gate).expand(array.n_dots)
    reading = read_bonds(array, target, args.tol)
    half = target.values.shape[0] // 2  # the one-control analysis needs dot 0 to control
    analysis = assert_single_control(target.values[half:]) if target.controlled else None
    report = {
        "feasible": reading.feasible,
        "residual": reading.residual,
        "second_control": None if analysis is None else analysis.second_control,
        "degenerate_two_qubit": None if analysis is None else analysis.degenerate_two_qubit,
        "local_phases": list(reading.local_phases) if reading.feasible else None,
    }
    if reading.unbonded_pairs:
        report["unbonded_pairs"] = [list(p) for p in reading.unbonded_pairs]
    _write(args.out, "check.json", json.dumps(report, indent=2))
    if reading.feasible:
        print("feasible; local phases:", report["local_phases"])
        return 0
    print(f"infeasible: {_infeasible_message(reading)}")
    return 2


def _candidate_times(array: DotArray, target: PhaseVector, args):
    """Bond reading and candidate gate times; None, after saying why, when
    the target is not native to the array."""
    reading = read_bonds(array, target, args.tol)
    if not reading.feasible:
        print(f"infeasible: {_infeasible_message(reading)}")
        return None
    return reading, solve_dynamics(array, reading.bond_phases, args.tau_max, args.tol)


def cmd_solve(args) -> int:
    array = _load_array(args.array)
    solved = _candidate_times(array, _load_gate(args.gate).expand(array.n_dots), args)
    if solved is None:
        return 2
    reading, candidates = solved
    report = {"local_phases": list(reading.local_phases)} | {
        branch: [{"tau": c.tau, "max_residual": c.max_residual} for c in cands[:10]]
        for branch, cands in (("mod_pi", candidates.mod_pi), ("mod_2pi", candidates.mod_2pi))
    }
    _write(args.out, "solve.json", json.dumps(report, indent=2))
    if not candidates.mod_pi:
        print("no candidate times within tau-max")
        return 2
    best = candidates.best("mod_pi")
    print(f"best tau {best.tau!r} (max per-bond residual {best.max_residual:.3e})")
    return 0


def cmd_simulate(args) -> int:
    array = _load_array(args.array)
    target = _load_gate(args.gate).expand(array.n_dots)
    if args.tau is None:
        solved = _candidate_times(array, target, args)
        if solved is None:
            print("pass --tau to simulate anyway")
            return 2
        _, candidates = solved
        if not candidates.mod_pi:
            print("no candidate times within tau-max")
            return 2
        tau = candidates.best("mod_pi").tau
    else:
        tau = args.tau
    report = simulate_gate(array, tau)
    diag = PhaseVector(np.angle(report.u_diag))
    _, _, equiv_residual = equiv_up_to_free_phase(diag, target, tol=args.tol)
    doc = json.loads(report.to_json())
    doc["tau"] = tau
    doc["equiv_residual_vs_target"] = equiv_residual
    _write(args.out, "simulate.json", json.dumps(doc, indent=2))
    if args.sweep is not None:
        lo, hi, steps = args.sweep.split(":")
        grid = np.geomspace(float(lo), float(hi), int(steps))
        rows, skipped = sweep_rows(array, tau, grid)
        lines = ["j_over_eps,infidelity,bound,max_residue"]
        lines += [f"{a!r},{b!r},{c!r},{d!r}" for a, b, c, d in rows]
        _write(args.out, "sweep.csv", "\n".join(lines) + "\n")
        if skipped:
            doc = [{"j_over_eps": x, "error": msg} for x, msg in skipped]
            _write(args.out, "sweep_skipped.json", json.dumps(doc, indent=2))
            print(f"skipped {len(skipped)} of {len(grid)} sweep points with a degenerate "
                  "spectrum (sweep_skipped.json)")
    print(f"fidelity {report.fidelity!r}, bound {report.bound!r}")
    return 0


def cmd_calibrate(args) -> int:
    array = _load_array(args.array)
    gate = _load_gate(args.gate).expand(array.n_dots)
    reading = read_bonds(array, gate, args.tol)
    if not reading.feasible:
        raise ValueError(_infeasible_message(reading))
    target = CalibrationTarget.for_array(array, reading.bond_phases)
    try:
        schedule = solve_intervals(
            array, target, choose_assignments(array), offset_bound=args.offset_bound
        )
    except InfeasibleSchedule as exc:
        print(f"infeasible: {exc}")
        return 2
    _write(args.out, "schedule.json", schedule.to_json())
    path = kspace_path(array, schedule, target, samples_per_stage=8)
    _write(args.out, "kspace.csv", path.to_csv())

    spectrum = Spectrum.of(array)  # shared by the base and the woven verify

    def verify(sched):
        pp = extra_local_phases(sched, array)
        stripped = spectrum.pulsed_diagonal(sched, pp.net)
        diag = PhaseVector(np.angle(stripped) - pp.free.expand().values)
        _, _, residual = equiv_up_to_free_phase(diag, gate, tol=VERIFY_TOL)
        return residual

    record = {
        "total_time": schedule.total_time,
        "bond_phases_mod_pi": [float(x) for x in np.mod(accumulated_bond_phases(array, schedule), np.pi)],
        "equiv_residual": verify(schedule),
    }
    if args.dd:
        woven = weave_dd(schedule)
        _write(args.out, "schedule_dd.json", woven.to_json())
        record["dd_equiv_residual"] = verify(woven)
        record["dd_total_time"] = woven.total_time
    _write(args.out, "calibrate.json", json.dumps(record, indent=2))
    answered = "dd_equiv_residual" if args.dd else "equiv_residual"
    if record[answered] > VERIFY_TOL:
        print(f"infeasible: exact {answered} {record[answered]:.3e} exceeds {VERIFY_TOL:g}")
        return 2
    print(f"schedule with {len(schedule.stages)} stages, total time {schedule.total_time!r}")
    return 0


def cmd_apps(args) -> int:
    rng = np.random.default_rng(args.seed)
    if args.which == "logicalz":
        gate = circuits.logical_z_triangle()
        doc = {"diagonal_phases": [float(x) for x in gate.values]}
        _write(args.out, "logicalz.json", json.dumps(doc, indent=2))
    elif args.which == "paritycheck":
        circuit = circuits.parity_check_circuit(args.targets, args.basis)
        outcomes = []
        for _ in range(args.trials):
            dim = 1 << args.targets
            psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            psi /= np.linalg.norm(psi)
            outcome, defect = circuits.check_parity_run(args.targets, args.basis, psi, rng)
            outcomes.append({"outcome": outcome, "defect": defect})
        transcript = {"circuit": circuit.describe(), "runs": outcomes}
        _write(args.out, "paritycheck.json", json.dumps(transcript, indent=2))
    elif args.which == "reversal":
        matrix = circuits.order_reversal(args.n)
        rounded = np.round(matrix.real, 9)
        lines = [",".join(repr(float(v)) for v in row) for row in rounded]
        _write(args.out, f"reversal_{args.n}.csv", "\n".join(lines) + "\n")
    else:
        print(f"unknown selector {args.which!r}")
        return 1
    print(f"wrote {args.which} artifacts to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dotgates", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="parity-rule feasibility of a target gate")
    _add_common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("solve", help="feasibility plus candidate gate times")
    _add_common(p)
    p.add_argument("--tau-max", type=float, default=float(_env_default("TAU_MAX", 1e6)))
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("simulate", help="exact simulation with fidelity accounting")
    _add_common(p)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--tau-max", type=float, default=float(_env_default("TAU_MAX", 1e6)))
    p.add_argument("--sweep", default=None, help="coupling sweep lo:hi:steps")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("calibrate", help="pulse schedule defeating bond inhomogeneity")
    _add_common(p)
    p.add_argument("--offset-bound", type=int, default=int(_env_default("OFFSET_BOUND", 8)))
    p.add_argument("--dd", action="store_true", help="also emit the decoupling-woven schedule")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("apps", help="application circuits and transcripts")
    p.add_argument("which", choices=["logicalz", "paritycheck", "reversal"])
    p.add_argument("--targets", type=int, default=2)
    p.add_argument("--basis", choices=["z", "x"], default="z")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--trials", type=int, default=32)
    p.add_argument("--seed", type=int, default=int(_env_default("SEED", 0)))
    p.add_argument("--out", default=_env_default("OUT", "."))
    p.set_defaults(func=cmd_apps)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except (KeyError, ValueError, TypeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except DegenerateSpectrum as exc:
        print(f"degenerate spectrum: {exc}", file=sys.stderr)
        return 1
    except EigensolverFailure as exc:
        print(f"eigensolver failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

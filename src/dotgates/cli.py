"""Command-line front end: check, solve, simulate, calibrate, apps.

Inputs are the JSON array/gate documents; outputs are JSON reports and CSV
sweep tables under ``--out``.  A flow that succeeds returns 0 (the gate
with no factors is the identity and succeeds).  Any other outcome is an
exception the flow raises after writing what it writes, and ``main`` alone
maps it to an exit code and one line through the table ``OUTCOMES``: 2 and
``infeasible:`` on stdout when the input is well formed but no time or
schedule reaches the target (``gates.Unreachable``), 1 and one line on
stderr for malformed input and every other failure it knows.
The flags ``--out``, ``--tol``, ``--seed``, ``--jobs``, ``--tau-max`` and
``--offset-bound`` have environment-variable overrides ``DOTGATES_OUT``,
``DOTGATES_TOL``, ``DOTGATES_SEED``, ``DOTGATES_JOBS``, ``DOTGATES_TAU_MAX``
and ``DOTGATES_OFFSET_BOUND``, read on every ``main`` call by the
subcommands that have the flag; a malformed value, on the command line or
in the environment, exits 1.  Only ``apps`` draws random numbers, so only
it takes ``--seed``.  Identical inputs and seed produce byte-identical
outputs.

Run as ``python -m dotgates.cli <subcommand> ...``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import circuits
from .calibrate import (
    CalibrationTarget,
    accumulated_bond_phases,
    kspace_path,
    solve_intervals,
    weave_dd,
)
from .gates import (
    BondReading,
    GateSpec,
    PhaseVector,
    Unreachable,
    assert_single_control,
    equiv_up_to_free_phase,
    read_bonds,
    solve_dynamics,
)
from .model import DotArray, array_from_json, finite
from .simulate import (
    DegenerateSpectrum,
    EigensolverFailure,
    Spectrum,
    simulate_gate,
    sweep_rows,
)


VERIFY_TOL = 1e-2  # equivalence residual an answered time or schedule must reach
SWEEP_MAX_STEPS = 1000  # points of one --sweep grid, each an eigendecomposition


def _nonnegative(text: str) -> float:
    """Type of ``--tau``, ``--tol`` and ``--tau-max``: a finite number >= 0."""
    try:
        value = finite(text, "the value")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"the value must be nonnegative, got {value!r}")
    return value


def _positive_int(text: str) -> int:
    """Type of ``--trials``: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"the value must be positive, got {value}")
    return value


def _sweep_grid(text: str) -> np.ndarray:
    """Type of ``--sweep lo:hi:steps``: the geometric grid of J/eps values,
    with lo, hi > 0 and 1 <= steps <= ``SWEEP_MAX_STEPS``."""
    try:
        lo, hi, steps = text.split(":")
        lo, hi, steps = finite(lo, "lo"), finite(hi, "hi"), int(steps)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if lo <= 0 or hi <= 0 or not 1 <= steps <= SWEEP_MAX_STEPS:
        raise argparse.ArgumentTypeError(
            f"need lo > 0, hi > 0 and 1 <= steps <= {SWEEP_MAX_STEPS}, got {text!r}"
        )
    return np.geomspace(lo, hi, steps)


# flag destination -> (environment suffix, type, value when neither the flag
# nor DOTGATES_<suffix> is given); the parser leaves these flags None
_OVERRIDES = {
    "out": ("OUT", str, "."),
    "tol": ("TOL", _nonnegative, 1e-9),
    "seed": ("SEED", int, 0),
    "jobs": ("JOBS", int, 1),
    "tau_max": ("TAU_MAX", _nonnegative, 1e6),
    "offset_bound": ("OFFSET_BOUND", int, 8),
}


def _apply_overrides(args: argparse.Namespace) -> None:
    """Fill each overridable flag left unset from the environment or its
    fallback; a flag given on the command line, or that the subcommand
    lacks, is left alone."""
    for dest, (name, kind, fallback) in _OVERRIDES.items():
        if getattr(args, dest, fallback) is not None:
            continue
        value = os.environ.get(f"DOTGATES_{name}")
        try:
            setattr(args, dest, fallback if value is None else kind(value))
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise ValueError(f"DOTGATES_{name}={value!r}: {exc}") from None


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--array", required=True, help="array JSON file")
    parser.add_argument("--gate", required=True, help="gate-spec JSON file")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--tol", type=_nonnegative)
    parser.add_argument("--jobs", type=int, help="accepted for compatibility; sweeps run serially")


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


def _require_native(reading: BondReading) -> BondReading:
    """The reading of a target native to the array: one controlled phase per
    bond times a free phase.  Raises ``Unreachable`` for any other target."""
    if reading.unbonded_pairs:
        pairs = ", ".join(map(str, reading.unbonded_pairs))
        raise Unreachable(f"gate couples dot pairs {pairs} with no bond")
    if not reading.feasible:
        raise Unreachable("not one controlled phase per bond times a free phase "
                          f"(residual {reading.residual:.3e})")
    return reading


def _exact_residual(diagonal: np.ndarray, target: PhaseVector) -> float:
    """Equivalence residual of an exact propagator diagonal against the
    target, up to a free phase: the one check of ``simulate`` and ``calibrate``."""
    return equiv_up_to_free_phase(PhaseVector(np.angle(diagonal)), target)[2]


def _require_verified(name: str, residual: float) -> None:
    """Refuse an answer whose exact equivalence residual is not within
    ``VERIFY_TOL``; a NaN residual is refused too."""
    if not residual <= VERIFY_TOL:
        raise Unreachable(f"exact {name} {residual:.3e} exceeds {VERIFY_TOL:g}")


def cmd_check(args) -> int:
    array = _load_array(args.array)
    target = _load_gate(args.gate).expand(array.n_dots)
    reading = read_bonds(array, target, args.tol)
    analysis = assert_single_control(target.reduced()) if target.controlled else None
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
    _require_native(reading)
    print("feasible; local phases:", report["local_phases"])
    return 0


def _candidate_times(array: DotArray, target: PhaseVector, args):
    """Bond reading and candidate gate times of a target native to the
    array; raises ``Unreachable`` for any other target."""
    reading = _require_native(read_bonds(array, target, args.tol))
    return reading, solve_dynamics(array, reading.bond_phases, args.tau_max, args.tol)


def cmd_solve(args) -> int:
    array = _load_array(args.array)
    reading, candidates = _candidate_times(array, _load_gate(args.gate).expand(array.n_dots), args)
    report = {"local_phases": list(reading.local_phases)} | {
        branch: [
            {"tau": tau, "max_residual": worst}
            for tau, worst in zip(ranked.times[:10].tolist(), ranked.worst[:10].tolist())
        ]
        for branch, ranked in (("mod_pi", candidates.mod_pi), ("mod_2pi", candidates.mod_2pi))
    }
    _write(args.out, "solve.json", json.dumps(report, indent=2))
    if not candidates.mod_pi.times.size:
        raise Unreachable("no candidate times within tau-max")
    best = report["mod_pi"][0]
    print(f"best tau {best['tau']!r} (max per-bond residual {best['max_residual']:.3e})")
    return 0


def cmd_simulate(args) -> int:
    array = _load_array(args.array)
    target = _load_gate(args.gate).expand(array.n_dots)
    if args.tau is None:
        _, candidates = _candidate_times(array, target, args)
        if not candidates.mod_pi.times.size:
            raise Unreachable("no candidate times within tau-max")
        tau = float(candidates.mod_pi.times[0])
    else:
        tau = args.tau
    report = simulate_gate(array, tau)
    # swept before any write, so an array the sweep cannot scale leaves nothing
    swept = None if args.sweep is None else sweep_rows(array, tau, args.sweep)
    equiv_residual = _exact_residual(report.u_diag, target)
    doc = json.loads(report.to_json())
    doc["tau"] = tau
    doc["equiv_residual_vs_target"] = equiv_residual
    _write(args.out, "simulate.json", json.dumps(doc, indent=2))
    if swept is not None:
        rows, skipped = swept
        lines = ["j_over_eps,infidelity,bound,max_residue"]
        lines += [f"{a!r},{b!r},{c!r},{d!r}" for a, b, c, d in rows]
        _write(args.out, "sweep.csv", "\n".join(lines) + "\n")
        if skipped:
            doc = [{"j_over_eps": x, "error": msg} for x, msg in skipped]
            _write(args.out, "sweep_skipped.json", json.dumps(doc, indent=2))
            print(f"skipped {len(skipped)} of {len(args.sweep)} sweep points with a degenerate "
                  "spectrum (sweep_skipped.json)")
    if args.tau is None:  # the solved time is an answer; a given one is simulated anyway
        _require_verified("equiv_residual_vs_target", equiv_residual)
    print(f"fidelity {report.fidelity!r}, bound {report.bound!r}")
    return 0


def cmd_calibrate(args) -> int:
    """Solve the stage durations, weave the echo train with ``--dd``, and verify
    each schedule's exact diagonal alone: its frame phases are a free phase."""
    array = _load_array(args.array)
    gate = _load_gate(args.gate).expand(array.n_dots)
    reading = _require_native(read_bonds(array, gate, args.tol))
    target = CalibrationTarget.for_array(array, reading.bond_phases)
    schedule = solve_intervals(array, target, offset_bound=args.offset_bound)
    # shared by the base and the woven verify; checked before any artifact is
    # written, so an array past the dense limit or the perturbative regime, or
    # a total time (the woven one's too) whose phases overflow, leaves none
    spectrum = Spectrum.of(array)
    spectrum.leak()
    spectrum.check_time(schedule.total_time)
    _write(args.out, "schedule.json", schedule.to_json())
    path = kspace_path(array, schedule, samples_per_stage=8)
    _write(args.out, "kspace.csv", path.to_csv())

    record = {
        "total_time": schedule.total_time,
        "bond_phases_mod_pi": [float(x) for x in np.mod(accumulated_bond_phases(array, schedule), np.pi)],
        "equiv_residual": _exact_residual(spectrum.pulsed_diagonal(schedule), gate),
    }
    if args.dd:
        woven = weave_dd(schedule)
        _write(args.out, "schedule_dd.json", woven.to_json())
        record["dd_equiv_residual"] = _exact_residual(spectrum.pulsed_diagonal(woven), gate)
        record["dd_total_time"] = woven.total_time
    _write(args.out, "calibrate.json", json.dumps(record, indent=2))
    answered = "dd_equiv_residual" if args.dd else "equiv_residual"
    _require_verified(answered, record[answered])
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
        parity = circuits.parity_operator(args.targets, args.basis)
        dim = 1 << args.targets
        outcomes = []
        for _ in range(args.trials):
            psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            psi /= np.linalg.norm(psi)
            outcome, defect = circuits.check_parity_run(
                args.targets, args.basis, psi, rng, circuit=circuit, parity=parity
            )
            outcomes.append({"outcome": outcome, "defect": defect})
        transcript = {"circuit": circuit.describe(), "runs": outcomes}
        _write(args.out, "paritycheck.json", json.dumps(transcript, indent=2))
    else:  # the parser admits only the three selectors
        matrix = circuits.order_reversal(args.n)
        rounded = np.round(matrix.real, 9)
        lines = [",".join(map(repr, row)) for row in rounded.tolist()]
        _write(args.out, f"reversal_{args.n}.csv", "\n".join(lines) + "\n")
    print(f"wrote {args.which} artifacts to {args.out}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Raises a malformed command line as ``ValueError``, which ``main``
    reports as an input error (exit 1); argparse itself would exit 2, the
    code this CLI keeps for an infeasible target."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.  It holds no
    environment value and no command function: ``main`` resolves both on
    every call, so overrides and patched ``cmd_*`` functions take effect."""
    parser = _Parser(prog="dotgates", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="parity-rule feasibility of a target gate")
    _add_common(p)

    p = sub.add_parser("solve", help="feasibility plus candidate gate times")
    _add_common(p)
    p.add_argument("--tau-max", type=_nonnegative)

    p = sub.add_parser("simulate", help="exact simulation with fidelity accounting")
    _add_common(p)
    p.add_argument("--tau", type=_nonnegative, default=None)
    p.add_argument("--tau-max", type=_nonnegative)
    p.add_argument("--sweep", type=_sweep_grid, help="coupling sweep lo:hi:steps")

    p = sub.add_parser("calibrate", help="pulse schedule defeating bond inhomogeneity")
    _add_common(p)
    p.add_argument("--offset-bound", type=int)
    p.add_argument("--dd", action="store_true", help="also emit the decoupling-woven schedule")

    p = sub.add_parser("apps", help="application circuits and transcripts")
    p.add_argument("which", choices=["logicalz", "paritycheck", "reversal"])
    p.add_argument("--targets", type=int, default=2)
    p.add_argument("--basis", choices=["z", "x"], default="z")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--trials", type=_positive_int, default=32)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    return parser


# (exception types, exit code, line prefix, stream) of every outcome a flow
# raises, in lookup order: the first row the exception is an instance of
# wins, so Unreachable comes before ValueError (NoBondVelocity is both).  The
# stream is named, not held: it is looked up when the line is printed, so a
# sys.stdout or sys.stderr swapped in at run time receives it.  README's
# "Command line" table lists the same rows.
OUTCOMES = (
    ((Unreachable,), 2, "infeasible", "stdout"),
    ((OSError, KeyError, ValueError, TypeError), 1, "input error", "stderr"),
    ((DegenerateSpectrum,), 1, "degenerate spectrum", "stderr"),
    ((EigensolverFailure,), 1, "eigensolver failure", "stderr"),
    ((MemoryError,), 1, "out of memory", "stderr"),
)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _apply_overrides(args)
        # looked up per call, so a replaced module attribute is the one run
        return globals()[f"cmd_{args.command}"](args)
    except Exception as exc:
        for kinds, code, prefix, stream in OUTCOMES:
            if isinstance(exc, kinds):
                print(f"{prefix}: {exc}", file=getattr(sys, stream))
                return code
        raise  # no row: a fault in the program, shown with its traceback


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of the dotgates CLI flows, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload sweep_exact --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --selftest

Load shape: a closed loop with one client in one process; each flow starts
after the previous one ends.  The launcher starts a fresh child process per
workload run with BLAS pinned to one thread, so ``peak_rss_mb`` is that
workload's own peak.  The child writes the seeded inputs, warms BLAS up,
then repeats the workload's fixed batch of flows until ``--seconds`` is
used, and checks every flow's artifacts after each batch.  ``--trace 1``
alternates untraced and traced batches and reports per-layer metrics from
the traced ones (see ``tracer.py``) plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are comments starting with ``#``.  The full result, with the environment
stamp, and the spans of a traced run are written under ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = ("sweep_exact", "calibrate_dd", "design_batch")
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
JOBS = 1
SETUP_SAMPLES = 7  # half before the measuring child, half after it
RUN_LIMIT_S = 170.0

END_TO_END = {
    "wall_s": "s",
    "flow_p50_s": "s",
    "flow_p90_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "simulate.eigh.calls": "count",
    "simulate.eigh.self_s": "s",
    "simulate.eigh.dim3": "count",
    "simulate.eigh.bytes": "B",
    "simulate.eigh_per_array": "ratio",
    "simulate.simulate_gate.self_s": "s",
    "simulate.build_hamiltonian.self_s": "s",
    "simulate.optimal_phase_correction.self_s": "s",
    "simulate.pulsed_evolution.self_s": "s",
    "calibrate.pulse_matrix.calls": "count",
    "calibrate.pulse_matrix.self_s": "s",
    "calibrate.compose.calls": "count",
    "calibrate.solve_intervals.self_s": "s",
    "calibrate.offset_combos": "count",
    "calibrate.linprog.calls": "count",
    "calibrate.weave_dd.self_s": "s",
    "calibrate.kspace_path.self_s": "s",
    "calibrate.choose_assignments.self_s": "s",
    "gates.solve_parity.self_s": "s",
    "gates.assert_single_control.self_s": "s",
    "gates.solve_dynamics.self_s": "s",
    "gates.lattice_candidates": "count",
    "gates.equiv_up_to_free_phase.self_s": "s",
    "model.array_from_json.self_s": "s",
    "circuits.run_circuit.calls": "count",
    "circuits.run_circuit.self_s": "s",
    "circuits.order_reversal.self_s": "s",
    "cli.self_s": "s",
    "cli.artifact_bytes": "B",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
}
NO_WAIT_NOTE = (
    "wait time: not applicable; one client in one process, no queues and no "
    "workers that wait on each other"
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--small", action="store_true", help="tiny inputs (smoke test)")
    p.add_argument("--selftest", action="store_true", help="smoke-run every workload and prove the checks fail")
    # internal: the measuring child process
    p.add_argument("--child", choices=("setup", "run", "corrupt"), help=argparse.SUPPRESS)
    p.add_argument("--workdir", help=argparse.SUPPRESS)
    p.add_argument("--started", type=float, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.selftest and args.child != "corrupt" and args.workload is None:
        p.error("--workload is required")
    return args


# -- launcher -------------------------------------------------------------------

class BenchError(RuntimeError):
    pass


def spawn(args, mode: str, workdir: Path, deadline: float) -> dict:
    """Run one child process to completion and return the JSON it wrote."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", mode,
           "--workdir", str(workdir), "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.workload:
        cmd += ["--workload", args.workload]
    if args.small:
        cmd.append("--small")
    started = time.monotonic()
    cmd += ["--started", repr(started)]
    try:
        proc = subprocess.run(cmd, env=dict(os.environ, **BLAS_PIN), capture_output=True,
                              text=True, timeout=max(1.0, deadline - started), cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} child exceeded the time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} child exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads((workdir / "child.json").read_text())


def measure(args) -> tuple[dict, list[str]]:
    """Launch the setup samples and the measuring child; build the result."""
    if not (SRC / "dotgates" / "cli.py").is_file():
        raise BenchError(f"no dotgates sources under {SRC}")
    deadline = time.monotonic() + RUN_LIMIT_S
    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    extra = 0 if args.trace else SETUP_SAMPLES // 2  # setup_s is an end-to-end metric

    def setup(i):
        return spawn(args, "setup", run_dir / f"setup{i}", deadline)["setup_s"]

    try:
        setups = [setup(i) for i in range(extra)]
        doc = spawn(args, "run", run_dir / "run", deadline)
        setups.append(doc["setup_s"])
        setups += [setup(i) for i in range(extra + 1, 2 * extra + 1)]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    metrics = doc["per_layer"] if args.trace else dict(doc["end_to_end"], setup_s=statistics.median(setups))
    declared = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": doc["failed"] == 0,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()},
    }
    doc["setup_samples_s"] = setups
    doc["result"] = result
    WORK.mkdir(exist_ok=True)
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(doc, indent=2))
    return result, comment_lines(args, doc, result)


def comment_lines(args, doc, result) -> list[str]:
    lines = [
        f"dotgates bench: workload {args.workload}, seed {args.seed}, trace {args.trace}; "
        f"closed loop, 1 client, 1 process, BLAS threads 1, --jobs {JOBS}",
        "env: " + json.dumps(doc["env"], sort_keys=True),
        f"batches: {doc['batches']} of {doc['flows_per_batch']} flows "
        f"({doc['untraced_batches']} untraced); flow latencies sampled: {doc['latency_samples']}",
        f"failed_frac = {doc['failed']}/{doc['attempted']} = {doc['failed'] / doc['attempted']:.4g}",
        f"setup_s samples: {', '.join(f'{s:.4f}' for s in doc['setup_samples_s'])}",
    ]
    if doc.get("numpy_repr_cells"):
        lines.append("reversal CSV cells are written as np.float64(...) reprs, not plain "
                     "numbers (open defect; values parsed and checked anyway)")
    if doc.get("max_equiv_residual") is not None:
        lines.append(f"un-woven equiv_residual (recorded, not gated): max {doc['max_equiv_residual']:.3e}")
    for name, m in result["metrics"].items():
        lines.append(f"{name} = {m['value']!r} {m['unit']}")
    if doc.get("unsteady_counts"):
        lines.append("counts that differed between traced batches: " + ", ".join(doc["unsteady_counts"]))
    lines.append(NO_WAIT_NOTE)
    lines += [f"FAILED {p}" for p in doc["problems"][:20]]
    return ["# " + line for line in lines]


# -- measuring child --------------------------------------------------------------

def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_PIN},
        "jobs": JOBS,
        "seed": seed,
        "git_commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


class Session:
    """The measuring child: inputs, batches, checks and metrics."""

    def __init__(self, args):
        sys.path.insert(0, str(SRC))
        import numpy as np
        from dotgates import cli

        if Path(cli.__file__).resolve().parent != (SRC / "dotgates").resolve():
            raise BenchError(f"dotgates imported from {cli.__file__}, not from {SRC}")
        import workloads

        self.args = args
        self.cli = cli
        self.workdir = Path(args.workdir)
        self.flows = workloads.build(args.workload, args.seed, self.workdir, args.small)
        rng = np.random.default_rng(0)
        warm = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
        np.linalg.eigh(warm + warm.conj().T)
        self.setup_s = time.monotonic() - args.started
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def run_batch(self, tracer=None) -> tuple[float, list[float]]:
        """Run every flow once; returns the batch wall time and latencies."""
        shutil.rmtree(self.workdir / "out", ignore_errors=True)
        sink = io.StringIO()
        codes, latencies = [], []
        if tracer is not None:
            tracer.install()
        clock = time.perf_counter
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                began = clock()
                for index, flow in enumerate(self.flows):
                    if tracer is not None:
                        tracer.flow = self.attempted + index
                    start = clock()
                    try:
                        code = self.cli.main(flow.argv)
                    except SystemExit as exc:
                        code = exc.code
                    except Exception as exc:  # a flow that raises is a failed flow
                        code = f"raised {type(exc).__name__}: {exc}"
                    latencies.append(clock() - start)
                    codes.append(code)
                wall = clock() - began
        finally:
            if tracer is not None:
                tracer.uninstall()
        self.check_batch(codes)
        return wall, latencies

    def check_batch(self, codes) -> int:
        """Check every flow of the batch; returns the number that failed."""
        failed = 0
        for flow, code in zip(self.flows, codes):
            if code != flow.expect_code:
                problems = [f"exit {code!r}, expected {flow.expect_code}"]
            else:
                try:
                    problems = flow.check(flow)
                except Exception as exc:  # unreadable or missing artifacts
                    problems = [f"check raised {type(exc).__name__}: {exc}"]
            if problems:
                failed += 1
                self.problems += [f"{flow.label}: {p}" for p in problems]
        self.attempted += len(self.flows)
        self.failed += failed
        return failed


def layer_metrics(tracer, flows, mark: int) -> dict:
    """Per-layer metrics of one traced batch (spans from index ``mark``)."""
    summary = tracer.summary(mark)
    out = {}
    for metric in PER_LAYER:
        span, _, field = metric.rpartition(".")
        if metric in tracer.COUNTED:
            out[metric] = tracer.counts.get(metric, 0)
        elif field in ("calls", "self_s"):
            out[metric] = summary.get(span, {}).get(field, 0.0 if field == "self_s" else 0)
    out["cli.self_s"] = sum(v["self_s"] for k, v in summary.items() if k.startswith("cli."))
    eigh_calls = summary.get("simulate.eigh", {}).get("calls", 0)
    out["simulate.eigh_per_array"] = eigh_calls / sum(f.hamiltonians for f in flows)
    return out


def batch_time(batches: list[list[float]]) -> float:
    """Time to finish the fixed batch: the sum over its flows of each flow's
    median latency across batches.  Unlike the median batch wall time, one
    slow moment of a shared machine moves only the flow it hit."""
    return sum(statistics.median(lat) for lat in zip(*batches))


def child_run(args) -> dict:
    session = Session(args)
    if args.child == "setup":
        return {"setup_s": session.setup_s}
    import tracer as tracing

    tracer = tracing.Tracer() if args.trace else None
    walls = {False: [], True: []}
    per_flow = {False: [], True: []}  # latency lists, one per batch
    layers: list[dict] = []
    end = time.monotonic() + args.seconds
    while True:
        traced = bool(args.trace) and len(walls[False]) > len(walls[True])
        done = walls[False] + walls[True]
        need_more = not walls[False] or (args.trace and not walls[True])
        if done and not need_more and time.monotonic() + statistics.median(done) > end:
            break
        mark = len(tracer.spans) if tracer else 0
        if tracer:
            tracer.counts.clear()
        wall, lat = session.run_batch(tracer if traced else None)
        walls[traced].append(wall)
        per_flow[traced].append(lat)
        if traced:
            layers.append(layer_metrics(tracer, session.flows, mark))
    latencies = [x for lat in per_flow[False] for x in lat]
    quant = statistics.quantiles(latencies, n=10, method="inclusive")
    untraced = batch_time(per_flow[False])
    doc = {
        "env": environment(args.seed),
        "setup_s": session.setup_s,
        "attempted": session.attempted,
        "failed": session.failed,
        "problems": session.problems,
        "batches": len(walls[False]) + len(walls[True]),
        "untraced_batches": len(walls[False]),
        "flows_per_batch": len(session.flows),
        "latency_samples": len(latencies),
        "batch_walls_s": walls[False],
        "flow_median_s": {
            f.label: statistics.median(lat) for f, lat in zip(session.flows, zip(*per_flow[False]))
        },
        "end_to_end": {
            "wall_s": untraced,
            "flow_p50_s": quant[4],
            "flow_p90_s": quant[8],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
    }
    residuals = [f.notes["equiv_residual"] for f in session.flows if "equiv_residual" in f.notes]
    doc["max_equiv_residual"] = max(residuals) if residuals else None
    doc["numpy_repr_cells"] = any(f.notes.get("numpy_repr_cells") for f in session.flows)
    if tracer:
        # times: median over traced batches; counts repeat exactly, so the
        # first batch's value is reported and any disagreement is flagged
        per_layer = {
            k: layers[0][k] if PER_LAYER[k] != "s" else statistics.median(b[k] for b in layers)
            for k in layers[0]
        }
        doc["unsteady_counts"] = sorted(
            k for k in layers[0] if PER_LAYER[k] != "s" and len({b[k] for b in layers}) > 1
        )
        traced_wall = batch_time(per_flow[True])
        per_layer["trace.overhead_s"] = traced_wall - untraced
        per_layer["trace.overhead_frac"] = (traced_wall - untraced) / untraced
        doc["per_layer"] = per_layer
        doc["traced_walls_s"] = walls[True]
        WORK.mkdir(exist_ok=True)
        spans_path = WORK / f"trace-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "flow"], "spans": tracer.spans}))
    return doc


def child_main(args) -> int:
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    doc = corrupt_selftest(args) if args.child == "corrupt" else child_run(args)
    (workdir / "child.json").write_text(json.dumps(doc))
    return 0


# -- self-test ----------------------------------------------------------------------

def _edit_json(path: Path, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def _edit_text(path: Path, edit):
    path.write_text(edit(path.read_text()))


def _swap_first_rows(text: str) -> str:
    lines = text.splitlines()
    lines[0], lines[1] = lines[1], lines[0]
    return "\n".join(lines) + "\n"


def _raise_bound(text: str) -> str:
    lines = text.splitlines()
    x, inf, _, res = lines[1].split(",")
    lines[1] = f"{x},{inf},1.5,{res}"
    return "\n".join(lines) + "\n"


# (workload, flow-label prefix, artifact, edit): each edit alone must fail
# exactly one flow of the batch.
CORRUPTIONS = [
    ("design_batch", "solve-", "solve.json",
     lambda p: _edit_json(p, lambda d: d["mod_pi"][0].update(max_residual=d["mod_pi"][0]["max_residual"] + 0.3))),
    ("design_batch", "check-star", "check.json",
     lambda p: _edit_json(p, lambda d: d["local_phases"].__setitem__(1, d["local_phases"][1] + 0.5))),
    ("design_batch", "check-ccz", "check.json", lambda p: _edit_json(p, lambda d: d.update(feasible=True))),
    ("design_batch", "reversal-", None, lambda p: _edit_text(p, _swap_first_rows)),
    ("design_batch", "parity-", "paritycheck.json",
     lambda p: _edit_json(p, lambda d: d["runs"][0].update(defect=1e-3))),
    ("design_batch", "cal-", "calibrate.json", lambda p: _edit_json(p, lambda d: d.update(dd_equiv_residual=0.05))),
    ("calibrate_dd", "cal-", "schedule.json",
     lambda p: _edit_json(p, lambda d: d["stages"][0].update(tau=d["stages"][0]["tau"] * 1.001))),
    ("sweep_exact", "sim-", "sweep.csv", lambda p: _edit_text(p, _raise_bound)),
    ("sweep_exact", "sim-", "simulate.json", lambda p: _edit_json(p, lambda d: d.update(bound=d["fidelity"] + 0.1))),
]


def corrupt_selftest(args) -> dict:
    """Run each small workload once, then corrupt one artifact at a time and
    count the failed flows the checks report."""
    outcome = {}
    for workload in WORKLOADS:
        args.workload = workload
        session = Session(args)
        codes = [session.cli.main(flow.argv) for flow in session.flows]
        clean = session.check_batch(codes)
        outcome[f"{workload}: clean"] = clean
        for name, prefix, artifact, edit in CORRUPTIONS:
            if name != workload:
                continue
            flow = next(f for f in session.flows if f.label.startswith(prefix))
            path = next(flow.out.iterdir()) if artifact is None else flow.out / artifact
            saved = path.read_bytes()
            edit(path)
            outcome[f"{workload}: corrupt {flow.label}/{path.name}"] = session.check_batch(codes)
            path.write_bytes(saved)
    return {"outcome": outcome, "problems": session.problems}


def selftest() -> int:
    """Smoke-run every workload with tiny inputs, traced and untraced, and
    prove that a corrupted artifact is counted as a failed flow."""
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            args = parse_args(["--workload", workload, "--seed", "0", "--seconds", "1",
                               "--trace", str(trace), "--small"])
            result, _ = measure(args)
            declared = PER_LAYER if trace else END_TO_END
            good = result["correct"] and set(result["metrics"]) == set(declared)
            ok &= good
            print(f"smoke {workload} trace {trace}: {'ok' if good else 'FAILED'} "
                  f"({result['attempted']} flows, {len(result['metrics'])} metrics)")
    args = parse_args(["--child", "corrupt", "--seed", "0", "--small"])
    run_dir = WORK / f"corrupt-{os.getpid()}"
    try:
        doc = spawn(args, "corrupt", run_dir, time.monotonic() + RUN_LIMIT_S)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for case, failed in doc["outcome"].items():
        expected = 0 if case.endswith("clean") else 1
        ok &= failed == expected
        print(f"{case}: {failed} failed flow(s), expected {expected}")
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.child:
            return child_main(args)
        if args.selftest:
            return selftest()
        result, comments = measure(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print("\n".join(comments))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

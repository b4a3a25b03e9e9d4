import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

import dotgates
from dotgates import Bond, Dot, DotArray, cli, simulate
from dotgates.calibrate import PulseSchedule, choose_assignments, extra_local_phases, subset_signs
from dotgates.circuits import order_reversal
from dotgates.cli import main
from dotgates.gates import GateSpec, PhaseVector, equiv_up_to_free_phase, read_bonds, solve_dynamics
from dotgates.model import array_from_json, array_to_json
from dotgates.simulate import Spectrum

from conftest import chain_array, parity_matrix, random_connected_array, stellar_array


@pytest.fixture
def stellar_files(tmp_path):
    array = {
        "dots": [
            {"id": 0, "zeeman": 1.0},
            {"id": 1, "zeeman": 1.47},
            {"id": 2, "zeeman": 0.63},
        ],
        "bonds": [
            {"j": 0, "k": 1, "J": 1e-3, "t": [np.sqrt(0.8), 0.0], "s": [0.0, np.sqrt(0.2)]},
            {"j": 0, "k": 2, "J": 1e-3, "t": [np.sqrt(0.8), 0.0], "s": [0.0, np.sqrt(0.2)]},
        ],
    }
    czz = {
        "factors": [
            {"control": 0, "targets": [{"dot": 1, "theta": np.pi}, {"dot": 2, "theta": np.pi}]}
        ]
    }
    array_file = tmp_path / "array.json"
    gate_file = tmp_path / "czz.json"
    array_file.write_text(json.dumps(array))
    gate_file.write_text(json.dumps(czz))
    return str(array_file), str(gate_file), tmp_path


def three_dot_files(tmp_path, edges, factors):
    """Array with the given bonds on dots 0-2 and a factored gate."""
    array = {
        "dots": [{"id": j, "zeeman": 1.0 + 0.3 * j} for j in range(3)],
        "bonds": [
            {"j": j, "k": k, "J": 1e-3, "t": [np.sqrt(0.8), 0.0], "s": [0.0, np.sqrt(0.2)]}
            for j, k in edges
        ],
    }
    gate = {
        "factors": [
            {"control": c, "targets": [{"dot": d, "theta": th} for d, th in targets]}
            for c, targets in factors
        ]
    }
    (tmp_path / "array.json").write_text(json.dumps(array))
    (tmp_path / "gate.json").write_text(json.dumps(gate))
    return str(tmp_path / "array.json"), str(tmp_path / "gate.json"), tmp_path / "out"


CHAIN = [(0, 1), (1, 2)]
TRIANGLE = [(0, 1), (1, 2), (0, 2)]
END_TO_END = [(0, [(2, np.pi)])]
TWO_FACTORS = [(0, [(1, 1.1)]), (2, [(0, 2.3)])]


def ccz_file(tmp_path):
    ccz = {"raw": [0.0] * 7 + [np.pi]}
    path = tmp_path / "ccz.json"
    path.write_text(json.dumps(ccz))
    return str(path)


class TestCheck:
    def test_feasible_exit_zero(self, stellar_files):
        array, gate, out = stellar_files
        code = main(["check", "--array", array, "--gate", gate, "--out", str(out)])
        assert code == 0
        report = json.loads((out / "check.json").read_text())
        assert report["feasible"]

    def test_ccz_exit_two(self, stellar_files):
        array, _, out = stellar_files
        gate = ccz_file(out)
        code = main(["check", "--array", array, "--gate", gate, "--out", str(out)])
        assert code == 2
        report = json.loads((out / "check.json").read_text())
        assert not report["feasible"]
        assert report["second_control"]

    def test_malformed_array_exit_one(self, stellar_files, tmp_path):
        _, gate, out = stellar_files
        bad = tmp_path / "bad.json"
        bad.write_text('{"dots": [{"id": 0}]}')
        code = main(["check", "--array", str(bad), "--gate", gate, "--out", str(out)])
        assert code == 1

    def test_missing_file_exit_one(self, stellar_files):
        array, gate, out = stellar_files
        code = main(["check", "--array", array + ".nope", "--gate", gate, "--out", str(out)])
        assert code == 1

    def test_invalid_json_exit_one(self, stellar_files, tmp_path):
        array, _, out = stellar_files
        bad = tmp_path / "trunc.json"
        bad.write_text('{"factors": [')
        code = main(["check", "--array", array, "--gate", str(bad), "--out", str(out)])
        assert code == 1


    @pytest.mark.parametrize("factors", [END_TO_END, TWO_FACTORS], ids=["end-to-end", "two-factor"])
    def test_unbonded_pair_exits_two(self, tmp_path, factors):
        array, gate, out = three_dot_files(tmp_path, CHAIN, factors)
        assert main(["check", "--array", array, "--gate", gate, "--out", str(out)]) == 2
        report = json.loads((out / "check.json").read_text())
        assert report["feasible"] is False
        assert report["unbonded_pairs"] == [[0, 2]]

    def test_two_factor_gate_on_triangle_is_feasible(self, tmp_path):
        array, gate, out = three_dot_files(tmp_path, TRIANGLE, TWO_FACTORS)
        assert main(["check", "--array", array, "--gate", gate, "--out", str(out)]) == 0
        report = json.loads((out / "check.json").read_text())
        assert report["feasible"] is True
        assert "unbonded_pairs" not in report
        theta = GateSpec.from_json(Path(gate).read_text()).expand(3).reduced()
        lhs = parity_matrix(3) @ np.array(report["local_phases"])
        assert np.max(np.abs(np.angle(np.exp(1j * (lhs - theta))))) <= 1e-9


class TestSolve:
    @pytest.mark.parametrize("factors", [END_TO_END, TWO_FACTORS], ids=["end-to-end", "two-factor"])
    def test_unbonded_pair_exits_two(self, tmp_path, factors, capsys):
        array, gate, out = three_dot_files(tmp_path, CHAIN, factors)
        assert main(["solve", "--array", array, "--gate", gate, "--out", str(out)]) == 2
        assert "(0, 2)" in capsys.readouterr().out
        assert not (out / "solve.json").exists()
        assert main(["calibrate", "--array", array, "--gate", gate, "--out", str(out)]) == 2


    def test_reports_candidates(self, stellar_files):
        array, gate, out = stellar_files
        code = main(["solve", "--array", array, "--gate", gate, "--out", str(out)])
        assert code == 0
        report = json.loads((out / "solve.json").read_text())
        assert report["mod_pi"][0]["max_residual"] <= 1e-9
        assert report["mod_2pi"]

    def test_reported_candidates_head_the_full_ranking(self, stellar_files):
        array, gate, out = stellar_files
        assert run("solve", array, gate, out) == 0
        report = json.loads((out / "solve.json").read_text())
        arr = array_from_json(Path(array).read_text())
        reading = read_bonds(arr, GateSpec.from_json(Path(gate).read_text()).expand(3))
        candidates = solve_dynamics(arr, reading.bond_phases, 1e6, 1e-9)
        for branch in ("mod_pi", "mod_2pi"):
            ranking = getattr(candidates, branch)  # every candidate, in rank order
            assert ranking.times.size > 10
            head = [
                {"tau": float(tau), "max_residual": float(worst)}
                for tau, worst in zip(ranking.times[:10], ranking.worst[:10])
            ]
            assert report[branch] == head


class TestSimulate:
    def test_report_and_sweep(self, stellar_files):
        array, gate, out = stellar_files
        code = main(
            [
                "simulate", "--array", array, "--gate", gate,
                "--out", str(out), "--sweep", "1e-4:1e-2:4",
            ]
        )
        assert code == 0
        report = json.loads((out / "simulate.json").read_text())
        assert report["fidelity"] > 0.99
        assert report["equiv_residual_vs_target"] <= 1e-2
        sweep = (out / "sweep.csv").read_text().splitlines()
        assert sweep[0] == "j_over_eps,infidelity,bound,max_residue"
        assert len(sweep) == 5

    def test_deterministic_outputs(self, stellar_files, tmp_path):
        array, gate, _ = stellar_files
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            code = main(
                ["simulate", "--array", array, "--gate", gate, "--out", str(out),
                 "--sweep", "1e-4:1e-3:3"]
            )
            assert code == 0
        assert (out1 / "simulate.json").read_bytes() == (out2 / "simulate.json").read_bytes()
        assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()

    def test_jobs_flag_preserves_output(self, stellar_files, tmp_path):
        array, gate, _ = stellar_files
        out1, out2 = tmp_path / "j1", tmp_path / "j2"
        for out, jobs in ((out1, "1"), (out2, "3")):
            main(["simulate", "--array", array, "--gate", gate, "--out", str(out),
                  "--sweep", "1e-4:1e-2:6", "--jobs", jobs])
        assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()


    def test_degenerate_point_is_skipped(self, tmp_path, capsys):
        # at J/eps = 1e-1 a state of this 8-dot star overlaps its eigenvector
        # by less than one half, which the sweep used to abort on
        (tmp_path / "star.json").write_text(array_to_json(stellar_array(7)))
        gate = {"factors": [{"control": 0, "targets": [{"dot": 1, "theta": np.pi}]}]}
        (tmp_path / "gate.json").write_text(json.dumps(gate))
        out = tmp_path / "out"
        code = main(["simulate", "--array", str(tmp_path / "star.json"),
                     "--gate", str(tmp_path / "gate.json"), "--out", str(out),
                     "--tau", "1000", "--sweep", "1e-4:1e-1:16"])
        assert code == 0
        skipped = json.loads((out / "sweep_skipped.json").read_text())
        assert skipped and all("overlaps" in rec["error"] for rec in skipped)
        assert f"skipped {len(skipped)} of 16" in capsys.readouterr().out
        sweep = (out / "sweep.csv").read_text().splitlines()
        assert sweep[0] == "j_over_eps,infidelity,bound,max_residue"
        assert len(sweep) == 1 + 16 - len(skipped)
        kept = {float(line.split(",")[0]) for line in sweep[1:]}
        assert kept.isdisjoint(rec["j_over_eps"] for rec in skipped)
        assert len(kept | {rec["j_over_eps"] for rec in skipped}) == 16

    def test_healthy_sweep_writes_no_skip_file(self, stellar_files):
        array, gate, out = stellar_files
        code = main(["simulate", "--array", array, "--gate", gate, "--out", str(out),
                     "--sweep", "1e-4:1e-2:3"])
        assert code == 0
        assert not (out / "sweep_skipped.json").exists()

    @pytest.mark.parametrize("bonds", [[], [0.0, 0.0]], ids=["no-bonds", "zero-J"])
    def test_sweep_needs_a_coupled_bond(self, stellar_files, tmp_path, capsys, bonds):
        # the sweep scales the Zeeman energies by the largest J
        array, gate, _ = stellar_files
        doc = json.loads(Path(array).read_text())
        doc["bonds"] = [dict(rec, J=j) for rec, j in zip(doc["bonds"], bonds)]
        Path(array).write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert run("simulate", array, gate, out, "--tau", "10", "--sweep", "1e-4:1e-2:3") == 1
        captured = capsys.readouterr()
        assert captured.err == "input error: a coupling sweep needs a bond with J > 0\n"
        assert captured.out == ""
        assert not out.exists()


class TestCalibrate:
    @pytest.mark.parametrize("j_scale", [2e-4, 1e-3])
    def test_check_equals_the_frame_subtracted_recipe(self, tmp_path, j_scale):
        # the pulses' frame phases are a free phase, so the check that reads
        # the schedule's diagonal alone agrees with the one removing them first
        rng = np.random.default_rng(19)
        arrays = ([stellar_array(n - 1, j_scale, rng=rng) for n in (3, 4, 6)]
                  + [chain_array(n, j_scale, rng=rng) for n in (3, 5, 6)]
                  + [random_connected_array(rng, n, j_scale) for n in (4, 5, 6)])
        for i, array in enumerate(arrays):
            # a controlled Z on every bond: bond phase pi/2
            gate = {"factors": [{"control": int(b.j), "targets": [{"dot": int(b.k), "theta": np.pi}]}
                                for b in array.bonds]}
            (tmp_path / f"array{i}.json").write_text(array_to_json(array))
            (tmp_path / f"gate{i}.json").write_text(json.dumps(gate))
            out = tmp_path / f"out{i}"
            code = run("calibrate", str(tmp_path / f"array{i}.json"),
                       str(tmp_path / f"gate{i}.json"), out, "--dd", "--offset-bound", "3")
            assert code in (0, 2)  # calibrate.json is written before the verdict
            record = json.loads((out / "calibrate.json").read_text())
            target = GateSpec.from_json(gate).expand(array.n_dots)
            spectrum = Spectrum.of(array)
            for key, name in (("equiv_residual", "schedule.json"),
                              ("dd_equiv_residual", "schedule_dd.json")):
                schedule = PulseSchedule.from_json((out / name).read_text(), array.n_dots)
                frame = extra_local_phases(schedule, array).expand().values
                diag = PhaseVector(np.angle(spectrum.pulsed_diagonal(schedule)) - frame)
                _, _, residual = equiv_up_to_free_phase(diag, target)
                assert abs(record[key] - residual) <= 1e-12

    def test_schedule_and_path_files(self, stellar_files):
        array, gate, out = stellar_files
        code = main(["calibrate", "--array", array, "--gate", gate, "--out", str(out), "--dd"])
        assert code == 0
        sched = json.loads((out / "schedule.json").read_text())
        assert "stages" in sched
        record = json.loads((out / "calibrate.json").read_text())
        assert record["equiv_residual"] <= 1e-2
        assert record["dd_equiv_residual"] <= 1e-2
        path_lines = (out / "kspace.csv").read_text().splitlines()
        assert path_lines[0] == "time,bond_id,phase_over_pi,folded_phase_over_pi"
        assert (out / "schedule_dd.json").exists()

    def test_kspace_cells_are_plain_floats(self, stellar_files):
        array, gate, out = stellar_files
        assert main(["calibrate", "--array", array, "--gate", gate, "--out", str(out)]) == 0
        rows = (out / "kspace.csv").read_text().splitlines()[1:]
        assert len(rows) > 1
        for row in rows:
            cells = row.split(",")
            assert len(cells) == 4 and not any("np." in cell for cell in cells)
            assert all(np.isfinite(float(cell)) for cell in cells)

    @pytest.mark.parametrize("dd", [False, True], ids=["base", "dd"])
    def test_failed_verify_exits_two(self, tmp_path, capsys, dd):
        # strong coupling (J = 3e-2): the schedule meets its bond phases to
        # first order, but the exact evolution misses the gate by 2-3e-2
        array = {
            "dots": [{"id": j, "zeeman": z} for j, z in enumerate((1.0, 1.4, 1.8))],
            "bonds": [
                {"j": 0, "k": k, "J": 3e-2, "t": [np.sqrt(0.8), 0.0], "s": [0.0, np.sqrt(0.2)]}
                for k in (1, 2)
            ],
        }
        gate = {"factors": [{"control": 0, "targets": [{"dot": 1, "theta": 1.1},
                                                       {"dot": 2, "theta": 2.3}]}]}
        (tmp_path / "array.json").write_text(json.dumps(array))
        (tmp_path / "gate.json").write_text(json.dumps(gate))
        out = tmp_path / "out"
        extra = ["--dd"] if dd else []
        assert run("calibrate", str(tmp_path / "array.json"), str(tmp_path / "gate.json"),
                   out, *extra) == 2
        assert capsys.readouterr().out.startswith("infeasible:")
        record = json.loads((out / "calibrate.json").read_text())
        assert record["dd_equiv_residual" if dd else "equiv_residual"] > 1e-2
        assert (out / "schedule.json").exists()

    def test_degenerate_spectrum_exits_one_before_writing(self, tmp_path, capsys):
        # equal Zeeman energies: the bond mixes |ud> and |du> half and half,
        # which simulate refuses and calibrate used to verify at 1e-6; moved
        # by 1e-6, each mixed state overlaps its eigenvector by 0.5006, which
        # the overlap floor of 1/2 admitted and 3/4 refuses
        gate = {"factors": [{"control": 0, "targets": [{"dot": 1, "theta": 3.14159}]}]}
        (tmp_path / "gate.json").write_text(json.dumps(gate))
        out = tmp_path / "out"
        for zeeman in (1.0, 1.000001):
            array = {
                "dots": [{"id": 0, "zeeman": 1.0}, {"id": 1, "zeeman": zeeman}],
                "bonds": [{"j": 0, "k": 1, "J": 1e-3, "t": [np.sqrt(0.8), 0.0],
                           "s": [0.0, np.sqrt(0.2)]}],
            }
            (tmp_path / "array.json").write_text(json.dumps(array))
            for command, *extra in (("simulate", "--tau", "100"), ("calibrate",),
                                    ("calibrate", "--dd")):
                assert run(command, str(tmp_path / "array.json"), str(tmp_path / "gate.json"),
                           out, *extra) == 1
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err.startswith("degenerate spectrum: state ")
                assert captured.err.count("\n") == 1
                assert not out.exists()

    def test_unbonded_factor_pair_exits_two(self, tmp_path, capsys):
        array = {
            "dots": [{"id": j, "zeeman": 1.0 + 0.3 * j} for j in range(3)],
            "bonds": [
                {"j": j, "k": j + 1, "J": 1e-3, "t": [np.sqrt(0.8), 0.0], "s": [0.0, np.sqrt(0.2)]}
                for j in range(2)
            ],
        }
        gate = {"factors": [{"control": 0, "targets": [{"dot": 2, "theta": np.pi}]}]}
        (tmp_path / "chain.json").write_text(json.dumps(array))
        (tmp_path / "gate.json").write_text(json.dumps(gate))
        out = tmp_path / "out"
        code = main(["calibrate", "--array", str(tmp_path / "chain.json"),
                     "--gate", str(tmp_path / "gate.json"), "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == "infeasible: gate couples dot pairs (0, 2) with no bond\n"
        assert captured.err == ""
        assert not out.exists()

    def test_repeated_factor_pairs_sum(self, stellar_files, tmp_path):
        # pi/2 on (0, 1) from each side is the pi of the CZZ fixture
        array, czz, _ = stellar_files
        split = {
            "factors": [
                {"control": 0, "targets": [{"dot": 1, "theta": np.pi / 2}, {"dot": 2, "theta": np.pi}]},
                {"control": 1, "targets": [{"dot": 0, "theta": np.pi / 2}]},
            ]
        }
        split_file = tmp_path / "split.json"
        split_file.write_text(json.dumps(split))
        outs = []
        for gate, name in ((czz, "whole"), (str(split_file), "split")):
            out = tmp_path / name
            assert main(["calibrate", "--array", array, "--gate", gate, "--out", str(out)]) == 0
            outs.append(out)
        assert (outs[0] / "schedule.json").read_bytes() == (outs[1] / "schedule.json").read_bytes()
        record = json.loads((outs[1] / "calibrate.json").read_text())
        assert record["equiv_residual"] <= 1e-2


    def test_zero_time_target_weaves(self, tmp_path, capsys):
        # theta = 0 on every bond needs no time; the echo train sits at t = 0
        array, gate, out = three_dot_files(tmp_path, [(0, 1), (0, 2)], [(0, [(1, 0.0), (2, 0.0)])])
        assert run("calibrate", array, gate, out, "--dd") == 0
        assert capsys.readouterr().err == ""
        record = json.loads((out / "calibrate.json").read_text())
        assert record["total_time"] == record["dd_total_time"] == 0.0
        assert record["dd_equiv_residual"] == 0.0
        assert (out / "schedule_dd.json").exists()


class TestInputErrors:
    def test_nan_zeeman_exits_one_without_traceback(self, stellar_files, tmp_path, capsys):
        array, gate, out = stellar_files
        doc = json.loads(Path(array).read_text())
        doc["dots"][1]["zeeman"] = float("nan")
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps(doc))
        code = main(["simulate", "--array", str(bad), "--gate", gate, "--out", str(out),
                     "--tau", "100.0"])
        err = capsys.readouterr().err
        assert code == 1
        assert "Traceback" not in err
        assert "finite" in err and len(err.strip().splitlines()) == 1

    def test_infinite_theta_exits_one(self, stellar_files, tmp_path, capsys):
        array, _, out = stellar_files
        gate = {"factors": [{"control": 0, "targets": [{"dot": 1, "theta": float("inf")}]}]}
        bad = tmp_path / "inf.json"
        bad.write_text(json.dumps(gate))
        assert main(["check", "--array", array, "--gate", str(bad), "--out", str(out)]) == 1
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["J", "theta", "raw"])
    def test_integer_past_the_float_range_exits_one(self, stellar_files, capsys, where):
        # JSON integers are unbounded; this one overflows float()
        array, gate, out = stellar_files
        huge = 10**400
        if where == "J":
            doc = json.loads(Path(array).read_text())
            doc["bonds"][0]["J"] = huge
            Path(array).write_text(json.dumps(doc))
        elif where == "theta":
            Path(gate).write_text(json.dumps(
                {"factors": [{"control": 0, "targets": [{"dot": 1, "theta": huge}]}]}))
        else:
            Path(gate).write_text(json.dumps({"raw": [huge] + [0.0] * 7}))
        assert "1" + "0" * 400 in Path(array if where == "J" else gate).read_text()
        assert run("check", array, gate, out) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: ") and "must be finite" in captured.err
        assert len(captured.err.splitlines()) == 1

    def test_eigensolver_failure_exits_one(self, stellar_files, monkeypatch, capsys):
        array, gate, out = stellar_files

        def fail(*args):
            args[12].value = 1  # LAPACK's info: the divide and conquer did not converge

        monkeypatch.setattr(simulate, "_ZHEEVD", fail)
        code = main(["simulate", "--array", array, "--gate", gate, "--out", str(out),
                     "--tau", "100.0"])
        err = capsys.readouterr().err
        assert code == 1
        assert "Traceback" not in err
        assert err.startswith("eigensolver failure") and len(err.strip().splitlines()) == 1

    def test_memory_error_exits_one(self, stellar_files, monkeypatch, capsys):
        array, gate, out = stellar_files

        def fail(_):
            raise MemoryError("Unable to allocate 64.0 GiB")

        monkeypatch.setattr(simulate, "_eigh", fail)
        code = main(["simulate", "--array", array, "--gate", gate, "--out", str(out),
                     "--tau", "100.0"])
        err = capsys.readouterr().err
        assert code == 1
        assert err == "out of memory: Unable to allocate 64.0 GiB\n"

    def star_files(self, tmp_path, zeeman, exchanges, theta):
        """Dot 0 bonded to each other dot with |t|^2 = 0.8, and the gate of one
        factor: dot 0 controls a phase theta on every other dot."""
        array = {
            "dots": [{"id": j, "zeeman": z} for j, z in enumerate(zeeman)],
            "bonds": [{"j": 0, "k": k, "J": exchange, "t": [np.sqrt(0.8), 0.0],
                       "s": [np.sqrt(0.2), 0.0]} for k, exchange in enumerate(exchanges, 1)],
        }
        targets = [{"dot": k, "theta": theta} for k in range(1, len(zeeman))]
        gate = {"factors": [{"control": 0, "targets": targets}]}
        (tmp_path / "array.json").write_text(json.dumps(array))
        (tmp_path / "gate.json").write_text(json.dumps(gate))
        return str(tmp_path / "array.json"), str(tmp_path / "gate.json"), tmp_path / "out"

    @pytest.mark.parametrize(
        "command, zeeman, exchanges, theta, flags",
        [
            # each energy is finite, but their sum overflows the Zeeman diagonal
            ("simulate", [1e308, 1e308], [1e-3], 1.0, ["--tau=10"]),
            # J/eps = 1e-320 scales the Zeeman energies past the float range
            ("simulate", [1.0, 1.4], [1e-3], 1.0, ["--sweep=1e-320:1e-2:3"]),
            # the energies are finite, but the schedule's total time times
            # them is not: every phase of the verify would be NaN
            ("calibrate", [1e306, 1.45e306, 0.62e306], [1e-3, 1.3e-3], np.pi, ["--dd"]),
            # the same for a given time, with and without a sweep
            ("simulate", [1.0, 14.5, 0.62], [1e-3, 1.3e-3], np.pi, ["--tau=1e308"]),
            ("simulate", [1.0, 14.5, 0.62], [1e-3, 1.3e-3], np.pi,
             ["--tau=1e308", "--sweep=1e-4:1e-2:3"]),
            # the time is in range at the given energies, but the sweep's
            # first point scales them 21-fold, past it
            ("simulate", [1.0, 14.5, 0.62], [1e-3, 1.3e-3], np.pi,
             ["--tau=1e307", "--sweep=1e-4:1e-2:3"]),
        ],
        ids=["zeeman-sum-overflow", "sweep-scale-overflow", "calibrate-phase-overflow",
             "simulate-phase-overflow", "sweep-phase-overflow", "sweep-point-phase-overflow"],
    )
    def test_energy_past_the_float_range_exits_one(
        self, tmp_path, capsys, command, zeeman, exchanges, theta, flags
    ):
        array, gate, out = self.star_files(tmp_path, zeeman, exchanges, theta)
        assert run(command, array, gate, out, *flags) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: ") and len(captured.err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["check", "solve", "simulate", "calibrate"])
    @pytest.mark.parametrize(
        "fault",
        [
            ("gate", "raw", 2.0),
            ("array", "t", [0.9]),
            ("array", "t", [np.sqrt(0.8), 0.0, 5.0]),
            # int() would read k = 1.9 as 1, and control 0.7, dot 1.2 as 0, 1
            ("array", "k", 1.9),
            ("gate", "factors", [{"control": 0.7, "targets": [{"dot": 1.2, "theta": np.pi}]}]),
        ],
        ids=["scalar-raw-gate", "one-number-t", "three-number-t", "non-integer-k",
             "non-integer-gate-dots"],
    )
    def test_malformed_shape_exits_one(self, stellar_files, tmp_path, capsys, command, fault):
        array, gate, out = stellar_files
        which, key, value = fault
        if which == "gate":
            gate = str(tmp_path / "bad_gate.json")
            Path(gate).write_text(json.dumps({key: value}))
        else:
            doc = json.loads(Path(array).read_text())
            doc["bonds"][0][key] = value
            array = str(tmp_path / "bad_array.json")
            Path(array).write_text(json.dumps(doc))
        assert run(command, array, gate, out) == 1
        err = capsys.readouterr().err
        assert err.startswith("input error") and "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("simulate", "--tau", "nan"),
            ("simulate", "--tau", "inf"),
            ("simulate", "--tau", "-1"),
            ("check", "--tol", "nan"),
            ("solve", "--tol", "-1"),
            ("solve", "--tau-max", "inf"),
            ("simulate", "--tau-max", "-5"),
            ("simulate", "--sweep", "1e-4:nan:3"),
            ("simulate", "--sweep", "1e-4:1e-2"),
            ("simulate", "--sweep", "-1e-2:-1e-4:3"),
            ("simulate", "--sweep", "-1e-4:1e-2:3"),
            ("simulate", "--sweep", "1e-4:-1e-2:3"),
            ("simulate", "--sweep", "0:1e-2:3"),
            ("simulate", "--sweep", "1e-4:1e-2:0"),
            ("simulate", "--sweep", f"1e-4:1e-2:{cli.SWEEP_MAX_STEPS + 1}"),
        ],
    )
    def test_non_finite_or_negative_number_exits_one(self, stellar_files, capsys, command, flag, value):
        array, gate, out = stellar_files
        # "--flag=value", so that a value starting with "-" reaches the flag's type
        assert run(command, array, gate, out, f"{flag}={value}") == 1
        err = capsys.readouterr().err
        assert err.startswith("input error") and flag in err and "Traceback" not in err
        assert not (out / f"{command}.json").exists()

    def test_usage_error_exits_one(self, capsys):
        assert main(["apps", "nosuch"]) == 1
        assert main(["check", "--gate", "g.json"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and all(line.startswith("input error") for line in err)


def test_negative_offset_bound_exits_one_promptly(stellar_files):
    # the offset search used to loop forever on an empty box of offsets
    array, gate, out = stellar_files
    argv = ["calibrate", "--array", array, "--gate", gate, "--out", str(out), "--offset-bound", "-1"]
    env = dict(os.environ, PYTHONPATH=str(Path(dotgates.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "dotgates.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 1
    assert done.stderr.startswith("input error") and "offset_bound" in done.stderr


def test_calibrate_and_simulate_leave_scipy_unimported(stellar_files):
    # importing scipy costs every CLI process tens of MB and tenths of a
    # second, so the calibrate and simulate flows must not need it
    array, gate, out = stellar_files
    files = ["--array", array, "--gate", gate, "--out", str(out)]
    script = (
        "import sys\n"
        "from dotgates.cli import main\n"
        f"assert main(['calibrate', '--dd', *{files!r}]) == 0\n"
        f"assert main(['simulate', *{files!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(dotgates.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
    # scipy is a test and bench dependency only: the package runs with it
    # blocked from import (every module but __main__, which runs the CLI)
    script = (
        "import importlib, pkgutil, sys\n"
        "sys.modules['scipy'] = None\n"
        "import dotgates\n"
        "for mod in pkgutil.iter_modules(dotgates.__path__):\n"
        "    if mod.name != '__main__':\n"
        "        importlib.import_module(f'dotgates.{mod.name}')\n"
        "from conftest import chain_array\n"
        "from dotgates.calibrate import PauliAssignment, assignment_vectors\n"
        "from dotgates.cli import main\n"
        "assert assignment_vectors(chain_array(16)).n_bonds == 15\n"
        # the exact verify crosses pulse boundaries through the reflection kernel
        "reflect, calls = PauliAssignment.reflection, []\n"
        "PauliAssignment.reflection = lambda *a, **k: calls.append(1) or reflect(*a, **k)\n"
        f"assert main(['calibrate', '--dd', *{files!r}]) == 0\n"
        "assert calls\n"
        f"assert main(['simulate', *{files!r}]) == 0\n"
    )
    env["PYTHONPATH"] += os.pathsep + str(Path(__file__).parent)
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr


class TestEnvOverrides:
    def test_out_dir_from_environment(self, stellar_files, tmp_path, monkeypatch):
        array, gate, _ = stellar_files
        env_out = tmp_path / "env_out"
        monkeypatch.setenv("DOTGATES_OUT", str(env_out))
        code = main(["check", "--array", array, "--gate", gate])
        assert code == 0
        assert (env_out / "check.json").exists()

    def test_each_call_reads_the_environment(self, stellar_files, tmp_path, monkeypatch):
        array, gate, _ = stellar_files
        for name in ("first", "second"):
            monkeypatch.setenv("DOTGATES_OUT", str(tmp_path / name))
            assert main(["check", "--array", array, "--gate", gate]) == 0
        assert (tmp_path / "first" / "check.json").exists()
        assert (tmp_path / "second" / "check.json").exists()
        # a flag on the command line wins over the environment
        assert main(["check", "--array", array, "--gate", gate, "--out", str(tmp_path / "flag")]) == 0
        assert (tmp_path / "flag" / "check.json").exists()

    @pytest.mark.parametrize(
        "name, value, command",
        [
            ("TOL", "abc", "check"),
            ("TOL", "nan", "check"),
            ("TAU_MAX", "-1", "solve"),
            ("SEED", "1.5", "apps"),
            ("OFFSET_BOUND", "x", "calibrate"),
        ],
    )
    def test_malformed_value_exits_one(self, stellar_files, monkeypatch, capsys, name, value, command):
        array, gate, out = stellar_files
        monkeypatch.setenv(f"DOTGATES_{name}", value)
        if command == "apps":  # the one subcommand that takes a seed
            assert main(["apps", "paritycheck", "--out", str(out)]) == 1
        else:
            assert run(command, array, gate, out) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"input error: DOTGATES_{name}=") and "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("command", ["check", "solve", "simulate", "calibrate"])
    def test_only_apps_takes_a_seed(self, stellar_files, capsys, command):
        array, gate, out = stellar_files
        assert run(command, array, gate, out, "--seed", "7") == 1
        err = capsys.readouterr().err
        assert err.startswith("input error: ") and "--seed 7" in err

    def test_patched_command_function_is_the_one_run(self, stellar_files, monkeypatch):
        array, gate, out = stellar_files
        assert run("check", array, gate, out) == 0  # the parser exists from here on
        seen = []
        monkeypatch.setattr(cli, "cmd_check", lambda args: seen.append(args.array) or 7)
        assert run("check", array, gate, out) == 7
        assert seen == [array]


class TestApps:
    def test_logicalz(self, tmp_path):
        code = main(["apps", "logicalz", "--out", str(tmp_path)])
        assert code == 0
        doc = json.loads((tmp_path / "logicalz.json").read_text())
        diag = np.round(np.exp(1j * np.array(doc["diagonal_phases"]))).real
        assert diag.tolist() == [1, 1, 1, -1, 1, -1, -1, -1]

    def test_paritycheck_transcript(self, tmp_path):
        code = main(
            ["apps", "paritycheck", "--targets", "3", "--basis", "x",
             "--trials", "16", "--seed", "5", "--out", str(tmp_path)]
        )
        assert code == 0
        doc = json.loads((tmp_path / "paritycheck.json").read_text())
        assert len(doc["runs"]) == 16
        assert all(abs(r["defect"]) <= 1e-9 for r in doc["runs"])

    def test_paritycheck_deterministic_with_seed(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            main(["apps", "paritycheck", "--trials", "8", "--seed", "3", "--out", str(out)])
        assert (out1 / "paritycheck.json").read_bytes() == (out2 / "paritycheck.json").read_bytes()

    @pytest.mark.parametrize("trials", ["-3", "0"])
    def test_paritycheck_without_trials_exits_one(self, tmp_path, trials):
        # through the package entry point, as a user runs it
        argv = ["apps", "paritycheck", "--trials", trials, "--out", str(tmp_path)]
        env = dict(os.environ, PYTHONPATH=str(Path(dotgates.__file__).parents[1]))
        done = subprocess.run([sys.executable, "-m", "dotgates", *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 1
        err = done.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("input error") and "--trials" in err[0]
        assert not (tmp_path / "paritycheck.json").exists()

    def test_reversal_matrix(self, tmp_path):
        code = main(["apps", "reversal", "--n", "4", "--out", str(tmp_path)])
        assert code == 0
        rows = (tmp_path / "reversal_4.csv").read_text().splitlines()
        assert len(rows) == 16
        cells = [cell for row in rows for cell in row.split(",")]
        assert len(cells) == 16 * 16
        assert not any("np." in cell for cell in cells)
        values = [float(cell) for cell in cells]
        assert sorted(set(abs(v) for v in values)) == [0.0, 1.0]

    def test_reversal_csv_matches_cell_by_cell_formatter(self, tmp_path):
        assert main(["apps", "reversal", "--n", "6", "--out", str(tmp_path)]) == 0
        rounded = np.round(order_reversal(6).real, 9)
        lines = [",".join(repr(float(v)) for v in row) for row in rounded]
        assert (tmp_path / "reversal_6.csv").read_text() == "\n".join(lines) + "\n"


STAR = [(0, 1), (0, 2)]


def run(command, array, gate, out, *extra):
    return main([command, "--array", array, "--gate", gate, "--out", str(out), *extra])


def raw_gate_file(tmp_path, phases, name="raw.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"raw": [float(x) for x in phases]}))
    return str(path)


class TestOneReading:
    """check, solve, simulate and calibrate read a target the same way."""

    @pytest.mark.parametrize(
        "edges, factors",
        [
            (CHAIN, [(0, [(1, np.pi)]), (1, [(2, np.pi)])]),
            (STAR, [(0, [(1, np.pi / 2)]), (0, [(2, np.pi / 2)])]),
        ],
        ids=["chain-two-factors", "star-two-factors"],
    )
    def test_automatic_time_equals_solves_best(self, tmp_path, edges, factors):
        array, gate, out = three_dot_files(tmp_path, edges, factors)
        assert run("check", array, gate, out) == 0
        assert run("solve", array, gate, out) == 0
        assert run("simulate", array, gate, out) == 0
        best = json.loads((out / "solve.json").read_text())["mod_pi"][0]
        report = json.loads((out / "simulate.json").read_text())
        assert best["max_residual"] <= 1e-9
        assert report["tau"] == best["tau"]
        assert report["equiv_residual_vs_target"] <= 1e-2
        assert run("calibrate", array, gate, out) == 0

    def test_chain_gate_not_controlled_by_dot_zero(self, tmp_path, capsys):
        array, gate, out = three_dot_files(tmp_path, CHAIN, [(0, [(1, 1.1)]), (1, [(2, 2.3)])])
        assert run("check", array, gate, out) == 0
        report = json.loads((out / "check.json").read_text())
        assert report["feasible"] is True
        assert report["second_control"] is None and report["degenerate_two_qubit"] is None
        assert run("solve", array, gate, out) == 0
        capsys.readouterr()
        # no lattice time meets both bonds; simulate refuses the best one's misfit
        assert run("simulate", array, gate, out) == 2
        residual = json.loads((out / "simulate.json").read_text())["equiv_residual_vs_target"]
        assert residual > 1.0
        assert capsys.readouterr().out == (
            f"infeasible: exact equiv_residual_vs_target {residual:.3e} exceeds 0.01\n"
        )
        assert run("simulate", array, gate, out, "--tau", "100") == 0  # simulated anyway

    def test_bond_away_from_the_control(self, tmp_path, capsys):
        array, gate, out = three_dot_files(tmp_path, CHAIN, [(0, [(1, 1.1)])])
        for command in ("check", "solve"):
            assert run(command, array, gate, out) == 0
        capsys.readouterr()
        # both bonds accrue phase at one rate, so no time gives bond (0, 1) its
        # phase and bond (1, 2) none; the best lattice time is tau = 0
        assert run("simulate", array, gate, out) == 2
        assert capsys.readouterr().out.startswith("infeasible: exact equiv_residual_vs_target")
        solved = json.loads((out / "solve.json").read_text())
        report = json.loads((out / "simulate.json").read_text())
        assert report["tau"] == solved["mod_pi"][0]["tau"]
        assert report["equiv_residual_vs_target"] > 1e-2

    def test_raw_gate_on_unbonded_pair(self, tmp_path, capsys):
        array, _, out = three_dot_files(tmp_path, CHAIN, [(0, [(1, 1.1)])])
        bits = np.arange(8)
        gate = raw_gate_file(tmp_path, np.pi * ((bits >> 2) & 1) * (bits & 1))  # CZ(0, 2)
        for command in ("check", "solve", "simulate", "calibrate"):
            assert run(command, array, gate, out) == 2
            assert capsys.readouterr().out == "infeasible: gate couples dot pairs (0, 2) with no bond\n"
        report = json.loads((out / "check.json").read_text())
        assert report["feasible"] is False
        assert report["unbonded_pairs"] == [[0, 2]]
        assert report["local_phases"] is None
        assert [p.name for p in out.iterdir()] == ["check.json"]

    def test_check_and_solve_agree_on_local_phases(self, tmp_path):
        array, gate, out = three_dot_files(tmp_path, STAR, [(0, [(1, 1.1)])])
        assert run("check", array, gate, out) == 0
        assert run("solve", array, gate, out) == 0
        checked = json.loads((out / "check.json").read_text())["local_phases"]
        solved = json.loads((out / "solve.json").read_text())["local_phases"]
        assert checked == solved
        theta = GateSpec.from_json(Path(gate).read_text()).expand(3).reduced()
        lhs = parity_matrix(3) @ np.array(checked)
        assert np.max(np.abs(np.angle(np.exp(1j * (lhs - theta))))) <= 1e-9

    def test_raw_gate_calibrates_like_its_factored_form(self, stellar_files, tmp_path):
        array, czz, _ = stellar_files
        raw = raw_gate_file(tmp_path, GateSpec.from_json(Path(czz).read_text()).expand(3).values)
        outs = [tmp_path / "factored", tmp_path / "raw"]
        for gate, out in zip((czz, raw), outs):
            assert run("calibrate", array, gate, out, "--dd") == 0
        for name in ("schedule.json", "schedule_dd.json", "calibrate.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_short_tau_max_has_no_candidates(self, stellar_files, capsys):
        # no lattice point of either branch lies below tau-max
        array, gate, out = stellar_files
        for command in ("solve", "simulate"):
            assert run(command, array, gate, out, "--tau-max", "100") == 2
            captured = capsys.readouterr()
            assert captured.out == "infeasible: no candidate times within tau-max\n"
            assert captured.err == ""

    @pytest.mark.parametrize("command", ["check", "solve", "simulate", "calibrate"])
    def test_gate_dot_outside_the_array_exits_one(self, tmp_path, command, capsys):
        array, gate, out = three_dot_files(tmp_path, STAR, [(0, [(5, 1.0)])])
        assert run(command, array, gate, out, *(["--tau", "100"] if command == "simulate" else [])) == 1
        err = capsys.readouterr().err
        assert "outside 0..2" in err and "Traceback" not in err

    def test_tau_max_over_budget_exits_one(self, stellar_files, capsys):
        array, gate, out = stellar_files
        assert run("solve", array, gate, out, "--tau-max", "1e12") == 1
        err = capsys.readouterr().err
        assert err.startswith("input error") and "--tau-max" in err


class TestUnreachableTargets:
    """A bond with |t|^2 = |s|^2 = 1/2 has velocity 0: the balanced-channel
    case, where it accumulates no phase.  A target asking it for one is
    well formed but unreachable."""

    @pytest.fixture
    def files(self, tmp_path):
        amplitudes = [(0.9, np.sqrt(1 - 0.81)), (np.sqrt(0.5), np.sqrt(0.5))]
        array = {
            "dots": [{"id": j, "zeeman": 1.0 + 0.3 * j} for j in range(3)],
            "bonds": [
                {"j": j, "k": j + 1, "J": 1e-3, "t": [t, 0.0], "s": [0.0, s]}
                for j, (t, s) in enumerate(amplitudes)
            ],
        }
        gate = {"factors": [{"control": 0, "targets": [{"dot": 1, "theta": 1.0}]},
                            {"control": 1, "targets": [{"dot": 2, "theta": 0.5}]}]}
        (tmp_path / "array.json").write_text(json.dumps(array))
        (tmp_path / "gate.json").write_text(json.dumps(gate))
        return str(tmp_path / "array.json"), str(tmp_path / "gate.json"), tmp_path / "out"

    def test_check_reads_the_gate(self, files):
        # the reading is first order in phases, blind to velocities
        assert run("check", *files) == 0

    @pytest.mark.parametrize("command, extra", [("solve", ()), ("simulate", ()),
                                                ("calibrate", ("--dd",))])
    def test_zero_velocity_target_exits_two(self, files, capsys, command, extra):
        array, gate, out = files
        assert run(command, array, gate, out, *extra) == 2
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.startswith("infeasible: a zero-velocity bond")
        assert not out.exists()


class TestIdentityGate:
    """``{"factors": []}`` is the identity, a target every array reaches."""

    @pytest.fixture
    def files(self, stellar_files, tmp_path):
        array, _, out = stellar_files
        (tmp_path / "identity.json").write_text('{"factors": []}')
        return array, str(tmp_path / "identity.json"), out

    def test_check_has_no_local_phases(self, files):
        assert run("check", *files) == 0
        report = json.loads((files[2] / "check.json").read_text())
        assert report["feasible"] and report["local_phases"] == [0.0, 0.0, 0.0]

    def test_solve_and_simulate(self, files):
        assert run("solve", *files) == 0
        best = json.loads((files[2] / "solve.json").read_text())["mod_pi"][0]
        assert best == {"tau": 0.0, "max_residual": 0.0}
        assert run("simulate", *files) == 0
        report = json.loads((files[2] / "simulate.json").read_text())
        assert report["tau"] == 0.0
        assert report["equiv_residual_vs_target"] == 0.0

    def test_calibrate_takes_no_time(self, files):
        assert run("calibrate", *files, "--dd") == 0
        record = json.loads((files[2] / "calibrate.json").read_text())
        assert record["total_time"] == record["dd_total_time"] == 0.0
        assert record["dd_equiv_residual"] <= 1e-2


ADDRESS_CAP = 2 << 30  # bytes


def run_capped(argv):
    """The CLI in a child process whose address space is capped at 2 GiB,
    on one BLAS thread: a dense allocation past the cap fails there with
    MemoryError instead of exhausting the machine."""
    script = (
        "import resource, sys\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({ADDRESS_CAP}, {ADDRESS_CAP}))\n"
        "from dotgates.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(dotgates.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("command, n_dots", [("simulate", 16), ("calibrate", 13)])
def test_dense_limit_refuses_before_writing(tmp_path, command, n_dots):
    # 13 dots need a 1 GiB Hamiltonian before the eigensolver's workspace
    (tmp_path / "array.json").write_text(array_to_json(chain_array(n_dots)))
    (tmp_path / "identity.json").write_text('{"factors": []}')
    out = tmp_path / "out"
    done = run_capped([command, "--array", str(tmp_path / "array.json"),
                       "--gate", str(tmp_path / "identity.json"), "--out", str(out)])
    assert done.returncode == 1
    assert done.stderr.startswith(f"input error: {n_dots} dots exceed the dense limit of 12")
    assert len(done.stderr.splitlines()) == 1
    assert not out.exists()


def exception_classes():
    """Every exception class defined in a module of the package."""
    found = []
    for info in pkgutil.iter_modules(dotgates.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"dotgates.{info.name}")
        found += [obj for obj in vars(module).values()
                  if isinstance(obj, type) and issubclass(obj, BaseException)
                  and obj.__module__ == module.__name__]
    return sorted(found, key=lambda kind: kind.__name__)


class TestOutcomes:
    """``main`` answers every outcome with one exit code and one line."""

    def test_the_known_classes_are_found(self):
        names = {kind.__name__ for kind in exception_classes()}
        assert {"Unreachable", "NoBondVelocity", "InfeasibleSchedule", "BudgetExceeded",
                "LatticeBudgetExceeded", "DegenerateSpectrum", "EigensolverFailure",
                "DenseLimitExceeded"} <= names

    @pytest.mark.parametrize("kind", exception_classes(), ids=lambda kind: kind.__name__)
    def test_every_exception_class_exits_with_one_line(self, stellar_files, monkeypatch, capsys,
                                                       kind):
        try:
            exc = kind("the reason")
        except TypeError:  # InfeasibleSchedule also takes its best residual
            exc = kind("the reason", 0.5)

        def fail(args):
            raise exc

        monkeypatch.setattr(cli, "cmd_check", fail)
        code = run("check", *stellar_files)
        captured = capsys.readouterr()
        unreachable = isinstance(exc, dotgates.Unreachable)
        assert code == (2 if unreachable else 1)
        line = captured.out if unreachable else captured.err
        assert (captured.out + captured.err) == line
        assert line.count("\n") == 1 and line.endswith(f": {exc}\n")
        assert "Traceback" not in line

    def test_readme_table_lists_the_outcomes(self):
        text = (Path(__file__).parents[1] / "README.md").read_text()
        lines = text.splitlines()
        start = lines.index("| Outcome | Raised as | Exit | Stream | Line starts with |")
        table = []
        for line in lines[start + 2:]:
            if not line.startswith("|"):
                break
            table.append([cell.strip() for cell in line.strip("|").split("|")])
        success, *rows = table
        assert success[1:4] == ["—", "0", "stdout"]
        assert [
            (re.findall(r"`(\w+)`", raised), int(code), re.fullmatch(r"`(.+):`", prefix)[1], stream)
            for _, raised, code, stream, prefix in rows
        ] == [
            ([kind.__name__ for kind in kinds], code, prefix, stream)
            for kinds, code, prefix, stream in cli.OUTCOMES
        ]

    def test_weave_past_the_pulse_budget_exits_two(self, tmp_path, capsys):
        # the complete graph on 9 dots, with a gate planted from 5000 on the
        # first stage and 50 on the other 35: the weave would pulse one dot
        # 20 times, past the budget of 16
        n = 9
        bonds = [Bond(j, k, 2e-4, t=np.sqrt(0.8), s=1j * np.sqrt(0.2))
                 for j, k in combinations(range(n), 2)]
        array = DotArray([Dot(j, 1.0 + 0.4 * j) for j in range(n)], bonds)
        signs = np.array([subset_signs(array, stage) for stage in choose_assignments(array)])
        durations = np.array([5000.0] + [50.0] * (len(bonds) - 1))
        phases = np.array([b.velocity for b in bonds]) * (durations @ signs)
        thetas = np.mod(-2.0 * phases, 2.0 * np.pi)
        gate = {"factors": [{"control": b.j, "targets": [{"dot": b.k, "theta": float(th)}]}
                            for b, th in zip(bonds, thetas)]}
        (tmp_path / "array.json").write_text(array_to_json(array))
        (tmp_path / "gate.json").write_text(json.dumps(gate))
        out = tmp_path / "out"
        code = run("calibrate", str(tmp_path / "array.json"), str(tmp_path / "gate.json"), out,
                   "--dd", "--offset-bound", "0")
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "infeasible: weave needs 20 pulses on one qubit, budget is 16\n"
        assert captured.err == ""
        assert sorted(p.name for p in out.iterdir()) == ["kspace.csv", "schedule.json"]

import json
from pathlib import Path

import numpy as np
import pytest

from dotgates.cli import main
from dotgates.gates import GateSpec, parity_matrix
from dotgates.model import array_to_json

from conftest import stellar_array


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
        assert main(["calibrate", "--array", array, "--gate", gate, "--out", str(out)]) == 1


    def test_reports_candidates(self, stellar_files):
        array, gate, out = stellar_files
        code = main(["solve", "--array", array, "--gate", gate, "--out", str(out)])
        assert code == 0
        report = json.loads((out / "solve.json").read_text())
        assert report["mod_pi"][0]["max_residual"] <= 1e-9
        assert report["mod_2pi"]


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
                 "--seed", "7", "--sweep", "1e-4:1e-3:3"]
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


class TestCalibrate:
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

    def test_unbonded_factor_pair_exits_one(self, tmp_path, capsys):
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
        assert code == 1
        assert "(0, 2)" in capsys.readouterr().err
        assert not (out / "calibrate.json").exists()

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

    def test_eigensolver_failure_exits_one(self, stellar_files, monkeypatch, capsys):
        array, gate, out = stellar_files

        def fail(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        code = main(["simulate", "--array", array, "--gate", gate, "--out", str(out),
                     "--tau", "100.0"])
        err = capsys.readouterr().err
        assert code == 1
        assert "Traceback" not in err
        assert err.startswith("eigensolver failure") and len(err.strip().splitlines()) == 1


    @pytest.mark.parametrize("command", ["check", "solve", "simulate", "calibrate"])
    @pytest.mark.parametrize(
        "fault",
        [("gate", "raw", 2.0), ("array", "t", [0.9]), ("array", "t", [np.sqrt(0.8), 0.0, 5.0])],
        ids=["scalar-raw-gate", "one-number-t", "three-number-t"],
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


class TestEnvOverrides:
    def test_out_dir_from_environment(self, stellar_files, tmp_path, monkeypatch):
        array, gate, _ = stellar_files
        env_out = tmp_path / "env_out"
        monkeypatch.setenv("DOTGATES_OUT", str(env_out))
        code = main(["check", "--array", array, "--gate", gate])
        assert code == 0
        assert (env_out / "check.json").exists()


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

    def test_chain_gate_not_controlled_by_dot_zero(self, tmp_path):
        array, gate, out = three_dot_files(tmp_path, CHAIN, [(0, [(1, 1.1)]), (1, [(2, 2.3)])])
        assert run("check", array, gate, out) == 0
        report = json.loads((out / "check.json").read_text())
        assert report["feasible"] is True
        assert report["second_control"] is None and report["degenerate_two_qubit"] is None
        assert run("solve", array, gate, out) == 0
        assert run("simulate", array, gate, out) == 0

    def test_bond_away_from_the_control(self, tmp_path):
        array, gate, out = three_dot_files(tmp_path, CHAIN, [(0, [(1, 1.1)])])
        for command in ("check", "solve", "simulate"):
            assert run(command, array, gate, out) == 0
        solved = json.loads((out / "solve.json").read_text())
        assert json.loads((out / "simulate.json").read_text())["tau"] == solved["mod_pi"][0]["tau"]

    def test_raw_gate_on_unbonded_pair(self, tmp_path, capsys):
        array, _, out = three_dot_files(tmp_path, CHAIN, [(0, [(1, 1.1)])])
        bits = np.arange(8)
        gate = raw_gate_file(tmp_path, np.pi * ((bits >> 2) & 1) * (bits & 1))  # CZ(0, 2)
        for command in ("check", "solve", "simulate"):
            assert run(command, array, gate, out) == 2
            assert "(0, 2)" in capsys.readouterr().out
        report = json.loads((out / "check.json").read_text())
        assert report["feasible"] is False
        assert report["unbonded_pairs"] == [[0, 2]]
        assert report["local_phases"] is None
        assert not (out / "solve.json").exists()
        assert not (out / "simulate.json").exists()
        assert run("calibrate", array, gate, out) == 1

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
        assert run("solve", array, gate, out, "--tau-max", "100") == 2
        captured = capsys.readouterr()
        assert "no candidate times" in captured.out and "Traceback" not in captured.err
        assert run("simulate", array, gate, out, "--tau-max", "100") == 2

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

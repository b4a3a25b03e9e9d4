"""Defeating bond inhomogeneity with instantaneous pulses.

Real bonds never match exactly; with an irrational velocity ratio the
unpulsed evolution never lands on the target phase lattice.  A pulse on
one dot reverses the velocity of every bond at that dot, so staged
evolution with solved durations steers each bond to its own target.  The
same stages then get woven into per-qubit X-Y echo trains at no cost to
any bond phase.
"""

import numpy as np

from dotgates import (
    Bond,
    CalibrationTarget,
    Dot,
    DotArray,
    GateSpec,
    MqcpFactor,
    PhaseVector,
    Spectrum,
    accumulated_bond_phases,
    equiv_up_to_free_phase,
    extra_local_phases,
    kspace_path,
    solve_intervals,
    weave_dd,
)
from dotgates.calibrate import stage_sign_matrix, straight_path_fold

print("=" * 72)
print("1. The problem: irrational velocity ratios miss the lattice forever")
print("=" * 72)

J = 1e-3
star = DotArray(
    [Dot(0, 1.0), Dot(1, 1.47), Dot(2, 0.63)],
    [
        Bond(0, 1, J, t=np.sqrt(0.85), s=1j * np.sqrt(0.15)),
        Bond(0, 2, J * np.sqrt(2), t=np.sqrt(0.78), s=1j * np.sqrt(0.22)),
    ],
)
v = [b.velocity for b in star.bonds]
print(f"velocity ratio: {v[0] / v[1]:.6f} (irrational by construction)")

target = CalibrationTarget.for_array(star, [np.pi / 2, np.pi / 2])
horizon = 30 * np.pi / min(v)
grid = np.linspace(0, horizon, 200_000)
folded = straight_path_fold(v, grid)
goal = np.array(target.phases) / np.pi
dist = np.max(np.minimum(np.abs(folded - goal), 1.0 - np.abs(folded - goal)), axis=1)
print(f"closest unpulsed approach to the target over {horizon:.0f} time units: "
      f"{np.min(dist):.4f} lattice units (never exact)")

print()
print("=" * 72)
print("2. The fix: staged evolution with velocity reversals")
print("=" * 72)

# a star is a forest: every bond sign pattern is some frame, so the schedule
# takes the least total any schedule can, the slow bond's pi/2 at its speed
schedule = solve_intervals(star, target)
print(f"stages: {[round(st.duration, 1) for st in schedule.stages]}, total "
      f"{schedule.total_time:.1f} = (pi/2) / min|Delta| = {np.pi / 2 / min(map(abs, v)):.1f}")
for st in schedule.stages:
    if not st.pulse.is_identity():
        print(f"  pulse after a stage: {st.pulse.labels}")
acc = accumulated_bond_phases(star, schedule)
print(f"accumulated bond phases mod pi: {np.round(np.mod(acc, np.pi), 9)} "
      f"(target pi/2 = {np.pi / 2:.9f})")

spec = GateSpec(factors=(MqcpFactor(0, [(1, np.pi), (2, np.pi)]),))
# diag(net^dag U) straight from one eigendecomposition; no dense propagator
stripped = Spectrum.of(star).diagonal(schedule)
_, _, residual = equiv_up_to_free_phase(PhaseVector(np.angle(stripped)), spec.expand(3))
print(f"exact pulsed simulation vs the controlled Z x Z target: "
      f"residual {residual:.2e} rad")
# the pulses' frame phases are a free phase, so removing them first changes
# the residual only by rounding
frame = extra_local_phases(schedule, star)
diag = PhaseVector(np.angle(stripped) - frame.expand().values)
_, _, stripped_residual = equiv_up_to_free_phase(diag, spec.expand(3))
print(f"  with the predicted frame phases removed first: residual {stripped_residual:.2e} rad")

print()
print("=" * 72)
print("3. A four-bond loop needs combined reversals")
print("=" * 72)

rect = DotArray(
    [Dot(0, 1.0), Dot(1, 1.42), Dot(2, 0.66), Dot(3, 1.85)],
    [
        Bond(0, 1, 1.00e-3, t=np.sqrt(0.92), s=1j * np.sqrt(0.08)),
        Bond(1, 3, 1.10e-3, t=np.sqrt(0.88), s=1j * np.sqrt(0.12)),
        Bond(0, 2, 1.30e-3, t=np.sqrt(0.83), s=1j * np.sqrt(0.17)),
        Bond(2, 3, 1.45e-3, t=np.sqrt(0.79), s=1j * np.sqrt(0.21)),
    ],
)
rect_target = CalibrationTarget.for_array(rect, [np.pi / 2] * 4)
stages = [frozenset(), frozenset({2}), frozenset({2, 3}), frozenset({3})]
rect_schedule = solve_intervals(rect, rect_target, stages)
print("per-stage bond signs (rows = bonds, columns = stages):")
print(stage_sign_matrix(rect, rect_schedule))
print(f"three pulses on two dots steer all four bonds to pi/2 "
      f"in {rect_schedule.total_time:.0f} time units")

print()
print("=" * 72)
print("4. Weaving in dynamical decoupling for free")
print("=" * 72)

woven = weave_dd(schedule)
drift = np.max(np.abs(accumulated_bond_phases(star, woven) - acc))
print(f"woven schedule: {len(woven.stages)} stages, "
      f"bond-phase drift {drift:.1e} (exactly zero by construction)")
for j in range(3):
    trace = [st.pulse.labels[j] for st in woven.stages if st.pulse.labels[j] != "I"]
    print(f"  dot {j} pulse trace: {'-'.join(trace)}")
print("each qubit sees an alternating X-Y echo train (net identity), so the")
print("same gate is produced while low-frequency noise is echoed away")

path = kspace_path(star, woven, samples_per_stage=4)
print(f"k-space path export: {path.raw.shape[0]} samples x {path.raw.shape[1]} bonds "
      f"(see kspace_path(...).to_csv())")

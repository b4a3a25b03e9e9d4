"""Which multi-qubit gates can an exchange-coupled array perform natively?

Walks the two composition rules on a three-qubit example: the parity rule
decides which diagonal gates are reachable at all with virtual-Z gauges,
and the dynamics rule turns the surviving targets into concrete evolution
times for a given geometry.
"""

import numpy as np

from dotgates import (
    Dot,
    DotArray,
    Bond,
    GateSpec,
    MqcpFactor,
    PhaseVector,
    assert_single_control,
    equiv_up_to_free_phase,
    mqcp_phase_solution,
    qubit_frame_evolution,
    read_bonds,
    solve_dynamics,
    solve_parity,
)

print("=" * 72)
print("1. The parity rule: one control qubit is all you get")
print("=" * 72)

# A doubly-controlled pi phase asks four incompatible congruences of the
# three local phases; the solver reports the contradiction as a residual.
ccz = [0.0, 0.0, 0.0, np.pi]
solution = solve_parity(ccz, 3)
analysis = assert_single_control(ccz)
print(f"doubly-controlled pi phase:  feasible={solution.feasible}, "
      f"residual={solution.residual:.3f} rad")
print(f"  second control detected: {analysis.second_control}")

# One control with independent target phases always works, in closed form.
czz = MqcpFactor(control=0, targets=[(1, np.pi), (2, np.pi)])
free = mqcp_phase_solution(czz, 3)
print(f"controlled Z x Z (both pi):  local phases {np.round(free.local, 4)}")
print("  (control = sum of target phases; targets = -theta/2 mod pi)")

print()
print("=" * 72)
print("2. The dynamics rule: geometry decides the gate time")
print("=" * 72)

# A star with the control in the middle; both bonds equally strong.
J = 1e-3
t, s = np.sqrt(0.8), np.sqrt(0.2)
star = DotArray(
    [Dot(0, 1.0), Dot(1, 1.45), Dot(2, 0.62)],
    [Bond(0, 1, J, t=t, s=s), Bond(0, 2, J, t=t, s=s)],
)
delta = star.bonds[0].velocity
print(f"bond velocity Delta = (J/2)(|t|^2 - |s|^2) = {delta:.2e}")

# Each bond's target phase is -theta/2 mod pi, read off the expanded gate.
target = GateSpec(factors=(czz,)).expand(3)
reading = read_bonds(star, target)
print(f"per-bond target phases: {np.round(reading.bond_phases, 4)}")
candidates = solve_dynamics(star, reading.bond_phases, tau_max=(6 * np.pi) / delta)
best = candidates.mod_pi.times[0]
print(f"first exact time on the fine (mod pi) lattice: tau = {best:.1f}"
      f"  (= pi/2 / Delta = {np.pi / 2 / delta:.1f})")

# Exact simulation confirms the fine lattice realizes the target...
u = qubit_frame_evolution(star, best)
_, _, res = equiv_up_to_free_phase(PhaseVector(np.angle(np.diag(u))), target, tol=1e-2)
print(f"exact simulation at that time matches the target up to free phases "
      f"(residual {res:.2e} rad)")

# ...while the coarse (mod 2pi) lattice lands on a non-entangling gate.
coarse = candidates.mod_2pi.times[0]
u2 = qubit_frame_evolution(star, coarse)
_, _, res_id = equiv_up_to_free_phase(
    PhaseVector(np.angle(np.diag(u2))), PhaseVector.zeros(3), tol=1e-2
)
print(f"the coarse-lattice time tau = {coarse:.1f} gives a local-Z gate "
      f"instead (identity up to free phases, residual {res_id:.2e})")

print()
print("=" * 72)
print("3. A homogeneous chain at tau = pi/Delta: the end-to-end Z pair")
print("=" * 72)

chain = DotArray(
    [Dot(0, 1.0), Dot(1, 1.45), Dot(2, 0.62)],
    [Bond(0, 1, J, t=t, s=s), Bond(1, 2, J, t=t, s=s)],
)
tau_se = np.pi / chain.bonds[0].velocity
u3 = qubit_frame_evolution(chain, tau_se)
ends_z = PhaseVector(np.pi * np.array([0, 1, 0, 1, 1, 0, 1, 0], dtype=float))
_, _, res3 = equiv_up_to_free_phase(PhaseVector(np.angle(np.diag(u3))), ends_z, tol=5e-2)
print(f"homogeneous chain at tau = pi/Delta: evolution equals Z (x) I (x) Z")
print(f"  (end-to-end pair through the middle qubit, residual {res3:.2e} rad)")
print("  the phase pattern is independent of the chain length: superexchange")

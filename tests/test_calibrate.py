from math import gamma

import numpy as np
import pytest

from dotgates import (
    BudgetExceeded,
    CalibrationTarget,
    Dot,
    DotArray,
    FreePhase,
    GateSpec,
    InfeasibleSchedule,
    MqcpFactor,
    PauliAssignment,
    PhaseVector,
    PulseSchedule,
    Stage,
    accumulated_bond_phases,
    equiv_up_to_free_phase,
    extra_local_phases,
    kspace_path,
    solve_intervals,
    weave_dd,
)
from dotgates.basis import circular_distance
from dotgates.calibrate import (
    stage_sign_matrix,
    straight_path_fold,
    subset_signs,
)
from dotgates.simulate import pulsed_evolution

from conftest import assignment_vectors, grid_vector, make_bond, stellar_array
from test_assignment_span import linearly_spans, positively_spans
from test_frames import oracle_conjugated_grid


def time_upper_bound(n_targets, epsilon, v_min):
    """The paper's worst-case straight-path time to reach infidelity epsilon:
    ``tau = Gamma(n/2) / (sqrt(n-1) v_min) ((8/pi) / (eps (n-1)))^((n-2)/2)``,
    with ``v_min`` the smallest per-bond k-space speed |Delta_w| / (2 pi), the
    slowest coordinate of the straight path.  No flow reads it, so the
    formula lives here, checked against a simulated first passage."""
    n = n_targets
    return (
        gamma(n / 2.0)
        / (np.sqrt(n - 1.0) * v_min)
        * ((8.0 / np.pi) / (epsilon * (n - 1.0))) ** ((n - 2.0) / 2.0)
    )


def pulse_count(schedule, dot):
    """Number of X or Y pulses on ``dot``, read from the labels."""
    return sum(1 for st in schedule.stages if not st.pulse.is_identity() and st.pulse.labels[dot] in "XY")


def fully_connected(n, j_scale=1.0):
    dots = [Dot(j, 1.0 + 0.13 * j) for j in range(n)]
    bonds = [
        make_bond(j, k, j_scale, 0.8)
        for j in range(n)
        for k in range(j + 1, n)
    ]
    return DotArray(dots, bonds)


def rectangle_array(j_scale=1e-3, t_sq=(0.92, 0.88, 0.83, 0.79)):
    """Bonds in order N=(0,1), E=(1,3), W=(0,2), S=(2,3)."""
    eps = [1.0, 1.42, 0.66, 1.85]
    scales = [1.0, 1.1, 1.3, 1.45]
    edges = [(0, 1), (1, 3), (0, 2), (2, 3)]
    bonds = [
        make_bond(j, k, j_scale * c, q)
        for (j, k), c, q in zip(edges, scales, t_sq)
    ]
    return DotArray([Dot(j, e) for j, e in enumerate(eps)], bonds)


EQ_SIGN_MATRIX = np.array(
    [[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, -1, 1], [1, -1, 1, -1]]
)
RECT_STAGE_SUBSETS = [frozenset(), frozenset({2}), frozenset({2, 3}), frozenset({3})]


PAULI_2X2 = {
    "I": np.eye(2),
    "X": np.array([[0, 1], [1, 0]]),
    "Y": np.array([[0, -1j], [1j, 0]]),
    "Z": np.diag([1, -1]),
}


def kron_labels(labels):
    out = np.array([[1.0 + 0j]])
    for lab in labels:
        out = np.kron(out, PAULI_2X2[lab])
    return out


class TestPauliBits:
    @pytest.mark.parametrize("a", "IXYZ")
    @pytest.mark.parametrize("b", "IXYZ")
    def test_compose_matches_dense_product(self, a, b):
        prod, phase = PauliAssignment.from_labels([a]).compose(PauliAssignment.from_labels([b]))
        assert np.max(np.abs(phase * prod.matrix() - PAULI_2X2[a] @ PAULI_2X2[b])) <= 1e-15
        assert abs(abs(phase) - 1.0) <= 1e-15

    def test_strings_on_bits(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 6))
            labels = [list(rng.choice(list("IXYZ"), size=n)) for _ in range(int(rng.integers(2, 7)))]
            pa = PauliAssignment.from_labels(labels[0])
            assert np.array_equal(pa.matrix(), kron_labels(labels[0]))
            m = rng.normal(size=(1 << n, 1 << n)) + 1j * rng.normal(size=(1 << n, 1 << n))
            assert np.allclose(pa.apply_rows(m), kron_labels(labels[0]) @ m, atol=1e-14)
            scale = np.exp(1j * rng.uniform(0.0, 2 * np.pi, size=1 << n))
            dense = np.diag(scale) @ kron_labels(labels[0]) @ m
            assert np.allclose(pa.apply_rows(m, scale), dense, atol=1e-14)
            # a block of rows is those rows of the whole, to the bit
            start = int(rng.integers(0, 1 << n))
            block = slice(start, start + int(rng.integers(1, 1 << n)))
            assert np.array_equal(pa.apply_rows(m, scale, block), pa.apply_rows(m, scale)[block])
            # factors applied in order, first label first: compose is exact on the masks
            prod, phase, dense = PauliAssignment(n), 1, np.eye(1 << n)
            for la in labels:
                prod, step = PauliAssignment.from_labels(la).compose(prod)
                phase *= step
                dense = kron_labels(la) @ dense
            assert phase in (1, 1j, -1, -1j)
            assert np.array_equal(phase * prod.matrix(), dense)

    def test_labels_read_back_the_masks(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 7))
            p = PauliAssignment(n, int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n)))
            assert PauliAssignment.from_labels(p.labels) == p

    @pytest.mark.parametrize("labels", [["X", "I"], "XI", ("Z",)])
    def test_a_label_call_raises(self, labels):
        # labels go through from_labels; the constructor takes a width and masks
        with pytest.raises(TypeError):
            PauliAssignment(labels)

    @pytest.mark.parametrize("x, z", [(4, 0), (0, 4), (-1, 0), (0, -2)])
    def test_masks_outside_the_width_raise(self, x, z):
        with pytest.raises(ValueError, match=r"not in \[0, 2\^2\)"):
            PauliAssignment(2, x, z)

    def test_masks_follow_basis_order(self):
        p = PauliAssignment.from_labels("XYZI")
        assert (p.x_mask, p.z_mask) == (0b1100, 0b0110)
        assert PauliAssignment(3).is_identity()
        assert not PauliAssignment.from_labels("IZI").is_identity()


class TestConjugatedGridVector:
    """The frame grid oracle that the exact pulsed-propagator tests compare
    against: X and Y on one end of a bond swap its rates, Z and I do not."""

    def test_identity_assignment(self, rng):
        arr = stellar_array(2, rng=rng)
        q = PauliAssignment(3)
        assert oracle_conjugated_grid(arr, q) == pytest.approx(grid_vector(arr))

    def test_single_endpoint_flip_swaps_rates(self):
        bond = make_bond(0, 1, 1.0, 0.8)
        arr = DotArray([Dot(0, 1.0), Dot(1, 1.2)], [bond])
        s, t = bond.spin_flip_rate, bond.spin_conserved_rate
        for label in ("X", "Y"):
            q = PauliAssignment.from_labels(["I", label])
            assert oracle_conjugated_grid(arr, q) == pytest.approx([t, s, s, t])

    def test_double_flip_restores(self):
        bond = make_bond(0, 1, 1.0, 0.8)
        arr = DotArray([Dot(0, 1.0), Dot(1, 1.2)], [bond])
        for labels in (("X", "Y"), ("X", "X"), ("Y", "Y")):
            q = PauliAssignment.from_labels(labels)
            assert oracle_conjugated_grid(arr, q) == pytest.approx(grid_vector(arr))

    def test_z_labels_do_nothing(self, rng):
        arr = stellar_array(3, rng=rng)
        q = PauliAssignment.from_labels(["Z", "I", "Z", "I"])
        assert oracle_conjugated_grid(arr, q) == pytest.approx(grid_vector(arr))


class TestAssignmentVectors:
    def test_single_bond(self):
        arr = DotArray([Dot(0, 1.0), Dot(1, 1.2)], [make_bond(0, 1, 1.0, 0.8)])
        enum = assignment_vectors(arr)
        assert set(enum.vectors) == {(1,), (-1,)}
        assert enum.n_distinct == 2

    def test_triangle_counts(self):
        enum = assignment_vectors(fully_connected(3))
        assert enum.n_distinct == 4
        assert enum.n_bonds == 3
        assert enum.n_distinct > enum.n_bonds
        assert linearly_spans(enum)
        assert positively_spans(enum)

    def test_complement_gives_same_vector(self, rng):
        arr = fully_connected(4)
        full = frozenset(range(4))
        for _ in range(8):
            size = int(rng.integers(0, 5))
            subset = frozenset(rng.choice(4, size=size, replace=False).tolist())
            assert np.array_equal(
                subset_signs(arr, subset), subset_signs(arr, full - subset)
            )

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_fully_connected_doubling(self, n):
        enum_n = assignment_vectors(fully_connected(n))
        enum_next = assignment_vectors(fully_connected(n + 1)) if n < 7 else None
        n_b = n * (n - 1) // 2
        assert enum_n.n_bonds == n_b
        assert enum_n.n_distinct >= n_b
        assert positively_spans(enum_n)
        if enum_next is not None:
            assert enum_next.n_distinct >= 2 * enum_n.n_distinct


class TestSolveIntervals:
    def test_homogeneous_single_stage(self):
        arr = DotArray(
            [Dot(0, 1.0), Dot(1, 1.3), Dot(2, 0.7)],
            [make_bond(0, 1, 1e-3, 0.8), make_bond(0, 2, 1e-3, 0.8)],
        )
        target = CalibrationTarget.for_array(arr, [np.pi / 2, np.pi / 2])
        sched = solve_intervals(arr, target)
        assert len(sched.stages) == 1
        assert sched.stages[0].pulse == PauliAssignment(3)
        delta = arr.bonds[0].velocity
        assert sched.stages[0].duration == pytest.approx((np.pi / 2) / delta)

    def test_rectangle_reproduces_sign_matrix(self):
        arr = rectangle_array()
        target = CalibrationTarget.for_array(arr, [np.pi / 2] * 4)
        sched = solve_intervals(arr, target, RECT_STAGE_SUBSETS)
        assert np.array_equal(stage_sign_matrix(arr, sched), EQ_SIGN_MATRIX)
        pulses = [st.pulse.labels for st in sched.stages if not st.pulse.is_identity()]
        assert pulses == [tuple("IIXI"), tuple("IIIX"), tuple("IIXI")]
        acc = accumulated_bond_phases(arr, sched)
        assert np.max(circular_distance(acc, np.pi / 2, np.pi)) <= 1e-9

    def test_schedule_phases_hit_targets(self, rng):
        for _ in range(10):
            arr = stellar_array(int(rng.integers(2, 4)), rng=rng)
            phases = rng.uniform(0.2, np.pi - 0.2, size=arr.n_bonds)
            target = CalibrationTarget.for_array(arr, phases)
            sched = solve_intervals(arr, target)
            acc = accumulated_bond_phases(arr, sched)
            assert np.max(circular_distance(acc, phases, np.pi)) <= 1e-9
            assert all(st.duration >= 0 for st in sched.stages)

    def test_first_assignment_must_be_trivial(self):
        arr = rectangle_array()
        target = CalibrationTarget.for_array(arr, [np.pi / 2] * 4)
        with pytest.raises(ValueError):
            solve_intervals(arr, target, [frozenset({2}), frozenset()])

    def test_infeasible_reports_best_residual(self):
        # the slow bond is the one the chosen assignment can flip, so with a
        # zero offset bound one duration comes out negative
        arr = DotArray(
            [Dot(0, 1.0), Dot(1, 1.3), Dot(2, 0.7)],
            [make_bond(0, 1, 1e-3, 0.6), make_bond(0, 2, 1e-3, 0.9)],
        )
        target = CalibrationTarget.for_array(arr, [np.pi / 2, np.pi / 2])
        with pytest.raises(InfeasibleSchedule) as info:
            solve_intervals(arr, target, [frozenset(), frozenset({1})], offset_bound=0)
        assert info.value.best_residual >= 0.0

    def test_zero_velocity_bond_needs_null_phase(self):
        arr = DotArray(
            [Dot(0, 1.0), Dot(1, 1.3), Dot(2, 0.7)],
            [make_bond(0, 1, 1e-3, 0.8), make_bond(0, 2, 1e-3, 0.5)],
        )
        with pytest.raises(ValueError):
            CalibrationTarget.for_array(arr, [np.pi / 2, np.pi / 2])
        target = CalibrationTarget.for_array(arr, [np.pi / 2, 0.0])
        sched = solve_intervals(arr, target)
        acc = accumulated_bond_phases(arr, sched)
        assert circular_distance(acc[0], np.pi / 2, np.pi) <= 1e-9


class TestScheduleJson:
    def test_round_trip(self, rng):
        arr = stellar_array(3, rng=rng)
        target = CalibrationTarget.for_array(arr, rng.uniform(0.3, 2.7, size=3))
        sched = solve_intervals(arr, target)
        back = PulseSchedule.from_json(sched.to_json(), arr.n_dots)
        assert back.total_time == pytest.approx(sched.total_time)
        assert accumulated_bond_phases(arr, back) == pytest.approx(
            accumulated_bond_phases(arr, sched)
        )

    def test_pulse_records_only_non_identity(self):
        sched = PulseSchedule(
            3, [Stage(1.0, PauliAssignment.from_labels(["I", "X", "I"])), Stage(2.0, None)]
        )
        doc = sched.to_json()
        assert '"dot": 1' in doc and '"dot": 0' not in doc

    def test_a_missing_pulse_is_the_identity(self):
        for n in (1, 3, 6):
            assert PulseSchedule(n, [Stage(2.5)]) == PulseSchedule(n, [Stage(2.5, PauliAssignment(n))])
            assert PulseSchedule(n, [Stage(2.5, None)]).stages[0].pulse == PauliAssignment(n)

    @pytest.mark.parametrize("duration", [float("nan"), float("inf"), -1.0])
    def test_stage_refuses_a_duration(self, duration):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            Stage(duration)

    @pytest.mark.parametrize(
        "doc", [{"stages": [{"tau": "nan"}]}, '{"stages": [{"tau": NaN}]}',
                '{"stages": [{"tau": 1.0}, {"tau": Infinity}]}'],
        ids=["nan-text", "nan-json", "infinity-json"],
    )
    def test_non_finite_tau_raises(self, doc):
        with pytest.raises(ValueError, match="must be finite"):
            PulseSchedule.from_json(doc, 2)

    def test_repeated_dot_raises(self):
        # read in order, the later label would silently replace the earlier
        pulse = [{"dot": 0, "pauli": "X"}, {"dot": 0, "pauli": "Z"}]
        with pytest.raises(ValueError, match="names dot 0 twice"):
            PulseSchedule.from_json({"stages": [{"tau": 1.0, "pulse": pulse}]}, 2)

    @pytest.mark.parametrize("dot", [-1, 3])
    def test_dot_outside_the_array_raises(self, dot):
        # -1 would otherwise flip the last dot, and 3 would raise IndexError
        doc = {"stages": [{"tau": 1.0, "pulse": [{"dot": dot, "pauli": "X"}]}]}
        with pytest.raises(ValueError, match=r"dot .* is not in 0\.\.2"):
            PulseSchedule.from_json(doc, 3)

    def test_non_integer_dot_raises(self):
        doc = {"stages": [{"tau": 1.0, "pulse": [{"dot": 1.5, "pauli": "X"}]}]}
        with pytest.raises(ValueError, match="must be an integer"):
            PulseSchedule.from_json(doc, 3)


class TestExtraLocalPhases:
    def test_no_pulses(self, rng):
        arr = stellar_array(2, rng=rng)
        sched = PulseSchedule(3, [Stage(10.0, None)])
        assert sched.net_pulse().is_identity()
        assert extra_local_phases(sched, arr) == FreePhase(0.0, (0.0, 0.0, 0.0))

    def test_three_pulse_pattern(self):
        eps = [1.0, 1.47, 0.63]
        arr = DotArray(
            [Dot(j, e) for j, e in enumerate(eps)],
            [make_bond(0, 1, 1e-4, 0.85), make_bond(0, 2, 1e-4, 0.78)],
        )
        t = [1000.0, 700.0, 400.0, 900.0]
        sched = PulseSchedule(3, [
            Stage(t[0], PauliAssignment.x_on([1], 3)),
            Stage(t[1], PauliAssignment.x_on([2], 3)),
            Stage(t[2], PauliAssignment.x_on([0], 3)),
            Stage(t[3], None),
        ])
        assert sched.net_pulse().labels == ("X", "X", "X")
        # half-angles (t0 + t1 + t2) eps0, t0 eps1 and (t0 + t1) eps2, as a free phase
        phi = np.array([(t[0] + t[1] + t[2]) * eps[0], t[0] * eps[1], (t[0] + t[1]) * eps[2]])
        free = extra_local_phases(sched, arr)
        want = FreePhase(-np.sum(phi), 2.0 * phi)
        assert circular_distance(free.global_phase, want.global_phase) <= 1e-9
        assert np.max(circular_distance(np.array(free.local), np.array(want.local))) <= 1e-9

    def test_prediction_matches_exact_unitary(self):
        # strip the net Pauli; the diagonal phases then factor into the
        # staged entangling phases plus the predicted per-qubit phases
        eps = [1.0, 1.47, 0.63]
        arr = DotArray(
            [Dot(j, e) for j, e in enumerate(eps)],
            [make_bond(0, 1, 1e-4, 0.85), make_bond(0, 2, 1e-4, 0.78)],
        )
        sched = PulseSchedule(3, [
            Stage(1000.0, PauliAssignment.x_on([1], 3)),
            Stage(700.0, PauliAssignment.x_on([2], 3)),
            Stage(400.0, PauliAssignment.x_on([0], 3)),
            Stage(900.0, None),
        ])
        u = pulsed_evolution(arr, sched)
        stripped = sched.net_pulse().matrix().conj().T @ u
        entangle = np.zeros(8)
        for mask, st in zip(sched.frames().tolist(), sched.stages):
            q = PauliAssignment.x_on([j for j in range(3) if mask >> (2 - j) & 1], 3)
            entangle += st.duration * oracle_conjugated_grid(arr, q)
        predicted = PhaseVector(entangle + extra_local_phases(sched, arr).expand().values)
        actual = PhaseVector(np.angle(np.diag(stripped)))
        assert actual.distance(predicted) <= 1e-4


class TestWeave:
    def test_empty_single_stage_echo(self):
        # one free-evolution stage becomes a plain XYXY echo
        sched = PulseSchedule(2, [Stage(8.0, None)])
        woven = weave_dd(sched)
        for j in range(2):
            assert pulse_count(woven, j) == 4
        labels = [
            st.pulse.labels[0] for st in woven.stages if not st.pulse.is_identity()
        ]
        assert labels == ["X", "Y", "X", "Y"]
        # classic spacing: pulses at T/4, T/2, 3T/4, T
        boundaries = np.cumsum([st.duration for st in woven.stages])
        assert boundaries[:4] == pytest.approx([2.0, 4.0, 6.0, 8.0])
        assert woven.net_pulse().is_identity()

    def test_zero_time_schedule_gets_an_instant_echo(self):
        # a target that needs no time still gets its XYXY train, at t = 0
        woven = weave_dd(PulseSchedule(2, [Stage(0.0, None)]))
        assert woven.total_time == 0.0
        for j in range(2):
            assert pulse_count(woven, j) == 4
        labels = [st.pulse.labels[0] for st in woven.stages if not st.pulse.is_identity()]
        assert labels == ["X", "Y", "X", "Y"]
        assert woven.net_pulse().is_identity()

    def test_neutrality_and_identity_net(self, rng):
        for _ in range(8):
            arr = stellar_array(int(rng.integers(2, 4)), rng=rng)
            phases = rng.uniform(0.3, np.pi - 0.3, size=arr.n_bonds)
            target = CalibrationTarget.for_array(arr, phases)
            sched = solve_intervals(arr, target)
            woven = weave_dd(sched)
            base = accumulated_bond_phases(arr, sched)
            after = accumulated_bond_phases(arr, woven)
            assert np.max(np.abs(after - base)) <= 1e-9
            assert woven.net_pulse().is_identity()
            for j in range(arr.n_dots):
                assert pulse_count(woven, j) % 4 == 0
                assert pulse_count(woven, j) >= 4

    def test_alternating_traces(self, rng):
        arr = stellar_array(3, rng=rng)
        target = CalibrationTarget.for_array(arr, rng.uniform(0.3, 2.7, size=3))
        woven = weave_dd(solve_intervals(arr, target))
        for j in range(arr.n_dots):
            trace = [
                st.pulse.labels[j]
                for st in woven.stages
                if not st.pulse.is_identity() and st.pulse.labels[j] != "I"
            ]
            assert trace == ["X", "Y"] * (len(trace) // 2)

    def test_same_gate_after_weaving(self, rng):
        arr = stellar_array(2, rng=rng, j_scale=1e-3)
        target = CalibrationTarget.for_array(arr, [np.pi / 2] * 2)
        sched = solve_intervals(arr, target)
        woven = weave_dd(sched)
        spec = GateSpec(factors=(MqcpFactor(0, [(1, np.pi), (2, np.pi)]),))
        expected = spec.expand(3)

        def gate_of(s):
            u = pulsed_evolution(arr, s)
            diag = np.angle(np.diag(s.net_pulse().matrix().conj().T @ u))
            return PhaseVector(diag - extra_local_phases(s, arr).expand().values)

        ok1, _, r1 = equiv_up_to_free_phase(gate_of(sched), expected, tol=1e-2)
        ok2, _, r2 = equiv_up_to_free_phase(gate_of(woven), expected, tol=1e-2)
        assert ok1 and ok2

    def test_budget_guard(self, rng):
        arr = stellar_array(2, rng=rng)
        target = CalibrationTarget.for_array(arr, rng.uniform(0.3, 2.7, size=2))
        sched = solve_intervals(arr, target)
        with pytest.raises(BudgetExceeded):
            weave_dd(sched, budget=2)


class TestKSpacePath:
    def test_homogeneous_straight_line_to_half_half(self):
        # two equal bonds, no pulses: the path reaches phase (pi, pi), the
        # point (1/2, 1/2) in units of 2pi, at tau_min
        arr = DotArray(
            [Dot(0, 1.0), Dot(1, 1.3), Dot(2, 0.7)],
            [make_bond(0, 1, 1e-3, 0.8), make_bond(0, 2, 1e-3, 0.8)],
        )
        delta = arr.bonds[0].velocity
        tau_min = np.pi / delta
        sched = PulseSchedule(3, [Stage(tau_min, None)])
        path = kspace_path(arr, sched)
        assert path.raw[-1] == pytest.approx([1.0, 1.0])  # phase / pi
        # units of 2pi = phase / 2pi
        assert path.raw[-1] / 2.0 == pytest.approx([0.5, 0.5])
        # on the pi lattice the target pi folds onto the lattice point 0
        assert np.max(circular_distance(path.folded[-1], 0.0, 1.0)) <= 1e-9
        # straight line: intermediate point proportional
        mid = kspace_path(arr, PulseSchedule(3, [Stage(tau_min / 2, None)]))
        assert mid.raw[-1] == pytest.approx([0.5, 0.5])
        assert mid.folded[-1] == pytest.approx([0.5, 0.5])

    def test_rational_ratio_hits_lattice_point(self):
        # velocities 5:3 reach the point (5/2, 3/2) in units of 2pi
        arr = DotArray(
            [Dot(0, 1.0), Dot(1, 1.3), Dot(2, 0.7)],
            [make_bond(0, 1, 1e-3, 0.75), make_bond(0, 2, 1e-3 * 3.0 / 5.0, 0.75)],
        )
        v1, v2 = (b.velocity for b in arr.bonds)
        assert v1 / v2 == pytest.approx(5.0 / 3.0)
        tau = (5.0 / 2.0) * 2.0 * np.pi / v1
        path = kspace_path(arr, PulseSchedule(3, [Stage(tau, None)]))
        assert path.raw[-1] / 2.0 == pytest.approx([2.5, 1.5])
        # the endpoint sits on the pi lattice point of the target phases pi
        assert np.max(circular_distance(path.folded[-1] * np.pi, np.pi, np.pi)) <= 1e-9

    def test_irrational_ratio_never_lands(self):
        arr = DotArray(
            [Dot(0, 1.0), Dot(1, 1.3), Dot(2, 0.7)],
            [make_bond(0, 1, 1e-3, 0.8), make_bond(0, 2, 1e-3 / np.sqrt(2), 0.8)],
        )
        target = CalibrationTarget.for_array(arr, [np.pi / 2, np.pi / 2])
        velocities = [b.velocity for b in arr.bonds]
        horizon = 40.0 * np.pi / min(velocities)
        grid = np.linspace(0.0, horizon, 250_000)
        folded = straight_path_fold(velocities, grid)
        goal = np.mod(np.array(target.phases) / np.pi, 1.0)
        delta = np.abs(folded - goal)
        dist = np.max(np.minimum(delta, 1.0 - delta), axis=1)
        assert np.min(dist) > 1e-3

    def test_csv_columns(self, rng):
        arr = stellar_array(2, rng=rng)
        target = CalibrationTarget.for_array(arr, [0.7, 1.1])
        sched = solve_intervals(arr, target)
        csv = kspace_path(arr, sched).to_csv()
        header = csv.splitlines()[0]
        assert header == "time,bond_id,phase_over_pi,folded_phase_over_pi"
        assert len(csv.splitlines()) == 1 + (len(sched.stages) + 1) * arr.n_bonds

    def test_csv_matches_cell_by_cell_formatter(self, rng):
        arr = stellar_array(3, rng=rng)
        target = CalibrationTarget.for_array(arr, [0.7, 1.1, 2.9])
        path = kspace_path(arr, solve_intervals(arr, target), samples_per_stage=8)
        lines = ["time,bond_id,phase_over_pi,folded_phase_over_pi"]
        for i, t in enumerate(path.times):
            for w in range(path.raw.shape[1]):
                lines.append(
                    f"{float(t)!r},{w},{float(path.raw[i, w])!r},{float(path.folded[i, w])!r}"
                )
        assert path.to_csv() == "\n".join(lines) + "\n"


class TestTimeUpperBound:
    def test_two_targets_epsilon_independent(self):
        v = 0.37
        assert time_upper_bound(2, 0.01, v) == pytest.approx(1.0 / v)
        assert time_upper_bound(2, 0.3, v) == pytest.approx(1.0 / v)

    def test_three_target_formula(self):
        v, eps = 0.21, 0.01
        expected = (1.0 / (np.sqrt(2.0) * v)) * gamma(1.5) * ((8.0 / np.pi) / (eps * 2.0)) ** 0.5
        assert time_upper_bound(3, eps, v) == pytest.approx(expected)

    def test_diverges_for_small_epsilon(self):
        assert time_upper_bound(4, 1e-9, 0.5) > time_upper_bound(4, 1e-3, 0.5) * 1e3

    def test_first_passage_order_of_magnitude(self):
        # the bound should dominate the simulated first-passage time of the
        # unpulsed straight path to the matching infidelity ball, without
        # being astronomically loose
        from dotgates.basis import bit_table, single_bit_index

        arr = DotArray(
            [Dot(0, 1.0), Dot(1, 1.3), Dot(2, 0.7)],
            [make_bond(0, 1, 1e-3, 0.8), make_bond(0, 2, 1e-3 / np.sqrt(2), 0.8)],
        )
        v_min = min(abs(b.velocity) for b in arr.bonds) / (2 * np.pi)
        eps = 3e-3
        bound = time_upper_bound(3, eps, v_min)
        lam = grid_vector(arr)
        czz = GateSpec(factors=(MqcpFactor(0, [(1, np.pi), (2, np.pi)]),)).expand(3)
        ts = np.linspace(0.0, bound, 60_000)[1:]
        delta = np.outer(ts, lam) - czz.values[None, :]
        bits = bit_table(3)
        anchors = [single_bit_index(j, 3) for j in range(3)]
        phi_g = delta[:, [0]]
        phi_loc = delta[:, anchors] - phi_g
        matched = delta - (phi_g + phi_loc @ bits.T)
        trace_sq = np.abs(np.exp(1j * matched).sum(axis=1)) ** 2
        infid = 1.0 - (8.0 + trace_sq) / (8.0 * 9.0)
        below = np.flatnonzero(infid <= eps)
        assert below.size > 0
        first = ts[below[0]]
        assert first <= bound
        assert bound <= 1e4 * first

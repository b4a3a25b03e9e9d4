"""One spectrum per array: diagonal readouts against dense references."""

import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from dotgates import (
    CalibrationTarget,
    DegenerateSpectrum,
    Dot,
    DotArray,
    PauliAssignment,
    PhaseVector,
    PulseSchedule,
    Spectrum,
    Stage,
    build_hamiltonian,
    pulsed_evolution,
    qubit_frame_evolution,
    simulate,
    simulate_gate,
    solve_intervals,
    weave_dd,
)
from dotgates.basis import circular_distance, wrap_pm_pi
from dotgates.simulate import MIN_OVERLAP, _eigh, optimal_phase_correction, scaled_zeeman_array

from conftest import (
    argmax_match,
    chain_array,
    make_bond,
    min_column_overlap,
    random_connected_array,
    simulate_time,
    stellar_array,
)

PAULI_2X2 = {
    "I": np.eye(2),
    "X": np.array([[0, 1], [1, 0]]),
    "Y": np.array([[0, -1j], [1j, 0]]),
    "Z": np.diag([1, -1]),
}


def kron_pulse(pulse):
    out = np.array([[1.0 + 0j]])
    for lab in pulse.labels:
        out = np.kron(out, PAULI_2X2[lab])
    return out


def expm_reference(array, schedule):
    """Stage-by-stage expm and Kronecker pulses, independent of Spectrum."""
    pair = build_hamiltonian(array)
    return expm_product(pair.h0, np.diag(pair.h0) + pair.h_ex, schedule)


def expm_product(h0, h, schedule):
    """The qubit-frame propagator of ``schedule`` under H, by expm."""
    u = np.eye(h.shape[0], dtype=complex)
    for st in schedule.stages:
        u = expm(-1j * st.duration * h) @ u
        if not st.pulse.is_identity():
            u = kron_pulse(st.pulse) @ u
    return np.exp(1j * schedule.total_time * h0)[:, None] * u


def dense_readout(array, schedule):
    net = schedule.net_pulse()
    return np.diag(net.matrix().conj().T @ pulsed_evolution(array, schedule))


def expm_readout(array, schedule):
    """``diag(net^dag U)`` from ``expm_reference``: no code of Spectrum."""
    net = kron_pulse(schedule.net_pulse())
    return np.diag(net.conj().T @ expm_reference(array, schedule))


def greedy_match(weights):
    """Basis row -> eigenvector column, pairs taken by descending weight
    with index tie-breaking: the reference pairing of ``argmax_match``.

    Each column's largest weight (lowest row on ties) comes first in this
    order among that column's entries, so when those rows are all distinct
    no pair blocks another and greedy takes exactly them.
    """
    dim = weights.shape[0]
    order = np.argsort(-weights, axis=None, kind="stable")
    basis_of = np.full(dim, -1)
    eig_of = np.full(dim, -1)
    for flat in order:
        n, m = divmod(int(flat), dim)
        if basis_of[n] < 0 and eig_of[m] < 0:
            basis_of[n] = m
            eig_of[m] = n
    return basis_of


def spectrum_with_vectors(evecs):
    """A spectrum whose eigenvectors are the columns of ``evecs``."""
    dim = evecs.shape[0]
    return Spectrum(np.zeros(dim), np.zeros(dim), np.arange(dim, dtype=float), evecs)


def random_schedule(rng, n, n_stages, labels="IXYZ", zero_frac=0.25):
    stages = []
    for i in range(n_stages):
        duration = 0.0 if rng.random() < zero_frac else float(rng.uniform(50.0, 900.0))
        pulse = None
        if i < n_stages - 1 or rng.random() < 0.5:
            pulse = PauliAssignment.from_labels(rng.choice(list(labels), size=n))
            if pulse.is_identity():
                pulse = None
        stages.append(Stage(duration, pulse))
    return PulseSchedule(n, stages)


def array_family(rng, n):
    yield chain_array(n, j_scale=1e-3, rng=rng)
    yield stellar_array(n - 1, rng=rng)
    yield random_connected_array(rng, n)


class TestPulsedDiagonal:
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_matches_dense_on_random_schedules(self, n):
        rng = np.random.default_rng(100 + n)
        for arr in array_family(rng, n):
            spectrum = Spectrum.of(arr)
            for _ in range(2):
                sched = random_schedule(rng, n, int(rng.integers(2, 6)))
                woven = [weave_dd(sched)] if sched.total_time > 0 else []
                for s in [sched] + woven:
                    got = spectrum.diagonal(s)
                    assert np.max(np.abs(got - dense_readout(arr, s))) <= 1e-12
                    assert np.max(np.abs(got - expm_readout(arr, s))) <= 1e-9

    @pytest.mark.parametrize("n", [3, 4])
    def test_matches_dense_on_solved_schedules(self, n):
        rng = np.random.default_rng(7 + n)
        for arr in (stellar_array(n - 1, j_scale=2e-4, rng=rng),
                    chain_array(n, j_scale=2e-4, rng=rng)):
            target = CalibrationTarget.for_array(arr, [np.pi / 2] * arr.n_bonds)
            base = solve_intervals(arr, target, offset_bound=3)
            spectrum = Spectrum.of(arr)
            for s in (base, weave_dd(base)):
                got = spectrum.diagonal(s)
                assert np.max(np.abs(got - dense_readout(arr, s))) <= 1e-12
                assert np.max(np.abs(got - expm_readout(arr, s))) <= 1e-9

    EDGE_SCHEDULES = {
        "y_and_z_labels": [
            Stage(300.0, PauliAssignment.from_labels("YZI")),
            Stage(200.0, PauliAssignment.from_labels("ZYY")),
            Stage(150.0, None),
        ],
        "zero_duration_stages": [
            Stage(250.0, PauliAssignment.from_labels("XII")),
            Stage(0.0, PauliAssignment.from_labels("IYZ")),
            Stage(0.0, PauliAssignment.from_labels("YIX")),
            Stage(400.0, None),
            Stage(0.0, None),
        ],
        "pulse_before_first_evolution": [
            Stage(0.0, PauliAssignment.from_labels("XYZ")),
            Stage(500.0, PauliAssignment.from_labels("IXI")),
            Stage(120.0, None),
        ],
        "adjacent_evolutions": [
            Stage(100.0, None),
            Stage(200.0, None),
            Stage(300.0, PauliAssignment.from_labels("YYY")),
        ],
        "scalar_boundary": [  # Z Y X = -i I: the boundary scales w and takes no rows
            Stage(300.0, PauliAssignment.from_labels("XII")),
            Stage(0.0, PauliAssignment.from_labels("YII")),
            Stage(0.0, PauliAssignment.from_labels("ZII")),
            Stage(200.0, None),
        ],
        "total_time_zero": [
            Stage(0.0, PauliAssignment.from_labels("XZY")),
            Stage(0.0, PauliAssignment.from_labels("ZIX")),
        ],
        "nothing_at_all": [Stage(0.0, None)],
    }

    @pytest.mark.parametrize("name", sorted(EDGE_SCHEDULES))
    def test_edge_schedules(self, name):
        arr = random_connected_array(np.random.default_rng(5), 3, j_scale=3e-3)
        sched = PulseSchedule(3, self.EDGE_SCHEDULES[name])
        dense = pulsed_evolution(arr, sched)
        assert np.max(np.abs(dense - expm_reference(arr, sched))) <= 1e-9
        got = Spectrum.of(arr).diagonal(sched)
        readout = np.diag(kron_pulse(sched.net_pulse()).conj().T @ dense)
        assert np.max(np.abs(got - readout)) <= 1e-12


    @pytest.mark.parametrize("n_dots", [1, 2, 6])
    def test_pulse_first_and_z_only_boundaries(self, n_dots):
        # at 2 and 4 rows one panel covers every column, at 64 two panels do;
        # a pulse before the first evolution is one gather of V^dag's columns,
        # and a Z-only boundary takes the reflection's x_mask == 0 branch.
        # One dot is no array, so H is a random Hermitian matrix here.
        rng = np.random.default_rng(30 + n_dots)
        dim = 1 << n_dots
        h0 = 1.0 + rng.random(dim)
        h_ex = 3e-3 * (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        h = np.diag(h0) + h_ex + h_ex.conj().T
        evals, evecs = np.linalg.eigh(h)
        spectrum = Spectrum(h0, np.real(np.diag(h)) - h0, evals, evecs)
        sched = PulseSchedule(n_dots, [
            Stage(0.0, PauliAssignment.from_labels("Y" * n_dots)),
            Stage(300.0, PauliAssignment.from_labels("Z" * n_dots)),
            Stage(200.0, PauliAssignment.from_labels("Y" * n_dots)),
            Stage(150.0, None),
        ])
        got = spectrum.diagonal(sched)
        # the dense product of the same factors, as pulsed_evolution forms it
        head, scale, w = spectrum._pulsed_factors(sched, PauliAssignment(n_dots))
        dense = head.apply_rows(evecs, scale) @ w
        net = kron_pulse(sched.net_pulse()).conj().T
        assert np.max(np.abs(got - np.diag(net @ dense))) <= 1e-12
        assert np.max(np.abs(got - np.diag(net @ expm_product(h0, h, sched)))) <= 1e-9


def random_unitary(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(z)
    return q


def composite(labels_list):
    """``(c, P_h)``: the pulses applied in order, first label first, composed
    on their masks into a scalar and a Pauli string."""
    out, c = PauliAssignment.from_labels(labels_list[0]), 1
    for labels in labels_list[1:]:
        out, phase = PauliAssignment.from_labels(labels).compose(out)
        c *= phase
    return c, out


class TestReflection:
    """``V^dag P V = C^dag C - I`` for every Pauli string P."""

    def assert_reflection(self, op, v):
        out = np.empty((v.shape[0], v.shape[0] // 2), dtype=complex)
        cols = op.reflection(v.T, out)  # C^T, read from the columns of V^T
        target = v.conj().T @ op.matrix() @ v
        if cols is None:
            assert op.is_identity()
            assert np.max(np.abs(target - np.eye(v.shape[0]))) <= 1e-13
            return cols
        assert cols is out
        rebuilt = cols.conj() @ cols.T - np.eye(v.shape[0])
        assert np.max(np.abs(target - rebuilt)) <= 1e-13
        return cols

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_pauli_strings_and_their_products(self, n):
        rng = np.random.default_rng(200 + n)
        scalars = set()
        for _ in range(12):
            v = random_unitary(rng, 1 << n)
            labels = [rng.choice(list("IXYZ"), size=n) for _ in range(int(rng.integers(1, 4)))]
            c, op = composite(labels)
            self.assert_reflection(op, v)
            scalars.add(c)
        assert scalars - {1}  # products carry phases i^k

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_pure_z_products(self, n):
        rng = np.random.default_rng(210 + n)
        for _ in range(8):
            labels = [rng.choice(list("IZ"), size=n) for _ in range(int(rng.integers(1, 3)))]
            c, op = composite(labels)
            assert op.x_mask == 0 and c == 1
            self.assert_reflection(op, random_unitary(rng, 1 << n))

    @pytest.mark.parametrize(
        "labels, scalar",
        [
            (["XZ", "XZ"], 1),  # a pulse and its inverse on zero-duration stages
            (["Z", "Y", "X"], 1j),  # X Y Z = i I
            (["ZZ", "YY", "XX"], -1),
            (["ZZZ", "YYY", "XXX"], -1j),
            (["XI", "IY", "XY"], 1),
        ],
    )
    def test_scalar_composites_take_no_rows(self, labels, scalar):
        rng = np.random.default_rng(220)
        v = random_unitary(rng, 1 << len(labels[0]))
        c, op = composite(labels)
        assert op.is_identity() and c == scalar
        assert self.assert_reflection(op, v) is None

    @pytest.mark.parametrize(
        "op", [["C", "Z"], ["H"], ["x", "I"], ["S", "I", "I"], ["I", "T"]]
    )
    def test_non_pauli_operator_raises(self, op):
        # a pulse is two masks, so an operator that is no Pauli string is
        # refused where the pulse is built, before any reflection
        with pytest.raises(ValueError, match="unknown Pauli label"):
            PauliAssignment.from_labels(op)

    def test_non_pauli_boundary_fails_the_chain(self):
        # a schedule document naming a non-Pauli boundary is refused when read
        doc = {"stages": [{"tau": 100.0, "pulse": [{"dot": 0, "pauli": "CZ"}]}, {"tau": 200.0}]}
        with pytest.raises(ValueError, match="unknown Pauli label"):
            PulseSchedule.from_json(doc, 2)


def oracle_leak(weights):
    """``sum_n (1 - overlap_n)`` over the argmax pairing, in basis-row order."""
    return float(np.sum(1.0 - weights[np.arange(weights.shape[0]), argmax_match(weights)]))


class TestMatching:
    def test_argmax_equals_greedy_on_arrays(self):
        rng = np.random.default_rng(11)
        for n in range(2, 8):
            for arr in array_family(rng, max(n, 3)):
                spectrum = Spectrum.of(arr)
                weights = np.abs(spectrum.evecs) ** 2
                assert np.array_equal(argmax_match(weights), greedy_match(weights))
                if min_column_overlap(spectrum.evecs) < MIN_OVERLAP:
                    with pytest.raises(DegenerateSpectrum):
                        spectrum.leak()
                else:
                    assert spectrum.leak() == oracle_leak(weights)  # bit for bit

    def test_argmax_equals_greedy_on_random_weights(self):
        # strongly mixed unitaries make column collisions common
        rng = np.random.default_rng(12)
        collisions = admitted = 0
        for dim in (2, 4, 8, 16):
            for _ in range(25):
                z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
                q, _ = np.linalg.qr(z)
                weights = np.abs(q) ** 2
                spectrum = spectrum_with_vectors(q)
                if argmax_match(weights) is not None:
                    assert np.array_equal(argmax_match(weights), greedy_match(weights))
                    if min_column_overlap(q) >= MIN_OVERLAP:
                        admitted += 1
                        assert spectrum.leak() == oracle_leak(weights)
                        continue
                else:
                    collisions += 1
                    # the theorem: any pairing, greedy's included, leaves some
                    # state at overlap <= 1/2
                    assert np.min(weights[np.arange(dim), greedy_match(weights)]) <= 0.5
                with pytest.raises(DegenerateSpectrum, match="overlaps its eigenvector by only"):
                    spectrum.leak()
        assert collisions > 0 and admitted > 0

    def test_collision_raises_degenerate_spectrum(self):
        # a Householder reflection I - (2/3) J: columns 1 and 2 both peak
        # on row 0 with weight 4/9, column 0 on row 1
        evecs = np.eye(3) - 2.0 / 3.0
        weights = evecs**2
        assert np.argmax(weights, axis=0).tolist() == [1, 0, 0]
        assert argmax_match(weights) is None
        with pytest.raises(DegenerateSpectrum, match="state 0 overlaps its eigenvector by only 0.444"):
            spectrum_with_vectors(evecs).leak()

    def test_exact_half_tie_raises(self):
        # every weight of the Hadamard is 1/2, so both columns pick row 0;
        # greedy would pair them at overlap exactly 1/2, below the floor
        evecs = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        assert greedy_match(evecs**2).tolist() == [0, 1]
        with pytest.raises(DegenerateSpectrum, match="state 0 overlaps its eigenvector by only 0.500"):
            spectrum_with_vectors(evecs).leak()

    def test_overlap_below_the_floor_raises(self):
        # exp(i phi J / 3) for the all-ones J: every column peaks on its own
        # row, at weight (5 + 4 cos phi) / 9 = 0.418 < 1/2 for phi = 0.6 pi
        evecs = np.eye(3) + (np.exp(0.6j * np.pi) - 1.0) / 3.0
        assert argmax_match(np.abs(evecs) ** 2).tolist() == [0, 1, 2]
        with pytest.raises(DegenerateSpectrum, match="state 0 overlaps its eigenvector by only 0.418"):
            spectrum_with_vectors(evecs).leak()

    @pytest.mark.parametrize("overlap", [0.5006, 0.6, 0.7499])
    def test_two_level_mixing_below_three_quarters_raises(self, overlap):
        # a rotation by theta with cos^2 theta = overlap: argmax pairs the two
        # states one to one, yet they are mixed past |V|/|dE| = sqrt(3)/2
        c, s = np.sqrt(overlap), np.sqrt(1.0 - overlap)
        evecs = np.array([[c, -s], [s, c]])
        assert argmax_match(evecs**2).tolist() == [0, 1]
        with pytest.raises(DegenerateSpectrum, match=f"by only {overlap:.3f}"):
            spectrum_with_vectors(evecs).leak()

    @pytest.mark.parametrize("overlap", [0.7501, 0.9, 1.0])
    def test_two_level_mixing_at_three_quarters_is_admitted(self, overlap):
        c, s = np.sqrt(overlap), np.sqrt(1.0 - overlap)
        evecs = np.array([[c, -s], [s, c]])
        assert min_column_overlap(evecs) >= MIN_OVERLAP
        assert spectrum_with_vectors(evecs).leak() == oracle_leak(evecs**2)


class TestSimulateGateDiagonal:
    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_fields_match_dense_reference(self, n):
        rng = np.random.default_rng(40 + n)
        for arr in array_family(rng, n):
            tau = float(rng.uniform(100.0, 3000.0))
            spectrum = Spectrum.of(arr)
            if min_column_overlap(spectrum.evecs) < MIN_OVERLAP:
                # n = 3: the random array's Zeeman energies 1.2508 and 1.2507
                # mix two states at overlap 0.535
                with pytest.raises(DegenerateSpectrum):
                    simulate_time(arr, tau)
                continue
            report = simulate_time(arr, tau)

            # the spectrum's own eigenpairs: tau up to 3000 would multiply a
            # second solver's rounding of E; TestEighKernel checks the pairs
            pair = build_hamiltonian(arr)
            evals, evecs = spectrum.evals, spectrum.evecs
            u = np.exp(1j * tau * pair.h0)[:, None] * (
                (evecs * np.exp(-1j * tau * evals)) @ evecs.conj().T
            )
            d = u.shape[0]
            ideal = -tau * np.real(np.diag(pair.h_ex))
            tr = np.sum(np.conj(np.diag(u)) * np.exp(1j * ideal))
            fidelity = (d + abs(tr) ** 2) / (d * (d + 1))
            residues = wrap_pm_pi(np.angle(np.diag(u)) - ideal)
            weights = np.abs(evecs) ** 2
            leak = float(np.sum(1.0 - weights[np.arange(d), greedy_match(weights)]))
            bound = 1.0 - 2 * d / (d + 1) * np.max(np.abs(residues)) - 4 / (d + 1) * leak
            post = optimal_phase_correction(residues, n).post

            assert np.max(np.abs(report.u_diag - np.diag(u))) <= 1e-12
            assert abs(report.fidelity - fidelity) <= 1e-12
            assert abs(report.leak - leak) <= 1e-12
            assert abs(report.bound - bound) <= 1e-12
            assert np.max(circular_distance(report.residues, residues)) <= 1e-12
            assert np.max(np.abs(report.post_residues - post)) <= 1e-12
            assert np.max(np.abs(qubit_frame_evolution(arr, tau) - u)) <= 1e-12

    def test_one_eigh_per_report(self, monkeypatch, rng):
        calls = []
        real_eigh = simulate._eigh
        monkeypatch.setattr(simulate, "_eigh", lambda a: calls.append(1) or real_eigh(a))
        simulate_time(stellar_array(3, rng=rng), 500.0)
        assert len(calls) == 1

    @pytest.mark.parametrize("n", range(2, 9))
    def test_a_time_is_its_one_stage_schedule(self, n):
        # a time reads the |V|^2 product it was always read by, and its
        # first-order ideal is -tau h_ex_diag, both bit for bit
        rng = np.random.default_rng(60 + n)
        tau = float(rng.uniform(100.0, 3000.0))
        chain, star, _ = ladder_arrays(rng, n, 1e-3)
        for arr in (chain, star):
            spectrum = Spectrum.of(arr)
            rot = np.exp(-1j * tau * spectrum.evals)
            mixed = np.abs(spectrum.evecs) ** 2 @ np.column_stack([rot.real, rot.imag])
            product = np.exp(1j * tau * spectrum.h0) * (mixed[:, 0] + 1j * mixed[:, 1])
            schedule = PulseSchedule(n, [Stage(tau)])
            assert np.array_equal(spectrum.diagonal(schedule), product)
            report = simulate_gate(spectrum, schedule)
            assert np.array_equal(report.u_diag, product)
            ideal = PhaseVector(-tau * spectrum.h_ex_diag)
            assert np.array_equal(report.u_ideal.values, ideal.values)

    @pytest.mark.parametrize("j_scale", [2e-4, 1e-3, 3e-3])
    def test_schedule_reports_hold_their_bound(self, j_scale):
        # a schedule's first-order ideal carries the Zeeman phases of its
        # frames and the scalar its pulses compose to; without either, some
        # residues sit near pi.  The rest is second order, J^2 / 0.4 over
        # the total time
        rng = np.random.default_rng(round(j_scale * 1e5))
        checked = 0
        for n in range(3, 8):
            for arr in ladder_arrays(rng, n, j_scale):
                target = CalibrationTarget.for_array(arr, rng.uniform(0.0, np.pi, arr.n_bonds))
                base = solve_intervals(arr, target)
                spectrum = Spectrum.of(arr)
                for schedule in (base, weave_dd(base)):
                    report = simulate_gate(spectrum, schedule)
                    if report.bound >= 0:
                        checked += 1
                        assert report.fidelity >= report.bound - 1e-12
                    if j_scale <= 1e-3:
                        assert report.max_residue < 0.1
        assert checked >= 20


def ladder_arrays(rng, n, j_scale):
    """A chain, a star and a random tree of n dots on the ladder Zeeman
    energies 1 + 0.4 j (+/- 0.05): every bond's gap is far above J."""
    zeemans = 1.0 + 0.4 * np.arange(n) + rng.uniform(-0.05, 0.05, n)
    tree = [make_bond(int(rng.integers(0, k)), k, j_scale * (0.6 + 0.8 * rng.random()),
                      0.72 + 0.2 * rng.random(), *rng.uniform(0.0, 2 * np.pi, 2))
            for k in range(1, n)]
    return (chain_array(n, j_scale, zeemans=zeemans, rng=rng),
            stellar_array(n - 1, j_scale, zeemans=zeemans, rng=rng),
            DotArray([Dot(j, float(e)) for j, e in enumerate(zeemans)], tree))


def array_hamiltonians(n):
    """H of a chain, a star and a tree of n dots, each at its own scale and
    with its Zeeman energies scaled to J/eps = 1e-4 and 1e-2."""
    rng = np.random.default_rng(300 + n)
    for arr in (chain_array(n, rng=rng), stellar_array(n - 1, rng=rng),
                random_connected_array(rng, n)):
        for scaled in (arr, scaled_zeeman_array(arr, 1e-4), scaled_zeeman_array(arr, 1e-2)):
            pair = build_hamiltonian(scaled)
            yield np.diag(pair.h0) + pair.h_ex


def random_hermitian(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return z + z.conj().T


@pytest.fixture(params=["direct", "fallback"])
def kernel(request, monkeypatch):
    """``_eigh`` on the direct LAPACK stages, then on numpy's eigh."""
    if request.param == "direct" and simulate._STAGES is None:
        pytest.skip("numpy's LAPACK exports no 64-bit-integer zhetrd, zungtr and dstedc")
    if request.param == "fallback":
        monkeypatch.setattr(simulate, "_STAGES", None)
    return request.param


class TestEighKernel:
    """``_eigh`` against ``numpy.linalg.eigh``, on both of its paths."""

    def assert_matches_numpy(self, h):
        evals, evecs = _eigh(h.copy())  # the direct path overwrites its argument
        ref_evals, ref_evecs = np.linalg.eigh(h)
        scale = max(1.0, float(np.max(np.abs(ref_evals))))
        assert np.max(np.abs(evals - ref_evals)) <= 1e-14 * scale
        assert np.max(np.abs(h @ evecs - evecs * evals)) <= 1e-13 * scale
        assert np.max(np.abs(evecs.conj().T @ evecs - np.eye(h.shape[0]))) <= 1e-13 * scale
        # |V|^2 is unique only for simple eigenvalues: an exact tie leaves V
        # free within its eigenspace, and a near-tie turns rounding into a
        # rotation of size eps |E| / gap
        gaps = np.diff(evals)
        nearest = np.minimum(np.append(gaps, np.inf), np.insert(gaps, 0, np.inf))
        simple = nearest > 1e-6 * scale
        weights, ref_weights = np.abs(evecs) ** 2, np.abs(ref_evecs) ** 2
        assert np.max(np.abs(weights - ref_weights)[:, simple], initial=0.0) <= 1e-12
        return simple

    @pytest.mark.parametrize("n", range(2, 10))
    def test_arrays(self, kernel, n):
        for h in array_hamiltonians(n):
            assert self.assert_matches_numpy(h).all()

    @pytest.mark.parametrize("dim", [1, 2, 7, 64, 200])
    def test_random_hermitian(self, kernel, dim):
        self.assert_matches_numpy(random_hermitian(np.random.default_rng(400 + dim), dim))

    def test_exactly_degenerate(self, kernel):
        assert not self.assert_matches_numpy(np.eye(16, dtype=complex)).any()
        diag = np.diag([2.0, -1.0, 2.0, 0.5, -1.0, 2.0, 3.0]).astype(complex)
        assert self.assert_matches_numpy(diag).tolist() == [False, False, True, False, False, False, True]

    def test_non_convergence_raises(self, kernel, monkeypatch):
        if kernel == "fallback":
            def fail(_):
                raise np.linalg.LinAlgError("Eigenvalues did not converge")

            monkeypatch.setattr(np.linalg, "eigh", fail)
            with pytest.raises(simulate.EigensolverFailure):
                _eigh(np.eye(4, dtype=complex))
            return
        stages = simulate._STAGES
        for name in stages._fields:
            # a stage's info is its last argument before the hidden string length
            failing = stages._replace(**{name: lambda *args: setattr(args[-2], "value", 3)})
            monkeypatch.setattr(simulate, "_STAGES", failing)
            with pytest.raises(simulate.EigensolverFailure, match=f"LAPACK {name} returned info = 3"):
                _eigh(random_hermitian(np.random.default_rng(7), 40))


def test_direct_kernel_resolves_on_scipy_openblas():
    # pip's numpy wheels link scipy-openblas, whose three stages the direct
    # path calls: a renamed symbol there would silently fall back to numpy's
    # eigh, at about twice the time and 1.5x the memory
    try:
        lapack = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]["name"]
    except (TypeError, KeyError) as exc:  # numpy < 1.26 has no mode="dicts"
        pytest.skip(f"numpy reports no LAPACK name ({exc!r})")
    if lapack != "scipy-openblas":
        pytest.skip(f"numpy's LAPACK is {lapack}, not scipy-openblas")
    assert simulate._STAGES is not None
    names = [func.__name__ for func in simulate._STAGES]
    assert names == [f"scipy_{stage}_64_" for stage in simulate._STAGES._fields]


@pytest.mark.parametrize("n", [8, 9, 10])
def test_spectrum_peaks_at_twice_the_hamiltonian(n):
    # H and the eigenvectors share one buffer, and beside it the direct path
    # holds at most Z and dstedc's work, n^2 floats each; tracemalloc sees
    # numpy's buffers, so the peak is exact and reads no OS counter
    if simulate._STAGES is None:
        pytest.skip("numpy's LAPACK exports no 64-bit-integer zhetrd, zungtr and dstedc")
    array = chain_array(n)
    tracemalloc.start()
    try:
        Spectrum.of(array)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.1 * 16 * 4**n


@pytest.mark.parametrize("kind", ["chain", "star"])
@pytest.mark.parametrize("n", [8, 9])
def test_pulsed_verify_peaks_at_three_times_the_hamiltonian(n, kind):
    # beside the eigenvectors V the verify holds the running product w, the
    # reflection's C^T (half of V) and two panels of columns; a whole left
    # factor, a spare product or a conjugate of C would each pass 3x H
    if simulate._STAGES is None:
        pytest.skip("numpy's LAPACK exports no 64-bit-integer zhetrd, zungtr and dstedc")
    array = chain_array(n) if kind == "chain" else stellar_array(n - 1)
    base = random_schedule(np.random.default_rng(n), n, 4, zero_frac=0.0)
    schedules = (base, weave_dd(base))
    tracemalloc.start()
    try:
        spectrum = Spectrum.of(array)
        for schedule in schedules:
            spectrum.diagonal(schedule)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.0 * 16 * 4**n

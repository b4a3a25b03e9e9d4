"""One spectrum per array: diagonal readouts against dense references."""

import numpy as np
import pytest
from scipy.linalg import expm

from dotgates import (
    CalibrationTarget,
    DegenerateSpectrum,
    PauliAssignment,
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
    min_column_overlap,
    random_connected_array,
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
    h = np.diag(pair.h0) + pair.h_ex
    u = np.eye(h.shape[0], dtype=complex)
    for st in schedule.stages:
        u = expm(-1j * st.duration * h) @ u
        if st.pulse is not None:
            u = kron_pulse(st.pulse) @ u
    return np.exp(1j * schedule.total_time * pair.h0)[:, None] * u


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
            pulse = PauliAssignment(rng.choice(list(labels), size=n))
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
                    got = spectrum.pulsed_diagonal(s)
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
                got = spectrum.pulsed_diagonal(s)
                assert np.max(np.abs(got - dense_readout(arr, s))) <= 1e-12
                assert np.max(np.abs(got - expm_readout(arr, s))) <= 1e-9

    EDGE_SCHEDULES = {
        "y_and_z_labels": [
            Stage(300.0, PauliAssignment("YZI")),
            Stage(200.0, PauliAssignment("ZYY")),
            Stage(150.0, None),
        ],
        "zero_duration_stages": [
            Stage(250.0, PauliAssignment("XII")),
            Stage(0.0, PauliAssignment("IYZ")),
            Stage(0.0, PauliAssignment("YIX")),
            Stage(400.0, None),
            Stage(0.0, None),
        ],
        "pulse_before_first_evolution": [
            Stage(0.0, PauliAssignment("XYZ")),
            Stage(500.0, PauliAssignment("IXI")),
            Stage(120.0, None),
        ],
        "adjacent_evolutions": [
            Stage(100.0, None),
            Stage(200.0, None),
            Stage(300.0, PauliAssignment("YYY")),
        ],
        "scalar_boundary": [  # Z Y X = -i I: the boundary scales w and takes no rows
            Stage(300.0, PauliAssignment("XII")),
            Stage(0.0, PauliAssignment("YII")),
            Stage(0.0, PauliAssignment("ZII")),
            Stage(200.0, None),
        ],
        "total_time_zero": [
            Stage(0.0, PauliAssignment("XZY")),
            Stage(0.0, PauliAssignment("ZIX")),
        ],
        "nothing_at_all": [Stage(0.0, None)],
    }

    @pytest.mark.parametrize("name", sorted(EDGE_SCHEDULES))
    def test_edge_schedules(self, name):
        arr = random_connected_array(np.random.default_rng(5), 3, j_scale=3e-3)
        sched = PulseSchedule(3, self.EDGE_SCHEDULES[name])
        dense = pulsed_evolution(arr, sched)
        assert np.max(np.abs(dense - expm_reference(arr, sched))) <= 1e-9
        got = Spectrum.of(arr).pulsed_diagonal(sched)
        readout = np.diag(kron_pulse(sched.net_pulse()).conj().T @ dense)
        assert np.max(np.abs(got - readout)) <= 1e-12


def random_unitary(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(z)
    return q


def composite(labels_list):
    """``(c, P_h)``: the pulses applied in order, first label first, composed
    on their masks into a scalar and a Pauli string."""
    out, c = PauliAssignment(labels_list[0]), 1
    for labels in labels_list[1:]:
        out, phase = PauliAssignment(labels).compose(out)
        c *= phase
    return c, out


class TestReflection:
    """``V^dag P V = C^dag C - I`` for every Pauli string P."""

    def assert_reflection(self, op, v):
        out = np.empty((v.shape[0] // 2, v.shape[0]), dtype=complex)
        rows = op.reflection(v, out)
        target = v.conj().T @ op.matrix() @ v
        if rows is None:
            assert op.is_identity()
            assert np.max(np.abs(target - np.eye(v.shape[0]))) <= 1e-13
            return rows
        assert rows is out
        rebuilt = rows.conj().T @ rows - np.eye(v.shape[0])
        assert np.max(np.abs(target - rebuilt)) <= 1e-13
        return rows

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
            PauliAssignment(op)

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
                    simulate_gate(arr, tau)
                continue
            report = simulate_gate(arr, tau)

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
        simulate_gate(stellar_array(3, rng=rng), 500.0)
        assert len(calls) == 1


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
    """``_eigh`` on the direct zheevd call, then on numpy's eigh."""
    if request.param == "direct" and simulate._ZHEEVD is None:
        pytest.skip("numpy's LAPACK exports no 64-bit-integer zheevd")
    if request.param == "fallback":
        monkeypatch.setattr(simulate, "_ZHEEVD", None)
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
        if kernel == "direct":
            monkeypatch.setattr(simulate, "_ZHEEVD", lambda *args: setattr(args[12], "value", 3))
        else:
            def fail(_):
                raise np.linalg.LinAlgError("Eigenvalues did not converge")

            monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(simulate.EigensolverFailure):
            _eigh(np.eye(4, dtype=complex))


def test_direct_kernel_resolves_on_scipy_openblas():
    # pip's numpy wheels link scipy-openblas, whose zheevd the direct path
    # calls: a renamed symbol there would silently halve sweep speed
    try:
        lapack = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]["name"]
    except (TypeError, KeyError) as exc:  # numpy < 1.26 has no mode="dicts"
        pytest.skip(f"numpy reports no LAPACK name ({exc!r})")
    if lapack != "scipy-openblas":
        pytest.skip(f"numpy's LAPACK is {lapack}, not scipy-openblas")
    assert simulate._ZHEEVD is not None

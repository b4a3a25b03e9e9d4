import numpy as np
import pytest

from dotgates import (
    Bond,
    Dot,
    DotArray,
    array_from_json,
    tunneling_from_soi,
)
from dotgates.basis import pair_view
from dotgates.gates import phase_polynomial
from dotgates.model import soi_strength_table
from dotgates.simulate import build_hamiltonian, entangled_state

from conftest import (
    array_to_json,
    bond_pair_index,
    bond_vector,
    chain_array,
    conjugated,
    grid_vector,
    make_bond,
    random_connected_array,
    stellar_array,
)


class DegenerateChargeState(ValueError):
    """Charge configuration where the perturbative exchange formula breaks."""


def exchange_energy(t_amp, u, mu_j, mu_k):
    """The paper's Hubbard exchange of a bond, from its tunneling amplitude
    and charge energies: ``J = (T_jk / 2) [1/(U - mu_j + mu_k) + 1/(U - mu_k
    + mu_j)]``.  The package takes J as an input, so the formula lives here.

    Raises ``DegenerateChargeState`` if either denominator is within
    ``1e-9 |U|`` of zero: the virtual doubly-occupied state is then nearly
    resonant and the formula is invalid.
    """
    d1 = u - mu_j + mu_k
    d2 = u - mu_k + mu_j
    guard = 1e-9 * abs(u)
    if abs(d1) <= guard or abs(d2) <= guard:
        raise DegenerateChargeState(f"detuning {mu_j - mu_k!r} nearly cancels charging energy {u!r}")
    return 0.5 * t_amp * (1.0 / d1 + 1.0 / d2)


class TestTunnelingFromSoi:
    def test_no_soi_is_pure_spin_conserved(self):
        for theta in (0.0, 0.7, np.pi / 2, 2.3):
            t, s = tunneling_from_soi(0.0, theta)
            assert t == pytest.approx(1.0)
            assert s == pytest.approx(0.0)

    def test_maximal_spin_flip(self):
        t, s = tunneling_from_soi(np.pi / 2, np.pi / 2)
        assert abs(t) == pytest.approx(0.0, abs=1e-15)
        assert s == pytest.approx(-1j)

    def test_channel_weights(self):
        # |t|^2 = cos^2 + sin^2 cos^2(theta_b) evaluated directly
        t, s = tunneling_from_soi(np.pi / 4, np.pi / 3)
        assert abs(t) ** 2 == pytest.approx(0.625, abs=1e-12)
        assert abs(s) ** 2 == pytest.approx(0.375, abs=1e-12)

    def test_normalized_for_any_angles(self, rng):
        for _ in range(200):
            g, th = rng.uniform(-8, 8, size=2)
            t, s = tunneling_from_soi(g, th)
            assert abs(t) ** 2 + abs(s) ** 2 == pytest.approx(1.0, abs=1e-14)


class TestExchangeEnergy:
    def test_symmetric_detuning(self):
        assert exchange_energy(1.7, 12.0, 3.3, 3.3) == pytest.approx(1.7 / 12.0)

    def test_asymmetric_value(self):
        # (1/2) (1/9 + 1/11) = 10/99
        assert exchange_energy(1.0, 10.0, 1.0, 0.0) == pytest.approx(10.0 / 99.0)

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateChargeState):
            exchange_energy(1.0, 10.0, 10.0, 0.0)


class TestBond:
    def test_normalization_enforced(self):
        with pytest.raises(ValueError):
            Bond(0, 1, 1.0, t=1.0, s=0.5)

    def test_endpoint_ordering_enforced(self):
        with pytest.raises(ValueError):
            Bond(1, 1, 1.0, t=1.0, s=0.0)
        with pytest.raises(ValueError):
            Bond(2, 1, 1.0, t=1.0, s=0.0)

    def test_vector_no_flip_channel(self):
        vec = bond_vector(Bond(0, 1, 1.0, t=1.0, s=0.0))
        assert vec == pytest.approx([0.0, 0.5, 0.5, 0.0])

    def test_vector_balanced_channels_is_off_state(self):
        b = make_bond(0, 1, 1.0, 0.5)
        assert bond_vector(b) == pytest.approx([0.25, 0.25, 0.25, 0.25])
        assert b.velocity == pytest.approx(0.0)

    def test_vector_generic(self):
        b = make_bond(0, 1, 2.0, 0.625)
        assert bond_vector(b) == pytest.approx([0.375, 0.625, 0.625, 0.375])
        assert b.velocity == pytest.approx(0.25)

    def test_velocity_single_channel(self):
        assert Bond(0, 1, 1.0, t=1.0, s=0.0).velocity == pytest.approx(0.5)

    def test_conjugation_swaps_rates(self, rng):
        for _ in range(50):
            b = make_bond(0, 1, rng.random() + 0.1, 0.3 + 0.6 * rng.random(),
                          rng.uniform(0, 6), rng.uniform(0, 6))
            c = conjugated(b)
            assert c.spin_flip_rate == pytest.approx(b.spin_conserved_rate)
            assert c.spin_conserved_rate == pytest.approx(b.spin_flip_rate)
            assert c.velocity == pytest.approx(-b.velocity)


class TestDotArray:
    def test_requires_positive_zeeman(self):
        with pytest.raises(ValueError):
            Dot(0, 0.0)

    def test_requires_contiguous_ids(self):
        with pytest.raises(ValueError):
            DotArray([Dot(0, 1.0), Dot(2, 1.0)])

    def test_rejects_duplicate_bonds(self):
        with pytest.raises(ValueError):
            DotArray(
                [Dot(0, 1.0), Dot(1, 1.0)],
                [make_bond(0, 1, 1.0, 0.8), make_bond(0, 1, 2.0, 0.7)],
            )

    def test_single_dot_rejected(self):
        with pytest.raises(ValueError):
            DotArray([Dot(0, 1.0)])


class TestGridVector:
    def test_single_bond_embedding(self):
        arr = DotArray([Dot(0, 1.0), Dot(1, 1.2)], [Bond(0, 1, 1.0, t=1.0, s=0.0)])
        assert grid_vector(arr) == pytest.approx([0.0, 0.5, 0.5, 0.0])

    def test_stellar_three_qubit_reduced_half(self):
        # order (C, 1, 2), bonds (C,1) and (C,2): first half is
        # (S1+S2, S1+T2, T1+S2, T1+T2)
        b1 = make_bond(0, 1, 1.0, 0.8)
        b2 = make_bond(0, 2, 1.4, 0.7)
        arr = DotArray([Dot(j, 1.0 + j) for j in range(3)], [b1, b2])
        s1, t1 = b1.spin_flip_rate, b1.spin_conserved_rate
        s2, t2 = b2.spin_flip_rate, b2.spin_conserved_rate
        lam = grid_vector(arr)
        assert lam[:4] == pytest.approx([s1 + s2, s1 + t2, t1 + s2, t1 + t2])
        assert np.array_equal(lam, lam[::-1])  # reflective symmetry

    def test_linear_three_qubit_reduced_half(self):
        # order (C, 1, 2), bonds (C,1) and (1,2): first half is
        # (S1+S2, S1+T2, T1+T2, T1+S2)
        b1 = make_bond(0, 1, 1.0, 0.8)
        b2 = make_bond(1, 2, 1.4, 0.7)
        arr = DotArray([Dot(j, 1.0 + j) for j in range(3)], [b1, b2])
        s1, t1 = b1.spin_flip_rate, b1.spin_conserved_rate
        s2, t2 = b2.spin_flip_rate, b2.spin_conserved_rate
        lam = grid_vector(arr)
        assert lam[:4] == pytest.approx([s1 + s2, s1 + t2, t1 + t2, t1 + s2])

    def test_reflective_symmetry_random_arrays(self, rng):
        for _ in range(25):
            arr = random_connected_array(rng, int(rng.integers(2, 7)))
            lam = grid_vector(arr)
            assert np.array_equal(lam, lam[::-1])

    def test_kronecker_sum_linearity(self, rng):
        # grid vector of a union of edge-disjoint subarrays is the sum of
        # the embedded parts
        arr = random_connected_array(rng, 5)
        total = grid_vector(arr)
        partial = np.zeros_like(total)
        for b in arr.bonds:
            partial += grid_vector(arr.with_bonds([b]))
        assert partial == pytest.approx(total)

    def test_embedding_respects_bit_convention(self):
        # qubit 0 is the most significant bit
        vals = np.zeros(8)
        pair_view(vals, 0, 2)[...] = np.array([[10.0], [20.0], [30.0], [40.0]]).reshape(2, 2, 1)
        # index 4 = bits (1,0,0): b_j=1, b_k=0 -> third entry
        assert vals[4] == 30.0
        assert vals[1] == 20.0  # bits (0,0,1): b_j=0, b_k=1


def oracle_h_ex(array):
    """Exchange Hamiltonian with each bond's rows grouped by
    ``bond_pair_index``, block pair by block pair."""
    n = array.n_dots
    h = np.zeros((1 << n, 1 << n), dtype=complex)
    for bond in array.bonds:
        sub = bond_pair_index(bond.j, bond.k, n)
        # each group lists its rows in spectator-bit order, so rows align across groups
        grouped = [np.flatnonzero(sub == a) for a in range(4)]
        xi = entangled_state(bond)
        proj = -bond.exchange * np.outer(xi, np.conj(xi))
        for a in range(4):
            for b in range(4):
                h[grouped[a], grouped[b]] += proj[a, b]
    return h


def oracle_grid_vector(array):
    total = np.zeros(1 << array.n_dots)
    for bond in array.bonds:
        total += bond_vector(bond)[bond_pair_index(bond.j, bond.k, array.n_dots)]
    return total


def oracle_phase_polynomial(n, constant, slopes, pairs, angles):
    total = np.full((2,) * n, float(constant))
    for j, slope in enumerate(slopes):
        total[(slice(None),) * j + (1,)] += slope
    total = total.ravel()
    for (j, k), theta in zip(pairs, angles):
        total[bond_pair_index(j, k, n) == 3] += theta
    return total


class TestBondMap:
    """``basis.pair_view`` places every bond term exactly where the
    ``bond_pair_index`` grouping does, bit for bit."""

    @staticmethod
    def rephased(array, rng):
        # random complex t and s phases, as the bench arrays have
        return array.with_bonds(
            make_bond(b.j, b.k, b.exchange, abs(b.t) ** 2, *rng.uniform(0.0, 2 * np.pi, 2))
            for b in array.bonds
        )

    @pytest.mark.parametrize("n", range(2, 11))
    def test_placements_match_the_oracle(self, n):
        rng = np.random.default_rng(300 + n)
        shapes = [chain_array(n, rng=rng), stellar_array(n - 1, rng=rng),
                  random_connected_array(rng, n)]
        for arr in (self.rephased(a, rng) for a in shapes):
            assert np.array_equal(build_hamiltonian(arr).h_ex, oracle_h_ex(arr))
            assert np.array_equal(grid_vector(arr), oracle_grid_vector(arr))
            pairs = [(b.k, b.j) if rng.random() < 0.5 else (b.j, b.k) for b in arr.bonds]
            args = (n, rng.normal(), rng.normal(size=n), pairs, rng.normal(size=len(pairs)))
            assert np.array_equal(phase_polynomial(*args), oracle_phase_polynomial(*args))


class TestSoiTable:
    def test_monotone_lookup(self):
        table = soi_strength_table([10.0, 50.0, 100.0], [1.2, 0.4, 0.05])
        assert table(10.0) == pytest.approx(1.2)
        assert table(75.0) == pytest.approx((0.4 + 0.05) / 2.0)

    def test_rejects_non_monotone(self):
        with pytest.raises(ValueError):
            soi_strength_table([1.0, 2.0, 3.0], [0.1, 0.5, 0.2])


class TestJsonInterface:
    def test_round_trip(self, rng):
        arr = random_connected_array(rng, 4)
        doc = array_to_json(arr)
        back = array_from_json(doc)
        assert back.n_dots == arr.n_dots
        assert grid_vector(back) == pytest.approx(grid_vector(arr))

    def test_soi_bond_record(self):
        doc = {
            "dots": [{"id": 0, "zeeman": 1.0}, {"id": 1, "zeeman": 1.1}],
            "bonds": [{"j": 0, "k": 1, "J": 0.5, "gamma_so": np.pi / 4, "theta_b": np.pi / 3}],
        }
        arr = array_from_json(doc)
        assert abs(arr.bonds[0].t) ** 2 == pytest.approx(0.625)

    def test_rejects_mixed_bond_record(self):
        doc = {
            "dots": [{"id": 0, "zeeman": 1.0}, {"id": 1, "zeeman": 1.1}],
            "bonds": [{"j": 0, "k": 1, "J": 0.5, "t": [1, 0], "s": [0, 0], "gamma_so": 0.1}],
        }
        with pytest.raises(ValueError):
            array_from_json(doc)

    def test_rejects_missing_field(self):
        doc = {
            "dots": [{"id": 0, "zeeman": 1.0}, {"id": 1, "zeeman": 1.1}],
            "bonds": [{"j": 0, "k": 1, "J": 0.5, "t": [1, 0]}],
        }
        with pytest.raises(ValueError):
            array_from_json(doc)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize(
        "edit",
        [
            lambda d, x: d["dots"][1].update(zeeman=x),
            lambda d, x: d["dots"][0].update(chem_potential=x),
            lambda d, x: d["bonds"][0].update(J=x),
            lambda d, x: d["bonds"][0]["t"].__setitem__(1, x),
            lambda d, x: d["bonds"][1].update(theta_b=x),
        ],
        ids=["zeeman", "chem_potential", "J", "t", "theta_b"],
    )
    def test_rejects_non_finite_numbers(self, edit, bad):
        doc = {
            "dots": [{"id": j, "zeeman": 1.0 + 0.1 * j} for j in range(3)],
            "bonds": [
                {"j": 0, "k": 1, "J": 0.5, "t": [0.8, 0.0], "s": [0.0, 0.6]},
                {"j": 0, "k": 2, "J": 0.5, "gamma_so": 0.1, "theta_b": 0.2},
            ],
        }
        array_from_json(doc)
        edit(doc, bad)
        with pytest.raises(ValueError, match="finite"):
            array_from_json(doc)

    @pytest.mark.parametrize("bad", [1.9, 0.5, "1", True, float("nan"), float("inf"), None])
    @pytest.mark.parametrize("key", ["id", "j", "k"])
    def test_rejects_non_integer_ids(self, key, bad):
        # int() would truncate 1.9 to 1 and read "1" and true as 1
        doc = {
            "dots": [{"id": j, "zeeman": 1.0 + 0.1 * j} for j in range(3)],
            "bonds": [{"j": 0, "k": 1, "J": 0.5, "t": [0.8, 0.0], "s": [0.0, 0.6]}],
        }
        array_from_json(doc)
        (doc["dots"][1] if key == "id" else doc["bonds"][0])[key] = bad
        with pytest.raises(ValueError, match="must be an integer"):
            array_from_json(doc)

    def test_accepts_integral_floats(self):
        doc = {
            "dots": [{"id": 0.0, "zeeman": 1.0}, {"id": 1, "zeeman": 1.1}],
            "bonds": [{"j": 0, "k": 1.0, "J": 0.5, "t": [0.8, 0.0], "s": [0.0, 0.6]}],
        }
        arr = array_from_json(doc)
        assert (arr.bonds[0].j, arr.bonds[0].k) == (0, 1)
        assert type(arr.bonds[0].k) is int

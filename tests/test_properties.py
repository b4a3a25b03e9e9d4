"""Property tests: the bond reading, the JSON round trips and the staged
first-order phases of pulse schedules."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from dotgates import (
    Dot,
    DotArray,
    GateSpec,
    MqcpFactor,
    PauliAssignment,
    PhaseVector,
    PulseSchedule,
    Spectrum,
    Stage,
    array_from_json,
    extra_local_phases,
    read_bonds,
    weave_dd,
)
from dotgates.basis import bit_table, circular_distance

from conftest import array_to_json, chain_array, make_bond, random_connected_array, stellar_array
from test_frames import oracle_conjugated_grid

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)
angles = st.floats(0.0, 2 * np.pi, allow_nan=False, allow_infinity=False)


@st.composite
def arrays(draw, max_dots=6):
    """A star, chain or random tree (plus an edge) from ``conftest``."""
    kind = draw(st.sampled_from(["star", "chain", "tree"]))
    n = draw(st.integers(2, max_dots))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "star":
        return stellar_array(n - 1, rng=rng)
    if kind == "chain":
        return chain_array(n, rng=rng)
    return random_connected_array(rng, n)


def planted(array, data):
    """A target with a drawn angle per bond and a drawn free phase."""
    n = array.n_dots
    theta = np.array(data.draw(st.lists(angles, min_size=array.n_bonds, max_size=array.n_bonds)))
    global_phase = data.draw(angles)
    local = np.array(data.draw(st.lists(angles, min_size=n, max_size=n)))
    bits = bit_table(n)
    values = global_phase + bits @ local
    for b, th in zip(array.bonds, theta):
        values = values + th * bits[:, b.j] * bits[:, b.k]
    return values, theta, local, bits


@SETTINGS
@given(arrays(), st.data())
def test_recovers_planted_bond_angles_and_free_phase(array, data):
    values, theta, local, bits = planted(array, data)
    reading = read_bonds(array, PhaseVector(values))
    assert reading.feasible and reading.unbonded_pairs == ()
    assert reading.residual <= 1e-9
    bond_phases = np.array(reading.bond_phases)
    assert np.max(circular_distance(bond_phases, -theta / 2, np.pi), initial=0.0) <= 1e-9
    # the bond phases and local phases rebuild the target up to a global phase
    rebuilt = -bits @ np.array(reading.local_phases)
    for b, phi in zip(array.bonds, bond_phases):
        rebuilt = rebuilt + phi * (bits[:, b.j] ^ bits[:, b.k])
    assert np.max(circular_distance(rebuilt - rebuilt[0], values - values[0])) <= 1e-9
    # ...and the planted free phase is what the bonds do not account for
    at_dot = np.zeros(array.n_dots)
    for b, phi in zip(array.bonds, bond_phases):
        at_dot[[b.j, b.k]] += phi
    assert np.max(circular_distance(at_dot - reading.local_phases, local)) <= 1e-9


@SETTINGS
@given(arrays(), st.data(), st.floats(0.1, 2 * np.pi - 0.1))
def test_planted_three_dot_term_is_infeasible(array, data, alpha):
    assume(array.n_dots >= 3)
    values, _, _, bits = planted(array, data)
    i, j, k = sorted(data.draw(st.permutations(range(array.n_dots)))[:3])
    reading = read_bonds(array, PhaseVector(values + alpha * bits[:, i] * bits[:, j] * bits[:, k]))
    assert not reading.feasible
    assert reading.residual > 1e-3


@SETTINGS
@given(arrays(), st.data(), st.floats(0.1, 2 * np.pi - 0.1))
def test_planted_unbonded_pair_is_infeasible(array, data, beta):
    bonded = {(b.j, b.k) for b in array.bonds}
    free_pairs = [(j, k) for j in range(array.n_dots) for k in range(j + 1, array.n_dots)
                  if (j, k) not in bonded]
    assume(free_pairs)
    values, _, _, bits = planted(array, data)
    j, k = data.draw(st.sampled_from(free_pairs))
    reading = read_bonds(array, PhaseVector(values + beta * bits[:, j] * bits[:, k]))
    assert not reading.feasible
    assert reading.unbonded_pairs == ((j, k),)


@SETTINGS
@given(st.data())
def test_factored_gate_spec_round_trip(data):
    n = data.draw(st.integers(2, 5))
    factors = []
    for _ in range(data.draw(st.integers(1, 3))):
        control = data.draw(st.integers(0, n - 1))
        others = [d for d in range(n) if d != control]
        dots = data.draw(st.lists(st.sampled_from(others), min_size=1, unique=True))
        factors.append(MqcpFactor(control, [(d, data.draw(angles)) for d in dots]))
    spec = GateSpec(factors=tuple(factors))
    back = GateSpec.from_json(spec.to_json())
    assert back.factors == spec.factors
    assert np.array_equal(back.expand(n).values, spec.expand(n).values)


@SETTINGS
@given(st.integers(1, 4).flatmap(lambda n: st.lists(angles, min_size=1 << n, max_size=1 << n)))
def test_raw_gate_spec_round_trip(phases):
    spec = GateSpec(raw=PhaseVector(phases))
    back = GateSpec.from_json(spec.to_json())
    assert np.array_equal(back.raw.values, spec.raw.values)


@SETTINGS
@given(arrays(max_dots=8))
def test_array_json_round_trip(array):
    text = array_to_json(array)
    assert array_from_json(text) == array
    assert array_to_json(array_from_json(text)) == text


@st.composite
def pulsed_arrays(draw):
    """A star, chain or tree of 2 to 5 dots with bonds of about J, drawn in
    [1e-5, 1e-4], and Zeeman energies at least 0.21 apart; then a schedule
    of 1 to 4 stages, each of up to 2 / J with an X pulse on a drawn subset
    of dots (none on the empty one)."""
    kind = draw(st.sampled_from(["star", "chain", "tree"]))
    n = draw(st.integers(2, 5))
    j_scale = draw(st.floats(1e-5, 1e-4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "star":
        edges = [(0, k) for k in range(1, n)]
    elif kind == "chain":
        edges = [(j, j + 1) for j in range(n - 1)]
    else:
        edges = [(int(rng.integers(0, k)), k) for k in range(1, n)]
    zeemans = 1.0 + 0.25 * rng.permutation(n) + rng.uniform(-0.02, 0.02, n)
    bonds = [make_bond(j, k, j_scale * (0.6 + 0.4 * rng.random()), 0.7 + 0.25 * rng.random(),
                       *rng.uniform(0.0, 2 * np.pi, 2)) for j, k in edges]
    array = DotArray([Dot(j, float(e)) for j, e in enumerate(zeemans)], bonds)
    stages = []
    for _ in range(draw(st.integers(1, 4))):
        duration = draw(st.floats(0.0, 2.0)) / j_scale
        flipped = draw(st.sets(st.integers(0, n - 1)))
        stages.append(Stage(duration, PauliAssignment.x_on(flipped, n) if flipped else None))
    return array, PulseSchedule(n, stages)


@SETTINGS
@given(pulsed_arrays())
def test_pulsed_phases_are_the_staged_first_order_phases(drawn):
    array, schedule = drawn
    n = array.n_dots
    spectrum = Spectrum.of(array)
    # first-order theory drops each bond's second-order energy shift, about
    # J^2 / delta over the whole time T, and its eigenstate dressing, about
    # (J / delta)^2 at each of the S stage ends and the start; delta is the
    # least Zeeman gap across a bond.  The worst error seen on 400 draws of
    # this strategy was 0.39 of this tolerance.
    j_max = max(b.exchange for b in array.bonds)
    delta = min(abs(array.dots[b.j].zeeman - array.dots[b.k].zeeman) for b in array.bonds)
    for s in (schedule, weave_dd(schedule)):
        tol = array.n_bonds * (s.total_time * j_max**2 / delta
                               + (len(s.stages) + 1) * (j_max / delta) ** 2)
        actual = (np.angle(spectrum.diagonal(s))
                  - extra_local_phases(s, array).expand().values)
        staged = np.zeros(1 << n)
        for mask, stage in zip(s.frames().tolist(), s.stages):
            frame = PauliAssignment.x_on([j for j in range(n) if mask >> (n - 1 - j) & 1], n)
            staged += stage.duration * oracle_conjugated_grid(array, frame)
        # up to a global phase: the weave's X, Y, X, Y train on a dot is -1,
        # which the net pulse, a product of masks, does not carry
        error = actual - staged
        assert np.max(circular_distance(error, error[0])) <= tol

"""Device model: dots, tunnel-coupled bonds, and their phase-rate vectors.

A :class:`DotArray` is a simple graph whose vertices are quantum dots
(Zeeman splittings, optional chemical potentials) and whose edges carry an
exchange energy ``J`` together with normalized spin-conserved (``t``) and
spin-flipped (``s``) tunneling amplitudes, |t|^2 + |s|^2 = 1.

Each bond contributes a diagonal phase-rate quadruple
``(S, T, T, S)`` with ``S = J |s|^2 / 2`` and ``T = J |t|^2 / 2`` on its
two-qubit subspace; the array's grid vector is the Kronecker sum of all
bond vectors and inherits the reflective symmetry
``Lambda[n] == Lambda[~n]``.  The difference ``Delta = T - S`` acts as an
effective bond velocity: it sets the rate of conditional-phase
accumulation and vanishes when the two tunneling channels balance.

Energies are angular frequencies (hbar = 1); times are their inverses.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .basis import bit_of

TS_NORM_TOL = 1e-12


class DegenerateChargeState(ValueError):
    """Charge configuration where the perturbative exchange formula breaks."""


def tunneling_from_soi(gamma_so: float, theta_b: float) -> tuple[complex, complex]:
    """Normalized (t, s) amplitudes from SOI angle and field angle.

    ``t = cos(gamma_so) - i sin(gamma_so) cos(theta_b)`` and
    ``s = -i sin(gamma_so) sin(theta_b)``; the pair is normalized by
    construction for any angles.
    """
    t = math.cos(gamma_so) - 1j * math.sin(gamma_so) * math.cos(theta_b)
    s = -1j * math.sin(gamma_so) * math.sin(theta_b)
    return t, s


def exchange_energy(t_amp: float, u: float, mu_j: float, mu_k: float) -> float:
    """Exchange energy of a bond from tunneling amplitude and charge energies.

    ``J = (T_jk / 2) [1/(U - mu_j + mu_k) + 1/(U - mu_k + mu_j)]``.

    Raises
    ------
    DegenerateChargeState
        If either denominator is within ``1e-9 * |U|`` of zero the virtual
        doubly-occupied state is nearly resonant and the formula is invalid.
    """
    d1 = u - mu_j + mu_k
    d2 = u - mu_k + mu_j
    guard = 1e-9 * abs(u)
    if abs(d1) <= guard or abs(d2) <= guard:
        raise DegenerateChargeState(
            f"detuning {mu_j - mu_k!r} nearly cancels charging energy {u!r}"
        )
    return 0.5 * t_amp * (1.0 / d1 + 1.0 / d2)


@dataclass(frozen=True)
class Dot:
    """A single quantum dot hosting one spin qubit."""

    id: int
    zeeman: float
    chem_potential: float | None = None

    def __post_init__(self):
        if self.zeeman <= 0:
            raise ValueError(f"dot {self.id}: zeeman splitting must be positive")


@dataclass(frozen=True)
class Bond:
    """Tunnel coupling between dots ``j < k``.

    ``t`` and ``s`` are the amplitudes for the orientation (j, k); reversing
    the orientation maps (t, s) -> (-conj(t), s) without changing any
    physical quantity derived here.
    """

    j: int
    k: int
    exchange: float
    t: complex
    s: complex

    def __post_init__(self):
        if not 0 <= self.j < self.k:
            raise ValueError(f"bond endpoints must satisfy 0 <= j < k, got ({self.j}, {self.k})")
        if self.exchange < 0:
            raise ValueError("exchange energy must be nonnegative")
        norm = abs(self.t) ** 2 + abs(self.s) ** 2
        if abs(norm - 1.0) > TS_NORM_TOL:
            raise ValueError(f"|t|^2 + |s|^2 = {norm!r} violates normalization")

    @classmethod
    def from_soi(cls, j: int, k: int, exchange: float, gamma_so: float, theta_b: float) -> "Bond":
        t, s = tunneling_from_soi(gamma_so, theta_b)
        return cls(j, k, exchange, t, s)

    @property
    def spin_flip_rate(self) -> float:
        """S = J |s|^2 / 2."""
        return 0.5 * self.exchange * abs(self.s) ** 2

    @property
    def spin_conserved_rate(self) -> float:
        """T = J |t|^2 / 2."""
        return 0.5 * self.exchange * abs(self.t) ** 2

    @property
    def velocity(self) -> float:
        """Effective bond velocity Delta = T - S; may be negative."""
        return self.spin_conserved_rate - self.spin_flip_rate

    def conjugated(self) -> "Bond":
        """Bond with the tunneling channels swapped (S and T exchanged).

        This is the action of a single X or Y pulse on one endpoint; it
        negates the effective velocity.
        """
        return Bond(self.j, self.k, self.exchange, t=self.s, s=self.t)


def bond_vector(bond: Bond) -> np.ndarray:
    """Phase-rate quadruple (S, T, T, S) on the bond's (up-up, up-down,
    down-up, down-down) subspace."""
    s = bond.spin_flip_rate
    t = bond.spin_conserved_rate
    return np.array([s, t, t, s])


@dataclass(frozen=True)
class DotArray:
    """Simple graph of dots and bonds; the device model."""

    dots: tuple[Dot, ...]
    bonds: tuple[Bond, ...]

    def __init__(self, dots: Iterable[Dot], bonds: Iterable[Bond] = ()):
        object.__setattr__(self, "dots", tuple(sorted(dots, key=lambda d: d.id)))
        object.__setattr__(self, "bonds", tuple(bonds))
        self._validate()

    def _validate(self):
        n = len(self.dots)
        if n < 2:
            raise ValueError("an array needs at least two dots")
        if sorted(d.id for d in self.dots) != list(range(n)):
            raise ValueError("dot ids must be 0..N-1, contiguous and unique")
        seen = set()
        for b in self.bonds:
            if b.j >= n or b.k >= n:
                raise ValueError(f"bond ({b.j}, {b.k}) references unknown dot")
            if (b.j, b.k) in seen:
                raise ValueError(f"duplicate bond ({b.j}, {b.k})")
            seen.add((b.j, b.k))

    @property
    def n_dots(self) -> int:
        return len(self.dots)

    @property
    def n_bonds(self) -> int:
        return len(self.bonds)

    @property
    def zeemans(self) -> np.ndarray:
        return np.array([d.zeeman for d in self.dots])

    def with_bonds(self, bonds: Iterable[Bond]) -> "DotArray":
        return DotArray(self.dots, bonds)


def bond_pair_index(j: int, k: int, n_dots: int) -> np.ndarray:
    """``2 b_j + b_k`` for every basis index: the entry of a bond's 4-vector
    (up-up, up-down, down-up, down-down) that each basis state sees."""
    idx = np.arange(1 << n_dots)
    return 2 * bit_of(idx, j, n_dots) + bit_of(idx, k, n_dots)


def embed_bond_values(values4: Sequence[float], j: int, k: int, n_dots: int) -> np.ndarray:
    """Expand a per-bond diagonal quadruple to the full 2^N diagonal.

    Entry order of ``values4`` follows the (b_j, b_k) bit pair of the bond.
    """
    return np.asarray(values4, dtype=float)[bond_pair_index(j, k, n_dots)]


def grid_vector(array: DotArray) -> np.ndarray:
    """Kronecker sum of all bond vectors over the full 2^N space."""
    total = np.zeros(1 << array.n_dots)
    for bond in array.bonds:
        total += embed_bond_values(bond_vector(bond), bond.j, bond.k, array.n_dots)
    return total


def is_reflection_symmetric(values: np.ndarray, tol: float = 0.0) -> bool:
    """Whether value at every index equals the value at its bit complement."""
    values = np.asarray(values)
    return bool(np.all(np.abs(values - values[::-1]) <= tol))


def soi_strength_table(x_so: Sequence[float], gamma_so: Sequence[float]) -> Callable[[float], float]:
    """Monotone lookup x_SO -> gamma_SO supplied by the user.

    The microscopic dependence of the SOI angle on the spin-orbit length is
    device specific and is consumed here as a table; interpolation is
    piecewise linear.  ``x_so`` must be strictly increasing and ``gamma_so``
    monotone.
    """
    x = np.asarray(x_so, dtype=float)
    g = np.asarray(gamma_so, dtype=float)
    if x.ndim != 1 or x.shape != g.shape or len(x) < 2:
        raise ValueError("table needs two equal-length 1-d arrays")
    if not np.all(np.diff(x) > 0):
        raise ValueError("x_so values must be strictly increasing")
    dg = np.diff(g)
    if not (np.all(dg >= 0) or np.all(dg <= 0)):
        raise ValueError("gamma_so values must be monotone")
    return lambda value: float(np.interp(value, x, g))


# -- JSON ingestion -----------------------------------------------------------

def finite(value, what: str) -> float:
    """``float(value)``, rejecting NaN and infinities as input errors."""
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(f"{what} must be finite, got {x!r}")
    return x


def _bond_from_record(rec: dict) -> Bond:
    keys = set(rec)
    has_ts = "t" in keys or "s" in keys
    has_soi = "gamma_so" in keys or "theta_b" in keys
    if has_ts and has_soi:
        raise ValueError("bond record must give either (t, s) or (gamma_so, theta_b), not both")
    j, k = int(rec["j"]), int(rec["k"])
    exch = finite(rec["J"], f"bond ({j}, {k}) J")
    if has_soi:
        return Bond.from_soi(
            j, k, exch,
            finite(rec["gamma_so"], f"bond ({j}, {k}) gamma_so"),
            finite(rec["theta_b"], f"bond ({j}, {k}) theta_b"),
        )
    if not ("t" in keys and "s" in keys):
        raise ValueError("bond record with amplitudes needs both t and s")

    def amplitude(name: str) -> complex:
        what = f"bond ({j}, {k}) {name}"
        if not isinstance(rec[name], (list, tuple)) or len(rec[name]) != 2:
            raise ValueError(f"{what} must be two numbers [re, im], got {rec[name]!r}")
        re, im = rec[name]
        return complex(finite(re, what), finite(im, what))

    return Bond(j, k, exch, amplitude("t"), amplitude("s"))


def array_from_json(source: str | dict) -> DotArray:
    """Build a :class:`DotArray` from its JSON description.

    Schema: ``{"dots": [{"id": 0, "zeeman": ...}, ...],
    "bonds": [{"j": .., "k": .., "J": .., "t": [re, im], "s": [re, im]}
    | {"j": .., "k": .., "J": .., "gamma_so": .., "theta_b": ..}]}``.
    """
    doc = json.loads(source) if isinstance(source, str) else source
    dots = []
    for d in doc["dots"]:
        mu = d.get("chem_potential")
        dots.append(Dot(
            int(d["id"]),
            finite(d["zeeman"], f"dot {d['id']} zeeman"),
            None if mu is None else finite(mu, f"dot {d['id']} chem_potential"),
        ))
    bonds = [_bond_from_record(rec) for rec in doc.get("bonds", [])]
    return DotArray(dots, bonds)


def array_to_json(array: DotArray) -> str:
    doc = {
        "dots": [
            {"id": int(d.id), "zeeman": float(d.zeeman)}
            | ({"chem_potential": float(d.chem_potential)} if d.chem_potential is not None else {})
            for d in array.dots
        ],
        "bonds": [
            {
                "j": int(b.j),
                "k": int(b.k),
                "J": float(b.exchange),
                "t": [float(np.real(b.t)), float(np.imag(b.t))],
                "s": [float(np.real(b.s)), float(np.imag(b.s))],
            }
            for b in array.bonds
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True)

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


TS_NORM_TOL = 1e-12


def tunneling_from_soi(gamma_so: float, theta_b: float) -> tuple[complex, complex]:
    """Normalized (t, s) amplitudes from SOI angle and field angle.

    ``t = cos(gamma_so) - i sin(gamma_so) cos(theta_b)`` and
    ``s = -i sin(gamma_so) sin(theta_b)``; the pair is normalized by
    construction for any angles.
    """
    t = math.cos(gamma_so) - 1j * math.sin(gamma_so) * math.cos(theta_b)
    s = -1j * math.sin(gamma_so) * math.sin(theta_b)
    return t, s


@dataclass(frozen=True)
class Dot:
    """A single quantum dot hosting one spin qubit."""

    id: int
    zeeman: float
    chem_potential: float | None = None

    def __post_init__(self):
        if not 0 < self.zeeman < math.inf:  # also refuses NaN
            raise ValueError(
                f"dot {self.id}: zeeman splitting must be positive and finite, got {self.zeeman!r}"
            )


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
    """``float(value)``, rejecting NaN and infinities, and integers too large
    for a float, as input errors."""
    try:
        x = float(value)
    except OverflowError:  # an int past the float range, as JSON may hold
        x = math.inf if value > 0 else -math.inf
    if not math.isfinite(x):
        raise ValueError(f"{what} must be finite, got {x!r}")
    return x


def integer(value, what: str) -> int:
    """``int(value)``, rejecting a value it does not equal (1.9, "1", NaN,
    infinities) or a boolean as an input error instead of truncating it."""
    try:
        if int(value) == value and not isinstance(value, bool):
            return int(value)
    except (OverflowError, TypeError, ValueError):
        pass
    raise ValueError(f"{what} must be an integer, got {value!r}")


def _bond_from_record(rec: dict) -> Bond:
    keys = set(rec)
    has_ts = "t" in keys or "s" in keys
    has_soi = "gamma_so" in keys or "theta_b" in keys
    if has_ts and has_soi:
        raise ValueError("bond record must give either (t, s) or (gamma_so, theta_b), not both")
    j, k = integer(rec["j"], "bond j"), integer(rec["k"], "bond k")
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
            integer(d["id"], "dot id"),
            finite(d["zeeman"], f"dot {d['id']} zeeman"),
            None if mu is None else finite(mu, f"dot {d['id']} chem_potential"),
        ))
    bonds = [_bond_from_record(rec) for rec in doc.get("bonds", [])]
    return DotArray(dots, bonds)


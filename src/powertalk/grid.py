"""Electrical description of a droop-controlled DC grid.

Each bus carries a composite shunt load (constant resistance, constant
current, constant power in parallel) and optionally a droop-controlled
voltage source converter (VSC).  Buses are joined by resistive
distribution lines.  Validation produces an immutable :class:`ValidatedGrid`
whose arrays are read-only, so they are safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    DisconnectedGraph,
    DuplicateLine,
    InvalidBudget,
    InvalidGridSpec,
    InvalidLink,
    NoConverter,
    NonpositiveResistance,
)

if TYPE_CHECKING:  # pragma: no cover
    from .steady_state import DroopState


@dataclass(frozen=True)
class LoadSpec:
    """Composite shunt load on one bus."""

    r_cr: Optional[float] = None  # constant resistance [ohm]; None = absent
    i_cc: float = 0.0             # constant current draw [A]
    d_cp: float = 0.0             # constant power draw [W]


@dataclass(frozen=True)
class VscSpec:
    """Nameplate of the droop-controlled converter on one bus."""

    x_nom: float                       # nominal reference voltage [V]
    r_nom: float                       # nominal virtual resistance [ohm]
    r_max: Optional[float] = None      # search upper bound [ohm]; None = derive
    pi_budget: Optional[float] = None  # RMS supplied-power deviation budget [W]


@dataclass(frozen=True)
class LineSpec:
    """Resistive distribution line between two buses (unordered pair)."""

    a: int
    b: int
    r_line: float  # [ohm]

    @classmethod
    def from_length(cls, a: int, b: int, rho: float, length_km: float) -> "LineSpec":
        """Distance-based resistance r = rho * L."""
        return cls(a, b, rho * length_km)


@dataclass(frozen=True)
class Bus:
    id: int
    load: LoadSpec = field(default_factory=LoadSpec)
    vsc: Optional[VscSpec] = None


@dataclass(frozen=True)
class GridSpec:
    """Raw grid description as parsed from a config document."""

    buses: Sequence[Bus]
    lines: Sequence[LineSpec]


@dataclass(frozen=True)
class ValidatedGrid:
    """A :class:`GridSpec` with all invariants checked and arrays assembled.

    Arrays are indexed by bus id (dense 0..n-1).  ``g_line[n, m]`` is the
    line conductance 1/r between buses n and m (0 when no line exists).
    """

    spec: GridSpec
    n: int
    buses: Tuple[Bus, ...]
    vsc_buses: Tuple[int, ...]
    g_line: np.ndarray    # (n, n) line conductances [1/ohm]
    r_cr_inv: np.ndarray  # (n,) 1/r_cr, 0 where the resistive load is absent
    i_cc: np.ndarray      # (n,) constant current loads [A]
    d_cp: np.ndarray      # (n,) constant power loads [W]

    def vsc(self, bus: int) -> VscSpec:
        if not self.has_vsc(bus):
            raise InvalidGridSpec(f"bus {bus} hosts no converter")
        return self.buses[bus].vsc

    def has_vsc(self, bus: int) -> bool:
        return 0 <= bus < self.n and self.buses[bus].vsc is not None  # ids are 0..n-1

    def check_link(self, tx: int, rx: int) -> None:
        """Raise :class:`InvalidLink` unless ``tx`` and ``rx`` are distinct converter buses."""
        if tx == rx:
            raise InvalidLink("transmitter and receiver must be distinct buses")
        for bus in (tx, rx):
            if not self.has_vsc(bus):
                raise InvalidLink(f"bus {bus} hosts no converter")

    def neighbors(self, bus: int) -> Tuple[int, ...]:
        return tuple(np.nonzero(self.g_line[bus])[0])


def check_budgets(pi: Mapping[int, float], grid: Optional[ValidatedGrid] = None) -> None:
    """Raise :class:`InvalidBudget` unless each budget is finite and >= 0.

    Given ``grid``, each budget must also sit on a converter bus.
    """
    for bus, value in pi.items():
        if grid is not None and not grid.has_vsc(bus):
            raise InvalidBudget(f"budget on bus {bus}: the bus hosts no converter")
        if not 0.0 <= value < math.inf:
            raise InvalidBudget(f"budget on bus {bus} must be finite and nonnegative, got {value}")


def _require_positive(value: float, what: str) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise NonpositiveResistance(f"{what} must be positive and finite, got {value}")


def _check_load(bus_id: int, load: LoadSpec) -> None:
    if load.r_cr is not None:
        _require_positive(load.r_cr, f"bus {bus_id} load resistance")
    for name, value in (("i_cc", load.i_cc), ("d_cp", load.d_cp)):
        if not (math.isfinite(value) and value >= 0.0):
            raise InvalidGridSpec(
                f"bus {bus_id} load {name} must be finite and non-negative, got {value}"
            )


def _check_vsc(bus_id: int, vsc: VscSpec) -> None:
    if not (math.isfinite(vsc.x_nom) and vsc.x_nom > 0.0):
        raise InvalidGridSpec(
            f"bus {bus_id} converter x_nom must be positive, got {vsc.x_nom}"
        )
    _require_positive(vsc.r_nom, f"bus {bus_id} converter r_nom")
    if vsc.r_max is not None:
        if not (math.isfinite(vsc.r_max) and vsc.r_max >= vsc.r_nom):
            raise InvalidGridSpec(
                f"bus {bus_id} converter r_max must be >= r_nom, got {vsc.r_max}"
            )
    if vsc.pi_budget is not None:
        check_budgets({bus_id: vsc.pi_budget})


def validate_grid(spec: GridSpec) -> ValidatedGrid:
    """Check all structural invariants and assemble the index arrays.

    Raises :class:`DisconnectedGraph`, :class:`NonpositiveResistance`,
    :class:`DuplicateLine`, :class:`NoConverter`, :class:`InvalidBudget`
    (a nameplate budget) or the generic :class:`InvalidGridSpec` on violation.
    """
    ids = [bus.id for bus in spec.buses]
    n = len(ids)
    if n == 0:
        raise InvalidGridSpec("grid has no buses")
    if sorted(ids) != list(range(n)):
        raise InvalidGridSpec(f"bus ids must be dense 0..{n - 1}, got {sorted(ids)}")

    buses = tuple(sorted(spec.buses, key=lambda bus: bus.id))
    for bus in buses:
        _check_load(bus.id, bus.load)
        if bus.vsc is not None:
            _check_vsc(bus.id, bus.vsc)

    vsc_buses = tuple(bus.id for bus in buses if bus.vsc is not None)
    if not vsc_buses:
        raise NoConverter("at least one bus must host a converter")

    g_line = np.zeros((n, n))
    seen = set()
    for line in spec.lines:
        a, b = line.a, line.b
        if not (0 <= a < n and 0 <= b < n):
            raise InvalidGridSpec(f"line endpoints ({a}, {b}) reference unknown buses")
        if a == b:
            raise InvalidGridSpec(f"line endpoints must be distinct, got ({a}, {b})")
        _require_positive(line.r_line, f"line ({a}, {b}) resistance")
        key = (min(a, b), max(a, b))
        if key in seen:
            raise DuplicateLine(f"more than one line between buses {key[0]} and {key[1]}")
        seen.add(key)
        g = 1.0 / line.r_line
        g_line[a, b] = g
        g_line[b, a] = g

    _check_connected(n, g_line)

    arrays = {
        "g_line": g_line,
        "r_cr_inv": np.array([0.0 if b.load.r_cr is None else 1.0 / b.load.r_cr for b in buses]),
        "i_cc": np.array([b.load.i_cc for b in buses]),
        "d_cp": np.array([b.load.d_cp for b in buses]),
    }
    for array in arrays.values():
        array.flags.writeable = False
    return ValidatedGrid(spec=spec, n=n, buses=buses, vsc_buses=vsc_buses, **arrays)


def _check_connected(n: int, g_line: np.ndarray) -> None:
    reached = {0}
    frontier = [0]
    while frontier:
        node = frontier.pop()
        for other in np.nonzero(g_line[node])[0]:
            if other not in reached:
                reached.add(int(other))
                frontier.append(int(other))
    if len(reached) != n:
        missing = sorted(set(range(n)) - reached)
        raise DisconnectedGraph(f"buses {missing} are not connected to bus 0")


def network_matrices(grid: ValidatedGrid, droop: "DroopState") -> Tuple[np.ndarray, np.ndarray]:
    """Line Laplacian and equivalent bus-to-ground resistance.

    Returns ``(Psi, r_bus)`` where ``Psi`` is the admittance matrix of the
    line graph (diagonal = sum of incident line conductances, off-diagonal
    = -1/r between connected buses) and ``r_bus[n]`` is the parallel
    combination of the bus's resistive load, its incident lines, and, on
    converter buses, the virtual resistance.
    """
    degree = grid.g_line.sum(axis=1)
    psi = np.diag(degree) - grid.g_line
    y = droop.conductances(grid)
    r_bus = 1.0 / (grid.r_cr_inv + degree + y)
    return psi, r_bus

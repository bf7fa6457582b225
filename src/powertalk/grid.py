"""Electrical description of a droop-controlled DC grid.

Each bus carries a composite shunt load (constant resistance, constant
current, constant power in parallel) and optionally a droop-controlled
voltage source converter (VSC).  Buses are joined by resistive
distribution lines.  Validation produces an immutable :class:`ValidatedGrid`
whose arrays are read-only, so they are safe to share across threads.
It describes the lines once, with no (n, n) array: a table of each
bus's lines for the line sums, and an elimination schedule for the
Newton steps, both fixed once per grid in O((n + fill) log n).  Both
solvers read the table; only the :func:`network_matrices` oracle builds
the dense (n, n) Laplacian from it, on demand.
"""

from __future__ import annotations

import heapq
import itertools
import math
import numbers
import operator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import (
    DisconnectedGraph,
    DuplicateLine,
    InvalidArgument,
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


Index = Union[slice, np.ndarray]  # columns: a slice where they run up by one, else an index array
Conductances = Dict[Tuple[int, int], float]  # 1/r of each line, keyed by (a, b) and by (b, a)


class LineTable(NamedTuple):
    """Each bus's lines, so that line sums need no (n, n) product.

    Slot j holds the j-th neighbour, in ascending bus id, of every bus with
    more than j lines (slot 0 holds every bus): ``sum_m v_m / r_{n,m}``
    is one gather, product and add per slot, taken in the order of a row
    sum over ascending ids.
    """

    degree: np.ndarray  # (n,) the line conductance at each bus, summed slot by slot
    slots: Tuple[Tuple[Index, Index, np.ndarray], ...]  # (buses, neighbours, conductances)


class EliminationLevel(NamedTuple):
    """Buses that are eliminated in one array step; no two of them share an entry.

    A spoke is an off-diagonal entry (k, i) of the filled line graph, kept
    by k, the one of its buses that goes first.  Spokes within a level,
    the pivots of ``gather`` and the spokes a, b of ``fill`` are numbered
    from the level's first spoke; entries and buses are global.  Within a
    round no target, entry or pivot repeats, so one fancy-indexed update
    applies it; repeats go to later rounds, in spoke order.
    """

    pivots: Index                                 # the level's buses
    spokes: slice                                 # their spokes, in pivot order
    pivot: Index                                  # each spoke's bus k
    target: Index                                 # each spoke's later bus i
    scatter: Tuple[Tuple[Index, Index], ...]      # rounds of (spokes, targets)
    fill: Tuple[Tuple[Index, Index, Index], ...]  # rounds of (entry, spoke a, spoke b)
    first: Index                                  # each pivot's first spoke
    gather: Tuple[Tuple[Index, Index], ...]       # rounds of (spokes, pivots) for the other spokes


class Elimination(NamedTuple):
    """A fixed elimination order of the line graph, grouped into levels.

    Buses go in minimum-degree order, ties to the lower bus id (a heap
    keyed on (degree, bus)), and each joins its remaining neighbours
    pairwise (the fill): scheme 2 of Tinney
    & Walker, "Direct solutions of sparse network equations by optimally
    ordered triangular factorization", Proc. IEEE 1967.  A bus's level is
    its height in the elimination tree, so the buses of a level have no
    entry in common and their eliminations commute.  On a radial grid every
    bus goes as a leaf with one spoke, to its parent, and nothing fills.
    """

    levels: Tuple[EliminationLevel, ...]
    values: np.ndarray  # (spokes,) line conductance of each spoke, 0 where it is fill
    updates: bool       # whether any elimination changes a later spoke (meshed grids)


@dataclass(frozen=True)
class ValidatedGrid:
    """A :class:`GridSpec` with all invariants checked and arrays assembled.

    Arrays are indexed by bus id (dense 0..n-1); none is (n, n).  Radial
    and meshed grids are both accepted.
    """

    spec: GridSpec
    n: int
    buses: Tuple[Bus, ...]
    vsc_buses: Tuple[int, ...]
    r_cr_inv: np.ndarray  # (n,) 1/r_cr, 0 where the resistive load is absent
    i_cc: np.ndarray      # (n,) constant current loads [A]
    d_cp: np.ndarray      # (n,) constant power loads [W]
    constant_power: Index  # buses with a constant-power load, d_cp > 0
    adjacent: Tuple[Tuple[int, ...], ...]  # each bus's neighbours, ascending
    lines: LineTable      # line sums by neighbour slots
    elimination: Elimination  # Newton-step elimination schedule

    def vsc(self, bus: int) -> VscSpec:
        if not self.has_vsc(bus):
            raise InvalidGridSpec(f"bus {bus} hosts no converter")
        return self.buses[bus].vsc

    def has_vsc(self, bus: int) -> bool:
        try:
            bus = operator.index(None if isinstance(bus, bool) else bus)  # as _integer reads ids
        except TypeError:
            return False
        return 0 <= bus < self.n and self.buses[bus].vsc is not None

    def check_link(self, tx: int, rx: int) -> None:
        """Raise :class:`InvalidLink` unless ``tx`` and ``rx`` are distinct converter buses."""
        for bus in (tx, rx):
            if not self.has_vsc(bus):
                raise InvalidLink(f"bus {bus} hosts no converter")
        if tx == rx:
            raise InvalidLink("transmitter and receiver must be distinct buses")


def check_budgets(pi: Mapping[int, float], grid: Optional[ValidatedGrid] = None) -> None:
    """Raise :class:`InvalidBudget` unless each budget is finite and >= 0, with a finite square.

    Given ``grid``, each budget must also sit on a converter bus.
    """
    for bus, value in pi.items():
        if grid is not None and not grid.has_vsc(bus):
            raise InvalidBudget(f"budget on bus {bus}: the bus hosts no converter")
        number = float(_floats(value))
        if not (0.0 <= number and number * number < math.inf):
            raise InvalidBudget(
                f"budget on bus {bus} must be finite and nonnegative, with a finite square, "
                f"got {value}"
            )


def check_resistances(resistances: Mapping[str, object]) -> None:
    """Raise :class:`NonpositiveResistance` unless every resistance is usable.

    A usable resistance is positive and finite, with a finite inverse (1/r
    of a subnormal r overflows).  ``resistances`` maps what each value is,
    as the error names the first unusable one, to a scalar or an array of
    values; all of them are checked in one array pass.
    """
    values = [_floats(value).ravel() for value in resistances.values()]
    flat = np.concatenate(values) if values else np.empty(0)
    with np.errstate(divide="ignore", over="ignore"):
        bad = ~((0.0 < flat) & (flat < math.inf) & (1.0 / flat < math.inf))
    if bad.any():
        first = int(np.argmax(bad))
        owner = int(np.searchsorted(np.cumsum([len(v) for v in values]), first, side="right"))
        raise NonpositiveResistance(
            f"{list(resistances)[owner]} must be positive and finite, with a finite inverse, "
            f"got {flat[first]}"
        )


def check_finite(values: Mapping[str, object]) -> None:
    """Raise :class:`InvalidArgument` unless every value (a scalar or an array) is finite."""
    for name, value in values.items():
        array = _floats(value)
        if not np.isfinite(array).all():
            raise InvalidArgument(f"{name} must be finite, got {array[~np.isfinite(array)][0]}")


def _integer(name: str, value: object) -> int:
    """``value`` as an int, numpy integers too; a bool is an int, but no count, seed or bus id."""
    try:
        return operator.index(None if isinstance(value, bool) else value)
    except TypeError:
        raise InvalidArgument(f"{name} must be an integer, got {value!r}") from None


def _floats(value: object) -> np.ndarray:
    """``value`` as a float array; an int beyond float range, on which ``float`` raises, is inf,
    and what is not a real number (a str, bytes, None or another object) an InvalidArgument."""
    array = np.asarray(value)
    if array.dtype.kind not in "biuf" and not all(isinstance(a, numbers.Real) for a in array.flat):
        raise InvalidArgument(f"expected a real number, got {value!r:.80}")
    try:
        return np.asarray(array, dtype=float)
    except OverflowError:
        return np.asarray(math.inf)


def _check_load(bus_id: int, load: LoadSpec, error: type = InvalidGridSpec) -> None:
    for name, value in (("i_cc", load.i_cc), ("d_cp", load.d_cp)):
        if not (math.isfinite(_floats(value)) and value >= 0.0):
            raise error(
                f"bus {bus_id} load {name} must be finite and non-negative, got {value}"
            )


def _check_vsc(bus_id: int, vsc: VscSpec) -> None:
    if not (math.isfinite(_floats(vsc.x_nom)) and vsc.x_nom > 0.0):
        raise InvalidGridSpec(
            f"bus {bus_id} converter x_nom must be positive, got {vsc.x_nom}"
        )
    if vsc.r_max is not None:
        if not (math.isfinite(_floats(vsc.r_max)) and vsc.r_max >= vsc.r_nom):
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
    check_resistances({
        **{f"bus {b.id} load r_cr": b.load.r_cr for b in buses if b.load.r_cr is not None},
        **{f"bus {b.id} converter r_nom": b.vsc.r_nom for b in buses if b.vsc is not None},
        **{f"line ({line.a}, {line.b}) resistance": line.r_line for line in spec.lines},
    })
    for bus in buses:
        _check_load(bus.id, bus.load)
        if bus.vsc is not None:
            _check_vsc(bus.id, bus.vsc)

    vsc_buses = tuple(bus.id for bus in buses if bus.vsc is not None)
    if not vsc_buses:
        raise NoConverter("at least one bus must host a converter")

    conductance: Conductances = {}
    for line in spec.lines:
        a, b = line.a, line.b
        if not (0 <= a < n and 0 <= b < n):
            raise InvalidGridSpec(f"line endpoints ({a}, {b}) reference unknown buses")
        if a == b:
            raise InvalidGridSpec(f"line endpoints must be distinct, got ({a}, {b})")
        if (a, b) in conductance:
            raise DuplicateLine(f"more than one line between buses {min(a, b)} and {max(a, b)}")
        conductance[a, b] = conductance[b, a] = 1.0 / line.r_line
    neighbours: List[List[int]] = [[] for _ in range(n)]
    for a, b in sorted(conductance):
        neighbours[a].append(b)

    _check_connected(n, neighbours)

    arrays = {
        "r_cr_inv": np.array([0.0 if b.load.r_cr is None else 1.0 / b.load.r_cr for b in buses]),
        "i_cc": np.array([b.load.i_cc for b in buses]),
        "d_cp": np.array([b.load.d_cp for b in buses]),
    }
    for array in arrays.values():
        array.flags.writeable = False
    return ValidatedGrid(
        spec=spec,
        n=n,
        buses=buses,
        vsc_buses=vsc_buses,
        constant_power=_index(np.flatnonzero(arrays["d_cp"]).tolist()),
        adjacent=tuple(map(tuple, neighbours)),
        lines=_line_table(conductance, neighbours),
        elimination=_elimination(conductance, neighbours),
        **arrays,
    )


def _check_connected(n: int, neighbours: List[List[int]]) -> None:
    reached = {0}
    frontier = [0]
    while frontier:
        node = frontier.pop()
        for other in neighbours[node]:
            if other not in reached:
                reached.add(other)
                frontier.append(other)
    if len(reached) != n:
        missing = sorted(set(range(n)) - reached)
        raise DisconnectedGraph(f"buses {missing} are not connected to bus 0")


def _read_only(values: Sequence, dtype: type) -> np.ndarray:
    array = np.array(values, dtype=dtype)
    array.flags.writeable = False
    return array


def _index(items: Sequence[int]) -> Index:
    """Columns ``items`` as a slice when they run up by one, else as an index array."""
    if items and list(items) == list(range(items[0], items[0] + len(items))):
        return slice(items[0], items[0] + len(items))
    return _read_only(items, np.intp)


def _rounds(keys: Sequence[int]) -> List[List[int]]:
    """Positions of ``keys`` in rounds in which no key repeats: round r holds each key's r-th."""
    rounds: List[List[int]] = []
    seen: Dict[int, int] = {}
    for position, key in enumerate(keys):
        rank = seen[key] = seen.get(key, -1) + 1
        if rank == len(rounds):
            rounds.append([])
        rounds[rank].append(position)
    return rounds


def _line_table(conductance: Conductances, neighbours: List[List[int]]) -> LineTable:
    slots: List[Tuple[List[int], List[int], List[float]]] = []  # (buses, neighbours, conductances)
    for bus, ends in enumerate(neighbours):
        # a bus without lines (a one-bus grid) reads itself at conductance 0, so
        # that slot 0 holds every bus
        for j, end in enumerate(ends or [bus]):
            if j == len(slots):
                slots.append(([], [], []))
            for column, item in zip(slots[j], (bus, end, conductance.get((bus, end), 0.0))):
                column.append(item)
    degree = np.array(slots[0][2])
    for buses, _, g in slots[1:]:  # in ascending neighbour order, the order of a line sum
        degree[buses] += g
    return LineTable(
        degree=_read_only(degree, float),
        slots=tuple((_index(b), _index(ends), _read_only(g, float)) for b, ends, g in slots),
    )


def _elimination(conductance: Conductances, neighbours: List[List[int]]) -> Elimination:
    adjacent = [set(ends) for ends in neighbours]
    heap = [(len(ends), bus) for bus, ends in enumerate(adjacent)]
    heapq.heapify(heap)
    order: List[int] = []
    later: Dict[int, List[int]] = {}  # each bus's neighbours when it goes
    while heap:
        degree, bus = heapq.heappop(heap)
        if bus in later or degree != len(adjacent[bus]):
            continue  # gone already, or a key its degree has left
        order.append(bus)
        later[bus] = sorted(adjacent[bus])
        for other in later[bus]:
            adjacent[other].discard(bus)
            adjacent[other].update(m for m in later[bus] if m != other)
            heapq.heappush(heap, (len(adjacent[other]), other))
    position = {bus: p for p, bus in enumerate(order)}
    height = dict.fromkeys(order, 0)
    for bus in order:  # a child goes before its parent, the first of its later neighbours
        if later[bus]:
            parent = min(later[bus], key=position.__getitem__)
            height[parent] = max(height[parent], height[bus] + 1)
    by_level: List[List[int]] = [[] for _ in range(max(height.values()) + 1)]
    for bus in order:
        by_level[height[bus]].append(bus)

    pairs = [[(k, i) for k in buses for i in later[k]] for buses in by_level]
    spoke = {pair: s for s, pair in enumerate(p for level in pairs for p in level)}
    levels, start = [], 0
    for buses, level in zip(by_level, pairs):
        local = {pair: s for s, pair in enumerate(level)}
        place = {k: p for p, k in enumerate(buses)}
        first, *rounds = _rounds([k for k, _ in level]) or [[]]
        updates = [
            (spoke[(a, b) if position[a] < position[b] else (b, a)], local[k, a], local[k, b])
            for k in buses
            for a, b in itertools.combinations(later[k], 2)
        ]
        levels.append(EliminationLevel(
            pivots=_index(buses),
            spokes=slice(start, start + len(level)),
            pivot=_index([k for k, _ in level]),
            target=_index([i for _, i in level]),
            scatter=tuple(
                (_index(r), _index([level[s][1] for s in r]))
                for r in _rounds([i for _, i in level])
            ),
            fill=tuple(
                tuple(_index([updates[u][c] for u in r]) for c in range(3))
                for r in _rounds([entry for entry, _, _ in updates])
            ),
            first=_index(first),
            gather=tuple((_index(r), _index([place[level[s][0]] for s in r])) for r in rounds),
        ))
        start += len(level)
    return Elimination(
        levels=tuple(levels),
        values=_read_only([conductance.get(pair, 0.0) for pair in spoke], float),
        updates=any(level.fill for level in levels),
    )


def network_matrices(grid: ValidatedGrid, droop: "DroopState") -> Tuple[np.ndarray, np.ndarray]:
    """Line Laplacian and equivalent bus-to-ground resistance.

    Returns ``(Psi, r_bus)`` where ``Psi`` is the admittance matrix of the
    line graph (diagonal = sum of incident line conductances, off-diagonal
    = -1/r between connected buses) and ``r_bus[n]`` is the parallel
    combination of the bus's resistive load, its incident lines, and, on
    converter buses, the virtual resistance.
    """
    psi = np.zeros((grid.n, grid.n))
    ids = np.arange(grid.n)
    for buses, ends, g in grid.lines.slots:
        psi[ids[buses], ids[ends]] = -g  # a slice beside an array would index an outer product
    psi[np.diag_indices(grid.n)] = grid.lines.degree
    y = droop.conductances(grid)
    r_bus = 1.0 / (grid.r_cr_inv + grid.lines.degree + y)
    return psi, r_bus

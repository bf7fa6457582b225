"""Virtual-resistance tuning for one-way signaling throughput.

For a fixed transmitter/receiver pair the received SNR is governed by
per-converter gain terms g_n: the squared voltage gain at the receiver,
divided by the squared power sensitivity of converter n, times that
converter's remaining budget headroom.  The binding constraint is the
smallest g_n, so tuning maximizes min_n g_n over a lattice on the
virtual-resistance box, with the step the deployment uses; the noise
sigma_z only scales the SNR, min_n g_n / sigma_z^2, and not the
maximizer.  The exact search keeps a running first maximum over blocks
of lanes in C order: the nominal resistances, then the budget band, the
points whose investments all fit the budgets, found per lattice row by
batched, safeguarded interpolation on the monotone investments.  Every
other point scores 0.  When a run-time check of the band fails, or the
nominal point is not viable, the blocks are the whole lattice, unless too
large.  All grid-point evaluations are pure, so the result is independent
of evaluation order; ties resolve to the smallest resistances.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

import numpy as np

# perfbench/layers.py wraps linearize and vr_power_investment under this module's name
from .budget import vr_power_investment
from .channel import _gain_derivatives, _gains, linearize
from .errors import EmptySearchSpace, InvalidArgument, InvalidBudget, NoRealRoot
from .grid import ValidatedGrid, _floats, check_budgets
from .steady_state import (
    BatchSolve,
    DroopState,
    SteadyState,
    _block_lanes,
    solve_steady_state,
    solve_steady_state_many,
    vsc_outputs,
)

logger = logging.getLogger(__name__)

DEFAULT_STEP = 0.005   # search step on each virtual resistance [ohm]
DEFAULT_R_MAX_CAP = 10.0   # cap on r_max as a multiple of r_nom
DEFAULT_R_MAX_MARGIN = 0.9  # viability safety margin
PROBE_SAMPLES = 25       # interior points the concavity probe audits
PROBE_FD_STEP = 1e-3     # central-difference step of the probe's Hessians [ohm]
PROBE_REL_TOL = 1e-6     # largest Hessian eigenvalue, relative to its norm, taken as concave
MAX_SEARCH_LANES = 1 << 27  # most lattice lanes a search may probe or scan
_SETTLED_WIDTH = 16  # a band edge's bracket this narrow is left to the band check's solve

__all__ = [
    "OptimizationResult",
    "SweepRow",
    "ConcavityReport",
    "one_way_snr",
    "maximize_snr_grid",
    "capacity",
    "capacity_sweep",
    "concavity_probe",
    "default_r_max",
]


@dataclass(frozen=True)
class OptimizationResult:
    """Best virtual-resistance pair found by the lattice search.

    ``evaluations`` counts the lattice points the exact search covers,
    the whole lattice, not the points it had to solve.  ``snr_nominal``
    is the SNR at the nominal resistances, the lattice's first point,
    scored as one more lane of the search.
    """

    r_star: Dict[int, float]    # per-converter resistance [ohm]
    snr: float
    snr_nominal: float
    capacity: float             # bits/slot
    g_values: Dict[int, float]  # per-converter gain terms at the optimum [V^2]
    grid_step: float            # [ohm]
    evaluations: int


@dataclass(frozen=True)
class SweepRow:
    """One budget point of a capacity sweep."""

    pi: float                   # common budget [W]
    snr_nominal: float
    snr_opt: float
    capacity_nominal: float     # bits/slot
    capacity_opt: float         # bits/slot
    r_star: Dict[int, float]    # per-converter resistance [ohm]


@dataclass(frozen=True)
class ConcavityReport:
    """Numerical curvature audit of the gain terms over the search region; ``ok`` needs a point."""

    points: Tuple[Tuple[float, ...], ...]   # sampled interior resistance pairs
    max_rel_eig: float                      # worst Hessian eigenvalue, relative
    violations: Tuple[Tuple[Tuple[float, ...], int, float], ...]  # (point, bus, rel eig)
    grad_nominal: Dict[int, Tuple[float, ...]]  # dg_n/dr at nominal per converter
    nominal_at_box_corner: bool             # all partials >= 0 at nominal

    @property
    def ok(self) -> bool:
        return bool(self.points) and not self.violations and self.nominal_at_box_corner


def capacity(snr: float) -> float:
    """Bits per slot of the scalar Gaussian channel: 0.5 * log2(1 + snr)."""
    snr = float(_floats(snr))
    if not snr >= 0.0:  # not <: NaN is no SNR either
        raise InvalidArgument(f"snr must be nonnegative, got {snr}")
    return 0.5 * math.log2(1.0 + snr)


def one_way_snr(
    grid: ValidatedGrid,
    droop: DroopState,
    nominal: DroopState,
    pi: Mapping[int, float],
    sigma_z: float,
    tx: int,
    rx: int,
) -> Tuple[float, Dict[int, float]]:
    """Received SNR for one transmitter under every budgeted converter's budget.

    Each budgeted converter n contributes g_n = (h_rx_tx / phi_n_tx)^2 *
    (pi_n^2 - dp_vr_n^2): the budget headroom left after the static
    investment, translated into receivable signal power.  The SNR is the
    smallest g_n over sigma_z^2, clamped to zero once any investment
    exceeds its budget.  ``droop`` is scored as one lane of the lattice
    search (:func:`_score`), so a lattice point gives the search's figures
    bit for bit; a droop with no viable operating point raises NoRealRoot.
    """
    _read_inputs(grid, nominal, (tx, rx), [pi], sigma_z)
    droop.validate(grid)
    if dict(droop.x) != dict(nominal.x):  # the table's gains read nominal.x
        raise InvalidArgument("droop states must share reference voltages")
    r = {bus: np.array([value]) for bus, value in droop.r.items()}
    batch = solve_steady_state_many(grid, dict(nominal.x), r)
    table = _channel_table(grid, nominal, solve_steady_state(grid, nominal).p, tx, rx, r, batch)
    if not table.feasible[0]:
        raise NoRealRoot("the droop state has no viable operating point")
    _, score, g = _first_max(table, pi)
    return score / sigma_z**2, g


def maximize_snr_grid(
    grid: ValidatedGrid,
    nominal: DroopState,
    pi: Mapping[int, float],
    sigma_z: float,
    tx: int,
    rx: int,
    step: float = DEFAULT_STEP,
) -> OptimizationResult:
    """Exact lattice search for the resistances maximizing the received SNR.

    Returns the maximizer of min_n g_n over the per-converter lattice
    r_nom, r_nom + step, ..., r_max; ties break toward the smallest
    resistances in bus order, and do not depend on ``sigma_z``, which
    only scales the SNR.  Only the nominal resistances and the budget
    band, the lattice points with every |dp_n| <= pi_n, are solved and
    scored: every other point scores 0.  The search scans the whole
    lattice, up to ``MAX_SEARCH_LANES``, when the band's checks fail.
    ``r_max`` is each converter's nameplate limit, else :func:`default_r_max`.
    """
    _read_inputs(grid, nominal, (tx, rx), [pi], sigma_z)
    if len(pi) != len(grid.vsc_buses):
        raise InvalidBudget("budgets must cover every converter bus")
    return _search(grid, nominal, tx, rx, step, [pi], sigma_z)[0]


def capacity_sweep(
    grid: ValidatedGrid,
    nominal: DroopState,
    pi_range: Iterable[float],
    sigma_z: float,
    tx: int,
    rx: int,
    step: float = DEFAULT_STEP,
) -> List[SweepRow]:
    """Nominal and optimized capacity across a range of common budgets.

    The channel table does not depend on the budgets, so it is built
    once, on the band of the largest budget, and re-scored per budget
    point: the band of a smaller budget lies inside it.  When the band is
    unknown, every budget point shares one blocked scan of the lattice.
    """
    pi_values = [float(_floats(p)) for p in pi_range]
    if not pi_values:
        raise InvalidArgument("pi_range must be nonempty")
    if any(b < a for a, b in zip(pi_values, pi_values[1:])):
        raise InvalidArgument("pi_range must be ascending")
    budgets = [dict.fromkeys(grid.vsc_buses, pi) for pi in pi_values]
    _read_inputs(grid, nominal, (tx, rx), budgets, sigma_z)
    return [
        SweepRow(
            pi=pi,
            snr_nominal=best.snr_nominal,
            snr_opt=best.snr,
            capacity_nominal=capacity(best.snr_nominal),
            capacity_opt=best.capacity,
            r_star=best.r_star,
        )
        for pi, best in zip(pi_values, _search(grid, nominal, tx, rx, step, budgets, sigma_z))
    ]


def default_r_max(grid: ValidatedGrid, nominal: DroopState, bus: int) -> float:
    """Largest usable virtual resistance for one converter.

    Bisects the viability boundary of ``bus`` with the other converters
    held at nominal, applies the safety margin ``DEFAULT_R_MAX_MARGIN``,
    and caps the result at ``DEFAULT_R_MAX_CAP`` times nominal so the
    search box stays bounded even on grids that never lose viability.
    A resistance is viable when the batched solve certifies its lane on
    the larger root.  This is the one-converter case of the search box's
    sizing, whatever the converter's nameplate ``r_max``.  Raises
    :class:`InvalidArgument` for a bus without a converter.
    """
    if not grid.has_vsc(bus):
        raise InvalidArgument(f"bus {bus} hosts no converter")
    _read_inputs(grid, nominal)
    return _r_limits(grid, nominal, {bus: None})[bus]


def concavity_probe(
    grid: ValidatedGrid,
    nominal: DroopState,
    pi: Mapping[int, float],
    tx: int,
    rx: int,
) -> ConcavityReport:
    """Check concavity of the gain terms at interior points of the region.

    The feasible region is a narrow band around the equal-increase diagonal:
    raising one resistance alone shifts load to the other converter and burns
    the budget within millohms, while raising both together largely cancels.  The
    probe therefore lattices a box around the band's bisected extent along the
    direction that the investment Jacobian, the gains at nominal (dr = -i dx),
    maps closest to zero, inside the search box, finds the box's band as the
    lattice search does, keeps band points whose lattice neighbors are in the
    band too, and forms central-difference Hessians (step ``PROBE_FD_STEP``) of
    each g_n at up to ``PROBE_SAMPLES`` of them, flagging eigenvalues above
    ``PROBE_REL_TOL`` times the Hessian norm.  The gradient at the nominal corner
    is exact: the investment vanishes there, so the headroom's dip has no first
    order and dg_n/dr_m = 2 g_n (dh/dr_m / h - dphi_n/dr_m / phi_n), from the same
    gains and their derivatives (:func:`_gain_derivatives`); its first-order growth
    pulls the optimum above nominal.  Every stencil point is a lane of one pass
    through the batched Newton and channel-gain kernels that the lattice search uses.
    """
    _read_inputs(grid, nominal, (tx, rx), [pi])
    vsc = sorted(nominal.r)
    dim = len(vsc)
    state = solve_steady_state(grid, nominal)
    h, phi, dh, dphi = _gain_derivatives(grid, nominal, state, tx)
    points = _band_interior(grid, nominal, state, pi, -phi * [state.i[bus] for bus in vsc])

    # stencil offsets in units of PROBE_FD_STEP: the centre, +e_i and -e_i per
    # axis, then the corners (+e_i+e_j, +e_i-e_j, -e_i+e_j, -e_i-e_j) per plane
    eye = np.eye(dim)
    planes = list(itertools.combinations(range(dim), 2))
    corners = ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0))
    offsets = np.array(
        [np.zeros(dim)]
        + [sign * eye[i] for i in range(dim) for sign in (1.0, -1.0)]
        + [a * eye[i] + b * eye[j] for i, j in planes for a, b in corners]
    )
    stencils = (points[:, None, :] + offsets * PROBE_FD_STEP).reshape(-1, dim)
    r = dict(zip(vsc, stencils.T))
    batch = solve_steady_state_many(grid, dict(nominal.x), r)
    table = _channel_table(grid, nominal, state.p, tx, rx, r, batch)
    if not table.feasible.all():
        raise NoRealRoot("a point of the concavity probe has no viable operating point")
    buses = sorted(pi)
    _, g = _score(table, pi)

    stencil = g.reshape(len(points), len(offsets), len(buses))
    centre = stencil[:, 0]
    hess = np.empty((len(points), len(buses), dim, dim))
    for i in range(dim):
        plus, minus = stencil[:, 1 + 2 * i], stencil[:, 2 + 2 * i]
        hess[:, :, i, i] = (plus - 2.0 * centre + minus) / PROBE_FD_STEP**2
    for p, (i, j) in enumerate(planes):
        pp, pm, mp, mm = (stencil[:, 1 + 2 * dim + 4 * p + c] for c in range(4))
        hess[:, :, i, j] = hess[:, :, j, i] = (pp - pm - mp + mm) / (4.0 * PROBE_FD_STEP**2)
    eig = np.linalg.eigvalsh(hess)
    scale = np.max(np.abs(eig), axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(scale > 0.0, eig[..., -1] / scale, 0.0)
    sampled = tuple(tuple(map(float, point)) for point in points)
    violations = tuple(
        (sampled[a], buses[b], float(rel[a, b])) for a, b in zip(*np.nonzero(rel > PROBE_REL_TOL))
    )

    t, cols = vsc.index(tx), [vsc.index(bus) for bus in buses]
    g0 = ((h[rx, t] / phi[cols, t]) ** 2 * np.square([pi[bus] for bus in buses]))[:, None]  # dp = 0
    grad = 2.0 * g0 * (dh[rx] / h[rx, t] - dphi[cols] / phi[cols, t, None])  # (bus, axis)
    return ConcavityReport(
        points=sampled,
        max_rel_eig=float(np.max(rel, initial=-np.inf)),
        violations=violations,
        grad_nominal={bus: tuple(map(float, grad[b])) for b, bus in enumerate(buses)},
        nominal_at_box_corner=bool(np.all(grad >= -PROBE_REL_TOL * np.maximum(np.abs(g0), 1e-30))),
    )


# -- internals ----------------------------------------------------------------

def _read_inputs(grid: ValidatedGrid, nominal: DroopState, link: Tuple[int, ...] = (),
                 budgets: Iterable[Mapping[int, float]] = (), sigma_z: float = 1.0) -> None:
    """Check the link and budgets given, ``sigma_z`` and ``nominal``, before any solve."""
    if link:
        grid.check_link(*link)
    for pi in budgets:
        check_budgets(pi, grid)
        if not pi:
            raise InvalidBudget("at least one budget is required")
    sigma = float(_floats(sigma_z))
    if not (sigma > 0.0 and 0.0 < sigma * sigma < math.inf):
        raise InvalidArgument(f"sigma_z must be positive with a positive, finite square, "
                              f"got {sigma_z}")
    nominal.validate(grid)


def _r_axes(grid: ValidatedGrid, nominal: DroopState, step: float) -> Dict[int, np.ndarray]:
    if not 0.0 < _floats(step) < math.inf:
        raise InvalidArgument(f"step must be finite and positive, got {step}")
    counts = {}
    nameplate = {bus: grid.vsc(bus).r_max for bus in sorted(nominal.r)}
    for bus, hi in _r_limits(grid, nominal, nameplate).items():
        lo = nominal.r[bus]
        if hi < lo:
            raise EmptySearchSpace(f"bus {bus}: r_max {hi:.6g} < nominal {lo:.6g}")
        span = (float(hi) - float(lo)) / float(step)
        if not span < math.inf:
            raise InvalidArgument(f"step {step} is too fine to count the lattice on bus {bus}")
        counts[bus] = math.floor(span + 1e-9) + 1
    if math.prod(counts.values()) > np.iinfo(np.intp).max:
        raise InvalidArgument(f"step {step} gives more lattice points than an index can count")
    return {bus: nominal.r[bus] + step * np.arange(count) for bus, count in counts.items()}


def _r_limits(
    grid: ValidatedGrid, nominal: DroopState, nameplate: Mapping[int, Optional[float]]
) -> Dict[int, float]:
    """Upper ends of converters' search boxes: each ``nameplate`` r_max, else the default.

    A converter whose nameplate sets none, None, gets :func:`default_r_max`'s.
    The caps of all such converters are the lanes of one batched solve,
    each with its own converter at ``DEFAULT_R_MAX_CAP`` times nominal and
    the others at nominal; only the converters whose cap is not viable are
    bisected.  No lane depends on its batch, so each limit is the one a
    solve of that converter alone finds.
    """
    limits = dict(nameplate)
    open_buses = [bus for bus, limit in limits.items() if limit is None]
    if not open_buses:
        return limits

    def viable(bus: int, r: float) -> bool:
        batch = solve_steady_state_many(grid, nominal.x, nominal.with_r({bus: r}).r)
        return bool(batch.feasible[0])

    caps = {bus: DEFAULT_R_MAX_CAP * nominal.r[bus] for bus in open_buses}
    lanes = {bus: np.full(len(open_buses), r) for bus, r in nominal.r.items()}
    for lane, bus in enumerate(open_buses):
        lanes[bus][lane] = caps[bus]
    at_caps = solve_steady_state_many(grid, nominal.x, lanes)
    for bus, cap_viable in zip(open_buses, at_caps.feasible):
        if cap_viable:
            limits[bus] = caps[bus]
            continue
        edge = _bisect(functools.partial(viable, bus), nominal.r[bus], caps[bus], 60)
        limits[bus] = max(nominal.r[bus], DEFAULT_R_MAX_MARGIN * edge)
    return limits


def _bisect(holds: Callable[[float], bool], lo: float, hi: float, rounds: int) -> float:
    """The last midpoint found to hold in ``rounds`` halvings of [lo, hi], else ``lo``."""
    for _ in range(rounds):
        mid = 0.5 * (lo + hi)
        if holds(mid):
            lo = mid
        else:
            hi = mid
    return lo


@dataclass(frozen=True)
class _ChannelTable:
    """Budget-independent channel quantities on chosen lanes of the resistance lattice."""

    vsc: Tuple[int, ...]
    r: Dict[int, np.ndarray]   # lane coordinates per converter, C order of the lattice
    feasible: np.ndarray       # (B,) viable operating point found, with finite gains
    h_rx: np.ndarray           # (B,) voltage gain receiver <- transmitter
    phi: np.ndarray            # (B, n_vsc) power gains d p_n / d x_tx
    dp: np.ndarray             # (B, n_vsc) static investment per converter [W]


def _lattice_r(axes: Dict[int, np.ndarray], lanes: np.ndarray) -> Dict[int, np.ndarray]:
    """Coordinates of flat C-order lattice indices: the meshgrid's values, bit for bit."""
    vsc = sorted(axes)
    index = np.unravel_index(lanes, tuple(len(axes[bus]) for bus in vsc))
    return {bus: axes[bus][i] for bus, i in zip(vsc, index)}


def _channel_table(
    grid: ValidatedGrid,
    nominal: DroopState,
    p_nom: Dict[int, float],
    tx: int,
    rx: int,
    r: Dict[int, np.ndarray],
    batch: BatchSolve,
) -> _ChannelTable:
    """Score the lanes ``r``, solved in ``batch``; a lane's figures do not depend on its batch."""
    vsc = sorted(r)
    logger.info("channel table: %d lattice points", r[vsc[0]].size)
    h, phi = _gains(grid, nominal.x, r, batch.v, [tx])
    return _ChannelTable(
        vsc=tuple(vsc),
        r=r,
        feasible=(batch.feasible & np.isfinite(h[:, rx, 0])
                  & _over_converters(np.logical_and, np.isfinite(phi[:, :, 0]))),
        h_rx=h[:, rx, 0],
        phi=phi[:, :, 0],
        dp=_investment(grid, nominal, p_nom, r, batch.v),
    )


def _search(
    grid: ValidatedGrid,
    nominal: DroopState,
    tx: int,
    rx: int,
    step: float,
    budgets: List[Mapping[int, float]],
    sigma_z: float,
) -> List[OptimizationResult]:
    """First-max argmax of min_n g_n over the resistance lattice at each budget, in order.

    Each budget's running pick is replaced by a block's first maximum only
    when ``argmax`` over the two prefers it: strictly greater, or NaN
    first.  Lane 0, the nominal resistances, goes first, on its own; its
    picks are the nominal scores.  Its solve comes from the end probe of
    the band search, or, when that search stops before probing, from a
    solve of that lane alone.  Then comes the band at the last, largest,
    budget (no block when it is empty), which holds every lane that can
    score above 0 at any of the budgets.  Every other lane scores 0, or
    -inf when not viable, so the viable lane 0 keeps a tie at 0.  When
    the band is unknown (see :func:`_band_lanes`) or lane 0 is not viable,
    :func:`_lattice_blocks` scans a lattice of up to ``MAX_SEARCH_LANES``.
    """
    axes = _r_axes(grid, nominal, step)
    size = math.prod(len(values) for values in axes.values())
    p_nom = solve_steady_state(grid, nominal).p
    link = (grid, nominal, p_nom, tx, rx)
    solved, band = _band_lanes(grid, nominal, p_nom, axes, budgets[-1])
    corner = _lattice_r(axes, np.zeros(1, dtype=int))
    if solved is None:
        solved = solve_steady_state_many(grid, nominal.x, corner)
    at_nominal = _channel_table(*link, corner, solved)
    picks = [_first_max(at_nominal, pi) for pi in budgets]  # (r_star, score, g_values)
    nominal_scores = [score for _, score, _ in picks]
    if band is None or not at_nominal.feasible[0]:
        if size > MAX_SEARCH_LANES:
            raise InvalidArgument(f"step {step} gives {size} lattice points, more than the "
                                  f"{MAX_SEARCH_LANES} a search may scan; choose a coarser --step")
        blocks = (block[1:] for block in _lattice_blocks(grid, nominal, axes))
    else:
        blocks = [band[1:]] if len(band[0]) else []
    for r, batch in blocks:
        table = _channel_table(*link, r, batch)
        for k, pi in enumerate(budgets):
            pick = _first_max(table, pi)
            if np.argmax([picks[k][1], pick[1]]) == 1:
                picks[k] = pick
    if not all(np.isfinite(score) for _, score, _ in picks):
        raise NoRealRoot("no viable operating point anywhere on the search lattice")
    noise = sigma_z**2
    return [
        OptimizationResult(
            r_star=r_star,
            snr=score / noise,
            snr_nominal=at_nominal_score / noise,
            capacity=capacity(score / noise),
            g_values=g,
            grid_step=step,
            evaluations=size,
        )
        for (r_star, score, g), at_nominal_score in zip(picks, nominal_scores)
    ]


def _lattice_blocks(
    grid: ValidatedGrid, nominal: DroopState, axes: Dict[int, np.ndarray]
) -> Iterator[Tuple[np.ndarray, Dict[int, np.ndarray], BatchSolve]]:
    """The whole lattice in C-order blocks of ``_block_lanes(grid)`` lanes.

    Yields each block's flat indices, coordinates and solve, the shape
    :func:`_band_lanes` returns, so memory stays bounded at any lattice size;
    each is one Newton block, sized as those and :func:`_gains`' are.
    """
    size = math.prod(len(values) for values in axes.values())
    block = _block_lanes(grid)
    for lo in range(0, size, block):
        lanes = np.arange(lo, min(lo + block, size))
        r = _lattice_r(axes, lanes)
        yield lanes, r, solve_steady_state_many(grid, dict(nominal.x), r)


def _band_lanes(
    grid: ValidatedGrid,
    nominal: DroopState,
    p_nom: Dict[int, float],
    axes: Dict[int, np.ndarray],
    pi: Mapping[int, float],
) -> Tuple[Optional[BatchSolve], Optional[Tuple[np.ndarray, Dict[int, np.ndarray], BatchSolve]]]:
    """Lattice point 0's solve, and the band's flat C-order indices, coordinates and solve.

    The band is the lattice points with every |dp_n| <= pi_n.  Along the
    last lattice axis each investment is monotone in every row: raising
    one resistance shifts load off its converter onto the others.  A
    row's band is therefore one run [lo, hi]: lo is the first
    point where the constraints that turn true along the row hold, hi
    the last where those that turn false still hold, with each
    constraint's direction taken from the row's end points.  Each edge
    is bracketed by two solved points, and each side's smallest slack,
    its margin, is monotone along the row and >= 0 exactly where that
    side holds.  The end probe solves every row's end points, and its
    middle point when that adds no Newton block; each later round solves,
    in one batch, the two points around each bracket's secant zero of the
    margin and its midpoint, so a bracket at least halves (regula falsi
    with a bisection safeguard).  A bracket of ``_SETTLED_WIDTH`` points
    or fewer is left to the check batch, which solves each row from its
    lo bracket's lower end to its hi bracket's upper end and keeps the
    points that it finds in the band.  The band is exact when that batch
    is viable and every investment in it is strictly monotone in its
    row's direction, which makes both margins strictly monotone too, so
    the points kept are one run per row; the batch's solve of the
    band comes back with the indices, in the shape of one block of
    :func:`_lattice_blocks`.  An empty band, every row's run empty, comes
    back with no lanes: every lane then has an investment outside its
    budget, on the same premise of monotone rows that the band's edges
    rest on.  The band is None, meaning "search the whole lattice", when a
    solved point is not viable, a row's end points tie, a check fails or
    2 x rows exceed ``MAX_SEARCH_LANES``; one debug line names the cause,
    or the rounds and lanes of a search that found the band.  Lattice
    point 0's solve is a lane of the end probe, viable or not; it is None
    only when the bound on rows stops the search before that probe.
    """
    vsc = sorted(axes)
    width = len(axes[vsc[-1]])
    row_count = math.prod(len(axes[bus]) for bus in vsc[:-1])
    if 2 * row_count > MAX_SEARCH_LANES:
        return None, _no_band(f"{row_count} rows, more than MAX_SEARCH_LANES / 2")
    pi_vec = np.array([pi[bus] for bus in vsc])

    def probe(row: np.ndarray, col: np.ndarray) -> Optional[np.ndarray]:
        return _lane_investments(grid, nominal, p_nom, _lattice_r(axes, row * width + col))

    middle = [width // 2] if 3 * row_count <= _block_lanes(grid) else []
    cols = np.unique([0, *middle, width - 1])
    end_row, end_col = np.repeat(np.arange(row_count), cols.size), np.tile(cols, row_count)
    r = _lattice_r(axes, end_row * width + end_col)
    solved = solve_steady_state_many(grid, dict(nominal.x), r)
    corner = _batch_lanes(solved, slice(1))  # row 0, column 0
    if not solved.feasible.all():
        return corner, _no_band("a lane of the end probe is not viable")
    ends = _investment(grid, nominal, p_nom, r, solved.v)
    first, last = ends[end_col == 0], ends[end_col == width - 1]
    if np.any(first == last):
        return corner, _no_band("a row's end points tie")
    rising = last > first  # (rows, n_vsc)

    # Each edge's bracket, with the margins at its ends: lo in (a[0], a[1]]
    # with m_after >= 0 from a[1] on, hi in [b[0], b[1]) with m_before < 0
    # from b[1] on; -1 and width stand for "none".
    a, b = (np.array([np.full(row_count, -1), np.full(row_count, width)]) for _ in range(2))
    ma, mb = (np.full((2, row_count), np.nan) for _ in range(2))

    def narrow(row: np.ndarray, col: np.ndarray, dp: np.ndarray) -> None:
        m_after, m_before = _margins(dp, pi_vec, rising[row])
        for ends, m, margin, turned in ((a, ma, m_after, m_after >= 0.0),
                                        (b, mb, m_before, m_before < 0.0)):
            np.minimum.at(ends[1], row[turned], col[turned])
            np.maximum.at(ends[0], row[~turned], col[~turned])
            for side in (0, 1):
                at = col == ends[side][row]
                m[side][row[at]] = margin[at]

    narrow(end_row, end_col, ends)
    rounds, probed = 0, end_row.size
    while True:
        live = a[0] + 1 <= b[1] - 1  # the row's band may still be nonempty
        lanes = []
        for ends, m in ((a, ma), (b, mb)):
            row = np.flatnonzero(live & (ends[1] - ends[0] > _SETTLED_WIDTH))
            lo, hi = ends[0][row], ends[1][row]
            with np.errstate(divide="ignore", invalid="ignore"):
                t = m[0][row] / (m[0][row] - m[1][row])  # the margin's secant zero
            t = np.clip(np.nan_to_num(t, nan=0.5), 0.0, 1.0)
            est = np.floor(lo + (hi - lo) * t).astype(int)
            for col in (est, est + 1, (lo + hi) // 2):
                lanes.append(row * width + np.clip(col, lo + 1, hi - 1))
        lanes = np.sort(np.concatenate(lanes))
        lanes = lanes[np.diff(lanes, prepend=-1) > 0]  # np.unique's hash path takes ~10x as long
        if not lanes.size:
            break
        row, col = np.divmod(lanes, width)
        dp = probe(row, col)
        if dp is None:
            return corner, _no_band(f"a lane of round {rounds + 1} is not viable")
        narrow(row, col, dp)
        rounds, probed = rounds + 1, probed + lanes.size

    live = np.flatnonzero(live)
    start = np.maximum(a[0][live], 0)
    length = np.minimum(b[1][live], width - 1) + 1 - start
    row = np.repeat(live, length)
    col = np.arange(length.sum()) - np.repeat(np.cumsum(length) - length - start, length)
    r = _lattice_r(axes, row * width + col)
    batch = solve_steady_state_many(grid, dict(nominal.x), r)
    if not batch.feasible.all():
        return corner, _no_band("a lane of the check batch is not viable")
    dp = _investment(grid, nominal, p_nom, r, batch.v)
    if not _runs_monotone(dp, rising[row], row):
        return corner, _no_band("an investment is not monotone along a row")
    m_after, m_before = _margins(dp, pi_vec, rising[row])
    inside = (m_after >= 0.0) & (m_before >= 0.0)
    logger.debug("band search: %d lanes in the band; %d probed, %d in the check batch; rounds "
                 "after the end probe: %d", np.count_nonzero(inside), probed, row.size, rounds)
    band = row[inside] * width + col[inside], {bus: r[bus][inside] for bus in vsc}
    return corner, (*band, _batch_lanes(batch, inside))


def _batch_lanes(batch: BatchSolve, index: slice | np.ndarray) -> BatchSolve:
    """The lanes ``index`` of a batched solve: the solve each gets alone."""
    return BatchSolve(batch.v[index], batch.feasible[index], batch.residual[index], batch.sweeps)


def _over_converters(ufunc: np.ufunc, table: np.ndarray) -> np.ndarray:
    """``ufunc`` folded over the columns of a (lanes, n_vsc) table, elementwise across lanes.

    Not ``table.min(axis=1)`` and kin, nor ``ufunc.reduce(table.T)``: numpy
    reduces over each short C-order row on its slow path, which took ~30x
    as long for min and 10-15x for any on a (2109, 2) table (numpy 2.4).
    min, any and all are exact, so the fold gives the same bits, NaN too.
    """
    return functools.reduce(ufunc, table.T)


def _margins(dp: np.ndarray, pi: np.ndarray, rising: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per lane, the smallest slack of the constraints that turn true along its row, and of those
    that turn false, with ``rising`` each lane's (lanes, n_vsc) row directions.

    A float sum keeps the sign of the exact one, so each slack is >= 0
    exactly where its constraint holds.
    """
    up, down = dp + pi, pi - dp  # slack of dp >= -pi and of dp <= pi
    return (_over_converters(np.minimum, np.where(rising, up, down)),
            _over_converters(np.minimum, np.where(rising, down, up)))


def _no_band(cause: str) -> None:
    """Log why the band search gives up; its None means "search the whole lattice"."""
    logger.debug("band search: falls back to the whole lattice: %s", cause)
    return None


def _runs_monotone(dp: np.ndarray, rising: np.ndarray, row: np.ndarray) -> bool:
    """Each investment moves strictly in its row's direction between consecutive points."""
    step = np.diff(dp, axis=0)
    same_row = row[1:] == row[:-1]
    return bool(np.all(np.where(rising[1:], step > 0.0, step < 0.0)[same_row]))


def _investment(
    grid: ValidatedGrid,
    nominal: DroopState,
    p_nom: Dict[int, float],
    r: Mapping[int, np.ndarray],
    v: np.ndarray,
) -> np.ndarray:
    """Static investment p(r) - p_nom per lane and converter, (lanes, n_vsc) [W]."""
    _, p = vsc_outputs(grid, nominal.with_r(r), v.T)
    return np.stack([p[bus] - p_nom[bus] for bus in grid.vsc_buses], axis=1)


def _lane_investments(
    grid: ValidatedGrid, nominal: DroopState, p_nom: Dict[int, float], r: Mapping[int, np.ndarray]
) -> Optional[np.ndarray]:
    """Investments of lanes solved in one batch; None when any lane is not viable."""
    batch = solve_steady_state_many(grid, dict(nominal.x), r)
    return _investment(grid, nominal, p_nom, r, batch.v) if batch.feasible.all() else None


def _score(table: _ChannelTable, pi: Mapping[int, float]) -> Tuple[np.ndarray, np.ndarray]:
    """Score min_n g_n and gain terms g_n = (h / phi_n)^2 (pi_n^2 - dp_n^2) per lane.

    The converters are those with a budget in ``pi``, in bus order, which
    is the order of ``g``'s columns.  The score is the received SNR times
    sigma_z^2: min_n g_n clamped at zero, and zero once any investment
    exceeds its budget.
    """
    buses = sorted(pi)
    cols = [table.vsc.index(bus) for bus in buses]
    headroom = np.array([pi[bus] for bus in buses]) ** 2 - table.dp[:, cols] ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        g = (table.h_rx[:, None] / table.phi[:, cols]) ** 2 * headroom
    overrun = _over_converters(np.logical_or, headroom < 0.0)
    return np.where(overrun, 0.0, np.maximum(_over_converters(np.minimum, g), 0.0)), g


def _first_max(
    table: _ChannelTable, pi: Mapping[int, float]
) -> Tuple[Dict[int, float], float, Dict[int, float]]:
    """Resistances, score and gain terms at the table's first best lane; -inf when none viable."""
    score, g = _score(table, pi)
    score = np.where(table.feasible, score, -np.inf)
    # lanes in C order over ascending axes: the first maximum is the
    # smallest-resistance tie-break in bus order
    idx = int(np.argmax(score))
    r_star = {bus: float(table.r[bus][idx]) for bus in table.vsc}
    return r_star, float(score[idx]), {bus: float(g[idx, j]) for j, bus in enumerate(sorted(pi))}


def _band_interior(
    grid: ValidatedGrid,
    nominal: DroopState,
    state: SteadyState,
    pi: Mapping[int, float],
    jacobian: np.ndarray,
) -> np.ndarray:
    """Feasible lattice points of the region with all lattice neighbors feasible.

    Raising one resistance alone moves investments at thousands of watts per
    ohm, so the region hugs the direction that the investment ``jacobian``
    maps closest to zero (equal-increase on a symmetric grid).  It is
    dp_n/dr_m = -i_m Phi[n, m] at the nominal ``state``, (n_vsc, n_vsc) in
    grid order: a step dr_m acts as dx_m = -i_m dr_m, so it is the channel
    gains, with no solve.  A box
    lattice inside the search box is sized from the bisected extent along
    that direction and from the band halfwidth implied by the largest
    Jacobian gain.  Its feasible points are found by :func:`_band_lanes`,
    converters without a budget counting as unbounded, with their solved
    lanes; only when that band is unknown is the whole box solved, block by
    block through :func:`_lattice_blocks`.  Returns up to ``PROBE_SAMPLES``
    points as rows of resistances in grid order.
    """
    vsc = list(grid.vsc_buses)
    dim = len(vsc)
    r_nom = np.array([nominal.r[bus] for bus in vsc])
    nameplate = {bus: grid.vsc(bus).r_max for bus in vsc}
    cap = np.array(list(_r_limits(grid, nominal, nameplate).values())) - r_nom
    budgets = {bus: pi.get(bus, np.inf) for bus in grid.vsc_buses}
    pi_vec = np.array(list(budgets.values()))
    _, singulars, vt = np.linalg.svd(jacobian)
    direction = vt[-1]
    if direction.sum() < 0.0:
        direction = -direction
    direction = np.where(np.abs(direction) < 1e-12, 0.0, direction)
    if np.any(direction < 0.0):  # band leaves the box; fall back to the diagonal
        direction = np.ones(dim) / math.sqrt(dim)

    def feasible_shift(t: float) -> bool:
        if np.any(t * direction > cap):
            return False
        dp = _lane_investments(grid, nominal, state.p, dict(zip(vsc, r_nom + t * direction)))
        return dp is not None and bool(np.all(dp**2 <= pi_vec**2))

    pushable = direction > 0.0
    hi = float(np.min(cap[pushable] / direction[pushable])) if np.any(pushable) else 0.0
    if hi <= 0.0:
        return np.empty((0, dim))
    t_max = hi if feasible_shift(hi) else _bisect(feasible_shift, 0.0, hi, 40)
    if t_max <= 0.0:
        return np.empty((0, dim))

    halfwidth = max(pi.values()) / singulars[0] if singulars[0] > 0.0 else t_max
    widths = np.minimum(1.2 * t_max * direction + 2.0 * halfwidth, cap)
    counts = [
        int(np.clip(math.ceil(w / (halfwidth / 2.5)) if halfwidth > 0.0 else 32, 32, 200))
        for w in widths
    ]
    axes = {
        bus: nominal.r[bus] + np.linspace(0.0, widths[i], counts[i])
        for i, bus in enumerate(vsc)
    }
    _, band = _band_lanes(grid, nominal, state.p, axes, budgets)
    feas = np.zeros(counts, dtype=bool)
    for lanes, r, batch in [band] if band is not None else _lattice_blocks(grid, nominal, axes):
        dp = np.nan_to_num(_investment(grid, nominal, state.p, r, batch.v), nan=np.inf)
        feas.flat[lanes] = batch.feasible & _over_converters(np.logical_and, dp**2 <= pi_vec**2)
    inner = np.zeros_like(feas)
    inner[(slice(1, -1),) * dim] = True
    for axis in range(dim):
        inner &= feas & np.roll(feas, 1, axis) & np.roll(feas, -1, axis)
    flat = np.flatnonzero(inner)
    picks = np.linspace(0, flat.size - 1, num=min(PROBE_SAMPLES, flat.size))
    chosen = flat[np.round(picks).astype(int)]
    return np.stack(list(_lattice_r(axes, chosen).values()), axis=1)  # vsc order

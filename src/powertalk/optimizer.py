"""Virtual-resistance tuning for one-way signaling throughput.

For a fixed transmitter/receiver pair the received SNR is governed by
per-converter gain terms g_n: the squared voltage gain at the receiver,
divided by the squared power sensitivity of converter n, times that
converter's remaining budget headroom.  The binding constraint is the
smallest g_n, so tuning maximizes min_n g_n over a lattice on the
virtual-resistance box, with the step the deployment uses.  The search is
exact but solves only the budget band: the lattice points whose
investments all fit the budgets, found per lattice row by batched
bisection on the monotone investments.  Every other point scores 0, so
the band's best is the lattice's best whenever it is positive; when it is
not, every viable point scores 0 and the nominal resistances win the
tie.  Only when a run-time check of the band fails is the whole lattice
solved and scored instead, in C-order blocks of bounded size that each
keep every budget's first maximum.  All grid-point evaluations are pure, so
the result is independent of evaluation order; ties resolve to the
smallest resistances.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

import numpy as np

from .budget import vr_power_investment
from .channel import channel_gains, linearize
from .errors import EmptySearchSpace, InvalidArgument, InvalidBudget, NoRealRoot
from .grid import ValidatedGrid, check_budgets
from .steady_state import (
    BLOCK_BYTES,
    BatchSolve,
    DroopState,
    _droop_lanes,
    _kappa,
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
    """Numerical curvature audit of the gain terms over the search region."""

    points: Tuple[Tuple[float, ...], ...]   # sampled interior resistance pairs
    max_rel_eig: float                      # worst Hessian eigenvalue, relative
    violations: Tuple[Tuple[Tuple[float, ...], int, float], ...]  # (point, bus, rel eig)
    grad_nominal: Dict[int, Tuple[float, ...]]  # dg_n/dr at nominal per converter
    nominal_at_box_corner: bool             # all partials >= 0 at nominal

    @property
    def ok(self) -> bool:
        return not self.violations and self.nominal_at_box_corner


def capacity(snr: float) -> float:
    """Bits per slot of the scalar Gaussian channel: 0.5 * log2(1 + snr)."""
    if snr < 0.0:
        raise ValueError(f"snr must be nonnegative, got {snr}")
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
    """Received SNR for one transmitter under every converter's budget.

    Each converter n contributes g_n = (h_rx_tx / phi_n_tx)^2 *
    (pi_n^2 - dp_vr_n^2): the budget headroom left after the static
    investment, translated into receivable signal power.  The SNR is the
    smallest g_n over sigma_z^2, clamped to zero once any investment
    exceeds its budget.
    """
    grid.check_link(tx, rx)
    check_budgets(pi, grid)
    _check_sigma_z(sigma_z)
    state = solve_steady_state(grid, droop)
    model = linearize(grid, droop, state)
    dp = vr_power_investment(grid, nominal, droop)
    buses = sorted(pi)
    snr, g = _score(
        model.H[rx, tx, None],
        model.Phi[buses, tx][None],
        np.array([[dp[bus] for bus in buses]]),
        np.array([pi[bus] for bus in buses]),
        sigma_z,
    )
    return float(snr[0]), {bus: float(g[0, j]) for j, bus in enumerate(buses)}


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
    resistances in bus order.  Only the budget band, the lattice points
    with every |dp_n| <= pi_n, is solved and scored: every other point
    scores 0, so a positive best in the band is the lattice's first
    maximum; a best that is not positive (pi = 0, say) makes every viable
    point score 0, and the nominal resistances are the answer.  The
    search falls back to a blocked scan of the whole lattice when the
    band's run-time checks fail.
    ``r_max`` is each converter's nameplate limit, else :func:`default_r_max`.
    """
    grid.check_link(tx, rx)
    check_budgets(pi, grid)
    if len(pi) != len(grid.vsc_buses):
        raise InvalidBudget("budgets must cover every converter bus")
    _check_sigma_z(sigma_z)
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
    point: the band of a smaller budget lies inside it.  The budget
    points the band cannot answer share one blocked scan of the lattice.
    """
    pi_values = [float(p) for p in pi_range]
    if not pi_values:
        raise InvalidArgument("pi_range must be nonempty")
    if any(b < a for a, b in zip(pi_values, pi_values[1:])):
        raise InvalidArgument("pi_range must be ascending")
    grid.check_link(tx, rx)
    budgets = [dict.fromkeys(grid.vsc_buses, pi) for pi in pi_values]
    for budget in budgets:
        check_budgets(budget)
    _check_sigma_z(sigma_z)
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
    the larger root.
    """

    def viable(r: float) -> bool:
        batch = solve_steady_state_many(grid, nominal.x, nominal.with_r({bus: r}).r)
        return bool(batch.feasible[0])

    r_nom = nominal.r[bus]
    hi = DEFAULT_R_MAX_CAP * r_nom
    if viable(hi):
        return hi
    return max(r_nom, DEFAULT_R_MAX_MARGIN * _bisect(viable, r_nom, hi, 60))


def concavity_probe(
    grid: ValidatedGrid,
    nominal: DroopState,
    pi: Mapping[int, float],
    tx: int,
    rx: int,
) -> ConcavityReport:
    """Check concavity of the gain terms at interior points of the region.

    The feasible region is a narrow band around the equal-increase
    diagonal: raising one resistance alone shifts load to the other
    converter and burns the budget within millohms, while raising both
    together largely cancels.  The probe therefore lattices a box around
    the band's bisected diagonal extent, inside the search box, finds the
    box's band as the lattice search does, keeps band points whose lattice
    neighbors are in the band too, and forms central-difference Hessians
    (step ``PROBE_FD_STEP``) of each g_n at up to ``PROBE_SAMPLES`` of them,
    flagging eigenvalues above ``PROBE_REL_TOL`` times the Hessian norm.
    The gradient at the
    nominal corner uses central differences, which cancel the
    headroom's quadratic dip (the investment vanishes at nominal) and
    expose the first-order growth that pulls the optimum above nominal.
    Every point scored, the stencils of all sample points and the
    nominal lanes, is a lane of one pass through the batched Newton and
    channel-gain kernels that the lattice search uses.
    """
    grid.check_link(tx, rx)
    check_budgets(pi, grid)
    vsc = sorted(nominal.r)
    dim = len(vsc)
    p_nom = solve_steady_state(grid, nominal).p
    points = _band_interior(grid, nominal, p_nom, pi, vsc)

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
    h_nom = 1e-4
    r_nom = np.array([nominal.r[bus] for bus in vsc])
    stencils = (points[:, None, :] + offsets * PROBE_FD_STEP).reshape(-1, dim)
    lanes = np.concatenate([stencils, r_nom + np.concatenate([eye, -eye]) * h_nom, r_nom[None]])
    r = dict(zip(vsc, lanes.T))
    batch = solve_steady_state_many(grid, dict(nominal.x), r)
    table = _channel_table(grid, nominal, p_nom, tx, rx, r, batch)
    if not table.feasible.all():
        raise NoRealRoot("a point of the concavity probe has no viable operating point")
    buses = sorted(pi)
    cols = [grid.vsc_buses.index(bus) for bus in buses]
    pi_vec = np.array([pi[bus] for bus in buses])
    _, g = _score(table.h_rx, table.phi[:, cols], table.dp[:, cols], pi_vec, 1.0)
    stencil, at_nominal = np.split(g, [len(points) * len(offsets)])

    stencil = stencil.reshape(len(points), len(offsets), len(buses))
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

    grad = (at_nominal[:dim] - at_nominal[dim:-1]) / (2.0 * h_nom)  # (axis, bus)
    g0 = at_nominal[-1]
    return ConcavityReport(
        points=sampled,
        max_rel_eig=float(np.max(rel, initial=-np.inf)),
        violations=violations,
        grad_nominal={bus: tuple(map(float, grad[:, b])) for b, bus in enumerate(buses)},
        nominal_at_box_corner=bool(np.all(grad >= -PROBE_REL_TOL * np.maximum(np.abs(g0), 1e-30))),
    )


# -- internals ----------------------------------------------------------------

def _check_sigma_z(sigma_z: float) -> None:
    if not 0.0 < sigma_z < math.inf:
        raise InvalidArgument(f"sigma_z must be finite and positive, got {sigma_z}")


def _r_axes(grid: ValidatedGrid, nominal: DroopState, step: float) -> Dict[int, np.ndarray]:
    if not 0.0 < step < math.inf:
        raise InvalidArgument(f"step must be finite and positive, got {step}")
    axes = {}
    for bus in sorted(nominal.r):
        lo = nominal.r[bus]
        hi = _r_limit(grid, nominal, bus)
        if hi < lo:
            raise EmptySearchSpace(f"bus {bus}: r_max {hi:.6g} < nominal {lo:.6g}")
        count = int(np.floor((hi - lo) / step + 1e-9)) + 1
        axes[bus] = lo + step * np.arange(count)
    return axes


def _r_limit(grid: ValidatedGrid, nominal: DroopState, bus: int) -> float:
    """Upper end of a converter's search box: its nameplate r_max, else :func:`default_r_max`."""
    limit = grid.vsc(bus).r_max
    return limit if limit is not None else default_r_max(grid, nominal, bus)


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
    feasible: np.ndarray       # (B,) viable operating point found
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
    size = r[vsc[0]].size
    logger.info("channel table: %d lattice points", size)

    xr, y = _droop_lanes(grid, nominal.x, r, size)
    kappa = _kappa(grid, xr, 1.0 / (grid.r_cr_inv + grid.lines.degree + y), batch.v)
    h, phi = channel_gains(grid, nominal.x, r, batch.v, kappa, [tx])
    return _ChannelTable(
        vsc=tuple(vsc),
        r=r,
        feasible=batch.feasible & np.all(np.isfinite(kappa), axis=1),
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
    """First-max argmax over the resistance lattice at each budget, in order.

    The band at the last, largest, budget holds every lattice point whose
    score can be positive at that budget or any smaller one; all other
    points score 0 (or -inf when not viable).  So a budget whose best in
    the band is positive has the whole lattice's first maximum there,
    tie-break included.  A budget whose best in the band is not positive
    (-inf included; an empty band has none) has every viable lane scoring
    exactly 0, so its first maximum is the first viable lane: lattice
    index 0, the nominal resistances, whenever that lane is viable.  No
    lane can score NaN there: outside the band some headroom is negative,
    which clamps the score to 0, and a NaN inside it would have been the
    band's best, since ``argmax`` picks the first NaN.  A one-lane table on
    index 0 gives that pick, and the nominal SNR at each budget.  The
    budgets left over, all of them when the band is unknown (see
    :func:`_band_lanes`), are scored together in one pass over the lattice
    in C-order blocks: each block's first maximum replaces a budget's
    running best only when ``argmax`` prefers it, so the pick is
    ``argmax`` over the whole lattice while no table outlives its block.
    """
    axes = _r_axes(grid, nominal, step)
    size = int(np.prod([len(values) for values in axes.values()]))
    p_nom = solve_steady_state(grid, nominal).p
    link = (grid, nominal, p_nom, tx, rx)
    picks = [None] * len(budgets)  # (r_star, snr, g_values) per budget, once found
    zero = []  # budgets at which every viable lane scores 0
    band = _band_lanes(grid, nominal, p_nom, axes, budgets[-1])
    if band is not None:
        table = _channel_table(*link, *band[1:])
        for k, pi in enumerate(budgets):
            pick = _first_max(table, pi, sigma_z) if len(band[0]) else None
            if pick is None or pick[1] <= 0.0:
                zero.append(k)
            elif pick[1] > 0.0:
                picks[k] = pick
    corner = _lattice_r(axes, np.zeros(1, dtype=int))
    batch = solve_steady_state_many(grid, dict(nominal.x), corner)
    at_nominal = _channel_table(*link, corner, batch)
    if at_nominal.feasible[0]:
        for k in zero:
            picks[k] = _first_max(at_nominal, budgets[k], sigma_z)
    fallback = [k for k, pick in enumerate(picks) if pick is None]
    if fallback:
        for _, r, batch in _lattice_blocks(grid, nominal, axes):
            table = _channel_table(*link, r, batch)
            for k in fallback:
                pick = _first_max(table, budgets[k], sigma_z)
                # argmax over (running best, block best): strictly greater, or NaN first
                if picks[k] is None or np.argmax([picks[k][1], pick[1]]) == 1:
                    picks[k] = pick
        if not all(np.isfinite(picks[k][1]) for k in fallback):
            raise NoRealRoot("no viable operating point anywhere on the search lattice")
    return [
        OptimizationResult(
            r_star=r_star,
            snr=snr,
            snr_nominal=_first_max(at_nominal, pi, sigma_z)[1],
            capacity=capacity(snr),
            g_values=g,
            grid_step=step,
            evaluations=size,
        )
        for pi, (r_star, snr, g) in zip(budgets, picks)
    ]


def _lattice_blocks(
    grid: ValidatedGrid, nominal: DroopState, axes: Dict[int, np.ndarray]
) -> Iterator[Tuple[np.ndarray, Dict[int, np.ndarray], BatchSolve]]:
    """The whole lattice in C-order blocks of ``BLOCK_BYTES // (8 * grid.n)`` lanes.

    Yields each block's flat indices, coordinates and solve, the shape
    :func:`_band_lanes` returns, so memory stays bounded at any lattice size.
    """
    size = int(np.prod([len(values) for values in axes.values()]))
    block = max(1, BLOCK_BYTES // (8 * grid.n))
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
) -> Optional[Tuple[np.ndarray, Dict[int, np.ndarray], BatchSolve]]:
    """Flat C-order indices, coordinates and solve of the lattice points with every |dp_n| <= pi_n.

    Along the last lattice axis each investment is monotone in every
    row: raising one resistance shifts load off its converter onto the
    others.  A row's band is therefore one run [lo, hi]: lo is the first
    point where the constraints that turn true along the row hold, hi
    the last where those that turn false still hold, with each
    constraint's direction taken from the row's end points.  Both edges
    of every row are bisected at once, one batched solve per round.  The
    run and its outside neighbours are then solved and checked: viable,
    strictly monotone in the row's direction, and in the band exactly
    from lo to hi; that check's solve of the band comes back with the
    indices, in the shape of one block of :func:`_lattice_blocks`.
    An empty band, every row's run empty, comes back with no lanes: every
    lane then has an investment outside its budget, on the same premise of
    monotone rows that the band's edges rest on.  Returns None, meaning
    "search the whole lattice", when a probed point is not viable, a row's
    end points tie or a check fails.
    """
    vsc = sorted(axes)
    width = len(axes[vsc[-1]])
    rows = np.arange(int(np.prod([len(axes[bus]) for bus in vsc[:-1]])))
    pi_vec = np.array([pi[bus] for bus in vsc])

    def probe(row: np.ndarray, col: np.ndarray) -> Optional[np.ndarray]:
        return _lane_investments(grid, nominal, p_nom, _lattice_r(axes, row * width + col))

    end_row, end_col = np.tile(rows, 2), np.repeat([0, width - 1], rows.size)
    ends = probe(end_row, end_col)
    if ends is None:
        return None
    first, last = ends[: rows.size], ends[rows.size :]
    if np.any(first == last):
        return None
    rising = last > first  # (rows, n_vsc)

    def holds(dp: np.ndarray, row: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Whether the constraints that turn true, and those that turn false, all hold."""
        above, below = dp >= -pi_vec, dp <= pi_vec
        after = np.where(rising[row], above, below).all(axis=1)
        before = np.where(rising[row], below, above).all(axis=1)
        return after, before

    # lo in (a_lo, a_hi] and hi in [b_lo, b_hi); -1 and width stand for "none"
    a_lo, a_hi = np.full(rows.size, -1), np.full(rows.size, width)
    b_lo, b_hi = np.full(rows.size, -1), np.full(rows.size, width)

    def narrow(row: np.ndarray, col: np.ndarray, dp: np.ndarray) -> None:
        after, before = holds(dp, row)
        np.minimum.at(a_hi, row[after], col[after])
        np.maximum.at(a_lo, row[~after], col[~after])
        np.maximum.at(b_lo, row[before], col[before])
        np.minimum.at(b_hi, row[~before], col[~before])

    narrow(end_row, end_col, ends)
    while True:
        live = a_lo + 1 <= b_hi - 1  # the row's band may still be nonempty
        open_a = np.flatnonzero(live & (a_hi - a_lo > 1))
        open_b = np.flatnonzero(live & (b_hi - b_lo > 1))
        if open_a.size + open_b.size == 0:
            break
        row = np.concatenate([open_a, open_b])
        col = np.concatenate([a_lo[open_a] + a_hi[open_a], b_lo[open_b] + b_hi[open_b]]) // 2
        dp = probe(row, col)
        if dp is None:
            return None
        narrow(row, col, dp)

    lo, hi = a_hi, b_lo
    band = np.flatnonzero(lo <= hi)
    start = np.maximum(lo[band] - 1, 0)
    length = np.minimum(hi[band] + 1, width - 1) + 1 - start
    row = np.repeat(band, length)
    col = np.arange(length.sum()) - np.repeat(np.cumsum(length) - length - start, length)
    r = _lattice_r(axes, row * width + col)
    batch = solve_steady_state_many(grid, dict(nominal.x), r)
    if not batch.feasible.all():
        return None
    dp = _investment(grid, nominal, p_nom, r, batch.v)
    after, before = holds(dp, row)
    inside = (col >= lo[row]) & (col <= hi[row])
    if np.any((after & before) != inside) or not _runs_monotone(dp, rising[row], row):
        return None
    kept = BatchSolve(batch.v[inside], batch.feasible[inside], batch.residual[inside], batch.sweeps)
    return row[inside] * width + col[inside], {bus: r[bus][inside] for bus in vsc}, kept


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


def _score(
    h: np.ndarray, phi: np.ndarray, dp: np.ndarray, pi: np.ndarray, sigma_z: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Received SNR and gain terms g_n = (h / phi_n)^2 (pi_n^2 - dp_n^2) per lane.

    ``h`` is (lanes,), ``phi`` and ``dp`` are (lanes, k) and ``pi`` is
    (k,) over the same converters.  The SNR is min_n g_n / sigma_z^2,
    clamped at zero, and zero once any investment exceeds its budget.
    """
    headroom = pi**2 - dp**2
    with np.errstate(divide="ignore", invalid="ignore"):
        g = (h[:, None] / phi) ** 2 * headroom
        snr = np.min(g, axis=1) / sigma_z**2
    return np.where(np.any(headroom < 0.0, axis=1), 0.0, np.maximum(snr, 0.0)), g


def _first_max(
    table: _ChannelTable, pi: Mapping[int, float], sigma_z: float
) -> Tuple[Dict[int, float], float, Dict[int, float]]:
    """Resistances, SNR and gain terms at the table's first best lane; -inf SNR when none viable."""
    pi_vec = np.array([pi[bus] for bus in table.vsc])
    snr, g = _score(table.h_rx, table.phi, table.dp, pi_vec, sigma_z)
    snr = np.where(table.feasible, snr, -np.inf)
    # lanes in C order over ascending axes: the first maximum is the
    # smallest-resistance tie-break in bus order
    idx = int(np.argmax(snr))
    r_star = {bus: float(table.r[bus][idx]) for bus in table.vsc}
    return r_star, float(snr[idx]), {bus: float(g[idx, j]) for j, bus in enumerate(table.vsc)}


def _band_interior(
    grid: ValidatedGrid,
    nominal: DroopState,
    p_nom: Dict[int, float],
    pi: Mapping[int, float],
    vsc: List[int],
) -> np.ndarray:
    """Feasible lattice points of the region with all lattice neighbors feasible.

    Raising one resistance alone moves investments at thousands of watts
    per ohm, so the region hugs the direction that the investment
    Jacobian maps closest to zero (equal-increase on a symmetric grid).
    A box lattice inside the search box is sized from the bisected extent
    along that direction and from the band halfwidth implied by the
    largest Jacobian gain.  Its feasible points are found by
    :func:`_band_lanes`, converters without a budget counting as
    unbounded, with their solved lanes; only when that band is unknown is
    the whole box solved, block by block through :func:`_lattice_blocks`.
    Returns up to ``PROBE_SAMPLES`` points as rows of resistances in
    ``vsc`` order.
    """
    dim = len(vsc)
    r_nom = np.array([nominal.r[bus] for bus in vsc])
    cap = np.array([_r_limit(grid, nominal, bus) for bus in vsc]) - r_nom
    budgets = {bus: pi.get(bus, np.inf) for bus in grid.vsc_buses}
    pi_vec = np.array(list(budgets.values()))
    h = 1e-5  # central differences of the investments at nominal
    shifted = r_nom + np.concatenate([np.eye(dim), -np.eye(dim)]) * h
    dp = _lane_investments(grid, nominal, p_nom, dict(zip(vsc, shifted.T)))
    if dp is None:
        raise NoRealRoot("no viable operating point next to the nominal resistances")
    jac = ((dp[:dim] - dp[dim:]) / (2.0 * h)).T  # d(investment_i)/d(r_j)
    _, singulars, vt = np.linalg.svd(jac)
    direction = vt[-1]
    if direction.sum() < 0.0:
        direction = -direction
    direction = np.where(np.abs(direction) < 1e-12, 0.0, direction)
    if np.any(direction < 0.0):  # band leaves the box; fall back to the diagonal
        direction = np.ones(dim) / math.sqrt(dim)

    def feasible_shift(t: float) -> bool:
        if np.any(t * direction > cap):
            return False
        dp = _lane_investments(grid, nominal, p_nom, dict(zip(vsc, r_nom + t * direction)))
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
    band = _band_lanes(grid, nominal, p_nom, axes, budgets)
    feas = np.zeros(counts, dtype=bool)
    for lanes, r, batch in [band] if band is not None else _lattice_blocks(grid, nominal, axes):
        dp = np.nan_to_num(_investment(grid, nominal, p_nom, r, batch.v), nan=np.inf)
        feas.flat[lanes] = batch.feasible & np.all(dp**2 <= pi_vec**2, axis=1)
    inner = np.zeros_like(feas)
    inner[(slice(1, -1),) * dim] = True
    for axis in range(dim):
        inner &= feas & np.roll(feas, 1, axis) & np.roll(feas, -1, axis)
    flat = np.flatnonzero(inner)
    picks = np.linspace(0, flat.size - 1, num=min(PROBE_SAMPLES, flat.size))
    chosen = flat[np.round(picks).astype(int)]
    return np.stack(list(_lattice_r(axes, chosen).values()), axis=1)  # vsc order

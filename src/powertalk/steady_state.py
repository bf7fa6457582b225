"""Steady-state solution of the coupled bus-voltage equations.

At a fixed droop configuration every bus voltage satisfies a quadratic
current-balance equation coupled to its neighbors:

    v_n**2 / r_bus_n - (x_n/r_n + sum_m v_m/r_{n,m} - i_cc_n) * v_n + d_cp_n = 0

The physically viable operating point is the larger root (the smaller
one is the voltage-collapse branch).  Newton on the current-balance
residual is the one solver kernel: many configurations at once (a
resistance lattice) are solved in blocks of lanes, each lane certified
to sit on the larger root of every bus quadratic, each bus within a
residual threshold that grows with its largest current term, and a single
configuration with ``method="newton"`` is bit for bit a batch of one
lane, started like every lane from the configured set-points x.  A
Newton step eliminates the Jacobian in the grid's fixed minimum-degree
order, one array step per level of the schedule, and line sums run over
the grid's neighbour slots, so a lane costs O(n + fill) work and memory
where a dense solve costs O(n**3) and O(n**2).  A single configuration
is solved by default with a damped Gauss-Seidel fixed point that sweeps
the per-bus update on Python floats, bit for bit a numpy sweep, reading
each bus's lines from the same table, and checks Newton's residual once
per block of sweeps; a sweep whose residual is not finite ends the
solve.  No solve builds an (n, n) array.  The sweep count grows with the
grid and near voltage collapse, and a sweep cuts the residual by a steady
factor, so a block that ends outside the tolerance measures that factor:
when, kept up, it cannot reach the tolerance even one block past the
``GS_SWEEPS`` budget, when the budget is spent, or when a sweep loses a
bus's real root, the sweeps are discarded and the solve is Newton's from
the set-points, its batch lane.
The tolerance and the budgets are the module's constants: every Newton
solve, scalar or batched, stops after ``DEFAULT_MAX_ITER`` iterations.
A Newton step's Jacobian is also the channel matrix
(:func:`_jacobian_diagonal`); a solve reports kappa = g_bus / -J_nn from
its diagonal.  Solvers are pure functions of their arguments and safe to
run concurrently; every call solves.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from .errors import InvalidArgument, NonConvergence, NoRealRoot, TopologyMismatch
from .grid import (Elimination, ValidatedGrid, _floats, check_finite,
                   check_resistances, network_matrices)

logger = logging.getLogger(__name__)

DEFAULT_TOL = 1e-10      # residual tolerance, amps
DEFAULT_MAX_ITER = 10_000  # Newton iterations, of a scalar solve and a batch lane alike
DEFAULT_DAMPING = 0.7    # weight on the fresh per-bus root
SWEEP_BLOCK = 32         # Gauss-Seidel sweeps per vectorised residual pass
GS_SWEEPS = 16 * SWEEP_BLOCK  # Gauss-Seidel's budget before a scalar solve is Newton's
BLOCK_BYTES = 1 << 20    # working bytes per block of the batched solve
LANE_ROWS = 8            # bound on a Newton lane's working floats, in units of buses + spokes
ROUNDING_TERMS = 8       # Newton's residual floor, in units of eps times the largest balance term


@dataclass(frozen=True)
class DroopState:
    """Live droop-control parameters, keyed by converter bus id."""

    x: Mapping[int, float]  # reference voltages [V]
    r: Mapping[int, float]  # virtual resistances [ohm]

    def validate(self, grid: ValidatedGrid) -> None:
        expected = set(grid.vsc_buses)
        if set(self.x) != expected or set(self.r) != expected:
            raise InvalidArgument(
                f"droop entries must exist exactly for converter buses {sorted(expected)}"
            )
        check_finite({f"reference voltage on bus {bus}": x for bus, x in self.x.items()})
        check_resistances({f"virtual resistance on bus {bus}": r for bus, r in self.r.items()})

    def conductances(self, grid: ValidatedGrid) -> np.ndarray:
        """Per-bus 1/r, zero on buses without a converter."""
        return _droop_lanes(grid, self.x, self.r, 1)[1][0]

    def with_r(self, updates: Mapping[int, float]) -> "DroopState":
        return replace(self, r={**self.r, **updates})

    def with_x(self, updates: Mapping[int, float]) -> "DroopState":
        return replace(self, x={**self.x, **updates})


def nominal_droop(grid: ValidatedGrid) -> DroopState:
    """Droop state at the converter nameplate values."""
    return DroopState(
        x={bus: grid.vsc(bus).x_nom for bus in grid.vsc_buses},
        r={bus: grid.vsc(bus).r_nom for bus in grid.vsc_buses},
    )


@dataclass(frozen=True)
class SteadyState:
    """Solved operating point of the grid."""

    v: np.ndarray             # (n,) bus voltages [V]
    i: Dict[int, float]       # converter output currents [A]
    p: Dict[int, float]       # converter output powers [W]
    kappa: np.ndarray         # (n,) constant-power-load correction g_bus / -J_nn, >= 1
    residual: float           # max current-balance error [A]


@dataclass(frozen=True)
class ViabilityViolation:
    bus: int
    x: float      # configured reference voltage [V]
    bound: float  # minimum reference voltage for a real operating point [V]


def solve_steady_state(
    grid: ValidatedGrid, droop: DroopState, method: str = "gauss_seidel"
) -> SteadyState:
    """Solve the coupled bus equations at the given droop configuration.

    ``DEFAULT_TOL`` bounds the final max current-balance residual in amps;
    Newton raises it to each bus's rounding floor where that is larger (see
    :func:`_newton_block`).  ``method="gauss_seidel"`` (the default) sweeps
    up to ``GS_SWEEPS`` times and returns the first sweep within
    ``DEFAULT_TOL``.  If none is, or a block of sweeps shows a rate that
    cannot reach it within that budget, or a sweep loses a bus's real root
    (see :func:`_gauss_seidel`), Newton solves from the set-points, the call
    ``method="newton"`` makes: bit for bit the configuration's lane of
    :func:`solve_steady_state_many`.  Raises :class:`NoRealRoot` when
    Newton's iterate leaves the larger root (droop parameters outside the
    viable range) and :class:`NonConvergence` when Newton's iterations run
    out or a sweep's residual is not finite.
    """
    droop.validate(grid)
    if method not in ("gauss_seidel", "newton"):
        raise InvalidArgument(f"unknown method {method!r}")
    xr, y = _droop_lanes(grid, droop.x, droop.r, 1)
    v0 = _initial_voltages(grid, droop.x)
    solved = None
    if method == "gauss_seidel":
        solved = _gauss_seidel(grid, xr[0], y[0], v0)
    if solved is None:  # Newton from the set-points, the solve's batch lane
        lane, feasible, res, its, stalled = _newton_block(grid, xr, y, v0)
        if stalled.size:
            raise NonConvergence(f"newton: no convergence after {its} iterations")
        if not feasible[0]:
            raise NoRealRoot("newton: iterate left the larger root; droop parameters not viable")
        solved = lane[0], float(res[0])
    v, residual = solved

    g_bus = grid.lines.degree + y[0] + grid.r_cr_inv
    with np.errstate(divide="ignore"):
        kappa = g_bus / -_jacobian_diagonal(grid, g_bus, v)
    i, p = vsc_outputs(grid, droop, v)
    return SteadyState(v=v, i=i, p=p, kappa=kappa, residual=residual)


def _gauss_seidel(
    grid: ValidatedGrid, xr: np.ndarray, y: np.ndarray, v: np.ndarray
) -> Optional[Tuple[np.ndarray, float]]:
    """Damped sweeps of the per-bus larger root from ``v`` until within ``tol``, ``DEFAULT_TOL``.

    The sweep runs on Python floats with the per-bus constants hoisted, and
    reads each bus's lines from the grid's line table.  A bus with one line
    takes its inflow as the one product ``g * v_m``.  A bus with more lines
    takes it as one BLAS dot (``ndarray.dot``, the routine behind
    ``np.dot``; a Python sum rounds differently) of a row that covers only
    the span of its neighbour ids, zero between them, with a view of the
    voltages over the same span, made once per solve; so no (n, n) array is
    built, and every voltage matches a numpy sweep of the same dots bit for
    bit.  Sweeps run in whole blocks of ``SWEEP_BLOCK``, up to
    ``GS_SWEEPS``, each sweep's voltages kept as one row.  Once per block,
    :func:`_balance` over the block's sweeps, taken as lanes, gives every
    sweep's residual, Newton's residual, the same bits as a pass after each
    sweep.  Returns the first sweep within ``tol`` and its max residual;
    the sweeps after it in its block are discarded, and so is a bus
    quadratic without a real root that one of them met.  A linearly
    convergent sweep cuts the residual by a steady factor per sweep (its
    asymptotic rate; Varga, *Matrix Iterative Analysis*, 2nd ed., 2000,
    section 3.2), so a whole block that ends outside ``tol`` before the budget
    measures that factor over its second half, the first sweeps of a solve
    being a transient.  Returns None, with a debug line naming the reason,
    as soon as that factor kept up one block past the budget leaves the
    block's last residual above ``tol`` (a factor >= 1 always does), when
    ``GS_SWEEPS`` sweeps end outside ``tol``, or when a sweep meets such a
    quadratic first.  A sweep whose residual is not finite raises
    :class:`NonConvergence` naming it.
    """
    tol = DEFAULT_TOL
    v = v.copy()  # swept in place, and the row dots read views of it
    r_bus = 1.0 / (grid.r_cr_inv + grid.lines.degree + y)
    four_d = 4.0 * grid.d_cp / r_bus
    g_bus = grid.lines.degree + y + grid.r_cr_inv
    ids = np.arange(grid.n)
    lines: List[Dict[int, float]] = [{} for _ in range(grid.n)]  # conductance by neighbour
    for slot_buses, ends, g in grid.lines.slots:
        for bus, end, g_end in zip(ids[slot_buses].tolist(), ids[ends].tolist(), g.tolist()):
            lines[bus][end] = g_end
    buses = []
    for bus, line in enumerate(lines):
        lo, hi = min(line), max(line) + 1
        if len(line) == 1:  # one line, or a one-bus grid's self slot at 0: inflow g * v_m
            line_sum = (None, line[lo], lo)
        else:  # inflow row.dot(span), the row over the span of the neighbour ids
            row = np.zeros(hi - lo)
            for end, g in line.items():
                row[end - lo] = g
            line_sum = (row.dot, v[lo:hi], 0)
        buses.append((bus, *line_sum, float(xr[bus]), float(grid.i_cc[bus]), float(four_d[bus]),
                      float(0.5 * r_bus[bus])))
    sweep_v = np.empty((SWEEP_BLOCK, grid.n), order="F")  # bus by bus, as Newton's lanes
    v_old = v.tolist()
    sweeps, res, reason = 0, math.inf, "the budget is spent"
    with np.errstate(all="ignore"):  # a diverging sweep is stopped by its residual below
        while sweeps < GS_SWEEPS:
            done = _sweep_block(buses, v, v_old, sweep_v)
            block_res = np.abs(_balance(grid, xr, g_bus, sweep_v[:done])[1]).max(axis=1)
            (stops,) = np.nonzero((block_res <= tol) | ~np.isfinite(block_res))
            if stops.size:
                sweep, res = sweeps + int(stops[0]) + 1, float(block_res[stops[0]])
                if res <= tol:
                    logger.debug("gauss_seidel converged in %d sweeps, residual %.3e", sweep, res)
                    return sweep_v[stops[0]].copy(), res
                raise NonConvergence(
                    f"gauss_seidel: residual {res} A, not finite, after sweep {sweep}"
                )
            sweeps, res = sweeps + done, float(block_res[-1]) if done else res
            if done < SWEEP_BLOCK:
                reason = "then a bus lost its real root"
                break
            # the rate per sweep over the block's second half (a solve's first
            # sweeps still settle), kept up one block past the budget, must reach tol
            half = SWEEP_BLOCK // 2
            rate = (block_res[-1] / block_res[half - 1]) ** (1.0 / half)
            if sweeps < GS_SWEEPS and not res * rate ** (GS_SWEEPS + SWEEP_BLOCK - sweeps) <= tol:
                reason = f"its rate {rate:.4f} per sweep cannot reach tol by sweep {GS_SWEEPS}"
                break
    logger.debug("gauss_seidel: residual %.3e A after %d sweeps, %s; newton starts afresh",
                 res, sweeps, reason)
    return None


def _sweep_block(buses: List[tuple], v: np.ndarray, v_old: List[float], sweep_v: np.ndarray) -> int:
    """Up to ``SWEEP_BLOCK`` sweeps, each sweep's voltages stored as a row of ``sweep_v``.

    ``v`` and ``v_old`` hold the same voltages as an array (whose views the
    BLAS dots read) and as Python floats.  Returns the sweeps completed:
    fewer than ``SWEEP_BLOCK`` when a bus quadratic had no real root.
    """
    damping, keep = DEFAULT_DAMPING, 1.0 - DEFAULT_DAMPING
    sqrt = math.sqrt
    for done in range(SWEEP_BLOCK):
        # g is the line conductance of a one-line bus, else the span of v for row_dot
        for bus, row_dot, g, m, xr_bus, i_cc, four_d, half_r in buses:
            b = xr_bus + (g * v_old[m] if row_dot is None else float(row_dot(g))) - i_cc
            disc = b * b - four_d
            if disc < 0.0:
                return done
            v[bus] = v_old[bus] = damping * (half_r * (b + sqrt(disc))) + keep * v_old[bus]
        sweep_v[done] = v
    return SWEEP_BLOCK


def _initial_voltages(grid: ValidatedGrid, x) -> np.ndarray:
    # Converter buses start at their set-point x[bus] (x a mapping or an
    # array); load buses start at the mean of their converter neighbors'
    # set-points (global mean as fallback).
    v = np.zeros(grid.n)
    vsc = np.array(grid.vsc_buses)
    v[vsc] = [x[bus] for bus in grid.vsc_buses]
    mean_x = float(np.mean(v[vsc]))
    for bus in range(grid.n):
        if grid.has_vsc(bus):
            continue
        neighbor_x = [v[m] for m in grid.adjacent[bus] if grid.has_vsc(m)]
        v[bus] = float(np.mean(neighbor_x)) if neighbor_x else mean_x
    return v


def vsc_outputs(
    grid: ValidatedGrid, droop: DroopState, v: np.ndarray
) -> Tuple[Dict[int, float], Dict[int, float]]:
    """Converter output current (x - v)/r and power v*(x - v)/r per bus.

    Given (n, lanes) voltages and per-lane droop values, each entry is a
    (lanes,) array, bit for bit the scalar value of its lane.
    """
    i = {}
    p = {}
    for bus in grid.vsc_buses:
        i[bus] = (droop.x[bus] - v[bus]) / droop.r[bus]
        p[bus] = v[bus] * i[bus]
    return i, p


def _droop_lanes(
    grid: ValidatedGrid, x: Mapping[int, float], r: Mapping[int, np.ndarray], lanes: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-lane x/r and 1/r as (lanes, n) arrays, zero on buses without a converter.

    ``x`` and ``r`` map each converter bus to a scalar or a (lanes,) array.
    """
    xr = np.zeros((lanes, grid.n))
    y = np.zeros_like(xr)
    for bus in grid.vsc_buses:
        y[:, bus] = 1.0 / r[bus]
        xr[:, bus] = x[bus] / r[bus]
    return xr, y


def check_viability(
    grid: ValidatedGrid, droop: DroopState, v_neighbors: np.ndarray
) -> List[ViabilityViolation]:
    """Reference-voltage lower bounds for a real operating point.

    For each converter bus the root of the bus quadratic is real only if
    x >= r * (sqrt(4 d_cp / r_bus) - sum_m v_m / r_{n,m} + i_cc) given the
    neighbor voltages.  Violations are returned as data, not raised.
    """
    droop.validate(grid)
    v_neighbors = np.asarray(v_neighbors, dtype=float)
    if v_neighbors.shape != (grid.n,):
        raise InvalidArgument(f"v_neighbors must have shape ({grid.n},), got {v_neighbors.shape}")
    check_finite({"v_neighbors": v_neighbors})
    y = droop.conductances(grid)
    r_bus = 1.0 / (grid.r_cr_inv + grid.lines.degree + y)
    net_inflow = _line_sum(grid, v_neighbors[None])[0] - grid.i_cc
    violations = []
    for bus in grid.vsc_buses:
        bound = droop.r[bus] * (np.sqrt(4.0 * grid.d_cp[bus] / r_bus[bus]) - net_inflow[bus])
        if droop.x[bus] < bound:
            violations.append(ViabilityViolation(bus=bus, x=droop.x[bus], bound=float(bound)))
    return violations


# -- batched evaluation -------------------------------------------------------

@dataclass(frozen=True)
class BatchSolve:
    """Result of solving many droop configurations at once; each lane as if solved alone."""

    v: np.ndarray         # (batch, n) voltages, NaN where not viable
    feasible: np.ndarray  # (batch,) bool, converged on the larger root
    residual: np.ndarray  # (batch,) max current-balance error [A]
    sweeps: int           # Newton iterations, the most any block needed


def solve_steady_state_many(
    grid: ValidatedGrid,
    x: Mapping[int, float],
    r: Mapping[int, np.ndarray],
) -> BatchSolve:
    """Batched Newton over many virtual-resistance values.

    ``r`` maps each converter bus to a scalar or a (batch,) array; arrays
    are broadcast together.  Reference voltages are shared across the
    batch.  Lanes are solved in blocks of ``BLOCK_BYTES`` of working
    memory, O(n + fill) per lane (:func:`_block_lanes`), each lane
    independently of the others, so no figure of a lane depends on its
    batch.  A lane is feasible when each bus's residual is within its
    threshold (``DEFAULT_TOL``, or its rounding floor, :func:`_newton_block`) with
    every voltage positive and every constant-power bus on the larger root
    of its quadratic; other lanes surface as ``feasible=False`` with NaN
    voltages instead of raising, so a grid search can skip them.
    Keys, reference voltages and resistances are checked by :meth:`DroopState.validate`.
    """
    arrays = {bus: _floats(val) for bus, val in r.items()}
    DroopState(x=x, r=arrays).validate(grid)
    batch = np.broadcast_shapes(*(a.shape for a in arrays.values()), (1,))
    size = math.prod(batch)
    r_lanes = {bus: np.broadcast_to(a, batch).reshape(size) for bus, a in arrays.items()}
    v0 = _initial_voltages(grid, x)

    v = np.empty((size, grid.n))
    feasible = np.empty(size, dtype=bool)
    residual = np.empty(size)
    block = _block_lanes(grid)
    sweeps = 0
    for lo in range(0, size, block):
        lanes = slice(lo, min(lo + block, size))
        r_blk = {bus: r_vals[lanes] for bus, r_vals in r_lanes.items()}
        xr, y = _droop_lanes(grid, x, r_blk, lanes.stop - lo)
        *solved, its, _ = _newton_block(grid, xr, y, v0)
        v[lanes], feasible[lanes], residual[lanes] = solved
        sweeps = max(sweeps, its)
    return BatchSolve(v=v, feasible=feasible, residual=residual, sweeps=sweeps)


def _block_lanes(grid: ValidatedGrid) -> int:
    """Lanes per block of :func:`_newton_block`: ``BLOCK_BYTES`` over a lane's working memory.

    A lane's peak is about 13 floats per bus on a radial grid (measured
    with ``tracemalloc``, block inputs included), plus a row of spokes (the
    schedule's off-diagonal entries, fill included) on a meshed one;
    ``LANE_ROWS`` floats per bus and spoke bounds both.
    """
    return max(1, BLOCK_BYTES // (8 * LANE_ROWS * (grid.n + len(grid.elimination.values))))


def _newton_block(
    grid: ValidatedGrid, xr: np.ndarray, y: np.ndarray, v0: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int, np.ndarray]:
    """Newton on one block of lanes; a lane iterates until it is certified or strays.

    Each step solves ``J dv = f`` for the Jacobian ``J`` of
    :func:`_jacobian_diagonal` by :func:`_eliminate` on the grid's
    elimination schedule, vectorised over lanes, without pivoting.  A lane
    leaves as soon as each bus is within its threshold (certified, if
    every voltage is positive and every constant-power bus is on its larger
    root) or it is off the physical branch, so a lane without a viable
    operating point stops the moment it strays instead of running to
    ``DEFAULT_MAX_ITER`` iterations, the budget of every lane and every
    scalar solve; a poor or zero pivot costs a lane an iteration or its
    feasibility, never a wrong answer.  The working arrays are stored bus
    by bus (Fortran order), so reductions over a lane's buses and per-bus
    gathers read contiguous memory, and they shrink to the lanes still
    iterating only when one leaves.  Returns the voltages (NaN where not
    feasible), the feasible mask, the residuals, the iterations run and the
    indices of the lanes still iterating when the iterations ran out.

    A bus's threshold is ``DEFAULT_TOL``, or its rounding floor where that is
    larger: ``ROUNDING_TERMS`` times eps times its ``g_bus v`` at the start
    point, the largest term of its :func:`_balance`, since a sum cannot be
    computed closer than about eps times its largest term (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2nd ed., 2002,
    §3.1).  The floor is per bus, so a stiff converter (a tiny ``r``)
    loosens only its own bus.  It grows with the line conductances: it
    stays below 1e-10 A on the case study and feeders of a few dozen
    buses, and passes it on chains of a few hundred.
    """
    lanes = len(xr)
    v_out = np.full((lanes, grid.n), np.nan)
    feasible = np.zeros(lanes, dtype=bool)
    residual = np.empty(lanes)
    xr = np.asfortranarray(xr)
    g_bus = grid.lines.degree + np.asfortranarray(y) + grid.r_cr_inv  # 1/r_bus per lane
    v = np.empty_like(xr)
    v[...] = v0
    floor = ROUNDING_TERMS * np.finfo(float).eps  # per unit of a bus's g_bus v at the start point
    index = np.arange(lanes)  # the block lane of each working row
    its = 0
    with np.errstate(all="ignore"):
        while True:
            b, f = _balance(grid, xr, g_bus, v)
            abs_f = np.abs(f)
            res = abs_f.max(axis=1)
            certified = (abs_f <= np.maximum(DEFAULT_TOL, floor * (g_bus * v0))).all(axis=1)
            del abs_f  # freed before the step, which peaks a lane's memory
            physical = _on_upper_branch(grid, g_bus, b, v)
            stays = physical & ~certified
            if not stays.all():  # certified, or off the branch
                leaving = ~stays
                residual[index[leaving]] = res[leaving]
                done = physical & leaving
                feasible[index[done]] = True
                v_out[index[done]] = v[done]
                index, res = index[stays], res[stays]
                if index.size == 0:
                    break
                xr, g_bus, v, f = (a.T.compress(stays, axis=1).T for a in (xr, g_bus, v, f))
            if its == DEFAULT_MAX_ITER:
                break
            its += 1
            v -= _eliminate(grid.elimination, _jacobian_diagonal(grid, g_bus, v), f)
    residual[index] = res
    return v_out, feasible, residual, its, index


def _jacobian_diagonal(grid: ValidatedGrid, g_bus: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Diagonal of J = df/dv (:func:`_balance`), -g_bus/kappa: the paper's kappa is g_bus / -J_nn."""
    return grid.d_cp / v**2 - g_bus


def _eliminate(schedule: Elimination, diag: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``(G + diag(diag)) x = rhs`` per lane; ``diag`` ends as the pivots, ``rhs`` as x.

    ``rhs`` is (lanes, n), or (k, lanes, n) for k right-hand sides that
    share one elimination of each lane (Golub & Van Loan, *Matrix
    Computations*, §3.1).  Forward, level by level, each pivot k's spokes
    (k, i) take ``w = e_ki / d_k`` off its later buses: ``d_i -= w e_ki``,
    ``rhs_i -= w rhs_k`` and, on meshed grids, ``e_ij -= w_ki e_kj`` for
    each pair of them.  Backward, ``x_k = (rhs_k - sum_i e_ki x_i) /
    d_k``.  Rounds apply repeated targets one after another, and every
    step is elementwise, so no lane or right-hand side depends on another.
    No pivoting: a zero pivot gives that lane a non-finite x.
    """
    values = schedule.values[None, :]
    e = np.repeat(values, len(diag), axis=0) if schedule.updates else values
    for level in schedule.levels[:-1]:  # the last level is the root, with no spokes
        spoke = e[:, level.spokes]
        w = spoke / diag[:, level.pivot]
        on_diag, on_rhs = w * spoke, w * rhs[..., level.pivot]
        for spokes, targets in level.scatter:
            diag[:, targets] -= on_diag[:, spokes]
            rhs[..., targets] -= on_rhs[..., spokes]
        for entry, a, b in level.fill:
            e[:, entry] -= w[:, a] * spoke[:, b]
    root = schedule.levels[-1].pivots
    rhs[..., root] /= diag[:, root]
    for level in reversed(schedule.levels[:-1]):
        known = e[:, level.spokes] * rhs[..., level.target]
        x = rhs[..., level.pivots] - known[..., level.first]
        for spokes, pivots in level.gather:
            x[..., pivots] -= known[..., spokes]
        rhs[..., level.pivots] = x / diag[:, level.pivots]
    return rhs


def _balance(
    grid: ValidatedGrid, xr: np.ndarray, g_bus: np.ndarray, v: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Linear coefficient ``b`` of each bus quadratic, and the residual, per lane.

    ``b = x/r + sum_m v_m/r_{n,m} - i_cc`` and the current-balance error
    is ``b - v/r_bus - d_cp/v``.  The line sum runs over the grid's
    neighbour slots, elementwise over lanes, so a lane's figures do not
    depend on the other lanes in the batch.
    """
    b = xr + _line_sum(grid, v) - grid.i_cc
    return b, b - g_bus * v - grid.d_cp / v


def _line_sum(grid: ValidatedGrid, v: np.ndarray) -> np.ndarray:
    """``sum_m v_m/r_{n,m}`` per lane, in ascending neighbour order (as ``lines.degree``)."""
    (_, ends, g), *slots = grid.lines.slots
    line_sum = g * v[:, ends]  # the first slot holds every bus
    for buses, ends, g in slots:
        line_sum[:, buses] += g * v[:, ends]
    return line_sum


def _on_upper_branch(
    grid: ValidatedGrid, g_bus: np.ndarray, b: np.ndarray, v: np.ndarray
) -> np.ndarray:
    """Lanes with every voltage positive and every constant-power bus on its larger root.

    The bus quadratic ``v**2/r_bus - b v + d_cp`` has real roots when
    ``b**2 >= 4 d_cp/r_bus``, and its larger root lies at or above the
    vertex ``b r_bus/2``; a voltage below the vertex is on the collapse
    branch.
    """
    ok = (v > 0.0).all(axis=1)
    cp = grid.constant_power
    b, g_bus, v = b[:, cp], g_bus[:, cp], v[:, cp]
    disc = b * b - 4.0 * grid.d_cp[cp] * g_bus
    return ok & ((disc >= 0.0) & (2.0 * v * g_bus >= b)).all(axis=1)


# -- closed form for the two-source star --------------------------------------

def two_source_closed_form(grid: ValidatedGrid, droop: DroopState) -> np.ndarray:
    """Exact voltages for a star of two source buses feeding one load bus.

    Both source buses must host a converter and no local load; the load
    bus carries the composite load and connects to each source by one
    line.  The load-bus voltage follows from reducing each source to its
    Thevenin equivalent, the source voltages from their own (linear) bus
    equations.  Serves as the independent oracle for the iterative solver.
    """
    droop.validate(grid)
    if grid.n != 3 or len(grid.vsc_buses) != 2:
        raise TopologyMismatch("expected exactly 3 buses with converters on 2 of them")
    g_line = -network_matrices(grid, droop)[0]  # the line conductances, off the diagonal
    load_bus = next(bus for bus in range(3) if not grid.has_vsc(bus))
    sources = list(grid.vsc_buses)
    for bus in sources:
        load = grid.buses[bus].load
        if load.r_cr is not None or load.i_cc != 0.0 or load.d_cp != 0.0:
            raise TopologyMismatch(f"source bus {bus} must carry no local load")
        if g_line[bus, load_bus] == 0.0:
            raise TopologyMismatch(f"source bus {bus} must connect to the load bus")
    if g_line[sources[0], sources[1]] != 0.0:
        raise TopologyMismatch("source buses must not be directly connected")

    r_leg = {bus: droop.r[bus] + 1.0 / g_line[bus, load_bus] for bus in sources}
    g_total = sum(1.0 / r_leg[bus] for bus in sources) + grid.r_cr_inv[load_bus]
    b = sum(droop.x[bus] / r_leg[bus] for bus in sources) - grid.i_cc[load_bus]
    disc = b * b - 4.0 * grid.d_cp[load_bus] * g_total
    if disc < 0.0:
        raise NoRealRoot("load-bus quadratic has no real root for these droop parameters")
    v = np.zeros(3)
    v[load_bus] = (b + np.sqrt(disc)) / (2.0 * g_total)
    for bus in sources:
        g = g_line[bus, load_bus]
        r_bus = 1.0 / (1.0 / droop.r[bus] + g)
        v[bus] = r_bus * (droop.x[bus] / droop.r[bus] + v[load_bus] * g)
    return v

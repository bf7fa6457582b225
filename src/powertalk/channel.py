"""Small-signal model of the grid around a solved operating point.

Linearizing the bus equations in the reference-voltage deviations gives
``dv = H @ dx``: the gain matrix H maps set-point deviations on converter
buses to voltage deviations on every bus.  The companion matrix Phi maps
the same inputs to converter supplied-power deviations and is what the
power budgets constrain.  With purely linear loads (all d_cp = 0) the
model is exact; constant-power loads enter through the per-bus kappa
correction on the Laplacian diagonal.

One batched kernel, :func:`channel_gains`, gives the gains of chosen
input buses at many operating points (the optimizer's resistance
lattice); :func:`linearize` is that kernel on one lane.  It solves by
the Newton steps' elimination, with no dense (n, n) system, and a lane
without a viable operating point (a non-finite kappa) gets NaN gains.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Mapping, Tuple

import numpy as np

from .errors import NoRealRoot
from .grid import LoadSpec, ValidatedGrid, VscSpec
from .steady_state import DroopState, SteadyState, _block_lanes, _droop_lanes, _eliminate

__all__ = [
    "ChannelModel",
    "channel_gains",
    "linearize",
    "single_bus_channel",
]


@dataclass(frozen=True)
class ChannelModel:
    """Linearized voltage and power response at one operating point.

    ``H[n, m]`` is the voltage gain dv_n/dx_m; columns for buses without
    a converter are zero.  ``Phi[n, m]`` is the supplied-power gain
    dp_n/dx_m; rows for buses without a converter are zero.
    """

    H: np.ndarray              # (n, n) voltage gains [V/V]
    Phi: np.ndarray            # (n, n) power gains [W/V]
    K: np.ndarray              # (n,) kappa corrections, >= 1
    operating_point: SteadyState
    droop: DroopState

    def vsc_buses(self) -> Tuple[int, ...]:
        return tuple(sorted(self.droop.r))


def linearize(grid: ValidatedGrid, droop: DroopState, state: SteadyState) -> ChannelModel:
    """Build the channel model at a solved operating point.

    :func:`channel_gains` on one lane with every bus as an input, its
    converter power gains scattered into the rows of an (n, n) Phi.
    ``state`` must come from the same grid and droop configuration.
    """
    h, phi = channel_gains(grid, droop.x, droop.r, state.v[None], state.kappa[None], range(grid.n))
    power = np.zeros((grid.n, grid.n))
    power[list(grid.vsc_buses)] = phi[0]
    return ChannelModel(H=h[0], Phi=power, K=state.kappa, operating_point=state, droop=droop)


def channel_gains(
    grid: ValidatedGrid,
    x: Mapping[int, float],
    r: Mapping[int, np.ndarray],
    v: np.ndarray,
    kappa: np.ndarray,
    inputs: Iterable[int],
) -> Tuple[np.ndarray, np.ndarray]:
    """Voltage and power gains of the input buses at many operating points.

    ``x`` and ``r`` map each converter bus to a scalar or a (lanes,)
    array; ``v`` and ``kappa`` are the solved (lanes, n) voltages and
    load corrections.  Per lane, H solves (Psi_k + K^-1 (Y + Y_cr)) H = Y:
    Psi_k is the line Laplacian with its diagonal divided by kappa, Y and
    Y_cr the virtual-resistance and resistive-load conductances.  As
    p_n = v_n (x_n - v_n) / r_n, Phi[n, m] = (H[n, m] (x_n - 2 v_n) + [m == n] v_n) / r_n.
    Returns ``h`` (lanes, n, k), the H columns of ``inputs``, and ``phi``
    (lanes, n_vsc, k), their Phi rows for the converter buses in grid
    order.  A lane with a non-finite kappa at any bus (not viable) gets
    NaN gains.  Each (lane, input) pair is one row of ``_eliminate`` on the
    grid's schedule, with no (lanes, n, n) system, in blocks the size of
    the Newton steps', so a column depends on neither its block nor the
    other inputs, and memory beyond the outputs stays bounded.
    """
    inputs = list(inputs)
    lanes = len(v)
    x = {bus: np.broadcast_to(np.asarray(x[bus], dtype=float), (lanes,)) for bus in grid.vsc_buses}
    r = {bus: np.broadcast_to(np.asarray(r[bus], dtype=float), (lanes,)) for bus in grid.vsc_buses}
    h = np.empty((lanes, grid.n, len(inputs)))
    phi = np.empty((lanes, len(grid.vsc_buses), len(inputs)))
    block = max(1, _block_lanes(grid) // max(1, len(inputs)))
    for lo in range(0, lanes, block):
        blk = slice(lo, lo + block)
        h[blk], phi[blk] = _gains_block(
            grid,
            {bus: values[blk] for bus, values in x.items()},
            {bus: values[blk] for bus, values in r.items()},
            v[blk],
            kappa[blk],
            inputs,
        )
    return h, phi


def _gains_block(
    grid: ValidatedGrid,
    x: Mapping[int, np.ndarray],
    r: Mapping[int, np.ndarray],
    v: np.ndarray,
    kappa: np.ndarray,
    inputs: List[int],
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`channel_gains` on one block: per lane, (g_line - diag(g_bus / kappa)) H = -Y."""
    lanes, k = len(v), len(inputs)
    _, y = _droop_lanes(grid, x, r, lanes)
    diag = np.repeat(-(grid.lines.degree + y + grid.r_cr_inv) / kappa, k, axis=0)
    rhs = np.zeros((lanes, k, grid.n))
    rhs[:, np.arange(k), inputs] = -y[:, inputs]
    with np.errstate(all="ignore"):  # non-viable lanes are overwritten below
        h = _eliminate(grid.elimination, diag, rhs.reshape(lanes * k, grid.n))
    h = h.reshape(lanes, k, grid.n).transpose(0, 2, 1)
    h[~np.isfinite(kappa).all(axis=1)] = np.nan  # finite if kappa is inf at one bus only

    phi = np.empty((lanes, len(grid.vsc_buses), len(inputs)))
    for i, bus in enumerate(grid.vsc_buses):
        x_col, r_col = x[bus][:, None], r[bus][:, None]
        phi[:, i] = h[:, bus] * (x_col - 2.0 * v[:, bus, None]) / r_col
        if bus in inputs:
            phi[:, i, inputs.index(bus)] += v[:, bus] / r_col[:, 0]
    return h, phi


def single_bus_channel(units: List[VscSpec], load: LoadSpec) -> Tuple[np.ndarray, float]:
    """Channel gains for converters sharing a single bus (lines neglected).

    All units see the same voltage, so the per-unit gain collapses to
    h_m = kappa * r_bus / r_m with a common kappa.  With no constant-power
    load kappa = 1 and the gains sum to less than one.
    """
    if not units:
        raise ValueError("at least one converter unit is required")
    r = np.array([unit.r_nom for unit in units])
    if np.any(r <= 0.0):
        raise ValueError("unit virtual resistances must be positive")
    g_cr = 0.0 if load.r_cr is None else 1.0 / load.r_cr
    r_bus = 1.0 / (g_cr + np.sum(1.0 / r))
    source = float(np.sum([unit.x_nom for unit in units] / r)) - load.i_cc
    if load.d_cp == 0.0:
        kappa = 1.0
    else:
        disc = source * source - 4.0 * load.d_cp / r_bus
        if disc <= 0.0:
            raise NoRealRoot(
                f"single-bus discriminant {disc:.3e} <= 0; constant-power load too large"
            )
        kappa = 0.5 * (1.0 + source / np.sqrt(disc))
    return kappa * r_bus / r, float(kappa)


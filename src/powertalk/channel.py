"""Small-signal model of the grid around a solved operating point.

Linearizing the bus equations in the reference-voltage deviations gives
``dv = H @ dx``: the gain matrix H maps set-point deviations on converter
buses to voltage deviations on every bus.  The companion matrix Phi maps
the same inputs to converter supplied-power deviations and is what the
power budgets constrain.  With purely linear loads (all d_cp = 0) the
model is exact.  Its matrix is the Jacobian that Newton eliminates: the
paper's Laplacian with the kappa-corrected diagonal, kappa reported only.

One batched kernel, :func:`channel_gains`, gives the gains of chosen
input buses at many operating points; it checks its inputs and runs
``_gains``, which checks nothing and is what the optimizer's lattice
table calls.  :func:`linearize` is that kernel on one lane and the
converter inputs.  Each lane is eliminated once for all its inputs, with
no dense (n, n) system; a lane without a viable operating point gets NaN gains.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Mapping, Tuple

import numpy as np

from .errors import InvalidArgument, NoRealRoot
from .grid import LoadSpec, ValidatedGrid, VscSpec, _check_load, check_finite, check_resistances
from .steady_state import DroopState, SteadyState, _block_lanes, _eliminate, _jacobian_diagonal

__all__ = [
    "ChannelModel",
    "channel_gains",
    "linearize",
    "single_bus_channel",
]


@dataclass(frozen=True)
class ChannelModel:
    """Linearized voltage and power response at one operating point.

    ``H[n, m]`` is the voltage gain dv_n/dx_m; columns for buses without a
    converter are zero.  ``Phi[n, m]`` is the supplied-power gain dp_n/dx_m,
    and -i_m Phi[n, m] is dp_n/dr_m (dr_m acts as dx_m = -i_m dr_m); rows for
    buses without a converter are zero.  The kappa corrections g_bus / -J_nn,
    reported only, are the operating point's ``kappa``.
    """

    H: np.ndarray              # (n, n) voltage gains [V/V]
    Phi: np.ndarray            # (n, n) power gains [W/V]


def linearize(grid: ValidatedGrid, droop: DroopState, state: SteadyState) -> ChannelModel:
    """Build the channel model at a solved operating point.

    :func:`channel_gains` on one lane with the converter buses as inputs,
    scattered into (n, n) H and Phi; the other columns are +0.0.
    ``state`` must come from the same grid and droop configuration.
    """
    vsc = list(grid.vsc_buses)
    h, phi = channel_gains(grid, droop.x, droop.r, state.v[None], vsc)
    gains, power = np.zeros((grid.n, grid.n)), np.zeros((grid.n, grid.n))
    gains[:, vsc], power[np.ix_(vsc, vsc)] = h[0], phi[0]
    return ChannelModel(H=gains, Phi=power)


def channel_gains(
    grid: ValidatedGrid,
    x: Mapping[int, float],
    r: Mapping[int, np.ndarray],
    v: np.ndarray,
    inputs: Iterable[int],
) -> Tuple[np.ndarray, np.ndarray]:
    """Voltage and power gains of the input buses at many operating points.

    ``x`` and ``r`` map each converter bus to a scalar or a (lanes,)
    array, checked by :meth:`DroopState.validate`; ``v`` holds the solved
    (lanes, n) voltages.  Per lane, H solves J H = -Y for Newton's Jacobian
    J (``_jacobian_diagonal``), at a solved point -(Psi_k + K^-1 (Y + Y_cr)):
    Psi_k is the line Laplacian with its diagonal divided by kappa, Y and
    Y_cr the virtual-resistance and resistive-load conductances.  As
    p_n = v_n (x_n - v_n) / r_n, Phi[n, m] = (H[n, m] (x_n - 2 v_n) + [m == n] v_n) / r_n.
    Returns ``h`` (lanes, n, k), the H columns of ``inputs``, and ``phi``
    (lanes, n_vsc, k), their Phi rows for the converter buses in grid
    order.  NaN voltages (not viable) give NaN gains, a zero pivot of J
    non-finite ones.  Each lane is eliminated once on the grid's schedule
    for all of its inputs (``_eliminate``), with no (lanes, n, n) system,
    in blocks the size of the Newton steps', so a column depends on neither
    its block nor the other inputs, and memory beyond the outputs stays bounded.
    """
    DroopState(x, r).validate(grid)
    inputs = list(inputs)
    for k, bus in enumerate(inputs):
        if not grid.has_vsc(bus):
            raise InvalidArgument(f"input bus {bus} hosts no converter")
        if bus in inputs[:k]:  # _gains adds the v/r term at its first column only
            raise InvalidArgument(f"input bus {bus} is repeated")
    v = np.asarray(v)
    if v.ndim != 2 or v.shape[1] != grid.n:
        raise InvalidArgument(f"v must have shape (lanes, {grid.n}), got {v.shape}")
    lanes = len(v)
    for name, values in (("x", x), ("r", r)):
        for bus in grid.vsc_buses:
            if np.shape(values[bus]) not in ((), (1,), (lanes,)):
                raise InvalidArgument(f"{name} on bus {bus} has shape {np.shape(values[bus])}, "
                                      f"not ({lanes},) as the lanes of v")
    return _gains(grid, x, r, v, inputs)


def _gains(
    grid: ValidatedGrid, x: Mapping[int, float], r: Mapping[int, np.ndarray], v: np.ndarray,
    inputs: List[int],
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`channel_gains` with nothing checked: per lane, J H = -Y, block by block;
    ``x`` and ``r`` map each converter bus to a scalar or a (lanes,) array."""
    vsc = list(grid.vsc_buses)
    lanes, k = len(v), len(inputs)
    x, r = ({bus: np.broadcast_to(d[bus], (lanes,)) for bus in vsc} for d in (x, r))
    h, phi = np.empty((lanes, grid.n, k)), np.empty((lanes, len(vsc), k))
    block = max(1, _block_lanes(grid) // max(1, k))
    for lo in range(0, lanes, block):
        blk, v_blk = slice(lo, lo + block), v[lo : lo + block]
        y = np.zeros((len(v_blk), grid.n))
        y[:, vsc] = 1.0 / np.array([r[bus][blk] for bus in vsc]).T
        rhs = np.zeros((k, len(v_blk), grid.n))
        rhs[np.arange(k), :, inputs] = -y[:, inputs].T  # (inputs, lanes)
        with np.errstate(all="ignore"):  # NaN voltages or a zero pivot give non-finite gains
            diag = _jacobian_diagonal(grid, grid.lines.degree + y + grid.r_cr_inv, v_blk)
            h[blk] = _eliminate(grid.elimination, diag, rhs).transpose(1, 2, 0)
        for i, bus in enumerate(vsc):  # Phi[n, m] = (H[n, m] (x_n - 2 v_n) + [m == n] v_n) / r_n
            x_col, r_col = x[bus][blk, None], r[bus][blk, None]
            phi[blk, i] = h[blk, bus] * (x_col - 2.0 * v_blk[:, bus, None]) / r_col
            if bus in inputs:
                phi[blk, i, inputs.index(bus)] += v_blk[:, bus] / r_col[:, 0]
    return h, phi


def _gain_derivatives(
    grid: ValidatedGrid, droop: DroopState, state: SteadyState, tx: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Gains at a solved point, and how the transmitter's column moves with r.

    :func:`_gains` on ``state`` with the converter inputs gives H
    (n, n_vsc) and Phi (n_vsc, n_vsc), columns in ``grid.vsc_buses`` order.
    Differentiating f(v; x, r) = 0 (Peschon et al., "Sensitivity in power
    systems", 1968) needs no solve: dv/dr_m = -i_m H[:, m], and with
    dJ/dr_m = diag(-2 d_cp / v^3 dv/dr_m) + e_m e_m^T / r_m^2, dH_t/dr_m
    solves J z = -(dJ/dr_m) H_t + [m == t] e_t / r_t^2, one elimination for
    every m.  dPhi follows from Phi's formula by the product rule.  Returns
    H, Phi, dH (n, n_vsc) with dH[:, m] = dH[:, t]/dr_m, and dPhi (n_vsc,
    n_vsc) with dPhi[k, m] = dPhi[k, t]/dr_m, for t the column of ``tx``.
    """
    vsc = list(grid.vsc_buses)
    t = vsc.index(tx)
    h, phi = (gains[0] for gains in _gains(grid, droop.x, droop.r, state.v[None], vsc))
    x, r = (np.array([values[bus] for bus in vsc]) for values in (droop.x, droop.r))
    v, h_t = state.v, h[:, t]
    dv = -h * [state.i[bus] for bus in vsc]  # (n, n_vsc): dv/dr_m
    rhs = (2.0 * grid.d_cp / v**3 * h_t * dv.T)[:, None]  # (n_vsc, 1, n)
    rhs[range(len(vsc)), 0, vsc] -= h_t[vsc] / r**2
    rhs[t, 0, tx] += 1.0 / r[t] ** 2
    g_bus = grid.lines.degree + droop.conductances(grid) + grid.r_cr_inv
    with np.errstate(all="ignore"):  # a zero pivot gives non-finite derivatives
        dh = _eliminate(grid.elimination, _jacobian_diagonal(grid, g_bus, v)[None], rhs)[:, 0].T
    # Phi[k, t] = (H[k, t] (x_k - 2 v_k) + [t == k] v_k) / r_k
    dphi = dh[vsc] * (x - 2.0 * v[vsc])[:, None] - 2.0 * h_t[vsc, None] * dv[vsc]
    dphi[t] += dv[tx]
    dphi /= r[:, None]
    dphi[range(len(vsc)), range(len(vsc))] -= phi[:, t] / r
    return h, phi, dh, dphi


def single_bus_channel(units: List[VscSpec], load: LoadSpec) -> Tuple[np.ndarray, float]:
    """Channel gains for converters sharing a single bus (lines neglected).

    All units see the same voltage, so the per-unit gain collapses to
    h_m = kappa * r_bus / r_m with a common kappa.  With no constant-power
    load kappa = 1 and the gains sum to less than one.  Raises
    :class:`NoRealRoot` when the bus voltage has no positive root.
    """
    if not units:
        raise InvalidArgument("at least one converter unit is required")
    check_finite({f"unit {k} x_nom": unit.x_nom for k, unit in enumerate(units)})
    resistances = {f"unit {k} r_nom": unit.r_nom for k, unit in enumerate(units)}
    if load.r_cr is not None:
        resistances["load r_cr"] = load.r_cr
    check_resistances(resistances)
    _check_load(0, load, InvalidArgument)
    r = np.array([unit.r_nom for unit in units])
    g_cr = 0.0 if load.r_cr is None else 1.0 / load.r_cr
    r_bus = 1.0 / (g_cr + np.sum(1.0 / r))
    source = float(np.sum([unit.x_nom for unit in units] / r)) - load.i_cc
    disc = source * source - 4.0 * load.d_cp / r_bus  # of v^2 / r_bus - source v + d_cp = 0
    if not source > 0.0 or (load.d_cp > 0.0 and disc <= 0.0):  # no positive root v
        raise NoRealRoot(f"single-bus source current {source:.3e} A and discriminant {disc:.3e}: "
                         "the load is too large for a positive bus voltage")
    kappa = 1.0 if load.d_cp == 0.0 else 0.5 * (1.0 + source / np.sqrt(disc))
    return kappa * r_bus / r, float(kappa)


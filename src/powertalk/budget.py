"""Supplied-power deviation budgets and input-variance allocation.

Signaling perturbs each converter's supplied power away from its nominal
value.  The total deviation splits into a static part caused by moving
the virtual resistances off nominal (the "investment") and a fluctuating
part driven by the reference-voltage signal.  Each converter owns a
budget pi_n bounding the RMS total deviation; this module accounts for
the investment and distributes the remaining budget over transmitter
input variances through the linearized power gains.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping

import numpy as np

from .errors import InfeasibleBudget, InvalidArgument
from .grid import ValidatedGrid, _integer, check_budgets, check_finite
from .steady_state import DroopState, solve_steady_state

__all__ = [
    "BudgetAllocation",
    "vr_power_investment",
    "allocate_input_variance",
]


@dataclass(frozen=True)
class BudgetAllocation:
    """Input variances compatible with every converter's power budget.

    ``s[m]`` is the allocated variance E[dx_m^2] for transmitter m.  The
    per-converter ``slack`` is what remains of pi^2 after subtracting the
    squared investment and the allocated signal contribution; the max-min
    allocation drives at least one slack to zero.
    """

    dp_vr: Dict[int, float]    # static power investment per converter [W]
    s: Dict[int, float]        # input variance per transmitter [V^2]
    slack: Dict[int, float]    # remaining budget per converter [W^2]


def vr_power_investment(
    grid: ValidatedGrid,
    droop_nom: DroopState,
    droop_new: DroopState,
) -> Dict[int, float]:
    """Static supplied-power change caused by re-tuning virtual resistances.

    Both droop states must carry the same reference voltages; only the
    virtual resistances may differ.  The investment is the difference of
    converter output powers between the two solved operating points and
    is identically zero when the resistances match.
    """
    if dict(droop_new.x) != dict(droop_nom.x):
        raise InvalidArgument("droop states must share reference voltages")
    p_nom = solve_steady_state(grid, droop_nom).p
    p_new = solve_steady_state(grid, droop_new).p
    return {bus: p_new[bus] - p_nom[bus] for bus in sorted(p_nom)}


def allocate_input_variance(
    phi: np.ndarray,
    pi: Mapping[int, float],
    dp_vr: Mapping[int, float],
    transmitters: Iterable[int],
) -> BudgetAllocation:
    """Give every transmitter the largest common input variance the budgets allow.

    Every converter bus n constrains the allocation through
    sum_m phi[n, m]^2 s_m <= pi_n^2 - dp_vr[n]^2; inputs are zero-mean
    and mutually independent, so variances add.  The max-min allocation
    gives all transmitters the same variance, the tightest row's
    headroom over its summed squared gains, which reduces to the
    tightest single-row ratio for one transmitter.

    Raises InvalidBudget for a budget that is negative or not finite,
    and InfeasibleBudget when any investment alone exceeds its budget;
    a zero-slack budget (pi = |dp_vr|) is feasible with s = 0.
    """
    check_budgets(pi)
    tx = sorted({_integer("transmitter id", m) for m in transmitters})
    if not tx:
        raise InvalidArgument("at least one transmitter is required")
    rows = sorted(pi)
    if not set(tx) <= set(rows):
        raise InvalidArgument(f"transmitters {sorted(set(tx) - set(rows))} carry no budget row")
    shape = np.shape(phi)  # phi[n, m] is read for every budget row n and transmitter m
    if len(shape) != 2 or not all(0 <= n < shape[0] and 0 <= m < shape[1]
                                  for n in rows for m in tx):
        raise InvalidArgument(f"budget rows {rows} or transmitters {tx} outside phi of {shape}")
    check_finite({f"phi[{n}, {m}]": phi[n, m] for n in rows for m in tx})
    check_finite({f"dp_vr on bus {n}": dp_vr.get(n, 0.0) for n in rows})
    b = np.array([pi[n] ** 2 - dp_vr.get(n, 0.0) ** 2 for n in rows])  # headroom per row
    for bus, h in zip(rows, b):
        if h < 0.0:
            raise InfeasibleBudget(
                f"bus {bus}: investment {dp_vr[bus]:.6g} W exceeds budget {pi[bus]:.6g} W"
            )
    a = np.array([[phi[n, m] ** 2 for m in tx] for n in rows])

    loads = a.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(loads > 0.0, b / loads, np.inf)
    common = float(np.min(ratios))
    if not np.isfinite(common):
        raise InvalidArgument("no budget row couples to the transmitters")
    s = dict.fromkeys(tx, common)
    used = a @ np.full(len(tx), common)
    slack = {n: float(b[i] - used[i]) for i, n in enumerate(rows)}
    return BudgetAllocation(dp_vr=dict(dp_vr), s=s, slack=slack)

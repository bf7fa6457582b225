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
from typing import Dict, Iterable, Mapping, Optional

import numpy as np

from .errors import InfeasibleBudget
from .grid import ValidatedGrid
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
    squared investment and the allocated signal contribution; a max-min
    allocation drives at least one slack to zero.
    """

    dp_vr: Dict[int, float]    # static power investment per converter [W]
    s: Dict[int, float]        # input variance per transmitter [V^2]
    feasible: bool
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
    if set(droop_nom.x) != set(droop_new.x) or any(
        droop_new.x[bus] != droop_nom.x[bus] for bus in droop_nom.x
    ):
        raise ValueError("droop states must share reference voltages")
    p_nom = solve_steady_state(grid, droop_nom).p
    p_new = solve_steady_state(grid, droop_new).p
    return {bus: p_new[bus] - p_nom[bus] for bus in sorted(p_nom)}


def allocate_input_variance(
    phi: np.ndarray,
    pi: Mapping[int, float],
    dp_vr: Mapping[int, float],
    transmitters: Iterable[int],
    mode: str = "maxmin",
    weights: Optional[Mapping[int, float]] = None,
) -> BudgetAllocation:
    """Distribute power budgets over transmitter input variances.

    Every converter bus n constrains the allocation through
    sum_m phi[n, m]^2 s_m <= pi_n^2 - dp_vr[n]^2; inputs are zero-mean
    and mutually independent, so variances add.  ``mode="maxmin"`` gives
    all transmitters the largest common variance, which reduces to the
    tightest single-row ratio for one transmitter.  ``mode="weighted"``
    maximizes sum_m w_m s_m over the same constraint polytope by linear
    programming (weights default to 1).

    Raises InfeasibleBudget when any investment alone exceeds its
    budget; a zero-slack budget (pi = |dp_vr|) is feasible with s = 0.
    """
    tx = sorted(set(transmitters))
    if not tx:
        raise ValueError("at least one transmitter is required")
    rows = sorted(pi)
    if not set(tx) <= set(rows):
        raise ValueError(f"transmitters {sorted(set(tx) - set(rows))} carry no budget row")
    headroom = {}
    for bus in rows:
        h = pi[bus] ** 2 - dp_vr.get(bus, 0.0) ** 2
        if h < 0.0:
            raise InfeasibleBudget(
                f"bus {bus}: investment {dp_vr[bus]:.6g} W exceeds budget {pi[bus]:.6g} W"
            )
        headroom[bus] = h
    a = np.array([[phi[n, m] ** 2 for m in tx] for n in rows])
    b = np.array([headroom[n] for n in rows])

    if mode == "maxmin":
        # equal variances: s = min_n headroom_n / sum_m phi_nm^2
        loads = a.sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(loads > 0.0, b / loads, np.inf)
        common = float(np.min(ratios))
        if not np.isfinite(common):
            raise ValueError("no budget row couples to the transmitters")
        s = {m: common for m in tx}
    elif mode == "weighted":
        from scipy.optimize import linprog

        w = np.array([1.0 if weights is None else weights.get(m, 1.0) for m in tx])
        res = linprog(-w, A_ub=a, b_ub=b, bounds=(0.0, None), method="highs")
        if not res.success:  # pragma: no cover - bounded feasible LP by construction
            raise InfeasibleBudget(f"variance allocation failed: {res.message}")
        s = {m: float(v) for m, v in zip(tx, res.x)}
    else:
        raise ValueError(f"unknown allocation mode {mode!r}")

    used = a @ np.array([s[m] for m in tx])
    slack = {n: float(b[i] - used[i]) for i, n in enumerate(rows)}
    return BudgetAllocation(dp_vr=dict(dp_vr), s=s, feasible=True, slack=slack)

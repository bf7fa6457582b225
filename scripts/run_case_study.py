#!/usr/bin/env python3
"""End-to-end run of the two-converter case study.

Solves the nominal operating point, prints the channel gains, sweeps
the power budget, and closes the loop with a Monte-Carlo transmission
at the optimized resistances.  Artifacts land in out/ next to this
script unless --outdir says otherwise.
"""

import argparse
import math
import pathlib
import sys
import time

from powertalk import (
    SimConfig,
    capacity_sweep,
    case_study,
    linearize,
    measure_power_compliance,
    nominal_droop,
    run_transmission,
    solve_steady_state,
)
from powertalk.cases import CASE_STUDY_SIGMA_Z
from powertalk.cli import allocation, sweep_table


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default=str(pathlib.Path(__file__).parent / "out"))
    parser.add_argument("--slots", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pi", default="2,5,10,15,20", help="comma-separated budget points [W]")
    args = parser.parse_args()
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    grid = case_study()
    nominal = nominal_droop(grid)
    tx, rx = grid.vsc_buses[0], grid.vsc_buses[1]

    state = solve_steady_state(grid, nominal)
    print("nominal operating point:")
    for bus in range(grid.n):
        extra = f"  p={state.p[bus]:.3f} W" if bus in state.p else ""
        print(f"  bus {bus}: v={state.v[bus]:.6f} V  kappa={state.kappa[bus]:.6f}{extra}")

    model = linearize(grid, nominal, state)
    print(f"voltage gain {rx}<-{tx}: {model.H[rx, tx]:.6f}")
    print(f"power gains d p/d x_{tx}: "
          + ", ".join(f"{model.Phi[bus, tx]:+.3f}" for bus in grid.vsc_buses))

    pi_values = [float(p) for p in args.pi.split(",")]
    t0 = time.time()
    rows = capacity_sweep(grid, nominal, pi_values, CASE_STUDY_SIGMA_Z, tx, rx)
    print(f"budget sweep ({time.time() - t0:.1f} s):")
    for row in rows:
        print(
            f"  pi={row.pi:5.1f} W  C_nom={row.capacity_nominal:.4f}  "
            f"C_opt={row.capacity_opt:.4f} bits/slot  r*="
            + "/".join(f"{row.r_star[bus]:.3f}" for bus in sorted(row.r_star))
        )
    sweep_path = outdir / "capacity_sweep.csv"
    sweep_path.write_text("\n".join(sweep_table(rows, tx, rx)) + "\n")
    print(f"wrote {sweep_path}")

    # close the loop at pi = 10 W: allocate, optimize, transmit, audit
    pi = {bus: 10.0 for bus in grid.vsc_buses}
    best = next(row for row in rows if row.pi == 10.0)
    tuned = nominal.with_r(best.r_star)
    amplitude = math.sqrt(allocation(grid, tuned, pi, tx).s[tx])
    cfg = SimConfig(
        slots=args.slots,
        amplitude=amplitude,
        sigma_z=CASE_STUDY_SIGMA_Z,
        mode="nonlinear",
        rng_seed=args.seed,
        tx=tx,
        rx=rx,
    )
    report = run_transmission(grid, tuned, cfg)
    print(
        f"transmission at r*: amplitude={amplitude:.4f} V  ber={report.ber:.5f} "
        f"(ci95 {report.ber_ci95:.5f})  snr_empirical={report.snr_empirical:.3f}"
    )
    compliance = measure_power_compliance(grid, tuned, cfg, pi)
    for bus, row in sorted(compliance.items()):
        print(
            f"  bus {bus}: E[dp^2]={row.empirical:8.3f} W^2  bound={row.bound:.1f} W^2  "
            f"{'ok' if row.ok else 'EXCEEDED'}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Seeded generator of the 24-bus radial feeder used by ``feeder-optimize``.

The feeder is a 16-bus spine with a 400 V, 0.39 ohm converter at each
end (buses 0 and 15) and 8 one-bus laterals (buses 16..23) hung off
spine buses chosen by the seed.  Every bus without a converter carries
a composite load: a resistive part of 400-1600 ohm plus a constant-power
part of 60-180 W; the seed assigns evenly spaced levels of each to the
buses.  Lines are 0.641 ohm/km and 0.05-0.25 km long.  Their lengths are
a fixed interleaved spread, not drawn per seed: line lengths are what
move the Gauss-Seidel sweep count, so fixing them keeps the workload's
cost nearly the same for every seed.

Why the search box is bounded by ``r_max``: with no nameplate limit the
optimizer falls back to ``default_r_max``, which on this feeder reaches
its 10x cap (3.9 ohm), giving 703 x 703 = 494,209 lattice points.  The
batched Gauss-Seidel needs ~5.8k sweeps here at ~29 ns per lane, bus
and sweep, so that box would cost 494,209 x 5.8k x 24 x 29 ns ~ 33 min,
and the dense per-lane channel matrices alone would take
494,209 x 24^2 x 8 B ~ 2.3 GB.  These figures are computed from the
measured per-lane cost, not run.  ``r_max = r_nom + 0.25`` keeps a
51 x 51 = 2,601-point lattice, which still holds the optimum strictly
inside the box.

The document is a pure function of the seed: the same seed gives a
byte-identical document.  ``python3 perfbench/feeder.py SEED`` prints it.
"""

from __future__ import annotations

import json
import random
import sys

SPINE_BUSES = 16
LATERALS = 8
X_NOM = 400.0        # [V]
R_NOM = 0.39         # [ohm]
R_MAX_SPAN = 0.25    # r_max - r_nom [ohm]
RHO = 0.641          # [ohm/km]
LENGTH_KM = (0.05, 0.25)
R_CR = (400.0, 1600.0)   # [ohm]
D_CP = (60.0, 180.0)     # [W]
TX = 0
RX = SPINE_BUSES - 1


def feeder_document(seed: int) -> str:
    """JSON grid document of the feeder for ``seed``."""
    rng = random.Random(seed)
    converters = {0, SPINE_BUSES - 1}
    taps = sorted(rng.sample(range(1, SPINE_BUSES - 1), LATERALS))
    loaded = SPINE_BUSES + LATERALS - len(converters)
    r_cr = _shuffled_levels(rng, R_CR, loaded, 1)
    d_cp = _shuffled_levels(rng, D_CP, loaded, 1)

    buses = []
    for bus in range(SPINE_BUSES + LATERALS):
        entry = {"id": bus}
        if bus in converters:
            entry["vsc"] = {"x_nom": X_NOM, "r_nom": R_NOM, "r_max": R_NOM + R_MAX_SPAN}
        else:
            entry["load"] = {"r_cr": r_cr.pop(), "d_cp": d_cp.pop()}
        buses.append(entry)

    edges = [(bus, bus + 1) for bus in range(SPINE_BUSES - 1)]
    edges += [(tap, SPINE_BUSES + k) for k, tap in enumerate(taps)]
    # stride 7 is coprime to the 23 edges, so each length level is used once
    lengths = [_level(LENGTH_KM, (k * 7) % len(edges), len(edges), 3) for k in range(len(edges))]
    lines = [
        {"a": a, "b": b, "rho": RHO, "length_km": length}
        for (a, b), length in zip(edges, lengths)
    ]
    return json.dumps({"buses": buses, "lines": lines}, indent=2) + "\n"


def _level(span, k: int, count: int, digits: int) -> float:
    lo, hi = span
    return round(lo + (hi - lo) * k / (count - 1), digits)


def _shuffled_levels(rng: random.Random, span, count: int, digits: int) -> list:
    levels = [_level(span, k, count, digits) for k in range(count)]
    rng.shuffle(levels)
    return levels


if __name__ == "__main__":
    sys.stdout.write(feeder_document(int(sys.argv[1]) if len(sys.argv) > 1 else 1))

"""Bundled reference grids.

The primary fixture is a two-converter star: units A and B (buses 0, 1)
feed a composite load on bus C (bus 2) over lines of 0.3 km and 1 km at
0.641 ohm/km.  Both converters run 400 V / 0.39 ohm droop; the load
combines a 50 ohm resistance with a 2.5 kW constant-power draw.  The
asymmetric line lengths make the channel gains and the feasible
resistance band direction visibly asymmetric, which exercises every
code path worth testing.
"""

from __future__ import annotations

import json
from typing import Any, Dict

from .grid import ValidatedGrid, validate_grid

__all__ = ["case_study", "case_study_document", "CASE_STUDY_SIGMA_Z"]

CASE_STUDY_SIGMA_Z = 0.01   # observation noise std dev [V]


def case_study() -> ValidatedGrid:
    """Validated two-converter star grid, parsed from :func:`case_study_document`."""
    from .cli import parse_config  # here, so that importing the package leaves argparse out

    return validate_grid(parse_config(json.dumps(case_study_document())).grid)


def case_study_document() -> Dict[str, Any]:
    """The case-study grid as a config document (see cli.parse_config)."""
    return {
        "buses": [
            {"id": 0, "vsc": {"x_nom": 400.0, "r_nom": 0.39}},
            {"id": 1, "vsc": {"x_nom": 400.0, "r_nom": 0.39}},
            {"id": 2, "load": {"r_cr": 50.0, "d_cp": 2500.0}},
        ],
        "lines": [
            {"a": 0, "b": 2, "rho": 0.641, "length_km": 0.3},
            {"a": 1, "b": 2, "rho": 0.641, "length_km": 1.0},
        ],
        "sim": {"sigma_z": CASE_STUDY_SIGMA_Z, "seed": 0, "slots": 100_000},
    }

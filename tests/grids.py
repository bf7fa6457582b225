"""Grid documents shared by the tests and the CI workflow's steps.

Each builder returns a JSON grid document, as read by
``powertalk.cli.parse_config`` and by the command line's ``--grid``.
"""

import json


def chain_document(n, r_max=None):
    """An n-bus radial chain with a converter at each end, searched up to ``r_max`` if given.

    Loads are 400-1,600 ohm plus 60-180 W of constant power.  The powers and
    line lengths are scaled by 24/n, so their totals match a 24-bus chain's;
    the resistive loads are not, so the total load grows with n and long
    chains sag: the nominal mid-chain voltage is 392 V at n = 24, 304 V at
    n = 500 and 72 V at n = 5,000.
    """
    scale = 24.0 / n
    vsc = {"x_nom": 400.0, "r_nom": 0.39}
    if r_max is not None:
        vsc["r_max"] = r_max
    buses = [
        {"id": bus, "vsc": vsc} if bus in (0, n - 1)
        else {"id": bus, "load": {"r_cr": 400.0 + 120.0 * ((7 * bus) % 11),
                                  "d_cp": scale * (60.0 + 20.0 * ((5 * bus) % 7))}}
        for bus in range(n)
    ]
    lines = [
        {"a": k, "b": k + 1, "rho": 0.641, "length_km": scale * (0.05 + 0.05 * ((3 * k) % 5))}
        for k in range(n - 1)
    ]
    return json.dumps({"buses": buses, "lines": lines})


def radial_feeder_document():
    """A 21-bus radial feeder: a 15-bus trunk, three laterals, five converters."""
    vsc = {
        0: (400.0, 0.39), 5: (399.0, 0.42), 10: (398.0, 0.45), 14: (400.0, 0.4), 18: (401.0, 0.5)
    }
    buses = [
        {"id": bus, "vsc": {"x_nom": vsc[bus][0], "r_nom": vsc[bus][1]}} if bus in vsc
        else {"id": bus, "load": {"r_cr": 40.0 + 5.0 * (bus % 4), "i_cc": 0.5 * (bus % 3),
                                  "d_cp": 300.0 * (bus % 5)}}
        for bus in range(21)
    ]
    edges = [(k, k + 1) for k in range(14)]
    edges += [(4, 15), (15, 16), (8, 17), (17, 18), (11, 19), (19, 20)]
    lines = [
        {"a": a, "b": b, "rho": 0.641, "length_km": 0.05 + 0.02 * (k % 5)}
        for k, (a, b) in enumerate(edges)
    ]
    return json.dumps({"buses": buses, "lines": lines})

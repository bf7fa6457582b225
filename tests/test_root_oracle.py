"""The physical root on random meshed grids, traced by continuation from linear loads.

At zero constant-power load the bus equations are linear and have one root.
Scaling every constant-power load by lambda and following that root up to
the fold lambda* (natural-parameter continuation with step halving;
Ajjarapu & Christy, "The continuation power flow", IEEE Trans. Power
Systems 7(1), 1992) defines the physical operating point independently of
the solvers: dense Newton, LAPACK, and a branch certificate of its own.
Below the fold every solve must land on that root; past it, none may
certify a point.  At a certified point, the gain kernels must agree with
H = -J^-1 Y, Phi and their derivatives in r, built densely in mpmath.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from powertalk import (
    Bus,
    GridSpec,
    LineSpec,
    LoadSpec,
    NonConvergence,
    NoRealRoot,
    VscSpec,
    channel_gains,
    nominal_droop,
    solve_steady_state,
    validate_grid,
)
from powertalk.channel import _gain_derivatives

from conftest import dense_lines
from test_steady_state import _lane, _scaled_loads

FRACTIONS = (0.3, 0.9, 0.99)  # of lambda*, each certified on the traced root
PAST_THE_FOLD = 1.05          # of lambda*, flagged
NEWTON_STEPS = 15             # a continuation step fails past this many Newton iterations
FOLD_REL = 1e-9               # the trace stops once a step this small, relative to lambda, fails


def _random_meshed_grid(data, max_buses=12):
    """A random tree plus chords on 3 to ``max_buses`` buses, converters on a random subset,
    and on every bus a composite load drawn at random, some constant power among them."""
    n = data.draw(st.integers(3, max_buses))
    tree = [(data.draw(st.integers(0, bus - 1)), bus) for bus in range(1, n)]
    extra = data.draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n))
    pairs = sorted(set(tree) | {(a, b) for a, b in extra if a < b})
    r_line = data.draw(st.lists(st.floats(0.01, 2.0), min_size=len(pairs), max_size=len(pairs)))
    vsc = data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n))
    constant_power = data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n))
    buses = []
    for bus in range(n):
        load = LoadSpec(
            r_cr=data.draw(st.one_of(st.none(), st.floats(20.0, 500.0))),
            i_cc=data.draw(st.floats(0.0, 5.0)),
            d_cp=data.draw(st.floats(100.0, 3000.0)) if bus in constant_power else 0.0,
        )
        nameplate = VscSpec(data.draw(st.floats(380.0, 420.0)), data.draw(st.floats(0.1, 2.0)))
        buses.append(Bus(bus, load, nameplate if bus in vsc else None))
    lines = tuple(LineSpec(a, b, r) for (a, b), r in zip(pairs, r_line))
    return validate_grid(GridSpec(buses=tuple(buses), lines=lines))


class _Continuation:
    """Dense Newton on the bus equations of ``grid`` with its constant-power loads times lambda."""

    def __init__(self, grid, droop):
        self.g_off = dense_lines(grid)
        y = np.array([1.0 / droop.r[bus] if bus in droop.r else 0.0 for bus in range(grid.n)])
        xr = np.array([droop.x[bus] * y[bus] if bus in droop.x else 0.0 for bus in range(grid.n)])
        self.g_bus = self.g_off.sum(axis=1) + y + grid.r_cr_inv
        self.rhs = xr - grid.i_cc
        self.d_cp = grid.d_cp
        self.path = [(0.0, np.linalg.solve(np.diag(self.g_bus) - self.g_off, self.rhs))]

    def newton(self, lam, v):
        """The root at ``lam`` from ``v``, or None when Newton stalls or leaves the physical branch.

        A root is physical when every voltage is positive and the Jacobian
        is negative definite: it is symmetric, negative definite at lambda =
        0 and singular first at the fold, where the collapse branch meets it.
        """
        last = np.inf
        for _ in range(NEWTON_STEPS):
            jac = self.g_off - np.diag(self.g_bus - lam * self.d_cp / v**2)
            f = self.rhs + self.g_off @ v - self.g_bus * v - lam * self.d_cp / v
            step = np.linalg.solve(jac, f)
            v, size = v - step, np.max(np.abs(step))
            if not (np.all(v > 0.0) and size < last):  # off the branch, or not contracting
                return None
            if size <= 1e-10:
                jac = self.g_off - np.diag(self.g_bus - lam * self.d_cp / v**2)
                try:
                    np.linalg.cholesky(-jac)
                except np.linalg.LinAlgError:
                    return None
                return v
            last = size
        return None

    def trace(self, target=np.inf):
        """``(lambda, v)`` at ``target``, or at the fold when that comes first.

        The trace starts from the last root on its path below ``target``.
        Steps double after each success and halve after each failure, and
        never pass ``target``; the last lambda reached is the fold once a
        step of ``FOLD_REL`` of it fails.
        """
        lam, v = max((point for point in self.path if point[0] <= target), key=lambda p: p[0])
        dlam = 1.0
        while lam < target:
            nxt = min(lam + dlam, target)
            moved = self.newton(nxt, v)
            if moved is None:
                if dlam <= FOLD_REL * max(lam, 1.0):
                    break
                dlam *= 0.5
                continue
            lam, v, dlam = nxt, moved, 2.0 * dlam
            self.path.append((lam, v))
        return lam, v


@settings(max_examples=50)
@given(st.data())
def test_every_solve_follows_the_traced_root_up_to_the_fold(data):
    grid = _random_meshed_grid(data)
    droop = nominal_droop(grid)
    trace = _Continuation(grid, droop)
    assume(np.all(trace.path[0][1] > 0.0))  # a physical point without constant power
    fold, _ = trace.trace()
    assert 0.0 < fold < np.inf
    for fraction in FRACTIONS:
        lam, root = trace.trace(fraction * fold)
        assert lam == fraction * fold, (fraction, lam)
        scaled = _scaled_loads(grid, lam)
        v, _ = _lane(scaled, droop)
        assert np.max(np.abs(v - root)) <= 1e-6, fraction
        for method in ("gauss_seidel", "newton"):
            state = solve_steady_state(scaled, droop, method=method)
            assert np.max(np.abs(state.v - root)) <= 1e-6, (fraction, method)
    scaled = _scaled_loads(grid, PAST_THE_FOLD * fold)
    with pytest.raises(NoRealRoot, match="the lane is not feasible"):
        _lane(scaled, droop)
    for method in ("gauss_seidel", "newton"):
        with pytest.raises((NoRealRoot, NonConvergence)):
            solve_steady_state(scaled, droop, method=method)


def _dense_gains(mp, grid, droop, v):
    """H = -J^-1 Y, Phi and their derivatives in r, densely in mpmath at the voltages ``v``.

    J is the Jacobian of the bus equations x y - i_cc + G v - g_bus v - d_cp / v = 0,
    G the line conductances and g_bus their row sums plus y and 1/r_cr.  H is
    (n, n_vsc) and Phi (n_vsc, n_vsc), with Phi[k, t] = (H[k, t] (x_k - 2 v_k) +
    [k == t] v_k) / r_k as p_k = v_k (x_k - v_k) / r_k.  Differentiating J H_t = -y_t e_t
    with dv/dr_m = -i_m H[:, m] and dJ/dr_m = e_m e_m^T / r_m^2 - diag(2 d_cp / v^3 dv/dr_m)
    gives dH[:, t, m] = J^-1 ([m == t] e_t / r_t^2 - dJ/dr_m H[:, t]), and dPhi by the
    product rule.  Returned as floats.
    """
    n, vsc = grid.n, list(grid.vsc_buses)
    lines = dense_lines(grid)
    v = [mp.mpf(float(value)) for value in v]
    x = {bus: mp.mpf(droop.x[bus]) for bus in vsc}
    r = {bus: mp.mpf(droop.r[bus]) for bus in vsc}
    y = [1 / r[bus] if bus in r else mp.mpf(0) for bus in range(n)]
    jac = mp.matrix(n, n)
    for a in range(n):
        row = [mp.mpf(float(g)) for g in lines[a]]
        for b in range(n):
            jac[a, b] = row[b]
        g_bus = mp.fsum(row) + y[a] + mp.mpf(float(grid.r_cr_inv[a]))
        jac[a, a] = mp.mpf(float(grid.d_cp[a])) / v[a] ** 2 - g_bus
    inv = mp.inverse(jac)
    h = [[-inv[a, m] * y[m] for m in vsc] for a in range(n)]
    dv = [[-(x[m] - v[m]) / r[m] * h[a][j] for j, m in enumerate(vsc)] for a in range(n)]

    def phi_of(hk, dvk, k, t, m=None):
        """Phi[k, t] from H[k, t]; with ``m``, dPhi[k, t]/dr_m from dH[k, t]/dr_m and dv_k/dr_m.

        ``k``, ``t`` and ``m`` index the converters.
        """
        bus, tx = vsc[k], vsc[t]
        if m is None:
            return (hk * (x[bus] - 2 * v[bus]) + (v[bus] if bus == tx else 0)) / r[bus]
        value = hk * (x[bus] - 2 * v[bus]) - 2 * h[bus][t] * dvk + (dvk if bus == tx else 0)
        return value / r[bus] - (phi[k][t] / r[bus] if k == m else 0)

    phi = [[phi_of(h[bus][t], None, k, t) for t in range(len(vsc))] for k, bus in enumerate(vsc)]
    dh = [[[None] * len(vsc) for _ in vsc] for _ in range(n)]  # dh[a][t][m]
    for t, tx in enumerate(vsc):
        for j, m in enumerate(vsc):
            rhs = [2 * mp.mpf(float(grid.d_cp[a])) / v[a] ** 3 * dv[a][j] * h[a][t]
                   for a in range(n)]
            rhs[m] -= h[m][t] / r[m] ** 2
            if m == tx:
                rhs[tx] += 1 / r[tx] ** 2
            for a in range(n):
                dh[a][t][j] = mp.fsum(inv[a, b] * rhs[b] for b in range(n))
    dphi = [[[phi_of(dh[bus][t][j], dv[bus][j], k, t, j) for j in range(len(vsc))]
             for t in range(len(vsc))] for k, bus in enumerate(vsc)]
    return tuple(np.array(values, dtype=float) for values in (h, phi, dh, dphi))


@settings(max_examples=20)
@given(st.data())
def test_the_gains_at_the_traced_root_are_the_dense_mpmath_gains(data):
    mp = pytest.importorskip("mpmath")
    grid = _random_meshed_grid(data)
    droop = nominal_droop(grid)
    vsc = list(grid.vsc_buses)
    trace = _Continuation(grid, droop)
    assume(np.all(trace.path[0][1] > 0.0))
    fold, _ = trace.trace()
    x, r = (np.array([values[bus] for bus in vsc]) for values in (droop.x, droop.r))
    eye = np.eye(len(vsc))
    for fraction in (0.3, 0.99):
        scaled = _scaled_loads(grid, fraction * fold)
        state = solve_steady_state(scaled, droop, method="newton")  # certified, or it raises
        with mp.workdps(40):
            h, phi, dh, dphi = _dense_gains(mp, scaled, droop, state.v)
        # Phi and dPhi are sums of terms that can cancel (Phi is 0 when every
        # load draws constant power), so their errors are bounded by the terms
        v, span = state.v[vsc], np.abs(x - 2.0 * state.v[vsc])[:, None]
        dv = np.abs(h[vsc] * (x - v) / r)  # |dv_k/dr_m| at the converters
        phi_terms = (np.abs(h[vsc]) * span + eye * v[:, None]) / r[:, None]
        lane = [gains[0] for gains in channel_gains(scaled, droop.x, droop.r, state.v[None], vsc)]
        checks = [(lane, (h, phi), (np.abs(h), phi_terms))]
        for t, tx in enumerate(vsc):
            dphi_terms = (np.abs(dh[vsc, t]) * span + 2.0 * np.abs(h[vsc, t, None]) * dv
                          + eye[:, t, None] * dv + eye * np.abs(phi[:, t, None])) / r[:, None]
            checks.append((_gain_derivatives(scaled, droop, state, tx),
                           (h, phi, dh[:, t], dphi[:, t]),
                           (np.abs(h), phi_terms, np.abs(dh[:, t]), dphi_terms)))
        for kernels, exact, scales in checks:
            for kernel, want, scale in zip(kernels, exact, scales):
                # rounding: at most 1.7e-12 of the largest term on 300 examples
                err = np.max(np.abs(kernel - want))
                assert err <= 1e-10 * np.max(scale), (fraction, err / np.max(scale))

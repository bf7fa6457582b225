import dataclasses
import math
import os
import threading
import warnings

import numpy as np
import pytest

from powertalk import (
    CHUNK_SLOTS,
    BudgetExceededWarning,
    Bus,
    GridSpec,
    InvalidArgument,
    LineSpec,
    LoadSpec,
    SimConfig,
    SimReport,
    VscSpec,
    chunk_bits,
    chunk_noise,
    comsim,
    linearize,
    measure_power_compliance,
    nominal_droop,
    run_transmission,
    solve_steady_state,
    validate_grid,
)
from test_steady_state import _case_study_config, _radial_feeder


def q_function(x):
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def make_cfg(**overrides):
    base = dict(
        slots=20_000, amplitude=0.05, sigma_z=0.01, mode="nonlinear",
        rng_seed=5, tx=0, rx=1,
    )
    base.update(overrides)
    return SimConfig(**base)


def test_chunk_streams_are_deterministic():
    assert np.array_equal(chunk_bits(3, 0, 100), chunk_bits(3, 0, 100))
    assert np.array_equal(chunk_noise(3, 0, 100), chunk_noise(3, 0, 100))


def test_chunk_streams_differ_across_seeds_chunks_and_kinds():
    a = chunk_noise(3, 0, 100)
    assert not np.array_equal(a, chunk_noise(4, 0, 100))
    assert not np.array_equal(a, chunk_noise(3, 1, 100))
    bits_as_float = chunk_bits(3, 0, 100).astype(float)
    assert not np.array_equal(np.sign(a), 2 * bits_as_float - 1)


@pytest.mark.parametrize("seed", [0, 1, 2, 12345])
def test_chunk_bits_are_the_generators_int8_draws(seed):
    # the raw-byte bits against the Generator call they replace, on the
    # last chunk of a 5e7-slot run (762, 61,568 slots) among others
    for chunk in (0, 1, 5, 762, 1000):
        for size in (1, 7, 8, 9, 12_345, 61_568, CHUNK_SLOTS):
            rng = comsim._chunk_rng(seed, comsim._BIT_STREAM, chunk)
            want = rng.integers(0, 2, size=size, dtype=np.int8)
            got = chunk_bits(seed, chunk, size)
            assert got.dtype == want.dtype and np.array_equal(got, want)


def test_chunk_prefix_is_a_slice_of_the_full_chunk():
    # shorter draws from the same chunk share the prefix, so a partial
    # final chunk reproduces the corresponding slice of a longer run
    full = chunk_bits(9, 2, CHUNK_SLOTS)
    part = chunk_bits(9, 2, 777)
    assert np.array_equal(part, full[:777])


def test_reports_are_reproducible(grid, nominal):
    cfg = make_cfg(mode="linearized", slots=5_000)
    a = run_transmission(grid, nominal, cfg)
    b = run_transmission(grid, nominal, cfg)
    assert a == b


def test_noiseless_transmission_is_error_free(grid, nominal):
    for mode in ("nonlinear", "linearized"):
        cfg = make_cfg(mode=mode, sigma_z=0.0, slots=2_000)
        report = run_transmission(grid, nominal, cfg)
        assert report.ber == 0.0, f"{mode}: ber {report.ber}"
        assert report.ber_ci95 == 0.0
        assert report.slots_run == 2_000


def test_ber_tracks_the_gaussian_prediction(grid, nominal, model):
    # amplitude chosen so the received SNR is moderate; 20k slots keep the
    # binomial noise around half a percent
    cfg = make_cfg(mode="linearized")
    h = model.H[1, 0]
    snr = (h * cfg.amplitude / cfg.sigma_z) ** 2
    predicted = q_function(math.sqrt(snr))
    report = run_transmission(grid, nominal, cfg)
    se = math.sqrt(predicted * (1.0 - predicted) / cfg.slots)
    assert abs(report.ber - predicted) < 3.0 * se, (
        f"ber {report.ber:.4f} vs predicted {predicted:.4f} (se {se:.4f})"
    )
    assert report.snr_empirical == pytest.approx(snr, rel=0.1)


def test_nonlinear_and_linearized_agree_at_small_amplitude(grid, nominal):
    lin = run_transmission(grid, nominal, make_cfg(mode="linearized"))
    non = run_transmission(grid, nominal, make_cfg(mode="nonlinear"))
    assert abs(lin.ber - non.ber) < 0.01
    # shared seed: identical bit stream, so power deviations match closely
    for bus in (0, 1):
        assert non.p_dev_mean_sq[bus] == pytest.approx(
            lin.p_dev_mean_sq[bus], rel=0.05
        )


def test_ber_waterfall_is_monotone_in_noise(grid, nominal):
    bers = []
    for sigma in (0.005, 0.01, 0.02, 0.04):
        cfg = make_cfg(mode="linearized", sigma_z=sigma)
        bers.append(run_transmission(grid, nominal, cfg).ber)
    assert bers == sorted(bers), f"ber not monotone in noise: {bers}"


def test_config_validation(grid):
    with pytest.raises(ValueError):
        make_cfg(slots=0).validate(grid)
    with pytest.raises(ValueError):
        make_cfg(amplitude=-1.0).validate(grid)
    with pytest.raises(ValueError):
        make_cfg(sigma_z=-0.1).validate(grid)
    with pytest.raises(ValueError):
        make_cfg(mode="exact").validate(grid)
    with pytest.raises(ValueError):
        make_cfg(rx=0).validate(grid)
    with pytest.raises(ValueError):
        make_cfg(rx=2).validate(grid)
    for seed in (-1, 2**64):  # outside the Philox key word
        with pytest.raises(ValueError, match="rng_seed"):
            make_cfg(rng_seed=seed).validate(grid)


@pytest.mark.parametrize("name", ["slots", "rng_seed"])
@pytest.mark.parametrize("value", [1.5, 1.9, 2.0, 2.5, True, False, "3", None])
def test_slots_and_seed_must_be_integers(grid, nominal, name, value):
    # a float seed ran as its floor, slots=2.5 raised a bare TypeError and
    # slots=True ran one slot
    cfg = make_cfg(**{"slots": 1_000, name: value})
    with pytest.raises(InvalidArgument, match=f"{name} must be an integer"):
        cfg.validate(grid)
    with pytest.raises(InvalidArgument, match=f"{name} must be an integer"):
        run_transmission(grid, nominal, cfg)
    with pytest.raises(InvalidArgument, match=f"{name} must be an integer"):
        measure_power_compliance(grid, nominal, cfg, pi={0: 10.0, 1: 10.0})


def test_numpy_integers_are_integers(grid, nominal):
    plain = run_transmission(grid, nominal, make_cfg(slots=1_000, rng_seed=1))
    numpy = run_transmission(
        grid, nominal, make_cfg(slots=np.int64(1_000), rng_seed=np.uint64(1))
    )
    assert numpy == plain


def test_zero_amplitude_yields_zero_power_deviation(grid, nominal):
    rows = measure_power_compliance(
        grid, nominal, make_cfg(amplitude=0.0, slots=1_000), pi={0: 10.0, 1: 10.0}
    )
    for bus, row in rows.items():
        assert row.empirical == pytest.approx(0.0, abs=1e-18)
        assert row.ok


def test_compliance_flags_oversized_amplitude(grid, nominal):
    rows = measure_power_compliance(
        grid, nominal, make_cfg(amplitude=1.0, slots=1_000), pi={0: 1.0, 1: 1.0}
    )
    assert not rows[0].ok and not rows[1].ok
    for row in rows.values():
        assert row.empirical > row.bound


def test_compliance_requires_nonlinear_mode(grid, nominal):
    with pytest.raises(ValueError):
        measure_power_compliance(
            grid, nominal, make_cfg(mode="linearized"), pi={0: 10.0, 1: 10.0}
        )


def test_compliance_verdict_is_a_bool(grid, nominal):
    for pi in (10.0, 0.1):
        rows = measure_power_compliance(grid, nominal, make_cfg(slots=100), {0: pi, 1: pi})
        assert all(type(row.ok) is bool for row in rows.values())


def _nameplate_star(pi_budget):
    return validate_grid(
        GridSpec(
            buses=(
                Bus(0, LoadSpec(), VscSpec(400.0, 0.39, pi_budget=pi_budget)),
                Bus(1, LoadSpec(), VscSpec(400.0, 0.39, pi_budget=pi_budget)),
                Bus(2, LoadSpec(r_cr=50.0, d_cp=2500.0)),
            ),
            lines=(LineSpec(0, 2, 0.1923), LineSpec(1, 2, 0.641)),
        )
    )


def test_budget_warning_and_compliance_audit_share_one_verdict():
    cfg = make_cfg(amplitude=0.5, slots=500)
    grid = _nameplate_star(None)
    worst = max(row.empirical for row in measure_power_compliance(
        grid, nominal_droop(grid), cfg, {0: 1.0, 1: 1.0}).values())
    edge = math.sqrt(worst / (1.0 + comsim.COMPLIANCE_SLACK))
    for pi in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf), 0.5, 50.0):
        grid = _nameplate_star(float(pi))
        ok = all(row.ok for row in measure_power_compliance(
            grid, nominal_droop(grid), cfg, {0: pi, 1: pi}).values())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_transmission(grid, nominal_droop(grid), cfg)
        warned = any(issubclass(w.category, BudgetExceededWarning) for w in caught)
        assert warned == (not ok), pi


def test_nameplate_budget_overrun_warns():
    grid = validate_grid(
        GridSpec(
            buses=(
                Bus(0, LoadSpec(), VscSpec(400.0, 0.39, pi_budget=0.5)),
                Bus(1, LoadSpec(), VscSpec(400.0, 0.39, pi_budget=0.5)),
                Bus(2, LoadSpec(r_cr=50.0, d_cp=2500.0)),
            ),
            lines=(LineSpec(0, 2, 0.1923), LineSpec(1, 2, 0.641)),
        )
    )
    with pytest.warns(BudgetExceededWarning):
        run_transmission(
            grid, nominal_droop(grid), make_cfg(amplitude=0.5, slots=500)
        )


def test_ci_follows_binomial_half_width(grid, nominal):
    report = run_transmission(grid, nominal, make_cfg(mode="linearized"))
    expected = 1.96 * math.sqrt(report.ber * (1.0 - report.ber) / report.slots_run)
    assert report.ber_ci95 == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("make_grid, tx, rx", [(_case_study_config, 0, 1), (_radial_feeder, 10, 5)])
@pytest.mark.parametrize("scale", [1.0, 1.1])
def test_linearized_hypotheses_are_the_channel_model_arithmetic(make_grid, tx, rx, scale):
    # the means and powers run_transmission read from a caller's linearize
    # model; on the feeder, converter ids are not gain-column indexes
    grid = make_grid()
    nominal = nominal_droop(grid)
    droop = nominal.with_r({bus: scale * r for bus, r in nominal.r.items()})
    cfg = make_cfg(mode="linearized", tx=tx, rx=rx)
    base = solve_steady_state(grid, droop)
    model = linearize(grid, droop, base)
    rx_mean, power = {}, {}
    for symbol in (+1, -1):
        dx = symbol * cfg.amplitude
        rx_mean[symbol] = float(base.v[rx] + model.H[rx, tx] * dx)
        power[symbol] = {bus: base.p[bus] + float(model.Phi[bus, tx]) * dx for bus in base.p}
    assert comsim._hypothesis_points(grid, droop, cfg) == (rx_mean, power)


# -- the chunk map against the sequential loop it replaced ------------------

def sequential_counts(seed, slots, sigma_z, rx_mean, midpoint, orientation):
    """The chunk loop as it ran before the chunk map: one chunk after another."""
    errors = 0
    ones = 0
    stats = {symbol: (0, 0.0, 0.0) for symbol in (+1, -1)}  # count, sum, sumsq
    for chunk, size in comsim._chunks(slots):
        bits = chunk_bits(seed, chunk, size)
        symbols = 2 * bits.astype(np.float64) - 1.0
        means = np.where(bits == 1, rx_mean[+1], rx_mean[-1])
        obs = means + sigma_z * chunk_noise(seed, chunk, size)
        decided = np.where(orientation * (obs - midpoint) >= 0.0, 1.0, -1.0)
        errors += int(np.sum(decided != symbols))
        ones += int(np.sum(bits))
        for symbol in (+1, -1):
            sel = obs[bits == (symbol + 1) // 2]
            count, total, sumsq = stats[symbol]
            stats[symbol] = (count + sel.size, total + sel.sum(), sumsq + (sel**2).sum())
    return errors, ones, stats


def sequential_report(grid, droop, cfg):
    rx_mean, power = comsim._hypothesis_points(grid, droop, cfg)
    p_nom = solve_steady_state(grid, nominal_droop(grid)).p
    midpoint = 0.5 * (rx_mean[+1] + rx_mean[-1])
    orientation = 1.0 if rx_mean[+1] >= rx_mean[-1] else -1.0
    errors, ones, stats = sequential_counts(
        cfg.rng_seed, cfg.slots, cfg.sigma_z, rx_mean, midpoint, orientation
    )
    p_dev = {
        bus: (ones * (power[+1][bus] - p_nom[bus]) ** 2
              + (cfg.slots - ones) * (power[-1][bus] - p_nom[bus]) ** 2) / cfg.slots
        for bus in p_nom
    }
    ber = errors / cfg.slots
    return SimReport(
        ber=float(ber),
        ber_ci95=float(1.96 * np.sqrt(ber * (1.0 - ber) / cfg.slots)),
        snr_empirical=comsim._empirical_snr(stats),
        p_dev_mean_sq=p_dev,
        slots_run=cfg.slots,
    )


def pin_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


@pytest.mark.parametrize("cpus", [1, 3])
@pytest.mark.parametrize("sigma_z", [0.01, 0.0])
@pytest.mark.parametrize("mode", ["nonlinear", "linearized"])
@pytest.mark.parametrize("slots", [1, CHUNK_SLOTS - 1, CHUNK_SLOTS, 3 * CHUNK_SLOTS + 17])
def test_chunk_map_reproduces_the_sequential_loop(
    monkeypatch, grid, nominal, slots, mode, sigma_z, cpus
):
    pin_cpus(monkeypatch, cpus)
    cfg = make_cfg(slots=slots, mode=mode, sigma_z=sigma_z, amplitude=0.02, rng_seed=11)
    want = sequential_report(grid, nominal, cfg)
    got = run_transmission(grid, nominal, cfg)
    # NaN (an SNR with one symbol never drawn) is the one value == rejects
    if math.isnan(want.snr_empirical):
        assert math.isnan(got.snr_empirical)
        want = dataclasses.replace(want, snr_empirical=got.snr_empirical)
    assert got == want


def test_tally_decides_against_a_reversed_orientation():
    # rx_mean[+1] below rx_mean[-1]: +1 is decided at or below the midpoint
    rx_mean = {+1: 399.0, -1: 399.5}
    midpoint = 0.5 * (rx_mean[+1] + rx_mean[-1])
    errors, stats = comsim._tally(
        chunk_bits(4, 0, CHUNK_SLOTS), chunk_noise(4, 0, CHUNK_SLOTS), 0.2, rx_mean, midpoint, -1.0
    )
    want_errors, _, want_stats = sequential_counts(4, CHUNK_SLOTS, 0.2, rx_mean, midpoint, -1.0)
    assert (errors, stats) == (want_errors, want_stats)
    assert 0 < errors < CHUNK_SLOTS // 4


def which_thread(chunk, size):
    # the Thread object, not its ident: a finished thread's ident may be reused
    return threading.current_thread()


def test_chunk_map_runs_interleaved_stripes_in_chunk_order(monkeypatch):
    pin_cpus(monkeypatch, 3)
    threads = comsim._map_chunks(4 * CHUNK_SLOTS, which_thread)
    main = threading.current_thread()
    assert threads[0] is main and threads[3] is main
    assert len({threads[1], threads[2], main}) == 3


def test_chunk_map_starts_no_thread_for_one_chunk_or_one_cpu(monkeypatch):
    main = threading.current_thread()
    pin_cpus(monkeypatch, 3)
    assert comsim._map_chunks(CHUNK_SLOTS, which_thread) == [main]
    pin_cpus(monkeypatch, 1)
    assert comsim._map_chunks(3 * CHUNK_SLOTS, which_thread) == [main] * 3


def test_chunk_map_reraises_a_helper_failure(monkeypatch):
    pin_cpus(monkeypatch, 2)

    def work(chunk, size):
        if chunk == 1:
            raise MemoryError("chunk 1")
        return size

    with pytest.raises(MemoryError, match="chunk 1"):
        comsim._map_chunks(2 * CHUNK_SLOTS, work)


def test_cpu_count_falls_back_without_affinity(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    assert comsim._available_cpus() == 5
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert comsim._available_cpus() == 1


def test_compliance_counts_ones_on_any_cpu_count(monkeypatch, grid, nominal):
    cfg = make_cfg(amplitude=0.02, slots=3 * CHUNK_SLOTS + 17)
    rows = []
    for cpus in (1, 3):
        pin_cpus(monkeypatch, cpus)
        rows.append(measure_power_compliance(grid, nominal, cfg, pi={0: 10.0, 1: 10.0}))
    report = sequential_report(grid, nominal, cfg)
    assert rows[0] == rows[1]
    for bus, row in rows[0].items():
        assert row.empirical == report.p_dev_mean_sq[bus]


def test_a_run_builds_one_generator_per_thread_and_stream(monkeypatch, grid, nominal):
    # a new Philox per chunk and stream read OS entropy for a seed sequence
    # it never used: 12 of them for this run's 6 chunks
    built, philox = [], np.random.Philox

    def counting(*args, **kwargs):
        built.append(threading.current_thread())
        return philox(*args, **kwargs)

    cfg = make_cfg(mode="linearized", slots=6 * CHUNK_SLOTS)
    want = run_transmission(grid, nominal, cfg)
    monkeypatch.setattr(np.random, "Philox", counting)
    pin_cpus(monkeypatch, 2)
    reports = []
    caller = threading.Thread(target=lambda: reports.append(run_transmission(grid, nominal, cfg)))
    caller.start()
    caller.join(timeout=60.0)
    assert not caller.is_alive() and reports == [want]
    assert len(built) == 4 and len(set(built)) == 2  # the caller and one helper, two streams each

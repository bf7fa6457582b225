"""Slot-based Monte-Carlo simulation of one-way signaling.

Each slot the transmitter deviates its reference voltage by +a or -a
with equal probability; the receiver observes its own bus voltage plus
Gaussian noise and applies maximum-likelihood detection against the two
known hypothesis means.  The channel is evaluated either through the
full nonlinear steady-state solver (two operating points, one per
symbol) or through the transmitter's gain column at one operating point.

Randomness is counter-keyed: bit and noise streams are drawn per fixed-
size chunk from generators keyed by (seed, stream, chunk index), so a
chunk's slots do not depend on which thread draws them.  Chunks are
spread in interleaved stripes over one thread per available CPU; each
returns a few partial counts and sums, and the calling thread folds them
in chunk order, so every float is added in the sequential order and a
run is bit for bit the same on any number of CPUs.
"""

from __future__ import annotations

import logging
import os
import threading
import warnings
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Mapping, Tuple, TypeVar

import numpy as np

from .errors import BudgetExceededWarning, InvalidArgument
from .channel import _gains
from .grid import ValidatedGrid, _floats, _integer, check_budgets
from .steady_state import DroopState, nominal_droop, solve_steady_state

logger = logging.getLogger(__name__)

CHUNK_SLOTS = 1 << 16   # chunk size fixed by the reproducibility scheme
COMPLIANCE_SLACK = 0.05  # allowed excess of the measured power deviation over pi^2
_BIT_STREAM = 0
_NOISE_STREAM = 1

_T = TypeVar("_T")
SymbolStats = Tuple[int, float, float]   # count, sum, sum of squares

__all__ = [
    "SimConfig",
    "SimReport",
    "ComplianceRow",
    "run_transmission",
    "measure_power_compliance",
    "chunk_bits",
    "chunk_noise",
]


@dataclass(frozen=True)
class SimConfig:
    """Parameters of one Monte-Carlo transmission."""

    slots: int
    amplitude: float        # antipodal reference deviation [V]
    sigma_z: float          # observation noise std dev [V]
    mode: str               # "nonlinear" or "linearized"
    rng_seed: int
    tx: int
    rx: int

    def validate(self, grid: ValidatedGrid) -> None:
        for name in ("slots", "rng_seed"):
            _integer(name, getattr(self, name))
        if self.slots < 1:
            raise InvalidArgument(f"slots must be >= 1, got {self.slots}")
        if not 0.0 <= _floats(self.amplitude) < np.inf:
            raise InvalidArgument(f"amplitude must be finite and nonnegative, got {self.amplitude}")
        if not 0.0 <= _floats(self.sigma_z) < np.inf:
            raise InvalidArgument(f"sigma_z must be finite and nonnegative, got {self.sigma_z}")
        if self.mode not in ("nonlinear", "linearized"):
            raise InvalidArgument(f"mode must be 'nonlinear' or 'linearized', got {self.mode!r}")
        if not 0 <= self.rng_seed < 2**64:  # the first word of the Philox key
            raise InvalidArgument(f"rng_seed must be in [0, 2**64), got {self.rng_seed}")
        grid.check_link(self.tx, self.rx)


@dataclass(frozen=True)
class SimReport:
    """Measured outcome of a transmission run."""

    ber: float
    ber_ci95: float             # binomial 95% half-width
    snr_empirical: float
    p_dev_mean_sq: Dict[int, float]  # per-converter E[(p - p_nom)^2] [W^2]
    slots_run: int


@dataclass(frozen=True)
class ComplianceRow:
    """Budget audit for one converter."""

    empirical: float   # measured mean-square power deviation [W^2]
    bound: float       # pi^2 [W^2]
    ok: bool


def chunk_bits(seed: int, chunk: int, size: int) -> np.ndarray:
    """Symbol bits (0/1, int8) for one chunk, independent of other chunks.

    Bit k is the top bit of byte k of the chunk's raw Philox words read
    little-endian: the draws of ``integers(0, 2, dtype=np.int8)`` on the
    same stream, without its per-byte bounded-integer loop.
    """
    words = _chunk_rng(seed, _BIT_STREAM, chunk).bit_generator.random_raw(-(-size // 8))
    return (words.astype("<u8", copy=False).view(np.uint8)[:size] >> 7).view(np.int8)


def chunk_noise(seed: int, chunk: int, size: int) -> np.ndarray:
    """Unit-variance observation noise for one chunk."""
    return _chunk_rng(seed, _NOISE_STREAM, chunk).standard_normal(size)


class _Generators(threading.local):
    """Each thread's generators by stream, made on first use and re-keyed per chunk.

    A new ``Philox(key=...)`` still builds its unused seed sequence from OS
    entropy; a fixed seed reads none, and :func:`_chunk_rng` replaces the
    key anyway.  Nothing is made at import, which leaves ``numpy.random``
    unloaded in a process that draws nothing.
    """

    def __init__(self) -> None:
        self.by_stream: Dict[int, np.random.Generator] = {}


_generators = _Generators()


def _chunk_rng(seed: int, stream: int, chunk: int) -> np.random.Generator:
    """This thread's generator of ``stream``, keyed by (seed, stream, chunk) as a new one is.

    The whole state is set, so no draw depends on an earlier use.
    """
    key = np.array([np.uint64(seed), np.uint64((stream << 56) | chunk)], dtype=np.uint64)
    if stream not in _generators.by_stream:
        _generators.by_stream[stream] = np.random.Generator(np.random.Philox(0))
    rng = _generators.by_stream[stream]
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


def _chunks(slots: int) -> Iterator[Tuple[int, int]]:
    for chunk in range((slots + CHUNK_SLOTS - 1) // CHUNK_SLOTS):
        yield chunk, min(CHUNK_SLOTS, slots - chunk * CHUNK_SLOTS)


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity call on this platform
        return os.cpu_count() or 1


def _map_chunks(slots: int, work: Callable[[int, int], _T]) -> List[_T]:
    """``work(chunk, size)`` for every chunk, returned in chunk order.

    Chunks go out in interleaved stripes, one per available CPU: the
    calling thread runs stripe 0 and plain threads run the others.  The
    numpy calls inside ``work`` release the GIL, so stripes overlap.  No
    thread starts for one CPU or one chunk.
    """
    chunks = list(_chunks(slots))
    workers = min(_available_cpus(), len(chunks))
    if workers <= 1:
        return [work(chunk, size) for chunk, size in chunks]
    results: list = [None] * len(chunks)
    failures: List[BaseException] = []

    def stripe(first: int) -> None:
        try:
            for index in range(first, len(chunks), workers):
                results[index] = work(*chunks[index])
        except BaseException as exc:  # re-raised in the calling thread
            failures.append(exc)

    helpers = [threading.Thread(target=stripe, args=(first,)) for first in range(1, workers)]
    for helper in helpers:
        helper.start()
    stripe(0)
    for helper in helpers:
        helper.join()
    if failures:
        raise failures[0]
    return results


def _tally(
    bits: np.ndarray,
    noise: np.ndarray,
    sigma_z: float,
    rx_mean: Mapping[int, float],
    midpoint: float,
    orientation: float,
) -> Tuple[int, Dict[int, SymbolStats]]:
    """Detection errors and per-symbol observation stats of one chunk.

    The observation of a slot is ``sigma_z * noise + rx_mean[symbol]``,
    built in place in ``noise`` (which is overwritten).  The receiver
    decides +1 on the side of ``midpoint`` where ``rx_mean[+1]`` lies:
    ``obs >= midpoint`` when ``orientation`` is +1, ``obs <= midpoint``
    when it is -1.  Each symbol's sums run over its compacted
    observations, the arrays the sequential loop summed, so numpy's
    pairwise summation order is unchanged; ``np.compress`` gathers them
    in slot order, the same array as a boolean index at a fraction of
    its cost.
    """
    plus = bits.view(bool)
    noise *= sigma_z
    errors = 0
    stats = {}
    for symbol, mask in ((+1, plus), (-1, ~plus)):
        obs = np.compress(mask, noise)
        obs += rx_mean[symbol]
        said_plus = np.count_nonzero(obs >= midpoint if orientation > 0 else obs <= midpoint)
        errors += obs.size - said_plus if symbol == +1 else said_plus
        total = obs.sum()
        # squared in place: the same values as obs**2, without a second array
        stats[symbol] = (obs.size, total, np.square(obs, out=obs).sum())
    return errors, stats


def _hypothesis_points(
    grid: ValidatedGrid, droop: DroopState, cfg: SimConfig
) -> Tuple[Dict[int, float], Dict[int, Dict[int, float]]]:
    """Receiver mean and per-converter power for each symbol.

    Returns ``(rx_mean, power)`` keyed by symbol +1/-1.  Nonlinear mode
    re-solves the steady state per symbol; linearized mode solves ``droop``
    once and offsets that operating point along the transmitter's gain
    column, its power gains in ``grid.vsc_buses`` order.
    """
    if cfg.mode == "linearized":
        base = solve_steady_state(grid, droop)
        h, phi = _gains(grid, droop.x, droop.r, base.v[None], [cfg.tx])
        gain, power_gain = h[0, cfg.rx, 0], dict(zip(grid.vsc_buses, phi[0, :, 0]))
    rx_mean, power = {}, {}
    for symbol in (+1, -1):
        dx = symbol * cfg.amplitude
        if cfg.mode == "nonlinear":
            state = solve_steady_state(grid, droop.with_x({cfg.tx: droop.x[cfg.tx] + dx}))
            rx_mean[symbol], power[symbol] = float(state.v[cfg.rx]), dict(state.p)
        else:
            rx_mean[symbol] = float(base.v[cfg.rx] + gain * dx)
            power[symbol] = {bus: base.p[bus] + float(power_gain[bus]) * dx for bus in base.p}
    return rx_mean, power


def run_transmission(grid: ValidatedGrid, droop: DroopState, cfg: SimConfig) -> SimReport:
    """Simulate a transmission and measure error rate and power deviations.

    Detection projects each observation onto the known hypothesis means
    and takes the sign against their midpoint.  The empirical SNR is the
    squared half-separation of the per-symbol sample means over the
    pooled within-symbol variance.  Power deviations are measured about
    nominal (nameplate) operation; converters with a nameplate budget
    trigger :class:`BudgetExceededWarning` when exceeded beyond ``COMPLIANCE_SLACK``.

    Chunks run on every available CPU (see the module docstring); each
    yields its error count and per-symbol count, sum and sum of squares,
    folded here in chunk order, so the report does not depend on the
    number of CPUs.
    """
    cfg.validate(grid)
    droop.validate(grid)
    rx_mean, power = _hypothesis_points(grid, droop, cfg)
    p_nom = solve_steady_state(grid, nominal_droop(grid)).p
    midpoint = 0.5 * (rx_mean[+1] + rx_mean[-1])
    orientation = 1.0 if rx_mean[+1] >= rx_mean[-1] else -1.0

    buffers = threading.local()  # one noise buffer per thread: fresh ones fault in per chunk

    def work(chunk: int, size: int) -> Tuple[int, Dict[int, SymbolStats]]:
        if not hasattr(buffers, "noise"):
            buffers.noise = np.empty(CHUNK_SLOTS)
        noise = buffers.noise[:size]  # chunk_noise's stream, drawn into this thread's buffer
        _chunk_rng(cfg.rng_seed, _NOISE_STREAM, chunk).standard_normal(size, out=noise)
        bits = chunk_bits(cfg.rng_seed, chunk, size)
        return _tally(bits, noise, cfg.sigma_z, rx_mean, midpoint, orientation)

    errors = 0
    stats: Dict[int, SymbolStats] = {symbol: (0, 0.0, 0.0) for symbol in (+1, -1)}
    for chunk_errors, chunk_stats in _map_chunks(cfg.slots, work):
        errors += chunk_errors
        for symbol in (+1, -1):  # count, sum and sum of squares, each added in chunk order
            stats[symbol] = tuple(a + b for a, b in zip(stats[symbol], chunk_stats[symbol]))
    ones = stats[+1][0]

    ber = errors / cfg.slots
    ci = 1.96 * np.sqrt(ber * (1.0 - ber) / cfg.slots)
    snr_emp = _empirical_snr(stats)
    p_dev = _mean_sq_deviation(power, p_nom, ones, cfg.slots)
    for bus in p_nom:
        budget = grid.vsc(bus).pi_budget
        if budget is not None and not _complies(p_dev[bus], budget):
            warnings.warn(
                f"bus {bus}: mean-square power deviation {p_dev[bus]:.6g} W^2 "
                f"exceeds budget {budget**2:.6g} W^2 by more than {COMPLIANCE_SLACK:.0%}",
                BudgetExceededWarning,
                stacklevel=2,
            )
    logger.debug("run_transmission: %d slots, ber=%.3e", cfg.slots, ber)
    return SimReport(
        ber=float(ber),
        ber_ci95=float(ci),
        snr_empirical=snr_emp,
        p_dev_mean_sq=p_dev,
        slots_run=cfg.slots,
    )


def _mean_sq_deviation(
    power: Mapping[int, Mapping[int, float]], p_nom: Mapping[int, float], ones: int, slots: int
) -> Dict[int, float]:
    """Each converter's mean-square deviation from ``p_nom`` over ``slots`` slots.

    ``power[symbol]`` holds the converter powers while ``symbol`` is
    sent; ``ones`` of the slots send +1.
    """
    return {
        bus: (ones * (power[+1][bus] - p_nom[bus]) ** 2
              + (slots - ones) * (power[-1][bus] - p_nom[bus]) ** 2) / slots
        for bus in p_nom
    }


def _complies(p_dev: float, pi: float) -> bool:
    """A mean-square power deviation within ``COMPLIANCE_SLACK`` of the bound pi^2."""
    return bool(p_dev <= (1.0 + COMPLIANCE_SLACK) * pi**2)


def _empirical_snr(stats: Mapping[int, Tuple[int, float, float]]) -> float:
    counts = {s: stats[s][0] for s in (+1, -1)}
    if min(counts.values()) == 0:
        return float("nan")
    means = {s: stats[s][1] / counts[s] for s in (+1, -1)}
    within = sum(stats[s][2] - counts[s] * means[s] ** 2 for s in (+1, -1))
    dof = sum(counts.values()) - 2
    if dof <= 0:
        return float("nan")
    variance = within / dof
    signal = 0.5 * (means[+1] - means[-1])
    if variance <= 0.0:
        return float("inf")
    return float(signal**2 / variance)


def measure_power_compliance(
    grid: ValidatedGrid,
    droop: DroopState,
    cfg: SimConfig,
    pi: Mapping[int, float],
) -> Dict[int, ComplianceRow]:
    """Audit measured power deviations against each converter's budget.

    Intended to run with the amplitude set from the variance allocation
    (a^2 equal to the transmitter's allocated variance); a converter
    passes within ``COMPLIANCE_SLACK`` of its bound, the fraction that
    absorbs linearization error in the allocation.
    """
    if cfg.mode != "nonlinear":
        raise InvalidArgument("compliance audits run in nonlinear mode")
    check_budgets(pi, grid)
    cfg.validate(grid)
    droop.validate(grid)
    _, power = _hypothesis_points(grid, droop, cfg)
    p_nom = solve_steady_state(grid, nominal_droop(grid)).p
    ones = sum(
        _map_chunks(
            cfg.slots,
            lambda chunk, size: np.count_nonzero(chunk_bits(cfg.rng_seed, chunk, size)),
        )
    )
    p_dev = _mean_sq_deviation(power, p_nom, ones, cfg.slots)
    return {
        bus: ComplianceRow(float(p_dev[bus]), float(pi[bus] ** 2), _complies(p_dev[bus], pi[bus]))
        for bus in sorted(pi)
    }

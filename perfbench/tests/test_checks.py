"""Every checker must reject a perturbed output, and the run must count it as failed."""

import re
from pathlib import Path

import pytest

from perfbench import run
from perfbench.workloads import GOLDEN, FeederOptimize, StarSweep, StarValidate

ROOT = Path(__file__).resolve().parents[2]


class Replay:
    """A workload whose pipeline returns a fixed output, checked by the real checker."""

    def __init__(self, workload, output):
        self.workload, self.output = workload, output

    def run(self):
        return self.output

    def check(self, output):
        return self.workload.check(output)


def fails(workload, output):
    attempts = run.Attempts()
    attempts.once(Replay(workload, output))
    assert attempts.attempted == 1
    return attempts.failed == 1


@pytest.fixture(scope="module")
def feeder(tmp_path_factory):
    workload = FeederOptimize(ROOT, 1, tmp_path_factory.mktemp("feeder"))
    return workload, workload.run()


def test_sweep_checker_rejects_one_changed_digit(tmp_path):
    workload = StarSweep(ROOT, 1, tmp_path)
    golden = (GOLDEN / "capacity_sweep.csv").read_text()
    assert not fails(workload, golden)
    assert fails(workload, golden.replace("1.19904669", "1.19904668"))


def test_feeder_default_seed_optimum_is_interior_and_certified(feeder):
    workload, output = feeder
    assert not fails(workload, output)


def test_feeder_checker_rejects_r_star_moved_by_one_step(feeder):
    workload, output = feeder
    r0 = float(re.search(r"r_star_0_ohm=(\S+)", output).group(1))
    moved = output.replace(f"r_star_0_ohm={r0:.9g}", f"r_star_0_ohm={r0 + 0.005:.9g}")
    assert moved != output
    assert fails(workload, moved)


@pytest.mark.parametrize("seed", [1, 2])
def test_validate_checker_rejects_changed_ber_digit(tmp_path, seed):
    workload = StarValidate(ROOT, seed, tmp_path)
    golden = (GOLDEN / "star-validate-seed1.txt").read_text()
    assert not fails(workload, golden)
    # the last digit for the golden match, the first one for the statistical check
    digit = "ber=0.13673047" if seed == 1 else "ber=0.23673046"
    assert fails(workload, golden.replace("ber=0.13673046", digit, 1))


@pytest.mark.parametrize("seed", [1, 2])
def test_validate_checker_rejects_concavity_flipped_to_ok(tmp_path, seed):
    workload = StarValidate(ROOT, seed, tmp_path)
    golden = (GOLDEN / "star-validate-seed1.txt").read_text()
    flipped = golden.replace("flagged 25/25 ok False", "flagged 25/25 ok True")
    assert flipped != golden
    assert fails(workload, flipped)


def test_a_raising_run_counts_as_failed():
    class Broken:
        def run(self):
            raise RuntimeError("boom")

    attempts = run.Attempts()
    attempts.once(Broken())
    assert (attempts.attempted, attempts.failed) == (1, 1)

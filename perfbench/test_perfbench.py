"""Tests of the benchmark itself (not of relpsi).

Run from the repository root: python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import calibration  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SMALL_COMMANDS = [["scan", "--max-order", "24"], ["frobenius", "--r", "3", "--q", "3", "--brute-force"],
                  ["psi-cyclic", "360", "--brute-force"], ["bijection", "s3.tbl", "--subgroup", "1"]]


@pytest.fixture
def workdir(tmp_path):
    from relpsi import group_core

    (tmp_path / "inputs").mkdir()
    table = group_core.symmetric(3).cayley_table()
    workloads._write_table(tmp_path / "inputs" / "s3.tbl", table, "S3")
    return tmp_path


def _worker(workdir, commands, trace):
    cmds = [workloads.Command(tuple(argv), None) for argv in commands]
    return run.run_worker(workdir, cmds, 0, 1, 1, trace, "group")


@pytest.mark.parametrize("name", ["table-ingest", "closed-form"])
def test_same_seed_gives_identical_inputs(tmp_path, name):
    digests = []
    for seed, sub in ((5, "a"), (5, "b"), (6, "c")):
        (tmp_path / sub).mkdir()
        commands = workloads.WORKLOADS[name](seed, tmp_path / sub)
        digests.append(run.inputs_digest(commands, tmp_path / sub))
    assert digests[0] == digests[1] != digests[2]


def test_sampler_samples_while_active_and_restores_the_signal():
    import signal
    import time

    previous = signal.getsignal(signal.SIGALRM)
    with calibration.Sampler("group") as sampler:
        end = time.perf_counter() + 0.4
        while time.perf_counter() < end:
            pass
    assert len(sampler.samples) >= 3
    assert sampler.handler_s >= sum(sampler.samples) > 0
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_calibrated_time_scales_by_the_reference_speed():
    nominal = calibration.NOMINAL_REFERENCE_S
    assert calibration.calibrated(3.0, [nominal, nominal]) == 3.0
    # harmonic mean: the reference ran at 1 and 1/3 of nominal speed, 2/3 on average
    assert calibration.calibrated(3.0, [nominal, 3 * nominal]) == pytest.approx(2.0)


def test_every_command_carries_its_calibration_samples(workdir):
    for trace in (False, True):
        for rec in _worker(workdir, SMALL_COMMANDS, trace=trace)["iterations"][0]:
            assert len(rec["ref_samples"]) >= 2 * calibration.BRACKET_SAMPLES
            assert 0 < rec["seconds"] and all(x > 0 for x in rec["ref_samples"])


def test_untraced_run_sees_no_wrappers(workdir):
    out = _worker(workdir, SMALL_COMMANDS, trace=False)
    assert out["wrapped_after_run"] == []
    assert "counts" not in out
    assert all(rec["exit"] in (0, 3) for rec in out["iterations"][0])


def test_traced_counts_repeat_exactly(workdir):
    first = _worker(workdir, SMALL_COMMANDS, trace=True)
    second = _worker(workdir, SMALL_COMMANDS, trace=True)
    assert first["wrapped_after_run"] == second["wrapped_after_run"] == []
    assert first["missing"] == []
    assert first["counts"] == second["counts"]
    assert {k: v[0] for k, v in first["timed"].items()} == {k: v[0] for k, v in second["timed"].items()}
    assert first["counts"]["group_core.multiply.calls.PermutationGroup"] > 0
    assert first["timed"]["matching.max_flow"][0] == 1


def test_tracer_patches_every_binding_site_and_restores():
    import relpsi
    from relpsi import cli, group_core, order_sums, verify

    original = order_sums.psi_relative
    original_multiply = group_core.CyclicGroup.multiply
    t = tracer.Tracer()
    t.install()
    try:
        assert cli.psi_relative is verify.psi_relative is relpsi.psi_relative is order_sums.psi_relative
        assert order_sums.psi_relative is not original
        group_core.CyclicGroup(6).multiply(4, 5)
        assert t.counts["group_core.multiply.calls.CyclicGroup"] == 1
        assert tracer.wrapped_bindings()
    finally:
        t.uninstall()
    assert cli.psi_relative is verify.psi_relative is relpsi.psi_relative is original
    assert group_core.CyclicGroup.multiply is original_multiply
    assert tracer.wrapped_bindings() == []


@pytest.mark.parametrize("name", ["table-ingest", "closed-form"])
def test_each_corrupted_report_counts_as_one_failure(tmp_path, name):
    (tmp_path / "inputs").mkdir()
    commands = workloads.WORKLOADS[name](3, tmp_path / "inputs")
    records = run.run_worker(tmp_path, commands, 0, 1, 1, False, workloads.REFERENCE[name])["iterations"][0]
    assert run.check_iterations(commands, [records])[:2] == (len(commands), 0)
    assert run.self_check(commands, records) == 1
    for command, rec in zip(commands, records):
        assert run._problems(command, rec, run.corrupt(run._document(rec))), command.argv
        assert run._problems(command, dict(rec, exit=rec["exit"] + 1), run._document(rec)), command.argv


def test_hall_deficiency_matches_a_hand_count():
    # values 2 and 4 on the left reach only 4 on the right
    left, right = oracles.Counter({2: 3, 4: 2, 1: 1}), oracles.Counter({4: 2, 1: 4})
    assert oracles.hall_deficiency(left, right) == (3, frozenset({2, 4}))


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [row[:3] for row in run.LAYER_METRICS]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS) == list(workloads.REFERENCE)
    assert set(workloads.REFERENCE.values()) <= set(calibration.REFERENCES)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "closed-form", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

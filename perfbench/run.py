"""relpsi benchmark: seeded CLI workloads, checked against independent oracles.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py): catalog-scan, frobenius-brute, table-ingest,
closed-form. A run builds the workload's inputs from the seed, then starts a
fresh Python process (worker.py) that imports `relpsi.cli` and runs the
command list through `relpsi.cli.main(argv)` again and again for about S
seconds: one client, one process, no threads, never `--threads`. After the
worker ends, every report is checked against its oracle (oracles.py).

With --trace 0 the last line of stdout is a JSON object with these metrics:

  wall_s        median seconds to run the full command list once
  slowest_op_s  median time of the command whose median time is longest
  setup_s       median over ten fresh processes, five before the passes and
                five after, of the time from process start until
                `import relpsi.cli` returns
  peak_rss_mb   peak resident memory of the worker process

wall_s and slowest_op_s are calibrated: each command's time is scaled by the
speed of a fixed reference loop timed before, after and during it
(calibration.py), which cancels most of the drift of a shared host's speed;
the raw times are in the record. setup_s is raw: process start-up speeds up
less than the reference when the host is quiet, so scaling it only turned a
low reading in quiet spells into a high one.

`fail_share` (failed / attempted commands) is printed with them and carried by
the `attempted` and `failed` fields. With --trace 1 one untraced pass and one
traced pass run in fresh processes, and the metrics are the per-layer ones in
LAYER_METRICS below. Each run also writes a full record, with environment,
seed, input hash and quartiles, to .perfbench/results/, and a traced run its
spans to .perfbench/traces/.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import NOMINAL_REFERENCE_S, calibrated
from tracer import MULTIPLY_CLASSES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_SAMPLES = 5  # taken before the timed passes and again after them
MIN_ITERATIONS = 3
WORKER_TIMEOUT_S = 170


def _layer_metrics():
    """(name, unit, better, value from timed/counts/extra) for --trace 1."""
    def calls(name):
        return lambda t, c, x: t.get(name, [0, 0.0])[0]

    def self_s(name):
        return lambda t, c, x: t.get(name, [0, 0.0])[1]

    def count(name):
        return lambda t, c, x: c.get(name, 0)

    def ratio(num, den):
        return lambda t, c, x: num(t, c, x) / den(t, c, x) if den(t, c, x) else 0.0

    rows = []
    for cls in MULTIPLY_CLASSES:
        rows.append((f"group_core.multiply.calls.{cls}", "count", "lower",
                     count(f"group_core.multiply.calls.{cls}")))
    for cls in MULTIPLY_CLASSES:
        rows.append((f"group_core.multiply_ns.{cls}", "ns", "lower",
                     lambda t, c, x, cls=cls: x["multiply_ns"][cls]))
    rows += [
        ("group_core.inverse.calls", "count", "lower", count("group_core.inverse.calls")),
        ("group_core.element_order.calls", "count", "lower", calls("group_core.element_order")),
        ("group_core.element_order.self_s", "s", "lower", self_s("group_core.element_order")),
        ("group_core.from_cayley_table.self_s", "s", "lower", self_s("group_core.from_cayley_table")),
        ("group_core.construct.self_s", "s", "lower", self_s("group_core.construct")),
        ("subgroup_lattice.generate.calls", "count", "lower", calls("subgroup_lattice.generate")),
        ("subgroup_lattice.generate.self_s", "s", "lower", self_s("subgroup_lattice.generate")),
        ("subgroup_lattice.generate.elements_out", "count", "lower",
         count("subgroup_lattice.generate.elements_out")),
        ("subgroup_lattice.all_subgroups.calls", "count", "lower", calls("subgroup_lattice.all_subgroups")),
        ("subgroup_lattice.all_subgroups.self_s", "s", "lower", self_s("subgroup_lattice.all_subgroups")),
        ("subgroup_lattice.all_subgroups.subgroups_out", "count", "higher",
         count("subgroup_lattice.all_subgroups.subgroups_out")),
        ("subgroup_lattice.all_subgroups.useful_join_ratio", "ratio", "higher",
         ratio(count("subgroup_lattice.all_subgroups.subgroups_out"),
               count("subgroup_lattice.all_subgroups.generate_calls"))),
        ("order_sums.psi_relative.calls", "count", "lower", calls("order_sums.psi_relative")),
        ("order_sums.psi_relative.self_s", "s", "lower", self_s("order_sums.psi_relative")),
        ("order_sums.psi_relative.elements", "count", "lower", count("order_sums.psi_relative.elements")),
        ("order_sums.multiplies_per_element", "ratio", "lower",
         ratio(count("order_sums.psi_relative.multiplies"), count("order_sums.psi_relative.elements"))),
        ("order_sums.relative_order.calls", "count", "lower", calls("order_sums.relative_order")),
        ("order_sums.relative_order.self_s", "s", "lower", self_s("order_sums.relative_order")),
        ("order_sums.psi.self_s", "s", "lower", self_s("order_sums.psi")),
        ("finite_field.FiniteField.calls", "count", "lower", calls("finite_field.FiniteField")),
        ("finite_field.FiniteField.self_s", "s", "lower", self_s("finite_field.FiniteField")),
        ("finite_field.ops.calls", "count", "lower", count("finite_field.ops.calls")),
        ("classify.is_nilpotent.calls", "count", "lower", calls("classify.is_nilpotent")),
        ("classify.is_nilpotent.self_s", "s", "lower", self_s("classify.is_nilpotent")),
        ("classify.is_solvable.calls", "count", "lower", calls("classify.is_solvable")),
        ("classify.is_solvable.self_s", "s", "lower", self_s("classify.is_solvable")),
        ("matching.max_flow.self_s", "s", "lower", self_s("matching.max_flow")),
        ("matching.edges", "count", "lower", count("matching.edges")),
        ("numtheory.factorize.calls", "count", "lower", calls("numtheory.factorize")),
        ("numtheory.factorize.self_s", "s", "lower", self_s("numtheory.factorize")),
        ("numtheory.is_prime.calls", "count", "lower", calls("numtheory.is_prime")),
        ("numtheory.is_prime.self_s", "s", "lower", self_s("numtheory.is_prime")),
        ("verify.default_catalog.self_s", "s", "lower", self_s("verify.default_catalog")),
        ("verify.subgroup_ratio_scan.calls", "count", "lower", calls("verify.subgroup_ratio_scan")),
        ("verify.bijection_exists.self_s", "s", "lower", self_s("verify.bijection_exists")),
        ("verify.scan_errors", "count", "lower", count("verify.scan_errors")),
        ("cli.load_cayley_file.self_s", "s", "lower", self_s("cli.load_cayley_file")),
        ("cli.main.self_s", "s", "lower", self_s("cli.main")),
        ("trace.overhead_s", "s", "lower", lambda t, c, x: x["overhead_s"]),
    ]
    return rows


LAYER_METRICS = _layer_metrics()
END_TO_END = {"wall_s": "s", "slowest_op_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


class BenchError(Exception):
    """The benchmark itself cannot run; no result is printed."""


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup() -> list[float]:
    """Seconds from starting a fresh interpreter until `import relpsi.cli` returns."""
    code = "import relpsi.cli\nimport time\nprint(time.monotonic())"
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", code], env=_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"import relpsi.cli failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.split()[-1]) - start)
    return samples


def run_worker(workdir: Path, commands, seconds, min_iterations, max_iterations, trace, reference) -> dict:
    tag = "traced" if trace else "plain"
    spec = {"commands": [list(c.argv) for c in commands], "seconds": seconds,
            "min_iterations": min_iterations, "max_iterations": max_iterations,
            "trace": trace, "reference": reference, "json_path": str(workdir / f"report-{tag}.json"),
            "spans_path": str(workdir / "spans.jsonl")}
    spec_path, out_path = workdir / f"spec-{tag}.json", workdir / f"out-{tag}.json"
    spec_path.write_text(json.dumps(spec))
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path), str(out_path)],
                              env=_env(), cwd=workdir / "inputs", capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker did not finish within {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(out_path.read_text())


# ---------------------------------------------------------------------------
# checking
# ---------------------------------------------------------------------------

def _problems(command, rec: dict, doc: dict | None) -> list[str]:
    if rec["raised"]:
        return [f"raised {rec['raised']}"]
    if doc is None:
        return [f"exit code {rec['exit']} and no --json report; stderr: {rec['stderr'].strip()}"]
    try:
        return command.check(rec["exit"], doc)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return [f"malformed report: {type(exc).__name__}: {exc}"]


def _document(rec: dict) -> dict | None:
    if rec["json"] is None:
        return None
    doc = json.loads(rec["json"])
    doc.pop("timing_ms", None)
    return doc


def check_iterations(commands, iterations) -> tuple[int, int, list[str]]:
    """(attempted, failed, first problems); identical reports are checked once."""
    verdicts: dict[tuple, list[str]] = {}
    attempted = failed = 0
    problems: list[str] = []
    for records in iterations:
        for index, (command, rec) in enumerate(zip(commands, records)):
            doc = _document(rec)
            key = (index, rec["exit"], rec["raised"], json.dumps(doc, sort_keys=True))
            if key not in verdicts:
                verdicts[key] = _problems(command, rec, doc)
            attempted += 1
            if verdicts[key]:
                failed += 1
                problems += [f"{' '.join(command.argv)}: {p}" for p in verdicts[key][:3]]
    return attempted, failed, problems[:20]


def corrupt(doc: dict) -> dict:
    """A copy of the report with its first integer result raised by one."""
    doc = copy.deepcopy(doc)

    def bump(node):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            if isinstance(value, int) and not isinstance(value, bool):
                node[key] = value + 1
                return True
            if isinstance(value, str) and value.isdigit():
                node[key] = str(int(value) + 1)
                return True
            if isinstance(value, (dict, list)) and bump(value):
                return True
        return False

    if not bump(doc["results"]):
        raise BenchError("report has no integer result to corrupt")
    return doc


def self_check(commands, records) -> int:
    """Failures counted over one pass in which the first report is corrupted.
    When the genuine pass has no failures this must be exactly 1."""
    failures = 0
    for index, (command, rec) in enumerate(zip(commands, records)):
        doc = _document(rec)
        if index == 0 and doc is not None:
            doc = corrupt(doc)
        failures += bool(_problems(command, rec, doc))
    return failures


# ---------------------------------------------------------------------------
# statistics and environment
# ---------------------------------------------------------------------------

def summary(values) -> dict:
    values = sorted(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3,
            "min": values[0], "max": values[-1]}


def git_commit() -> str | None:
    """HEAD of the checkout's own .git, if it has one; never looks above it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(trace: bool) -> dict:
    import numpy

    cpu = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(), "cpu_model": cpu,
            "git_commit": git_commit(), "traced": trace, "platform": platform.platform()}


def inputs_digest(commands, inputs: Path) -> str:
    digest = hashlib.sha256(json.dumps([list(c.argv) for c in commands]).encode())
    for path in sorted(inputs.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

def end_to_end(workdir, commands, seconds, reference) -> tuple[dict, dict, list]:
    setup = measure_setup()
    out = run_worker(workdir, commands, seconds, MIN_ITERATIONS, 10_000, False, reference)
    setup += measure_setup()
    iterations = out["iterations"]
    times = [[calibrated(rec["seconds"], rec["ref_samples"]) for rec in records] for records in iterations]
    per_command = [summary([pass_[i] for pass_ in times]) for i in range(len(commands))]
    # the command with the highest median, not the median of each pass's
    # maximum: where several commands take about as long, a per-pass maximum
    # picks whichever was noisiest
    slowest = max(range(len(commands)), key=lambda i: per_command[i]["median"])
    stats = {"wall_s": summary([sum(pass_) for pass_ in times]),
             "slowest_op_s": per_command[slowest],
             "setup_s": summary(setup),
             "peak_rss_mb": summary([out["peak_rss_kb"] / 1024])}
    metrics = {name: stats[name]["median"] for name in END_TO_END}
    raw = {"wall_s": summary([sum(rec["seconds"] for rec in records) for records in iterations]),
           "reference_s": summary([x for records in iterations for rec in records for x in rec["ref_samples"]])}
    extra = {"statistics": stats, "per_command_s": per_command, "raw": raw,
             "reference": reference, "nominal_reference_s": NOMINAL_REFERENCE_S,
             "worker_import_s": out["import_s"]}
    return metrics, extra, [out]


def traced(workdir, commands, tag, reference) -> tuple[dict, dict, list]:
    plain = run_worker(workdir, commands, 0, 1, 1, False, reference)
    out = run_worker(workdir, commands, 0, 1, 1, True, reference)
    wall = sum(rec["seconds"] for rec in out["iterations"][0])
    plain_wall = sum(rec["seconds"] for rec in plain["iterations"][0])
    extra = {"multiply_ns": out["multiply_ns"], "overhead_s": wall - plain_wall}
    metrics = {name: fn(out["timed"], out["counts"], extra) for name, _, _, fn in LAYER_METRICS}
    traces = OUT / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    spans_file = traces / f"{tag}.spans.jsonl"
    shutil.move(str(workdir / "spans.jsonl"), spans_file)
    info = {"traced_wall_s": wall, "untraced_wall_s": plain_wall, "spans": out["spans"],
            "spans_file": str(spans_file.relative_to(ROOT)), "missing_targets": out["missing"],
            "timed": out["timed"], "counts": out["counts"]}
    return metrics, info, [plain, out]


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    if not (SRC / "relpsi" / "cli.py").is_file():
        raise BenchError(f"no relpsi sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import workloads

    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    workdir = OUT / "work" / f"{tag}-{os.getpid()}"
    (workdir / "inputs").mkdir(parents=True)
    try:
        commands = workloads.WORKLOADS[workload](seed, workdir / "inputs")
        digest = inputs_digest(commands, workdir / "inputs")
        if trace:
            metrics, extra, outs = traced(workdir, commands, tag, workloads.REFERENCE[workload])
            units = {name: unit for name, unit, _, _ in LAYER_METRICS}
        else:
            metrics, extra, outs = end_to_end(workdir, commands, seconds, workloads.REFERENCE[workload])
            units = END_TO_END
        attempted = failed = 0
        problems: list[str] = []
        wrapped = []
        for out in outs:
            a, f, p = check_iterations(commands, out["iterations"])
            attempted, failed, problems = attempted + a, failed + f, problems + p
            wrapped += out["wrapped_after_run"]
        if wrapped:
            raise BenchError(f"tracer wrappers left in place: {wrapped}")
        first = outs[0]["iterations"][0]
        genuine = [bool(_problems(c, rec, _document(rec))) for c, rec in zip(commands, first)]
        self_check_failures = self_check(commands, first)
        if not genuine[0] and self_check_failures != sum(genuine) + 1:
            raise BenchError("the oracles did not catch a corrupted report")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "inputs_sha256": digest,
        "commands": [list(c.argv) for c in commands], "environment": environment(trace),
        "attempted": attempted, "failed": failed, "fail_share": failed / attempted,
        "problems": problems, "self_check_failures": self_check_failures,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        "details": extra,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import workloads  # noqa: F401  (fails fast when numpy or sympy is missing)

        if args.workload not in workloads.WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; "
                             f"choose from {', '.join(workloads.WORKLOADS)}")
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, ImportError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    env = record["environment"]
    print(f"# {args.workload} seed {args.seed}: inputs sha256 {record['inputs_sha256'][:16]}, "
          f"python {env['python']}, numpy {env['numpy']}, {env['nproc']} cpus, {env['cpu_model']}, "
          f"commit {env['git_commit']}, traced {env['traced']}")
    stats = record["details"].get("statistics", {})
    for name, metric in record["metrics"].items():
        spread = stats.get(name)
        note = (f"  (median of {spread['n']}, q1 {spread['q1']:.4g}, q3 {spread['q3']:.4g})"
                if spread else "")
        print(f"{name:50s} {metric['value']:.6g} {metric['unit']}{note}")
    print(f"{'fail_share':50s} {record['fail_share']:.6g} share"
          f"  ({record['failed']} of {record['attempted']} commands failed)")
    for problem in record["problems"]:
        print(f"FAILED {problem}")
    result = {"correct": record["failed"] == 0, "attempted": record["attempted"],
              "failed": record["failed"], "metrics": record["metrics"]}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run relpsi CLI commands in this process, through `relpsi.cli.main(argv)`.

Usage: python worker.py SPEC.json OUT.json

SPEC holds the command argv lists, the time budget, the iteration limits, the
calibration reference and whether to trace. The worker imports `relpsi.cli`
first, then runs the whole command list repeatedly, one command at a time,
each with `--json` to a temporary file and its stdout and stderr captured.
Between commands, and in untraced runs every few hundredths of a second during
them, it times the calibration reference loop (calibration.py); that time is
left out of the commands' durations. It writes every exit code, duration, JSON
report and reference time to OUT. Results are checked by the parent process,
never here, so nothing but relpsi runs in the timed spans.
"""

import sys
import time

_started = time.perf_counter()
import relpsi.cli  # noqa: E402  (the first import, so its cost is measured alone)

IMPORT_S = time.perf_counter() - _started

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

import tracer as tracing  # noqa: E402  (importing it patches nothing)
from calibration import Sampler, bracket  # noqa: E402

# hard stop on iterations after this many seconds, whatever the budget
_MAX_SPAN_S = 120.0
_MULTIPLY_PAIRS = 20_000
_MULTIPLY_REPEATS = 5


def run_command(argv, json_path: Path, sampler) -> dict:
    """One command, timed; with a sampler its calibration samples are taken
    while it runs and the sampler's own time is left out of `seconds`."""
    json_path.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    raised = None
    with sampler or contextlib.nullcontext():
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = relpsi.cli.main(list(argv) + ["--json", str(json_path)])
        except (Exception, SystemExit) as exc:  # noqa: BLE001 - recorded as a failed command
            code, raised = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    if sampler is not None:
        seconds -= sampler.handler_s
    text = json_path.read_text() if json_path.exists() else None
    return {"seconds": seconds, "exit": code, "raised": raised, "json": text,
            "stderr": err.getvalue()[-2000:], "ref_samples": sampler.samples if sampler else []}


def run_iterations(commands, json_path, seconds, min_iterations, max_iterations, reference, tracer=None):
    """Passes over the command list. Each command's `ref_samples` are the
    calibration samples taken just before it, while it ran (untraced only, so
    the tracer's spans hold no handler time) and just after it."""
    sampler = None if tracer is not None else Sampler(reference)
    iterations = []
    begin = time.perf_counter()
    while len(iterations) < max_iterations:
        started = time.perf_counter()
        records = []
        before = bracket(reference)
        for index, argv in enumerate(commands):
            if tracer is not None:
                tracer.command = index
            record = run_command(argv, json_path, sampler)
            after = bracket(reference)
            record["ref_samples"] = before + record["ref_samples"] + after
            records.append(record)
            before = after
        iterations.append(records)
        now = time.perf_counter()
        # start another pass only if it should still end within the budget
        if len(iterations) >= min_iterations and now - begin + (now - started) > seconds:
            break
        if now - begin > _MAX_SPAN_S:
            break
    return iterations


def multiply_ns() -> dict:
    """Untraced cost of one `multiply` call, per group class, on a fixed
    representative group: median over repeats of a loop over fixed pairs."""
    from relpsi import group_core as gc

    representatives = {
        "CyclicGroup": lambda: gc.cyclic(120),
        "PermutationGroup": lambda: gc.symmetric(5),
        "CayleyTableGroup": lambda: gc.from_cayley_table(gc.symmetric(5).cayley_table()),
        "FrobeniusFieldGroup": lambda: gc.frobenius_field(2, 5),
        "DirectProductGroup": lambda: gc.direct_product([gc.frobenius_field(2, 3), gc.cyclic(3)]),
    }
    out = {}
    for cname, make in representatives.items():
        group = make()
        rng = random.Random(cname)
        pairs = [(rng.randrange(group.order), rng.randrange(group.order)) for _ in range(_MULTIPLY_PAIRS)]
        mul = group.multiply
        samples = []
        for _ in range(_MULTIPLY_REPEATS):
            start = time.perf_counter()
            for a, b in pairs:
                mul(a, b)
            samples.append((time.perf_counter() - start) / len(pairs) * 1e9)
        out[cname] = sorted(samples)[len(samples) // 2]
    return out


def main(spec_path: str, out_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text())
    json_path = Path(spec["json_path"])
    result = {"import_s": IMPORT_S}
    tracer = None
    if spec["trace"]:
        result["multiply_ns"] = multiply_ns()
        tracer = tracing.Tracer()
        tracer.install()
    try:
        iterations = run_iterations(spec["commands"], json_path, spec["seconds"],
                                    spec["min_iterations"], spec["max_iterations"], spec["reference"],
                                    tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["wrapped_after_run"] = tracing.wrapped_bindings()
    result["iterations"] = iterations
    if tracer is not None:
        result["timed"] = tracer.timed
        result["counts"] = dict(tracer.counts)
        result["missing"] = tracer.missing
        with open(spec["spans_path"], "w") as fh:
            for span in tracer.span_records():
                fh.write(json.dumps(span) + "\n")
        result["spans"] = len(tracer.spans)
    Path(out_path).write_text(json.dumps(result))


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    main(sys.argv[1], sys.argv[2])

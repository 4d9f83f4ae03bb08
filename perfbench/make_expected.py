"""Regenerate the committed expected results under expected/.

Usage, from the repository root: python3 perfbench/make_expected.py

catalog_scan.json is the `results` block of `relpsi scan --max-order 100
--include-frobenius`. table_ingest.json holds, for each table group, the
label-independent projection of `ratios` and `check-bounds` on the
unrelabelled Cayley table. Rerun only when a change is meant to alter these
results, and say why in the change.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import relpsi.cli  # noqa: E402

import oracles  # noqa: E402
import workloads  # noqa: E402


def report(argv):
    out = Path("report.json")
    out.unlink(missing_ok=True)
    with contextlib.redirect_stdout(io.StringIO()):
        code = relpsi.cli.main(list(argv) + ["--json", str(out)])
    if code not in (oracles.EXIT_OK, oracles.EXIT_VIOLATION):
        raise SystemExit(f"{' '.join(argv)} exited with {code}")
    return code, json.loads(out.read_text())


def main() -> None:
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        tmp = Path(tmp)
        os.chdir(tmp)  # the table files are named relative to it
        _, doc = report(("scan", "--max-order", "100", "--include-frobenius"))
        (HERE / "expected" / "catalog_scan.json").write_text(json.dumps(doc["results"]) + "\n")
        projections = {}
        for command in workloads.table_ingest(0, tmp, relabelled=False):
            kind, path = command.argv[0], command.argv[1]
            if kind == "ratios":
                projection = oracles.ratios_projection(*report(command.argv))
            elif kind == "check-bounds":
                projection = oracles.bounds_projection(*report(command.argv))
            else:
                continue
            projections.setdefault(Path(path).stem, {})[kind] = projection
        # one line per group, so a changed projection shows up as a changed line
        lines = [f"{json.dumps(stem)}: {{" + ", ".join(
            f"{json.dumps(kind)}: {json.dumps(projection)}" for kind, projection in kinds.items()) + "}"
            for stem, kinds in projections.items()]
        (HERE / "expected" / "table_ingest.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")
        os.chdir(HERE.parent)


if __name__ == "__main__":
    main()

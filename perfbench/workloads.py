"""The benchmark's workloads: seeded inputs, command lists and their oracles.

Each workload function takes the seed and a work directory, writes any input files
there, and returns the commands to run from that directory. The same seed
gives byte-identical files and argv lists. A command's `check` receives the
exit code and parsed `--json` document and returns the problems it found.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np
import sympy

import oracles

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    check: Callable[[int, dict], list[str]]


def _rng(workload: str, seed: int, purpose: str) -> random.Random:
    # string seeds hash through sha512, so they do not depend on PYTHONHASHSEED
    return random.Random(f"{workload}/{seed}/{purpose}")


def _expected(name: str):
    return json.loads((EXPECTED_DIR / name).read_text())


# ---------------------------------------------------------------------------
# catalog-scan: the program builds its 142-group catalog itself; the seed
# changes nothing.
# ---------------------------------------------------------------------------

def catalog_scan(seed: int, workdir: Path) -> list[Command]:
    expected = _expected("catalog_scan.json")
    return [Command(("scan", "--max-order", "100", "--include-frobenius"),
                    partial(oracles.check_scan, expected_results=expected))]


# ---------------------------------------------------------------------------
# frobenius-brute: the paper's counterexample family, fixed by the paper.
# ---------------------------------------------------------------------------

FROBENIUS_BRUTE = [(7, 0), (5, 7), (5, 11)]


def frobenius_brute(seed: int, workdir: Path) -> list[Command]:
    commands = []
    for r, q in FROBENIUS_BRUTE:
        argv = ("frobenius", "--r", str(r)) + (("--q", str(q)) if q else ()) + ("--brute-force",)
        commands.append(Command(argv, partial(oracles.check_frobenius, r=r, cofactor=q, brute=True)))
    return commands


# ---------------------------------------------------------------------------
# table-ingest: Cayley tables from the library constructors, relabelled by a
# seeded permutation that keeps the identity at 0.
# ---------------------------------------------------------------------------

def _table_groups():
    from relpsi import group_core as gc

    # (file stem, constructor, also runs ratios and check-bounds, is Frobenius)
    return [
        ("s5", lambda: gc.symmetric(5), True, False),
        ("d60", lambda: gc.dihedral(60), True, False),
        ("frob23xc3", lambda: gc.direct_product([gc.frobenius_field(2, 3), gc.cyclic(3)]), True, False),
        ("frob32", lambda: gc.frobenius_field(3, 2), True, True),
        ("frob52", lambda: gc.frobenius_field(5, 2), False, True),
        ("frob25", lambda: gc.frobenius_field(2, 5), False, True),
    ]


def _write_table(path: Path, table: np.ndarray, comment: str) -> None:
    lines = [f"# {comment}", str(table.shape[0])]
    lines += [" ".join(map(str, row)) for row in table.tolist()]
    path.write_text("\n".join(lines) + "\n")


def relabel(table: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """The table of the same group with element a renamed perm[a]."""
    inv = np.argsort(perm)
    return perm[table[np.ix_(inv, inv)]]


def table_ingest(seed: int, workdir: Path, relabelled: bool = True) -> list[Command]:
    expected = _expected("table_ingest.json") if relabelled else None
    analyses, bijections = [], []
    for stem, make, analysed, frobenius in _table_groups():
        group = make()
        table = group.cayley_table()
        n = group.order
        rng = _rng("table-ingest", seed, stem)
        rest = list(range(1, n))
        if relabelled:
            rng.shuffle(rest)
        perm = np.array([0] + rest, dtype=np.int64)
        path = f"{stem}.tbl"
        _write_table(workdir / path, relabel(table, perm), f"{group.name}, labels shuffled with seed {seed}")
        if analysed:
            for cmd, check in (("ratios", oracles.check_ratios), ("check-bounds", oracles.check_bounds)):
                want = expected[stem][cmd] if expected else None
                analyses.append(Command((cmd, path), partial(check, n=n, expected=want)))
        gen = group.encode(0, 1) if frobenius else rng.randrange(1, n)
        bijections.append(Command(("bijection", path, "--subgroup", str(int(perm[gen]))),
                                  partial(oracles.check_bijection, table=table, perm=perm, gens=[gen])))
    return analyses + bijections


# ---------------------------------------------------------------------------
# closed-form: numtheory only. Each psi-cyclic N carries one prime factor
# drawn from a narrow band just above 2^36, 2^38, ..., 2^46, so trial division
# costs about the same for every seed.
# ---------------------------------------------------------------------------

CLOSED_FORM_R = (3, 5, 7, 13, 17, 19, 31)
SMALL_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def closed_form(seed: int, workdir: Path) -> list[Command]:
    rng = _rng("closed-form", seed, "inputs")
    commands = []
    for bits in range(36, 47, 2):
        low = 1 << bits
        prime = sympy.nextprime(low + rng.randrange(low >> 6))
        n = prime * math.prod(rng.sample(SMALL_PRIMES, rng.randint(1, 3)))
        commands.append(Command(("psi-cyclic", str(n)), partial(oracles.check_psi_cyclic, n=n, brute=False)))
    for r in CLOSED_FORM_R:
        commands.append(Command(("frobenius", "--r", str(r)),
                                partial(oracles.check_frobenius, r=r, cofactor=0, brute=False)))
    for _ in range(2):
        n = rng.randrange(380_000, 400_001)
        commands.append(Command(("psi-cyclic", str(n), "--brute-force"),
                                partial(oracles.check_psi_cyclic, n=n, brute=True)))
    rng.shuffle(commands)
    return commands


WORKLOADS = {
    "catalog-scan": catalog_scan,
    "frobenius-brute": frobenius_brute,
    "table-ingest": table_ingest,
    "closed-form": closed_form,
}

# the calibration reference loop (calibration.py) that each workload's times
# are scaled by: closed-form spends its time in numtheory's integer trial
# division, the others in group code
REFERENCE = {
    "catalog-scan": "group",
    "frobenius-brute": "group",
    "table-ingest": "group",
    "closed-form": "integer",
}

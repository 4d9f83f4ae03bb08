import importlib
import io
import json
import random
import re
import subprocess
import sys
import time
import tracemalloc
import warnings
from collections import Counter
from fractions import Fraction
from math import gcd
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

import relpsi.group_core as gc
from relpsi import classify, cli, numtheory, order_sums, subgroup_lattice, verify
from relpsi.budget import BIJECTION_CAP, ELEMENT_CAP, LATTICE_CAP
from relpsi.cli import load_cayley_file, main


def table_text(rows, comment=None):
    """The Cayley-table file of the table ``rows``, a list of lists."""
    lines = [f"# {comment}"] if comment else []
    lines += [str(len(rows)), *(" ".join(map(str, row)) for row in rows)]
    return "\n".join(lines) + "\n"


def write_cayley_file(path, G, comment=None):
    path.write_text(table_text(G.cayley_table().tolist(), comment))
    return str(path)


def cyclic_table_text(n, bump):
    """C_n's Cayley-table file with entry (1, 1) raised by ``bump``."""
    table = gc.cyclic(n).cayley_table()
    table[1, 1] += bump
    return f"{n}\n" + "".join(" ".join(map(str, row)) + "\n" for row in table.tolist())


@pytest.fixture
def bench_commands(tmp_path, monkeypatch):
    """The commands of one of the benchmark's workloads at a seed (1 unless
    given), by the name of its function in perfbench/workloads.py, with their
    input files written to the current directory, a fresh temporary one."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    monkeypatch.chdir(tmp_path)
    workloads = importlib.import_module("workloads")
    return lambda name, seed=1: getattr(workloads, name)(seed, tmp_path)


def run_benchmark_commands(commands):
    """Run each command in this process and check its exit code and --json
    report with the benchmark's own oracle."""
    for command in commands:
        code = main([*command.argv, "--json", "report.json"])
        doc = json.loads(Path("report.json").read_text())
        assert command.check(code, doc) == [], command.argv


class TestBenchmarkCommands:
    """Every other command of the benchmark at seed 1, and closed-form at seed
    2 too; catalog-scan and the table-ingest analyses are checked in TestScan."""

    def test_frobenius_brute(self, bench_commands, capsys):
        commands = bench_commands("frobenius_brute")
        assert [c.argv[0] for c in commands] == ["frobenius"] * 3
        assert all("--brute-force" in c.argv for c in commands)
        run_benchmark_commands(commands)

    def test_table_ingest_bijections(self, bench_commands, capsys):
        commands = [c for c in bench_commands("table_ingest") if c.argv[0] == "bijection"]
        assert len(commands) == 6
        run_benchmark_commands(commands)

    def test_closed_form(self, bench_commands, capsys):
        for seed in (1, 2):
            commands = bench_commands("closed_form", seed)
            assert sorted({c.argv[0] for c in commands}) == ["frobenius", "psi-cyclic"]
            assert len(commands) == 15
            run_benchmark_commands(commands)


class TestPsiCyclic:
    def test_basic(self, capsys):
        assert main(["psi-cyclic", "7"]) == 0
        assert capsys.readouterr().out.strip() == "43"

    def test_trivial(self, capsys):
        assert main(["psi-cyclic", "1"]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_brute_force_agreement(self, capsys):
        assert main(["psi-cyclic", "12", "--brute-force"]) == 0
        out = capsys.readouterr().out.split()
        assert out == ["77", "77", "OK"]

    def test_bad_input(self, capsys):
        assert main(["psi-cyclic", "0"]) == 1
        assert capsys.readouterr().err == "error: need n >= 1, got 0\n"


class TestFrobenius:
    def test_headline(self, capsys):
        assert main(["frobenius", "--r", "3"]) == 0
        out = capsys.readouterr().out
        assert "45/43" in out
        assert "VIOLATES" in out
        assert "psi_H (closed form) = 315" in out

    def test_brute_force_with_cofactor(self, capsys):
        assert main(["frobenius", "--r", "3", "--q", "3", "--brute-force"]) == 0
        out = capsys.readouterr().out
        assert "45/43" in out
        assert "OK" in out
        assert "n = 168" in out

    def test_brute_force_above_table_cap_with_cofactor(self, capsys, tmp_path):
        # Frob(2,7) x C11, 178 816 elements
        path = tmp_path / "r7q11.json"
        assert main(["frobenius", "--r", "7", "--q", "11", "--brute-force", "--json", str(path)]) == 0
        assert "psi_H (brute force)  = 22358985 OK" in capsys.readouterr().out
        result = json.loads(path.read_text())["results"][0]
        assert result["verdict"] == "OK"
        assert result["brute_force"] == result["psi_h"] == "22358985"

    def test_non_mersenne_rejected(self, capsys):
        assert main(["frobenius", "--r", "4"]) == 1
        assert "not prime" in capsys.readouterr().err

    def test_invalid_cofactor_messages_distinct(self, capsys):
        assert main(["frobenius", "--r", "3", "--q", "7"]) == 1
        assert "divides" in capsys.readouterr().err
        assert main(["frobenius", "--r", "3", "--q", "4"]) == 1
        assert "odd" in capsys.readouterr().err


@pytest.fixture
def run_cli(src_env):
    """`python -m relpsi.cli argv` in a subprocess; a hang fails the test
    after 10 s instead of stalling the suite."""
    def run(*argv):
        return subprocess.run([sys.executable, "-m", "relpsi.cli", *map(str, argv)],
                              env=src_env, capture_output=True, text=True, timeout=10)
    return run


class TestLargeClosedForms:
    """Inputs whose factors need more than trial division."""

    def test_psi_cyclic_of_a_19_digit_prime(self, run_cli):
        proc = run_cli("psi-cyclic", 1000000000000000003)
        assert (proc.returncode, proc.stdout) == (0, "1000000000000000005000000000000000007\n")

    def test_frobenius_r61(self, run_cli):
        proc = run_cli("frobenius", "--r", 61)
        m = 2 ** 61 - 1
        assert proc.returncode == 0, proc.stderr
        assert f"psi_H (closed form) = {m * (m * m - m + 1 + 2)}\n" in proc.stdout

    @pytest.mark.parametrize("argv", [
        ("psi-cyclic", sympy.nextprime(2 ** 90)),
        ("psi-cyclic", 3 * sympy.nextprime(2 ** 90)),
        ("frobenius", "--r", 3, "--q", sympy.nextprime(2 ** 90)),
    ])
    def test_uncertifiable_input_exits_one(self, argv, run_cli):
        proc = run_cli(*argv)
        assert proc.returncode == 1
        assert proc.stderr == f"error: cannot certify primality of {sympy.nextprime(2 ** 90)}\n"

    @pytest.mark.parametrize("r", [89, 107, 127])
    def test_frobenius_above_the_proof_bound(self, r, tmp_path, capsys):
        # 2^r - 1 is a Mersenne prime, decided by Lucas-Lehmer
        path = tmp_path / "frob.json"
        assert main(["frobenius", "--r", str(r), "--json", str(path)]) == 0
        m = 2 ** r - 1
        result = json.loads(path.read_text())["results"][0]
        assert result["psi_h"] == str(m * (m * m - m + 1 + 2))

    def test_frobenius_unprintable_r_fails_fast(self, run_cli):
        # 2^9941 - 1 is prime, but its psi_H has 8978 digits
        started = time.perf_counter()
        proc = run_cli("frobenius", "--r", 9941)
        assert time.perf_counter() - started < 1
        assert proc.returncode == 1
        assert proc.stderr == ("error: psi_H for r = 9941 has more than 4300 digits, "
                               "the most Python converts to a decimal string\n")

    @pytest.mark.parametrize("r", [10 ** 7, 10 ** 8, 10 ** 9])
    def test_frobenius_huge_r_fails_before_multiplying_out_psi_h(self, r, run_cli):
        # 2^r alone would take seconds to minutes to multiply out
        started = time.perf_counter()
        proc = run_cli("frobenius", "--r", r)
        assert time.perf_counter() - started < 2
        assert proc.returncode == 1
        assert proc.stderr == (f"error: psi_H for r = {r} has more than 4300 digits, "
                               "the most Python converts to a decimal string\n")

    def test_frobenius_largest_printable_mersenne_exponent(self, run_cli):
        proc = run_cli("frobenius", "--r", 4423)
        m = 2 ** 4423 - 1
        assert proc.returncode == 0, proc.stderr
        assert f"psi_H (closed form) = {m * (m * m - m + 3)}\n" in proc.stdout

    @pytest.mark.parametrize("r, runs, code, flags", [
        pytest.param(127, 1, 0, (), id="127-1-0"),
        pytest.param(9941, 0, 1, (), id="9941-0-1"),
        pytest.param(4, 0, 1, (), id="4-0-1"),
        pytest.param(4423, 0, 1, ("--brute-force",), id="4423-0-1-brute-force"),
        pytest.param(127, 0, 1, ("--brute-force",), id="127-0-1-brute-force"),
        pytest.param(7, 0, 0, ("--brute-force",), id="7-0-0-brute-force"),
    ])
    def test_frobenius_runs_lucas_lehmer_at_most_once(self, r, runs, code, flags,
                                                      monkeypatch, capsys):
        calls = []

        def counted(n):
            calls.append(n)
            return lucas_lehmer(n)

        lucas_lehmer = numtheory._lucas_lehmer
        monkeypatch.setattr(numtheory, "_lucas_lehmer", counted)
        assert main(["frobenius", "--r", str(r), *flags]) == code
        assert calls == [2 ** r - 1] * runs

    @pytest.mark.parametrize("argv, primes", [
        (("--r", "7"), [("is_mersenne_exponent", 7)]),
        (("--r", "5", "--q", "7"), [("is_mersenne_exponent", 5), ("is_prime", 7)]),
    ], ids=["r7", "r5-q7"])
    def test_frobenius_brute_force_validates_the_spec_once(self, argv, primes, monkeypatch, capsys):
        # only outermost calls are recorded: is_mersenne_exponent calls is_prime
        calls, depth = [], [0]
        for name in ("is_mersenne_exponent", "is_prime"):
            def counted(n, name=name, test=getattr(numtheory, name)):
                if not depth[0]:
                    calls.append((name, n))
                depth[0] += 1
                try:
                    return test(n)
                finally:
                    depth[0] -= 1
            monkeypatch.setattr(numtheory, name, counted)
        assert main(["frobenius", *argv, "--brute-force"]) == 0
        assert calls == primes
        assert " OK\n" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, order", [
        (("--r", 4423), "2^4423 * (2^4423 - 1)"),
        (("--r", 13), "2^13 * (2^13 - 1)"),
        (("--r", 7, "--q", 1039), "2^7 * (2^7 - 1) * 1039"),
    ])
    def test_frobenius_brute_force_above_budget_fails_before_any_work(self, argv, order, run_cli):
        started = time.perf_counter()
        proc = run_cli("frobenius", *argv, "--brute-force")
        assert time.perf_counter() - started < 2
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == (f"error: group of order {order} exceeds the brute-force budget "
                               "2^24; use the closed form without --brute-force\n")

    @pytest.mark.parametrize("n", [
        sympy.nextprime(2 ** 60) * sympy.nextprime(2 ** 61),
        sympy.nextprime(2 ** 499) * sympy.nextprime(2 ** 500),
    ], ids=["121-bit", "1000-bit"])
    def test_unsplit_semiprime_fails_within_the_rho_work_budget(self, n, src_env):
        # the whole 2^24-step budget took 6-9 s at 121 bits and about a minute at 1000
        proc = subprocess.run([sys.executable, "-m", "relpsi.cli", "psi-cyclic", str(n)],
                              env=src_env, capture_output=True, text=True, timeout=5)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.startswith(f"error: cannot split {n}: Pollard rho found no divisor in ")

    def test_semiprime_with_a_38_bit_factor_still_splits(self, run_cli):
        # rho needs about 1.7 million steps, a second of work, to find p; q is
        # below the proof bound, so it is certified prime
        p, q = sympy.nextprime(2 ** 38), sympy.nextprime(2 ** 81)
        assert q < numtheory._MR_PROOF_BOUND < p * q
        proc = run_cli("psi-cyclic", p * q)
        assert (proc.returncode, proc.stdout) == (0, f"{(p * p - p + 1) * (q * q - q + 1)}\n")

    @pytest.mark.parametrize("n", [1, 2, 97, 392182, 524288, 720720, 1000000])
    def test_brute_force_matches_element_loop(self, n, capsys):
        expected = sum(n // gcd(n, k) for k in range(n))
        assert main(["psi-cyclic", str(n), "--brute-force"]) == 0
        assert capsys.readouterr().out.split() == [str(expected), str(expected), "OK"]

    # 14414400 has 504 divisors, the most of any n up to the cap (the next
    # highly composite number is 17297280); 16216200 has 480
    @pytest.mark.parametrize("n", [ELEMENT_CAP, 14414400, 16216200])
    def test_brute_force_at_cap(self, n, capsys):
        assert main(["psi-cyclic", str(n), "--brute-force"]) == 0
        assert capsys.readouterr().out.split()[2] == "OK"

    def test_brute_force_cap(self, capsys):
        assert main(["psi-cyclic", str(ELEMENT_CAP + 1), "--brute-force"]) == 1
        assert capsys.readouterr().err == "error: brute-force path capped at n = 2^24\n"

    def test_brute_force_cap_checked_before_factorizing(self, monkeypatch, capsys):
        # rho spends about 2 s on this semiprime before giving up on it
        def refuse(n):
            raise AssertionError("factorize called")
        monkeypatch.setattr(numtheory, "factorize", refuse)
        n = sympy.nextprime(2 ** 60) * sympy.nextprime(2 ** 61)
        assert main(["psi-cyclic", str(n), "--brute-force"]) == 1
        assert capsys.readouterr().err == "error: brute-force path capped at n = 2^24\n"


class TestScan:
    def test_small_scan_clean(self, capsys):
        assert main(["scan", "--max-order", "24"]) == 0
        assert "0 violations" in capsys.readouterr().out

    def test_default_scan_at_63_is_clean(self, capsys):
        assert main(["scan", "--max-order", "63"]) == 0
        assert "0 violations" in capsys.readouterr().out

    @pytest.mark.parametrize("max_order, message", [
        pytest.param(201, "exceeds the subgroup enumeration cap 200", id="201"),
        pytest.param(400, "exceeds the subgroup enumeration cap 200", id="400"),
        pytest.param(0, "must be at least 1", id="0"),
        pytest.param(-5, "must be at least 1", id="-5"),
    ])
    def test_max_order_above_lattice_cap_fails_fast(self, max_order, message, run_cli):
        proc = run_cli("scan", "--max-order", max_order)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == f"error: --max-order {max_order} {message}\n"

    def test_catalog_scan_matches_the_benchmark_expected_results(self, tmp_path, capsys):
        expected = Path(__file__).resolve().parents[1] / "perfbench" / "expected" / "catalog_scan.json"
        path = tmp_path / "scan.json"
        assert main(["scan", "--max-order", "100", "--include-frobenius", "--json", str(path)]) == 3
        assert json.loads(path.read_text())["results"] == json.loads(expected.read_text())

    def test_table_ingest_matches_the_benchmark_expected_results(self, bench_commands, capsys):
        # the seed-1 tables of the benchmark's table-ingest workload, checked by its own oracles
        commands = [c for c in bench_commands("table_ingest") if c.argv[0] != "bijection"]
        assert sorted({c.argv[0] for c in commands}) == ["check-bounds", "ratios"]
        assert len(commands) == 8
        run_benchmark_commands(commands)

    def test_group_that_raises_exits_2_ahead_of_violations(self, monkeypatch, capsys, tmp_path):
        scan = verify.subgroup_ratio_scan

        def fail_on_q8(G):
            if G.name == "Q8":
                raise RuntimeError("injected")
            return scan(G)
        monkeypatch.setattr(verify, "subgroup_ratio_scan", fail_on_q8)
        path = tmp_path / "scan.json"
        assert main(["scan", "--max-order", "56", "--include-frobenius",
                     "--json", str(path)]) == 2
        out, err = capsys.readouterr()
        assert err == "Q8: error: RuntimeError: injected\n"
        assert "VIOLATES" in out
        doc = json.loads(path.read_text())["results"][0]
        assert doc["errors"] == [{"group": "Q8", "error": "RuntimeError: injected"}]
        assert doc["flagged_groups"] == ["Frob(2,3)"]
        assert "Q8" not in [r["group"] for r in doc["results"]]

    def test_scan_never_calls_classify(self, monkeypatch, capsys, tmp_path):
        # the flags are read off each group's lattice
        def refuse(G):
            raise AssertionError("classify called")
        for name in classify.__all__:
            monkeypatch.setattr(classify, name, refuse)
        path = tmp_path / "scan.json"
        assert main(["scan", "--max-order", "100", "--include-frobenius", "--json", str(path)]) == 3
        doc = json.loads(path.read_text())["results"][0]
        assert doc["errors"] == [] and doc["groups_scanned"] == 142
        flags = {(r["nilpotent"], r["solvable"]) for r in doc["results"]}
        assert flags == {(True, True), (False, True), (False, False)}

    def test_scan_including_frobenius_flags(self, capsys, tmp_path):
        json_path = tmp_path / "scan.json"
        assert main(["scan", "--max-order", "56", "--include-frobenius",
                     "--json", str(json_path)]) == 3
        out = capsys.readouterr().out
        assert "VIOLATES" in out
        doc = json.loads(json_path.read_text())
        assert doc["results"][0]["flagged_groups"] == ["Frob(2,3)"]


class TestCayleyIngestion:
    def test_check_bounds_c12(self, capsys, tmp_path):
        path = write_cayley_file(tmp_path / "c12.txt", gc.cyclic(12), comment="C12")
        assert main(["check-bounds", path]) == 0
        assert "0 bound failures" in capsys.readouterr().out

    def test_check_bounds_takes_one_bound_per_index(self, monkeypatch, capsys, tmp_path):
        path = write_cayley_file(tmp_path / "s4.txt", gc.symmetric(4))
        calls = []
        for name in ("ratio_bounds_for_index", "cyclic_reference"):
            def counted(*args, name=name, fn=getattr(order_sums, name)):
                calls.append((name, args))
                return fn(*args)
            monkeypatch.setattr(order_sums, name, counted)
        assert main(["check-bounds", path]) == 0
        assert "0 bound failures over 30 subgroups" in capsys.readouterr().out
        # S4 has subgroups of index 2, 3, 4, 6, 8, 12 and 24 besides itself
        indices = (2, 3, 4, 6, 8, 12, 24)
        expected = ([("ratio_bounds_for_index", (q,)) for q in indices]
                    + [("cyclic_reference", (24, 24 // q)) for q in indices])
        assert sorted(calls) == sorted(expected)

    @pytest.mark.parametrize("command", ["ratios", "check-bounds"])
    def test_order_at_lattice_cap_answers(self, command, capsys, tmp_path):
        path = write_cayley_file(tmp_path / "c200.txt", gc.cyclic(LATTICE_CAP))
        assert main([command, path]) == 0
        # C200 has one subgroup per divisor of 200
        assert "over 12 subgroups" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, order, message", [
        (["ratios"], LATTICE_CAP + 1,
         "subgroup enumeration capped at order 200, group has 201"),
        (["check-bounds"], LATTICE_CAP + 1,
         "subgroup enumeration capped at order 200, group has 201"),
        (["bijection", "--subgroup", "1"], BIJECTION_CAP + 1,
         "bijection decision capped at order 10000"),
    ], ids=["ratios", "check-bounds", "bijection"])
    def test_order_past_cap_refused_before_parsing(self, argv, order, message, monkeypatch,
                                                   capsys, tmp_path):
        def refuse(*args, **kwargs):
            raise AssertionError("table body parsed")
        monkeypatch.setattr(np, "loadtxt", refuse)
        monkeypatch.setattr(cli, "_scan_cayley_lines", refuse)
        path = tmp_path / "g.txt"
        path.write_text(f"# C{order}\n{order}\n0 1 2\n")  # a body that is never read
        assert main([argv[0], str(path), *argv[1:]]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("argv, order, message", [
        (["ratios"], LATTICE_CAP + 1,
         "subgroup enumeration capped at order 200, group has 201"),
        (["check-bounds"], LATTICE_CAP + 1,
         "subgroup enumeration capped at order 200, group has 201"),
        (["bijection", "--subgroup", "1"], BIJECTION_CAP + 1,
         "bijection decision capped at order 10000"),
    ], ids=["ratios", "check-bounds", "bijection"])
    def test_signed_order_past_cap_refused_before_parsing(self, argv, order, message,
                                                          monkeypatch, capsys, tmp_path):
        # the order line takes a sign as every entry does, and is refused
        # from that line alike, whatever malformed body follows
        def refuse(*args, **kwargs):
            raise AssertionError("table body parsed")
        monkeypatch.setattr(np, "loadtxt", refuse)
        monkeypatch.setattr(cli, "_scan_cayley_lines", refuse)
        path = tmp_path / "g.txt"
        path.write_text(f"+{order}\n0 1 x\n")
        assert main([argv[0], str(path), *argv[1:]]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_ratios_c6(self, capsys, tmp_path):
        path = write_cayley_file(tmp_path / "c6.txt", gc.cyclic(6))
        assert main(["ratios", path]) == 0
        assert "0 violations over 4 subgroups" in capsys.readouterr().out

    def test_ratios_frobenius_violates(self, capsys, tmp_path):
        path = write_cayley_file(tmp_path / "frob.txt", gc.frobenius_field(2, 3))
        assert main(["ratios", path]) == 3
        assert "45/43 VIOLATES" in capsys.readouterr().out

    def test_parse_error_reports_line(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2\n0 1\n1 x\n")
        assert main(["ratios", str(path)]) == 1
        assert ":3:" in capsys.readouterr().err

    def test_wrong_row_length(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3\n0 1 2\n1 2\n2 0 1\n")
        assert main(["check-bounds", str(path)]) == 1
        assert "expected 3 entries" in capsys.readouterr().err

    def test_missing_file(self, capsys, tmp_path):
        path = tmp_path / "missing.tbl"
        assert main(["ratios", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: [Errno 2] ")
        assert str(path) in captured.err

    def test_invalid_table_rejected(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2\n0 1\n1 1\n")
        assert main(["check-bounds", str(path)]) == 1
        assert "Latin" in capsys.readouterr().err


class TestIntegerBoundChecks:
    """check-bounds decides psi_H / reference < num / den as psi_H * den <
    num * reference. On every subgroup of the catalog to order 64 and of the
    benchmark's four analysed tables, that gives the verdicts of the two
    Fraction comparisons: against the proved bounds, which hold, and
    against bounds set at the subgroups' own ratios, which some of them meet
    or pass."""

    GROUPS = [
        lambda: gc.symmetric(5),
        lambda: gc.dihedral(60),
        lambda: gc.direct_product([gc.frobenius_field(2, 3), gc.cyclic(3)]),
        lambda: gc.frobenius_field(3, 2),
    ]

    @staticmethod
    def own_ratio_bounds(G):
        """Per index q of a subgroup of G, the median and the largest of the
        ratios of its subgroups of index q, as a product and a spread bound."""
        subgroups = subgroup_lattice.all_subgroups(G)
        ratios = {}
        for H, value in zip(subgroups, order_sums.lattice_order_sums(G, subgroups)[0]):
            ratios.setdefault(H.index, []).append(
                Fraction(value, order_sums.cyclic_reference(G.order, H.order)))
        return {q: order_sums.IndexRatioBounds(product=sorted(r)[len(r) // 2], spread=max(r))
                for q, r in ratios.items()}

    @pytest.mark.parametrize("own", [False, True], ids=["proved bounds", "own ratios"])
    def test_verdicts_match_the_fraction_comparisons(self, own, catalog100, monkeypatch, tmp_path,
                                                     capsys):
        groups = [G for G in catalog100 if G.order <= 64] + [make() for make in self.GROUPS]
        path = tmp_path / "out.json"
        verdicts = Counter()
        for G in groups:
            bounds_for = self.own_ratio_bounds(G).get if own else order_sums.ratio_bounds_for_index
            monkeypatch.setattr(order_sums, "ratio_bounds_for_index", bounds_for)
            monkeypatch.setattr(cli, "load_cayley_file", lambda name, check_order, G=G: G)
            assert main(["check-bounds", G.name, "--json", str(path)]) in (0, 3), G.name
            rows = json.loads(path.read_text())["results"]
            assert len(rows) == len(subgroup_lattice.all_subgroups(G))
            for row in rows:
                q = row["index"]
                if q == 1:
                    assert set(row["checks"]) == {"quadratic_bound", "relative_order_le_index"}
                    continue
                bounds = bounds_for(q)
                ratio = Fraction(int(row["psi_h"]), order_sums.cyclic_reference(G.order, G.order // q))
                assert row["checks"]["product_bound"] == (ratio < bounds.product), (G.name, row)
                assert row["checks"]["spread_bound"] == (ratio < bounds.spread), (G.name, row)
                verdicts[row["checks"]["product_bound"], row["checks"]["spread_bound"]] += 1
        capsys.readouterr()
        assert sum(verdicts.values()) > 1500
        if own:
            assert verdicts[True, True] and verdicts[False, True] and verdicts[False, False]
        else:
            assert set(verdicts) == {(True, True)}


class TestCayleyLoader:
    @pytest.mark.parametrize("body, message", [
        ("3\n0 1 2\n1 1.0 0\n2 0 1\n", "{path}:3: non-integer token"),
        ("3\n0 1 2\n1 +1 0\n2 0 1\n", "row 1 is not a permutation (not a Latin square)"),
        ("3\n0 1 2\n1 1_0 0\n2 0 1\n", "{path}:3: non-integer token"),
        ("3\n0 1 2\n1 -1 0\n2 0 1\n", "table entries must lie in [0, n)"),
        (f"3\n0 1 2\n1 {2 ** 64} 0\n2 0 1\n", "table entries must be integers"),
        ("3\n0 1 2\n1 2\n2 0 1\n", "{path}:3: expected 3 entries, got 2"),
        ("3\n0 1 2\n1 2 0\n", "{path}: expected 3 table rows, got 2"),
        ("3\n0 1 2\n1 2 0\n2 0 1\n0 1 2\n", "{path}: expected 3 table rows, got 4"),
        ("3\n", "{path}: expected 3 table rows, got 0"),
        ("", "{path}: empty file"),
        # 2 + 256 and 2 + 65536: entries that wrap to valid ones in the uint8
        # and uint16 dtypes the table is parsed into
        (cyclic_table_text(3, bump=256), "table entries must lie in [0, n)"),
        (cyclic_table_text(300, bump=65536), "table entries must lie in [0, n)"),
        # digits are ASCII, as np.loadtxt reads them: int() alone would take these
        ("3\n0 1 2\n1 \u0662 0\n2 0 1\n", "{path}:3: non-integer token"),
        ("3\n0 1 2\n1 2 0\n2 0 \uff11\n", "{path}:4: non-integer token"),
        ("\u0663\n0 1 2\n1 2 0\n2 0 1\n", "{path}:1: non-integer token"),
    ], ids=["float", "plus-sign", "underscore", "negative", "2^64", "short-row",
            "missing-row", "extra-row", "no-rows", "empty", "C3+256", "C300+65536",
            "arabic-indic-entry", "fullwidth-entry", "arabic-indic-order"])
    def test_bad_input_message(self, capsys, tmp_path, body, message):
        # through bijection, whose cap admits order 300; ratios would refuse
        # that table from its order line before reading the body
        path = tmp_path / "bad.txt"
        path.write_text(body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # such as loadtxt's on an empty body
            assert main(["bijection", str(path), "--subgroup", "0"]) == 1
        assert capsys.readouterr().err == "error: " + message.format(path=path) + "\n"

    @pytest.mark.parametrize("body", [
        "# C3\n3\n0 1 2\n# between rows\n\n1 2 0\n  # indented\n2 0 1\n",
        "3\n0\t1\t2\n1 2\t0\n\t2 0 1\t\n",
        "# C3\r\n3\r\n0 1 2\r\n1 2 0\r\n2 0 1\r\n",
    ], ids=["comments", "tabs", "crlf"])
    def test_accepted_layouts(self, tmp_path, body):
        path = tmp_path / "c3.txt"
        path.write_bytes(body.encode())
        G = load_cayley_file(str(path))
        assert G.cayley_table().tolist() == [[0, 1, 2], [1, 2, 0], [2, 0, 1]]

    @pytest.mark.parametrize("make", [
        lambda: gc.symmetric(5),
        lambda: gc.dihedral(60),
        lambda: gc.direct_product([gc.frobenius_field(2, 3), gc.cyclic(3)]),
        lambda: gc.frobenius_field(3, 2),
        lambda: gc.frobenius_field(5, 2),
        lambda: gc.frobenius_field(2, 5),
    ], ids=["S5", "D60", "Frob(2,3)xC3", "Frob(3,2)", "Frob(5,2)", "Frob(2,5)"])
    def test_written_table_loads_back(self, tmp_path, make):
        G = make()
        loaded = load_cayley_file(write_cayley_file(tmp_path / "g.txt", G, comment=G.name))
        assert np.array_equal(loaded.cayley_table(), G.cayley_table())
        # kept as parsed, in uint8 up to order 256 (S5) and uint16 above (Frob(2,5))
        assert loaded._table_cache.dtype == np.min_scalar_type(G.order - 1)
        assert loaded.cayley_table().dtype == np.int64

    def test_peak_memory_stays_below_one_and_a_third_tables(self, tmp_path):
        # the body streams from the file into the table, which the group
        # keeps as parsed; its rows are sorted in small blocks and the columns
        # of a valid table never: 1.19 tables at C2000, where the 17.8 MB file
        # becomes a 7.6 MiB uint16 table, and np.loadtxt's own buffers set
        # the peak
        path = write_cayley_file(tmp_path / "c2000.txt", gc.cyclic(2000))
        tracemalloc.start()
        try:
            G = load_cayley_file(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.33 * G._table_cache.nbytes


# characters that seeded edits of table text are drawn from
TEXT_EDITS = "0123456789 \n\t\r-+#.,x"


def mutate_text(text, rng):
    """``text`` after 1-4 seeded replacements, deletions or insertions of
    one character."""
    for _ in range(rng.randint(1, 4)):
        at, char, edit = rng.randrange(len(text) + 1), rng.choice(TEXT_EDITS), rng.randrange(3)
        if edit == 0:  # replace
            text = text[:at] + char + text[at + 1:]
        elif edit == 1:  # delete
            text = text[:at] + text[at + 1:]
        else:  # insert
            text = text[:at] + char + text[at:]
    return text


class TestTableTextFuzz:
    """Seeded edits of 1-4 characters of small table files, each run through
    main(): it exits 1, with one error line, exactly when the reference
    reader or the reference axiom check rejects the text; otherwise its
    report, exit code and stdout are those of the reference's table written
    out cleanly under the same path."""

    def test_main_rejects_exactly_what_the_reference_rejects(self, tmp_path, capsys):
        from reference import check_table_axioms, read_table_text

        groups = [gc.symmetric(3), gc.quaternion8(), gc.cyclic(6), gc.dihedral(5), gc.alternating(4)]
        texts = [table_text(G.cayley_table().tolist(), G.name) for G in groups]
        path, report = tmp_path / "g.txt", tmp_path / "report.json"
        outcomes = Counter()
        for seed in range(600):
            rng = random.Random(f"table-text/{seed}")
            text = mutate_text(rng.choice(texts), rng)
            try:
                rows = read_table_text(text)
                check_table_axioms(rows)
            except ValueError:  # CayleyTableError is a ValueError
                rows = None
            command = ("ratios", "check-bounds", "bijection")[seed % 3]
            argv = [command, str(path), "--json", str(report)]
            if command == "bijection":
                argv += ["--subgroup", "1" if rows is None or len(rows) > 1 else "0"]
            path.write_text(text)
            report.unlink(missing_ok=True)
            code = main(argv)
            out, err = capsys.readouterr()
            outcomes[command, rows is not None] += 1
            if rows is None:
                assert code == 1 and err.startswith("error: ") and err.count("\n") == 1, (seed, text, err)
                continue
            assert code != 1, (seed, text, err)
            got = json.loads(report.read_text())
            path.write_text(table_text(rows))
            assert main(argv) == code, (seed, text)
            assert capsys.readouterr().out == out, (seed, text)
            want = json.loads(report.read_text())
            got.pop("timing_ms"), want.pop("timing_ms")
            assert got == want, (seed, text)
        assert all(outcomes[c, True] >= 3 and outcomes[c, False] for c in ("ratios", "check-bounds", "bijection")), outcomes


def label_free(command, code, doc):
    """What a `ratios` or `check-bounds` run reports that does not depend on
    the element labels: its exit code and its sorted (order, psi_H, ratio)
    or (order, index, psi_H, bound, all checks ok) rows."""
    if command == "ratios":
        rows = sorted((rec["subgroup_order"], rec["psi_h"], f"{rec['ratio']['num']}/{rec['ratio']['den']}")
                      for rec in doc["results"])
    else:
        rows = sorted((row["subgroup_order"], row["index"], row["psi_h"], row["bound"],
                       all(row["checks"].values())) for row in doc["results"])
    return code, rows


class TestRelabelledPermutationGroups:
    """Subgroups of S7, S8 and the Sylow 2-subgroup of S8 and 3-subgroup of
    S9, each generated by seeded words as in test_classify's seeded catalog,
    written as table files twice: as built, and with the elements renamed by
    a seeded permutation that keeps the identity at 0. `ratios` and
    `check-bounds` through main() give the same label-free projection on
    both files."""

    # (ambient, seed of the draw, order, nilpotent, cyclic, subgroups)
    DRAWS = [
        ("Syl3(S9)", 0, 81, True, False, 50),
        ("Syl2(S8)", 1, 128, True, False, 576),
        ("S7", 8, 12, True, True, 6),
        ("S7", 190, 120, False, False, 156),
        ("S7", 192, 72, False, False, 70),
        ("S8", 146, 36, False, False, 38),
    ]

    @staticmethod
    def draw(ambient, seed):
        from sympy.combinatorics import Permutation, PermutationGroup

        def perm(degree, *cycles):
            return Permutation([list(c) for c in cycles], size=degree)

        gens = {
            "Syl2(S8)": [perm(8, (0, 1)), perm(8, (0, 2), (1, 3)), perm(8, (0, 4), (1, 5), (2, 6), (3, 7))],
            "Syl3(S9)": [perm(9, (0, 1, 2)), perm(9, (0, 3, 6), (1, 4, 7), (2, 5, 8))],
            "S7": [perm(7, (0, 1)), perm(7, tuple(range(7)))],
            "S8": [perm(8, (0, 1)), perm(8, tuple(range(8)))],
        }[ambient]
        rng = random.Random(f"relabel/{ambient}/{seed}")
        words = []
        for _ in range(rng.randint(1, 3)):
            word = Permutation(gens[0].size - 1)
            for _ in range(rng.randint(1, 12)):
                word *= rng.choice(gens)
            words.append(word)
        return PermutationGroup(words), rng

    @pytest.mark.parametrize("ambient, seed, order, nilpotent, cyclic, subgroups", DRAWS,
                             ids=[f"{a}-{s}" for a, s, *_ in DRAWS])
    def test_projection_survives_relabelling(self, ambient, seed, order, nilpotent, cyclic,
                                             subgroups, tmp_path, capsys):
        S, rng = self.draw(ambient, seed)
        assert (S.order(), S.is_nilpotent, S.is_cyclic) == (order, nilpotent, cyclic)
        G = gc.PermutationGroup([tuple(p.array_form) for p in S.elements], name=f"<{ambient} draw>")
        rest = list(range(1, order))
        rng.shuffle(rest)
        perm = np.array([0, *rest])
        table = G.cayley_table()
        relabelled = np.empty_like(table)
        relabelled[np.ix_(perm, perm)] = perm[table]
        assert not (relabelled == table).all()
        paths = [tmp_path / "as-built.txt", tmp_path / "relabelled.txt"]
        for path, rows in zip(paths, (table, relabelled)):
            path.write_text(table_text(rows.tolist()))
        report = tmp_path / "report.json"
        for command in ("ratios", "check-bounds"):
            projections = []
            for path in paths:
                code = main([command, str(path), "--json", str(report)])
                capsys.readouterr()
                projections.append(label_free(command, code, json.loads(report.read_text())))
            assert projections[0] == projections[1], command
            assert len(projections[0][1]) == subgroups, command
            if nilpotent:  # no subgroup of a nilpotent group is above its cyclic reference
                assert projections[0][0] == 0, command


def patch_seed_weights(monkeypatch, change):
    """Give every group's seed weights, C_n's closed-form ones as every
    other group's, the in-place ``change``."""
    for cls in (gc.FiniteGroup, gc.CyclicGroup):
        def mutant(G, seeds=cls.cyclic_seeds):
            s, w = seeds(G)
            w = w.copy()
            change(w)
            return s, w
        monkeypatch.setattr(cls, "cyclic_seeds", mutant)


class TestOrderSumCrossCheck:
    """Each violating or failing subgroup's psi_H, and for check-bounds its
    largest relative order, is computed again through `relative_orders`;
    a disagreement with the lattice pass exits 2 in place of the verdict."""

    @pytest.fixture
    def rechecked(self, monkeypatch):
        """The subgroup orders that the cross-check recomputed, in order."""
        orders, recompute = [], verify.relative_orders

        def counted(G, H):
            orders.append(H.order)
            return recompute(G, H)
        monkeypatch.setattr(verify, "relative_orders", counted)
        return orders

    @pytest.fixture
    def wrong_seed_weight(self, monkeypatch):
        # the recorded mutant of `lattice_order_sums`: the identity's weight
        # moves onto the last seed, so the weights still sum to |G|
        def move(w):
            w[0] -= 1
            w[-1] += 1
        patch_seed_weights(monkeypatch, move)

    def test_agreement_keeps_the_verdicts(self, rechecked, capsys, tmp_path):
        assert main(["scan", "--max-order", "100", "--include-frobenius"]) == 3
        assert rechecked == [7] * 8
        rechecked.clear()
        G = gc.direct_product([gc.frobenius_field(2, 3), gc.cyclic(3)])
        assert main(["ratios", write_cayley_file(tmp_path / "f.txt", G)]) == 3
        assert len(rechecked) == 16
        assert "16 violations over 50 subgroups" in capsys.readouterr().out

    def test_scan_with_a_wrong_seed_weight_exits_2(self, wrong_seed_weight, capsys, tmp_path):
        path = tmp_path / "scan.json"
        assert main(["scan", "--max-order", "56", "--include-frobenius", "--json", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        pattern = (r"\S+: error: MISMATCH: psi_H of the subgroup of order \d+ is \d+ from the "
                   r"lattice pass and \d+ from relative_orders")
        assert err and all(re.fullmatch(pattern, line) for line in err)
        doc = json.loads(path.read_text())["results"][0]
        failed = [e["group"] for e in doc["errors"]]
        assert "Frob(2,3)" in failed and "C12" in failed
        assert doc["total_violations"] == 0

    def test_ratios_with_a_wrong_seed_weight_exits_2(self, wrong_seed_weight, capsys, tmp_path):
        G = gc.direct_product([gc.frobenius_field(2, 3), gc.cyclic(3)])
        path, json_path = write_cayley_file(tmp_path / "f.txt", G), tmp_path / "out.json"
        assert main(["ratios", path, "--json", str(json_path)]) == 2
        out = capsys.readouterr().out
        assert re.fullmatch(r"MISMATCH: psi_H of the subgroup of order \d+ is \d+ from the "
                            r"lattice pass and \d+ from relative_orders\n", out)
        assert json.loads(json_path.read_text())["results"] == [{"mismatch": out[10:-1]}]

    def test_check_bounds_with_a_wrong_largest_order_exits_2(self, monkeypatch, capsys, tmp_path):
        passes = order_sums.lattice_order_sums

        def mutant(G, subgroups):
            sums, largest = passes(G, subgroups)
            return sums, [value + 1 for value in largest]
        monkeypatch.setattr(order_sums, "lattice_order_sums", mutant)
        path = write_cayley_file(tmp_path / "c12.txt", gc.cyclic(12))
        assert main(["check-bounds", path]) == 2
        # only the trivial subgroup, with relative order 12 at index 12, fails
        assert capsys.readouterr().out == (
            "MISMATCH: the largest relative order over the subgroup of order 1 is 13 "
            "from the lattice pass and 12 from relative_orders\n")


class TestSubgroupCountCheck:
    """Every lattice that `scan`, `ratios` and `check-bounds` build is
    checked against Frobenius' theorem: for each p^k dividing |G| it holds
    1 mod p subgroups of order p^k. A lattice that misses one subgroup of
    prime-power order fails it and exits 2 in place of the verdict."""

    MESSAGE = "the lattice has {} subgroups of order {}, not 1 mod {} as Frobenius' theorem requires"

    @pytest.fixture(autouse=True)
    def dropped(self, monkeypatch):
        # subgroups[1], one of the least order above 1, has prime order
        lattice = subgroup_lattice.all_subgroups

        def mutant(G):
            subgroups = lattice(G)
            return subgroups[:1] + subgroups[2:]
        monkeypatch.setattr(subgroup_lattice, "all_subgroups", mutant)
        monkeypatch.setattr(verify, "all_subgroups", mutant)

    def test_scan_lists_every_group_under_errors(self, capsys, tmp_path):
        path = tmp_path / "scan.json"
        assert main(["scan", "--max-order", "12", "--include-frobenius", "--json", str(path)]) == 2
        err = capsys.readouterr().err
        doc = json.loads(path.read_text())["results"][0]
        # of the 24 groups, only C1, with no subgroup to drop, is scanned
        assert [r["group"] for r in doc["results"]] == ["C1"]
        assert len(doc["errors"]) == len(err.splitlines()) == 23
        assert {"group": "S3", "error": "MISMATCH: " + self.MESSAGE.format(2, 2, 2)} in doc["errors"]
        assert {"group": "C7", "error": "MISMATCH: " + self.MESSAGE.format(0, 7, 7)} in doc["errors"]
        assert "S3: error: MISMATCH: " + self.MESSAGE.format(2, 2, 2) in err.splitlines()

    @pytest.mark.parametrize("command", ["ratios", "check-bounds"])
    def test_table_commands_exit_2(self, command, capsys, tmp_path):
        path = write_cayley_file(tmp_path / "s4.txt", gc.symmetric(4))
        json_path = tmp_path / "out.json"
        assert main([command, path, "--json", str(json_path)]) == 2
        problem = self.MESSAGE.format(8, 2, 2)
        assert capsys.readouterr().out == f"MISMATCH: {problem}\n"
        assert json.loads(json_path.read_text())["results"] == [{"mismatch": problem}]


class TestTrivialAndWholeGroupCheck:
    """Every lattice must also hold exactly one subgroup of order 1 and one
    of order |G|. Frobenius' counts miss either where |G| is not a prime
    power: with {e} dropped C6 would report psi 14 in place of 21, and with
    G dropped a subgroup count one too low, both as results. Either lattice
    exits 2 in place of the verdict."""

    MESSAGE = "the lattice has 0 subgroups of order {}, where every group has exactly one, {}"
    FROBENIUS = "the lattice has 0 subgroups of order {}, not 1 mod {} as Frobenius' theorem requires"

    @pytest.fixture(params=["trivial", "whole"])
    def dropped(self, request, monkeypatch):
        """The lattice without its first subgroup, {e}, or its last, G."""
        lattice, cut = subgroup_lattice.all_subgroups, {"trivial": slice(1, None), "whole": slice(-1)}
        monkeypatch.setattr(subgroup_lattice, "all_subgroups", lambda G: lattice(G)[cut[request.param]])
        monkeypatch.setattr(verify, "all_subgroups", subgroup_lattice.all_subgroups)
        return request.param

    def expected(self, dropped, n):
        return self.MESSAGE.format(1, "the trivial subgroup") if dropped == "trivial" else (
            self.MESSAGE.format(n, "the group itself"))

    def test_scan_lists_every_group_under_errors(self, dropped, capsys, tmp_path):
        path = tmp_path / "scan.json"
        assert main(["scan", "--max-order", "12", "--include-frobenius", "--json", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        doc = json.loads(path.read_text())["results"][0]
        assert doc["results"] == [] and doc["total_violations"] == 0
        errors = {e["group"]: e["error"][len("MISMATCH: "):] for e in doc["errors"]}
        assert len(errors) == len(err) == 24
        for group in ("C6", "C12", "C2xC2xC3", "D6"):
            assert errors[group] == self.expected(dropped, 6 if group == "C6" else 12), group
            assert f"{group}: error: MISMATCH: {errors[group]}" in err
        # C1's one subgroup is both; of prime-power order, Frobenius' count names G first
        assert errors["C1"] == self.MESSAGE.format(1, "the trivial subgroup")
        if dropped == "whole":
            assert errors["C4"] == self.FROBENIUS.format(4, 2)

    @pytest.mark.parametrize("command", ["ratios", "check-bounds"])
    def test_table_commands_exit_2(self, dropped, command, capsys, tmp_path):
        path = write_cayley_file(tmp_path / "d6.txt", gc.dihedral(6))
        json_path = tmp_path / "out.json"
        assert main([command, path, "--json", str(json_path)]) == 2
        problem = self.expected(dropped, 12)
        assert capsys.readouterr() == (f"MISMATCH: {problem}\n", "")
        assert json.loads(json_path.read_text())["results"] == [{"mismatch": problem}]


class TestSeedWeightCheck:
    """The seed weights, the generator counts phi(|C|) of the cyclic
    subgroups C, must sum to |G|, since each element generates exactly one
    of them; weights that do not exit 2 before any order sum is read."""

    MESSAGE = ("the seed weights sum to {}, not to the group order {} that the "
               "generators of the cyclic subgroups make up")

    @pytest.fixture(autouse=True)
    def one_too_many(self, monkeypatch):
        def bump(w):
            w[-1] += 1
        patch_seed_weights(monkeypatch, bump)

    def test_scan_lists_every_group_under_errors(self, capsys, tmp_path):
        path = tmp_path / "scan.json"
        assert main(["scan", "--max-order", "12", "--include-frobenius", "--json", str(path)]) == 2
        err = capsys.readouterr().err
        doc = json.loads(path.read_text())["results"][0]
        assert doc["results"] == [] and doc["total_violations"] == 0
        assert len(doc["errors"]) == len(err.splitlines()) == 24
        assert {"group": "C1", "error": "MISMATCH: " + self.MESSAGE.format(2, 1)} in doc["errors"]
        assert "S3: error: MISMATCH: " + self.MESSAGE.format(7, 6) in err.splitlines()

    @pytest.mark.parametrize("command", ["ratios", "check-bounds"])
    def test_table_commands_exit_2(self, command, capsys, tmp_path):
        path = write_cayley_file(tmp_path / "s4.txt", gc.symmetric(4))
        json_path = tmp_path / "out.json"
        assert main([command, path, "--json", str(json_path)]) == 2
        problem = self.MESSAGE.format(25, 24)
        assert capsys.readouterr().out == f"MISMATCH: {problem}\n"
        assert json.loads(json_path.read_text())["results"] == [{"mismatch": problem}]


class TestFlippedMaskBit:
    """One extra bit in the mask row of the first subgroup of order 6 of a
    group of order 24 makes a lattice entry of order 7. Lagrange's theorem
    refuses that lattice before any cyclic reference is computed, so every
    command exits 2, where the reference or the relative orders of the
    false entry would have raised and exited 1."""

    MESSAGE = ("MISMATCH: the lattice has a subgroup of order 7, which does not divide 24 "
               "as Lagrange's theorem requires")

    @pytest.fixture(autouse=True)
    def flipped(self, monkeypatch):
        lattice = subgroup_lattice.all_subgroups

        def mutant(G):
            subgroups = lattice(G)
            if G.order == 24:
                i = next(i for i, H in enumerate(subgroups) if H.order == 6)
                mask = subgroups[i].mask().copy()
                mask[mask.argmin()] = True
                mask.setflags(write=False)
                subgroups[i] = subgroup_lattice._closed(G, mask, 7)
            return subgroups
        monkeypatch.setattr(subgroup_lattice, "all_subgroups", mutant)
        monkeypatch.setattr(verify, "all_subgroups", mutant)

    def test_scan_lists_each_group_of_order_24_under_errors(self, capsys, tmp_path):
        path = tmp_path / "scan.json"
        assert main(["scan", "--max-order", "24", "--json", str(path)]) == 2
        err = capsys.readouterr().err
        doc = json.loads(path.read_text())["results"][0]
        errors = {e["group"]: e["error"] for e in doc["errors"]}
        assert sorted(errors) == sorted(["C24", "C4xC2xC3", "C2xC2xC2xC3", "D12", "S4", "Q8xC3"])
        assert set(errors.values()) == {self.MESSAGE}
        assert f"S4: error: {self.MESSAGE}" in err.splitlines()
        assert all(r["group_order"] != 24 for r in doc["results"])

    @pytest.mark.parametrize("command", ["ratios", "check-bounds"])
    def test_table_commands_exit_2(self, command, capsys, tmp_path):
        path = write_cayley_file(tmp_path / "s4.txt", gc.symmetric(4))
        json_path = tmp_path / "out.json"
        assert main([command, path, "--json", str(json_path)]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == (self.MESSAGE + "\n", "")
        assert json.loads(json_path.read_text())["results"] == [{"mismatch": self.MESSAGE[10:]}]


class TestBijectionCommand:
    def test_cyclic_positive(self, capsys, tmp_path):
        path = write_cayley_file(tmp_path / "c6.txt", gc.cyclic(6))
        assert main(["bijection", path, "--subgroup", "3"]) == 0
        assert "BIJECTION EXISTS" in capsys.readouterr().out

    def test_frobenius_negative_with_certificate(self, capsys, tmp_path):
        G = gc.frobenius_field(2, 3)
        path = write_cayley_file(tmp_path / "frob.txt", G)
        gen = str(G.encode(0, 1))
        assert main(["bijection", path, "--subgroup", gen]) == 3
        out = capsys.readouterr().out
        assert "NO BIJECTION" in out
        assert "deficiency: 42" in out

    def test_corrupted_witness_exits_2(self, capsys, tmp_path, monkeypatch):
        from relpsi import verify

        decide = verify.bijection_exists

        def corrupted(G, H):
            # 1 has relative order 3 over {0, 3}: give it the image 0, of relative order 1
            witness = list(decide(G, H).witness)
            y = witness.index(0)
            witness[1], witness[y] = witness[y], witness[1]
            return verify.BijectionResult(exists=True, witness=tuple(witness))

        monkeypatch.setattr(verify, "bijection_exists", corrupted)
        path = write_cayley_file(tmp_path / "c6.txt", gc.cyclic(6))
        json_path = tmp_path / "out.json"
        assert main(["bijection", path, "--subgroup", "3", "--json", str(json_path)]) == 2
        out = capsys.readouterr().out
        assert out.startswith("CERTIFICATE MISMATCH: element ")
        assert "BIJECTION EXISTS" not in out
        doc = json.loads(json_path.read_text())["results"][0]
        assert doc["exists"] is True and doc["certificate_error"] == out.split(": ", 1)[1].strip()

    def test_corrupted_min_cut_exits_2(self, capsys, tmp_path, monkeypatch):
        # a residual graph that reaches nothing past the source names no
        # deficient value, which proves nothing
        from relpsi.matching import MaxFlow

        monkeypatch.setattr(MaxFlow, "min_cut_reachable", lambda self, source: {source})
        G = gc.frobenius_field(2, 3)
        path = write_cayley_file(tmp_path / "frob.txt", G)
        assert main(["bijection", path, "--subgroup", str(G.encode(0, 1))]) == 2
        out = capsys.readouterr().out
        assert out.startswith("CERTIFICATE MISMATCH: the deficient values {} are not more than")
        assert "NO BIJECTION" not in out

    def test_bad_generator_list(self, capsys, tmp_path):
        path = write_cayley_file(tmp_path / "c6.txt", gc.cyclic(6))
        assert main(["bijection", path, "--subgroup", "1,a"]) == 1

    def test_first_invalid_encoding_is_named(self, capsys, tmp_path):
        # checked in the order given, not sorted: 5 comes before -1
        path = write_cayley_file(tmp_path / "c4.txt", gc.cyclic(4))
        assert main(["bijection", path, "--subgroup", "5,-1"]) == 1
        assert capsys.readouterr().err.startswith("error: 5 is not a valid element encoding")


class TestJsonOutput:
    def test_roundtrip_byte_identical(self, tmp_path):
        json_path = tmp_path / "out.json"
        assert main(["frobenius", "--r", "3", "--json", str(json_path)]) == 0
        text = json_path.read_text()
        doc = json.loads(text)
        assert json.dumps(doc, indent=2) + "\n" == text

    def test_report_is_streamed_to_its_file(self, tmp_path):
        # a large report is written as it is encoded, with no copy of its
        # whole text in memory, and reads back as the same text
        path = tmp_path / "out.json"
        results = [{"subgroup_order": i, "psi_h": str(i * i)} for i in range(30_000)]
        tracemalloc.start()
        try:
            cli._emit_json(str(path), "ratios big.txt", results, time.monotonic())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        text = path.read_text()
        assert json.dumps(json.loads(text), indent=2) + "\n" == text
        assert peak < len(text) / 4

    def test_long_list_is_streamed_to_its_file(self, tmp_path):
        # a list of scalars, like a bijection witness, is written in pieces too
        path = tmp_path / "out.json"
        results = [{"exists": True, "witness": list(range(200_000))}]
        tracemalloc.start()
        try:
            cli._emit_json(str(path), "bijection big.txt --subgroup 0", results, time.monotonic())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        text = path.read_text()
        assert json.dumps(json.loads(text), indent=2) + "\n" == text
        assert peak < len(text) / 4

    def test_schema_and_rational_encoding(self, tmp_path):
        json_path = tmp_path / "out.json"
        main(["frobenius", "--r", "3", "--json", str(json_path)])
        doc = json.loads(json_path.read_text())
        assert doc["schema_version"] == "1"
        assert doc["command"] == "frobenius --r 3"
        assert isinstance(doc["timing_ms"], int)
        result = doc["results"][0]
        assert result["ratio"] == {"num": "45", "den": "43"}
        assert result["psi_h"] == "315"
        # no floats anywhere in the document
        def no_floats(node):
            if isinstance(node, float):
                return False
            if isinstance(node, dict):
                return all(no_floats(v) for v in node.values())
            if isinstance(node, list):
                return all(no_floats(v) for v in node)
            return True

        assert no_floats(doc)

    def test_unwritable_path_exits_one(self, capsys, tmp_path):
        path = tmp_path / "missing-dir" / "x.json"
        assert main(["psi-cyclic", "7", "--json", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "43\n"
        assert captured.err.startswith("error: [Errno 2] ")
        assert not path.parent.exists()


# strings with quotes, backslashes, control characters and non-ASCII text
REPORT_TEXT = st.text(st.one_of(st.characters(), st.sampled_from('"\\\x00\x1f\x7f\u2028é😀')),
                      max_size=12)
REPORT_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(1 << 64, 1 << 80),
    st.integers(-(1 << 80), -(1 << 64)), REPORT_TEXT)
REPORT_DOCS = st.recursive(
    REPORT_SCALARS,
    lambda children: st.one_of(st.lists(children, max_size=4), st.tuples(children, children),
                               st.dictionaries(REPORT_TEXT, children, max_size=4)),
    max_leaves=40)


def written(doc):
    """The text that `cli._write_json` writes for ``doc``."""
    out = io.StringIO()
    cli._write_json(out, doc)
    return out.getvalue()


class TestReportWriter:
    """`cli._write_json` writes what ``json.dumps(doc, indent=2)`` does, and
    a newline, for every document of report values, and refuses any other
    value."""

    @settings(max_examples=400, deadline=None)
    @given(REPORT_DOCS)
    def test_matches_json_dumps(self, doc):
        assert written(doc) == json.dumps(doc, indent=2) + "\n"

    def test_deep_and_empty_containers(self):
        doc = {"": [], "e": {}, "t": ()}
        for depth in range(60):
            doc = [doc, {}] if depth % 2 else {"k%d" % depth: doc, "x": [[]]}
        assert written(doc) == json.dumps(doc, indent=2) + "\n"
        for doc in ([], {}, (), "", 0, None, True):
            assert written(doc) == json.dumps(doc, indent=2) + "\n"

    @pytest.mark.parametrize("doc", [
        {"ratio": 0.5},
        [1, [2, 1.0]],
        {"n": np.int64(3)},
        {1: "a"},
        {"members": {1, 2}},
    ], ids=["float", "nested float", "numpy int64", "int key", "set"])
    def test_refuses_other_values(self, doc):
        with pytest.raises(TypeError):
            written(doc)


class TestReportBytes:
    """Every command's --json report, on each of its branches, is the text
    that ``json.JSONEncoder(indent=2)`` encodes for the document it holds,
    and a newline."""

    @pytest.fixture
    def tables(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_cayley_file(tmp_path / "c6.txt", gc.cyclic(6))
        write_cayley_file(tmp_path / "frob.txt", gc.frobenius_field(2, 3))
        return str(gc.frobenius_field(2, 3).encode(0, 1))

    @pytest.mark.parametrize("argv, code", [
        (["psi-cyclic", "360"], 0),
        (["psi-cyclic", "360", "--brute-force"], 0),
        (["frobenius", "--r", "3"], 0),
        (["frobenius", "--r", "3", "--brute-force"], 0),
        (["scan", "--max-order", "56", "--include-frobenius"], 3),
        (["ratios", "frob.txt"], 3),
        (["check-bounds", "frob.txt"], 0),
        (["bijection", "c6.txt", "--subgroup", "3"], 0),
        (["bijection", "frob.txt", "--subgroup", "{complement}"], 3),
    ], ids=lambda value: " ".join(value) if isinstance(value, list) else None)
    def test_each_command(self, argv, code, tables, capsys):
        argv = [arg.format(complement=tables) for arg in argv]
        assert main(argv + ["--json", "out.json"]) == code
        text = Path("out.json").read_text()
        assert text == json.JSONEncoder(indent=2).encode(json.loads(text)) + "\n"

    def test_mismatch_report(self, tables, monkeypatch, capsys):
        # the wrong_seed_weight mutant of TestOrderSumCrossCheck
        def move(w):
            w[0] -= 1
            w[-1] += 1
        patch_seed_weights(monkeypatch, move)
        assert main(["ratios", "frob.txt", "--json", "out.json"]) == 2
        text = Path("out.json").read_text()
        assert "mismatch" in json.loads(text)["results"][0]
        assert text == json.JSONEncoder(indent=2).encode(json.loads(text)) + "\n"


def test_unknown_command_exits_one():
    assert main(["no-such-command"]) == 1


class TestSharedParser:
    """`main` builds its parser once per process and shares it: each call in
    a sequence answers as the same command alone in a fresh process does."""

    # (argv, whether the command writes a --json report)
    COMMANDS = [
        (["frobenius"], False),  # usage error: --r is required
        (["--help"], False),
        (["psi-cyclic", "0"], False),  # bad input
        (["psi-cyclic", "360"], True),
        (["frobenius", "--r", "7"], True),
        (["scan", "--max-order", "12"], True),
    ]

    @staticmethod
    def report(path):
        """The --json report without its timing, or None when none was written."""
        if not path.exists():
            return None
        doc = json.loads(path.read_text())
        path.unlink()
        assert isinstance(doc.pop("timing_ms"), int)
        return doc

    def test_each_call_answers_as_a_fresh_process(self, src_env, monkeypatch, capsys, tmp_path):
        # --help wraps at the terminal width, so both sides get the same one
        env = {**src_env, "COLUMNS": "80"}
        monkeypatch.setenv("COLUMNS", "80")
        fresh = {}
        for argv, writes in self.COMMANDS:
            path = tmp_path / "fresh.json"
            proc = subprocess.run([sys.executable, "-m", "relpsi.cli", *argv,
                                   *(["--json", str(path)] if writes else [])],
                                  env=env, capture_output=True, text=True, timeout=60)
            fresh[tuple(argv)] = (proc.returncode, proc.stdout, proc.stderr, self.report(path))
        assert [fresh[tuple(argv)][0] for argv, _ in self.COMMANDS] == [1, 0, 1, 0, 0, 0]
        assert [fresh[tuple(argv)][3] is not None for argv, _ in self.COMMANDS] == \
            [writes for _, writes in self.COMMANDS]
        # twice through, so every command also follows every other one
        for argv, writes in self.COMMANDS * 2:
            path = tmp_path / "shared.json"
            code = main([*argv, *(["--json", str(path)] if writes else [])])
            out, err = capsys.readouterr()
            assert (code, out, err, self.report(path)) == fresh[tuple(argv)], argv
        assert cli.build_parser() is cli.build_parser()

    def test_import_builds_no_parser(self, src_env):
        code = ("import relpsi.cli as cli; "
                "assert cli.build_parser.cache_info().currsize == 0; "
                "assert cli.main(['psi-cyclic', '7']) == 0; "
                "assert cli.build_parser.cache_info().currsize == 1")
        proc = subprocess.run([sys.executable, "-c", code], env=src_env, timeout=60,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

"""Tests of the benchmark itself, on its ``--tiny`` sizes.

Run from the root of the repository:

    python3 -m pytest -q perfbench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

MODULES = run.load_package()
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        capture_output=True,
        text=True,
        timeout=170,
        cwd=cwd,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    done = bench("--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", trace, "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    # the known int-to-str defect shows on closed-form only
    assert (result["failed"] > 0) == (workload == "closed-form")
    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_counts_depend_on_the_seed_not_on_the_time():
    counts = []
    for seconds in ("0.1", "2"):
        done = bench("--workload", "closed-form", "--seed", "3", "--seconds", seconds, "--trace", "0", "--tiny")
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.splitlines()[-1])
        counts.append((result["attempted"], result["failed"]))
        passes = [line for line in done.stdout.splitlines() if line.startswith("# workload")]
        counts[-1] += (passes[0].split(", ")[-1],)
    assert counts[0][:2] == counts[1][:2]
    assert counts[0][2] != counts[1][2]  # the longer run did more passes


def _record_check(line: str, accepted=None) -> workloads.Outcome:
    certifier = MODULES["certifier"]
    cert = certifier.parse_certificate(line)
    if accepted is None:
        accepted = certifier.check_certificate(cert)
    return workloads.check_records(
        [(cert.n, cert.t)], [(cert, accepted)], 0, "", workloads.Expectations()
    )


def test_untampered_record_verifies():
    line = MODULES["certifier"].format_certificate(MODULES["certifier"].certify(13, 3))
    assert _record_check(line).verified == 1


@pytest.mark.parametrize("trust_checker", [False, True])
def test_tampered_ball_is_failed(trust_checker):
    certifier = MODULES["certifier"]
    cert = certifier.certify(13, 3)
    line = certifier.format_certificate(cert).replace(f"ball={cert.ball}", f"ball={cert.ball + 1}")
    # with the package's checker overridden, the benchmark's own ball must catch it
    outcome = _record_check(line, accepted=True if trust_checker else None)
    assert outcome.verified == 0 and outcome.wrong


@pytest.mark.parametrize("trust_checker", [False, True])
def test_flipped_verdict_is_failed(trust_checker):
    certifier = MODULES["certifier"]
    cert = certifier.certify(4, 1)  # ball 4 divides 4!: INCONCLUSIVE
    assert cert.verdict == certifier.INCONCLUSIVE
    line = certifier.format_certificate(cert).replace(
        "verdict=INCONCLUSIVE", "verdict=NONEXISTENT_PRIME_FACTOR"
    )
    outcome = _record_check(line, accepted=True if trust_checker else None)
    assert outcome.verified == 0 and outcome.wrong


def test_missing_record_is_failed():
    outcome = workloads.check_records([(13, 3)], [], 0, "", workloads.Expectations())
    assert outcome.failures == {"missing": 1} and outcome.wrong


def test_failures_past_the_digit_limit_are_exactly_the_unprintable_records():
    oracle = workloads.Expectations()
    ops = [workloads.Op("records", ("scan", "--t", "2", "--from", "1555", "--to", "1570"),
                        [(n, 2) for n in range(1555, 1571)])]
    result = run.Bench(MODULES, ops, oracle).run_pass(None)
    assert not result.wrong
    first = min(n for n in range(1555, 1571) if oracle.unserializable(n, 2))
    assert first == 1561
    assert result.verified == first - 1555
    assert result.failures == {"unserializable": 1, "after_unserializable": 1570 - first}


def test_search_nodes_for_6_1():
    trace = tracer.Tracer()
    trace.install(MODULES)
    try:
        found = MODULES["oracle"].search_perfect_code(6, 1)
    finally:
        trace.uninstall()
    assert found.outcome == "EXHAUSTED_NONE"
    assert trace.counters["oracle.search.nodes"] == 160
    assert MODULES["oracle"].search_perfect_code.__name__ == "search_perfect_code"


def test_speed_probe_judges_an_interval_by_the_samples_that_bracket_it():
    probe = speed.SpeedProbe()
    probe.samples = [0.001, 0.002, 0.004, 0.001]
    probe.times = [0.0, 1.0, 2.0, 10.0]
    assert probe.slowdown(1.02, 1.03) == pytest.approx(3.0)
    assert probe.slowdown(0.5, 1.0) == pytest.approx(1.5)
    # samples inside a long interval count too
    assert probe.slowdown(0.5, 1.5) == pytest.approx(2.0)
    assert probe.slowdown(0.0, 10.0) == pytest.approx(1.5)


def test_truncated_rows_match_the_package():
    mahonian = MODULES["mahonian"]
    table = mahonian.build_table(20)
    oracle = workloads.Expectations()
    for t in range(0, 31):
        for n in range(2, 21):
            assert oracle.ball(n, t) == mahonian.ball_size(table, n, min(t, mahonian.max_distance(n))).value
    for t in range(2, 6):
        for n in (t, 100, 1561, 10_000):
            assert oracle.ball(n, t) == mahonian.ball_closed_form(n, t)


def test_tsv_digest_matches_the_cli():
    sink = run.Sink(keep=False)
    saved = sys.stdout
    sys.stdout = sink
    try:
        assert MODULES["cli"].main(["table", "--max-n", "9"]) == 0
    finally:
        sys.stdout = saved
    assert sink.digest() == workloads.Expectations().tsv(9)


def test_without_sources_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "oracle", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_probe_pauses_are_cut_out_and_each_piece_scaled_by_its_own_speed():
    probe = speed.SpeedProbe()
    probe.samples = [0.001, 0.001, 0.003, 0.003]
    probe.times = [0.0, 1.0, 2.0, 3.0]
    probe.pauses = [(1.0, 1.5), (4.0, 4.5)]
    raw, scaled = probe.scaled(0.9, 2.1)
    # 0.1 s bracketed by samples at speed 1, the pause cut, then 0.6 s
    # bracketed by the samples at 1.0 and 3.0, with the one at 2.0 inside
    assert raw == pytest.approx(0.7)
    assert scaled == pytest.approx(0.1 + 0.6 / 3.0)
    assert speed.NoProbe().scaled(1.0, 3.5) == (2.5, 2.5)


def test_probe_samples_inside_a_long_operation():
    probe = speed.SpeedProbe()
    with probe.inside():
        start = perf_counter()
        while perf_counter() - start < 0.3:
            sum(range(1000))
        end = perf_counter()
    assert len(probe.pauses) >= 3
    assert all(start <= t <= end + 0.01 for t in probe.times)
    raw, _ = probe.scaled(start, end)
    assert raw == pytest.approx(end - start - sum(b - a for a, b in probe.pauses), abs=1e-6)

"""Benchmark of the kendallcodes CLI, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload closed-form --seed 1 --seconds 30 --trace 0

It builds one pass of operations from ``--workload`` and ``--seed`` (see
``workloads.py``), drives the CLI in-process through
``kendallcodes.cli.main(argv)`` one operation at a time (a closed loop,
one process, default flags), and repeats the pass until ``--seconds``
would be exceeded by another one.  After the operations of a pass, and
outside their timing, it parses and re-checks every record they printed
(the ``recheck`` timing) and then checks all output against its own
arithmetic.  Untraced timings are scaled by the machine's speed at the
time, sampled between and during the operations (see ``speed.py``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports per-layer metrics per traced pass
(see ``tracer.py``).  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The counts
are those of one pass, so they repeat exactly for a seed.  The lines
before it say how the figures were obtained.  ``--tiny`` shrinks every
workload for the benchmark's own tests.

The process-wide int-to-str digit limit is left at Python's default on
purpose: records it stops from being printed count as failed.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import speed
import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 11
# The first answer of a fresh process: import plus whatever the package
# sets up lazily (today the 10^6 trial-division sieve).
FIRST_ANSWER = ("certify", "--n", "13", "--t", "3")
SETUP_PROBE = """
import contextlib, io, sys, time
sys.path.insert(0, sys.argv[1])
import speed
probe = speed.SpeedProbe()
probe.sample()
start = time.perf_counter()
sys.path.insert(0, sys.argv[2])
from kendallcodes import cli
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(sys.argv[3:])
end = time.perf_counter()
probe.sample()
print((end - start) / probe.slowdown(start, end))
"""

TAIL_LADDER = (99, 95, 90, 75, 50)
MIN_RECHECK_S = 0.5

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "records_per_s": "1/s",
    "recheck_per_s": "1/s",
    "stdout_mb": "MB",
    "peak_rss_mb": "MB",
    "verified_frac": "ratio",
}

# Per-layer metrics: (name, unit, source).  Sources: ("span", key, field)
# with field 0 calls, 1 inclusive s, 2 self s; ("counter", name);
# ("layer", layer) for the layer's self time inside run_s.
PER_LAYER = (
    ("cli.self_s", "s", ("layer", "cli")),
    ("certifier.self_s", "s", ("layer", "certifier")),
    ("certifier.certify.calls", "count", ("span", "certifier.certify", 0)),
    ("certifier.certify.self_s", "s", ("span", "certifier.certify", 2)),
    ("certifier.format.s", "s", ("span", "certifier.format", 1)),
    ("certifier.ball_value.s", "s", ("span", "certifier.ball_value", 1)),
    ("certifier.parse.s", "s", ("span", "certifier.parse", 1)),
    ("certifier.check.s", "s", ("span", "certifier.check", 1)),
    ("certifier.check.self_s", "s", ("span", "certifier.check", 2)),
    ("certifier.verdict.prime_factor", "count", ("counter", "certifier.verdict.prime_factor")),
    ("certifier.verdict.not_dividing", "count", ("counter", "certifier.verdict.not_dividing")),
    ("certifier.verdict.inconclusive", "count", ("counter", "certifier.verdict.inconclusive")),
    ("certifier.degraded", "count", ("counter", "certifier.degraded")),
    ("mahonian.self_s", "s", ("layer", "mahonian")),
    ("mahonian.build_table.calls", "count", ("span", "mahonian.build_table", 0)),
    ("mahonian.build_table.s", "s", ("span", "mahonian.build_table", 1)),
    ("mahonian.build_table.cells", "count", ("counter", "mahonian.build_table.cells")),
    ("mahonian.closed_form.calls", "count", ("span", "mahonian.closed_form", 0)),
    ("numtheory.self_s", "s", ("layer", "numtheory")),
    ("numtheory.factorial.calls", "count", ("span", "numtheory.factorial", 0)),
    ("numtheory.factorial.s", "s", ("span", "numtheory.factorial", 1)),
    ("numtheory.factorial.bits", "bits", ("counter", "numtheory.factorial.bits")),
    ("numtheory.factorize.calls", "count", ("span", "numtheory.factorize", 0)),
    ("numtheory.factorize.s", "s", ("span", "numtheory.factorize", 1)),
    ("numtheory.is_probable_prime.calls", "count", ("span", "numtheory.is_probable_prime", 0)),
    ("numtheory.is_probable_prime.s", "s", ("span", "numtheory.is_probable_prime", 1)),
    ("numtheory.factorial_valuation.calls", "count", ("span", "numtheory.factorial_valuation", 0)),
    ("oracle.self_s", "s", ("layer", "oracle")),
    ("oracle.inversion_histogram.s", "s", ("span", "oracle.inversion_histogram", 1)),
    ("oracle.ball_census.s", "s", ("span", "oracle.ball_census", 1)),
    ("oracle.search_perfect_code.s", "s", ("span", "oracle.search_perfect_code", 1)),
    ("oracle.search.nodes", "count", ("counter", "oracle.search.nodes")),
    ("perms.self_s", "s", ("layer", "perms")),
    ("perms.kendall_distance.calls", "count", ("span", "perms.kendall_distance", 0)),
    ("perms.kendall_distance.s", "s", ("span", "perms.kendall_distance", 1)),
)
PER_LAYER_DERIVED = {
    "numtheory.factorize.complete_ratio": "ratio",
    "trace.run_s": "s",
    "trace.recheck_s": "s",
    "trace.overhead_s": "s",
}


class Sink:
    """Text stream standing in for the CLI's stdout or stderr.

    It counts what is written.  With ``keep`` it keeps the text (records
    and verify lines, which are checked afterwards); without, it folds
    the text into a CRC-32 every 4096 writes, so a 97 MB table costs
    neither memory nor a copy.  The CLI writes ASCII, so characters are
    bytes.
    """

    def __init__(self, keep: bool) -> None:
        self.keep = keep
        self.bytes = 0
        self.crc = 0
        self.chunks: list[str] = []

    def write(self, text: str) -> int:
        self.bytes += len(text)
        self.chunks.append(text)
        if not self.keep and len(self.chunks) >= 4096:
            self._fold()
        return len(text)

    def flush(self) -> None:
        pass

    def _fold(self) -> None:
        self.crc = zlib.crc32("".join(self.chunks).encode(), self.crc)
        self.chunks.clear()

    def digest(self) -> tuple[int, int]:
        self._fold()
        return self.bytes, self.crc

    def text(self) -> str:
        return "".join(self.chunks)


@dataclass
class PassResult:
    """One pass.  Untraced, ``latencies`` and ``recheck_times`` are scaled
    by the speed probe; ``run_s`` is the raw sum of the latencies, without
    the probe's own time."""

    traced: bool
    run_s: float = 0.0
    records: int = 0  # records printed, each re-checked once per repetition
    recheck_times: list[float] = field(default_factory=list)
    probe_samples: list[float] = field(default_factory=list)
    stdout_bytes: int = 0
    attempted: int = 0
    verified: int = 0
    latencies: list[float] = field(default_factory=list)
    failures: dict[str, int] = field(default_factory=dict)
    wrong: list[str] = field(default_factory=list)


class Bench:
    """Runs passes of one workload against the imported package modules."""

    def __init__(self, modules: dict, ops: list, oracle: workloads.Expectations) -> None:
        self.modules = modules
        self.ops = ops
        self.oracle = oracle

    def run_pass(self, trace: tracing.Tracer | None) -> PassResult:
        """Time every operation, then re-check the records, then judge the output.

        An untraced pass repeats the whole re-check until it has taken
        MIN_RECHECK_S, so that a pass with few small records still times
        enough work; a traced pass re-checks once, so its counts repeat
        exactly.
        """
        result = PassResult(traced=trace is not None)
        probe = speed.SpeedProbe() if trace is None else speed.NoProbe()
        intervals = []
        if trace is not None:
            trace.install(self.modules)
        try:
            printed = []
            for op in self.ops:
                probe.maybe()
                printed.append((op, self.run_op(op, result, trace, probe, intervals)))
            lines = [
                line for op, out in printed if op.kind == "records" for line in out[1].splitlines()
            ]
            if trace is not None:
                trace.set_region("recheck")
            certs, segments = self.recheck(lines, probe)
            repetitions = [segments]
            while trace is None and sum(e - s for rep in repetitions for s, e in rep) < MIN_RECHECK_S:
                repetitions.append(self.recheck(lines, probe)[1])
        finally:
            if trace is not None:
                trace.uninstall()
        probe.sample()
        result.records = len(lines)
        timed = [probe.scaled(s, e) for s, e in intervals]
        result.run_s = sum(raw for raw, _ in timed)
        result.latencies = [scaled for _, scaled in timed]
        result.recheck_times = [
            sum(probe.scaled(s, e)[1] for s, e in rep) for rep in repetitions
        ]
        result.probe_samples = probe.samples
        start = 0
        for op, (code, text, stderr) in printed:
            if op.kind == "records":
                count = len(text.splitlines())
                outcome = workloads.check_records(
                    op.expect, certs[start : start + count], code, stderr, self.oracle
                )
                start += count
            elif op.kind == "table":
                length, crc = text
                outcome = workloads.check_table(op.expect, length, crc, code, self.oracle)
            elif op.kind == "verify":
                outcome = workloads.check_verify(op.expect, text, code)
            else:
                outcome = workloads.check_search(code)
            result.attempted += outcome.attempted
            result.verified += outcome.verified
            for reason, count in outcome.failures.items():
                result.failures[reason] = result.failures.get(reason, 0) + count
            result.wrong += outcome.wrong
        return result

    def run_op(self, op: workloads.Op, result: PassResult, trace, probe, intervals: list) -> tuple:
        """Time one operation into ``intervals``; return what it produced for the checks.

        The probe samples the machine's speed during the operation too.

        That is (exit code, stdout text, stderr text) for a CLI call,
        with stdout as (length, CRC-32) for ``table``, and (search
        result or None, "", "") for the library search.
        """
        if trace is not None:
            trace.set_region("run")
        if op.kind == "search":
            with probe.inside():
                start = perf_counter()
                try:
                    found = self.modules["oracle"].search_perfect_code(*op.expect)
                except Exception:  # judged as a failed check, never fatal
                    found = None
                end = perf_counter()
            produced = (found, "", "")
        else:
            out = Sink(keep=op.kind != "table")
            err = Sink(keep=True)
            saved = sys.stdout, sys.stderr
            sys.stdout, sys.stderr = out, err
            try:
                with probe.inside():
                    start = perf_counter()
                    try:
                        code = self.modules["cli"].main(list(op.argv))
                    finally:
                        end = perf_counter()
            except Exception as exc:  # failed output, never fatal
                code = None
                err.write(repr(exc))
            finally:
                sys.stdout, sys.stderr = saved
            result.stdout_bytes += out.bytes
            produced = (code, out.digest() if op.kind == "table" else out.text(), err.text())
        intervals.append((start, end))
        return produced

    def recheck(self, lines: list[str], probe) -> tuple[list, list]:
        """Parse and re-check every record, as an archive reader would.

        Returns (certificate or None if unparsable, accepted) per line,
        and the time it took as (start, end) segments, split wherever the
        probe took a sample.
        """
        certifier = self.modules["certifier"]
        certs = []
        segments = []
        probe.maybe()
        start = perf_counter()
        for line in lines:
            if probe.due():
                segments.append((start, perf_counter()))
                probe.sample()
                start = perf_counter()
            try:
                cert = certifier.parse_certificate(line)
            except ValueError:
                certs.append((None, False))
                continue
            try:
                accepted = certifier.check_certificate(cert)
            except Exception:  # a crashing checker rejects the record
                accepted = False
            certs.append((cert, accepted))
        segments.append((start, perf_counter()))
        return certs, segments


def percentile(values: list[float], p: int) -> float:
    """Linear interpolation between closest ranks."""
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def tail_percentile(ops_per_pass: int) -> int:
    """Highest ladder percentile with at least ten operations of one pass beyond it.

    Fixed by the workload, not by how many passes fit in the time, so a
    faster program is compared at the same percentile.
    """
    for p in TAIL_LADDER:
        if ops_per_pass * (100 - p) / 100 >= 10:
            return p
    return 50


def measure_setup(repeats: int) -> float:
    """Median seconds from import to the first answer, each in a fresh interpreter.

    Each interpreter scales its own time by speed probe samples taken
    just before and after it, like every other timing.
    """
    times = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(HERE), str(SRC), *FIRST_ANSWER],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
            cwd=ROOT,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def end_to_end(passes: list[PassResult], setup_s: float) -> dict:
    """End-to-end metrics from untraced passes of the same operations.

    Every timing is already scaled by the speed probe.  Each operation
    counts at its median over the run's passes, and the re-check at its
    median repetition.  ``run_s`` is the sum of the operations' medians,
    one pass's worth of work.
    """
    typical = [statistics.median(times) for times in zip(*(p.latencies for p in passes))]
    run_s = sum(typical)
    tail = tail_percentile(len(typical))
    attempted = sum(p.attempted for p in passes)
    verified = sum(p.verified for p in passes)
    samples = [x for p in passes for x in p.probe_samples]
    print(
        f"# op_tail_ms is p{tail} of {len(typical)} operations,"
        f" each at its median of {len(passes)} passes"
    )
    print(
        f"# speed probe: {len(samples)} samples, median {statistics.median(samples) * 1e3:.3f} ms,"
        f" quartiles {' '.join(f'{q * 1e3:.3f}' for q in statistics.quantiles(samples, n=4))} ms"
        f" against the {speed.REFERENCE_PROBE_S * 1e3:g} ms reference"
    )
    return {
        "setup_s": setup_s,
        "run_s": run_s,
        "op_p50_ms": percentile(typical, 50) * 1e3,
        "op_tail_ms": percentile(typical, tail) * 1e3,
        "records_per_s": verified / len(passes) / run_s,
        "recheck_per_s": passes[0].records
        / statistics.median(x for p in passes for x in p.recheck_times),
        "stdout_mb": statistics.median(p.stdout_bytes for p in passes) / 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "verified_frac": verified / attempted,
    }


def per_layer(trace: tracing.Tracer, traced: list[PassResult], plain: list[PassResult]) -> dict:
    k = len(traced)
    values = {}
    for name, _, source in PER_LAYER:
        if source[0] == "span":
            span = trace.spans.get(source[1], [0, 0.0, 0.0])
            values[name] = span[source[2]] / k
        elif source[0] == "counter":
            values[name] = trace.counters.get(source[1], 0) / k
        else:
            values[name] = trace.regions["run"][source[1]] / k
    calls = trace.spans.get("numtheory.factorize", [0])[0]
    complete = trace.counters.get("numtheory.factorize.complete", 0)
    values["numtheory.factorize.complete_ratio"] = complete / calls if calls else 1.0
    traced_run = statistics.mean(p.run_s for p in traced)
    values["trace.run_s"] = traced_run
    values["trace.overhead_s"] = traced_run - statistics.mean(p.run_s for p in plain)
    values["trace.recheck_s"] = statistics.mean(p.recheck_times[0] for p in traced)
    for region, wall in (("run", traced_run), ("recheck", values["trace.recheck_s"])):
        print(
            f"# {region}: layer self times sum to"
            f" {sum(trace.regions[region].values()) / k:.4f} s per traced pass,"
            f" traced wall time {wall:.4f} s"
        )
    return values


def load_package() -> dict:
    """Import kendallcodes from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "kendallcodes" / "__init__.py").is_file():
        raise SystemExit(f"error: no kendallcodes sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from kendallcodes import certifier, cli, mahonian, numtheory, oracle

    if Path(cli.__file__).resolve().parent != SRC / "kendallcodes":
        raise SystemExit(f"error: imported kendallcodes from {cli.__file__}, not {SRC}")
    return {
        "cli": cli,
        "certifier": certifier,
        "mahonian": mahonian,
        "numtheory": numtheory,
        "oracle": oracle,
    }


def prepare(ops: list, oracle: workloads.Expectations) -> None:
    """Compute every expected answer before timing starts."""
    for op in ops:
        if op.kind == "records":
            for n, t in op.expect:
                oracle.nonexistent(n, t)
        elif op.kind == "table":
            oracle.tsv(op.expect)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.PASSES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small sizes, for tests")
    args = parser.parse_args(argv)

    modules = load_package()
    ops = workloads.PASSES[args.workload](random.Random(args.seed), args.tiny)
    oracle = workloads.Expectations()
    prepare(ops, oracle)
    setup_s = None if args.trace else measure_setup(2 if args.tiny else SETUP_REPEATS)
    # the parent pays its own lazy set-up here, outside every timing
    bench = Bench(modules, ops, oracle)
    bench.run_op(
        workloads.Op("records", FIRST_ANSWER, None), PassResult(traced=False), None, speed.NoProbe(), []
    )

    trace = tracing.Tracer() if args.trace else None
    passes: list[PassResult] = []
    start = perf_counter()
    while True:
        traced = trace is not None and len(passes) % 2 == 1
        began = perf_counter()
        passes.append(bench.run_pass(trace if traced else None))
        last = perf_counter() - began
        enough = trace is None or len(passes) >= 2
        if enough and perf_counter() - start + last > args.seconds:
            break

    plain = [p for p in passes if not p.traced]
    traced_passes = [p for p in passes if p.traced]
    # Every pass runs the same operations, so the counts are one pass's:
    # they depend on the seed only, not on how many passes fit in the time.
    attempted = passes[0].attempted
    failed = max(p.attempted - p.verified for p in passes)
    wrong = [line for p in passes for line in p.wrong]
    if len({(p.attempted, p.verified, tuple(sorted(p.failures.items()))) for p in passes}) > 1:
        wrong.insert(0, "passes of the same operations failed differently")
    print(f"# workload {args.workload}, seed {args.seed}, {len(passes)} passes")
    print(f"# failed records per pass by reason: {json.dumps(passes[0].failures, sort_keys=True)}")
    for line in wrong[:5]:
        print(f"# wrong output: {line}")
    if trace is None:
        values = end_to_end(plain, setup_s)
        units = END_TO_END_UNITS
    else:
        values = per_layer(trace, traced_passes, plain)
        units = {name: unit for name, unit, _ in PER_LAYER} | PER_LAYER_DERIVED
    summary = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

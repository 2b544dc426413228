"""Closed-loop benchmark of the nilgeo command line.

    python3 perfbench/run.py --workload ccy-mix --seed 0 --seconds 30 --trace 0

One client in one thread sends each request only after the previous one has
returned. A request is an in-process `nilgeo.cli.main(argv)` call with stdout
captured, so the JSON report (the product) is both timed and checked. The
run executes whole cycles of its workload (see workloads.py) until
`--seconds` have passed.

Timings are host-speed adjusted (hostspeed.py): a fixed pure-Python job
timed between requests measures how fast the shared host runs at that
moment, and each request's time is rescaled to a host on which that job
takes 1 ms. verdicts_per_s is completed requests over the sum of their
adjusted times, and setup_s is adjusted the same way. The unadjusted
figures are printed and written to the result file next to them.

--trace 0 prints the end-to-end metrics. --trace 1 runs every cycle twice,
untraced and then with every layer wrapped (tracing.py), checks that each
traced report is byte-identical to its untraced one, and prints the
per-layer metrics. `--workload all` runs every workload, each in
a fresh process. The last line of stdout is one JSON object; a result file
with the environment, the metrics and (traced) the spans goes to
perfbench/results/.

`--record-digests` re-runs the pregenerated cycles of seed 0 and stores the
digest of every report in digests.json. Do that only when a change to the
report bytes is intended.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, perf_counter_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import tracing  # noqa: E402
from workloads import CYCLES, PREGENERATED, Request, Stream  # noqa: E402

# One BLAS thread: the load is a single client and must not use more threads
# than the machine has. Set before numpy is first imported (in load_nilgeo).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

DIGESTS = HERE / "digests.json"
RESULTS = HERE / "results"
SETUP_PROBES = 7
SETUP_REFERENCE_RUNS = 15  # before and after each set-up probe
END_TO_END = {
    "setup_s": "s",
    "latency_ms.p50": "ms",
    "latency_ms.p90": "ms",
    "verdicts_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class SetupError(Exception):
    """The benchmark cannot run here (no nilgeo sources, a probe failed)."""


def load_nilgeo():
    """Import numpy and nilgeo from this checkout's src/ and return nilgeo.cli."""
    if not (SRC / "nilgeo" / "__init__.py").is_file():
        raise SetupError(f"no nilgeo sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401

    import nilgeo.cli

    if Path(nilgeo.__file__).resolve().parent != SRC / "nilgeo":
        raise SetupError(f"imported nilgeo from {nilgeo.__file__}, not from {SRC}")
    return nilgeo.cli


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------


def key_of(argv) -> str:
    return hashlib.sha256("\0".join(argv).encode()).hexdigest()[:16]


def digest_of(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def verify(req: Request, rc, out: str, err: str) -> str | None:
    """Why the report of `req` is wrong, or None when every check holds."""
    if rc != req.expect_rc:
        return f"exit code {rc}, expected {req.expect_rc}"
    if err or "Traceback" in out:
        return "output on stderr or a traceback"
    try:
        report = json.loads(out)
    except json.JSONDecodeError as exc:
        return f"stdout is not one JSON document: {exc}"
    if report.get("status") != ("pass" if rc == 0 else "fail"):
        return f"status {report.get('status')!r} disagrees with exit code {rc}"
    checks = {c["name"]: c for c in report.get("checks", [])}
    failing = [name for name, c in checks.items() if c.get("verdict") == "fail"]
    if req.clause is not None and req.clause not in failing:
        return f"clause {req.clause} did not fail (failing: {failing})"
    cmd = req.command
    if cmd == "betti":
        table = checks["betti_numbers"]
        numbers = tuple(table["numbers"])
        if numbers != req.betti:
            return f"Betti table {numbers} changed under the basis change, expected {req.betti}"
        if numbers != numbers[::-1] or not table["poincare_dual"]:
            return "Betti table is not Poincare dual"
        if sum((-1) ** k * b for k, b in enumerate(numbers)) != 0 or table["euler_characteristic"] != 0:
            return "Euler characteristic is not 0"
    elif cmd == "moduli-kernel":
        kernel = checks["kernel_dimension"]
        if kernel["kernelDim"] != 1 or kernel["kernel_is_reeb_line"] is not True:
            return f"kernel {kernel['kernelDim']}, reeb line {kernel['kernel_is_reeb_line']}"
    elif cmd == "comass":
        maximum = float(checks["comass_bound"]["maximum"]["approx"])
        if not maximum <= 1 + 1e-9:
            return f"comass maximum {maximum} exceeds 1 + 1e-9"
    elif cmd == "curvature":
        ricci = checks["curvature"]["ricci"]
        if any(ricci[i][j] != ricci[j][i] for i in range(len(ricci)) for j in range(i)):
            return "Ricci tensor is not symmetric"
        if req.n is not None:
            n = req.n
            einstein = checks["alpha_einstein"]
            if (checks["curvature"]["scalar"], einstein["lambda"], einstein["nu"]) != (
                str(-2 * n),
                "-2",
                str(2 * n + 2),
            ):
                return "scalar curvature or alpha-Einstein constants differ from -2n, -2, 2n+2"
            if checks["transverse_ricci_zero"]["verdict"] != "pass":
                return "transverse Ricci is not zero"
    return None


class Checker:
    """Checks each report: its own invariants, repeats, and stored digests."""

    def __init__(self, stored: dict[str, str]):
        self.stored = stored
        self.seen: dict[str, str] = {}

    def __call__(self, req: Request, rc, out: str, err: str) -> tuple[str, str | None]:
        digest = digest_of(out)
        try:
            reason = verify(req, rc, out, err)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            reason = f"report lacks an expected field: {exc!r}"
        key = key_of(req.argv)
        if reason is None and self.seen.setdefault(key, digest) != digest:
            reason = "report differs from an earlier report for the same argv"
        if reason is None and self.stored.get(key, digest) != digest:
            reason = "report differs from the stored digest"
        return digest, reason


def load_digests() -> dict[str, str]:
    if not DIGESTS.is_file():
        return {}
    table = {}
    for reports in json.loads(DIGESTS.read_text())["reports"].values():
        table.update(reports)
    return table


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    ns: int
    end: int  # perf_counter_ns when the call returned
    digest: str
    reason: str | None


def call(main, req: Request, tracer=None, index: int = -1) -> tuple[int, object, str, str]:
    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.request = index
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter_ns()
        try:
            rc = main(list(req.argv))
        except Exception:  # a traceback that reached the caller
            rc = "uncaught " + traceback.format_exc(limit=-1).strip().splitlines()[-1]
        ns = perf_counter_ns() - t0
    return ns, rc, out.getvalue(), err.getvalue()


def run_requests(main, requests, check, tracer=None, start: int = 0, clock=None) -> list[Outcome]:
    """Each request in turn; a HostClock, if given, ticks after each one."""
    outcomes = []
    for i, req in enumerate(requests, start):
        ns, rc, out, err = call(main, req, tracer, i)
        end = perf_counter_ns()
        digest, reason = check(req, rc, out, err)
        outcomes.append(Outcome(ns, end, digest, reason))
        if clock is not None:
            clock.tick()
    return outcomes


def run_for(cli, stream: Stream, seconds: float, check, tracer=None, clock=None):
    """Whole cycles until `seconds` have passed.

    With a tracer, each cycle runs untraced and then again traced, so that
    both runs of a request see the same state of a shared host. Returns the
    requests, their untraced and traced outcomes, and the wall time in s.
    """
    requests, outcomes, traced = [], [], []
    start = perf_counter()
    index = 0
    while True:
        cycle = stream.cycle(index)
        outcomes += run_requests(cli.main, cycle, check, clock=clock)
        if tracer is not None:
            tracer.install()
            try:
                traced += run_requests(cli.main, cycle, check, tracer, len(requests))
            finally:
                tracer.uninstall()
        requests += cycle
        index += 1
        if perf_counter() - start >= seconds:
            return requests, outcomes, traced, perf_counter() - start


# ---------------------------------------------------------------------------
# environment and set-up
# ---------------------------------------------------------------------------


def _read(path: Path) -> str:
    try:
        return path.read_text()
    except OSError:
        return ""


def git_revision() -> str:
    head = _read(ROOT / ".git" / "HEAD").strip()
    if head.startswith("ref: "):
        ref = head[5:]
        rev = _read(ROOT / ".git" / ref).strip()
        if not rev:
            for line in _read(ROOT / ".git" / "packed-refs").splitlines():
                if line.endswith(" " + ref):
                    rev = line.split()[0]
        return rev or "unknown"
    return head or "unknown (not a git checkout)"


def thread_count() -> int:
    for line in _read(Path("/proc/self/status")).splitlines():
        if line.startswith("Threads:"):
            return int(line.split()[1])
    return 0


def environment() -> dict:
    import numpy

    cpu = next(
        (line.split(":", 1)[1].strip() for line in _read(Path("/proc/cpuinfo")).splitlines()
         if line.startswith("model name")),
        platform.processor() or "unknown",
    )
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "git_revision": git_revision(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "process_threads": thread_count(),
        "client": "closed loop, 1 client, 1 thread, in-process nilgeo.cli.main",
    }


def setup_probe(workload: str, seed: int) -> float:
    """Seconds to import numpy and nilgeo and generate the workload's inputs."""
    t0 = perf_counter()
    load_nilgeo()
    Stream(workload, seed).pregenerate()
    return perf_counter() - t0


def measure_setup(workload: str, seed: int, clock) -> tuple[list[float], list[float]]:
    """Set-up time of SETUP_PROBES fresh processes, one after another, as
    measured and host-speed adjusted by reference runs around each."""
    times, adjusted = [], []
    for _ in range(SETUP_PROBES):
        clock.probe(SETUP_REFERENCE_RUNS)
        t0 = perf_counter_ns()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-probe", "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        t1 = perf_counter_ns()
        if proc.returncode != 0:
            raise SetupError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        clock.probe(SETUP_REFERENCE_RUNS)
        times.append(float(proc.stdout.split()[-1]))
        adjusted.append(times[-1] * clock.factor(t0, t1))
    return times, adjusted


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------


def percentile_ms(samples_ns: list[float]) -> tuple[float, float]:
    ms = [x / 1e6 for x in samples_ns]
    return statistics.median(ms), statistics.quantiles(ms, n=10)[8]


def report_failures(outcomes, requests) -> None:
    bad = [(o.reason, r.argv) for o, r in zip(outcomes, requests) if o.reason]
    for reason, argv in bad[:5]:
        print(f"FAILED: {reason}: nilgeo {' '.join(argv)[:200]}", file=sys.stderr)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    clock = None if trace else hostspeed.HostClock()
    setup, setup_adjusted = (None, None) if trace else measure_setup(workload, seed, clock)
    cli = load_nilgeo()
    stream = Stream(workload, seed)
    stream.pregenerate()
    check = Checker(load_digests())
    tracer = tracing.Tracer() if trace else None
    requests, outcomes, traced, wall = run_for(cli, stream, seconds, check, tracer, clock)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report_failures(outcomes, requests)
    failed = sum(o.reason is not None for o in outcomes)
    result = {"workload": workload, "seed": seed, "requests": len(requests)}
    if not trace:
        adjusted = [o.ns * clock.factor(o.end - o.ns, o.end) for o in outcomes]
        p50, p90 = percentile_ms(adjusted)
        metrics = {
            "setup_s": statistics.median(setup_adjusted),
            "latency_ms.p50": p50,
            "latency_ms.p90": p90,
            "verdicts_per_s": (len(requests) - failed) / (sum(adjusted) / 1e9),
            "peak_rss_mb": rss_mb,
        }
        units = END_TO_END
        raw_p50, raw_p90 = percentile_ms([o.ns for o in outcomes])
        result.update(
            setup_samples_s=setup,
            setup_adjusted_s=setup_adjusted,
            wall_s=wall,
            beyond_p90=sum(x / 1e6 > p90 for x in adjusted),
            unadjusted={
                "setup_s": statistics.median(setup),
                "latency_ms.p50": raw_p50,
                "latency_ms.p90": raw_p90,
                "verdicts_per_s": (len(requests) - failed) / wall,
            },
            host_speed=clock.summary(),
        )
    else:
        report_failures(traced, requests)
        mismatched = sum(t.digest != o.digest for t, o in zip(traced, outcomes))
        failed += sum(t.reason is not None or t.digest != o.digest for t, o in zip(traced, outcomes))
        metrics, rows = tracer.metrics(
            [r.size for r in requests], sum(o.ns for o in outcomes), sum(t.ns for t in traced)
        )
        units = {name: unit for name, (unit, _) in tracing.PER_LAYER.items()}
        result.update(
            traced_reports_differing=mismatched,
            baseline_rows=rows,
            not_covered=list(tracing.NOT_COVERED),
            counters=dict(tracer.values),
            groups=tracer.groups,
            spans=tracer.spans,
        )
    attempted = len(requests) * (2 if trace else 1)
    result.update(
        attempted=attempted,
        failed_frac=failed / attempted,
        failed=failed,
        env=environment(),
        metrics={name: {"value": metrics[name], "unit": units[name]} for name in units},
    )
    return result


def print_result(result: dict) -> None:
    w = result["workload"]
    print(f"# {w} seed {result['seed']}: {result['requests']} requests, closed loop with one client")
    for name, m in result["metrics"].items():
        print(f"{w}  {name:45s} {m['value']:>14.6g} {m['unit']}")
    print(f"{w}  {'failed_frac':45s} {result['failed_frac']:>14.6g} frac")
    if "beyond_p90" in result:
        note = "" if result["beyond_p90"] >= 10 else " (fewer than 10: p90 is not resolved)"
        print(f"{w}  latency samples {result['requests']}, {result['beyond_p90']} beyond p90{note}")
        for name, value in result["unadjusted"].items():
            print(f"{w}  unadjusted {name:34s} {value:>14.6g}")
        print(f"{w}  host speed {json.dumps(result['host_speed'])}")
    for row in result.get("baseline_rows", []):
        print(
            f"{w}  baseline {row['row']:26s} roadmap {row['baseline_ms']:>6} ms"
            f"  here {row['median_ms']:9.2f} ms  ({row['calls']} calls)"
        )
    if "not_covered" in result:
        print(f"{w}  baseline rows not covered: {', '.join(result['not_covered'])}")
    print(f"# env {json.dumps(result['env'])}")


def summary(result: dict) -> dict:
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }


def write_result(result: dict, trace: bool) -> None:
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{result['workload']}-seed{result['seed']}-trace{int(trace)}.json"
    path.write_text(json.dumps(result))


def run_all(args) -> int:
    """Each workload in a fresh process; prints their lines and one combined JSON."""
    combined = {}
    for workload in CYCLES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        combined[workload] = json.loads(lines[-1])
    print(json.dumps(combined))
    return 0


def record_digests(workloads) -> int:
    """Store the report digest of every request in the pregenerated cycles of seed 0."""
    cli = load_nilgeo()
    data = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {"seed": 0, "reports": {}}
    for workload in workloads:
        stream = Stream(workload, 0)
        check = Checker({})
        table = {}
        for index in range(PREGENERATED[workload]):
            cycle = stream.cycle(index)
            outcomes = run_requests(cli.main, cycle, check)
            report_failures(outcomes, cycle)
            if any(o.reason for o in outcomes):
                return 1
            table.update({key_of(r.argv): o.digest for r, o in zip(cycle, outcomes)})
        data["reports"][workload] = dict(sorted(table.items()))
        print(f"{workload}: {len(table)} distinct reports", file=sys.stderr)
    DIGESTS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*CYCLES, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            print(setup_probe(args.workload, args.seed))
            return 0
        if args.record_digests:
            return record_digests(list(CYCLES) if args.workload == "all" else [args.workload])
        if args.workload == "all":
            return run_all(args)
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    write_result(result, bool(args.trace))
    print_result(result)
    print(json.dumps(summary(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

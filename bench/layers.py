"""Layer timings of the curvature kernels, the structure checks and the
classification filter, paired with end-to-end benchmark runs.

    python3 bench/layers.py --tree parent=../parent-checkout --tree change=. \
        --pairs 10 --seconds 30 --workload ccy-mix --out BENCH_10.json

Each --tree LABEL=PATH names a checkout with src/nilgeo and perfbench/. For
every tree a fresh interpreter imports that tree's nilgeo and times
levi_civita, ricci_scalar and transverse_ricci:

- on the shipped contact Calabi-Yau structures of the Heisenberg algebras,
  n = 1..5 (dim 3..11), all three kernels;
- on the filiform algebras F4..F9 ([X1, X_i] = X_{i+1}) with seeded rational
  L D L^T metrics, levi_civita and ricci_scalar (no contact structure), and
  the metric's own eliminations: a fresh Metric of those entries, then
  is_positive_definite and inverse_matrix;
- check_contact + check_ccy on the Heisenberg structure data, n = 1..10
  (dim 3..21; compact notation stops at dim 9, so the data come from
  models.heisenberg_ccy_data), and on the same data the epsilon clauses of
  check_ccy alone, the calibration clauses alone and the Nijenhuis clause
  alone (J rebuilt from its matrix on every call, as a request parses it),
  and parse_form of the epsilon expression (e1+i*e2)^...^(e(2n-1)+i*e(2n));
- check_contact on the Heisenberg algebra in the JSON format, dim 11, 21,
  41 and 101, with alpha = 2 e_dim;
- and the dimension-5 obstruction filter, in ms per call over the contact
  forms among the default catalog's samples (CLASSIFY_SEED with
  RANDOM_SAMPLES random samples per entry, the samples `classify` draws),
  with the whole default `classify` run.

A point is the median of REPEATS timed loops, each long enough to take at
least MIN_LOOP_S and host-speed adjusted as the end-to-end timings are
(`perfbench/hostspeed.py`: the reference job runs right before and after
each loop, and the loop's time is scaled to a host on which it takes 1 ms).
The trees are measured ROUNDS times in turn, and each point keeps the
fastest of its rounds: the host's speed drifts by tens of percent within
minutes, and a slow stretch should not land on one tree only. A slope is
the least-squares fit of log(time) against log(dim) over one family.

With --pairs N it then runs `perfbench/run.py --workload W` N times in every
tree for each --workload, alternating which tree runs first, and records each
run's end-to-end metrics, each tree's median and quartiles, and for two trees
how many pairs the second tree won on each metric (ties count for neither).

The output records the Python version, platform, CPU count and, per tree,
the git revision, whether the tree differs from it, and a digest of the
measured sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter, perf_counter_ns

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench.hostspeed import HostClock  # noqa: E402

HEISENBERG = (1, 2, 3, 4, 5)
STRUCTURE_N = tuple(range(1, 11))
JSON_HEISENBERG = (11, 21, 41, 101)
FILIFORM = (4, 5, 6, 7, 8, 9)
METRIC_SEED = 7
CLASSIFY_SEED = 0
RANDOM_SAMPLES = 3
REPEATS = 7
ROUNDS = 3
MIN_LOOP_S = 0.02
WORKLOADS = ("curvature-sweep", "ccy-mix", "rank-sweep")


def timed_ms(clock: HostClock, fn) -> float:
    """Median host-adjusted milliseconds per call of fn over REPEATS loops."""
    fn()
    number = 1
    while True:
        start = perf_counter()
        for _ in range(number):
            fn()
        if perf_counter() - start >= MIN_LOOP_S:
            break
        number *= 2
    runs = []
    for _ in range(REPEATS):
        clock.probe()
        start = perf_counter_ns()
        for _ in range(number):
            fn()
        end = perf_counter_ns()
        clock.probe()
        runs.append((end - start) / number * clock.factor(start, end))
    return statistics.median(runs) / 1e6


def filiform_spec(m: int) -> str:
    """d e^k = e^1 ^ e^(k-1) for k >= 3, in the algebra notation (m <= 9)."""
    return "(" + ",".join(["0", "0"] + [f"1{k - 1}" for k in range(3, m + 1)]) + ")"


def ldl_metric(rng: random.Random, m: int) -> list[list[Fraction]]:
    """L D L^T with L unit lower triangular and D positive, entries p/q, q <= 3."""
    low = [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]
    for i in range(m):
        for j in range(i):
            low[i][j] = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
    diag = [Fraction(rng.randint(1, 4), rng.randint(1, 3)) for _ in range(m)]
    return [[sum(low[i][k] * diag[k] * low[j][k] for k in range(m)) for j in range(m)] for i in range(m)]


def slope(points) -> float:
    """Least-squares slope of log(ms) against log(dim)."""
    xs = [math.log(dim) for dim, _ in points]
    ys = [math.log(ms) for _, ms in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def measure(tree: Path) -> dict:
    """Time the kernels of the nilgeo under tree/src (run in a fresh process)."""
    sys.path.insert(0, str(tree / "src"))
    from nilgeo.algdsl import parse_algebra, parse_form
    from nilgeo.classify import Catalog, _sample_alphas, ccy_obstruction_filter, classify_catalog
    from nilgeo.curvature import levi_civita, ricci_scalar, transverse_ricci
    from nilgeo.exterior import Endo, Metric
    from nilgeo.models import heisenberg_ccy, heisenberg_ccy_data
    from nilgeo.structures import (
        NotContactError,
        _check_calibration,
        _check_epsilon_clauses,
        _nijenhuis_failures,
        check_ccy,
        check_contact,
    )

    clock, rows = HostClock(), []
    for n in HEISENBERG:
        structure = heisenberg_ccy(n)
        alg, g = structure.alg, structure.metric
        conn = levi_civita(alg, g)
        full = ricci_scalar(alg, g, conn)
        rows.append(
            {
                "family": "heisenberg",
                "n": n,
                "dim": alg.dim,
                "levi_civita_ms": timed_ms(clock, lambda: levi_civita(alg, g)),
                "ricci_scalar_ms": timed_ms(clock, lambda: ricci_scalar(alg, g, conn)),
                "transverse_ricci_ms": timed_ms(clock, lambda: transverse_ricci(structure, g, conn, full)),
            }
        )
    rng = random.Random(METRIC_SEED)
    for m in FILIFORM:
        entries = ldl_metric(rng, m)
        alg, g = parse_algebra(filiform_spec(m)), Metric(entries)
        conn = levi_civita(alg, g)

        def eliminate():
            fresh = Metric(entries)
            return fresh.is_positive_definite() and fresh.inverse_matrix()

        rows.append(
            {
                "family": "filiform",
                "dim": m,
                "levi_civita_ms": timed_ms(clock, lambda: levi_civita(alg, g)),
                "ricci_scalar_ms": timed_ms(clock, lambda: ricci_scalar(alg, g, conn)),
                "metric_elimination_ms": timed_ms(clock, eliminate),
            }
        )
    for n in STRUCTURE_N:
        alg, alpha, J, epsilon = heisenberg_ccy_data(n)
        contact = check_contact(alg, alpha)
        dalpha = alg.d(alpha)
        text = "^".join(f"(e{2 * k - 1}+i*e{2 * k})" for k in range(1, n + 1))
        rows.append(
            {
                "family": "structure",
                "n": n,
                "dim": alg.dim,
                "check_ccy_ms": timed_ms(clock, lambda: check_ccy(check_contact(alg, alpha), J, epsilon)),
                "epsilon_clauses_ms": timed_ms(
                    clock, lambda: _check_epsilon_clauses(alg, contact.kappa, [contact.reeb], J, epsilon, n, False)
                ),
                "calibration_ms": timed_ms(
                    clock, lambda: _check_calibration(alg, contact.kappa, [alpha], [contact.reeb], Endo(J.matrix))
                ),
                "nijenhuis_ms": timed_ms(clock, lambda: _nijenhuis_failures(alg, Endo(J.matrix), dalpha, contact.reeb)),
                "parse_epsilon_ms": timed_ms(clock, lambda: parse_form(text, alg.dim)),
            }
        )
    for dim in JSON_HEISENBERG:
        pairs = [["1", 2 * k - 1, 2 * k] for k in range(1, (dim - 1) // 2 + 1)]
        alg = parse_algebra(json.dumps({"dim": dim, "d": {str(dim): pairs}}))
        alpha = parse_form(f"2*e{dim}", dim)
        check_ms = timed_ms(clock, lambda: check_contact(alg, alpha))
        rows.append({"family": "json_heisenberg", "dim": dim, "check_contact_ms": check_ms})
    calls = []
    for entry in Catalog.default():
        alg = entry.algebra()
        if alg.dim == 5:
            for alpha in _sample_alphas(alg, CLASSIFY_SEED, RANDOM_SAMPLES):
                try:
                    ccy_obstruction_filter(alg, alpha)
                except NotContactError:
                    continue
                calls.append((alg, alpha))

    def run_filter():
        for alg, alpha in calls:
            ccy_obstruction_filter(alg, alpha)

    rows.append(
        {
            "family": "filter",
            "calls": len(calls),
            "filter_ms_per_call": timed_ms(clock, run_filter) / len(calls),
            "classify_default_ms": timed_ms(clock, lambda: classify_catalog(Catalog.default(), CLASSIFY_SEED)),
        }
    )
    return rows


def fastest(rounds) -> dict:
    """Each point's fastest timing over the rounds, and the slopes of those."""
    rows = [{key: min(r[key] for r in point) if "_ms" in key else value for key, value in point[0].items()}
            for point in zip(*rounds)]
    slopes = {}
    for family in ("heisenberg", "filiform", "structure", "json_heisenberg"):
        for kernel in ("levi_civita", "ricci_scalar", "transverse_ricci", "metric_elimination", "check_ccy",
                       "epsilon_clauses", "calibration", "nijenhuis", "parse_epsilon", "check_contact"):
            points = [(r["dim"], r[f"{kernel}_ms"]) for r in rows if r["family"] == family and f"{kernel}_ms" in r]
            if len(points) > 1:
                slopes[f"{family}.{kernel}"] = slope(points)
    return {"points": rows, "slopes": slopes}


def git(tree: Path, *args) -> str:
    result = subprocess.run(["git", "-C", str(tree), *args], capture_output=True, text=True)
    return result.stdout.strip() if result.returncode == 0 else ""


def describe(tree: Path) -> dict:
    sources = sorted((tree / "src" / "nilgeo").glob("*.py"))
    digest = hashlib.sha256(b"".join(p.read_bytes() for p in sources)).hexdigest()[:16]
    return {
        "git_revision": git(tree, "rev-parse", "HEAD") or None,
        "differs_from_revision": bool(git(tree, "status", "--porcelain", "--untracked-files=no")),
        "src_digest": digest,
    }


def perfbench_run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        **{name: metric["value"] for name, metric in result["metrics"].items()},
    }


def quartiles(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def pairs(trees: dict, workload: str, count: int, seed: int, seconds: float) -> dict:
    labels = list(trees)
    runs = {label: [] for label in labels}
    for i in range(count):
        for label in labels if i % 2 == 0 else labels[::-1]:
            runs[label].append(perfbench_run(trees[label], workload, seed, seconds))
            print(f"{workload} pair {i + 1}/{count} {label}: {runs[label][-1]}", file=sys.stderr)
    benchmark = json.loads((trees[labels[-1]] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    summary = {
        label: {name: quartiles([r[name] for r in runs[label]]) for name in better} for label in labels
    }
    out = {"seed": seed, "seconds": seconds, "runs": runs, "summary": summary}
    if len(labels) == 2:
        base, change = runs[labels[0]], runs[labels[1]]
        sign = {name: 1 if way == "higher" else -1 for name, way in better.items()}
        out["wins_of_" + labels[1]] = {
            name: sum(sign[name] * (c[name] - b[name]) > 0 for b, c in zip(base, change)) for name in better
        }
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", action="append", default=[], help="LABEL=PATH of a checkout")
    parser.add_argument("--pairs", type=int, default=0, help="perfbench runs per tree and workload")
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--measure", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.measure:
        print(json.dumps(measure(args.measure.resolve())))
        return
    trees = {}
    for spec in args.tree or ["change=."]:
        label, _, path = spec.partition("=")
        trees[label] = Path(path or label).resolve()
    report = {
        "env": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
        },
        "layers": {
            "heisenberg_n": list(HEISENBERG),
            "structure_n": list(STRUCTURE_N),
            "json_heisenberg_dims": list(JSON_HEISENBERG),
            "filiform_dims": list(FILIFORM),
            "metric_seed": METRIC_SEED,
            "classify_seed": CLASSIFY_SEED,
            "random_samples": RANDOM_SAMPLES,
            "repeats": REPEATS,
            "rounds": ROUNDS,
            "statistic": "median host-adjusted ms per call, fastest of the rounds",
        },
        "trees": {},
    }
    rounds = {label: [] for label in trees}
    for _ in range(ROUNDS):
        for label, tree in trees.items():
            measured = subprocess.run(
                [sys.executable, __file__, "--measure", str(tree)], capture_output=True, text=True, check=True
            ).stdout
            rounds[label].append(json.loads(measured))
    for label, tree in trees.items():
        report["trees"][label] = {**describe(tree), **fastest(rounds[label])}
    if args.pairs:
        report["perfbench"] = {
            workload: pairs(trees, workload, args.pairs, args.seed, args.seconds)
            for workload in args.workload or WORKLOADS
        }
    text = json.dumps(report, indent=2)
    if args.out:
        args.out.write_text(text + "\n")
    print(text)


if __name__ == "__main__":
    main()

"""Layer timings of the curvature kernels, the structure checks and the
classification filter, paired with end-to-end benchmark runs.

    python3 bench/layers.py --tree parent=../parent-checkout --tree change=. \
        --workload ccy-mix=10 --workload curvature-sweep=10 --workload rank-sweep=10 \
        --seconds 30 --out BENCH_25.json

Each --tree LABEL=PATH names a checkout with src/nilgeo and perfbench/. For
every tree a fresh interpreter imports that tree's nilgeo and times
levi_civita, ricci_scalar and transverse_ricci:

- on the shipped contact Calabi-Yau structures of the Heisenberg algebras,
  n = 1..5 (dim 3..11), all three kernels, and on the same structures
  carried into one seeded rational frame per n (FRAME_SEED; alpha pulled
  back, J conjugated, verified Sasakian), where the bracket and Christoffel
  cells are full rather than sparse;
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
- parse_algebra of the Heisenberg algebra in the JSON format, dim 11, 21,
  41, 101, 201, 401 and 801, and check_contact on it with alpha = 2 e_dim;
- check_contact on the Heisenberg structure data of dims 11, 19 and 21
  carried into one seeded dense rational frame per dim (DENSE_SEED), where
  d(alpha) is dense and the Reeb solve eliminates dim + 1 dense rows, and
  rank_sparse of a seeded dense dim x dim int matrix of entries |x| <= 9;
- the parsing of a curvature request: `cli._parse_metric` on PARSE_METRICS
  seeded metric strings per dim 3..7, drawn as curvature-sweep draws its
  metrics (`perfbench.workloads.positive_metric`, PARSE_SEED), in ms per
  metric; parse_algebra of the compact specs of the filiform algebras F4..F7
  and the Heisenberg algebras H3..H9; and one whole in-process `curvature
  --metric` request on F6 (`cli.main`, its report discarded), in ms per
  request over the same seeded metrics;
- the stages of a check-ccy request as ccy-mix sends it (`perfbench.workloads
  .ccy_flags`, epsilon rotated by CCY_ROTATION), n = 1..3: the argv reader
  (`cli.read_argv`, which a valid request runs) and, for comparison,
  argparse's `parse_args` on the same argv, the parse of the algebra, of
  alpha, of J and of epsilon, check_contact, check_ccy, the report (built
  from its strings and written by `Report.to_json`), and the whole
  in-process request (`cli.main`, its report discarded);
- the special Legendrian check of a `legendrian` request on the same
  structures, dims 3, 5 and 7, span X1;X3;...: `Subalgebra` on the parsed
  span and `check_special_legendrian`, and the whole request;
- comass_sample on the shipped Heisenberg structures, n = 1..5, at
  COMASS_SAMPLES frames (COMASS_SEED), and one whole in-process `comass`
  request as ccy-mix sends it (`perfbench.workloads.ccy_flags`, --samples
  2000, --seed COMASS_SEED), n = 1..3;
- the stages of the check-hypo request ccy-mix sends (`perfbench.workloads
  .HYPO`, four form expressions): the argv reader and argparse, as above,
  the parse of the algebra, the parses of alpha and the three omegas
  together, check_hypo, and the whole in-process request;
- kernel_dimension of the moduli operator at N = 256, 512, 1024, 2048 and
  4096 (the operator assembled once), and betti_numbers of the Heisenberg
  algebras of dims 7, 9 and 11 and, in one fixed frame each (BETTI_FRAME_SEED,
  one shear, as rank-sweep draws its frames), of H9 and H3+H3+H3; each Betti
  point records the degrees betti_numbers ranks (the domains it builds image
  rows on) and, as the full-complex reference, times building d on every
  degree as the image rows and the ranks of all of them alone;
- change_of_basis of the Heisenberg algebras of dims 11, 15 and 19 into one
  seeded dense rational frame each (BASIS_SEED);
- and the dimension-5 obstruction filter, in ms per call over the contact
  forms among the default catalog's samples (CLASSIFY_SEED with
  RANDOM_SAMPLES random samples per entry, the samples `classify` draws),
  once computing the closed 2-forms on every call and once handed them, as
  `classify` computes them once per entry, with the whole default
  `classify` run; per default-catalog entry, contact_existence_polynomial
  and _sample_alphas (CLASSIFY_SEED, RANDOM_SAMPLES); and one whole
  in-process `classify --seed CLASSIFY_SEED` request and one `obstruction`
  request as ccy-mix sends it (H3, span X1, the default rotations);
- and start-up: for each subcommand on one small input (STARTUP), and for
  one usage error (STARTUP_ERROR, exit 2), the wall time of a fresh `python
  -m nilgeo.cli` process on a copy of the tree's sources, once compiling
  them on every start (no .pyc files, as with PYTHONDONTWRITEBYTECODE=1) and
  once reading the .pyc files a first run wrote; and the `nilgeo` modules
  the request loads, their source lines, and whether it loads numpy and
  argparse.

A point is the median of REPEATS timed loops, each long enough to take at
least MIN_LOOP_S and host-speed adjusted as the end-to-end timings are
(`perfbench/hostspeed.py`: the reference job runs right before and after
each loop, and the loop's time is scaled to a host on which it takes 1 ms).
The trees are measured ROUNDS times in turn, and each point keeps the
fastest of its rounds: the host's speed drifts by tens of percent within
minutes, and a slow stretch should not land on one tree only. A slope is
the least-squares fit of log(time) against log(dim) over one family; the
JSON family also gets the slope of parse_algebra over dims >= 101 alone.

With --pairs N it then runs `perfbench/run.py --workload W` N times in every
tree for each --workload, alternating which tree runs first, and records each
run's end-to-end metrics, each tree's median and quartiles, and for two trees
how many pairs the second tree won on each metric (ties count for neither).
`--workload W=N` sets N for that workload alone, as in the command above.

The output records the Python version, platform, CPU count and, per tree,
the git revision, whether the tree differs from it, and a digest of the
measured sources.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from time import perf_counter, perf_counter_ns

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench.hostspeed import HostClock  # noqa: E402
from perfbench.workloads import BASES, change_basis, compact, filiform, heisenberg, positive_metric  # noqa: E402
from perfbench.workloads import HYPO, ccy_flags, legendrian_span, unimodular  # noqa: E402

HEISENBERG = (1, 2, 3, 4, 5)
STRUCTURE_N = tuple(range(1, 11))
JSON_HEISENBERG = (11, 21, 41, 101, 201, 401, 801)
MODULI_N = (256, 512, 1024, 2048, 4096)
BETTI_DIMS = (7, 9, 11)
BETTI_SHEARED = ("H9", "H3+H3+H3")
BETTI_FRAME_SEED = 0
FRAME_SEED = 16
DENSE_N = (5, 9, 10)
DENSE_SEED = 21
BASIS_DIMS = (11, 15, 19)
BASIS_SEED = 21
FILIFORM = (4, 5, 6, 7, 8, 9)
METRIC_SEED = 7
PARSE_SEED = 19
PARSE_DIMS = (3, 4, 5, 6, 7)
PARSE_METRICS = 20
PARSE_COMPACT = {f"F{m}": filiform(m) for m in (4, 5, 6, 7)}
PARSE_COMPACT.update({f"H{2 * n + 1}": heisenberg(n) for n in (1, 2, 3, 4)})
CCY_N = (1, 2, 3)
CCY_ROTATION = (3, 4, 5)
COMASS_SAMPLES = (2000, 10**5)
COMASS_SEED = 0
CLASSIFY_SEED = 0
RANDOM_SAMPLES = 3
CLASSIFY_REQUEST = ["classify", "--seed", str(CLASSIFY_SEED)]
OBSTRUCTION_REQUEST = ["obstruction", *ccy_flags(1), "--span", "X1", "--rotations", "default"]  # as ccy-mix sends it
REPEATS = 7
ROUNDS = 3
MIN_LOOP_S = 0.02
WORKLOADS = ("curvature-sweep", "ccy-mix", "rank-sweep")
H3 = ("--algebra", "(0,0,12)", "--alpha", "2*e3")
H3_CCY = (*H3, "--J", "pairs:(1,2)", "--epsilon", "e1 + i*e2")
# label -> argv; every one a valid request but the usage error
STARTUP = {
    "check-contact": H3,
    "check-sasakian": (*H3, "--J", "pairs:(1,2)"),
    "check-ccy": H3_CCY,
    "check-hypo": ("--algebra", "(0,0,0,0,12+34)", "--alpha", "2*e5", "--omega1", "e1^e2 + e3^e4",
                   "--omega2", "e1^e3 - e2^e4", "--omega3", "e1^e4 + e2^e3"),
    "check-rccy": ("--algebra", "(0,0,12,0)", "--alphas", "2*e3; 2*e3 + 2*e4", "--J", "pairs:(1,2)",
                   "--epsilon", "e1 + i*e2"),
    "betti": ("--algebra", "(0,0,0,0,12+34)"),
    "curvature": H3_CCY,
    "legendrian": (*H3_CCY, "--span", "X1"),
    "obstruction": (*H3_CCY, "--span", "X1"),
    "moduli-kernel": ("--N", "16"),
    "comass": (*H3_CCY, "--samples", "1000"),
    "classify": ("--seed", "0"),
}
STARTUP_ERROR = ("check-ccy", *H3)  # no --J, no --epsilon: argparse words the error, exit 2
# prints the nilgeo modules that cli.main(argv) loads, with their files
LOADED = """import contextlib, io, json, sys
import nilgeo.cli
with contextlib.redirect_stdout(io.StringIO()):
    nilgeo.cli.main(sys.argv[1:])
names = [name for name in sys.modules if name.split(".")[0] == "nilgeo"]
print(json.dumps({"files": [sys.modules[name].__file__ for name in names], "numpy": "numpy" in sys.modules,
                  "argparse": "argparse" in sys.modules}))
"""


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


def rational_frame(linalg, rng: random.Random, m: int) -> list[list[Fraction]]:
    """Columns of an invertible m x m matrix with entries p/q, |p| <= 2, q <= 3."""
    while True:
        cols = [[Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(m)] for _ in range(m)]
        if linalg.det(cols):
            return cols


def matmul(a, b) -> list[list]:
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def ranked_degrees(cealg, alg) -> list[int]:
    """The degrees whose image rows betti_numbers builds, read off its calls of `_image_rows`."""
    degrees, image_rows = [], cealg._image_rows

    def spy(d1, domain, pos):
        degrees.append(domain[0].bit_count())
        return image_rows(d1, domain, pos)

    cealg._image_rows = spy
    try:
        cealg.betti_numbers(alg)
    finally:
        cealg._image_rows = image_rows
    return degrees


def betti_parts(cealg, linalg, alg) -> dict:
    """What a Betti point times: betti_numbers and, on the full complex,
    building d on every degree as the image rows, and the ranks alone."""
    def build():
        masks, pos = cealg._basis_masks(alg.dim, range(alg.dim))
        return [cealg._image_rows(alg.d1_ints[0], masks[k], pos) for k in range(alg.dim)]

    matrices = build()
    return {"build_d_ms": build, "rank_d_ms": lambda: [linalg.rank_sparse(m) for m in matrices],
            "betti_numbers_ms": lambda: cealg.betti_numbers(alg)}


def process_ms(clock: HostClock, cmd: list, env: dict, code: int) -> float:
    """Median host-adjusted milliseconds of REPEATS runs of a fresh process
    that exits with code."""
    runs = []
    for _ in range(REPEATS):
        clock.probe()
        start = perf_counter_ns()
        if subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL).returncode != code:
            raise RuntimeError(f"{cmd} did not exit {code}")
        end = perf_counter_ns()
        clock.probe()
        runs.append((end - start) / 1e6 * clock.factor(start, end))
    return statistics.median(runs)


def startup(tree: Path, clock: HostClock) -> list[dict]:
    """The start-up rows of the nilgeo under tree/src (see the docstring)."""
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(tree / "src" / "nilgeo", Path(tmp) / "nilgeo", ignore=shutil.ignore_patterns("__pycache__"))
        env = {key: value for key, value in os.environ.items() if key != "PYTHONDONTWRITEBYTECODE"}
        env["PYTHONPATH"] = tmp
        cold = {**env, "PYTHONDONTWRITEBYTECODE": "1"}
        requests = [(command, (command, *argv), 0) for command, argv in STARTUP.items()]
        requests.append(("usage error", STARTUP_ERROR, 2))
        for label, argv, code in requests:
            cmd = [sys.executable, "-m", "nilgeo.cli", *argv]
            loaded = json.loads(subprocess.run([sys.executable, "-c", LOADED, *argv], env=cold,
                                               capture_output=True, text=True, check=True).stdout)
            lines = sum(len(Path(f).read_text(encoding="utf-8").splitlines()) for f in loaded["files"])
            rows.append({"family": "startup", "command": label, "modules": len(loaded["files"]),
                         "source_lines": lines, "numpy": loaded["numpy"], "argparse": loaded["argparse"],
                         "cold_ms": process_ms(clock, cmd, cold, code)})
        for row, (_, argv, code) in zip(rows, requests):  # every cold run is done: write the .pyc files, read them
            cmd = [sys.executable, "-m", "nilgeo.cli", *argv]
            subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL)
            row["pyc_ms"] = process_ms(clock, cmd, env, code)
    return rows


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
    from nilgeo import cealg, cli, linalg
    from nilgeo.classify import (
        Catalog,
        _sample_alphas,
        ccy_obstruction_filter,
        classify_catalog,
        closed_two_forms,
        contact_existence_polynomial,
    )
    from nilgeo.curvature import levi_civita, ricci_scalar, transverse_ricci
    from nilgeo.deform import CircleGrid, assemble_operator, kernel_dimension
    from nilgeo.exterior import Endo, Metric, Vector, pullback
    from nilgeo.legendrian import comass_sample
    from nilgeo.models import heisenberg_algebra, heisenberg_ccy, heisenberg_ccy_data
    from nilgeo.structures import (
        NotContactError,
        _check_calibration,
        _check_epsilon_clauses,
        _nijenhuis_failures,
        check_ccy,
        check_contact,
        check_sasakian,
        induced_metric,
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
                "transverse_ricci_ms": timed_ms(clock, lambda: transverse_ricci(structure, conn=conn, full=full)),
            }
        )
    frames = random.Random(FRAME_SEED)
    for n in HEISENBERG:
        alg, alpha, J, _ = heisenberg_ccy_data(n)
        cols = rational_frame(linalg, frames, alg.dim)
        p = [list(row) for row in zip(*cols)]
        alg = cealg.change_of_basis(alg, cols)
        alpha = pullback(alpha, [Vector(col) for col in cols])
        structure = check_sasakian(check_contact(alg, alpha), Endo(matmul(matmul(linalg.inverse(p), J.matrix), p)))
        g = induced_metric(structure.g_j, alpha)
        conn = levi_civita(alg, g)
        full = ricci_scalar(alg, g, conn)
        rows.append(
            {
                "family": "heisenberg_frame",
                "n": n,
                "dim": alg.dim,
                "levi_civita_ms": timed_ms(clock, lambda: levi_civita(alg, g)),
                "ricci_scalar_ms": timed_ms(clock, lambda: ricci_scalar(alg, g, conn)),
                "transverse_ricci_ms": timed_ms(clock, lambda: transverse_ricci(structure, conn=conn, full=full)),
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
        text = json.dumps({"dim": dim, "d": {str(dim): pairs}})
        alg, alpha = parse_algebra(text), parse_form(f"2*e{dim}", dim)
        parse_ms = timed_ms(clock, lambda: parse_algebra(text))
        check_ms = timed_ms(clock, lambda: check_contact(alg, alpha))
        rows.append({"family": "json_heisenberg", "dim": dim, "parse_algebra_ms": parse_ms, "check_contact_ms": check_ms})
    dense = random.Random(DENSE_SEED)
    for n in DENSE_N:
        alg, alpha, _, _ = heisenberg_ccy_data(n)
        cols = rational_frame(linalg, dense, alg.dim)
        alg, alpha = cealg.change_of_basis(alg, cols), pullback(alpha, [Vector(col) for col in cols])
        ints = [{c: dense.randint(-9, 9) for c in range(alg.dim)} for _ in range(alg.dim)]
        rows.append({"family": "dense_frame", "dim": alg.dim,
                     "check_contact_ms": timed_ms(clock, lambda: check_contact(alg, alpha)),
                     "rank_sparse_ms": timed_ms(clock, lambda: linalg.rank_sparse(ints))})
    parse_rng = random.Random(PARSE_SEED)
    metrics = {dim: [positive_metric(dim, parse_rng) for _ in range(PARSE_METRICS)] for dim in PARSE_DIMS}
    for dim, texts in metrics.items():
        ms = timed_ms(clock, lambda: [cli._parse_metric(text) for text in texts]) / len(texts)
        rows.append({"family": "parse_metric", "dim": dim, "parse_metric_ms": ms})
    for name, alg in PARSE_COMPACT.items():
        spec = compact(alg)
        rows.append({"family": "parse_compact", "algebra": name, "dim": alg[0],
                     "parse_algebra_ms": timed_ms(clock, lambda: parse_algebra(spec))})
    argvs = [["curvature", "--algebra", compact(filiform(6)), "--metric", text] for text in metrics[6]]

    def requests():
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in argvs:
                cli.main(argv)

    rows.append({"family": "request", "command": "curvature --metric", "algebra": "F6",
                 "curvature_request_ms": timed_ms(clock, requests) / len(argvs)})
    rows += ccy_requests(clock)
    for n in HEISENBERG:
        structure, row = heisenberg_ccy(n), {"family": "comass", "n": n, "dim": 2 * n + 1}
        for samples in COMASS_SAMPLES:
            row[f"sample_{samples}_ms"] = timed_ms(clock, lambda: comass_sample(structure, samples, seed=COMASS_SEED))
        if n in CCY_N:
            argv = ["comass", *ccy_flags(n), "--samples", "2000", "--seed", str(COMASS_SEED)]
            row["request_ms"] = timed_ms(clock, whole_request(argv))
        rows.append(row)
    for n in MODULI_N:
        op = assemble_operator(CircleGrid(n))
        rows.append({"family": "moduli", "dim": n, "kernel_dimension_ms": timed_ms(clock, lambda: kernel_dimension(op))})
    betti = [("betti", f"H{dim}", heisenberg_algebra((dim - 1) // 2)) for dim in BETTI_DIMS]
    frames = random.Random(BETTI_FRAME_SEED)
    for base in BETTI_SHEARED:
        alg = BASES[base][0]
        betti.append(("betti_sheared", base, parse_algebra(compact(change_basis(alg, *unimodular(alg[0], frames, 1))))))
    for family, name, alg in betti:
        parts = betti_parts(cealg, linalg, alg)
        rows.append({"family": family, "algebra": name, "dim": alg.dim,
                     "ranked_degrees": ranked_degrees(cealg, alg),
                     **{key: timed_ms(clock, fn) for key, fn in parts.items()}})
    frames = random.Random(BASIS_SEED)
    for dim in BASIS_DIMS:
        alg = heisenberg_algebra((dim - 1) // 2)
        cols = rational_frame(linalg, frames, dim)
        rows.append({"family": "basis", "dim": dim,
                     "change_of_basis_ms": timed_ms(clock, lambda: cealg.change_of_basis(alg, cols))})
    calls = []
    for entry in Catalog.default():
        alg = entry.algebra()
        if alg.dim == 5:
            closed = closed_two_forms(alg)
            for alpha in _sample_alphas(alg, CLASSIFY_SEED, RANDOM_SAMPLES):
                try:
                    ccy_obstruction_filter(alg, alpha)
                except NotContactError:
                    continue
                calls.append((alg, alpha, closed))

    def run_filter():
        for alg, alpha, _ in calls:
            ccy_obstruction_filter(alg, alpha)

    def run_filter_closed():
        for alg, alpha, closed in calls:
            ccy_obstruction_filter(alg, alpha, closed)

    rows.append(
        {
            "family": "filter",
            "calls": len(calls),
            "filter_ms_per_call": timed_ms(clock, run_filter) / len(calls),
            "filter_closed_ms_per_call": timed_ms(clock, run_filter_closed) / len(calls),
            "classify_default_ms": timed_ms(clock, lambda: classify_catalog(Catalog.default(), CLASSIFY_SEED)),
        }
    )
    for entry in Catalog.default():
        alg = entry.algebra()
        rows.append({"family": "classify_entry", "entry": entry.name, "dim": alg.dim,
                     "contact_polynomial_ms": timed_ms(clock, lambda: contact_existence_polynomial(alg)),
                     "sample_alphas_ms": timed_ms(clock, lambda: _sample_alphas(alg, CLASSIFY_SEED, RANDOM_SAMPLES))})
    for argv in (CLASSIFY_REQUEST, OBSTRUCTION_REQUEST):
        rows.append({"family": "request", "command": " ".join(argv), "request_ms": timed_ms(clock, whole_request(argv))})
    return rows + startup(tree, clock)


def whole_request(argv):
    """One in-process request (`cli.main`), its report discarded."""
    from nilgeo import cli

    def request():
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(argv)
    return request


def read_argv_columns(clock: HostClock, cli, argv) -> dict:
    """The argv reader a valid request runs (absent from trees without one)
    and argparse's parse_args on the same argv."""
    columns = {"read_argv_ms": timed_ms(clock, lambda: cli.read_argv(argv))} if hasattr(cli, "read_argv") else {}
    return {**columns, "argparse_ms": timed_ms(clock, lambda: cli._parser().parse_args(argv))}


def ccy_requests(clock: HostClock) -> list[dict]:
    """The stage rows of check-ccy, legendrian and check-hypo requests (see the docstring)."""
    from nilgeo import cli
    from nilgeo.algdsl import parse_algebra, parse_endo, parse_form, parse_vectors
    from nilgeo.legendrian import Subalgebra, check_special_legendrian
    from nilgeo.structures import ccy_epsilon, check_ccy, check_contact, check_hypo

    rows = []
    for n in CCY_N:
        argv = ["check-ccy", *ccy_flags(n, rotation=CCY_ROTATION)]
        flags = dict(zip(argv[1::2], argv[2::2]))
        alg = parse_algebra(flags["--algebra"])
        alpha, J = parse_form(flags["--alpha"], alg.dim), parse_endo(flags["--J"], alg.dim)
        epsilon = ccy_epsilon(alg, parse_form(flags["--epsilon"], alg.dim))
        contact = check_contact(alg, alpha)
        structure = check_ccy(contact, J, epsilon)
        reeb, metric = str(structure.contact.reeb), [[str(x) for x in row] for row in structure.metric.matrix]

        def report():
            out = cli.Report("check-ccy", {**{k[2:]: v for k, v in flags.items()}, "strict_def31": False})
            out.add("ccy", True, reeb=reeb, metric=metric)
            return out.to_json()

        rows.append({
            "family": "ccy_request", "n": n, "dim": alg.dim,
            **read_argv_columns(clock, cli, argv),
            "parse_algebra_ms": timed_ms(clock, lambda: parse_algebra(flags["--algebra"])),
            "parse_alpha_ms": timed_ms(clock, lambda: parse_form(flags["--alpha"], alg.dim)),
            "parse_J_ms": timed_ms(clock, lambda: parse_endo(flags["--J"], alg.dim)),
            "parse_epsilon_ms": timed_ms(clock, lambda: ccy_epsilon(alg, parse_form(flags["--epsilon"], alg.dim))),
            "check_contact_ms": timed_ms(clock, lambda: check_contact(alg, alpha)),
            "check_ccy_ms": timed_ms(clock, lambda: check_ccy(contact, J, epsilon)),
            "report_ms": timed_ms(clock, report),
            "request_ms": timed_ms(clock, whole_request(argv)),
        })
        span = legendrian_span(n)
        sub = Subalgebra(alg, parse_vectors(span, alg.dim))
        rows.append({
            "family": "legendrian", "n": n, "dim": alg.dim, "span": span,
            "subalgebra_ms": timed_ms(clock, lambda: Subalgebra(alg, parse_vectors(span, alg.dim))),
            "special_legendrian_ms": timed_ms(clock, lambda: check_special_legendrian(sub, structure)),
            "request_ms": timed_ms(clock, whole_request(["legendrian", *ccy_flags(n), "--span", span])),
        })
    argv = ["check-hypo", *(x for flag in HYPO.items() for x in flag)]
    alg = parse_algebra(HYPO["--algebra"])
    texts = [HYPO[f"--{name}"] for name in ("alpha", "omega1", "omega2", "omega3")]
    forms = [parse_form(text, alg.dim) for text in texts]
    rows.append({
        "family": "hypo_request", "dim": alg.dim,
        **read_argv_columns(clock, cli, argv),
        "parse_algebra_ms": timed_ms(clock, lambda: parse_algebra(HYPO["--algebra"])),
        "parse_forms_ms": timed_ms(clock, lambda: [parse_form(text, alg.dim) for text in texts]),
        "check_hypo_ms": timed_ms(clock, lambda: check_hypo(*forms, alg)),
        "request_ms": timed_ms(clock, whole_request(argv)),
    })
    return rows


def fastest(rounds) -> dict:
    """Each point's fastest timing over the rounds, and the slopes of those."""
    rows = [{key: min(r[key] for r in point) if "_ms" in key else value for key, value in point[0].items()}
            for point in zip(*rounds)]
    slopes = {}
    for family in ("heisenberg", "heisenberg_frame", "filiform", "structure", "json_heisenberg", "moduli", "betti",
                   "parse_metric", "ccy_request", "legendrian", "basis", "comass"):
        for kernel in ("levi_civita", "ricci_scalar", "transverse_ricci", "metric_elimination", "check_ccy",
                       "epsilon_clauses", "calibration", "nijenhuis", "parse_epsilon", "check_contact",
                       "parse_algebra", "kernel_dimension", "betti_numbers", "build_d", "rank_d", "parse_metric",
                       "read_argv", "argparse", "parse_alpha", "parse_J", "report", "request", "subalgebra",
                       "special_legendrian", "change_of_basis", *(f"sample_{s}" for s in COMASS_SAMPLES)):
            points = [(r["dim"], r[f"{kernel}_ms"]) for r in rows if r["family"] == family and f"{kernel}_ms" in r]
            if len(points) > 1:
                slopes[f"{family}.{kernel}"] = slope(points)
    large = [(r["dim"], r["parse_algebra_ms"]) for r in rows if r["family"] == "json_heisenberg" and r["dim"] >= 101]
    slopes["json_heisenberg.parse_algebra.dim_101_up"] = slope(large)
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


def workload_pairs(spec: str) -> tuple[str, int | None]:
    """A --workload value: W, or W=PAIRS."""
    workload, _, count = spec.partition("=")
    if workload not in WORKLOADS:
        raise argparse.ArgumentTypeError(f"unknown workload {workload!r}")
    return workload, int(count) if count else None


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", action="append", default=[], help="LABEL=PATH of a checkout")
    parser.add_argument("--pairs", type=int, default=0, help="perfbench runs per tree and workload")
    parser.add_argument("--workload", action="append", type=workload_pairs,
                        help="W or W=PAIRS, W one of " + ", ".join(WORKLOADS))
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
            "moduli_n": list(MODULI_N),
            "betti_dims": list(BETTI_DIMS),
            "betti_sheared": list(BETTI_SHEARED),
            "betti_frame_seed": BETTI_FRAME_SEED,
            "frame_seed": FRAME_SEED,
            "dense_n": list(DENSE_N),
            "dense_seed": DENSE_SEED,
            "basis_dims": list(BASIS_DIMS),
            "basis_seed": BASIS_SEED,
            "filiform_dims": list(FILIFORM),
            "metric_seed": METRIC_SEED,
            "parse_seed": PARSE_SEED,
            "parse_dims": list(PARSE_DIMS),
            "parse_metrics": PARSE_METRICS,
            "parse_compact": list(PARSE_COMPACT),
            "ccy_n": list(CCY_N),
            "ccy_rotation": list(CCY_ROTATION),
            "comass_samples": list(COMASS_SAMPLES),
            "comass_seed": COMASS_SEED,
            "classify_seed": CLASSIFY_SEED,
            "random_samples": RANDOM_SAMPLES,
            "requests": [CLASSIFY_REQUEST, OBSTRUCTION_REQUEST],
            "startup": {**{command: [command, *argv] for command, argv in STARTUP.items()},
                        "usage error": list(STARTUP_ERROR)},
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
    counts = {workload: count or args.pairs for workload, count in args.workload or [(w, None) for w in WORKLOADS]}
    if any(counts.values()):
        report["perfbench"] = {
            workload: pairs(trees, workload, count, args.seed, args.seconds) for workload, count in counts.items() if count
        }
    text = json.dumps(report, indent=2)
    if args.out:
        args.out.write_text(text + "\n")
    print(text)


if __name__ == "__main__":
    main()

"""Self-tests of the benchmark: generator, wrappers and the correctness check."""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import BASES, CYCLES, Stream, change_basis, compact, unimodular  # noqa: E402

cli = run.load_nilgeo()


def argvs(workload: str, seed: int, cycles: int = 2):
    stream = Stream(workload, seed)
    return [r.argv for i in range(cycles) for r in stream.cycle(i)]


@pytest.mark.parametrize("workload", sorted(CYCLES))
def test_generator_is_deterministic_per_seed(workload):
    assert argvs(workload, 11) == argvs(workload, 11)


@pytest.mark.parametrize("workload", sorted(CYCLES))
def test_seeds_give_different_inputs(workload):
    assert argvs(workload, 11) != argvs(workload, 12)


def test_rank_sweep_never_repeats_an_input():
    seen = argvs("rank-sweep", 3, cycles=6)
    assert len(seen) == len(set(seen))


def test_basis_change_is_unimodular_and_keeps_betti_numbers():
    alg, table = BASES["H3+F4"]
    p, q = unimodular(alg[0], random.Random(5), 3)
    n = alg[0]
    assert all(sum(p[i][k] * q[k][j] for k in range(n)) == (i == j) for i in range(n) for j in range(n))
    ns, rc, out, err = run.call(cli.main, run.Request(("betti", "--algebra", compact(change_basis(alg, p, q))), n))
    assert rc == 0 and tuple(json.loads(out)["checks"][0]["numbers"]) == table


def test_wrappers_are_removed_cleanly():
    modules = {name: dict(vars(m)) for name, m in sys.modules.items() if name.split(".")[0] == "nilgeo"}
    classes = {
        cls: dict(vars(cls))
        for cls in (cli.Report, sys.modules["nilgeo.cealg"].LieAlgebra, sys.modules["nilgeo.exterior"].KForm)
    }
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.main is not modules["nilgeo.cli"]["main"]
        patched = {(id(owner), name) for owner, name, _ in tracer._patches}
        assert (id(sys.modules["nilgeo.legendrian"]), "check_ccy") in patched
        req = Stream("ccy-mix", 0).cycle(0)[0]
        run.run_requests(cli.main, [req], run.Checker({}), tracer)
        assert tracer.spans and tracer.groups[tracer.spans[0][0]] == "cli.main"
    finally:
        tracer.uninstall()
    for name, attrs in modules.items():
        now = vars(sys.modules[name])
        assert all(now[k] is v for k, v in attrs.items()), name
    for cls, attrs in classes.items():
        assert all(vars(cls)[k] is v for k, v in attrs.items()), cls


def test_host_clock_rescales_by_the_nearby_reference_median():
    clock = hostspeed.HostClock()
    second = 1_000_000_000
    # the host runs the reference in 2 ms around t = 10 s and in 4 ms around t = 20 s
    clock.times = [10 * second + k for k in range(3)] + [20 * second + k for k in range(3)]
    clock.ns = [2_000_000, 2_000_000, 9_000_000, 4_000_000, 4_000_000, 4_000_000]
    assert clock.factor(10 * second, 10 * second + 5) == hostspeed.REFERENCE_MS / 2
    assert clock.factor(20 * second, 20 * second + 5) == hostspeed.REFERENCE_MS / 4


def test_injected_wrong_report_is_counted():
    requests = [r for r in Stream("ccy-mix", 0).cycle(0) if r.command == "check-contact" and r.expect_rc == 0][:3]
    clean = run.run_requests(cli.main, requests, run.Checker({}))
    stored = {run.key_of(r.argv): o.digest for r, o in zip(requests, clean)}
    assert not any(o.reason for o in clean)

    def tampered(edit):
        def main(argv):
            if tuple(argv) != requests[1].argv:
                return cli.main(argv)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = cli.main(argv)
            print(edit(out.getvalue()), end="")
            return rc

        return main

    # a byte that only the stored digest can see, and a verdict that contradicts the exit code
    for edit, stored_table in ((lambda text: text + " ", stored), (lambda text: text.replace('"pass"', '"fail"'), {})):
        outcomes = run.run_requests(tampered(edit), requests, run.Checker(stored_table))
        failed = [o.reason is not None for o in outcomes]
        assert failed == [False, True, False]


def test_benchmark_json_names_the_printed_metrics():
    bench = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in bench["workloads"]} == set(CYCLES)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == tracing.PER_LAYER

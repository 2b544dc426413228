"""Per-layer tracing of nilgeo from outside the package.

`Tracer.install` wraps the public functions of each layer at every `nilgeo.*`
module attribute that binds them (`from .linalg import rank` copies the name,
so each copy gets its own wrapper) and the listed methods on their classes.
A span wrapper records [group, start, end, parent, request, excluded] in
memory; a count wrapper only bumps a counter, for methods hot enough that a
span would swamp them. `Tracer.uninstall` puts every original back.

Self time of a span is its duration minus its child spans and minus the time
the tracer itself spent measuring argument sizes inside it.
"""

from __future__ import annotations

import functools
import importlib
import math
import statistics
import sys
from collections import defaultdict
from time import perf_counter_ns

# (module, attribute path, group). The layer is the group's first component.
SPANS = (
    ("cli", "main", "cli.main"),
    ("cli", "Report.to_json", "cli.to_json"),
    ("algdsl", "parse_algebra", "algdsl.parse"),
    ("algdsl", "parse_form", "algdsl.parse"),
    ("algdsl", "parse_endo", "algdsl.parse"),
    ("algdsl", "parse_vector", "algdsl.parse"),
    ("algdsl", "parse_vectors", "algdsl.parse"),
    ("cealg", "LieAlgebra.__init__", "cealg.LieAlgebra.init"),
    ("cealg", "LieAlgebra.d", "cealg.d"),
    ("cealg", "d_matrix", "cealg.d_matrix"),
    ("cealg", "betti_numbers", "cealg.betti_numbers"),
    ("cealg", "is_exact", "cealg.is_exact"),
    ("linalg", "rank", "linalg.rank"),
    ("linalg", "rank_sparse", "linalg.rank_sparse"),
    ("linalg", "solve", "linalg.elim"),
    ("linalg", "rref", "linalg.elim"),
    ("linalg", "nullspace", "linalg.elim"),
    ("linalg", "det", "linalg.elim"),
    ("linalg", "inverse", "linalg.elim"),
    ("exterior", "pullback", "exterior.pullback"),
    ("exterior", "hodge_star", "exterior.hodge_star"),
    ("structures", "check_contact", "structures.check_contact"),
    ("structures", "check_sasakian", "structures.check_sasakian"),
    ("structures", "check_ccy", "structures.check_ccy"),
    ("structures", "check_r_contact_ccy", "structures.check_r_contact_ccy"),
    ("structures", "check_hypo", "structures.check_hypo"),
    ("curvature", "levi_civita", "curvature.levi_civita"),
    ("curvature", "ricci_scalar", "curvature.ricci_scalar"),
    ("curvature", "check_alpha_einstein", "curvature.check_alpha_einstein"),
    ("curvature", "transverse_ricci", "curvature.transverse_ricci"),
    ("legendrian", "check_special_legendrian", "legendrian.check_special_legendrian"),
    ("legendrian", "extension_obstruction", "legendrian.extension_obstruction"),
    ("legendrian", "comass_sample", "legendrian.comass_sample"),
    ("deform", "assemble_operator", "deform.assemble_operator"),
    ("deform", "kernel_dimension", "deform.kernel_dimension"),
    ("classify", "classify_catalog", "classify.classify_catalog"),
    ("classify", "ccy_obstruction_filter", "classify.ccy_obstruction_filter"),
    ("classify", "contact_existence_polynomial", "classify.contact_existence_polynomial"),
)
COUNTS = (
    ("exterior", "KForm.wedge", "exterior.wedge"),
    ("exterior", "ComplexKForm.wedge", "exterior.wedge"),
    ("exterior", "wedge", "exterior.wedge"),
    ("exterior", "KForm.power", "exterior.power"),
    ("exterior", "contract", "exterior.contract"),
    ("exterior", "evaluate", "exterior.evaluate"),
)
LAYERS = (
    "cli", "algdsl", "cealg", "linalg", "exterior",
    "structures", "curvature", "legendrian", "deform", "classify",
)

# Per-layer metrics: name -> (unit, better). The order is the print order.
PER_LAYER = {
    "curvature.transverse_ricci.self_s": ("s", "lower"),
    "curvature.transverse_ricci.calls": ("count", "lower"),
    "curvature.transverse_ricci.slope": ("log-log", "lower"),
    "curvature.ricci_scalar.self_s": ("s", "lower"),
    "curvature.levi_civita.self_s": ("s", "lower"),
    "curvature.check_alpha_einstein.self_s": ("s", "lower"),
    "linalg.rank.calls": ("count", "lower"),
    "linalg.rank.self_s": ("s", "lower"),
    "linalg.rank.cells": ("count", "lower"),
    "linalg.rank.max_bits": ("bits", "lower"),
    "cealg.betti_numbers.self_s": ("s", "lower"),
    "cealg.betti_numbers.slope": ("log-log", "lower"),
    "cealg.d_matrix.self_s": ("s", "lower"),
    "cealg.d_matrix.cells": ("count", "lower"),
    "cealg.d.calls": ("count", "lower"),
    "cealg.d.self_s": ("s", "lower"),
    "linalg.rank_sparse.calls": ("count", "lower"),
    "linalg.rank_sparse.self_s": ("s", "lower"),
    "linalg.rank_sparse.nnz": ("count", "lower"),
    "linalg.rank_sparse.slope": ("log-log", "lower"),
    "deform.kernel_dimension.calls_per_request": ("count", "lower"),
    "structures.check_contact.calls": ("count", "lower"),
    "structures.check_contact.self_s": ("s", "lower"),
    "structures.check_ccy.self_s": ("s", "lower"),
    "structures.check_ccy.slope": ("log-log", "lower"),
    "structures.check_sasakian.self_s": ("s", "lower"),
    "structures.check_r_contact_ccy.self_s": ("s", "lower"),
    "structures.check_hypo.self_s": ("s", "lower"),
    "exterior.wedge.calls": ("count", "lower"),
    "exterior.pullback.calls": ("count", "lower"),
    "exterior.self_s": ("s", "lower"),
    "algdsl.parse.calls": ("count", "lower"),
    "algdsl.parse.self_s": ("s", "lower"),
    "cealg.LieAlgebra.init.self_s": ("s", "lower"),
    "cealg.is_exact.self_s": ("s", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "legendrian.comass_sample.self_s": ("s", "lower"),
    "legendrian.comass_sample.frames_per_s": ("1/s", "higher"),
    "legendrian.check_special_legendrian.self_s": ("s", "lower"),
    "legendrian.extension_obstruction.self_s": ("s", "lower"),
    "classify.classify_catalog.self_s": ("s", "lower"),
    "classify.ccy_obstruction_filter.calls": ("count", "lower"),
    "classify.ccy_obstruction_filter.self_s": ("s", "lower"),
    "classify.contact_existence_polynomial.self_s": ("s", "lower"),
    "linalg.elim.calls": ("count", "lower"),
    "linalg.elim.self_s": ("s", "lower"),
    **{f"{layer}.self_share": ("frac", "lower") for layer in LAYERS},
    "trace.overhead_frac": ("frac", "lower"),
}

# Rows of the ROADMAP baseline table: (label, group, request size, baseline ms).
# comass rows are the time for 10^5 frames at the measured frame rate.
BASELINE = (
    ("check_ccy n=1", "structures.check_ccy", 3, 5),
    ("check_ccy n=2", "structures.check_ccy", 5, 18),
    ("check_ccy n=3", "structures.check_ccy", 7, 62),
    ("ricci_scalar n=1", "curvature.ricci_scalar", 3, 2),
    ("transverse_ricci n=1", "curvature.transverse_ricci", 3, 14),
    ("transverse_ricci n=2", "curvature.transverse_ricci", 5, 133),
    ("transverse_ricci n=3", "curvature.transverse_ricci", 7, 613),
    ("betti_numbers dim 7", "cealg.betti_numbers", 7, 21),
    ("betti_numbers dim 9", "cealg.betti_numbers", 9, 236),
    ("kernel_dimension N=256", "deform.kernel_dimension", 256, 42),
    ("kernel_dimension N=1024", "deform.kernel_dimension", 1024, 248),
    ("comass_sample 10^5 n=1", "legendrian.comass_sample", 3, 31),
    ("comass_sample 10^5 n=3", "legendrian.comass_sample", 7, 193),
    ("classify default", "classify.classify_catalog", 5, 62),
)
NOT_COVERED = (
    "check_ccy n=4",
    "ricci_scalar n=4",
    "transverse_ricci n=4",
    "betti_numbers dim 11",
    "kernel_dimension N=4096",
    "LieAlgebra from JSON dim 20/40/80",
    "Tier-1 wall time",
)


def _max_bits(values) -> int:
    return max(
        (max(abs(x.numerator).bit_length(), x.denominator.bit_length()) for x in values if x),
        default=0,
    )


def _rank_sizes(tracer, args, kwargs):
    matrix = args[0] if args else kwargs["matrix"]
    tracer.add("linalg.rank.cells", len(matrix) * (len(matrix[0]) if matrix else 0))
    tracer.peak("linalg.rank.max_bits", max((_max_bits(row) for row in matrix), default=0))


def _rank_sparse_sizes(tracer, args, kwargs):
    rows = args[0] if args else kwargs["rows"]
    tracer.add("linalg.rank_sparse.nnz", sum(len(row) for row in rows))
    tracer.peak("linalg.rank_sparse.max_bits", max((_max_bits(r.values()) for r in rows), default=0))


def _comass_frames(tracer, args, kwargs):
    tracer.add("legendrian.comass_sample.frames", args[1] if len(args) > 1 else kwargs["samples"])


def _d_matrix_cells(tracer, result):
    tracer.add("cealg.d_matrix.cells", len(result) * (len(result[0]) if result else 0))


BEFORE = {
    "linalg.rank": _rank_sizes,
    "linalg.rank_sparse": _rank_sparse_sizes,
    "legendrian.comass_sample": _comass_frames,
}
AFTER = {"cealg.d_matrix": _d_matrix_cells}


class Tracer:
    """Spans and counters for one traced run; install, run, uninstall."""

    def __init__(self):
        self.groups: list[str] = []
        self.spans: list[list[int]] = []
        self.stack: list[int] = []  # indices of the open spans
        self.request = -1
        self.values: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    def _gid(self, group: str) -> int:
        if group not in self.groups:
            self.groups.append(group)
        return self.groups.index(group)

    def add(self, key: str, amount: int) -> None:
        self.values[key] += amount

    def peak(self, key: str, value: int) -> None:
        self.values[key] = max(self.values[key], value)

    # -- wrappers ----------------------------------------------------------

    def _span(self, fn, group: str):
        gid, spans, stack = self._gid(group), self.spans, self.stack
        before, after = BEFORE.get(group), AFTER.get(group)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                t = perf_counter_ns()
                before(self, args, kwargs)
                if stack:
                    spans[stack[-1]][5] += perf_counter_ns() - t
            rec = [gid, 0, 0, stack[-1] if stack else -1, self.request, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter_ns()
                stack.pop()
            if after is not None:
                t = perf_counter_ns()
                after(self, result)
                if stack:
                    spans[stack[-1]][5] += perf_counter_ns() - t
            return result

        return wrapper

    def _count(self, fn, group: str):
        values = self.values
        key = group + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            values[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "nilgeo"]
        for targets, make in ((SPANS, self._span), (COUNTS, self._count)):
            for module, path, group in targets:
                owner = importlib.import_module(f"nilgeo.{module}")
                if "." in path:
                    cls_name, attr = path.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[attr]
                    self._patch(cls, attr, original, make(original, group))
                    continue
                original = getattr(owner, path)
                wrapper = make(original, group)
                for mod in modules:
                    for name in [n for n, v in vars(mod).items() if v is original]:
                        self._patch(mod, name, original, wrapper)

    def _patch(self, owner, name: str, original, wrapper) -> None:
        self._patches.append((owner, name, original))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- metrics -------------------------------------------------------------

    def self_times(self) -> list[int]:
        covered = [0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                covered[s[3]] += s[2] - s[1]
        return [s[2] - s[1] - covered[i] - s[5] for i, s in enumerate(self.spans)]

    def metrics(self, sizes: list[int], untraced_ns: int, traced_ns: int) -> tuple[dict, list]:
        """Per-layer metrics and the baseline-table rows.

        `sizes[r]` is the size class of request r; `untraced_ns` and
        `traced_ns` are the summed request times of the same requests without
        and with tracing.
        """
        own = self.self_times()
        self_ns = defaultdict(int)
        calls = defaultdict(int)
        per_size = defaultdict(list)  # (group, size) -> inclusive ns of entry calls
        requests_with = defaultdict(set)
        root_ns = 0
        for s, own_ns in zip(self.spans, own):
            group = self.groups[s[0]]
            self_ns[group] += own_ns
            if s[3] < 0:
                root_ns += s[2] - s[1]
            if s[3] < 0 or self.spans[s[3]][0] != s[0]:
                calls[group] += 1
                per_size[group, sizes[s[4]]].append(s[2] - s[1])
                requests_with[group].add(s[4])
        out = {}
        for name in PER_LAYER:
            group, _, field = name.rpartition(".")
            if field == "self_s":
                if group in LAYERS:
                    total = sum(v for g, v in self_ns.items() if g.split(".")[0] == group)
                else:
                    total = self_ns[group]
                out[name] = total / 1e9
            elif field == "calls":
                out[name] = self.values.get(name, calls[group])
            elif field == "slope":
                out[name] = _slope(
                    {size: statistics.median(v) for (g, size), v in per_size.items() if g == group}
                )
            elif field == "self_share":
                layer_ns = sum(v for g, v in self_ns.items() if g.split(".")[0] == group)
                out[name] = layer_ns / root_ns if root_ns else 0.0
            elif field == "calls_per_request":
                hit = len(requests_with[group])
                out[name] = calls[group] / hit if hit else 0.0
            elif field == "frames_per_s":
                busy = self_ns[group]
                out[name] = self.values["legendrian.comass_sample.frames"] / (busy / 1e9) if busy else 0.0
            elif name == "trace.overhead_frac":
                out[name] = traced_ns / untraced_ns - 1
            else:
                out[name] = self.values[name]
        rows = []
        for label, group, size, baseline in BASELINE:
            times = per_size.get((group, size))
            if not times:
                continue
            ms = statistics.median(times) / 1e6
            if group == "legendrian.comass_sample":
                per_call = self.values["legendrian.comass_sample.frames"] / calls[group]
                ms *= 1e5 / per_call
            rows.append({"row": label, "baseline_ms": baseline, "median_ms": ms, "calls": len(times)})
        return out, rows


def _slope(medians: dict[int, float]) -> float:
    """Least-squares slope of log(time) against log(size); 0 with fewer than two sizes."""
    if len(medians) < 2:
        return 0.0
    xs = [math.log(k) for k in medians]
    ys = [math.log(v) for v in medians.values()]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)

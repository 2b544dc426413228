"""Seeded request streams for the nilgeo benchmark.

A workload is an endless, deterministic sequence of cycles. Each cycle holds
a fixed list of request slots, so every cycle has the same mix of commands
and sizes; the seed picks the variations inside a slot (a basis change, an
epsilon rotation, a metric, a sampling seed, a grid size) and the order of
the slots. Because the mix per cycle is fixed, the latency percentiles of a
run that executes whole cycles fall at the same place in the mix for every
seed. nilgeo sees only the argv strings built here.

Every request carries the exit code it must produce and, for a deliberately
perturbed structure, the clause that must fail. Nothing here imports nilgeo.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

# Exact unit complex numbers (cos + i sin) from Pythagorean triples; rotating
# a complex volume form by one keeps every contact Calabi-Yau clause valid.
ROTATIONS = ((3, 4, 5), (4, 3, 5), (5, 12, 13), (12, 5, 13), (8, 15, 17), (15, 8, 17))

@dataclass(frozen=True)
class Request:
    """One CLI call and what its report must say."""

    argv: tuple[str, ...]
    size: int  # dim of the algebra, or the nominal grid size N for moduli-kernel
    expect_rc: int = 0
    clause: str | None = None  # failing clause of a perturbed structure
    betti: tuple[int, ...] | None = None  # expected Betti table (betti requests)
    n: int | None = None  # n of a 2n+1 dimensional contact structure (curvature checks)

    @property
    def command(self) -> str:
        return self.argv[0]


# ---------------------------------------------------------------------------
# algebras as {generator k: [(coefficient, i, j), ...]} meaning d(e^k) += c e^i ^ e^j
# ---------------------------------------------------------------------------


def heisenberg(n: int):
    dim = 2 * n + 1
    return dim, {dim: [(1, 2 * k - 1, 2 * k) for k in range(1, n + 1)]}


def filiform(m: int):
    return m, {k: [(1, 1, k - 1)] for k in range(3, m + 1)}


def abelian(k: int):
    return k, {}


def direct_sum(*parts):
    offset, d = 0, {}
    for dim, terms in parts:
        for k, t in terms.items():
            d[k + offset] = [(c, i + offset, j + offset) for c, i, j in t]
        offset += dim
    return offset, d


def compact(alg) -> str:
    """Compact structure-constant notation, e.g. (0,0,12)."""
    dim, d = alg
    entries = []
    for k in range(1, dim + 1):
        text = ""
        for c, i, j in sorted(d.get(k, []), key=lambda t: (t[1], t[2])):
            sign = "-" if c < 0 else ("+" if text else "")
            mag = abs(c)
            text += sign + (f"{mag}*" if mag != 1 else "") + f"{i}{j}"
        entries.append(text or "0")
    return "(" + ",".join(entries) + ")"


def unimodular(dim: int, rng: random.Random, shears: int):
    """A seeded integer matrix P of determinant +-1 and its integer inverse Q.

    P is a permutation followed by `shears` elementary column operations with
    coefficient +-1; Q is built alongside from the inverse operations.
    """
    perm = list(range(dim))
    rng.shuffle(perm)
    p = [[int(i == perm[j]) for j in range(dim)] for i in range(dim)]
    q = [[int(perm[i] == j) for j in range(dim)] for i in range(dim)]
    for _ in range(shears):
        a, b = rng.sample(range(dim), 2)
        c = rng.choice((1, -1))
        for i in range(dim):
            p[i][a] += c * p[i][b]
        for j in range(dim):
            q[b][j] -= c * q[a][j]
    return p, q


def change_basis(alg, p, q):
    """The same algebra in the frame f_a = sum_i P[i][a] X_i.

    The new coframe is f^a = sum_i Q[a][i] e^i, so d(f^a) = sum_i Q[a][i] d(e^i),
    rewritten through e^j = sum_b P[j][b] f^b.
    """
    dim, d = alg
    forms = {}
    for k, terms in d.items():
        m = [[0] * dim for _ in range(dim)]
        for c, i, j in terms:
            m[i - 1][j - 1] += c
            m[j - 1][i - 1] -= c
        forms[k - 1] = m
    out = {}
    for a in range(dim):
        s = [[0] * dim for _ in range(dim)]
        for i, m in forms.items():
            if q[a][i]:
                for x in range(dim):
                    for y in range(dim):
                        s[x][y] += q[a][i] * m[x][y]
        terms = []
        for b in range(dim):
            for c in range(b + 1, dim):
                v = sum(
                    p[x][b] * s[x][y] * p[y][c]
                    for x in range(dim)
                    if p[x][b]
                    for y in range(dim)
                    if p[y][c]
                )
                if v:
                    terms.append((v, b + 1, c + 1))
        if terms:
            out[a + 1] = terms
    return dim, out


# Base algebras of rank-sweep with their Betti tables; a change of basis must
# leave the table unchanged. F = filiform (0,0,12,13,...), H = Heisenberg,
# R = abelian, + = direct sum.
BASES = {
    "F5": (filiform(5), (1, 2, 3, 3, 2, 1)),
    "H3+H3": (direct_sum(heisenberg(1), heisenberg(1)), (1, 4, 8, 10, 8, 4, 1)),
    "F6": (filiform(6), (1, 2, 3, 4, 3, 2, 1)),
    "F7": (filiform(7), (1, 2, 4, 6, 6, 4, 2, 1)),
    "H3+F4": (direct_sum(heisenberg(1), filiform(4)), (1, 4, 8, 11, 11, 8, 4, 1)),
    "F8": (filiform(8), (1, 2, 4, 8, 10, 8, 4, 2, 1)),
    "H5+H3": (direct_sum(heisenberg(2), heisenberg(1)), (1, 6, 15, 24, 28, 24, 15, 6, 1)),
    "H7+R": (direct_sum(heisenberg(3), abelian(1)), (1, 7, 20, 28, 28, 28, 20, 7, 1)),
    "H3+F5": (direct_sum(heisenberg(1), filiform(5)), (1, 4, 9, 14, 16, 14, 9, 4, 1)),
    "H9": (heisenberg(4), (1, 8, 27, 48, 42, 42, 48, 27, 8, 1)),
    "H3+H3+H3": (
        direct_sum(heisenberg(1), heisenberg(1), heisenberg(1)),
        (1, 6, 18, 35, 48, 48, 35, 18, 6, 1),
    ),
}


# ---------------------------------------------------------------------------
# contact Calabi-Yau data on the Heisenberg family, as CLI strings
# ---------------------------------------------------------------------------


def ccy_flags(n: int, rotation=None, epsilon_scale: int = 1, alpha: str | None = None):
    """--algebra/--alpha/--J/--epsilon for the standard structure on H_{2n+1}."""
    dim = 2 * n + 1
    eps = "^".join(f"(e{2 * k - 1}+i*e{2 * k})" for k in range(1, n + 1))
    if rotation is not None:
        a, b, c = rotation
        eps = f"({a}/{c}+{b}/{c}*i)*" + (f"({eps})" if n == 1 else eps)
    if epsilon_scale != 1:
        eps = f"{epsilon_scale}*" + (f"({eps})" if n == 1 else eps)
    return [
        "--algebra", compact(heisenberg(n)),
        "--alpha", alpha or f"2*e{dim}",
        "--J", "pairs:" + ",".join(f"({2 * k - 1},{2 * k})" for k in range(1, n + 1)),
        "--epsilon", eps,
    ]


def legendrian_span(n: int) -> str:
    return ";".join(f"X{2 * k - 1}" for k in range(1, n + 1))


def positive_metric(dim: int, rng: random.Random) -> str:
    """Seeded positive definite rational metric L D L^T as a JSON matrix."""
    low = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
    for i, j in rng.sample([(i, j) for i in range(dim) for j in range(i)], 2):
        low[i][j] = rng.choice((Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2)))
    diag = [rng.choice((Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2))) for _ in range(dim)]
    g = [
        [sum(low[i][k] * diag[k] * low[j][k] for k in range(dim)) for j in range(dim)]
        for i in range(dim)
    ]
    return json.dumps([[str(x) for x in row] for row in g])


HYPO = {
    "--algebra": "(0,0,0,0,12+34)",
    "--alpha": "2*e5",
    "--omega1": "e1^e2 + e3^e4",
    "--omega2": "e1^e3 - e2^e4",
    "--omega3": "e1^e4 + e2^e3",
}
CATALOG_CONTACT = ("(0,0,12,13,14+23)", "(0,0,0,12,13+24)")
CATALOG_NON_CONTACT = ("(0,0,0,0,12)", "(0,0,0,0,0)")


def _flat(flags: dict) -> list[str]:
    return [x for kv in flags.items() for x in kv]


# ---------------------------------------------------------------------------
# cycles
# ---------------------------------------------------------------------------


def ccy_mix_cycle(rng: random.Random, used: set) -> list[Request]:
    """Everyday verification traffic on a small pool of algebras that repeats,
    so a parse or verify cache would show here. Curvature does not run."""
    out = []
    for n in (1, 2, 3):
        dim = 2 * n + 1
        alpha = rng.choice((f"2*e{dim}", f"e{dim}", f"e{dim} + e1", f"3/2*e{dim} - e2"))
        out.append(Request(("check-contact", "--algebra", compact(heisenberg(n)), "--alpha", alpha), dim))
        out.append(Request(("check-sasakian", *ccy_flags(n)[:6]), dim))
        out.append(Request(("check-ccy", *ccy_flags(n, rotation=rng.choice(ROTATIONS))), dim))
        out.append(Request(("legendrian", *ccy_flags(n), "--span", legendrian_span(n)), dim))
        out.append(Request(("comass", *ccy_flags(n), "--samples", "2000", "--seed", str(rng.randrange(10**6))), dim))
    for spec in CATALOG_CONTACT * 2:
        alpha = rng.choice(("e5", "2*e5", "e5 + e1", "e5 - 2*e2"))
        out.append(Request(("check-contact", "--algebra", spec, "--alpha", alpha), 5))
    for spec in CATALOG_NON_CONTACT:
        alpha = rng.choice(("e5 + e1", "e5", "e4 - e5"))
        out.append(Request(("check-contact", "--algebra", spec, "--alpha", alpha), 5, 1, "contact.volume"))
    out.append(Request(("check-sasakian", *ccy_flags(1, alpha=rng.choice(("3*e3", "1/2*e3")))[:6]), 3))
    # perturbed slots keep a fixed n so that every cycle costs the same
    bad_j = ccy_flags(2)[:6]
    bad_j[5] = rng.choice(("pairs:(2,1),(3,4)", "pairs:(1,2),(4,3)"))
    out.append(Request(("check-sasakian", *bad_j), 5, 1, "calibrated.positive"))
    out.append(Request(("check-ccy", *ccy_flags(1, rotation=rng.choice(ROTATIONS)), "--strict-def31"), 3))
    out.append(Request(("check-ccy", *ccy_flags(2), "--strict-def31"), 5, 1, "ccy.normalization"))
    out.append(Request(("check-ccy", *ccy_flags(2, epsilon_scale=rng.choice((2, 3)))), 5, 1, "ccy.normalization"))
    out.append(Request(("check-ccy", *ccy_flags(3, alpha=rng.choice(("e1", "e2 + e1")))), 7, 1, "contact.volume"))
    out.append(Request(("check-rccy", "--algebra", "(0,0,12,0)", "--alphas", "2*e3; 2*e3 + 2*e4", "--J", "pairs:(1,2)", "--epsilon", "e1 + i*e2"), 4))
    out.append(Request(("check-rccy", "--algebra", "(0,0,12,0)", "--alphas", "2*e3; 2*e3 + 2*e4", "--J", "pairs:(1,2)", "--epsilon", "2*e1 + 2*i*e2"), 4, 1, "ccy.normalization"))
    out.append(Request(("check-hypo", *_flat(HYPO)), 5))
    bad = dict(HYPO, **{"--omega2": rng.choice(("2*e1^e3 - 2*e2^e4", "e1^e3 + e2^e4"))})
    out.append(Request(("check-hypo", *_flat(bad)), 5, 1, "hypo.1.products"))
    out.append(Request(("legendrian", *ccy_flags(1), "--span", "X2"), 3, 1, "special_legendrian"))
    out.append(Request(("obstruction", *ccy_flags(1), "--span", "X1", "--rotations", "default"), 3))
    out.append(Request(("classify", "--seed", str(rng.randrange(10**6))), 5))
    return out


# Curvature slots: an int n is the contact Calabi-Yau structure on H_{2n+1}
# (ricci_scalar, check_alpha_einstein and transverse_ricci); a name is a
# seeded positive metric on that algebra (Ricci only). Sorted by cost, the
# three metric requests on F6 fill the 40-60 % band around p50 and the two
# n = 2 structures the 80-93 % band around p90, so neither percentile sits
# on the edge between two slots of different cost.
CURVATURE_ALGEBRAS = {"H3": heisenberg(1), "H5": heisenberg(2), "H7": heisenberg(3)}
CURVATURE_ALGEBRAS.update({f"F{m}": filiform(m) for m in (4, 5, 6, 7)})
CURVATURE_SLOTS = (1, 2, 2, 3, "H3", "H3", "F4", "H5", "F5", "F6", "F6", "F6", "H7", "H7", "F7")


def curvature_sweep_cycle(rng: random.Random, used: set) -> list[Request]:
    """Curvature at Heisenberg n = 1..3 and on filiform algebras: the
    structure kind puts transverse_ricci at p90, the metric kind Ricci at p50."""
    out = []
    for slot in CURVATURE_SLOTS:
        if isinstance(slot, int):
            flags = ccy_flags(slot, rotation=rng.choice(ROTATIONS))
            out.append(Request(("curvature", *flags), 2 * slot + 1, n=slot))
        else:
            alg = CURVATURE_ALGEBRAS[slot]
            metric = positive_metric(alg[0], rng)
            out.append(Request(("curvature", "--algebra", compact(alg), "--metric", metric), alg[0]))
    return out


# A betti slot is (base algebra, number of shears in its basis change); a grid
# slot is the nominal N. Dim 8 and 9 slots, where p50 and p90 fall, take one
# shear so that their cost does not swing with the seed. Dim 9 uses only the
# two bases whose cost varies least with the basis change (about 1.3x; F9 and
# F5+F4 vary 2x), because p90 falls in the upper part of the dim 9 costs.
RANK_SLOTS = (
    ("F5", 2), ("H3+H3", 2), ("F6", 2), ("F7", 2), ("H3+F4", 2), 128,
    ("F8", 1), ("H5+H3", 1), ("H7+R", 1), ("H3+F5", 1), 256,
    ("H9", 1), ("H3+H3+H3", 1), ("H9", 1), ("H3+H3+H3", 1), 512, 1024,
)


def rank_sweep_cycle(rng: random.Random, used: set) -> list[Request]:
    """Exact rank with no shared work: every algebra and grid is new. Betti at
    dim 8 sets p50 and at dim 9 p90; one kernel at N ~ 1024 sits above p90."""
    out = []
    for slot in RANK_SLOTS:
        if isinstance(slot, int):
            # a distinct even grid size near the nominal one, so no two requests
            # share an operator; the window widens only if it runs out
            width, tries = slot // 16, 0
            while True:
                grid = slot + 2 * rng.randint(-width, width)
                if ("N", grid) not in used:
                    break
                tries += 1
                if tries % 64 == 0:
                    width += 1
            used.add(("N", grid))
            out.append(Request(("moduli-kernel", "--N", str(grid)), slot))
            continue
        base, shears = slot
        alg, table = BASES[base]
        while True:
            p, q = unimodular(alg[0], rng, shears)
            spec = compact(change_basis(alg, p, q))
            if spec not in used:
                break
        used.add(spec)
        out.append(Request(("betti", "--algebra", spec), alg[0], betti=table))
    return out


CYCLES = {"ccy-mix": ccy_mix_cycle, "curvature-sweep": curvature_sweep_cycle, "rank-sweep": rank_sweep_cycle}

# Cycles generated before the first timed request: about twice what one run
# of the benchmark executes today. Later cycles are generated on demand.
PREGENERATED = {"ccy-mix": 64, "curvature-sweep": 32, "rank-sweep": 32}


class Stream:
    """The deterministic cycle sequence of one workload for one seed."""

    def __init__(self, workload: str, seed: int):
        if workload not in CYCLES:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = seed
        self._used: set = set()
        self._cycles: list[list[Request]] = []

    def cycle(self, index: int) -> list[Request]:
        while len(self._cycles) <= index:
            rng = random.Random(f"{self.workload}/{self.seed}/{len(self._cycles)}")
            requests = CYCLES[self.workload](rng, self._used)
            rng.shuffle(requests)
            self._cycles.append(requests)
        return self._cycles[index]

    def pregenerate(self) -> None:
        self.cycle(PREGENERATED[self.workload] - 1)

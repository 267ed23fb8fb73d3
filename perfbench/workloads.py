"""Seeded op lists for the three benchmark workloads.

An op is one ``zetareg`` CLI invocation, held as a JSON-ready dict:

    {"id", "kind", "gen", "argv", "expect", "values", "edge", ...}

``gen`` names a generator spec written next to the op list; the worker
adds ``--generator <spec>`` and ``--out <file>`` to ``argv``.  ``expect``
is ``"value"`` or ``"refusal"`` (exit code 3).  ``values`` counts the
numbers a successful op produces: alpha-grid points, trace rows, products
or branch-map cells.  ``edge`` names the known-defect class of an edge
probe and is ``None`` for the regular, timed ops.

Regular ops come in blocks with a fixed mix of kinds and sizes whose order
and parameters are drawn from the seed, so every seed puts the same kind
of load on the program and any whole number of blocks has the same mix.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction as F

WORKLOADS = ("frac_sweep", "exact_traces", "branch_grid")

# blocks per op list: at least ten times what a 24 s timed run gets through
# on the seed code (frac_sweep 28, exact_traces 15, branch_grid 10 on a
# 2-vCPU Xeon), so a 10x faster program still runs each op at most once;
# the worker stops at the end of the list instead of starting it again
N_BLOCKS = {"frac_sweep": 320, "exact_traces": 200, "branch_grid": 128}
# blocks run in the traced (fixed-work) runs
TRACE_BLOCKS = 3

# the demo specs shipped with the library (demos/generators/*.json)
DEMO_SPECS = {
    "riemann": ["1"],
    "cubic-odd": ["1", "0", "3"],
    "linear": ["1", "2"],
    "mixed": ["1", "2", "3"],
}

# frac_sweep alpha grids: 13 points on a 1/4 lattice, so the points are
# exact binary fractions and the grids land on exact integers
GRID_POINTS = 13
GRID_STEP = F(1, 4)
# regular grids stop at 4; the circle + ray cross-check fails from about
# 4.5 up, and earlier on steep generators (QuadratureFailureError), which
# the large_alpha edge probes cover
FRAC_STARTS = [F(k, 4) for k in range(-3, 5)]        # -0.75 .. 1.0, ends <= 4.0
ZETA_STARTS = [F(k, 4) for k in range(-14, -8)]      # -3.5 .. -2.25, ends <= 0.75

HANKEL_DEGREES = (2, 3, 4)
FRAC_BLOCK = ("frac", "frac", "frac", "zeta", "zeta", "zeta", "product", "product")
# exact_traces trace slots of a block: (M, degree of 1/h, series-only,
# jitter of M).  With four fermion queries per nine traces the median op of
# a run is the middle of the third slot, so p50 follows the trace work; the
# slot has fixed M and degree 0, whose cost differs least between seeded
# generators (about 4% at M = 20, against 10-30% at degrees 1-5), so that
# p50 does not rest on which generators a seed drew.  M = 60 comes twice,
# so that op_tail_ms (the 11th largest op of a run of about a dozen blocks)
# lies among the M = 60 ops and not at their edge.
EXACT_SLOTS = ((6, 6, False, 2), (14, 5, False, 2), (20, 0, False, 0), (30, 1, True, 2),
               (38, 4, False, 2), (46, 2, False, 2), (54, 3, False, 2), (60, 6, True, 0),
               (60, 6, True, 0))
# each slot draws from its own seeded generators, so a run averages over
# several of them instead of resting on one
GENS_PER_SLOT = 5
FERMIONS_PER_BLOCK = 4
BRANCH_INT_ALPHAS = (0, 1, 2, 3)
BRANCH_INT_PER_BLOCK = 2
BRANCH_FRAC_ALPHAS = [F(k, 4) for k in range(-3, 8) if k % 4]    # -0.75 .. 1.75
PHYS = ("0.5", "1", "1.5", "2", "2.5")

# edge probes for frac_sweep: (class, count); run after the timed loop
EDGE_MIX = (("integer_snap", 5), ("near_minus_one", 3), ("large_alpha", 4),
            ("non_hankel", 4))


def _fstr(x) -> str:
    """Shortest decimal for a lattice value (exact for binary fractions)."""
    return repr(float(x))


def _grid_arg(a: F) -> str:
    b = a + (GRID_POINTS - 1) * GRID_STEP
    return f"{_fstr(a)}:{_fstr(b)}:{_fstr(GRID_STEP)}"


def _grid(a: F) -> list:
    return [_fstr(a + k * GRID_STEP) for k in range(GRID_POINTS)]


def _rand_hankel(rng: random.Random, degree: int) -> list:
    """Random polynomial 1/h of the given degree (2..4) with p(-x) > 0 on
    x > 0 (Hankel class): a product of factors 1 + b t + c t^2 (b^2 < 4c)
    and, for odd degree, 1 - b t (b > 0).  Coefficients stay as small as
    the demo specs' (at most 5); steeper generators are an edge probe."""
    factors = [[F(1), -F(rng.choice((1, 2)), 2)]] if degree % 2 else []
    while len(factors) < degree // 2 + degree % 2:
        c = F(rng.choice((1, 2, 3, 4)), 2)
        b = F(rng.randint(-2, 2), 2)
        if b * b < 4 * c:
            factors.append([F(1), b, c])
    return [str(c) for c in _poly_mul(factors)]


def _poly_mul(factors: list) -> list:
    poly = [F(1)]
    for fac in factors:
        out = [F(0)] * (len(poly) + len(fac) - 1)
        for i, x in enumerate(poly):
            for j, y in enumerate(fac):
                out[i + j] += x * y
        poly = out
    return poly


class _Deck:
    """Seeded draws that use every item once before any item again, so a
    few blocks already carry a balanced mix."""

    def __init__(self, rng: random.Random, items):
        self.rng, self.items, self.left = rng, list(items), []

    def draw(self):
        if not self.left:
            self.left = list(self.items)
            self.rng.shuffle(self.left)
        return self.left.pop()


def _rand_rational(rng: random.Random, degree: int) -> list:
    """Random 1/h of the given degree: nonzero numerators, and denominators
    1, 2, 3, 1, ... by position, so that the size of the rationals a trace
    builds, and so its cost, depends on the degree and not on the seed."""
    coeffs = [F(rng.randint(1, 3))]
    for k in range(degree):
        coeffs.append(F(rng.choice((-3, -2, -1, 1, 2, 3)), (1, 2, 3)[k % 3]))
    return [str(c) for c in coeffs]


class _PlanBook:
    def __init__(self):
        self.ops = []
        self.specs = {}

    def spec(self, name: str, inv_h: list, polynomial: bool = True) -> str:
        self.specs[name] = {"name": name, "inv_h": list(inv_h), "polynomial": polynomial}
        return name

    def op(self, kind: str, gen: str, args: list, values: int, expect: str = "value",
           edge: str | None = None, **params):
        self.ops.append(dict(id=len(self.ops), kind=kind, gen=gen, argv=[kind] + args,
                             expect=expect, values=values, edge=edge, **params))


def _frac_sweep(rng: random.Random, b: _PlanBook):
    for name in ("riemann", "cubic-odd", "mixed", "linear"):
        b.spec(name, DEMO_SPECS[name])
    pool = ["riemann", "cubic-odd", "mixed"]
    for i, degree in enumerate(HANKEL_DEGREES):
        pool.append(b.spec(f"hk-{i}", _rand_hankel(rng, degree)))
    gens = _Deck(rng, pool)
    once_degrees = _Deck(rng, HANKEL_DEGREES)
    frac_starts, zeta_starts = _Deck(rng, FRAC_STARTS), _Deck(rng, ZETA_STARTS)
    for blk in range(N_BLOCKS["frac_sweep"]):
        kinds = list(FRAC_BLOCK)
        rng.shuffle(kinds)
        once = rng.randrange(len(kinds))   # one op per block gets a one-off generator
        for j, kind in enumerate(kinds):
            if j == once:
                gen = b.spec(f"once-{blk}", _rand_hankel(rng, once_degrees.draw()))
            else:
                gen = gens.draw()
            if kind == "frac":
                a = frac_starts.draw()
                b.op("frac", gen, [f"--alpha-grid={_grid_arg(a)}", "--crosscheck"],
                     GRID_POINTS, alphas=_grid(a))
            elif kind == "zeta":
                a = zeta_starts.draw()
                b.op("zeta", gen, [f"--alpha-grid={_grid_arg(a)}"], GRID_POINTS, alphas=_grid(a))
            else:
                b.op("product", gen, [], 1)
    _frac_edges(rng, b, pool)


def _frac_edges(rng: random.Random, b: _PlanBook, pool: list):
    b.spec("near-linear", ["1", "-1", "-1/10000000"])
    # 1 - b x + c x^2 with b^2 > 4c has a negative stretch on x > 0
    b.spec("non-hankel", ["1", str(F(rng.choice((5, 6, 8)), 2)), str(F(rng.randint(1, 3), 2))])
    b.spec("series-only", ["1", "0", "3"], polynomial=False)
    # a Hankel generator steeper than the regular ones (coefficients near 10)
    steep = [[F(1), F(rng.choice((3, 4)), 2), F(rng.choice((5, 6)), 2)] for _ in range(2)]
    b.spec("steep", [str(c) for c in _poly_mul(steep)])
    snap_gens = [g for g in pool if g != "riemann"]
    for cls, count in EDGE_MIX:
        for i in range(count):
            if cls == "integer_snap":
                m = rng.randint(0, 3)
                delta = F(1, 10 ** rng.randint(4, 9)) * rng.choice((-1, 1))
                if m == 0:
                    delta = abs(delta)
                a, gen, cross = F(m) + delta, rng.choice(snap_gens), False
            elif cls == "near_minus_one":
                a, gen, cross = F(-1) + F(rng.randint(1, 1000), 10000), "riemann", False
            elif cls == "large_alpha" and i == 0:
                a, gen, cross = F(3) + F(rng.randint(1, 6), 4), "steep", True
            elif cls == "large_alpha":
                a, gen, cross = F(9, 2) + F(rng.randint(1, 14), 4), rng.choice(pool), True
            else:
                gen = ("near-linear", "linear", "non-hankel", "series-only")[i % 4]
                b.op(rng.choice(("frac", "zeta")), gen, ["--alpha-grid=-0.5:-0.5:1"], 0,
                     expect="refusal", edge=cls, alphas=["-0.5"])
                continue
            s = repr(float(a))
            args = [f"--alpha-grid={s}:{s}:1"] + (["--crosscheck"] if cross else [])
            b.op("frac", gen, args, 1, edge=cls, alphas=[s])


def _exact_traces(rng: random.Random, b: _PlanBook):
    # every block carries the same (M, degree) slots, so every seed puts
    # the same mix of trace sizes on the program
    decks, jitter, pool = {}, {}, []
    for M, d, series_only, jit in sorted(set(EXACT_SLOTS)):
        gens = [b.spec(f"rat-{M}-{d}-{i}", _rand_rational(rng, d), not series_only)
                for i in range(GENS_PER_SLOT)]
        pool += gens
        decks[M, d] = _Deck(rng, gens)
        # M = slot size + jitter from a deck per slot, so that each slot's
        # sizes are balanced within a run
        jitter[M, d] = _Deck(rng, range(-jit, jit + 1))
    fermion_gens = _Deck(rng, pool)
    for _ in range(N_BLOCKS["exact_traces"]):
        items = [("trace", M + jitter[M, d].draw(), decks[M, d].draw())
                 for M, d, _, _ in EXACT_SLOTS]
        items += [("fermion", 2, fermion_gens.draw()) for _ in range(FERMIONS_PER_BLOCK)]
        rng.shuffle(items)
        for kind, M, gen in items:
            if kind == "trace":
                b.op("trace", gen, [f"--m-range=0..{M}"], M + 1, m_hi=M)
            else:
                phys = [rng.choice(PHYS) for _ in range(3)]
                b.op("fermion", gen, ["--planck-h", phys[0], "--mass", phys[1],
                                      "--box-length", phys[2]], 1, phys=phys)


# branch-map ops of a block: (generator, window (re0, re1, im0, im1), size).
# The full demo square, a strip across the |w| = 1 boundary near the
# imaginary axis (near-one cells), a zoom on the right half plane (direct
# series) and an off-centre window; every block has the same seven, so the
# seed moves alpha and the order, not the cost mix.  Cells just inside the
# boundary cost thousands of series terms each, so the strips are small
BRANCH_OPS = (
    ("cubic-odd", (-3, 3, -3, 3), 121),
    ("riemann", (-0.25, 0.5, -2.5, 2.5), 61),
    ("mixed", (0.2, 2.2, -1, 1), 101),
    ("linear", (-1, 2, 0, 3), 161),
    ("mixed", (-3, 3, -3, 3), 81),
    ("cubic-odd", (-0.25, 0.5, -2.5, 2.5), 61),
    ("riemann", (0.2, 2.2, -1, 1), 141),
)


def _branch_grid(rng: random.Random, b: _PlanBook):
    for name in ("riemann", "cubic-odd", "linear", "mixed"):
        b.spec(name, DEMO_SPECS[name])
    # each op of BRANCH_OPS draws from its own alpha decks, so its alphas
    # (which set the series length) are balanced within a run
    int_alphas = [_Deck(rng, BRANCH_INT_ALPHAS) for _ in BRANCH_OPS]
    frac_alphas = [_Deck(rng, BRANCH_FRAC_ALPHAS) for _ in BRANCH_OPS]
    for blk in range(N_BLOCKS["branch_grid"]):
        # the integer alphas (Eulerian closed form) rotate through the ops
        ints = {(BRANCH_INT_PER_BLOCK * blk + k) % len(BRANCH_OPS)
                for k in range(BRANCH_INT_PER_BLOCK)}
        order = list(range(len(BRANCH_OPS)))
        rng.shuffle(order)
        for j in order:
            gen, win, n = BRANCH_OPS[j]
            alpha = F(int_alphas[j].draw()) if j in ints else frac_alphas[j].draw()
            grid = ":".join(str(v) for v in win) + f":{n}:{n}"
            b.op("branchmap", gen, ["--alpha", _fstr(alpha), f"--grid={grid}"],
                 n * n, alpha=str(alpha), window=list(win), n=n)


def build(workload: str, seed: int) -> dict:
    """The op list and generator specs of a workload for a seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    b = _PlanBook()
    {"frac_sweep": _frac_sweep, "exact_traces": _exact_traces,
     "branch_grid": _branch_grid}[workload](rng, b)
    regular = [op for op in b.ops if op["edge"] is None]
    per_block = len(regular) // N_BLOCKS[workload]
    return {"workload": workload, "seed": seed, "ops": b.ops, "specs": b.specs,
            "block": per_block, "trace_prefix": TRACE_BLOCKS * per_block}


def digest(plan: dict) -> str:
    """Hash of the generated op list and specs, recorded with each run."""
    blob = json.dumps({"ops": plan["ops"], "specs": plan["specs"]}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]

"""Seeded job lists for the benchmark workloads.

A job is the argv of one `trinolab` command; the program receives nothing
else.  Each workload is an endless generator of job lists of one shape,
drawn from `random.Random(f"{name}:{seed}")`.
"""

import functools
import json
import random
import sys
from pathlib import Path

DEFAULT_SEED = 0
ROUTES_L = range(2, 13)   # l >= 2 keeps every exponent of all three families nonnegative
SWEEP_L = range(1, 9)     # l = 1 is invalid for families 2 and 3: the sweep reports an error row
COST_FILE = Path(__file__).resolve().parent / "fiber_cost_k5.json"


@functools.cache
def _family3_strata() -> tuple:
    """mu_{q+1} at k = 5 in four equal strata, each ranked by the gcd calls
    that family 3's factor search makes on the fiber (0.2 s to 3.3 s)."""
    calls = json.loads(COST_FILE.read_text(encoding="utf-8"))["gcd_calls"]
    ranked = sorted(map(int, calls), key=lambda t: (calls[str(t)], t))
    size = len(ranked) // 4
    return tuple(ranked[i * size:(i + 1) * size] for i in range(4))


def _factors(family: int, t: int) -> list:
    return ["factors", "--k", "5", "--family", str(family), "--t", str(t),
            "--format", "json"]


def lemma_lists(rng: random.Random):
    """Quadratic-factor search: harvests at k = 4, single fibers at k = 5.

    Each list takes one family-3 fiber from each stratum, so every list
    holds cheap and costly fibers alike.  Lists come in pairs whose ranks
    mirror each other within the strata (r, then size - 1 - r), so a run's
    costly draws are balanced by cheap ones and its cost does not swing with
    the seed.  The family-3 fibers lead each list, so a run that stops part
    way through its second list has still run both halves of every pair."""
    strata = _family3_strata()
    mu = sorted(t for stratum in strata for t in stratum)
    harvests = [["lemma-verify", "--k", "4", "--family", "2", "--format", "json"],
                ["lemma-verify", "--k", "4", "--family", "3", "--format", "json"],
                ["uv-scan", "--k", "4", "--format", "json"]]
    while True:
        ranks = [rng.randrange(len(stratum)) for stratum in strata]
        for picks in (ranks, [len(s) - 1 - r for s, r in zip(strata, ranks)]):
            yield ([_factors(3, s[r]) for s, r in zip(strata, picks)]
                   + [_factors(2, t) for t in rng.sample(mu, 2)]
                   + harvests)


def routes_k6_lists(rng: random.Random):
    """The three permutation routes and all fiber counts in the largest field."""
    while True:
        yield ([["check-trinomial", "--k", "6", "--family", str(family),
                 "--l", str(rng.choice(ROUTES_L)), "--format", "json"]
                for family in (1, 2, 3)]
               + [["count-roots", "--k", "6", "--family", "3", "--t", "all",
                   "--format", "csv"]])


def sweep_grid_lists(rng: random.Random):
    """Serial sweeps: many small rows per process."""
    while True:
        yield [["sweep", "--family", str(family), "--k", "1,2,3,4",
                "--l", ",".join(map(str, sorted(rng.sample(SWEEP_L, 6)))),
                "--format", "csv"]
               for family in (1, 2, 3)]


SETUP_KS = {"lemma": (4, 5), "routes-k6": (6,), "sweep-grid": (1, 2, 3, 4)}
GENERATORS = {"lemma": lemma_lists, "routes-k6": routes_k6_lists,
              "sweep-grid": sweep_grid_lists}


def job_source(workload: str, seed: int):
    """A callable returning the workload's next job list for this seed."""
    return functools.partial(next, GENERATORS[workload](random.Random(f"{workload}:{seed}")))


def write_fiber_costs():
    """Recount the gcd calls behind COST_FILE (a few minutes)."""
    from trinolab import ctx_create, fiber_polynomial, mu_enumerate, polyring
    ctx = ctx_create(5)
    original = polyring.poly_gcd
    calls = 0

    def counting(p, q):
        nonlocal calls
        calls += 1
        return original(p, q)

    polyring.poly_gcd = counting  # quadratic_factors looks it up in polyring
    try:
        costs = {}
        for t in sorted(mu_enumerate(ctx, ctx.q + 1)):
            calls = 0
            polyring.quadratic_factors(fiber_polynomial(3, t, ctx))
            costs[str(t)] = calls
    finally:
        polyring.poly_gcd = original
    about = json.loads(COST_FILE.read_text(encoding="utf-8"))["about"]
    COST_FILE.write_text(json.dumps({"about": about, "gcd_calls": costs}, indent=0) + "\n",
                         encoding="utf-8")


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    write_fiber_costs()

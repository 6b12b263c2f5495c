"""Traced in-process run: spans around every call into the library's layers.

The layers are the modules gf3m, polyring, permtest, conjlab and cli.  Every
public function they define, plus the cli command handlers, is replaced by a
wrapper that records a span (name, job id, parent span, start, end) and, for
a few functions, a work counter.  The wrapper is installed in every trinolab
namespace that bound the function by name (cli and conjlab import
roots_in_set directly, the package re-exports everything), so no call
escapes.  Scalar field ops, Poly methods and Poly.eval are not wrapped: they
run millions of times per job and a span each would distort the trace, so
their time counts in the self time of the calling layer.  So does
gf3_is_irreducible, called once per modulus candidate (about 177,000 times
per k = 6 field), whose time stays in default_modulus.
"""

import collections
import contextlib
import functools
import gc
import gzip
import inspect
import io
import json
import random
import statistics
import sys
import time
import tracemalloc
import traceback

LAYERS = ("gf3m", "polyring", "permtest", "conjlab", "cli")
UNWRAPPED = {"gf3m.gf3_is_irreducible"}

# The workload meant to exercise each wrapped function; None for functions
# that no command of any workload reaches.
MEANT_FOR = {
    "gf3m.default_modulus": "routes-k6",
    "gf3m.ctx_create": "routes-k6",
    "gf3m.format_modulus": "routes-k6",
    "gf3m.solve_theta": "lemma",
    "gf3m.parse_modulus": None,      # only with --modulus
    "gf3m.parse_element": None,      # library entry point, no command uses it
    "gf3m.primitive_element": None,  # alias kept for library users
    "gf3m.solve_epsilon": None,      # alias kept for library users
    "polyring.roots_in_set": "lemma",
    "polyring.quadratic_factors": "lemma",
    "polyring.poly_gcd": "lemma",
    "polyring.pow_mod": "lemma",
    "permtest.mu_enumerate": "routes-k6",
    "permtest.is_bijection_on": "routes-k6",
    "permtest.zieve_criterion": "routes-k6",
    "conjlab.trinomial_family": "routes-k6",
    "conjlab.trinomial_map": "routes-k6",
    "conjlab.trinomial_decompose": "routes-k6",
    "conjlab.fractional_map": "routes-k6",
    "conjlab.denominator_nonvanishing": "routes-k6",
    "conjlab.g_permutes_mu": "routes-k6",
    "conjlab.fiber_polynomial": "routes-k6",
    "conjlab.harvest_witnesses": "lemma",
    "conjlab.quintic_relation_holds": "lemma",
    "conjlab.classify_septic_factor": "lemma",
    "conjlab.verify_quintic_factor_relation": "lemma",
    "conjlab.quintic_displayed_identities_hold": "lemma",
    "conjlab.verify_quintic_coefficient_system": "lemma",
    "conjlab.uv_identity_check": "lemma",
    "conjlab.sweep": "sweep-grid",
    "conjlab.sweep_row": "sweep-grid",
    # family-2 fibers have no symmetric quadratic factors at k = 4
    "conjlab.verify_septic_coefficient_system": None,
    "conjlab.septic_displayed_identities_hold": None,
    # library entry points that no command calls
    "conjlab.verify_septic_factor_case": None,
    "conjlab.count_solutions_quintic": None,
    "conjlab.count_solutions_septic": None,
    "conjlab.distinct_root_exclusion": None,
    "cli.main": "routes-k6",
    "cli.build_parser": "routes-k6",
    "cli.parse_modulus_arg": "routes-k6",
    "cli.claimed_permutation": "routes-k6",
    "cli.report_write": "routes-k6",
    "cli.parse_sweep_csv": None,     # used by tests for csv round trips
    "cli.check-trinomial": "routes-k6",
    "cli.count-roots": "routes-k6",
    "cli.lemma-verify": "lemma",
    "cli.uv-scan": "lemma",
    "cli.factors": "lemma",
    "cli.sweep": "sweep-grid",
    "cli.field-info": None,          # commands outside every workload
    "cli.mu": None,
    "cli.check-g": None,
}

# Functions the issue names; each is printed with its call count and time
# on every workload, zero where the workload does not reach it.
REPORTED_SPANS = (
    "gf3m.ctx_create", "gf3m.default_modulus", "polyring.roots_in_set",
    "polyring.quadratic_factors", "polyring.poly_gcd", "polyring.pow_mod",
    "permtest.is_bijection_on", "permtest.zieve_criterion",
    "permtest.mu_enumerate", "conjlab.harvest_witnesses",
    "conjlab.g_permutes_mu", "conjlab.denominator_nonvanishing",
    "conjlab.fiber_polynomial", "conjlab.sweep_row", "cli.check-trinomial",
    "cli.count-roots", "cli.lemma-verify", "cli.uv-scan", "cli.factors",
    "cli.sweep", "cli.report_write")


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


# span name -> function(args, kwargs, result) returning {counter: increment}
COUNTERS = {
    "polyring.roots_in_set": lambda a, kw, res: {
        "candidates": len(_arg(a, kw, 1, "candidates")), "hits": len(res)},
    "polyring.poly_gcd": lambda a, kw, res: {"split": int(res.degree > 0)},
    "permtest.is_bijection_on": lambda a, kw, res: {
        "domain": len(_arg(a, kw, 1, "domain"))},
    "conjlab.harvest_witnesses": lambda a, kw, res: {"witnesses": len(res)},
}


def span_name(layer: str, attr: str, obj, module) -> str:
    """Name of the span for a module attribute, or '' if it is not wrapped."""
    if not inspect.isfunction(obj) or obj.__module__ != module.__name__:
        return ""
    if layer == "cli" and attr.startswith("_cmd_"):
        return "cli." + attr[len("_cmd_"):].replace("_", "-")
    name = f"{layer}.{attr}"
    return "" if attr.startswith("_") or name in UNWRAPPED else name


def _wrappable():
    """(span name, function) for every function the traced run wraps."""
    for layer in LAYERS:
        module = sys.modules[f"trinolab.{layer}"]
        for attr, obj in vars(module).items():
            name = span_name(layer, attr, obj, module)
            if name:
                yield name, obj


def wrapped_names() -> set:
    return {name for name, _ in _wrappable()}


class Tracer:
    """Spans kept in memory as [name, job, parent, start_ns, end_ns]."""

    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self.job = None
        self._stack = []

    def wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, self.job, stack[-1] if stack else None,
                          time.perf_counter_ns(), None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][4] = time.perf_counter_ns()
            if counter is not None:
                for key, n in counter(args, kwargs, result).items():
                    counts[f"{name}.{key}"] += n
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every trinolab namespace; restore the originals on exit."""
        wrappers = {id(obj): (obj, self.wrap(name, obj)) for name, obj in _wrappable()}
        patched = []
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "trinolab" and not mod_name.startswith("trinolab."):
                continue
            namespace = vars(module)
            for attr, obj in list(namespace.items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    patched.append((namespace, attr, obj))
                    namespace[attr] = entry[1]
        try:
            yield
        finally:
            for namespace, attr, obj in patched:
                namespace[attr] = obj

    def write(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, (name, job, parent, start, end) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "job": job,
                                     "parent": parent, "start_ns": start,
                                     "end_ns": end}) + "\n")

    def summary(self) -> dict:
        """name -> [calls, total_ns, self_ns].

        Self time is a span's duration minus the durations of its child
        spans.  A span nested inside another span of the same name adds to
        the call count but not again to the total.
        """
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, job, parent, start, end in spans:
            if parent is not None:
                child_ns[parent] += end - start
        stats = collections.defaultdict(lambda: [0, 0, 0])
        for i, (name, job, parent, start, end) in enumerate(spans):
            entry = stats[name]
            entry[0] += 1
            entry[2] += end - start - child_ns[i]
            while parent is not None and spans[parent][0] != name:
                parent = spans[parent][2]
            if parent is None:
                entry[1] += end - start
        return stats


def reset_caches():
    """Clear the program's in-process caches so that every traced job starts
    cold, as a fresh `trinolab` process does."""
    from trinolab import conjlab
    for attr in ("_CTX_CACHE", "_FIBER_STATS_CACHE"):
        cache = getattr(conjlab, attr, None)
        if cache is not None:
            cache.clear()


def run_inprocess(argv: list):
    """(exit code, stdout bytes, stderr text, wall seconds) of cli.main(argv)."""
    from trinolab import cli
    reset_caches()
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception:  # an internal error fails this job, not the run
            code = -1
            err.write(traceback.format_exc())
    wall = time.perf_counter() - t0
    return code, out.getvalue().encode("utf-8"), err.getvalue(), wall


def field_probe(seed: int, k: int = 6, batch: int = 100_000, repeats: int = 5) -> dict:
    """Table memory of ctx_create(k) and ns per scalar op on seeded operands.

    Scalar ops are timed here, outside the traced run, because wrapping them
    would cost more than they do.  The figure includes the loop that calls
    the op.
    """
    from trinolab import ctx_create
    gc.collect()
    tracemalloc.start()
    ctx = ctx_create(k)
    table_bytes = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    rng = random.Random(f"field:{seed}")
    xs = [rng.randrange(1, ctx.order) for _ in range(batch)]
    ys = [rng.randrange(1, ctx.order) for _ in range(batch)]
    es = [rng.randrange(ctx.order) for _ in range(batch)]
    result = {"gf3m.ctx_table_mb": table_bytes / 2 ** 20}
    for name, op, rhs in (("add", ctx.add, ys), ("mul", ctx.mul, ys),
                          ("pow", ctx.pow, es)):
        samples = []
        for _ in range(repeats):
            t0 = time.perf_counter_ns()
            for x, y in zip(xs, rhs):
                op(x, y)
            samples.append((time.perf_counter_ns() - t0) / batch)
        result[f"gf3m.{name}_ns"] = statistics.median(samples)
    del ctx
    gc.collect()
    return result


def layer_metrics(tracer: Tracer, untraced_s: float, traced_s: float) -> dict:
    """The per-layer metrics of one traced run (BENCHMARK.json per_layer)."""
    stats = tracer.summary()
    counts = tracer.counts

    def calls(name):
        return stats[name][0] if name in stats else 0

    def seconds(name):
        return stats[name][1] / 1e9 if name in stats else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "gf3m.ctx_create.calls": calls("gf3m.ctx_create"),
        "gf3m.ctx_create.s": seconds("gf3m.ctx_create"),
        "gf3m.default_modulus.s": seconds("gf3m.default_modulus"),
        "polyring.roots_in_set.calls": calls("polyring.roots_in_set"),
        "polyring.roots_in_set.s": seconds("polyring.roots_in_set"),
        "polyring.roots_in_set.candidates": counts["polyring.roots_in_set.candidates"],
        "polyring.roots_in_set.hit_ratio": ratio(
            counts["polyring.roots_in_set.hits"],
            counts["polyring.roots_in_set.candidates"]),
        "polyring.quadratic_factors.calls": calls("polyring.quadratic_factors"),
        "polyring.poly_gcd.calls": calls("polyring.poly_gcd"),
        "polyring.poly_gcd.split_ratio": ratio(
            counts["polyring.poly_gcd.split"], calls("polyring.poly_gcd")),
        "polyring.pow_mod.calls": calls("polyring.pow_mod"),
        "permtest.is_bijection_on.calls": calls("permtest.is_bijection_on"),
        "permtest.is_bijection_on.domain": counts["permtest.is_bijection_on.domain"],
        "permtest.mu_enumerate.calls": calls("permtest.mu_enumerate"),
        "permtest.mu_enumerate.s": seconds("permtest.mu_enumerate"),
        "conjlab.harvest_witnesses.calls": calls("conjlab.harvest_witnesses"),
        "conjlab.harvest_witnesses.witnesses": counts["conjlab.harvest_witnesses.witnesses"],
        "conjlab.fiber_polynomial.calls": calls("conjlab.fiber_polynomial"),
        "conjlab.sweep_row.calls": calls("conjlab.sweep_row"),
        "cli.report_write.s": seconds("cli.report_write"),
        "cli.report_write.bytes": counts["cli.report_write.bytes"],
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(s[2] for name, s in stats.items()
                                   if name.startswith(layer + ".")) / 1e9
    m["trace.overhead_ratio"] = traced_s / untraced_s
    return m

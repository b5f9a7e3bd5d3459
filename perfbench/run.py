"""End-to-end benchmark of the EAR/eUFS reproduction, one workload per process.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper_ear --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics on untraced passes.  A
pass is one complete unit of the workload; each workload runs a fixed
number of identical passes (``Scenario.passes``), and ``--seconds`` only
caps the measured time on a host too slow to finish them.

Every timing is scaled to the nominal host speed of ``hostspeed.py``,
which the benchmark samples between operations, because the shared
hosts it runs on change speed by up to 1.5x from one second to the
next.  An operation's latency is scaled by the samples just before and
after it; a pass's wall time by the samples over it, without the
sampling itself.  The latency percentiles are over the operations of
all passes; the throughput is each pass's, and the metric is its median
over the passes.  ``setup_s`` is the median, over ``SETUP_REPEATS``
fresh interpreters, of the imports, the calibration and one pass's
input generation and service start-up, each scaled by samples taken
just before and after it.  ``peak_rss_mb`` leaves out the sampling
kernel's table.

``--trace 1`` runs one pass untraced, then again with spans around
every layer's entry points, and reports the per-layer metrics (see
``spans.py``).

Both modes check the workload's outputs before printing any metric; a
failed check exits non-zero.  For the default seed the first pass is
also compared against the values recorded in ``expected.json`` at 1e-9
relative, so a change to the simulated physics fails instead of posting
a number.  ``--record`` rewrites that workload's recorded values instead
(only for a deliberate physics change).

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Scratch files (the
service's socket and journal, the span dump) go under
``.perfbench_work/`` in the working directory; apart from ``--record``,
nothing else is written.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
EXPECTED = HERE / "expected.json"
DEFAULT_SEED = 0
#: tolerance of the recorded-value check: the scalar/batched engine
#: equivalence gate's, so an engine flip passes and a physics change fails.
RTOL = 1e-9
#: fresh-interpreter set-ups timed per run for ``setup_s``.
SETUP_REPEATS = 7


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=RTOL, abs_tol=RTOL)


def compare_digest(recorded: dict, digest: dict) -> list[str]:
    """Mismatches between a pass's digest and the recorded values."""
    problems = []
    for key in sorted(set(recorded) | set(digest)):
        if key not in digest or key not in recorded:
            problems.append(f"{key}: recorded {recorded.get(key)!r}, got {digest.get(key)!r}")
        elif not _close(float(recorded[key]), float(digest[key])):
            problems.append(f"{key}: recorded {recorded[key]!r}, got {digest[key]!r}")
    return problems


def require_same(recorded: dict, digest: dict, what: str) -> None:
    """Fail the output check unless ``digest`` matches ``recorded``."""
    from scenarios import require

    problems = compare_digest(recorded, digest)
    require(not problems, f"{what}: " + "; ".join(problems))


def percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (inclusive method)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_pass(scenario, seed: int, sampler=None):
    """One pass: ``(result, setup seconds, measured seconds)``.

    With a :class:`hostspeed.Sampler`, the host's speed is sampled
    between the pass's operations.
    """
    import hostspeed

    # every pass starts from a collected heap, so the previous pass's
    # garbage is not collected on this one's clock
    gc.collect()
    t0 = time.perf_counter()
    state = scenario.prepare(seed)
    t1 = time.perf_counter()
    hostspeed.active = sampler
    try:
        result = scenario.run(state)
        t2 = time.perf_counter()
    finally:
        hostspeed.active = None
        extra = scenario.close(state)
    result.counts.update(extra)
    scenario.check(result)
    return result, t1 - t0, t2 - t1


def scaled_pass(scenario, seed: int):
    """One pass with its timings at nominal host speed.

    Returns ``(result, scaled latencies, scaled measured seconds)``.
    """
    from hostspeed import Sampler

    sampler = Sampler()
    sampler.sample()
    outside_s = sampler.spent_s
    result, _, wall = run_pass(scenario, seed, sampler)
    # time outside the operations (fit, validate, drain), taken at the
    # pass's mean speed; the sampling itself is not the program's time
    rest = wall - sum(result.latencies_s) - (sampler.spent_s - outside_s)
    sampler.sample()
    scales = [
        sampler.scale_over(t, t + dt) for t, dt in zip(result.starts_s, result.latencies_s)
    ]
    latencies = [t * k for t, k in zip(result.latencies_s, scales)]
    return result, latencies, sum(latencies) + rest * sampler.mean_scale()


def setup_seconds(workload: str, seed: int) -> float:
    """Median scaled set-up time over :data:`SETUP_REPEATS` fresh interpreters."""
    from hostspeed import REFERENCE_S, kernel_seconds

    def speed():
        return statistics.mean(kernel_seconds() for _ in range(3))

    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload]
    cmd += ["--seed", str(seed), "--setup-probe"]
    times = []
    before = speed()
    for _ in range(SETUP_REPEATS):
        probe = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if probe.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {probe.stderr.strip()}")
        after = speed()
        setup_s = json.loads(probe.stdout.splitlines()[-1])["setup_s"]
        times.append(setup_s * REFERENCE_S / ((before + after) / 2))
        before = after
    return statistics.median(times)


def end_to_end(scenario, args) -> tuple[dict, list]:
    from hostspeed import table_mb

    passes, latencies, walls = [], [], []
    t_start = time.perf_counter()
    while len(passes) < scenario.passes:
        spent = time.perf_counter() - t_start
        if passes and spent * (1 + 1 / len(passes)) > args.seconds:
            print(
                f"warning: --seconds {args.seconds:g} allowed "
                f"{len(passes)} of {scenario.passes} passes"
            )
            break
        result, scaled, wall = scaled_pass(scenario, args.seed)
        if passes:
            require_same(passes[0].digest, result.digest, "a repeated pass changed the outputs")
        passes.append(result)
        latencies.extend(scaled)
        walls.append(wall)
    attempted = sum(len(p.latencies_s) for p in passes)
    failed = sum(p.failed for p in passes)
    beyond_p90 = attempted - math.ceil(0.9 * attempted)
    print(f"{len(passes)} passes, {attempted} operations ({beyond_p90} beyond p90)")
    print(f"  scaled pass walls (s): {', '.join(f'{w:.3f}' for w in walls)}")
    if beyond_p90 < 10:
        print("warning: fewer than ten operations lie beyond p90")
    metrics = {
        "latency_p50_ms": (percentile(latencies, 50) * 1e3, "ms"),
        "latency_p90_ms": (percentile(latencies, 90) * 1e3, "ms"),
        "node_iters_per_s": (
            statistics.median(p.node_iters / w for p, w in zip(passes, walls)),
            "1/s",
        ),
        # the program's, without the sampling kernel's table
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024 - table_mb(),
            "MB",
        ),
        "setup_s": (setup_seconds(args.workload, args.seed), "s"),
        "ok_ratio": (1.0 - failed / attempted, "ratio"),
        "paper_err_pct": (scenario.paper_error(args.seed, passes[0]), "%"),
    }
    return metrics, passes


def per_layer(scenario, args) -> tuple[dict, list]:
    from hostspeed import REFERENCE_S, kernel_seconds
    from spans import LAYERS, Tracer

    plain, _, wall_plain = scaled_pass(scenario, args.seed)
    tracer = Tracer()
    tracer.install()
    # sampled only around the traced pass: a kernel run on one thread
    # would hold the interpreter while spans are open on another
    try:
        before = kernel_seconds()
        traced, _, wall_traced = run_pass(scenario, args.seed)
        after = kernel_seconds()
    finally:
        tracer.remove()
    require_same(plain.digest, traced.digest, "tracing changed the outputs")
    k = REFERENCE_S / ((before + after) / 2)
    totals = tracer.layer_totals()
    metrics = {}
    print(f"{'layer':<24}{'calls':>12}{'self ms':>14}")
    for layer in LAYERS:
        calls, self_ms = totals[layer]
        print(f"{layer:<24}{calls:>12}{self_ms * k:>14.3f}")
        metrics[f"{layer}.calls"] = (calls, "count")
        metrics[f"{layer}.self_ms"] = (self_ms * k, "ms")
    c = traced.counts
    metrics.update(
        {
            "sim.node_iters": (traced.node_iters, "count"),
            # the benchmark injects no faults, so every call lands a write
            "ear.eard.writes": (tracer.calls("Eard.apply_freqs"), "count"),
            "experiments.parallel.cache_hit_ratio": (
                c["cache.hits"] / c["cache.lookups"] if c.get("cache.lookups") else 0.0,
                "ratio",
            ),
            "cluster.scheduler.backfill_ratio": (
                c["backfilled"] / c["started"] if c.get("started") else 0.0,
                "ratio",
            ),
            "service.rejected": (c.get("rejected", 0), "count"),
            "trace.overhead_ratio": (wall_traced * k / wall_plain, "ratio"),
        }
    )
    spans_path = Path(".perfbench_work") / "spans" / f"{args.workload}-seed{args.seed}.npz"
    tracer.write(spans_path)
    print(f"{tracer.n_spans()} spans written to {spans_path}")
    return metrics, [plain, traced]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    # one set-up in this interpreter, timed for setup_s (internal)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    import scenarios

    if args.workload not in scenarios.SCENARIOS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(scenarios.SCENARIOS)}")
    scenario = scenarios.SCENARIOS[args.workload]()
    scenario.warm()
    if args.setup_probe:
        state = scenario.prepare(args.seed)
        setup_s = time.perf_counter() - T_START
        scenario.close(state)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    print(f"workload {scenario.name}: {scenario.why}")
    print(f"  loads: {scenario.loads}")
    print(f"  bypasses: {scenario.bypasses}")
    try:
        if args.trace:
            metrics, passes = per_layer(scenario, args)
        else:
            metrics, passes = end_to_end(scenario, args)
        if args.seed == DEFAULT_SEED:
            recorded = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
            if args.record:
                recorded[scenario.name] = passes[0].digest
                EXPECTED.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
                print(f"recorded {scenario.name} in {EXPECTED.name}")
            else:
                require_same(
                    recorded.get(scenario.name, {}),
                    passes[0].digest,
                    f"{scenario.name}: outputs differ from the record",
                )
    except scenarios.CheckFailed as err:
        print(f"output check failed: {err}", file=sys.stderr)
        return 1

    for name, (value, unit) in metrics.items():
        print(f"{name:<40} {value:>16.6f} {unit}")
    attempted = sum(len(p.latencies_s) for p in passes)
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": attempted,
                "failed": sum(p.failed for p in passes),
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run the end-to-end benchmark: ``python3 -m benchmarks.e2e [options]``.

Runs from the repository root.  With ``--workload`` one workload runs;
without it all four do, the selection workloads' rep processes
round-robin so machine drift hits each alike.  Every metric prints by
name with its unit, median, quartiles, sample count and (where ten
samples lie beyond it) a tail percentile; the outputs are checked for
correctness, a results JSON lands in ``benchmarks/e2e/results/latest/``,
and the last stdout line is one JSON object::

    {"correct": true, "attempted": 41, "failed": 0,
     "metrics": {"op_ms": {"value": 532.7, "unit": "ms"}, ...}}

Each workload measures for ``run_seconds`` of ``BENCHMARK.json``
(``--tiny``: ``TINY_SECONDS``).  ``--seconds`` is accepted because the
standard benchmark invocation passes it, and must equal ``run_seconds``.
``--trace 0`` (the default) reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace`` / ``--trace 1`` the per-layer ones,
from traced reps interleaved with untraced ones.  ``--repeat N`` runs N
full sets, their selection reps interleaved, and prints each end-to-end
metric's change between the first and last set against its bound; the
sets are recorded in ``results/latest/repeat-*.json``.  ``--tiny``
shrinks every workload to smoke-test size.  The exit status is non-zero
when any output is wrong, and 2 (with no result line) when the program
under test cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def parse_args(argv: list[str] | None, catalog: dict) -> argparse.Namespace:
    from .workloads import TINY_SECONDS, WORKLOADS

    parser = argparse.ArgumentParser(prog="python3 -m benchmarks.e2e")
    parser.add_argument("--workload", choices=WORKLOADS, default=None)
    parser.add_argument("--seed", type=int, default=2023)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1)
    )
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    run_seconds = float(catalog["run_seconds"])
    if args.seconds is not None and args.seconds != run_seconds:
        parser.error(f"--seconds must equal run_seconds ({run_seconds:g})")
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")
    args.seconds = TINY_SECONDS if args.tiny else run_seconds
    return args


def host_metadata() -> dict:
    import numpy
    import scipy

    model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    threads = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {name: os.environ.get(name) for name in threads},
    }


def run_sets(args: argparse.Namespace, out_dir: Path) -> list[dict[str, dict]]:
    """``--repeat`` full sets; per set, the outcome of each workload.

    Selection reps run round-robin across workloads *and* sets, so machine
    drift (this host's speed wanders by tens of percent over minutes)
    hits every workload and every set alike; serving runs follow, each
    workload's sets back to back, so the runs a repeat compares are
    minutes closer together than whole sets would be.
    """
    from .workloads import SELECTION, SERVING, SelectionRunner, run_serving

    names = [args.workload] if args.workload else [*SELECTION, *SERVING]
    trace = bool(args.trace)
    sets = [
        [
            SelectionRunner(name, args.seed, trace, args.tiny, args.seconds, out_dir)
            for name in names
            if name in SELECTION
        ]
        for _ in range(args.repeat)
    ]
    runners = [runner for runners in sets for runner in runners]
    while not all(r.done() for r in runners):
        for runner in runners:
            if not runner.done():
                runner.run_rep()
    references: dict = {}
    results = []
    for runners in sets:
        outcomes: dict[str, dict] = {}
        for runner in runners:
            attempted, failed, messages = runner.check(references)
            e2e, layers = runner.samples()
            outcomes[runner.name] = {
                "e2e": e2e,
                "layers": layers,
                "attempted": attempted,
                "failed": failed,
                "messages": messages,
                "reps": runner.reps,
            }
        results.append(outcomes)
    for name in names:
        if name in SERVING:
            for outcomes in results:  # one workload's sets back to back
                outcomes[name] = run_serving(
                    name, args.seed, args.seconds, trace, args.tiny, out_dir
                )
    return results


def metric_values(outcome: dict, catalog: dict, trace: bool) -> dict[str, float]:
    """Median of each catalog metric; a layer a workload never exercises is 0."""
    from .stats import quartiles

    kind, source = ("per_layer", "layers") if trace else ("end_to_end", "e2e")
    values = {}
    for metric in catalog[kind]:
        samples = outcome[source].get(metric["name"], [])
        if samples:
            values[metric["name"]] = float(quartiles(samples)[1])
        elif trace:
            values[metric["name"]] = 0.0
        else:
            outcome["failed"] += 1
            outcome["messages"].append(f"no samples for {metric['name']}")
            values[metric["name"]] = 0.0
    return values


def print_table(
    name: str, outcome: dict, catalog: dict, args: argparse.Namespace
) -> None:
    from .stats import summarize

    kind, source = ("per_layer", "layers") if args.trace else ("end_to_end", "e2e")
    print(f"\n== {name}  seed={args.seed}  trace={args.trace}")
    print(
        f"   {'metric':38} {'unit':>8} {'median':>12} {'q1':>12} {'q3':>12}"
        f" {'n':>6}  tail"
    )
    rows = list(catalog[kind])
    listed = {metric["name"] for metric in rows}
    # Then what the catalog does not bound: raw (unscaled) times, the
    # host-speed probe, per-op latency.
    rows += [
        {"name": key, "unit": "ms" if key.endswith("_ms") else "s"}
        for key in outcome[source]
        if key not in listed
    ]
    if "by_op" in outcome and not args.trace:
        rows += [
            {"name": f"latency.{op}", "unit": "ms"} for op in outcome.get("by_op", {})
        ]
    for metric in rows:
        key = metric["name"]
        samples = outcome[source].get(key)
        if key.startswith("latency."):
            samples = outcome["by_op"][key.split(".", 1)[1]]
        if not samples:
            continue
        s = summarize(samples)
        tail = f"p{s['tail_q']:g}={s['tail']:.4g}" if s["tail_q"] is not None else "-"
        print(
            f"   {key:38} {metric['unit']:>8} {s['median']:>12.6g} {s['q1']:>12.6g}"
            f" {s['q3']:>12.6g} {s['count']:>6}  {tail}"
        )
    verdict = "ok" if outcome["failed"] == 0 else "FAILED"
    print(
        f"   correctness: {verdict}"
        f" ({outcome['failed']} of {outcome['attempted']} failed)"
    )
    for message in outcome["messages"][:10]:
        print(f"     - {message}")


def summarize_set(outcomes: dict[str, dict]) -> dict[str, dict]:
    """Per workload: every metric's summary plus the correctness tally."""
    from .stats import summarize

    return {
        name: {
            "attempted": outcome["attempted"],
            "failed": outcome["failed"],
            "end_to_end": {k: summarize(v) for k, v in outcome["e2e"].items() if v},
            "per_layer": {k: summarize(v) for k, v in outcome["layers"].items() if v},
        }
        for name, outcome in outcomes.items()
    }


def report_repeat(sets: list[dict], catalog: dict) -> dict:
    """Change of each end-to-end median from the first set to the last."""
    from .stats import quartiles, regression, spread

    report: dict[str, dict] = {}
    print("\n== repeatability: last set vs first, against each bound")
    print(
        f"   {'workload':20} {'metric':14} {'first':>12} {'last':>12}"
        f" {'worse':>8} {'bound':>6}"
    )
    for name in sets[0]:
        report[name] = {}
        for metric in catalog["end_to_end"]:
            key = metric["name"]
            first = sets[0][name]["e2e"].get(key) or [0.0]
            last = sets[-1][name]["e2e"].get(key) or [0.0]
            first_median, last_median = quartiles(first)[1], quartiles(last)[1]
            worse = regression(first_median, last_median, metric["better"])
            report[name][key] = {
                "first_median": first_median,
                "last_median": last_median,
                "first_spread": spread(first),
                "last_spread": spread(last),
                "worse_by": worse,
                "bound": metric["bound"],
                "within_bound": worse <= metric["bound"],
            }
            flag = "" if worse <= metric["bound"] else "  OUT OF BOUND"
            print(
                f"   {name:20} {key:14} {first_median:>12.6g} {last_median:>12.6g}"
                f" {worse:>+8.3f} {metric['bound']:>6.2f}{flag}"
            )
    return report


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro  # noqa: F401 - the program under test must be importable
    except ImportError as exc:
        print(
            f"benchmark: cannot import the program under test: {exc}",
            file=sys.stderr,
        )
        return 2
    catalog_path = ROOT / "BENCHMARK.json"
    try:
        catalog = json.loads(catalog_path.read_text())
    except (OSError, ValueError) as exc:
        print(f"benchmark: cannot read {catalog_path}: {exc}", file=sys.stderr)
        return 2
    args = parse_args(argv, catalog)
    # SIGTERM unwinds like an exception, so the `finally` blocks stop the
    # server and rep processes this run started instead of orphaning them.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    out_dir = HERE / "results" / "latest"
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.monotonic()
    sets = run_sets(args, out_dir)
    for outcomes in sets:
        for name, outcome in outcomes.items():
            outcome["values"] = metric_values(outcome, catalog, bool(args.trace))
            print_table(name, outcome, catalog, args)
    host = host_metadata()
    record = {
        "host": host,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "wall_s": time.monotonic() - started,
        "sets": sets,
    }
    label = args.workload or "all"
    suffix = ("-tiny" if args.tiny else "") + ("-trace" if args.trace else "")
    stem = f"{label}-seed{args.seed}{suffix}"
    if args.repeat > 1:
        summary = dict(record, sets=[summarize_set(outcomes) for outcomes in sets])
        summary["repeat"] = report_repeat(sets, catalog)
        repeat_path = out_dir / f"repeat-{stem}.json"
        repeat_path.write_text(json.dumps(summary, indent=1) + "\n")
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1))
    last = sets[-1]
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in catalog[kind]}
    metrics = {
        key if args.workload else f"{name}/{key}": {"value": value, "unit": units[key]}
        for name, outcome in last.items()
        for key, value in outcome["values"].items()
    }
    attempted = sum(o["attempted"] for o in last.values())
    failed = sum(o["failed"] for o in last.values())
    print(
        f"\nwall {record['wall_s']:.1f} s"
        f" on {host['nproc']} cpus ({host['cpu_model']})"
    )
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

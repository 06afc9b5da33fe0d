"""End-to-end benchmark of radialqm.

    python3 bench/run.py --workload scan --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --runs 3 --out bench/out/base.json

With ``--workload`` the run happens in this interpreter: set-up probes,
an untimed warm-up on a different seed, the timed pass, then the output
checks.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``).  Without
``--workload`` every workload runs in its own fresh interpreter, once per
seed, and a table of all metrics is printed; ``--out`` saves the runs for
``bench/compare.py``.

The program is imported from ``src/`` of the checkout holding this file;
the run stops with exit code 2 if it is not there.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("scan", "solve", "validate")
# fresh interpreters timed for set-up, half before the timed pass and half
# after the checks, so the median spans the run's drift in machine speed
SETUP_PROBES = 6
# slots run before timing; validate repeats one fixed input, so warming
# it would time only warm repetitions of the very same report
WARMUP_SLOTS = {"scan": 1, "solve": 1, "validate": 0}
WARMUP_SEED_OFFSET = 1_000_003


def _program_present() -> bool:
    return (SRC / "radialqm" / "cli.py").is_file()


def _quantile(values, q: float) -> float:
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def measure_setup(workload: str, probes: int) -> list:
    """Seconds of import plus one tiny call per entry point, one fresh interpreter each."""
    times = []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), workload],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def run_op(cli, solvers, op):
    """One operation; returns (seconds, record)."""
    out, err = io.StringIO(), io.StringIO()
    if op["kind"] == "cli":
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(op["argv"])
            except Exception:  # the console script would exit 1 with this traceback
                rc = 1
                traceback.print_exc()
        dt = time.perf_counter() - t0
        return dt, {"rc": rc, "out": out.getvalue(), "err": err.getvalue()}
    from radialqm.radial.model import DeltaShell, Dimension, FiniteWell, PhysicalScales

    p = op["p"]
    if p["problem"] == "delta":
        problem = DeltaShell(g=p["g"], sign=p["sign"], R=p["R"])
    else:
        problem = FiniteWell(V0=p["V0"], R=p["R"])
    args = (problem, Dimension(p["n"]), p["target"], tuple(p["eps_range"]), PhysicalScales())
    t0 = time.perf_counter()
    try:
        result, rc, message = solvers.quantized_transmission_energies(*args), 0, ""
    except Exception:  # a failed operation is counted, not fatal
        result, rc, message = None, 1, traceback.format_exc()
    dt = time.perf_counter() - t0
    return dt, {"rc": rc, "out": "", "err": message, "result": result}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    phase = time.perf_counter()
    setup_times = measure_setup(workload, SETUP_PROBES // 2)
    phases = {"setup": time.perf_counter() - phase}
    phase = time.perf_counter()

    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import workloads
    import radialqm.cli as cli
    import radialqm.solvers as solvers

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"radialqm imported from {cli.__file__}, not from {SRC}")

    tracer = None
    if trace:
        import spans as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    timed_op = run_op if tracer is None else tracer.wrap(run_op, "bench.op")

    def call(op):
        return timed_op(cli, solvers, op)

    if WARMUP_SLOTS[workload]:
        for op in next(workloads.rounds(workload, seed + WARMUP_SEED_OFFSET,
                                        WARMUP_SLOTS[workload])):
            call(op)
    if tracer is not None:
        tracer.reset()
    phases["warm-up"] = time.perf_counter() - phase

    latencies = []
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="records-", dir=OUT) as tmp:
        path = Path(tmp) / "records.jsonl"
        timed = workloads.rounds(workload, seed)
        with open(path, "w") as sink:
            start = time.perf_counter()
            while time.perf_counter() - start < seconds:
                for op in next(timed):
                    dt, record = call(op)
                    latencies.append(dt)
                    sink.write(json.dumps({"op": op, "rec": record}) + "\n")
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        phases["timed"] = time.perf_counter() - start
        phase = time.perf_counter()

        if tracer is not None:
            layer = tracing.layer_metrics(tracer)
            tracer.write(str(OUT / f"trace-{workload}.csv.gz"))
            tracer = None

        import checks

        ops, records = [], []
        with open(path) as source:
            for line in source:
                item = json.loads(line)
                ops.append(item["op"])
                records.append(item["rec"])
    failed = sum(1 for rec in records if rec["rc"] != 0)
    for op, rec in zip(ops, records):
        if rec["rc"] != 0:
            sys.stderr.write(f"failed: {op.get('argv', op['p'])}: {rec['err'].strip()[-300:]}\n")
    errors = checks.check_run(workload, ops, records)
    phases["checks"] = time.perf_counter() - phase
    phase = time.perf_counter()
    setup_times += measure_setup(workload, SETUP_PROBES - SETUP_PROBES // 2)
    phases["setup"] += time.perf_counter() - phase
    sys.stderr.write("phases: " + ", ".join(f"{k} {v:.1f} s" for k, v in phases.items())
                     + f"; {len(latencies) / sum(latencies):.4g} ops/s timed\n")
    for e in errors[:20]:
        sys.stderr.write(f"check: {e}\n")
    if len(errors) > 20:
        sys.stderr.write(f"check: ... {len(errors) - 20} more\n")

    if trace:
        metrics = {name: {"value": value, "unit": tracing.unit_of(name)}
                   for name, value in layer.items()}
    else:
        total = sum(latencies)
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "ops_per_s": {"value": len(latencies) / total, "unit": "1/s"},
            "op_p50_ms": {"value": 1e3 * _quantile(latencies, 0.5), "unit": "ms"},
            "op_p90_ms": {"value": 1e3 * _quantile(latencies, 0.9), "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    return {"correct": not errors, "attempted": len(latencies), "failed": failed,
            "metrics": metrics}


def run_all(workloads, seeds, seconds: float, trace: bool):
    """Each (workload, seed) in a fresh interpreter; returns {workload: [results]}."""
    results = {w: [] for w in workloads}
    for seed in seeds:
        for w in workloads:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", w, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "1" if trace else "0"],
                capture_output=True, text=True, cwd=ROOT, timeout=900,
            )
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                raise RuntimeError(f"{w} seed {seed} exited {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"] = seed
            results[w].append(result)
            print(f"{w:9s} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
    return results


def print_table(results) -> None:
    for w, runs in results.items():
        print(f"\n{w}: {len(runs)} run(s), ops attempted "
              f"{[r['attempted'] for r in runs]}, failed {[r['failed'] for r in runs]}, "
              f"correct {all(r['correct'] for r in runs)}")
        names = list(runs[0]["metrics"])
        for name in names:
            values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
            unit = runs[0]["metrics"][name]["unit"]
            print(f"  {name:45s} {statistics.median(values):14.6g} {unit:8s} "
                  f"(median of {len(values)})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
                        if (ROOT / "BENCHMARK.json").is_file() else 15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1, help="seeds per workload without --workload")
    parser.add_argument("--out", help="result file for compare.py (without --workload)")
    args = parser.parse_args(argv)

    if not _program_present():
        sys.stderr.write(f"radialqm sources not found under {SRC}\n")
        return 2
    if args.workload:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result))
        return 0
    seeds = [args.seed + i for i in range(args.runs)]
    results = run_all(WORKLOADS, seeds, args.seconds, bool(args.trace))
    print_table(results)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(
            {"seconds": args.seconds, "trace": args.trace, "results": results}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

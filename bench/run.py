"""cubespectra benchmark: seeded `search`, `certify` and `partition` workloads.

    python3 bench/run.py --workload search|certify|partition|all \
        --seed N --seconds T --trace 0|1

Run from a checkout of the repository; the program is imported from its
`src/`.  A run times the set-up (`setup_s`: a fresh interpreter importing
the CLI and making one tiny call down each lazy path, median of
SETUP_REPEATS), then starts one worker process (`worker.py`) that calls
`cubespectra.cli.run(argv)` in-process, pass after pass, for T seconds.
Afterwards every output is checked against references computed here
(`oracle.py`), outside the timed region.  Timings are reported in
reference seconds: each is scaled by the time a fixed kernel of the
benchmark's own takes beside it (`calib.py`), which cancels the drift of
a shared host's speed; the raw timings are printed and recorded too.

With `--trace 0` the last line of standard output is one JSON object with
the end-to-end metrics of BENCHMARK.json; with `--trace 1` it holds the
per-layer metrics from a traced run (`spans.py`) and the tracing
overhead.  Lines before it give the same metrics with their units, the
correctness verdict and the environment.  The full record, environment
included, is written to bench/_work/results/, with the spans of a traced
run beside it (name, start, end, parent index, counters).
`--workload all` runs the three workloads one after another.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")
CACHE = os.path.join(HERE, "_cache")

SETUP_REPEATS = 5
# Everything one workload run does must end within this many seconds.
RUN_LIMIT_S = 170.0

sys.path.insert(0, HERE)
import calib  # noqa: E402
import gen  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402


def percentile(values: list[float], level: float) -> float:
    """Harrell-Davis estimate of the `level` quantile: a Beta-weighted
    mean of the order statistics.  A pass mixes commands of very
    different cost, so pooled latencies come in clusters; a single order
    statistic jumps between clusters when two samples swap, the weighted
    mean moves smoothly."""
    from scipy.special import betainc

    ordered = np.sort(np.asarray(values, dtype=float))
    n = len(ordered)
    a, b = level * (n + 1), (1.0 - level) * (n + 1)
    weights = np.diff(betainc(a, b, np.arange(n + 1) / n))
    return float(weights @ ordered)


def environment(seed: int) -> dict:
    import numpy
    import scipy

    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "commit": commit,
        "seed": seed,
    }


def measure_setup(directory: str) -> dict:
    """Wall seconds of SETUP_REPEATS fresh `probe.py` interpreters, and
    the reference kernel's times, one before each interpreter and one
    after the last.  The wait blocks until the interpreter exits, with a
    timer to kill it: a wait with a timeout polls in steps of up to
    50 ms, which would round the times to that step."""
    runs, kernel = [], [calib.sample()]
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "probe.py"), directory],
            cwd=ROOT, stdout=subprocess.DEVNULL)
        killer = threading.Timer(60.0, proc.kill)
        killer.start()
        try:
            code = proc.wait()
        finally:
            killer.cancel()
        runs.append(time.perf_counter() - start)
        if code != 0:
            raise RuntimeError(f"set-up probe exited {code}")
        kernel.append(calib.sample())
    return {"runs": runs, "kernel": kernel}


def run_worker(workload: str, seed: int, seconds: int, trace: int,
               directory: str, budget: float) -> tuple[list[dict], float]:
    """Run the worker; return its pass records, with the spans of the
    traced ones attached, and its peak RSS in MB."""
    err_path = os.path.join(directory, "worker.stderr")
    with open(err_path, "w", encoding="utf-8") as err:
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"),
             "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace),
             "--workdir", directory],
            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=err)
        try:
            code = proc.wait(timeout=budget)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RuntimeError(f"worker exceeded {budget:.0f} s") from None
    if code != 0:
        with open(err_path, encoding="utf-8") as fh:
            tail = fh.read()[-2000:]
        raise RuntimeError(f"worker exited {code}:\n{tail}")
    with open(os.path.join(directory, "passes.jsonl"), encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh]
    records, final = lines[:-1], lines[-1]
    for rec in records:
        if rec["traced"]:
            rec["spans"] = final["spans"][str(rec["pass"])]
    return records, final["peak_rss_kb"] / 1024.0


def load_cache(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return {}


def check_passes(records: list[dict], cache: dict) -> dict:
    """Check every call; in traced runs also compare the two copies of
    each pass byte for byte."""
    attempted = failed = uncertified = interval_calls = 0
    failures = []
    untraced_sha = {}
    for rec in records:
        for op, call in zip(rec["ops"], rec["calls"]):
            attempted += 1
            ok, reason, unc = oracle.check(op, call, cache)
            key = (rec["pass"], tuple(call["argv"]))
            if ok and rec["traced"] is False:
                untraced_sha[key] = call["sha256"]
            if op["check"]["kind"] == "lambda1":
                interval_calls += 1
            uncertified += unc
            if not ok:
                failed += 1
                failures.append({"pass": rec["pass"], "argv": call["argv"],
                                 "traced": rec["traced"], "reason": reason})
    for rec in records:
        if not rec["traced"]:
            continue
        for call in rec["calls"]:
            want = untraced_sha.get((rec["pass"], tuple(call["argv"])))
            if want is not None and want != call["sha256"]:
                failed += 1
                failures.append({"pass": rec["pass"], "argv": call["argv"],
                                 "traced": True,
                                 "reason": "traced output differs"})
    return {"attempted": attempted, "failed": failed,
            "uncertified": uncertified, "interval_calls": interval_calls,
            "failures": failures}


def timings(workload: str, records: list[dict], setup: dict,
            scaled: bool) -> dict:
    """The timing metrics, in reference seconds (`calib.py`) or raw.  A
    call is scaled by the kernel times on either side of it.  Set-up is
    scaled by the median of every kernel time in the run: the six taken
    around the set-up interpreters alone spread more than the set-up
    times themselves."""
    def seconds(t: float, before: float, after: float) -> float:
        return calib.scale(t, before, after) if scaled else t

    kernel = statistics.median(setup["kernel"] + [
        c["ref"][1] for rec in records for c in rec["calls"]])
    latencies = [[seconds(c["latency"], *c["ref"]) for c in rec["calls"]]
                 for rec in records]
    walls = [sum(pass_latencies) for pass_latencies in latencies]
    every = gen.cycle(workload)
    cycles = [statistics.fmean(walls[k:k + every])
              for k in range(0, len(walls) - every + 1, every)
              ] or [statistics.fmean(walls)]
    pooled = [t * 1000.0 for pass_latencies in latencies
              for t in pass_latencies]
    return {
        "setup_s": seconds(statistics.median(setup["runs"]), kernel, kernel),
        "wall_s": statistics.median(cycles),
        "op_p50_ms": percentile(pooled, 0.5),
        "op_tail_ms": percentile(pooled, gen.TAIL_LEVEL[workload]),
    }


def end_to_end(workload: str, records: list[dict], setup: dict,
               peak_rss_mb: float, verdict: dict) -> tuple[dict, dict]:
    level = gen.TAIL_LEVEL[workload]
    samples = sum(len(rec["calls"]) for rec in records)
    values = {
        **timings(workload, records, setup, scaled=True),
        "ok_frac": 1.0 - verdict["failed"] / verdict["attempted"],
        "certified_frac": 1.0 - verdict["uncertified"] / verdict["attempted"],
        "peak_rss_mb": peak_rss_mb,
    }
    info = {"passes": len(records), "tail_level": level,
            "tail_samples": samples,
            "tail_beyond": gen.samples_beyond(level, samples),
            "raw": timings(workload, records, setup, scaled=False),
            "setup": setup,
            "calls": [[c["latency"], *c["ref"]] for rec in records
                      for c in rec["calls"]]}
    return values, info


def _layer_value(name: str, summary: dict, pass_spans: list) -> float:
    if name == "spectral.lambda1.nnz_touched":
        return spans.lambda1_nnz_touched(pass_spans)
    if name == "search.families":
        return summary.get("search.max_lambda1", {}).get("families", 0)
    span, field = name.rsplit(".", 1)
    return summary.get(span, {}).get(field, 0)


def _scaled_wall(rec: dict) -> float:
    return sum(calib.scale(c["latency"], *c["ref"]) for c in rec["calls"])


def per_layer(names: list[str], records: list[dict]) -> tuple[dict, dict]:
    """Medians over traced passes.  The tracing overhead compares the two
    copies of a pass in reference seconds, so host drift between them
    cancels; coverage compares the spans with the same pass's raw wall
    time, as both are raw."""
    untraced = {rec["pass"]: _scaled_wall(rec) for rec in records
                if not rec["traced"]}
    per_pass: dict[str, list[float]] = {name: [] for name in names}
    coverage, overhead = [], []
    for rec in records:
        if not rec["traced"]:
            continue
        summary = spans.summarize(rec["spans"])
        coverage.append(spans.root_time(rec["spans"]) / rec["wall"])
        overhead.append(_scaled_wall(rec) / untraced[rec["pass"]] - 1.0)
        for name in names:
            if not name.startswith("trace."):
                per_pass[name].append(_layer_value(name, summary, rec["spans"]))
    per_pass["trace.overhead_frac"] = overhead
    per_pass["trace.coverage"] = coverage
    values = {name: statistics.median(per_pass[name]) for name in names}
    return values, {"traced_passes": len(coverage)}


def run_workload(workload: str, seed: int, seconds: int, trace: int,
                 spec: dict) -> dict:
    start = time.monotonic()
    tag = f"{workload}-seed{seed}-trace{trace}"
    directory = os.path.join(WORK, f"{tag}-{os.getpid()}")
    os.makedirs(directory)
    cache_path = os.path.join(CACHE, f"{workload}-seed{seed}.json")
    try:
        setup = {} if trace else measure_setup(os.path.join(directory,
                                                             "probe"))
        budget = RUN_LIMIT_S - (time.monotonic() - start) - 30.0
        records, peak_rss_mb = run_worker(workload, seed, seconds, trace,
                                          directory, budget)
        cache = load_cache(cache_path)
        verdict = check_passes(records, cache)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    os.makedirs(CACHE, exist_ok=True)
    with open(cache_path, "w", encoding="utf-8") as fh:
        json.dump(cache, fh)

    if trace:
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values, info = per_layer(names, records)
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values, info = end_to_end(workload, records, setup, peak_rss_mb,
                                  verdict)
        values = {name: values[name] for name in units}
    result = {
        "correct": verdict["failed"] == 0,
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }
    record = {"workload": workload, "trace": trace, "seconds": seconds,
              "environment": environment(seed), "result": result,
              "uncertified": verdict["uncertified"],
              "interval_calls": verdict["interval_calls"],
              "failures": verdict["failures"][:50], **info}
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results", f"{tag}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    if trace:
        with open(os.path.join(WORK, "results", f"{tag}.spans.json"), "w",
                  encoding="utf-8") as fh:
            json.dump({rec["pass"]: rec["spans"] for rec in records
                       if rec["traced"]}, fh)
    return record


def describe(record: dict) -> list[str]:
    result = record["result"]
    env = record["environment"]
    lines = [
        f"workload {record['workload']}  seed {env['seed']}  trace "
        f"{record['trace']}  correct {result['correct']}  "
        f"calls {result['attempted']}  failed {result['failed']}",
        "  env: python {python}  numpy {numpy}  scipy {scipy}  nproc {nproc}  "
        "commit {commit}".format(**env),
    ]
    for name, metric in result["metrics"].items():
        lines.append(f"  {name:<36} {metric['value']:.6g} {metric['unit']}")
    if not record["trace"]:
        frac = result["failed"] / result["attempted"]
        lines.append(f"  fail_frac {frac:.6g} ({result['failed']}/"
                     f"{result['attempted']} calls)")
        unc = record["uncertified"]
        base = record["interval_calls"]
        lines.append(f"  uncertified_frac {unc / base if base else 0.0:.6g} "
                     f"({unc}/{base} calls reporting an interval at a tol)")
        raw = "  ".join(f"{name} {value:.6g}"
                        for name, value in record["raw"].items())
        lines.append(f"  timings above in reference seconds (calib.py); "
                     f"raw: {raw}")
        lines.append(f"  op_tail_ms is p{100 * record['tail_level']:g} of "
                     f"{record['tail_samples']} calls, "
                     f"{record['tail_beyond']} beyond; "
                     f"{record['passes']} passes")
    for failure in record["failures"][:5]:
        lines.append(f"  FAIL {failure}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cubespectra benchmark")
    parser.add_argument("--workload", required=True,
                        choices=[*gen.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "cubespectra", "cli.py")):
        sys.stderr.write("no cubespectra sources under src/: run from a "
                         "checkout of the repository\n")
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = gen.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in workloads:
        try:
            record = run_workload(workload, args.seed, args.seconds,
                                  args.trace, spec)
        except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
            sys.stderr.write(f"{workload}: benchmark failed: {exc}\n")
            return 1
        print("\n".join(describe(record)), flush=True)
        results[workload] = record["result"]
    last = results[workloads[0]] if len(workloads) == 1 else results
    print(json.dumps(last))
    return 0


if __name__ == "__main__":
    sys.exit(main())

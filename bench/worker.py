"""The long-lived workload process.

Imports the CLI, runs the set-up probe's warm-up calls, then runs passes
of the workload's operations through `cubespectra.cli.run(argv)` in this
one process, a closed loop of one caller, with the reference kernel of
`calib.py` timed between calls.  Inputs for a pass are written
before its clock starts.  One JSON line per pass goes to `passes.jsonl`
in the work directory after the pass ends, and a final line holds the
process's peak resident memory, read before anything large is written.

With `--trace 1` every pass runs twice on the same inputs, untraced and
traced, in alternating order.  The spans of the traced copies stay in
memory until the run ends and go into the final line.

    python3 bench/worker.py --workload W --seed S --seconds T --trace 0|1 \
        --workdir DIR
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
from time import perf_counter

import calib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# A run stops starting passes after this many seconds, whatever else
# holds, so that it ends well inside the benchmark's time limit.
HARD_CAP_S = 110.0


def call(cli, argv: list[str]) -> dict:
    """One CLI call: exit code, error (if it raised), latency, output."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a raising call is a failed operation
        code, error = None, f"{type(exc).__name__}: {exc}"
    latency = perf_counter() - start
    text = out.getvalue()
    return {"argv": argv, "code": code, "error": error, "stderr": err.getvalue(),
            "latency": latency, "output": text,
            "sha256": hashlib.sha256(text.encode()).hexdigest()}


def run_pass(cli, ops: list[dict]) -> tuple[float, list[dict]]:
    """Run the ops in order; return the pass's wall time and its calls.
    The reference kernel is timed before the first call and after each
    call, outside the wall time; each call carries the kernel times on
    either side of it as `ref`."""
    wall = 0.0
    calls = []
    ref = calib.sample()
    for op in ops:
        start = perf_counter()
        rec = call(cli, op["argv"])
        save = op.get("save")
        if save and rec["code"] == 0:
            with open(save["path"], "w", encoding="utf-8") as fh:
                fh.write(json.loads(rec["output"])[save["field"]])
        wall += perf_counter() - start
        after = calib.sample()
        rec["ref"] = [ref, after]
        ref = after
        calls.append(rec)
    return wall, calls


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import gen
    import probe
    import spans
    from cubespectra import cli

    probe.warm_up(os.path.join(args.workdir, "warmup"))
    recorder = spans.Recorder() if args.trace else None
    need = 0 if args.trace else gen.min_samples(args.workload)
    log_path = os.path.join(args.workdir, "passes.jsonl")
    every = gen.cycle(args.workload)
    walls: list[float] = []
    traced_spans: dict[int, list] = {}
    samples = 0
    begin = perf_counter()
    with open(log_path, "w", encoding="utf-8") as log:
        p = 0
        while True:
            elapsed = perf_counter() - begin
            # Once it has its samples, a run lasts the whole number of
            # cycles closest to --seconds: a search pass takes ~10 s, and
            # rounding down would often leave a 30 s run two passes.
            if walls and p % every == 0 and (elapsed > HARD_CAP_S or (
                    samples >= need and elapsed
                    + every * statistics.median(walls) / 2 > args.seconds)):
                break
            ops = gen.pass_ops(args.workload, args.seed, p,
                               os.path.join(args.workdir, f"p{p}"))
            lap = perf_counter()
            records = []
            if recorder is None:
                wall, calls = run_pass(cli, ops)
                records.append({"pass": p, "traced": False, "wall": wall,
                                "ops": ops, "calls": calls})
            else:
                for traced in ((False, True) if p % 2 == 0 else (True, False)):
                    if traced:
                        recorder.install()
                    try:
                        wall, calls = run_pass(cli, ops)
                    finally:
                        recorder.uninstall()
                    if traced:
                        traced_spans[p] = recorder.take()
                    records.append({"pass": p, "traced": traced,
                                    "wall": wall, "ops": ops, "calls": calls})
            walls.append(perf_counter() - lap)
            samples += len(ops)
            for rec in records:
                log.write(json.dumps(rec) + "\n")
            p += 1
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        log.write(json.dumps({"peak_rss_kb": peak_kb,
                              "spans": traced_spans}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

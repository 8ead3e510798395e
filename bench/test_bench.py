"""Tests of the benchmark itself (not of the program):

    python3 -m pytest bench/test_bench.py

Inputs are deterministic in the seed, corrupted outputs are caught, the
traced copy of a pass reproduces the untraced output, and every workload
reports every metric BENCHMARK.json lists.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import calib  # noqa: E402
import gen  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from cubespectra import cli  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


@pytest.fixture
def scratch():
    os.makedirs(run.WORK, exist_ok=True)
    path = tempfile.mkdtemp(prefix="test-", dir=run.WORK)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _snapshot(workload: str, seed: int, p: int, directory: str):
    ops = gen.pass_ops(workload, seed, p, directory)
    files = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            files[name] = fh.read()
    text = json.dumps(ops, sort_keys=True).replace(directory, "<dir>")
    return text, files


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload, scratch):
    for p in (0, 1):
        first = _snapshot(workload, 7, p, os.path.join(scratch, f"a{p}"))
        again = _snapshot(workload, 7, p, os.path.join(scratch, f"b{p}"))
        other = _snapshot(workload, 8, p, os.path.join(scratch, f"c{p}"))
        assert first == again
        assert first != other


def test_certify_strata_cover_the_size_range():
    draws = sorted(gen.certify_draw(3, p) for p in range(gen.CERTIFY_STRATA))
    for k, u in enumerate(draws):
        assert k / gen.CERTIFY_STRATA <= u < (k + 1) / gen.CERTIFY_STRATA


def test_tail_level_leaves_ten_samples_beyond():
    for workload in gen.WORKLOADS:
        count, level = gen.min_samples(workload), gen.TAIL_LEVEL[workload]
        assert gen.samples_beyond(level, count) >= 10
        assert gen.samples_beyond(level, count - 1) < 10


def _record(ops, calls, traced=False):
    return {"pass": 0, "traced": traced, "wall": 1.0, "ops": ops,
            "calls": calls}


def _verdict(ops, calls):
    return run.check_passes([_record(ops, calls)], {})


def _corrupt(call, edit):
    rec = json.loads(call["output"])
    edit(rec)
    return dict(call, output=json.dumps(rec))


def test_perturbed_lambda1_raises_fail_frac(scratch):
    path = os.path.join(scratch, "init.fam")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(gen.family_text(8, range(100)))
    op = {"argv": ["lambda1", "--family", path],
          "check": {"kind": "lambda1", "shape": "init", "d": 8, "n": 100}}
    good = dict(worker.call(cli, op["argv"]), ref=[calib.REF_S] * 2)
    assert _verdict([op], [good])["failed"] == 0

    def bump(rec):
        rec["lambda1"] += 1e-6

    verdict = _verdict([op, op], [good, _corrupt(good, bump)])
    assert verdict["failed"] == 1
    values, _ = run.end_to_end("certify", [_record([op, op], [good, good])],
                               {"runs": [0.5], "kernel": [calib.REF_S]}, 50.0,
                               verdict)
    assert values["ok_frac"] == 0.5


def test_timings_cancel_host_speed():
    """A host twice as slow doubles every call and every kernel sample:
    the scaled timings stay, the raw ones double."""
    def records(slow):
        calls = [{"latency": slow * t, "ref": [slow * calib.REF_S * r,
                                               slow * calib.REF_S * r]}
                 for t, r in ((0.2, 1.0), (1.5, 1.1), (0.4, 0.9))]
        return [{"pass": 0, "calls": calls}, {"pass": 1, "calls": calls}]

    setup = {"runs": [0.8, 0.9], "kernel": [calib.REF_S] * 3}
    slow_setup = {"runs": [1.6, 1.8], "kernel": [2 * calib.REF_S] * 3}
    fast = run.timings("search", records(1.0), setup, scaled=True)
    slow = run.timings("search", records(2.0), slow_setup, scaled=True)
    assert slow == pytest.approx(fast)
    raw = run.timings("search", records(2.0), slow_setup, scaled=False)
    assert raw["wall_s"] == pytest.approx(4.2)
    assert fast["wall_s"] == pytest.approx(0.2 + 1.5 / 1.1 + 0.4 / 0.9)


def test_non_compressed_family_is_caught(scratch):
    ops = gen.pass_ops("partition", 1, 0, scratch)
    op = ops[0]
    good = worker.call(cli, op["argv"])
    assert _verdict([op], [good])["failed"] == 0
    with open(op["check"]["input"], encoding="utf-8") as fh:
        raw = fh.read()

    def uncompress(rec):
        rec["output"] = raw

    assert _verdict([op], [_corrupt(good, uncompress)])["failed"] == 1


def test_raising_or_failing_calls_count_as_failed(scratch):
    op = {"argv": ["lambda1", "--family", os.path.join(scratch, "missing")],
          "check": {"kind": "lambda1", "shape": "init", "d": 8, "n": 1}}
    failed = worker.call(cli, op["argv"])
    raised = dict(failed, code=None, error="RuntimeError: boom")
    assert failed["code"] == 2
    assert _verdict([op, op], [failed, raised])["failed"] == 2


def test_uncertified_interval_is_counted(scratch):
    path = os.path.join(scratch, "init.fam")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(gen.family_text(8, range(100)))
    op = {"argv": ["lambda1", "--family", path, "--tol", "1e-300"],
          "check": {"kind": "lambda1", "shape": "init", "d": 8, "n": 100}}
    call = worker.call(cli, op["argv"])
    rec = json.loads(call["output"])
    verdict = _verdict([op], [call])
    assert verdict["failed"] == 0
    assert verdict["uncertified"] == int(rec["diagnostics"]["converged"])


def _short_pass(workload, directory):
    """Pass 0 of the workload, with the search cut to N <= 12 for speed."""
    ops = gen.pass_ops(workload, 2, 0, directory)
    if workload == "search":
        ops = [op for op in ops if op["check"]["n"] <= 12]
    return ops


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_every_metric_is_reported(workload, scratch):
    probe.warm_up(os.path.join(scratch, "warmup"))
    ops = _short_pass(workload, scratch)
    plain_wall, plain = worker.run_pass(cli, ops)
    recorder = spans.Recorder()
    recorder.install()
    try:
        traced_wall, traced = worker.run_pass(cli, ops)
    finally:
        recorder.uninstall()
    records = [_record(ops, plain), dict(_record(ops, traced, True),
                                        spans=recorder.take())]
    records[0]["wall"], records[1]["wall"] = plain_wall, traced_wall
    assert [c["sha256"] for c in plain] == [c["sha256"] for c in traced]

    verdict = run.check_passes(records, {})
    assert verdict["failed"] == 0, verdict["failures"]
    setup = {"runs": [0.5], "kernel": [calib.REF_S]}
    values, info = run.end_to_end(workload, records[:1], setup, 50.0,
                                  verdict)
    assert set(values) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v > 0 for v in values.values())
    names = [m["name"] for m in SPEC["per_layer"]]
    layer, _ = run.per_layer(names, records)
    assert set(layer) == set(names)
    assert layer["cli.run.self_s"] > 0
    if workload == "partition":
        assert layer["spectral.lambda1.calls"] == 0
    else:
        assert layer["spectral.lambda1.calls"] > 0


def test_recorder_restores_the_program():
    before = (cli.spectral.lambda1, cli.search.lambda1, cli.run)
    recorder = spans.Recorder()
    recorder.install()
    assert cli.search.lambda1 is not before[1]
    recorder.uninstall()
    assert (cli.spectral.lambda1, cli.search.lambda1, cli.run) == before


def test_self_time_subtracts_children():
    recs = [["a", 0.0, 10.0, -1, None], ["b", 1.0, 4.0, 0, None],
            ["b", 5.0, 6.0, 0, None], ["c", 2.0, 3.0, 1, None]]
    summary = spans.summarize(recs)
    assert summary["a"]["self_s"] == pytest.approx(6.0)
    assert summary["b"] == pytest.approx({"calls": 2, "s": 4.0, "self_s": 3.0})
    assert spans.root_time(recs) == 10.0


def test_refuses_to_run_without_the_program(scratch):
    lone = os.path.join(scratch, "lone")
    shutil.copytree(HERE, os.path.join(lone, "bench"),
                    ignore=shutil.ignore_patterns("_work", "_cache",
                                                  "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), lone)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "partition", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=lone, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_traced_run_prints_the_per_layer_line():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "partition", "--seed",
         "4", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["attempted"] >= 1
    assert set(last["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert last["metrics"]["trace.coverage"]["value"] >= 0.95

"""Command-line surface: every documented invocation, exit codes,
determinism, and file outputs."""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import down_set_count
from cubespectra import cli, compress, core, spectral
from cubespectra.core import format_family, hamming_ball, initial_segment


def run_cli(argv, capsys):
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_hamming_exact_command(capsys):
    code, out, _ = run_cli(["hamming", "--d", "6", "--i", "2"], capsys)
    record = json.loads(out)
    assert code == 0
    assert abs(record["lambda1"] - 4.0) < 1e-9
    assert record["method"] == "reduced-tridiagonal"


def test_hamming_bounds_and_constants(capsys):
    code, out, _ = run_cli(
        ["hamming", "--d", "16", "--i", "4", "--bounds"], capsys)
    record = json.loads(out)
    assert code == 0
    assert record["walk_lower_bound"] <= record["lambda1"] <= record["upper_bound"]
    code, out, _ = run_cli(
        ["hamming", "--d", "10", "--i", "2", "--constants"], capsys)
    assert abs(json.loads(out)["limit_constant"] - math.sqrt(3)) < 1e-9


def test_hamming_bounds_closed_form_in_large_dimension(capsys):
    start = time.perf_counter()
    code, out, _ = run_cli(
        ["hamming", "--d", "40", "--i", "3", "--bounds"], capsys)
    elapsed = time.perf_counter() - start
    assert code == 0
    assert json.loads(out)["level_bound"] == 2 * math.sqrt(120)
    assert elapsed < 2.0
    code, _, err = run_cli(["hamming", "--d", "6", "--i", "4", "--bounds"],
                           capsys)
    assert code == cli.EXIT_PRECONDITION and "level bound" in err


def test_search_with_oracle(capsys):
    code, out, _ = run_cli(["search", "--n", "4", "--d", "4", "--oracle"], capsys)
    record = json.loads(out)
    assert code == 0
    assert abs(record["best_lambda1"] - 2.0) < 1e-8
    assert record["maximizers"][0] == ["{}", "{1}", "{2}", "{1,2}"]
    assert record["oracle_agrees"] is True


def test_count_cubes_command(capsys):
    code, out, _ = run_cli(["count-cubes", "--initial", "6", "--dprime", "1"], capsys)
    assert code == 0 and json.loads(out)["count"] == 7
    code, out, _ = run_cli(
        ["count-cubes", "--initial", "6", "--dprime", "1", "--bounds"], capsys)
    record = json.loads(out)
    assert record["count"] <= record["smooth_bound"] <= record["integer_bound"]


@pytest.mark.parametrize("n", [2**500 - 1, 3**1200], ids=["2^500-1", "3^1200"])
def test_count_cubes_on_a_long_initial_segment(n, capsys):
    code, out, err = run_cli(["count-cubes", "--initial", str(n),
                              "--dprime", "2"], capsys)
    assert code == 0, err
    assert json.loads(out)["count"] == down_set_count(n, 2)


def test_count_cubes_bounds_past_log2_n_are_zero(capsys):
    code, out, _ = run_cli(["count-cubes", "--initial", "10", "--dprime",
                            "1000000000000", "--bounds"], capsys)
    record = json.loads(out)
    assert code == 0 and record["count"] == 0
    assert record["smooth_bound"] == record["integer_bound"] == 0.0


def test_lambda1_and_bounds_commands(tmp_path, capsys):
    path = tmp_path / "square.fam"
    path.write_text(format_family(initial_segment(4, 2)))
    code, out, _ = run_cli(["lambda1", "--family", str(path)], capsys)
    assert code == 0 and abs(json.loads(out)["lambda1"] - 2.0) < 1e-9
    code, out, _ = run_cli(["bounds", "--family", str(path)], capsys)
    record = json.loads(out)
    assert record["classic"]["fms"] == 2.0
    assert record["walk_counts"]["bounds_hold"] is True
    # a converged sparse-path result honours the default tol
    path.write_text(format_family(initial_segment(300, 9)))
    code, out, _ = run_cli(["lambda1", "--family", str(path)], capsys)
    record = json.loads(out)
    assert record["diagnostics"]["converged"] and record["error_bound"] <= 1e-10


def test_compress_command(tmp_path, capsys):
    path = tmp_path / "fam.txt"
    path.write_text("d=3\n001\n011\n")     # {3} and {2,3}
    log = tmp_path / "steps.json"
    code, out, _ = run_cli(
        ["compress", "--in", str(path), "--kind", "family", "--log", str(log)],
        capsys)
    record = json.loads(out)
    assert code == 0
    assert record["compressed"] == ["{}", "{1}"]
    steps = json.loads(log.read_text())
    assert steps and all(s["kind"] == "uv" for s in steps)
    # vector route
    vec = tmp_path / "vec.txt"
    vec.write_text("d=2\n01 1.0\n11 0.5\n")
    code, out, _ = run_cli(["compress", "--in", str(vec), "--kind", "vector"], capsys)
    record = json.loads(out)
    assert record["rayleigh_after"] >= record["rayleigh_before"] - 1e-12


@pytest.mark.parametrize("weight", ["nan", "inf", "-inf"])
def test_compress_rejects_non_finite_weights(tmp_path, capsys, weight):
    vec = tmp_path / "vec.txt"
    vec.write_text(f"d=2\n01 1.0\n11 {weight}\n")
    code, out, err = run_cli(
        ["compress", "--in", str(vec), "--kind", "vector"], capsys)
    assert code == cli.EXIT_PRECONDITION
    assert out == "" and "finite" in err


def test_partition_command(tmp_path, capsys):
    path = tmp_path / "ball.fam"
    path.write_text(format_family(hamming_ball(8, 1)))
    code, out, _ = run_cli(
        ["partition", "--family", str(path), "--epsilon", "0.5", "--verify"],
        capsys)
    record = json.loads(out)
    assert code == 0
    assert record["verified"] is True and record["depth"] == 1
    code, out, _ = run_cli(
        ["partition", "--family", str(path), "--preset", "sec51", "--verify"],
        capsys)
    assert json.loads(out)["verified"] is True


_NEEDS_I = "--i needs --preset sec52 or --preset sec6"
_NEEDS_ALPHA = "--alpha needs --preset sec52"


@pytest.mark.parametrize("argv, message", [
    (["--preset", "sec51", "--i", "5"], _NEEDS_I),
    (["--epsilon", "0.5", "--i", "2"], _NEEDS_I),
    (["--epsilon", "0.5", "--alpha", "3"], _NEEDS_ALPHA),
    (["--preset", "sec51", "--alpha", "3"], _NEEDS_ALPHA),
    (["--preset", "sec6", "--alpha", "7"], _NEEDS_ALPHA),
], ids=["sec51-i", "epsilon-i", "epsilon-alpha", "sec51-alpha", "sec6-alpha"])
def test_partition_rejects_options_its_source_ignores(tmp_path, capsys, argv,
                                                      message):
    path = tmp_path / "ball.fam"
    path.write_text(format_family(hamming_ball(8, 1)))
    code, out, err = run_cli(["partition", "--family", str(path), *argv],
                             capsys)
    assert code == cli.EXIT_PRECONDITION and out == ""
    assert err == f"error: {message}\n"


def test_partition_presets_read_i_and_alpha(tmp_path, capsys):
    path = tmp_path / "ball.fam"
    path.write_text(format_family(hamming_ball(24, 3)))

    def epsilon(*argv):
        code, out, _ = run_cli(["partition", "--family", str(path), *argv],
                               capsys)
        assert code == 0
        return json.loads(out)["epsilon"]

    assert epsilon("--preset", "sec52") == epsilon(
        "--preset", "sec52", "--i", "1", "--alpha", "1.0") == 1 / math.log(24)
    assert epsilon("--preset", "sec52", "--i", "3", "--alpha", "2") == (
        2 / math.log(8))
    assert epsilon("--preset", "sec6") == epsilon("--preset", "sec6",
                                                  "--i", "1")
    assert epsilon("--preset", "sec6", "--i", "3") == 6 * 24 ** -0.25


def _count_graph_builds_and_member_tests(monkeypatch, members):
    """Count calls of `core.flip_csr`, however imported, and runs of the
    member test on a family equal to `members`."""
    counts = {"flip_csr": 0, "member_test": 0}
    flip_csr, state = core.flip_csr, compress._state

    def counted_flip_csr(*args):
        counts["flip_csr"] += 1
        return flip_csr(*args)

    def counted_state(x):
        counts["member_test"] += x.members == members
        return state(x)

    monkeypatch.setattr(core, "flip_csr", counted_flip_csr)
    monkeypatch.setattr(spectral, "flip_csr", counted_flip_csr)
    monkeypatch.setattr(compress, "_state", counted_state)
    return counts


def test_partition_verify_builds_one_graph_and_tests_members_once(
        tmp_path, capsys, monkeypatch):
    fam = hamming_ball(8, 1)     # depth 1 at epsilon 0.5: covered[1] is fam
    path = tmp_path / "ball.fam"
    path.write_text(format_family(fam))
    counts = _count_graph_builds_and_member_tests(monkeypatch, fam.members)
    code, out, _ = run_cli(["partition", "--family", str(path), "--epsilon",
                            "0.5", "--verify"], capsys)
    assert code == 0 and json.loads(out)["verified"] is True
    assert counts == {"flip_csr": 1, "member_test": 1}


def test_bounds_shares_one_graph_among_its_helpers(tmp_path, capsys,
                                                   monkeypatch):
    # above 64 vertices lambda1 builds its bipartite blocks with flip_csr
    fam = initial_segment(300, 16)
    path = tmp_path / "init.fam"
    path.write_text(format_family(fam))
    counts = _count_graph_builds_and_member_tests(monkeypatch, fam.members)
    code, _, _ = run_cli(["bounds", "--family", str(path)], capsys)
    assert code == 0 and counts["flip_csr"] == 2


@pytest.mark.parametrize("n", [40, 300])
def test_a_read_family_is_never_sorted_again(n, tmp_path, capsys,
                                             monkeypatch):
    # 40 vertices take the dense lambda1 path, 300 the sparse one
    fam = initial_segment(n, 16)
    canonical = tmp_path / "init.fam"
    canonical.write_text(format_family(fam))
    normalised = tmp_path / "init_crlf.fam"
    normalised.write_bytes(b"# init\r\n" + format_family(fam).replace(
        "\n", " # v\r\n").encode())
    calls = []
    sorted_masks = core._sorted_masks

    def counted(part):
        calls.append(len(part))
        return sorted_masks(part)

    monkeypatch.setattr(core, "_sorted_masks", counted)
    read = core.read_family(canonical)
    assert read.vertices.tolist() == sorted(fam.members)
    assert core.read_family(normalised).vertices.tolist() == sorted(fam.members)
    spectral.lambda1(read)
    assert core.cube_graph(read).vertices is read.vertices
    spectral.classic_bounds(read)
    for path in (canonical, normalised):
        for command in ("lambda1", "bounds"):
            code, _, _ = run_cli([command, "--family", str(path)], capsys)
            assert code == 0
    assert calls == []


@pytest.mark.parametrize("argv", [
    ["lambda1", "--family", "DIR"],
    ["lambda1", "--family", "F", "--output", "DIR"],
    ["compress", "--in", "F", "--kind", "family", "--log", "DIR"],
    ["search", "--n", "4", "--d", "4", "--out", "DIR"],
], ids=["input", "output", "log", "search-out"])
def test_a_directory_in_place_of_a_file_exits_2(tmp_path, capsys, argv):
    path = tmp_path / "ball.fam"
    path.write_text(format_family(hamming_ball(8, 1)))
    argv = [{"F": str(path), "DIR": str(tmp_path)}.get(a, a) for a in argv]
    code, out, err = run_cli(argv, capsys)
    assert code == cli.EXIT_PRECONDITION and out == ""
    assert err.startswith("error: ") and str(tmp_path) in err


@pytest.mark.parametrize("epsilon", ["nan", "inf"])
def test_partition_rejects_non_finite_epsilon(epsilon, tmp_path, capsys):
    path = tmp_path / "ball.fam"
    path.write_text(format_family(hamming_ball(8, 1)))
    code, out, err = run_cli(["partition", "--family", str(path),
                              "--epsilon", epsilon, "--verify"], capsys)
    assert code == cli.EXIT_PRECONDITION and out == ""
    assert f"epsilon must be positive and finite, got {epsilon}" in err


def test_search_out_file_and_budget(tmp_path, capsys):
    out_path = tmp_path / "max.fam"
    code, out, _ = run_cli(
        ["search", "--n", "4", "--d", "4", "--out", str(out_path)], capsys)
    assert code == 0
    assert out_path.read_text().splitlines()[0] == "d=4"
    code, out, _ = run_cli(
        ["search", "--n", "6", "--d", "6", "--budget", "1"], capsys)
    assert code == cli.EXIT_BUDGET
    assert json.loads(out)["complete"] is False


@pytest.mark.parametrize("argv", [
    ["lambda1"], ["bounds"], ["partition", "--preset", "sec51"],
    ["partition", "--epsilon", "0.5"],
], ids=["lambda1", "bounds", "partition-sec51", "partition-epsilon"])
def test_empty_family_exits_2(tmp_path, capsys, argv):
    # the check comes before epsilon: sec51 on n = 0 would give 0.0
    path = tmp_path / "empty.fam"
    path.write_text("d=3\n")
    code, out, err = run_cli([*argv, "--family", str(path)], capsys)
    assert code == cli.EXIT_PRECONDITION
    assert out == "" and err == "error: family is empty\n"


@pytest.mark.parametrize("argv, message", [
    (["hamming", "--d", "5", "--i", "-3", "--constants"],
     "radius -3 out of range 0..5"),
    (["hamming", "--d", "-5", "--i", "2", "--constants"],
     "radius 2 out of range 0..-5"),
    (["hamming", "--d", "5", "--i", "0", "--constants"],
     "radius must be >= 1"),
    (["hamming", "--d", "5", "--i", "2", "--bounds", "--k", "0"],
     "need 1 <= k < i <= d/2, got k=0, i=2, d=5"),
    (["hamming", "--d", "8", "--i", "1", "--bounds", "--k", "3"],
     "need 1 <= k < i <= d/2, got k=3, i=1, d=8"),
    (["hamming", "--d", "8", "--i", "3", "--k", "2"], "--k needs --bounds"),
    (["partition", "--preset", "sec52", "--i", "0"], "need 0 < i < d"),
    (["partition", "--preset", "sec6", "--i", "-4"], "need i >= 1"),
], ids=["constants-negative-i", "constants-negative-d", "constants-i-0",
        "bounds-k-0", "bounds-k-i-1", "k-without-bounds", "sec52-i-0",
        "sec6-negative-i"])
def test_out_of_range_arguments_exit_2(tmp_path, capsys, argv, message):
    # each value reaches the check that owns it, unclamped
    if argv[0] == "partition":
        path = tmp_path / "ball.fam"
        path.write_text(format_family(hamming_ball(8, 1)))
        argv = [*argv, "--family", str(path)]
    code, out, err = run_cli(argv, capsys)
    assert code == cli.EXIT_PRECONDITION and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (["partition", "--family", "F", "--epsilon", "0.9", "--preset", "sec51"],
     "argument --preset: not allowed with argument --epsilon"),
    (["partition", "--family", "F"],
     "one of the arguments --epsilon --preset is required"),
    (["count-cubes", "--family", "F", "--initial", "100", "--dprime", "1"],
     "argument --initial: not allowed with argument --family"),
    (["count-cubes", "--dprime", "1"],
     "one of the arguments --family --initial is required"),
    (["hamming", "--d", "8", "--i", "3", "--constants", "--bounds"],
     "argument --bounds: not allowed with argument --constants"),
], ids=["epsilon-and-preset", "no-epsilon", "family-and-initial",
        "no-source", "constants-and-bounds"])
def test_conflicting_or_missing_sources_are_usage_errors(tmp_path, capsys,
                                                         argv, message):
    # argparse rejects these before any file is read
    path = tmp_path / "ball.fam"
    path.write_text(format_family(hamming_ball(8, 1)))
    argv = [str(path) if a == "F" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        cli.run(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err.endswith(f"error: {message}\n")


def test_count_cubes_bounds_on_a_family(tmp_path, capsys):
    # the bounds hold for every family of n vertices, so a file gets them
    # at n = |F|, as the initial segment of that size does
    path = tmp_path / "ball.fam"
    path.write_text(format_family(hamming_ball(8, 1)))
    _, out, _ = run_cli(["count-cubes", "--initial", "9", "--dprime", "1",
                         "--bounds"], capsys)
    initial = json.loads(out)
    code, out, _ = run_cli(["count-cubes", "--family", str(path),
                            "--dprime", "1", "--bounds"], capsys)
    record = json.loads(out)
    assert code == 0 and record["n"] == 9 and record["count"] == 8
    for key in ("smooth_bound", "integer_bound"):
        assert record[key] == initial[key] >= record["count"]


def test_search_checks_the_oracle_range_before_searching(monkeypatch, capsys):
    def no_search(*args, **kwargs):
        raise AssertionError("max_lambda1 ran before the oracle check")

    monkeypatch.setattr(cli.search, "max_lambda1", no_search)
    code, out, err = run_cli(["search", "--n", "40", "--d", "39", "--oracle"],
                             capsys)
    assert code == cli.EXIT_PRECONDITION and out == ""
    assert err == "error: oracle brute force is limited to d <= 4\n"


@pytest.mark.parametrize("budget", ["0", "-1"])
def test_search_rejects_a_budget_below_one(capsys, budget):
    code, out, err = run_cli(
        ["search", "--n", "6", "--d", "6", "--budget", budget], capsys)
    assert code == cli.EXIT_PRECONDITION and out == ""
    assert err == f"error: search budget must be >= 1, got {budget}\n"


@pytest.mark.parametrize("n, d", [("44", "70"), ("1", "0")])
def test_search_checks_the_dimension_before_enumerating(capsys, n, d):
    start = time.perf_counter()
    code, out, err = run_cli(["search", "--n", n, "--d", d], capsys)
    assert time.perf_counter() - start < 0.5
    assert code == cli.EXIT_PRECONDITION and out == ""
    assert err == f"error: dimension must be in 1..64, got {d}\n"


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_non_finite_tol_exits_2(tmp_path, capsys, tol):
    path = tmp_path / "seg.fam"
    path.write_text(format_family(initial_segment(5, 3)))
    for argv in (["lambda1", "--family", str(path), "--tol", tol],
                 ["search", "--n", "12", "--d", "11", "--tol", tol]):
        start = time.perf_counter()
        code, out, err = run_cli(argv, capsys)
        assert code == cli.EXIT_PRECONDITION
        assert out == "" and "finite" in err
        assert time.perf_counter() - start < 3.0


def test_tol_below_rounding_returns_at_once(tmp_path):
    # No interval is narrower than its rounding, so such a tol is never
    # met; each solve reports that at once instead of taking 10^6 steps
    # (20 s on four vertices, and longer per family in a search).
    calls = []
    for fam in (initial_segment(4, 2), initial_segment(100, 8)):
        path = tmp_path / f"seg{len(fam)}.fam"
        path.write_text(format_family(fam))
        calls.append(["lambda1", "--family", str(path), "--tol", "1e-300"])
    calls.append(["search", "--n", "5", "--d", "3", "--tol", "1e-300"])
    for argv in calls:
        proc = _python(["-m", "cubespectra", *argv], tmp_path, timeout=20)
        assert proc.returncode == 0, (argv, proc.stderr)
        if argv[0] == "lambda1":
            record = json.loads(proc.stdout)
            assert record["diagnostics"]["converged"] is False


def test_search_rejects_negative_top(capsys):
    code, out, err = run_cli(
        ["search", "--n", "12", "--d", "11", "--top", "-5"], capsys)
    assert code == cli.EXIT_PRECONDITION
    assert out == "" and "top_k" in err


def test_search_deep_family_exits_3_on_budget(capsys):
    # 1,200 members deep: the enumeration reaches its first family and
    # the budget ends the search there.
    code, out, err = run_cli(
        ["search", "--n", "1200", "--d", "20", "--budget", "1"], capsys)
    assert code == cli.EXIT_BUDGET and err == ""
    record = json.loads(out)
    assert record["search_space_size"] == 1 and record["complete"] is False


def test_exit_codes(capsys, tmp_path):
    code, _, err = run_cli(["nosuchcmd"], capsys)
    assert code == cli.EXIT_USAGE and "unknown command" in err
    code, _, err = run_cli(["hamming", "--d", "4", "--i", "9"], capsys)
    assert code == cli.EXIT_PRECONDITION and "error" in err
    code, _, err = run_cli(
        ["lambda1", "--family", str(tmp_path / "missing.fam")], capsys)
    assert code == cli.EXIT_PRECONDITION
    code, _, _ = run_cli([], capsys)
    assert code == cli.EXIT_USAGE


def test_json_determinism(capsys):
    _, out1, _ = run_cli(["selftest", "--seed", "42"], capsys)
    _, out2, _ = run_cli(["selftest", "--seed", "42"], capsys)
    assert out1 == out2
    record = json.loads(out1)
    assert record["passed"] is True and record["seed"] == 42


def test_tsv_format(capsys):
    code, out, _ = run_cli(
        ["--format", "tsv", "hamming", "--d", "6", "--i", "2"], capsys)
    assert code == 0
    header, row = out.splitlines()[:2]
    cols = dict(zip(header.split("\t"), row.split("\t")))
    assert abs(float(cols["lambda1"]) - 4.0) < 1e-9


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        ["--output", str(target), "hamming", "--d", "6", "--i", "2"], capsys)
    assert code == 0 and out == ""
    assert abs(json.loads(target.read_text())["lambda1"] - 4.0) < 1e-9


_IN_ONE_PROCESS = """
import contextlib, io, json, sys
from cubespectra import cli
runs = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(argv)
        except SystemExit as exc:
            code = exc.code
    runs.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(runs))
"""


def _python(args, cwd, timeout=120):
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=timeout)


def test_calls_after_a_failing_call_match_fresh_processes(tmp_path):
    # `run` builds its parser once per process; no call, not even one
    # that argparse rejects, may leave a trace in a later call's output
    calls = [["lambda1", "--no-such-option"],
             ["lambda1", "--family", "missing.fam"],
             ["--format", "tsv", "hamming", "--d", "6", "--i", "2"],
             ["hamming", "--d", "6", "--i", "2"],
             ["search", "--n", "6", "--d", "5", "--top", "1"]]
    proc = _python(["-c", _IN_ONE_PROCESS, json.dumps(calls)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    in_one = json.loads(proc.stdout)
    assert [code for code, _, _ in in_one] == [2, 2, 0, 0, 0]
    for argv, got in zip(calls, in_one):
        fresh = _python(["-m", "cubespectra", *argv], tmp_path)
        assert got == [fresh.returncode, fresh.stdout, fresh.stderr], argv


def test_cli_calls_leave_scipy_unimported(tmp_path):
    # importing scipy.sparse costs a large share of a process's set-up
    # time, so only the sparse eigen-solve may import it
    path = tmp_path / "seg.fam"
    path.write_text(format_family(initial_segment(40, 6)))
    calls = [["lambda1", "--family", str(path)],
             ["search", "--n", "8", "--d", "7"]]
    script = (_IN_ONE_PROCESS
              + "assert all(code == 0 for code, _, _ in runs), runs\n"
              + "assert 'scipy' not in sys.modules\n")
    proc = _python(["-c", script, json.dumps(calls)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(json.loads(proc.stdout)[0][1])["method"] == "power"

"""Command-line entry point.

One executable with a subcommand per capability: spectra (`lambda1`,
`hamming`, `bounds`), compressions (`compress`), subcube counting
(`count-cubes`), extremal search (`search`), partition certificates
(`partition`), golden-table regeneration (`regen-goldens`), and a seeded
self-check (`selftest`).

Results are emitted as JSON records (floats keep full round-trip
precision) or TSV.  Identical configuration and seed give byte-identical
JSON.  Exit codes: 0 success, 2 bad
preconditions, 3 exhausted search budget, 64 unknown command.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys

from . import compress as comp
from . import core, goldens, search, spectral, subcubes

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_BUDGET = 3
EXIT_USAGE = 64


def _family_brief(fam: core.VertexFamily) -> list[str]:
    return [core.vertex_str(v) for v in fam.sorted_members()]


def _spectral_record(result: spectral.SpectralResult) -> dict:
    return {
        "method": result.method,
        "lambda1": result.lambda1,
        "error_bound": result.error_bound,
        "diagnostics": {
            "iterations": result.iterations,
            "converged": result.converged,
        },
    }


def _emit(payload, args) -> None:
    if getattr(args, "format", "json") == "tsv":
        text = _to_tsv(payload)
    else:
        text = json.dumps(payload, sort_keys=True, indent=2,
                          allow_nan=False) + "\n"
    output = getattr(args, "output", None)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _flatten(prefix: str, value, row: dict) -> None:
    if isinstance(value, dict):
        for key in sorted(value):
            _flatten(f"{prefix}.{key}" if prefix else str(key), value[key], row)
    elif isinstance(value, (list, tuple)):
        row[prefix] = ";".join(str(v) for v in value)
    else:
        row[prefix] = value


def _to_tsv(payload) -> str:
    rows = payload if isinstance(payload, list) else [payload]
    flat = []
    for item in rows:
        row: dict = {}
        _flatten("", item, row)
        flat.append(row)
    keys = sorted({k for row in flat for k in row})
    lines = ["\t".join(keys)]
    for row in flat:
        lines.append("\t".join(str(row.get(k, "")) for k in keys))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Subcommand handlers.  Each returns (exit_code, payload).


def _cmd_lambda1(args):
    fam = core.read_family(args.family)
    result = spectral.lambda1(fam, tol=args.tol)
    record = _spectral_record(result)
    record["n"] = len(fam)
    record["d"] = fam.d
    return EXIT_OK, record


def _cmd_hamming(args):
    if args.k is not None and not args.bounds:
        raise ValueError("--k needs --bounds")
    record: dict = {"d": args.d, "i": args.i}
    if args.constants:
        if not 0 <= args.i <= args.d:
            raise ValueError(f"radius {args.i} out of range 0..{args.d}")
        record["limit_constant"] = spectral.limit_constant(args.i)
        return EXIT_OK, record
    exact = spectral.hamming_lambda1_exact(args.d, args.i)
    record.update(_spectral_record(exact))
    record["level_weights"] = list(exact.level_weights)
    if args.bounds:
        record["level_bound"] = spectral.band_bound(args.i, args.d)
        if 1 <= args.i <= args.d // 2:
            record["upper_bound"] = spectral.hamming_upper_bound(args.d, args.i)
        if args.i >= 2 or args.k is not None:
            k = (spectral.default_walk_depth(args.i) if args.k is None
                 else args.k)
            record["walk_lower_bound"] = spectral.hamming_walk_lower_bound(
                args.d, args.i, k)
            record["walk_depth"] = k
    return EXIT_OK, record


def _cmd_bounds(args):
    fam = core.read_family(args.family)
    if len(fam) == 0:
        raise ValueError("family is empty")
    record = {
        "n": len(fam),
        "d": fam.d,
        "classic": spectral.classic_bounds(fam),
    }
    counts = spectral.count_p2_c4(fam)
    record["walk_counts"] = {
        "edges": counts.edges,
        "p2": counts.p2,
        "c4": counts.c4,
        "c4_bound": counts.c4_bound,
        "edge_bound": counts.edge_bound,
        "bounds_hold": counts.c4_bound_holds and counts.edge_bound_holds,
    }
    if 2 * fam.max_set_size() <= fam.d:
        record["level_bound"] = spectral.level_bound(fam)
    record["walk_trace_k2"] = spectral.walk_trace_bound(fam, 2)
    record["lambda1"] = spectral.lambda1(fam, tol=args.tol).lambda1
    return EXIT_OK, record


def _cmd_compress(args):
    if args.kind == "family":
        obj = core.read_family(getattr(args, "in"))
        result, log = comp.fully_compress(obj)
        payload = {
            "kind": "family",
            "d": obj.d,
            "size": len(result),
            "steps": len(log),
            "compressed": _family_brief(result),
            "output": core.format_family(result),
        }
    else:
        obj = comp.read_vector(getattr(args, "in"))
        result, log = comp.fully_compress(obj)
        payload = {
            "kind": "vector",
            "d": obj.d,
            "support": result.support_size(),
            "steps": len(log),
            "rayleigh_before": comp.rayleigh(obj),
            "rayleigh_after": comp.rayleigh(result),
            "output": comp.format_vector(result),
        }
    if args.log:
        with open(args.log, "w", encoding="utf-8") as fh:
            json.dump([step.to_json() for step in log], fh, indent=2)
            fh.write("\n")
    return EXIT_OK, payload


def _cmd_count_cubes(args):
    if args.family is not None:
        fam = core.read_family(args.family)
        count = subcubes.count_subcubes(fam, args.dprime)
        record = {"source": "family", "n": len(fam), "d": fam.d,
                  "dprime": args.dprime, "count": count.count}
    else:
        count = subcubes.initial_count(args.initial, args.dprime)
        record = {"source": "initial", "n": args.initial,
                  "dprime": args.dprime, "count": count.count}
    if args.bounds:
        record["smooth_bound"] = subcubes.subcube_bound_smooth(
            record["n"], args.dprime)
        record["integer_bound"] = subcubes.subcube_bound_integer(
            record["n"], args.dprime)
    return EXIT_OK, record


def _cmd_search(args):
    if args.oracle and args.d > 4:
        raise ValueError("oracle brute force is limited to d <= 4")
    result = search.max_lambda1(args.n, args.d, tol=args.tol, top_k=args.top,
                                max_families=args.budget)
    record = {
        "n": result.n,
        "d": result.d,
        "best_lambda1": result.best_lambda1,
        "maximizers": [_family_brief(f) for f in result.maximizers],
        "runner_ups": [
            {"lambda1": v, "family": _family_brief(f)}
            for v, f in result.runner_ups
        ],
        "search_space_size": result.search_space_size,
        "restricted": result.restricted,
        "complete": result.complete,
    }
    if args.oracle:
        oracle_value = _oracle_max(args.n, args.d)
        record["oracle_lambda1"] = oracle_value
        record["oracle_agrees"] = abs(oracle_value - result.best_lambda1) <= 1e-8
    if args.out:
        core.write_family(result.maximizer, args.out)
    code = EXIT_OK if result.complete else EXIT_BUDGET
    return code, record


def _oracle_max(n: int, d: int) -> float:
    """Dense-eigensolver brute force over all n-subsets of Q_d (small d)."""
    import itertools

    import numpy as np

    edges = [(u, v) for u in range(1 << d) for v in range(1 << d)
             if u < v and (u ^ v).bit_count() == 1]
    best = 0.0
    for combo in itertools.combinations(range(1 << d), n):
        index = {v: i for i, v in enumerate(combo)}
        mat = np.zeros((n, n))
        for u, v in edges:
            if u in index and v in index:
                mat[index[u], index[v]] = mat[index[v], index[u]] = 1.0
        best = max(best, float(np.linalg.eigvalsh(mat)[-1]))
    return best


def _cmd_partition(args):
    fam = core.read_family(args.family)
    if len(fam) == 0:
        raise ValueError("family is empty")
    if args.preset == "sec51":
        eps = search.epsilon_preset_sqrt(fam.d, len(fam))
    elif args.preset == "sec52":
        eps = search.epsilon_preset_log_ratio(fam.d, args.i, args.alpha)
    elif args.preset == "sec6":
        eps = search.epsilon_preset_fixed_radius(fam.d, args.i)
    else:
        eps = args.epsilon
    cert = search.build_partition(fam, eps)
    record = {
        "d": cert.d,
        "epsilon": cert.epsilon,
        "depth": cert.depth,
        "degenerate": cert.degenerate,
        "caps": list(cert.caps),
        "core_sizes": [len(c) for c in cert.cores],
        "blocks": [sorted(core.vertex_str(v) for v in b) for b in cert.blocks()],
        "star_balls": [
            {"round": k, "center": core.vertex_str(s),
             "members": sorted(core.vertex_str(v) for v in ball)}
            for (k, s), ball in sorted(cert.star_balls.items())
        ],
    }
    if args.verify:
        report = search.verify_partition(cert, fam)
        record["verified"] = report.all_passed
        record["checks"] = [
            {"name": c.name, "passed": c.passed, "witness": c.witness}
            for c in list(report.parts) + list(report.assertions)
        ]
    return EXIT_OK, record


def _cmd_regen_goldens(args):
    written = goldens.regenerate(args.suite, args.outdir)
    return EXIT_OK, {"suite": args.suite, "files": written}


def _cmd_selftest(args):
    rng = random.Random(args.seed)
    checks = []

    vectors = 200
    violations = 0
    for _ in range(vectors):
        vec = comp.WeightVector(
            5, {v: rng.gauss(0, 1) for v in rng.sample(range(32), 12)})
        before = comp.rayleigh(vec)
        after, _ = comp.fully_compress(vec)
        if comp.rayleigh(after) < before - 1e-12:
            violations += 1
    checks.append({"name": "compression_monotone", "violations": violations,
                   "passed": violations == 0})

    mismatch = 0
    for d, i in [(6, 2), (8, 3), (10, 4)]:
        exact = spectral.hamming_lambda1_exact(d, i).lambda1
        power = spectral.lambda1(core.hamming_ball(d, i), tol=1e-9).lambda1
        if abs(exact - power) > 1e-7:
            mismatch += 1
    checks.append({"name": "hamming_solver_agreement", "violations": mismatch,
                   "passed": mismatch == 0})

    bad = 0
    for n in range(1, 33):
        if subcubes.count_subcubes(core.initial_segment(n, 5), 2).count \
                != subcubes.initial_count(n, 2).count:
            bad += 1
    checks.append({"name": "initial_count_recursion", "violations": bad,
                   "passed": bad == 0})

    passed = all(c["passed"] for c in checks)
    return (EXIT_OK if passed else EXIT_PRECONDITION), {
        "seed": args.seed, "passed": passed, "checks": checks}


# ---------------------------------------------------------------------------
# Parser.


@functools.cache   # parsing leaves the parser as it was
def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["json", "tsv"],
                        default=argparse.SUPPRESS)
    common.add_argument("--output", default=argparse.SUPPRESS,
                        help="write the report here instead of stdout")
    parser = argparse.ArgumentParser(
        prog="cubespectra",
        description="Spectral extremal toolkit for induced subgraphs of the hypercube",
        parents=[common],
    )
    subcommands = parser.add_subparsers(dest="command")

    def sub(name, **kwargs):
        return subcommands.add_parser(name, parents=[common], **kwargs)

    p = sub("lambda1", help="largest eigenvalue of a family file")
    p.add_argument("--family", required=True)
    p.add_argument("--tol", type=float, default=spectral.DEFAULT_TOL)

    p = sub("hamming", help="Hamming-ball eigenvalues and bounds")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--i", type=int, required=True)
    kind = p.add_mutually_exclusive_group()
    kind.add_argument("--bounds", action="store_true",
                      help="include the closed-form bounds")
    kind.add_argument("--constants", action="store_true",
                      help="report the large-d limit constant instead")
    p.add_argument("--k", type=int, default=None,
                   help="walk depth for the lower bound")

    p = sub("bounds", help="all bounds for a family file")
    p.add_argument("--family", required=True)
    p.add_argument("--tol", type=float, default=spectral.DEFAULT_TOL)

    p = sub("compress", help="fully compress a family or vector")
    p.add_argument("--in", dest="in", required=True)
    p.add_argument("--kind", choices=["family", "vector"], required=True)
    p.add_argument("--log", help="write the changed-step log to this JSON file")

    p = sub("count-cubes", help="exact subcube counts and bounds")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--family")
    source.add_argument("--initial", type=int)
    p.add_argument("--dprime", type=int, required=True)
    p.add_argument("--bounds", action="store_true")

    p = sub("search", help="extremal search over compressed families")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--tol", type=float, default=spectral.DEFAULT_TOL)
    p.add_argument("--top", type=int, default=3)
    p.add_argument("--oracle", action="store_true",
                   help="cross-check against full brute force (d <= 4)")
    p.add_argument("--budget", type=int, default=None,
                   help="stop after this many families (partial result)")
    p.add_argument("--out", help="write the first maximizer as a family file")

    p = sub("partition", help="heavy-vertex partition certificate")
    p.add_argument("--family", required=True)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--epsilon", type=float)
    source.add_argument("--preset", choices=["sec51", "sec52", "sec6"])
    p.add_argument("--i", type=int, default=1,
                   help="radius parameter for the ratio presets")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--verify", action="store_true")

    p = sub("regen-goldens", help="regenerate a golden table")
    p.add_argument("--suite", required=True, choices=goldens.SUITES)
    p.add_argument("--outdir", default="goldens")

    p = sub("selftest", help="seeded invariant spot-checks")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the randomized checks")
    return parser


_HANDLERS = {
    "lambda1": _cmd_lambda1,
    "hamming": _cmd_hamming,
    "bounds": _cmd_bounds,
    "compress": _cmd_compress,
    "count-cubes": _cmd_count_cubes,
    "search": _cmd_search,
    "partition": _cmd_partition,
    "regen-goldens": _cmd_regen_goldens,
    "selftest": _cmd_selftest,
}


def run(argv=None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and not argv[0].startswith("-") and argv[0] not in _HANDLERS:
        sys.stderr.write(parser.format_usage())
        sys.stderr.write(f"unknown command: {argv[0]}\n")
        return EXIT_USAGE
    args = parser.parse_args(argv)
    if args.command is None:
        sys.stderr.write(parser.format_usage())
        return EXIT_USAGE
    try:
        code, payload = _HANDLERS[args.command](args)
        _emit(payload, args)
    except (ValueError, FileNotFoundError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PRECONDITION
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

"""Golden regression tables.

Each suite writes one deterministic file under the goldens directory;
the test suite regenerates them into a scratch directory and fails on
any diff against the committed copies.
"""

from __future__ import annotations

import json
import os

from . import core, search, spectral


def _write_hamming_table(outdir: str) -> str:
    path = os.path.join(outdir, "hamming_table.tsv")
    lines = ["d\ti\tlambda1"]
    for d in range(4, 21):
        for i in range(0, d // 2 + 1):
            lam = spectral.hamming_lambda1_exact(d, i).lambda1
            lines.append(f"{d}\t{i}\t{lam!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def _write_bounds_table(outdir: str) -> str:
    path = os.path.join(outdir, "bounds_table.tsv")
    cells = [(6, 2), (16, 4)]
    cells += [(d, i) for d in (8, 16, 32, 64) for i in range(1, d // 2 + 1)]
    lines = ["d\ti\twalk_depth\twalk_lower\texact\tupper\tlevel"]
    for d, i in sorted(set(cells)):
        exact = spectral.hamming_lambda1_exact(d, i).lambda1
        upper = spectral.hamming_upper_bound(d, i)
        level = spectral.band_bound(i, d)
        if i >= 2:
            k = spectral.default_walk_depth(i)
            lower = spectral.hamming_walk_lower_bound(d, i, k)
            lines.append(f"{d}\t{i}\t{k}\t{lower!r}\t{exact!r}\t{upper!r}\t{level!r}")
        else:
            lines.append(f"{d}\t{i}\t\t\t{exact!r}\t{upper!r}\t{level!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def _write_search_table(outdir: str) -> str:
    path = os.path.join(outdir, "search_table.tsv")
    lines = ["n\td\tbest_lambda1\tnum_maximizers\twinner\tsearch_space"]
    for n in range(2, 13):
        result = search.max_lambda1(n, 12)
        winner = ";".join(core.vertex_str(v)
                          for v in result.maximizer.sorted_members())
        lines.append(
            f"{n}\t12\t{result.best_lambda1!r}\t{len(result.maximizers)}"
            f"\t{winner}\t{result.search_space_size}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def _partition_cases():
    ball = core.hamming_ball(8, 1)
    q4 = core.initial_segment(16, 4)
    seg = core.initial_segment(12, 5)
    star = core.hamming_ball(5, 1)
    return [
        ("ball_8_1", ball, 0.5),
        ("full_q4", q4, 0.25),
        ("initial_12_q5", seg, search.epsilon_preset_sqrt(5, 12)),
        ("ball_5_1", star, search.epsilon_preset_sqrt(5, 6)),
    ]


def _write_partition_certs(outdir: str) -> str:
    path = os.path.join(outdir, "partition_certs.json")
    records = []
    for name, fam, eps in _partition_cases():
        cert = search.build_partition(fam, eps)
        report = search.verify_partition(cert, fam)
        records.append({
            "case": name,
            "epsilon": eps,
            "depth": cert.depth,
            "degenerate": cert.degenerate,
            "caps": list(cert.caps),
            "core_sizes": [len(c) for c in cert.cores],
            "block_sizes": [len(b) for b in cert.blocks()],
            "num_star_balls": len(cert.star_balls),
            "all_passed": report.all_passed,
            "failures": sorted(c.name for c in report.failures()),
        })
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


_WRITERS = {
    "hamming-table": _write_hamming_table,
    "bounds-table": _write_bounds_table,
    "search-table": _write_search_table,
    "partition-certs": _write_partition_certs,
}


SUITES = tuple(_WRITERS)


def regenerate(suite: str, outdir: str = "goldens") -> list[str]:
    """Regenerate one suite; returns the files written."""
    if suite not in _WRITERS:
        raise ValueError(f"unknown golden suite {suite!r}; "
                         f"choose from {', '.join(SUITES)}")
    os.makedirs(outdir, exist_ok=True)
    return [_WRITERS[suite](outdir)]

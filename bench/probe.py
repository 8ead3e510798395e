"""Set-up probe: import the CLI and make one tiny call down each path.

`warm_up(directory)` runs one tiny call of every command the workloads
use, including `lambda1` on a 65-vertex family, the smallest input that
takes the lazy `scipy.sparse` import.  The worker runs it before it
starts timing; run as a script in a fresh interpreter, it is what the
`setup_s` metric times:

    python3 bench/probe.py <scratch directory>
"""

from __future__ import annotations

import contextlib
import io
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _inputs(directory: str) -> tuple[str, str]:
    from gen import family_text, vector_text

    os.makedirs(directory, exist_ok=True)
    fam = os.path.join(directory, "tiny.fam")
    vec = os.path.join(directory, "tiny.vec")
    with open(fam, "w", encoding="utf-8") as fh:
        fh.write(family_text(7, range(65)))
    with open(vec, "w", encoding="utf-8") as fh:
        fh.write(vector_text(3, {0: 1.0, 3: 2.0, 5: -0.5}))
    return fam, vec


def warm_up(directory: str) -> None:
    from cubespectra import cli

    fam, vec = _inputs(directory)
    calls = [
        ["lambda1", "--family", fam],
        ["bounds", "--family", fam],
        ["hamming", "--d", "6", "--i", "2", "--bounds"],
        ["search", "--n", "4", "--d", "3"],
        ["compress", "--in", fam, "--kind", "family"],
        ["compress", "--in", vec, "--kind", "vector"],
        ["count-cubes", "--family", fam, "--dprime", "2"],
        ["partition", "--family", fam, "--preset", "sec51", "--verify"],
    ]
    for argv in calls:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.run(argv)
        if code != 0:
            raise RuntimeError(f"set-up call {argv} exited {code}")


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(ROOT, "src"))
    warm_up(sys.argv[1])

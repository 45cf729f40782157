"""Pinned values of every CLI subcommand, and the script that regenerates them.

Each config subcommand runs on ``config.example.json`` cut down to
``run.T = 0.2``, 20 replicas and 2 Malliavin paths, at n_cut 4 (the triad
route of B) and at n_cut 6 (the grid route, with ``analysis.basis_level`` 2);
``bracket verify --kmax 1`` and ``reach`` run once.  ``collect`` returns
every data artifact parsed: a JSON artifact as its document, a CSV artifact
as its header and one list per column.  ``tests/test_pinned_values.py``
checks a run against ``tests/data/pinned_values.json``.

Regenerate the file, after a change that is meant to move the numbers, with

    PYTHONPATH=src python tests/pin_values.py
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from torusmhd.cli import main

ROOT = Path(__file__).resolve().parents[1]
PINNED = ROOT / "tests" / "data" / "pinned_values.json"
#: Artifacts compared by their SHA-256 digest alone: their numbers are exact.
BY_DIGEST = ("bracket", "reach")

REDUCED = ["--set", "run.T=0.2", "--set", "analysis.replicas=20", "--set", "analysis.paths=2"]
RUNS = {
    "bracket": ["bracket", "verify", "--kmax", "1"],
    "reach": ["reach", "--z0", "0,1;1,1;1,0;1,2", "--radius", "4", "--certify", "2,1"],
}
for n_cut, extra in ((4, []), (6, ["--set", "analysis.basis_level=2"])):
    for command in ("simulate", "lln", "clt", "mix", "moment", "malliavin"):
        RUNS[f"{command}-n{n_cut}"] = ([command, "--config", str(ROOT / "config.example.json"),
                                        "--set", f"equation.n_cut={n_cut}"] + REDUCED + extra)


def _parse(path: Path):
    text = path.read_text()
    if path.suffix == ".json":
        return json.loads(text)
    header, *rows = list(csv.reader(io.StringIO(text)))
    return {"header": header, "columns": [[float(v) for v in col] for col in zip(*rows)]}


def collect(workdir: Path) -> dict:
    """Run every subcommand into ``workdir``: {run: {artifact: parsed or digest}}."""
    pinned = {}
    for name, argv in RUNS.items():
        out = workdir / name
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv + ["--out", str(out)])
        if code != 0:
            raise RuntimeError(f"{' '.join(argv)} exited {code}")
        pinned[name] = {
            f.name: (hashlib.sha256(f.read_bytes()).hexdigest() if name in BY_DIGEST
                     else _parse(f))
            for f in sorted(out.iterdir()) if f.name != "manifest.json"}
    return pinned


def regenerate() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        pinned = collect(Path(tmp))
    # one line per run, so that a regenerated file diffs run by run
    lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True, allow_nan=False)}"
             for k, v in pinned.items()]
    PINNED.parent.mkdir(exist_ok=True)
    PINNED.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {PINNED} ({len(pinned)} runs)", file=sys.stderr)


if __name__ == "__main__":
    regenerate()

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

and list, before that, every value a run moves past its pin with

    PYTHONPATH=src python tests/pin_values.py --diff
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import numbers
import sys
import tempfile
from pathlib import Path

import numpy as np

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


#: A pinned list of numbers matches within RTOL of its largest magnitude.
RTOL = 1e-12


def _is_number(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def mismatches(got, want, where: str) -> list[str]:
    """Where ``got`` departs from the pinned ``want``, one line each."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or sorted(got) != sorted(want):
            return [f"{where}: keys {sorted(got) if isinstance(got, dict) else got} "
                    f"!= {sorted(want)}"]
        return [m for key in want for m in mismatches(got[key], want[key], f"{where}/{key}")]
    if isinstance(want, list) and want and all(map(_is_number, want)):
        if not (isinstance(got, list) and len(got) == len(want) and all(map(_is_number, got))):
            return [f"{where}: {got!r:.80} is not a list of {len(want)} numbers"]
        a, b = np.array(got, dtype=float), np.array(want, dtype=float)
        err, bound = np.max(np.abs(a - b)), RTOL * np.max(np.abs(b))
        return [] if err <= bound else [f"{where}: off by {err:.3g}, bound {bound:.3g}"]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: {got!r:.80} is not a list of {len(want)} entries"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in mismatches(g, w, f"{where}[{i}]")]
    if _is_number(want):
        return mismatches([got] if _is_number(got) else got, [want], where)
    return [] if got == want and type(got) is type(want) else [f"{where}: {got!r} != {want!r}"]


def regenerate() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        pinned = collect(Path(tmp))
    # one line per run, so that a regenerated file diffs run by run
    lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True, allow_nan=False)}"
             for k, v in pinned.items()]
    PINNED.parent.mkdir(exist_ok=True)
    PINNED.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {PINNED} ({len(pinned)} runs)", file=sys.stderr)


def diff() -> int:
    """Print every mismatch of a fresh run against the pinned file; 1 if any."""
    with tempfile.TemporaryDirectory() as tmp:
        found = mismatches(collect(Path(tmp)), json.loads(PINNED.read_text()), "pinned")
    print("\n".join(found) or "no mismatches")
    return 1 if found else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--diff"]:
        sys.exit(diff())
    if sys.argv[1:]:
        sys.exit(f"usage: {sys.argv[0]} [--diff]")
    regenerate()

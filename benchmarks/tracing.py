"""In-memory spans recorded around the package's public functions.

Spans come from the benchmark's own code: :func:`instrument` replaces a
function at the module attribute its caller looks up (``torusmhd.cli.simulate``
is the name ``cli`` calls, ``torusmhd.diagnostics.simulate`` the one
``diagnostics`` calls) with a wrapper that opens and closes a span, and puts
the original back afterwards.  Nothing under ``src/`` changes.

A span is ``[name, parent, run_id, start, end, attrs]``; ``parent`` is the
index of the enclosing span or -1, ``run_id`` the traced pass.  Self time is
a span's duration minus the durations of its direct children, so the self
times of one pass sum to the duration of its root span.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

NAME, PARENT, RUN, START, END, ATTRS = range(6)

#: The eight package modules; a span's layer is the prefix of its name.
LAYERS = ("lattice", "brackets", "reachability", "galerkin", "malliavin",
          "diagnostics", "config", "cli")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.run_id = 0

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, self.run_id, time.perf_counter(), None, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int, attrs=None) -> None:
        self.spans[index][END] = time.perf_counter()
        self.spans[index][ATTRS] = attrs
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def wrap(self, fn, name: str, attrs_of=None):
        signature = inspect.signature(fn) if attrs_of else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                attrs = None
                if attrs_of:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    attrs = attrs_of(bound.arguments)
                self.close(index, attrs)

        return traced

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, (name, parent, run, start, end, attrs) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "parent": parent, "run": run,
                                     "start": start, "end": end, "attrs": attrs}) + "\n")


def _simulate_attrs(a):
    return {"seed": repr(a["seed"]), "steps": int(round(a["horizon"] / a["params"].dt))}


def _assemble_attrs(a):
    path = a["path"]
    level = a["n_level"] if a["n_level"] is not None else path.basis.n_cut
    ncols = len(path.basis.level_indices(level))
    return {"steps": path.n_steps,
            "levels_bytes": (path.n_steps + 1) * ncols * path.basis.dim * 8}


def targets():
    """(module, attribute, span name, attrs hook) for every traced call site."""
    from torusmhd import brackets, cli, diagnostics, galerkin

    return [
        (cli, "parse_config", "config.parse_config", None),
        (cli, "simulate", "galerkin.simulate", _simulate_attrs),
        (diagnostics, "simulate", "galerkin.simulate", _simulate_attrs),
        (galerkin, "bilinear_transform", "galerkin.bilinear_transform", None),
        (cli, "clt_sample", "diagnostics.clt_sample", None),
        (cli, "mixing_decay_estimate", "diagnostics.mixing_decay_estimate", None),
        (cli, "assemble_malliavin", "malliavin.assemble_malliavin", _assemble_attrs),
        (cli, "cone_infimum", "malliavin.cone_infimum", None),
        (cli, "adjoint_profile", "malliavin.adjoint_profile", None),
        (cli, "verification_sweep", "brackets.verification_sweep", None),
        (brackets, "verify_bracket_identity", "brackets.verify_bracket_identity", None),
        (brackets, "project_onto_mode", "lattice.project_onto_mode", None),
        (cli, "check_hypothesis", "reachability.check_hypothesis", None),
        (cli, "generation_certificate", "reachability.generation_certificate", None),
    ]


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Swap every target for its traced wrapper; restore the originals on exit."""
    saved = []
    try:
        for module, attr, name, attrs_of in targets():
            original = getattr(module, attr, None)
            if original is None:
                print(f"tracing: {module.__name__}.{attr} not found, layer metric reads 0",
                      file=sys.stderr)
                continue
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(original, name, attrs_of))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def summarize(spans: list[list]) -> dict:
    """Per-name call counts, total and self seconds, and per-layer self seconds."""
    dur = [s[END] - s[START] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child[s[PARENT]] += dur[i]
    calls = defaultdict(int)
    total = defaultdict(float)
    self_s = defaultdict(float)
    for i, s in enumerate(spans):
        calls[s[NAME]] += 1
        total[s[NAME]] += dur[i]
        self_s[s[NAME].split(".")[0]] += dur[i] - child[i]
    return {"calls": calls, "total": total, "self": self_s}

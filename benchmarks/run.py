"""Benchmark of the torusmhd CLI: four workloads, end-to-end and per-layer metrics.

Usage, from the root of a source checkout::

    python3 benchmarks/run.py --workload ergodic_ou --seed 1 --seconds 15 --trace 0

The program is imported from ``src/`` of the checkout; nothing needs to be
installed.  The workload seed generates every config, written to a scratch
directory under ``.bench_work/``, and the program only sees those files.
One pass runs the workload's CLI calls (``torusmhd.cli.main``) in this
process with the default ``--workers 1``; passes repeat, each on fresh seeds
drawn from ``(seed, pass index)``, until ``--seconds`` have elapsed.  Every
pass's artifacts are checked against oracles and invariants outside the timed
phase (see ``workloads.py``).

``--trace 0`` prints the end-to-end metrics, measured untraced:

* ``setup_s``     median over fresh processes of the time from process start to
  the first timed call: imports, config parsing, the basis, the lazily built
  transform tables and one warm-up step;
* ``wall_s``      median wall time of one pass;
* ``cpu_s``       median user+system CPU time of one pass (``getrusage``, all
  threads of this process);
* ``throughput``  work units per wall second over all passes: trajectory steps
  (replicas x steps, pilots included) on ergodic_ou and nonlinear_n10,
  Malliavin paths on malliavin_probe, bracket reports on symbolic;
* ``peak_rss_mb`` ``ru_maxrss`` of this process after the timed passes.

``--trace 1`` alternates untraced and traced passes and prints the per-layer
metrics from the spans of the traced ones (see ``tracing.py``), per pass
unless the name says otherwise.  ``galerkin.bilinear_transform.*.n<k>`` come
from a separate kernel probe at n_cut=k on fixed random states, outside the
passes; its ``flops`` and ``bytes`` and ``malliavin.levels_bytes`` are
computed from array shapes, not measured.  ``malliavin.adjoint_step_us`` is
the assembly time divided by the steps swept.  ``trace.overhead_s`` is the
median traced minus the median untraced pass time, and
``trace.unaccounted_s`` is the traced pass time minus the sum of the self
times of all its spans, the benchmark's own (``bench.self_s``) included.

The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``.  A fuller record, with
provenance and per-pass figures, goes to ``.bench_work/results/`` and the
spans of a traced run to ``.bench_work/traces/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
SETUP_PROBES = 3
KERNEL_SIZES = (3, 4, 8, 10, 16)
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def load_program() -> None:
    """Import torusmhd from this checkout's ``src/``, refusing any other copy."""
    src = ROOT / "src"
    if not (src / "torusmhd" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no torusmhd sources under {src}")
    sys.path.insert(0, str(src))
    import torusmhd
    if Path(torusmhd.__file__).resolve().parent != (src / "torusmhd").resolve():
        raise SystemExit(f"benchmark: imported torusmhd from {torusmhd.__file__}, not {src}")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny problem sizes, for the benchmark's self-test")
    p.add_argument("--setup-probe", metavar="DIR", default=None,
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def provenance() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "git_commit": commit,
    }


def setup_time(workload: str, tiny: bool, work: Path) -> float:
    """Process start to first timed call, in a fresh interpreter."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", "0", "--seconds", "0", "--setup-probe", str(work)]
    if tiny:
        argv.append("--tiny")
    started = time.monotonic()
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise SystemExit(f"benchmark: setup probe failed:\n{done.stderr}")
    # CLOCK_MONOTONIC is shared by all processes of the machine
    return float(done.stdout.strip().splitlines()[-1]) - started


def kernel_probe(budget: float) -> dict:
    """Median time per ``bilinear_transform`` call at each n_cut in KERNEL_SIZES."""
    import numpy as np
    from torusmhd.galerkin import ModeBasis, bilinear_transform

    out = {}
    for n in KERNEL_SIZES:
        basis = ModeBasis(n)
        cu, cv = np.random.default_rng(n).standard_normal((2, basis.dim))
        bilinear_transform(basis, cu, cv)  # builds the lazy tables
        times = []
        stop = time.perf_counter() + budget
        while len(times) < 5 or time.perf_counter() < stop:
            t0 = time.perf_counter()
            bilinear_transform(basis, cu, cv)
            times.append(time.perf_counter() - t0)
        flops, nbytes = transform_cost(basis)
        out[n] = (statistics.median(times) * 1e6, flops, nbytes)
    return out


def transform_cost(basis) -> tuple[float, float]:
    """Flops and bytes of one ``bilinear_transform`` call, from array shapes.

    Dense route: three GEMMs of the two slots against the (2 n_k) x (2 + 6 + 2) m^2
    synthesis, gradient and gather tables, which dominate the bytes read.
    FFT route: 20 complex m x m transforms (4 synthesis, 12 gradient, 4 gather)
    at 5 m^2 log2(m^2) flops, each reading and writing its array once.
    Both add the 36 m^2 flops of the four advection contractions.
    """
    m2 = basis.grid**2
    if getattr(basis, "_use_dense", True):
        return 80.0 * basis.n_k * m2 + 36.0 * m2, 8.0 * 2 * basis.n_k * 10 * m2
    return 20 * 5.0 * m2 * math.log2(m2) + 36.0 * m2, 20 * 2 * 16.0 * m2


def measure(wl, seed: int, seconds: float, traced_every: int, work: Path):
    """Run passes until ``seconds`` elapse; every ``traced_every``-th one traced."""
    import numpy as np
    import tracing
    from workloads import artifact_bytes, check, run_op

    tracer = tracing.Tracer()
    passes = []
    started = time.perf_counter()
    min_passes = 2 if traced_every else 3
    i = 0
    while i < min_passes or time.perf_counter() - started < seconds:
        traced = bool(traced_every) and i % traced_every == traced_every - 1
        pdir = work / f"pass{i}"
        pdir.mkdir()
        ops = wl.make_pass(np.random.default_rng([seed, i]), pdir)
        if traced:
            tracer.run_id = i
            with tracing.instrument(tracer):
                cpu0 = cpu_seconds()
                root = tracer.open("bench.pass")
                for op in ops:
                    with tracer.span("cli.main"):
                        run_op(op)
                tracer.close(root)
                cpu1 = cpu_seconds()
            wall = tracer.spans[root][tracing.END] - tracer.spans[root][tracing.START]
        else:
            cpu0, t0 = cpu_seconds(), time.perf_counter()
            for op in ops:
                run_op(op)
            wall, cpu1 = time.perf_counter() - t0, cpu_seconds()
        failures = guarded_check(check, ops)
        passes.append({"index": i, "traced": traced, "wall": wall, "cpu": cpu1 - cpu0,
                       "units": sum(op.units for op in ops), "ops": ops,
                       "artifact_bytes": artifact_bytes(ops), "failures": failures})
        if i > 0:  # the first pass's artifacts stay for the run-level checks
            shutil.rmtree(pdir)
        i += 1
    return passes, tracer


def guarded_check(check, *args) -> dict:
    """A checker that cannot read an artifact counts as a failed check."""
    try:
        return check(*args)
    except Exception as exc:  # missing or malformed artifacts
        return {"check": [f"checker raised {type(exc).__name__}: {exc}"]}


def tally(checks: list[dict]) -> tuple[int, int]:
    """(operations attempted, operations whose output check failed)."""
    outcomes = [bad for c in checks for bad in c.values()]
    return len(outcomes), sum(1 for bad in outcomes if bad)


def end_to_end(passes, setup) -> dict:
    walls = [p["wall"] for p in passes]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(p["cpu"] for p in passes), "s"),
        "throughput": (sum(p["units"] for p in passes) / sum(walls), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(passes, tracer, kernel, failed_fraction) -> dict:
    import tracing

    spans = tracer.spans
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    n = len(traced)
    s = tracing.summarize(spans)
    calls, total = s["calls"], s["total"]

    def per_pass(v):
        return v / n

    def ratio(a, b):
        return a / b if b else 0.0

    def per_call(name):
        return ratio(total[name], calls[name])

    def attrs(name, key):
        return [sp[tracing.ATTRS][key] for sp in spans
                if sp[tracing.NAME] == name and sp[tracing.ATTRS]]

    def extra(key):
        vals = [op.extra[key] for p in traced for op in p["ops"] if key in op.extra]
        return statistics.fmean(vals) if vals else 0.0

    sim = "galerkin.simulate"
    sim_steps = sum(attrs(sim, "steps"))
    seeds_per_run = {}
    for sp in spans:
        if sp[tracing.NAME] == sim:
            seeds_per_run.setdefault(sp[tracing.RUN], set()).add(sp[tracing.ATTRS]["seed"])
    replicas = sum(1 for sp in spans if sp[tracing.NAME] == sim and sp[tracing.PARENT] >= 0
                   and spans[sp[tracing.PARENT]][tracing.NAME].startswith("diagnostics."))
    asm = "malliavin.assemble_malliavin"
    roots = [i for i, sp in enumerate(spans) if sp[tracing.NAME] == "bench.pass"]
    root_total = sum(spans[i][tracing.END] - spans[i][tracing.START] for i in roots)
    self_total = sum(s["self"].values())

    m = {
        "galerkin.simulate.calls": (per_pass(calls[sim]), "count"),
        "galerkin.simulate.s": (per_pass(total[sim]), "s"),
        "galerkin.simulate.step_us": (ratio(total[sim], sim_steps) * 1e6, "us"),
        "galerkin.simulate.useful_ratio": (
            ratio(sum(len(v) for v in seeds_per_run.values()), calls[sim]), "ratio"),
        "galerkin.bilinear_transform.calls": (
            per_pass(calls["galerkin.bilinear_transform"]), "count"),
        "galerkin.bilinear_transform.s": (per_pass(total["galerkin.bilinear_transform"]), "s"),
    }
    for k, (us, flops, nbytes) in kernel.items():
        m[f"galerkin.bilinear_transform.us_per_call.n{k}"] = (us, "us")
        m[f"galerkin.bilinear_transform.flops.n{k}"] = (flops, "flop")
        m[f"galerkin.bilinear_transform.bytes.n{k}"] = (nbytes, "B")
    m.update({
        f"{asm}.s_per_path": (per_call(asm), "s"),
        "malliavin.adjoint_step_us": (ratio(total[asm], sum(attrs(asm, "steps"))) * 1e6, "us"),
        "malliavin.levels_bytes": (float(max(attrs(asm, "levels_bytes"), default=0)), "B"),
        "malliavin.cone_infimum.s_per_path": (per_call("malliavin.cone_infimum"), "s"),
        "malliavin.adjoint_profile.s": (per_pass(total["malliavin.adjoint_profile"]), "s"),
        "diagnostics.clt_sample.s": (per_pass(total["diagnostics.clt_sample"]), "s"),
        "diagnostics.mixing_decay_estimate.s": (
            per_pass(total["diagnostics.mixing_decay_estimate"]), "s"),
        "diagnostics.replicas": (per_pass(replicas), "count"),
        "cli.artifact_bytes": (statistics.fmean(p["artifact_bytes"] for p in traced), "B"),
        "config.parse_config.s": (per_pass(total["config.parse_config"]), "s"),
        "brackets.verify_bracket_identity.us_per_call": (
            per_call("brackets.verify_bracket_identity") * 1e6, "us"),
        "brackets.degenerate_ratio": (extra("degenerate_ratio"), "ratio"),
        "brackets.selection_ok_ratio": (extra("selection_ok_ratio"), "ratio"),
        "lattice.project_onto_mode.calls": (per_pass(calls["lattice.project_onto_mode"]), "count"),
        "lattice.project_onto_mode.us_per_call": (
            per_call("lattice.project_onto_mode") * 1e6, "us"),
        "reachability.check_hypothesis.s": (
            per_pass(total["reachability.check_hypothesis"]), "s"),
        "reachability.depth_used": (extra("depth_used"), "count"),
        "reachability.generation_certificate.us_per_call": (
            per_call("reachability.generation_certificate") * 1e6, "us"),
    })
    for layer in tracing.LAYERS + ("bench",):
        m[f"{layer}.self_s"] = (per_pass(s["self"][layer]), "s")
    traced_wall = statistics.median(p["wall"] for p in traced)
    m.update({
        "trace.wall_s": (traced_wall, "s"),
        "trace.overhead_s": (traced_wall - statistics.median(p["wall"] for p in untraced), "s"),
        "trace.unaccounted_s": (per_pass(root_total - self_total), "s"),
        "failed_fraction": (failed_fraction, "ratio"),
    })
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    load_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"benchmark: unknown workload {args.workload!r}; "
                         f"choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload](tiny=args.tiny)
    if args.setup_probe is not None:
        with tempfile.TemporaryDirectory(dir=args.setup_probe) as tmp:
            wl.warm_up(Path(tmp))
        print(time.monotonic())
        return 0

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK))
    try:
        setup = [] if args.trace else [setup_time(wl.name, args.tiny, work)
                                       for _ in range(SETUP_PROBES)]
        wl.warm_up(work)
        passes, tracer = measure(wl, args.seed, args.seconds, 2 if args.trace else 0, work)
        e2e = end_to_end(passes, setup) if not args.trace else None
        kernel = kernel_probe(0.02 if args.tiny else 0.15) if args.trace else None
        checks = [p["failures"] for p in passes]
        checks.append(guarded_check(wl.check_run, [p["ops"] for p in passes]))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = tally(checks)
    for c in checks:
        for bad in c.values():
            for line in bad:
                print(f"check failed: {line}", file=sys.stderr)
    failed_fraction = failed / attempted
    metrics = e2e if not args.trace else per_layer(passes, tracer, kernel, failed_fraction)

    record = {
        "workload": wl.name, "throughput_unit": wl.unit, "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "provenance": provenance(),
        "setup_s": setup,
        "passes": [{k: p[k] for k in ("index", "traced", "wall", "cpu", "units",
                                      "artifact_bytes", "failures")} for p in passes],
        "run_checks": checks[-1],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if args.trace:
        tracer.write(WORK / "traces" / f"{tag}.jsonl.gz")
    print(json.dumps({"workload": wl.name, "seed": args.seed,
                      "provenance": record["provenance"]}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

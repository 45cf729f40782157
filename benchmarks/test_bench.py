"""Self-test of the benchmark: ``python3 -m pytest benchmarks/test_bench.py``.

Runs every workload at tiny size, untraced and traced, and checks that each
metric BENCHMARK.json names is printed with its unit; feeds each checker a
perturbed artifact and checks that the failed fraction rises; and checks that
the benchmark refuses to run where the program's sources are missing.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.load_program()

from workloads import WORKLOADS, check, run_op  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["paths"] == [HERE.name]


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_its_unit(workload, trace):
    done = _bench(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert math.isfinite(got["value"]), m["name"]
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        # the spans' self times plus the benchmark's own sum to the traced wall time
        assert abs(metrics["trace.unaccounted_s"]) <= 1e-9 * max(metrics["trace.wall_s"], 1.0)
        assert metrics["trace.wall_s"] > 0 and metrics["bench.self_s"] > 0
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _edit_json(path: Path, edit) -> None:
    doc = json.loads(path.read_text(encoding="utf-8"))
    edit(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")


def _edit_csv_row(path: Path, row: int, col: int, value: str) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    cells = lines[row].split(",")
    cells[col] = value
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _skew_first_constant(doc):
    report = next(r for r in doc["reports"] if math.isfinite(r["pinned_constant"]))
    report["pinned_constant"] *= 1.001


def _set(key, fn):
    def edit(doc):
        doc[key] = fn(doc[key])
    return edit


#: (op, artifact, perturbation) per checker; each perturbation must be caught.
PERTURBATIONS = {
    "ergodic_ou": [
        ("clt", "clt_report.json", lambda p: _edit_json(p, _set("m_hat", lambda v: v + 1.0))),
        ("clt", "clt_samples.csv", lambda p: _edit_csv_row(p, 1, 1, "nan")),
        ("mix", "mix_report.json",
         lambda p: _edit_json(p, _set("gamma_hat", lambda v: 2.0 * v))),
        ("mix", "mix_decay.csv", lambda p: _edit_csv_row(p, 3, 1, "2.5")),
    ],
    "nonlinear_n10": [
        ("simulate", "trajectory.csv", lambda p: _edit_csv_row(p, 2, 5, "inf")),
        ("simulate", "run_summary.json",
         lambda p: _edit_json(p, _set("final_energy", lambda v: 1.01 * v + 1e-3))),
    ],
    "malliavin_probe": [
        ("malliavin", "malliavin_report.json", lambda p: _edit_json(
            p, lambda d: d["per_path"][0].update(dual_lower_bound=1.0 + d["per_path"][0]
                                                 ["sampled_inf"]))),
        ("malliavin", "malliavin_report.json", lambda p: _edit_json(
            p, lambda d: d["eigenvalues"][1].__setitem__(0, -1.0))),
    ],
    "symbolic": [
        ("bracket", "bracket_verify.json", lambda p: _edit_json(
            p, lambda d: d["reports"][0].update(selection_ok=False))),
        ("bracket", "bracket_verify.json", lambda p: _edit_json(p, _skew_first_constant)),
        ("reach", "reach_report.json", lambda p: _edit_json(
            p, lambda d: d["certificates"][0]["chain"].append([0, 1]))),
        ("reach", "reach_report.json", lambda p: _edit_json(
            p, lambda d: d["report"].update(odd_covered=False))),
    ],
}


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_perturbed_outputs_raise_failed_fraction(workload, tmp_path):
    wl = WORKLOADS[workload](tiny=True)
    ops = wl.make_pass(np.random.default_rng(5), tmp_path)
    for op in ops:
        run_op(op)
    attempted, failed = run.tally([check(ops)])
    assert failed == 0 and attempted == len(ops)
    cases = PERTURBATIONS[workload]
    assert {name for name, _, _ in cases} == {op.name for op in ops}
    for name, artifact, perturb in cases:
        op = next(op for op in ops if op.name == name)
        saved = (op.out / artifact).read_bytes()
        perturb(op.out / artifact)
        attempted, failed = run.tally([check(ops)])
        assert failed / attempted > 0, (name, artifact)
        (op.out / artifact).write_bytes(saved)


def test_refuses_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench(tmp_path, next(iter(WORKLOADS)), 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout

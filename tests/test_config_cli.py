"""Configuration validation and end-to-end CLI artifact checks."""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from torusmhd import cli, config, malliavin
from torusmhd.cli import main
from torusmhd.config import (
    ConfigError,
    example_hypoelliptic_config,
    parse_config,
    validate_config,
)
from torusmhd.diagnostics import PATH_STREAM, PILOT_STREAM, Observable
from torusmhd.galerkin import ModeBasis, NoiseSpec, SpectralState, trajectory_seed
from torusmhd.lattice import COS, MAGNETIC, SIN, make_mode


def write_config(tmp_path: Path, doc: dict, name: str = "cfg.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def small_config(seed=5, n_cut=3, horizon=0.05):
    doc = example_hypoelliptic_config(seed=seed)
    doc["equation"]["n_cut"] = n_cut
    doc["run"]["T"] = horizon
    return doc


class TestValidation:
    def test_minimal_valid_roundtrip(self, tmp_path):
        doc = small_config()
        cfg = parse_config(write_config(tmp_path, doc))
        assert cfg.equation.alpha == 1.5
        assert cfg.noise.dim == 8
        assert cfg.run.seed == 5
        assert cfg.raw == doc

    def test_four_mode_default_config_parses_unmodified(self, tmp_path):
        # alpha = beta = 1.5, n_cut = 4, dt = 1e-3, the four forced modes
        # with unit amplitudes
        doc = example_hypoelliptic_config(seed=1)
        cfg = parse_config(write_config(tmp_path, doc))
        assert cfg.equation.n_cut == 4
        assert cfg.equation.dt == 1e-3
        assert cfg.noise.e0() == 8.0
        assert sorted({e.k for e in cfg.noise.entries}) == [(0, 1), (1, 0), (1, 1), (1, 2)]

    def test_alpha_at_most_one_rejected(self, tmp_path):
        doc = small_config()
        doc["equation"]["alpha"] = 0.9
        with pytest.raises(ConfigError, match="alpha must exceed 1"):
            parse_config(write_config(tmp_path, doc))

    def test_zero_amplitude_rejected(self):
        doc = small_config()
        doc["noise"]["z0"][0]["amplitudes"] = [0.0, 1.0]
        with pytest.raises(ConfigError, match="non-zero"):
            validate_config(doc)

    def test_unknown_key_rejected(self):
        doc = small_config()
        doc["equation"]["alpah"] = 2.0
        with pytest.raises(ConfigError, match="unknown key 'alpah'"):
            validate_config(doc)

    def test_squared_amplitudes_summing_past_the_float_range_rejected(self):
        # each square is finite, their sum is not: E_0 would be infinite
        doc = small_config()
        doc["noise"]["z0"] = [{"k": [0, 1], "amplitudes": [1e154, 1e154]}]
        with pytest.raises(ConfigError, match="noise.z0: the sum of squared amplitudes"):
            validate_config(doc)
        doc["noise"]["z0"][0]["amplitudes"] = [1e153, 1e153]
        assert validate_config(doc).noise.e0() == pytest.approx(2e306)

    def test_empty_analysis_yields_the_defaults(self):
        doc = small_config()
        doc["analysis"] = {}
        analysis = validate_config(doc).analysis
        assert (analysis.paths, analysis.cone_n, analysis.cone_samples) == (1, 1, 200)
        assert (analysis.basis_level, analysis.replicas, analysis.pilot_horizon) == (None,) * 3
        for value, default in ((analysis.cone_alpha, 0.5), (analysis.eta, 0.01),
                               (analysis.burn_in, 0.0)):
            assert type(value) is float and value == default
        assert analysis.observable is None and analysis.track_modes is None
        assert analysis.initial_state == analysis.u0_a == analysis.u0_b == ()
        assert analysis.profile_modes == ()

    def test_values_are_typed_once(self):
        doc = small_config()
        doc["analysis"] = {"cone_alpha": 1, "eta": 1, "burn_in": 0, "track_modes": [],
                           "u0_b": [{"k": [0, 1], "amplitude": 3}],
                           "observable": {"k": [1, 0], "parity": 1, "scale": 2}}
        analysis = validate_config(doc).analysis
        assert [type(v) for v in (analysis.cone_alpha, analysis.eta, analysis.burn_in)] == \
            [float] * 3
        assert analysis.track_modes == ()
        ((mode, amplitude),) = analysis.u0_b
        assert mode == make_mode(MAGNETIC, (0, 1), COS) and type(amplitude) is float
        assert analysis.observable == Observable("mode_coefficient",
                                                 make_mode(MAGNETIC, (1, 0), SIN), 2.0)

    def test_every_schema_key_has_malformed_values(self):
        # a key added to a table must also join the property test below
        keys = {f"{section}.{key}" for section, table in config.SECTIONS.items()
                for key in table}
        assert keys <= set(MALFORMED), keys - set(MALFORMED)

    def test_infinite_amplitude_square_is_inf(self):
        noise = NoiseSpec.from_amplitudes({(0, 1): (1e200, 1.0)})
        assert noise.e0() == math.inf

    def test_missing_seed_rejected(self):
        doc = small_config()
        del doc["run"]["seed"]
        with pytest.raises(ConfigError, match="seed"):
            validate_config(doc)

    def test_forced_mode_outside_truncation_rejected(self):
        doc = small_config(n_cut=2)  # (1,2) has |k| = sqrt5 > 2
        with pytest.raises(ConfigError, match="outside truncation"):
            validate_config(doc)

    def test_all_violations_reported_at_once(self):
        doc = small_config()
        doc["equation"]["alpha"] = 0.5
        doc["equation"]["beta"] = 1.0
        del doc["run"]["seed"]
        try:
            validate_config(doc)
        except ConfigError as exc:
            assert len(exc.violations) == 3
        else:
            pytest.fail("expected ConfigError")

    @pytest.mark.parametrize("section, key", [
        ("equation", "n_cut"), ("equation", "grid"), ("run", "seed"),
        ("run", "snapshot_stride"), ("run", "ensemble_size"), ("run", "workers")])
    def test_bool_rejected_for_integer_fields(self, section, key):
        doc = small_config()
        doc[section][key] = True
        with pytest.raises(ConfigError, match=f"{section}.{key}"):
            validate_config(doc)


class TestCli:
    def test_reach_example_forcing(self, tmp_path, capsys):
        out = tmp_path / "reach"
        code = main(["reach", "--z0", "0,1;1,1;1,0;1,2", "--radius", "10",
                     "--out", str(out)])
        assert code == 0
        report = json.loads((out / "reach_report.json").read_text())["report"]
        assert report["even_covered"] and report["odd_covered"]

    def test_simulate_deterministic_artifacts(self, tmp_path):
        cfg = write_config(tmp_path, small_config())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "trajectory.csv").read_bytes() == \
            (out2 / "trajectory.csv").read_bytes()
        assert (out1 / "run_summary.json").read_bytes() == \
            (out2 / "run_summary.json").read_bytes()

    def test_different_seed_changes_output(self, tmp_path):
        cfg = write_config(tmp_path, small_config())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", cfg, "--out", str(out1)])
        main(["simulate", "--config", cfg, "--out", str(out2), "--seed", "99"])
        assert (out1 / "trajectory.csv").read_bytes() != \
            (out2 / "trajectory.csv").read_bytes()

    @pytest.mark.parametrize("command", [
        "simulate", "malliavin", "lln", "clt", "mix", "moment", "bracket", "reach"])
    def test_manifest_lists_all_artifacts_with_digests(self, tmp_path, command):
        import hashlib
        doc = small_config(horizon=0.02)
        doc["run"]["ensemble_size"] = 2
        doc["analysis"] = {
            "observable": {"kind": "total_energy"}, "replicas": 2, "pilot_horizon": 0.02,
            "u0_b": [{"k": [0, 1], "amplitude": 1.0}], "paths": 1, "cone_samples": 5,
            "profile_modes": [{"k": [0, 1]}]}
        out = tmp_path / "m"
        argv = {"bracket": ["bracket", "verify", "--kmax", "1"],
                "reach": ["reach", "--z0", "0,1;1,1;1,0;1,2", "--radius", "3",
                          "--certify", "2,1"]}.get(
            command, [command, "--config", write_config(tmp_path, doc)])
        assert main(argv + ["--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        files = {p.name for p in out.iterdir()} - {"manifest.json"}
        assert set(manifest["artifacts"]) == files
        for name, digest in manifest["artifacts"].items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest
        assert manifest["started_at"] <= manifest["finished_at"]
        if command not in ("bracket", "reach"):
            assert manifest["config"]["run"]["seed"] == 5

    def test_invalid_config_exit_code(self, tmp_path, capsys):
        doc = small_config()
        doc["equation"]["alpha"] = 0.5
        cfg = write_config(tmp_path, doc)
        code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "x")])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert any("alpha" in v for v in err["violations"])

    @pytest.mark.parametrize("kind", ["missing", "directory", "not_utf8"])
    def test_unreadable_config_is_a_config_error(self, tmp_path, capsys, kind):
        path = {"missing": tmp_path / "absent.json", "directory": tmp_path,
                "not_utf8": tmp_path / "latin1.json"}[kind]
        (tmp_path / "latin1.json").write_bytes(b'{"equation": "\xe9"}')
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert len(err["violations"]) == 1 and err["violations"][0].startswith("--config")
        assert not out.exists()

    def test_json_artifact_layout(self, tmp_path):
        # one line per top-level key and per object of a top-level list;
        # everything else compact, NaN kept as a token
        payload = {"rows": [{"b": 1, "a": [1.5, None]}, {"c": {"d": True}}],
                   "nested": {"y": {"z": "s"}, "x": []}, "empty_list": [],
                   "empty_dict": {}, "value": float("nan")}
        out = cli.OutputDir(str(tmp_path / "out"))
        out.write_json("doc.json", payload)
        text = (tmp_path / "out" / "doc.json").read_text()
        doc = json.loads(text)
        assert math.isnan(doc.pop("value"))
        assert doc == {k: v for k, v in payload.items() if k != "value"}
        assert text.endswith("}\n")
        lines = text.splitlines()
        assert lines[0] == "{" and lines[-1] == "}"
        for key in payload:
            assert sum(line.startswith(f'"{key}": ') for line in lines) == 1
        assert '{"a": [1.5, null], "b": 1},' in lines
        assert '{"c": {"d": true}}' in lines
        assert '"value": NaN' in lines

    def test_bracket_verify_cli(self, tmp_path, capsys):
        out = tmp_path / "bracket"
        code = main(["bracket", "verify", "--kmax", "1", "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "bracket_verify.json").read_text())
        assert payload["summary"]["all_selection_ok"]
        assert payload["summary"]["abs_constant_spread"] < 1e-10

    @pytest.mark.parametrize("kmax", ["0", "-2"])
    def test_bracket_verify_rejects_empty_sweep(self, tmp_path, capsys, kmax):
        out = tmp_path / "bracket"
        assert main(["bracket", "verify", "--kmax", kmax, "--out", str(out)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert any("--kmax" in v for v in err["violations"])
        assert not out.exists()

    @pytest.mark.parametrize("args, flag", [
        (["--z0", "0,0"], "--z0"),
        (["--z0", "0,1;x"], "--z0"),
        (["--z0", "1073741824,1"], "--z0"),
        (["--certify=0,0"], "--certify"),
        (["--radius", "0"], "--radius"),
        (["--max-depth", "0"], "--max-depth"),
        (["--certify=3000000000,0"], "--certify"),
    ])
    def test_reach_malformed_input_is_a_config_error(self, tmp_path, capsys, args, flag):
        out = tmp_path / "reach"
        argv = ["reach", "--z0", "0,1;1,1", "--radius", "3", "--out", str(out)] + args
        assert main(argv) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert len(err["violations"]) == 1 and err["violations"][0].startswith(flag)
        assert not out.exists()

    def test_lln_worker_invariance(self, tmp_path):
        doc = small_config(horizon=0.2)
        doc["equation"]["nonlinearity_enabled"] = False
        doc["analysis"] = {"observable": {"kind": "mode_coefficient",
                                          "slot": "magnetic", "k": [0, 1],
                                          "parity": 0}}
        cfg = write_config(tmp_path, doc)
        outs = []
        for workers, name in ((1, "w1"), (3, "w3")):
            out = tmp_path / name
            assert main(["lln", "--config", cfg, "--out", str(out),
                         "--workers", str(workers)]) == 0
            outs.append((out / "lln_report.json").read_bytes())
        assert outs[0] == outs[1]

    def test_clt_subcommand(self, tmp_path):
        doc = small_config(horizon=1.0)
        doc["equation"]["nonlinearity_enabled"] = False
        doc["equation"]["dt"] = 0.01
        doc["analysis"] = {
            "observable": {"kind": "mode_coefficient", "slot": "magnetic",
                           "k": [0, 1], "parity": 0},
            "replicas": 8, "pilot_horizon": 2.0,
        }
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "clt"
        assert main(["clt", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "clt_report.json").read_text())
        assert "ks_pvalue" in report
        rows = (out / "clt_samples.csv").read_text().strip().splitlines()
        assert len(rows) == 9  # header + replicas

    def test_mix_subcommand(self, tmp_path):
        doc = small_config(horizon=0.5)
        doc["equation"]["nonlinearity_enabled"] = False
        doc["equation"]["dt"] = 0.01
        doc["analysis"] = {
            "observable": {"kind": "mode_coefficient", "slot": "magnetic",
                           "k": [0, 1], "parity": 0},
            "u0_a": [],
            "u0_b": [{"slot": "magnetic", "k": [0, 1], "parity": 0,
                      "amplitude": 3.0}],
            "replicas": 30,
        }
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "mix"
        assert main(["mix", "--config", cfg, "--out", str(out),
                     "--set", "run.snapshot_stride=5"]) == 0
        report = json.loads((out / "mix_report.json").read_text())
        assert "gamma_hat" in report and "identifiable" in report
        assert (out / "mix_decay.csv").exists()

    def test_mix_requires_distinct_states(self, tmp_path, capsys):
        doc = small_config(horizon=0.05)
        doc["analysis"] = {
            "observable": {"kind": "mode_coefficient", "slot": "magnetic",
                           "k": [0, 1], "parity": 0},
            "u0_a": [], "u0_b": [],
            "replicas": 4,
        }
        cfg = write_config(tmp_path, doc)
        code = main(["mix", "--config", cfg, "--out", str(tmp_path / "mix")])
        assert code == 2

    @pytest.mark.parametrize("command", ["lln", "clt", "mix"])
    def test_missing_observable_is_a_config_error(self, tmp_path, capsys, command):
        doc = small_config()
        doc["analysis"] = {"u0_b": [{"k": [0, 1], "amplitude": 1.0}]}
        out = tmp_path / "out"
        assert main([command, "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
        assert json.loads(capsys.readouterr().err)["violations"] == [
            "analysis.observable is required by this subcommand"]
        assert not out.exists()

    def test_moment_subcommand(self, tmp_path):
        doc = small_config(horizon=0.05)
        doc["run"]["ensemble_size"] = 2
        doc["analysis"] = {"eta": 0.05}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "mom"
        assert main(["moment", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "moment_report.json").read_text())
        assert report["eta"] == 0.05
        assert (out / "moment_series.csv").exists()

    def test_moment_overflow_is_a_runtime_error(self, tmp_path, capsys):
        # exp(eta ||U||^2) overflows the float range: no Infinity is written
        example = Path(__file__).resolve().parents[1] / "config.example.json"
        out = tmp_path / "mom"
        code = main(["moment", "--config", str(example), "--out", str(out),
                     "--set", "analysis.eta=1e300", "--set", "run.T=0.01"])
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert (err["error"], err["type"]) == ("runtime", "RuntimeError")
        assert "ensemble mean" in err["message"]
        assert not out.exists()

    def test_malliavin_subcommand(self, tmp_path):
        doc = small_config(horizon=0.02)
        doc["analysis"] = {"cone_alpha": 0.5, "cone_n": 1, "paths": 1,
                           "cone_samples": 20,
                           "profile_modes": [{"slot": "magnetic", "k": [0, 1],
                                              "parity": 0}]}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "mal"
        assert main(["malliavin", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "malliavin_report.json").read_text())
        entry = report["per_path"][0]
        assert entry["dual_lower_bound"] <= entry["sampled_inf"] + 1e-12
        assert (out / "response_profiles.csv").exists()

    def test_malliavin_draws_each_path_stream_once(self, tmp_path, monkeypatch):
        real, seeds = malliavin.ensemble, []
        monkeypatch.setattr(malliavin, "ensemble", lambda *a, **kw: seeds.extend(
            trajectory_seed(a[4], i) for i in a[5]) or real(*a, **kw))
        # two 21-snapshot records fit in a group of paths: the third runs in a second one
        monkeypatch.setattr(malliavin, "PATH_GROUP_BYTES", 2 * 21 * ModeBasis(3).dim * 8)
        doc = small_config(horizon=0.02)
        doc["analysis"] = {"paths": 3, "cone_samples": 5,
                           "profile_modes": [{"slot": "magnetic", "k": [0, 1]}]}
        out = tmp_path / "mal"
        assert main(["malliavin", "--config", write_config(tmp_path, doc),
                     "--out", str(out)]) == 0
        assert seeds == [(5, 0), (5, 1), (5, 2)]
        assert (out / "response_profiles.csv").exists()

    def test_malliavin_blowup_names_the_path(self, tmp_path, capsys):
        doc = small_config(horizon=5.0)
        doc["equation"]["dt"] = 1.0
        doc["analysis"] = {"paths": 2, "initial_state": [
            {"slot": "velocity", "k": [0, 1], "amplitude": 1e200},
            {"slot": "velocity", "k": [1, 0], "amplitude": 1e200}]}
        with np.errstate(all="ignore"):
            code = main(["malliavin", "--config", write_config(tmp_path, doc),
                         "--out", str(tmp_path / "mal")])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "blowup"
        # both paths overflow in step 1; the report names the first, stream 0
        assert (err["step"], err["replica"]) == (1, 0)
        assert not (tmp_path / "mal").exists()

    @pytest.mark.parametrize("edit, exit_code", [
        ({}, 0),
        ({"paths": -1}, 2),
        ({"initial_state": [{"slot": "velocity", "k": [0, 1], "amplitude": 1e200},
                            {"slot": "velocity", "k": [1, 0], "amplitude": 1e200}]}, 3),
    ])
    def test_malliavin_puts_the_blas_threads_back(self, tmp_path, capsys, edit, exit_code,
                                                  two_blas_threads):
        doc = small_config(horizon=0.02)
        doc["equation"]["dt"] = 0.01
        doc["analysis"] = {"paths": 2, "cone_samples": 5, **edit}
        with np.errstate(all="ignore"):
            code = main(["malliavin", "--config", write_config(tmp_path, doc),
                         "--out", str(tmp_path / "mal")])
        assert code == exit_code
        assert all(get() == 2 for get, _ in two_blas_threads)

    @pytest.mark.parametrize("command", ["simulate", "lln"])
    def test_single_path_is_not_stream_zero(self, tmp_path, monkeypatch, command):
        # ``simulate(seed=s)`` draws the path of stream (s, 0), which is replica 0
        # of ``clt`` and ``moment`` and Malliavin path 0; the one path of
        # ``simulate`` and ``lln`` comes from its own reserved stream
        real, records = cli.simulate, []
        monkeypatch.setattr(cli, "simulate",
                            lambda *a, **kw: records.append(real(*a, **kw)) or records[-1])
        doc = small_config(horizon=0.02)
        doc["analysis"] = {"observable": {"kind": "total_energy"}}
        cfg = write_config(tmp_path, doc)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        (rec,) = records
        assert rec.seed == trajectory_seed(5, PATH_STREAM)
        assert PATH_STREAM not in (0, PILOT_STREAM)
        state0 = SpectralState(rec.basis, rec.states[0])
        stream0 = real(state0, rec.params, rec.noise, 0.02, trajectory_seed(5, 0),
                       snapshot_stride=rec.snapshot_stride)
        assert not np.array_equal(rec.states[-1], stream0.states[-1])

    def test_override_into_list_is_a_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, small_config())
        code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "x"),
                     "--set", "noise.z0.0.k=[0,2]"])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert any("noise.z0.0.k" in v for v in err["violations"])

    def test_blowup_exit_names_step_and_replica(self, tmp_path, capsys):
        doc = small_config(horizon=5.0)
        doc["equation"]["dt"] = 1.0
        doc["analysis"] = {
            "observable": {"kind": "total_energy"}, "replicas": 4,
            "initial_state": [{"slot": "velocity", "k": [0, 1], "amplitude": 1e200},
                              {"slot": "velocity", "k": [1, 0], "amplitude": 1e200}]}
        with np.errstate(all="ignore"):
            code = main(["clt", "--config", write_config(tmp_path, doc),
                         "--out", str(tmp_path / "clt")])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "blowup"
        # the centering pilot runs first and blows up in its first step
        assert (err["time"], err["step"], err["replica"]) == (1.0, 1, PILOT_STREAM)
        assert err["last_finite_norm"] == pytest.approx(1e200 * 2**0.5)
        assert not (tmp_path / "clt").exists()

    def test_stdout_reports_are_strict_json(self, tmp_path, capsys):
        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        assert main(["bracket", "verify", "--kmax", "1", "--out", str(tmp_path / "b")]) == 0
        summary = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert summary["all_selection_ok"]
        assert main(["reach", "--z0", "0,1;1,1;1,0;1,2", "--radius", "4",
                     "--out", str(tmp_path / "r")]) == 0
        report = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert report == json.loads((tmp_path / "r" / "reach_report.json").read_text())["report"]

    def test_blowup_report_is_strict_json(self, tmp_path, capsys):
        # the last finite state's norm overflows: it is reported as null
        doc = small_config()
        doc["analysis"] = {"initial_state": [
            {"slot": "velocity", "k": k, "amplitude": 1.5e308} for k in ([0, 1], [1, 0], [1, 1])]}
        with np.errstate(all="ignore"):
            code = main(["simulate", "--config", write_config(tmp_path, doc),
                         "--out", str(tmp_path / "sim")])
        assert code == 3

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        err = json.loads(capsys.readouterr().err, parse_constant=reject)
        assert err["error"] == "blowup" and err["step"] == 1
        assert err["last_finite_norm"] is None

    def test_override_flag(self, tmp_path):
        cfg = write_config(tmp_path, small_config())
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg, "--out", str(out),
                     "--set", "run.T=0.02"]) == 0
        summary = json.loads((out / "run_summary.json").read_text())
        assert summary["final_time"] == pytest.approx(0.02)


NON_FINITE = [math.nan, math.inf, -math.inf]
WRONG_TYPE = ["two", [1], {"a": 1}, True, None]

#: Values that break each field whatever else is broken with it.
MALFORMED = {
    "equation.alpha": NON_FINITE + WRONG_TYPE + [0.5, -2, 10**400],
    "equation.beta": NON_FINITE + WRONG_TYPE + [1.0],
    "equation.dt": NON_FINITE + WRONG_TYPE + [0, -1e-3],
    "equation.n_cut": NON_FINITE + WRONG_TYPE + [0, -3, 2.5],
    "equation.grid": NON_FINITE + ["two", [1], True, 7, 12.0],
    "equation.nonlinearity_enabled": [math.nan, "yes", 1, None, [True]],
    "run.T": NON_FINITE + WRONG_TYPE + [0, -1, 10**400],
    "run.seed": NON_FINITE + WRONG_TYPE + [-3, 2.5, 2**32],
    "run.snapshot_stride": NON_FINITE + WRONG_TYPE + [0, 1.5],
    "run.ensemble_size": NON_FINITE + WRONG_TYPE + [0, -1],
    "run.workers": NON_FINITE + WRONG_TYPE + [0],
    "analysis.paths": NON_FINITE + WRONG_TYPE + [-1, 1.5],
    "analysis.eta": NON_FINITE + WRONG_TYPE + [0, -0.5],
    "analysis.replicas": NON_FINITE + WRONG_TYPE + [1, 2.5],
    "analysis.burn_in": NON_FINITE + WRONG_TYPE + [-1.0],
    "analysis.pilot_horizon": NON_FINITE + WRONG_TYPE[:4] + [0, -2.0],
    "analysis.observable": ["x", None, [1], {"kind": "entropy"}, {"slot": "x", "k": [0, 1]},
                            {"k": [0, -1]}, {"k": [0, 1], "scale": "big"},
                            {"k": [0, 1], "parity": 2}, {}],
    "analysis.initial_state": ["x", {"k": [0, 1]}, [None], [{"slot": "x", "k": [0, 1]}],
                               [{"k": [0, 0]}], [{"k": [0, 1], "amplitude": "big"}],
                               [{"k": [0, 1], "amp": 1.0}]],
    "analysis.track_modes": ["x", [None], [{"k": [0, 0]}], [{"k": [0, 1], "amplitude": 1.0}]],
    "analysis.u0_a": [1, [{"k": [-1, 0]}], [{"k": [0, 1], "amplitude": [1.0]}]],
    "analysis.u0_b": [{"k": [0, 1]}, [{"k": [1, 1], "parity": True}]],
    "analysis.cone_alpha": NON_FINITE + WRONG_TYPE[:4] + [0, -0.5, 2],
    "analysis.cone_n": NON_FINITE + WRONG_TYPE[:4] + [0, 1.5],
    "analysis.cone_samples": NON_FINITE + WRONG_TYPE[:4] + [-5, 2.5],
    "analysis.basis_level": NON_FINITE + WRONG_TYPE[:4] + [0, -1],
    "analysis.profile_modes": ["x", {"k": [0, 1]}, [None], [{"slot": "x", "k": [0, 1]}],
                               [{"k": [0, -1]}], [{"k": [0, 0]}],
                               [{"k": [0, 1], "parity": 2}], [{"k": [0, 1], "parity": True}],
                               [{"k": [1]}], [{"k": [0, 1], "amplitude": 1.0}]],
    "noise.z0[0].amplitudes": [[v, 1.0] for v in NON_FINITE + ["x", None, True]],
}


@st.composite
def malformed_runs(draw):
    fields = draw(st.lists(st.sampled_from(sorted(MALFORMED)), min_size=1, max_size=3,
                           unique=True))
    return (draw(st.sampled_from(["simulate", "malliavin"])),
            [(f, draw(st.sampled_from(MALFORMED[f])),
              not f.startswith("noise") and draw(st.booleans())) for f in fields])


class TestMalformedConfigContract:
    @given(malformed_runs())
    def test_malformed_config_exits_2_and_writes_nothing(self, run):
        command, mutations = run
        doc = small_config(horizon=0.01)
        doc["analysis"] = {"paths": 1, "eta": 0.05}
        overrides = []
        for field, value, by_flag in mutations:
            if by_flag:
                overrides += ["--set", f"{field}={json.dumps(value)}"]
            elif field.startswith("noise"):
                doc["noise"]["z0"][0]["amplitudes"] = value
            else:
                section, key = field.split(".")
                doc[section][key] = value
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main([command, "--config", write_config(Path(tmp), doc),
                             "--out", str(out)] + overrides)
            assert code == 2, err.getvalue()
            violations = json.loads(err.getvalue())["violations"]
            for field, _, _ in mutations:
                assert any(field in v for v in violations), (field, violations)
            assert not out.exists()

    @pytest.mark.parametrize("override", [
        "equation.dt=NaN", "run.T=Infinity", "run.seed=-3", "analysis.paths=\"two\"",
        pytest.param('analysis.profile_modes=[{"slot":"x","k":[0,1]}]', id="profile_slot"),
        pytest.param('analysis.profile_modes=[{"k":[9,9]}]', id="profile_k_outside"),
        pytest.param('analysis.cone_samples="x"', id="cone_samples_string"),
        pytest.param("analysis.cone_samples=-5", id="cone_samples_negative"),
        pytest.param("analysis.cone_alpha=2", id="cone_alpha_above_1"),
        pytest.param("analysis.cone_n=0", id="cone_n_zero"),
        pytest.param('analysis.basis_level="x"', id="basis_level_string"),
        pytest.param('analysis.observable={"slot":"x","k":[0,1]}', id="observable_slot"),
        pytest.param('analysis.replicas="many"', id="replicas_string"),
        pytest.param('analysis.initial_state=[{"slot":"magnetic","k":[9,9]}]',
                     id="initial_state_k_outside"),
        pytest.param('analysis.burn_in="x"', id="burn_in_string"),
        pytest.param("analysis.replica=5", id="typo_replica"),
        pytest.param("analysis.cone_alfa=0.5", id="typo_cone_alfa"),
        pytest.param('analysis.observabel={"kind":"total_energy"}', id="typo_observabel"),
        pytest.param('noise.z0=[{"k":[0,1],"amplitudes":[1e308,1e308]}]',
                     id="z0_squares_overflow"),
        # the averaging window after the burn-in must hold two snapshots
        pytest.param("analysis.burn_in=1.0", id="burn_in_at_T"),
        pytest.param(("run.T=0.05", "analysis.burn_in=5"), id="burn_in_past_T"),
        pytest.param(("run.T=0.05", "analysis.burn_in=0.05"), id="burn_in_at_short_T"),
        pytest.param(("run.T=0.05", "analysis.burn_in=0.01", "analysis.pilot_horizon=0.001"),
                     id="burn_in_empties_pilot"),
        pytest.param("run.T=1e-12", id="T_under_half_a_step")])
    def test_example_config_probes_exit_2(self, tmp_path, capsys, override):
        example = Path(__file__).resolve().parents[1] / "config.example.json"
        overrides = (override,) if isinstance(override, str) else override
        flags = [arg for item in overrides for arg in ("--set", item)]
        for command in ("malliavin", "clt"):  # validation does not depend on the command
            out = tmp_path / command
            code = main([command, "--config", str(example), "--out", str(out)] + flags)
            assert code == 2
            violations = json.loads(capsys.readouterr().err)["violations"]
            key = overrides[-1].partition("=")[0]
            assert any(key in v for v in violations), violations
            assert not out.exists()

    def test_negative_seed_flag_rejected(self, tmp_path, capsys):
        # and a seed of 2**32 or more, whose streams would be those of a smaller seed
        cfg = write_config(tmp_path, small_config())
        for seed in ("-3", "4294967296"):
            code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "x"),
                         "--seed", seed])
            assert code == 2
            assert any("run.seed" in v
                       for v in json.loads(capsys.readouterr().err)["violations"])
            assert not (tmp_path / "x").exists()

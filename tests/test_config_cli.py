import dataclasses
import glob
import json
import os
import re
import signal
import subprocess
import sys
import textwrap
import time

import jsonschema
import numpy as np
import pytest

import wavecirc as w
from wavecirc.cli import _write_json, _write_matrix_csv, main
from wavecirc.config import SCHEMA, ConfigError, load_config, resolve

import gate_oracle as oracle
from conftest import in_worker_only


BASE = {
    "grid": {"n_qubits": 3, "length_angstrom": 0.66},
    "potential": {"model": {"kind": "double_well"}},
    "dynamics": {"dt_fs": 0.5, "steps": 100},
}


def read_trajectory_csv(path):
    '''(t_fs, rho, method) of a trajectory.csv written by propagate.'''
    with open(path) as fh:
        meta = fh.readline().strip()
        fh.readline()
        data = np.loadtxt(fh, delimiter=",")
    method = meta.split("method=")[1].split()[0]
    return data[:, 0], data[:, 1:], method


def write_config(tmp_path, extra=None, name="run.json"):
    cfg = json.loads(json.dumps(BASE))
    for key, val in (extra or {}).items():
        if isinstance(val, dict) and isinstance(cfg.get(key), dict):
            cfg[key].update(val)
        else:
            cfg[key] = val
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestConfig:
    def test_defaults_filled(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        assert cfg["daf"]["m_daf"] == 20
        assert cfg["dynamics"]["method"] == "classical"
        assert cfg["spectrum"]["window"] == "none"
        assert cfg["grid"]["mass_au"] == pytest.approx(1836.15267343)

    def test_deuteron_mass(self, tmp_path):
        cfg = load_config(write_config(
            tmp_path, {"grid": {"mass": "deuteron"}}))
        assert cfg["grid"]["mass_au"] == pytest.approx(3670.48296788)

    def test_numeric_mass_passthrough(self):
        cfg = resolve({"grid": {"n_qubits": 2, "length_angstrom": 1.0,
                                "mass": 1234.5},
                       "potential": {"model": {"kind": "harmonic",
                                               "k": 1.0}}})
        assert cfg["grid"]["mass_au"] == 1234.5

    def test_schema_is_valid(self):
        # resolve() validates against SCHEMA without checking it first
        jsonschema.Draft202012Validator.check_schema(SCHEMA)

    def test_missing_required_block(self):
        with pytest.raises(ConfigError, match="grid"):
            resolve({"potential": {"model": {"kind": "double_well"}}})

    def test_rejects_unknown_key(self):
        raw = json.loads(json.dumps(BASE))
        raw["grit"] = {}
        with pytest.raises(ConfigError):
            resolve(raw)

    def test_rejects_both_file_and_model(self):
        raw = json.loads(json.dumps(BASE))
        raw["potential"]["file"] = "v.csv"
        with pytest.raises(ConfigError, match="potential"):
            resolve(raw)

    def test_rejects_bad_qubit_count(self):
        raw = json.loads(json.dumps(BASE))
        raw["grid"]["n_qubits"] = 13
        with pytest.raises(ConfigError, match="n_qubits"):
            resolve(raw)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(str(tmp_path / "absent.json"))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(str(path))

    @pytest.mark.parametrize("raw, where", [
        ({"grid": {"length_angstrom": float("nan")}}, "grid/length_angstrom"),
        ({"dynamics": {"dt_fs": float("inf")}}, "dynamics/dt_fs"),
        ({"potential": {"model": {
            "kind": "polynomial", "coefficients": [0.0, -float("inf")]}}},
         "potential/model/coefficients/1")], ids=["nan", "inf", "in-list"])
    def test_resolve_rejects_non_finite(self, raw, where):
        # a library caller's dict, which no JSON parser has seen
        cfg = json.loads(json.dumps(BASE))
        for block, val in raw.items():
            cfg[block].update(val)
        with pytest.raises(ConfigError, match=f"non-finite number .* {where}"):
            resolve(cfg)

    def test_load_rejects_literal_beyond_float_range(self, tmp_path):
        path = tmp_path / "big.json"
        path.write_text(json.dumps(BASE).replace('"dt_fs": 0.5',
                                                 '"dt_fs": 1e400'))
        with pytest.raises(ConfigError, match="non-finite number inf at "
                                              "dynamics/dt_fs"):
            load_config(str(path))


class TestCliExitCodes:
    def test_build_ok(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = str(tmp_path / "out")
        assert main(["build", "--config", cfg, "--out", out]) == 0
        assert "built N=3" in capsys.readouterr().out
        for name in ("hamiltonian.csv", "potential.csv", "eigenvalues.csv",
                     "manifest.json"):
            assert os.path.exists(os.path.join(out, name))

    def test_bad_config_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"grid": {"n_qubits": 3}}))
        code = main(["build", "--config", str(path),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_potential_file_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path,
                           {"potential": {"file": "no_such.csv",
                                          "model": None}})
        # rebuild without the model key (oneOf forbids both)
        raw = json.loads(open(cfg).read())
        raw["potential"] = {"file": str(tmp_path / "no_such.csv")}
        open(cfg, "w").write(json.dumps(raw))
        code = main(["build", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "no_such.csv" in capsys.readouterr().err

    def test_map_refuses_asymmetric_exit_4(self, tmp_path, capsys):
        # tabulated potential with a tilt: parity blocks couple
        g = w.build_grid(3, 0.66)
        x = np.linspace(-0.4, 0.4, 9)
        v = x ** 2 + 0.2 * x
        pot_path = tmp_path / "tilted.csv"
        np.savetxt(pot_path, np.column_stack([x, v]), delimiter=",",
                   header="x_angstrom,energy_hartree", comments="")
        cfg = write_config(tmp_path)
        raw = json.loads(open(cfg).read())
        raw["potential"] = {"file": str(pot_path)}
        open(cfg, "w").write(json.dumps(raw))
        out = str(tmp_path / "o")
        assert main(["map", "--config", cfg, "--out", out]) == 4
        assert "refused" in capsys.readouterr().err
        assert main(["map", "--config", cfg, "--out", out, "--force"]) == 0

    def test_vanishing_wavepacket_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"dynamics": {
            "steps": 5, "wavepacket": {"kind": "gaussian",
                                       "mu_angstrom": 50.0}}})
        out = tmp_path / "o"
        assert main(["propagate", "--config", cfg, "--out", str(out)]) == 2
        assert "gaussian wavepacket has zero norm" in capsys.readouterr().err
        assert not (out / "trajectory.csv").exists()

    def test_map_writes_parameters(self, tmp_path):
        cfg = write_config(tmp_path)
        out = str(tmp_path / "o")
        assert main(["map", "--config", cfg, "--out", out]) == 0
        report = json.load(open(os.path.join(out, "ising_parameters.json")))
        assert report["reconstruction_error"]["even"] <= 1e-10
        assert len(report["even"]["b_z"]) == 3   # one field per register spin


class TestCliPipeline:
    def test_build_deterministic(self, tmp_path):
        cfg = write_config(tmp_path)
        o1, o2 = str(tmp_path / "o1"), str(tmp_path / "o2")
        assert main(["build", "--config", cfg, "--out", o1]) == 0
        assert main(["build", "--config", cfg, "--out", o2]) == 0
        for name in ("hamiltonian.csv", "eigenvalues.csv", "manifest.json"):
            b1 = open(os.path.join(o1, name), "rb").read()
            b2 = open(os.path.join(o2, name), "rb").read()
            assert b1 == b2

    def test_compile_counts_and_reparse(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = str(tmp_path / "o")
        code = main(["compile", "--config", cfg, "--out", out,
                     "--time-fs", "0.5", "--check"])
        assert code == 0
        assert "CNOTs per block: 6" in capsys.readouterr().out
        counts = json.load(open(os.path.join(out, "gate_counts.json")))
        assert counts["blocks"]["even"]["cx"] == 6
        with open(os.path.join(out, "propagator_even.qasm")) as fh:
            n, _, gates = oracle.parse_qasm(fh.read())
        assert n == 2 and [g[0] for g in gates].count("cx") == 6

    def test_propagate_classical_csv(self, tmp_path):
        cfg = write_config(tmp_path)
        out = str(tmp_path / "o")
        assert main(["propagate", "--config", cfg, "--out", out]) == 0
        t, rho, method = read_trajectory_csv(
            os.path.join(out, "trajectory.csv"))
        assert method == "classical"
        assert rho.shape == (101, 8)
        assert np.abs(rho.sum(axis=1) - 1).max() <= 1e-9

    def test_propagate_shots_epsilon_and_seed_override(self, tmp_path,
                                                       capsys):
        cfg = write_config(tmp_path, {"dynamics": {
            "method": "circuit-shots", "shots": 1000, "steps": 20}})
        o1, o2 = str(tmp_path / "o1"), str(tmp_path / "o2")
        assert main(["propagate", "--config", cfg, "--out", o1,
                     "--seed", "5"]) == 0
        eps1 = json.load(open(os.path.join(o1, "epsilon.json")))
        assert eps1["seed"] == 5 and 0 < eps1["epsilon"] < 0.2
        assert main(["propagate", "--config", cfg, "--out", o2,
                     "--seed", "6"]) == 0
        r1 = read_trajectory_csv(os.path.join(o1, "trajectory.csv"))[1]
        r2 = read_trajectory_csv(os.path.join(o2, "trajectory.csv"))[1]
        assert not np.array_equal(r1, r2)

    def test_spectrum_outputs(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "dynamics": {"steps": 512, "dt_fs": 0.25,
                         "wavepacket": {"kind": "delta", "x0_index": 0}},
            "spectrum": {"window": "hann"}})
        out = str(tmp_path / "o")
        assert main(["spectrum", "--config", cfg, "--out", out]) == 0
        peaks = json.load(open(os.path.join(out, "peaks.json")))
        assert peaks["peaks"], "expected at least one extracted peak"
        assert "peaks" in capsys.readouterr().out

    def test_manifest_hashes(self, tmp_path):
        import hashlib
        cfg = write_config(tmp_path)
        out = str(tmp_path / "o")
        assert main(["build", "--config", cfg, "--out", out]) == 0
        manifest = json.load(open(os.path.join(out, "manifest.json")))
        for name, digest in manifest["outputs"].items():
            data = open(os.path.join(out, name), "rb").read()
            assert hashlib.sha256(data).hexdigest() == digest
        assert manifest["resolved_config"]["grid"]["n_qubits"] == 3

    def test_manifest_hashes_file_larger_than_a_read_block(self, tmp_path):
        # the manifest hashes a file in blocks; one of 3.5 MiB spans four
        import hashlib
        from wavecirc.cli import _write_manifest
        data = np.random.default_rng(3).bytes(7 << 19)
        (tmp_path / "big.bin").write_bytes(data)
        _write_manifest(str(tmp_path), {}, ["big.bin"])
        manifest = json.load(open(tmp_path / "manifest.json"))
        assert manifest["outputs"] == {
            "big.bin": hashlib.sha256(data).hexdigest()}

    def test_sweep_shots(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"dynamics": {"steps": 10}})
        out = str(tmp_path / "o")
        code = main(["sweep-shots", "--config", cfg, "--out", out,
                     "--shots", "100,10000", "--n-seeds", "3"])
        assert code == 0
        sweep = json.load(open(os.path.join(out, "shot_sweep.json")))
        assert len(sweep["results"]) == 6
        assert sweep["median_epsilon"]["10000"] < \
            sweep["median_epsilon"]["100"]


class TestSeed:
    def test_config_seed_used_without_flag(self, tmp_path):
        cfg = write_config(tmp_path, {"dynamics": {
            "method": "circuit-shots", "shots": 500, "steps": 12,
            "seed": 7}})
        o1, o2 = str(tmp_path / "o1"), str(tmp_path / "o2")
        assert main(["propagate", "--config", cfg, "--out", o1]) == 0
        assert main(["propagate", "--config", cfg, "--out", o2,
                     "--seed", "7"]) == 0
        eps = json.load(open(os.path.join(o1, "epsilon.json")))
        assert eps["seed"] == 7
        with open(os.path.join(o1, "trajectory.csv")) as fh:
            assert "seed=7" in fh.readline().split()
        r1 = read_trajectory_csv(os.path.join(o1, "trajectory.csv"))[1]
        r2 = read_trajectory_csv(os.path.join(o2, "trajectory.csv"))[1]
        assert np.array_equal(r1, r2)

    def test_sweep_base_seed_from_config(self, tmp_path):
        cfg = write_config(tmp_path, {"dynamics": {"steps": 5, "seed": 7}})
        out = str(tmp_path / "o")
        assert main(["sweep-shots", "--config", cfg, "--out", out,
                     "--shots", "100", "--n-seeds", "2"]) == 0
        sweep = json.load(open(os.path.join(out, "shot_sweep.json")))
        assert [r["seed"] for r in sweep["results"]] == [7, 8]


class TestSharedEvolution:
    def test_sweep_rows_equal_propagate(self, tmp_path):
        shot_counts, seeds = (300, 30000), (3, 4)
        cfg = write_config(tmp_path, {"dynamics": {
            "method": "circuit-shots", "shots": shot_counts[0],
            "steps": 15}})
        out = str(tmp_path / "sweep")
        assert main(["sweep-shots", "--config", cfg, "--out", out,
                     "--seed", str(seeds[0]), "--n-seeds", str(len(seeds)),
                     "--shots", ",".join(map(str, shot_counts)),
                     "--jobs", "2"]) == 0
        rows = json.load(open(os.path.join(out, "shot_sweep.json")))["results"]
        assert sorted((r["shots"], r["seed"]) for r in rows) == \
            [(s, k) for s in shot_counts for k in seeds]
        for r in rows:
            name = f"s{r['shots']}.json"
            cfg = write_config(tmp_path, {"dynamics": {
                "method": "circuit-shots", "shots": r["shots"],
                "steps": 15}}, name=name)
            o = str(tmp_path / f"p{r['shots']}_{r['seed']}")
            assert main(["propagate", "--config", cfg, "--out", o,
                         "--seed", str(r["seed"])]) == 0
            eps = json.load(open(os.path.join(o, "epsilon.json")))
            assert r["epsilon"] == eps["epsilon"]


class TestBlocksDerivedOnce:
    '''A command rotates H once and eigensolves each parity block once,
    all in the calling process: the forked worker is handed its block's
    eigensystem.'''

    # N = 3: blocks exactly decoupled, so the two block eigensolves serve
    # the reference too; N = 4: the full eigensolve, then the two blocks
    @pytest.mark.parametrize("n, eighs", [(3, 2), (4, 3)])
    def test_spectrum_circuit_exact(self, tmp_path, monkeypatch, n, eighs):
        from wavecirc.givens import block_transform
        from wavecirc.lapack import eigh
        calls = {"eigh": 0, "block_transform": 0}

        def counted(name, fn):
            def call(*args):
                calls[name] += 1
                return fn(*args)
            return call

        def refused(*args):
            raise AssertionError("eigh called in the forked worker")
        # the name grid.eigensolve calls
        monkeypatch.setattr("wavecirc.lapack.eigh",
                            in_worker_only(refused, counted("eigh", eigh)))
        for module in ("cli", "dynamics"):
            monkeypatch.setattr(f"wavecirc.{module}.block_transform",
                                counted("block_transform", block_transform))
        cfg = write_config(tmp_path, {
            "grid": {"n_qubits": n}, "mapping": {"force": True},
            "dynamics": {"method": "circuit-exact", "steps": 63}})
        assert main(["spectrum", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 0
        assert calls == {"eigh": eighs, "block_transform": 1}

    # the library derives the reference's eigensystem by the CLI's rule
    @pytest.mark.parametrize("method, eighs", [("circuit-exact", 2),
                                               ("ising", 4)])
    def test_library_propagate_solves_as_the_cli(self, tmp_path,
                                                 monkeypatch, method, eighs):
        from wavecirc.lapack import eigh
        calls = []

        def counted(*args):
            calls.append(args)
            return eigh(*args)

        def refused(*args):
            raise AssertionError("eigh called in the forked worker")
        monkeypatch.setattr("wavecirc.lapack.eigh",
                            in_worker_only(refused, counted))
        cfg = write_config(tmp_path, {"dynamics": {"method": method,
                                                   "steps": 20}})
        assert main(["propagate", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 0
        cli = len(calls)
        g = w.build_grid(3, 0.66)
        ham = w.build_hamiltonian(g, w.eval_potential(
            g, {"kind": "double_well"}))
        psi0 = w.initial_wavepacket(w.WavepacketSpec("gaussian"), g)
        w.propagate(method, ham, psi0, 0.5, 20)
        assert (cli, len(calls) - cli) == (eighs, eighs)


class TestCircuitRouteGuard:
    # a tilted surface: the parity blocks couple
    TILTED = {"potential": {"model": {"kind": "polynomial",
                                      "coefficients": [0, 0.01, 0.5]}}}

    def commands(self, tmp_path, force):
        def config(method):
            return write_config(tmp_path, dict(
                self.TILTED, mapping={"force": force},
                dynamics={"method": method, "steps": 64, "shots": 200}),
                name=f"{method}.json")
        out = str(tmp_path / "o")
        return [["propagate", "--config", config("circuit-exact"),
                 "--out", out],
                ["spectrum", "--config", config("circuit-shots"),
                 "--out", out],
                ["sweep-shots", "--config", config("circuit-exact"),
                 "--out", out, "--shots", "100", "--n-seeds", "1"],
                ["compile", "--config", config("circuit-exact"),
                 "--out", out]]

    def test_refused_exit_4(self, tmp_path, capsys):
        for argv in self.commands(tmp_path, force=False):
            assert main(argv) == 4, argv[0]
            assert "refused" in capsys.readouterr().err

    def test_runs_with_mapping_force(self, tmp_path):
        for argv in self.commands(tmp_path, force=True):
            assert main(argv) == 0, argv[0]

    def test_compile_refused_before_writing(self, tmp_path):
        argv = self.commands(tmp_path, force=False)[-1]
        assert argv[0] == "compile" and main(argv) == 4
        assert not (tmp_path / "o").exists()


class TestFailureWritesNothing:
    '''A refused or failed command leaves no output directory: each one
    creates it only after its work has succeeded.'''

    @pytest.mark.parametrize("command, dynamics, code", [
        ("map", {}, 4),
        ("propagate", {"method": "circuit-exact", "steps": 8}, 4),
        ("spectrum", {"method": "circuit-shots", "steps": 64, "shots": 200},
         4),
        ("sweep-shots", {"steps": 8}, 4),
        ("spectrum", {"steps": 10}, 2),
    ])
    def test_no_output_directory(self, tmp_path, capsys, command, dynamics,
                                 code):
        cfg = write_config(tmp_path, dict(TestCircuitRouteGuard.TILTED,
                                          dynamics=dynamics))
        out = tmp_path / "o"
        argv = [command, "--config", cfg, "--out", str(out)]
        if command == "sweep-shots":
            argv += ["--shots", "100", "--n-seeds", "1"]
        assert main(argv) == code
        assert not out.exists()


class TestRemovedSwitches:
    @pytest.mark.parametrize("extra", [
        {"mapping": {"joint": False}},
        {"dynamics": {"wavepacket": {"kind": "thermal",
                                     "sqrt_weights": True}}}])
    def test_exit_2_with_schema_message(self, tmp_path, capsys, extra):
        cfg = write_config(tmp_path, extra)
        assert main(["build", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config invalid" in err and "was unexpected" in err


class TestModelSchema:
    '''Each potential model kind has its own fields, typed, and no others;
    a malformed model exits 2 before any work.'''

    @pytest.mark.parametrize("model, where, message", [
        ({"kind": "double_well", "barrier_kcal": "two"},
         "potential/model/barrier_kcal", "is not of type 'number'"),
        ({"kind": "polynomial"},
         "potential/model", "'coefficients' is a required property"),
        ({"kind": "double_well", "barier_kcal": 2.0},
         "potential/model", "'barier_kcal' was unexpected"),
        ({"kind": "double_well", "a": 1.0},
         "potential/model", "'b' is a dependency of 'a'"),
        ({"kind": "double_well", "a": 1.0, "b": 2.0, "barrier_kcal": 2.0},
         "potential/model", "'barrier_kcal' is not one of"),
        ({"kind": "harmonic"}, "potential/model", "'k' is a required"),
        ({"kind": "harmonic", "k": 1.0, "a": 1.0},
         "potential/model", "'a' was unexpected"),
        ({"kind": "polynomial", "coefficients": [0.0, "x"]},
         "potential/model/coefficients/1", "is not of type 'number'"),
        ({"kind": "polynomial", "coefficients": []},
         "potential/model/coefficients", "should be non-empty"),
        ({"kind": "double_well", "minimum_angstrom": 0.0},
         "potential/model/minimum_angstrom", "less than or equal")],
        ids=["barrier-string", "polynomial-no-coefficients", "misspelled",
             "a-without-b", "a-b-and-barrier", "harmonic-no-k",
             "harmonic-extra", "coefficient-string", "no-coefficients",
             "zero-minimum"])
    def test_malformed_model_exit_2(self, tmp_path, capsys, model, where,
                                    message):
        cfg = write_config(tmp_path, {"potential": {"model": model}})
        out = tmp_path / "o"
        assert main(["build", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"config invalid at {where}: " in err and message in err
        assert not out.exists()

    @pytest.mark.parametrize("model", [
        {"kind": "double_well"},
        {"kind": "double_well", "barrier_kcal": 3.0},
        {"kind": "double_well", "barrier_kcal": 2.0,
         "minimum_angstrom": 0.2},
        {"kind": "double_well", "a": 1.0, "b": 2.0},
        {"kind": "harmonic", "k": 2.5},
        {"kind": "polynomial", "coefficients": [0.0, 0.01, 0.5]}])
    def test_well_formed_model_builds(self, tmp_path, model):
        cfg = write_config(tmp_path, {"potential": {"model": model}})
        assert main(["build", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 0


def savetxt_bytes(tmp_path, h):
    path = tmp_path / "savetxt.csv"
    np.savetxt(path, h, delimiter=",")
    return path.read_bytes()


def written_bytes(tmp_path, h):
    path = tmp_path / "written.csv"
    _write_matrix_csv(path, h)
    return path.read_bytes()


class TestMatrixCsv:
    '''hamiltonian.csv is written byte for byte as np.savetxt writes it,
    whether or not the matrix is Toeplitz off its diagonal.'''

    @pytest.mark.parametrize("n", [1, 2, 3, 6, 11])
    def test_double_well(self, tmp_path, n):
        g = w.build_grid(n, 0.66)
        ham = w.build_hamiltonian(g, w.eval_potential(
            g, {"kind": "double_well"}))
        assert written_bytes(tmp_path, ham.matrix) == \
            savetxt_bytes(tmp_path, ham.matrix)

    def test_kinetic_band_signed_zeros_are_not_the_matrix(self):
        # the trap the writer avoids: K's band holds -0.0 where H, after
        # + diag(V), holds +0.0, so its text must come from H itself
        g = w.build_grid(11, 0.66)
        ham = w.build_hamiltonian(g, w.eval_potential(
            g, {"kind": "double_well"}))
        band, row = ham.kinetic_band, ham.matrix[0]
        assert np.any(np.signbit(band) & (band == 0))
        assert not np.any(np.signbit(row) & (row == 0))

    def test_random_symmetric_not_toeplitz(self, tmp_path):
        a = np.random.default_rng(3).normal(size=(9, 9))
        h = a + a.T
        assert written_bytes(tmp_path, h) == savetxt_bytes(tmp_path, h)

    def test_negative_zero_in_first_row(self, tmp_path):
        # -0.0 == +0.0, but the two print differently
        h = np.array([[1.0, -0.0, 2.0, 0.0],
                      [0.0, 1.0, -0.0, 2.0],
                      [2.0, 0.0, 1.0, -0.0],
                      [-0.0, 2.0, -0.0, 1.0]])
        assert written_bytes(tmp_path, h) == savetxt_bytes(tmp_path, h)

    @pytest.mark.parametrize("h", [
        np.array([[0.25]]),
        np.random.default_rng(4).normal(size=(3, 5)),
        np.random.default_rng(5).normal(size=(5, 3)),
        np.array([[np.nan, np.inf], [np.inf, -np.inf]]),
        np.zeros((0, 3)), np.zeros((2, 0))],
        ids=["1x1", "wide", "tall", "non-finite", "no-rows", "no-columns"])
    def test_other_shapes_and_values(self, tmp_path, h):
        assert written_bytes(tmp_path, h) == savetxt_bytes(tmp_path, h)


def modules_after(code):
    '''The modules a new interpreter (this one has imported them
    already) has loaded once it has run `code`, in the order loaded.'''
    script = code + "\nimport json, sys; print(json.dumps(list(sys.modules)))"
    src = os.path.dirname(os.path.dirname(w.__file__))
    res = subprocess.run([sys.executable, "-c", script],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.splitlines()[-1])


def scipy_modules(loaded):
    return [m for m in loaded if m.split(".")[0] == "scipy"]


class TestImportCost:
    def test_cli_import_leaves_out_interpolate_and_fft(self):
        # nor any other part of scipy
        assert scipy_modules(modules_after("import wavecirc.cli")) == []

    def command(self, tmp_path, name, *flags):
        cfg = write_config(tmp_path, {"grid": {"n_qubits": 4}})
        argv = [name, "--config", cfg, "--out", str(tmp_path / name), *flags]
        return f"from wavecirc.cli import main; assert main({argv!r}) == 0"

    # build's eigenvalues are numpy's eigvalsh
    @pytest.mark.parametrize("name", ["build", "map"])
    def test_loads_no_scipy(self, tmp_path, name):
        assert scipy_modules(modules_after(self.command(tmp_path, name))) \
            == []

    # the eigensolving commands load scipy's LAPACK extension by itself
    # (wavecirc.lapack), not the scipy.linalg package; the grid spectrum's
    # transforms are numpy's
    @pytest.mark.parametrize("name", ["spectrum", "propagate", "compile",
                                      "sweep-shots"])
    def test_loads_lapack_not_linalg(self, tmp_path, name):
        flags = ("--shots", "100", "--n-seeds", "1") \
            if name == "sweep-shots" else ()
        loaded = scipy_modules(modules_after(
            self.command(tmp_path, name, *flags)
            + "\nfrom wavecirc import lapack"
            + "\nassert lapack.flapack.cache_info().currsize == 1"))
        assert "scipy" in loaded
        assert [m for m in loaded if not (
            m in ("scipy", "scipy.__config__", "scipy.version",
                  "scipy.linalg._flapack")
            or m.startswith("scipy._"))] == []

    def test_build_from_tabulated_potential(self, tmp_path):
        from scipy.interpolate import PchipInterpolator
        xt = np.linspace(-0.4, 0.4, 9)
        vt = xt ** 2 + 0.2 * xt
        pot_path = tmp_path / "tabulated.csv"
        np.savetxt(pot_path, np.column_stack([xt, vt]), delimiter=",",
                   header="x_angstrom,energy_hartree", comments="")
        raw = json.loads(open(write_config(tmp_path)).read())
        raw["potential"] = {"file": str(pot_path)}
        cfg = tmp_path / "tabulated.json"
        cfg.write_text(json.dumps(raw))
        out = tmp_path / "o"
        assert main(["build", "--config", str(cfg), "--out", str(out)]) == 0
        x = w.build_grid(3, 0.66).points
        expected = tmp_path / "expected.csv"
        np.savetxt(expected, np.column_stack([x, PchipInterpolator(xt, vt)(x)]),
                   delimiter=",", header="x_angstrom,energy_hartree")
        assert (out / "potential.csv").read_bytes() == expected.read_bytes()


class TestInputsRefusedBeforeEvolution:
    @pytest.fixture(autouse=True)
    def no_evolution(self, monkeypatch):
        def evolve(*args, **kwargs):
            pytest.fail("evolved before the inputs were checked")
        monkeypatch.setattr("wavecirc.cli._evolve", evolve)

    def sweep(self, tmp_path, *flags):
        cfg = write_config(tmp_path, {"dynamics": {"steps": 5}})
        return ["sweep-shots", "--config", cfg,
                "--out", str(tmp_path / "o")] + list(flags)

    @pytest.mark.parametrize("flags, message", [
        (("--n-seeds", "0"), "--n-seeds"),
        (("--shots", "100,0"), "--shots"),
        (("--shots", "1e3"), "--shots"),
        (("--seed", "-3"), "--seed")])
    def test_bad_sweep_flags_exit_2(self, tmp_path, capsys, flags, message):
        with pytest.raises(SystemExit) as exc:
            main(self.sweep(tmp_path, *flags))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert message in err and "expected an integer >=" in err

    def test_circuit_shots_without_shot_count_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"dynamics": {
            "method": "circuit-shots", "steps": 5}})
        for command in ("propagate", "spectrum"):
            assert main([command, "--config", cfg,
                         "--out", str(tmp_path / "o")]) == 2
            assert "dynamics.shots" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["classical", "circuit-exact"])
    def test_spectrum_of_fewer_than_64_samples_exit_2(self, tmp_path,
                                                      capsys, method):
        cfg = write_config(tmp_path, {"dynamics": {"method": method,
                                                   "steps": 62}})
        assert main(["spectrum", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2
        assert "at least 64 time samples" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400", "x"])
    def test_compile_non_finite_time_exit_2(self, tmp_path, capsys, value):
        cfg = write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["compile", "--config", cfg, "--out", str(tmp_path / "o"),
                  f"--time-fs={value}"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--time-fs" in err and "expected a finite number" in err

    # json.load accepts these, and the schema's bounds let them through
    @pytest.mark.parametrize("extra", [
        dict(TestCircuitRouteGuard.TILTED, mapping={
            "threshold_ratio": float("nan")}, dynamics={
            "method": "circuit-exact", "steps": 5}),
        {"dynamics": {"dt_fs": float("nan")}},
        {"dynamics": {"dt_fs": float("inf")}}],
        ids=["threshold_ratio-NaN", "dt_fs-NaN", "dt_fs-Infinity"])
    def test_non_finite_config_number_exit_2(self, tmp_path, capsys, extra):
        cfg = write_config(tmp_path, extra)
        assert main(["propagate", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2
        assert "non-finite number" in capsys.readouterr().err

    # the schema once let these through to an OverflowError
    @pytest.mark.parametrize("command, extra, field", [
        ("propagate", {"dynamics": {"method": "circuit-shots", "steps": 5,
                                    "shots": 10 ** 19}}, "shots"),
        ("build", {"potential": {"model": {
            "kind": "double_well", "minimum_angstrom": 1e300}}},
         "minimum_angstrom")],
        ids=["shots-1e19", "minimum_angstrom-1e300"])
    def test_overflowing_config_number_exit_2(self, tmp_path, command,
                                              extra, field):
        cfg = write_config(tmp_path, extra)
        src = os.path.dirname(os.path.dirname(w.__file__))
        res = subprocess.run(
            [sys.executable, "-m", "wavecirc", command, "--config", cfg,
             "--out", str(tmp_path / "o")],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True, timeout=300)
        assert res.returncode == 2, res.stderr
        assert "Traceback" not in res.stderr
        assert field in res.stderr

    def test_overflowing_shot_flag_exit_2(self, tmp_path):
        # bounded as dynamics.shots is; once an OverflowError in sampling
        cfg = write_config(tmp_path, {"dynamics": {"steps": 5}})
        src = os.path.dirname(os.path.dirname(w.__file__))
        res = subprocess.run(
            [sys.executable, "-m", "wavecirc", "sweep-shots", "--config", cfg,
             "--out", str(tmp_path / "o"), "--n-seeds", "1",
             "--shots", "10000000000000000000"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True, timeout=300)
        assert res.returncode == 2, res.stderr
        assert "Traceback" not in res.stderr
        assert "--shots" in res.stderr and "<= 9223372036854775807" \
            in res.stderr
        assert not (tmp_path / "o").exists()

    def test_compile_single_qubit_grid_exit_2(self, tmp_path, capsys,
                                              monkeypatch):
        def compile_(u):
            pytest.fail("compiled before the grid size was checked")
        monkeypatch.setattr("wavecirc.cli.qsd_compile", compile_)
        cfg = write_config(tmp_path, {"grid": {"n_qubits": 1}})
        out = tmp_path / "o"
        assert main(["compile", "--config", cfg, "--out", str(out)]) == 2
        assert "compile needs grid.n_qubits >= 2" in capsys.readouterr().err
        assert not out.exists()


# schema-accepted configs whose DAF kinetic energy is not finite
NON_FINITE_H = {"m_daf": {"daf": {"m_daf": 1000000}},
                "length": {"grid": {"length_angstrom": 1e-300}},
                "sigma": {"daf": {"sigma_ratio": 1e-300}}}
COMMANDS = {"build": [], "map": [], "compile": ["--check"], "propagate": [],
            "spectrum": [], "sweep-shots": ["--shots", "100", "--n-seeds",
                                            "1"]}


class TestRunsThatCannotFinish:
    @pytest.mark.parametrize("config, command, flags, code, names", [
        pytest.param(NON_FINITE_H[c], command, flags, 3,
                     ("daf.m_daf", "daf.sigma_ratio", "grid.length_angstrom",
                      "grid.mass"), id=f"{c}-{command}")
        for c in NON_FINITE_H for command, flags in COMMANDS.items()] + [
        pytest.param({}, "compile", ["--time-fs", "1e300", "--check"], 2,
                     ("2^52",), id="time-fs-compile")])
    def test_non_finite_runs_exit_documented(self, tmp_path, capsys, config,
                                             command, flags, code, names):
        # these once exited 0 with NaN in ising_parameters.json or QASM of
        # phases near 1e302 rad, or 2 with numpy's NaN complaint
        cfg = write_config(tmp_path, config)
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out)]
                    + flags) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert all(name in err for name in names), err
        for path in out.glob("*"):
            assert not re.search(r"\b(nan|inf|infinity)\b",
                                 path.read_text(), re.I), path.name

    def test_json_refuses_non_finite(self, tmp_path):
        with pytest.raises(w.NumericalError, match="out.json"):
            _write_json(str(tmp_path / "out.json"), {"x": [1.0, np.nan]})
        assert not (tmp_path / "out.json").exists()

    def test_non_finite_density_exit_3(self, tmp_path):
        # the potential overflows: the evolution is NaN, and nothing is
        # written
        cfg = write_config(tmp_path, {
            "potential": {"model": {"kind": "polynomial",
                                    "coefficients": [0, 0, 1e308]}},
            "dynamics": {"steps": 40}})
        out = tmp_path / "o"
        src = os.path.dirname(os.path.dirname(w.__file__))
        res = subprocess.run(
            [sys.executable, "-m", "wavecirc", "propagate", "--config", cfg,
             "--out", str(out)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True, timeout=300)
        assert res.returncode == 3, res.stderr
        assert "Traceback" not in res.stderr
        assert "non-finite values" in res.stderr
        assert not out.exists()

    @pytest.mark.parametrize("command", ["propagate", "spectrum"])
    def test_phases_beyond_float_resolution_exit_2(self, tmp_path, command):
        # at t = 1e302 fs the phases exp(-iEt) carry no information; the
        # run once exited 0 with finite nonsense
        cfg = write_config(tmp_path, {"dynamics": {"dt_fs": 1e300}})
        out = tmp_path / "o"
        src = os.path.dirname(os.path.dirname(w.__file__))
        res = subprocess.run(
            [sys.executable, "-m", "wavecirc", command, "--config", cfg,
             "--out", str(out)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True, timeout=300)
        assert res.returncode == 2, res.stderr
        assert "Traceback" not in res.stderr
        assert "dynamics.dt_fs" in res.stderr \
            and "dynamics.steps" in res.stderr
        assert not out.exists()

    def test_memory_error_refused_exit_4(self, tmp_path, capsys,
                                         monkeypatch):
        # what numpy raises for dynamics.steps = 10**12, without
        # allocating it
        message = ("Unable to allocate 58.2 TiB for an array with shape "
                   "(1000000000001, 8) and data type float64")

        def evolve(*args, **kwargs):
            raise MemoryError(message)
        monkeypatch.setattr("wavecirc.cli.evolve", evolve)
        cfg = write_config(tmp_path)
        out = tmp_path / "o"
        assert main(["propagate", "--config", cfg, "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("refused:") and message in err
        assert not out.exists()

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="the worker's death signal is Linux prctl")
    def test_worker_dies_with_its_parent(self, tmp_path):
        # a long circuit run in a session of its own; once the parent has
        # forked the odd block's worker, the parent gets SIGKILL
        cfg = write_config(tmp_path, {
            "grid": {"n_qubits": 8},
            "dynamics": {"method": "circuit-exact", "steps": 2000}})
        src = os.path.dirname(os.path.dirname(w.__file__))
        proc = subprocess.Popen(
            [sys.executable, "-m", "wavecirc", "propagate", "--config", cfg,
             "--out", str(tmp_path / "o")],
            env=dict(os.environ, PYTHONPATH=src), start_new_session=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            worker = wait_for_child(proc, timeout=120)
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
            deadline = time.monotonic() + 5
            while running(worker) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not running(worker), "the worker outlived its parent"
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait(timeout=30)


def wait_for_child(proc, timeout):
    '''The pid of the first child process of `proc`, read from
    /proc/<pid>/task/*/children.'''
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        assert proc.poll() is None, "the run ended before it forked"
        for path in glob.glob(f"/proc/{proc.pid}/task/*/children"):
            try:
                with open(path) as fh:
                    pids = fh.read().split()
            except OSError:
                continue
            if pids:
                return int(pids[0])
        time.sleep(0.05)
    pytest.fail(f"no child of the run within {timeout} s")


def running(pid):
    '''Whether process `pid` exists and is not a zombie.'''
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state not in ("Z", "X")


def corrupt_one_multiplexor(tree):
    '''The QsdTree `tree` with 1e-3 added in place to the select angles
    of its first multiplexor, so that QASM, run_circuit and
    circuit_matrix all see it.'''
    tree.select[2][0, :, 0] += 1e-3
    return tree


def corrupt_one_leaf(tree):
    '''`tree` with 1e-3 added in place to the beta of its first ZYZ
    leaf.'''
    tree.beta[:, 0] += 1e-3
    return tree


def corrupt_phase(tree):
    '''`tree` with 1e-3 added to its global phase.'''
    return dataclasses.replace(tree, phase=tree.phase + 1e-3)


# off-centre, so both parity components are spread over their registers:
# the delta's odd component is one basis state, on which a corrupted
# first multiplexor can act as a phase only
GAUSSIAN = {"kind": "gaussian", "mu_angstrom": 0.1, "sigma_angstrom": 0.1}


class TestCircuitHealthCheck:
    def test_corrupted_compile_exit_3(self, tmp_path, capsys, monkeypatch):
        from wavecirc.qsd import qsd_compile

        def corrupted(u):
            return corrupt_one_multiplexor(qsd_compile(u))
        monkeypatch.setattr("wavecirc.dynamics.qsd_compile", corrupted)
        cfg = write_config(tmp_path, {"dynamics": {
            "method": "circuit-exact", "steps": 5}})
        assert main(["propagate", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err and "exact block evolution" in err

    def test_worker_only_corruption_exit_3(self, tmp_path, capsys,
                                           monkeypatch):
        # the odd parity block is compiled in a forked worker
        from wavecirc.qsd import qsd_compile
        monkeypatch.setattr("wavecirc.dynamics.qsd_compile", in_worker_only(
            lambda u: corrupt_one_multiplexor(qsd_compile(u)), qsd_compile))
        cfg = write_config(tmp_path, {"dynamics": {
            "method": "circuit-exact", "steps": 5, "wavepacket": GAUSSIAN}})
        assert main(["propagate", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err and "exact block evolution" in err

    def test_odd_block_of_centred_gaussian_exit_3(self, tmp_path, capsys,
                                                  monkeypatch):
        # the centred Gaussian puts about 1e-17 of its weight on the odd
        # block, so only the whole-matrix check sees its corrupted circuits
        from wavecirc.qsd import qsd_compile
        monkeypatch.setattr("wavecirc.dynamics.qsd_compile", in_worker_only(
            lambda u: corrupt_one_multiplexor(qsd_compile(u)), qsd_compile))
        cfg = write_config(tmp_path, {"dynamics": {
            "method": "circuit-exact", "steps": 40,
            "wavepacket": dict(GAUSSIAN, mu_angstrom=0.0)}})
        assert main(["propagate", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err and "reconstruction error" in err

    def test_dead_worker_exit_3(self, tmp_path, capsys, monkeypatch):
        from wavecirc.dynamics import _compiled_evolve
        monkeypatch.setattr("wavecirc.dynamics._compiled_evolve",
                            in_worker_only(lambda *a: os._exit(1),
                                           _compiled_evolve))
        cfg = write_config(tmp_path, {"dynamics": {
            "method": "circuit-exact", "steps": 5}})
        assert main(["propagate", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 3
        assert "without a result" in capsys.readouterr().err

    @pytest.mark.parametrize("corrupt", [False, True])
    @pytest.mark.parametrize("command", [
        ["propagate"], ["sweep-shots", "--shots", "100", "--n-seeds", "2"]])
    def test_no_worker_left_alive(self, tmp_path, capsys, monkeypatch, forks,
                                  command, corrupt):
        from wavecirc.qsd import qsd_compile
        if corrupt:
            monkeypatch.setattr(
                "wavecirc.dynamics.qsd_compile", in_worker_only(
                    lambda u: corrupt_one_multiplexor(qsd_compile(u)),
                    qsd_compile))
        cfg = write_config(tmp_path, {"dynamics": {
            "method": "circuit-shots", "shots": 100, "steps": 5,
            "wavepacket": GAUSSIAN}})
        code = main(command + ["--config", cfg, "--out", str(tmp_path / "o")])
        assert code == (3 if corrupt else 0), capsys.readouterr().err
        assert len(forks) == 1
        # reaped: waitpid no longer knows the pid
        with pytest.raises(ChildProcessError):
            os.waitpid(forks[0], os.WNOHANG)

    @pytest.mark.skipif(not os.path.exists("/proc/self/stat"),
                        reason="reads the thread count from /proc")
    def test_fork_from_one_thread(self, tmp_path):
        # Python >= 3.12 warns (DeprecationWarning) on a fork from a process
        # with more than one OS thread.  OpenBLAS stops its pool around a
        # fork, so the CLI forks from one.  Run in a new interpreter: the
        # faulthandler timeout runs a watchdog thread in this one.
        cfg = write_config(tmp_path, {"dynamics": {
            "method": "circuit-exact", "steps": 5, "wavepacket": GAUSSIAN}})
        script = textwrap.dedent(f'''
            import json, os, warnings
            import numpy as np
            from wavecirc.cli import _write_matrix_csv, main
            fork, threads = os.fork, []
            def counting_fork():
                pid = fork()
                if pid:
                    with open("/proc/self/stat") as f:
                        stat = f.read().rsplit(")", 1)[1].split()
                    threads.append(int(stat[17]))
                return pid
            os.fork = counting_fork
            np.ones((400, 400)) @ np.ones((400, 400))  # start the BLAS pool
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main(["propagate", "--config", {cfg!r},
                             "--out", {str(tmp_path / "o")!r}])
            print(json.dumps({{"code": code, "threads": threads,
                "deprecations": [str(c.message) for c in caught
                                 if c.category is DeprecationWarning]}}))
        ''')
        src = os.path.dirname(os.path.dirname(w.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        res = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, timeout=300)
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout.splitlines()[-1]) == {
            "code": 0, "threads": [1], "deprecations": []}

    @pytest.mark.parametrize("corrupt", [corrupt_one_leaf, corrupt_phase],
                             ids=["leaf", "phase"])
    def test_compile_check_sees_every_angle(self, tmp_path, capsys,
                                            monkeypatch, corrupt):
        from wavecirc.qsd import qsd_compile
        monkeypatch.setattr("wavecirc.cli.qsd_compile",
                            lambda u: corrupt(qsd_compile(u)))
        cfg = write_config(tmp_path)
        out = tmp_path / "o"
        assert main(["compile", "--config", cfg, "--out", str(out),
                     "--time-fs", "0.5", "--check"]) == 3
        assert "reconstruction error" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("corrupt", [("odd",), ("even", "odd")])
    def test_compile_check_failure_writes_nothing(self, tmp_path, capsys,
                                                   monkeypatch, corrupt):
        # the even block is compiled first, then the odd one
        from wavecirc.qsd import qsd_compile
        names = iter(("even", "odd"))

        def corrupted(u):
            tree = qsd_compile(u)
            if next(names) in corrupt:
                corrupt_one_multiplexor(tree)
            return tree
        monkeypatch.setattr("wavecirc.cli.qsd_compile", corrupted)
        cfg = write_config(tmp_path)
        out = tmp_path / "o"
        assert main(["compile", "--config", cfg, "--out", str(out),
                     "--time-fs", "0.5", "--check"]) == 3
        assert "reconstruction error" in capsys.readouterr().err
        assert not list(out.glob("*.qasm"))
        assert not (out / "manifest.json").exists()


class TestEntryPoint:
    def test_console_script(self, tmp_path):
        import subprocess
        cfg = write_config(tmp_path)
        out = str(tmp_path / "o")
        proc = subprocess.run(
            ["wavecirc", "build", "--config", cfg, "--out", out],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "built N=3" in proc.stdout

    def test_module_invocation(self, tmp_path):
        import subprocess
        import sys
        cfg = write_config(tmp_path)
        proc = subprocess.run(
            [sys.executable, "-m", "wavecirc", "build", "--config", cfg,
             "--out", str(tmp_path / "o")],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import wavecirc as w
from wavecirc.cli import main, read_trajectory_csv
from wavecirc.config import ConfigError, load_config, resolve

from conftest import in_worker_only


BASE = {
    "grid": {"n_qubits": 3, "length_angstrom": 0.66},
    "potential": {"model": {"kind": "double_well"}},
    "dynamics": {"dt_fs": 0.5, "steps": 100},
}


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
                       "potential": {"model": {"kind": "harmonic"}}})
        assert cfg["grid"]["mass_au"] == 1234.5

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
        seq = w.read_qasm(os.path.join(out, "propagator_even.qasm"))
        assert seq.n_qubits == 2 and seq.cnot_count() == 6

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
                 "--out", out, "--shots", "100", "--n-seeds", "1"]]

    def test_refused_exit_4(self, tmp_path, capsys):
        for argv in self.commands(tmp_path, force=False):
            assert main(argv) == 4, argv[0]
            assert "refused" in capsys.readouterr().err

    def test_runs_with_mapping_force(self, tmp_path):
        for argv in self.commands(tmp_path, force=True):
            assert main(argv) == 0, argv[0]


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


def corrupt_one_multiplexor(seq):
    '''seq with 1e-3 added to the angles of its first Multiplexor.'''
    from wavecirc.qsd import Multiplexor
    i, mux = next((i, b) for i, b in enumerate(seq.blocks)
                  if isinstance(b, Multiplexor))
    seq.blocks[i] = Multiplexor(mux.kind, mux.target, mux.controls,
                                mux.theta + 1e-3)
    return seq


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
            from wavecirc.cli import main
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

    @pytest.mark.parametrize("corrupt", [("odd",), ("even", "odd")])
    def test_compile_check_failure_writes_nothing(self, tmp_path, capsys,
                                                   monkeypatch, corrupt):
        # the even block is compiled first, then the odd one
        from wavecirc.qsd import qsd_compile
        names = iter(("even", "odd"))

        def corrupted(u):
            seq = qsd_compile(u)
            if next(names) in corrupt:
                corrupt_one_multiplexor(seq)
            return seq
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

'''The output checks pass on real outputs and fail on corrupted ones.

    PYTHONPATH=src python -m pytest -q wavebench/tests

Each workload runs once at a small size through the real CLI.  Every
test copies the outputs, corrupts one thing, re-signs the manifest so
that only the targeted check can notice, and expects that check to
report a problem.
'''

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import reference as ref  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SMALL = {
    "circuit-spectrum": dict(n_qubits=4, steps=120, shots=100000),
    "shot-sweep": dict(n_qubits=4, steps=100, shots=(1000, 100000),
                       n_seeds=3),
    "grid-map": dict(n_qubits=6, steps=400),
    "compile-check": dict(n_qubits=4, n_times=2),
}
SEED = 3


def run_workload(name, root):
    wl = workloads.WORKLOADS[name](SEED, **SMALL[name])
    config = root / "config.json"
    config.write_text(json.dumps(wl.config))
    outs = []
    for i, cmd in enumerate(wl.commands):
        out = root / f"{i}-{cmd.argv[0]}"
        subprocess.run([sys.executable, "-m", "wavecirc"]
                       + run.command_argv(cmd, config, out),
                       check=True, capture_output=True, cwd=run.ROOT,
                       env=run.child_env())
        outs.append((cmd, out))
    return outs


@pytest.fixture(scope="module")
def produce(tmp_path_factory):
    '''produce(name) -> [(command, output dir)], run once per workload.'''
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = run_workload(name, tmp_path_factory.mktemp(name))
        return cache[name]
    return get


def fresh(outs, tmp_path, index):
    '''A copy of command `index`'s output directory.'''
    cmd, out = outs[index]
    copy = tmp_path / out.name
    shutil.copytree(out, copy)
    return cmd, copy


def resign(out):
    '''Recompute manifest hashes after a deliberate corruption.'''
    path = out / "manifest.json"
    manifest = json.loads(path.read_text())
    for name in manifest["outputs"]:
        manifest["outputs"][name] = hashlib.sha256(
            (out / name).read_bytes()).hexdigest()
    path.write_text(json.dumps(manifest))


def edit_json(out, name, change):
    data = json.loads((out / name).read_text())
    change(data)
    (out / name).write_text(json.dumps(data))
    resign(out)


def edit_text(out, name, change):
    (out / name).write_text(change((out / name).read_text()))
    resign(out)


def problems_after(outs, tmp_path, index, corrupt):
    cmd, out = fresh(outs, tmp_path, index)
    corrupt(out)
    return " | ".join(cmd.check(str(out)))


@pytest.mark.parametrize("name", sorted(SMALL))
def test_real_outputs_pass(produce, name):
    for cmd, out in produce(name):
        assert cmd.check(str(out)) == []


@pytest.mark.parametrize("name", sorted(SMALL))
def test_unsigned_change_fails_manifest(produce, tmp_path, name):
    cmd, out = fresh(produce(name), tmp_path, 0)
    victim = next(p for p in sorted(out.iterdir())
                  if p.name != "manifest.json")
    victim.write_bytes(victim.read_bytes() + b"\n")
    assert "manifest hash" in " | ".join(cmd.check(str(out)))


@pytest.mark.parametrize("name", sorted(SMALL))
def test_missing_output_fails(produce, tmp_path, name):
    cmd, out = fresh(produce(name), tmp_path, 0)
    (out / "manifest.json").unlink()
    assert cmd.check(str(out))


# ------------------------------------------------------- circuit-spectrum

def test_epsilon_off_floor_fails(produce, tmp_path):
    outs = produce("circuit-spectrum")

    def scale(d):
        d["epsilon"] *= 1.5
    msg = problems_after(outs, tmp_path, 0,
                         lambda o: edit_json(o, "epsilon.json", scale))
    assert "multinomial floor" in msg


def test_epsilon_wrong_seed_fails(produce, tmp_path):
    outs = produce("circuit-spectrum")

    def reseed(d):
        d["seed"] = 0
    msg = problems_after(outs, tmp_path, 0,
                         lambda o: edit_json(o, "epsilon.json", reseed))
    assert "seed 0" in msg


def test_strongest_peak_moved_fails(produce, tmp_path):
    outs = produce("circuit-spectrum")

    def move(d):
        top = max(d["peaks"], key=lambda p: p["intensity"])
        top["peak_cm1"] += 2 * d["bin_cm1"]
    msg = problems_after(outs, tmp_path, 0,
                         lambda o: edit_json(o, "peaks.json", move))
    assert "from every beat line" in msg


def test_wrong_bin_fails(produce, tmp_path):
    outs = produce("circuit-spectrum")

    def widen(d):
        d["bin_cm1"] *= 1.01
    msg = problems_after(outs, tmp_path, 0,
                         lambda o: edit_json(o, "peaks.json", widen))
    assert "bin" in msg


# ------------------------------------------------------------- shot-sweep

def test_median_off_floor_fails(produce, tmp_path):
    outs = produce("shot-sweep")

    def scale(d):
        d["median_epsilon"]["100000"] *= 1.3
    msg = problems_after(outs, tmp_path, 0,
                         lambda o: edit_json(o, "shot_sweep.json", scale))
    assert "median epsilon at 100000 shots" in msg
    assert "slope" in msg


def test_missing_seed_fails(produce, tmp_path):
    outs = produce("shot-sweep")

    def drop(d):
        d["results"].pop()
    msg = problems_after(outs, tmp_path, 0,
                         lambda o: edit_json(o, "shot_sweep.json", drop))
    assert "sweep ran" in msg


# --------------------------------------------------------------- grid-map

def perturb_csv(out, name, row, col, delta):
    path = out / name
    lines = path.read_text().splitlines()
    body = [i for i, line in enumerate(lines) if not line.startswith("#")]
    cells = lines[body[row]].split(",")
    cells[col] = repr(float(cells[col]) + delta)
    lines[body[row]] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    resign(out)


def test_hamiltonian_changed_fails(produce, tmp_path):
    outs = produce("grid-map")
    msg = problems_after(
        outs, tmp_path, 0,
        lambda o: perturb_csv(o, "hamiltonian.csv", 3, 5, 1e-6))
    assert "reference DAF Hamiltonian" in msg


def test_eigenvalue_changed_fails(produce, tmp_path):
    outs = produce("grid-map")
    msg = problems_after(
        outs, tmp_path, 0,
        lambda o: perturb_csv(o, "eigenvalues.csv", 2, 0, 1e-8))
    assert "eigvalsh" in msg


def test_coupling_fails(produce, tmp_path):
    outs = produce("grid-map")

    def couple(d):
        d["coupling_norm"] = 1e-6
    msg = problems_after(
        outs, tmp_path, 1,
        lambda o: edit_json(o, "ising_parameters.json", couple))
    assert "coupling norm" in msg


def test_residual_changed_fails(produce, tmp_path):
    outs = produce("grid-map")

    def bump(d):
        d["odd"]["residuals"]["diagonal"] *= 1 + 1e-6
    msg = problems_after(
        outs, tmp_path, 1,
        lambda o: edit_json(o, "ising_parameters.json", bump))
    assert "odd diagonal residual" in msg


def test_peak_moved_fails(produce, tmp_path):
    outs = produce("grid-map")

    def move(d):
        d["peaks"][-1]["peak_cm1"] += d["bin_cm1"]
    msg = problems_after(outs, tmp_path, 2,
                         lambda o: edit_json(o, "peaks.json", move))
    assert "from every beat line" in msg


# ---------------------------------------------------------- compile-check

def test_reported_cnots_fail(produce, tmp_path):
    outs = produce("compile-check")

    def miscount(d):
        d["blocks"]["odd"]["cx"] -= 1
    msg = problems_after(outs, tmp_path, 0,
                         lambda o: edit_json(o, "gate_counts.json", miscount))
    assert "odd block reports" in msg


def test_dropped_cnot_fails(produce, tmp_path):
    outs = produce("compile-check")

    def drop(text):
        lines = text.splitlines()
        k = next(i for i, line in enumerate(lines) if line.startswith("cx"))
        return "\n".join(lines[:k] + lines[k + 1:]) + "\n"
    msg = problems_after(
        outs, tmp_path, 1,
        lambda o: edit_text(o, "propagator_even.qasm", drop))
    assert "even QASM has" in msg


def test_rotation_angle_changed_fails(produce, tmp_path):
    outs = produce("compile-check")

    def nudge(text):
        lines = text.splitlines()
        k = next(i for i, line in enumerate(lines) if line.startswith("ry"))
        angle = float(lines[k][3:lines[k].index(")")])
        lines[k] = f"ry({angle + 1e-6!r})" + lines[k][lines[k].index(")") + 1:]
        return "\n".join(lines) + "\n"
    msg = problems_after(
        outs, tmp_path, 0,
        lambda o: edit_text(o, "propagator_odd.qasm", nudge))
    assert "odd QASM at t=" in msg


def test_global_phase_changed_fails(produce, tmp_path):
    outs = produce("compile-check")

    def rephase(text):
        lines = text.splitlines()
        k = next(i for i, line in enumerate(lines) if "global phase" in line)
        phase = float(lines[k].split(":")[1])
        lines[k] = f"// global phase dropped: {phase + 1e-6!r}"
        return "\n".join(lines) + "\n"
    msg = problems_after(
        outs, tmp_path, 1,
        lambda o: edit_text(o, "propagator_even.qasm", rephase))
    assert "even QASM at t=" in msg


# ----------------------------------------------------- reference and trace

def test_cnot_law():
    assert [ref.cnot_law(n) for n in range(1, 8)] == \
        [0, 6, 36, 168, 720, 2976, 12096]


def test_apply_qasm_matches_matrices():
    '''Gate semantics: Ry, Rz and a CNOT with control above and below
    the target, against explicit matrices on two qubits.'''
    a = 0.7
    ry = np.array([[np.cos(a / 2), -np.sin(a / 2)],
                   [np.sin(a / 2), np.cos(a / 2)]])
    rz = np.diag([np.exp(-0.5j * a), np.exp(0.5j * a)])
    eye = np.eye(2)
    cx01 = np.eye(4)[:, [0, 3, 2, 1]]     # control q0, target q1
    cx10 = np.eye(4)[:, [0, 1, 3, 2]]     # control q1, target q0
    gates = [("ry", 0, None, a), ("rz", 1, None, a),
             ("cx", 1, 0, None), ("cx", 0, 1, None)]
    want = np.exp(0.3j) * cx10 @ cx01 @ np.kron(rz, eye) @ np.kron(eye, ry)
    got = ref.apply_qasm(2, 0.3, gates, np.eye(4))
    assert np.abs(got - want).max() < 1e-15


def test_layer_metrics_self_time():
    '''Self time subtracts children and their bookkeeping; distinct
    inputs are counted per command.'''
    spans = [
        {"name": "cli.main", "parent": None, "start": 0.0, "end": 10.0,
         "tracer_s": 0.0},
        {"name": "grid.eigensolve", "parent": 0, "start": 1.0, "end": 3.0,
         "tracer_s": 0.5, "digest": "a"},
        {"name": "grid.eigensolve", "parent": 0, "start": 4.0, "end": 5.0,
         "tracer_s": 0.0, "digest": "a"},
        {"name": "cli.main", "parent": None, "start": 20.0, "end": 21.0,
         "tracer_s": 0.0},
        {"name": "grid.eigensolve", "parent": 3, "start": 20.0, "end": 20.5,
         "tracer_s": 0.0, "digest": "a"},
    ]
    m = tracing.layer_metrics({"spans": spans, "traced_s": 12.0,
                               "untraced_s": 11.0}, 7)
    assert m["grid.eigensolve_s"][0] == pytest.approx(3.5)
    assert m["grid.eigensolve_calls"][0] == 3
    assert m["grid.eigensolve_ratio"][0] == pytest.approx(2 / 3)
    assert m["cli.self_s"][0] == pytest.approx(6.5 + 0.5)
    assert m["trace.overhead_s"][0] == pytest.approx(1.0)
    assert m["cli.bytes_written"][0] == 7
    assert list(m) == list(tracing.PER_LAYER)


def test_benchmark_json_lists_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert [(m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(tracing.PER_LAYER.values())
    assert sorted(w["name"] for w in spec["workloads"]) == \
        sorted(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == \
        {"setup_s", "wall_s", "cpu_s", "peak_rss_mb"}

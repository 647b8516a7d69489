'''Cost per node of the QSD factorizations of the 8x8-and-larger nodes,
batched numpy path against per-matrix LAPACK, and how many nodes of the
N = 6 double-well propagators fall back to LAPACK.  Writes one JSON file.

    python3 tools/bench_qsd.py [--nodes 256] [--repeats 7] [--steps 400]
                               [--out BENCH_qsd.json]

A node of size 2m is a 2m x 2m unitary for the cosine-sine
decomposition, and the pair (l0, l1) of m x m unitaries of its
block-diagonal factor for the demultiplex.  Each entry is the best of
`--repeats` timings of one call over a stack of `--nodes` Haar-random
nodes, divided by `--nodes`: `qsd._csd_stack` (with its checks and its
fallback for the nodes that fail them) against `qsd._csd_lapack`
(zuncsd), and `qsd._eig_stack` against `qsd._schur_lapack` (zgees) on
x = l0 l1^H.  The sorting and gauge code that both paths share is not
timed.  The fallback counts compile both parity blocks of the N = 6
double well for `--steps` steps of 1 fs, 16 steps per qsd_compile call.

The layer costs are the best of `--repeats` timings, in milliseconds per
circuit, on one compiled Haar-random circuit of 5 and of 7 qubits:
`circuit_matrix` (the QsdTree rebuilt from its level arrays), `to_qasm`
(its gate lines filled in from the level arrays) and `run_circuit` (the
QsdTree run from its level arrays on one column).
'''

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np                                  # noqa: E402
import scipy                                        # noqa: E402
from scipy.stats import unitary_group               # noqa: E402

import wavecirc as w                                # noqa: E402
from wavecirc import qsd                            # noqa: E402
from wavecirc.sim import (circuit_matrix, exact_propagator,  # noqa: E402
                          run_circuit)

SIZES = (8, 16, 32)
PATHS = {"csd": ("_csd_stack", "_csd_lapack"),
         "demultiplex": ("_eig_stack", "_schur_lapack")}


@contextmanager
def counted(*names):
    '''Counts, per named qsd function, the nodes passed to it inside the
    block.'''
    counts = dict.fromkeys(names, 0)
    originals = {name: getattr(qsd, name) for name in names}

    def wrap(name):
        def call(x):
            counts[name] += len(x)
            return originals[name](x)
        return call
    try:
        for name in names:
            setattr(qsd, name, wrap(name))
        yield counts
    finally:
        for name, f in originals.items():
            setattr(qsd, name, f)


def best_s(f, repeats):
    '''The shortest of `repeats` timings of f().'''
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        f()
        best = min(best, time.perf_counter() - start)
    return best


def us_per_node(f, x, repeats):
    return best_s(lambda: f(x), repeats) / len(x) * 1e6


def node_costs(n_nodes, repeats, seed=0):
    rng = np.random.default_rng(seed)
    out = {}
    for size in SIZES:
        u = unitary_group.rvs(size, size=n_nodes, random_state=rng)
        _, l0, l1, _, _ = qsd._csd_lapack(u)
        inputs = {"csd": u, "demultiplex": l0 @ l1.conj().swapaxes(1, 2)}
        row = {}
        for kind, (batched, lapack) in PATHS.items():
            with counted(lapack) as fell_back:
                row[f"{kind}_batched_us"] = us_per_node(
                    getattr(qsd, batched), inputs[kind], repeats)
            row[f"{kind}_lapack_us"] = us_per_node(
                getattr(qsd, lapack), inputs[kind], repeats)
            row[f"{kind}_fallback_nodes"] = fell_back[lapack] // repeats
        out[f"{size}x{size}"] = row
    return out


def layer_costs(repeats, seed=1):
    rng = np.random.default_rng(seed)
    out = {}
    for n in (5, 7):
        tree = w.qsd_compile(unitary_group.rvs(2 ** n, random_state=rng))
        eye = np.eye(2 ** n, dtype=complex)
        calls = {"circuit_matrix": lambda: circuit_matrix(tree),
                 "to_qasm": lambda: w.to_qasm(tree),
                 "run_circuit": lambda: run_circuit(eye[:, 0], tree)}
        out[f"{n}_qubits"] = {f"{name}_ms": 1e3 * best_s(f, repeats)
                              for name, f in calls.items()}
    return out


def double_well_fallbacks(steps, chunk=16):
    g = w.build_grid(6, 0.66)
    ham = w.build_hamiltonian(g, w.eval_potential(g, {"kind": "double_well"}))
    bh = w.block_transform(ham)
    times = np.arange(1, steps + 1) * 1.0
    names = [name for pair in PATHS.values() for name in pair]
    with counted(*names) as counts:
        for block in (bh.block_plus, bh.block_minus):
            eig = w.eigensolve(block)
            for start in range(0, steps, chunk):
                w.qsd_compile(exact_propagator(eig, times[start:start + chunk]))
    return {kind: {"nodes": counts[batched],
                   "fallback": counts[lapack],
                   "fraction": counts[lapack] / counts[batched]}
            for kind, (batched, lapack) in PATHS.items()}


def commit():
    try:
        return subprocess.run(["git", "describe", "--always", "--dirty",
                               "--abbrev=40"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--nodes", type=int, default=256)
    p.add_argument("--repeats", type=int, default=7)
    p.add_argument("--steps", type=int, default=400)
    p.add_argument("--out", default="BENCH_qsd.json")
    args = p.parse_args(argv)
    report = {
        "commit": commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "src_lines": sum(len(f.read_text().splitlines())
                         for f in (ROOT / "src" / "wavecirc").glob("*.py")),
        "nodes_per_stack": args.nodes,
        "repeats": args.repeats,
        "us_per_node": node_costs(args.nodes, args.repeats),
        "ms_per_circuit": layer_costs(args.repeats),
        "double_well_n6_steps": args.steps,
        "double_well_n6_fallbacks": double_well_fallbacks(args.steps),
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report["us_per_node"]))
    print(json.dumps(report["ms_per_circuit"]))
    print(json.dumps(report["double_well_n6_fallbacks"]))


if __name__ == "__main__":
    main()

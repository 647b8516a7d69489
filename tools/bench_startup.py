'''Fixed cost of every wavecirc CLI process: the import of wavecirc.cli in
fresh interpreters, and the write of hamiltonian.csv by
`wavecirc.cli._write_matrix_csv` against `np.savetxt`.  Writes one JSON
file.

    python3 tools/bench_startup.py [--processes 15] [--n-qubits 11]
                                   [--repeats 3] [--out BENCH_startup.json]

Each import entry gives the median and quartiles, over `--processes`
fresh interpreters, of the wall time of the process and of its peak RSS
(`ru_maxrss` from wait4).  "cli" runs `import wavecirc.cli`.  "cli+deferred"
also imports scipy.interpolate and scipy.fft, as every process did while
wavecirc imported them at module level; now only a tabulated potential
and the spectrum commands load them.  The two kinds of process alternate.
The write entries are the best of `--repeats` writes of the double-well
Hamiltonian at `--n-qubits`, in a temporary directory, and the report
says whether the two files are byte-identical.
'''

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np                                  # noqa: E402
import scipy                                        # noqa: E402

import wavecirc as w                                # noqa: E402
from wavecirc.cli import _write_matrix_csv          # noqa: E402

IMPORTS = {"cli": "import wavecirc.cli",
           "cli+deferred": "import wavecirc.cli, scipy.interpolate, "
                           "scipy.fft"}


def quartiles(values):
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": median, "q1": q1, "q3": q3}


def run_once(code):
    '''(wall seconds, peak RSS in MB) of one fresh interpreter running
    `code` with this checkout's src/ on its path.'''
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code], env=env)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"{code!r} exited {proc.returncode}")
    return wall, usage.ru_maxrss / 1024     # Linux reports KiB


def import_costs(n_processes):
    runs = {name: [] for name in IMPORTS}
    for _ in range(n_processes):
        for name, code in IMPORTS.items():
            runs[name].append(run_once(code))
    return {name: {"wall_s": quartiles([r[0] for r in rs]),
                   "peak_rss_mb": quartiles([r[1] for r in rs])}
            for name, rs in runs.items()}


def write_costs(n_qubits, repeats):
    g = w.build_grid(n_qubits, 0.66)
    h = w.build_hamiltonian(g, w.eval_potential(
        g, {"kind": "double_well"})).matrix
    writers = {"write_matrix_csv": _write_matrix_csv,
               "savetxt": lambda path, h: np.savetxt(path, h, delimiter=",")}
    best = dict.fromkeys(writers, float("inf"))
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: Path(tmp) / f"{name}.csv" for name in writers}
        for _ in range(repeats):
            for name, write in writers.items():
                start = time.perf_counter()
                write(paths[name], h)
                best[name] = min(best[name], time.perf_counter() - start)
        data = {name: p.read_bytes() for name, p in paths.items()}
    return {"n_qubits": n_qubits,
            "bytes": len(data["savetxt"]),
            "byte_identical": data["write_matrix_csv"] == data["savetxt"],
            **{f"{name}_s": t for name, t in best.items()}}


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
    p.add_argument("--processes", type=int, default=15)
    p.add_argument("--n-qubits", type=int, default=11)
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--out", default="BENCH_startup.json")
    args = p.parse_args(argv)
    report = {
        "commit": commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "src_lines": sum(len(f.read_text().splitlines())
                         for f in (ROOT / "src" / "wavecirc").glob("*.py")),
        "processes": args.processes,
        "import": import_costs(args.processes),
        "repeats": args.repeats,
        "hamiltonian_csv": write_costs(args.n_qubits, args.repeats),
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report["import"]))
    print(json.dumps(report["hamiltonian_csv"]))


if __name__ == "__main__":
    main()

'''Fixed cost of every wavecirc CLI process: the import of wavecirc.cli in
fresh interpreters, and the write of hamiltonian.csv by
`wavecirc.cli._write_matrix_csv` against `np.savetxt`; and the grid
spectrum at the benchmark's grid-map shape against the transform it
replaced.  Writes one JSON file.

    python3 tools/bench_startup.py [--processes 15] [--n-qubits 11]
                                   [--repeats 3] [--out BENCH_startup.json]

Each import entry gives the median and quartiles, over `--processes`
fresh interpreters, of the wall time of the process and of its peak RSS
(`ru_maxrss` from wait4).  "cli" imports wavecirc.cli and jsonschema,
which the config check loads: what `map` loads.  "cli+deferred" also
imports scipy.linalg, which the commands that eigensolve load before
jsonschema, and numpy.fft, which `spectrum` loads.  The two kinds of
process alternate.  The write entries are the best of `--repeats` writes
of the double-well Hamiltonian at `--n-qubits`, in a temporary
directory, and the report says whether the two files are byte-identical.

The grid_spectrum entry times, best of `--repeats`, `grid_spectrum` on
the classical density of the benchmark's wavepacket at the grid-map
shape (STEPS steps of 0.5 fs at `--n-qubits`, Hann window, padding 4)
and the transform it replaced: the packed column pairs transformed at
the padded length, in 8 MiB chunks.  It reports the largest power
difference over the maximum, whether the extracted peak positions are
equal, and the largest shift of one (null when the peak counts differ).
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
import scipy.fft                                    # noqa: E402

import wavecirc as w                                # noqa: E402
from wavecirc import spectra                        # noqa: E402
from wavecirc.cli import _write_matrix_csv          # noqa: E402

IMPORTS = {"cli": "import wavecirc.cli, jsonschema",
           "cli+deferred": "import wavecirc.cli, scipy.linalg, jsonschema, "
                           "numpy.fft"}
# the time steps of the benchmark's grid-map spectrum: 4,001 samples
STEPS = 4000


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


def padded_power(traj, padding):
    '''The summed power of the Hann-windowed, mean-free columns as
    grid_spectrum computed it before it transformed at a fast length:
    packed pairs y_a + i y_b transformed at the padded length n_pad, in
    8 MiB chunks.'''
    rho = traj.rho
    n_steps, n_cols = rho.shape
    mean = rho.mean(axis=0)
    taper = np.hanning(n_steps)[:, None]
    n_pad = n_steps * padding
    half = (n_cols + 1) // 2
    pairs = min(half, max(1, (1 << 23) // (16 * n_pad)))
    z = np.empty((pairs, n_pad), dtype=complex)
    total = np.zeros(n_pad)
    for a in range(0, half, pairs):
        lo = slice(a, min(a + pairs, half))
        hi = slice(lo.start + half, min(lo.stop + half, n_cols))
        chunk = z[:lo.stop - lo.start]
        chunk[:] = 0
        chunk.real[:, :n_steps] = ((rho[:, lo] - mean[lo]) * taper).T
        chunk.imag[:hi.stop - hi.start, :n_steps] = \
            ((rho[:, hi] - mean[hi]) * taper).T
        f = scipy.fft.fft(chunk, axis=1, overwrite_x=True).view(float)
        total += np.einsum("ij,ij->j", f, f).reshape(-1, 2).sum(axis=1)
    k = np.arange(n_pad // 2 + 1)
    return 0.5 * (total[k] + total[-k % n_pad]) * traj.dx


def spectrum_costs(n_qubits, repeats, steps=STEPS, padding=4):
    g = w.build_grid(n_qubits, 0.66)
    ham = w.build_hamiltonian(g, w.eval_potential(
        g, {"kind": "double_well"}))
    psi0 = w.initial_wavepacket(
        w.WavepacketSpec("gaussian", mu=0.0, sigma=0.1), g)
    traj = w.propagate("classical", ham, psi0, 0.5, steps)
    best = {"grid_spectrum": float("inf"), "reference": float("inf")}
    for _ in range(repeats):
        start = time.perf_counter()
        spec = w.grid_spectrum(traj, window="hann", padding=padding)
        best["grid_spectrum"] = min(best["grid_spectrum"],
                                    time.perf_counter() - start)
        start = time.perf_counter()
        power = padded_power(traj, padding)
        best["reference"] = min(best["reference"],
                                time.perf_counter() - start)
    peaks = spectra._find_peaks(spec.omega_cm1, power, 1e-3)
    shift = max((abs(a[0] - b[0]) for a, b in zip(spec.peaks, peaks)),
                default=0.0) if len(peaks) == len(spec.peaks) else None
    return {"n_qubits": n_qubits, "steps": steps, "window": "hann",
            "padding": padding, "n_pad": padding * (steps + 1),
            "fft_length": spectra._fast_len(2 * steps + 1),
            **{f"{name}_s": t for name, t in best.items()},
            "max_power_diff_over_max":
                float(np.abs(spec.power - power).max() / power.max()),
            "peaks": len(spec.peaks),
            "peak_positions_equal":
                [p[0] for p in spec.peaks] == [p[0] for p in peaks],
            "max_peak_shift_cm1": shift}


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
        "grid_spectrum": spectrum_costs(args.n_qubits, args.repeats),
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report["import"]))
    print(json.dumps(report["hamiltonian_csv"]))
    print(json.dumps(report["grid_spectrum"]))


if __name__ == "__main__":
    main()

'''Fixed cost of every wavecirc CLI process: the import of wavecirc.cli in
fresh interpreters, the load of scipy's LAPACK drivers, and the write of
hamiltonian.csv by `wavecirc.cli._write_matrix_csv` against `np.savetxt`;
and, at the benchmark's grid-map shape, the grid spectrum, the spin fit
and the energies `build` writes, each against the computation it
replaced.  Writes one JSON file.

    python3 tools/bench_startup.py [--processes 15] [--n-qubits 11]
                                   [--repeats 3] [--out BENCH_startup.json]

Each import entry gives the median and quartiles, over `--processes`
fresh interpreters, of the wall time of the process, its CPU time (user
plus system) and peak RSS (`ru_maxrss`), both from wait4 in a small
launcher process, and the thread count it prints at its end (from
/proc/self/task).  "cli" imports wavecirc.cli and checks a small config
against the schema (`wavecirc.config.resolve`), as every command does
before its work: what `build` and `map` load.  "cli+deferred" also
loads scipy's LAPACK extension by `wavecirc.lapack.flapack()`, as the
commands that need eigenvectors do at their first eigensolve, and
imports numpy.fft, which `spectrum` loads.  "main" is the no-op CLI
process `python -m wavecirc --help`, run as `-m` runs it (by runpy), so
that it can print its thread count: `wavecirc.__main__` sets
OPENBLAS_NUM_THREADS to 1 before numpy loads.  "main:threaded" is the
same process with OPENBLAS_NUM_THREADS set to the core count, which
`__main__` keeps: the pools of numpy's default.  Every other process
runs without OPENBLAS_NUM_THREADS.  The kinds of process alternate.
The loader entry compares, the same way, `wavecirc.lapack.flapack()`
with `import scipy.linalg`, each run after `import wavecirc.lapack`: the
seconds the statement took in its process (in_process_s), and the
process's wall time, CPU time and peak RSS.  The write entries are the best of `--repeats` writes of the
double-well Hamiltonian at `--n-qubits`, in a temporary directory, and
the report says whether the two files are byte-identical.

The grid_spectrum entry times, best of `--repeats`, `grid_spectrum` on
the classical density of the benchmark's wavepacket at the grid-map
shape (STEPS steps of 0.5 fs at `--n-qubits`, Hann window, padding 4)
and the transform it replaced: the packed column pairs transformed at
the padded length, in 8 MiB chunks.  It reports the largest power
difference over the maximum, whether the extracted peak positions are
equal, and the largest shift of one (null when the peak counts differ).

The spin_fit entry times, best of `--repeats` over both parity blocks of
the double-well Hamiltonian at `--n-qubits`, the closed-form sx-sx/sy-sy
fit `extract_offdiag_params` and the least-squares design it replaced
(one row per distance-2 element, solved by `numpy.linalg.lstsq`).  It
reports both blocks' residuals by each, the largest change in J over
max|J| and that in the residual over the block's Frobenius norm.  The
build_energies entry times, the same way, the energies `build` writes
(`givens.eigenvalues`) and those of `givens.eigensystem`, which also
computes eigenvectors, and reports the largest change, in Hartree and
over max|E|.

The band_energies entry sets the rule by which `build` takes a parity
block's eigenvalues from its band (`givens.BAND_RATIO`).  At the block
size n = 2^(`--n-qubits` - 1), for random symmetric matrices of each
bandwidth kd in 0, 1 and n/64 .. n/2, it times, best of `--repeats` and
with one BLAS thread, the band solve (`lapack.band_eigenvalues`, LAPACK
dsbevd) and numpy's eigvalsh; and both on the double well's even block.
`crossover_kd` is the largest kd up to which the band solve wins at
every measured bandwidth; null if it never does.  `rule_max_kd` is the
largest kd the rule sends to the band, n / BAND_RATIO.

The parity_blocks entry finds the block size from which solving the two
parity blocks at once in two processes pays (`givens.FORK_MIN_DIM`).
For the double well at each N from `--n-qubits` - 4 (at least 2) to
`--n-qubits`, it times, best of `--repeats`, `givens.block_eigensolve`
and the values-only solve `build` makes (numpy's eigvalsh of each
block), each in turn in this process (the cutoff above the block size)
and forked (the cutoff at it), all with one BLAS thread per process, as
in a CLI process.  `crossover_dim` is the smallest block size from
which the forked solves win both timings at every measured size; null
if they never do.
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
from wavecirc import givens, ising, lapack, spectra  # noqa: E402
from wavecirc.cli import _write_matrix_csv          # noqa: E402

# prints the thread count of the process as a JSON line
THREADS = ("\nimport json, os\n"
           "print(json.dumps({'threads': len(os.listdir('/proc/self/task'))}))")
# `python -m wavecirc --help`, as `-m` runs it, its help text dropped
MAIN = """import contextlib, io, runpy, sys
sys.argv = ["wavecirc", "--help"]
with contextlib.redirect_stdout(io.StringIO()):
    try:
        runpy.run_module("wavecirc", run_name="__main__", alter_sys=True)
    except SystemExit:
        pass"""
# `import wavecirc.cli` and the config check every command makes first
CLI = ("import wavecirc.cli; wavecirc.config.resolve({'grid': {'n_qubits': "
       "3, 'length_angstrom': 0.66}, 'potential': {'model': {'kind': "
       "'double_well'}}})")
IMPORTS = {"cli": CLI + THREADS,
           "cli+deferred": CLI + "; wavecirc.lapack.flapack(); "
                                 "import numpy.fft" + THREADS,
           "main": MAIN + THREADS,
           "main:threaded": MAIN + THREADS}
# the environment of a process beyond PYTHONPATH
ENVIRONMENT = {"main:threaded": {"OPENBLAS_NUM_THREADS": str(os.cpu_count())}}
# scipy's LAPACK drivers, as wavecirc loads them and by scipy's package
LOADERS = {"flapack": "lapack.flapack()",
           "scipy.linalg": "import scipy.linalg"}
TIMED = ("import json, time; from wavecirc import lapack; "
         "start = time.perf_counter(); {}; "
         "print(json.dumps({{'in_process_s': time.perf_counter() - start}}))")
# the time steps of the benchmark's grid-map spectrum: 4,001 samples
STEPS = 4000


def quartiles(values):
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": median, "q1": q1, "q3": q3}


# Runs the interpreter `-c argv[1]` and prints its wall time, exit code,
# CPU seconds, peak RSS (KiB on Linux) and output.  A child's ru_maxrss
# starts from the high-water RSS of the process that started it, so the
# measured interpreters are started from this small one (about 8 MB, run
# with -S), not from the tool, which holds numpy and wavecirc.
LAUNCHER = """
import json, os, subprocess, sys, time
start = time.perf_counter()
proc = subprocess.Popen([sys.executable, "-c", sys.argv[1]],
                        stdout=subprocess.PIPE, text=True)
out = proc.stdout.read()
_, status, usage = os.wait4(proc.pid, 0)
print(json.dumps([time.perf_counter() - start,
                  os.waitstatus_to_exitcode(status),
                  usage.ru_utime + usage.ru_stime, usage.ru_maxrss, out]))
"""


def run_once(code, environment=None):
    '''{"wall_s", "cpu_s", "peak_rss_mb", and each key of the JSON
    object on the last line of its output} of one fresh interpreter
    running `code` with this checkout's src/ on its path, without
    OPENBLAS_NUM_THREADS but as `environment` sets it.'''
    env = {k: v for k, v in os.environ.items()
           if k != "OPENBLAS_NUM_THREADS"}
    env.update(environment or {}, PYTHONPATH=str(ROOT / "src"))
    wall, status, cpu, kib, out = json.loads(subprocess.run(
        [sys.executable, "-S", "-c", LAUNCHER, code], env=env,
        capture_output=True, text=True, check=True).stdout)
    if status != 0:
        raise RuntimeError(f"{code!r} exited {status}")
    return {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": kib / 1024,
            **(json.loads(out.splitlines()[-1]) if out else {})}


def process_costs(codes, n_processes):
    '''name -> quartiles of each figure `run_once` gives for
    `n_processes` fresh interpreters running codes[name], the names
    alternating.'''
    runs = {name: [] for name in codes}
    for _ in range(n_processes):
        for name, code in codes.items():
            runs[name].append(run_once(code, ENVIRONMENT.get(name)))
    return {name: {key: quartiles([r[key] for r in rs]) for key in rs[0]}
            for name, rs in runs.items()}


def double_well(n_qubits):
    g = w.build_grid(n_qubits, 0.66)
    return w.build_hamiltonian(g, w.eval_potential(
        g, {"kind": "double_well"}))


def best_of(repeats, fn):
    '''(seconds of the fastest of `repeats` calls of fn, its result).'''
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def write_costs(n_qubits, repeats):
    h = double_well(n_qubits).matrix
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
    ham = double_well(n_qubits)
    psi0 = w.initial_wavepacket(
        w.WavepacketSpec("gaussian", mu=0.0, sigma=0.1), ham.grid)
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


def lstsq_offdiag(block, bits, n):
    '''(j_x, j_y, residual) as extract_offdiag_params fitted them before
    the closed form: one design row per distance-2 element of the upper
    triangle, solved by lstsq at ising.RCOND.'''
    m = np.asarray(block)
    a, b = np.triu_indices(len(bits), 1)
    diff = bits[a] ^ bits[b]
    high = diff & (diff - 1)
    two = (high != 0) & ((high & (high - 1)) == 0)
    elem = m[a, b]
    unmapped_sq = 2 * (np.sum(np.abs(elem[~two]) ** 2)
                       + np.sum(elem[two].imag ** 2))
    bra, diff, high, rhs = bits[a[two]], diff[two], high[two], elem[two].real
    j = np.frexp(diff ^ high)[1] - 1
    k = np.frexp(high)[1] - 1
    s = np.where(((bra >> j) & 1) == ((bra >> k) & 1), 1.0, -1.0)
    upper = np.triu_indices(n, 1)
    npairs = len(upper[0])
    col = np.zeros((n, n), dtype=int)
    col[upper] = np.arange(npairs)
    design = np.zeros((len(rhs), 2 * npairs))
    r = np.arange(len(rhs))
    design[r, col[j, k]] = 1.0
    design[r, npairs + col[j, k]] = -s
    theta = np.linalg.lstsq(design, rhs, rcond=ising.RCOND)[0]
    misfit = np.linalg.norm(design @ theta - rhs)
    j_x, j_y = np.zeros((n, n)), np.zeros((n, n))
    j_x[upper], j_y[upper] = theta[:npairs], theta[npairs:]
    return j_x, j_y, float(np.sqrt(misfit ** 2 + unmapped_sq))


def spin_fit_costs(n_qubits, repeats):
    bh = w.block_transform(double_well(n_qubits))
    pp = w.parity_partition(n_qubits)
    blocks = ((bh.block_plus, pp.even_states), (bh.block_minus, pp.odd_states))
    fits = {"closed_form": w.extract_offdiag_params,
            "lstsq": lstsq_offdiag}
    times, results = {}, {}
    for name, fit in fits.items():
        times[name], results[name] = best_of(
            repeats, lambda: [fit(m, bits, n_qubits) for m, bits in blocks])
    dj = dres = 0.0
    for (m, _), (jx, jy, res), (rx, ry, rres) in zip(
            blocks, results["closed_form"], results["lstsq"]):
        scale = max(np.abs(rx).max(), np.abs(ry).max())
        dj = max(dj, np.abs(jx - rx).max() / scale,
                 np.abs(jy - ry).max() / scale)
        dres = max(dres, abs(res - rres) / np.linalg.norm(m))
    return {"n_qubits": n_qubits, "block_dim": len(pp.even_states),
            **{f"{name}_s": t for name, t in times.items()},
            "residuals": {name: [r[2] for r in rs]
                          for name, rs in results.items()},
            "max_j_diff_over_max": float(dj),
            "max_residual_diff_over_norm": float(dres)}


def build_energy_costs(n_qubits, repeats):
    ham = double_well(n_qubits)
    bh = w.block_transform(ham)
    t_vals, e = best_of(repeats, lambda: givens.eigenvalues(ham, bh))
    t_sys, eig = best_of(repeats, lambda: givens.eigensystem(ham, bh))
    diff = float(np.abs(e - eig.energies).max())
    return {"n_qubits": n_qubits, "block_form": bh.coupling_norm == 0.0,
            "eigenvalues_s": t_vals, "eigensystem_s": t_sys,
            "max_energy_diff_hartree": diff,
            "max_energy_diff_over_max": diff / np.abs(eig.energies).max()}


def band_energy_costs(n_qubits, repeats):
    '''The band and dense eigenvalue solves of one parity block's size
    n = 2^(n_qubits - 1) over a sweep of bandwidths, and at the double
    well's own block.'''
    n = 2 ** (n_qubits - 1)
    rng = np.random.default_rng(0)
    sweep = {}
    with lapack.one_blas_thread():
        for kd in sorted({0, 1} | {n // d for d in (64, 32, 16, 8, 4, 2)}):
            a = rng.normal(size=(n, n))
            a = a + a.T
            i, j = np.indices((n, n))
            a[np.abs(i - j) > kd] = 0
            sweep[kd] = {
                "band_s": best_of(repeats, lambda: lapack.band_eigenvalues(
                    a, kd))[0],
                "dense_s": best_of(repeats,
                                   lambda: np.linalg.eigvalsh(a))[0]}
        block = w.block_transform(double_well(n_qubits)).block_plus
        kd_daf = givens._bandwidth(block)
        daf = {"kd": kd_daf,
               "band_s": best_of(repeats, lambda: lapack.band_eigenvalues(
                   block, kd_daf))[0],
               "dense_s": best_of(repeats,
                                  lambda: np.linalg.eigvalsh(block))[0]}
    # the largest bandwidth up to which the band wins at every one measured
    crossover = None
    for kd, row in sweep.items():
        if row["band_s"] >= row["dense_s"]:
            break
        crossover = kd
    return {"n": n, "band_ratio": givens.BAND_RATIO,
            "rule_max_kd": n // givens.BAND_RATIO, "crossover_kd": crossover,
            "kd": {str(kd): row for kd, row in sweep.items()},
            "daf_block": daf}


def parity_block_costs(n_qubits, repeats):
    sizes = {}
    with lapack.one_blas_thread():
        for n in range(max(2, n_qubits - 4), n_qubits + 1):
            bh = w.block_transform(double_well(n))
            dim = len(bh.block_plus)
            solves = {"eigensolve": lambda: givens.block_eigensolve(bh),
                      "eigenvalues": lambda: givens._solve_blocks(
                          np.linalg.eigvalsh, bh)}
            row = {}
            for way, cutoff in (("in_turn", dim + 1), ("forked", dim)):
                saved, givens.FORK_MIN_DIM = givens.FORK_MIN_DIM, cutoff
                try:
                    for name, solve in solves.items():
                        row[f"{name}_{way}_s"] = best_of(repeats, solve)[0]
                finally:
                    givens.FORK_MIN_DIM = saved
            sizes[dim] = row
    wins = [dim for dim, row in sizes.items()
            if all(row[f"{name}_forked_s"] < row[f"{name}_in_turn_s"]
                   for name in ("eigensolve", "eigenvalues"))]
    # the smallest size from which every larger one wins too
    crossover = None
    for dim in sorted(sizes, reverse=True):
        if dim not in wins:
            break
        crossover = dim
    return {"fork_min_dim": givens.FORK_MIN_DIM, "crossover_dim": crossover,
            "block_dims": {str(dim): row for dim, row in sizes.items()}}


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
        "import": process_costs(IMPORTS, args.processes),
        "loader": process_costs(
            {name: TIMED.format(code) for name, code in LOADERS.items()},
            args.processes),
        "repeats": args.repeats,
        "hamiltonian_csv": write_costs(args.n_qubits, args.repeats),
        "grid_spectrum": spectrum_costs(args.n_qubits, args.repeats),
        "spin_fit": spin_fit_costs(args.n_qubits, args.repeats),
        "build_energies": build_energy_costs(args.n_qubits, args.repeats),
        "band_energies": band_energy_costs(args.n_qubits, args.repeats),
        "parity_blocks": parity_block_costs(args.n_qubits, args.repeats),
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report["import"]))
    print(json.dumps(report["loader"]))
    print(json.dumps(report["hamiltonian_csv"]))
    for name in ("grid_spectrum", "spin_fit", "build_energies",
                 "band_energies", "parity_blocks"):
        print(json.dumps(report[name]))


if __name__ == "__main__":
    main()

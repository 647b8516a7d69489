'''Command-line front end.

Subcommands: build, map, compile, propagate, spectrum, sweep-shots.
compile, like the circuit routes of propagate, spectrum and sweep-shots,
runs its two parity blocks at once in two processes with one BLAS thread
each (`lapack._parity_processes`): the blocks share no data, and two
processes of threaded BLAS would contend for the cores.  So do, from
blocks of givens.FORK_MIN_DIM rows, the eigensolves (build's unless it
uses the band), the exact evolution loop and the grid spectrum.  Run as
`python -m wavecirc` or the `wavecirc` script (`__main__.main`), a
process runs every BLAS call on one thread, unless OPENBLAS_NUM_THREADS
says otherwise.
Exit codes: 0 success, 2 configuration/validation error (a run whose
phases outgrow float64 and a path that cannot be read or written among
them), 3 numerical failure (a non-finite Hamiltonian, evolution or JSON
value among them) or a lost parity-block worker, 4 guarded-precondition
refusal or a run that does not fit in memory.
'''

import argparse
import dataclasses
import errno
import hashlib
import json
import os
import sys
from functools import cached_property

import numpy as np

from .config import MAX_SHOTS, ConfigError, load_config
from .dynamics import (WavepacketSpec, check_reconstruction, densities,
                       evolve, initial_wavepacket, probability_error)
from .givens import (block_eigensolve, block_transform, eigensystem,
                     eigenvalues, parity_partition)
from .grid import DafParams, build_grid, build_hamiltonian, eval_potential
from .ising import (BrokenSymmetryError, check_parity_coupling, map_system,
                    parameters_to_dict)
from .lapack import _parity_processes
from .qasm import write_qasm
from .qsd import NumericalError, cnot_count, cnot_lower_bound, qsd_compile
from .sim import exact_propagator
from .spectra import MIN_SAMPLES, compare_eigendiffs, grid_spectrum

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_REFUSED = 4


class Pipeline:
    '''Everything derivable from one resolved config, built lazily.'''

    def __init__(self, cfg):
        self.cfg = cfg
        g = cfg["grid"]
        self.grid = build_grid(g["n_qubits"], g["length_angstrom"],
                               g["center_angstrom"], g["mass_au"])
        pot = cfg["potential"]
        self.potential = eval_potential(
            self.grid, pot["file"] if "file" in pot else pot["model"])
        daf = cfg["daf"]
        self.ham = build_hamiltonian(
            self.grid, self.potential,
            DafParams(m_daf=daf["m_daf"], sigma_ratio=daf["sigma_ratio"]))

    @cached_property
    def eig(self):
        return eigensystem(self.ham, self.blocks)

    @cached_property
    def blocks(self):
        return block_transform(self.ham)

    def wavepacket(self):
        w = self.cfg["dynamics"]["wavepacket"]
        spec = WavepacketSpec(kind=w["kind"], x0_index=w["x0_index"],
                              mu=w["mu_angstrom"], sigma=w["sigma_angstrom"],
                              temperature=w["temperature_kelvin"])
        return initial_wavepacket(spec, self.grid, self.eig)


def _start(args):
    '''The resolved config and the output path, which every command
    takes first: a directory, or none below a directory (else exit 2,
    before any work, creating nothing).'''
    cfg = load_config(args.config)
    path = args.out or cfg["output_dir"]
    probe = os.path.abspath(path)
    while not os.path.exists(probe):
        probe = os.path.dirname(probe)
    if not os.path.isdir(probe):
        raise NotADirectoryError(errno.ENOTDIR, "Not a directory", probe)
    return cfg, path


def _out_dir(path):
    '''The output directory, created: every command calls it only once
    its work has succeeded, so a refused or failed run leaves none.'''
    os.makedirs(path, exist_ok=True)
    return path


def _write_json(path, obj):
    '''Writes obj as JSON; a non-finite number in it raises
    NumericalError, and nothing is written.'''
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NumericalError(f"{os.path.basename(path)} would hold a "
                             f"non-finite number: {exc}") from exc
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _write_matrix_csv(path, h):
    '''Writes the real 2-D array `h` byte for byte as
    np.savetxt(path, h, delimiter=",") does, quickly when h is a
    symmetric Toeplitz matrix plus a diagonal, as H = K + diag(V) is.

    Entry (i, j) reuses the '%.18e' text of h[0, |i - j|] where its bits
    equal that entry's; the rest (on H, the diagonal) are formatted one
    by one.  Bits, not values, are compared: -0.0 == +0.0, but they
    print differently.'''
    h = np.asarray(h, dtype=float)
    n_rows, n_cols = h.shape
    first = h[:1].ravel()                      # empty when h has no rows
    # index j - i + n_rows - 1 stands for h[0, |j - i|]; offsets past the
    # first row point at a pad slot that never matches
    offset = np.abs(np.arange(1 - n_rows, n_cols))
    unknown = offset >= first.size
    offset[unknown] = first.size
    texts = ["%.18e" % v for v in first.tolist()] + [""]
    ref_text = [texts[k] for k in offset.tolist()]
    ref_bits = np.append(first.view(np.int64), 0)[offset]
    bits = h.view(np.int64)
    with open(path, "w") as fh:
        for i in range(n_rows):
            cols = slice(n_rows - 1 - i, n_rows - 1 - i + n_cols)
            row = ref_text[cols]
            miss = np.flatnonzero((bits[i] != ref_bits[cols]) | unknown[cols])
            for j, v in zip(miss.tolist(), h[i, miss].tolist()):
                row[j] = "%.18e" % v
            fh.write(",".join(row) + "\n")


def _write_manifest(out, cfg, files):
    entries = {}
    for name in files:
        digest = hashlib.sha256()
        with open(os.path.join(out, name), "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                digest.update(block)
        entries[name] = digest.hexdigest()
    _write_json(os.path.join(out, "manifest.json"),
                {"resolved_config": cfg, "outputs": entries})


def _trajectory_csv(path, traj):
    header = ["t_fs"] + [f"rho_{i}" for i in range(traj.rho.shape[1])]
    meta = f"# method={traj.method}"
    if traj.shots is not None:
        meta += f" shots={traj.shots} seed={traj.seed}"
    with open(path, "w") as fh:
        fh.write(meta + "\n")
        fh.write(",".join(header) + "\n")
        for t, row in zip(traj.t_fs, traj.rho):
            fh.write(",".join([f"{t:.6f}"] + [f"{v:.12e}" for v in row]))
            fh.write("\n")


def cmd_build(args):
    cfg, path = _start(args)
    pipe = Pipeline(cfg)
    energies = eigenvalues(pipe.ham, pipe.blocks)
    out = _out_dir(path)
    _write_matrix_csv(os.path.join(out, "hamiltonian.csv"), pipe.ham.matrix)
    np.savetxt(os.path.join(out, "potential.csv"),
               np.column_stack([pipe.grid.points, pipe.potential]),
               delimiter=",", header="x_angstrom,energy_hartree")
    np.savetxt(os.path.join(out, "eigenvalues.csv"), energies,
               delimiter=",", header="energy_hartree")
    _write_manifest(out, cfg, ["hamiltonian.csv", "potential.csv",
                               "eigenvalues.csv"])
    print(f"built N={pipe.grid.n_qubits} Hamiltonian; "
          f"E0={energies[0]:.10f} Ha")
    return EXIT_OK


def cmd_map(args):
    cfg, path = _start(args)
    pipe = Pipeline(cfg)
    m = cfg["mapping"]
    msys = map_system(pipe.blocks, parity_partition(pipe.grid.n_qubits),
                      force=args.force or m["force"],
                      threshold_ratio=m["threshold_ratio"])
    report = {
        "coupling_norm": pipe.blocks.coupling_norm,
        "even": parameters_to_dict(msys.even),
        "odd": parameters_to_dict(msys.odd),
        "reconstruction_error": {"even": msys.recon_error_even,
                                 "odd": msys.recon_error_odd},
    }
    out = _out_dir(path)
    _write_json(os.path.join(out, "ising_parameters.json"), report)
    _write_manifest(out, cfg, ["ising_parameters.json"])
    print(f"mapped blocks; reconstruction error even={msys.recon_error_even:.3e}"
          f" odd={msys.recon_error_odd:.3e}")
    return EXIT_OK


def cmd_compile(args):
    cfg, path = _start(args)
    nb = cfg["grid"]["n_qubits"] - 1
    if nb < 1:
        raise ConfigError("compile needs grid.n_qubits >= 2: the parity "
                          "blocks of a 1-qubit grid are 1x1")
    pipe = Pipeline(cfg)
    # the block circuits drop the coupling: refuse it as map does
    m = cfg["mapping"]
    check_parity_coupling(pipe.blocks, m["threshold_ratio"], m["force"])
    solved = block_eigensolve(pipe.blocks)

    def compiled(eig, name):
        u = exact_propagator(eig, args.time_fs)
        tree = qsd_compile(u)
        if args.check:
            check_reconstruction(tree, u, f" in the {name} block")
        return tree
    # both blocks at once, the odd one in a forked worker that returns its
    # tree; both are compiled (and checked) before any file is written
    trees = dict(zip(("even", "odd"), _parity_processes(
        lambda: compiled(solved.plus, "even"),
        lambda: compiled(solved.minus, "odd"))))
    out = _out_dir(path)
    files = []
    for name, tree in trees.items():
        fname = f"propagator_{name}.qasm"
        write_qasm(tree, os.path.join(out, fname))
        files.append(fname)
    summary = {"cnot_formula": cnot_count(nb),
               "cnot_lower_bound": cnot_lower_bound(nb),
               "blocks": {name: tree.counts() for name, tree in trees.items()}}
    _write_json(os.path.join(out, "gate_counts.json"), summary)
    files.append("gate_counts.json")
    _write_manifest(out, cfg, files)
    print(f"compiled {nb}-qubit block propagators at t={args.time_fs} fs; "
          f"CNOTs per block: {summary['blocks']['even'].get('cx', 0)}")
    return EXIT_OK


def _integer_at_least(minimum, maximum=None):
    '''argparse type: an integer >= minimum (and <= maximum, if given),
    refused at parse time.'''
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < minimum \
                or maximum is not None and value > maximum:
            bound = "" if maximum is None else f" and <= {maximum}"
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {minimum}{bound}, got {text!r}")
        return value
    return parse


def _finite_float(text):
    '''argparse type: a finite float, refused at parse time.'''
    try:
        value = float(text)
    except ValueError:
        value = None
    if value is None or not np.isfinite(value):
        raise argparse.ArgumentTypeError(
            f"expected a finite number, got {text!r}")
    return value


def _shot_counts(text):
    '''argparse type: comma-separated shot counts, bounded as the
    config's dynamics.shots.'''
    return [_integer_at_least(1, MAX_SHOTS)(s) for s in text.split(",")]


def _seed(args, cfg):
    '''--seed when given, else the config's dynamics.seed.'''
    return cfg["dynamics"]["seed"] if args.seed is None else args.seed


def _evolve(pipe, method):
    '''Evolution of the configured wavepacket along `method`'s route,
    from the cached blocks `pipe.blocks` and eigensystem `pipe.eig`.
    When the parity blocks couple, `evolve` refuses every route but the
    classical one, unless mapping.force.  An array of the Evolution with
    a non-finite entry raises NumericalError, before anything is
    written.'''
    dyn, m = pipe.cfg["dynamics"], pipe.cfg["mapping"]
    evo = evolve(method, pipe.ham, pipe.wavepacket(), dyn["dt_fs"],
                 dyn["steps"], blocks=pipe.blocks, eig=pipe.eig,
                 force=m["force"], threshold_ratio=m["threshold_ratio"])
    for field in dataclasses.fields(evo):
        x = getattr(evo, field.name)
        # a finite sum shows every entry finite without a boolean copy
        if isinstance(x, np.ndarray) and not np.isfinite(x.sum()) \
                and not np.isfinite(x).all():
            raise NumericalError(f"the {method} evolution has non-finite "
                                 f"values in {field.name}")
    return evo


def _propagate(pipe, seed, min_samples=1):
    '''The configured route's Trajectory and, off the classical route,
    its epsilon against the classical reference (else None).  Refuses,
    before evolving, a run of fewer than `min_samples` time samples.'''
    dyn = pipe.cfg["dynamics"]
    if dyn["method"] == "circuit-shots" and dyn.get("shots") is None:
        raise ConfigError("method circuit-shots needs dynamics.shots")
    if dyn["steps"] + 1 < min_samples:
        raise ConfigError(
            f"a spectrum needs at least {min_samples} time samples "
            f"(dynamics.steps >= {min_samples - 1}), got dynamics.steps = "
            f"{dyn['steps']}")
    evo = _evolve(pipe, dyn["method"])
    traj = densities(evo, shots=dyn.get("shots"), seed=seed)
    if traj.method == "classical":
        return traj, None
    return traj, probability_error(traj, evo.reference_trajectory())


def _write_epsilon(out, traj, eps):
    _write_json(os.path.join(out, "epsilon.json"),
                {"method": traj.method, "epsilon": eps,
                 "shots": traj.shots, "seed": traj.seed})


def cmd_propagate(args):
    cfg, path = _start(args)
    traj, eps = _propagate(Pipeline(cfg), _seed(args, cfg))
    out = _out_dir(path)
    _trajectory_csv(os.path.join(out, "trajectory.csv"), traj)
    files = ["trajectory.csv"]
    if eps is not None:
        _write_epsilon(out, traj, eps)
        files.append("epsilon.json")
        print(f"propagated ({traj.method}); epsilon vs classical = {eps:.3e}")
    else:
        print("propagated (classical)")
    _write_manifest(out, cfg, files)
    return EXIT_OK


def cmd_spectrum(args):
    cfg, path = _start(args)
    pipe = Pipeline(cfg)
    traj, eps = _propagate(pipe, _seed(args, cfg), min_samples=MIN_SAMPLES)
    sp = cfg["spectrum"]
    spectrum = grid_spectrum(traj, window=None if sp["window"] == "none"
                             else sp["window"], padding=sp["padding"],
                             threshold=sp["peak_threshold"])
    table = compare_eigendiffs(spectrum, pipe.eig)
    out = _out_dir(path)
    np.savetxt(os.path.join(out, "spectrum.csv"),
               np.column_stack([spectrum.omega_cm1, spectrum.power]),
               delimiter=",", header="omega_cm1,intensity")
    _write_json(os.path.join(out, "peaks.json"),
                {"bin_cm1": spectrum.bin_cm1, "peaks": table})
    files = ["spectrum.csv", "peaks.json"]
    if eps is not None:
        _write_epsilon(out, traj, eps)
        files.append("epsilon.json")
    _write_manifest(out, cfg, files)
    print(f"extracted {len(spectrum.peaks)} peaks; "
          f"bin = {spectrum.bin_cm1:.2f} cm^-1")
    return EXIT_OK


def cmd_sweep_shots(args):
    cfg, path = _start(args)
    pipe = Pipeline(cfg)
    shot_counts = args.shots
    base = _seed(args, cfg)
    seeds = [base + k for k in range(args.n_seeds)]
    # the compiled states and the reference are deterministic: evolve
    # once, then only resample per (shots, seed)
    evo = _evolve(pipe, "circuit-shots")
    ref = evo.reference_trajectory()
    rows = [{"shots": s, "seed": seed,
             "epsilon": probability_error(densities(evo, s, seed), ref)}
            for s in shot_counts for seed in seeds]
    medians = {}
    for s in shot_counts:
        medians[str(s)] = float(np.median(
            [r["epsilon"] for r in rows if r["shots"] == s]))
    out = _out_dir(path)
    _write_json(os.path.join(out, "shot_sweep.json"),
                {"results": rows, "median_epsilon": medians})
    _write_manifest(out, cfg, ["shot_sweep.json"])
    for s in shot_counts:
        print(f"shots={s}: median epsilon = {medians[str(s)]:.3e}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="wavecirc",
        description="Grid wavepacket dynamics compiled to quantum circuits")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="JSON run config")
        p.add_argument("--out", help="output directory (default from config)")
        p.add_argument("--seed", type=_integer_at_least(0), default=None,
                       help="sampling seed (default: the config's "
                       "dynamics.seed)")

    p = sub.add_parser("build", help="grid Hamiltonian and its eigenvalues")
    common(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("map", help="spin-model parameter extraction")
    common(p)
    p.add_argument("--force", action="store_true",
                   help="map even when the parity blocks are coupled")
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("compile", help="compile block propagators to QASM")
    common(p)
    p.add_argument("--time-fs", type=_finite_float, default=1.0,
                   help="propagation time of the compiled unitary")
    p.add_argument("--check", action="store_true",
                   help="verify gate-product reconstruction <= 1e-9")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("propagate", help="density trajectory")
    common(p)
    p.set_defaults(func=cmd_propagate)

    p = sub.add_parser("spectrum", help="trajectory + Fourier analysis")
    common(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("sweep-shots", help="shot-noise error sweep")
    common(p)
    p.add_argument("--shots", type=_shot_counts,
                   default="1000,10000,100000,1000000",
                   help="comma-separated shot counts")
    p.add_argument("--n-seeds", type=_integer_at_least(1), default=20)
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted for existing command lines and ignored; "
                   "the sweep evolves once and resamples that evolution")
    p.set_defaults(func=cmd_sweep_shots)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenSymmetryError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except (NumericalError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ChildProcessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    # ConfigError, and an unusable --config, --out or potential.file
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        print(f"refused: out of memory: {exc}", file=sys.stderr)
        return EXIT_REFUSED


if __name__ == "__main__":
    sys.exit(main())

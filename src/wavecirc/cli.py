'''Command-line front end.

Subcommands: build, map, compile, propagate, spectrum, sweep-shots.
Exit codes: 0 success, 2 configuration/validation error, 3 numerical
failure or a lost parity-block worker, 4 guarded-precondition refusal.
'''

import argparse
import hashlib
import json
import os
import sys
from functools import cached_property

import numpy as np

from . import units
from .config import ConfigError, load_config
from .dynamics import (WavepacketSpec, densities, evolve, initial_wavepacket,
                       probability_error)
from .givens import block_eigensolve, block_transform, parity_partition
from .grid import (DafParams, build_grid, build_hamiltonian, eigensolve,
                   eval_potential)
from .ising import BrokenSymmetryError, map_system, parameters_to_dict
from .qasm import write_qasm
from .qsd import NumericalError, cnot_count, cnot_lower_bound, qsd_compile
from .sim import circuit_matrix, exact_propagator
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
        if "file" in pot:
            source = pot["file"]
        else:
            model = dict(pot["model"])
            source = _model_source(model)
        self.potential = eval_potential(self.grid, source)
        daf = cfg["daf"]
        self.ham = build_hamiltonian(
            self.grid, self.potential,
            DafParams(m_daf=daf["m_daf"], sigma_ratio=daf["sigma_ratio"]))

    @cached_property
    def eig(self):
        # exactly decoupled parity blocks: two half-size eigenproblems
        if self.blocks.coupling_norm == 0.0:
            return block_eigensolve(self.blocks)
        return eigensolve(self.ham)

    @cached_property
    def partition(self):
        return parity_partition(self.grid.n_qubits)

    @cached_property
    def blocks(self):
        return block_transform(self.ham)

    def mapped(self, force=False):
        m = self.cfg["mapping"]
        return map_system(self.blocks, self.partition,
                          force=force or m["force"],
                          threshold_ratio=m["threshold_ratio"])

    def wavepacket(self):
        w = self.cfg["dynamics"]["wavepacket"]
        spec = WavepacketSpec(kind=w["kind"], x0_index=w["x0_index"],
                              mu=w["mu_angstrom"], sigma=w["sigma_angstrom"],
                              temperature=w["temperature_kelvin"])
        return initial_wavepacket(spec, self.grid, self.eig)


def _model_source(model):
    kind = model.pop("kind")
    out = {"kind": kind}
    out.update(model)
    return out


def _out_dir(cfg, args):
    path = args.out or cfg["output_dir"]
    os.makedirs(path, exist_ok=True)
    return path


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(out, cfg, files):
    entries = {}
    for name in files:
        with open(os.path.join(out, name), "rb") as fh:
            entries[name] = hashlib.sha256(fh.read()).hexdigest()
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


def read_trajectory_csv(path):
    with open(path) as fh:
        meta = fh.readline().strip()
        fh.readline()
        data = np.loadtxt(fh, delimiter=",")
    method = meta.split("method=")[1].split()[0]
    return data[:, 0], data[:, 1:], method


def cmd_build(args):
    cfg = load_config(args.config)
    pipe = Pipeline(cfg)
    out = _out_dir(cfg, args)
    np.savetxt(os.path.join(out, "hamiltonian.csv"), pipe.ham.matrix,
               delimiter=",")
    np.savetxt(os.path.join(out, "potential.csv"),
               np.column_stack([pipe.grid.points, pipe.potential.values]),
               delimiter=",", header="x_angstrom,energy_hartree")
    np.savetxt(os.path.join(out, "eigenvalues.csv"), pipe.eig.energies,
               delimiter=",", header="energy_hartree")
    _write_manifest(out, cfg, ["hamiltonian.csv", "potential.csv",
                               "eigenvalues.csv"])
    print(f"built N={pipe.grid.n_qubits} Hamiltonian; "
          f"E0={pipe.eig.energies[0]:.10f} Ha")
    return EXIT_OK


def cmd_map(args):
    cfg = load_config(args.config)
    pipe = Pipeline(cfg)
    out = _out_dir(cfg, args)
    msys = pipe.mapped(force=args.force)
    report = {
        "coupling_norm": pipe.blocks.coupling_norm,
        "even": parameters_to_dict(msys.even),
        "odd": parameters_to_dict(msys.odd),
        "reconstruction_error": {"even": msys.recon_error_even,
                                 "odd": msys.recon_error_odd},
    }
    _write_json(os.path.join(out, "ising_parameters.json"), report)
    _write_manifest(out, cfg, ["ising_parameters.json"])
    print(f"mapped blocks; reconstruction error even={msys.recon_error_even:.3e}"
          f" odd={msys.recon_error_odd:.3e}")
    return EXIT_OK


def cmd_compile(args):
    cfg = load_config(args.config)
    nb = cfg["grid"]["n_qubits"] - 1
    if nb < 1:
        raise ConfigError("compile needs grid.n_qubits >= 2: the parity "
                          "blocks of a 1-qubit grid are 1x1")
    pipe = Pipeline(cfg)
    # compile (and check) both blocks before writing any file
    seqs = {}
    for name, block in (("even", pipe.blocks.block_plus),
                        ("odd", pipe.blocks.block_minus)):
        u = exact_propagator(block, args.time_fs)
        seqs[name] = qsd_compile(u)
        if args.check:
            err = np.abs(circuit_matrix(seqs[name]) - u).max()
            if err > 1e-9:
                print(f"reconstruction error {err:.3e} exceeds 1e-9",
                      file=sys.stderr)
                return EXIT_NUMERICAL
    out = _out_dir(cfg, args)
    files = []
    for name, seq in seqs.items():
        fname = f"propagator_{name}.qasm"
        write_qasm(seq, os.path.join(out, fname))
        files.append(fname)
    summary = {"cnot_formula": cnot_count(nb),
               "cnot_lower_bound": cnot_lower_bound(nb),
               "blocks": {name: seq.counts() for name, seq in seqs.items()}}
    _write_json(os.path.join(out, "gate_counts.json"), summary)
    files.append("gate_counts.json")
    _write_manifest(out, cfg, files)
    print(f"compiled {nb}-qubit block propagators at t={args.time_fs} fs; "
          f"CNOTs per block: {summary['blocks']['even'].get('cx', 0)}")
    return EXIT_OK


def _integer_at_least(minimum):
    '''argparse type: an integer >= minimum, refused at parse time.'''
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < minimum:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {minimum}, got {text!r}")
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
    return [_integer_at_least(1)(s) for s in text.split(",")]


def _seed(args, cfg):
    '''--seed when given, else the config's dynamics.seed.'''
    return cfg["dynamics"]["seed"] if args.seed is None else args.seed


def _evolve(pipe, method):
    '''Evolution of the configured wavepacket along `method`'s route,
    with the reference through the cached eigensystem `pipe.eig`.  When
    the parity blocks couple, the circuit routes are refused by `evolve`
    and the ising route by map_system, unless mapping.force.'''
    dyn = pipe.cfg["dynamics"]
    kwargs = {}
    if method != "classical":
        if method == "ising":
            msys = pipe.mapped()
            blocks = (msys.block_even, msys.block_odd)
        else:
            blocks = (pipe.blocks.block_plus, pipe.blocks.block_minus)
        m = pipe.cfg["mapping"]
        kwargs = dict(partition=pipe.partition, blocks=blocks,
                      force=m["force"], threshold_ratio=m["threshold_ratio"])
    return evolve(method, pipe.ham, pipe.wavepacket(), dyn["dt_fs"],
                  dyn["steps"], eig=pipe.eig, **kwargs)


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
    cfg = load_config(args.config)
    pipe = Pipeline(cfg)
    out = _out_dir(cfg, args)
    traj, eps = _propagate(pipe, _seed(args, cfg))
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
    cfg = load_config(args.config)
    pipe = Pipeline(cfg)
    out = _out_dir(cfg, args)
    traj, eps = _propagate(pipe, _seed(args, cfg), min_samples=MIN_SAMPLES)
    sp = cfg["spectrum"]
    spectrum = grid_spectrum(traj, window=None if sp["window"] == "none"
                             else sp["window"], padding=sp["padding"],
                             threshold=sp["peak_threshold"])
    np.savetxt(os.path.join(out, "spectrum.csv"),
               np.column_stack([spectrum.omega_cm1, spectrum.power]),
               delimiter=",", header="omega_cm1,intensity")
    table = compare_eigendiffs(spectrum, pipe.eig)
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
    cfg = load_config(args.config)
    pipe = Pipeline(cfg)
    out = _out_dir(cfg, args)
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

    p = sub.add_parser("build", help="grid Hamiltonian and eigensystem")
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
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BrokenSymmetryError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except (NumericalError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ChildProcessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

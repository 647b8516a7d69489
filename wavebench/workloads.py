'''The four benchmark workloads: their inputs, made from a seed, the
wavecirc commands that run them, and the checks of every output.

A workload is a list of Commands.  Each command is one `wavecirc`
subcommand with its own output directory; its check reads that
directory and returns a list of problems (empty when the output is
right).  Checks compare the outputs with the independent computations
in reference.py and run outside the timed region.
'''

import hashlib
import json
import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import eigh, expm

import reference as ref

# The paper's model: a proton in a quartic double well with a 2 kcal/mol
# barrier and minima at +-0.15 Angstrom, on L = 0.66 Angstrom, started as
# a Gaussian of sigma 0.1 Angstrom centred on the barrier.
MODEL = {"length_angstrom": 0.66, "barrier_kcal": 2.0,
         "minimum_angstrom": 0.15, "mu_angstrom": 0.0,
         "sigma_angstrom": 0.1}

# Only eigenstates populated at least this much beat in the density,
# looked for among the lowest LOW_LEVELS.
MIN_POPULATION = 1e-5
LOW_LEVELS = 64
# A measured epsilon or median may sit this far (relative) from the
# multinomial floor; the scatter of the mean over a run is under 2%.
FLOOR_TOL = 0.1


def wavecirc_config(n_qubits, dynamics=None, spectrum=None):
    '''A wavecirc run config for the paper's model at n_qubits.'''
    cfg = {
        "grid": {"n_qubits": n_qubits,
                 "length_angstrom": MODEL["length_angstrom"],
                 "mass": "proton"},
        "potential": {"model": {
            "kind": "double_well",
            "barrier_kcal": MODEL["barrier_kcal"],
            "minimum_angstrom": MODEL["minimum_angstrom"]}},
        "dynamics": {"wavepacket": {
            "kind": "gaussian", "mu_angstrom": MODEL["mu_angstrom"],
            "sigma_angstrom": MODEL["sigma_angstrom"]}},
    }
    cfg["dynamics"].update(dynamics or {})
    if spectrum:
        cfg["spectrum"] = spectrum
    return cfg


@dataclass
class Command:
    '''One wavecirc subcommand: argv after `wavecirc`, without --config
    and --out, which the runner adds.'''
    argv: list
    check: object          # callable(out_dir) -> list of problems


@dataclass
class Workload:
    config: dict           # the wavecirc run config all commands share
    commands: list


class Model:
    '''The benchmark's own Hamiltonian, wavepacket and eigensystem at
    one grid size, computed once per run.'''

    def __init__(self, n_qubits):
        self.params = dict(MODEL, n_qubits=n_qubits)

    @cached_property
    def h(self):
        return ref.hamiltonian(self.params)

    @cached_property
    def psi0(self):
        return ref.gaussian(self.params)

    @cached_property
    def low_eig(self):
        '''The lowest LOW_LEVELS eigenpairs; the Gaussian puts less than
        1e-6 of its weight above them.'''
        top = min(LOW_LEVELS, len(self.h)) - 1
        return eigh(self.h, subset_by_index=[0, top])

    def beat_lines(self):
        return ref.beat_lines_cm1(*self.low_eig, self.psi0, MIN_POPULATION)

    def evolve(self, dt_fs, steps):
        return ref.evolve(self.h, self.psi0, dt_fs, steps)


def read_json(out, name):
    with open(os.path.join(out, name)) as fh:
        return json.load(fh)


def check_manifest(out):
    '''manifest.json lists every other file with its SHA-256.'''
    try:
        listed = read_json(out, "manifest.json")["outputs"]
    except (OSError, ValueError, KeyError) as exc:
        return [f"manifest.json unreadable: {exc}"]
    problems = []
    present = sorted(f for f in os.listdir(out) if f != "manifest.json")
    if sorted(listed) != present:
        problems.append(f"manifest lists {sorted(listed)}, "
                        f"directory holds {present}")
    for name, digest in listed.items():
        path = os.path.join(out, name)
        if not os.path.exists(path):
            continue
        with open(path, "rb") as fh:
            if hashlib.sha256(fh.read()).hexdigest() != digest:
                problems.append(f"manifest hash of {name} does not match")
    return problems


def guarded(check):
    '''Run a check; a missing or malformed output is a problem, not a
    crash of the benchmark.'''
    def run(out):
        try:
            return check_manifest(out) + check(out)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"{type(exc).__name__}: {exc}"]
    return run


def peak_problems(peaks, lines, tol_cm1, label):
    problems = []
    for p in peaks:
        miss = float(np.abs(lines - p["peak_cm1"]).min())
        if not miss <= tol_cm1:
            problems.append(f"{label} peak at {p['peak_cm1']:.2f} cm^-1 is "
                            f"{miss:.2f} cm^-1 from every beat line "
                            f"(tolerance {tol_cm1:.2f})")
    return problems


def floor_problem(measured, floor, label):
    if not abs(measured / floor - 1) <= FLOOR_TOL:
        return [f"{label} {measured:.4e} is off the multinomial floor "
                f"{floor:.4e} by more than {FLOOR_TOL:.0%}"]
    return []


# ---------------------------------------------------------------- workloads

def circuit_spectrum(seed, n_qubits=6, steps=400, dt_fs=1.0, shots=1000):
    '''`spectrum` with circuit-shots: per-step QSD circuits on both parity
    blocks, multinomial sampling, then the Fourier spectrum.'''
    model = Model(n_qubits)
    bin_cm1 = ref.spectrum_bin_cm1(dt_fs, steps)

    def check(out):
        problems = []
        eps = read_json(out, "epsilon.json")
        if (eps["method"], eps["shots"], eps["seed"]) != \
                ("circuit-shots", shots, seed):
            problems.append(f"epsilon.json records method {eps['method']}, "
                            f"shots {eps['shots']}, seed {eps['seed']}")
        floor = ref.shot_floor(model.evolve(dt_fs, steps), shots)
        problems += floor_problem(eps["epsilon"], floor, "epsilon")
        pk = read_json(out, "peaks.json")
        if not abs(pk["bin_cm1"] / bin_cm1 - 1) <= 1e-9:
            problems.append(f"bin {pk['bin_cm1']} cm^-1, expected {bin_cm1}")
        strongest = sorted(pk["peaks"], key=lambda p: -p["intensity"])[:3]
        if len(strongest) < 3:
            problems.append(f"only {len(strongest)} peaks reported")
        problems += peak_problems(strongest, model.beat_lines(), bin_cm1,
                                  "strongest")
        return problems

    config = wavecirc_config(
        n_qubits,
        {"dt_fs": dt_fs, "steps": steps, "method": "circuit-shots",
         "shots": shots},
        {"window": "hann"})
    return Workload(config, [
        Command(["spectrum", "--seed", str(seed)], guarded(check))])


def shot_sweep(seed, n_qubits=5, steps=100, dt_fs=0.25,
               shots=(1000, 1000000), n_seeds=5):
    '''`sweep-shots` over two shot counts and n_seeds seeds in one
    process (--jobs 1).'''
    model = Model(n_qubits)

    def check(out):
        problems = []
        sweep = read_json(out, "shot_sweep.json")
        got = sorted((r["shots"], r["seed"]) for r in sweep["results"])
        want = sorted((s, seed + k) for s in shots for k in range(n_seeds))
        if got != want:
            problems.append(f"sweep ran (shots, seed) {got}, expected {want}")
        psi_t = model.evolve(dt_fs, steps)
        medians = [sweep["median_epsilon"][str(s)] for s in shots]
        for s, med in zip(shots, medians):
            problems += floor_problem(med, ref.shot_floor(psi_t, s),
                                      f"median epsilon at {s} shots")
        slope = math.log(medians[-1] / medians[0]) \
            / math.log(shots[-1] / shots[0])
        if not abs(slope + 0.5) <= 0.03:
            problems.append(f"log-log slope {slope:.4f}, expected -0.5")
        return problems

    config = wavecirc_config(
        n_qubits,
        {"dt_fs": dt_fs, "steps": steps, "method": "circuit-shots",
         "shots": shots[0]})
    argv = ["sweep-shots", "--seed", str(seed),
            "--shots", ",".join(str(s) for s in shots),
            "--n-seeds", str(n_seeds), "--jobs", "1"]
    return Workload(config, [Command(argv, guarded(check))])


def grid_map(seed, n_qubits=11, steps=4000, dt_fs=0.5):
    '''`build`, `map`, then a classical `spectrum` on a large grid.'''
    model = Model(n_qubits)
    half_bin = ref.spectrum_bin_cm1(dt_fs, steps) / 2
    kcal_cm1 = ref.HARTREE_CM1 / ref.HARTREE_KCALMOL

    def check_build(out):
        h = np.loadtxt(os.path.join(out, "hamiltonian.csv"), delimiter=",")
        scale = np.abs(model.h).max()
        if h.shape != model.h.shape or \
                not np.abs(h - model.h).max() <= 1e-12 * scale:
            return ["hamiltonian.csv differs from the reference "
                    "DAF Hamiltonian"]
        e = np.loadtxt(os.path.join(out, "eigenvalues.csv"), delimiter=",")
        e_ref = eigh(h, eigvals_only=True)
        if e.shape != e_ref.shape or \
                not np.abs(e - e_ref).max() <= 1e-11 * scale:
            return ["eigenvalues.csv differs from eigvalsh of "
                    "hamiltonian.csv"]
        return []

    def check_map(out):
        problems = []
        rep = read_json(out, "ising_parameters.json")
        norm = np.linalg.norm(model.h)
        if not rep["coupling_norm"] <= 1e-12 * norm:
            problems.append(f"coupling norm {rep['coupling_norm']:.3e} above "
                            f"1e-12 ||H|| = {1e-12 * norm:.3e} on a "
                            "reflection-symmetric surface")
        for label, block, states in zip(("even", "odd"),
                                        ref.parity_blocks(model.h),
                                        ref.parity_order(n_qubits)):
            want = ref.diagonal_fit_residual(np.diagonal(block), states,
                                             n_qubits)
            got = rep[label]["residuals"]["diagonal"]
            if not abs(got - want) <= 1e-9 * max(want, 1.0):
                problems.append(f"{label} diagonal residual {got!r}, "
                                f"least squares gives {want!r}")
        return problems

    def check_spectrum(out):
        pk = read_json(out, "peaks.json")
        if not pk["peaks"]:
            return ["no peaks reported"]
        return peak_problems(pk["peaks"], model.beat_lines(),
                             min(half_bin, kcal_cm1), "reported")

    config = wavecirc_config(
        n_qubits, {"dt_fs": dt_fs, "steps": steps, "method": "classical"},
        {"window": "hann"})
    s = ["--seed", str(seed)]
    return Workload(config, [
        Command(["build"] + s, guarded(check_build)),
        Command(["map"] + s, guarded(check_map)),
        Command(["spectrum"] + s, guarded(check_spectrum))])


def compile_check(seed, n_qubits=8, n_times=4, n_states=4):
    '''`compile --check` of both parity-block propagators at n_times
    propagation times drawn from the seed.'''
    rng = np.random.default_rng(seed)
    times = rng.uniform(0.25, 2.0, n_times).round(6)
    model = Model(n_qubits)
    nb = n_qubits - 1
    law = ref.cnot_law(nb)
    x = rng.normal(size=(2 ** nb, n_states)) \
        + 1j * rng.normal(size=(2 ** nb, n_states))

    def check_at(t_fs):
        def check(out):
            problems = []
            counts = read_json(out, "gate_counts.json")
            if counts["cnot_formula"] != law:
                problems.append(f"cnot_formula {counts['cnot_formula']}, "
                                f"law gives {law}")
            for label, block in zip(("even", "odd"),
                                    ref.parity_blocks(model.h)):
                if counts["blocks"][label].get("cx") != law:
                    problems.append(f"{label} block reports "
                                    f"{counts['blocks'][label].get('cx')} "
                                    f"CNOTs, law gives {law}")
                with open(os.path.join(out, f"propagator_{label}.qasm")) as fh:
                    nq, phase, gates = ref.parse_qasm(fh.read())
                n_cx = sum(g[0] == "cx" for g in gates)
                if nq != nb or n_cx != law:
                    problems.append(f"{label} QASM has {nq} qubits and "
                                    f"{n_cx} CNOTs, expected {nb} and {law}")
                    continue
                y = ref.apply_qasm(nq, phase, gates, x)
                u = expm(-1j * block * (t_fs * ref.FS_AU))
                err = float(np.abs(y - u @ x).max())
                if not err <= 1e-9:
                    problems.append(f"{label} QASM at t={t_fs} fs misses "
                                    f"exp(-iHt) by {err:.3e}")
            return problems
        return guarded(check)

    config = wavecirc_config(n_qubits)
    return Workload(config, [
        Command(["compile", "--seed", str(seed), "--time-fs", repr(float(t)),
                 "--check"], check_at(float(t)))
        for t in times])


WORKLOADS = {
    "circuit-spectrum": circuit_spectrum,
    "shot-sweep": shot_sweep,
    "grid-map": grid_map,
    "compile-check": compile_check,
}

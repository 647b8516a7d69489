'''Initial wavepackets, propagation drivers and the density error
metric.

Three propagation routes produce grid-density trajectories from the
same initial state: exact evolution under the grid Hamiltonian
("classical"), evolution under the reassembled spin-model blocks
("ising"), and per-step compiled circuits for each parity block
("circuit-exact" / "circuit-shots").  Propagation is two steps: the
deterministic `evolve` (reference and route amplitudes) and `densities`
(exact or seeded shot densities), so shot resamplings share one
evolution.

The circuit routes compile one circuit per time step and parity block,
a chunk of steps at a time: the chunk's exact propagators are one
batched product, compiled by one stacked `qsd_compile` call and run by
one lockstep `run_circuit` call.  A fixed byte budget on the stack
(CHUNK_BYTES) sets the chunk size, so memory does not grow with the
step count, and each chunk is checked against exact block evolution.
'''

from dataclasses import dataclass

import numpy as np

from . import units
from .grid import eigensolve
from .givens import block_transform, to_mapped_basis, from_mapped_basis
from .ising import check_parity_coupling
from .qsd import NumericalError, qsd_compile
from .sim import run_circuit, sample_shots, mapped_density_to_grid


@dataclass(frozen=True)
class WavepacketSpec:
    '''Initial state selector.

    kind "delta": unit amplitude at grid index x0_index (the donor-side
    endpoint by default); "gaussian": sampled exp(-(x-mu)^2 / 2 sigma^2);
    "thermal": normalized sum_j exp(-E_j / kT) chi_j.
    '''
    kind: str
    x0_index: int = 0
    mu: float = 0.0        # Angstrom
    sigma: float = 0.1     # Angstrom
    temperature: float = 300.0  # Kelvin


@dataclass(frozen=True)
class Trajectory:
    '''Time series of grid probability densities.'''
    t_fs: np.ndarray
    rho: np.ndarray          # shape (steps+1, 2^N)
    method: str
    dx: float                # grid spacing, Angstrom
    shots: int = None
    seed: object = None


def initial_wavepacket(spec, grid, eig=None):
    '''Grid-basis amplitudes for the requested wavepacket, normalized.'''
    n = grid.n_points
    if spec.kind == "delta":
        if not 0 <= spec.x0_index < n:
            raise ValueError("x0_index outside the grid")
        psi = np.zeros(n)
        psi[spec.x0_index] = 1.0
    elif spec.kind == "gaussian":
        if spec.sigma <= 0:
            raise ValueError("sigma must be positive")
        x = grid.points
        psi = np.exp(-(x - spec.mu) ** 2 / (2 * spec.sigma ** 2))
    elif spec.kind == "thermal":
        if eig is None:
            raise ValueError("thermal wavepacket needs the eigensystem")
        if spec.temperature <= 0:
            raise ValueError("temperature must be positive")
        kt = units.KB_HARTREE * spec.temperature
        e = eig.energies - eig.energies[0]
        w = np.exp(-e / kt)
        psi = eig.states @ w
    else:
        raise ValueError(f"unknown wavepacket kind {spec.kind!r}")
    return psi / np.linalg.norm(psi)


# Byte budget of one time chunk of the exact reference, (rows, dim)
# complex eigenbasis coefficients: 8 MiB is 256 steps at N = 11.  The
# working set beyond the returned trajectory is a few chunks and does not
# grow with the step count.
REFERENCE_CHUNK_BYTES = 1 << 23


def evolve_exact(ham_or_eig, psi0, dt_fs, steps):
    '''Amplitude trajectory under exp(-i H t); shape (steps+1, dim).

    The steps are filled in time chunks of REFERENCE_CHUNK_BYTES.  Real
    eigenvectors (a real symmetric H) take two real products per chunk,
    one for the real and one for the imaginary part of the coefficients,
    instead of a complex product on a complex copy of the eigenvectors.
    Complex eigenvectors (a complex Hermitian H) project psi0 with their
    conjugate and take one complex product per chunk.
    '''
    eig = ham_or_eig if hasattr(ham_or_eig, "energies") \
        else eigensolve(ham_or_eig)
    vt = eig.states.T
    psi0 = np.asarray(psi0, dtype=complex)
    real = not np.iscomplexobj(vt)
    c0 = vt @ psi0.real + 1j * (vt @ psi0.imag) if real \
        else vt.conj() @ psi0
    t_au = units.fs_to_au(dt_fs) * np.arange(steps + 1)
    out = np.empty((steps + 1, len(c0)), dtype=complex)
    rows = max(1, REFERENCE_CHUNK_BYTES // (16 * len(c0)))
    for start in range(0, steps + 1, rows):
        chunk = slice(start, start + rows)
        coef = -1j * np.outer(t_au[chunk], eig.energies)
        np.exp(coef, out=coef)
        coef *= c0
        if real:
            out[chunk].real = np.ascontiguousarray(coef.real) @ vt
            out[chunk].imag = np.ascontiguousarray(coef.imag) @ vt
        else:
            out[chunk] = coef @ vt
    return out


def _per_block(evolve_block, block_even, block_odd, psi0_map, partition,
               dt_fs, steps):
    '''Evolve each parity component with `evolve_block(block, comp0,
    dt_fs, steps)`; returns mapped-basis amplitudes, shape
    (steps+1, 2^N).'''
    out = np.empty((steps + 1, 2 * partition.half), dtype=complex)
    for states, block in ((partition.even_states, block_even),
                          (partition.odd_states, block_odd)):
        out[:, states] = evolve_block(block, psi0_map[states], dt_fs, steps)
    return out


def _block_evolve(block_even, block_odd, psi0_map, partition, dt_fs, steps):
    '''Evolve the two parity components exactly under the given block
    matrices; returns mapped-basis amplitudes, shape (steps+1, 2^N).'''
    return _per_block(evolve_exact, block_even, block_odd, psi0_map,
                      partition, dt_fs, steps)


def _circuit_evolve(block_even, block_odd, psi0_map, partition, dt_fs, steps):
    '''Per-step compiled propagation: each U(t_s) of each parity block is
    compiled to gates and run on the block component.'''
    return _per_block(_compiled_evolve, block_even, block_odd, psi0_map,
                      partition, dt_fs, steps)


# Byte budget of the stack of exact propagators compiled together,
# S 4^n complex numbers: 256 KiB is 16 steps of a 5-qubit block.  The
# compile's level arrays are the same size as the stack, so the budget
# bounds the working set whatever the step count.
CHUNK_BYTES = 1 << 18

# compiled circuit against exact block evolution, as in `compile --check`
CIRCUIT_TOL = 1e-9


def _chunk_steps(dim):
    '''Time steps compiled together for a block of dimension `dim`.'''
    return max(1, CHUNK_BYTES // (16 * dim * dim))


def _compiled_evolve(block, comp0, dt_fs, steps):
    '''Amplitudes (steps+1, dim) of comp0 under one compiled circuit per
    step.  Steps go in chunks of `_chunk_steps(dim)`: the exact
    propagators of a chunk are one batched product, compiled by one
    qsd_compile call and run in lockstep by one run_circuit call.  Each
    chunk's circuit amplitudes are checked against U_s comp0
    (NumericalError above CIRCUIT_TOL).'''
    eig = eigensolve(block)
    dim = len(comp0)
    out = np.empty((steps + 1, dim), dtype=complex)
    out[0] = comp0
    energies = -1j * eig.energies
    chunk = _chunk_steps(dim)
    for start in range(1, steps + 1, chunk):
        s = np.arange(start, min(start + chunk, steps + 1))
        t_au = units.fs_to_au(s * dt_fs)
        u = (eig.states * np.exp(energies * t_au[:, None])[:, None]) \
            @ eig.states.T
        exact = u @ comp0
        if dim == 1:
            out[s] = exact
            continue
        cols = np.repeat(comp0[:, None], len(s), axis=1)
        amps = run_circuit(cols, qsd_compile(u)).T
        err = np.abs(amps - exact).max()
        if not err <= CIRCUIT_TOL:
            raise NumericalError(
                f"compiled circuits miss the exact block evolution by "
                f"{err:.3e} (> {CIRCUIT_TOL:g}) at t = {s[0] * dt_fs:g}.."
                f"{s[-1] * dt_fs:g} fs")
        out[s] = amps
    return out


@dataclass(frozen=True)
class Evolution:
    '''The deterministic part of a propagation, shared by every shot
    resampling: the time axis, the exact grid amplitudes of the classical
    reference and, for the ising and circuit routes, the mapped-basis
    amplitudes of the route.'''
    method: str
    t_fs: np.ndarray
    dx: float
    reference: np.ndarray        # grid amplitudes, shape (steps+1, 2^N)
    states: np.ndarray = None    # mapped-basis amplitudes, same shape
    gmap: object = None
    partition: object = None

    def reference_trajectory(self):
        '''The classical density Trajectory, |reference|^2.'''
        return Trajectory(t_fs=self.t_fs, rho=np.abs(self.reference) ** 2,
                          method="classical", dx=self.dx)


def evolve(method, ham, psi0, dt_fs, steps, gmap=None, partition=None,
           blocks=None, eig=None, force=False, threshold_ratio=1e-8):
    '''Evolve psi0 along the route of `method`; returns an Evolution.

    The classical reference is exact evolution under `ham` (through `eig`,
    its eigensystem, when given).  method "ising": block evolution under
    `blocks` = (even, odd) spin block matrices (e.g.
    MappedSystem.block_even/odd).  method "circuit-exact" /
    "circuit-shots": per-step compiled circuits for `blocks` = the rotated
    Hamiltonian blocks in parity order; these drop the coupling between
    the parity blocks of `ham`, so they refuse with BrokenSymmetryError,
    unless `force`, when it exceeds threshold_ratio * ||H||_F.
    '''
    if method not in ("classical", "ising", "circuit-exact",
                      "circuit-shots"):
        raise ValueError(f"unknown method {method!r}")
    if dt_fs <= 0:
        raise ValueError("dt_fs must be positive")
    if method != "classical" and (gmap is None or partition is None
                                  or blocks is None):
        raise ValueError(f"method {method!r} needs gmap, partition, blocks")
    if method in ("circuit-exact", "circuit-shots"):
        check_parity_coupling(block_transform(ham, gmap), threshold_ratio,
                              force)
    psi0 = np.asarray(psi0, dtype=complex)
    t_fs = dt_fs * np.arange(steps + 1)
    ref = evolve_exact(ham if eig is None else eig, psi0, dt_fs, steps)
    states = None
    if method != "classical":
        psi0_map = to_mapped_basis(psi0, gmap, partition)
        route = _block_evolve if method == "ising" else _circuit_evolve
        states = route(blocks[0], blocks[1], psi0_map, partition, dt_fs,
                       steps)
    return Evolution(method=method, t_fs=t_fs, dx=ham.grid.dx, reference=ref,
                     states=states, gmap=gmap, partition=partition)


def densities(evo, shots=None, seed=None):
    '''Density Trajectory of an Evolution.  Shot mode ("circuit-shots")
    samples `shots` measurements per step from streams spawned from
    `seed`, with the classical amplitudes as the pair-split reference.'''
    if evo.method == "classical":
        return evo.reference_trajectory()
    if evo.method == "circuit-shots":
        if shots is None:
            raise ValueError("circuit-shots needs a shot count")
        rho = shot_density_trajectory(evo.states, evo.reference, evo.gmap,
                                      evo.partition, shots, seed)
        return Trajectory(t_fs=evo.t_fs, rho=rho, method=evo.method,
                          dx=evo.dx, shots=int(shots), seed=seed)
    rho = np.abs(from_mapped_basis(evo.states, evo.gmap, evo.partition)) ** 2
    return Trajectory(t_fs=evo.t_fs, rho=rho, method=evo.method, dx=evo.dx)


def propagate(method, ham, psi0, dt_fs, steps, gmap=None, partition=None,
              blocks=None, shots=None, seed=None, force=False,
              threshold_ratio=1e-8):
    '''Produce a density Trajectory: `evolve`, then `densities`.'''
    evo = evolve(method, ham, psi0, dt_fs, steps, gmap=gmap,
                 partition=partition, blocks=blocks, force=force,
                 threshold_ratio=threshold_ratio)
    return densities(evo, shots=shots, seed=seed)


def shot_density_trajectory(mapped_states, reference_states, gmap, partition,
                            shots, seed):
    '''Sample each mapped state and transport the empirical densities to
    the grid with the reference pair-split.  Per-step draws are
    independent streams spawned from one seed.'''
    ss = np.random.SeedSequence(seed)
    children = ss.spawn(len(mapped_states))
    rho = np.empty((len(mapped_states), mapped_states.shape[1]))
    for s, (state, child) in enumerate(zip(mapped_states, children)):
        res = sample_shots(state, shots, child)
        rho[s] = mapped_density_to_grid(res.probabilities, gmap, partition,
                                        reference=reference_states[s])
    return rho


def probability_error(traj_q, traj_c):
    '''Time- and grid-averaged absolute density difference.'''
    if traj_q.rho.shape != traj_c.rho.shape:
        raise ValueError("trajectories have different shapes")
    if not np.allclose(traj_q.t_fs, traj_c.t_fs):
        raise ValueError("trajectories have different time axes")
    return float(np.mean(np.abs(traj_q.rho - traj_c.rho)))

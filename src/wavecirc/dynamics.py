'''Initial wavepackets, propagation drivers and the density error
metric.

Three propagation routes produce grid-density trajectories from the
same initial state: exact evolution under the grid Hamiltonian
("classical"), evolution under the reassembled spin-model blocks
("ising"), and per-step compiled circuits for each parity block
("circuit-exact" / "circuit-shots").  Propagation is two steps: the
deterministic `evolve` (the reference and the route's density, or on
circuit-shots the compiled amplitudes) and `densities` (that density, or
seeded shot densities), so shot resamplings share one evolution.  The
reference's eigensystem follows one rule (`givens.eigensystem`) in the
library and the CLI.

The classical reference comes from one exact evolution loop
(`_exact_chunks`), in time chunks of a fixed byte budget
(REFERENCE_CHUNK_BYTES).  On a reflection-symmetric surface the
eigensystem is a BlockEigenSystem: each chunk is evolved by the two
half-size parity blocks in the pair basis and rotated to the grid on
its own.  The ising route runs on the same loop: its spin blocks are
block-diagonal in the pair basis, so their eigensystems form a
BlockEigenSystem.  `evolve` keeps only real densities (and, for
circuit-shots, the half-size pair cross term the shot transport needs),
never a complex grid trajectory; `evolve_exact` returns the amplitudes
from the same loop.

The circuit routes compile one circuit per time step and parity block,
a chunk of steps at a time: the chunk's exact propagators are one
batched product, compiled by one stacked `qsd_compile` call and run by
one lockstep `run_circuit` call.  A fixed byte budget on the stack
(CHUNK_BYTES) sets the chunk size, so memory does not grow with the
step count, and each chunk is checked against exact block evolution:
its circuits' matrices against its propagators, and its amplitudes
against the exactly evolved state.

The two parity blocks share no data until their amplitudes are put back
together, so the circuit routes evolve them at once in two processes:
the even block here and the odd block in one worker forked for the
call, each writing its columns into one shared array (`_circuit_evolve`).
From parity blocks of givens.FORK_MIN_DIM rows (N >= 10) the exact loop
runs by time halves the same way, writing rows (`_exact_rows`).
`lapack._parity_processes` runs such pairs of calls, with one BLAS
thread in each process: two processes of two OpenBLAS threads each on
two cores slow each other down.  Where `os.fork` is missing, or another
Python thread is running, the two calls run in turn, with the same bits.
'''

from dataclasses import dataclass, replace

import numpy as np

from . import givens, units
from .grid import eigensolve
from .givens import (BlockEigenSystem, _pair_cross, _rotate_pairs,
                     block_eigensolve, block_transform, eigensystem,
                     parity_partition, to_mapped_basis)
from .ising import check_parity_coupling, map_system
from .lapack import _parity_processes
from .qsd import NumericalError, qsd_compile
from .sim import (_check_phases, _split_pairs, circuit_matrix,
                  exact_propagator, run_circuit, sample_shots)


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
        # sum_j exp(-(E_j - E_0) / kT) chi_j, block by block
        kt = units.KB_HARTREE * spec.temperature
        blocks, pair = _eigen_blocks(eig)
        psi = np.concatenate([x @ np.exp(-(e - eig.energies[0]) / kt)
                              for e, x in blocks])
        if pair:
            psi = _rotate_pairs(psi)
    else:
        raise ValueError(f"unknown wavepacket kind {spec.kind!r}")
    norm = np.linalg.norm(psi)
    if not norm > 0:
        raise ValueError(f"the {spec.kind} wavepacket has zero norm on the "
                         "grid")
    return psi / norm


# Byte budget of one time chunk of the exact evolution, (rows, dim)
# complex eigenbasis coefficients: 8 MiB is 256 steps at N = 11.  The
# phase table is one chunk more, and the working set beyond the returned
# trajectory or density is a few chunks; it does not grow with the step
# count.
REFERENCE_CHUNK_BYTES = 1 << 23


def _eigen_blocks(eig):
    '''The diagonal blocks (energies, eigenvectors) of the eigenvector
    matrix of `eig`, and whether they act on the pair basis: the two
    parity blocks of a BlockEigenSystem, else one block on the grid.'''
    if isinstance(eig, BlockEigenSystem):
        return ((eig.plus.energies, eig.plus.states),
                (eig.minus.energies, eig.minus.states)), True
    return ((eig.energies, eig.states),), False


def _chunk_rows(dim, steps):
    '''Time steps in a chunk of the exact loop at dimension `dim`.'''
    return min(steps + 1, max(1, REFERENCE_CHUNK_BYTES // (16 * dim)))


def _exact_chunks(eig, psi0, dt_fs, steps, chunks=slice(None)):
    '''The exact evolution loop: psi0 (grid amplitudes) under
    exp(-i H t) at t = s dt_fs, s = 0..steps, through the eigensystem
    `eig`, in the slice `chunks` of its time chunks of `_chunk_rows`
    steps.  Yields (rows, re, im): the real and imaginary amplitudes of
    the steps in the slice `rows`, on the basis of the eigenvectors (the
    pair basis for a BlockEigenSystem, else the grid).  They are views of
    buffers that the next chunk overwrites.

    psi0 is projected once.  A chunk's phases exp(-iE t) are
    W[k] exp(-iE t_start), from one table W = exp(-iE k dt) of a chunk's
    rows built once per call.  Each block of real eigenvectors (a real
    symmetric H) takes two real products per chunk, one for the real and
    one for the imaginary part of its coefficients; complex eigenvectors
    (a complex Hermitian H) project psi0 with their conjugate and take
    one complex product.  Before the first chunk, a run whose largest
    phase max|E| t (atomic units) is finite and at least 2^52 rad raises
    ValueError (see `sim._check_phases`).
    '''
    blocks, pair = _eigen_blocks(eig)
    dt_au = units.fs_to_au(dt_fs)
    _check_phases(max(np.abs(e).max(initial=0) for e, _ in blocks),
                  dt_fs * steps, "dynamics.dt_fs * dynamics.steps")
    psi0 = np.asarray(psi0, dtype=complex)
    if pair:
        psi0 = _rotate_pairs(psi0)
    parts, c0, first = [], [], 0
    for energies, x in blocks:
        cols = slice(first, first + len(energies))
        first = cols.stop
        xt, p = x.T, psi0[cols]
        c0.append(xt.conj() @ p if np.iscomplexobj(xt)
                  else xt @ p.real + 1j * (xt @ p.imag))
        parts.append((cols, xt))
    c0 = np.concatenate(c0)
    energies = np.concatenate([e for e, _ in blocks])
    dim = len(energies)
    rows = _chunk_rows(dim, steps)
    table = np.outer(dt_au * np.arange(rows), -1j * energies)
    np.exp(table, out=table)
    # one set of chunk buffers, overwritten by every chunk
    coef = np.empty_like(table)
    re, im = np.empty((rows, dim)), np.empty((rows, dim))
    for start in range(0, steps + 1, rows)[chunks]:
        n = min(rows, steps + 1 - start)
        np.multiply(table[:n], c0 * np.exp(-1j * (dt_au * start) * energies),
                    out=coef[:n])
        for cols, xt in parts:
            c = coef[:n, cols]
            if np.iscomplexobj(xt):
                z = c @ xt
                re[:n, cols], im[:n, cols] = z.real, z.imag
            else:
                np.matmul(c.real, xt, out=re[:n, cols])
                np.matmul(c.imag, xt, out=im[:n, cols])
        yield slice(start, start + n), re[:n], im[:n]


def _pair_density(re, im, out):
    '''The grid density |G (re + i im)|^2 of pair-basis amplitudes,
    along the last axis, written into `out`.'''
    g = _rotate_pairs(re)
    np.multiply(g, g, out=out)
    del g
    g = _rotate_pairs(im)
    g *= g
    out += g


def _exact_rows(eig, psi0, dt_fs, steps, widths, fill):
    '''Float arrays of shape (steps+1, w), w in `widths`, in one buffer,
    filled by fill(arrays, rows, re, im) for each chunk of
    `_exact_chunks`: by time halves in two processes into a shared buffer
    from parity blocks of givens.FORK_MIN_DIM rows and two chunks, with
    the same products and bits as in one.'''
    def arrays(buf):
        cuts = np.cumsum(widths[:-1]) * (steps + 1)
        return [a.reshape(steps + 1, -1) for a in np.split(buf, cuts)]

    def part(chunks):
        def run(buf):
            out = arrays(buf)
            for rows, re, im in _exact_chunks(eig, psi0, dt_fs, steps,
                                              chunks):
                fill(out, rows, re, im)
        return run
    dim, size = len(eig.energies), (steps + 1) * sum(widths)
    n_chunks = len(range(0, steps + 1, _chunk_rows(dim, steps)))
    if dim // 2 >= givens.FORK_MIN_DIM and n_chunks >= 2:
        half = slice((n_chunks + 1) // 2)
        buf = _parity_processes(part(half), part(slice(half.stop, None)),
                                shape=size)
    else:
        buf = np.empty(size)
        part(slice(None))(buf)
    return arrays(buf)


def evolve_exact(ham_or_eig, psi0, dt_fs, steps):
    '''Amplitude trajectory under exp(-i H t); shape (steps+1, dim).

    `ham_or_eig` is a Hamiltonian, its EigenSystem or its
    BlockEigenSystem; the steps come from the one exact evolution loop
    (`_exact_rows`), and a block eigensystem's chunks are rotated to the
    grid one chunk at a time.
    '''
    eig = ham_or_eig if hasattr(ham_or_eig, "energies") \
        else eigensolve(ham_or_eig)
    _, pair = _eigen_blocks(eig)

    def fill(out, rows, re, im):
        z = out[0][rows].view(complex)
        z.real = _rotate_pairs(re) if pair else re
        z.imag = _rotate_pairs(im) if pair else im
    out, = _exact_rows(eig, psi0, dt_fs, steps, [2 * len(eig.energies)],
                       fill)
    return out.view(complex)


def _exact_reference(eig, psi0, dt_fs, steps, cross):
    '''The classical reference of `evolve`, or the ising route's density,
    from the exact evolution loop through `eig` (`_exact_rows`): the
    grid density, shape (steps+1, 2^N), and, when `cross`, the pair
    cross term of the amplitudes (`givens._pair_cross`), shape
    (steps+1, 2^(N-1)); else None.  Only one chunk of amplitudes exists
    at a time.'''
    _, pair = _eigen_blocks(eig)
    dim = len(eig.energies)

    def fill(out, rows, re, im):
        if not pair:    # grid amplitudes: to the pair basis, as in block form
            re, im = _rotate_pairs(re), _rotate_pairs(im)
        if cross:
            out[1][rows] = _pair_cross(re, im)
        _pair_density(re, im, out[0][rows])
    rho, *pc = _exact_rows(eig, psi0, dt_fs, steps,
                           [dim, dim // 2][:1 + bool(cross)], fill)
    return rho, (pc[0] if cross else None)


def _mapped_density(states, partition):
    '''The grid density of mapped-basis amplitudes (steps+1, 2^N),
    |from_mapped_basis(states)|^2, a time chunk of REFERENCE_CHUNK_BYTES
    at a time.'''
    rho = np.empty(states.shape)
    rows = max(1, REFERENCE_CHUNK_BYTES // (16 * states.shape[1]))
    for start in range(0, len(states), rows):
        phi = states[start:start + rows][:, partition.order]
        _pair_density(phi.real, phi.imag, rho[start:start + rows])
    return rho


def _circuit_evolve(even, odd, psi0_map, partition, dt_fs, steps):
    '''Per-step compiled propagation: each U(t_s) of each parity block,
    from the block's EigenSystem (`even`, `odd`), is compiled to gates
    and run on the block component; returns mapped-basis amplitudes,
    shape (steps+1, 2^N).

    The two blocks run at once in two processes with one BLAS thread
    each (`_parity_processes`), each writing its amplitudes into its
    columns of the result in shared memory: the whole run holds the
    result plus each process's chunk working set.
    '''
    evens, odds = partition.even_states, partition.odd_states

    def block(eig, states):
        return lambda out: _compiled_evolve(eig, psi0_map[states], dt_fs,
                                            steps, out, states)
    return _parity_processes(block(even, evens), block(odd, odds),
                             shape=(steps + 1, 2 * partition.half),
                             dtype=complex)


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


def check_reconstruction(tree, u, where=""):
    '''NumericalError when the matrices of the QsdTree `tree` miss the
    exact block propagators `u` (one, or a stack of one per circuit) by
    more than CIRCUIT_TOL in any entry; `where` ends the message.'''
    err = np.abs(circuit_matrix(tree) - u).max()
    if not err <= CIRCUIT_TOL:
        raise NumericalError(
            f"compiled circuits miss the exact block evolution: "
            f"reconstruction error {err:.3e} (> {CIRCUIT_TOL:g}){where}")


def _compiled_evolve(eig, comp0, dt_fs, steps, out=None,
                     states=slice(None)):
    '''Amplitudes (steps+1, dim) of comp0 under one compiled circuit per
    step of the block whose EigenSystem is `eig`, written into
    `out[:, states]` and returning `out` (a new (steps+1, dim) array when
    `out` is None).  Steps go in chunks of `_chunk_steps(dim)`: the exact
    propagators of a chunk come from one exact_propagator call, are
    compiled by one qsd_compile call and run in lockstep by one
    run_circuit call.  Each chunk's circuits are checked whole against
    its propagators, and their amplitudes against U_s comp0
    (NumericalError above CIRCUIT_TOL): comp0 alone can miss an error,
    as on a block that holds almost none of the state.'''
    dim = len(comp0)
    if out is None:
        out = np.empty((steps + 1, dim), dtype=complex)
    out[0, states] = comp0
    chunk = _chunk_steps(dim)
    for start in range(1, steps + 1, chunk):
        s = np.arange(start, min(start + chunk, steps + 1))
        rows = slice(s[0], s[-1] + 1)
        u = exact_propagator(eig, s * dt_fs)
        exact = u @ comp0
        if dim == 1:
            out[rows, states] = exact
            continue
        tree = qsd_compile(u)
        where = f" at t = {s[0] * dt_fs:g}..{s[-1] * dt_fs:g} fs"
        check_reconstruction(tree, u, where)
        cols = np.repeat(comp0[:, None], len(s), axis=1)
        amps = run_circuit(cols, tree).T
        err = np.abs(amps - exact).max()
        if not err <= CIRCUIT_TOL:
            raise NumericalError(
                f"compiled circuits miss the exact block evolution by "
                f"{err:.3e} (> {CIRCUIT_TOL:g}){where}")
        out[rows, states] = amps
    return out


@dataclass(frozen=True)
class Evolution:
    '''The deterministic part of a propagation, shared by every shot
    resampling: the time axis, the grid density of the classical
    reference and, on circuit-shots, the reference's pair cross term and
    the mapped-basis amplitudes of the compiled circuits, which the shot
    sampler draws from.  Every other route keeps only its density `rho`
    (on the classical route, the reference density itself).  No complex
    grid trajectory is kept.'''
    method: str
    t_fs: np.ndarray
    dx: float
    reference_rho: np.ndarray    # classical density, shape (steps+1, 2^N)
    pair_cross: np.ndarray = None   # circuit-shots: (steps+1, 2^(N-1))
    states: np.ndarray = None    # circuit-shots: mapped-basis, (steps+1, 2^N)
    rho: np.ndarray = None       # the route's density, (steps+1, 2^N)

    def reference_trajectory(self):
        '''The classical density Trajectory.'''
        return Trajectory(t_fs=self.t_fs, rho=self.reference_rho,
                          method="classical", dx=self.dx)


def evolve(method, ham, psi0, dt_fs, steps, blocks=None, eig=None,
           force=False, threshold_ratio=1e-8):
    '''Evolve psi0 along the route of `method`; returns an Evolution.

    The classical reference is exact evolution under `ham` through
    `eig`, its EigenSystem or BlockEigenSystem; when None, `eig` is
    givens.eigensystem(ham, blocks), as the CLI's.  It is kept as its
    grid density and, for circuit-shots, its pair cross term.  `blocks`
    is the BlockHamiltonian of `ham` (block_transform(ham) when None and
    needed), in the parity basis of the grid's N qubits.  The other
    routes drop the coupling between the parity blocks: they refuse
    with BrokenSymmetryError, unless `force`, when it exceeds
    threshold_ratio * ||H||_F.  method "ising": the spin blocks that
    map_system fits to `blocks`, each eigensolved once, evolved by the
    reference's exact loop in block form.  method "circuit-exact" /
    "circuit-shots": per-step compiled circuits for the blocks, from
    `eig.plus`/`eig.minus` when `eig` is a BlockEigenSystem, else from
    block_eigensolve(blocks); each block is eigensolved at most once, in
    this process below givens.FORK_MIN_DIM rows (the odd block in a
    forked child from there).  The circuit routes evolve the odd block in
    a child process forked for the call (joined before returning), and
    from FORK_MIN_DIM rows the exact loop its second time half,
    unless another Python thread is running here; an error there is
    raised here, and a child that dies without a result raises
    ChildProcessError.
    '''
    if method not in ("classical", "ising", "circuit-exact",
                      "circuit-shots"):
        raise ValueError(f"unknown method {method!r}")
    if dt_fs <= 0:
        raise ValueError("dt_fs must be positive")
    if not isinstance(steps, (int, np.integer)) or steps < 0:
        raise ValueError(f"steps must be an integer >= 0, got {steps!r}")
    partition = parity_partition(ham.grid.n_qubits)
    if blocks is None and (method != "classical" or eig is None):
        blocks = block_transform(ham)
    if method == "ising":
        spin = map_system(blocks, partition, force, threshold_ratio)
    elif method != "classical":
        check_parity_coupling(blocks, threshold_ratio, force)
    eig = eigensystem(ham, blocks) if eig is None else eig
    psi0 = np.asarray(psi0, dtype=complex)
    ref, cross = _exact_reference(eig, psi0, dt_fs, steps,
                                  cross=method == "circuit-shots")
    rho, states = ref, None
    if method == "ising":   # block_eigensolve reads only the blocks
        rho, _ = _exact_reference(block_eigensolve(replace(
            blocks, block_plus=spin.block_even, block_minus=spin.block_odd)),
            psi0, dt_fs, steps, cross=False)
    elif method != "classical":
        solved = eig if isinstance(eig, BlockEigenSystem) \
            else block_eigensolve(blocks)
        rho, states = None, _circuit_evolve(
            solved.plus, solved.minus, to_mapped_basis(psi0, partition),
            partition, dt_fs, steps)
        if method == "circuit-exact":
            rho, states = _mapped_density(states, partition), None
    return Evolution(method=method, t_fs=dt_fs * np.arange(steps + 1),
                     dx=ham.grid.dx, reference_rho=ref, pair_cross=cross,
                     states=states, rho=rho)


def densities(evo, shots=None, seed=None):
    '''Density Trajectory of an Evolution: on circuit-shots, `shots`
    measurements per step sampled from streams spawned from `seed`, split
    between mirror pairs by the reference's cross term; on every other
    route, the density that `evolve` formed.'''
    if evo.method != "circuit-shots":
        return Trajectory(t_fs=evo.t_fs, rho=evo.rho, method=evo.method,
                          dx=evo.dx)
    if shots is None:
        raise ValueError("circuit-shots needs a shot count")
    partition = parity_partition(evo.states.shape[1].bit_length() - 1)
    rho = shot_density_trajectory(evo.states, evo.pair_cross, partition,
                                  shots, seed)
    return Trajectory(t_fs=evo.t_fs, rho=rho, method=evo.method, dx=evo.dx,
                      shots=int(shots), seed=seed)


def propagate(method, ham, psi0, dt_fs, steps, shots=None, seed=None,
              force=False, threshold_ratio=1e-8):
    '''Produce a density Trajectory: `evolve`, which derives the parity
    blocks and the eigensystems from `ham` as the CLI does, then
    `densities`.  The circuit routes fork one child process per call,
    and blocks of givens.FORK_MIN_DIM rows or more one for their
    eigensolve and each exact loop of two chunks or more (see `evolve`).'''
    evo = evolve(method, ham, psi0, dt_fs, steps, force=force,
                 threshold_ratio=threshold_ratio)
    return densities(evo, shots=shots, seed=seed)


def shot_density_trajectory(mapped_states, pair_cross, partition, shots,
                            seed):
    '''Sample each mapped state and transport the empirical densities to
    the grid, mirror pair i split by pair_cross[s, i], the reference's
    cross term at step s (`Evolution.pair_cross`; see
    `mapped_density_to_grid`).  Per-step draws are independent streams
    spawned from one seed.'''
    ss = np.random.SeedSequence(seed)
    children = ss.spawn(len(mapped_states))
    rho = np.empty((len(mapped_states), mapped_states.shape[1]))
    for s, (state, child) in enumerate(zip(mapped_states, children)):
        res = sample_shots(state, shots, child)
        rho[s] = _split_pairs(res.probabilities, partition, pair_cross[s])
    return rho


def probability_error(traj_q, traj_c):
    '''Time- and grid-averaged absolute density difference.'''
    if traj_q.rho.shape != traj_c.rho.shape:
        raise ValueError("trajectories have different shapes")
    if not np.allclose(traj_q.t_fs, traj_c.t_fs):
        raise ValueError("trajectories have different time axes")
    return float(np.mean(np.abs(traj_q.rho - traj_c.rho)))

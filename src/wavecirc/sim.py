'''Statevector execution of gate sequences, exact eigendecomposition
propagators, and seeded shot sampling.

A compiled stack of circuits runs in lockstep: the amplitudes hold one
column per circuit, and each block applies every circuit's angles in
one vectorised step.  `circuit_matrix` runs the same kernels on the
identity.

The sampler uses numpy's Generator with the PCG64 bit generator; the
seed is recorded in every ShotResult so runs are bit-exact
reproducible.
'''

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import units
from .grid import NuclearHamiltonian, EigenSystem, eigensolve
from .givens import _check_dim, _rotate_pairs
from .qsd import Gate, Multiplexor, ZyzLeaf


@dataclass(frozen=True)
class ShotResult:
    '''Counts from measuring a state in the computational basis.'''
    shots: int
    counts: np.ndarray
    seed: object

    @property
    def probabilities(self):
        return self.counts / self.shots


def exact_propagator(ham, t_fs, eig=None):
    '''U(t) = X exp(-i E t) X^T from the eigendecomposition of a real
    symmetric Hamiltonian (Hartree, time in femtoseconds).'''
    if eig is None:
        eig = ham if isinstance(ham, EigenSystem) else eigensolve(ham)
    t_au = units.fs_to_au(t_fs)
    phases = np.exp(-1j * eig.energies * t_au)
    return (eig.states * phases) @ eig.states.T


def _apply_gate(amp, gate, n):
    '''Apply one gate in place to amplitudes of shape (2^n, ...).
    Axis 0 indexes the basis state (qubit q is bit q of the index);
    trailing axes are batch dimensions.'''
    if gate.kind == "phase":
        amp *= np.exp(1j * gate.angle)
        return amp
    dim = amp.shape[0]
    batch = amp.shape[1:]
    t = gate.target
    if gate.kind == "cx":
        c = gate.control
        if c > t:
            # axes: (high, bit c, mid, bit t, low) + batch
            b = amp.reshape((dim >> (c + 1), 2, 1 << (c - t - 1), 2,
                             1 << t) + batch)
            tmp = b[:, 1, :, 0].copy()
            b[:, 1, :, 0] = b[:, 1, :, 1]
            b[:, 1, :, 1] = tmp
        else:
            # axes: (high, bit t, mid, bit c, low) + batch
            b = amp.reshape((dim >> (t + 1), 2, 1 << (t - c - 1), 2,
                             1 << c) + batch)
            tmp = b[:, 0, :, 1].copy()
            b[:, 0, :, 1] = b[:, 1, :, 1]
            b[:, 1, :, 1] = tmp
        return amp
    a = amp.reshape((dim >> (t + 1), 2, 1 << t) + batch)
    lo, hi = a[:, 0], a[:, 1]
    if gate.kind == "ry":
        co, si = np.cos(gate.angle / 2), np.sin(gate.angle / 2)
        new_lo = co * lo - si * hi
        new_hi = si * lo + co * hi
        a[:, 0], a[:, 1] = new_lo, new_hi
    elif gate.kind == "rz":
        ph = np.exp(-0.5j * gate.angle)
        a[:, 0] = ph * lo
        a[:, 1] = np.conj(ph) * hi
    else:
        raise ValueError(f"unknown gate kind {gate.kind!r}")
    return amp


@lru_cache(maxsize=None)
def _select_index(n, target, controls):
    '''Control value of every amplitude pair of `target`, laid out as
    the (high, low) axes of _apply_gate's reshape.'''
    high = np.arange(1 << (n - target - 1))[:, None] << (target + 1)
    idx = high | np.arange(1 << target)
    sel = np.zeros_like(idx)
    for j, c in enumerate(controls):
        sel |= ((idx >> c) & 1) << j
    sel.flags.writeable = False
    return sel


def _apply_multiplexor(amp, mux, n):
    '''Apply all gates of a Multiplexor in one pass: a diagonal phase
    for rz, paired 2x2 rotations for ry.  The last axis of `amp` indexes
    the circuits of the stack (or is broadcast over for one circuit).'''
    t = mux.target
    a = amp.reshape(amp.shape[0] >> (t + 1), 2, 1 << t, -1, len(mux.theta))
    angle = mux.select_angles()[_select_index(n, t, mux.controls)][:, :, None]
    lo, hi = a[:, 0], a[:, 1]
    if mux.kind == "ry":
        co, si = np.cos(angle / 2), np.sin(angle / 2)
        a[:, 0], a[:, 1] = co * lo - si * hi, si * lo + co * hi
    else:
        ph = np.exp(-0.5j * angle)
        a[:, 0] = ph * lo
        a[:, 1] = np.conj(ph) * hi
    return amp


def _apply_leaf(amp, leaf, n):
    '''Apply the three rotations of a ZyzLeaf as one 2x2 matrix per
    circuit.'''
    m = leaf.matrix()
    a = amp.reshape(amp.shape[0] >> (leaf.target + 1), 2, -1, len(m))
    lo, hi = a[:, 0], a[:, 1]
    a[:, 0], a[:, 1] = (m[:, 0, 0] * lo + m[:, 0, 1] * hi,
                        m[:, 1, 0] * lo + m[:, 1, 1] * hi)
    return amp


_APPLY = {Gate: _apply_gate, Multiplexor: _apply_multiplexor,
          ZyzLeaf: _apply_leaf}


def run_circuit(psi, seq):
    '''Apply a gate sequence to a state vector (or a batch of column
    vectors) and return the evolved amplitudes.

    A stack of S circuits runs in lockstep: the last axis of `psi` must
    have length S, and slice [..., i] goes through circuit i.  Compiled
    blocks (Multiplexor, ZyzLeaf) are applied as the exact product of
    their gates in one vectorised step for every circuit at once;
    applying their gates one by one with _apply_gate gives the same
    result to rounding.
    '''
    psi = np.array(psi, dtype=complex)
    n, s = seq.n_qubits, seq.n_circuits
    if psi.shape[0] != 2 ** n:
        raise ValueError("state dimension does not match the circuit")
    if s > 1 and (psi.ndim < 2 or psi.shape[-1] != s):
        raise ValueError(f"a stack of {s} circuits needs {s} amplitude "
                         "columns on the last axis")
    for block in seq.blocks:
        psi = _APPLY[type(block)](psi, block, n)
    return psi


def circuit_matrix(seq):
    '''Dense matrix realized by a gate sequence (including phase); a
    stack of S circuits gives shape (S, 2^n, 2^n).'''
    eye = np.eye(2 ** seq.n_qubits, dtype=complex)
    if seq.n_circuits == 1:
        return run_circuit(eye, seq)
    eye = np.repeat(eye[:, :, None], seq.n_circuits, axis=2)
    return np.moveaxis(run_circuit(eye, seq), 2, 0)


def sample_shots(psi, shots, seed):
    '''Multinomial measurement sampling of |psi_i|^2.'''
    if shots < 1:
        raise ValueError("shots must be >= 1")
    p = np.abs(np.asarray(psi)) ** 2
    p = p / p.sum()
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(shots, p)
    return ShotResult(shots=int(shots), counts=counts, seed=seed)


def mapped_density_to_grid(probabilities, gmap, partition, reference=None):
    '''Transport a computational-basis probability vector to the grid.

    Probabilities alone fix only the symmetric part of each mirror-pair
    density; the interference split between x_i and x_{n-i} needs the
    relative phase of the even/odd pair amplitudes.  `reference` (a
    grid-basis amplitude vector, normally the classically propagated
    state at the same time) supplies that split; without it the split
    term is taken as zero.
    '''
    q = _check_dim(np.asarray(probabilities, dtype=float), gmap)
    dim = len(q)
    n = dim - 1
    half = dim // 2
    order = partition.order
    i = np.arange(half)
    if reference is not None:
        phi = _rotate_pairs(_check_dim(reference, gmap))
        cross = np.real(np.conj(phi[:half]) * phi[n - i])
    else:
        cross = np.zeros(half)
    qp = q[order[i]]        # even-combination slot of pair i
    qm = q[order[n - i]]    # odd-combination slot of pair i
    s = 0.5 * (qp + qm)
    rho = np.empty(dim)
    rho[i] = s + cross
    rho[n - i] = s - cross
    return rho

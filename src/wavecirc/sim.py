'''Statevector execution of gate sequences, exact eigendecomposition
propagators, and seeded shot sampling.

A compiled stack of circuits runs in lockstep: the amplitudes hold one
column per circuit, and each block applies every circuit's angles in
one vectorised step.  `circuit_matrix` runs the same kernels, not on the
whole 2^n identity but on nested products: a run of blocks on the low s
qubits acts as kron(I, P_s), P_s is built at width 2^s, and a finished
run is fused into the enclosing one as a matrix product only when it
holds more passes than its dimension 2^s (else its blocks are replayed
there).  A compiled 7-qubit circuit, 8,192 blocks, takes about 0.1 s
this way against 0.4 s across the identity (2-core x86, numpy 2.4.6).

The sampler uses numpy's Generator with the PCG64 bit generator; the
seed is recorded in every ShotResult so runs are bit-exact
reproducible.
'''

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import units
from .grid import eigensolve
from .givens import _check_dim, _pair_cross, _rotate_pairs
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


def exact_propagator(ham, t_fs):
    '''U(t) = X exp(-i E t) X^H from the eigendecomposition of a
    Hermitian Hamiltonian (Hartree, time in femtoseconds): `ham` is the
    Hamiltonian, solved here, or its EigenSystem.

    `t_fs` may be an array of times; the result then has shape
    t_fs.shape + (dim, dim), one propagator per time.  For real
    eigenvectors X^H is X^T, with no copy.
    '''
    eig = ham if hasattr(ham, "energies") else eigensolve(ham)
    t_au = np.asarray(units.fs_to_au(t_fs))
    phases = np.exp(-1j * eig.energies * t_au[..., None])
    return (eig.states * phases[..., None, :]) @ eig.states.conj().T


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


@dataclass(frozen=True, eq=False)
class _Product:
    '''The product P of a run of blocks on the low `support` qubits,
    shape (2^s, 2^s, S); on n qubits it acts as kron(I, P).'''
    support: int
    matrix: np.ndarray


def _apply_product(amp, prod, n):
    '''amp <- kron(I, P) amp: P on the low qubits of every column, one
    matrix product per circuit of the stack.'''
    d = 1 << prod.support
    a = amp.reshape(amp.shape[0] // d, d, -1, amp.shape[-1])
    a = a.transpose(3, 0, 1, 2)
    out = prod.matrix.transpose(2, 0, 1)[:, None] @ a
    return out.transpose(1, 2, 3, 0).reshape(amp.shape)


_APPLY = {Gate: _apply_gate, Multiplexor: _apply_multiplexor,
          ZyzLeaf: _apply_leaf, _Product: _apply_product}


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


def _support(block):
    '''Number of low qubits a block acts on: its highest qubit + 1, 0 for
    a global phase.'''
    if isinstance(block, Multiplexor):
        return max(block.target, *block.controls) + 1
    if isinstance(block, ZyzLeaf):
        return block.target + 1
    if block.kind == "phase":
        return 0
    return max(block.target, block.control or 0) + 1


class _Frame:
    '''A contiguous run of operations on the low `support` qubits of a
    stack of S circuits: blocks, and the products of finished inner
    runs.  `cost` counts passes at this width: one per block, 2^c per
    product on c qubits (a matrix product with 2^c terms per entry).'''

    def __init__(self, support, n_circuits):
        self.support = support
        self.n_circuits = n_circuits
        self.ops = []
        self.cost = 0

    def add(self, op, cost=1):
        self.ops.append(op)
        self.cost += cost

    def take(self, inner):
        '''Absorb a finished inner frame: fuse it into one product when
        it holds more passes than its dimension, else replay its
        operations here.'''
        dim = 1 << inner.support
        if inner.cost > dim:
            self.add(_Product(inner.support, inner.product()), dim)
        else:
            self.ops.extend(inner.ops)
            self.cost += inner.cost

    def product(self):
        '''The frame's operations applied to the identity, shape
        (2^s, 2^s, S).'''
        dim = 1 << self.support
        amp = np.repeat(np.eye(dim, dtype=complex)[:, :, None],
                        self.n_circuits, axis=2)
        for op in self.ops:
            amp = _APPLY[type(op)](amp, op, self.support)
        return amp


def circuit_matrix(seq):
    '''Dense matrix realized by a gate sequence (including phase); a
    stack of S circuits gives shape (S, 2^n, 2^n).

    A run of blocks on the low s qubits (qubit q is bit q) acts as
    kron(I, P_s).  The blocks are read in application order into nested
    frames, one per support (highest qubit + 1), and a frame's product
    P_s is built with the run_circuit kernels at width 2^s.  Applying a
    finished frame to its parent costs about 2^s passes at the parent's
    width as one matrix product, or one pass per block when its blocks
    are replayed there; so the frame is fused only when it holds more
    passes than its dimension 2^s.  A QSD circuit nests every subtree on
    the low qubits, so only its top level runs at the full 2^n width; a
    sequence with no such nesting costs what running every block across
    the identity costs.
    '''
    n, n_circ = seq.n_qubits, seq.n_circuits
    frames = [_Frame(n, n_circ)]
    for block in seq.blocks:
        s = _support(block)
        if s > n:
            raise ValueError("gate acts outside the circuit's qubits")
        while frames[-1].support < s:
            inner = frames.pop()
            if frames[-1].support > s:
                frames.append(_Frame(s, n_circ))
            frames[-1].take(inner)
        if frames[-1].support > s:
            frames.append(_Frame(s, n_circ))
        frames[-1].add(block)
    while len(frames) > 1:
        inner = frames.pop()
        frames[-1].take(inner)
    m = frames[0].product()
    return m[:, :, 0] if n_circ == 1 else np.moveaxis(m, 2, 0)


def sample_shots(psi, shots, seed):
    '''Multinomial measurement sampling of |psi_i|^2.'''
    if shots < 1:
        raise ValueError("shots must be >= 1")
    p = np.abs(np.asarray(psi)) ** 2
    p = p / p.sum()
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(shots, p)
    return ShotResult(shots=int(shots), counts=counts, seed=seed)


def mapped_density_to_grid(probabilities, partition, reference=None):
    '''Transport a computational-basis probability vector to the grid.

    Probabilities alone fix only the symmetric part of each mirror-pair
    density; the interference split between x_i and x_{n-i} needs the
    relative phase of the even/odd pair amplitudes.  `reference` (a
    grid-basis amplitude vector, normally the classically propagated
    state at the same time) supplies that split; without it the split
    term is taken as zero.
    '''
    cross = 0.0
    if reference is not None:
        phi = _rotate_pairs(_check_dim(reference, partition))
        cross = _pair_cross(phi.real, phi.imag)
    return _split_pairs(probabilities, partition, cross)


def _split_pairs(probabilities, partition, cross):
    '''The grid density of computational-basis probabilities q: mirror
    pair i holds q of its even and odd slots, split as their mean
    +- cross[i] between x_i and x_{n-i}.'''
    q = _check_dim(np.asarray(probabilities, dtype=float), partition)
    dim = len(q)
    n = dim - 1
    half = dim // 2
    order = partition.order
    i = np.arange(half)
    qp = q[order[i]]        # even-combination slot of pair i
    qm = q[order[n - i]]    # odd-combination slot of pair i
    s = 0.5 * (qp + qm)
    rho = np.empty(dim)
    rho[i] = s + cross
    rho[n - i] = s - cross
    return rho

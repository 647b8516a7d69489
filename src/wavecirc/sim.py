'''Statevector execution of compiled circuits, exact eigendecomposition
propagators, and seeded shot sampling.

A circuit is a compiled QsdTree.  Its stack of circuits runs in lockstep
from its level arrays: the amplitudes hold one column per circuit, and
each multiplexed rotation turns every amplitude pair by its stored
select angle, and each ZYZ leaf applies its 2x2 matrix, every circuit's
in one step.  `circuit_matrix` rebuilds a QsdTree from the level arrays
instead, every node of a level at once from its four children and its
three multiplexors; a compiled 7-qubit circuit takes under 10 ms this way
against about 1.3 s for its 36,480 gates run one by one across the 2^n
identity by the gate-by-gate oracle of the tests (2-core x86, numpy
2.4.6).

The sampler uses numpy's Generator with the PCG64 bit generator; the
seed is recorded in every ShotResult so runs are bit-exact
reproducible.
'''

from dataclasses import dataclass

import numpy as np

from . import units
from .grid import eigensolve
from .givens import _check_dim, _pair_cross, _rotate_pairs
from .qsd import MUX_KINDS, _layout, _zyz_matrix


@dataclass(frozen=True)
class ShotResult:
    '''Counts from measuring a state in the computational basis.'''
    shots: int
    counts: np.ndarray
    seed: object

    @property
    def probabilities(self):
        return self.counts / self.shots


def _check_phases(e_max, t_fs, what):
    '''Refuse with ValueError a run to time t_fs (largest |t| of an
    array) whose largest phase e_max |t| in atomic units is finite and
    at least 2^52 rad; `what` names the inputs that set t_fs.'''
    t_fs = float(np.abs(t_fs).max(initial=0))
    phase = units.fs_to_au(t_fs) * float(e_max)
    # at 2^52 rad adjacent float64 phases lie a whole radian apart, and
    # the amplitudes are finite nonsense; a phase that overflows makes
    # them non-finite, which the callers' checks see
    if 2.0 ** 52 <= phase < np.inf:
        raise ValueError(
            f"{what} = {t_fs:g} fs gives phases of {phase:.3g} rad, beyond "
            f"the 2^52 rad at which float64 phases carry no information")


def exact_propagator(ham, t_fs):
    '''U(t) = X exp(-i E t) X^H from the eigendecomposition of a
    Hermitian Hamiltonian (Hartree, time in femtoseconds): `ham` is the
    Hamiltonian, solved here, or its EigenSystem.

    `t_fs` may be an array of times; the result then has shape
    t_fs.shape + (dim, dim), one propagator per time.  For real
    eigenvectors X^H is X^T, with no copy.  A time whose phases outgrow
    float64 raises ValueError (see `_check_phases`).
    '''
    eig = ham if hasattr(ham, "energies") else eigensolve(ham)
    _check_phases(np.abs(eig.energies).max(initial=0), t_fs, "t")
    t_au = np.asarray(units.fs_to_au(t_fs))
    phases = np.exp(-1j * eig.energies * t_au[..., None])
    return (eig.states * phases[..., None, :]) @ eig.states.conj().T


def _rotate(a, kind, angle):
    '''R(angle), an Ry (kind "ry") or else an Rz, on every pair (a[:, 0],
    a[:, 1]) in place; `angle` broadcasts against a[:, 0].'''
    lo, hi = a[:, 0], a[:, 1]
    if kind == "ry":
        co, si = np.cos(angle / 2), np.sin(angle / 2)
        a[:, 0], a[:, 1] = co * lo - si * hi, si * lo + co * hi
    else:
        ph = np.exp(-0.5j * angle)
        a[:, 0], a[:, 1] = ph * lo, np.conj(ph) * hi


def _apply_multiplexor(amp, kind, select):
    '''Apply a compiled multiplexor, the product of its gates, in one
    pass: its target is qubit t, 2^t = select.shape[1], and its controls
    are the qubits below it, so the control value b of each amplitude
    pair is the pair's index below the target, and the pair turns by
    select angle b.  Row i of `select` is circuit i of the stack, and the
    last axis of `amp` indexes the circuits (or is broadcast over for one
    circuit).'''
    n_circ, size = select.shape
    t = size.bit_length() - 1
    a = amp.reshape(amp.shape[0] >> (t + 1), 2, size, -1, n_circ)
    _rotate(a, kind, select.T[:, None, :])
    return amp


def _apply_leaf(amp, m):
    '''Apply a ZYZ leaf on qubit 0, given as one 2x2 matrix per circuit
    (S, 2, 2).'''
    a = amp.reshape(amp.shape[0] >> 1, 2, -1, len(m))
    lo, hi = a[:, 0], a[:, 1]
    a[:, 0], a[:, 1] = (m[:, 0, 0] * lo + m[:, 0, 1] * hi,
                        m[:, 1, 0] * lo + m[:, 1, 1] * hi)
    return amp


def _run_tree(amp, tree):
    '''Run the circuits of a QsdTree on `amp` in place: each multiplexor
    and each leaf in application order, the leaves' matrices formed
    once for the whole tree, then the global phase.'''
    leaves = _zyz_matrix(tree.beta, tree.gamma, tree.delta)
    for m, mux, j in _layout(tree.n_qubits):
        if m == 1:
            _apply_leaf(amp, leaves[:, j])
        else:
            _apply_multiplexor(amp, MUX_KINDS[mux], tree.select[m][mux, :, j])
    if tree.phase is not None:
        amp *= np.exp(1j * tree.phase)
    return amp


def run_circuit(psi, tree):
    '''Apply the circuits of a QsdTree to a state vector (or a batch of
    column vectors) and return the evolved amplitudes.

    A tree of S circuits runs in lockstep from its level arrays: the
    last axis of `psi` must have length S, slice [..., i] goes through
    circuit i, and each multiplexor and ZYZ leaf is the exact product of
    its gates in one vectorised step for every circuit, as circuit i's
    QASM run gate by gate is to rounding.
    '''
    psi = np.array(psi, dtype=complex)
    if psi.shape[0] != 2 ** tree.n_qubits:
        raise ValueError("state dimension does not match the circuit")
    s = tree.n_circuits
    if s > 1 and (psi.ndim < 2 or psi.shape[-1] != s):
        raise ValueError(f"a stack of {s} circuits needs {s} amplitude "
                         "columns on the last axis")
    return _run_tree(psi, tree)


def circuit_matrix(tree):
    '''Dense matrix realized by the circuits of a QsdTree (including
    phase), rebuilt from its level arrays a level at a time; a tree of
    S > 1 circuits gives shape (S, 2^n, 2^n).
    '''
    m = _tree_matrix(tree)
    return m[0] if tree.n_circuits == 1 else m


def _tree_matrix(tree):
    '''The matrices (S, 2^n, 2^n) of a QsdTree's circuits: the leaves'
    2x2 matrices, then each node of level m as C3 Z2 C2 Y C1 Z0 C0, with
    C_c = blkdiag(child c, child c) and Z0, Y, Z2 its multiplexors, which
    turn row pair (b, b + 2^(m-1)) by select angle b, select[m][..., b].
    C1 Z0 C0 is blkdiag(C1 z C0, C1 z* C0); only the products after Y
    are full.'''
    n, n_circ = tree.n_qubits, tree.n_circuits
    mats = _zyz_matrix(tree.beta, tree.gamma, tree.delta)
    for m in range(2, n + 1):
        h = 2 ** (m - 1)
        rz0, ry, rz2 = tree.select[m][..., None]
        c0, c1, c2, c3 = np.moveaxis(mats.reshape(n_circ, -1, 4, h, h), 2, 0)
        z = np.exp(-0.5j * rz0)
        lo, hi = c1 @ (z * c0), c1 @ (z.conj() * c0)
        co, si = np.cos(ry / 2), np.sin(ry / 2)
        z = np.exp(-0.5j * rz2)
        top = c3 @ (z * (c2 @ np.concatenate([co * lo, -si * hi], -1)))
        bottom = c3 @ (z.conj() * (c2 @ np.concatenate([si * lo, co * hi],
                                                        -1)))
        mats = np.concatenate([top, bottom], -2)
    mats = mats.reshape(n_circ, 2 ** n, 2 ** n)
    if tree.phase is not None:
        mats *= np.exp(1j * np.reshape(tree.phase, (-1, 1, 1)))
    return mats


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

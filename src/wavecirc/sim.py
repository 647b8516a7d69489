'''Statevector execution of compiled circuits, exact eigendecomposition
propagators, and seeded shot sampling.

A circuit is a compiled QsdTree.  Its stack of circuits runs in lockstep
from its level arrays: the amplitudes hold one column per circuit.  The
pair factors of every multiplexor are formed once per level, with one
cos, sin or exp over the level's select angles, and the leaves' from
the 2x2 matrices the tree forms once (`QsdTree._leaves`, which
`circuit_matrix` reads too); each multiplexed Ry and each ZYZ leaf then
turns every amplitude pair (lo, hi) into diag (lo, hi) + off (hi, lo),
and each multiplexed Rz is one multiply, every circuit's in one step.
`circuit_matrix` rebuilds a QsdTree from the level arrays instead, every
node of a level at once from its four children and its three
multiplexors; a compiled 7-qubit circuit takes under 10 ms this way
against about 1.3 s for its 36,480 gates run one by one across the 2^n
identity by the gate-by-gate oracle of the tests (2-core x86, numpy
2.4.6).

The sampler uses numpy's Generator with the PCG64 bit generator; the
seed is recorded in every ShotResult so runs are bit-exact
reproducible; `dynamics.shot_density_trajectory` takes the counts to
the grid.
'''

from dataclasses import dataclass

import numpy as np

from . import units
from .grid import eigensolve
from .qsd import MUX_KINDS, _layout, _matmul


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


def _mux_factors(kind, select):
    '''The pair factors (diag, off) of multiplexors of kind `kind` ("ry",
    else Rz) from their select angles (S, ..., 2^t), circuit first, for
    `_apply_pairs`: shape (..., 2, 2^t, 1, S), or (..., 1, 2^t, 1, S) for
    an Ry's diag, which is the same for both amplitudes; off is None for
    an Rz.'''
    angle = np.moveaxis(select, 0, -1)[..., None, :, None, :]
    if kind == "ry":
        co, si = np.cos(angle / 2), np.sin(angle / 2)
        return co, np.concatenate([-si, si], -4)
    ph = np.exp(-0.5j * angle)
    return np.concatenate([ph, ph.conj()], -4), None


def _leaf_factors(tree):
    '''The pair factors (diag, off) of a QsdTree's ZYZ leaves for
    `_apply_pairs`, shape (4^(n-1), 2, 1, 1, S): the diagonal and the
    off-diagonal entries of each leaf's 2x2 matrix.'''
    m = np.moveaxis(tree._leaves, 0, -1)
    diag, off = m[:, [0, 1], [0, 1]], m[:, [0, 1], [1, 0]]
    return diag[:, :, None, None], off[:, :, None, None]


def _apply_pairs(amp, diag, off=None):
    '''Turn every amplitude pair (lo, hi) of target qubit t in place into
    diag (lo, hi) + off (hi, lo), or diag (lo, hi) when `off` is None.
    diag and off broadcast against (2, 2^t, 1, S): the pair's two
    amplitudes, its control value b (its index below the target; the
    controls are the qubits below it) and the circuit of the stack,
    which the last axis of `amp` indexes (or is broadcast over for one
    circuit).  This is a multiplexor, the product of its gates, or a
    leaf on qubit 0, in one pass.'''
    size, n_circ = diag.shape[-3], diag.shape[-1]
    a = amp.reshape(amp.shape[0] // (2 * size), 2, size, -1, n_circ)
    # factor first, as in a gate's product: numpy's complex products
    # round differently with their operands swapped
    turned = None if off is None else off * a[:, ::-1]
    np.multiply(diag, a, out=a)
    if off is not None:
        a += turned
    return amp


def _run_tree(amp, tree):
    '''Run the circuits of a QsdTree on `amp` in place: each multiplexor
    and each leaf in application order, from pair factors formed once
    per level for the whole tree, then the global phase.'''
    factors = {(1, None): _leaf_factors(tree)}
    for m, select in tree.select.items():
        for mux, kind in enumerate(MUX_KINDS):
            factors[m, mux] = _mux_factors(kind, select[mux])
    for m, mux, j in _layout(tree.n_qubits):
        diag, off = factors[m, mux]
        _apply_pairs(amp, diag[j], None if off is None else off[j])
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
    mats = tree._leaves
    for m in range(2, n + 1):
        h = 2 ** (m - 1)
        rz0, ry, rz2 = tree.select[m][..., None]
        c0, c1, c2, c3 = np.moveaxis(mats.reshape(n_circ, -1, 4, h, h), 2, 0)
        z = np.exp(-0.5j * rz0)
        lo, hi = _matmul(c1, z * c0), _matmul(c1, z.conj() * c0)
        co, si = np.cos(ry / 2), np.sin(ry / 2)
        z = np.exp(-0.5j * rz2)
        top = _matmul(c3, z * _matmul(
            c2, np.concatenate([co * lo, -si * hi], -1)))
        bottom = _matmul(c3, z.conj() * _matmul(
            c2, np.concatenate([si * lo, co * hi], -1)))
        mats = np.concatenate([top, bottom], -2)
    mats = mats.reshape(n_circ, 2 ** n, 2 ** n)
    if tree.phase is not None:
        phase = np.exp(1j * tree.phase)[:, None, None]
        # a 1-qubit tree's matrices are its leaves, which are not written
        mats = mats * phase if n == 1 else np.multiply(mats, phase, out=mats)
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

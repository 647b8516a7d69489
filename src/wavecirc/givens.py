'''Pairwise rotation of the grid basis into even/odd reflection
combinations, the resulting 2x2 block structure of the Hamiltonian, and
the parity-ordered computational basis used by the spin mapping.

The rotation G mixes mirror grid pairs (i, n-i): row i < 2^(N-1) is
(e_i + e_{n-i})/sqrt(2), row i >= 2^(N-1) is (e_{n-i} - e_i)/sqrt(2).
G is symmetric and its own inverse.  `_rotate_pairs` applies it by
slicing: states are rotated in O(2^N), and `block_transform` builds the
blocks of G H G at half size in O(4^N), never forming G or G H G.
`ParityPartition` is the one basis descriptor: it lays the even/odd
blocks onto the even/odd bitstring-parity sectors.  `block_eigensolve`
solves the two half-size eigenproblems, which, when the blocks are
exactly decoupled, give the eigensystem of H in block form
(`BlockEigenSystem`); `eigensystem` picks that form or the full
eigensolve, for the CLI and the dynamics alike, and `eigenvalues` makes
the same choice for the energies alone.
'''

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import EigenSystem, _fix_signs, eigensolve

# the pair rotation's coefficient, 1/sqrt(2)
_R = 1 / np.sqrt(2)


@dataclass(frozen=True)
class ParityPartition:
    '''Computational basis ordered by bitstring parity.

    `order[k]` is the basis index occupying slot k: even-popcount
    bitstrings first (ascending), then odd-popcount (ascending).
    The rightmost (least significant) bit is qubit 0.
    '''
    n_qubits: int
    order: np.ndarray

    @property
    def half(self):
        return 2 ** (self.n_qubits - 1)

    @property
    def even_states(self):
        return self.order[:self.half]

    @property
    def odd_states(self):
        return self.order[self.half:]


@dataclass(frozen=True)
class BlockHamiltonian:
    '''H in the rotated basis G H G: its two diagonal blocks, the norm of
    the coupling blocks, which vanish for reflection-symmetric
    potentials, and ||H||_F (= ||G H G||_F, G being orthogonal).'''
    block_plus: np.ndarray    # even-combination block, size 2^(N-1)
    block_minus: np.ndarray   # odd-combination block
    coupling_norm: float      # Frobenius norm of the off-diagonal blocks
    norm: float               # Frobenius norm of H


def _rotate_pairs(a, axis=-1):
    '''Apply G along `axis` of `a` in O(a.size).

    In halves, G = [[I, F], [F, -I]]/sqrt(2) with F the half-size flip,
    so output i < half is (a_i + a_{n-i})/sqrt(2) and output n-i is
    (a_i - a_{n-i})/sqrt(2).  G is its own inverse.
    '''
    a = np.moveaxis(np.asarray(a), axis, -1)
    half = a.shape[-1] // 2
    lo, hi = a[..., :half], a[..., half:]
    out = np.empty(a.shape, dtype=np.result_type(a, _R))
    np.add(lo, hi[..., ::-1], out=out[..., :half])
    np.subtract(lo[..., ::-1], hi, out=out[..., half:])
    out *= _R
    return np.moveaxis(out, -1, axis)


def _pair_cross(re, im):
    '''Re(conj(phi_i) phi_{n-i}) for i < half, along the last axis of the
    pair-basis amplitudes phi = re + i im: the interference term that
    splits the density of mirror pair i between x_i and x_{n-i}.'''
    half = re.shape[-1] // 2
    return re[..., :half] * re[..., half:][..., ::-1] \
        + im[..., :half] * im[..., half:][..., ::-1]


def parity_partition(n_qubits):
    '''Order computational basis states even-parity first, odd second.'''
    if n_qubits < 1:
        raise ValueError("n_qubits must be >= 1")
    states = np.arange(2 ** n_qubits)
    pop = np.array([bin(s).count("1") & 1 for s in states])
    order = np.concatenate([states[pop == 0], states[pop == 1]])
    return ParityPartition(n_qubits=n_qubits, order=order)


def block_transform(ham):
    '''The parity blocks of G H G for H a NuclearHamiltonian or a raw
    symmetric 2^N x 2^N matrix (N >= 1), as a BlockHamiltonian.

    Each row half of G H, rotated along its columns, holds a diagonal
    block and a coupling block: the element-wise operations of
    `_rotate_pairs` along both axes, so the blocks have the bits of
    G H G's, built without any 2^N x 2^N matrix but H.
    '''
    h = np.asarray(getattr(ham, "matrix", ham))
    dim = h.shape[0] if h.ndim == 2 else 0
    if h.shape != (dim, dim) or dim < 2 or dim & (dim - 1):
        raise ValueError(f"Hamiltonian of shape {h.shape} is not square "
                         "with a power-of-two side >= 2")

    def scaled(x):          # x *= 1/sqrt(2), in place as _rotate_pairs
        x *= _R
        return x

    half = dim // 2
    lo, hi = h[:half], h[half:]
    rows = scaled(lo + hi[::-1])            # the even rows of G H
    plus = scaled(rows[:, :half] + rows[:, half:][:, ::-1])
    coup = scaled(rows[:, :half][:, ::-1] - rows[:, half:])
    coupling_norm = float(np.sqrt(2) * np.linalg.norm(coup))
    del rows, coup
    rows = scaled(lo[::-1] - hi)            # the odd rows of G H
    minus = scaled(rows[:, :half][:, ::-1] - rows[:, half:])
    return BlockHamiltonian(block_plus=plus, block_minus=minus,
                            coupling_norm=coupling_norm,
                            norm=float(np.linalg.norm(h)))


@dataclass(frozen=True)
class BlockEigenSystem:
    '''The eigensystem of H kept in parity-block form.

    `plus` and `minus` are the eigensystems of the two blocks, with their
    eigenvectors in the pair basis; `energies` are theirs merged in
    ascending order (a stable sort, so ties keep the even block first).
    A block eigenvector placed in the pair basis and rotated by G is an
    eigenvector of H with eigensolve's sign rule on the grid.  `states`
    builds that 2^N x 2^N eigenvector matrix, columns in the order of
    `energies`, on first request; the dynamics never needs it.
    '''
    energies: np.ndarray
    plus: EigenSystem
    minus: EigenSystem

    @cached_property
    def states(self):
        half = len(self.plus.energies)
        order = np.argsort(np.concatenate([self.plus.energies,
                                           self.minus.energies]),
                           kind="stable")
        slot = np.empty_like(order)
        slot[order] = np.arange(2 * half)
        x = np.zeros((2 * half, 2 * half),
                     dtype=np.result_type(self.plus.states,
                                          self.minus.states))
        x[:half, slot[:half]] = self.plus.states
        x[half:, slot[half:]] = self.minus.states
        return _rotate_pairs(x, axis=0)


def block_eigensolve(bh):
    '''The eigensystems of the two parity blocks of a BlockHamiltonian,
    merged into the eigensystem of H as a BlockEigenSystem.

    H = G blockdiag(H+, H-) G when the coupling vanishes, so the block
    eigenvectors, placed in the pair basis and rotated by G, are the
    eigenvectors of H: two 2^(N-1) eigenproblems instead of one 2^N.
    The coupling is dropped, so this is the eigensystem of H only when
    `bh.coupling_norm` is exactly 0; otherwise use `eigensolve`.
    The grid vector of an even eigenvector x is [x, flip(x)]/sqrt(2) and
    that of an odd one [flip(x), -x]/sqrt(2), so eigensolve's sign rule
    on the grid reads an even x from its start and an odd x from its end.
    '''
    plus, minus = eigensolve(bh.block_plus), eigensolve(bh.block_minus)
    _fix_signs(plus.states, _R)
    _fix_signs(minus.states[::-1], _R)
    energies = np.concatenate([plus.energies, minus.energies])
    return BlockEigenSystem(
        energies=energies[np.argsort(energies, kind="stable")],
        plus=plus, minus=minus)


def eigensystem(ham, bh):
    '''The eigensystem of H whose BlockHamiltonian is `bh`: in block
    form (block_eigensolve) when the parity blocks are exactly
    decoupled, else the full eigensolve(ham).'''
    return block_eigensolve(bh) if bh.coupling_norm == 0.0 else eigensolve(ham)


def eigenvalues(ham, bh):
    '''The ascending eigenvalues of H whose BlockHamiltonian is `bh`, by
    eigensystem's rule and without eigenvectors: the two blocks' merged
    by the same stable sort when they are exactly decoupled, else the
    full H's.  numpy's eigvalsh: no scipy is loaded.'''
    if bh.coupling_norm != 0.0:
        return np.linalg.eigvalsh(getattr(ham, "matrix", ham))
    energies = np.concatenate([np.linalg.eigvalsh(bh.block_plus),
                               np.linalg.eigvalsh(bh.block_minus)])
    return np.sort(energies, kind="stable")


def _check_dim(psi, partition):
    psi = np.asarray(psi)
    dim = 2 ** partition.n_qubits
    if psi.shape[-1:] != (dim,):
        raise ValueError(f"state dimension (shape {psi.shape}) does not "
                         f"match the 2^N = {dim} basis states")
    return psi


def to_mapped_basis(psi, partition):
    '''Grid amplitudes -> parity-ordered computational-basis amplitudes,
    along the last axis (one state or a (steps, 2^N) stack).

    Pair-basis component i is placed at computational state order[i].
    '''
    phi = _rotate_pairs(_check_dim(psi, partition))
    out = np.empty_like(phi)
    out[..., partition.order] = phi
    return out


def from_mapped_basis(psi, partition):
    '''Inverse of to_mapped_basis.'''
    return _rotate_pairs(_check_dim(psi, partition)[..., partition.order])

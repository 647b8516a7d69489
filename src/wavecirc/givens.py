'''Pairwise rotation of the grid basis into even/odd reflection
combinations, the resulting 2x2 block structure of the Hamiltonian, and
the parity-ordered computational basis used by the spin mapping.

The rotation G is symmetric and its own inverse.  `_rotate_pairs`
applies it by slicing, so the blocks of H are extracted in O(4^N) and
states are rotated in O(2^N); no dense G is formed.  When the blocks
are exactly decoupled, `block_eigensolve` builds the eigensystem of H
from two half-size eigenproblems.
'''

from dataclasses import dataclass

import numpy as np

from .grid import EigenSystem, NuclearHamiltonian, _fix_signs, eigensolve


@dataclass(frozen=True)
class GivensBasisMap:
    '''Orthogonal map G mixing mirror grid pairs (i, n-i).

    Row i for i < 2^(N-1) is (e_i + e_{n-i})/sqrt(2); row i for
    i >= 2^(N-1) is (e_{n-i} - e_i)/sqrt(2).  G is symmetric and its own
    inverse; the library applies it by index slicing, and `matrix`
    builds the dense form only on request.
    '''
    n_qubits: int

    @property
    def dim(self):
        return 2 ** self.n_qubits

    @property
    def matrix(self):
        '''G as a dense 2^N x 2^N array.'''
        return _rotate_pairs(np.eye(self.dim))


@dataclass(frozen=True)
class ParityPartition:
    '''Computational basis ordered by bitstring parity.

    `order[k]` is the basis index occupying slot k: even-popcount
    bitstrings first (ascending), then odd-popcount (ascending).
    The rightmost (least significant) bit is qubit 0.
    '''
    n_qubits: int
    order: np.ndarray
    inverse: np.ndarray

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
    '''H in the rotated basis: two diagonal blocks plus a coupling block
    that vanishes for reflection-symmetric potentials.'''
    h_tilde: np.ndarray
    block_plus: np.ndarray    # even-combination block, size 2^(N-1)
    block_minus: np.ndarray   # odd-combination block
    coupling_norm: float      # Frobenius norm of the off-diagonal blocks
    source: NuclearHamiltonian = None


def _rotate_pairs(a, axis=-1):
    '''Apply G along `axis` of `a` in O(a.size).

    In halves, G = [[I, F], [F, -I]]/sqrt(2) with F the half-size flip,
    so output i < half is (a_i + a_{n-i})/sqrt(2) and output n-i is
    (a_i - a_{n-i})/sqrt(2).  G is its own inverse.
    '''
    a = np.moveaxis(np.asarray(a), axis, -1)
    half = a.shape[-1] // 2
    lo, hi = a[..., :half], a[..., half:]
    r = 1 / np.sqrt(2)
    out = np.concatenate([(lo + hi[..., ::-1]) * r,
                          (lo[..., ::-1] - hi) * r], axis=-1)
    return np.moveaxis(out, -1, axis)


def givens_map(n_qubits):
    '''The orthogonal pair-mixing map for 2^N grid points.'''
    if n_qubits < 1:
        raise ValueError("n_qubits must be >= 1")
    return GivensBasisMap(n_qubits=n_qubits)


def parity_partition(n_qubits):
    '''Order computational basis states even-parity first, odd second.'''
    if n_qubits < 1:
        raise ValueError("n_qubits must be >= 1")
    states = np.arange(2 ** n_qubits)
    pop = np.array([bin(s).count("1") & 1 for s in states])
    order = np.concatenate([states[pop == 0], states[pop == 1]])
    inverse = np.empty_like(order)
    inverse[order] = states
    return ParityPartition(n_qubits=n_qubits, order=order, inverse=inverse)


def block_transform(ham, gmap):
    '''Rotate H (a NuclearHamiltonian or a raw symmetric matrix) into the
    pair basis, G H G, and extract its blocks.'''
    if isinstance(ham, NuclearHamiltonian):
        h = ham.matrix
        source = ham
    else:
        h = np.asarray(ham)
        source = None
    if h.shape != (gmap.dim, gmap.dim):
        raise ValueError("Hamiltonian and basis map dimensions differ")
    ht = _rotate_pairs(_rotate_pairs(h, 0), 1)
    half = gmap.dim // 2
    plus = ht[:half, :half]
    minus = ht[half:, half:]
    coup = ht[:half, half:]
    coupling_norm = float(np.sqrt(2) * np.linalg.norm(coup))
    return BlockHamiltonian(h_tilde=ht, block_plus=plus, block_minus=minus,
                            coupling_norm=coupling_norm, source=source)


def block_eigensolve(bh):
    '''Eigensystem of H from the eigensystems of its two parity blocks.

    H = G blockdiag(H+, H-) G when the coupling vanishes, so the block
    eigenvectors, placed in the pair basis and rotated by G, are the
    eigenvectors of H: two 2^(N-1) eigenproblems instead of one 2^N.
    The coupling is dropped, so this is the eigensystem of H only when
    `bh.coupling_norm` is exactly 0; otherwise use `eigensolve`.
    Energies ascend (a stable sort, so ties keep the even block first)
    and the columns carry `eigensolve`'s sign rule on the grid.
    '''
    plus, minus = eigensolve(bh.block_plus), eigensolve(bh.block_minus)
    half = len(plus.energies)
    energies = np.concatenate([plus.energies, minus.energies])
    order = np.argsort(energies, kind="stable")
    slot = np.empty_like(order)
    slot[order] = np.arange(2 * half)
    x = np.zeros((2 * half, 2 * half),
                 dtype=np.result_type(plus.states, minus.states))
    x[:half, slot[:half]] = plus.states
    x[half:, slot[half:]] = minus.states
    return EigenSystem(energies=energies[order],
                       states=_fix_signs(_rotate_pairs(x, axis=0)))


def _check_dim(psi, gmap):
    psi = np.asarray(psi)
    if psi.shape[-1:] != (gmap.dim,):
        raise ValueError("state dimension does not match the basis map")
    return psi


def to_mapped_basis(psi, gmap, partition):
    '''Grid amplitudes -> parity-ordered computational-basis amplitudes,
    along the last axis (one state or a (steps, 2^N) stack).

    Pair-basis component i is placed at computational state order[i].
    '''
    phi = _rotate_pairs(_check_dim(psi, gmap))
    out = np.empty_like(phi)
    out[..., partition.order] = phi
    return out


def from_mapped_basis(psi, gmap, partition):
    '''Inverse of to_mapped_basis.'''
    return _rotate_pairs(_check_dim(psi, gmap)[..., partition.order])

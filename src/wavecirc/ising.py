'''Extraction of programmable spin-model parameters from the parity
blocks of the rotated Hamiltonian, and reassembly of the spin
Hamiltonian from those parameters.

The target model is an all-to-all two-body spin Hamiltonian
c*I + sum_j Bz_j sz_j + sum_{j<k} (Jx sx sx + Jy sy sy + Jz sz sz)
with no transverse local fields, so it is block-diagonal in the parity
partition of the computational basis.  Its parameters are real, and so
is every matrix assembled from them.

A block's diagonal is fitted to the offset, fields and sz-sz couplings
by least squares; its off-diagonal to the sx-sx and sy-sy couplings in
closed form, the equations of each qubit pair being separate.
'''

from dataclasses import dataclass

import numpy as np

RCOND = 1e-12


class BrokenSymmetryError(ValueError):
    '''Raised when the coupling between parity blocks is too large for
    the block-wise parameter map to be meaningful.'''


@dataclass(frozen=True)
class IsingParameters:
    '''Parameters of one parity block (Hartree).  The J arrays are
    strictly upper triangular; only entries with j < k are meaningful.'''
    n_qubits: int
    offset: float
    b_z: np.ndarray
    j_z: np.ndarray
    j_x: np.ndarray
    j_y: np.ndarray
    diag_residual: float
    offdiag_residual: float


@dataclass(frozen=True)
class MappedSystem:
    '''Per-block spin parameters and the assembled block matrices.'''
    even: IsingParameters
    odd: IsingParameters
    block_even: np.ndarray
    block_odd: np.ndarray
    recon_error_even: float
    recon_error_odd: float


def _pairs(n):
    return [(j, k) for j in range(n) for k in range(j + 1, n)]


def _diag_design(bitstrings, n):
    '''Rows: one equation per basis state; columns: [1, Bz_j, Jz_jk],
    with Bz_j the sign (-1)^bit_j and Jz_jk the sign (-1)^(bit_j xor
    bit_k), pairs j < k in row-major order.'''
    bits = (np.asarray(bitstrings, dtype=np.int64)[:, None]
            >> np.arange(n)) & 1
    j, k = np.triu_indices(n, 1)
    return np.hstack([np.ones((len(bits), 1)), 1.0 - 2 * bits,
                      1.0 - 2 * (bits[:, j] ^ bits[:, k])])


def extract_diagonal_params(diag, bitstrings, n):
    '''Fit offset, local sz fields and sz-sz couplings to a block
    diagonal by minimum-norm least squares.

    Returns (offset, b_z, j_z, residual) with residual = ||A theta - d||_2.
    '''
    d = np.asarray(diag, dtype=float)
    if len(d) == 0:
        raise ValueError("empty block")
    a = _diag_design(bitstrings, n)
    theta, _, _, _ = np.linalg.lstsq(a, d, rcond=RCOND)
    residual = float(np.linalg.norm(a @ theta - d))
    offset = theta[0]
    b_z = theta[1:1 + n]
    j_z = np.zeros((n, n))
    for c, (j, k) in enumerate(_pairs(n)):
        j_z[j, k] = theta[1 + n + c]
    return float(offset), b_z, j_z, residual


def extract_offdiag_params(block, bitstrings, n):
    '''Fit sx-sx and sy-sy couplings to the off-diagonal elements of a
    parity block.

    Elements between states at Hamming distance 2 differing in bits j < k
    satisfy M = Jx_jk - s*Jy_jk with s = +1 when the differing bits agree
    in the bra (00<->11 flips) and s = -1 otherwise (01<->10 flips).
    Each pair's equations involve only its own two unknowns, so the
    least-squares fit is in closed form: u = Jx - Jy is the mean of M
    over the pair's s = +1 elements and v = Jx + Jy the mean over its
    s = -1 ones, and a sign class with no element gives 0, the
    minimum-norm solution (the even sector of n = 2 has only s = +1).
    Elements at Hamming distance >= 4, and imaginary parts, cannot be
    produced by two-body couplings and enter the residual with weight 2
    (both Hermitian partners), summed directly.
    '''
    m = np.asarray(block)
    if np.abs(m - m.conj().T).max() > 1e-12 * max(1.0, np.abs(m).max()):
        raise ValueError("block matrix is not Hermitian")
    bits = np.asarray(bitstrings, dtype=np.int64)
    dim = len(bits)
    slot = np.full(2 ** n, -1, dtype=np.int64)
    slot[bits] = np.arange(dim)
    j, k = np.triu_indices(n, 1)
    npairs = len(j)
    # the distance-2 partner of each state across each pair, where it is
    # in the block; each element once, in the upper triangle
    partner = slot[bits[:, None] ^ ((1 << j) | (1 << k))]
    a, pair = np.nonzero(partner > np.arange(dim)[:, None])
    b = partner[a, pair]
    elem = m[a, b]
    rhs = elem.real
    bra = bits[a]
    agree = ((bra >> j[pair]) & 1) == ((bra >> k[pair]) & 1)
    cls = 2 * pair + ~agree                  # (pair, s = +1) or (pair, -1)
    count = np.bincount(cls, minlength=2 * npairs)
    mean = np.bincount(cls, rhs, minlength=2 * npairs) / np.maximum(count, 1)
    u, v = mean[0::2], mean[1::2]
    j_x = np.zeros((n, n))
    j_y = np.zeros((n, n))
    j_x[j, k] = (u + v) / 2
    j_y[j, k] = (v - u) / 2
    misfit_sq = np.sum((rhs - mean[cls]) ** 2)
    # distance != 2, and imaginary parts: not reachable by the couplings
    unmapped = np.abs(m) ** 2
    unmapped[a, b] = elem.imag ** 2
    unmapped_sq = 2 * np.triu(unmapped, 1).sum()
    return j_x, j_y, float(np.sqrt(misfit_sq + unmapped_sq))


def assemble_ising(params, n=None):
    '''Dense 2^n real symmetric matrix of the two-body spin Hamiltonian
    (its parameters are real, and so are sx sx and sy sy).'''
    if n is None:
        n = params.n_qubits
    return _assemble(params, n, np.arange(2 ** n))


def _assemble(params, n, states):
    '''The spin Hamiltonian on the basis states `states`, in order: the
    entries of assemble_ising at rows and columns `states`, built at that
    size and with the same additions in the same order, so a parity
    sector's block has the same bits as restrict_to_block of the full
    matrix.  `states` must be closed under flipping two bits, as the full
    basis and each parity sector are.'''
    states = np.asarray(states, dtype=np.int64)
    dim = len(states)
    slot = np.empty(2 ** n, dtype=np.int64)
    slot[states] = np.arange(dim)
    h = np.zeros((dim, dim))
    cols = np.arange(dim)
    diag = np.full(dim, params.offset, dtype=float)
    for j in range(n):
        diag += params.b_z[j] * (-1.0) ** ((states >> j) & 1)
    for j, k in _pairs(n):
        zz = (-1.0) ** (((states >> j) & 1) ^ ((states >> k) & 1))
        diag += params.j_z[j, k] * zz
        mask = (1 << j) | (1 << k)
        flipped = slot[states ^ mask]
        same = ((states >> j) & 1) == ((states >> k) & 1)
        # <s^mask| sx sx |s> = 1 ; <s^mask| sy sy |s> = -1 if bits agree else +1
        vals = params.j_x[j, k] + params.j_y[j, k] * np.where(same, -1.0, 1.0)
        h[flipped, cols] += vals
    h[cols, cols] += diag
    return h


def extract_block_params(block, bitstrings, n):
    '''Run both extractions on one parity block.'''
    diag = np.real(np.diagonal(block))
    offset, b_z, j_z, dres = extract_diagonal_params(diag, bitstrings, n)
    j_x, j_y, ores = extract_offdiag_params(block, bitstrings, n)
    return IsingParameters(n_qubits=n, offset=offset, b_z=b_z, j_z=j_z,
                           j_x=j_x, j_y=j_y, diag_residual=dres,
                           offdiag_residual=ores)


def restrict_to_block(matrix, bitstrings):
    '''Restrict a full 2^n matrix to the given basis states, in order.'''
    idx = np.asarray(bitstrings)
    return matrix[np.ix_(idx, idx)]


def check_parity_coupling(bh, threshold_ratio=1e-8, force=False):
    '''Refuse with BrokenSymmetryError, unless `force`, when the coupling
    between the parity blocks of a BlockHamiltonian exceeds
    threshold_ratio * ||H||_F.  The block-wise spin map and the per-block
    circuits both drop that coupling.'''
    if force:
        return
    # written so that a NaN coupling or norm is refused too
    if not bh.coupling_norm <= threshold_ratio * max(bh.norm, 1e-300):
        raise BrokenSymmetryError(
            "parity blocks are coupled (broken symmetry): coupling norm "
            f"{bh.coupling_norm:.3e} exceeds {threshold_ratio:.1e}*||H||")


def map_system(bh, partition, force=False, threshold_ratio=1e-8):
    '''Map both parity blocks of a BlockHamiltonian to spin parameters.

    Refuses (unless `force`) when the inter-block coupling exceeds
    threshold_ratio * ||H||_F, since the block-diagonal spin model cannot
    represent the coupling.
    '''
    n = partition.n_qubits
    check_parity_coupling(bh, threshold_ratio, force)
    even_states = partition.even_states
    odd_states = partition.odd_states
    pe = extract_block_params(bh.block_plus, even_states, n)
    po = extract_block_params(bh.block_minus, odd_states, n)
    he = _assemble(pe, n, even_states)
    ho = _assemble(po, n, odd_states)
    return MappedSystem(
        even=pe, odd=po, block_even=he, block_odd=ho,
        recon_error_even=float(np.linalg.norm(he - bh.block_plus)),
        recon_error_odd=float(np.linalg.norm(ho - bh.block_minus)))


def parameters_to_dict(params):
    '''JSON-ready dictionary of one block's parameters.'''
    pairs = _pairs(params.n_qubits)
    return {
        "offset": params.offset,
        "b_z": list(params.b_z),
        "j_x": {f"{j},{k}": params.j_x[j, k] for j, k in pairs},
        "j_y": {f"{j},{k}": params.j_y[j, k] for j, k in pairs},
        "j_z": {f"{j},{k}": params.j_z[j, k] for j, k in pairs},
        "residuals": {
            "diagonal": params.diag_residual,
            "offdiagonal": params.offdiag_residual,
        },
    }

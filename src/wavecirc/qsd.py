'''Compilation of arbitrary unitaries into {Ry, Rz, CNOT} circuits.

The recursion alternates a cosine-sine decomposition, which turns the
central factor into a multiplexed Ry, with an eigen-demultiplexing of
each block-diagonal factor, which yields a multiplexed Rz between two
half-size unitaries.  Multiplexed rotations expand through the
Gray-code construction; 2x2 leaves are finished with a ZYZ split.
Global phase is carried explicitly so the gate product reproduces the
input matrix exactly.

The recursion tree has the same shape for every unitary of a given
size, so `qsd_compile` takes a stack of S unitaries and walks the tree
one level at a time.  The 4x4 nodes of level m = 2, most nodes of a
circuit, are factorized by vectorised closed forms: a 4x4 -> 2x2 CSD and
the eigensystem of a 2x2 unitary.  Nodes of 8x8 and larger are
factorized over the whole level by batched numpy calls: the CSD from
one SVD (the right vectors) and two QRs (l0 and l1), the demultiplex
from one eigh of a Hermitian part of l0 l1^H (the eigenvectors) and its
Rayleigh quotients (the eigenphases).  Each such node is checked on its
own: a reconstruction or unitarity residual above CHECK_TOL, or a
conditioning screen (a sine or cosine of alpha, a gap between adjacent
alphas or between adjacent eigh eigenvalues below SCREEN_TOL), sends it
to LAPACK (scipy's zuncsd and zgees, through wavecirc.lapack, which
loads them at the first such node) instead; about 1% of the nodes of a
propagator go there.  The sorting, the demultiplex products and the ZYZ
split run once per level over every node of every circuit.  The result
is the QsdTree of the S circuits: the level arrays the walk built, with
each multiplexor's select angles, the one store of their angles, which
`sim.run_circuit` runs in lockstep and `sim.circuit_matrix` reads.
Gray-code gate angles exist only at export: `_gray_angles` forms them a
level at a time for `qasm.to_qasm`, the one place a compiled circuit is
written out gate by gate.

Both factorizations leave one phase per column free, which LAPACK fixes
differently from one BLAS kernel to another and from one input to its
neighbour a rounding error away.  The compiler fixes it in a canonical
gauge: after sorting, each column of the CSD's l0 and of the
demultiplex's v is multiplied by the conjugate phase of its
largest-magnitude entry (l1, r0, r1 and w take the matching phase), and
the ZYZ split folds beta and delta into (-pi, pi].  The angles are then
a continuous function of the input: the closed forms, the batched
factorizations and LAPACK give the same angles, and QASM is
reproducible across BLAS kernels up to round-off in the angles.  They
stay discontinuous where the factors are not unique or a branch is
crossed: a tie for the largest entry of a column, an eigenphase
crossing -1 (where the sort key wraps), crossing alpha values or
eigenphases, and a ZYZ leaf whose gamma comes within DEGENERATE_TOL of 0
or pi, where only beta + delta or beta - delta is determined.

Gates are written in application order: the first gate of a circuit
acts on the state first.  Qubit q addresses bit q of the basis index
(qubit 0 is the least significant bit).
'''

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import lapack

DEGENERATE_TOL = 1e-13
# the batched factorizations of the 8x8-and-larger nodes: the largest
# reconstruction and unitarity residual a node may have, and the smallest
# sine, cosine, alpha gap and eigh eigenvalue gap it may have, before it
# goes to LAPACK
CHECK_TOL = 1e-12
SCREEN_TOL = 1e-3


class NumericalError(ValueError):
    '''A numerical result failed its check (a matrix that should be
    unitary is not, a compiled circuit misses its target).'''


@lru_cache(maxsize=None)
def _walsh_gray(size):
    '''W[b, s] = (-1)^popcount(b & gray(s)) / size for `size` = 2^k
    control values: the Gray-code gate angles are theta = select @ W.

    A multiplexor's gates are its rotations by theta[s], each followed by
    a CNOT from the control whose bit changes between gray(s) and
    gray(s + 1) (`_ladder`).  The ladder returns every control pattern's
    target to where it started, and X R(theta) X = R(-theta) for Ry and
    Rz, so for control value b the gates multiply to one rotation by
    select[b] = size sum_s W[b, s] theta[s], and size W^T W = 1.'''
    w = np.array([[(-1.0) ** bin(b & _gray(s)).count("1") / size
                   for s in range(size)] for b in range(size)])
    w.flags.writeable = False
    return w


def _gray_angles(select):
    '''Multiplexors' Gray-code gate angles from their select angles, over
    the last axis (see _walsh_gray).'''
    return select @ _walsh_gray(select.shape[-1])


@lru_cache(maxsize=None)
def _ladder(k):
    '''The control qubit of each CNOT of the Gray ladder of a multiplexor
    with controls 0 .. k-1, in order.'''
    size = 2 ** k
    return tuple((_gray(s) ^ _gray((s + 1) % size)).bit_length() - 1
                 for s in range(size))


def _zyz_matrix(beta, gamma, delta):
    '''Rz(beta) Ry(gamma) Rz(delta) for angle arrays of one shape; the
    2x2 matrices are the last two axes.'''
    c, s = np.cos(gamma / 2), np.sin(gamma / 2)
    p = np.exp(-0.5j * (beta + delta))
    q = np.exp(-0.5j * (beta - delta))
    m = np.empty(c.shape + (2, 2), dtype=complex)
    m[..., 0, 0], m[..., 0, 1] = p * c, -q * s
    m[..., 1, 0], m[..., 1, 1] = q.conj() * s, p.conj() * c
    return m


@dataclass(frozen=True, eq=False)
class QsdTree:
    '''The angles of a stack of S compiled n-qubit circuits, level by
    level, as the compiler forms them.

    select[m], shape (3, S, 4^(n-m), 2^(m-1)) for m = 2 .. n, holds the
    select angles, angle b for control value b, of the Rz, Ry and Rz
    multiplexors (rows 0, 1, 2) of every node of level m; node j's
    children on level m - 1 are nodes 4j .. 4j+3.  beta, gamma and delta,
    shape (S, 4^(n-1)), are the ZYZ leaves of level 1; `phase` is the
    global phase (a float for one circuit, one value per circuit for a
    stack, None once dropped).  `qsd_compile` returns it, and
    `qasm.to_qasm` writes its gates.
    '''
    select: dict
    beta: np.ndarray
    gamma: np.ndarray
    delta: np.ndarray
    phase: object = None

    @property
    def n_qubits(self):
        return len(self.select) + 1

    @property
    def n_circuits(self):
        return len(self.beta)

    def counts(self):
        '''Gates of each kind over the stack, in order of first use.'''
        leaves = 4 ** (self.n_qubits - 1)
        angles = leaves - 2 ** (self.n_qubits - 1)   # per multiplexor row
        out = {"rz": 2 * (leaves + angles), "ry": leaves + angles,
               "cx": 3 * angles, "phase": int(self.phase is not None)}
        return {kind: k * self.n_circuits for kind, k in out.items() if k}

    def cnot_count(self):
        return self.counts().get("cx", 0)

    def global_phase(self):
        '''`phase`, or 0 once dropped.'''
        return 0 if self.phase is None else self.phase

    def without_phase(self):
        return replace(self, phase=None)


@dataclass(frozen=True)
class CsdResult:
    '''U = blkdiag(l0, l1) @ [[C, -S], [S, C]] @ blkdiag(r0, r1) with
    C = diag(cos alpha), S = diag(sin alpha), alpha ascending.'''
    l0: np.ndarray
    l1: np.ndarray
    r0: np.ndarray
    r1: np.ndarray
    alpha: np.ndarray


@dataclass(frozen=True)
class DemuxResult:
    '''blkdiag(l0, l1) = blkdiag(v, v) @ blkdiag(D, D*) @ blkdiag(w, w)
    with D = diag(exp(i delta)).'''
    v: np.ndarray
    w: np.ndarray
    delta: np.ndarray


def _check_unitary(u, tol=1e-10, stack=False):
    '''u as a complex array: one square matrix, or with `stack` also a
    stack of them (ValueError on the shape, NumericalError when not
    unitary).'''
    u = np.asarray(u, dtype=complex)
    if u.ndim not in ((2, 3) if stack else (2,)) \
            or u.shape[-1] != u.shape[-2]:
        raise ValueError("input must be a square matrix"
                         + (" or a stack of them" if stack else ""))
    gram = u.conj().swapaxes(-1, -2) @ u
    gram -= np.eye(u.shape[-1])
    if not np.abs(gram).max() <= tol:
        raise NumericalError("input matrix is not unitary")
    return u


def cosine_sine_decompose(u):
    '''Split a 2m x 2m unitary into half-size blocks and mixing angles.'''
    u = _check_unitary(u)
    if u.shape[0] % 2:
        raise ValueError("matrix dimension must be even")
    alpha, l0, l1, r0, r1 = (x[0] for x in _csd(u[None]))
    return CsdResult(l0=l0, l1=l1, r0=r0, r1=r1, alpha=alpha)


# The LAPACK drivers behind scipy.linalg.cossin and schur, the fallback
# of the nodes of 8x8 and larger, are called directly: the wrappers
# re-validate the input and re-query the workspace size on every call,
# which costs more than the factorization at the sizes the recursion
# visits.  Same driver, same arguments and the same
# workspace sizes give the same factors.  They come from
# lapack.flapack(), which `import wavecirc` does not call.

@lru_cache(maxsize=None)
def _csd_lwork(m):
    work, rwork, _ = lapack.flapack().zuncsd_lwork(2 * m, m, m)
    return int(work.real), int(rwork)


def _no_sort(x):
    return None


@lru_cache(maxsize=None)
def _schur_lwork(n):
    work = lapack.flapack().zgees(_no_sort, np.eye(n, dtype=complex),
                                  lwork=-1)[-2]
    return int(work[0].real)


def _csd(u):
    '''CSD of every matrix of a stack (K, 2m, 2m); returns alpha (K, m),
    ascending in each row, and l0, l1, r0, r1 (K, m, m) in the canonical
    gauge: the largest-magnitude entry of each column of l0 is real and
    positive.'''
    alpha, l0, l1, r0, r1 = _csd4(u) if u.shape[-1] == 4 else _csd_stack(u)
    d = _column_gauge(l0)
    dc = d.conj()[:, :, None]
    d = d[:, None, :]
    return alpha, l0 * d, l1 * d, dc * r0, dc * r1


def _column_gauge(x):
    '''Phases (K, m) that make the largest-magnitude entry of each column
    of x (K, m, m) real and positive when multiplied onto the column.'''
    idx = np.argmax(np.abs(x), axis=1)[:, None, :]
    pivot = np.take_along_axis(x, idx, 1)[:, 0]
    return pivot.conj() / np.abs(pivot)


def _csd_lapack(u):
    '''zuncsd per matrix of a stack (K, 2m, 2m), sorted by alpha.'''
    k, m = len(u), u.shape[-1] // 2
    zuncsd = lapack.flapack().zuncsd
    lwork, lrwork = _csd_lwork(m)
    alpha = np.empty((k, m))
    l0, l1, r0, r1 = (np.empty((k, m, m), dtype=complex) for _ in range(4))
    for i, x in enumerate(u):
        *_, alpha[i], l0[i], l1[i], r0[i], r1[i], info = zuncsd(
            x11=x[:m, :m], x12=x[:m, m:], x21=x[m:, :m], x22=x[m:, m:],
            compute_u1=True, compute_u2=True, compute_v1t=True,
            compute_v2t=True, trans=False, signs=False,
            lwork=lwork, lrwork=lrwork)
        if info:
            raise np.linalg.LinAlgError(f"zuncsd failed with info={info}")
    order = np.argsort(alpha, axis=1, kind="stable")
    if np.array_equal(order, np.broadcast_to(np.arange(m), order.shape)):
        return alpha, l0, l1, r0, r1      # zuncsd's usual, sorted output
    cols, rows = order[:, None, :], order[:, :, None]
    return (np.take_along_axis(alpha, order, 1),
            np.take_along_axis(l0, cols, 2), np.take_along_axis(l1, cols, 2),
            np.take_along_axis(r0, rows, 1), np.take_along_axis(r1, rows, 1))


# Closed forms for the 4x4 nodes of level m = 2 (most nodes of a circuit),
# vectorised over the stack: a CSD into 2x2 blocks and the eigensystem of
# a 2x2 unitary.  Both meet the LAPACK factors once the gauge is fixed.

def _unit(v, fallback):
    '''Columns v (K, 2) normalised; a zero column becomes `fallback`.'''
    norm = np.linalg.norm(v, axis=1)
    ok = (norm > 0)[:, None]
    return np.where(ok, v / np.where(ok, norm[:, None], 1), fallback)


def _perp(v):
    '''Unit columns (K, 2) orthogonal to the unit columns v.'''
    return np.stack([-v[:, 1].conj(), v[:, 0].conj()], axis=1)


def _aligned(v, like):
    '''Columns v (K, 2) times the phase that makes their overlap with
    `like` real and non-negative.'''
    z = np.einsum("ki,ki->k", v.conj(), like)
    nz = z != 0
    return v * np.where(nz, z / np.where(nz, np.abs(z), 1), 1)[:, None]


def _csd4(u):
    '''CSD of a stack of 4x4 unitaries (K, 4, 4), alpha ascending.

    The right vectors are the eigenvectors of the Gram matrix of the
    smaller of A = U[:2, :2] and B = U[2:, :2], where the small squared
    cosines or sines keep their relative accuracy; alpha_j =
    atan2(|B x_j|, |A x_j|).  The stronger column of l0 (l1) is A x_j (B
    x_j) normalised and the other one its phase-matched perpendicular;
    each row of r1 comes from whichever of u01 = -l0 S r1 and u11 = l1 C
    r1 has the larger sine or cosine.
    '''
    a, b = u[:, :2, :2], u[:, 2:, :2]
    use_a = (np.linalg.norm(a, axis=(1, 2))
             <= np.linalg.norm(b, axis=(1, 2)))[:, None, None]
    x = _eigh2(np.where(use_a, a.conj().swapaxes(1, 2) @ a,
                        b.conj().swapaxes(1, 2) @ b))
    # alpha ascending: A's Gram gives the larger cosine first, B's the
    # larger sine, so B's order is reversed
    x = np.where(use_a, x, x[:, :, ::-1])
    ax, bx = a @ x, b @ x
    alpha = np.arctan2(np.linalg.norm(bx, axis=1), np.linalg.norm(ax, axis=1))
    swap = (alpha[:, 0] > alpha[:, 1])[:, None]
    alpha = np.where(swap, alpha[:, ::-1], alpha)
    x, ax, bx = (np.where(swap[:, None], y[:, :, ::-1], y)
                 for y in (x, ax, bx))
    e0, e1 = np.eye(2, dtype=complex)
    l0_0 = _unit(ax[:, :, 0], e0)
    l1_1 = _unit(bx[:, :, 1], e1)
    l0 = np.stack([l0_0, _aligned(_perp(l0_0), ax[:, :, 1])], axis=2)
    l1 = np.stack([_aligned(_perp(l1_1), bx[:, :, 0]), l1_1], axis=2)
    c, s = np.cos(alpha)[:, :, None], np.sin(alpha)[:, :, None]
    # the chosen divisor is at least 1/sqrt(2); clip only guards the other
    from_sin = -(l0.conj().swapaxes(1, 2) @ u[:, :2, 2:]) / s.clip(0.5)
    from_cos = (l1.conj().swapaxes(1, 2) @ u[:, 2:, 2:]) / c.clip(0.5)
    r1 = np.where(s >= c, from_sin, from_cos)
    return alpha, l0, l1, x.conj().swapaxes(1, 2), r1


def _eigh2(g):
    '''Eigenvectors of Hermitian 2x2 matrices (K, 2, 2), as columns:
    the larger eigenvalue's first.'''
    b = g[:, 0, 1]
    half = 0.5 * np.arctan2(2 * np.abs(b), g[:, 0, 0].real - g[:, 1, 1].real)
    c, s = np.cos(half), np.sin(half)
    ph = np.exp(-1j * np.angle(b))
    return np.stack([np.stack([c, ph * s], 1),
                     np.stack([-s, ph * c], 1)], axis=2)


def demultiplex(l0, l1):
    '''Factor blkdiag(l0, l1) through a shared eigenbasis.

    l0 l1^dag is unitary; its eigendecomposition V D^2 V^dag gives
    delta = arg(eigenvalue)/2 with arg in (-pi, pi], and w = D V^dag l1.
    Eigenvalues are sorted by phase angle.
    '''
    l0, l1 = _check_unitary(l0), _check_unitary(l1)
    v, w, delta = (x[0] for x in _demultiplex(l0[None], l1[None]))
    return DemuxResult(v=v, w=w, delta=delta)


def _demultiplex(l0, l1):
    '''demultiplex over stacks (K, m, m); returns v, w (K, m, m) and
    delta (K, m), with the largest-magnitude entry of each column of v
    real and positive.'''
    x = l0 @ l1.conj().swapaxes(1, 2)
    phases, v = _eig2_unitary(x) if x.shape[-1] == 2 else _eig_stack(x)
    order = np.argsort(phases, axis=1, kind="stable")
    delta = np.take_along_axis(phases, order, 1) / 2
    v = np.take_along_axis(v, order[:, None, :], 2)
    v = v * _column_gauge(v)[:, None, :]
    w = (np.exp(1j * delta)[:, :, None] * v.conj().swapaxes(1, 2)) @ l1
    return v, w, delta


def _schur_lapack(x):
    '''zgees per matrix of a stack of unitaries (K, m, m): eigenphases
    in (-pi, pi] and the Schur vectors, which are eigenvectors.'''
    k, m = x.shape[:2]
    zgees = lapack.flapack().zgees
    lwork = _schur_lwork(m)
    t = np.empty((k, m, m), dtype=complex)
    v = np.empty((k, m, m), dtype=complex)
    for i, y in enumerate(x):
        t[i], _, _, v[i], _, info = zgees(_no_sort, y, lwork=lwork,
                                          overwrite_a=True)
        if info:
            raise np.linalg.LinAlgError(f"zgees failed with info={info}")
    return np.angle(np.diagonal(t, axis1=1, axis2=2)), v


def _eig2_unitary(x):
    '''Eigenphases in (-pi, pi] and eigenvectors of 2x2 unitaries (K, 2,
    2).  x = exp(i psi) [[p, -q*], [q, p*]] has eigenphases psi +- theta
    with cos theta = Re p; the +theta eigenvector is parallel to (s + z,
    -i q) and to ((-i q)*, s - z), z = Im p, s = sin theta.'''
    psi = 0.5 * np.angle(x[:, 0, 0] * x[:, 1, 1] - x[:, 0, 1] * x[:, 1, 0])
    n = x * np.exp(-1j * psi)[:, None, None]
    p = 0.5 * (n[:, 0, 0] + n[:, 1, 1].conj())
    iq = -0.5j * (n[:, 1, 0] - n[:, 0, 1].conj())       # -i q
    z = p.imag
    s = np.hypot(z, np.abs(iq))
    theta = np.arctan2(s, p.real)
    # s + z cancels when z < 0, where s - z does not
    up = _unit(np.where((z >= 0)[:, None], np.stack([s + z, iq], 1),
                        np.stack([iq.conj(), s - z], 1)),
               np.array([1, 0], dtype=complex))
    phases = np.stack([psi - theta, psi + theta], axis=1)
    phases = np.where(phases > np.pi, phases - 2 * np.pi,
                      np.where(phases <= -np.pi, phases + 2 * np.pi, phases))
    return phases, np.stack([_perp(up), up], axis=2)


# Nodes of 8x8 and larger, factorized over the whole stack by batched
# numpy calls.  Each node is checked on its own; one that fails the check
# or the conditioning screen is factorized again by LAPACK.

def _csd_stack(u):
    '''CSD of a stack (K, 2m, 2m), alpha ascending: a batched SVD for the
    right vectors and batched QRs for l0 and l1, with `_csd_lapack` for
    the nodes that fail `_csd_ok`.

    X holds the right singular vectors of the smaller of A = U[:m, :m]
    and B = U[m:, :m], ordered by ascending alpha = atan2(|B x_j|, |A
    x_j|); l0 (l1) is the Q of A X (B X) with its columns in descending
    cosine (sine) and R's diagonal made real and positive; each row of
    r1 comes from whichever of u01 = -l0 S r1 and u11 = l1 C r1 has the
    larger sine or cosine.
    '''
    m = u.shape[-1] // 2
    a, b = u[:, :m, :m], u[:, m:, :m]
    use_a = (np.linalg.norm(a, axis=(1, 2))
             <= np.linalg.norm(b, axis=(1, 2)))[:, None, None]
    xh = np.linalg.svd(np.where(use_a, a, b))[2]
    # A's singular values are the cosines, descending; B's the sines
    x = np.where(use_a, xh, xh[:, ::-1]).conj().swapaxes(1, 2)
    ax, bx = a @ x, b @ x
    alpha = np.arctan2(np.linalg.norm(bx, axis=1), np.linalg.norm(ax, axis=1))
    l0 = _positive_qr(ax)
    l1 = _positive_qr(bx[:, :, ::-1])[:, :, ::-1]
    c, s = np.cos(alpha)[:, :, None], np.sin(alpha)[:, :, None]
    from_sin = -(l0.conj().swapaxes(1, 2) @ u[:, :m, m:]) / s.clip(0.5)
    from_cos = (l1.conj().swapaxes(1, 2) @ u[:, m:, m:]) / c.clip(0.5)
    r1 = np.where(s >= c, from_sin, from_cos)
    out = alpha, l0, l1, x.conj().swapaxes(1, 2), r1
    return _with_fallback(out, ~_csd_ok(u, *out), _csd_lapack, u)


def _positive_qr(y):
    '''The Q of a batched QR of y (K, m, m), each column turned so that
    R's diagonal is real and positive.'''
    q, r = np.linalg.qr(y)
    d = np.diagonal(r, axis1=1, axis2=2)
    size = np.abs(d)
    return q * np.where(size > 0, d / np.where(size > 0, size, 1), 1)[:, None]


def _csd_ok(u, alpha, l0, l1, r0, r1):
    '''Per node (K,): the factors reconstruct u and are unitary within
    CHECK_TOL, and every sine, cosine and alpha gap is at least
    SCREEN_TOL.'''
    m = alpha.shape[1]
    c, s = np.cos(alpha)[:, None, :], np.sin(alpha)[:, None, :]
    blocks = ((l0, c, r0, u[:, :m, :m]), (l0, -s, r1, u[:, :m, m:]),
              (l1, s, r0, u[:, m:, :m]), (l1, c, r1, u[:, m:, m:]))
    return ((_largest((x * f) @ y - z for x, f, y, z in blocks) <= CHECK_TOL)
            & (_largest(f @ f.conj().swapaxes(1, 2) - np.eye(m)
                        for f in (l0, l1, r0, r1)) <= CHECK_TOL)
            & (np.minimum(c, s).min(axis=(1, 2)) >= SCREEN_TOL)
            & (np.diff(alpha, axis=1).min(axis=1) >= SCREEN_TOL))


def _largest(residuals):
    '''The largest magnitude per node (K,) over residuals (K, m, m), taken
    one array at a time.'''
    return np.max([np.abs(r).max(axis=(1, 2)) for r in residuals], axis=0)


def _eig_stack(x):
    '''Eigenphases in (-pi, pi] and eigenvectors of a stack of unitaries
    (K, m, m): the eigenvectors of a batched eigh of the Hermitian part
    of exp(-i phi) x, the phases from the Rayleigh quotients v^H x v,
    with `_schur_lapack` for the nodes where x v = v exp(i phases) or the
    unitarity of v misses by more than CHECK_TOL, or two adjacent eigh
    eigenvalues lie closer than SCREEN_TOL.

    The Hermitian part has the eigenvalues cos(theta_j - phi), which
    coincide for eigenphases mirrored about phi; phi = arg(tr x) + pi/2
    puts the mirror at right angles to where the eigenphases gather.
    '''
    m = x.shape[-1]
    phi = np.angle(np.trace(x, axis1=1, axis2=2)) + np.pi / 2
    y = x * np.exp(-1j * phi)[:, None, None]
    ev, v = np.linalg.eigh(0.5 * (y + y.conj().swapaxes(1, 2)))
    xv = x @ v
    phases = np.angle(np.einsum("kij,kij->kj", v.conj(), xv))
    ok = ((_largest([xv - v * np.exp(1j * phases)[:, None, :],
                     v.conj().swapaxes(1, 2) @ v - np.eye(m)]) <= CHECK_TOL)
          & (np.diff(ev, axis=1).min(axis=1) >= SCREEN_TOL))
    return _with_fallback((phases, v), ~ok, _schur_lapack, x)


def _with_fallback(out, bad, lapack, x):
    '''The arrays `out`, with the rows of the nodes `bad` replaced by
    `lapack(x[bad])`.'''
    if bad.any():
        for y, z in zip(out, lapack(x[bad])):
            y[bad] = z
    return out


def _gray(i):
    return i ^ (i >> 1)


def zyz(u):
    '''Angles (alpha, beta, gamma, delta) with
    u = exp(i alpha) Rz(beta) Ry(gamma) Rz(delta), gamma in [0, pi],
    beta and delta in (-pi, pi], and delta = 0 when gamma is 0 or pi.'''
    u = _check_unitary(u)
    if u.shape != (2, 2):
        raise ValueError("zyz expects a 2x2 matrix")
    return tuple(float(x[0]) for x in _zyz_angles(u[None]))


def _zyz_angles(u):
    '''zyz for a stack of 2x2 unitaries, shape (L, 2, 2); returns the
    arrays alpha, beta, gamma, delta.'''
    det = u[:, 0, 0] * u[:, 1, 1] - u[:, 0, 1] * u[:, 1, 0]
    alpha = 0.5 * np.angle(det)
    v = u * np.exp(-1j * alpha)[:, None, None]
    s, c = np.abs(v[:, 1, 0]), np.abs(v[:, 1, 1])
    gamma = 2 * np.arctan2(s, c)
    p, q = np.angle(v[:, 1, 0]), np.angle(v[:, 1, 1])
    no_s, no_c = s < DEGENERATE_TOL, c < DEGENERATE_TOL
    beta = np.where(no_s, 2 * q, np.where(no_c, 2 * p, q + p))
    delta = np.where(no_s | no_c, 0.0, q - p)
    # fold beta and delta into (-pi, pi]; each 2pi shift flips the SU(2)
    # sign, compensated through the global phase.  Both start in
    # (-2pi, 2pi], so one fold each suffices.
    for x in (beta, delta):
        high, low = x > np.pi, x <= -np.pi
        x -= 2 * np.pi * high
        x += 2 * np.pi * low
        alpha = np.where(high | low, alpha + np.pi, alpha)
    return alpha, beta, gamma, delta


def _split(level):
    '''One recursion level over a stack of nodes (K, 2h, 2h): the select
    angles (3, K, h) of each node's Rz, Ry and Rz multiplexors, and its
    four half-size children (K, 4, h, h) in layout order.'''
    alpha, l0, l1, r0, r1 = _csd(level)
    v_r, w_r, delta_r = _demultiplex(r0, r1)
    v_l, w_l, delta_l = _demultiplex(l0, l1)
    return (np.stack([-2 * delta_r, 2 * alpha, -2 * delta_l]),
            np.stack([w_r, v_r, w_l, v_l], axis=1))


# the kinds of a node's three multiplexors, in application order
MUX_KINDS = ("rz", "ry", "rz")


def _layout(m, node=0):
    '''Application order of the blocks below node `node` of the m-qubit
    level: (1, None, node) for a ZYZ leaf, (m, r, node) for multiplexor r
    of a node (0: Rz of the right factor, 1: Ry, 2: Rz of the left).
    Node j's children on the next level are 4j .. 4j+3: the w and v of
    the right factor's demultiplex, then those of the left factor's.'''
    if m == 1:
        yield 1, None, node
        return
    for child, mux in enumerate((0, 1, 2, None)):
        yield from _layout(m - 1, 4 * node + child)
        if mux is not None:
            yield m, mux, node


def qsd_compile(u):
    '''Compile a 2^n x 2^n unitary, or a stack (S, 2^n, 2^n) of them,
    into the QsdTree of Ry/Rz/CNOT circuits plus a global phase.

    A stack gives one QsdTree of S circuits, circuit i compiled from
    u[i]; each circuit is the one `qsd_compile(u[i])` gives, up to
    rounding.  The tree is walked level by level: level m holds the
    4^(n-m) nodes of size 2^m of every circuit.
    '''
    u = _check_unitary(u, stack=True)
    stacked = u.ndim == 3
    u = u if stacked else u[None]
    n_circ, dim = len(u), u.shape[-1]
    n = dim.bit_length() - 1
    if n < 1 or 2 ** n != dim:
        raise ValueError("matrix dimension must be a power of two")
    if n > 12:
        raise ValueError("refusing to compile more than 12 qubits")
    select = {}               # m -> (3, S, 4^(n-m), 2^(m-1))
    level = u
    for m in range(n, 1, -1):
        angles, level = _split(level.reshape(-1, 2 ** m, 2 ** m))
        select[m] = angles.reshape(3, n_circ, -1, 2 ** (m - 1))
    alpha, beta, gamma, delta = (x.reshape(n_circ, -1)
                                 for x in _zyz_angles(level.reshape(-1, 2, 2)))
    phase = np.mod(alpha.sum(axis=1) + np.pi, 2 * np.pi) - np.pi
    return QsdTree(select, beta, gamma, delta,
                   phase if stacked else float(phase[0]))


def cnot_count(n):
    '''Exact CNOT count of qsd_compile for an n-qubit unitary:
    (3/4) 4^n - (3/2) 2^n.'''
    if n < 1:
        raise ValueError("n must be >= 1")
    return 3 * 4 ** (n - 1) - 3 * 2 ** (n - 1)


def cnot_lower_bound(n):
    '''Theoretical minimum CNOT count for a generic n-qubit unitary,
    ceil((4^n - 3n - 1) / 4).'''
    if n < 1:
        raise ValueError("n must be >= 1")
    return -((4 ** n - 3 * n - 1) // -4)

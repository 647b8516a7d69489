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
one level at a time.  Nodes of 8x8 and larger are factorized by LAPACK
(zuncsd, zgees) per matrix; the 4x4 nodes of level m = 2, most nodes of
a circuit, by vectorised closed forms: a 4x4 -> 2x2 CSD and the
eigensystem of a 2x2 unitary.  The sorting, the demultiplex products,
the Walsh-Gray angle transform and the ZYZ split run once per level over
every node of every circuit.  The result is one GateSequence of S
circuits sharing one gate layout.  Each multiplexed rotation
(Multiplexor) and each ZYZ leaf (ZyzLeaf) is one block holding an angle
array with one row per circuit, so the simulator runs all S circuits in
lockstep, one vectorised step per block.

Both factorizations leave one phase per column free, which LAPACK fixes
differently from one BLAS kernel to another and from one input to its
neighbour a rounding error away.  The compiler fixes it in a canonical
gauge: after sorting, each column of the CSD's l0 and of the
demultiplex's v is multiplied by the conjugate phase of its
largest-magnitude entry (l1, r0, r1 and w take the matching phase), and
the ZYZ split folds beta and delta into (-pi, pi].  The angles are then
a continuous function of the input: the closed forms and LAPACK give
the same angles, and QASM is reproducible across BLAS kernels up to
round-off in the angles.  They stay discontinuous where the factors are
not unique or a branch is crossed: a tie for the largest entry of a
column, an eigenphase crossing -1 (where the sort key wraps), crossing
alpha values or eigenphases, and a ZYZ leaf whose gamma comes within
DEGENERATE_TOL of 0 or pi, where only beta + delta or beta - delta is
determined.

Gates are listed in application order: the first gate in a sequence
acts on the state first.  Qubit q addresses bit q of the basis index
(qubit 0 is the least significant bit).
'''

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg.lapack import zgees, zuncsd, zuncsd_lwork

DEGENERATE_TOL = 1e-13


class NumericalError(ValueError):
    '''A numerical result failed its check (a matrix that should be
    unitary is not, a compiled circuit misses its target).'''


@dataclass(frozen=True)
class Gate:
    '''One elementary gate.

    kind: "ry" | "rz" | "cx" | "phase".  Rotations use `target` and
    `angle`; cx uses `control` and `target`; phase is global.  In a stack
    of circuits `angle` may hold one value per circuit.
    '''
    kind: str
    target: int = 0
    control: int = None
    angle: float = None

    def __post_init__(self):
        if self.kind == "cx" and self.control == self.target:
            raise ValueError("cx control and target must differ")
        if self.angle is not None and not np.isfinite(self.angle).all():
            raise ValueError("gate angle must be finite")

    def rows(self, i=0):
        if np.ndim(self.angle) == 0:
            return [(self.kind, self.target, self.control, self.angle)]
        return [(self.kind, self.target, self.control, float(self.angle[i]))]

    def gates(self, i=0):
        if np.ndim(self.angle) == 0:
            return [self]
        return [Gate(*row) for row in self.rows(i)]

    def counts(self):
        return {self.kind: 1}


class GateSequence:
    '''Ordered gate list over n qubits, for one circuit or a stack of
    `n_circuits` circuits with the same gate layout.

    `blocks` holds single Gates and the compiler's fused blocks
    (Multiplexor, ZyzLeaf) in application order.  Every block expands
    circuit i into plain (kind, target, control, angle) rows with
    `rows(i)`, and into Gates built from those rows with `gates(i)`.
    `circuit(i)` expands circuit i into single gates; `gates`, iteration,
    `len` and `counts` cover every circuit of the stack, circuit by
    circuit.
    '''

    def __init__(self, n_qubits, gates=(), n_circuits=1):
        self.n_qubits = n_qubits
        self.n_circuits = n_circuits
        self.blocks = list(gates)

    def circuit(self, i):
        return GateSequence(self.n_qubits,
                            [g for b in self.blocks for g in b.gates(i)])

    @property
    def gates(self):
        return [g for i in range(self.n_circuits)
                for g in self.circuit(i).blocks]

    def append(self, gate):
        self.blocks.append(gate)

    def counts(self):
        out = {}
        for b in self.blocks:
            for kind, k in b.counts().items():
                out[kind] = out.get(kind, 0) + k * self.n_circuits
        return out

    def cnot_count(self):
        return self.counts().get("cx", 0)

    def global_phase(self):
        '''Sum of the phase gates: a float, or one value per circuit.'''
        return sum(b.angle for b in self.blocks
                   if isinstance(b, Gate) and b.kind == "phase")

    def without_phase(self):
        return GateSequence(self.n_qubits,
                            [b for b in self.blocks
                             if not (isinstance(b, Gate)
                                     and b.kind == "phase")],
                            self.n_circuits)

    def __len__(self):
        return sum(self.counts().values())

    def __iter__(self):
        return iter(self.gates)


@lru_cache(maxsize=None)
def _walsh_gray(k):
    '''Gray-code tables for k controls: M[b, s] = (-1)^popcount(b &
    gray(s)), and ladder[s] = index of the control whose select bit
    changes between gray(s) and gray(s + 1).'''
    size = 2 ** k
    m = np.array([[(-1.0) ** bin(b & _gray(s)).count("1")
                   for s in range(size)] for b in range(size)])
    m.flags.writeable = False
    ladder = tuple((_gray(s) ^ _gray((s + 1) % size)).bit_length() - 1
                   for s in range(size))
    return m, ladder


@lru_cache(maxsize=None)
def _ladder_rows(target, controls):
    '''The CNOT rows of a multiplexor's Gray ladder, in order.'''
    _, ladder = _walsh_gray(len(controls))
    return tuple(("cx", target, controls[c], None) for c in ladder)


def _finite(angles):
    '''`angles` itself; ValueError unless every entry is finite.'''
    if not np.isfinite(angles).all():
        raise ValueError("gate angle must be finite")
    return angles


@dataclass(frozen=True, eq=False)
class Multiplexor:
    '''Gray-code expansion of a uniformly controlled rotation.

    For s = 0 .. 2^k - 1 it applies R(theta[i, s]) to `target`, then a
    CNOT onto `target` from the control whose select bit changes between
    gray(s) and gray(s + 1); k >= 1.  Row i of `theta` is circuit i of
    the stack.
    '''
    kind: str              # "ry" | "rz"
    target: int
    controls: tuple        # controls[0] supplies the lowest select bit
    theta: np.ndarray      # shape (n_circuits, 2^k)

    def rows(self, i=0):
        '''Circuit i as (kind, target, control, angle) rows in application
        order: the one expansion of the Gray ladder.'''
        angles = _finite(self.theta[i]).tolist()
        out = [None] * (2 * len(angles))
        out[::2] = [(self.kind, self.target, None, a) for a in angles]
        out[1::2] = _ladder_rows(self.target, self.controls)
        return out

    def gates(self, i=0):
        return [Gate(*row) for row in self.rows(i)]

    def counts(self):
        k = self.theta.shape[1]
        return {self.kind: k, "cx": k}

    def select_angles(self):
        '''Net rotation angle for each control value b, one column per
        circuit: shape (2^k, n_circuits).

        The CNOT ladder returns every control pattern's target to where
        it started, and X R(theta) X = R(-theta) for Ry and Rz, so for
        control value b the gates multiply to one rotation by
        sum_s (-1)^popcount(b & gray(s)) theta[s].
        '''
        return _walsh_gray(len(self.controls))[0] @ self.theta.T


@dataclass(frozen=True, eq=False)
class ZyzLeaf:
    '''Rz(delta), Ry(gamma), Rz(beta) on `target`, in application order;
    each angle holds one value per circuit of the stack.'''
    target: int
    beta: np.ndarray
    gamma: np.ndarray
    delta: np.ndarray

    def rows(self, i=0):
        q = self.target
        delta, gamma, beta = _finite(
            np.array([self.delta[i], self.gamma[i], self.beta[i]])).tolist()
        return [("rz", q, None, delta), ("ry", q, None, gamma),
                ("rz", q, None, beta)]

    def gates(self, i=0):
        return [Gate(*row) for row in self.rows(i)]

    def counts(self):
        return {"rz": 2, "ry": 1}

    def matrix(self):
        '''The 2x2 products Rz(beta) Ry(gamma) Rz(delta), shape
        (n_circuits, 2, 2).'''
        c, s = np.cos(self.gamma / 2), np.sin(self.gamma / 2)
        p = np.exp(-0.5j * (self.beta + self.delta))
        q = np.exp(-0.5j * (self.beta - self.delta))
        m = np.empty((c.size, 2, 2), dtype=complex)
        m[:, 0, 0], m[:, 0, 1] = p * c, -q * s
        m[:, 1, 0], m[:, 1, 1] = q.conj() * s, p.conj() * c
        return m


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


# The LAPACK drivers behind scipy.linalg.cossin and schur are called
# directly: the wrappers re-validate the input and re-query the workspace
# size on every call, which costs more than the factorization at the
# sizes the recursion visits.  Same driver, same arguments and the same
# workspace sizes give the same factors.

@lru_cache(maxsize=None)
def _csd_lwork(m):
    work, rwork, _ = zuncsd_lwork(2 * m, m, m)
    return int(work.real), int(rwork)


def _no_sort(x):
    return None


@lru_cache(maxsize=None)
def _schur_lwork(n):
    work = zgees(_no_sort, np.eye(n, dtype=complex), lwork=-1)[-2]
    return int(work[0].real)


def _csd(u):
    '''CSD of every matrix of a stack (K, 2m, 2m); returns alpha (K, m),
    ascending in each row, and l0, l1, r0, r1 (K, m, m) in the canonical
    gauge: the largest-magnitude entry of each column of l0 is real and
    positive.'''
    alpha, l0, l1, r0, r1 = _csd4(u) if u.shape[-1] == 4 else _csd_lapack(u)
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
    phases, v = _eig2_unitary(x) if x.shape[-1] == 2 else _schur_lapack(x)
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


def _gray(i):
    return i ^ (i >> 1)


def multiplexed_rotation_to_gates(axis, angles, target, controls):
    '''Expand a uniformly controlled rotation through Gray-code ordering.

    angles[b] is the rotation applied when the control qubits hold the
    binary value b (controls[0] supplies the least significant select
    bit).  Emits 2^k rotations and 2^k CNOTs for k controls.
    '''
    if axis not in ("y", "z"):
        raise ValueError("axis must be 'y' or 'z'")
    kind = "r" + axis
    controls = tuple(controls)
    if target in controls:
        raise ValueError("target must not be a control")
    k = len(controls)
    angles = np.asarray(angles, dtype=float)
    if len(angles) != 2 ** k:
        raise ValueError("need exactly 2^k angles for k controls")
    seq = GateSequence(max((target,) + controls) + 1)
    if k == 0:
        seq.append(Gate(kind, target=target, angle=float(angles[0])))
    else:
        m, _ = _walsh_gray(k)
        seq.append(Multiplexor(kind, target, controls,
                               angles[None] @ m / len(angles)))
    return seq


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
    into Ry/Rz/CNOT gates plus one trailing global-phase gate.

    A stack gives one GateSequence of S circuits, circuit i compiled from
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
    theta = {}                # m -> (3, S, 4^(n-m), 2^(m-1))
    level = u
    for m in range(n, 1, -1):
        half = 2 ** (m - 1)
        angles, level = _split(level.reshape(-1, 2 * half, 2 * half))
        walsh, _ = _walsh_gray(m - 1)
        theta[m] = (angles @ walsh / half).reshape(3, n_circ, -1, half)
    alpha, beta, gamma, delta = (x.reshape(n_circ, -1)
                                 for x in _zyz_angles(level.reshape(-1, 2, 2)))
    kinds = ("rz", "ry", "rz")
    blocks = [ZyzLeaf(0, beta[:, j], gamma[:, j], delta[:, j]) if m == 1
              else Multiplexor(kinds[mux], m - 1, tuple(range(m - 1)),
                               theta[m][mux, :, j])
              for m, mux, j in _layout(n)]
    phase = np.mod(alpha.sum(axis=1) + np.pi, 2 * np.pi) - np.pi
    blocks.append(Gate("phase", angle=phase if stacked else float(phase[0])))
    return GateSequence(n, blocks, n_circ)


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

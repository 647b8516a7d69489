'''Independent reference physics for the output checks.

Nothing here imports wavecirc.  The grid Hamiltonian, the mirror-pair
rotation, the exact evolution, the shot-noise floor and the gate
semantics of the emitted OpenQASM are rebuilt from their definitions,
so that a check compares the program with a second computation rather
than with itself.

Units: Hartree atomic units inside; Angstrom, femtoseconds and cm^-1 at
the edges.  Constants are CODATA 2018.
'''

import math
import re

import numpy as np
from numpy.polynomial import hermite
from scipy.linalg import toeplitz

BOHR_ANGSTROM = 0.529177210903
HARTREE_KCALMOL = 627.5094740631
HARTREE_CM1 = 219474.6313632
PROTON_MASS = 1836.15267343
FS_AU = 41.341373335


def grid_points(n_qubits, length):
    '''2^N points in Angstrom, symmetric about 0.'''
    n = 2 ** n_qubits
    return -length / 2 + np.arange(n) * (length / (n - 1))


def double_well(x, barrier_kcal, minimum_angstrom):
    '''a x^4 - b x^2 in Hartree with minima at +-minimum_angstrom and the
    barrier barrier_kcal above them.'''
    vb = barrier_kcal / HARTREE_KCALMOL
    return vb * (x / minimum_angstrom) ** 4 \
        - 2 * vb * (x / minimum_angstrom) ** 2


def daf_band(n_qubits, length, mass=PROTON_MASS, m_daf=20, sigma_ratio=1.5):
    '''First row of the Toeplitz DAF kinetic matrix: the second
    derivative of the Hermite-expanded Gaussian free propagator,
    -1/(2m) * delta''_M(d) * dx, summed with numpy's Hermite series.'''
    dx = length / (2 ** n_qubits - 1) / BOHR_ANGSTROM
    sigma = sigma_ratio * dx
    d = np.arange(2 ** n_qubits) * dx
    coef = np.zeros(m_daf + 3)
    for q in range(m_daf // 2 + 1):
        coef[2 * q + 2] = (-0.25) ** q / math.factorial(q)
    z = d / (math.sqrt(2) * sigma)
    series = hermite.hermval(z, coef)
    pref = -1.0 / (4 * mass * sigma ** 3 * math.sqrt(2 * math.pi))
    return pref * np.exp(-z ** 2) * series * dx


def hamiltonian(model):
    '''Dense grid Hamiltonian K + diag(V) for a workload model dict.'''
    x = grid_points(model["n_qubits"], model["length_angstrom"])
    v = double_well(x, model["barrier_kcal"], model["minimum_angstrom"])
    return toeplitz(daf_band(model["n_qubits"], model["length_angstrom"])) \
        + np.diag(v)


def gaussian(model):
    '''Normalized Gaussian wavepacket on the grid.'''
    x = grid_points(model["n_qubits"], model["length_angstrom"])
    psi = np.exp(-(x - model["mu_angstrom"]) ** 2
                 / (2 * model["sigma_angstrom"] ** 2))
    return psi / np.linalg.norm(psi)


def mirror_rotation(n_qubits):
    '''Orthogonal G: row i < half is (e_i + e_{n-i})/sqrt 2, row i >= half
    is (e_{n-i} - e_i)/sqrt 2, with n = 2^N - 1.'''
    dim = 2 ** n_qubits
    g = np.zeros((dim, dim))
    r = 1 / math.sqrt(2)
    for i in range(dim):
        g[i, i] = r if i < dim // 2 else -r
        g[i, dim - 1 - i] = r
    return g


def parity_blocks(h):
    '''(even, odd) diagonal blocks of G H G^T, each 2^(N-1) square.'''
    g = mirror_rotation(int(round(math.log2(len(h)))))
    ht = g @ h @ g.T
    half = len(h) // 2
    return ht[:half, :half], ht[half:, half:]


def parity_order(n_qubits):
    '''Basis states with even popcount ascending, then odd ascending.'''
    states = range(2 ** n_qubits)
    even = [s for s in states if bin(s).count("1") % 2 == 0]
    odd = [s for s in states if bin(s).count("1") % 2 == 1]
    return np.array(even), np.array(odd)


def evolve(h, psi0, dt_fs, steps):
    '''Amplitudes psi(t_s), s = 0..steps, by numpy.linalg.eigh.'''
    e, x = np.linalg.eigh(h)
    c0 = x.T @ psi0
    t = dt_fs * FS_AU * np.arange(steps + 1)
    return (np.exp(-1j * np.outer(t, e)) * c0) @ x.T


def mirror_probabilities(psi_t):
    '''qp, qm: probabilities of the even and odd combination of each
    mirror pair (i, n-i), i < half, per time step.'''
    half = psi_t.shape[1] // 2
    a, b = psi_t[:, :half], psi_t[:, ::-1][:, :half]
    return np.abs(a + b) ** 2 / 2, np.abs(a - b) ** 2 / 2


def shot_floor(psi_t, shots):
    '''Expected time- and grid-averaged |rho_shots - rho| under
    multinomial sampling with the reference pair split:
    sqrt(2/pi) mean sqrt((qp(1-qp) + qm(1-qm) - 2 qp qm)/(4S)).'''
    qp, qm = mirror_probabilities(psi_t)
    var = qp * (1 - qp) + qm * (1 - qm) - 2 * qp * qm
    return math.sqrt(2 / math.pi) * float(np.mean(np.sqrt(var / (4 * shots))))


def beat_lines_cm1(energies, states, psi0, min_population):
    '''Energy differences E_j - E_i (cm^-1) between eigenstates that psi0
    populates at least min_population: the only frequencies at which
    its density can oscillate.'''
    pop = np.abs(states.T @ psi0) ** 2
    e = energies[pop >= min_population]
    diffs = e[None, :] - e[:, None]
    return np.unique(diffs[diffs > 0]) * HARTREE_CM1


def spectrum_bin_cm1(dt_fs, steps):
    '''Unpadded frequency resolution of a trajectory of steps+1 samples.'''
    return HARTREE_CM1 * 2 * math.pi / (FS_AU * dt_fs * (steps + 1))


def diagonal_fit_residual(diag, bitstrings, n_qubits):
    '''||A theta - d|| of the minimum-norm least-squares fit of a block
    diagonal by c + sum_j b_j z_j + sum_{j<k} J_jk z_j z_k, with
    z_j = (-1)^(bit j).  The residual is unique even when A is rank
    deficient.'''
    bits = (np.asarray(bitstrings)[:, None] >> np.arange(n_qubits)) & 1
    z = 1.0 - 2.0 * bits
    cols = [np.ones(len(bits))] + [z[:, j] for j in range(n_qubits)]
    cols += [z[:, j] * z[:, k] for j in range(n_qubits)
             for k in range(j + 1, n_qubits)]
    a = np.column_stack(cols)
    theta = np.linalg.lstsq(a, diag, rcond=None)[0]
    return float(np.linalg.norm(a @ theta - diag))


def cnot_law(n):
    '''CNOTs of the recursive QSD of an n-qubit unitary:
    (3/4) 4^n - (3/2) 2^n.'''
    return 3 * 4 ** n // 4 - 3 * 2 ** n // 2


_QASM_GATE = re.compile(
    r"^(ry|rz)\(([^)]+)\) q\[(\d+)\];$|^cx q\[(\d+)\],q\[(\d+)\];$")
_QASM_PHASE = re.compile(r"^// global phase dropped: (\S+)$")
_QASM_QREG = re.compile(r"^qreg q\[(\d+)\];$")


def parse_qasm(text):
    '''(n_qubits, global phase, gates) of an emitted OpenQASM 2.0 file;
    gates are (kind, target, control or None, angle or None).'''
    n_qubits, phase, gates = None, 0.0, []
    for line in text.splitlines():
        line = line.strip()
        if not line or line in ("OPENQASM 2.0;", 'include "qelib1.inc";'):
            continue
        m = _QASM_PHASE.match(line)
        if m:
            phase = float(m.group(1))
            continue
        m = _QASM_QREG.match(line)
        if m:
            n_qubits = int(m.group(1))
            continue
        m = _QASM_GATE.match(line)
        if not m:
            raise ValueError(f"unexpected QASM line {line!r}")
        if m.group(1):
            gates.append((m.group(1), int(m.group(3)), None,
                          float(m.group(2))))
        else:
            gates.append(("cx", int(m.group(5)), int(m.group(4)), None))
    if n_qubits is None:
        raise ValueError("QASM file declares no register")
    return n_qubits, phase, gates


def apply_qasm(n_qubits, phase, gates, states):
    '''Apply gates one by one to column states (2^n, k); qubit q is bit q
    of the basis index.  Ry(a) = [[c, -s], [s, c]] with c, s = cos,
    sin(a/2); Rz(a) = diag(e^{-ia/2}, e^{ia/2}); CNOT flips bit t where
    bit c is set.'''
    psi = np.array(states, dtype=complex)
    dim, k = psi.shape
    index = np.arange(dim)
    flips = {}
    for kind, t, c, a in gates:
        if kind == "cx":
            if (c, t) not in flips:
                flips[c, t] = index ^ (((index >> c) & 1) << t)
            psi = psi[flips[c, t]]
            continue
        # axes: (bits above t, bit t, bits below t and the states)
        v = psi.reshape(dim >> (t + 1), 2, (1 << t) * k)
        x0, x1 = v[:, 0], v[:, 1]
        if kind == "ry":
            co, si = math.cos(a / 2), math.sin(a / 2)
            y0 = co * x0 - si * x1
            x1 *= co
            x1 += si * x0
            x0[...] = y0
        else:
            x0 *= complex(math.cos(a / 2), -math.sin(a / 2))
            x1 *= complex(math.cos(a / 2), math.sin(a / 2))
    return psi * complex(math.cos(phase), math.sin(phase))

'''A gate-by-gate reference for compiled circuits that shares no code
with wavecirc.sim: a parser of the OpenQASM subset that wavecirc.to_qasm
writes, a statevector kernel that applies its gates one at a time, and
the product of every gate's dense 2^n x 2^n matrix.

A gate is a tuple (kind, target, control, angle): kind "ry", "rz" or
"cx", control None for a rotation and angle None for a cx.  Qubit q is
bit q of the basis index.  Ry(a) = [[c, -s], [s, c]] with c, s = cos,
sin(a/2); Rz(a) = diag(exp(-ia/2), exp(ia/2)); cx flips bit `target`
where bit `control` is set.  A circuit is (n_qubits, phase, gates), the
phase multiplying the whole product.
'''

import re
from dataclasses import replace

import numpy as np

import wavecirc as w

_GATE = re.compile(r"(ry|rz)\(([^)]+)\) q\[(\d+)\];|cx q\[(\d+)\],q\[(\d+)\];")
_QREG = re.compile(r"qreg q\[(\d+)\];")
_PHASE = re.compile(r"// global phase dropped: (\S+)")


def parse_qasm(text):
    '''(n_qubits, phase, gates) of QASM text in the emitted subset; the
    phase is the one the header notes as dropped, else 0.  A line
    outside the subset, a gate before the register or a gate outside it
    raises ValueError.'''
    n, phase, gates = None, 0.0, []
    for line in text.splitlines():
        if line in ("OPENQASM 2.0;", 'include "qelib1.inc";'):
            continue
        m = _PHASE.fullmatch(line)
        if m:
            phase = float(m[1])
            continue
        m = _QREG.fullmatch(line)
        if m:
            n = int(m[1])
            continue
        m = _GATE.fullmatch(line)
        if m is None:
            raise ValueError(f"unsupported QASM line: {line!r}")
        if n is None:
            raise ValueError("missing qreg declaration")
        gate = ((m[1], int(m[3]), None, float(m[2])) if m[1]
                else ("cx", int(m[5]), int(m[4]), None))
        if max(gate[1], gate[2] or 0) >= n:
            raise ValueError(f"gate acts outside the register: {line!r}")
        gates.append(gate)
    if n is None:
        raise ValueError("missing qreg declaration")
    return n, phase, gates


def circuit(tree, i=0):
    '''Circuit i of a compiled QsdTree, with its phase: the QASM of the
    tree sliced to circuit i, parsed.'''
    phase = tree.phase if tree.phase is None else float(
        np.ravel(tree.phase)[i])
    one = replace(tree, select={m: x[:, i:i + 1]
                                for m, x in tree.select.items()},
                  beta=tree.beta[i:i + 1], gamma=tree.gamma[i:i + 1],
                  delta=tree.delta[i:i + 1], phase=phase)
    return parse_qasm(w.to_qasm(one))


def run(circ, psi):
    '''The gates of circuit `circ` applied one at a time to the amplitudes
    psi (2^n, ...), trailing axes a batch; returns a new array.'''
    n, phase, gates = circ
    shape = np.shape(psi)
    if shape[0] != 2 ** n:
        raise ValueError("state dimension does not match the circuit")
    amp = np.array(psi, dtype=complex).reshape(2 ** n, -1)
    index = np.arange(2 ** n)
    for kind, t, c, a in gates:
        if kind == "cx":
            amp = amp[index ^ (((index >> c) & 1) << t)]
            continue
        # axes: (bits above t, bit t, bits below t and the batch)
        v = amp.reshape(2 ** n >> (t + 1), 2, -1)
        lo, hi = v[:, 0].copy(), v[:, 1].copy()
        if kind == "ry":
            co, si = np.cos(a / 2), np.sin(a / 2)
            v[:, 0], v[:, 1] = co * lo - si * hi, si * lo + co * hi
        else:
            v[:, 0], v[:, 1] = np.exp(-0.5j * a) * lo, np.exp(0.5j * a) * hi
    return (np.exp(1j * phase) * amp).reshape(shape)


def matrix(circ):
    '''The matrix of circuit `circ`, from its gates run across the 2^n
    identity.'''
    return run(circ, np.eye(2 ** circ[0], dtype=complex))


def dense_product(circ):
    '''The matrix of circuit `circ` as the product of every gate's full
    2^n x 2^n matrix, built without the kernel of `run`.'''
    n, phase, gates = circ
    out = np.exp(1j * phase) * np.eye(2 ** n, dtype=complex)
    for kind, t, c, a in gates:
        if kind == "cx":
            m = np.eye(2 ** n)
            for b in range(2 ** n):
                if b >> c & 1:
                    m[b, b] = 0
                    m[b ^ (1 << t), b] = 1
        else:
            co, si = np.cos(a / 2), np.sin(a / 2)
            r = np.array([[co, -si], [si, co]]) if kind == "ry" \
                else np.diag([np.exp(-0.5j * a), np.exp(0.5j * a)])
            m = np.kron(np.kron(np.eye(2 ** (n - 1 - t)), r), np.eye(2 ** t))
        out = m @ out
    return out

'''OpenQASM 2.0 export of circuits (a QsdTree or a GateSequence) and a
reader for the emitted subset (ry, rz, cx on a single register).

The global phase has no OpenQASM 2.0 representation; it is dropped at
export and noted in the file header.
'''

import re
from functools import lru_cache

import numpy as np

from .qsd import (MUX_KINDS, Gate, GateSequence, QsdTree, _gray_angles,
                  _ladder, _layout)

_GATE_RE = re.compile(
    r"^(ry|rz)\(([^)]+)\)\s+q\[(\d+)\];$|^cx\s+q\[(\d+)\],\s*q\[(\d+)\];$")


def to_qasm(seq):
    '''Serialize a GateSequence, or every circuit of a QsdTree in order,
    to OpenQASM 2.0 text.

    A QsdTree fills one text template per qubit count with its gate
    angles, formed from the level arrays; a GateSequence is formatted
    gate by gate.  A non-finite angle raises ValueError, and so does a
    stack that still holds its per-circuit phases (drop them with
    `without_phase()`).
    '''
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";']
    phase = seq.global_phase()
    if np.ndim(phase):
        raise ValueError(
            f"a stack of {seq.n_circuits} circuits has one global phase per "
            f"circuit and the QASM header holds one; write "
            f"seq.without_phase()")
    if phase:
        lines.append(f"// global phase dropped: {phase:.17g}")
    lines.append(f"qreg q[{seq.n_qubits}];")
    if isinstance(seq, QsdTree):
        return "\n".join(lines) + "\n" + _tree_text(seq)
    for g in seq:
        if g.kind == "cx":
            lines.append(f"cx q[{g.control}],q[{g.target}];")
        elif g.kind in ("ry", "rz"):
            lines.append(f"{g.kind}({g.angle:.17g}) q[{g.target}];")
        elif g.kind != "phase":
            raise ValueError(f"gate kind {g.kind!r} has no QASM form")
    return "\n".join(lines) + "\n"


def _tree_text(tree):
    '''The gate lines of every circuit of a QsdTree.'''
    n, n_circ = tree.n_qubits, tree.n_circuits
    template, order = _tree_template(n)
    angles = np.concatenate(
        [_gray_angles(tree.select[m]).swapaxes(0, 1).reshape(n_circ, -1)
         for m in range(n, 1, -1)] + [tree.delta, tree.gamma, tree.beta],
        axis=1)[:, order]
    if not np.isfinite(angles).all():
        raise ValueError("gate angle must be finite")
    return "".join(template % tuple(row) for row in angles.tolist())


@lru_cache(maxsize=None)
def _tree_template(n):
    '''The gate lines of one compiled n-qubit circuit with a %.17g slot
    per angle, and the index of each slot's angle in the circuit's
    gate angles laid out as the Gray-code angles of levels n, ..., 2 (each
    row-major over (multiplexor, node, angle)), then delta, gamma, beta.'''
    start, size = {}, 0
    for m in range(n, 1, -1):
        start[m] = size
        size += 3 * 4 ** (n - m) * 2 ** (m - 1)
    leaves = 4 ** (n - 1)
    lines, order = [], []
    for m, mux, j in _layout(n):
        if m == 1:
            lines += ["rz(%.17g) q[0];", "ry(%.17g) q[0];", "rz(%.17g) q[0];"]
            order += [size + j, size + leaves + j, size + 2 * leaves + j]
            continue
        h, t = 2 ** (m - 1), m - 1
        first = start[m] + (mux * 4 ** (n - m) + j) * h
        kind = MUX_KINDS[mux]
        for cx in _ladder(t, tuple(range(t))):
            lines += [f"{kind}(%.17g) q[{t}];", f"cx q[{cx.control}],q[{t}];"]
        order += range(first, first + h)
    order = np.array(order)
    order.flags.writeable = False
    return "\n".join(lines) + "\n", order


def from_qasm(text):
    '''Parse text produced by to_qasm back into a GateSequence.'''
    n_qubits = None
    gates = []
    for raw in text.splitlines():
        line = raw.strip()
        if (not line or line.startswith("//") or line.startswith("OPENQASM")
                or line.startswith("include")):
            continue
        m = re.match(r"^qreg\s+q\[(\d+)\];$", line)
        if m:
            n_qubits = int(m.group(1))
            continue
        m = _GATE_RE.match(line)
        if not m:
            raise ValueError(f"unsupported QASM line: {line!r}")
        if m.group(1):
            gates.append(Gate(m.group(1), target=int(m.group(3)),
                              angle=float(m.group(2))))
        else:
            gates.append(Gate("cx", control=int(m.group(4)),
                              target=int(m.group(5))))
    if n_qubits is None:
        raise ValueError("missing qreg declaration")
    return GateSequence(n_qubits=n_qubits, gates=gates)


def write_qasm(seq, path):
    with open(path, "w") as fh:
        fh.write(to_qasm(seq))


def read_qasm(path):
    with open(path) as fh:
        return from_qasm(fh.read())

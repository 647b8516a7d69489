'''OpenQASM 2.0 export of gate sequences and a reader for the emitted
subset (ry, rz, cx on a single register).

The global phase has no OpenQASM 2.0 representation; it is dropped at
export and noted in the file header.
'''

import re

import numpy as np

from .qsd import Gate, GateSequence

_GATE_RE = re.compile(
    r"^(ry|rz)\(([^)]+)\)\s+q\[(\d+)\];$|^cx\s+q\[(\d+)\],\s*q\[(\d+)\];$")


def to_qasm(seq):
    '''Serialize a GateSequence to OpenQASM 2.0 text, every circuit of a
    stack in order.

    Lines are formatted from each block's (kind, target, control, angle)
    rows, with no Gate object per line; a block with a non-finite angle
    raises ValueError, and so does a stack that still holds its
    per-circuit phases (drop them with `without_phase()`).
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
    for i in range(seq.n_circuits):
        for block in seq.blocks:
            for kind, target, control, angle in block.rows(i):
                if kind == "cx":
                    lines.append(f"cx q[{control}],q[{target}];")
                elif kind in ("ry", "rz"):
                    lines.append(f"{kind}({angle:.17g}) q[{target}];")
                elif kind != "phase":
                    raise ValueError(f"gate kind {kind!r} has no QASM form")
    return "\n".join(lines) + "\n"


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

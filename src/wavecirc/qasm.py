'''OpenQASM 2.0 export of compiled circuits: the QsdTree's gates as ry,
rz and cx on a single register.

The global phase has no OpenQASM 2.0 representation; it is dropped at
export and noted in the file header.
'''

from functools import lru_cache

import numpy as np

from .qsd import MUX_KINDS, _gray_angles, _ladder, _layout


def to_qasm(tree):
    '''Serialize every circuit of a QsdTree, in order, to OpenQASM 2.0
    text.

    One text template per qubit count is filled with the gate angles,
    formed from the level arrays.  A non-finite angle raises ValueError,
    and so does a stack of more than one circuit that still holds its
    per-circuit phases (drop them with `without_phase()`).
    '''
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";']
    if tree.phase is not None:
        if tree.n_circuits > 1:
            raise ValueError(
                f"a stack of {tree.n_circuits} circuits has one global "
                f"phase per circuit and the QASM header holds one; write "
                f"tree.without_phase()")
        phase = float(tree.phase[0])
        if phase:
            lines.append(f"// global phase dropped: {phase:.17g}")
    lines.append(f"qreg q[{tree.n_qubits}];")
    return "\n".join(lines) + "\n" + _tree_text(tree)


def _tree_text(tree):
    '''The gate lines of every circuit of a QsdTree.'''
    n, n_circ = tree.n_qubits, tree.n_circuits
    template, order = _tree_template(n)
    # a non-finite select angle is refused below, without numpy's warning
    # from the Gray-code product
    with np.errstate(invalid="ignore", over="ignore"):
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
        for control in _ladder(t):
            lines += [f"{kind}(%.17g) q[{t}];", f"cx q[{control}],q[{t}];"]
        order += range(first, first + h)
    order = np.array(order)
    order.flags.writeable = False
    return "\n".join(lines) + "\n", order


def write_qasm(tree, path):
    with open(path, "w") as fh:
        fh.write(to_qasm(tree))

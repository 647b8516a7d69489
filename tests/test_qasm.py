import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import unitary_group

import wavecirc as w
from wavecirc import qsd
from wavecirc.sim import circuit_matrix

import gate_oracle as oracle


def expected_gates(tree, i=0):
    '''Circuit i of a compiled tree as oracle gates, from the recursion
    written out: node j of level m runs child 4j, its Rz multiplexor,
    child 4j+1, its Ry multiplexor, child 4j+2, its Rz multiplexor and
    child 4j+3; a multiplexor on qubit m-1 is its Gray-code rotations,
    each followed by a CNOT from the control whose Gray-code bit
    changes next; a 1-qubit leaf is Rz(delta) Ry(gamma) Rz(beta).'''
    # each level's Gray-code angles are formed over the whole level, as
    # the writer forms them, so that they agree to the last bit
    gray = {m: qsd._gray_angles(x)[:, i].tolist()
            for m, x in tree.select.items()}

    def node(m, j):
        if m == 1:
            return [("rz", 0, None, tree.delta[i, j]),
                    ("ry", 0, None, tree.gamma[i, j]),
                    ("rz", 0, None, tree.beta[i, j])]
        out = node(m - 1, 4 * j)
        size = 2 ** (m - 1)
        for mux, kind in enumerate(("rz", "ry", "rz")):
            for s, angle in enumerate(gray[m][mux][j]):
                nxt = (s + 1) % size
                control = (s ^ (s >> 1) ^ nxt ^ (nxt >> 1)).bit_length() - 1
                out += [(kind, m - 1, None, angle),
                        ("cx", m - 1, control, None)]
            out += node(m - 1, 4 * j + mux + 1)
        return out
    return node(tree.n_qubits, 0)


def per_gate_qasm(n, phase, gates):
    '''Reference: OpenQASM formatted from one oracle gate per line.'''
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";']
    if phase:
        lines.append(f"// global phase dropped: {phase:.17g}")
    lines.append(f"qreg q[{n}];")
    for kind, t, c, a in gates:
        lines.append(f"cx q[{c}],q[{t}];" if kind == "cx"
                     else f"{kind}({a:.17g}) q[{t}];")
    return "\n".join(lines) + "\n"


class TestToQasm:
    def test_header_and_register(self):
        seq = w.qsd_compile(unitary_group.rvs(4, random_state=0))
        text = w.to_qasm(seq)
        lines = text.splitlines()
        assert lines[0] == "OPENQASM 2.0;"
        assert lines[1] == 'include "qelib1.inc";'
        assert "qreg q[2];" in lines

    def test_phase_comment(self):
        seq = w.qsd_compile(1j * np.eye(2))
        text = w.to_qasm(seq)
        assert "// global phase dropped:" in text
        assert oracle.parse_qasm(text)[1] == seq.phase

    def test_gate_lines_only_supported_kinds(self):
        seq = w.qsd_compile(unitary_group.rvs(8, random_state=1))
        body = [ln for ln in w.to_qasm(seq).splitlines()
                if ln and not ln.startswith(("OPENQASM", "include", "//",
                                             "qreg"))]
        assert all(ln.startswith(("ry(", "rz(", "cx ")) for ln in body)
        assert len(body) == sum(v for k, v in seq.counts().items()
                                if k != "phase")


class TestBlockWiseWriter:
    '''to_qasm fills a template from a QsdTree's level arrays; the
    per-gate formatter over the recursion written out is the reference,
    byte for byte.'''

    @pytest.mark.parametrize("n", range(1, 8))
    def test_compiled_bytes_match_per_gate(self, n):
        tree = w.qsd_compile(unitary_group.rvs(2 ** n, random_state=20 + n))
        assert w.to_qasm(tree) == per_gate_qasm(n, tree.phase,
                                                expected_gates(tree))

    def test_stack_bytes_match_per_gate(self):
        # a stack's phase is one value per circuit, which the header
        # comment cannot hold: the stack is written without it, its
        # circuits one after the other
        rng = np.random.default_rng(30)
        for n in range(1, 8):
            u = unitary_group.rvs(2 ** n, size=3, random_state=rng)
            tree = w.qsd_compile(u).without_phase()
            gates = [g for i in range(3) for g in expected_gates(tree, i)]
            assert w.to_qasm(tree) == per_gate_qasm(n, 0, gates)

    def test_stack_with_phases_refused(self):
        rng = np.random.default_rng(31)
        u = np.array([unitary_group.rvs(4, random_state=rng)
                      for _ in range(3)])
        with pytest.raises(ValueError,
                           match="3 circuits has one global phase per circuit"):
            w.to_qasm(w.qsd_compile(u))

    def test_single_gates_match_per_gate(self):
        # the oracle reads per-gate text back bit for bit
        gates = [("ry", 0, None, 0.1), ("cx", 1, 0, None),
                 ("rz", 2, None, -1e-300), ("cx", 0, 2, None),
                 ("ry", 1, None, np.pi)]
        text = per_gate_qasm(3, 0.25, gates)
        assert oracle.parse_qasm(text) == (3, 0.25, gates)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_block_angle_raises(self, bad):
        # in place: a select angle or a leaf angle in the level arrays
        # stops the writer
        u = unitary_group.rvs(8, random_state=31)
        tree = w.qsd_compile(u)
        tree.select[2][0, 0, 0, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            w.to_qasm(tree)
        tree = w.qsd_compile(u)
        tree.gamma[0, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            w.to_qasm(tree)

    def test_circuit_and_iteration_gate_lists(self):
        # circuit i's section of the stack's QASM is the QASM of the
        # tree sliced to circuit i, with that circuit's phase
        rng = np.random.default_rng(32)
        tree = w.qsd_compile(unitary_group.rvs(8, size=3, random_state=rng))
        lines = w.to_qasm(tree.without_phase()).splitlines(keepends=True)
        size = (len(lines) - 3) // 3
        for i in range(3):
            section = "".join(lines[:3] + lines[3 + i * size:
                                                 3 + (i + 1) * size])
            n, phase, gates = oracle.circuit(tree, i)
            assert oracle.parse_qasm(section) == (n, 0.0, gates)
            assert gates == expected_gates(tree, i)
            assert phase == tree.phase[i]


class TestRoundTrip:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matrix_preserved_up_to_phase(self, n):
        u = unitary_group.rvs(2 ** n, random_state=10 + n)
        seq = w.qsd_compile(u)
        n, _, gates = oracle.parse_qasm(w.to_qasm(seq))
        m1 = circuit_matrix(seq.without_phase())
        m2 = oracle.matrix((n, 0.0, gates))
        assert np.abs(m1 - m2).max() <= 1e-15

    def test_angles_bit_exact(self):
        seq = w.qsd_compile(unitary_group.rvs(4, random_state=2))
        n, phase, gates = oracle.parse_qasm(w.to_qasm(seq))
        # %.17g survives the float round trip
        assert gates == expected_gates(seq) and phase == seq.phase

    def test_file_round_trip(self, tmp_path):
        seq = w.qsd_compile(unitary_group.rvs(8, random_state=3))
        path = tmp_path / "circ.qasm"
        w.write_qasm(seq, path)
        assert path.read_text() == w.to_qasm(seq)
        n, _, gates = oracle.parse_qasm(path.read_text())
        assert n == 3
        assert [g[0] for g in gates].count("cx") == seq.cnot_count()


class TestFromQasmErrors:
    '''The oracle refuses text outside the emitted subset, so that the
    tests above cannot pass on lines it skipped.'''

    def test_missing_qreg(self):
        with pytest.raises(ValueError, match="qreg"):
            oracle.parse_qasm("OPENQASM 2.0;\nry(0.5) q[0];\n")

    def test_unsupported_gate(self):
        with pytest.raises(ValueError, match="unsupported"):
            oracle.parse_qasm("qreg q[1];\nh q[0];\n")


# Compile the N = 8 double-well even block at t = 1.234567 fs and write
# its QASM to argv[1].
COMPILE_N8 = '''
import sys
import wavecirc as w
g = w.build_grid(8, 0.66)
ham = w.build_hamiltonian(g, w.eval_potential(g, {"kind": "double_well"}))
bh = w.block_transform(ham)
u = w.exact_propagator(bh.block_plus, 1.234567)
w.write_qasm(w.qsd_compile(u), sys.argv[1])
'''


class TestAcrossBlasKernels:
    '''The canonical gauge makes the QASM angles a continuous function of
    the propagator, so a different BLAS kernel, which changes the
    propagator by round-off, moves them by round-off only.'''

    def compile_in_child(self, path, coretype):
        env = dict(os.environ)
        env.pop("OPENBLAS_CORETYPE", None)
        if coretype:
            env["OPENBLAS_CORETYPE"] = coretype
        src = str(Path(w.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        subprocess.run([sys.executable, "-c", COMPILE_N8, str(path)],
                       env=env, check=True, timeout=300)
        text = path.read_text()
        phase = float(re.search(r"global phase dropped: (\S+)", text)[1])
        return oracle.parse_qasm(text)[2], phase

    def test_angles_agree(self, tmp_path):
        a, pa = self.compile_in_child(tmp_path / "default.qasm", None)
        b, pb = self.compile_in_child(tmp_path / "sandybridge.qasm",
                                      "Sandybridge")
        assert [g[:3] for g in a] == [g[:3] for g in b]
        angles = np.array([[g[3], h[3]] for g, h in zip(a, b)
                           if g[0] != "cx"] + [[pa, pb]])
        gap = np.mod(angles[:, 0] - angles[:, 1] + np.pi, 2 * np.pi) - np.pi
        assert np.abs(gap).max() <= 1e-5

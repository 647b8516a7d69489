import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import unitary_group

import wavecirc as w
from wavecirc.qsd import Gate, GateSequence
from wavecirc.sim import circuit_matrix


def per_gate_qasm(seq):
    '''Reference: OpenQASM formatted from one Gate per line of a
    GateSequence.'''
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";']
    phase = seq.global_phase()
    if phase:
        lines.append(f"// global phase dropped: {phase:.17g}")
    lines.append(f"qreg q[{seq.n_qubits}];")
    for g in seq:
        if g.kind == "cx":
            lines.append(f"cx q[{g.control}],q[{g.target}];")
        elif g.kind != "phase":
            lines.append(f"{g.kind}({g.angle:.17g}) q[{g.target}];")
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
        assert "phase" not in w.from_qasm(text).counts()

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
    per-Gate formatter over circuit(i), its one gate expansion, is the
    reference, byte for byte.'''

    @pytest.mark.parametrize("n", range(1, 8))
    def test_compiled_bytes_match_per_gate(self, n):
        tree = w.qsd_compile(unitary_group.rvs(2 ** n, random_state=20 + n))
        text = w.to_qasm(tree)
        assert text == per_gate_qasm(tree.circuit(0))
        assert text == w.to_qasm(tree.circuit(0))

    def test_stack_bytes_match_per_gate(self):
        # a stack's phase is one value per circuit, which the header
        # comment cannot hold: the stack is written without it, its
        # circuits one after the other
        rng = np.random.default_rng(30)
        for n in range(1, 8):
            u = unitary_group.rvs(2 ** n, size=3, random_state=rng)
            tree = w.qsd_compile(u).without_phase()
            circuits = [per_gate_qasm(tree.circuit(i)).splitlines(
                keepends=True) for i in range(3)]
            assert w.to_qasm(tree) == "".join(
                circuits[0] + circuits[1][3:] + circuits[2][3:])

    def test_stack_with_phases_refused(self):
        rng = np.random.default_rng(31)
        u = np.array([unitary_group.rvs(4, random_state=rng)
                      for _ in range(3)])
        with pytest.raises(ValueError,
                           match="3 circuits has one global phase per circuit"):
            w.to_qasm(w.qsd_compile(u))

    def test_single_gates_match_per_gate(self):
        gates = [Gate("ry", target=0, angle=0.1), Gate("cx", 1, 0),
                 Gate("rz", target=2, angle=np.float64(-1e-300)),
                 Gate("phase", angle=0.25), Gate("cx", 0, 2),
                 Gate("ry", target=1, angle=np.pi)]
        seq = GateSequence(3, gates)
        assert w.to_qasm(seq) == per_gate_qasm(seq)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_block_angle_raises(self, bad):
        # in place: a select angle in the level arrays stops the tree
        # writer, and a leaf angle stops the gate expansion
        u = unitary_group.rvs(8, random_state=31)
        tree = w.qsd_compile(u)
        tree.select[2][0, 0, 0, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            w.to_qasm(tree)
        tree = w.qsd_compile(u)
        tree.gamma[0, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            tree.circuit(0)

    def test_circuit_and_iteration_gate_lists(self):
        # circuit(i) is circuit i's section of the stack's QASM, angle
        # for angle, as a list of Gates with float angles
        rng = np.random.default_rng(32)
        tree = w.qsd_compile(unitary_group.rvs(8, size=3, random_state=rng))
        lines = w.to_qasm(tree.without_phase()).splitlines(keepends=True)
        size = (len(lines) - 3) // 3
        for i in range(3):
            seq = tree.circuit(i)
            section = "".join(lines[:3] + lines[3 + i * size:
                                                 3 + (i + 1) * size])
            assert list(seq) == seq.gates
            assert seq.gates[:-1] == w.from_qasm(section).gates
            assert seq.gates[-1] == Gate("phase", angle=tree.phase[i])
            assert all(type(g.angle) is float for g in seq
                       if g.kind != "cx")


class TestRoundTrip:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matrix_preserved_up_to_phase(self, n):
        u = unitary_group.rvs(2 ** n, random_state=10 + n)
        seq = w.qsd_compile(u)
        back = w.from_qasm(w.to_qasm(seq))
        m1 = circuit_matrix(seq.without_phase())
        m2 = circuit_matrix(back)
        assert np.abs(m1 - m2).max() <= 1e-15

    def test_angles_bit_exact(self):
        seq = w.qsd_compile(unitary_group.rvs(4, random_state=2))
        back = w.from_qasm(w.to_qasm(seq))
        orig = seq.without_phase().circuit(0).gates
        assert len(orig) == len(back.gates)
        for a, b in zip(orig, back):
            assert (a.kind, a.target, a.control) == (b.kind, b.target,
                                                     b.control)
            if a.kind != "cx":
                assert a.angle == b.angle   # %.17g survives float round trip

    def test_file_round_trip(self, tmp_path):
        seq = w.qsd_compile(unitary_group.rvs(8, random_state=3))
        path = tmp_path / "circ.qasm"
        w.write_qasm(seq, path)
        back = w.read_qasm(path)
        assert back.n_qubits == 3
        assert back.cnot_count() == seq.cnot_count()


class TestFromQasmErrors:
    def test_missing_qreg(self):
        with pytest.raises(ValueError, match="qreg"):
            w.from_qasm("OPENQASM 2.0;\nry(0.5) q[0];\n")

    def test_unsupported_gate(self):
        with pytest.raises(ValueError, match="unsupported"):
            w.from_qasm("qreg q[1];\nh q[0];\n")


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
        return w.from_qasm(text), phase

    def test_angles_agree(self, tmp_path):
        a, pa = self.compile_in_child(tmp_path / "default.qasm", None)
        b, pb = self.compile_in_child(tmp_path / "sandybridge.qasm",
                                      "Sandybridge")
        assert [(g.kind, g.target, g.control) for g in a] == \
            [(g.kind, g.target, g.control) for g in b]
        angles = np.array([[g.angle, h.angle] for g, h in zip(a, b)
                           if g.kind != "cx"] + [[pa, pb]])
        gap = np.mod(angles[:, 0] - angles[:, 1] + np.pi, 2 * np.pi) - np.pi
        assert np.abs(gap).max() <= 1e-5

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import unitary_group

import wavecirc as w
from wavecirc.sim import circuit_matrix


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
        orig = [g for g in seq if g.kind != "phase"]
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

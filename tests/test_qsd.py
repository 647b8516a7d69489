import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import cossin, expm, schur
from scipy.stats import unitary_group

import wavecirc as w
from wavecirc import qsd
from wavecirc.sim import circuit_matrix, exact_propagator

import gate_oracle as oracle
from conftest import double_well_system


def block_diag(a, b):
    m = a.shape[0]
    out = np.zeros((2 * m, 2 * m), dtype=complex)
    out[:m, :m] = a
    out[m:, m:] = b
    return out


def csd(u):
    '''qsd._csd of one matrix, as the stack of one the compiler passes:
    alpha, l0, l1, r0, r1.'''
    return tuple(x[0] for x in qsd._csd(np.asarray(u, dtype=complex)[None]))


def demux(l0, l1):
    '''qsd._demultiplex of one pair of blocks: v, w, delta.'''
    l0, l1 = (np.asarray(x, dtype=complex)[None] for x in (l0, l1))
    return tuple(x[0] for x in qsd._demultiplex(l0, l1))


def zyz(u):
    '''qsd._zyz_angles of one 2x2 matrix: alpha, beta, gamma, delta.'''
    return tuple(float(x[0]) for x in
                 qsd._zyz_angles(np.asarray(u, dtype=complex)[None]))


def csd_reassemble(alpha, l0, l1, r0, r1):
    c, s = np.diag(np.cos(alpha)), np.diag(np.sin(alpha))
    cs = np.block([[c, -s], [s, c]])
    return block_diag(l0, l1) @ cs @ block_diag(r0, r1)


def demux_reassemble(v, w, delta):
    d = np.diag(np.exp(1j * delta))
    return block_diag(v, v) @ block_diag(d, d.conj()) @ block_diag(w, w)


class TestCosineSine:
    def test_identity(self):
        res = csd(np.eye(4))
        assert np.abs(res[0]).max() <= 1e-12
        assert np.abs(csd_reassemble(*res) - np.eye(4)).max() <= 1e-12

    def test_pure_sine_block(self):
        u = np.block([[np.zeros((2, 2)), -np.eye(2)],
                      [np.eye(2), np.zeros((2, 2))]])
        res = csd(u)
        assert np.allclose(res[0], np.pi / 2)
        assert np.abs(csd_reassemble(*res) - u).max() <= 1e-12

    def test_random_reassembly_and_angle_range(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            u = unitary_group.rvs(8, random_state=rng)
            res = csd(u)
            alpha = res[0]
            assert np.abs(csd_reassemble(*res) - u).max() <= 1e-12
            assert np.all(np.diff(alpha) >= 0)
            assert np.all((alpha >= 0) & (alpha <= np.pi / 2 + 1e-12))


class TestDemultiplex:
    def test_equal_blocks(self):
        a = unitary_group.rvs(4, random_state=1)
        res = demux(a, a)
        assert np.abs(res[2]).max() <= 1e-12
        assert np.abs(demux_reassemble(*res) - block_diag(a, a)).max() \
            <= 1e-12

    def test_opposite_blocks(self):
        a = unitary_group.rvs(4, random_state=2)
        res = demux(a, -a)
        assert np.allclose(np.abs(res[2]), np.pi / 2, atol=1e-12)

    def test_random_pairs(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            l0 = unitary_group.rvs(4, random_state=rng)
            l1 = unitary_group.rvs(4, random_state=rng)
            res = demux(l0, l1)
            delta = res[2]
            assert np.abs(demux_reassemble(*res)
                          - block_diag(l0, l1)).max() <= 1e-12
            assert np.all((delta > -np.pi / 2 - 1e-12)
                          & (delta <= np.pi / 2 + 1e-12))


def mux_gates(kind, angles, k):
    '''The gates of a multiplexed rotation on qubit k with controls
    0 .. k-1 from the compiler's Gray-code angles and CNOT ladder.'''
    theta = qsd._gray_angles(np.asarray(angles, dtype=float))
    if not k:
        return [(kind, 0, None, theta[0])]
    return [g for a, c in zip(theta, qsd._ladder(k))
            for g in ((kind, k, None, a), ("cx", k, c, None))]


class TestMultiplexedRotation:
    '''The Gray-code angles and CNOT ladder of a multiplexor, run by the
    oracle, give a rotation by select angle b for control value b.'''

    def multiplexor_matrix(self, axis, angles, k):
        blocks = []
        for a in angles:
            if axis == "y":
                c, s = np.cos(a / 2), np.sin(a / 2)
                blocks.append(np.array([[c, -s], [s, c]], dtype=complex))
            else:
                blocks.append(np.diag([np.exp(-0.5j * a), np.exp(0.5j * a)]))
        # target is the top qubit: select value b picks block b
        dim = 2 ** (k + 1)
        out = np.zeros((dim, dim), dtype=complex)
        for b, blk in enumerate(blocks):
            for r in range(2):
                for c in range(2):
                    out[r * 2 ** k + b, c * 2 ** k + b] = blk[r, c]
        return out

    def test_single_control_identity(self):
        a0, a1 = 0.7, -0.3
        got = oracle.matrix((2, 0.0, mux_gates("ry", [a0, a1], 1)))
        want = self.multiplexor_matrix("y", [a0, a1], 1)
        assert np.abs(got - want).max() <= 1e-12

    def test_equal_angles_reduce_to_plain_rotation(self):
        got = oracle.matrix((3, 0.0, mux_gates("rz", [0.4] * 4, 2)))
        want = self.multiplexor_matrix("z", [0.4] * 4, 2)
        assert np.abs(got - want).max() <= 1e-12

    def test_three_controls_random(self):
        rng = np.random.default_rng(4)
        angles = rng.normal(size=8)
        gates = mux_gates("ry", angles, 3)
        assert [g[0] for g in gates].count("cx") == 8
        got = oracle.matrix((4, 0.0, gates))
        want = self.multiplexor_matrix("y", angles, 3)
        assert np.abs(got - want).max() <= 1e-12

    @given(k=st.integers(0, 3), axis=st.sampled_from(["y", "z"]),
           seed=st.integers(0, 10 ** 6))
    @settings(max_examples=20, deadline=None)
    def test_cnot_count_and_reconstruction(self, k, axis, seed):
        rng = np.random.default_rng(seed)
        angles = rng.normal(size=2 ** k)
        gates = mux_gates("r" + axis, angles, k)
        assert [g[0] for g in gates].count("cx") == (2 ** k if k else 0)
        got = oracle.matrix((k + 1, 0.0, gates))
        want = self.multiplexor_matrix(axis, angles, k)
        assert np.abs(got - want).max() <= 1e-11


def rz(b):
    return np.diag([np.exp(-0.5j * b), np.exp(0.5j * b)])


def ry(c):
    return np.array([[np.cos(c / 2), -np.sin(c / 2)],
                     [np.sin(c / 2), np.cos(c / 2)]])


class TestZyz:
    def reassemble(self, angles):
        a, b, c, d = angles
        return np.exp(1j * a) * rz(b) @ ry(c) @ rz(d)

    def test_identity(self):
        assert np.allclose(zyz(np.eye(2)), (0, 0, 0, 0), atol=1e-14)

    def test_pure_ry(self):
        assert np.allclose(zyz(ry(0.7)), (0, 0, 0.7, 0), atol=1e-13)

    def test_gauge_and_reconstruction(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            u = unitary_group.rvs(2, random_state=rng)
            a, b, c, d = zyz(u)
            assert 0 <= c <= np.pi
            assert -np.pi < b <= np.pi
            assert np.abs(self.reassemble((a, b, c, d)) - u).max() <= 1e-13

    def check_ranges(self, u):
        a, b, c, d = zyz(u)
        assert -np.pi < d <= np.pi
        assert -np.pi < b <= np.pi
        assert 0 <= c <= np.pi
        assert np.abs(self.reassemble((a, b, c, d)) - u).max() <= 1e-13

    def test_ranges_random(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            self.check_ranges(unitary_group.rvs(2, random_state=rng))

    def test_ranges_det_minus_one(self):
        # det = -1 sits on the branch of angle(det), where the rounding
        # of its imaginary part picks alpha = +pi/2 or -pi/2
        x = np.array([[0, 1], [1, 0]])
        y = np.array([[0, -1j], [1j, 0]])
        z = np.diag([1, -1])
        for u in (x, y, z):
            assert np.linalg.det(u) == -1
            self.check_ranges(u)
        rng = np.random.default_rng(13)
        signs = set()
        for _ in range(200):
            u = 1j * unitary_group.rvs(2, random_state=rng)
            u /= np.sqrt(np.linalg.det(u) / -1)
            det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
            assert abs(det + 1) <= 1e-15
            signs.add(np.sign(det.imag))
            self.check_ranges(u)
        assert {-1.0, 1.0} <= signs

    def test_degenerate_delta_zero(self):
        u = rz(1.1)
        a, b, c, d = zyz(u)
        assert d == 0 and c == pytest.approx(0, abs=1e-12)
        u2 = np.exp(0.3j) * rz(0.5) @ ry(np.pi)
        a, b, c, d = zyz(u2)
        assert d == 0 and c == pytest.approx(np.pi, abs=1e-7)
        assert np.abs(self.reassemble((a, b, c, d)) - u2).max() <= 1e-7


class TestQsdCompile:
    def test_single_qubit_no_cnot(self):
        u = unitary_group.rvs(2, random_state=0)
        seq = w.qsd_compile(u)
        assert seq.cnot_count() == 0
        assert np.abs(circuit_matrix(seq) - u).max() <= 1e-12

    def test_three_qubit_count(self):
        u = unitary_group.rvs(8, random_state=1)
        seq = w.qsd_compile(u)
        assert seq.cnot_count() == 36

    def test_reconstruction_small(self):
        rng = np.random.default_rng(6)
        for n in (1, 2, 3, 4):
            u = unitary_group.rvs(2 ** n, random_state=rng)
            seq = w.qsd_compile(u)
            assert np.abs(circuit_matrix(seq) - u).max() <= 1e-9

    def test_depth_constancy(self):
        rng = np.random.default_rng(7)
        patterns = set()
        for _ in range(5):
            u = unitary_group.rvs(8, random_state=rng)
            gates = oracle.circuit(w.qsd_compile(u))[2]
            patterns.add(tuple(g[:3] for g in gates))
        assert len(patterns) == 1

    def test_phase_hygiene(self):
        u = unitary_group.rvs(4, random_state=8)
        seq = w.qsd_compile(u)
        bare = circuit_matrix(seq.without_phase())
        ratio = u @ np.linalg.inv(bare)
        offdiag = ratio - np.diag(np.diagonal(ratio))
        assert np.abs(offdiag).max() <= 1e-9
        scalars = np.diagonal(ratio)
        assert np.abs(np.abs(scalars) - 1).max() <= 1e-9
        assert np.abs(scalars - scalars[0]).max() <= 1e-9

    def test_counts_cache_matches_recount(self):
        u = unitary_group.rvs(8, random_state=9)
        seq = w.qsd_compile(u)
        counts = seq.counts()
        assert counts["cx"] == seq.cnot_count()
        assert sum(counts.values()) == len(oracle.circuit(seq)[2]) + 1

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            w.qsd_compile(np.eye(6))

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            w.qsd_compile(2 * np.eye(4))
        with pytest.raises(ValueError):
            w.qsd_compile(np.full((4, 4), np.nan))


class TestLevelArrays:
    '''qsd_compile returns its QsdTree, the compiler's level arrays;
    only to_qasm writes its gates.'''

    def test_compile_returns_the_tree(self):
        tree = w.qsd_compile(unitary_group.rvs(16, random_state=150))
        assert type(tree) is w.QsdTree
        for gone in ("blocks", "tree", "gates", "append", "circuit"):
            assert not hasattr(tree, gone)
        assert tree.n_qubits == 4 and tree.n_circuits == 1

    def test_circuit_angles_from_whole_levels(self):
        # circuit i's section of the stack's QASM carries column i of each
        # level's Gray-code angles, formed over the whole level
        rng = np.random.default_rng(154)
        u = np.array([unitary_group.rvs(16, random_state=rng)
                      for _ in range(3)])
        tree = w.qsd_compile(u)
        gray = qsd._gray_angles(tree.select[2])
        n, _, gates = oracle.parse_qasm(w.to_qasm(tree.without_phase()))
        size = len(gates) // 3
        assert n == 4 and size == sum(tree.counts().values()) // 3 - 1
        for i in range(3):
            seq = gates[i * size:(i + 1) * size]
            assert [g[3] for g in seq[:3]] == [
                tree.delta[i, 0], tree.gamma[i, 0], tree.beta[i, 0]]
            assert [g[:3] for g in seq[3:5]] == [("rz", 1, None),
                                                 ("cx", 1, 0)]
            assert [g[3] for g in seq[3:7:2]] == gray[0, i, 0].tolist()

    def test_tree_keeps_select_angles(self):
        # the Ry multiplexor of a 4x4 node turns by 2 alpha of its CSD;
        # its gates carry the Gray-code angles formed from that
        u = unitary_group.rvs(4, random_state=153)
        tree = w.qsd_compile(u)
        select = tree.select[2][1, 0, 0]
        assert np.array_equal(select, 2 * csd(u)[0])
        ry = [g[3] for g in oracle.circuit(tree)[2] if g[:2] == ("ry", 1)]
        assert ry == qsd._gray_angles(select).tolist()

    @pytest.mark.parametrize("stack", [1, 3])
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_counts_match_blocks(self, n, stack):
        # the tree's counts are those of its circuits' QASM gates and
        # phases, summed
        rng = np.random.default_rng(151 + n)
        u = np.array([unitary_group.rvs(2 ** n, random_state=rng)
                      for _ in range(stack)])
        for tree in (w.qsd_compile(u), w.qsd_compile(u).without_phase()):
            want = {}
            for i in range(stack):
                kinds = [g[0] for g in oracle.circuit(tree, i)[2]]
                for kind in kinds + ["phase"] * (tree.phase is not None):
                    want[kind] = want.get(kind, 0) + 1
            assert list(tree.counts().items()) == list(want.items())
            assert tree.cnot_count() == want.get("cx", 0)

    def test_without_phase_keeps_tree(self):
        u = unitary_group.rvs(16, random_state=152)
        tree = w.qsd_compile(u)
        bare = tree.without_phase()
        assert bare.select is tree.select
        assert bare.beta is tree.beta
        assert bare.phase is None and tree.phase.shape == (1,)
        assert np.abs(circuit_matrix(bare) * np.exp(1j * tree.phase)
                      - u).max() <= 1e-12
        # the same gate lines, with no header phase; and back
        text = w.to_qasm(tree)
        assert w.to_qasm(bare) == "".join(
            line for line in text.splitlines(keepends=True)
            if not line.startswith("//"))
        back = oracle.parse_qasm(w.to_qasm(bare))
        assert np.abs(oracle.matrix(back) - circuit_matrix(bare)).max() \
            <= 1e-12


def reference_layout(n):
    '''(kind, target, control) of every gate of an n-qubit compile, from
    the recursion written out: U -> [demux(R), Ry mux, demux(L)], each
    demux -> [W, Rz mux, V], 1-qubit leaves -> Rz Ry Rz.'''
    if n == 1:
        return [("rz", 0, None), ("ry", 0, None), ("rz", 0, None)]

    def mux(kind):
        out = []
        for s in range(2 ** (n - 1)):
            gray, nxt = s ^ (s >> 1), (s + 1) % 2 ** (n - 1)
            changed = (gray ^ nxt ^ (nxt >> 1)).bit_length() - 1
            out += [(kind, n - 1, None), ("cx", n - 1, changed)]
        return out

    sub = reference_layout(n - 1)
    return (sub + mux("rz") + sub + mux("ry") + sub + mux("rz") + sub)


class TestSingleCircuitLayout:
    '''An S = 1 compile lists the same gates on the same qubits in the
    same order as the recursive construction.'''

    @pytest.mark.parametrize("n", range(1, 6))
    def test_gates_counts_and_qasm(self, n, tmp_path):
        seq = w.qsd_compile(unitary_group.rvs(2 ** n, random_state=90 + n))
        want = reference_layout(n)
        assert [g[:3] for g in oracle.circuit(seq)[2]] == want
        kinds = [k for k, _, _ in want]
        assert seq.counts() == {"rz": kinds.count("rz"),
                                "ry": kinds.count("ry"),
                                **({"cx": w.cnot_count(n)} if n > 1 else {}),
                                "phase": 1}
        w.write_qasm(seq, tmp_path / "c.qasm")
        n_back, phase, back = oracle.parse_qasm((tmp_path / "c.qasm")
                                                .read_text())
        assert n_back == n and phase == seq.phase
        assert [g[:3] for g in back] == want

    def test_stack_of_one_equals_single(self):
        u = unitary_group.rvs(8, random_state=99)
        one, single = w.qsd_compile(u[None]), w.qsd_compile(u)
        assert one.n_circuits == single.n_circuits == 1
        assert oracle.circuit(one) == oracle.circuit(single)


class TestNumericalError:
    def test_is_a_value_error(self):
        assert issubclass(w.NumericalError, ValueError)

    def test_not_unitary_is_numerical(self):
        for bad in (2 * np.eye(4), np.full((4, 4), np.nan),
                    np.array([np.eye(4), 2 * np.eye(4)])):
            with pytest.raises(w.NumericalError, match="not unitary"):
                w.qsd_compile(bad)

    def test_shape_errors_are_not_numerical(self):
        for bad in (np.eye(6), np.ones((2, 3)), np.ones((2, 2, 2, 2))):
            with pytest.raises(ValueError) as exc:
                w.qsd_compile(bad)
            assert not isinstance(exc.value, w.NumericalError)


class TestCnotCount:
    def test_values(self):
        assert [w.cnot_count(n) for n in range(1, 8)] == \
            [0, 6, 36, 168, 720, 2976, 12096]

    def test_lower_bound(self):
        # (4^n - 3n - 1)/4 rounded up; n=2: ceil(2.25) = 3
        assert w.cnot_lower_bound(1) == 0
        assert w.cnot_lower_bound(2) == 3
        assert w.cnot_lower_bound(5) == 252
        for n in range(1, 8):
            assert w.cnot_lower_bound(n) <= w.cnot_count(n)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            w.cnot_count(0)


def column_gauge(x):
    '''Phases that make the largest-magnitude entry of each column of x
    real and positive.'''
    pivot = x[np.argmax(np.abs(x), axis=0), np.arange(x.shape[1])]
    return pivot.conj() / np.abs(pivot)


def lapack_csd(u):
    '''Per-matrix reference for qsd._csd at every size: scipy's cossin
    (zuncsd), sorted by alpha, in the canonical gauge.'''
    m = u.shape[-1] // 2
    out = []
    for x in u:
        (l0, l1), alpha, (r0, r1) = cossin(x, p=m, q=m, separate=True)
        o = np.argsort(alpha, kind="stable")
        d = column_gauge(l0[:, o])
        out.append((alpha[o], l0[:, o] * d, l1[:, o] * d,
                    d.conj()[:, None] * r0[o], d.conj()[:, None] * r1[o]))
    return tuple(np.array(f) for f in zip(*out))


def lapack_demultiplex(l0, l1):
    '''Per-matrix reference for qsd._demultiplex at every size: scipy's
    complex Schur form (zgees), sorted by eigenphase, in the canonical
    gauge.'''
    out = []
    for a, b in zip(l0, l1):
        t, v = schur(a @ b.conj().T, output="complex")
        phases = np.angle(np.diag(t))
        o = np.argsort(phases, kind="stable")
        delta, v = phases[o] / 2, v[:, o]
        v = v * column_gauge(v)
        out.append((v, (np.exp(1j * delta)[:, None] * v.conj().T) @ b, delta))
    return tuple(np.array(f) for f in zip(*out))


def all_angles(tree):
    '''Every angle of a compiled stack, the global phase included.'''
    return np.concatenate([x.ravel() for x in tree.select.values()]
                          + [tree.beta.ravel(), tree.gamma.ravel(),
                             tree.delta.ravel(), np.ravel(tree.phase)])


def angle_gap(a, b):
    '''Largest difference of two angle arrays, modulo 2 pi.'''
    return np.abs(np.mod(a - b + np.pi, 2 * np.pi) - np.pi).max()


def block_propagators(n, times):
    '''Stacks of exact propagators of the two parity blocks of the N = n
    double well, one per time in fs.'''
    g, pot, ham = double_well_system(n)
    bh = w.block_transform(ham)
    eigs = (w.eigensolve(bh.block_plus), w.eigensolve(bh.block_minus))
    return [np.array([exact_propagator(e, t) for t in times]) for e in eigs]


DOUBLE_WELL = {6: np.arange(1, 401) * 1.0, 8: [1.234567]}


def perturbed(u, rng, size=1e-13):
    '''exp(i size H) u for a random Hermitian H with largest entry 1.'''
    dim = u.shape[-1]
    h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h += h.conj().T
    return expm(1j * size * h / np.abs(h).max()) @ u


class TestClosedFormsAgainstLapack:
    '''Level m = 2 uses closed forms, the other levels batched
    factorizations with a LAPACK fallback; in the canonical gauge they
    give the angles of the per-matrix LAPACK reference.'''

    def compile_reference(self, u, monkeypatch):
        with monkeypatch.context() as mp:
            mp.setattr(qsd, "_csd", lapack_csd)
            mp.setattr(qsd, "_demultiplex", lapack_demultiplex)
            return w.qsd_compile(u)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_random_unitaries(self, n, monkeypatch):
        u = unitary_group.rvs(2 ** n, size=3, random_state=200 + n)
        got = w.qsd_compile(u)
        assert angle_gap(all_angles(got), all_angles(
            self.compile_reference(u, monkeypatch))) <= 1e-9

    @pytest.mark.parametrize("n", sorted(DOUBLE_WELL))
    def test_double_well_blocks(self, n, monkeypatch):
        for u in block_propagators(n, DOUBLE_WELL[n]):
            assert angle_gap(all_angles(w.qsd_compile(u)), all_angles(
                self.compile_reference(u, monkeypatch))) <= 1e-9

    @pytest.mark.parametrize("size", [8, 16, 32])
    def test_large_factors_match_reference(self, size, monkeypatch):
        # random nodes take the batched path, the degenerate ones between
        # them LAPACK; both come back in the stack's order
        calls = node_counter(monkeypatch, "_csd_lapack", "_schur_lapack")
        nodes = large_degenerate_nodes(size // 2)
        u = unitary_group.rvs(size, size=12, random_state=size)
        u[::4] = [nodes["identity"], nodes["block swap"], nodes["W = -I"]]
        for got, want in zip(qsd._csd(u), lapack_csd(u)):
            assert np.abs(got - want).max() <= 1e-11
        l0, l1 = (unitary_group.rvs(size // 2, size=12, random_state=s)
                  for s in (size + 1, size + 2))
        l1[::4] = l0[::4]
        for got, want in zip(qsd._demultiplex(l0, l1),
                             lapack_demultiplex(l0, l1)):
            assert np.abs(got - want).max() <= 1e-11
        assert calls["_csd_lapack"] == 3 and calls["_schur_lapack"] >= 3

    def test_factors_match_reference(self):
        u = unitary_group.rvs(4, size=50, random_state=17)
        for got, want in zip(qsd._csd(u), lapack_csd(u)):
            assert np.abs(got - want).max() <= 1e-12
        l0, l1 = (unitary_group.rvs(2, size=50, random_state=s)
                  for s in (18, 19))
        for got, want in zip(qsd._demultiplex(l0, l1),
                             lapack_demultiplex(l0, l1)):
            assert np.abs(got - want).max() <= 1e-12


def degenerate_nodes():
    a = unitary_group.rvs(2, random_state=21)
    b = unitary_group.rvs(2, random_state=22)
    zero = np.zeros((2, 2))
    hadamard = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    h = np.random.default_rng(23).normal(size=(4, 4, 2)) @ [1, 1j]
    # l0 l1^dag with eigenvectors 1e-9 from e0, e1
    tilt = np.array([[1, -1e-9], [1e-9, 1]]) / np.hypot(1, 1e-9)
    near_diag = tilt @ np.diag(np.exp([-0.7j, 0.7j])) @ tilt.T @ b
    return {
        "identity": np.eye(4),
        "diagonal phases": np.diag(np.exp([0.3j, -1.2j, 2.9j, 0.7j])),
        "block swap": np.block([[zero, -a], [b, zero]]),
        "block diagonal": block_diag(a, b),
        "hadamard x identity": np.kron(hadamard, np.eye(2)),
        "W = +I": block_diag(a, a),
        "W = -I": block_diag(a, -a),
        "W nearly diagonal": block_diag(near_diag, b),
        "exp(i 1e-9 H)": expm(1e-9j * (h + h.conj().T)),
    }


def large_degenerate_nodes(m):
    '''2m x 2m nodes (m >= 4) that the batched path must hand to LAPACK,
    and one random node that it keeps.'''
    rng = np.random.default_rng(30 + m)
    a, b, c, d = unitary_group.rvs(m, size=4, random_state=rng)
    zero = np.zeros((m, m))
    hadamard = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    h = rng.normal(size=(2 * m, 2 * m, 2)) @ [1, 1j]
    alpha = np.linspace(0.3, 1.2, m)
    alpha[0] = 1e-7
    cos, sin = np.diag(np.cos(alpha)), np.diag(np.sin(alpha))
    mixing = np.block([[cos, -sin], [sin, cos]])
    return {
        "random": unitary_group.rvs(2 * m, random_state=rng),
        "identity": np.eye(2 * m),
        "hadamard x identity": np.kron(hadamard, np.eye(m)),
        "block swap": np.block([[zero, -a], [b, zero]]),
        "block diagonal": block_diag(a, b),
        "W = +I": block_diag(a, a),
        "W = -I": block_diag(a, -a),
        "exp(i 1e-9 H)": expm(1e-9j * (h + h.conj().T)),
        "one sine 1e-7": block_diag(a, b) @ mixing @ block_diag(c, d),
    }


def node_counter(monkeypatch, *names):
    '''Counts, per named qsd function, the nodes of the stacks passed to
    it from now on.'''
    counts = dict.fromkeys(names, 0)
    for name in names:
        def counted(x, name=name, original=getattr(qsd, name)):
            counts[name] += len(x)
            return original(x)
        monkeypatch.setattr(qsd, name, counted)
    return counts


def unitarity_error(x):
    return np.abs(x.conj().T @ x - np.eye(len(x))).max()


class TestDegenerateNodes:
    @pytest.mark.parametrize("size", [8, 16])
    @pytest.mark.parametrize("name", list(large_degenerate_nodes(4)))
    def test_large_nodes(self, name, size, monkeypatch):
        u = large_degenerate_nodes(size // 2)[name]
        calls = node_counter(monkeypatch, "_csd_lapack", "_schur_lapack")
        res = csd(u)
        alpha, l0, l1, r0, r1 = res
        assert np.abs(csd_reassemble(*res) - u).max() <= 1e-12
        for f in (l0, l1, r0, r1):
            assert unitarity_error(f) <= 1e-12
        # the random node stays on the batched path, every other one
        # fails the conditioning screen and goes to LAPACK
        assert calls["_csd_lapack"] == (name != "random")
        m = size // 2
        diagonal = (u[:m, :m], u[m:, m:])
        for a, b in ((l0, l1), (r0, r1), diagonal):
            if unitarity_error(a) > 1e-12:
                continue            # off-diagonal blocks of a mixing node
            v, w_, delta = demux(a, b)
            d = np.diag(np.exp(1j * delta))
            assert np.abs(v @ d @ w_ - a).max() <= 1e-12
            assert np.abs(v @ d.conj() @ w_ - b).max() <= 1e-12
            assert unitarity_error(v) <= 1e-12
            assert unitarity_error(w_) <= 1e-12
        if name.startswith("W = "):
            # l0 l1^dag = +-I has one eigenvalue m times
            before = calls["_schur_lapack"]
            demux(*diagonal)
            assert calls["_schur_lapack"] == before + 1
        assert np.abs(circuit_matrix(w.qsd_compile(u)) - u).max() <= 1e-12
        if name == "random":
            assert calls == {"_csd_lapack": 0, "_schur_lapack": 0}

    @pytest.mark.parametrize("name", list(degenerate_nodes()))
    def test_reconstruction(self, name):
        u = degenerate_nodes()[name]
        res = csd(u)
        alpha, l0, l1, r0, r1 = res
        assert np.abs(csd_reassemble(*res) - u).max() <= 1e-12
        for f in (l0, l1, r0, r1):
            assert np.abs(f.conj().T @ f - np.eye(2)).max() <= 1e-12
        for a, b in ((l0, l1), (r0, r1), (u[:2, :2], u[2:, 2:])):
            if np.abs(a.conj().T @ a - np.eye(2)).max() > 1e-12:
                continue            # off-diagonal blocks of a mixing node
            v, w_, delta = demux(a, b)
            d = np.diag(np.exp(1j * delta))
            assert np.abs(v @ d @ w_ - a).max() <= 1e-12
            assert np.abs(v @ d.conj() @ w_ - b).max() <= 1e-12
        assert np.abs(circuit_matrix(w.qsd_compile(u)) - u).max() <= 1e-12

    def test_angles_at_the_limits(self):
        nodes = degenerate_nodes()
        assert np.allclose(csd(nodes["block swap"])[0], np.pi / 2,
                           atol=1e-15)
        assert np.array_equal(csd(nodes["block diagonal"])[0], [0, 0])
        assert np.allclose(csd(nodes["hadamard x identity"])[0], np.pi / 4,
                           atol=1e-15)


class TestContinuity:
    '''In the canonical gauge a 1e-13 change of the input moves every
    angle by little, not by up to pi as a free LAPACK gauge does.'''

    @pytest.mark.parametrize("n", range(1, 8))
    def test_random_unitaries(self, n):
        rng = np.random.default_rng(300 + n)
        u = unitary_group.rvs(2 ** n, size=3, random_state=rng)
        moved = np.array([perturbed(x, rng) for x in u])
        assert angle_gap(all_angles(w.qsd_compile(u)),
                         all_angles(w.qsd_compile(moved))) < 1e-5

    @pytest.mark.parametrize("n", sorted(DOUBLE_WELL))
    def test_double_well_blocks(self, n):
        rng = np.random.default_rng(310 + n)
        for u in block_propagators(n, DOUBLE_WELL[n]):
            moved = np.array([perturbed(x, rng) for x in u])
            assert angle_gap(all_angles(w.qsd_compile(u)),
                             all_angles(w.qsd_compile(moved))) < 1e-5


class TestBatchedPathInUse:
    '''Sending every node to LAPACK would keep the angles right and lose
    the speed; on the N = 6 double-well propagators at most 2% of the
    nodes of 8x8 and larger may fall back.'''

    def test_double_well_fallback_fraction(self, monkeypatch):
        calls = node_counter(monkeypatch, "_csd_stack", "_csd_lapack",
                             "_eig_stack", "_schur_lapack")
        for u in block_propagators(6, DOUBLE_WELL[6]):
            w.qsd_compile(u)
        # per 5-qubit circuit: 1 + 4 + 16 CSD nodes at m >= 3, two
        # demultiplexes each
        assert calls["_csd_stack"] == 800 * 21
        assert calls["_eig_stack"] == 800 * 42
        assert calls["_csd_lapack"] <= 0.02 * calls["_csd_stack"]
        assert calls["_schur_lapack"] <= 0.02 * calls["_eig_stack"]


class TestStackedProducts:
    '''qsd._matmul multiplies out a 2x2 left factor by broadcasting and
    leaves every other size to matmul.'''

    @pytest.mark.parametrize("a_shape, b_shape", [
        ((64, 2, 2), (64, 2, 2)),
        ((3, 16, 2, 2), (3, 16, 2, 4)),   # a circuit_matrix level-2 node
        ((2, 2), (5, 2, 2)),              # broadcast stack axes
    ])
    def test_two_by_two_matches_matmul(self, a_shape, b_shape):
        rng = np.random.default_rng(150)
        a = rng.normal(size=a_shape) + 1j * rng.normal(size=a_shape)
        b = rng.normal(size=b_shape) + 1j * rng.normal(size=b_shape)
        want = a @ b
        got = qsd._matmul(a, b)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()

    @pytest.mark.parametrize("a_shape, b_shape", [
        ((64, 4, 4), (64, 4, 4)),
        ((8, 8, 8), (8, 8, 8)),
        ((64, 4, 2), (64, 2, 2)),         # 2 columns, not 2x2
    ])
    def test_other_sizes_go_through_matmul(self, a_shape, b_shape):
        rng = np.random.default_rng(151)
        a = rng.normal(size=a_shape) + 1j * rng.normal(size=a_shape)
        b = rng.normal(size=b_shape) + 1j * rng.normal(size=b_shape)
        assert np.array_equal(qsd._matmul(a, b), a @ b)

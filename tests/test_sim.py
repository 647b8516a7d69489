import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm
from scipy.stats import unitary_group

import wavecirc as w
from wavecirc import units
from wavecirc.dynamics import _chunk_steps, _circuit_evolve, _compiled_evolve
from wavecirc.givens import _rotate_pairs
from wavecirc.qsd import Gate, GateSequence, Multiplexor, ZyzLeaf
from wavecirc import sim
from wavecirc.sim import _apply_gate, circuit_matrix

from conftest import double_well_system, random_state


class TestExactPropagator:
    def test_t_zero_is_identity(self, dw3):
        _, _, ham = dw3
        u = w.exact_propagator(ham, 0.0)
        assert np.abs(u - np.eye(8)).max() <= 1e-12

    def test_semigroup(self, dw3):
        _, _, ham = dw3
        u1 = w.exact_propagator(ham, 0.7)
        u2 = w.exact_propagator(ham, 1.1)
        u3 = w.exact_propagator(ham, 1.8)
        assert np.abs(u2 @ u1 - u3).max() <= 1e-12

    def test_unitary(self, dw3):
        _, _, ham = dw3
        u = w.exact_propagator(ham, 2.5)
        assert np.abs(u @ u.conj().T - np.eye(8)).max() <= 1e-12

    def test_matches_matrix_exponential(self, dw3):
        _, _, ham = dw3
        t = 1.3
        u = w.exact_propagator(ham, t)
        direct = expm(-1j * ham.matrix * units.fs_to_au(t))
        assert np.abs(u - direct).max() <= 1e-10

    def test_stationary_state_acquires_only_phase(self, dw3):
        _, _, ham = dw3
        eig = w.eigensolve(ham)
        chi = eig.states[:, 2]
        out = w.exact_propagator(ham, 3.0, eig=eig) @ chi
        phase = np.exp(-1j * eig.energies[2] * units.fs_to_au(3.0))
        assert np.abs(out - phase * chi).max() <= 1e-12

    def test_complex_hermitian_matches_expm(self):
        # complex eigenvectors: U = X exp(-iEt) X^H, not X^T; an array
        # of times gives one propagator per time
        h = random_hermitian(6, np.random.default_rng(1))
        t = np.array([[0.0, 0.4], [1.3, 2.9], [4.1, 7.5]])
        u = w.exact_propagator(h, t)
        assert u.shape == (3, 2, 6, 6)
        for idx in np.ndindex(t.shape):
            direct = expm(-1j * h * units.fs_to_au(t[idx]))
            assert np.abs(w.exact_propagator(h, t[idx]) - direct).max() \
                <= 1e-12
            assert np.abs(u[idx] - direct).max() <= 1e-12


class TestRunCircuit:
    def test_empty_sequence(self):
        seq = GateSequence(n_qubits=2, gates=[])
        psi = random_state(4, np.random.default_rng(0))
        assert np.abs(w.run_circuit(psi, seq) - psi).max() == 0

    def test_cx_truth_table(self):
        # control qubit 0, target qubit 1: flips bit 1 when bit 0 is set
        seq = GateSequence(n_qubits=2, gates=[Gate("cx", target=1, control=0)])
        m = circuit_matrix(seq)
        perm = np.zeros((4, 4))
        for b in range(4):
            out = b ^ 2 if b & 1 else b
            perm[out, b] = 1
        assert np.abs(m - perm).max() == 0

    def test_cx_reversed_orientation(self):
        seq = GateSequence(n_qubits=2, gates=[Gate("cx", target=0, control=1)])
        m = circuit_matrix(seq)
        perm = np.zeros((4, 4))
        for b in range(4):
            out = b ^ 1 if b & 2 else b
            perm[out, b] = 1
        assert np.abs(m - perm).max() == 0

    def test_ry_single_qubit(self):
        seq = GateSequence(n_qubits=1, gates=[Gate("ry", target=0, angle=0.9)])
        c, s = np.cos(0.45), np.sin(0.45)
        assert np.abs(circuit_matrix(seq)
                      - np.array([[c, -s], [s, c]])).max() <= 1e-15

    def test_rz_single_qubit(self):
        seq = GateSequence(n_qubits=1, gates=[Gate("rz", target=0, angle=0.9)])
        want = np.diag([np.exp(-0.45j), np.exp(0.45j)])
        assert np.abs(circuit_matrix(seq) - want).max() <= 1e-15

    @given(n=st.integers(1, 4), seed=st.integers(0, 10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_random_circuits_match_dense_product(self, n, seed):
        rng = np.random.default_rng(seed)
        gates = []
        for _ in range(12):
            kind = rng.choice(["ry", "rz", "cx"] if n > 1 else ["ry", "rz"])
            if kind == "cx":
                t, c = rng.choice(n, size=2, replace=False)
                gates.append(Gate("cx", target=int(t), control=int(c)))
            else:
                gates.append(Gate(kind, target=int(rng.integers(n)),
                                  angle=float(rng.normal())))
        seq = GateSequence(n_qubits=n, gates=gates)
        dense = np.eye(2 ** n, dtype=complex)
        for g in gates:
            dense = self.dense_gate(g, n) @ dense
        assert np.abs(circuit_matrix(seq) - dense).max() <= 1e-12

    @staticmethod
    def dense_gate(g, n):
        if g.kind == "cx":
            m = np.eye(2 ** n)
            for b in range(2 ** n):
                if b >> g.control & 1:
                    m[b, b] = 0
                    m[b ^ (1 << g.target), b] = 1
            return m
        if g.kind == "ry":
            c, s = np.cos(g.angle / 2), np.sin(g.angle / 2)
            one = np.array([[c, -s], [s, c]], dtype=complex)
        else:
            one = np.diag([np.exp(-0.5j * g.angle), np.exp(0.5j * g.angle)])
        m = np.array([[1]], dtype=complex)
        for q in range(n):   # qubit q is bit q: kron from high to low
            m = np.kron(one if q == g.target else np.eye(2), m)
        return m

    def test_preserves_norm_and_input(self):
        psi = random_state(8, np.random.default_rng(1))
        keep = psi.copy()
        seq = w.qsd_compile(unitary_group.rvs(8, random_state=2))
        out = w.run_circuit(psi, seq)
        assert np.array_equal(psi, keep)   # input untouched
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        seq = GateSequence(n_qubits=2, gates=[])
        with pytest.raises(ValueError):
            w.run_circuit(np.zeros(8), seq)


def gate_by_gate(psi, seq):
    '''Reference execution: every gate of `seq` through _apply_gate.'''
    amp = np.array(psi, dtype=complex)
    for g in seq:
        amp = _apply_gate(amp, g, seq.n_qubits)
    return amp


class TestFusedExecution:
    '''run_circuit applies compiled blocks in one step each; the
    gate-by-gate path is the reference.'''

    def test_compiled_blocks_are_used(self):
        seq = w.qsd_compile(unitary_group.rvs(8, random_state=10))
        kinds = {type(b) for b in seq.blocks}
        assert kinds == {Gate, Multiplexor, ZyzLeaf}

    def test_random_unitaries_single_and_batched(self):
        rng = np.random.default_rng(11)
        for n in range(1, 7):
            seq = w.qsd_compile(unitary_group.rvs(2 ** n, random_state=rng))
            psi = random_state(2 ** n, rng)
            assert np.abs(w.run_circuit(psi, seq)
                          - gate_by_gate(psi, seq)).max() <= 1e-12
            eye = np.eye(2 ** n, dtype=complex)
            assert np.abs(circuit_matrix(seq)
                          - gate_by_gate(eye, seq)).max() <= 1e-12

    def test_multiplexor_on_spectator_register(self):
        # controls above and below the target, one idle qubit
        rng = np.random.default_rng(12)
        for axis in ("y", "z"):
            mux = w.multiplexed_rotation_to_gates(
                axis, rng.normal(size=4), 1, [3, 0])
            seq = GateSequence(n_qubits=5, gates=mux.blocks)
            psi = random_state(32, rng)
            assert np.abs(w.run_circuit(psi, seq)
                          - gate_by_gate(psi, seq)).max() <= 1e-12

    def test_circuit_evolve_first_steps(self):
        g, pot, ham = double_well_system(6)
        pp = w.parity_partition(6)
        bh = w.block_transform(ham)
        psi0 = w.initial_wavepacket(
            w.WavepacketSpec("gaussian", mu=0.0, sigma=0.1), g)
        psi0_map = w.to_mapped_basis(psi0, pp)
        dt, steps = 1.0, 3
        out = _circuit_evolve(bh.block_plus, bh.block_minus, psi0_map, pp,
                              dt, steps)
        for states, block in ((pp.even_states, bh.block_plus),
                              (pp.odd_states, bh.block_minus)):
            eig = w.eigensolve(block)
            for s in range(1, steps + 1):
                u = w.exact_propagator(None, s * dt, eig=eig)
                ref = gate_by_gate(psi0_map[states], w.qsd_compile(u))
                assert np.abs(out[s, states] - ref).max() <= 1e-12


def identity_run(seq):
    '''Reference: every block of `seq` run across the whole 2^n identity,
    with a stack of S circuits as (S, 2^n, 2^n).'''
    eye = np.eye(2 ** seq.n_qubits, dtype=complex)
    if seq.n_circuits == 1:
        return w.run_circuit(eye, seq)
    eye = np.repeat(eye[:, :, None], seq.n_circuits, axis=2)
    return np.moveaxis(w.run_circuit(eye, seq), 2, 0)


def random_single_gates(n, count, rng):
    '''`count` random ry, rz and cx gates on n qubits.'''
    gates = []
    for _ in range(count):
        kind = ("ry", "rz", "cx")[rng.integers(3 if n > 1 else 2)]
        if kind == "cx":
            t, c = rng.choice(n, size=2, replace=False)
            gates.append(Gate("cx", target=int(t), control=int(c)))
        else:
            gates.append(Gate(kind, target=int(rng.integers(n)),
                              angle=float(rng.normal())))
    return GateSequence(n, gates)


class TestNestedProducts:
    '''circuit_matrix builds the products of runs of blocks on the low
    qubits and nests them; running every block across the identity is
    the reference.'''

    @pytest.mark.parametrize("n", range(1, 8))
    def test_compiled_circuits(self, n):
        seq = w.qsd_compile(unitary_group.rvs(2 ** n, random_state=90 + n))
        assert np.abs(circuit_matrix(seq) - identity_run(seq)).max() \
            <= 1e-12

    @pytest.mark.parametrize("n", range(1, 6))
    def test_stacks(self, n):
        rng = np.random.default_rng(100 + n)
        u = np.array([unitary_group.rvs(2 ** n, random_state=rng)
                      for _ in range(3)])
        seq = w.qsd_compile(u)
        got = circuit_matrix(seq)
        assert got.shape == (3, 2 ** n, 2 ** n)
        assert np.abs(got - identity_run(seq)).max() <= 1e-12

    def test_hand_built_supports(self):
        # supports falling and rising, runs long enough to be fused and
        # short enough to be replayed, cx in both orientations,
        # multiplexors with controls (2, 0) and (1, 3), leaves and phases
        rng = np.random.default_rng(110)

        def rot(kind, q):
            return Gate(kind, target=q, angle=float(rng.normal()))

        def leaf(q):
            return ZyzLeaf(q, *rng.normal(size=(3, 1)))

        def cx(c, t):
            return Gate("cx", target=t, control=c)

        def mux(kind, target, controls):
            return w.multiplexed_rotation_to_gates(
                kind, rng.normal(size=2 ** len(controls)), target,
                controls).blocks
        mux_y = mux("y", 1, [2, 0])
        blocks = ([rot("ry", 0), rot("rz", 0), rot("ry", 0), cx(0, 1),
                   cx(1, 0), rot("ry", 3), Gate("phase", angle=0.4),
                   leaf(0)]
                  + mux_y
                  + [rot("rz", 1), rot("ry", 0), leaf(2), cx(4, 0), cx(0, 4)]
                  + mux("z", 3, [4])
                  + [Gate("phase", angle=-0.2), Gate("phase", angle=1.1),
                     leaf(0), leaf(1), rot("rz", 0), rot("ry", 1),
                     rot("rz", 2), cx(1, 2)] * 3
                  + [rot("ry", 4)] + mux_y
                  + [rot("rz", 4), rot("ry", 0), rot("rz", 1), rot("ry", 0),
                     rot("rz", 1)]
                  + mux("z", 0, [1, 3])
                  + [rot("ry", 1), rot("rz", 0), rot("ry", 4)])
        seq = GateSequence(5, blocks)
        assert np.abs(circuit_matrix(seq) - identity_run(seq)).max() \
            <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_random_single_gates(self, n):
        seq = random_single_gates(n, 2000, np.random.default_rng(120 + n))
        assert np.abs(circuit_matrix(seq) - identity_run(seq)).max() \
            <= 1e-12

    @staticmethod
    def passes(seq, monkeypatch):
        '''Amplitudes that circuit_matrix(seq) updates, in passes across
        the 2^n identity; a product on c qubits counts 2^c per amplitude.'''
        work = []
        for cls, fn in list(sim._APPLY.items()):
            def counted(amp, op, n, fn=fn):
                rows = len(op.matrix) if isinstance(op, sim._Product) else 1
                work.append(amp.size * rows)
                return fn(amp, op, n)
            monkeypatch.setitem(sim._APPLY, cls, counted)
        circuit_matrix(seq)
        return sum(work) / (4 ** seq.n_qubits * seq.n_circuits)

    def test_fuse_only_when_it_saves_passes(self, monkeypatch):
        # a compiled circuit runs at full width only at its top level; a
        # sequence with no nesting costs no more than one pass per block
        seq = w.qsd_compile(unitary_group.rvs(128, random_state=140))
        assert self.passes(seq, monkeypatch) <= 0.1 * len(seq.blocks)
        seq = random_single_gates(7, 2000, np.random.default_rng(141))
        assert self.passes(seq, monkeypatch) <= len(seq.blocks)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_qasm_round_trip(self, n):
        seq = w.qsd_compile(unitary_group.rvs(2 ** n, random_state=130 + n))
        back = w.from_qasm(w.to_qasm(seq))
        assert np.abs(circuit_matrix(back)
                      - circuit_matrix(seq.without_phase())).max() <= 1e-12

    def test_gate_outside_register_rejected(self):
        seq = GateSequence(2, [Gate("ry", target=2, angle=0.1)])
        with pytest.raises(ValueError, match="outside"):
            circuit_matrix(seq)


def random_block(dim, rng):
    '''A real symmetric block whose propagators are generic unitaries
    over a few femtoseconds.'''
    h = rng.normal(scale=0.02, size=(dim, dim))
    return h + h.T


def random_hermitian(dim, rng):
    '''A complex Hermitian matrix with entries of 0.02 Hartree.'''
    h = rng.normal(scale=0.02, size=(dim, dim)) \
        + 1j * rng.normal(scale=0.02, size=(dim, dim))
    return h + h.conj().T


class TestLockstepExecution:
    '''A stack of unitaries compiled by one qsd_compile call and run in
    lockstep matches per-step compiles run gate by gate.'''

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("stack", [1, 3])
    def test_stack_matches_per_step(self, n, stack):
        rng = np.random.default_rng(40 + 10 * n + stack)
        u = np.array([unitary_group.rvs(2 ** n, random_state=rng)
                      for _ in range(stack)])
        seq = w.qsd_compile(u)
        assert seq.n_circuits == stack
        psi = np.stack([random_state(2 ** n, rng) for _ in range(stack)], 1)
        got = w.run_circuit(psi, seq)
        for i in range(stack):
            ref = gate_by_gate(psi[:, i], w.qsd_compile(u[i]))
            assert np.abs(got[:, i] - ref).max() <= 1e-12

    @pytest.mark.parametrize("n", range(1, 7))
    def test_chunked_block_evolution_matches_per_step(self, n):
        # one step more than a chunk: two compiles, the second of one step
        rng = np.random.default_rng(60 + n)
        block = random_block(2 ** n, rng)
        comp0 = random_state(2 ** n, rng)
        dt, steps = 0.5, _chunk_steps(2 ** n) + 1
        out = _compiled_evolve(block, comp0, dt, steps)
        assert np.array_equal(out[0], comp0)
        eig = w.eigensolve(block)
        for s in range(1, steps + 1):
            u = w.exact_propagator(None, s * dt, eig=eig)
            ref = gate_by_gate(comp0, w.qsd_compile(u))
            assert np.abs(out[s] - ref).max() <= 1e-12

    def test_complex_hermitian_block_matches_exact_evolution(self):
        rng = np.random.default_rng(65)
        block = random_hermitian(4, rng)
        comp0 = random_state(4, rng)
        out = _compiled_evolve(block, comp0, 0.5, 40)
        ref = w.evolve_exact(block, comp0, 0.5, 40)
        assert np.abs(out - ref).max() <= 1e-9

    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_circuit_obeys_count_law_and_reconstructs(self, n):
        rng = np.random.default_rng(70 + n)
        u = np.array([unitary_group.rvs(2 ** n, random_state=rng)
                      for _ in range(3)])
        seq = w.qsd_compile(u)
        law = w.cnot_count(n)
        assert seq.cnot_count() == 3 * law
        recon = circuit_matrix(seq)
        assert recon.shape == u.shape
        for i in range(3):
            assert seq.circuit(i).cnot_count() == law
            assert np.abs(recon[i] - u[i]).max() <= 1e-9

    def test_stack_needs_one_column_per_circuit(self):
        seq = w.qsd_compile(np.array([np.eye(4), np.eye(4)]))
        with pytest.raises(ValueError, match="columns"):
            w.run_circuit(np.ones(4), seq)
        with pytest.raises(ValueError, match="columns"):
            w.run_circuit(np.ones((4, 3)), seq)

    def test_corrupted_compile_raises_numerical_error(self, monkeypatch):
        def corrupted(u):
            seq = w.qsd_compile(u)
            seq.blocks[0] = ZyzLeaf(0, seq.blocks[0].beta + 1e-6,
                                    seq.blocks[0].gamma, seq.blocks[0].delta)
            return seq
        monkeypatch.setattr("wavecirc.dynamics.qsd_compile", corrupted)
        rng = np.random.default_rng(80)
        with pytest.raises(w.NumericalError, match="exact block evolution"):
            _compiled_evolve(random_block(8, rng), random_state(8, rng),
                             0.5, 4)

    def test_working_memory_independent_of_step_count(self):
        # 5 block qubits.  The trajectory grows with the step count, and so
        # does each block's half of it while it is copied into place;
        # the chunked compile-and-run working set must not.
        g, pot, ham = double_well_system(6)
        pp = w.parity_partition(6)
        bh = w.block_transform(ham)
        psi0_map = w.to_mapped_basis(w.initial_wavepacket(
            w.WavepacketSpec("gaussian", mu=0.0, sigma=0.1), g), pp)
        peak, size = {}, {}
        for steps in (64, 2000):
            tracemalloc.start()
            try:
                out = _circuit_evolve(bh.block_plus, bh.block_minus,
                                      psi0_map, pp, 1.0, steps)
                peak[steps] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            size[steps] = out.nbytes
        print(f"peak {peak}, trajectory bytes {size}")
        assert peak[2000] - peak[64] <= 1.5 * (size[2000] - size[64]) \
            + 2 ** 18

    def test_block_working_memory_independent_of_step_count(self):
        # _compiled_evolve alone, as the odd block's forked worker runs
        # it: the test above traces only the even block, in this process
        g, pot, ham = double_well_system(6)
        pp = w.parity_partition(6)
        bh = w.block_transform(ham)
        comp0 = w.to_mapped_basis(w.initial_wavepacket(
            w.WavepacketSpec("gaussian", mu=0.0, sigma=0.1), g),
            pp)[pp.odd_states]
        peak, size = {}, {}
        for steps in (64, 2000):
            tracemalloc.start()
            try:
                out = _compiled_evolve(bh.block_minus, comp0, 1.0, steps)
                peak[steps] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            size[steps] = out.nbytes
        print(f"peak {peak}, block trajectory bytes {size}")
        assert peak[2000] - peak[64] <= 1.5 * (size[2000] - size[64]) \
            + 2 ** 18


class TestSampleShots:
    def test_basis_state_deterministic(self):
        psi = np.zeros(8)
        psi[5] = 1.0
        res = w.sample_shots(psi, 1000, seed=0)
        assert res.counts[5] == 1000 and res.counts.sum() == 1000

    def test_uniform_within_five_standard_errors(self):
        psi = np.full(16, 0.25)
        shots = 40000
        res = w.sample_shots(psi, shots, seed=1)
        p = 1 / 16
        se = np.sqrt(p * (1 - p) / shots)
        assert np.abs(res.probabilities - p).max() <= 5 * se

    def test_seed_determinism(self):
        psi = random_state(8, np.random.default_rng(3))
        a = w.sample_shots(psi, 500, seed=42)
        b = w.sample_shots(psi, 500, seed=42)
        c = w.sample_shots(psi, 500, seed=43)
        assert np.array_equal(a.counts, b.counts)
        assert not np.array_equal(a.counts, c.counts)

    def test_rejects_zero_shots(self):
        with pytest.raises(ValueError):
            w.sample_shots(np.array([1.0, 0.0]), 0, seed=0)


class TestDensityTransport:
    def test_exact_round_trip(self, dw3_full):
        pp = dw3_full["partition"]
        psi = random_state(8, np.random.default_rng(4))
        mapped = w.to_mapped_basis(psi, pp)
        rho = np.abs(w.from_mapped_basis(mapped, pp)) ** 2
        assert np.abs(rho - np.abs(psi) ** 2).max() <= 1e-14

    def test_transport_with_reference_recovers_density(self, dw3_full):
        # exact probabilities + the same state as reference must give the
        # exact grid density including the mirror-pair split
        pp = dw3_full["partition"]
        psi = random_state(8, np.random.default_rng(5))
        mapped = w.to_mapped_basis(psi, pp)
        rho = w.mapped_density_to_grid(np.abs(mapped) ** 2, pp,
                                       reference=psi)
        assert np.abs(rho - np.abs(psi) ** 2).max() <= 1e-13

    def test_transport_without_reference_symmetrizes(self, dw3_full):
        pp = dw3_full["partition"]
        psi = random_state(8, np.random.default_rng(6))
        mapped = w.to_mapped_basis(psi, pp)
        rho = w.mapped_density_to_grid(np.abs(mapped) ** 2, pp)
        assert np.abs(rho - rho[::-1]).max() <= 1e-13
        assert rho.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_pair_split_formula(self, n):
        # each mirror pair (i, n-i) gets half its sampled total plus or
        # minus Re(conj(p) m), p and m the reference's even/odd amplitudes
        rng = np.random.default_rng(20 + n)
        pp = w.parity_partition(n)
        dim, half = 2 ** n, 2 ** (n - 1)
        q = rng.dirichlet(np.ones(dim))
        psi = random_state(dim, rng)
        phi = _rotate_pairs(np.eye(dim)) @ psi
        i = np.arange(half)
        total = 0.5 * (q[pp.order[i]] + q[pp.order[dim - 1 - i]])
        cross = np.real(np.conj(phi[i]) * phi[dim - 1 - i])
        expected = np.empty(dim)
        expected[i], expected[dim - 1 - i] = total + cross, total - cross
        rho = w.mapped_density_to_grid(q, pp, reference=psi)
        assert np.abs(rho - expected).max() <= 1e-15
        even = w.mapped_density_to_grid(q, pp)
        expected[i] = expected[dim - 1 - i] = total
        assert np.abs(even - expected).max() <= 1e-15

    def test_dimension_mismatch_rejected(self, dw3_full):
        pp = dw3_full["partition"]
        q = np.full(8, 1 / 8)
        with pytest.raises(ValueError, match="dimension"):
            w.mapped_density_to_grid(np.full(16, 1 / 16), pp)
        with pytest.raises(ValueError, match="dimension"):
            w.mapped_density_to_grid(q, pp, reference=np.ones(16))

    def test_shot_result_pathway(self, dw3_full):
        pp = dw3_full["partition"]
        psi = random_state(8, np.random.default_rng(7))
        mapped = w.to_mapped_basis(psi, pp)
        res = w.sample_shots(mapped, 200000, seed=8)
        rho = w.mapped_density_to_grid(res.probabilities, pp,
                                       reference=psi)
        assert rho.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.abs(rho - np.abs(psi) ** 2).max() <= 0.01

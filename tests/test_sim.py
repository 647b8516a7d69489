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
from wavecirc import qsd, sim
from wavecirc.sim import circuit_matrix

import gate_oracle as oracle
from conftest import block_systems, double_well_system, random_state


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
        out = w.exact_propagator(eig, 3.0) @ chi
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

    def test_refuses_phases_beyond_float_resolution(self, dw3):
        # compile --time-fs once wrote QASM of phases near 1e302 rad
        _, _, ham = dw3
        with pytest.raises(ValueError, match="2\\^52"):
            w.exact_propagator(ham, np.array([0.5, -1e300]))


class TestRunCircuit:
    '''The gate semantics of the oracle, against hand-written matrices
    and the dense product of its gates, and the input checks of
    run_circuit.'''

    def test_empty_sequence(self):
        psi = random_state(4, np.random.default_rng(0))
        assert np.array_equal(oracle.run((2, 0.0, []), psi), psi)

    def test_cx_truth_table(self):
        # control qubit 0, target qubit 1: flips bit 1 when bit 0 is set
        perm = np.zeros((4, 4))
        for b in range(4):
            perm[b ^ 2 if b & 1 else b, b] = 1
        circ = (2, 0.0, [("cx", 1, 0, None)])
        assert np.array_equal(oracle.matrix(circ), perm)
        assert np.array_equal(oracle.dense_product(circ), perm)

    def test_cx_reversed_orientation(self):
        perm = np.zeros((4, 4))
        for b in range(4):
            perm[b ^ 1 if b & 2 else b, b] = 1
        circ = (2, 0.0, [("cx", 0, 1, None)])
        assert np.array_equal(oracle.matrix(circ), perm)
        assert np.array_equal(oracle.dense_product(circ), perm)

    def test_ry_single_qubit(self):
        c, s = np.cos(0.45), np.sin(0.45)
        circ = (1, 0.0, [("ry", 0, None, 0.9)])
        for m in (oracle.matrix(circ), oracle.dense_product(circ)):
            assert np.abs(m - np.array([[c, -s], [s, c]])).max() <= 1e-15

    def test_rz_single_qubit(self):
        want = np.diag([np.exp(-0.45j), np.exp(0.45j)])
        circ = (1, 0.0, [("rz", 0, None, 0.9)])
        for m in (oracle.matrix(circ), oracle.dense_product(circ)):
            assert np.abs(m - want).max() <= 1e-15

    @given(n=st.integers(1, 4), seed=st.integers(0, 10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_random_circuits_match_dense_product(self, n, seed):
        circ = random_single_gates(n, 12, np.random.default_rng(seed))
        assert np.abs(oracle.matrix(circ)
                      - oracle.dense_product(circ)).max() <= 1e-12

    def test_preserves_norm_and_input(self):
        psi = random_state(8, np.random.default_rng(1))
        keep = psi.copy()
        seq = w.qsd_compile(unitary_group.rvs(8, random_state=2))
        out = w.run_circuit(psi, seq)
        assert np.array_equal(psi, keep)   # input untouched
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            w.run_circuit(np.zeros(8), w.qsd_compile(np.eye(4)))


class TestFusedExecution:
    '''run_circuit runs a compiled tree from its level arrays, one step
    per multiplexor and per leaf; each circuit's QASM run gate by gate by
    the oracle is the reference.'''

    def test_compiled_stack_never_expanded(self):
        # a stack is run, rebuilt, written and counted as one tree
        rng = np.random.default_rng(10)
        u = np.array([unitary_group.rvs(8, random_state=rng)
                      for _ in range(3)])
        seq = w.qsd_compile(u)
        psi = np.ones((8, 3))
        mats = circuit_matrix(seq)
        assert np.abs(w.run_circuit(psi, seq)
                      - np.einsum("sij,js->is", mats, psi)).max() <= 1e-12
        bare = seq.without_phase()
        assert bare.global_phase() == 0
        assert len(w.to_qasm(bare).splitlines()) \
            == 3 + sum(bare.counts().values())
        assert seq.counts()["cx"] == 3 * w.cnot_count(3)

    @pytest.mark.parametrize("n, stack, batch, phase", [
        (4, 1, (), True),        # a 1-D state
        (4, 1, (3,), True),      # an extra batch axis
        (1, 1, (2,), True),      # one qubit: a leaf only
        (3, 1, (), False),       # without_phase()
        (3, 3, (), True),        # a stack of three circuits
    ])
    def test_tree_run_matches_gate_by_gate(self, n, stack, batch, phase):
        rng = np.random.default_rng(13 + n + stack)
        u = np.array([unitary_group.rvs(2 ** n, random_state=rng)
                      for _ in range(stack)])
        seq = w.qsd_compile(u if stack > 1 else u[0])
        if not phase:
            seq = seq.without_phase()
        shape = (2 ** n,) + batch + ((stack,) if stack > 1 else ())
        psi = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        got = w.run_circuit(psi, seq)
        assert got.shape == shape
        if stack == 1:
            got, psi = got[..., None], psi[..., None]
        for i in range(stack):
            ref = oracle.run(oracle.circuit(seq, i), psi[..., i])
            assert np.abs(got[..., i] - ref).max() <= 1e-12

    def test_random_unitaries_single_and_batched(self):
        rng = np.random.default_rng(11)
        for n in range(1, 7):
            seq = w.qsd_compile(unitary_group.rvs(2 ** n, random_state=rng))
            circ = oracle.circuit(seq)
            psi = random_state(2 ** n, rng)
            assert np.abs(w.run_circuit(psi, seq)
                          - oracle.run(circ, psi)).max() <= 1e-12
            assert np.abs(circuit_matrix(seq)
                          - oracle.matrix(circ)).max() <= 1e-12

    def test_multiplexor_on_spectator_register(self):
        # a multiplexor on qubit 2 of 5, controls 0 and 1, qubits 3 and 4
        # idle: the kernel against its Gray-code gates
        rng = np.random.default_rng(12)
        for kind in ("ry", "rz"):
            select = rng.normal(size=4)
            gates = []
            for angle, control in zip(qsd._gray_angles(select),
                                      qsd._ladder(2)):
                gates += [(kind, 2, None, angle), ("cx", 2, control, None)]
            psi = random_state(32, rng)
            got = sim._apply_multiplexor(psi[:, None].copy(), kind,
                                         select[None])
            assert np.abs(got[:, 0] - oracle.run((5, 0.0, gates), psi)) \
                .max() <= 1e-12

    def test_circuit_evolve_first_steps(self):
        g, pot, ham = double_well_system(6)
        pp = w.parity_partition(6)
        bh = w.block_transform(ham)
        psi0 = w.initial_wavepacket(
            w.WavepacketSpec("gaussian", mu=0.0, sigma=0.1), g)
        psi0_map = w.to_mapped_basis(psi0, pp)
        dt, steps = 1.0, 3
        systems = block_systems(bh)
        out = _circuit_evolve(*systems, psi0_map, pp, dt, steps)
        for states, eig in zip((pp.even_states, pp.odd_states), systems):
            for s in range(1, steps + 1):
                u = w.exact_propagator(eig, s * dt)
                ref = oracle.run(oracle.circuit(w.qsd_compile(u)),
                                 psi0_map[states])
                assert np.abs(out[s, states] - ref).max() <= 1e-12


def identity_run(seq):
    '''Reference: a compiled QsdTree run across the whole 2^n identity,
    with a stack of S circuits as (S, 2^n, 2^n).'''
    eye = np.eye(2 ** seq.n_qubits, dtype=complex)
    if seq.n_circuits == 1:
        return w.run_circuit(eye, seq)
    eye = np.repeat(eye[:, :, None], seq.n_circuits, axis=2)
    return np.moveaxis(w.run_circuit(eye, seq), 2, 0)


def random_single_gates(n, count, rng, phase=0.0):
    '''An oracle circuit of `count` random ry, rz and cx gates on n
    qubits.'''
    gates = []
    for _ in range(count):
        kind = ("ry", "rz", "cx")[rng.integers(3 if n > 1 else 2)]
        if kind == "cx":
            t, c = rng.choice(n, size=2, replace=False)
            gates.append(("cx", int(t), int(c), None))
        else:
            gates.append((kind, int(rng.integers(n)), None,
                          float(rng.normal())))
    return n, phase, gates


class TestNestedProducts:
    '''circuit_matrix rebuilds a compiled tree node by node from its
    level arrays, children inside parents.  The references are the tree
    run across the identity and its QASM run gate by gate by the oracle,
    whose own kernel is checked against a product of dense gate
    matrices.'''

    @pytest.mark.parametrize("n", range(1, 8))
    def test_compiled_circuits(self, n):
        seq = w.qsd_compile(unitary_group.rvs(2 ** n, random_state=90 + n))
        assert np.abs(circuit_matrix(seq) - identity_run(seq)).max() \
            <= 1e-12

    @pytest.mark.parametrize("n", range(1, 7))
    def test_stacks(self, n):
        rng = np.random.default_rng(100 + n)
        u = np.array([unitary_group.rvs(2 ** n, random_state=rng)
                      for _ in range(3)])
        seq = w.qsd_compile(u)
        got = circuit_matrix(seq)
        assert got.shape == (3, 2 ** n, 2 ** n)
        assert np.abs(got - identity_run(seq)).max() <= 1e-12

    def test_hand_built_supports(self):
        # every gate kind on every qubit, cx in both orientations and
        # across the register, and a global phase
        rng = np.random.default_rng(110)
        gates = [(kind, q, None, float(rng.normal()))
                 for q in range(5) for kind in ("rz", "ry", "rz")]
        gates += [("cx", t, c, None) for t in range(5) for c in range(5)
                  if t != c]
        gates += gates[:15]
        circ = (5, 0.4, gates)
        assert np.abs(oracle.matrix(circ) - oracle.dense_product(circ)) \
            .max() <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_random_single_gates(self, n):
        circ = random_single_gates(n, 2000, np.random.default_rng(120 + n),
                                   phase=-1.1)
        assert np.abs(oracle.matrix(circ) - oracle.dense_product(circ)) \
            .max() <= 1e-12

    def test_no_full_width_kernel(self, monkeypatch):
        # a compiled tree is rebuilt from its level arrays: no multiplexor
        # or leaf kernel runs across the 2^n identity
        widths = []
        for name in ("_apply_multiplexor", "_apply_leaf"):
            def counted(amp, *args, fn=getattr(sim, name)):
                widths.append(amp.shape[0])
                return fn(amp, *args)
            monkeypatch.setattr(sim, name, counted)
        seq = w.qsd_compile(unitary_group.rvs(128, random_state=140))
        circuit_matrix(seq)
        assert 128 not in widths
        w.run_circuit(np.eye(128), seq)
        assert widths and set(widths) == {128}

    @pytest.mark.parametrize("n", range(1, 8))
    def test_qasm_round_trip(self, n):
        # the tree's QASM, phase from its header, run gate by gate
        seq = w.qsd_compile(unitary_group.rvs(2 ** n, random_state=130 + n))
        assert np.abs(oracle.matrix(oracle.parse_qasm(w.to_qasm(seq)))
                      - circuit_matrix(seq)).max() <= 1e-12

    def test_gate_outside_register_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            oracle.parse_qasm("qreg q[2];\nry(0.1) q[2];\n")

    def test_cx_outside_register_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            oracle.parse_qasm("qreg q[2];\ncx q[2],q[0];\n")


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
    lockstep matches per-step compiles run gate by gate by the
    oracle.'''

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
            ref = oracle.run(oracle.circuit(w.qsd_compile(u[i])), psi[:, i])
            assert np.abs(got[:, i] - ref).max() <= 1e-12

    @pytest.mark.parametrize("n", range(1, 7))
    def test_chunked_block_evolution_matches_per_step(self, n):
        # one step more than a chunk: two compiles, the second of one step
        rng = np.random.default_rng(60 + n)
        block = random_block(2 ** n, rng)
        comp0 = random_state(2 ** n, rng)
        dt, steps = 0.5, _chunk_steps(2 ** n) + 1
        eig = w.eigensolve(block)
        out = _compiled_evolve(eig, comp0, dt, steps)
        assert np.array_equal(out[0], comp0)
        for s in range(1, steps + 1):
            u = w.exact_propagator(eig, s * dt)
            ref = oracle.run(oracle.circuit(w.qsd_compile(u)), comp0)
            assert np.abs(out[s] - ref).max() <= 1e-12

    def test_complex_hermitian_block_matches_exact_evolution(self):
        rng = np.random.default_rng(65)
        block = random_hermitian(4, rng)
        comp0 = random_state(4, rng)
        out = _compiled_evolve(w.eigensolve(block), comp0, 0.5, 40)
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
            gates = oracle.circuit(seq, i)[2]
            assert [g[0] for g in gates].count("cx") == law
            assert np.abs(recon[i] - u[i]).max() <= 1e-9

    @pytest.mark.parametrize("n", range(1, 6))
    def test_expanded_circuit_matches_its_column(self, n):
        # circuit i's QASM, run gate by gate, is circuit i of the
        # lockstep run and of the level-by-level rebuild
        rng = np.random.default_rng(85 + n)
        tree = w.qsd_compile(unitary_group.rvs(2 ** n, size=3,
                                               random_state=rng))
        psi = np.stack([random_state(2 ** n, rng) for _ in range(3)], 1)
        got, mats = w.run_circuit(psi, tree), circuit_matrix(tree)
        for i in range(3):
            circ = oracle.circuit(tree, i)
            assert np.abs(oracle.run(circ, psi[:, i])
                          - got[:, i]).max() <= 1e-12
            assert np.abs(oracle.matrix(circ) - mats[i]).max() <= 1e-12

    def test_stack_needs_one_column_per_circuit(self):
        seq = w.qsd_compile(np.array([np.eye(4), np.eye(4)]))
        with pytest.raises(ValueError, match="columns"):
            w.run_circuit(np.ones(4), seq)
        with pytest.raises(ValueError, match="columns"):
            w.run_circuit(np.ones((4, 3)), seq)

    def test_corrupted_compile_raises_numerical_error(self, monkeypatch):
        def corrupted(u):
            tree = w.qsd_compile(u)
            tree.beta[:, 0] += 1e-6
            return tree
        monkeypatch.setattr("wavecirc.dynamics.qsd_compile", corrupted)
        rng = np.random.default_rng(80)
        with pytest.raises(w.NumericalError, match="exact block evolution"):
            _compiled_evolve(w.eigensolve(random_block(8, rng)),
                             random_state(8, rng), 0.5, 4)

    def test_working_memory_independent_of_step_count(self):
        # 5 block qubits.  The trajectory grows with the step count, and so
        # does each block's half of it while it is copied into place;
        # the chunked compile-and-run working set must not.
        g, pot, ham = double_well_system(6)
        pp = w.parity_partition(6)
        bh = w.block_transform(ham)
        psi0_map = w.to_mapped_basis(w.initial_wavepacket(
            w.WavepacketSpec("gaussian", mu=0.0, sigma=0.1), g), pp)
        systems = block_systems(bh)
        peak, size = {}, {}
        for steps in (64, 2000):
            tracemalloc.start()
            try:
                out = _circuit_evolve(*systems, psi0_map, pp, 1.0, steps)
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
        eig = w.eigensolve(bh.block_minus)
        peak, size = {}, {}
        for steps in (64, 2000):
            tracemalloc.start()
            try:
                out = _compiled_evolve(eig, comp0, 1.0, steps)
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

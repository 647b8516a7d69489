import os
import signal
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

import wavecirc as w
from wavecirc import dynamics, units

from conftest import (block_systems, double_well_system, in_worker_only,
                      pair_cross, random_state)


def block_model(n):
    '''The N-qubit double well's Hamiltonian, parity partition and the
    EigenSystems of its two parity blocks.'''
    g, pot, ham = double_well_system(n)
    return ham, w.parity_partition(n), block_systems(w.block_transform(ham))


class TestInitialWavepacket:
    def test_delta(self, dw3):
        g, _, _ = dw3
        psi = w.initial_wavepacket(w.WavepacketSpec("delta", x0_index=2), g)
        assert psi[2] == 1.0 and np.count_nonzero(psi) == 1

    def test_delta_out_of_range(self, dw3):
        g, _, _ = dw3
        with pytest.raises(ValueError):
            w.initial_wavepacket(w.WavepacketSpec("delta", x0_index=8), g)

    def test_wide_gaussian_is_nearly_uniform(self, dw3):
        g, _, _ = dw3
        psi = w.initial_wavepacket(
            w.WavepacketSpec("gaussian", sigma=50.0), g)
        uniform = np.full(8, 1 / np.sqrt(8))
        assert abs(psi @ uniform) >= 0.999

    def test_gaussian_centered(self, dw3):
        g, _, _ = dw3
        psi = w.initial_wavepacket(
            w.WavepacketSpec("gaussian", mu=0.0, sigma=0.1), g)
        assert np.allclose(psi, psi[::-1])
        assert np.linalg.norm(psi) == pytest.approx(1.0)

    def test_thermal_low_temperature_is_ground_state(self, dw3):
        g, _, ham = dw3
        eig = w.eigensolve(ham)
        gap = eig.energies[1] - eig.energies[0]
        # kT = gap/50: first excited weight exp(-50) is negligible
        t_k = gap / (50 * units.KB_HARTREE)
        psi = w.initial_wavepacket(
            w.WavepacketSpec("thermal", temperature=t_k), g, eig)
        assert abs(psi @ eig.states[:, 0]) >= 1 - 1e-10

    def test_thermal_needs_eigensystem(self, dw3):
        g, _, _ = dw3
        with pytest.raises(ValueError):
            w.initial_wavepacket(w.WavepacketSpec("thermal"), g)

    def test_unknown_kind(self, dw3):
        g, _, _ = dw3
        with pytest.raises(ValueError):
            w.initial_wavepacket(w.WavepacketSpec("nope"), g)

    def test_vanishing_gaussian_refused(self, dw3):
        # centred 50 A away from a 0.66 A grid: every sample underflows
        g, _, _ = dw3
        with pytest.raises(ValueError, match="gaussian wavepacket has zero"):
            w.initial_wavepacket(w.WavepacketSpec("gaussian", mu=50.0), g)


class TestEvolveExact:
    def test_initial_row_is_input(self, dw3):
        _, _, ham = dw3
        psi0 = np.zeros(8)
        psi0[0] = 1.0
        states = w.evolve_exact(ham, psi0, 0.5, 10)
        assert np.abs(states[0] - psi0).max() <= 1e-13
        assert states.shape == (11, 8)

    def test_norm_conserved(self, dw3):
        _, _, ham = dw3
        psi0 = np.zeros(8)
        psi0[3] = 1.0
        states = w.evolve_exact(ham, psi0, 0.5, 200)
        norms = np.linalg.norm(states, axis=1)
        assert np.abs(norms - 1).max() <= 1e-12

    def test_stationary_density_constant(self, dw3):
        _, _, ham = dw3
        eig = w.eigensolve(ham)
        states = w.evolve_exact(eig, eig.states[:, 1], 0.5, 100)
        rho = np.abs(states) ** 2
        assert np.abs(rho - rho[0]).max() <= 1e-10

    @staticmethod
    def one_shot(eig, psi0, dt_fs, steps):
        '''The whole trajectory as one product, as the reference.'''
        c0 = eig.states.conj().T @ psi0
        t_au = units.fs_to_au(dt_fs) * np.arange(steps + 1)
        phases = np.exp(-1j * np.outer(t_au, eig.energies))
        return (phases * c0) @ eig.states.T

    @pytest.mark.parametrize("hermitian", [False, True])
    @pytest.mark.parametrize("budget", [None, 16 * 64 * 7])
    def test_chunks_match_one_shot_product(self, hermitian, budget,
                                           monkeypatch):
        # steps + 1 rows: one past a chunk boundary, so the last chunk
        # holds a single step
        if budget is not None:
            monkeypatch.setattr(dynamics, "REFERENCE_CHUNK_BYTES", budget)
        rows = dynamics.REFERENCE_CHUNK_BYTES // (16 * 64)
        steps = 2 * rows if budget else rows
        rng = np.random.default_rng(21)
        a = rng.normal(size=(64, 64))
        if hermitian:
            a = a + 1j * rng.normal(size=(64, 64))
        h = 0.01 * (a + a.conj().T)
        eig = w.eigensolve(h)
        assert np.iscomplexobj(eig.states) == hermitian
        psi0 = random_state(64, rng)
        got = w.evolve_exact(eig, psi0, 0.05, steps)
        assert got.shape == (steps + 1, 64)
        assert np.abs(got - self.one_shot(eig, psi0, 0.05, steps)).max() \
            <= 1e-13
        t_au = units.fs_to_au(0.05 * steps)
        assert np.abs(got[-1] - expm(-1j * h * t_au) @ psi0).max() <= 1e-11

    def test_refuses_phases_beyond_float_resolution(self, dw3):
        # at max|E| t >= 2^52 rad adjacent float64 phases are a radian
        # apart: refused before any step is evolved
        _, _, ham = dw3
        psi0 = np.zeros(8)
        psi0[0] = 1.0
        with pytest.raises(ValueError, match="dt_fs.*steps"):
            w.evolve_exact(ham, psi0, 1e300, 100)
        dt_au = units.fs_to_au(0.5)
        for scale, refused in ((0.99, False), (1.01, True)):
            e = scale * 2.0 ** 52 / (10 * dt_au)
            eig = w.EigenSystem(energies=np.array([-e, 1.0]),
                                states=np.eye(2))
            if refused:
                with pytest.raises(ValueError, match="2\\^52"):
                    w.evolve_exact(eig, [1.0, 0.0], 0.5, 10)
            else:
                assert w.evolve_exact(eig, [1.0, 0.0], 0.5, 10).shape \
                    == (11, 2)


class TestPropagate:
    def test_classical_density(self, dw3):
        g, _, ham = dw3
        psi0 = w.initial_wavepacket(w.WavepacketSpec("delta"), g)
        traj = w.propagate("classical", ham, psi0, 0.25, 100)
        assert traj.method == "classical"
        assert traj.rho.shape == (101, 8)
        assert np.abs(traj.rho.sum(axis=1) - 1).max() <= 1e-12
        assert traj.t_fs[-1] == pytest.approx(25.0)

    def test_ising_matches_classical_n3(self):
        g, _, ham = double_well_system(3)
        psi0 = w.initial_wavepacket(w.WavepacketSpec("delta"), g)
        tc = w.propagate("classical", ham, psi0, 0.25, 200)
        ti = w.propagate("ising", ham, psi0, 0.25, 200)
        assert w.probability_error(ti, tc) <= 1e-10

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_circuit_exact_matches_classical(self, n):
        g, _, ham = double_well_system(n)
        psi0 = w.initial_wavepacket(w.WavepacketSpec("delta"), g)
        tc = w.propagate("classical", ham, psi0, 0.5, 40)
        tq = w.propagate("circuit-exact", ham, psi0, 0.5, 40)
        assert w.probability_error(tq, tc) <= 1e-9

    def test_circuit_shots_reproducible_and_normalized(self, dw3):
        g, _, ham = dw3
        psi0 = w.initial_wavepacket(w.WavepacketSpec("delta"), g)
        kw = dict(shots=2000, seed=7)
        t1 = w.propagate("circuit-shots", ham, psi0, 0.5, 20, **kw)
        t2 = w.propagate("circuit-shots", ham, psi0, 0.5, 20, **kw)
        assert np.array_equal(t1.rho, t2.rho)
        assert np.abs(t1.rho.sum(axis=1) - 1).max() <= 1e-12
        assert t1.shots == 2000 and t1.seed == 7

    def test_shot_error_decreases_with_shots(self, dw3):
        g, _, ham = dw3
        psi0 = w.initial_wavepacket(w.WavepacketSpec("delta"), g)
        tc = w.propagate("classical", ham, psi0, 0.5, 20)
        errs = []
        for shots in (100, 100000):
            tq = w.propagate("circuit-shots", ham, psi0, 0.5, 20,
                             shots=shots, seed=1)
            errs.append(w.probability_error(tq, tc))
        assert errs[1] < errs[0] / 5

    def test_missing_arguments(self, dw3):
        g, _, ham = dw3
        psi0 = np.zeros(8)
        psi0[0] = 1.0
        with pytest.raises(ValueError):
            w.propagate("classical", ham, psi0, -0.25, 10)
        with pytest.raises(ValueError):
            w.propagate("warp", ham, psi0, 0.25, 10)
        for steps in (-1, -5, 2.5):
            with pytest.raises(ValueError, match="steps"):
                w.propagate("circuit-exact", ham, psi0, 0.25, steps)


def random_hermitian(dim, rng):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.01 * (a + a.conj().T)


class TestParityWorker:
    '''_circuit_evolve evolves the odd block in a forked worker; its
    output is that of the two in-process block calls, bit for bit.'''

    ROUTES = [(dynamics._circuit_evolve, dynamics._compiled_evolve, 1)]

    @staticmethod
    def in_process(evolve_block, systems, psi0_map, pp, dt_fs, steps):
        out = np.empty((steps + 1, 2 * pp.half), dtype=complex)
        for states, eig in zip((pp.even_states, pp.odd_states), systems):
            out[:, states] = evolve_block(eig, psi0_map[states], dt_fs,
                                          steps)
        return out

    @pytest.mark.parametrize("n", range(2, 7))
    @pytest.mark.parametrize("route, evolve_block, n_forks", ROUTES)
    def test_bits_match_in_process_blocks(self, n, route, evolve_block,
                                          n_forks, forks):
        ham, pp, systems = block_model(n)
        psi0_map = w.to_mapped_basis(w.initial_wavepacket(
            w.WavepacketSpec("gaussian", mu=0.0, sigma=0.1), ham.grid), pp)
        got = route(*systems, psi0_map, pp, 0.5, 20)
        assert len(forks) == n_forks
        assert np.array_equal(
            got, self.in_process(evolve_block, systems, psi0_map, pp, 0.5,
                                 20))

    @pytest.mark.parametrize("route, evolve_block, n_forks", ROUTES)
    def test_complex_hermitian_blocks(self, route, evolve_block, n_forks,
                                      forks):
        rng = np.random.default_rng(90)
        pp = w.parity_partition(4)
        systems = [w.eigensolve(random_hermitian(8, rng)) for _ in range(2)]
        psi0_map = random_state(16, rng)
        got = route(*systems, psi0_map, pp, 0.05, 20)
        assert len(forks) == n_forks
        assert np.array_equal(
            got, self.in_process(evolve_block, systems, psi0_map, pp, 0.05,
                                 20))

    def test_ising_forks_nothing(self, forks):
        g, _, ham = double_well_system(4)
        psi0 = w.initial_wavepacket(w.WavepacketSpec("delta"), g)
        w.evolve("ising", ham, psi0, 0.5, 20)
        assert forks == []

    def test_without_fork_blocks_run_in_turn(self, monkeypatch):
        ham, pp, systems = block_model(4)
        psi0_map = w.to_mapped_basis(w.initial_wavepacket(
            w.WavepacketSpec("delta"), ham.grid), pp)
        forked = dynamics._circuit_evolve(*systems, psi0_map, pp, 0.5, 20)
        monkeypatch.delattr(os, "fork")
        assert np.array_equal(
            dynamics._circuit_evolve(*systems, psi0_map, pp, 0.5, 20), forked)

    def test_other_thread_blocks_run_in_turn(self, forks):
        # a forked child would inherit the locks another thread holds
        ham, pp, systems = block_model(4)
        psi0_map = w.to_mapped_basis(w.initial_wavepacket(
            w.WavepacketSpec("gaussian", mu=0.0, sigma=0.1), ham.grid), pp)
        forked = dynamics._circuit_evolve(*systems, psi0_map, pp, 0.5, 20)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            in_turn = dynamics._circuit_evolve(*systems, psi0_map, pp, 0.5, 20)
        finally:
            stop.set()
            thread.join()
        assert len(forks) == 1
        assert np.array_equal(in_turn, forked)

    def test_worker_exception_is_raised_here(self, monkeypatch, forks):
        def corrupted(u):
            # drops each circuit's first gate, its first leaf's Rz(delta)
            tree = w.qsd_compile(u)
            tree.delta[:, 0] = 0
            return tree
        monkeypatch.setattr(dynamics, "qsd_compile",
                            in_worker_only(corrupted, w.qsd_compile))
        ham, pp, systems = block_model(4)
        psi0_map = w.to_mapped_basis(w.initial_wavepacket(
            w.WavepacketSpec("delta"), ham.grid), pp)
        with pytest.raises(w.NumericalError, match="exact block evolution"):
            dynamics._circuit_evolve(*systems, psi0_map, pp, 0.5, 20)
        with pytest.raises(ChildProcessError):
            os.waitpid(forks[0], os.WNOHANG)

    def test_unpicklable_exception_keeps_its_message(self, monkeypatch):
        class Local(Exception):
            pass

        def fails(*args):
            raise Local("from the odd block")
        monkeypatch.setattr(dynamics, "_compiled_evolve",
                            in_worker_only(fails, dynamics._compiled_evolve))
        ham, pp, systems = block_model(3)
        psi0_map = np.ones(8) / np.sqrt(8)
        with pytest.raises(RuntimeError, match="Local: from the odd block"):
            dynamics._circuit_evolve(*systems, psi0_map, pp, 0.5, 5)

    def test_dead_worker_raises_instead_of_hanging(self, monkeypatch, forks):
        def dies(*args):
            os._exit(1)
        monkeypatch.setattr(dynamics, "_compiled_evolve",
                            in_worker_only(dies, dynamics._compiled_evolve))
        ham, pp, systems = block_model(4)
        psi0_map = w.to_mapped_basis(w.initial_wavepacket(
            w.WavepacketSpec("delta"), ham.grid), pp)
        with pytest.raises(ChildProcessError, match="status 1 without"):
            dynamics._circuit_evolve(*systems, psi0_map, pp, 0.5, 20)
        with pytest.raises(ChildProcessError):
            os.waitpid(forks[0], os.WNOHANG)

    def test_worker_killed_when_even_block_fails(self, monkeypatch, forks):
        # 2,000 steps keep the worker busy for seconds: it is killed, not
        # waited for
        statuses, waitpid = [], os.waitpid

        def recording_waitpid(pid, options):
            pid, status = waitpid(pid, options)
            statuses.append(status)
            return pid, status
        monkeypatch.setattr(os, "waitpid", recording_waitpid)

        def fails(*args):
            raise FloatingPointError("even block")
        monkeypatch.setattr(dynamics, "_compiled_evolve",
                            in_worker_only(dynamics._compiled_evolve, fails))
        ham, pp, systems = block_model(6)
        psi0_map = w.to_mapped_basis(w.initial_wavepacket(
            w.WavepacketSpec("delta"), ham.grid), pp)
        with pytest.raises(FloatingPointError, match="even block"):
            dynamics._circuit_evolve(*systems, psi0_map, pp, 0.5, 2000)
        assert os.waitstatus_to_exitcode(statuses[0]) == -signal.SIGKILL
        with pytest.raises(ChildProcessError):
            os.waitpid(forks[0], os.WNOHANG)


class TestCouplingGuard:
    '''The spin-block and circuit routes drop the coupling between the
    parity blocks, so the library refuses them on an asymmetric surface.'''

    def tilted(self):
        g = w.build_grid(3, 0.66)
        pot = w.eval_potential(g, {"kind": "polynomial",
                                   "coefficients": [0, 0.01, 0.5]})
        ham = w.build_hamiltonian(g, pot)
        psi0 = w.initial_wavepacket(w.WavepacketSpec("delta"), g)
        return ham, psi0

    @pytest.mark.parametrize("method",
                             ["circuit-exact", "circuit-shots", "ising"])
    def test_refused_by_default_and_run_with_force(self, method):
        ham, psi0 = self.tilted()
        shots = dict(shots=100, seed=1) if method == "circuit-shots" else {}
        with pytest.raises(w.BrokenSymmetryError, match="coupled"):
            w.evolve(method, ham, psi0, 0.25, 20,
                     blocks=w.block_transform(ham))
        with pytest.raises(w.BrokenSymmetryError, match="coupled"):
            w.propagate(method, ham, psi0, 0.25, 20, **shots)
        traj = w.propagate(method, ham, psi0, 0.25, 20, force=True, **shots)
        assert traj.rho.shape == (21, 8)
        assert np.allclose(traj.rho.sum(axis=1), 1.0)

    def test_threshold_ratio_is_forwarded(self):
        ham, psi0 = self.tilted()
        w.propagate("circuit-exact", ham, psi0, 0.25, 5, threshold_ratio=1.0)

    def test_classical_route_unchecked(self):
        ham, psi0 = self.tilted()
        w.evolve("classical", ham, psi0, 0.25, 5)


class TestEvolveAndDensities:
    def test_one_evolution_many_samples(self):
        g, _, ham = double_well_system(3)
        psi0 = w.initial_wavepacket(w.WavepacketSpec("delta"), g)
        evo = w.evolve("circuit-shots", ham, psi0, 0.5, 20,
                       eig=w.eigensystem(ham, w.block_transform(ham)))
        assert evo.states.shape == evo.reference_rho.shape == (21, 8)
        assert evo.pair_cross.shape == (21, 4)
        assert not np.iscomplexobj(evo.reference_rho)
        for shots, seed in ((100, 1), (5000, 2)):
            traj = w.densities(evo, shots=shots, seed=seed)
            direct = w.propagate("circuit-shots", ham, psi0, 0.5, 20,
                                 shots=shots, seed=seed)
            assert np.array_equal(traj.rho, direct.rho)
            assert (traj.shots, traj.seed) == (shots, seed)
        with pytest.raises(ValueError, match="shot count"):
            w.densities(evo)

    @pytest.mark.parametrize("n, block_form", [(3, True), (4, False)])
    def test_shot_split_matches_reference_amplitudes(self, n, block_form):
        # the kept cross term splits the shots as the reference amplitudes
        # do through mapped_density_to_grid, in block form and through
        # the full eigensystem
        g, _, ham = double_well_system(n)
        pp = w.parity_partition(n)
        eig = w.block_eigensolve(w.block_transform(ham)) if block_form \
            else w.eigensolve(ham)
        psi0 = w.initial_wavepacket(
            w.WavepacketSpec("gaussian", mu=0.03, sigma=0.1), g)
        evo = w.evolve("circuit-shots", ham, psi0, 0.5, 12, eig=eig)
        amps = w.evolve_exact(w.eigensolve(ham), psi0, 0.5, 12)
        assert np.abs(evo.reference_rho - np.abs(amps) ** 2).max() <= 1e-13
        assert np.abs(evo.pair_cross - pair_cross(amps)).max() <= 1e-13
        traj = w.densities(evo, shots=500, seed=9)
        streams = np.random.SeedSequence(9).spawn(13)
        for s in (0, 5, 12):
            q = w.sample_shots(evo.states[s], 500, streams[s]).probabilities
            want = w.mapped_density_to_grid(q, pp, reference=amps[s])
            assert np.abs(traj.rho[s] - want).max() <= 1e-13

    def test_reference_is_classical_trajectory(self, dw3):
        g, _, ham = dw3
        psi0 = w.initial_wavepacket(w.WavepacketSpec("delta"), g)
        evo = w.evolve("classical", ham, psi0, 0.25, 30)
        assert evo.states is None
        ref = evo.reference_trajectory()
        assert ref.method == "classical"
        assert np.array_equal(
            ref.rho, w.propagate("classical", ham, psi0, 0.25, 30).rho)
        assert np.array_equal(w.densities(evo).rho, ref.rho)

    def test_cached_eigensystem_gives_same_bits(self, dw3):
        g, _, ham = dw3
        psi0 = w.initial_wavepacket(w.WavepacketSpec("delta"), g)
        a = w.propagate("classical", ham, psi0, 0.25, 30)
        b = w.evolve("classical", ham, psi0, 0.25, 30,
                     eig=w.eigensystem(ham, w.block_transform(ham))
                     ).reference_trajectory()
        assert np.array_equal(a.rho, b.rho)

    @pytest.mark.parametrize("method", ["ising", "circuit-exact"])
    def test_only_circuit_shots_keeps_amplitudes(self, method):
        g, _, ham = double_well_system(3)
        psi0 = w.initial_wavepacket(w.WavepacketSpec("delta"), g)
        evo = w.evolve(method, ham, psi0, 0.5, 20)
        assert evo.states is None and evo.pair_cross is None
        assert evo.rho.shape == evo.reference_rho.shape == (21, 8)
        traj = w.densities(evo)
        assert traj.method == method and traj.rho is evo.rho

    def test_ising_density_is_exact_spin_block_evolution(self):
        # N = 5 with force: the spin blocks differ from H's, and each
        # evolves exactly on its own parity sector of the mapped basis
        n, steps = 5, 40
        g, _, ham = double_well_system(n)
        pp, bh = w.parity_partition(n), w.block_transform(ham)
        ms = w.map_system(bh, pp, force=True)
        psi0 = w.initial_wavepacket(
            w.WavepacketSpec("gaussian", mu=0.03, sigma=0.1), g)
        psi0_map = w.to_mapped_basis(psi0, pp)
        amps = np.empty((steps + 1, 2 ** n), dtype=complex)
        for states, block in ((pp.even_states, ms.block_even),
                              (pp.odd_states, ms.block_odd)):
            amps[:, states] = w.evolve_exact(w.eigensolve(block),
                                             psi0_map[states], 0.5, steps)
        want = np.abs(w.from_mapped_basis(amps, pp)) ** 2
        evo = w.evolve("ising", ham, psi0, 0.5, steps, force=True)
        assert np.abs(evo.rho - want).max() <= 1e-13


class TestProbabilityError:
    def make(self, rho, dt=0.5):
        steps = rho.shape[0] - 1
        return w.Trajectory(t_fs=dt * np.arange(steps + 1), rho=rho,
                            method="classical", dx=0.1)

    def test_identical_is_zero(self):
        rho = np.random.default_rng(0).random((10, 8))
        assert w.probability_error(self.make(rho), self.make(rho)) == 0

    def test_constant_offset(self):
        rho = np.random.default_rng(1).random((10, 8))
        err = w.probability_error(self.make(rho), self.make(rho + 0.01))
        assert err == pytest.approx(0.01, abs=1e-14)

    def test_bounded_for_densities(self):
        rng = np.random.default_rng(2)
        a = rng.random((6, 8))
        a /= a.sum(axis=1, keepdims=True)
        b = rng.random((6, 8))
        b /= b.sum(axis=1, keepdims=True)
        err = w.probability_error(self.make(a), self.make(b))
        assert 0 <= err <= 1

    def test_shape_mismatch(self):
        a = np.zeros((5, 8))
        b = np.zeros((6, 8))
        with pytest.raises(ValueError):
            w.probability_error(self.make(a), self.make(b))


class TestClassicalWorkingSet:
    def test_reference_and_spectrum_stay_within_chunk_budgets(
            self, monkeypatch):
        # N = 9, 2,000 steps.  The budgets are shrunk to 1 MiB so that a
        # chunk is far smaller than the trajectory (15.6 MiB) and its
        # density (7.8 MiB): a temporary of the whole trajectory would
        # break the bounds below.
        budget = 1 << 20
        monkeypatch.setattr(dynamics, "REFERENCE_CHUNK_BYTES", budget)
        monkeypatch.setattr(w.spectra, "SPECTRUM_CHUNK_BYTES", budget)
        g, pot, ham = double_well_system(9)
        eig = w.block_eigensolve(w.block_transform(ham))
        psi0 = w.initial_wavepacket(
            w.WavepacketSpec("gaussian", mu=0.0, sigma=0.1), g)
        steps = 2000
        tracemalloc.start()
        try:
            ref = w.evolve_exact(eig, psi0, 0.5, steps)
            evolve_extra = tracemalloc.get_traced_memory()[1] - ref.nbytes
            del ref
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            evo = w.evolve("classical", ham, psi0, 0.5, steps, eig=eig)
            traj = evo.reference_trajectory()
            density_extra = tracemalloc.get_traced_memory()[1] - base \
                - traj.rho.nbytes
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            spec = w.grid_spectrum(traj, window="hann")
            spectrum_extra = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        n_pad = len(traj.rho) * 4
        print(f"evolve_exact {evolve_extra} B, the reference density "
              f"{density_extra} B, grid_spectrum {spectrum_extra} B beyond "
              "their results")
        # a few chunks, plus the two block eigenvector matrices' size for
        # the O(4^N) terms: the 2^N eigenvector matrix is never built
        blocks = eig.plus.states.nbytes + eig.minus.states.nbytes
        assert evolve_extra <= 3 * budget + blocks
        assert density_extra <= 3 * budget + blocks
        assert 3 * budget + blocks < traj.rho.nbytes
        assert "states" not in vars(eig)
        # a few chunks, plus O(n_pad) sums and axes
        assert spectrum_extra <= 2 * budget + 64 * n_pad
        assert 2 * budget + 64 * n_pad < traj.rho.nbytes
        assert len(spec.peaks) >= 1


class TestRouteDensityWorkingSet:
    def test_mapped_density_in_chunks(self, monkeypatch):
        # circuit-exact densities of 16,001 steps at N = 6: the amplitudes
        # are 15.6 MiB and the density 7.8 MiB, against a 1 MiB chunk
        budget = 1 << 20
        monkeypatch.setattr(dynamics, "REFERENCE_CHUNK_BYTES", budget)
        pp = w.parity_partition(6)
        rng = np.random.default_rng(31)
        steps = 16000
        states = rng.normal(size=(steps + 1, 64)) \
            + 1j * rng.normal(size=(steps + 1, 64))
        tracemalloc.start()
        try:
            rho = dynamics._mapped_density(states, pp)
            extra = tracemalloc.get_traced_memory()[1] - rho.nbytes
        finally:
            tracemalloc.stop()
        print(f"_mapped_density {extra} B beyond the density")
        assert extra <= 3 * budget
        assert 3 * budget < rho.nbytes
        want = np.abs(w.from_mapped_basis(states, pp)) ** 2
        assert np.abs(rho - want).max() <= 1e-14 * want.max()

    def test_ising_keeps_no_complex_trajectory(self, monkeypatch):
        # N = 6, 4,000 steps against a 64 KiB chunk: the route's complex
        # trajectory would be 3.9 MiB, each density 2.0 MiB
        budget = 1 << 16
        monkeypatch.setattr(dynamics, "REFERENCE_CHUNK_BYTES", budget)
        g, _, ham = double_well_system(6)
        psi0 = w.initial_wavepacket(
            w.WavepacketSpec("gaussian", mu=0.0, sigma=0.1), g)
        steps = 4000
        trajectory = (steps + 1) * 2 ** 6 * 16
        tracemalloc.start()
        try:
            evo = w.evolve("ising", ham, psi0, 0.5, steps)
            extra = tracemalloc.get_traced_memory()[1] \
                - evo.reference_rho.nbytes - evo.rho.nbytes
        finally:
            tracemalloc.stop()
        print(f"evolve('ising') {extra} B beyond its two densities")
        assert extra < trajectory

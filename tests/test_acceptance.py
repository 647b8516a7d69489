'''End-to-end acceptance suite.

Each criterion prints one PASS/FAIL line (run pytest with -rA to see the
lines for passing tests as well).  Criterion 4's magnitude brackets are
asserted as stated even though the sampling-noise floor of the density
error metric makes some of them unreachable; see the slope test for the
scaling law that does hold, and the floor test for the magnitudes.
'''

import time

import numpy as np
import pytest
from scipy.stats import unitary_group

import wavecirc as w
from wavecirc import units
from wavecirc.dynamics import _circuit_evolve, evolve_exact
from wavecirc.sim import circuit_matrix

from conftest import block_systems, double_well_system, pair_cross


def report(name, ok, detail):
    print(f"CRITERION {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def model_system(n):
    g, pot, ham = double_well_system(n)
    pp = w.parity_partition(n)
    bh = w.block_transform(ham)
    return g, ham, pp, bh


def psi_gaussian(g):
    return w.initial_wavepacket(
        w.WavepacketSpec("gaussian", mu=0.0, sigma=0.1), g)


class TestCriterion1MapExactness:
    def test_three_qubit_ising_vs_classical(self):
        t0 = time.perf_counter()
        g, ham, pp, bh = model_system(3)
        psi0 = psi_gaussian(g)
        steps = 4000   # 1000 fs at dt = 0.25 fs
        tc = w.propagate("classical", ham, psi0, 0.25, steps)
        ti = w.propagate("ising", ham, psi0, 0.25, steps)
        eps = w.probability_error(ti, tc)
        el = time.perf_counter() - t0
        ok = eps <= 1e-10 and el < 5
        assert report("1 3-qubit map exactness", ok,
                      f"epsilon={eps:.3e} <= 1e-10, {el:.1f} s < 5 s")


class TestCriterion2GateCountLaw:
    def test_cnot_counts_exact(self):
        t0 = time.perf_counter()
        expected = [0, 6, 36, 168, 720, 2976, 12096]
        got = []
        rng = np.random.default_rng(0)
        for n in range(1, 8):
            u = unitary_group.rvs(2 ** n, random_state=rng)
            got.append(w.qsd_compile(u).cnot_count())
        el = time.perf_counter() - t0
        ok = got == expected and el < 60
        assert report("2 QSD gate-count law", ok,
                      f"counts={got}, {el:.1f} s < 60 s")


class TestCriterion3QsdReconstruction:
    def test_random_unitaries(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(1)
        worst = 0.0
        for n in range(1, 6):
            for _ in range(200):
                u = unitary_group.rvs(2 ** n, random_state=rng)
                err = np.abs(circuit_matrix(w.qsd_compile(u)) - u).max()
                worst = max(worst, err)
        el = time.perf_counter() - t0
        ok = worst <= 1e-9 and el < 120
        assert report("3 QSD reconstruction", ok,
                      f"max error={worst:.3e} <= 1e-9 over 1000 unitaries, "
                      f"{el:.1f} s < 2 min")


SHOT_COUNTS = (10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6)
N_SEEDS = 20


@pytest.fixture(scope="module")
def shot_sweep():
    '''Median circuit-shots epsilon per (N, shots) over 20 seeds.

    The compiled mapped-basis states are computed once per N; the shot
    resamplings reuse them, which is statistically identical to rerunning
    the full pipeline per seed.
    '''
    t0 = time.perf_counter()
    steps, dt = 60, 0.25
    medians = {}
    for n in range(3, 8):
        g, ham, pp, bh = model_system(n)
        psi0 = psi_gaussian(g)
        psi0_map = w.to_mapped_basis(psi0, pp)
        states = _circuit_evolve(*block_systems(bh), psi0_map, pp, dt,
                                 steps)
        ref = evolve_exact(ham, psi0, dt, steps)
        rho_c = np.abs(ref) ** 2
        cross = pair_cross(ref)
        for shots in SHOT_COUNTS:
            eps = []
            for seed in range(N_SEEDS):
                rho_q = w.shot_density_trajectory(states, cross, pp,
                                                  shots, seed)
                eps.append(float(np.mean(np.abs(rho_q - rho_c))))
            medians[(n, shots)] = float(np.median(eps))
    return medians, time.perf_counter() - t0


class TestCriterion4ShotError:
    def test_magnitude_brackets(self, shot_sweep):
        medians, el = shot_sweep
        lines = []
        ok = el < 900
        for n in range(3, 8):
            lo = medians[(n, 10 ** 3)]
            hi = medians[(n, 10 ** 6)]
            in_lo = 1e-4 <= lo <= 1e-3
            in_hi = 1e-6 <= hi <= 5e-5
            ok = ok and in_lo and in_hi
            lines.append(f"N={n}: eps(1e3)={lo:.2e}"
                         f"{'' if in_lo else '!'} "
                         f"eps(1e6)={hi:.2e}{'' if in_hi else '!'}")
        assert report("4a shot-error magnitudes", ok,
                      "; ".join(lines) + f"; {el:.0f} s < 15 min")

    def test_log_log_slope(self, shot_sweep):
        medians, el = shot_sweep
        slopes = []
        for n in range(3, 8):
            y = np.log10([medians[(n, s)] for s in SHOT_COUNTS])
            x = np.log10(SHOT_COUNTS)
            slopes.append(np.polyfit(x, y, 1)[0])
        ok = all(abs(s + 0.5) <= 0.1 for s in slopes) and el < 900
        detail = ", ".join(f"N={n}: {s:+.3f}"
                           for n, s in zip(range(3, 8), slopes))
        assert report("4b shot-error scaling slope", ok,
                      detail + f" (want -0.5 +/- 0.1); {el:.0f} s < 15 min")

    def test_medians_on_multinomial_floor(self, shot_sweep):
        '''Why 4a cannot pass: every median equals the analytic floor of
        the metric under multinomial sampling, which lies above the 4a
        brackets.  A mirror pair's grid error is (qp_hat + qm_hat)/2 minus
        its exact value, with variance (qp(1-qp) + qm(1-qm) - 2 qp qm)/(4S);
        its mean absolute value is sqrt(2/pi) times the standard deviation,
        averaged over mirror pairs and steps.'''
        medians, el = shot_sweep
        steps, dt = 60, 0.25    # as in shot_sweep
        worst = 0.0
        lines = []
        for n in range(3, 8):
            g, ham, pp, bh = model_system(n)
            # exact evolution under the two blocks, in the mapped basis
            q = np.abs(w.to_mapped_basis(evolve_exact(
                w.block_eigensolve(bh), psi_gaussian(g), dt, steps), pp)) ** 2
            i = np.arange(pp.half)
            qp = q[:, pp.order[i]]
            qm = q[:, pp.order[2 * pp.half - 1 - i]]
            var = qp * (1 - qp) + qm * (1 - qm) - 2 * qp * qm
            for shots in SHOT_COUNTS:
                sd = np.sqrt(var / (4 * shots))
                floor = np.sqrt(2 / np.pi) * np.mean(sd)
                worst = max(worst, abs(medians[(n, shots)] / floor - 1))
                if shots in (10 ** 3, 10 ** 6):
                    lines.append(f"N={n} S={shots:.0e}: "
                                 f"{medians[(n, shots)]:.2e} vs {floor:.2e}")
        ok = worst <= 0.1
        assert report("4c shot-error multinomial floor", ok,
                      "; ".join(lines)
                      + f"; worst relative gap={worst:.3f} <= 0.1")


class TestCriterion5SpectralFidelity:
    def test_first_three_peaks_and_shot_stability(self):
        t0 = time.perf_counter()
        g, ham, pp, bh = model_system(6)
        eig = w.eigensolve(ham)
        psi0 = psi_gaussian(g)

        # exact-dynamics spectrum: T = 2000 fs at dt = 0.5 fs
        tc = w.propagate("classical", ham, psi0, 0.5, 4000)
        spec = w.grid_spectrum(tc, window="hann")
        rows = w.compare_eigendiffs(spec, eig)[:3]
        half_bin = spec.bin_cm1 / 2
        kcal_cm1 = units.hartree_to_cm1(units.kcalmol_to_hartree(1.0))
        tol = min(half_bin, kcal_cm1)
        errs = [r["error_cm1"] for r in rows]
        ok_exact = len(rows) == 3 and max(errs) <= tol

        # shot mode: same T with dt = 1.0 fs, 1000 shots per step
        psi0_map = w.to_mapped_basis(psi0, pp)
        states = _circuit_evolve(*block_systems(bh), psi0_map, pp, 1.0,
                                 2000)
        ref = evolve_exact(ham, psi0, 1.0, 2000)
        rho_q = w.shot_density_trajectory(states, pair_cross(ref), pp, 1000,
                                          0)
        tq = w.Trajectory(t_fs=1.0 * np.arange(2001), rho=rho_q,
                          method="circuit-shots", dx=g.dx, shots=1000, seed=0)
        t_ref = w.propagate("classical", ham, psi0, 1.0, 2000)
        spec_q = w.grid_spectrum(tq, window="hann")
        spec_r = w.grid_spectrum(t_ref, window="hann")
        shifts = []
        qpos = np.array([p[0] for p in spec_q.peaks])
        for pos, _ in spec_r.peaks[:3]:
            shifts.append(float(np.abs(qpos - pos).min()))
        ok_shot = len(shifts) == 3 and max(shifts) <= spec_q.bin_cm1
        el = time.perf_counter() - t0
        ok = ok_exact and ok_shot and el < 300
        assert report(
            "5 spectral fidelity", ok,
            f"peak errors (cm^-1)={[f'{e:.3f}' for e in errs]} <= {tol:.2f}; "
            f"shot peak shifts={[f'{s:.3f}' for s in shifts]} <= "
            f"{spec_q.bin_cm1:.2f}; {el:.0f} s < 5 min")


class TestCriterion6DafAccuracy:
    def test_harmonic_and_free_particle(self):
        t0 = time.perf_counter()
        # harmonic ladder on a 128-point grid
        m = units.PROTON_MASS
        g = w.build_grid(7, 1.0, mass=m)
        lb = units.angstrom_to_bohr(g.length)
        omega = 20 / (m * (lb / 2) ** 2)
        k_ang = m * omega ** 2 / units.BOHR_ANGSTROM ** 2
        pot = w.eval_potential(g, {"kind": "harmonic", "k": k_ang})
        eig = w.eigensolve(w.build_hamiltonian(g, pot))
        exact = omega * (np.arange(4) + 0.5)
        harm_err = float(np.abs(eig.energies[:4] / exact - 1).max())

        # free particle: periodic minimum-image kernel vs FFT kinetic
        n, dx = 128, units.angstrom_to_bohr(0.05)
        j = np.arange(n)
        d = ((j[:, None] - j[None, :] + n // 2) % n - n // 2) * dx
        kmat = w.daf_kernel(d, m, 20, 1.5 * dx) * dx
        ev = np.sort(np.linalg.eigvalsh(kmat))
        kk = 2 * np.pi * np.fft.fftfreq(n, dx)
        fft_ev = np.sort(kk ** 2 / (2 * m))
        low = slice(1, n // 4)
        free_err = float(np.abs(ev[low] / fft_ev[low] - 1).max())
        el = time.perf_counter() - t0
        ok = harm_err <= 1e-3 and free_err <= 1e-3 and el < 10
        assert report("6 DAF kinetic accuracy", ok,
                      f"harmonic rel err={harm_err:.2e} <= 1e-3, "
                      f"free-particle rel err={free_err:.2e} <= 1e-3, "
                      f"{el:.1f} s < 10 s")


class TestCriterion7BlockStructure:
    def test_coupling_norms(self):
        t0 = time.perf_counter()
        worst_sym = 0.0
        for n in range(1, 8):
            g, pot, ham = double_well_system(n)
            bh = w.block_transform(ham)
            worst_sym = max(worst_sym, bh.coupling_norm
                            / np.linalg.norm(ham.matrix))
        # perturbed surface: coupling norm equals the l2 norm of the
        # antisymmetric potential component
        g, pot, ham = double_well_system(5)
        rng = np.random.default_rng(2)
        tilt = 1e-3 * rng.normal(size=32)
        v = pot + tilt
        ham2 = w.assemble_hamiltonian(w.daf_kinetic(g), v, g)
        bh2 = w.block_transform(ham2)
        anti = 0.5 * (v - v[::-1])
        gap = abs(bh2.coupling_norm - np.linalg.norm(anti))
        el = time.perf_counter() - t0
        ok = worst_sym <= 1e-12 and gap <= 1e-12 and el < 5
        assert report("7 block structure", ok,
                      f"max symmetric coupling ratio={worst_sym:.2e} <= "
                      f"1e-12, antisymmetric-norm gap={gap:.2e} <= 1e-12, "
                      f"{el:.1f} s < 5 s")

import numpy as np
import pytest

import wavecirc as w
from wavecirc import spectra, units

from conftest import double_well_system


def harmonic_system(n=6):
    m = units.PROTON_MASS
    g = w.build_grid(n, 1.0, mass=m)
    lb = units.angstrom_to_bohr(g.length)
    omega = 20 / (m * (lb / 2) ** 2)
    k_ang = m * omega ** 2 / units.BOHR_ANGSTROM ** 2
    pot = w.eval_potential(g, {"kind": "harmonic", "k": k_ang})
    ham = w.build_hamiltonian(g, pot)
    return g, ham, omega


def rfft_power(traj, window=None, padding=4):
    '''One real transform per column, as the reference: (omega, power).'''
    rho = traj.rho
    y = rho - rho.mean(axis=0)
    if window == "hann":
        y = y * np.hanning(len(rho))[:, None]
    n_pad = len(rho) * padding
    power = np.sum(np.abs(np.fft.rfft(y, n=n_pad, axis=0)) ** 2, axis=1)
    omega_au = 2 * np.pi * np.fft.rfftfreq(
        n_pad, units.fs_to_au(traj.t_fs[1] - traj.t_fs[0]))
    return units.hartree_to_cm1(omega_au), power * traj.dx


class TestPackedTransform:
    '''Two columns per complex FFT at a fast length, in chunks, then the
    summed autocorrelation to the padded length, against one real FFT
    per column at the padded length.'''

    # padding 1: n_pad = L < 2L - 1, so the lags fold onto each other;
    # 101, 127 and 257 are prime
    @pytest.mark.parametrize("n_cols", [1, 2, 7, 8, 33])
    @pytest.mark.parametrize("n_steps", [64, 101, 127, 256, 257])
    @pytest.mark.parametrize("padding", [1, 2, 3, 4])
    def test_matches_per_column_rfft(self, n_cols, n_steps, padding,
                                     monkeypatch):
        # a budget of three pairs: several chunks, the last one partial
        m = spectra._fast_len(2 * n_steps - 1)
        monkeypatch.setattr(spectra, "SPECTRUM_CHUNK_BYTES", 3 * 32 * m)
        rng = np.random.default_rng(n_cols * 1000 + n_steps + padding)
        rho = rng.random((n_steps, n_cols))
        traj = w.Trajectory(t_fs=0.5 * np.arange(n_steps), rho=rho,
                            method="classical", dx=0.05)
        for window in (None, "hann"):
            spec = w.grid_spectrum(traj, window=window, padding=padding)
            omega, power = rfft_power(traj, window, padding)
            assert np.array_equal(spec.omega_cm1, omega)
            assert np.abs(spec.power - power).max() <= 1e-12 * power.max()

    def test_fast_len(self):
        def smooth(n):
            for p in (2, 3, 5):
                while n % p == 0:
                    n //= p
            return n == 1
        smooth_lengths = [n for n in range(1, 2200) if smooth(n)]
        for n in range(1, 2000):
            assert spectra._fast_len(n) == min(
                k for k in smooth_lengths if k >= n)
        # 2L - 1 at the 4,001 samples of a 4,000-step spectrum
        assert spectra._fast_len(8001) == 8100

    @staticmethod
    def assert_same_peaks(traj, window, padding):
        spec = w.grid_spectrum(traj, window=window, padding=padding)
        omega, power = rfft_power(traj, window, padding)
        assert np.abs(spec.power - power).max() <= 1e-12 * power.max()
        # the transforms differ, so the peaks agree to round-off
        want = spectra._find_peaks(omega, power, 1e-3)
        assert len(spec.peaks) == len(want) >= 1
        for (pos, height), (pos_ref, height_ref) in zip(spec.peaks, want):
            assert pos == pytest.approx(pos_ref, rel=1e-10)
            assert height == pytest.approx(height_ref, rel=1e-10)

    @pytest.mark.parametrize("steps, window, padding", [
        (2048, "hann", 4), (512, None, 1), (512, None, 4), (256, None, 1)])
    def test_peaks_of_superpositions(self, dw3, steps, window, padding):
        # the inputs of the grid-spectrum tests below: 257, 513 and 2049
        # time points, 257 prime
        _, _, ham = dw3
        eig = w.eigensolve(ham)
        for a, b in ((0, 1), (0, 2)):
            psi0 = (eig.states[:, a] + eig.states[:, b]) / np.sqrt(2)
            traj = w.propagate("classical", ham, psi0, 0.25, steps)
            self.assert_same_peaks(traj, window, padding)

    def test_peaks_of_harmonic_wavepacket(self):
        g, ham, omega = harmonic_system(6)
        psi0 = w.initial_wavepacket(
            w.WavepacketSpec("gaussian", mu=0.08, sigma=0.08), g)
        dt = 2 * np.pi / omega / units.FS_AU / 40
        traj = w.propagate("classical", ham, psi0, dt, 4000)
        self.assert_same_peaks(traj, "hann", 4)


class TestGridSpectrum:
    def test_stationary_state_has_no_peaks(self, dw3):
        g, _, ham = dw3
        eig = w.eigensolve(ham)
        traj = w.propagate("classical", ham, eig.states[:, 0], 0.5, 256)
        spec = w.grid_spectrum(traj)
        assert spec.peaks == ()
        assert spec.zero_weight > 0

    # the inputs of test_stationary_state_has_no_peaks and of
    # test_two_state_superposition_single_peak
    @pytest.mark.parametrize("superposed, window, dt, steps", [
        ((0,), None, 0.5, 256), ((0, 1), "hann", 0.25, 2048)],
        ids=["stationary", "two-state-hann"])
    def test_power_not_negative(self, dw3, superposed, window, dt, steps):
        # a sum of squares; the inverse route leaves round-off of either
        # sign where the power is near 0 (on the Hann-windowed pair, 1,042
        # of 4,099 bins before the clip at 0)
        g, _, ham = dw3
        eig = w.eigensolve(ham)
        psi0 = eig.states[:, superposed].sum(axis=1)
        psi0 /= np.linalg.norm(psi0)
        traj = w.propagate("classical", ham, psi0, dt, steps)
        assert w.grid_spectrum(traj, window=window).power.min() >= 0

    def test_two_state_superposition_single_peak(self, dw3):
        g, _, ham = dw3
        eig = w.eigensolve(ham)
        psi0 = (eig.states[:, 0] + eig.states[:, 1]) / np.sqrt(2)
        traj = w.propagate("classical", ham, psi0, 0.25, 2048)
        spec = w.grid_spectrum(traj, window="hann")
        gap = units.hartree_to_cm1(eig.energies[1] - eig.energies[0])
        assert len(spec.peaks) == 1
        assert abs(spec.peaks[0][0] - gap) <= spec.bin_cm1

    def test_harmonic_peaks_at_integer_multiples(self):
        g, ham, omega = harmonic_system(6)
        psi0 = w.initial_wavepacket(
            w.WavepacketSpec("gaussian", mu=0.08, sigma=0.08), g)
        period_fs = 2 * np.pi / omega / units.FS_AU
        dt = period_fs / 40
        traj = w.propagate("classical", ham, psi0, dt, 4000)
        spec = w.grid_spectrum(traj, window="hann")
        base = units.hartree_to_cm1(omega)
        assert len(spec.peaks) >= 3
        for pos, _ in spec.peaks[:4]:
            mult = pos / base
            assert abs(mult - round(mult)) * base <= spec.bin_cm1

    def test_padding_refines_axis_not_binwidth(self, dw3):
        g, _, ham = dw3
        eig = w.eigensolve(ham)
        psi0 = (eig.states[:, 0] + eig.states[:, 1]) / np.sqrt(2)
        traj = w.propagate("classical", ham, psi0, 0.25, 512)
        s1 = w.grid_spectrum(traj, padding=1)
        s4 = w.grid_spectrum(traj, padding=4)
        assert s1.bin_cm1 == pytest.approx(s4.bin_cm1)
        assert len(s4.omega_cm1) > len(s1.omega_cm1)

    def test_parseval(self, dw3):
        # rfft with real input: sum of two-sided powers equals n * time-
        # domain energy; reconstruct the two-sided sum by doubling the
        # interior one-sided bins
        g, _, ham = dw3
        eig = w.eigensolve(ham)
        psi0 = (eig.states[:, 0] + eig.states[:, 2]) / np.sqrt(2)
        traj = w.propagate("classical", ham, psi0, 0.25, 256)
        spec = w.grid_spectrum(traj, padding=1)
        n = traj.rho.shape[0]
        y = traj.rho - traj.rho.mean(axis=0)
        time_energy = np.sum(y ** 2) * traj.dx
        p = spec.power.copy()
        interior = slice(1, -1 if n % 2 == 0 else None)
        two_sided = p.sum() + p[interior].sum()
        assert two_sided == pytest.approx(n * time_energy, rel=1e-10)

    def test_rejects_short_or_nonuniform(self, dw3):
        g, _, ham = dw3
        psi0 = np.zeros(8)
        psi0[0] = 1.0
        short = w.propagate("classical", ham, psi0, 0.5, 32)
        with pytest.raises(ValueError, match="64"):
            w.grid_spectrum(short)
        traj = w.propagate("classical", ham, psi0, 0.5, 128)
        bad = w.Trajectory(t_fs=traj.t_fs ** 1.01, rho=traj.rho,
                           method="classical", dx=traj.dx)
        with pytest.raises(ValueError, match="non-uniform"):
            w.grid_spectrum(bad)

    def test_unknown_window(self, dw3):
        g, _, ham = dw3
        psi0 = np.zeros(8)
        psi0[0] = 1.0
        traj = w.propagate("classical", ham, psi0, 0.5, 128)
        with pytest.raises(ValueError):
            w.grid_spectrum(traj, window="hamming")


class TestAutocorrelation:
    def test_initial_value_one(self, dw3):
        g, _, ham = dw3
        psi0 = np.zeros(8)
        psi0[0] = 1.0
        states = w.evolve_exact(ham, psi0, 0.5, 100)
        corr = w.autocorrelation(states)
        assert corr[0] == pytest.approx(1.0, abs=1e-12)
        assert np.all((corr >= -1e-12) & (corr <= 1 + 1e-12))

    def test_two_state_weight_ratio(self, dw3):
        # equal superposition: C(t) oscillates at the gap with a single
        # finite-frequency line; its weight relative to the spectrum total
        # must be 1 within 5%
        g, _, ham = dw3
        eig = w.eigensolve(ham)
        psi0 = (eig.states[:, 0] + eig.states[:, 1]) / np.sqrt(2)
        states = w.evolve_exact(eig, psi0, 0.25, 2048)
        spec = w.autocorrelation_spectrum(states, 0.25, window="hann")
        assert len(spec.peaks) == 1
        # integrate over the peak neighbourhood vs total finite-freq power
        k = np.argmin(np.abs(spec.omega_cm1 - spec.peaks[0][0]))
        lo, hi = max(k - 16, 0), k + 17
        ratio = spec.power[lo:hi].sum() / spec.power.sum()
        assert ratio == pytest.approx(1.0, abs=0.05)

    def test_peak_positions_agree_with_grid_spectrum(self, dw3):
        g, _, ham = dw3
        eig = w.eigensolve(ham)
        psi0 = (eig.states[:, 0] + eig.states[:, 1]) / np.sqrt(2)
        states = w.evolve_exact(eig, psi0, 0.25, 2048)
        traj = w.propagate("classical", ham, psi0, 0.25, 2048)
        s1 = w.autocorrelation_spectrum(states, 0.25, window="hann")
        s2 = w.grid_spectrum(traj, window="hann")
        assert abs(s1.peaks[0][0] - s2.peaks[0][0]) <= s1.bin_cm1 / 2

    @staticmethod
    def amplitudes(dw3, steps):
        _, _, ham = dw3
        eig = w.eigensolve(ham)
        psi0 = (eig.states[:, 0] + eig.states[:, 1] + eig.states[:, 4]) / \
            np.sqrt(3)
        return w.evolve_exact(eig, psi0, 0.25, steps)

    # 127 samples: n_pad = 127 at padding 1, where the lags fold onto
    # each other, and 4 x 127 at padding 4
    @pytest.mark.parametrize("window", [None, "hann"])
    @pytest.mark.parametrize("padding", [1, 4])
    def test_grid_spectrum_of_one_column(self, dw3, padding, window):
        # C(t) as one column of weight 1 takes grid_spectrum's path, bit
        # for bit, and its power is the per-column rfft's to round-off
        states = self.amplitudes(dw3, 126)
        spec = w.autocorrelation_spectrum(states, 0.25, window=window,
                                          padding=padding)
        traj = w.Trajectory(t_fs=0.25 * np.arange(len(states)),
                            rho=w.autocorrelation(states)[:, None],
                            method="classical", dx=1.0)
        ref = w.grid_spectrum(traj, window=window, padding=padding)
        for name in ("power", "omega_cm1", "peaks", "bin_cm1",
                     "zero_weight"):
            assert np.array_equal(getattr(spec, name), getattr(ref, name))
        assert spec.peaks
        omega, power = rfft_power(traj, window, padding)
        assert np.array_equal(spec.omega_cm1, omega)
        assert np.abs(spec.power - power).max() <= 1e-12 * power.max()

    def test_refuses_fewer_than_64_samples(self, dw3):
        states = self.amplitudes(dw3, 63)
        assert len(w.autocorrelation_spectrum(states, 0.25).power) == 129
        with pytest.raises(ValueError, match="at least 64"):
            w.autocorrelation_spectrum(states[:63], 0.25)

    def test_rejects_density_input(self, dw3):
        g, _, ham = dw3
        psi0 = np.zeros(8)
        psi0[0] = 1.0
        traj = w.propagate("classical", ham, psi0, 0.5, 128)
        with pytest.raises(ValueError):
            w.autocorrelation_spectrum(traj.rho, 0.5)


class TestEigenComparisons:
    def test_eigen_differences_positive_sorted(self, dw3):
        _, _, ham = dw3
        eig = w.eigensolve(ham)
        lines = w.eigen_differences(eig)
        assert np.all(lines > 0)
        assert np.all(np.diff(lines) > 0)

    def test_max_levels_restricts(self, dw3):
        _, _, ham = dw3
        eig = w.eigensolve(ham)
        few = w.eigen_differences(eig, max_levels=3)
        assert len(few) <= 3

    def test_compare_reports_small_error_for_true_line(self, dw3):
        g, _, ham = dw3
        eig = w.eigensolve(ham)
        psi0 = (eig.states[:, 0] + eig.states[:, 1]) / np.sqrt(2)
        traj = w.propagate("classical", ham, psi0, 0.25, 2048)
        spec = w.grid_spectrum(traj, window="hann")
        rows = w.compare_eigendiffs(spec, eig)
        assert rows[0]["error_cm1"] <= spec.bin_cm1
        kcal = units.hartree_to_kcalmol(
            units.cm1_to_hartree(rows[0]["error_cm1"]))
        assert rows[0]["error_kcalmol"] == pytest.approx(kcal)

    def test_compare_requires_peaks(self, dw3):
        _, _, ham = dw3
        eig = w.eigensolve(ham)
        spec = w.Spectrum(omega_cm1=np.arange(4.0), power=np.zeros(4),
                          peaks=(), bin_cm1=1.0)
        with pytest.raises(ValueError):
            w.compare_eigendiffs(spec, eig)

    @pytest.mark.parametrize("max_levels", [None, 7])
    def test_nearest_line_matches_difference_matrix(self, max_levels):
        # the line eigen_differences' full difference matrix gives, with
        # its tie-break (the smallest of equally near lines), on energies
        # with twofold and threefold levels and repeated gaps
        rng = np.random.default_rng(17)
        step = 2.0 ** -12
        e = np.sort(np.concatenate([
            step * np.array([0, 0, 1, 2, 2, 2, 3, 5, 8, 8]),
            rng.uniform(0, 0.01, 14)]))
        eig = w.EigenSystem(energies=e, states=None)
        lines = w.eigen_differences(eig, max_levels)
        mids = (lines[1:] + lines[:-1]) / 2
        omegas = np.concatenate([
            lines, mids, np.nextafter(mids, 0), np.nextafter(mids, np.inf),
            rng.uniform(0, 1.2 * lines[-1], 200),
            [0.0, lines[0] / 3, 2 * lines[-1]]])
        spec = w.Spectrum(omega_cm1=None, power=None,
                          peaks=tuple((float(o), 1.0) for o in omegas),
                          bin_cm1=1.0)
        rows = w.compare_eigendiffs(spec, eig, max_levels)
        ties = 0
        for omega, row in zip(omegas, rows):
            dist = np.abs(lines - omega)
            want = lines[np.argmin(dist)]
            ties += np.count_nonzero(dist == dist.min()) > 1
            assert row["nearest_cm1"] == want
            assert row["error_cm1"] == abs(omega - want)
        assert ties > 0

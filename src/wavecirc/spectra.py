'''Fourier analysis of density trajectories and autocorrelation
functions, with peak extraction against exact eigenenergy differences.

Densities oscillate at the beat frequencies (E_j - E_i)/hbar of the
populated eigenstates, so the grid-resolved spectrum and the density
autocorrelation spectrum both peak at eigenenergy differences.

Both spectra take one path, `_padded_spectrum`: the grid spectrum feeds
it the density columns, each weighted by the grid spacing, and the
autocorrelation spectrum feeds it C(t) as one column of weight 1.  It
walks the real columns in chunks of SPECTRUM_CHUNK_BYTES, so it never
holds the transform of every column at once.  The columns are
transformed at a 5-smooth length of at least 2L - 1 for L time samples,
not at the padded length, which is often a prime times the padding: the
summed power gives the summed autocorrelation without wrap-around
(Wiener-Khinchin), and one real transform of that, folded to the padded
length, gives the power at the padded bins.  The transforms are numpy's:
scipy.fft, the same pocketfft, would cost a spectrum process 0.11 s and
5 MB of resident memory more to import.
'''

from dataclasses import dataclass

import numpy as np

from . import givens, units
from .lapack import _parity_processes


@dataclass(frozen=True)
class Spectrum:
    '''One-sided spectrum with extracted peaks.

    omega_cm1: frequency axis in cm^-1; power: scalar intensity;
    peaks: list of (omega_cm1, intensity) sorted by frequency;
    bin_cm1: unpadded frequency resolution; zero_weight: the removed
    static (zero-frequency) weight.
    '''
    omega_cm1: np.ndarray
    power: np.ndarray
    peaks: tuple
    bin_cm1: float
    zero_weight: float = 0.0


def _find_peaks(omega, power, threshold):
    '''Local maxima above threshold*max with parabolic refinement.'''
    if len(power) < 3 or power.max() <= 0:
        return ()
    cut = threshold * power.max()
    peaks = []
    for k in range(1, len(power) - 1):
        if power[k] > cut and power[k] >= power[k - 1] \
                and power[k] > power[k + 1]:
            y0, y1, y2 = power[k - 1], power[k], power[k + 1]
            denom = y0 - 2 * y1 + y2
            shift = 0.5 * (y0 - y2) / denom if denom != 0 else 0.0
            step = omega[1] - omega[0]
            peaks.append((float(omega[k] + shift * step), float(y1)))
    return tuple(peaks)


# fewest time samples (steps + 1) a spectrum is taken from
MIN_SAMPLES = 64

# Byte budget of one chunk of zero-padded columns and its real transform,
# 16 bytes per column and sample of M: 8 MiB is 64 columns at M = 8,100
# for 4,001 time samples.
SPECTRUM_CHUNK_BYTES = 1 << 23


def _fast_len(n):
    '''The smallest 5-smooth length >= n, which pocketfft transforms
    without Bluestein's algorithm.'''
    while True:
        k = n
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        if k == 1:
            return n
        n += 1


def _padded_spectrum(t_fs, y, dx, window, padding, threshold):
    '''The Spectrum of the real columns of `y` (time along axis 0, at
    the uniform times t_fs), each weighted by dx.

    The time mean of each column is removed before the transform so
    finite-frequency peaks are not swamped by the static component (the
    removed zero-frequency weight is reported separately).  The scalar
    intensity is P(omega) = sum_i |I(omega; y_i)|^2 * dx, at the bins of
    the zero-padded length n_pad = padding * L for L time samples.

    Each column is zero-padded to M = _fast_len(2L - 1) and transformed
    by a real FFT.  The power summed over the columns has as its inverse
    transform the summed linear autocorrelation r(tau) at the lags
    -(L-1)..(L-1), with no wrap-around since M >= 2L - 1.  The lags
    folded modulo n_pad (which overlaps them only at padding 1) and
    transformed at n_pad give the same DFT-bin power as transforming each
    column at n_pad, to round-off.  That round-off is absolute, up to
    about 1e-15 of the largest bin, where the per-column transforms'
    was relative to each bin: bins below about 1e-15 * max are
    round-off, and those it leaves negative are written as 0, so the
    far tail of the power is no signal on a log scale.
    Columns go in chunks of SPECTRUM_CHUNK_BYTES of padded columns and
    their transforms; from 2 givens.FORK_MIN_DIM columns and two chunks,
    by column halves in two processes (`lapack._parity_processes`).
    '''
    n_steps, n_cols = y.shape
    if n_steps < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} time steps")
    dts = np.diff(t_fs)
    if np.abs(dts - dts[0]).max() > 1e-9 * dts[0]:
        raise ValueError("non-uniform time axis")
    dt = dts[0]
    mean = y.mean(axis=0)
    zero_weight = float(np.sum(mean ** 2) * dx)
    if window == "hann":
        taper = np.hanning(n_steps)[:, None]
    elif window in (None, "none"):
        taper = 1.0
    else:
        raise ValueError(f"unknown window {window!r}")
    n_pad = n_steps * padding
    m = _fast_len(2 * n_steps - 1)
    width = min(n_cols, max(1, SPECTRUM_CHUNK_BYTES // (16 * m)))
    starts = range(0, n_cols, width)
    z = np.zeros((width, m))          # zero past the L samples

    def chunk_power(a):     # the summed power of the chunk of columns at a
        cols = slice(a, min(a + width, n_cols))
        chunk = z[:cols.stop - a]
        chunk[:, :n_steps] = ((y[:, cols] - mean[cols]) * taper).T
        f = np.fft.rfft(chunk, axis=1).view(float)
        return np.einsum("ij,ij->j", f, f).reshape(-1, 2).sum(axis=1)

    sums = map(chunk_power, starts)
    if n_cols >= 2 * givens.FORK_MIN_DIM and len(starts) >= 2:
        half = (len(starts) + 1) // 2
        first, rest = _parity_processes(
            lambda: list(map(chunk_power, starts[:half])),
            lambda: list(map(chunk_power, starts[half:])))
        sums = first + rest
    total = np.zeros(m // 2 + 1)
    for s in sums:          # in chunk order, however they were computed
        total += s
    # the summed autocorrelation, lags 0..L-1 at the front and
    # -(L-1)..-1 at the back
    acf = np.fft.irfft(total, n=m)
    # lag tau at index tau mod n_pad, added where padding 1 overlaps them
    folded = np.zeros(n_pad)
    folded[:n_steps] = acf[:n_steps]
    folded[n_pad - n_steps + 1:] += acf[m - n_steps + 1:]
    power = np.maximum(np.fft.rfft(folded).real, 0)
    power *= dx
    omega = units.hartree_to_cm1(
        2 * np.pi * np.fft.rfftfreq(n_pad, units.fs_to_au(dt)))
    # a stationary signal leaves only roundoff at finite frequency;
    # suppress peak extraction when the power is negligible against the
    # static (zero-frequency) weight
    floor = 1e-24 * n_pad ** 2 * zero_weight
    peaks = _find_peaks(omega, power, threshold) \
        if power.max() > floor else ()
    bin_cm1 = units.hartree_to_cm1(
        2 * np.pi / units.fs_to_au(n_steps * dt))
    return Spectrum(omega_cm1=omega, power=power, peaks=peaks,
                    bin_cm1=bin_cm1, zero_weight=zero_weight)


def grid_spectrum(traj, window=None, padding=4, threshold=1e-3):
    '''Per-grid-point Fourier transform of the density trajectory:
    the Spectrum of the density columns rho(x_i, t), each weighted by the
    grid spacing (see _padded_spectrum).'''
    return _padded_spectrum(traj.t_fs, np.asarray(traj.rho), traj.dx,
                            window, padding, threshold)


def autocorrelation(states):
    '''C(t_s) = |<psi(0)|psi(t_s)>|^2 for an amplitude trajectory.'''
    states = np.asarray(states)
    overlaps = states @ states[0].conj()
    return np.abs(overlaps) ** 2


def autocorrelation_spectrum(states, dt_fs, window=None, padding=4,
                             threshold=1e-3):
    '''Spectrum of the density-overlap autocorrelation: that of C(t)
    as one column of weight 1, along grid_spectrum's path.

    Needs amplitudes, not shot counts: the correlation function is
    quadratic in the state, so empirical densities cannot supply it.
    '''
    states = np.asarray(states)
    if states.ndim != 2 or not np.iscomplexobj(states):
        raise ValueError("autocorrelation needs an amplitude trajectory")
    corr = autocorrelation(states)
    return _padded_spectrum(dt_fs * np.arange(len(corr)), corr[:, None],
                            1.0, window, padding, threshold)


def eigen_differences(eig, max_levels=None):
    '''All positive eigenenergy differences (E_j - E_i) in cm^-1.'''
    e = eig.energies if max_levels is None else eig.energies[:max_levels]
    diffs = e[None, :] - e[:, None]
    vals = np.unique(diffs[diffs > 0])
    return units.hartree_to_cm1(vals)


def _nearest_difference(e, omega):
    '''The positive difference e[j] - e[i] of the ascending energies `e`
    (Hartree) whose value in cm^-1 is nearest to omega, the smallest of
    equally near ones: eigen_differences' line nearest to omega, found
    without forming the differences.  Line (i, j) rises with j, so for
    every i the levels are searched for the first j whose line is
    positive and at least omega; the nearest line of row i is that one
    or the one before it.'''
    n = len(e)

    def line(j):
        return units.hartree_to_cm1(e[np.minimum(j, n - 1)] - e)

    def reaches(j):          # line (i, j) exists, is positive and >= omega
        v = line(j)
        return (j < n) & (v > 0) & (v >= omega)

    # a guess by bisection on the energies, then stepped to the exact
    # first j, since the line is rounded once more than the guess
    j = np.searchsorted(e, e + units.cm1_to_hartree(max(omega, 0.0)))
    while True:
        up = (j < n) & ~reaches(j)
        down = (j > 0) & reaches(j - 1)
        if not (up.any() or down.any()):
            break
        j = j + up - down
    cand = np.concatenate([j, j - 1])
    i = np.tile(np.arange(n), 2)
    keep = (cand >= 0) & (cand < n)
    cand, i = cand[keep], i[keep]
    vals = units.hartree_to_cm1(e[cand] - e[i])
    vals = vals[vals > 0]
    if not len(vals):
        raise ValueError("no positive eigenenergy differences")
    dist = np.abs(vals - omega)
    return vals[np.lexsort((vals, dist))[0]]


def compare_eigendiffs(spectrum, eig, max_levels=None):
    '''Match each extracted peak to the nearest eigenenergy difference
    (of eigen_differences; of equally near ones, the smallest).

    Returns a list of dicts with the peak position, the matched
    difference, and the absolute error in cm^-1 and kcal/mol.
    '''
    if not spectrum.peaks:
        raise ValueError("no peaks to compare")
    e = eig.energies if max_levels is None else eig.energies[:max_levels]
    out = []
    for omega, intensity in spectrum.peaks:
        nearest = _nearest_difference(e, omega)
        err = abs(omega - nearest)
        out.append({
            "peak_cm1": omega,
            "intensity": intensity,
            "nearest_cm1": float(nearest),
            "error_cm1": float(err),
            "error_kcalmol": units.hartree_to_kcalmol(
                units.cm1_to_hartree(err)),
        })
    return out

'''Fourier analysis of density trajectories and autocorrelation
functions, with peak extraction against exact eigenenergy differences.

Densities oscillate at the beat frequencies (E_j - E_i)/hbar of the
populated eigenstates, so the grid-resolved spectrum and the density
autocorrelation spectrum both peak at eigenenergy differences.

The grid spectrum transforms two real density columns with one complex
FFT (packed as y_a + i y_b, with the pair's powers recovered from the
bins k and -k) and walks the columns in chunks of SPECTRUM_CHUNK_BYTES,
so it never holds the transform of every column at once.
'''

from dataclasses import dataclass

import numpy as np
import scipy.fft

from . import units


@dataclass(frozen=True)
class Spectrum:
    '''One-sided spectrum with extracted peaks.

    omega_cm1: frequency axis in cm^-1; power: scalar intensity;
    peaks: list of (omega_cm1, intensity) sorted by frequency;
    bin_cm1: unpadded frequency resolution.
    '''
    omega_cm1: np.ndarray
    power: np.ndarray
    peaks: tuple
    bin_cm1: float
    window: str
    padding: int
    zero_weight: float = 0.0


def _fft_axis(n_steps, dt_fs, padding):
    n_pad = n_steps * padding
    dt_au = units.fs_to_au(dt_fs)
    omega_au = 2 * np.pi * np.fft.rfftfreq(n_pad, dt_au)
    return n_pad, units.hartree_to_cm1(omega_au)


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

# Byte budget of the padded transforms of one chunk of column pairs,
# (pairs, n_pad) complex: 8 MiB is 32 pairs at 16,004 padded steps.
SPECTRUM_CHUNK_BYTES = 1 << 23


def grid_spectrum(traj, window=None, padding=4, threshold=1e-3):
    '''Per-grid-point Fourier transform of the density trajectory.

    The time mean of each rho(x_i, t) is removed before the transform so
    finite-frequency peaks are not swamped by the static component (the
    removed zero-frequency weight is reported separately).  The scalar
    intensity is P(omega) = sum_i |I(omega; x_i)|^2 * dx.

    Columns a and a + h (h half the column count, rounded up; an odd
    count pairs its middle column with zeros) are packed into
    z = y_a + i y_b and transformed together.  For real y_a and y_b,
    |Z(k)|^2 + |Z(-k)|^2 = 2 (|Y_a(k)|^2 + |Y_b(k)|^2), so with
    S(k) = sum over pairs of |Z(k)|^2 the power is
    (S(k) + S(-k mod n_pad)) / 2 * dx.  Pairs go in chunks of
    SPECTRUM_CHUNK_BYTES of transforms.
    '''
    rho = np.asarray(traj.rho)
    n_steps, n_cols = rho.shape
    if n_steps < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} time steps")
    dt = np.diff(traj.t_fs)
    if np.abs(dt - dt[0]).max() > 1e-9 * dt[0]:
        raise ValueError("non-uniform time axis")
    mean = rho.mean(axis=0)
    zero_weight = float(np.sum(mean ** 2) * traj.dx)
    if window == "hann":
        taper = np.hanning(n_steps)[:, None]
    elif window in (None, "none"):
        taper = 1.0
    else:
        raise ValueError(f"unknown window {window!r}")
    n_pad, omega = _fft_axis(n_steps, dt[0], padding)
    half = (n_cols + 1) // 2
    pairs = min(half, max(1, SPECTRUM_CHUNK_BYTES // (16 * n_pad)))
    z = np.empty((pairs, n_pad), dtype=complex)
    total = np.zeros(n_pad)
    for a in range(0, half, pairs):
        lo = slice(a, min(a + pairs, half))
        hi = slice(lo.start + half, min(lo.stop + half, n_cols))
        chunk = z[:lo.stop - lo.start]
        chunk[:] = 0
        chunk.real[:, :n_steps] = ((rho[:, lo] - mean[lo]) * taper).T
        chunk.imag[:hi.stop - hi.start, :n_steps] = \
            ((rho[:, hi] - mean[hi]) * taper).T
        # zero-padded to n_pad, transformed in place along the rows
        f = scipy.fft.fft(chunk, axis=1, overwrite_x=True).view(float)
        total += np.einsum("ij,ij->j", f, f).reshape(-1, 2).sum(axis=1)
    k = np.arange(len(omega))
    power = 0.5 * (total[k] + total[-k % n_pad]) * traj.dx
    # a stationary density leaves only roundoff at finite frequency;
    # suppress peak extraction when the power is negligible against the
    # static (zero-frequency) weight
    floor = 1e-24 * n_pad ** 2 * zero_weight
    peaks = _find_peaks(omega, power, threshold) \
        if power.max() > floor else ()
    bin_cm1 = units.hartree_to_cm1(
        2 * np.pi / units.fs_to_au(n_steps * dt[0]))
    return Spectrum(omega_cm1=omega, power=power, peaks=peaks,
                    bin_cm1=bin_cm1, window=window or "none",
                    padding=padding, zero_weight=zero_weight)


def autocorrelation(states):
    '''C(t_s) = |<psi(0)|psi(t_s)>|^2 for an amplitude trajectory.'''
    states = np.asarray(states)
    overlaps = states @ states[0].conj()
    return np.abs(overlaps) ** 2


def autocorrelation_spectrum(states, dt_fs, window=None, padding=4,
                             threshold=1e-3):
    '''Spectrum of the density-overlap autocorrelation.

    Needs amplitudes, not shot counts: the correlation function is
    quadratic in the state, so empirical densities cannot supply it.
    '''
    states = np.asarray(states)
    if states.ndim != 2 or not np.iscomplexobj(states):
        raise ValueError("autocorrelation needs an amplitude trajectory")
    corr = autocorrelation(states)
    n_steps = len(corr)
    y = corr - corr.mean()
    zero_weight = float(corr.mean() ** 2)
    if window == "hann":
        y = y * np.hanning(n_steps)
    elif window not in (None, "none"):
        raise ValueError(f"unknown window {window!r}")
    n_pad, omega = _fft_axis(n_steps, dt_fs, padding)
    power = np.abs(np.fft.rfft(y, n=n_pad)) ** 2
    floor = 1e-24 * n_pad ** 2 * zero_weight
    peaks = _find_peaks(omega, power, threshold) \
        if power.max() > floor else ()
    bin_cm1 = units.hartree_to_cm1(2 * np.pi / units.fs_to_au(n_steps * dt_fs))
    return Spectrum(omega_cm1=omega, power=power, peaks=peaks,
                    bin_cm1=bin_cm1, window=window or "none",
                    padding=padding, zero_weight=zero_weight)


def eigen_differences(eig, max_levels=None):
    '''All positive eigenenergy differences (E_j - E_i) in cm^-1.'''
    e = eig.energies if max_levels is None else eig.energies[:max_levels]
    diffs = e[None, :] - e[:, None]
    vals = np.unique(diffs[diffs > 0])
    return units.hartree_to_cm1(vals)


def compare_eigendiffs(spectrum, eig, max_levels=None):
    '''Match each extracted peak to the nearest eigenenergy difference.

    Returns a list of dicts with the peak position, the matched
    difference, and the absolute error in cm^-1 and kcal/mol.
    '''
    if not spectrum.peaks:
        raise ValueError("no peaks to compare")
    lines = eigen_differences(eig, max_levels)
    out = []
    for omega, intensity in spectrum.peaks:
        nearest = lines[np.argmin(np.abs(lines - omega))]
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

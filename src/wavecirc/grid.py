'''Uniform grid, the potential sampled on it (a float array in Hartree),
banded kinetic-energy operator and exact diagonalization for a
one-dimensional nuclear Hamiltonian.

The kinetic energy uses the Gaussian-weighted Hermite expansion of the
free propagator (an analytic, banded, Toeplitz approximation to the
second-derivative operator on a uniform grid).

eigensolve is scipy's eigh driver (dsyevr/zheevr), called through
wavecirc.lapack, which loads scipy's LAPACK extension at the first call
without the scipy.linalg package.  A command that needs no eigenvectors
loads no scipy: `build` writes eigenvalues only (givens.eigenvalues,
numpy's eigvalsh), and `map` needs none.
'''

from dataclasses import dataclass, field

import numpy as np

from . import lapack, units
from .qsd import NumericalError


@dataclass(frozen=True)
class GridSpec:
    '''Uniform grid of 2^N points symmetric about a center point.'''
    n_qubits: int
    length: float    # Angstrom
    center: float    # Angstrom
    mass: float      # electron masses

    @property
    def n_points(self):
        return 2 ** self.n_qubits

    @property
    def dx(self):
        '''Grid spacing in Angstrom.'''
        return self.length / (self.n_points - 1)

    @property
    def points(self):
        '''Grid points in Angstrom, x_i = center - L/2 + i*dx.'''
        i = np.arange(self.n_points)
        return self.center - self.length / 2 + i * self.dx

    @property
    def points_au(self):
        '''Grid points in bohr.'''
        return units.angstrom_to_bohr(self.points)

    @property
    def dx_au(self):
        return units.angstrom_to_bohr(self.dx)


# the largest DAF order whose Hermite values stay finite
MAX_M_DAF = 266


@dataclass(frozen=True)
class DafParams:
    '''Truncation order and Gaussian width of the kinetic-energy kernel.

    sigma_ratio fixes the width as sigma = sigma_ratio * dx.
    '''
    m_daf: int = 20
    sigma_ratio: float = 1.5

    def __post_init__(self):
        if self.m_daf < 0 or self.m_daf % 2 != 0:
            raise ValueError("m_daf must be a non-negative even integer")
        # H_(m_daf+2)(0) overflows float64 from 268 on, which makes the
        # kinetic energy non-finite on every grid
        if self.m_daf > MAX_M_DAF:
            raise ValueError(f"m_daf must be at most {MAX_M_DAF}, got "
                             f"{self.m_daf}")
        if self.sigma_ratio <= 0:
            raise ValueError("sigma_ratio must be positive")


@dataclass(frozen=True)
class NuclearHamiltonian:
    '''Dense real-symmetric grid Hamiltonian H = K + diag(V) in Hartree.'''
    matrix: np.ndarray
    grid: GridSpec
    kinetic_band: np.ndarray = field(repr=False)  # first row of Toeplitz K

    @property
    def bandwidth(self):
        '''Largest |i-j| with a kinetic matrix element above round-off.'''
        big = np.abs(self.kinetic_band) > 1e-14 * np.abs(self.kinetic_band).max()
        return int(np.nonzero(big)[0].max())


@dataclass(frozen=True)
class EigenSystem:
    '''Ascending eigenvalues (Hartree) and orthonormal eigenvectors.'''
    energies: np.ndarray
    states: np.ndarray   # columns are eigenvectors on the grid


def build_grid(n_qubits, length, center=0.0, mass=units.PROTON_MASS):
    '''Create a GridSpec with 2^n_qubits points spanning `length` Angstrom.'''
    if not 1 <= n_qubits <= 12:
        raise ValueError("n_qubits must be in [1, 12]")
    if length <= 0:
        raise ValueError("length must be positive")
    if mass <= 0:
        raise ValueError("mass must be positive")
    spec = GridSpec(n_qubits=int(n_qubits), length=float(length),
                    center=float(center), mass=float(mass))
    # far from the origin float64 merges the points of a short grid
    if not np.abs(np.diff(spec.points) - spec.dx).max() <= 1e-6 * spec.dx:
        raise ValueError(
            f"grid.center_angstrom = {center:g} and grid.length_angstrom = "
            f"{length:g}: float64 cannot resolve the grid points apart")
    return spec


def double_well_coefficients(barrier_kcal, minimum_angstrom):
    '''Quartic coefficients (a, b) of a*x^4 - b*x^2 (Hartree, Angstrom)
    with minima at +-minimum_angstrom and well depth barrier_kcal below
    the central barrier.'''
    vb = units.kcalmol_to_hartree(barrier_kcal)
    xm = minimum_angstrom
    try:
        x4 = xm ** 4
    except OverflowError:
        x4 = 0.0
    if not 0 < x4 < np.inf:
        raise ValueError(f"potential.model.minimum_angstrom = {xm:g}: its "
                         f"fourth power is not a finite positive float")
    a = vb / x4
    b = 2 * vb / xm ** 2
    return a, b


def eval_potential(spec, source):
    '''The potential on the grid points: a float array in Hartree.

    `source` is either a path to a CSV file with header
    `x_angstrom,energy_hartree` (monotone-cubic interpolated) or a dict
    describing an analytic model:
      {"kind": "double_well", "barrier_kcal": ..., "minimum_angstrom": ...}
      {"kind": "double_well", "a": ..., "b": ...}      (Hartree/Angstrom^4,2)
      {"kind": "harmonic", "k": ...}                    (Hartree/Angstrom^2)
      {"kind": "polynomial", "coefficients": [c0, c1, ...]}  (Hartree)
    A model dict is first checked against the config schema's potential
    model: a missing, misspelled or mistyped field raises ValueError.
    '''
    if isinstance(source, dict):
        # imported here: a tabulated potential needs no schema
        from .config import check_model
        check_model(source)
    return _eval_potential(spec, source)


def _eval_potential(spec, source):
    '''eval_potential of a source whose model dict, if any, has been
    checked (config.resolve checks every config's).'''
    x = spec.points
    if isinstance(source, dict):
        kind = source.get("kind")
        if kind == "double_well":
            if "a" in source or "b" in source:
                a, b = source["a"], source["b"]
            else:
                a, b = double_well_coefficients(
                    source.get("barrier_kcal", 2.0),
                    source.get("minimum_angstrom", 0.15))
            xr = x - spec.center
            v = a * xr ** 4 - b * xr ** 2
        elif kind == "harmonic":
            v = 0.5 * source["k"] * (x - spec.center) ** 2
        elif kind == "polynomial":
            v = np.polynomial.polynomial.polyval(
                x - spec.center, source["coefficients"])
        else:
            raise ValueError(f"unknown analytic model: {kind!r}")
    else:
        # imported here: only a tabulated potential pays for it
        from scipy.interpolate import PchipInterpolator
        data = np.genfromtxt(source, delimiter=",", names=True)
        xt = np.atleast_1d(data["x_angstrom"])
        vt = np.atleast_1d(data["energy_hartree"])
        if xt[0] > x[0] + 1e-12 or xt[-1] < x[-1] - 1e-12:
            raise ValueError(
                f"tabulated domain [{xt[0]}, {xt[-1]}] does not cover the "
                f"grid [{x[0]}, {x[-1]}]")
        v = PchipInterpolator(xt, vt)(x)
    v = np.asarray(v, dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValueError("potential contains non-finite values")
    return v


def _hermite_values(n_max, z):
    '''H_0(z) .. H_nmax(z) by the standard three-term recurrence.'''
    h = np.zeros((n_max + 1,) + np.shape(z))
    h[0] = 1.0
    if n_max >= 1:
        h[1] = 2 * z
    for n in range(1, n_max):
        h[n + 1] = 2 * z * h[n] - 2 * n * h[n - 1]
    return h


def daf_kernel(d, mass, m_daf, sigma):
    '''Kinetic kernel K(d) at displacements d (bohr), mass in electron
    masses, sigma in bohr.  Includes the grid quadrature weight, so the
    matrix element is K(x_i - x_j) * dx with dx folded in by the caller.
    '''
    d = np.asarray(d, dtype=float)
    # a kernel out of float range comes back non-finite, without numpy's
    # warnings: its callers refuse it by name
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        z = d / (np.sqrt(2) * sigma)
        h = _hermite_values(m_daf + 2, z)
        s = np.zeros_like(d)
        fac = 1.0
        for q in range(m_daf // 2 + 1):
            if q > 0:
                fac *= q
            s += (-0.25) ** q / fac * h[2 * q + 2]
        pref = -1.0 / (4 * mass * sigma ** 3 * np.sqrt(2 * np.pi))
        return pref * np.exp(-d ** 2 / (2 * sigma ** 2)) * s


def daf_band(spec, params=DafParams()):
    '''First row of the Toeplitz kinetic matrix (Hartree).'''
    dx = spec.dx_au
    sigma = params.sigma_ratio * dx
    offsets = np.arange(spec.n_points) * dx
    return daf_kernel(offsets, spec.mass, params.m_daf, sigma) * dx


def daf_kinetic(spec, params=DafParams()):
    '''Dense Toeplitz kinetic-energy matrix on the grid (Hartree).'''
    band = daf_band(spec, params)
    # row i of the symmetric Toeplitz matrix is the window of
    # [band[n-1], .., band[1], band[0], .., band[n-1]] that starts at
    # n - 1 - i: the windows in reverse order, copied out
    vals = np.concatenate([band[:0:-1], band])
    return np.lib.stride_tricks.sliding_window_view(vals, len(band))[::-1] \
        .copy()


def assemble_hamiltonian(kinetic, potential, spec):
    '''H = K + diag(V) as a NuclearHamiltonian, V the potential on the
    grid points (Hartree).'''
    k = np.asarray(kinetic, dtype=float)
    v = np.asarray(potential, dtype=float)
    if k.shape != (len(v), len(v)) or len(v) != spec.n_points:
        raise ValueError("kinetic/potential/grid dimensions do not match")
    h = k + np.diag(v)
    return NuclearHamiltonian(matrix=h, grid=spec, kinetic_band=k[0].copy())


def build_hamiltonian(spec, potential, params=DafParams()):
    '''Kinetic matrix + potential array -> NuclearHamiltonian.  A
    Hamiltonian with a non-finite entry raises NumericalError.'''
    ham = assemble_hamiltonian(daf_kinetic(spec, params), potential, spec)
    # the kinetic band holds every off-diagonal entry of H and the
    # diagonal the rest: checked in O(2^N), not the whole matrix
    if not (np.isfinite(ham.kinetic_band).all()
            and np.isfinite(np.diagonal(ham.matrix)).all()):
        raise NumericalError(
            "the grid Hamiltonian has non-finite entries: the DAF "
            "kinetic energy is not finite for these daf.m_daf, "
            "daf.sigma_ratio, grid.length_angstrom and grid.mass")
    return ham


def _fix_signs(states, scale=1.0):
    '''The deterministic eigenvector sign, in place: the first entry of
    each column whose magnitude times `scale` is above 1e-12 is made
    positive.'''
    mag = np.abs(states)
    mag *= scale
    big = mag > 1e-12
    cols = np.arange(states.shape[1])
    flip = big.any(axis=0) & (states[np.argmax(big, axis=0), cols] < 0)
    states[:, flip] = -states[:, flip]
    return states


def eigensolve(ham):
    '''Full diagonalization with a deterministic eigenvector sign.'''
    h = ham.matrix if isinstance(ham, NuclearHamiltonian) else np.asarray(ham)
    energies, states = lapack.eigh(h)
    return EigenSystem(energies=energies, states=_fix_signs(states))

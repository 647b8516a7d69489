'''One-dimensional nuclear wavepacket dynamics compiled to quantum
circuits: grid Hamiltonians, parity block transforms, spin-model
parameter extraction, unitary-to-gate compilation, shot-based
emulation, and vibrational spectra.'''

from .grid import (GridSpec, DafParams, NuclearHamiltonian, EigenSystem,
                   build_grid, eval_potential, daf_kinetic, daf_band,
                   daf_kernel, assemble_hamiltonian, build_hamiltonian,
                   eigensolve, double_well_coefficients)
from .givens import (ParityPartition, BlockHamiltonian, BlockEigenSystem,
                     parity_partition, block_transform, block_eigensolve,
                     eigensystem, eigenvalues, to_mapped_basis,
                     from_mapped_basis)
from .ising import (IsingParameters, MappedSystem, BrokenSymmetryError,
                    extract_diagonal_params, extract_offdiag_params,
                    assemble_ising, check_parity_coupling, map_system,
                    restrict_to_block)
from .qsd import (NumericalError, QsdTree, qsd_compile, cnot_count,
                  cnot_lower_bound)
from .qasm import to_qasm, write_qasm
from .sim import (ShotResult, exact_propagator, run_circuit,
                  circuit_matrix, sample_shots, mapped_density_to_grid)
from .dynamics import (WavepacketSpec, Trajectory, Evolution,
                       initial_wavepacket, evolve_exact, evolve, densities,
                       propagate, probability_error, shot_density_trajectory)
from .spectra import (Spectrum, grid_spectrum, autocorrelation,
                      autocorrelation_spectrum, compare_eigendiffs,
                      eigen_differences)

__version__ = "0.1.0"

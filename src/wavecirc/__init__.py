'''One-dimensional nuclear wavepacket dynamics compiled to quantum
circuits: grid Hamiltonians, parity block transforms, spin-model
parameter extraction, unitary-to-gate compilation, shot-based
emulation, and vibrational spectra.

The exports below load their module at first use (PEP 562), so
`import wavecirc` loads no numpy: `python -m wavecirc` can set the BLAS
thread count before numpy starts its thread pools (see `__main__`).
'''

from importlib import import_module

_EXPORTS = {
    "grid": ("GridSpec", "DafParams", "NuclearHamiltonian", "EigenSystem",
             "build_grid", "eval_potential", "daf_kinetic", "daf_band",
             "daf_kernel", "assemble_hamiltonian", "build_hamiltonian",
             "eigensolve", "double_well_coefficients"),
    "givens": ("ParityPartition", "BlockHamiltonian", "BlockEigenSystem",
               "parity_partition", "block_transform", "block_eigensolve",
               "eigensystem", "eigenvalues", "to_mapped_basis",
               "from_mapped_basis"),
    "ising": ("IsingParameters", "MappedSystem", "BrokenSymmetryError",
              "extract_diagonal_params", "extract_offdiag_params",
              "assemble_ising", "check_parity_coupling", "map_system",
              "restrict_to_block"),
    "qsd": ("NumericalError", "QsdTree", "qsd_compile", "cnot_count",
            "cnot_lower_bound"),
    "qasm": ("to_qasm", "write_qasm"),
    "sim": ("ShotResult", "exact_propagator", "run_circuit",
            "circuit_matrix", "sample_shots"),
    "dynamics": ("WavepacketSpec", "Trajectory", "Evolution",
                 "initial_wavepacket", "evolve_exact", "evolve", "densities",
                 "propagate", "probability_error",
                 "shot_density_trajectory"),
    "spectra": ("Spectrum", "grid_spectrum", "compare_eigendiffs",
                "eigen_differences"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}
__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))

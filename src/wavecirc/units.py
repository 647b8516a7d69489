'''Physical constants and unit conversions.

Internally everything runs in Hartree atomic units (hbar = 1, electron
mass = 1).  Lengths cross the API boundary in Angstrom, energies in
Hartree (with helpers for kcal/mol and cm^-1), times in femtoseconds.
CODATA 2018 values.
'''

BOHR_ANGSTROM = 0.529177210903        # 1 bohr in Angstrom
HARTREE_KCALMOL = 627.5094740631      # 1 Hartree in kcal/mol
HARTREE_CM1 = 219474.6313632          # 1 Hartree in cm^-1
PROTON_MASS = 1836.15267343           # proton mass in electron masses
DEUTERON_MASS = 3670.48296788         # deuteron mass in electron masses
KB_HARTREE = 3.166811563e-6           # Boltzmann constant in Hartree/K
FS_AU = 41.341373335                  # atomic time units per femtosecond


def angstrom_to_bohr(x):
    return x / BOHR_ANGSTROM


def hartree_to_kcalmol(e):
    return e * HARTREE_KCALMOL


def kcalmol_to_hartree(e):
    return e / HARTREE_KCALMOL


def hartree_to_cm1(e):
    return e * HARTREE_CM1


def cm1_to_hartree(e):
    return e / HARTREE_CM1


def fs_to_au(t):
    return t * FS_AU

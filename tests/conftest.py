import numpy as np
import pytest

import wavecirc as w


def double_well_system(n_qubits, length=0.66, **model):
    '''Grid + symmetric double-well Hamiltonian used across tests.'''
    g = w.build_grid(n_qubits, length)
    source = {"kind": "double_well"}
    source.update(model)
    pot = w.eval_potential(g, source)
    ham = w.build_hamiltonian(g, pot)
    return g, pot, ham


@pytest.fixture(scope="session")
def dw3():
    return double_well_system(3)


@pytest.fixture(scope="session")
def dw3_full(dw3):
    g, pot, ham = dw3
    eig = w.eigensolve(ham)
    pp = w.parity_partition(3)
    bh = w.block_transform(ham)
    ms = w.map_system(bh, pp)
    return dict(grid=g, pot=pot, ham=ham, eig=eig, partition=pp,
                blocks=bh, mapped=ms)


def random_state(dim, rng):
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi / np.linalg.norm(psi)

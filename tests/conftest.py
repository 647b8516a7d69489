import os

import numpy as np
import pytest

import wavecirc as w
from wavecirc.givens import _pair_cross, _rotate_pairs


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


def block_systems(bh):
    '''The EigenSystems of the two parity blocks of a BlockHamiltonian,
    as the circuit routes take them.'''
    return w.eigensolve(bh.block_plus), w.eigensolve(bh.block_minus)


def pair_cross(amps):
    '''The pair cross term of grid amplitudes along the last axis, as
    Evolution.pair_cross holds it for shot_density_trajectory.'''
    phi = _rotate_pairs(amps)
    return _pair_cross(phi.real, phi.imag)


def random_state(dim, rng):
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi / np.linalg.norm(psi)


@pytest.fixture
def forks(monkeypatch):
    '''Pids of the processes forked during the test.'''
    pids, fork = [], os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid
    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def in_worker_only(replacement, original):
    '''`replacement` in a forked process, `original` in this one.'''
    parent = os.getpid()

    def pick(*args):
        return (original if os.getpid() == parent else replacement)(*args)
    return pick

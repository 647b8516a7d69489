import os

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

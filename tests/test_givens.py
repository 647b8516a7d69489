import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import wavecirc as w
from wavecirc.cli import Pipeline
from wavecirc.config import resolve
from wavecirc.givens import _rotate_pairs

from conftest import double_well_system, random_state


def closed_form_blocks(band, v):
    '''Reference blocks of G H G from the Toeplitz kinetic band and the
    potential alone, by index algebra over mirror pairs (i, n-i).'''
    dim = len(v)
    n = dim - 1
    half = dim // 2
    i = np.arange(half)
    kk = np.abs(i[:, None] - i[None, :])       # |i - l|
    kr = np.abs(i[:, None] - (n - i)[None, :])  # |i - (n-l)|
    plus = band[kk] + band[kr] + np.diag(0.5 * (v[:half] + v[::-1][:half]))
    # minus rows run through pairs in reverse: row a <-> pair half-1-a
    j = half - 1 - i
    kkm = np.abs(j[:, None] - j[None, :])
    krm = np.abs(j[:, None] - (n - j)[None, :])
    minus = band[kkm] - band[krm] + np.diag(0.5 * (v[j] + v[n - j]))
    # coupling is anti-diagonal in the antisymmetric part of V
    coup = np.zeros((half, half))
    coup[i, half - 1 - i] = 0.5 * (v[:half] - v[::-1][:half])
    return plus, minus, coup


def dense_g(n):
    '''The pair rotation G as a dense 2^n x 2^n matrix.'''
    return _rotate_pairs(np.eye(2 ** n))


class TestGivensMap:
    def test_two_point_map(self):
        g = dense_g(1)
        assert np.allclose(g, np.array([[1, 1], [1, -1]]) / np.sqrt(2))

    def test_first_and_last_rows_n3(self):
        g = dense_g(3)
        r = 1 / np.sqrt(2)
        assert np.allclose(g[0], [r, 0, 0, 0, 0, 0, 0, r])
        assert np.allclose(g[7], [r, 0, 0, 0, 0, 0, 0, -r])

    @given(n=st.integers(1, 8))
    @settings(max_examples=8, deadline=None)
    def test_orthogonal(self, n):
        g = dense_g(n)
        assert np.abs(g @ g.T - np.eye(2 ** n)).max() <= 1e-14


class TestParityPartition:
    def test_n2_order(self):
        assert list(w.parity_partition(2).order) == [0, 3, 1, 2]

    def test_n3_order(self):
        assert list(w.parity_partition(3).order) == [0, 3, 5, 6, 1, 2, 4, 7]

    def test_n1_order(self):
        assert list(w.parity_partition(1).order) == [0, 1]

    @given(n=st.integers(1, 8))
    @settings(max_examples=8, deadline=None)
    def test_bijection_and_parity(self, n):
        p = w.parity_partition(n)
        assert sorted(p.order) == list(range(2 ** n))
        assert all(bin(s).count("1") % 2 == 0 for s in p.even_states)
        assert all(bin(s).count("1") % 2 == 1 for s in p.odd_states)

    @given(n=st.integers(2, 7))
    @settings(max_examples=6, deadline=None)
    def test_within_block_even_hamming_distance(self, n):
        p = w.parity_partition(n)
        for states in (p.even_states, p.odd_states):
            for a in states[:6]:
                for b in states[:6]:
                    if a != b:
                        assert bin(int(a) ^ int(b)).count("1") % 2 == 0


class TestBlockTransform:
    def test_symmetric_potential_decouples(self):
        for n in range(1, 6):
            g, pot, ham = double_well_system(n)
            bh = w.block_transform(ham)
            assert bh.coupling_norm <= 1e-12 * np.linalg.norm(ham.matrix)

    def test_two_point_blocks(self):
        # asymmetric two-point potential: blocks from direct 2x2 algebra
        g = w.build_grid(1, 1.0)
        k = w.daf_kinetic(g)
        v = np.array([0.3, -0.2])
        ham = w.assemble_hamiltonian(k, v, g)
        bh = w.block_transform(ham)
        plus = k[0, 0] + k[0, 1] + (v[0] + v[1]) / 2
        minus = k[0, 0] - k[0, 1] + (v[0] + v[1]) / 2
        coup = (v[0] - v[1]) / 2
        assert bh.block_plus[0, 0] == pytest.approx(plus, abs=1e-14)
        assert bh.block_minus[0, 0] == pytest.approx(minus, abs=1e-14)
        assert bh.coupling_norm == pytest.approx(np.sqrt(2) * abs(coup),
                                                 abs=1e-14)

    def test_spectrum_preserved_random_symmetric(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(16, 16))
        h = a + a.T
        bh = w.block_transform(h)
        ht = _rotate_pairs(_rotate_pairs(h, 0), 1)
        e1 = np.linalg.eigvalsh(h)
        e2 = np.linalg.eigvalsh(ht)
        assert np.abs(e1 - e2).max() <= 1e-10 * np.abs(e1).max()
        assert bh.norm == pytest.approx(np.linalg.norm(ht), rel=1e-14)

    @pytest.mark.parametrize("complex_", [False, True])
    def test_blocks_are_those_of_the_rotated_matrix(self, complex_):
        # the half-size blocks have the bits of the blocks of G H G, and
        # own their memory: no 2^N rotated matrix is kept behind them
        rng = np.random.default_rng(4)
        for n in range(1, 8):
            a = rng.normal(size=(2 ** n, 2 ** n))
            if complex_:
                a = a + 1j * rng.normal(size=a.shape)
            h = a + a.conj().T
            ht = _rotate_pairs(_rotate_pairs(h, 0), 1)
            bh = w.block_transform(h)
            half = 2 ** (n - 1)
            for got, want in ((bh.block_plus, ht[:half, :half]),
                              (bh.block_minus, ht[half:, half:])):
                assert np.array_equal(got, want)
                assert np.array_equal(np.signbit(got.real),
                                      np.signbit(want.real))
                assert got.base is None
            assert bh.coupling_norm == float(
                np.sqrt(2) * np.linalg.norm(ht[:half, half:]))

    def test_block_eigenvalues_interleave_full_spectrum(self):
        g, pot, ham = double_well_system(4)
        bh = w.block_transform(ham)
        full = np.linalg.eigvalsh(ham.matrix)
        blocks = np.sort(np.concatenate([
            np.linalg.eigvalsh(bh.block_plus),
            np.linalg.eigvalsh(bh.block_minus)]))
        assert np.allclose(full, blocks, atol=1e-10)

    def test_asymmetric_coupling_is_antidiagonal_potential(self):
        g = w.build_grid(3, 0.66)
        k = w.daf_kinetic(g)
        rng = np.random.default_rng(5)
        v = rng.normal(size=8)
        ham = w.assemble_hamiltonian(k, v, g)
        bh = w.block_transform(ham)
        expected = np.zeros((4, 4))
        for i in range(4):
            expected[i, 3 - i] = 0.5 * (v[i] - v[7 - i])
        assert bh.coupling_norm == pytest.approx(
            np.sqrt(2) * np.linalg.norm(expected), abs=1e-12)

    def test_dimension_mismatch(self):
        # not square, or a side that is not a power of two >= 2
        for shape in ((6, 6), (4, 2), (1, 1)):
            with pytest.raises(ValueError, match="power-of-two"):
                w.block_transform(np.ones(shape))

    def test_blocks_match_closed_form(self):
        rng = np.random.default_rng(17)
        for n in range(1, 9):
            g, pot, dw = double_well_system(n)
            v_tilted = 0.01 * rng.normal(size=2 ** n)
            tilted = w.assemble_hamiltonian(w.daf_kinetic(g), v_tilted, g)
            for ham, v in ((dw, pot), (tilted, v_tilted)):
                expected = closed_form_blocks(ham.kinetic_band, v)
                bh = w.block_transform(ham)
                scale = max(np.linalg.norm(ham.matrix), 1.0)
                for blk, ref in zip((bh.block_plus, bh.block_minus),
                                    expected):
                    assert np.abs(blk - ref).max() <= 1e-12 * scale, n
                coup = np.sqrt(2) * np.linalg.norm(expected[2])
                assert abs(bh.coupling_norm - coup) <= 1e-12 * scale, n


class TestMappedBasis:
    def test_round_trip(self, dw3_full):
        rng = np.random.default_rng(11)
        psi = random_state(8, rng)
        pp = dw3_full["partition"]
        back = w.from_mapped_basis(w.to_mapped_basis(psi, pp), pp)
        assert np.abs(back - psi).max() <= 1e-15

    def test_batched_round_trip(self):
        rng = np.random.default_rng(12)
        pp = w.parity_partition(5)
        x = rng.normal(size=(7, 32)) + 1j * rng.normal(size=(7, 32))
        mapped = w.to_mapped_basis(x, pp)
        for row, m in zip(x, mapped):
            assert np.array_equal(w.to_mapped_basis(row, pp), m)
        back = w.from_mapped_basis(mapped, pp)
        assert np.abs(back - x).max() <= 1e-15

    def test_first_pair_maps_to_zero_state(self, dw3_full):
        pp = dw3_full["partition"]
        psi = np.zeros(8)
        psi[0] = psi[7] = 1 / np.sqrt(2)   # even combination of pair (0, 7)
        mapped = w.to_mapped_basis(psi, pp)
        assert mapped[0] == pytest.approx(1.0)
        assert np.abs(mapped[1:]).max() <= 1e-15

    @given(n=st.integers(1, 6), seed=st.integers(0, 10 ** 6))
    @settings(max_examples=20, deadline=None)
    def test_norm_preserved(self, n, seed):
        rng = np.random.default_rng(seed)
        psi = random_state(2 ** n, rng)
        pp = w.parity_partition(n)
        assert np.linalg.norm(w.to_mapped_basis(psi, pp)) == \
            pytest.approx(1.0, abs=1e-12)


def pipeline(n, model):
    return Pipeline(resolve({"grid": {"n_qubits": n, "length_angstrom": 0.66},
                             "potential": {"model": model}}))


class TestBlockEigensolve:
    '''The eigensystem of H from its two parity blocks, against the full
    eigensolve.'''

    @pytest.mark.parametrize("n", range(3, 10))
    def test_matches_full_eigensolve(self, n):
        g, pot, ham = double_well_system(n)
        full = w.eigensolve(ham)
        eig = w.block_eigensolve(w.block_transform(ham))
        assert isinstance(eig, w.BlockEigenSystem)
        scale = np.linalg.norm(ham.matrix)
        assert np.all(np.diff(eig.energies) >= 0)
        assert np.abs(eig.energies - full.energies).max() <= 1e-12 * scale
        # the same physics in block form: an evolved Gaussian, as
        # amplitudes and as the reference density of `evolve`, and a
        # thermal wavepacket
        psi0 = w.initial_wavepacket(
            w.WavepacketSpec("gaussian", mu=0.03, sigma=0.1), g)
        rho = [np.abs(w.evolve_exact(e, psi0, 0.5, 500)) ** 2
               for e in (eig, full)]
        assert np.abs(rho[0] - rho[1]).max() <= 1e-10
        ref = w.evolve("classical", ham, psi0, 0.5, 500, eig=eig)
        assert np.abs(ref.reference_rho - rho[1]).max() <= 1e-10
        spec = w.WavepacketSpec("thermal", temperature=2000.0)
        thermal = [w.initial_wavepacket(spec, g, e) for e in (eig, full)]
        assert np.abs(thermal[0] - thermal[1]).max() <= 1e-10
        # none of it built the 2^N eigenvector matrix
        assert "states" not in vars(eig)
        assert np.abs(eig.states.T @ eig.states - np.eye(2 ** n)).max() \
            <= 1e-12
        # every column obeys eigensolve's sign rule on the grid
        big = np.abs(eig.states) > 1e-12
        lead = eig.states[np.argmax(big, axis=0), np.arange(2 ** n)]
        assert np.all(lead > 0)

    def test_degenerate_energies_keep_even_block_first(self):
        # both blocks have levels 1 and 2: every level is twofold, and
        # the stable sort puts the even (reflection-symmetric) vector first
        plus, minus = np.diag([1.0, 2.0]), np.diag([2.0, 1.0])
        bh = w.BlockHamiltonian(block_plus=plus, block_minus=minus,
                                coupling_norm=0.0, norm=np.sqrt(10.0))
        eig = w.block_eigensolve(bh)
        assert np.array_equal(eig.energies, [1.0, 1.0, 2.0, 2.0])
        reflection = np.sum(eig.states * eig.states[::-1], axis=0)
        assert np.allclose(reflection, [1, -1, 1, -1], atol=1e-15)

    def test_pipeline_uses_blocks_only_when_exactly_decoupled(self):
        pipe = pipeline(3, {"kind": "double_well"})
        assert pipe.blocks.coupling_norm == 0.0
        want = w.block_eigensolve(pipe.blocks)
        assert np.array_equal(pipe.eig.energies, want.energies)
        assert np.array_equal(pipe.eig.states, want.states)
        tilted = pipeline(3, {"kind": "polynomial",
                              "coefficients": [0, 0.01, 0.5]})
        assert tilted.blocks.coupling_norm > 0.0
        want = w.eigensolve(tilted.ham)
        assert np.array_equal(tilted.eig.energies, want.energies)
        assert np.array_equal(tilted.eig.states, want.states)

    # build's energies: eigvalsh of the blocks or of H, by the same rule
    @pytest.mark.parametrize("n, model, blocks", [
        (3, {"kind": "double_well"}, True),
        (8, {"kind": "double_well"}, True),
        (3, {"kind": "polynomial", "coefficients": [0, 0.01, 0.5]}, False),
        (8, {"kind": "polynomial", "coefficients": [0, 0.01, 0.5]}, False)])
    def test_eigenvalues_by_the_eigensystem_rule(self, n, model, blocks):
        pipe = pipeline(n, model)
        got = w.eigenvalues(pipe.ham, pipe.blocks)
        if blocks:
            want = np.sort(np.concatenate(
                [np.linalg.eigvalsh(pipe.blocks.block_plus),
                 np.linalg.eigvalsh(pipe.blocks.block_minus)]))
        else:
            want = np.linalg.eigvalsh(pipe.ham.matrix)
        assert np.array_equal(got, want)
        assert np.abs(got - pipe.eig.energies).max() \
            <= 1e-14 * np.abs(pipe.eig.energies).max()

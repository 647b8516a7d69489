import numpy as np
import pytest

import wavecirc as w
from wavecirc.ising import _diag_design

from conftest import double_well_system


def random_params(n, rng, diag_only=False, offdiag_only=False):
    z = np.zeros((n, n))
    up = lambda: np.triu(rng.normal(size=(n, n)), 1)
    return w.IsingParameters(
        n_qubits=n,
        offset=0.0 if offdiag_only else float(rng.normal()),
        b_z=np.zeros(n) if offdiag_only else rng.normal(size=n),
        j_z=z if offdiag_only else up(),
        j_x=z if diag_only else up(),
        j_y=z if diag_only else up(),
        diag_residual=0.0, offdiag_residual=0.0)


class TestExtractDiagonal:
    def test_zero_diagonal(self):
        pp = w.parity_partition(3)
        c, bz, jz, res = w.extract_diagonal_params(np.zeros(4),
                                                   pp.even_states, 3)
        assert c == 0 and np.all(bz == 0) and np.all(jz == 0) and res == 0

    def test_forward_generated_recovery_n3(self):
        rng = np.random.default_rng(0)
        pp = w.parity_partition(3)
        p = random_params(3, rng, diag_only=True)
        full = w.assemble_ising(p)
        for bits in (pp.even_states, pp.odd_states):
            d = np.real(np.diagonal(w.restrict_to_block(full, bits)))
            c, bz, jz, res = w.extract_diagonal_params(d, bits, 3)
            fit = w.IsingParameters(3, c, bz, jz, p.j_x, p.j_y, 0, 0)
            d2 = np.real(np.diagonal(
                w.restrict_to_block(w.assemble_ising(fit), bits)))
            assert np.abs(d2 - d).max() <= 1e-12
            assert res <= 1e-12

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_square_or_overcomplete_blocks_interpolate(self, n):
        # through n=5 the restricted design spans the whole block, so any
        # diagonal is reproduced exactly (residual 0)
        rng = np.random.default_rng(n)
        pp = w.parity_partition(n)
        d = rng.normal(size=2 ** (n - 1))
        *_, res = w.extract_diagonal_params(d, pp.even_states, n)
        assert res <= 1e-10

    @pytest.mark.parametrize("n", [6, 7])
    def test_residual_is_projection_distance(self, n):
        # from n=6 on the block design is rank deficient; the reported
        # residual must equal the least-squares projection distance
        rng = np.random.default_rng(n)
        pp = w.parity_partition(n)
        d = rng.normal(size=2 ** (n - 1))
        *_, res = w.extract_diagonal_params(d, pp.even_states, n)
        a = _diag_design(pp.even_states, n)
        proj = a @ np.linalg.lstsq(a, d, rcond=None)[0]
        assert res == pytest.approx(np.linalg.norm(d - proj), abs=1e-10)
        assert res > 1e-3   # genuinely nonzero for random input

    def test_design_span_equals_low_weight_walsh_span(self):
        # the fit space is exactly the block restriction of the Walsh
        # characters of bit-weight <= 2
        n = 6
        pp = w.parity_partition(n)
        bits = pp.even_states
        a = _diag_design(bits, n)
        chars = []
        for s in range(2 ** n):
            if bin(s).count("1") <= 2:
                chars.append([(-1.0) ** bin(s & int(b)).count("1")
                              for b in bits])
        chars = np.array(chars).T
        stacked = np.hstack([a, chars])
        assert np.linalg.matrix_rank(stacked) == np.linalg.matrix_rank(a)

    def test_empty_block(self):
        with pytest.raises(ValueError):
            w.extract_diagonal_params(np.array([]), np.array([], int), 3)

    @staticmethod
    def loop_design(bitstrings, n):
        '''The per-bitstring design loop _diag_design used to run, as
        the reference.'''
        pairs = [(j, k) for j in range(n) for k in range(j + 1, n)]
        rows = []
        for s in bitstrings:
            row = [1.0]
            row += [(-1.0) ** ((s >> j) & 1) for j in range(n)]
            row += [(-1.0) ** (((s >> j) & 1) ^ ((s >> k) & 1))
                    for j, k in pairs]
            rows.append(row)
        return np.array(rows)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_design_matches_loop_reference(self, n):
        pp = w.parity_partition(n)
        for bits in (pp.even_states, pp.odd_states):
            got, want = _diag_design(bits, n), self.loop_design(bits, n)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


def loop_offdiag_params(m, bitstrings, n):
    '''Reference fit: one least-squares row per distance-2 element pair,
    visited in row-major order by a Python double loop.'''
    pairs = [(j, k) for j in range(n) for k in range(j + 1, n)]
    rows, rhs, unmapped_sq = [], [], 0.0
    for a in range(len(bitstrings)):
        for b in range(a + 1, len(bitstrings)):
            sa = int(bitstrings[a])
            diff = sa ^ int(bitstrings[b])
            if bin(diff).count("1") != 2:
                unmapped_sq += 2 * abs(m[a, b]) ** 2
                continue
            j, k = (diff & -diff).bit_length() - 1, diff.bit_length() - 1
            s = 1.0 if (sa >> j) & 1 == (sa >> k) & 1 else -1.0
            row = np.zeros(2 * len(pairs))
            row[pairs.index((j, k))] = 1.0
            row[len(pairs) + pairs.index((j, k))] = -s
            rows.append(row)
            rhs.append(m[a, b].real)
            unmapped_sq += 2 * m[a, b].imag ** 2
    j_x, j_y, misfit = np.zeros((n, n)), np.zeros((n, n)), 0.0
    if rows:
        a_mat = np.array(rows)
        theta = np.linalg.lstsq(a_mat, np.array(rhs), rcond=1e-12)[0]
        misfit = float(np.linalg.norm(a_mat @ theta - rhs))
        for c, (j, k) in enumerate(pairs):
            j_x[j, k], j_y[j, k] = theta[c], theta[len(pairs) + c]
    return j_x, j_y, float(np.sqrt(misfit ** 2 + unmapped_sq))


class TestExtractOffdiag:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_matches_loop_reference(self, n, monkeypatch):
        # pyproject allows numpy 1.24, which has no np.bitwise_count
        monkeypatch.delattr(np, "bitwise_count", raising=False)
        rng = np.random.default_rng(40 + n)
        pp = w.parity_partition(n)
        for bits in (pp.even_states, pp.odd_states):
            a = rng.normal(size=(len(bits),) * 2) \
                + 1j * rng.normal(size=(len(bits),) * 2)
            blk = a + a.conj().T
            jx, jy, res = w.extract_offdiag_params(blk, bits, n)
            rx, ry, rres = loop_offdiag_params(blk, bits, n)
            # same rows in the same order: the same least-squares solution
            assert np.array_equal(jx, rx) and np.array_equal(jy, ry)
            assert res == pytest.approx(rres, rel=1e-14)

    def test_zero_matrix(self):
        pp = w.parity_partition(3)
        jx, jy, res = w.extract_offdiag_params(np.zeros((4, 4)),
                                               pp.even_states, 3)
        assert np.all(jx == 0) and np.all(jy == 0) and res == 0

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_forward_generated_recovery(self, n):
        rng = np.random.default_rng(n)
        pp = w.parity_partition(n)
        p = random_params(n, rng, offdiag_only=True)
        full = w.assemble_ising(p)
        for bits in (pp.even_states, pp.odd_states):
            blk = w.restrict_to_block(full, bits)
            jx, jy, res = w.extract_offdiag_params(blk, bits, n)
            assert np.abs(jx - p.j_x).max() <= 1e-12
            assert np.abs(jy - p.j_y).max() <= 1e-12
            assert res <= 1e-12

    def test_distance_four_element_unmappable(self):
        pp = w.parity_partition(4)
        bits = list(pp.even_states)
        blk = np.zeros((8, 8))
        a, b = bits.index(0b0000), bits.index(0b1111)
        blk[a, b] = blk[b, a] = 0.37
        jx, jy, res = w.extract_offdiag_params(blk, pp.even_states, 4)
        assert np.abs(jx).max() == 0 and np.abs(jy).max() == 0
        assert res == pytest.approx(0.37 * np.sqrt(2), abs=1e-14)

    def test_rejects_non_hermitian(self):
        pp = w.parity_partition(3)
        blk = np.zeros((4, 4))
        blk[0, 1] = 1.0
        with pytest.raises(ValueError, match="Hermitian"):
            w.extract_offdiag_params(blk, pp.even_states, 3)


class TestAssembleIsing:
    def test_zero_params(self):
        p = random_params(3, np.random.default_rng(0))
        zero = w.IsingParameters(3, 0.0, np.zeros(3), np.zeros((3, 3)),
                                 np.zeros((3, 3)), np.zeros((3, 3)), 0, 0)
        assert np.abs(w.assemble_ising(zero)).max() == 0

    def test_fig_matrix_elements_two_qubits(self):
        jx = np.array([[0, 1.3], [0, 0]])
        jy = np.array([[0, 0.4], [0, 0]])
        p = w.IsingParameters(2, 0.0, np.zeros(2), np.zeros((2, 2)),
                              jx, jy, 0, 0)
        h = w.assemble_ising(p)
        assert h[3, 0].real == pytest.approx(1.3 - 0.4)   # <11|H|00>
        assert h[2, 1].real == pytest.approx(1.3 + 0.4)   # <10|H|01>

    def test_traceless_apart_from_offset(self):
        rng = np.random.default_rng(2)
        p = random_params(4, rng)
        h = w.assemble_ising(p)
        assert np.trace(h - p.offset * np.eye(16)) == pytest.approx(0, abs=1e-10)

    def test_hermitian(self):
        p = random_params(5, np.random.default_rng(9))
        h = w.assemble_ising(p)
        assert np.abs(h - h.conj().T).max() <= 1e-14

    @pytest.mark.parametrize("n", list(range(2, 8)))
    def test_round_trip_on_representable_inputs(self, n):
        rng = np.random.default_rng(100 + n)
        pp = w.parity_partition(n)
        p = random_params(n, rng)
        full = w.assemble_ising(p)
        for bits in (pp.even_states, pp.odd_states):
            blk = w.restrict_to_block(full, bits)
            fitted = w.extract_diagonal_params(
                np.real(np.diagonal(blk)), bits, n)
            jx, jy, ores = w.extract_offdiag_params(blk, bits, n)
            assert fitted[3] <= 1e-12
            assert ores <= 1e-12
            refit = w.IsingParameters(n, fitted[0], fitted[1], fitted[2],
                                      jx, jy, 0, 0)
            blk2 = w.restrict_to_block(w.assemble_ising(refit), bits)
            assert np.abs(blk2 - blk).max() <= 1e-12


class TestMapSystem:
    def test_three_qubit_exactness(self, dw3_full):
        ms = dw3_full["mapped"]
        scale = np.linalg.norm(dw3_full["blocks"].h_tilde)
        assert ms.recon_error_even <= 1e-10 * scale
        assert ms.recon_error_odd <= 1e-10 * scale
        assert ms.even.diag_residual <= 1e-10 * scale
        assert ms.even.offdiag_residual <= 1e-10 * scale

    def test_zero_hamiltonian(self):
        g = w.build_grid(3, 1.0)
        ham = w.assemble_hamiltonian(np.zeros((8, 8)), np.zeros(8), g)
        bh = w.block_transform(ham)
        ms = w.map_system(bh, w.parity_partition(3))
        assert ms.even.offset == 0 and ms.recon_error_even == 0

    def test_larger_grid_has_residual_and_projection_removes_it(self):
        g, pot, ham = double_well_system(6)
        pp = w.parity_partition(6)
        bh = w.block_transform(ham)
        ms = w.map_system(bh, pp)
        assert ms.recon_error_even > 1e-12
        # remap the representable projection: residual collapses to zero
        proj = type(bh)(h_tilde=bh.h_tilde, block_plus=np.real(ms.block_even),
                        block_minus=np.real(ms.block_odd),
                        coupling_norm=0.0)
        ms2 = w.map_system(proj, pp)
        assert ms2.recon_error_even <= 1e-9
        assert ms2.recon_error_odd <= 1e-9

    def test_offset_invariance(self, dw3_full):
        bh = dw3_full["blocks"]
        pp = dw3_full["partition"]
        shift = 0.123
        shifted = type(bh)(h_tilde=bh.h_tilde + shift * np.eye(8),
                           block_plus=bh.block_plus + shift * np.eye(4),
                           block_minus=bh.block_minus + shift * np.eye(4),
                           coupling_norm=bh.coupling_norm)
        ms = w.map_system(shifted, pp)
        ms0 = dw3_full["mapped"]
        assert ms.recon_error_even == pytest.approx(ms0.recon_error_even,
                                                    abs=1e-12)
        assert ms.even.offset == pytest.approx(ms0.even.offset + shift)

    def test_refuses_broken_symmetry(self):
        g = w.build_grid(3, 0.66)
        rng = np.random.default_rng(1)
        v = rng.normal(size=8)
        ham = w.assemble_hamiltonian(w.daf_kinetic(g), v, g)
        bh = w.block_transform(ham)
        with pytest.raises(w.BrokenSymmetryError):
            w.map_system(bh, w.parity_partition(3))
        ms = w.map_system(bh, w.parity_partition(3), force=True)
        assert ms.recon_error_even >= 0

    def test_coupling_guard_threshold_and_force(self):
        g = w.build_grid(3, 0.66)
        pot = w.eval_potential(g, {"kind": "polynomial",
                                   "coefficients": [0, 0.01, 0.5]})
        bh = w.block_transform(w.build_hamiltonian(g, pot))
        ratio = bh.coupling_norm / np.linalg.norm(bh.h_tilde)
        with pytest.raises(w.BrokenSymmetryError, match="coupling norm"):
            w.check_parity_coupling(bh, threshold_ratio=ratio / 2)
        w.check_parity_coupling(bh, threshold_ratio=ratio * 2)
        w.check_parity_coupling(bh, threshold_ratio=ratio / 2, force=True)

    def test_parameter_counts(self):
        # unknowns per block: 1 + N + N(N-1)/2 diagonal, N(N-1) off-diagonal
        for n in (3, 5, 7):
            diag_cols = _diag_design(w.parity_partition(n).even_states,
                                     n).shape[1]
            assert diag_cols == 1 + n + n * (n - 1) // 2

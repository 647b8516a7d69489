
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import eigh

import wavecirc as w
from wavecirc import units

from conftest import double_well_system


class TestBuildGrid:
    def test_spacing_8_points(self):
        g = w.build_grid(3, 0.66)
        assert g.dx == pytest.approx(0.0943, abs=5e-4)

    def test_spacing_128_points(self):
        g = w.build_grid(7, 0.66)
        assert g.dx == pytest.approx(0.0052, abs=5e-5)

    def test_two_point_grid(self):
        g = w.build_grid(1, 1.0, 0.0)
        assert np.allclose(g.points, [-0.5, 0.5])

    def test_symmetry_about_center(self):
        g = w.build_grid(4, 0.8, center=0.3)
        x = g.points
        assert np.allclose(x + x[::-1], 2 * g.center)

    @pytest.mark.parametrize("kwargs", [
        dict(n_qubits=0, length=1.0), dict(n_qubits=13, length=1.0),
        dict(n_qubits=3, length=-1.0), dict(n_qubits=3, length=1.0, mass=0),
    ])
    def test_rejects_bad_input(self, kwargs):
        with pytest.raises(ValueError):
            w.build_grid(**kwargs)

    @given(n=st.integers(1, 8), length=st.floats(0.1, 10.0))
    @settings(max_examples=25, deadline=None)
    def test_point_count_and_spacing(self, n, length):
        g = w.build_grid(n, length)
        assert len(g.points) == 2 ** n
        assert g.dx == pytest.approx(length / (2 ** n - 1))


class TestEvalPotential:
    def test_harmonic_symmetric(self):
        g = w.build_grid(3, 1.0)
        pot = w.eval_potential(g, {"kind": "harmonic", "k": 2.5})
        assert np.abs(pot - pot[::-1]).max() <= 1e-10

    def test_double_well_shape(self):
        # a*x^4 - b*x^2 with a=1, b=2 has minima at +-1 and a barrier at 0
        g = w.build_grid(6, 4.0)
        pot = w.eval_potential(g, {"kind": "double_well", "a": 1.0, "b": 2.0})
        x = g.points
        v = pot
        assert v[np.argmin(np.abs(x - 1))] < v[np.argmin(np.abs(x))]
        assert v[np.argmin(np.abs(x + 1))] < v[np.argmin(np.abs(x))]
        assert pot.min() == pytest.approx(-1.0, abs=0.05)

    def test_tabulated_matches_generating_polynomial(self, tmp_path):
        # 5 tabulated points of a cubic; interpolation onto an 8-point grid
        # must reproduce the cubic at the nodes it was sampled from
        coeffs = [0.2, -0.1, 0.05, 0.01]
        xt = np.linspace(-0.5, 0.5, 5)
        vt = np.polynomial.polynomial.polyval(xt, coeffs)
        path = tmp_path / "pot.csv"
        np.savetxt(path, np.column_stack([xt, vt]), delimiter=",",
                   header="x_angstrom,energy_hartree", comments="")
        g = w.build_grid(3, 1.0)
        pot = w.eval_potential(g, str(path))
        exact = np.polynomial.polynomial.polyval(g.points, coeffs)
        # pchip is exact at the nodes; between nodes it is a C1 monotone fit
        node_hits = np.isin(np.round(g.points, 12), np.round(xt, 12))
        assert np.allclose(pot[node_hits], exact[node_hits])
        assert np.abs(pot - exact).max() < 5e-3

    def test_tabulated_domain_too_small(self, tmp_path):
        path = tmp_path / "pot.csv"
        np.savetxt(path, np.column_stack([[0.0, 0.1], [0.0, 0.1]]),
                   delimiter=",", header="x_angstrom,energy_hartree",
                   comments="")
        g = w.build_grid(3, 1.0)
        with pytest.raises(ValueError, match="does not cover"):
            w.eval_potential(g, str(path))

    def test_unknown_model(self):
        g = w.build_grid(2, 1.0)
        with pytest.raises(ValueError):
            w.eval_potential(g, {"kind": "nope"})

    # a library caller's model dict gets the config schema's refusals
    @pytest.mark.parametrize("model, field", [
        ({"kind": "double_well", "barier_kcal": 5.0}, "barier_kcal"),
        ({"kind": "harmonic"}, "'k'"),
        ({"kind": "double_well", "a": 1.0}, "'b'"),
        ({"kind": "double_well", "barrier_kcal": "two"}, "'two'")],
        ids=["misspelled", "missing-k", "a-without-b", "string-value"])
    def test_model_checked(self, model, field):
        g = w.build_grid(3, 1.0)
        with pytest.raises(ValueError, match="potential model invalid") \
                as exc:
            w.eval_potential(g, model)
        assert field in str(exc.value)


class TestDafKinetic:
    def test_toeplitz_bitwise(self):
        g = w.build_grid(5, 0.66)
        k = w.daf_kinetic(g)
        for off in range(0, 31, 7):
            d = np.diagonal(k, off)
            assert np.all(d == d[0])
        assert np.array_equal(k, k.T)

    def test_harmonic_ground_state(self):
        m = units.PROTON_MASS
        g = w.build_grid(5, 1.0, mass=m)
        lb = units.angstrom_to_bohr(g.length)
        omega = 20 / (m * (lb / 2) ** 2)
        k_ang = m * omega ** 2 / units.BOHR_ANGSTROM ** 2
        pot = w.eval_potential(g, {"kind": "harmonic", "k": k_ang})
        eig = w.eigensolve(w.build_hamiltonian(g, pot))
        assert eig.energies[0] == pytest.approx(omega / 2, rel=1e-3)

    def test_free_particle_matches_fft_oracle(self):
        # periodic wrap of the same kernel band (minimum-image circulant)
        # against the spectral p^2/2m operator on the same grid
        m = units.PROTON_MASS
        n = 128
        dx = units.angstrom_to_bohr(0.05)
        sigma = 1.5 * dx
        j = np.arange(n)
        d = ((j[:, None] - j[None, :] + n // 2) % n - n // 2) * dx
        kmat = w.daf_kernel(d, m, 20, sigma) * dx
        ev = np.sort(np.linalg.eigvalsh(kmat))
        kk = 2 * np.pi * np.fft.fftfreq(n, dx)
        fft_ev = np.sort(kk ** 2 / (2 * m))
        low = slice(1, n // 4)
        assert np.abs(ev[low] / fft_ev[low] - 1).max() < 1e-3

    def test_plane_wave_action_interior(self):
        m = units.PROTON_MASS
        g = w.build_grid(8, 10.0, mass=m)
        k = w.daf_kinetic(g)
        x = units.angstrom_to_bohr(g.points)
        kmax = np.pi / g.dx_au
        for frac in (0.05, 0.2):
            kv = frac * kmax
            psi = np.exp(1j * kv * x)
            mid = slice(40, 256 - 40)
            ratio = (k @ psi)[mid] / psi[mid]
            assert np.abs(ratio / (kv ** 2 / (2 * m)) - 1).max() < 1e-3

    def test_low_eigenvalues_stable_under_refined_kernel(self):
        # M and sigma^2 scale together (fixed bandwidth parameter
        # M/(sigma/dx)^2): doubling both must leave the low-lying
        # spectrum essentially unchanged
        g, pot, ham = double_well_system(5)
        e1 = w.eigensolve(ham).energies
        ham2 = w.build_hamiltonian(
            g, pot, w.DafParams(m_daf=40, sigma_ratio=1.5 * np.sqrt(2)))
        e2 = w.eigensolve(ham2).energies
        scale = np.abs(e1).max()
        assert np.abs(e1[:4] - e2[:4]).max() <= 1e-4 * scale

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            w.DafParams(m_daf=7)
        with pytest.raises(ValueError):
            w.DafParams(sigma_ratio=-1.0)

    def test_order_beyond_float_range_refused(self):
        g, pot, _ = double_well_system(3)
        assert w.DafParams(m_daf=266).m_daf == 266
        with pytest.raises(ValueError, match="at most 266"):
            w.build_hamiltonian(g, pot, w.DafParams(m_daf=268))

    @pytest.mark.parametrize("params, spec", [
        (w.DafParams(sigma_ratio=1e-300), (3, 0.66)),
        (w.DafParams(), (3, 1e-300))], ids=["sigma_ratio", "length"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_hamiltonian_raises(self, params, spec):
        # a library caller gets the CLI's refusal, naming the same fields
        g = w.build_grid(*spec)
        with pytest.raises(w.NumericalError) as exc:
            w.build_hamiltonian(g, np.zeros(g.n_points), params)
        for name in ("daf.m_daf", "daf.sigma_ratio", "grid.length_angstrom",
                     "grid.mass"):
            assert name in str(exc.value)


class TestAssembleAndEigensolve:
    def test_zero_potential_gives_kinetic(self):
        g = w.build_grid(4, 1.0)
        k = w.daf_kinetic(g)
        ham = w.assemble_hamiltonian(k, np.zeros(16), g)
        assert np.array_equal(ham.matrix, k)

    def test_diagonal_is_kinetic_plus_potential(self):
        g = w.build_grid(4, 1.0)
        k = w.daf_kinetic(g)
        v = np.linspace(0, 1, 16)
        ham = w.assemble_hamiltonian(k, v, g)
        assert np.allclose(np.diagonal(ham.matrix) - np.diagonal(k), v)

    def test_symmetric_to_roundoff(self):
        rng = np.random.default_rng(0)
        g = w.build_grid(4, 1.0)
        ham = w.assemble_hamiltonian(w.daf_kinetic(g), rng.normal(size=16), g)
        h = ham.matrix
        assert np.abs(h - h.T).max() <= 1e-14 * np.abs(h).max()

    def test_dimension_mismatch(self):
        g = w.build_grid(3, 1.0)
        with pytest.raises(ValueError):
            w.assemble_hamiltonian(np.eye(4), np.zeros(4), g)

    def test_eigensolve_diagonal(self):
        g = w.build_grid(2, 1.0)
        ham = w.assemble_hamiltonian(np.zeros((4, 4)),
                                     np.array([1.0, 2.0, 3.0, 4.0]), g)
        eig = w.eigensolve(ham)
        assert np.allclose(eig.energies, [1, 2, 3, 4])
        assert np.allclose(np.abs(eig.states), np.eye(4))

    def test_harmonic_ladder_spacing(self):
        m = units.PROTON_MASS
        g = w.build_grid(6, 1.0, mass=m)
        lb = units.angstrom_to_bohr(g.length)
        omega = 20 / (m * (lb / 2) ** 2)
        k_ang = m * omega ** 2 / units.BOHR_ANGSTROM ** 2
        pot = w.eval_potential(g, {"kind": "harmonic", "k": k_ang})
        eig = w.eigensolve(w.build_hamiltonian(g, pot))
        gaps = np.diff(eig.energies[:5])
        assert np.abs(gaps / omega - 1).max() < 5e-3

    def test_spectral_reconstruction(self):
        g, _, ham = double_well_system(4)
        eig = w.eigensolve(ham)
        recon = (eig.states * eig.energies) @ eig.states.T
        scale = np.linalg.norm(ham.matrix)
        assert np.linalg.norm(recon - ham.matrix) <= 1e-10 * scale

    def test_orthonormal_eigenvectors(self):
        g, _, ham = double_well_system(4)
        eig = w.eigensolve(ham)
        assert np.abs(eig.states.T @ eig.states - np.eye(16)).max() < 1e-12

    def test_sign_convention(self):
        g, _, ham = double_well_system(4)
        eig = w.eigensolve(ham)
        for j in range(16):
            col = eig.states[:, j]
            nz = np.nonzero(np.abs(col) > 1e-12)[0]
            assert col[nz[0]] > 0

    @staticmethod
    def loop_signs(states):
        '''The per-column sign loop eigensolve used to run, as the
        reference.'''
        states = states.copy()
        for j in range(states.shape[1]):
            col = states[:, j]
            nz = np.nonzero(np.abs(col) > 1e-12)[0]
            if len(nz) and col[nz[0]] < 0:
                states[:, j] = -col
        return states

    @pytest.mark.parametrize("n", range(1, 10))
    def test_signs_match_loop_reference(self, n):
        g, _, ham = double_well_system(n)
        energies, states = eigh(ham.matrix)
        eig = w.eigensolve(ham)
        assert np.array_equal(eig.energies, energies)
        assert np.array_equal(eig.states, self.loop_signs(states))

    def test_signs_skip_tiny_leading_entries(self):
        # three far-off levels couple to the rest by 1e-14, so the other
        # eigenvectors start with entries below 1e-12 of either sign
        rng = np.random.default_rng(11)
        h = rng.normal(size=(12, 12))
        h = h + h.T
        h[:3], h[:, :3] = 0, 0
        h[:3, :3] = np.diag([50.0, 60.0, 70.0])
        tiny = 1e-14 * rng.normal(size=(3, 9))
        h[:3, 3:], h[3:, :3] = tiny, tiny.T
        energies, states = eigh(h)
        lead = np.abs(states[0])
        assert ((lead > 0) & (lead < 1e-12)).sum() >= 5
        assert (states[0, :9] < 0).any() and (states[0, :9] > 0).any()
        assert np.array_equal(w.eigensolve(h).states, self.loop_signs(states))

    def test_reversal_symmetry_commutes(self):
        g, pot, ham = double_well_system(5)
        r = np.eye(32)[::-1]
        h = ham.matrix
        assert np.linalg.norm(h @ r - r @ h) <= 1e-12 * np.linalg.norm(h)

'''wavecirc.lapack: scipy's LAPACK extension loaded without the
scipy.linalg package, and eigh on its drivers bit-identical to
scipy.linalg.eigh.  The loader's own path runs in new interpreters: this
one has usually imported scipy.linalg already.'''

import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

import wavecirc as w
from wavecirc import lapack, qsd


def run_fresh(code):
    '''Run `code` in a new interpreter with this checkout's src/ on its
    path; fails the test unless it exits 0.'''
    src = os.path.dirname(os.path.dirname(w.__file__))
    res = subprocess.run([sys.executable, "-c", code],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr


def test_eigh_bit_identical_to_scipy_without_linalg():
    run_fresh('''
import sys
import numpy as np
from wavecirc import lapack
from wavecirc.grid import _fix_signs

rng = np.random.default_rng(7)
mats = []
for n in (1, 2, 5, 64, 1024):
    a = rng.normal(size=(n, n))
    z = a + 1j * rng.normal(size=(n, n))
    mats += [a + a.T, z + z.conj().T]
# every eigenvalue four times over
b = rng.normal(size=(16, 16))
mats.append(np.kron(np.eye(4), b + b.T))
ours = [lapack.eigh(m) for m in mats]
assert "scipy.linalg" not in sys.modules
assert lapack.flapack().__name__ == "scipy.linalg._flapack"

import scipy.linalg
for m, (e, v) in zip(mats, ours):
    ref_e, ref_v = scipy.linalg.eigh(m)
    assert e.dtype == ref_e.dtype and v.dtype == ref_v.dtype
    assert np.array_equal(e, ref_e), m.shape
    assert np.array_equal(_fix_signs(v), _fix_signs(ref_v)), m.shape
''')


SCIPY_CALLS = '''
import numpy as np
import scipy.linalg
from scipy.interpolate import PchipInterpolator
a = np.diag([3.0, 1.0, 2.0]) + 0.1
assert np.allclose(scipy.linalg.eigh(a)[0], np.linalg.eigvalsh(a))
q = np.linalg.qr(np.arange(16.0).reshape(4, 4) ** 0.5 + np.eye(4))[0]
u, cs, vdh = scipy.linalg.cossin(q, p=2, q=2)
assert np.allclose(u @ cs @ vdh, q)
f = PchipInterpolator([0, 1, 2], [0, 1, 4])
assert np.allclose(f([0, 1, 2]), [0, 1, 4]) and 1 < f(1.5) < 4
'''

LOADER_CALLS = '''
import numpy as np
from wavecirc import lapack
e, v = lapack.eigh(np.array([[2.0, 1.0], [1.0, 2.0]]))
assert np.allclose(e, [1, 3])
'''


@pytest.mark.parametrize("first, then", [
    (LOADER_CALLS, SCIPY_CALLS), (SCIPY_CALLS, LOADER_CALLS)],
    ids=["loader-first", "scipy-first"])
def test_scipy_works_beside_the_loader(first, then):
    run_fresh(first + then + '''
import scipy.linalg
assert lapack.flapack().dsyevr is scipy.linalg.lapack.dsyevr
assert scipy.linalg._flapack.zgees is scipy.linalg.lapack.zgees
''')


def test_qsd_fallback_equals_scipy_lapack_drivers():
    # the fallback on the loader's module, then on scipy.linalg.lapack's
    run_fresh('''
import sys
import numpy as np
from wavecirc import lapack, qsd

rng = np.random.default_rng(3)
def unitaries(k, n):
    z = rng.normal(size=(k, n, n)) + 1j * rng.normal(size=(k, n, n))
    return np.linalg.qr(z)[0]
stacks = [unitaries(3, n) for n in (8, 16, 32, 64, 128)]
def fallbacks():
    return [(qsd._csd_lapack(u), qsd._schur_lapack(u)) for u in stacks]
ours = fallbacks()
assert "scipy.linalg" not in sys.modules

import scipy.linalg.lapack
lapack.flapack = lambda: scipy.linalg.lapack
qsd._csd_lwork.cache_clear()
qsd._schur_lwork.cache_clear()
for (csd, schur), (ref_csd, ref_schur) in zip(ours, fallbacks()):
    for x, y in zip(csd + schur, ref_csd + ref_schur):
        assert np.array_equal(x, y)
''')


@pytest.fixture
def fresh_loader():
    '''The loader's cache cleared before and after the test.'''
    lapack.flapack.cache_clear()
    yield
    lapack.flapack.cache_clear()


def test_public_module_when_no_extension_found(monkeypatch, fresh_loader):
    class NoSpec:
        def __init__(self, *args):
            pass

        def find_spec(self, name):
            return None
    monkeypatch.setattr(lapack, "FileFinder", NoSpec)
    monkeypatch.delitem(sys.modules, lapack.NAME, raising=False)
    assert lapack.flapack() is scipy.linalg.lapack
    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    e, v = lapack.eigh(a)
    ref_e, ref_v = scipy.linalg.eigh(a)
    assert np.array_equal(e, ref_e) and np.array_equal(v, ref_v)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_raises_scipys_value_error(bad):
    a = np.eye(3)
    a[1, 2] = a[2, 1] = bad
    with pytest.raises(ValueError) as ref:
        scipy.linalg.eigh(a)
    with pytest.raises(ValueError) as ours:
        lapack.eigh(a)
    assert str(ours.value) == str(ref.value)
    with pytest.raises(ValueError, match=str(ref.value)):
        w.eigensolve(a)


def test_eigensolve_in_process_matches_scipy():
    rng = np.random.default_rng(11)
    z = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
    for h in ((z + z.T).real, z + z.conj().T):
        eig = w.eigensolve(h)
        ref_e, ref_v = scipy.linalg.eigh(h)
        assert np.array_equal(eig.energies, ref_e)
        assert np.array_equal(eig.states, w.grid._fix_signs(ref_v))

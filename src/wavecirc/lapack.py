'''scipy's LAPACK drivers without the scipy.linalg package.

wavecirc needs four drivers beyond numpy: dsyevr/zheevr behind
`scipy.linalg.eigh`, and zuncsd/zgees behind the QSD fallback.  They live
in scipy's f2py extension scipy.linalg._flapack, which `flapack` loads by
itself: `import scipy.linalg` runs the package's __init__, whose array-API
layer clones numpy's namespace (numpy.testing, numpy.f2py, numpy.ma, ...)
for about 0.25 s and 20 MB that no wavecirc command uses.  The extension
holds the same routine objects that scipy.linalg.lapack re-exports, and
`eigh` calls them with the arguments scipy.linalg.eigh passes by default,
so its results are bit-identical to scipy's.
'''

import sys
from functools import lru_cache
from importlib.machinery import (EXTENSION_SUFFIXES, ExtensionFileLoader,
                                 FileFinder)
from importlib.util import module_from_spec
from pathlib import Path

import numpy as np

NAME = "scipy.linalg._flapack"


@lru_cache(maxsize=None)
def flapack():
    '''scipy's Fortran LAPACK module: the one already loaded, else the
    extension loaded on its own, else scipy.linalg.lapack, the public
    module that re-exports the same routines.'''
    if NAME in sys.modules:
        return sys.modules[NAME]
    import scipy    # its __init__ readies the bundled libraries
    # a finder on the one directory: importlib.util.find_spec would import
    # the parent package
    finder = FileFinder(str(Path(scipy.__file__).parent / "linalg"),
                        (ExtensionFileLoader, EXTENSION_SUFFIXES))
    spec = finder.find_spec(NAME)
    if spec is None:
        from scipy.linalg import lapack
        return lapack
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    # creating the module registered it in sys.modules; taken out again,
    # a later `import scipy.linalg` loads it as usual, binds it on the
    # package, and gets the same routine objects from the interpreter's
    # cache of extension modules
    sys.modules.pop(NAME, None)
    return module


def eigh(h):
    '''(ascending eigenvalues, eigenvectors) of a real symmetric or complex
    Hermitian matrix from its lower triangle: scipy.linalg.eigh(h) with
    its default driver, dsyevr or zheevr, and the same workspace sizes.
    A non-finite entry raises ValueError, as there.'''
    a = np.asarray_chkfinite(h)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError('expected square "a" matrix')
    n = a.shape[0]
    if np.iscomplexobj(a):
        name, sizes = "zheevr", ("lwork", "lrwork", "liwork")
    else:
        name, sizes = "dsyevr", ("lwork", "liwork")
    lib = flapack()
    *work, info = getattr(lib, name + "_lwork")(n=n, lower=1)
    if info:
        raise ValueError(
            f"Internal work array size computation failed: {info}")
    lwork = {k: int(x.real) for k, x in zip(sizes, work)}
    w, v, *_, info = getattr(lib, name)(a=a, overwrite_a=0, lower=1,
                                        compute_v=1, **lwork)
    if info > 0:
        raise np.linalg.LinAlgError(f"{name} failed with info={info}")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of {name}")
    return w, v

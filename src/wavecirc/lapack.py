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

`one_blas_thread` sets every OpenBLAS thread pool in the process to one
thread for its body.  numpy and scipy each bundle their own OpenBLAS
(numpy's runs np.linalg and matmul, scipy's these drivers), each with a
pool of one thread per core.  The two parity blocks run in two
processes (`dynamics._parity_processes`), and there the default pools,
two threads each in each process, would share the 2 cores of the
reference machine: the two pools of a process contend, the two
processes contend, and threads that spin between calls bill CPU for no
work.  So each of the two processes runs one BLAS thread: wavebench
`compile-check` CPU fell 5.17 -> 3.30 s and wall 2.99 -> 2.32 s
(medians of 10 pairs, BENCH_e2e.json).  No other code enters the scope:
a lone process keeps threaded BLAS, as for the 1024^2 solves of a
`spectrum` at N=11.
'''

import os
import sys
from contextlib import contextmanager
from functools import lru_cache
from importlib.machinery import (EXTENSION_SUFFIXES, ExtensionFileLoader,
                                 FileFinder)
from importlib.util import module_from_spec
from itertools import product
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


# the C thread-count entry points of an OpenBLAS build: plain, or with
# the prefix and symbol suffix of the scipy-openblas wheels (numpy's
# 64-bit integer build adds 64_)
POOL_SYMBOLS = [(f"{prefix}openblas_get_num_threads{suffix}",
                 f"{prefix}openblas_set_num_threads{suffix}")
                for prefix, suffix in product(("", "scipy_"), ("", "64_"))]
# the function an OpenBLAS pthreads build runs before a fork: it stops
# the pool's threads, and the next threaded call starts them again
POOL_STOP = "blas_thread_shutdown_"


def _openblas_pools():
    '''(get, set, stop) functions of each OpenBLAS library mapped into
    this process, found by name in /proc/self/maps: the pool's thread
    count, its setter, and the stop of its threads (None where the
    library has none); no pools where that file does not exist.'''
    try:
        with open("/proc/self/maps") as fh:
            fields = [line.split(maxsplit=5) for line in fh]
    except OSError:
        return []
    paths = sorted({f[5].strip() for f in fields if len(f) == 6
                    and "openblas" in os.path.basename(f[5]).lower()})
    import ctypes
    pools = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in POOL_SYMBOLS:
            get = getattr(lib, get_name, None)
            set_threads = getattr(lib, set_name, None)
            if get is not None and set_threads is not None:
                get.argtypes, get.restype = (), ctypes.c_int
                set_threads.argtypes = (ctypes.c_int,)
                set_threads.restype = None
                pools.append((get, set_threads,
                              getattr(lib, POOL_STOP, None)))
                break
    return pools


@contextmanager
def one_blas_thread():
    '''Scope in which every OpenBLAS pool of the process runs one
    thread: numpy's, and scipy's, which `flapack` loads first if it is
    not loaded yet.  A process forked inside inherits the settings.  On
    exit, by an exception too, each pool gets back its previous thread
    count, and then its threads are stopped, as before a fork: setting
    the count of a pool that a fork stopped starts its threads at once,
    and each would spin idle for about 65 ms of CPU before it sleeps;
    stopped, they start again at the pool's next threaded call.  Where
    no OpenBLAS is found the scope does nothing.  Enter it only where no
    other thread of the process calls BLAS.'''
    flapack()
    pools = _openblas_pools()
    previous = [get() for get, _, _ in pools]
    try:
        for _, set_threads, _ in pools:
            set_threads(1)
        yield
    finally:
        for (_, set_threads, stop), count in zip(pools, previous):
            set_threads(count)
            if stop is not None:
                stop()

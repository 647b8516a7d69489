'''scipy's LAPACK drivers without the scipy.linalg package.

wavecirc needs five drivers beyond numpy: dsyevr/zheevr behind
`scipy.linalg.eigh`, dsbevd behind `build`'s band eigenvalues, and
zuncsd/zgees behind the QSD fallback.  They live in scipy's f2py
extension scipy.linalg._flapack, which `flapack` loads by itself:
`import scipy.linalg` runs the package's __init__, whose array-API
layer clones numpy's namespace (numpy.testing, numpy.f2py, numpy.ma, ...)
for about 0.25 s and 20 MB that no wavecirc command uses.  The extension
holds the same routine objects that scipy.linalg.lapack re-exports, and
`eigh` calls them with the arguments scipy.linalg.eigh passes by default,
so its results are bit-identical to scipy's.

`_parity_processes` runs two calls at once, the second in a worker
forked for the call, optionally into one shared output array: the
parity blocks of the circuit routes' compiled evolution, of `compile`
and of the eigensolves of `givens.FORK_MIN_DIM` rows or more, and the
halves of the exact evolution loop and of the grid spectrum at that
size.  Both processes run in `one_blas_thread`, which sets every
OpenBLAS thread pool in the process to one thread for its body.  numpy
and scipy each bundle their own OpenBLAS (numpy's runs np.linalg and
matmul, scipy's these drivers), each with a pool of one thread per core
by default.  In two processes those pools, two threads each in each
process, would share the 2 cores of the reference machine: the two pools
of a process contend, the two processes contend, and threads that spin
between calls bill CPU for no work.  So each of the two processes runs
one BLAS thread: wavebench `compile-check` CPU fell 5.17 -> 3.30 s and
wall 2.99 -> 2.32 s when that scope came in (medians of 10 pairs).  A
CLI process runs its pools at one thread from its start
(`wavecirc.__main__`), so there the scope changes nothing; the library,
imported on its own, keeps threaded pools outside the scope.
'''

import mmap
import os
import pickle
import signal
import sys
import threading
from contextlib import contextmanager
from functools import lru_cache, partial
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


def band_eigenvalues(h, kd):
    '''The ascending eigenvalues of the real symmetric matrix whose lower
    triangle is that of `h`, zero below subdiagonal `kd`: dsbevd on that
    lower band without eigenvectors, as scipy.linalg.eig_banded(band,
    lower=True, eigvals_only=True) calls it.  A nonzero info raises
    LinAlgError.'''
    band = np.zeros((kd + 1, len(h)))
    for k in range(kd + 1):
        band[k, :len(h) - k] = np.diagonal(h, -k)
    w, _, info = flapack().dsbevd(band, compute_v=0, lower=1)
    if info:
        raise np.linalg.LinAlgError(f"dsbevd failed with info={info}")
    return w


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


def _parity_processes(first, second, shape=None, dtype=float):
    '''(first(), second()), the two calls run at once: second in one
    worker forked for the call (`_worker`), whose result comes back
    pickled over a pipe, and first here.  Given `shape`, each call takes
    instead one zero-filled array of that shape and dtype in anonymous
    MAP_SHARED memory to write its rows into, and that array is the
    result: the worker's rows reach it without a pipe or a copy.  Both
    processes run in `one_blas_thread`: with the default pools, two
    processes of two BLAS threads each would share the 2 cores of the
    reference machine, where a mid-size BLAS call ran 50-100x slower
    while another process kept the cores busy.

    An exception of the worker is raised here; a worker that dies
    without reporting raises ChildProcessError.  The worker is joined on
    every path, and killed first when this process fails; it dies when
    this process dies.  OpenBLAS stops its thread pool around a fork, so
    the worker starts with a usable BLAS and this process forks with one
    thread.  Without `os.fork`, or while another Python thread runs here
    (a child could inherit a lock that thread holds, and the BLAS pools
    that the scope would set are that thread's too), the calls run in
    turn, `first` before `second`, with the BLAS pools as they are.
    '''
    if shape is not None:
        count = int(np.prod(shape))
        out = np.frombuffer(mmap.mmap(-1, max(1, count * np.dtype(
            dtype).itemsize)), dtype, count).reshape(shape)
        _parity_processes(partial(first, out), partial(second, out))
        return out
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return first(), second()
    with one_blas_thread():
        read_fd, write_fd = os.pipe()
        parent = os.getpid()
        pid = os.fork()
        if pid == 0:
            _worker(parent, read_fd, write_fd, second)
        os.close(write_fd)
        try:
            with open(read_fd, "rb") as pipe:
                here = first()
                report = pipe.read()
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            _, status = os.waitpid(pid, 0)
    if status or not report:
        raise ChildProcessError(
            f"the forked worker exited with status "
            f"{os.waitstatus_to_exitcode(status)} without a result")
    done, there = pickle.loads(report)
    if not done:
        raise there
    return here, there


# prctl option: the signal a process gets when its parent dies (Linux)
PR_SET_PDEATHSIG = 1


def _worker(parent, read_fd, write_fd, call):
    '''Body of the forked worker of the process `parent`: runs `call()`,
    writes its report (`_report`) to the pipe `write_fd`, and leaves by
    os._exit (status 0 once it has reported), so that no inherited exit
    handler or buffered output runs twice.  It dies with its parent: on
    Linux the kernel sends it SIGKILL when the parent dies, and it
    leaves at once when the parent died before that was set up.  Never
    returns.'''
    code = 1
    try:
        if sys.platform.startswith("linux"):
            import ctypes
            prctl = ctypes.CDLL(None).prctl
            prctl.argtypes, prctl.restype = (ctypes.c_int,
                                             ctypes.c_ulong), ctypes.c_int
            prctl(PR_SET_PDEATHSIG, signal.SIGKILL)
        if os.getppid() != parent:
            return
        os.close(read_fd)
        with open(write_fd, "wb") as pipe:
            pipe.write(_report(call))
        code = 0
    finally:
        os._exit(code)


def _report(call):
    '''(True, call()) pickled, or (False, the exception) when call raises
    or its result does not pickle; an exception that does not pickle
    becomes a RuntimeError with its message.'''
    try:
        return pickle.dumps((True, call()))
    except Exception as exc:
        try:
            return pickle.dumps((False, exc))
        except Exception:
            return pickle.dumps(
                (False, RuntimeError(f"{type(exc).__name__}: {exc}")))

'''`python -m wavecirc` and the `wavecirc` console script: the CLI
(`cli.main`) in a process whose OpenBLAS pools run one thread each.

numpy and scipy each start an OpenBLAS pool of one thread per core when
they load.  A CLI process takes its parallelism from the two parity-block
processes instead (`lapack._parity_processes`), and there, as in a lone
process, threaded pools cost CPU for little wall time: threads that spin
idle after each call, and on the benchmark's grid-map 1.76 s of CPU for
0.43 s of wall.  So `main` sets OPENBLAS_NUM_THREADS to 1 before numpy
loads, unless it is set already: a value the user set is kept.  The
library, imported on its own, keeps the default pools.
'''

import os
import sys


def main(argv=None):
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from .cli import main as cli_main
    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())

"""Time one set-up of a workload in a fresh interpreter.

    python3 bench/setup_child.py WORKLOAD SEED WORKDIR

Prints the seconds from before `import caggnet` until the workload's
model is ready. `bench/run.py` starts it several times per run and
reports the median as `setup_s`.
"""

import sys
import time
from pathlib import Path

from caggbench import env

env.pin_threads()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(name: str, seed: str, workdir: str) -> None:
    t0 = time.perf_counter()
    from caggbench import workloads

    prog = workloads.import_program()
    workloads.WORKLOADS[name](prog, int(seed), Path(workdir))
    seconds = time.perf_counter() - t0
    env.check_threads()
    print(repr(seconds))


if __name__ == "__main__":
    main(*sys.argv[1:])

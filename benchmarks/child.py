"""One workload run in a fresh interpreter; started by run.py.

Usage: python3 child.py '<json config>'

The config names the checkout root, the workload, seed, scale, whether to
trace, and the time.monotonic() reading taken just before this process was
started.  The package is imported from <root>/src, so the run measures the
checkout's own source.  The result is printed as one JSON line.
"""

import json
import platform
import sys
from pathlib import Path


def main() -> int:
    config = json.loads(sys.argv[1])
    src = Path(config["root"]) / "src"
    sys.path.insert(0, str(src))

    import setshaping

    if not Path(setshaping.__file__).resolve().is_relative_to(src.resolve()):
        print(f"imported {setshaping.__file__}, not the checkout's", file=sys.stderr)
        return 2

    import numpy
    import scipy

    from tracing import NullTracer, Tracer
    from workloads import MC_THREADS, WORKLOADS, execute

    workload = WORKLOADS[config["workload"]](config["seed"], config["scale"])
    tracer = Tracer(workload.name) if config["trace"] else NullTracer()
    result = execute(workload, tracer, config["spawned_at"])
    result["provenance"] = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "setshaping": setshaping.__version__,
        "mc_threads": MC_THREADS,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One repetition of a workload, in a fresh process.

    python3 child.py <spec.json>

The spec names the commands (`chain-elastica` argument lists, each with its
own output directory), whether to trace, and where to write the result JSON.
Import time of chain_elastica is measured first, so nothing here may import
numpy or the library before that.
"""

import json
import os
import resource
import sys
import time
import traceback


def main():
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)

    t0 = time.perf_counter()
    import chain_elastica.cli
    setup_s = time.perf_counter() - t0

    tracer = None
    if spec["trace"]:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    errors = {}
    t1 = time.perf_counter()
    for name, argv in spec["commands"]:
        out = os.path.join(spec["out"], name)
        try:
            code = chain_elastica.cli.main(argv + ["--out", out])
            if code != 0:
                errors[name] = f"exit code {code}"
        except Exception:  # a failed command fails its operations; go on
            errors[name] = traceback.format_exc(limit=3)
    wall_s = time.perf_counter() - t1

    result = {"setup_s": setup_s, "wall_s": wall_s, "errors": errors}
    if tracer is not None:
        tracer.restore()
        result["layers"] = tracer.metrics()
        tracer.write_spans(os.path.join(spec["out"], "spans.jsonl"))
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)

    import numpy
    import scipy
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    result["versions"] = {
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}"}
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()

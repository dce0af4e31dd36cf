"""One repetition of a workload in a fresh interpreter.

    python3 perfbench/child.py <src-dir> <workload> <seed> <trace 0|1> <out.json> <spawn-time>

`spawn-time` is the parent's `time.monotonic()` just before it started this
process, so the import time reported spans interpreter start-up plus
`import zetalab`.  The sieve cache and output directories come from the
environment (LAB_SIEVE_CACHE, BENCH_OUT_DIR) and are fresh per repetition.
"""

import math
import os
import sys
import time

# only the standard library is imported before `import zetalab` is timed
VOLATILE = frozenset({"elapsed_s"})   # per-suite metrics that vary from run to run


def _finite(v) -> bool:
    return isinstance(v, (int, float)) and math.isfinite(v)


def run_suites(experiments, suites, seed: int, out_dir: str, tracer=None) -> tuple[list, float]:
    """Run `suites` in order; per suite: wall time, metrics, verdicts, error."""
    rows = []
    t_start = time.perf_counter()
    for name, params in suites:
        config = experiments.ExperimentConfig(experiment=name, seed=seed,
                                              out_dir=os.path.join(out_dir, name),
                                              params=dict(params))
        row = {"suite": name, "error": None, "metrics": {}, "passes": {}}
        t0 = time.perf_counter()
        try:
            if tracer is None:
                record = experiments.run(config)
            else:
                with tracer.span(f"suite.{name}"):
                    record = experiments.run(config)
        except Exception as exc:   # a failing suite is a result, not a crash
            row["error"] = f"{type(exc).__name__}: {exc}"
        else:
            row["metrics"] = {k: float(v) for k, v in record.metrics.items()}
            row["passes"] = {k: bool(v) for k, v in record.passes.items()}
        row["wall_s"] = time.perf_counter() - t0
        row["nonfinite"] = sorted(k for k, v in row["metrics"].items() if not _finite(v))
        # exact text of every stable metric, compared across repetitions
        row["stable"] = {k: repr(v) for k, v in row["metrics"].items() if k not in VOLATILE}
        rows.append(row)
    return rows, time.perf_counter() - t_start


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, when it says."""
    import ctypes
    import glob

    import numpy
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for lib in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main(argv: list[str]) -> None:
    src, workload, seed, trace, out_path, spawned = argv
    sys.path.insert(0, src)
    import zetalab  # noqa: F401  (the import is what is timed)
    import_s = time.monotonic() - float(spawned)

    import importlib
    import json
    import resource

    import layers
    from tracer import Tracer
    from workloads import WORKLOADS

    modules = {name: importlib.import_module(f"zetalab.{name}") for name in layers.TRACED}
    suites = WORKLOADS[workload]
    tracer = None
    if trace == "1":
        tracer = Tracer()
        layers.install(tracer, modules)
    try:
        rows, wall = run_suites(modules["experiments"], suites, int(seed),
                                os.environ["BENCH_OUT_DIR"], tracer)
    finally:
        if tracer is not None:
            tracer.unpatch()
    result = {"import_s": import_s, "wall_s": wall, "suites": rows,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "blas_threads": blas_threads()}
    if tracer is not None:
        per_layer = layers.layer_metrics(tracer, [name for name, _ in suites])
        # accuracy beside speed, measured after every timed span has closed
        per_layer["zeta.oracle_rel_gap_max"] = layers.oracle_gap(
            tracer.samples.get("zeta_critical", []), modules["zeta"].relative_gap)
        result["per_layer"] = per_layer
    with open(out_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])

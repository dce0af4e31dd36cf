"""zetalab benchmark: run one workload's suite sequence and print its metrics.

    python3 perfbench/run.py --workload model_mc --seed 1 --seconds 14 --trace 0

Run from the root of a source checkout (the package is imported from
`src/`).  Each repetition is a fresh interpreter with a fresh, empty sieve
cache directory and output directory.  A new repetition starts while the
median repetition still fits in `--seconds`, and there are at least two, so
the same-seed reproducibility check always has a pair.  With `--trace 0` the last line holds the end-to-end metrics; with
`--trace 1` untraced and traced repetitions alternate and the last line holds
the per-layer metrics.  The line before it is a report with the environment
stamp, per-suite times and criterion verdicts.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

import layers
from workloads import SIZE_DEPENDENT, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_REPS = 2
RUN_LIMIT_S = 170.0     # hard stop for one invocation


class BenchError(RuntimeError):
    pass


def _median(values) -> float:
    return float(statistics.median(values))


def run_child(workload: str, seed: int, trace: str, work: Path, rep: int,
              timeout: float) -> dict:
    rep_dir = work / f"rep{rep}"
    cache, out = rep_dir / "sieve_cache", rep_dir / "out"
    cache.mkdir(parents=True)
    out.mkdir()
    env = dict(os.environ, LAB_SIEVE_CACHE=str(cache), BENCH_OUT_DIR=str(out))
    result_path = rep_dir / "result.json"
    log_path = rep_dir / "child.log"
    with open(log_path, "w") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(SRC), workload, str(seed), trace,
             str(result_path), repr(spawned)],
            cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT)
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"repetition {rep} still running after {RUN_LIMIT_S:.0f} s") from None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if code != 0 or not result_path.exists():
        raise BenchError(f"repetition {rep} exited with {code}:\n"
                         + log_path.read_text()[-4000:])
    result = json.loads(result_path.read_text())
    result["trace"] = trace
    shutil.rmtree(rep_dir)
    return result


def run_reps(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> list[dict]:
    t_start = time.monotonic()
    reps: list[dict] = []
    durations: list[float] = []
    while True:
        mode = "1" if trace and len(reps) % 2 == 1 else "0"
        remaining = RUN_LIMIT_S - (time.monotonic() - t_start)
        t0 = time.monotonic()
        reps.append(run_child(workload, seed, mode, work, len(reps), remaining))
        durations.append(time.monotonic() - t0)
        elapsed = time.monotonic() - t_start
        if len(reps) >= MIN_REPS and elapsed + _median(durations) > seconds:
            return reps


def check(reps: list[dict]) -> tuple[int, int, list[str], dict]:
    """(attempted, failed, failure reasons, size-dependent verdict tallies)."""
    attempted = failed = 0
    reasons: list[str] = []
    verdicts: dict[str, dict[str, int]] = {}
    first = {row["suite"]: row["stable"] for row in reps[0]["suites"]}
    for i, rep in enumerate(reps):
        for row in rep["suites"]:
            attempted += 1
            why = []
            if row["error"]:
                why.append(f"raised {row['error']}")
            if row["nonfinite"]:
                why.append(f"non-finite {row['nonfinite']}")
            for crit, ok in sorted(row["passes"].items()):
                if crit in SIZE_DEPENDENT:
                    tally = verdicts.setdefault(crit, {"pass": 0, "fail": 0})
                    tally["pass" if ok else "fail"] += 1
                elif not ok:
                    why.append(f"{crit} failed")
            if row["stable"] != first[row["suite"]]:
                why.append("metrics differ from repetition 0 (same seed)")
            if why:
                failed += 1
                reasons.append(f"rep {i} {row['suite']}: " + "; ".join(why))
    return attempted, failed, reasons, verdicts


def suite_walls(reps: list[dict]) -> dict[str, float]:
    walls: dict[str, list[float]] = {}
    for rep in reps:
        for row in rep["suites"]:
            walls.setdefault(row["suite"], []).append(row["wall_s"])
    return {name: _median(v) for name, v in walls.items()}


def end_to_end(untraced: list[dict], walls: dict[str, float]) -> dict[str, float]:
    slowest = max(walls, key=walls.get)
    rest = [r["wall_s"] - next(row["wall_s"] for row in r["suites"] if row["suite"] == slowest)
            for r in untraced]
    return {
        "wall_s": _median([r["wall_s"] for r in untraced]),
        "setup_s": _median([r["import_s"] for r in untraced]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in untraced]),
        "suite_max_s": walls[slowest],
        "suite_rest_s": _median(rest),
    }


def per_layer(untraced: list[dict], traced: list[dict], walls: dict[str, float]) -> tuple[dict, list[str]]:
    """Per-layer metrics: medians over traced repetitions; counts must repeat."""
    rows = [r["per_layer"] for r in traced]
    problems = []
    out: dict[str, float] = {}
    for key in rows[0]:
        values = [row[key] for row in rows]
        exact = key in layers.EXACT_COUNTERS or key.endswith(".calls")
        if exact and len(set(values)) > 1:
            problems.append(f"count {key} differs between traced repetitions: {values}")
        out[key] = values[0] if exact else _median(values)
    for name in sorted({s for suites in WORKLOADS.values() for s, _ in suites}):
        out[f"suite.{name}_s"] = walls.get(name, 0.0)
    out["trace_overhead_s"] = (_median([r["wall_s"] for r in traced])
                               - _median([r["wall_s"] for r in untraced]))
    gaps = [row["metrics"].get("rs_vs_em_worst", 0.0)
            for r in untraced for row in r["suites"] if row["suite"] == "moments_zeta"]
    out["zeta.rs_vs_em_gap_max"] = max(gaps, default=0.0)
    return out, problems


def metric_units() -> dict[str, str]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}


def environment(seed: int, reps: list[dict]) -> dict:
    versions = {}
    for pkg in ("numpy", "scipy", "mpmath"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    sha = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=10)
            sha = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass   # no git: the stamp says null
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "python": sys.version.split()[0], **versions, "git_sha": sha,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": reps[0].get("blas_threads"), "seed": seed,
        "src_lines": src_lines,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "zetalab" / "__init__.py").is_file():
        print(f"error: no zetalab package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    # SIGTERM unwinds like an error so the running repetition is stopped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        reps = run_reps(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untraced = [r for r in reps if r["trace"] == "0"]
    traced = [r for r in reps if r["trace"] == "1"]
    attempted, failed, reasons, verdicts = check(reps)
    walls = suite_walls(untraced)
    units = metric_units()
    if args.trace:
        metrics, problems = per_layer(untraced, traced, walls)
        reasons += problems
    else:
        metrics = end_to_end(untraced, walls)
    report = {
        "workload": args.workload,
        "environment": environment(args.seed, reps),
        "params": {name: params for name, params in WORKLOADS[args.workload]},
        "repetitions": [{"trace": r["trace"], "wall_s": r["wall_s"], "import_s": r["import_s"]}
                        for r in reps],
        "suites": {name: {"value": v, "unit": "s"} for name, v in walls.items()},
        "suites_failed": {"value": failed / attempted, "unit": "1"},
        "size_dependent_verdicts": verdicts,
        "failures": reasons,
    }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not reasons,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of qusecnets on synthetic tensors.

    python3 perfbench/run.py --workload train_tq --seed 0 --seconds 20 --trace 0

Workloads: train_tq, sweep_fgsm, jsma_cifar, or `all` to run each in turn.
With --trace 0 the run reports the end-to-end metrics (setup_s, peak_rss_mb,
images_per_s); with --trace 1 it reports the per-layer metrics from a traced
run instead and writes its spans under .perfbench_out/. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.

Every measurement happens in a fresh child process with its BLAS threads
pinned. set-up is timed in SETUP_REPEATS of them and the median reported;
the last child also runs the timed loop and reports its peak RSS.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_tmp"

# workload -> name of its images_per_s figure in the human-readable summary
HEADLINES = {
    "train_tq": "train_samples_per_s",
    "sweep_fgsm": "sweep_images_per_s",
    "jsma_cifar": "jsma_images_per_s",
}
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("images_per_s", "images/s", "higher"),
]
SETUP_REPEATS = 3
TIME_LIMIT_S = 170.0  # per workload, every child included
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
REQUIRED = ("src/qusecnets/__init__.py", "docs/report_schema.json")


class ChildFailed(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# child process: set up one workload, optionally run its timed loop
# ---------------------------------------------------------------------------

def _loop(work, seconds: float, tracer=None):
    """Operations back to back until the next one would end well past `seconds`."""
    samples = []
    start = time.perf_counter()
    last = 0.0
    while True:
        remaining = seconds - (time.perf_counter() - start)
        if samples and remaining < last / 2:
            return samples
        began = time.perf_counter()
        with tracer.traced() if tracer is not None else nullcontext():
            samples += work.op(remaining)
        last = time.perf_counter() - began


def _rates(samples):
    return [items / secs for items, secs, _ in samples if secs > 0]


def _child(args) -> dict:
    start = time.perf_counter()  # set-up includes importing numpy and qusecnets
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import workloads

    scale = workloads.TINY if args.tiny else workloads.FULL
    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK_DIR))
    try:
        work = workloads.WORKLOADS[args.workload](args.seed, scale, ROOT, workdir)
        out = {"setup_s": time.perf_counter() - start, "checks": work.checks}
        if args.child == "setup":
            return out
        if not args.trace:
            out["samples"] = _loop(work, args.seconds)
        else:
            import spans

            # untraced half first, traced half second: the pool counters then
            # see one boundary, not one per operation
            plain = _loop(work, args.seconds / 2)
            tracer = spans.Tracer()
            traced = _loop(work, args.seconds / 2, tracer)
            out["samples"] = plain + traced
            overhead = spans.overhead_pct(_rates(plain), _rates(traced))
            out["layers"] = spans.layer_metrics(tracer, len(traced), overhead)
            OUT_DIR.mkdir(exist_ok=True)
            tag = f"{args.workload}-seed{args.seed}" + ("-tiny" if args.tiny else "")
            path = OUT_DIR / f"spans-{tag}.json"
            path.write_text(json.dumps({"spans": tracer.dump(), "ops": len(traced)}))
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        out["numpy"] = {"version": np.__version__, "blas": blas.get("name"),
                        "blas_version": blas.get("version"),
                        "blas_config": blas.get("openblas configuration")}
        return out
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# ---------------------------------------------------------------------------
# parent process: spawn children, aggregate, print
# ---------------------------------------------------------------------------

def _spawn(role: str, workload: str, args, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--child", role,
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    threads = str(BLAS_THREADS)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildFailed(f"{workload}: out of time before the {role} child")
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{workload}: {role} child exceeded the time limit") from None
    if proc.returncode != 0:
        raise ChildFailed(f"{workload}: {role} child exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qusecnets").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _environment(numpy_info: dict) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy_info,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "git_commit": _git_commit(),
        "src_sha256": _source_sha256(),
    }


def _describe(values) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    return f"n={len(values)}, min {min(values):.4g}, max {max(values):.4g}"


def _run_workload(workload: str, args) -> dict:
    """Spawn the children for one workload and aggregate their results."""
    deadline = time.monotonic() + TIME_LIMIT_S
    setups = [] if args.trace else [
        _spawn("setup", workload, args, deadline) for _ in range(SETUP_REPEATS - 1)]
    measured = _spawn("measure", workload, args, deadline)
    checks = [ok for child in setups + [measured] for ok in child["checks"]]
    samples = measured["samples"]
    attempted = len(samples) + len(checks)
    failed = sum(1 for *_, ok in samples if not ok) + sum(1 for ok in checks if not ok)
    rates = _rates(samples)
    setup_values = [child["setup_s"] for child in setups + [measured]]
    if args.trace:
        metrics = measured["layers"]
        lines = [f"  {name} = {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    else:
        values = {"setup_s": statistics.median(setup_values),
                  "peak_rss_mb": measured["peak_rss_mb"],
                  "images_per_s": statistics.median(rates) if rates else 0.0}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in END_TO_END}
        lines = [
            f"  setup_s = {metrics['setup_s']['value']:.4f} s  "
            f"(median of {_describe(setup_values)})",
            f"  peak_rss_mb = {metrics['peak_rss_mb']['value']:.1f} MB",
            f"  {HEADLINES[workload]} = {metrics['images_per_s']['value']:.4f} images/s  "
            f"(images_per_s, median of {_describe(rates)})",
        ]
    env = _environment(measured["numpy"])
    print(f"{workload} seed={args.seed} trace={args.trace}: "
          f"{attempted} operations checked, {failed} failed")
    print("\n".join(lines))
    print("env " + json.dumps(env, sort_keys=True))
    OUT_DIR.mkdir(exist_ok=True)
    record = {"workload": workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tiny": args.tiny, "env": env, "metrics": metrics,
              "attempted": attempted, "failed": failed, "setup_s": setup_values,
              "samples": samples}
    tag = f"{workload}-seed{args.seed}-trace{args.trace}" + ("-tiny" if args.tiny else "")
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(record, indent=1))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*HEADLINES, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true",
                   help="8x8x1 shapes and 3-conv tiny stack (smoke test)")
    p.add_argument("--child", choices=("setup", "measure"), help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    if args.child:
        print(json.dumps(_child(args)))
        return 0
    # turn SIGTERM into SystemExit, so that subprocess.run kills and reaps the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    missing = [rel for rel in REQUIRED if not (ROOT / rel).is_file()]
    if missing:
        print(f"perfbench: {ROOT / missing[0]} not found; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            result = _run_workload(args.workload, args)
        else:
            result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
            for workload, headline in HEADLINES.items():
                one = _run_workload(workload, args)
                result["correct"] &= one["correct"]
                result["attempted"] += one["attempted"]
                result["failed"] += one["failed"]
                for name, m in one["metrics"].items():
                    key = headline if name == "images_per_s" else f"{workload}.{name}"
                    result["metrics"][key] = m
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

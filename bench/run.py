"""Benchmark of the ringqed command line on three seeded workloads.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload design --seed 1 --seconds 20 --trace 0

Each workload runs in this one process as a closed loop with one client:
jobs go through ``ringqed.cli.main(argv)`` one after another, taken from
``src/`` of the checkout. An untraced run (``--trace 0``) repeats passes of
the workload's fixed job list until ``--seconds`` have passed and reports
the end-to-end metrics. A traced run (``--trace 1``) runs a fixed number
of passes once untraced and once with spans around each layer's public
functions, and reports the per-layer metrics and the tracing overhead.
Every job's output is checked. The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# set-ups per untraced run; setup_s is their median
SETUP_SAMPLES = 3
PROBE_TIMEOUT_S = 120


@dataclass
class Result:
    command: str
    seconds: float
    failure: str | None
    out: Path


class Runner:
    """Runs job lists through ``cli.main`` and checks every output."""

    def __init__(self, cli, checker, workdir: Path):
        self.cli = cli
        self.checker = checker
        self.workdir = workdir
        self.tracer = None
        self.commands = {}

    def run_pass(self, jobs, tag) -> list[Result]:
        pass_dir = self.workdir / tag
        results = []
        for i, job in enumerate(jobs):
            job_dir = pass_dir / ("j%02d" % i)
            out = job_dir / "out"
            original = results[job.replay_of].out if job.replay_of is not None else None
            if original is None:
                job_dir.mkdir(parents=True)
                config_path = job_dir / "config.json"
                config_path.write_text(json.dumps(job.config, indent=2) + "\n", encoding="utf-8")
            else:
                config_path = original / ("%s.meta.json" % job.command)
            argv = [job.command, str(config_path), "--out-dir", str(out), "--threads", str(job.threads)]
            job_id = len(self.commands)
            self.commands[job_id] = job.command
            started = time.perf_counter()
            try:
                if self.tracer is None:
                    code = self.cli.main(argv)
                else:
                    code = self.tracer.run_job(job_id, self.cli.main, argv)
            except Exception:  # a crashing job counts as failed; the run goes on
                traceback.print_exc()
                code = None
            seconds = time.perf_counter() - started
            if code is None:
                failure = "raised an exception"
            elif code != 0:
                failure = "exit code %d" % code
            else:
                try:
                    failure = self.checker.check(job, job.config, out, original)
                except (OSError, ValueError, KeyError, IndexError) as exc:
                    failure = "unreadable output: %s" % exc
            if failure:
                print("job %s %s failed: %s" % (tag, job.command, failure), file=sys.stderr)
            results.append(Result(job.command, seconds, failure, out))
        shutil.rmtree(pass_dir)
        return results


def set_up(workload: str, seed: int, workdir: Path):
    """Import the program, generate the inputs and run one warm-up job."""
    sys.path.insert(0, str(SRC))
    from ringqed import cli
    from ringqed.model import DriveSpec, SystemParams, transmission

    workdir.mkdir(parents=True)
    field = None
    if workload == "survey":
        field = workdir / "field.csv"
        workloads.write_field(field, seed)
    runner = Runner(cli, workloads.Checker(transmission, SystemParams, DriveSpec), workdir)
    if runner.run_pass([workloads.warmup_job(workload, seed, field)], "warmup")[0].failure:
        raise RuntimeError("warm-up job failed")
    runner.commands.clear()
    return runner, field


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time of a fresh process, as that process measures it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError("set-up probe failed: %s" % proc.stderr.strip())
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def tail(values):
    """Highest percentile with at least ten samples beyond it, else the max."""
    ordered = sorted(values)
    n = len(ordered)
    if n > 10:
        return ordered[n - 11], 100.0 * (n - 10) / n
    return ordered[-1], 100.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def blas_record():
    import ctypes

    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln})
        for lib in libs:
            handle = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    threads = int(fn())
                    break
    except OSError:
        pass
    return {"name": info.get("name"), "version": info.get("version"), "threads": threads}


def machine_record(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    cpu = mem_kb = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
        with open("/proc/meminfo", encoding="utf-8") as fh:
            mem_kb = next((int(ln.split()[1]) for ln in fh if ln.startswith("MemTotal")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor(),
        "mem_total_mb": round(mem_kb / 1024.0) if mem_kb else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_record(),
        "git_commit": commit,
        "workload": workload,
        "seed": seed,
    }


def measure(runner, workload, seed, seconds, field):
    """Untraced run: passes until the window closes; end-to-end metrics."""
    samples = [time.perf_counter() - _STARTED]
    samples += [probe_setup(workload, seed) for _ in range(SETUP_SAMPLES - 1)]
    passes = []
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < seconds:
        jobs = workloads.pass_jobs(workload, seed, len(passes), field)
        passes.append(runner.run_pass(jobs, "p%d" % len(passes)))
    results = [r for p in passes for r in p]
    durations = [r.seconds for r in results]
    tail_s, tail_pct = tail(durations)
    metrics = {
        "setup_s": (statistics.median(samples), "s"),
        "wall_s": (statistics.median(sum(r.seconds for r in p) for p in passes), "s"),
        "job_p50_s": (statistics.median(durations), "s"),
        "job_tail_s": (tail_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    notes = {
        "passes": len(passes),
        "jobs": len(durations),
        "job_tail_percentile": tail_pct,
        "setup_samples_s": samples,
        "job_seconds": [(r.command, r.seconds) for r in results],
    }
    return results, metrics, notes


def measure_layers(runner, workload, seed, field):
    """Traced run: the fixed pass list untraced, then traced; layer metrics."""
    import tracing
    from ringqed import oracle

    pieces = oracle._liouvillian_pieces
    jobs = [workloads.pass_jobs(workload, seed, k, field) for k in range(workloads.TRACE_PASSES[workload])]
    plain = [r for k, js in enumerate(jobs) for r in runner.run_pass(js, "u%d" % k)]
    runner.commands.clear()
    pieces.cache_clear()
    runner.checker.t_fwd.clear()
    runner.checker.rel_dev.clear()

    tracer = tracing.Tracer()
    tracer.install()
    runner.tracer = tracer
    before = pieces.cache_info()
    try:
        traced = [r for k, js in enumerate(jobs) for r in runner.run_pass(js, "t%d" % k)]
    finally:
        runner.tracer = None
        tracer.uninstall()
    after = pieces.cache_info()
    metrics = tracing.layer_metrics(
        tracer, runner.commands, (after.hits - before.hits, after.misses - before.misses)
    )
    checker = runner.checker
    metrics["optimize.t_fwd_mean"] = (statistics.fmean(checker.t_fwd) if checker.t_fwd else 0.0, "ratio")
    metrics["oracle.rel_dev_max"] = (max(checker.rel_dev, default=0.0), "ratio")

    speedup, pool = 0.0, []
    if workload == "certify":
        job = workloads.pool_job(seed)
        times = []
        for threads in (1, os.cpu_count() or 1):
            pieces.cache_clear()
            job.threads = threads
            pool += runner.run_pass([job], "pool%d" % threads)
            times.append(pool[-1].seconds)
        speedup = times[0] / times[1]
    metrics["cli.pool_speedup"] = (speedup, "ratio")
    untraced_s = sum(r.seconds for r in plain)
    traced_s = sum(r.seconds for r in traced)
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")

    WORK.mkdir(exist_ok=True)
    tracer.dump(WORK / ("trace-%s-seed%d.json" % (workload, seed)))
    notes = {"untraced_wall_s": untraced_s, "traced_wall_s": traced_s, "spans": len(tracer.spans)}
    missing = tracer.uncalled(workload)
    if missing:
        notes["uncalled"] = missing
    return plain + traced + pool, metrics, notes


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ringqed" / "cli.py").is_file():
        print("error: no ringqed sources under %s" % SRC, file=sys.stderr)
        return 2
    workdir = WORK / ("%s-seed%d-pid%d" % (args.workload, args.seed, os.getpid()))
    try:
        runner, field = set_up(args.workload, args.seed, workdir)
        if args.setup_probe:
            print(json.dumps({"setup_s": time.perf_counter() - _STARTED}))
            return 0
        if args.trace:
            results, metrics, notes = measure_layers(runner, args.workload, args.seed, field)
        else:
            results, metrics, notes = measure(runner, args.workload, args.seed, args.seconds, field)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(r.failure is not None for r in results)
    checker = runner.checker
    summary = {
        "failed_frac": failed / len(results),
        "t_fwd_mean": statistics.fmean(checker.t_fwd) if checker.t_fwd else None,
        "rel_dev_max": max(checker.rel_dev, default=None),
    }
    for name, (value, unit) in metrics.items():
        print("%-8s %-32s %14.6g %s" % (args.workload, name, value, unit))
    for name, value in summary.items():
        if value is not None:
            print("%-8s %-32s %14.6g ratio" % (args.workload, name, value))
    print(json.dumps({"record": {"machine": machine_record(args.workload, args.seed),
                                 "summary": summary, "notes": notes}}))
    correct = failed == 0 and "uncalled" not in notes
    if "uncalled" in notes:
        print("error: traced wrappers recorded no call: %s" % ", ".join(notes["uncalled"]), file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

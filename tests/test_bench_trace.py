"""The benchmark's traced design and certify passes reach every required name.

A traced ``bench/run.py`` run reads ``"correct": false`` when a job misses
its output check or when a wrapper of ``bench/tracing.py`` records no
call, so a rewrite that stops calling a required name fails the benchmark
with exit 0. These tests run a few jobs of pass 0 under that tracer. They
import the benchmark's modules and change none.
"""

import importlib.util
import json
import sys
from pathlib import Path

from ringqed import cli, oracle
from ringqed.model import DriveSpec, SystemParams, transmission

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench_module(name, monkeypatch):
    """bench/<name>.py, in sys.modules for this test only.

    Hypothesis draws examples from the constants of every loaded local
    module, so a benchmark module left loaded would change the examples of
    the property tests that run after this one.
    """
    spec = importlib.util.spec_from_file_location(name, BENCH / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def run_traced(tracing, workloads, workload, chosen, tmp_path):
    """Run the chosen jobs through cli.main under the benchmark's tracer."""
    # the checker reads transmission before any wrapper is installed
    checker = workloads.Checker(transmission, SystemParams, DriveSpec)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for k, job in enumerate(chosen):
            config, out = tmp_path / ("%d.json" % k), tmp_path / str(k)
            config.write_text(json.dumps(job.config), encoding="utf-8")
            argv = [job.command, str(config), "--out-dir", str(out)]
            assert tracer.run_job(k, cli.main, argv) == 0
            assert checker.check(job, job.config, out, None) is None
    finally:
        tracer.uninstall()
    assert tracer.uncalled(workload) == []


def test_traced_design_jobs_call_every_required_name(tmp_path, monkeypatch):
    tracing = load_bench_module("tracing", monkeypatch)
    workloads = load_bench_module("workloads", monkeypatch)
    jobs = workloads.pass_jobs("design", 1, 0)
    chosen = [jobs[0], next(job for job in jobs if job.command == "optimize")]
    run_traced(tracing, workloads, "design", chosen, tmp_path)


def test_traced_certify_jobs_call_every_required_name(tmp_path, monkeypatch):
    tracing = load_bench_module("tracing", monkeypatch)
    workloads = load_bench_module("workloads", monkeypatch)
    jobs = workloads.pass_jobs("certify", 1, 0)
    chosen = [jobs[0], next(job for job in jobs if job.config["validate"]["n_max"] == 4)]
    assert chosen[0].config["validate"]["n_max"] == 3
    # the cache calls that the traced benchmark run makes around its pass
    pieces = oracle._liouvillian_pieces
    pieces.cache_clear()
    before = pieces.cache_info()
    run_traced(tracing, workloads, "certify", chosen, tmp_path)
    after = pieces.cache_info()
    assert after.misses - before.misses == 2

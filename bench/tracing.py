"""Spans around ringqed's public functions, installed from the outside.

Every wrapped name is replaced in each ringqed module that holds it, so a
call through ``optimize.transmission`` is seen as well as one through
``model.transmission``. A span records (name, start, end, parent, job id)
and an ``extra`` dict filled by a per-target hook. Hot functions, called
hundreds of thousands of times per job, get no span of their own: their
count and time are added to the innermost open span instead. Spans stay
in memory and are written out once, after the traced jobs.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
from collections import Counter, defaultdict
from functools import wraps

MODULES = ("ringqed", "cli", "model", "analytic", "optimize", "oracle", "helicity", "tableio")


def _nnz(span, args, kwargs, result):
    dim = args[0].shape[0]
    span.extra["n_max"] = math.isqrt(math.isqrt(dim) // 4) - 1
    span.extra["nnz"] = int(result.L.nnz + result.U.nnz)


def _file_size(span, args, kwargs, result):
    span.extra["bytes"] = os.path.getsize(args[0])


def _nm_result(span, args, kwargs, result):
    span.extra["method"] = kwargs.get("method")
    span.extra["fun"] = float(result.fun)


def _grid_points(span, args, kwargs, result):
    span.extra["points"] = int(args[0].shape[0] * args[0].shape[1])


def _by_direction(args, kwargs):
    return "model.transmission." + args[1].direction


# (module, attribute, hot, hook or key, workloads on which it must be called)
TARGETS = (
    ("model", "steady_state", True, None, ("design", "survey")),
    ("model", "transmission", True, _by_direction, ("design",)),
    ("model", "spectrum", False, None, ("survey",)),
    ("analytic", "polariton_modes", True, None, ("design",)),
    ("analytic", "polariton_eigenvalues", True, None, ("survey",)),
    ("analytic", "eigenvalue_sweep", False, None, ("survey",)),
    ("optimize", "maximize_contrast", False, None, ("design",)),
    ("optimize", "sweep_grid", False, None, ("design",)),
    ("optimize", "cavity_dip_detuning", False, None, ("design",)),
    ("optimize", "minimize", False, _nm_result, ("design",)),
    ("optimize", "minimize_scalar", False, None, ("design",)),
    ("oracle", "oracle_transmission", False, None, ("certify",)),
    ("oracle", "build_liouvillian", False, None, ("certify",)),
    ("oracle", "steady_density_matrix", False, None, ("certify",)),
    ("oracle", "splu", False, _nnz, ("certify",)),
    ("helicity", "load_field_grid", False, None, ("survey",)),
    ("helicity", "map_helicity", False, _grid_points, ("survey",)),
    ("helicity", "local_basis", True, None, ("survey",)),
    ("tableio", "write_table", False, _file_size, ("design", "certify", "survey")),
    ("tableio", "read_table", False, _file_size, ("survey",)),
    ("tableio", "write_json", False, None, ("design", "certify", "survey")),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "agg", "extra")

    def __init__(self, name, start, parent, job):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.job = job
        self.agg = {}
        self.extra = {}

    @property
    def seconds(self):
        return self.end - self.start


class Tracer:
    """Records spans on the thread that created it while a job is open."""

    def __init__(self):
        self.spans: list[Span] = []
        self.calls: Counter = Counter()
        self._stack: list[int] = []
        self._thread = threading.get_ident()
        self._job = None
        self._patched = []

    def _active(self):
        return self._job is not None and threading.get_ident() == self._thread

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent, self._job))
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    def run_job(self, job_id, fn, *args):
        """Call fn inside a ``cli.main`` span tagged with job_id."""
        self._job = job_id
        span = self._open("cli.main")
        try:
            return fn(*args)
        finally:
            self._close(span)
            self._job = None

    def _span_wrapper(self, name, fn, hook):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._active():
                return fn(*args, **kwargs)
            self.calls[name] += 1
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if hook is not None:
                hook(span, args, kwargs, result)
            return result

        return wrapper

    def _hot_wrapper(self, name, fn, key):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._active():
                return fn(*args, **kwargs)
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                self.calls[name] += 1
                agg = self.spans[self._stack[-1]].agg
                entry = agg.setdefault(name if key is None else key(args, kwargs), [0, 0.0])
                entry[0] += 1
                entry[1] += elapsed

        return wrapper

    def install(self):
        """Wrap every target in every ringqed module that refers to it."""
        import importlib

        modules = [importlib.import_module(m if m == "ringqed" else "ringqed." + m) for m in MODULES]
        for module_name, attr, hot, extra, _ in TARGETS:
            original = getattr(modules[MODULES.index(module_name)], attr)
            name = "%s.%s" % (module_name, attr)
            if hot:
                wrapper = self._hot_wrapper(name, original, extra)
            else:
                wrapper = self._span_wrapper(name, original, extra)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def uninstall(self):
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def uncalled(self, workload):
        """Targets that belong to workload but recorded no call."""
        return [
            "%s.%s" % (m, a)
            for m, a, _, _, owners in TARGETS
            if workload in owners and self.calls["%s.%s" % (m, a)] == 0
        ]

    def dump(self, path):
        records = [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "job": s.job,
                "agg": s.agg,
                "extra": s.extra,
            }
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(records, fh)


def layer_metrics(tracer: Tracer, jobs: dict, pieces_info: tuple[int, int]) -> dict:
    """Per-layer figures from the spans of one traced job list.

    jobs maps each job id to its CLI command; pieces_info is the change in
    (hits, misses) of the oracle's Liouvillian cache over the same jobs.
    """
    spans = tracer.spans
    named = defaultdict(list)
    agg = defaultdict(lambda: [0, 0.0])
    children = defaultdict(list)
    for s in spans:
        named[s.name].append(s)
        for key, (count, seconds) in s.agg.items():
            agg[key][0] += count
            agg[key][1] += seconds
        if s.parent is not None:
            children[s.parent].append(s)

    def total(name):
        return sum(s.seconds for s in named[name])

    def per(num, den):
        return num / den if den else 0.0

    solves, solve_s = agg["model.steady_state"]
    optimize_jobs = {j for j, command in jobs.items() if command == "optimize"}
    tb_evals = sum(
        s.agg.get("model.transmission.backward", (0, 0.0))[0]
        for s in spans
        if s.job in optimize_jobs
    )
    # a call that raised has no extra fields
    nm = [s for s in named["optimize.minimize"] if s.extra.get("method") == "Nelder-Mead"]
    factor = {n: [s.seconds for s in named["oracle.splu"] if s.extra.get("n_max") == n] for n in (3, 4)}
    gate = cli_self = 0.0
    for i, s in enumerate(spans):
        if s.name == "oracle.steady_density_matrix":
            gate += s.seconds - sum(c.seconds for c in children[i] if c.name == "oracle.splu")
        elif s.name == "cli.main":
            cli_self += s.seconds - sum(c.seconds for c in children[i])
    hits, misses = pieces_info
    map_s = total("helicity.map_helicity")
    mapped = sum(s.extra.get("points", 0) for s in named["helicity.map_helicity"])
    return {
        "model.solve.count": (solves, "count"),
        "model.solve_us": (1e6 * per(solve_s, solves), "us"),
        "model.spectrum_s": (total("model.spectrum"), "s"),
        "optimize.tb_evals_per_job": (per(tb_evals, len(optimize_jobs)), "count"),
        "optimize.nm_runs": (len(nm), "count"),
        "optimize.nm_useful_ratio": (per(sum(s.extra.get("fun", math.inf) <= 1e-10 for s in nm), len(nm)), "ratio"),
        "optimize.dip_search.count": (len(named["optimize.cavity_dip_detuning"]), "count"),
        "optimize.dip_search_s": (total("optimize.cavity_dip_detuning"), "s"),
        "analytic.polariton_modes.count": (agg["analytic.polariton_modes"][0], "count"),
        "analytic.eigen_sweep_s": (total("analytic.eigenvalue_sweep"), "s"),
        "oracle.assemble_s": (total("oracle.build_liouvillian"), "s"),
        "oracle.pieces_hit_ratio": (per(hits, hits + misses), "ratio"),
        "oracle.factor_s.n3": (per(sum(factor[3]), len(factor[3])), "s"),
        "oracle.factor_s.n4": (per(sum(factor[4]), len(factor[4])), "s"),
        "oracle.factor_nnz": (sum(s.extra.get("nnz", 0) for s in named["oracle.splu"]), "count"),
        "oracle.gate_s": (gate, "s"),
        "helicity.load_s": (total("helicity.load_field_grid"), "s"),
        "helicity.map_s": (map_s, "s"),
        "helicity.point_us": (1e6 * per(map_s, mapped), "us"),
        "helicity.local_basis.count": (agg["helicity.local_basis"][0], "count"),
        "tableio.write_s": (total("tableio.write_table"), "s"),
        "tableio.write_bytes": (sum(s.extra.get("bytes", 0) for s in named["tableio.write_table"]), "bytes"),
        "tableio.read_s": (total("tableio.read_table"), "s"),
        "tableio.read_bytes": (sum(s.extra.get("bytes", 0) for s in named["tableio.read_table"]), "bytes"),
        "tableio.json_s": (total("tableio.write_json"), "s"),
        "cli.self_s": (cli_self, "s"),
    }

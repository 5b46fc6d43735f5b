"""In-memory span tracer for the five landau_tfd modules.

``Tracer`` wraps every public function of ``complexity``, ``sweep``,
``landau``, ``fock`` and ``cli``, and the table and report serialisers;
``install`` patches each wrapper into every module namespace that binds
the original, which is where callers look it up
(``landau_tfd.sweep.complexity``, ``landau_tfd.cli.run_time_series``,
...), and ``uninstall`` puts the originals back.  Each call appends one
span to column arrays: name, start, end, parent span and pass id, plus a
size (array elements for the kernel functions, the Fock truncation for
the Fock oracle, otherwise 1).  A pass's spans are kept until the next
``install``; the last pass is written out at the end of the run.
"""

from __future__ import annotations

import importlib
import inspect
import time
from array import array

import numpy as np

MODULES = ("complexity", "sweep", "landau", "fock", "cli")
METHODS = (("sweep", "SweepTable", ("to_csv", "to_json")), ("fock", "OracleReport", ("to_json",)))


def _size_of(name: str):
    if name in ("complexity.complexity", "complexity.complexity_rate"):
        return lambda args, kw: int(np.size(args[0] if args else kw["t"]))
    if name == "fock.oracle_covariance_1pm":
        return lambda args, kw: int(args[2] if len(args) > 2 else kw.get("dim", 60))
    if name == "fock.commutator_report":
        return lambda args, kw: int(args[0] if args else kw["dim"])
    return None


class Tracer:
    """Wrappers for the five modules and the spans of the current pass."""

    def __init__(self):
        self.names: list = []
        self.name_col = array("h")
        self.start_col = array("q")
        self.end_col = array("q")
        self.parent_col = array("i")
        self.pass_col = array("h")
        self.size_col = array("i")
        self.pass_id = [0]
        self._stack = [-1]
        self._patches: list = []  # (namespace, attribute, original, traced)
        mods = {m: importlib.import_module(f"landau_tfd.{m}") for m in MODULES}
        namespaces = [importlib.import_module("landau_tfd"), *mods.values()]
        for m, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                traced = self._wrap(f"{m}.{attr}", fn)
                self._patches += [(ns, attr, fn, traced) for ns in namespaces if vars(ns).get(attr) is fn]
        for m, cls_name, methods in METHODS:
            cls = getattr(mods[m], cls_name)
            for attr in methods:
                fn = vars(cls)[attr]
                self._patches.append((cls, attr, fn, self._wrap(f"{m}.{cls_name}.{attr}", fn)))

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        size_of = _size_of(name)
        names, starts, ends = self.name_col, self.start_col, self.end_col
        parents, passes, sizes = self.parent_col, self.pass_col, self.size_col
        stack, pass_id, clock = self._stack, self.pass_id, time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            passes.append(pass_id[0])
            sizes.append(size_of(args, kwargs) if size_of else 1)
            starts.append(0)
            ends.append(0)
            stack.append(i)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                starts[i] = t0
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self, pass_id: int) -> None:
        """Start a pass: drop the previous pass's spans and patch."""
        for col in (self.name_col, self.start_col, self.end_col, self.parent_col, self.pass_col, self.size_col):
            del col[:]
        self.pass_id[0] = pass_id
        for ns, attr, _, traced in self._patches:
            setattr(ns, attr, traced)

    def uninstall(self) -> None:
        for ns, attr, fn, _ in self._patches:
            setattr(ns, attr, fn)

    def arrays(self) -> dict:
        """The spans as numpy columns, with each span's self time in ns."""
        name = np.frombuffer(self.name_col, dtype=np.int16).astype(np.int32)
        start = np.frombuffer(self.start_col, dtype=np.int64)
        end = np.frombuffer(self.end_col, dtype=np.int64)
        parent = np.frombuffer(self.parent_col, dtype=np.int32)
        dur = (end - start).astype(np.float64)
        child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=len(dur))
        return {
            "name": name,
            "start": start,
            "end": end,
            "parent": parent,
            "pass": np.frombuffer(self.pass_col, dtype=np.int16),
            "size": np.frombuffer(self.size_col, dtype=np.int32).astype(np.int64),
            "dur": dur,
            "self": dur - child,
        }

    def save(self, path) -> None:
        """Write the current pass's spans, with the name table."""
        cols = self.arrays()
        np.savez(path, names=np.array(self.names), **{k: cols[k] for k in ("name", "start", "end", "parent", "pass", "size")})


def _percentile(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def pass_metrics(tracer: Tracer, bytes_out: int, solve_s: float) -> dict:
    """Per-layer metrics of the current pass, in the units of BENCHMARK.json.

    Every metric is present; a span that did not run reports 0.
    """
    ids = {n: i for i, n in enumerate(tracer.names)}
    cols = tracer.arrays()
    name, size, parent = cols["name"], cols["size"], cols["parent"]
    dur, self_ns = cols["dur"], cols["self"]
    layer_of = np.array([n.split(".")[0] for n in tracer.names])

    def mask(n):
        return name == ids[n]

    def calls(n):
        return int(np.count_nonzero(mask(n)))

    def incl_s(n):
        return float(dur[mask(n)].sum()) / 1e9

    def self_s(n):
        return float(self_ns[mask(n)].sum()) / 1e9

    def points(n):
        return int(size[mask(n)].sum())

    def parent_name(m):
        p = parent[m]
        return np.where(p >= 0, name[np.maximum(p, 0)], -1)

    out = {}
    c_mask = mask("complexity.complexity")
    c_parent = parent_name(c_mask)
    top_level = (c_parent < 0) | (layer_of[np.maximum(c_parent, 0)] != "complexity")
    c_points, r_points = points("complexity.complexity"), points("complexity.complexity_rate")
    c_us = dur[c_mask] / 1e3
    out["complexity.points"] = c_points
    out["complexity_rate.points"] = r_points
    out["complexity.self_s"] = self_s("complexity.complexity")
    out["complexity_rate.self_s"] = self_s("complexity.complexity_rate")
    out["complexity.ns_per_point"] = out["complexity.self_s"] * 1e9 / c_points if c_points else 0.0
    out["complexity_rate.ns_per_point"] = out["complexity_rate.self_s"] * 1e9 / r_points if r_points else 0.0
    out["complexity.call_us.p50"] = _percentile(c_us, 50)
    out["complexity.call_us.p99"] = _percentile(c_us, 99)
    top_points = int(size[c_mask][top_level].sum())
    out["complexity.alpha_of.calls"] = calls("complexity.alpha_of")
    out["complexity.alpha_of_per_point"] = out["complexity.alpha_of.calls"] / top_points if top_points else 0.0
    lloyd_calls = calls("complexity.lloyd_check")
    r_mask = mask("complexity.complexity_rate")
    r_in_lloyd = int(size[r_mask][parent_name(r_mask) == ids["complexity.lloyd_check"]].sum())
    out["complexity.lloyd_check.calls"] = lloyd_calls
    out["complexity.lloyd_check.s"] = incl_s("complexity.lloyd_check")
    out["complexity.lloyd_check.rate_points_per_call"] = r_in_lloyd / lloyd_calls if lloyd_calls else 0.0

    for runner in ("run_time_series", "run_beta_sweep", "run_omega_sweep", "run_lloyd", "run_verify"):
        out[f"sweep.{runner}.calls"] = calls(f"sweep.{runner}")
        out[f"sweep.{runner}.self_s"] = self_s(f"sweep.{runner}")
    out["sweep.to_csv.calls"] = calls("sweep.SweepTable.to_csv")
    out["sweep.to_csv.s"] = incl_s("sweep.SweepTable.to_csv")
    out["sweep.to_json.calls"] = calls("sweep.SweepTable.to_json")
    out["sweep.to_json.s"] = incl_s("sweep.SweepTable.to_json")
    serialise_s = out["sweep.to_csv.s"] + out["sweep.to_json.s"]
    out["sweep.bytes_out"] = bytes_out
    out["sweep.serialise_mb_per_s"] = bytes_out / 1e6 / serialise_s if serialise_s else 0.0

    for fn in ("ladder_action_check", "wavefunction_gram", "laguerre_norm_integral"):
        out[f"landau.{fn}.calls"] = calls(f"landau.{fn}")
        out[f"landau.{fn}.s"] = incl_s(f"landau.{fn}")
    cov = mask("fock.oracle_covariance_1pm")
    for dim in (60, 128):
        m = cov & (size == dim)
        out[f"fock.oracle_covariance_1pm.dim{dim}.calls"] = int(np.count_nonzero(m))
        out[f"fock.oracle_covariance_1pm.dim{dim}.s"] = float(dur[m].sum()) / 1e9
    out["fock.commutator_report.calls"] = calls("fock.commutator_report")
    out["fock.commutator_report.s"] = incl_s("fock.commutator_report")

    out["cli.main.calls"] = calls("cli.main")
    out["cli.main.self_s"] = self_s("cli.main")
    layer_self = {}
    for layer in MODULES:
        in_layer = np.isin(name, np.flatnonzero(layer_of == layer))
        layer_self[layer] = float(self_ns[in_layer].sum()) / 1e9
        out[f"{layer}.layer_self_s"] = layer_self[layer]
    out["trace.solve_s"] = solve_s
    out["trace.remainder_s"] = solve_s - sum(layer_self.values())
    out["trace.spans"] = len(name)
    return out

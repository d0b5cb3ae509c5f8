"""Timing spans around the public functions of the apportion modules.

The tracer swaps in a timing wrapper for every module attribute that
callers look up at call time, for example ``geometry.hull_vertices`` or
the ``apportion`` name that ``cli`` and ``evaluation`` imported from the
estimator.  No file of the package is edited, and the originals are put
back after each traced operation.  Spans stay in memory until the run
writes them out.
"""

from __future__ import annotations

import functools
import json
import math
import os
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

import apportion
from apportion import cli, estimator, evaluation, geometry, synthgen

MODULES = (apportion, cli, estimator, evaluation, geometry, synthgen)


def _file_bytes(path, *args, **kwargs):
    return {"bytes": os.path.getsize(path)}


def _projection_bytes(ystar, *args, **kwargs):
    # Bytes of the centered (n, J-1) float64 matrix the SVD works on,
    # computed from the shape rather than measured.
    n, j = ystar.shape
    return {"bytes_computed": n * (j - 1) * 8}


def _points_in(z, *args, **kwargs):
    return {"points_in": len(z)}


def _subsets(candidates, k, *args, **kwargs):
    return {"subsets": math.comb(len(candidates), k)}


def _candidates_in(candidates, *args, **kwargs):
    return {"candidates": len(candidates)}


# (module, function, span name, counts from the arguments, counts from the result)
TRACED = (
    (cli, "load_concentrations", "cli.load_concentrations", _file_bytes, None),
    (estimator, "apportion", "estimator.apportion", None, None),
    (estimator, "row_normalize", "estimator.row_normalize", None, None),
    (
        estimator,
        "extract_candidates",
        "estimator.extract_candidates",
        None,
        lambda result: {"candidates": len(result.indices)},
    ),
    (estimator, "estimate_mu_tilde", "estimator.estimate_mu_tilde", None, None),
    (estimator, "compute_phi", "estimator.compute_phi", None, None),
    (
        geometry,
        "intrinsic_projection",
        "geometry.intrinsic_projection",
        _projection_bytes,
        None,
    ),
    (
        geometry,
        "hull_vertices",
        "geometry.hull_vertices",
        _points_in,
        lambda result: {"vertices_out": len(result)},
    ),
    (geometry, "max_volume_exhaustive", "geometry.max_volume_exhaustive", _subsets, None),
    (geometry, "max_volume_greedy", "geometry.max_volume_greedy", _candidates_in, None),
    (synthgen, "make_ground_truth", "synthgen.make_ground_truth", None, None),
    (synthgen, "generate_profile_matrix", "synthgen.generate_profile_matrix", None, None),
    (synthgen, "simulate_log_ar1", "synthgen.simulate", None, None),
    (synthgen, "simulate_lognormal_mixture", "synthgen.simulate", None, None),
    (evaluation, "convergence_study", "evaluation.convergence_study", None, None),
    (evaluation, "align_rows", "evaluation.align_rows", None, None),
)


class Tracer:
    """In-memory spans: op id, span id, parent span id, name, start, end."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op: int | None = None
        self._origin = time.perf_counter()

    @contextmanager
    def span(self, name: str, **attrs):
        record = {
            "op": self.op,
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "start": 0.0,
            "end": 0.0,
            "attrs": attrs,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter() - self._origin
        try:
            yield attrs
        except BaseException as exc:
            attrs["error"] = type(exc).__name__
            raise
        finally:
            record["end"] = time.perf_counter() - self._origin
            self._stack.pop()

    def _wrap(self, fn, name, from_args, from_result):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as attrs:
                if from_args is not None:
                    attrs.update(from_args(*args, **kwargs))
                result = fn(*args, **kwargs)
                if from_result is not None:
                    attrs.update(from_result(result))
                return result

        return traced

    @contextmanager
    def installed(self, op: int):
        """Trace operation ``op``: patch every binding, restore on exit."""
        # One wrapper per function, bound in every module that imported it,
        # so ``cli.apportion`` and ``estimator.apportion`` share one span name.
        patched = []
        for module, attr, name, from_args, from_result in TRACED:
            original = getattr(module, attr)
            wrapper = self._wrap(original, name, from_args, from_result)
            for holder in MODULES:
                for key, value in vars(holder).items():
                    if value is original:
                        patched.append((holder, key, original, wrapper))
        self.op = op
        try:
            for holder, key, _, wrapper in patched:
                setattr(holder, key, wrapper)
            with self.span("op"):
                yield self
        finally:
            for holder, key, original, _ in patched:
                setattr(holder, key, original)
            self.op = None

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record, sort_keys=True) + "\n")


def span(tracer: Tracer | None, name: str, **attrs):
    """A span on ``tracer``, or a no-op context yielding a scratch dict."""
    if tracer is None or tracer.op is None:
        return nullcontext(attrs)
    return tracer.span(name, **attrs)


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    covered = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - covered[s["id"]] for s in spans]


PER_LAYER = (
    ("cli.load_concentrations.self_s", "s", "lower"),
    ("cli.load_concentrations.mb_per_s", "MB/s", "higher"),
    ("cli.bytes_read", "B", "lower"),
    ("cli.simulate.write_self_s", "s", "lower"),
    ("cli.estimate.write_self_s", "s", "lower"),
    ("cli.bytes_written", "B", "lower"),
    ("estimator.row_normalize.self_s", "s", "lower"),
    ("estimator.extract_candidates.self_s", "s", "lower"),
    ("estimator.estimate_mu_tilde.self_s", "s", "lower"),
    ("estimator.compute_phi.self_s", "s", "lower"),
    ("estimator.apportion.self_s", "s", "lower"),
    ("estimator.candidates", "count", "lower"),
    ("geometry.intrinsic_projection.self_s", "s", "lower"),
    ("geometry.intrinsic_projection.bytes_computed", "B", "lower"),
    ("geometry.hull_vertices.self_s", "s", "lower"),
    ("geometry.hull_vertices.points_in", "count", "lower"),
    ("geometry.hull_vertices.vertices_out", "count", "lower"),
    ("geometry.hull_vertices.keep_ratio", "frac", "lower"),
    ("geometry.hull_vertices.fallbacks", "count", "lower"),
    ("geometry.max_volume_exhaustive.self_s", "s", "lower"),
    ("geometry.max_volume_exhaustive.subsets", "count", "lower"),
    ("geometry.max_volume_exhaustive.ns_per_subset", "ns", "lower"),
    ("geometry.max_volume_greedy.self_s", "s", "lower"),
    ("geometry.max_volume_greedy.candidates", "count", "lower"),
    ("synthgen.make_ground_truth.self_s", "s", "lower"),
    ("synthgen.generate_profile_matrix.self_s", "s", "lower"),
    ("synthgen.simulate.self_s", "s", "lower"),
    ("evaluation.convergence_study.self_s", "s", "lower"),
    ("evaluation.align_rows.self_s", "s", "lower"),
    ("evaluation.parallel_efficiency", "frac", "higher"),
    ("trace.overhead_frac", "frac", "lower"),
)


def layer_metrics(spans: list[dict], ops: int) -> dict[str, float]:
    """Per-operation self times and counts of the traced layers.

    ``evaluation.parallel_efficiency`` and ``trace.overhead_frac`` need
    untraced timings, so the caller fills them in.
    """
    selfs = self_times(spans)
    self_s = defaultdict(float)
    counts = defaultdict(float)
    for s, own in zip(spans, selfs):
        name, attrs = s["name"], s["attrs"]
        if name == "cli.main":
            name = f"cli.{attrs['command']}"
        self_s[name] += own
        if "error" in attrs:
            counts[name + ".errors." + attrs["error"]] += 1
            continue
        for key, value in attrs.items():
            if isinstance(value, (int, float)):
                counts[f"{name}.{key}"] += value

    def per_op(value: float) -> float:
        return value / ops

    bytes_read = counts["cli.load_concentrations.bytes"]
    points_in = counts["geometry.hull_vertices.points_in"]
    subsets = counts["geometry.max_volume_exhaustive.subsets"]
    out = {
        "cli.load_concentrations.mb_per_s": (
            bytes_read / self_s["cli.load_concentrations"] / 1e6 if bytes_read else 0.0
        ),
        "cli.bytes_read": per_op(bytes_read),
        "cli.simulate.write_self_s": per_op(self_s["cli.simulate"]),
        "cli.estimate.write_self_s": per_op(self_s["cli.estimate"]),
        "cli.bytes_written": per_op(
            sum(v for k, v in counts.items() if k.endswith(".bytes_written"))
        ),
        "estimator.candidates": per_op(counts["estimator.extract_candidates.candidates"]),
        "geometry.intrinsic_projection.bytes_computed": per_op(
            counts["geometry.intrinsic_projection.bytes_computed"]
        ),
        "geometry.hull_vertices.points_in": per_op(points_in),
        "geometry.hull_vertices.vertices_out": per_op(
            counts["geometry.hull_vertices.vertices_out"]
        ),
        "geometry.hull_vertices.keep_ratio": (
            counts["geometry.hull_vertices.vertices_out"] / points_in if points_in else 0.0
        ),
        "geometry.hull_vertices.fallbacks": per_op(
            counts["geometry.hull_vertices.errors.HullDimensionExceeded"]
        ),
        "geometry.max_volume_exhaustive.subsets": per_op(subsets),
        "geometry.max_volume_exhaustive.ns_per_subset": (
            self_s["geometry.max_volume_exhaustive"] / subsets * 1e9 if subsets else 0.0
        ),
        "geometry.max_volume_greedy.candidates": per_op(
            counts["geometry.max_volume_greedy.candidates"]
        ),
    }
    for name, _, _ in PER_LAYER:
        if name.endswith(".self_s") and name not in out:
            out[name] = per_op(self_s[name[: -len(".self_s")]])
    return out


def module_shares(spans: list[dict]) -> dict[str, float]:
    """Share of traced operation time spent in each span name's own code."""
    selfs = self_times(spans)
    total = sum(s["end"] - s["start"] for s in spans if s["name"] == "op")
    shares = defaultdict(float)
    for s, own in zip(spans, selfs):
        name = s["name"]
        if name == "cli.main":
            name = f"cli.{s['attrs']['command']}"
        shares[name] += own / total
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))

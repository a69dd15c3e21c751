"""Spans recorded from outside the program.

A Tracer rebinds each layer's public entry points (the names psbp.cli and
psbp.pipeline import, the LM engine and closed form psbp.solve calls, and
the scipy CG and DCT routines psbp.integrate calls) to wrappers that
record a span: name, start, end, parent span and loop id.  Counts are taken
at the same boundaries and stored on the span.  Nothing in the package is
edited; the original functions are restored when a traced loop ends.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict
from contextlib import contextmanager
from statistics import median

import numpy as np

READS = ("load_image", "load_mask", "read_json", "read_pfm")
WRITES = ("save_image", "save_mask", "write_json", "write_pfm")
PIPELINE_CALLS = {
    "render": ("make_sphere_depth", "render_blinn_phong_perspective",
               "render_lambertian_perspective", "render_scene"),
    "solve": ("blinn_phong_ortho_solve", "blinn_phong_pps_solve",
              "lambertian_pps_closed_form", "sensitivity_indicator", "woodham_normals"),
    "integrate": ("align_depth", "exp_depth", "poisson_integrate"),
    "pipeline": ("reprojection_error",),
}
LM = "optim.levenberg_marquardt_batch"
BP_PPS = "solve.blinn_phong_pps_solve"
CLOSED_FORM = "solve.lambertian_pps_closed_form"
RUN_PIPELINE = "pipeline.run_pipeline"

# Per-layer metrics: name -> (unit, better).
LAYER_METRICS = {
    "optim.lm_s": ("s", "lower"),
    "optim.lm_calls": ("count", "lower"),
    "optim.lm_problems": ("count", "lower"),
    "optim.retry_problems": ("count", "lower"),
    "optim.residual_rows": ("count", "lower"),
    "optim.jacobian_rows": ("count", "lower"),
    "optim.rows_per_problem": ("rows/problem", "lower"),
    "optim.converged": ("count", "higher"),
    "optim.failed": ("count", "lower"),
    "solve.bp_pps_s": ("s", "lower"),
    "solve.bp_pps_self_s": ("s", "lower"),
    "solve.pixels_attempted": ("count", "higher"),
    "solve.pixels_solved": ("count", "higher"),
    "solve.solved_ratio": ("1", "higher"),
    "solve.closed_form_s": ("s", "lower"),
    "integrate.poisson_s": ("s", "lower"),
    "integrate.cg_calls": ("count", "lower"),
    "integrate.dct_calls": ("count", "lower"),
    "integrate.cg_iterations": ("count", "lower"),
    "integrate.unknowns": ("count", "higher"),
    "integrate.components": ("count", "lower"),
    "integrate.align_s": ("s", "lower"),
    "integrate.exp_depth_s": ("s", "lower"),
    "pipeline.reprojection_s": ("s", "lower"),
    "render.render_scene_s": ("s", "lower"),
    "render.pixels": ("count", "lower"),
    "fileio.read_s": ("s", "lower"),
    "fileio.write_s": ("s", "lower"),
    "fileio.bytes_read": ("B", "lower"),
    "fileio.bytes_written": ("B", "lower"),
    "config.load_s": ("s", "lower"),
    "pipeline.self_s": ("s", "lower"),
}


def _file_bytes(result, args, kwargs):
    return {"bytes": os.path.getsize(args[0])}


def _solve_pixels(result, args, kwargs):
    grad = result[0] if isinstance(result, tuple) else result
    return {"attempted": int(np.count_nonzero(kwargs["mask"])),
            "solved": int(np.count_nonzero(grad.mask))}


def _rendered_pixels(result, args, kwargs):
    return {"pixels": sum(int(img.data.size) for img in result[0])}


class Tracer:
    """In-memory span recorder; one per benchmark run."""

    def __init__(self):
        self.spans = []
        self.loop = None
        self._stack = []

    @contextmanager
    def span(self, name):
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": self._stack[-1] if self._stack else None,
               "loop": self.loop, "attrs": {}}
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn, count=None):
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if count is not None:
                rec["attrs"].update(count(result, args, kwargs))
            return result
        return traced

    def _wrap_lm(self, fn):
        def traced(residual, jacobian, x0, *args, **kwargs):
            rows = {"residual_rows": 0, "jacobian_rows": 0}

            def res(x, idx):
                rows["residual_rows"] += len(idx)
                return residual(x, idx)

            def jac(x, idx):
                rows["jacobian_rows"] += len(idx)
                return jacobian(x, idx)

            with self.span(LM) as rec:
                x, rnorm, conv, fail = fn(res, jac, x0, *args, **kwargs)
            rec["attrs"].update(rows, problems=len(x0), converged=int(conv.sum()),
                                failed=int(fail.sum()))
            return x, rnorm, conv, fail
        return traced

    def _wrap_cg(self, fn):
        def traced(a, b, *args, callback=None, **kwargs):
            iterations = [0]

            def counting(xk):
                iterations[0] += 1
                if callback is not None:
                    callback(xk)

            with self.span("integrate.cg") as rec:
                result = fn(a, b, *args, callback=counting, **kwargs)
            rec["attrs"].update(iterations=iterations[0], unknowns=len(b))
            return result
        return traced

    def _targets(self):
        import scipy.fft
        import scipy.sparse.linalg

        import psbp.cli
        import psbp.pipeline
        import psbp.solve

        pipe = psbp.pipeline
        counts = {"render_scene": _rendered_pixels, "blinn_phong_pps_solve": _solve_pixels,
                  "lambertian_pps_closed_form": _solve_pixels}
        yield psbp.cli, "load_config", self._wrap("config.load_config", psbp.cli.load_config)
        yield psbp.cli, "run_pipeline", self._wrap(RUN_PIPELINE, psbp.cli.run_pipeline)
        for names, kind in ((READS, "read"), (WRITES, "write")):
            for attr in names:
                yield pipe, attr, self._wrap(f"fileio.{kind}.{attr}", getattr(pipe, attr),
                                             _file_bytes)
        for layer, names in PIPELINE_CALLS.items():
            for attr in names:
                yield pipe, attr, self._wrap(f"{layer}.{attr}", getattr(pipe, attr),
                                             counts.get(attr))
        yield psbp.solve, "levenberg_marquardt_batch", self._wrap_lm(
            psbp.solve.levenberg_marquardt_batch)
        yield psbp.solve, "lambertian_pps_closed_form", self._wrap(
            CLOSED_FORM, psbp.solve.lambertian_pps_closed_form, _solve_pixels)
        yield scipy.sparse.linalg, "cg", self._wrap_cg(scipy.sparse.linalg.cg)
        yield scipy.fft, "dctn", self._wrap("integrate.dct", scipy.fft.dctn)

    @contextmanager
    def installed(self, loop):
        """Rebind every traced entry point for the duration of one loop."""
        saved = []
        self.loop = loop
        try:
            for module, attr, wrapper in self._targets():
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
            self.loop = None

    def export(self, origin):
        """Spans as plain records, times in seconds since origin."""
        return [dict(s, start=s["start"] - origin, end=s["end"] - origin)
                for s in self.spans]


def _layer(name):
    return name.split(".", 1)[0]


class LoopView:
    """Span arithmetic over the spans of one loop."""

    def __init__(self, spans, loop):
        self.all = spans
        self.ids = [i for i, s in enumerate(spans) if s["loop"] == loop]
        self.children = defaultdict(list)
        for i in self.ids:
            if spans[i]["parent"] is not None:
                self.children[spans[i]["parent"]].append(i)

    def dur(self, i):
        s = self.all[i]
        return s["end"] - s["start"]

    def self_time(self, i):
        return self.dur(i) - sum(self.dur(c) for c in self.children[i])

    def named(self, *names):
        return [i for i in self.ids if self.all[i]["name"] in names]

    def prefixed(self, prefix):
        return [i for i in self.ids if self.all[i]["name"].startswith(prefix)]

    def total(self, ids):
        return sum(self.dur(i) for i in ids)

    def attr(self, ids, key):
        return sum(self.all[i]["attrs"].get(key, 0) for i in ids)

    def parent_name(self, i):
        p = self.all[i]["parent"]
        return None if p is None else self.all[p]["name"]

    def layers(self):
        """Per-layer busy time (outermost spans of the layer) and self time."""
        out = defaultdict(lambda: [0.0, 0.0])
        for i in self.ids:
            layer = _layer(self.all[i]["name"])
            p = self.all[i]["parent"]
            while p is not None and _layer(self.all[p]["name"]) != layer:
                p = self.all[p]["parent"]
            if p is None:
                out[layer][0] += self.dur(i)
            out[layer][1] += self.self_time(i)
        return dict(out)


def loop_metrics(spans, loop, components):
    """Per-layer metrics of one traced loop.  components is the number of
    4-connected regions of the solved mask, computed outside any span."""
    v = LoopView(spans, loop)
    lm = v.named(LM)
    retry = 0
    seen = defaultdict(int)
    for i in lm:
        parent = v.all[i]["parent"]
        if seen[parent] >= 2:  # after the first ratio + polish pair
            retry += v.all[i]["attrs"]["problems"]
        seen[parent] += 1
    problems = v.attr(lm, "problems")
    residual_rows = v.attr(lm, "residual_rows")
    bp = v.named(BP_PPS)
    top_solve = [i for i in v.prefixed("solve.") if v.parent_name(i) == RUN_PIPELINE]
    attempted = v.attr(top_solve, "attempted")
    solved = v.attr(top_solve, "solved")
    cg = v.named("integrate.cg")
    runs = v.named(RUN_PIPELINE)
    return {
        "optim.lm_s": v.total(lm),
        "optim.lm_calls": len(lm),
        "optim.lm_problems": problems,
        "optim.retry_problems": retry,
        "optim.residual_rows": residual_rows,
        "optim.jacobian_rows": v.attr(lm, "jacobian_rows"),
        "optim.rows_per_problem": residual_rows / problems if problems else 0.0,
        "optim.converged": v.attr(lm, "converged"),
        "optim.failed": v.attr(lm, "failed"),
        "solve.bp_pps_s": v.total(bp),
        "solve.bp_pps_self_s": sum(v.self_time(i) for i in bp),
        "solve.pixels_attempted": attempted,
        "solve.pixels_solved": solved,
        "solve.solved_ratio": solved / attempted if attempted else 0.0,
        "solve.closed_form_s": v.total(v.named(CLOSED_FORM)),
        "integrate.poisson_s": v.total(v.named("integrate.poisson_integrate")),
        "integrate.cg_calls": len(cg),
        "integrate.dct_calls": len(v.named("integrate.dct")),
        "integrate.cg_iterations": v.attr(cg, "iterations"),
        "integrate.unknowns": v.attr(cg, "unknowns"),
        "integrate.components": components,
        "integrate.align_s": v.total(v.named("integrate.align_depth")),
        "integrate.exp_depth_s": v.total(v.named("integrate.exp_depth")),
        "pipeline.reprojection_s": v.total(v.named("pipeline.reprojection_error")),
        "render.render_scene_s": v.total(v.named("render.render_scene")),
        "render.pixels": v.attr(v.named("render.render_scene"), "pixels"),
        "fileio.read_s": v.total(v.prefixed("fileio.read.")),
        "fileio.write_s": v.total(v.prefixed("fileio.write.")),
        "fileio.bytes_read": v.attr(v.prefixed("fileio.read."), "bytes"),
        "fileio.bytes_written": v.attr(v.prefixed("fileio.write."), "bytes"),
        "config.load_s": v.total(v.named("config.load_config")),
        "pipeline.self_s": sum(v.self_time(i) for i in runs),
    }


def layer_table(spans, loops):
    """Median per-loop busy and self time of every layer over loops."""
    per_loop = [LoopView(spans, loop).layers() for loop in loops]
    names = sorted({name for layers in per_loop for name in layers})
    return {name: tuple(median(layers.get(name, (0.0, 0.0))[k] for layers in per_loop)
                        for k in (0, 1))
            for name in names}

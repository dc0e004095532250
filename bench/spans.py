"""Span tracing from outside the program.

``Tracer.install`` replaces public functions with timing wrappers at the
names their callers look up (``pipeline.recall``, ``scenario.run_baseline``,
``codestream.decode_bands``, ``wavelet.inverse_53`` ...) and ``uninstall``
puts the originals back; nothing under ``src/`` changes. Each call
becomes a span (operation, name, start, end, parent). Spans stay in
memory until ``dump`` writes them out, one JSON array per line.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

from tilecast import annotate, codestream, pipeline, scenario, wavelet


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _count_decode(tr, args, kwargs, result):
    stream = _arg(args, kwargs, 0, "cs")
    resolution = _arg(args, kwargs, 2, "resolution")
    tr.op_streams.append(stream)  # holds the stream so its id stays unique in the op
    for index, _ in result:
        key = (id(stream), index, resolution)
        tr.counts["codestream.decode.tiles"] += 1
        if key in tr.decoded:
            tr.counts["codestream.decode.repeat_tiles"] += 1
        tr.decoded.add(key)


def _count_encode(tr, args, kwargs, result):
    img = _arg(args, kwargs, 0, "img")
    tr.counts["codestream.encode.mb"] += img.width * img.height * img.components / 1e6


def _count_recall(tr, args, kwargs, result):
    anns, gt = _arg(args, kwargs, 0, "anns"), _arg(args, kwargs, 1, "gt")
    tr.counts["metrics.recall.pairs"] += len(anns.boxes) * len(gt)


def _count_transmit(tr, args, kwargs, result):
    tr.counts["channel.transmit.bytes"] += _arg(args, kwargs, 0, "nbytes")


def _count_detect(tr, args, kwargs, result):
    tr.counts["annotate.detect.boxes"] += len(result)


# (owner, attribute, span name, counter); the owner is where the caller looks it up
WRAP_POINTS = (
    (scenario, "run_grid", "scenario.run_grid", None),
    (scenario, "run_baseline", "pipeline.run_baseline", None),
    (scenario, "run_streamlined", "pipeline.run_streamlined", None),
    (scenario, "generate_scene", "raster.generate_scene", None),
    (scenario, "render_recall_svg", "svg.render_recall_svg", None),
    (pipeline, "run_baseline", "pipeline.run_baseline", None),
    (pipeline, "run_streamlined", "pipeline.run_streamlined", None),
    (pipeline, "compute_budget", "pipeline.compute_budget", None),
    (pipeline, "select_tiles_for_human", "pipeline.select_tiles_for_human", None),
    (pipeline, "recall", "metrics.recall", _count_recall),
    (pipeline, "human_annotate", "annotate.human_annotate", None),
    (pipeline, "transmit", "channel.transmit", _count_transmit),
    (annotate.OracleDetector, "detect", "annotate.detect", _count_detect),
    (codestream, "encode", "codestream.encode", _count_encode),
    (codestream, "encode_band", "codestream.encode_band", None),
    (codestream, "decode", "codestream.decode", _count_decode),
    (codestream, "decode_bands", "codestream.decode_bands", None),
    (codestream, "extract", "codestream.extract", None),
    (codestream, "size_of", "codestream.size_of", None),
    (codestream, "write_codestream", "codestream.write_codestream", None),
    (codestream, "parse_codestream", "codestream.parse_codestream", None),
    (codestream, "assemble", "codestream.assemble", None),
    (wavelet, "forward_53", "wavelet.forward_53", None),
    (wavelet, "inverse_53", "wavelet.inverse_53", None),
)

# name -> (unit, better); per-operation means unless the unit says otherwise
LAYER_METRICS = {
    "bench.op.s": ("s/op", "lower"),
    "bench.trace_overhead.s": ("s/op", "lower"),
    "codestream.decode.s": ("s/op", "lower"),
    "codestream.decode.tiles": ("tiles/op", "lower"),
    "codestream.decode.tiles_per_s": ("tiles/s", "higher"),
    "codestream.decode.repeat_tiles": ("tiles/op", "lower"),
    "codestream.decode_bands.calls": ("calls/op", "lower"),
    "wavelet.inverse_53.s": ("s/op", "lower"),
    "wavelet.inverse_53.calls": ("calls/op", "lower"),
    "codestream.encode.s": ("s/op", "lower"),
    "codestream.encode.mb_per_s": ("MB/s", "higher"),
    "codestream.encode_band.calls": ("calls/op", "lower"),
    "wavelet.forward_53.s": ("s/op", "lower"),
    "wavelet.forward_53.calls": ("calls/op", "lower"),
    "codestream.extract.s": ("s/op", "lower"),
    "codestream.io.s": ("s/op", "lower"),
    "codestream.self_s": ("s/op", "lower"),
    "metrics.recall.s": ("s/op", "lower"),
    "metrics.recall.calls": ("calls/op", "lower"),
    "metrics.recall.pairs": ("pairs/call", "lower"),
    "annotate.human_annotate.s": ("s/op", "lower"),
    "annotate.human_annotate.calls": ("calls/op", "lower"),
    "annotate.detect.s": ("s/op", "lower"),
    "annotate.detect.boxes": ("boxes/op", "lower"),
    "pipeline.compute_budget.s": ("s/op", "lower"),
    "pipeline.select_tiles_for_human.s": ("s/op", "lower"),
    "codestream.size_of.s": ("s/op", "lower"),
    "codestream.size_of.calls": ("calls/op", "lower"),
    "pipeline.self_s": ("s/op", "lower"),
    "raster.generate_scene.s": ("s/op", "lower"),
    "scenario.self_s": ("s/op", "lower"),
    "svg.render_recall_svg.s": ("s/op", "lower"),
    "channel.transmit.calls": ("calls/op", "lower"),
    "channel.transmit.bytes": ("bytes/op", "lower"),
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (op, name, start, end, parent span index or -1)
        self.busy = defaultdict(float)  # name -> inclusive seconds over all ops
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)  # module -> seconds not covered by other modules
        self.counts = defaultdict(float)
        self.overhead: list[float] = []  # traced minus untraced seconds, per op pair
        self.ops = 0
        self._originals = []
        self._stack: list[int] = []
        self._op = -1
        self._op_first_span = 0
        self.op_streams: list = []
        self.decoded: set = set()

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, name, counter):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            idx = len(tracer.spans)
            tracer.spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans[idx] = (tracer._op, name, start, end, parent)
            if counter is not None:
                counter(tracer, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for owner, attr, name, counter in WRAP_POINTS:
            fn = owner.__dict__[attr]
            self._originals.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, counter))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._originals):
            setattr(owner, attr, fn)
        self._originals.clear()

    # -- operations -------------------------------------------------------

    def run_op(self, op: int, fn):
        """Run ``fn()`` as one traced operation under a ``bench.op`` root span."""
        self._op = op
        self._op_first_span = len(self.spans)
        self.install()
        try:
            return self._wrap(fn, "bench.op", None)()
        finally:
            self.uninstall()
            self.op_streams, self.decoded = [], set()  # drop this operation's streams
            self._account(self.spans[self._op_first_span :])
            self.ops += 1

    def _account(self, spans) -> None:
        base = self._op_first_span
        child_time = [0.0] * len(spans)
        for _, _, start, end, parent in spans:
            if parent >= base:
                child_time[parent - base] += end - start
        for i, (_, name, start, end, _) in enumerate(spans):
            self.busy[name] += end - start
            self.calls[name] += 1
            self.self_s[name.split(".", 1)[0]] += end - start - child_time[i]

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        n = max(self.ops, 1)
        per_op = {}
        for name in LAYER_METRICS:
            module, rest = name.split(".", 1)
            fn, _, stat = rest.rpartition(".")
            key = f"{module}.{fn}"
            if rest == "self_s":
                per_op[name] = self.self_s[module] / n
            elif stat == "s":
                per_op[name] = self.busy[key] / n
            elif stat == "calls":
                per_op[name] = self.calls[key] / n
        per_op["bench.trace_overhead.s"] = sum(self.overhead) / max(len(self.overhead), 1)
        per_op["codestream.io.s"] = (self.busy["codestream.write_codestream"]
                                     + self.busy["codestream.parse_codestream"]) / n
        for name in ("codestream.decode.tiles", "codestream.decode.repeat_tiles",
                     "annotate.detect.boxes", "channel.transmit.bytes"):
            per_op[name] = self.counts[name] / n
        decode_s, encode_s = self.busy["codestream.decode"], self.busy["codestream.encode"]
        per_op["codestream.decode.tiles_per_s"] = (
            self.counts["codestream.decode.tiles"] / decode_s if decode_s else 0.0)
        per_op["codestream.encode.mb_per_s"] = (
            self.counts["codestream.encode.mb"] / encode_s if encode_s else 0.0)
        recall_calls = self.calls["metrics.recall"]
        per_op["metrics.recall.pairs"] = (
            self.counts["metrics.recall.pairs"] / recall_calls if recall_calls else 0.0)
        return {name: per_op[name] for name in LAYER_METRICS}

    def dump(self, path: str, header: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

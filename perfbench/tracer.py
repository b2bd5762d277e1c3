"""Outside-in tracer for lifetaint: spans and counts at layer boundaries.

Nothing in `src/` is edited.  A function is wrapped at the binding the
program looks it up through: `analysis.py` does `from .cfg import build_cfg`,
so the engine calls `lifetaint.analysis.build_cfg`, and wrapping
`lifetaint.cfg.build_cfg` would record nothing.

Spans are kept in memory, one buffer per thread so that `--jobs` runs are
attributed to the right thread and parent.  A span records its id, its
parent's id, its boundary, the app it belongs to, and its start and end.
Self time (a span's duration minus its children's) is summed per boundary as
spans end.  `write()` dumps every span when the run ends.

Calls that stay inside one layer and happen per instruction
(`handle_instruction`, `api_handlers.lookup`) are counted, not timed: their
time stays in the enclosing span's self time, which is the same layer or the
one that asked, and no span is stored per instruction.
"""

import array
import itertools
import json
import os
import statistics
import threading
import time

import lifetaint.analysis
import lifetaint.api_handlers
import lifetaint.cli
import lifetaint.sequences
from lifetaint.symbols import SymbolSpace

# boundary name -> layer; the name is `module.function` as looked up
SPANS = {
    "analysis.build_cfg": "cfg",
    "analysis.remove_back_edges": "cfg",
    "analysis.reverse_post_order": "cfg",
    "analysis.merge_spaces": "symbols",
    "analysis.analyze_method": "analysis",
    "analysis.sequence": "analysis",        # one item of generate_m_way
    "SymbolSpace.deep_copy": "symbols",
    "cli.load_app": "ir",
    "cli.build_plan": "sequences",
    "cli.receiver_plan": "sequences",
    "cli.analyze_app": "cli",
    "cli.dedup_warnings": "detectors",
    "cli.render_report": "detectors",
    "sequences.derive_paths": "lifecycle",
    "pass": "bench",                        # the benchmark's own span around cli.run
}
NAMES = tuple(SPANS)
_ID = {name: i for i, name in enumerate(NAMES)}
_SEQ = _ID["analysis.sequence"]

_clock = time.perf_counter
DETAIL_SAMPLE = 16


# span columns and their array typecodes
COLUMNS = (("ids", "q"), ("parents", "q"), ("names", "b"), ("apps", "l"),
           ("starts", "d"), ("ends", "d"))


class _Buffer:
    """Spans, counts and self times of one thread."""

    def __init__(self):
        for col, code in COLUMNS:
            setattr(self, col, array.array(code))
        self.stack = []             # open spans: [id, name, child time, start]
        self.self_s = [0.0] * len(NAMES)
        self.calls = [0] * len(NAMES)
        self.counts = {}
        self.app = -1
        self.app_start = 0.0
        self.copies = 0
        self.snapshots = []         # per open analyze_method: {id: [space, read]}
        self.seen = {}              # per pass: kind -> {id: (obj, weight)}

    def add(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def distinct(self, kind, obj, weight=1):
        # the object is held so that its id is not reused within the pass
        self.seen.setdefault(kind, {})[id(obj)] = (obj, weight)


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._buffers = []
        self._ids = itertools.count(1)
        self._app_ids = {}
        self._saved = []
        self.pass_id = 0
        self.pass_start = 0.0
        self.pass_s = []
        self.distinct = {}          # kind -> weight of distinct objects, summed over passes
        # tracer time that a wrapped call adds to its caller's self time;
        # charged to nobody once calibrated
        self.span_cost = 0.0
        self.count_cost = 0.0

    # -- span bookkeeping ---------------------------------------------------

    def _buffer(self):
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _Buffer()
            self._buffers.append(buf)
        return buf

    def _begin(self, buf, name):
        frame = [next(self._ids), name, 0.0, _clock()]
        buf.stack.append(frame)
        return frame

    def _end(self, buf, frame):
        end = _clock()
        sid, name, child, start = frame
        buf.stack.pop()
        dur = end - start
        if buf.stack:
            parent = buf.stack[-1]
            parent[2] += dur + self.span_cost
            pid = parent[0]
        else:
            pid = self.pass_id
        buf.self_s[name] += dur - child
        buf.calls[name] += 1
        buf.ids.append(sid)
        buf.parents.append(pid)
        buf.names.append(name)
        buf.apps.append(buf.app)
        buf.starts.append(start)
        buf.ends.append(end)
        return start, end

    def _untimed(self, buf, started):
        """Charge tracer bookkeeping to nobody: the enclosing span treats it
        as child time, so it lands in no layer's self time."""
        if buf.stack:
            buf.stack[-1][2] += _clock() - started

    def _app_id(self, name):
        return self._app_ids.setdefault(name, len(self._app_ids))

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn, before=None, after=None):
        tracer = self
        nid = _ID[name]

        def wrapper(*args, **kwargs):
            buf = tracer._buffer()
            if before is not None:
                before(buf, args)
            frame = tracer._begin(buf, nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                start, end = tracer._end(buf, frame)
            if after is not None:
                started = _clock()
                after(buf, args, result, start, end)
                tracer._untimed(buf, started)
            return result

        return wrapper

    def _count(self, name, fn, hit=None):
        tracer = self

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            buf = tracer._buffer()
            buf.add(name)
            if hit is not None and result is not None:
                buf.add(hit)
            if buf.stack:
                buf.stack[-1][2] += tracer.count_cost
            return result

        return wrapper

    def _sequences(self, fn):
        """generate_m_way is a generator: each item it yields is one
        sequence, timed from the yield until the engine asks for the next."""
        tracer = self

        def wrapper(*args, **kwargs):
            buf = tracer._buffer()
            for item in fn(*args, **kwargs):
                buf.add("sequences.generated")
                frame = tracer._begin(buf, _SEQ)
                try:
                    yield item
                finally:
                    tracer._end(buf, frame)

        return wrapper

    # -- hooks: counts taken at the boundaries --------------------------------

    @staticmethod
    def _method_before(buf, args):
        if buf.stack and buf.stack[-1][1] == _SEQ:
            buf.add("analysis.callbacks")
        buf.snapshots.append({})

    @staticmethod
    def _method_after(buf, args, result, start, end):
        taken = buf.snapshots.pop()
        buf.add("symbols.block_snapshots", len(taken))
        buf.add("symbols.block_snapshots_read", sum(1 for _, read in taken.values() if read))

    @staticmethod
    def _copy_after(buf, args, result, start, end):
        # a copy of a live block snapshot feeds a merge; any other copy is a
        # block snapshot (analyze_method's OUT_d) and is registered as one
        if buf.snapshots:
            live = buf.snapshots[-1]
            source = live.get(id(args[0]))
            if source is not None:
                source[1] = True
            else:
                live[id(result)] = [result, False]
        # walking a copy costs about as much as making it: walk every
        # DETAIL_SAMPLE-th copy only
        buf.copies += 1
        if buf.copies % DETAIL_SAMPLE == 0:
            buf.add("symbols.sampled_copies")
            buf.add("symbols.snapshot_details", _count_details(result))

    @staticmethod
    def _merge_after(buf, args, result, start, end):
        buf.add("symbols.merge_inputs", len(args[0]))

    @staticmethod
    def _cfg_after(buf, args, result, start, end):
        buf.distinct("cfg.methods", args[0])

    def _load_before(self, buf, args):
        buf.app = self._app_id(os.path.splitext(os.path.basename(str(args[0])))[0])
        buf.app_start = _clock()
        buf.copies = 0  # sample the same copies of an app whatever thread runs it
        buf.add("cli.app_wait_s", buf.app_start - self.pass_start)

    @staticmethod
    def _load_after(buf, args, result, start, end):
        buf.add("ir.instructions", sum(len(m.instructions)
                                       for c in result.classes for m in c.methods))

    def _set_app(self, buf, args):
        buf.app = self._app_id(args[0].app_id)

    @staticmethod
    def _analyze_after(buf, args, result, start, end):
        buf.add("cli.levels", result.m_reached)
        buf.add("cli.app_s", end - buf.app_start)

    @staticmethod
    def _plan_after(buf, args, result, start, end):
        buf.add("sequences.units", len(result.units))

    @staticmethod
    def _dedup_after(buf, args, result, start, end):
        buf.add("detectors.raw_warnings", len(args[0]))
        buf.add("detectors.kept_warnings", len(result))

    @staticmethod
    def _paths_after(buf, args, result, start, end):
        buf.distinct("lifecycle.paths", result, len(result))

    # -- install / remove -----------------------------------------------------

    def calibrate(self, calls=20000, rounds=3):
        """Measure what a wrapped call costs its caller beyond the call
        itself, so that self times leave the tracer out."""
        def noop():
            return None

        def loop(fn):
            started = _clock()
            for _ in range(calls):
                fn()
            return _clock() - started

        span_cost = count_cost = float("inf")
        for _ in range(rounds):
            probe = Tracer()
            buf = probe._buffer()
            timed, counted = probe._span("pass", noop), probe._count("noop", noop)
            base = loop(noop)
            span_cost = min(span_cost, (loop(timed) - buf.self_s[_ID["pass"]] - base) / calls)
            count_cost = min(count_cost, (loop(counted) - base) / calls)
        self.span_cost, self.count_cost = max(span_cost, 0.0), max(count_cost, 0.0)

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self):
        analysis, cli = lifetaint.analysis, lifetaint.cli
        for attr in ("build_cfg", "remove_back_edges", "reverse_post_order"):
            after = self._cfg_after if attr == "build_cfg" else None
            self._patch(analysis, attr,
                        self._span("analysis." + attr, getattr(analysis, attr), after=after))
        self._patch(analysis, "merge_spaces", self._span(
            "analysis.merge_spaces", analysis.merge_spaces, after=self._merge_after))
        self._patch(analysis, "analyze_method", self._span(
            "analysis.analyze_method", analysis.analyze_method,
            before=self._method_before, after=self._method_after))
        self._patch(analysis, "handle_instruction", self._count(
            "analysis.instructions", analysis.handle_instruction))
        self._patch(analysis, "generate_m_way", self._sequences(analysis.generate_m_way))
        self._patch(SymbolSpace, "deep_copy", self._span(
            "SymbolSpace.deep_copy", SymbolSpace.deep_copy, after=self._copy_after))
        self._patch(lifetaint.api_handlers, "lookup", self._count(
            "api_handlers.lookups", lifetaint.api_handlers.lookup, hit="api_handlers.hits"))
        self._patch(cli, "load_app", self._span(
            "cli.load_app", cli.load_app, before=self._load_before, after=self._load_after))
        for attr in ("build_plan", "receiver_plan"):
            self._patch(cli, attr, self._span("cli." + attr, getattr(cli, attr),
                                              after=self._plan_after))
        self._patch(cli, "analyze_app", self._span(
            "cli.analyze_app", cli.analyze_app, before=self._set_app, after=self._analyze_after))
        self._patch(cli, "dedup_warnings", self._span(
            "cli.dedup_warnings", cli.dedup_warnings, after=self._dedup_after))
        self._patch(cli, "render_report", self._span(
            "cli.render_report", cli.render_report, before=self._set_app))
        self._patch(lifetaint.sequences, "derive_paths", self._span(
            "sequences.derive_paths", lifetaint.sequences.derive_paths, after=self._paths_after))

    def remove(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.calibrate()
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()

    # -- passes ---------------------------------------------------------------

    def run_pass(self, fn):
        """Call fn() inside a `pass` span; returns (fn's result, seconds)."""
        buf = self._buffer()
        frame = self._begin(buf, _ID["pass"])
        self.pass_id, self.pass_start = frame[0], frame[3]
        try:
            result = fn()
        finally:
            self.pass_id = 0
            start, end = self._end(buf, frame)
        self.pass_s.append(end - start)
        # distinct objects are counted per pass: the next pass loads the
        # apps and models again
        seen = {}
        for b in self._buffers:
            for kind, objs in b.seen.items():
                seen.setdefault(kind, {}).update(objs)
            b.seen = {}
        for kind, objs in seen.items():
            self.distinct[kind] = self.distinct.get(kind, 0) + sum(w for _, w in objs.values())
        return result, end - start

    # -- results ----------------------------------------------------------------

    def totals(self):
        """(calls, self seconds, counts) summed over every thread."""
        calls = dict.fromkeys(NAMES, 0)
        self_s = dict.fromkeys(NAMES, 0.0)
        counts = {}
        for b in self._buffers:
            for name, i in _ID.items():
                calls[name] += b.calls[i]
                self_s[name] += b.self_s[i]
            for key, n in b.counts.items():
                counts[key] = counts.get(key, 0) + n
        counts.update(self.distinct)
        return calls, self_s, counts

    def span_durations(self, name):
        nid = _ID[name]
        return [e - s for b in self._buffers
                for n, s, e in zip(b.names, b.starts, b.ends) if n == nid]

    def span_count(self):
        return sum(len(b.ids) for b in self._buffers)

    def write(self, prefix):
        """Dump every span: `<prefix>.bin` holds the columns one after the
        other, `<prefix>.json` says how to read them."""
        with open(prefix + ".bin", "wb") as fh:
            for col, _ in COLUMNS:
                for b in self._buffers:
                    getattr(b, col).tofile(fh)
        header = {
            "spans": self.span_count(),
            "columns": COLUMNS,
            "names": list(NAMES),
            "layers": SPANS,
            "apps": sorted(self._app_ids, key=self._app_ids.get),
            "note": "parent 0 is the root; app -1 is none",
        }
        with open(prefix + ".json", "w", encoding="utf-8") as fh:
            json.dump(header, fh, indent=1)


def _count_details(space):
    """EntryDetails objects reachable from a symbol space."""
    stack = [e.details for e in space.regs.values()]
    stack += [e.details for e in space.statics.values()]
    if space.returned is not None:
        stack.append(space.returned.details)
    seen = set()
    while stack:
        det = stack.pop()
        if id(det) not in seen:
            seen.add(id(det))
            stack.extend(f.details for f in det.fields.values())
    return len(seen)


LAYER_SPANS = {
    "ir": ("cli.load_app",),
    "lifecycle": ("sequences.derive_paths",),
    "sequences": ("cli.build_plan", "cli.receiver_plan"),
    "analysis": ("analysis.analyze_method", "analysis.sequence"),
    "cfg": ("analysis.build_cfg", "analysis.remove_back_edges", "analysis.reverse_post_order"),
    "symbols.snapshot": ("SymbolSpace.deep_copy",),
    "symbols.merge": ("analysis.merge_spaces",),
    "detectors.dedup": ("cli.dedup_warnings",),
    "detectors.render": ("cli.render_report",),
}


def per_layer_metrics(tracer, jobs, untraced_p50, scale=1.0):
    """The named per-layer metrics, per pass (counts and seconds).

    Seconds are multiplied by `scale` (to reference seconds, see
    hostspeed.py); `untraced_p50` is already in reference seconds.
    """
    passes = len(tracer.pass_s)
    calls, self_s, counts = tracer.totals()

    def per_pass(x):
        return x / passes

    def layer_s(layer):
        return per_pass(sum(self_s[n] for n in LAYER_SPANS[layer])) * scale

    def ratio(a, b):
        return a / b if b else 0.0

    sequences = calls["analysis.sequence"]
    apps = calls["cli.load_app"]
    seq_s = tracer.span_durations("analysis.sequence")
    traced_p50 = statistics.median(tracer.pass_s)
    m = {
        "ir.load_s": (layer_s("ir"), "s"),
        "ir.instructions": (per_pass(counts.get("ir.instructions", 0)), "count"),
        "lifecycle.derive_s": (layer_s("lifecycle"), "s"),
        "lifecycle.paths": (per_pass(counts.get("lifecycle.paths", 0)), "count"),
        "sequences.plan_s": (layer_s("sequences"), "s"),
        "sequences.units": (per_pass(counts.get("sequences.units", 0)), "count"),
        "sequences.generated": (per_pass(counts.get("sequences.generated", 0)), "count"),
        "analysis.sequences": (per_pass(sequences), "count"),
        "analysis.callbacks": (per_pass(counts.get("analysis.callbacks", 0)), "count"),
        "analysis.callbacks_per_sequence": (
            ratio(counts.get("analysis.callbacks", 0), sequences), "ratio"),
        "analysis.method_calls": (per_pass(calls["analysis.analyze_method"]), "count"),
        "analysis.instructions": (per_pass(counts.get("analysis.instructions", 0)), "count"),
        "analysis.self_s": (layer_s("analysis"), "s"),
        "analysis.sequence_s.p50": (statistics.median(seq_s) * scale if seq_s else 0.0, "s"),
        "cfg.builds": (per_pass(calls["analysis.build_cfg"]), "count"),
        "cfg.s": (layer_s("cfg"), "s"),
        "cfg.builds_per_method": (
            ratio(calls["analysis.build_cfg"], counts.get("cfg.methods", 0)), "ratio"),
        "symbols.snapshots": (per_pass(calls["SymbolSpace.deep_copy"]), "count"),
        "symbols.snapshot_s": (layer_s("symbols.snapshot"), "s"),
        "symbols.snapshot_details": (
            ratio(counts.get("symbols.snapshot_details", 0),
                  counts.get("symbols.sampled_copies", 0)), "count"),
        "symbols.merges": (per_pass(calls["analysis.merge_spaces"]), "count"),
        "symbols.merge_inputs": (per_pass(counts.get("symbols.merge_inputs", 0)), "count"),
        "symbols.merge_s": (layer_s("symbols.merge"), "s"),
        "symbols.snapshot_use_ratio": (
            ratio(counts.get("symbols.block_snapshots_read", 0),
                  counts.get("symbols.block_snapshots", 0)), "ratio"),
        "api_handlers.lookups": (per_pass(counts.get("api_handlers.lookups", 0)), "count"),
        "api_handlers.hit_ratio": (
            ratio(counts.get("api_handlers.hits", 0), counts.get("api_handlers.lookups", 0)),
            "ratio"),
        "detectors.raw_warnings": (per_pass(counts.get("detectors.raw_warnings", 0)), "count"),
        "detectors.kept_warnings": (per_pass(counts.get("detectors.kept_warnings", 0)), "count"),
        "detectors.dedup_s": (layer_s("detectors.dedup"), "s"),
        "detectors.render_s": (layer_s("detectors.render"), "s"),
        "cli.apps": (per_pass(apps), "count"),
        "cli.levels": (per_pass(counts.get("cli.levels", 0)), "count"),
        "cli.app_wait_s": (ratio(counts.get("cli.app_wait_s", 0.0), apps) * scale, "s"),
        "cli.parallel_efficiency": (
            ratio(counts.get("cli.app_s", 0.0), jobs * sum(tracer.pass_s)), "ratio"),
        "trace.overhead": (traced_p50 * scale / untraced_p50 - 1.0, "ratio"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}

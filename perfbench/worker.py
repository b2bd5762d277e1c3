"""Run one workload in this process and print its raw result as JSON.

run.py starts this as a child process per workload, so that each workload
gets a fresh interpreter and its own peak RSS.  A pass is one call of
`lifetaint.cli.run` (the `lifetaint` command's code path) over every app of
the batch; its JSON reports are checked against the expected verdicts and
hashed.

Usage: python3 perfbench/worker.py BATCH.json SECONDS TRACE SPANS_PREFIX
"""

import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import hostspeed  # noqa: E402
import tracer as tracing  # noqa: E402
from lifetaint import cli  # noqa: E402

MIN_PASSES = 3


def split_reports(text):
    """The JSON documents of a pass's output, in order."""
    decoder = json.JSONDecoder()
    docs, pos = [], 0
    text = text.strip()
    while pos < len(text):
        doc, pos = decoder.raw_decode(text, pos)
        docs.append(doc)
        while pos < len(text) and text[pos].isspace():
            pos += 1
    return docs


def verdict(doc):
    """The part of a report that the expected verdicts pin."""
    return {
        "m_reached": doc["m_reached"],
        "finished": doc["finished"],
        "warnings": sorted(
            ({"kind": w["kind"], "source_apis": sorted(w["source_apis"]),
              "sink_api": w["sink_api"], "detected_at_m": w["detected_at_m"]}
             for w in doc["warnings"]),
            key=lambda w: (w["kind"], w["source_apis"], w["sink_api"])),
    }


def check(text, status, batch):
    """(failed apps, sequences analyzed, mismatch messages) for one pass."""
    expected = batch["expected"]
    docs = split_reports(text)
    got = {d["app_id"]: d for d in docs}
    failed, sequences, problems = 0, 0, []
    for app_id in batch["app_ids"]:
        doc = got.get(app_id)
        want = expected[app_id]
        if doc is None or "error" in doc or verdict(doc) != verdict(want):
            failed += 1
            problems.append("%s: got %s, expected %s" % (
                app_id, doc and (doc.get("error") or verdict(doc)), verdict(want)))
        if doc is not None:
            sequences += doc["sequences_analyzed"]
    if status != 0 or len(docs) != len(batch["app_ids"]):
        failed = max(failed, 1)
        problems.append("exit status %d, %d reports" % (status, len(docs)))
    return failed, sequences, problems


class Runner:
    def __init__(self, batch):
        self.batch = batch
        self.config = dict(app_paths=batch["apps"], m_max=batch["m_max"], jobs=batch["jobs"])
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digests = set()

    def one_pass(self, wrap=None):
        out = io.StringIO()

        def call():
            return cli.run(cli.RunConfig(out=out, **self.config))

        if wrap is None:
            started = time.perf_counter()
            status = call()
            seconds = time.perf_counter() - started
        else:
            status, seconds = wrap(call)
        text = out.getvalue()
        failed, sequences, problems = check(text, status, self.batch)
        self.attempted += len(self.batch["app_ids"])
        self.failed += failed
        self.problems += problems[:5]
        self.digests.add(hashlib.sha256(text.encode("utf-8")).hexdigest())
        return seconds, sequences

    def passes(self, seconds, wrap=None):
        """Passes until `seconds` have gone by, with a run of the host-speed
        task before the first and after each; returns (seconds of each pass,
        sequences analyzed over all of them, seconds of each task run)."""
        times, sequences = [], 0
        tasks = [hostspeed.task_seconds()]
        deadline = time.perf_counter() + seconds
        while len(times) < MIN_PASSES or time.perf_counter() < deadline:
            took, seqs = self.one_pass(wrap)
            times.append(took)
            sequences += seqs
            tasks.append(hostspeed.task_seconds())
        return times, sequences, tasks


def main(argv):
    batch_path, seconds, trace, spans_prefix = argv
    with open(batch_path, encoding="utf-8") as fh:
        batch = json.load(fh)
    seconds, trace = float(seconds), trace == "1"
    runner = Runner(batch)
    runner.one_pass()  # warm-up: imports and first-use costs; checked, not timed
    result = {}
    if not trace:
        times, sequences, tasks = runner.passes(seconds)
    else:
        times, sequences, tasks = runner.passes(seconds / 2)
        with tracing.Tracer() as tr:
            traced_tasks = runner.passes(seconds / 2, wrap=tr.run_pass)[2]
        traced_scale = statistics.median(hostspeed.normalize([1.0] * len(tr.pass_s),
                                                             traced_tasks))
        result["layers"] = tracing.per_layer_metrics(
            tr, batch["jobs"], statistics.median(hostspeed.normalize(times, tasks)),
            traced_scale)
        result["spans"] = tr.span_count()
        tr.write(spans_prefix)
    result.update(
        pass_s=times,
        task_s=tasks,
        sequences=sequences,
        attempted=runner.attempted,
        failed=runner.failed,
        problems=runner.problems[:10],
        digests=sorted(runner.digests),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])

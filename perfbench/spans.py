"""In-memory spans recorded by the benchmark around its calls into hardy_lab.

A span has a name, a start, an end, its parent span and a run id (one per
timed workload run, shared with the set-up that made its inputs). Nothing is written while the
benchmark measures; the spans are dumped with the result file at the end.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from time import perf_counter


class Tracer:
    """Records nested spans while `enabled`; otherwise `span` does nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.run_id = ""
        self.spans: list[dict] = []
        self._open: list[int] = []

    def span(self, name: str):
        return self._record(name) if self.enabled else nullcontext()

    @contextmanager
    def _record(self, name: str):
        rec = {"id": len(self.spans), "name": name, "run": self.run_id,
               "parent": self._open[-1] if self._open else None,
               "start": perf_counter(), "end": None}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = perf_counter()
            self._open.pop()


def self_times(spans: list[dict]) -> list[float]:
    """Duration of each span minus the time its child spans cover.

    Spans come from one thread, so siblings never overlap and the covered
    time is the sum of the children's durations.
    """
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_times(spans: list[dict], span_metric: dict[str, str]) -> dict[str, float]:
    """Per-layer self time: summed over the spans of one run, least over runs.

    The least, like wall_s, so that a slow phase of a shared host does not
    show as a slow layer. Runs that never call into a layer are left out; a
    layer no run called reports 0.
    """
    per_run: dict[str, dict[str, float]] = {}
    for s, own in zip(spans, self_times(spans)):
        metric = span_metric.get(s["name"])
        if metric is not None:
            runs = per_run.setdefault(metric, {})
            runs[s["run"]] = runs.get(s["run"], 0.0) + own
    out = {m: 0.0 for m in span_metric.values()}
    for metric, runs in per_run.items():
        out[metric] = min(runs.values())
    return out

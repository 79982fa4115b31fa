"""Outside-in span recorder for the benchmark's traced runs.

The recorder wraps the library's public entry points from the outside:
it replaces each target attribute with a timing wrapper for the
duration of a traced run and restores the original afterwards.  Nothing
under ``src/`` is edited and nothing there records anything.

``from x import y`` copies the name ``y`` into the importing module, so
a function is patched at *every binding site* that the measured code
calls it through (for example ``materialize_selection`` is called as
``repro.core.base.materialize_selection``, not through its defining
module).  Methods are patched on the class that defines them.

Each span records its layer, process, thread, id, parent id, start,
end and *self time*: its duration minus the part its child spans cover.
Spans stay in memory.  Fork children (the experiment runner's worker
pool) start with an empty buffer and append their spans to a per-pid
file under the trace directory whenever an outermost span ends; the
parent merges those files after the fan-out returns.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from pathlib import Path
from typing import Callable, Iterable

#: Span tuple fields, in order.
SPAN_FIELDS = ("layer", "phase", "pid", "tid", "id", "parent", "start", "end", "self", "value")

# Index of each field in a span tuple.
LAYER, PHASE, PID, TID, ID, PARENT, START, END, SELF, VALUE = range(len(SPAN_FIELDS))


class SpanRecorder:
    """Patches public entry points with timing wrappers and keeps spans.

    Args:
        trace_dir: directory for fork children's per-pid span files.
    """

    def __init__(self, trace_dir: Path) -> None:
        self.trace_dir = Path(trace_dir)
        self.spans: list[tuple] = []
        self.phase = "setup"
        self._origin_pid = os.getpid()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []
        self._lock = threading.Lock()
        os.register_at_fork(after_in_child=self._after_fork)

    # -- lifecycle ---------------------------------------------------------------

    def _after_fork(self) -> None:
        if not self._patches:
            return
        self.spans = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _frames(self) -> list:
        frames = getattr(self._local, "frames", None)
        if frames is None:
            frames = self._local.frames = []
        return frames

    def patch(
        self,
        owner: object,
        attr: str,
        layer: str,
        value: Callable | None = None,
        before: Callable | None = None,
    ) -> None:
        """Wrap ``owner.attr`` so each call records a span of ``layer``.

        ``value(args, result, state)`` computes a per-span count (for
        example records returned); ``before(args)`` captures the
        ``state`` it needs before the call.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            frames = recorder._frames()
            parent = frames[-1] if frames else None
            frame = [next(recorder._ids), 0.0]
            frames.append(frame)
            state = before(args) if before is not None else None
            start = time.perf_counter()
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                frames.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                count = value(args, result, state) if value is not None and result is not None else 0
                span = (
                    layer, recorder.phase, os.getpid(), threading.get_ident(),
                    frame[0], parent[0] if parent is not None else 0,
                    start, end, duration - frame[1], count,
                )
                with recorder._lock:
                    recorder.spans.append(span)
                if not frames and os.getpid() != recorder._origin_pid:
                    recorder._flush_child()

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def unpatch(self) -> None:
        """Restore every patched attribute (newest first)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _flush_child(self) -> None:
        """Append this fork child's spans to its per-pid file."""
        with self._lock:
            spans, self.spans = self.spans, []
        path = self.trace_dir / f"spans-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(span) + "\n")

    def merge_children(self) -> None:
        """Fold fork children's span files into :attr:`spans`."""
        for path in sorted(self.trace_dir.glob("spans-*.jsonl")):
            with open(path, encoding="utf-8") as handle:
                self.spans.extend(tuple(json.loads(line)) for line in handle)
            path.unlink()

    def write(self, path: Path) -> None:
        """Write every span as one JSON document (called at the end)."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": SPAN_FIELDS, "spans": self.spans}, handle)

    # -- queries -----------------------------------------------------------------

    def select(self, phase: str = "timed", layers: Iterable[str] | None = None) -> list[tuple]:
        wanted = None if layers is None else set(layers)
        return [
            span for span in self.spans
            if span[PHASE] == phase and (wanted is None or span[LAYER] in wanted)
        ]

    def self_seconds(self, layers: Iterable[str], phase: str = "timed") -> float:
        return sum(span[SELF] for span in self.select(phase, layers))

    def count(self, layers: Iterable[str], phase: str = "timed") -> int:
        return len(self.select(phase, layers))

    def value_sum(self, layers: Iterable[str], phase: str = "timed") -> float:
        return sum(span[VALUE] for span in self.select(phase, layers))

    def thread_accounting(self, pid: int, tid: int, phase: str = "timed") -> tuple[float, float]:
        """``(self_sum, root_sum)`` for one thread: the self times of all
        its spans and the durations of its outermost spans.  The two are
        equal exactly when every span nests inside its parent, which is
        what lets self times account for the thread's wall time."""
        spans = [s for s in self.select(phase) if s[PID] == pid and s[TID] == tid]
        ids = {span[ID] for span in spans}
        self_sum = sum(span[SELF] for span in spans)
        root_sum = sum(span[END] - span[START] for span in spans if span[PARENT] not in ids)
        return self_sum, root_sum

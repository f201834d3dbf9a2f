"""In-memory span recorder and the wrappers that feed it.

The benchmark traces the program from outside: `timing` and `counting`
replace public entry points with recording wrappers at the name each
caller looks up (a module global such as `bladebind.codec.similarity`,
or a class attribute such as `Multivector.gp`) and put the originals
back on exit.  No program source is edited.

`timing` records spans on calls of a few microseconds or more.  Calls
that take well under a microsecond (`product_sign`, `hamming`,
`BladeIndex.__init__`) are only counted, under `counting`, in a replay
of their own: a wrapper would cost more than the call it measures.
Their per-call times come from the timed loops in `harness`.
"""

from __future__ import annotations

import gzip
import json
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """Spans as parallel arrays: name, start, end, parent span, operation id."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.counts: Counter = Counter()
        self.op_id = -1
        self._stack = [-1]

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def spanned(self, name, fn, only_under=None):
        """Wrap fn so each call records one span.

        With only_under set, a call records a span only when the
        innermost open span has that name; other calls go straight to fn.
        """
        nid = self._intern(name)
        parent_nid = None if only_under is None else self._intern(only_under)
        stack = self._stack
        name_id = self.name_id

        def wrapper(*args, **kwargs):
            if parent_nid is not None and (stack[-1] < 0 or name_id[stack[-1]] != parent_nid):
                return fn(*args, **kwargs)
            sid = len(self.start)
            name_id.append(nid)
            self.parent.append(stack[-1])
            self.op.append(self.op_id)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(sid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.start[sid] = t0
                self.end[sid] = t1

        return wrapper

    def counted(self, name, fn, before=None, after=None):
        """Wrap fn so each call adds one to counts[name]; hooks see args and result."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            if before is not None:
                before(counts, args)
            result = fn(*args, **kwargs)
            if after is not None:
                after(counts, result)
            return result

        return wrapper

    # --- analysis ---------------------------------------------------------

    def durations(self) -> tuple[list, list]:
        """Per span: total duration and self time (duration minus children)."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * len(dur)
        for sid, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[sid]
        return dur, [d - c for d, c in zip(dur, child)]

    def write(self, path, counts) -> None:
        """Dump every span, column-wise, and the given counts as gzipped JSON."""
        doc = {
            "names": self.names,
            "columns": ["name", "start", "end", "parent", "op"],
            "spans": [
                list(row)
                for row in zip(self.name_id, self.start, self.end, self.parent, self.op)
            ],
            "counts": dict(counts),
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh)


def _count_term_pairs(counts, args):
    counts["multivector.gp_term_pairs"] += len(args[0]) * len(args[1])


def _count_nonzero(counts, result):
    if result != 0.0:
        counts["multivector.similarity_nonzero"] += 1


@contextmanager
def _patched(patches):
    saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, new in patches:
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)


def timing(tracer: Tracer, multivector, codec):
    """Spans on the codec entry points, similarity, and the unbind product.

    `Multivector.gp` is spanned only when `ga_decode` calls it directly
    (the unbind), not for the per-filler products inside similarity.
    """
    memory_cls = codec.CleanupMemory
    return _patched([
        (codec, "ga_encode", tracer.spanned("codec.ga_encode", codec.ga_encode)),
        (codec, "ga_decode", tracer.spanned("codec.ga_decode", codec.ga_decode)),
        (codec, "classic_encode", tracer.spanned("codec.classic_encode", codec.classic_encode)),
        (codec, "classic_decode", tracer.spanned("codec.classic_decode", codec.classic_decode)),
        (codec, "majority_chunk", tracer.spanned("codec.majority_chunk", codec.majority_chunk)),
        (codec, "similarity", tracer.spanned("multivector.similarity", codec.similarity)),
        (memory_cls, "from_table", staticmethod(
            tracer.spanned("codec.CleanupMemory.from_table", memory_cls.from_table))),
        (multivector.Multivector, "gp", tracer.spanned(
            "multivector.gp", multivector.Multivector.gp, only_under="codec.ga_decode")),
    ])


def counting(tracer: Tracer, blades, multivector, codec):
    """Counters on the calls too short to span, and on every product and similarity."""
    mv_cls = multivector.Multivector
    return _patched([
        (codec, "similarity", tracer.counted("multivector.similarity", codec.similarity,
                                             after=_count_nonzero)),
        (mv_cls, "gp", tracer.counted("multivector.gp", mv_cls.gp, before=_count_term_pairs)),
        (codec, "product_sign", tracer.counted("blades.product_sign", codec.product_sign)),
        (multivector, "product_sign",
         tracer.counted("blades.product_sign", multivector.product_sign)),
        (codec, "hamming", tracer.counted("codec.hamming", codec.hamming)),
        (blades.BladeIndex, "__init__",
         tracer.counted("blades.BladeIndex", blades.BladeIndex.__init__)),
    ])

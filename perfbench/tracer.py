"""Spans around the program's layer boundaries, recorded from outside.

The tracer replaces chosen functions of ``mtcut`` modules with wrappers
that time each call. A function is replaced on its own module and on
every other ``mtcut`` module that imported it by name, because that is
the attribute the caller looks up. Spans are kept in memory and written
out by the caller when the run ends; ``restore`` puts every original
object back.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        # (span id, parent id or -1, name, start, end, note)
        self.spans: list[tuple[int, int, str, float, float, object]] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def wrap_function(self, name: str, module: str, attr: str, note=None, before=None) -> None:
        """Trace ``module.attr`` and every mtcut module attribute bound to it."""
        original = getattr(sys.modules[module], attr)
        wrapper = self._wrapper(name, original, note, before)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "mtcut" or mod_name.startswith("mtcut.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def wrap_method(self, name: str, cls: type, attr: str, note=None) -> None:
        original = cls.__dict__[attr]
        self._patched.append((cls, attr, original))
        setattr(cls, attr, self._wrapper(name, original, note, None))

    def restore(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def _wrapper(self, name, fn, note, before):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            pre = before(*args, **kwargs) if before is not None else None
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans.append((sid, parent, name, start, clock(), None))
                stack.pop()
                raise
            end = clock()
            stack.pop()
            info = note(result, pre) if note is not None else None
            spans.append((sid, parent, name, start, end, info))
            return result

        return traced

    # -- aggregation --------------------------------------------------------

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds, self seconds, notes.

        Self time is a span's duration minus the durations of its direct
        child spans.
        """
        child_time: dict[int, float] = defaultdict(float)
        for _, parent, _, start, end, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0,
                                                    "notes": []})
        for sid, _, name, start, end, info in self.spans:
            entry = out[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child_time[sid]
            if info is not None:
                entry["notes"].append(info)
        return dict(out)

    def write(self, path: str) -> None:
        """Write every span as CSV: id, parent, name, start, end (seconds)."""
        with open(path, "w") as fh:
            fh.write("id,parent,name,start,end\n")
            for sid, parent, name, start, end, _ in sorted(self.spans):
                fh.write(f"{sid},{parent},{name},{start:.9f},{end:.9f}\n")


class ClockWatch:
    """Records every clock read the solver modules make.

    The solver can only notice its deadline when it reads the clock, so the
    longest stretch between two reads is how far a time limit can be
    overrun. The modules' ``time`` attribute is replaced by a proxy whose
    ``monotonic`` records each read; ``restore`` puts the module back.
    """

    MODULES = ("mtcut.reductions", "mtcut.solver", "mtcut.localsearch")

    def __init__(self):
        self.reads: list[float] = []
        self._patched: list[tuple[object, object]] = []

    def install(self) -> None:
        reads = self.reads
        mono = time.monotonic

        class _Proxy:
            def __getattr__(self, key):
                return getattr(time, key)

            @staticmethod
            def monotonic():
                t = mono()
                reads.append(t)
                return t

        proxy = _Proxy()
        for name in self.MODULES:
            mod = sys.modules[name]
            self._patched.append((mod, mod.time))
            mod.time = proxy

    def restore(self) -> None:
        for mod, original in reversed(self._patched):
            mod.time = original
        self._patched.clear()

    def take_max_gap(self, measure=None) -> float:
        """Longest interval between consecutive reads since the last call,
        as wall seconds or as ``measure(start, end)`` gives it."""
        reads = self.reads
        gaps = [(b - a, a, b) for a, b in zip(reads, reads[1:])]
        reads.clear()
        if not gaps:
            return 0.0
        longest = max(g for g, _, _ in gaps)
        if measure is None:
            return longest
        # a speed correction is far less than twofold, so the longest
        # measured gap is among the wall gaps of at least half the longest
        return max(measure(a, b) for g, a, b in gaps if g >= longest / 2)

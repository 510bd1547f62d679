"""Span recorder that wraps named public mazekit functions from outside.

No program file changes: ``install`` replaces each traced function at every
``mazekit.*`` module binding (the defining module and every module that
imported the name), so intra-module calls and cross-module calls are both
seen.  ``uninstall`` restores the original objects.

Spans nest.  A span's self time is its duration minus the time covered by
its child spans.  Spans are aggregated in memory per function (calls,
inclusive time, self time, plus an optional size measure) rather than kept
one by one: ``SplitMix64.next_u64`` alone opens about a hundred thousand
spans per build.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time

# (module, qualified name) of every traced function, named as the per-layer
# metrics name them: "<module>.<qualname>".
TRACED = (
    ("rng", "SplitMix64.next_u64"),
    ("generate", "generate_maze"),
    ("generate", "place_endpoints"),
    ("generate", "solve_shortest_path"),
    ("core", "validate_maze"),
    ("core", "simulate_moves"),
    ("tokens", "render_maze_tokens"),
    ("tokens", "parse_maze_tokens"),
    ("tokens", "extract_move_tokens"),
    ("bench", "maze_id"),
    ("augment", "augment_trace"),
    ("dataset", "build_splits"),
    ("dataset", "write_records"),
    ("dataset", "read_records"),
    ("dataset", "validate_record"),
    ("rewards", "total_reward"),
    ("rewards", "correctness_reward"),
    ("rewards", "integrity_reward"),
    ("rewards", "thinking_reward"),
    ("rewards", "group_advantages"),
    ("cli", "main"),
)


# Size measures summed per call: characters scanned, bytes written or read.
# mazekit passes these arguments positionally.
MEASURES = {
    "tokens.extract_move_tokens": lambda args: len(args[0]),
    "dataset.write_records": lambda args: os.path.getsize(args[1]),
    "dataset.read_records": lambda args: os.path.getsize(args[0]),
}


class Tracer:
    """Aggregated span statistics: name -> [calls, total_ns, self_ns, measure]."""

    def __init__(self) -> None:
        self.stats: dict[str, list[int]] = {}
        self._child_ns: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, [0, 0, 0, 0])
        child_ns = self._child_ns
        clock = time.perf_counter_ns
        measure = MEASURES.get(name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            child_ns.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - child_ns.pop()
                if child_ns:
                    child_ns[-1] += dur
            if measure is not None:
                stat[3] += measure(args)
            return result

        return span

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [
            mod
            for key, mod in list(sys.modules.items())
            if mod is not None and (key == "mazekit" or key.startswith("mazekit."))
        ]
        for mod_name, qualname in TRACED:
            name = f"{mod_name}.{qualname}"
            home = importlib.import_module(f"mazekit.{mod_name}")
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                owner = getattr(home, cls_name)
                orig = owner.__dict__[attr]
                self._restore.append((owner, attr, orig))
                setattr(owner, attr, self._wrap(name, orig))
                continue
            orig = getattr(home, qualname)
            wrapped = self._wrap(name, orig)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._restore.append((mod, attr, orig))
                        setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def snapshot(self) -> dict[str, tuple[int, int]]:
        """Counts only (calls, measure): these must repeat exactly."""
        return {name: (s[0], s[3]) for name, s in self.stats.items()}

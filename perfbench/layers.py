"""Per-layer tracing from outside the program.

A :class:`Tracer` replaces module-level names of the ``augmis`` package
(``augmis.solver.find_tree_extension``, ``augmis.enumeration.canon_code``
and so on) with timing wrappers for the length of a ``with`` block and
puts the originals back afterwards; no program file is edited.  Wrappers
are bound where the caller looks the name up, which for a
``from .x import f`` import is the caller's module.

Solves, finder calls and enumeration levels become spans (see
``SPAN_FIELDS``), kept in memory until the run writes them out.  The
detail of a finder span is whether it hit; of a solve span, its number
of augmentations.  The hot boundaries (``canon_code`` and the anchored
pattern search, 10^4 calls or more in a sweep pass or a set-up), the
Hall checks and the brute-force oracle keep aggregated counters instead
of one span per call.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Any, Callable, Iterator

from augmis import enumeration, irreducible, solver

FINDERS = {
    "find_augmenting_path": "path",
    "find_tree_extension": "tree",
    "find_from_catalog": "catalog",
}

# (module, attribute, counter): aggregated boundaries.  A counter's
# "hits" are calls that returned a truthy value.
COUNTED = (
    (enumeration, "canon_code", "canonical.enumeration"),
    (irreducible, "canon_code", "canonical.irreducible"),
    (enumeration, "_contains_anchored", "patterns.anchored"),
    (irreducible, "hall_surplus_check", "irreducible.hall"),
    (solver, "brute_force_mis", "solver.brute"),
)


SPAN_FIELDS = ("id", "parent", "solve", "name", "start", "end", "detail")


class Counter:
    __slots__ = ("calls", "hits", "seconds")

    def __init__(self) -> None:
        self.calls = 0
        self.hits = 0
        self.seconds = 0.0


class Tracer:
    """Installs the wrappers; holds spans and counters for one phase."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []
        self.counters: dict[str, Counter] = defaultdict(Counter)
        self.reset()

    def reset(self) -> None:
        """Start a new phase.  Counters are zeroed in place because the
        installed wrappers hold them."""
        self.spans: list[tuple] = []
        for c in self.counters.values():
            c.__init__()
        self._stack: list[int] = []
        self._solve_id = -1

    # -- install / restore ------------------------------------------------

    def __enter__(self) -> "Tracer":
        for name, short in FINDERS.items():
            self._patch(solver, name, self._span_wrap(f"finders.{short}"))
        self._patch(solver, "solve_mis", self._solve_wrap)
        self._patch(solver, "enumerate_irreducible",
                    self._span_wrap("irreducible.enumerate"))
        self._patch(irreducible, "grow_balanced_bicolored_raw",
                    self._count_yields("irreducible.grown"))
        self._patch(enumeration, "grow_graphs", self._level_wrap)
        for module, attr, key in COUNTED:
            self._patch(module, attr, self._count_wrap(key))
        return self

    def __exit__(self, *exc: object) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _patch(self, module: Any, attr: str, make: Callable) -> None:
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))

    # -- wrappers ---------------------------------------------------------

    def _open(self) -> int:
        sid = len(self.spans)
        self.spans.append(None)  # placeholder keeps ids in start order
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, name: str, t0: float, detail: Any) -> None:
        t1 = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[sid] = (sid, parent, self._solve_id, name, t0, t1, detail)

    def _span_wrap(self, name: str) -> Callable:
        def make(fn: Callable) -> Callable:
            def wrapped(*args, **kwargs):
                sid = self._open()
                t0 = time.perf_counter()
                out = None
                try:
                    out = fn(*args, **kwargs)
                    return out
                finally:
                    self._close(sid, name, t0, out is not None)
            return wrapped
        return make

    def _solve_wrap(self, fn: Callable) -> Callable:
        def wrapped(*args, **kwargs):
            self._solve_id += 1
            sid = self._open()
            t0 = time.perf_counter()
            iterations = 0
            try:
                out = fn(*args, **kwargs)
                iterations = out.iterations
                return out
            finally:
                self._close(sid, "solver.solve", t0, iterations)
        return wrapped

    def _count_wrap(self, key: str) -> Callable:
        counter = self.counters[key]

        def make(fn: Callable) -> Callable:
            def wrapped(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    counter.seconds += time.perf_counter() - t0
                    counter.calls += 1
                if out:
                    counter.hits += 1
                return out
            return wrapped
        return make

    def _count_yields(self, key: str) -> Callable:
        def make(fn: Callable) -> Callable:
            def wrapped(*args, **kwargs) -> Iterator:
                counter = self.counters[key]
                for item in fn(*args, **kwargs):
                    counter.calls += 1
                    yield item
            return wrapped
        return make

    def _level_wrap(self, fn: Callable) -> Callable:
        """Times the generator's own work between yields, one span per
        level.  A level is built inside the call that yields its first
        graph; the consumer's work between yields is left out, so a
        level span ends at its start plus its busy time."""

        def wrapped(*args, **kwargs) -> Iterator:
            kept = self.counters["enumeration.kept"]
            it = iter(fn(*args, **kwargs))
            level, start, busy = 0, 0.0, 0.0
            while True:
                t0 = time.perf_counter()
                g = next(it, None)
                t1 = time.perf_counter()
                if g is None or g.n != level:
                    if level:
                        self.spans.append((len(self.spans), -1, -1,
                                           f"enumeration.level.n{level}",
                                           start, start + busy, None))
                    if g is None:
                        return
                    level, start, busy = g.n, t0, 0.0
                busy += t1 - t0
                kept.calls += 1
                yield g

        return wrapped

    # -- reports ----------------------------------------------------------

    def boundary_metrics(self, prefix: str = "") -> dict[str, float]:
        """The aggregated canonical-code and anchored-search counters."""
        canon_e = self.counters["canonical.enumeration"]
        canon_i = self.counters["canonical.irreducible"]
        anchored = self.counters["patterns.anchored"]
        return {
            prefix + "canonical.canon_calls": canon_e.calls + canon_i.calls,
            prefix + "canonical.canon_s": canon_e.seconds + canon_i.seconds,
            prefix + "patterns.anchored_calls": anchored.calls,
            prefix + "patterns.anchored_hits": anchored.hits,
            prefix + "patterns.anchored_s": anchored.seconds,
        }

    def setup_metrics(self, entries: int) -> dict[str, float]:
        """Metrics of a phase that built the catalogue."""
        hall = self.counters["irreducible.hall"]
        m = self.boundary_metrics("setup.")
        m.update({
            "irreducible.grown": self.counters["irreducible.grown"].calls,
            "irreducible.entries": entries,
            "irreducible.hall_calls": hall.calls,
            "irreducible.hall_s": hall.seconds,
            "irreducible.enumerate_s": sum(
                t1 - t0 for _, _, _, name, t0, t1, _ in self.spans
                if name == "irreducible.enumerate"
            ),
        })
        return m

    def pass_metrics(self) -> dict[str, float]:
        """Solver, finder and enumeration metrics of a measured pass.

        Solver self time is solve time minus the finder spans inside it.
        The final round, where all three finders miss, is the last call
        of each finder in a solve.
        """
        m: dict[str, float] = {"enumeration.level_s.n7": 0.0,
                               "enumeration.level_s.n8": 0.0}
        finder = {short: [0, 0, 0.0, 0.0] for short in FINDERS.values()}
        last: dict[tuple[int, str], float] = {}
        solves = iterations = 0
        solve_s = finder_s = 0.0
        for _, _, solve_id, name, t0, t1, detail in self.spans:
            d = t1 - t0
            if name == "solver.solve":
                solves += 1
                iterations += detail
                solve_s += d
            elif name.startswith("finders."):
                short = name[len("finders."):]
                f = finder[short]
                f[0] += 1
                if detail:
                    f[1] += 1
                    f[2] += d
                else:
                    f[3] += d
                finder_s += d
                last[solve_id, short] = d
            elif name.startswith("enumeration.level."):
                m["enumeration.level_s." + name.rsplit(".", 1)[1]] = d
        for short, (calls, hits, hit_s, miss_s) in finder.items():
            m[f"finders.{short}.calls"] = calls
            m[f"finders.{short}.hits"] = hits
            m[f"finders.{short}.misses"] = calls - hits
            m[f"finders.{short}.hit_s"] = hit_s
            m[f"finders.{short}.miss_s"] = miss_s
        final = sum(last.values())
        m["finders.final_round_s"] = final
        m["finders.final_round_share"] = final / solve_s if solve_s else 0.0
        brute = self.counters["solver.brute"]
        m.update({
            "solver.solve_calls": solves,
            "solver.iterations": iterations,
            "solver.self_s": solve_s - finder_s,
            "solver.brute_calls": brute.calls,
            "solver.brute_s": brute.seconds,
        })
        m.update(self.boundary_metrics())
        kept = self.counters["enumeration.kept"].calls
        canon = self.counters["canonical.enumeration"].calls
        m["enumeration.kept"] = kept
        m["enumeration.kept_per_canon"] = kept / canon if canon else 0.0
        return m

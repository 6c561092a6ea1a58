"""Timing wrappers around the public functions of each mazeswitch module.

``Tracer.install`` replaces every binding of the traced functions in the
loaded ``mazeswitch`` modules (and the traced ``KnowledgeMap`` methods on
the class) by a wrapper that counts calls and accumulates wall time and
the time spent in traced children, so a layer's self time is its total
minus its children. Hot functions keep only these accumulators; carving,
planning, episodes and suites also keep one span each, linked to their
episode. ``Tracer.uninstall`` puts every original back.

Process pools: ``bench.run_suite`` pickles the episode function it hands
to its workers, so the suite's binding of ``run_episode`` becomes the
module-level ``traced_episode``. A forked worker inherits the installed
wrappers; ``traced_episode`` zeroes the accumulators before each episode
and ships their values back on the returned log, where ``absorb`` adds
them to the parent's and removes them again.
"""

from __future__ import annotations

import os
import sys
from time import perf_counter

# (module, class or None, attribute, layer name, keep spans)
TARGETS = (
    ("mazeswitch.grid", None, "generate_maze", "grid.carve", True),
    ("mazeswitch.grid", "KnowledgeMap", "observe_surroundings", "grid.sense", False),
    ("mazeswitch.grid", None, "probe", "grid.probe", False),
    ("mazeswitch.grid", "KnowledgeMap", "note", "grid.note", False),
    ("mazeswitch.spiral", None, "spiral_next", "spiral.step", False),
    ("mazeswitch.pathfind", None, "astar_plan", "pathfind.plan", True),
    ("mazeswitch.pathfind", None, "follow_plan", "pathfind.follow", False),
    ("mazeswitch.qlearn", None, "discretize", "qlearn.discretize", False),
    ("mazeswitch.qlearn", None, "select_action", "qlearn.select_action", False),
    ("mazeswitch.qlearn", None, "q_update", "qlearn.q_update", False),
    ("mazeswitch.qlearn", None, "decision_reward", "qlearn.decision_reward", False),
    ("mazeswitch.episode", None, "run_episode", "episode", True),
    ("mazeswitch.bench", None, "run_suite", "bench.suite", True),
    ("mazeswitch.bench", None, "write_records", "records.write", False),
    ("mazeswitch.bench", None, "write_report_csv", "bench.report_csv", False),
    ("mazeswitch.bench", None, "write_report_json", "bench.report_json", False),
)

# Per-call extras: the planner's planned waypoints feed the useful-work ratio.
EXTRAS = {"pathfind.plan": lambda plan: 0 if plan is None else plan.cost}

CALLS, TOTAL, CHILD, EXTRA = range(4)

_TRACE_ATTR = "_perfbench_trace"
_SECONDS_ATTR = "_perfbench_seconds"
_active = None  # the installed Tracer; traced_episode reaches it by name


class Tracer:
    def __init__(self) -> None:
        self.stats = {name: [0, 0.0, 0.0, 0] for _, _, _, name, _ in TARGETS}
        self.stack = []
        self.spans = []  # (name, episode key, start, end, pid)
        self.episode = None
        self.remote_episode_s = 0.0
        self.pid = None
        self._patches = []  # (owner, attribute, original)
        self._episode_wrapper = None

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, fn, name: str, keep_spans: bool):
        st = self.stats[name]
        stack = self.stack
        extra = EXTRAS.get(name)
        spans = self.spans
        tracer = self

        if not keep_spans:

            def wrapper(*args, **kwargs):
                stack.append(0.0)
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = perf_counter() - t0
                    st[CHILD] += stack.pop()
                    st[CALLS] += 1
                    st[TOTAL] += dt
                    if stack:
                        stack[-1] += dt

        else:

            def wrapper(*args, **kwargs):
                outer_episode = tracer.episode
                if name == "episode":
                    cfg = args[0] if args else kwargs["cfg"]
                    tracer.episode = f"{cfg.n}/{cfg.maze_seed}/{cfg.variant.name}"
                stack.append(0.0)
                t0 = perf_counter()
                result = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    t1 = perf_counter()
                    dt = t1 - t0
                    st[CHILD] += stack.pop()
                    st[CALLS] += 1
                    st[TOTAL] += dt
                    if extra is not None:
                        st[EXTRA] += extra(result)
                    if stack:
                        stack[-1] += dt
                    spans.append((name, tracer.episode, t0, t1, os.getpid()))
                    tracer.episode = outer_episode

        wrapper.__wrapped__ = fn
        wrapper._perfbench_layer = name
        return wrapper

    # -- install / remove -------------------------------------------------

    def install(self) -> None:
        global _active
        if _active is not None:
            raise RuntimeError("a tracer is already installed")
        import mazeswitch  # noqa: F401  (loads every module the targets name)
        import mazeswitch.cli  # noqa: F401

        modules = [m for k, m in sorted(sys.modules.items()) if k.split(".")[0] == "mazeswitch"]
        self.pid = os.getpid()
        for modname, clsname, attr, name, keep_spans in TARGETS:
            module = sys.modules[modname]
            if clsname is not None:
                cls = getattr(module, clsname)
                original = cls.__dict__[attr]
                self._patch(cls, attr, original, self._wrap(original, name, keep_spans))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, name, keep_spans)
            if name == "episode":
                self._episode_wrapper = wrapper
            for mod in modules:
                for binding, value in list(vars(mod).items()):
                    if value is not original:
                        continue
                    replacement = wrapper
                    if name == "episode" and mod.__name__ == "mazeswitch.bench":
                        replacement = traced_episode
                    self._patch(mod, binding, original, replacement)
        _active = self

    def _patch(self, owner, attribute: str, original, replacement) -> None:
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, replacement)

    def uninstall(self) -> None:
        global _active
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches = []
        if _active is self:
            _active = None

    @staticmethod
    def leftovers() -> list:
        """Names in loaded mazeswitch modules or classes still bound to a wrapper."""
        found = []
        for modname, module in sorted(sys.modules.items()):
            if modname.split(".")[0] != "mazeswitch":
                continue
            for binding, value in vars(module).items():
                if value is traced_episode or hasattr(value, "_perfbench_layer"):
                    found.append(f"{modname}.{binding}")
                elif isinstance(value, type) and value.__module__ == modname:
                    for attr, member in vars(value).items():
                        if hasattr(member, "_perfbench_layer"):
                            found.append(f"{modname}.{binding}.{attr}")
        return found

    # -- worker processes -------------------------------------------------

    def _reset(self) -> None:
        for st in self.stats.values():
            st[:] = [0, 0.0, 0.0, 0]
        self.stack.clear()
        self.spans.clear()
        self.episode = None

    def absorb(self, logs) -> None:
        """Fold the accumulators shipped back by pool workers into this tracer."""
        for log in logs:
            shipped = log.__dict__.pop(_TRACE_ATTR, None)
            if shipped is None:
                continue
            stats, spans = shipped
            for name, values in stats.items():
                st = self.stats[name]
                for i, v in enumerate(values):
                    st[i] += v
            self.remote_episode_s += stats.get("episode", (0, 0.0))[TOTAL]
            self.spans.extend(spans)


def traced_episode(cfg):
    """Suite-side episode entry point while a tracer is installed (picklable)."""
    tracer = _active
    if tracer is None:
        raise RuntimeError("traced_episode called with no tracer installed")
    if os.getpid() == tracer.pid:
        return tracer._episode_wrapper(cfg)
    tracer._reset()
    log = tracer._episode_wrapper(cfg)
    shipped = {name: list(st) for name, st in tracer.stats.items() if st[CALLS]}
    setattr(log, _TRACE_ATTR, (shipped, list(tracer.spans)))
    return log


def timed_episode(cfg):
    """Suite-side episode entry point that notes the episode's wall time (picklable).

    The only timing of an untraced pass inside the suite: one clock pair
    per episode, carried back on the log and taken off by
    ``pop_episode_seconds`` before the log is written or hashed.
    """
    from mazeswitch.episode import run_episode

    t0 = perf_counter()
    log = run_episode(cfg)
    setattr(log, _SECONDS_ATTR, perf_counter() - t0)
    return log


def pop_episode_seconds(log) -> float:
    return log.__dict__.pop(_SECONDS_ATTR)

"""One agent run: variant wiring, the two phase loops, decision cadence, logging.

An episode walks the coverage policy from (0, 0). Variants with a
convergence mode switch permanently to A* pathfinding on the first step
whose coverage percentage reaches the active threshold: 40% for fixed
variants, the most recently selected action for learning variants
(initialized to 40% until the first decision). The coverage loop checks
this by count: ``grid.cells_for_coverage`` turns each new threshold into
the least visited count that reaches it, so a step compares two ints and
``coverage_percent`` runs only on decision steps and at the switch.

Learning variants take a threshold decision every ``decision_period``
steps while still exploring: discretize the current progress, select an
action epsilon-greedily, adopt it as the active threshold, then credit
the previous decision with the shaped interval reward. A decision that
sets the threshold at or below current coverage triggers the switch
immediately. After the episode ends, one terminal update credits the
last decision with the full terminal reward.

The phases are two loops, one after the other. The coverage loop ends on
the target (success), at the step limit (default 4 * n * n) or at the
switch. Only a switch with steps left starts the convergence loop, from the
walk's last position, step count and knowledge; its replans take no step.

Both loops track positions as flat layout indices, as the walker and the
planner do, and record each step as one code byte in the episode's
``codes``, ``heading | phase``, with the heading an index into
``Layout.offsets``: the walk, ``spiral_walk`` on this maze and map,
codes each ``spiral_next`` step itself, and the A* loop appends each
move's heading with phase ``ASTAR``. The walk's frame is freed when the
episode returns. When the episode ends the codes become the move
string in one ``translate``, one letter per step from the start (0, 0):
``E``, ``S``, ``W``, ``N`` for (dx, dy) = (0, +1), (+1, 0), (0, -1),
(-1, 0), the order of ``Layout.offsets``.
The log's ``trajectory`` is a ``Trajectory``, a read-only sequence of
the ``(x, y)`` positions that decodes the move string only when read.
The agent learns walls only on each cell it enters for the first time,
through ``KnowledgeMap.arrive`` at the start and in the A* loop, and
through the same work inside the walk. A revisit learns nothing.

Variants of one base walk the same route until they stop, so a
one-slot memo, like ``generate_maze``'s, keeps the codes of the last
whole walk, one whose episode ended without a switch, keyed by
``(n, maze_seed, base, step_limit)`` and with a weak reference to the
maze, which must be the very maze this episode carved. Any episode of
that key stops on the same route at the target, at the limit or at its
switch, so its walk is a prefix of the whole one: it hands the codes to
its walk as ``replay``, and each ``spiral_next`` call takes the next
recorded move. ``base`` stays in the key, because criterion 5 compares
a spiral walk with its sentinel twin's; sharing a walk across bases
would compare it with itself. Records do not change: a replayed step
writes the same code and learns the same map as the walk.

A record (``to_record``, schema version 4) stores the trajectory as that
move string packed two bits per move (``pack_moves``): E, S, W, N are
0-3, four moves to a byte with the first move in the high bits. It is
written as one ASCII digit, the number of padding moves (0-3, all bits
0) that fill the last byte, then the bytes in standard base64: ``ESWNE``
packs to 0x1b 0x00 with 3 padding moves and is written ``3GwA=``. Only
that exact form reads back (``unpack_moves``). A learning variant's
``q_values`` hold only the Q-table rows that are not all 0.0, keyed by
state index as a string; ``EpisodeLog.q_values`` stays dense. The
record's ``counters`` are exact. ``spiral.walker_counts`` gives the
walker's steps by phase and its detour breakouts, ``convergence`` counts
the A* steps, and the five step counts add up to ``total_steps``.
``replans`` counts the A* plans after the first, and ``history_len`` is
the length of the stored visit history, the one output in which a
sentinel agent differs from its spiral twin. Version 3 records write the
move string as it is. Version 2 records do too, and have dense
``q_values`` and only those last two counters; version 1 records, which
have no ``schema_version`` and list every position as ``[x, y]``, have
no counters.

Everything is a pure function of the config, so suites may execute
episodes concurrently and records are replayed here: ``replay_record``
runs a record line's episode again, compares the trajectories as move
strings, renders the other fields in the logged record's version and
names the fields that differ.
"""

from __future__ import annotations

import binascii
import json
import weakref
from dataclasses import asdict, dataclass, field, fields
from itertools import accumulate, product
from typing import Optional

from .grid import (
    KnowledgeMap,
    MazeGrid,
    cells_for_coverage,
    check_maze_size,
    coverage_percent,
    generate_maze,
    layout,
    manhattan,
)
from .pathfind import astar_plan, follow_plan
from .qlearn import (
    QTable,
    RewardBreakdown,
    decision_reward,
    discretize,
    q_update,
    select_action,
    terminal_reward,
)
from .spiral import ASTAR, spiral_next, spiral_walk, walker_counts

FIXED_THRESHOLD = 40.0
DEFAULT_DECISION_PERIOD = 50

SCHEMA_VERSION = 4

SUCCESS = "success"
STEP_LIMIT_EXCEEDED = "step_limit_exceeded"

BASES = ("spiral", "sentinel")
CONVERGENCE_MODES = ("none", "fixed", "rl")


@dataclass(frozen=True)
class VariantSpec:
    base: str
    convergence: str

    def __post_init__(self):
        if self.base not in BASES:
            raise ValueError(f"unknown base policy {self.base!r}")
        if self.convergence not in CONVERGENCE_MODES:
            raise ValueError(f"unknown convergence mode {self.convergence!r}")

    @property
    def name(self) -> str:
        if self.convergence == "none":
            return self.base
        suffix = "conv" if self.convergence == "fixed" else "rl"
        return f"{self.base}_{suffix}"


VARIANTS = {
    variant.name: variant
    for variant in (
        VariantSpec(base, convergence)
        for base in BASES
        for convergence in CONVERGENCE_MODES
    )
}

VARIANT_ORDER = tuple(VARIANTS)


@dataclass(frozen=True)
class EpisodeConfig:
    n: int
    maze_seed: int
    variant: VariantSpec
    rl_seed: int = 0
    step_limit: Optional[int] = None  # None is resolved to 4 * n * n
    decision_period: int = DEFAULT_DECISION_PERIOD

    def __post_init__(self):
        if not isinstance(self.variant, VariantSpec):
            raise ValueError(f"variant must be a VariantSpec, got {self.variant!r}")
        if self.step_limit is None and type(self.n) is int:
            object.__setattr__(self, "step_limit", 4 * self.n * self.n)
        _check_integers(vars(self))
        check_maze_size(self.n)
        if self.step_limit <= 0:
            raise ValueError("step_limit must be positive")
        if self.decision_period <= 0:
            raise ValueError("decision_period must be positive")

    @property
    def resolved_step_limit(self) -> int:
        """Same as ``step_limit``; ``perfbench/digest.py`` reads this name."""
        return self.step_limit


# A record's config holds these keys; the variant is stored as its name.
_CONFIG_KEYS = tuple(f.name for f in fields(EpisodeConfig))


def _check_integers(config: dict) -> None:
    """ValueError naming the config values, the variant aside, that are not ints."""
    not_int = [key for key in _CONFIG_KEYS if key != "variant" and type(config[key]) is not int]
    if not_int:  # a bool is not an int here, as in a record
        raise ValueError(f"config values must be integers: {not_int}")


@dataclass
class DecisionRecord:
    step: int
    state_index: int
    action: int
    reward: float


# The move letters, one per heading: an index into Layout.offsets.
MOVES = "ESWN"
_LETTER_OF_CODE = bytes(MOVES.encode()[code & 3] for code in range(256))  # a step's code
_HEADING_OF_LETTER = bytes.maketrans(MOVES.encode(), bytes(range(4)))
# The four moves of each packed byte, the first in the high bits.
_QUADS = tuple(map("".join, product(MOVES, repeat=4)))


class Trajectory:
    """The ``(x, y)`` positions of a walk from (0, 0), read from its move string.

    A read-only sequence of ``len(moves) + 1`` cells on an ``n x n``
    grid: indexing gives a cell, a slice a list, and iteration the cells
    in order. It equals a list of the same cells, and another view of
    the same moves. The cells are decoded on first use, as the shared
    tuples of ``layout(n).cells``, and kept; a pickle holds only
    ``(n, moves)``. ``moves`` comes from a walk of unit steps on the
    grid, as ``run_episode`` records it; it is not checked.
    """

    __slots__ = ("n", "moves", "_cells")
    __hash__ = None  # it equals a list, which has no hash

    def __init__(self, n: int, moves: str) -> None:
        self.n = n
        self.moves = moves
        self._cells = None

    def _decoded(self) -> list:
        if self._cells is None:
            shared = layout(self.n)
            step = dict(zip(MOVES, shared.offsets)).__getitem__
            path = accumulate(map(step, self.moves), initial=shared.index(0, 0))
            self._cells = list(map(shared.cells.__getitem__, path))
        return self._cells

    def __len__(self) -> int:
        return len(self.moves) + 1

    def __getitem__(self, i):
        return self._decoded()[i]

    def __iter__(self):
        return iter(self._decoded())

    def __eq__(self, other) -> bool:
        if isinstance(other, Trajectory):  # the same moves from (0, 0) visit the same cells
            return self.moves == other.moves
        if isinstance(other, list):
            return self._decoded() == other
        return NotImplemented

    def __reduce__(self):
        return Trajectory, (self.n, self.moves)

    def __repr__(self) -> str:
        return f"Trajectory({self.n}, {self.moves!r})"


@dataclass
class EpisodeLog:
    """What one episode did; ``run_episode`` gives it and ``to_record`` writes it.

    ``trajectory`` holds the ``total_steps + 1`` positions from (0, 0)
    as a ``Trajectory``, whose move string ``to_record`` writes.
    """

    config: EpisodeConfig
    outcome: str
    total_steps: int
    final_coverage: float
    switch_step: Optional[int]
    switch_coverage: Optional[float]
    trajectory: Trajectory
    decisions: list
    terminal_state_index: Optional[int] = None
    terminal_decision_reward: Optional[float] = None
    terminal_reward: Optional[RewardBreakdown] = None
    q_values: Optional[list] = None
    counters: dict = field(default_factory=dict)  # the record's counters, by name

    @property
    def role_switches(self) -> int:
        """1 once the agent has switched to A*, else 0: a switch is permanent."""
        return 0 if self.switch_step is None else 1


# The one memo of coverage walks: the codes of the last whole walk, by
# ``(n, maze_seed, base, step_limit)``, with a weak reference to its maze.
_WALKS: dict = {}


def _walk_of(key: tuple, maze: MazeGrid):
    """The codes of the whole walk of ``key`` on this very maze, or None."""
    hit = _WALKS.get(key)
    return hit[1] if hit is not None and hit[0]() is maze else None


def run_episode(cfg: EpisodeConfig) -> EpisodeLog:
    maze = generate_maze(cfg.n, cfg.maze_seed)
    n = cfg.n
    limit = cfg.step_limit
    learning = cfg.variant.convergence == "rl"

    # Sentinel agents store every fourth first visit; coverage is exact for both.
    knowledge = KnowledgeMap(n, sample_stride=1 if cfg.variant.base == "spiral" else 4)
    target = knowledge.index(*maze.target)
    pos = knowledge.index(0, 0)
    walk_key = (n, cfg.maze_seed, cfg.variant.base, limit)
    recorded = _walk_of(walk_key, maze)
    knowledge.arrive(maze, pos)
    codes = bytearray()
    walk = spiral_walk(maze, knowledge, codes, recorded)

    # The visited count that reaches the active threshold; None never switches.
    switch_count = None
    if cfg.variant.convergence != "none":
        switch_count = cells_for_coverage(n, FIXED_THRESHOLD)
    q = QTable(cfg.rl_seed) if learning else None
    decisions: list[DecisionRecord] = []
    # The reference snapshot is pinned to (0 steps, 0 coverage) so interval
    # rewards telescope exactly to the terminal total.
    prev_snapshot = (0, 0.0)

    switch_step: Optional[int] = None  # None while exploring
    switch_coverage: Optional[float] = None
    steps = 0

    while steps < limit:
        pos = spiral_next(walk)  # arrives on the new cell and codes the step
        steps += 1
        if pos == target:
            break
        if switch_count is None:
            continue
        if learning and steps % cfg.decision_period == 0 and knowledge.visited_count < switch_count:
            coverage = coverage_percent(knowledge)
            state_id = discretize(coverage, manhattan(knowledge.cell(pos), maze.target), n)
            action = select_action(q, state_id)
            switch_count = cells_for_coverage(n, float(action))
            reward = decision_reward(prev_snapshot, (steps, coverage), limit)
            if decisions:
                last = decisions[-1]
                q_update(q, last.state_index, last.action, reward, state_id)
            decisions.append(DecisionRecord(steps, state_id, action, reward))
            prev_snapshot = (steps, coverage)
        if knowledge.visited_count >= switch_count:
            switch_step, switch_coverage = steps, coverage_percent(knowledge)
            break

    walked = steps
    if recorded is None and switch_step is None:  # a whole walk, at the target or the limit
        _WALKS.clear()
        _WALKS[walk_key] = (weakref.ref(maze), bytes(codes))
    plan = None
    replans = 0
    offsets = knowledge.offsets
    while steps < limit and pos != target:
        if plan is None:
            plan = astar_plan(pos, target, knowledge)
            if plan is None:
                raise AssertionError(
                    f"no optimistic path from {knowledge.cell(pos)} to {maze.target}"
                )
        nxt = follow_plan(plan, knowledge)
        if nxt is None:  # the next waypoint is a known wall
            plan = None
            replans += 1
            if replans > n * n:
                raise AssertionError("replanning failed to make progress")
            continue
        codes.append(offsets.index(nxt - pos) | ASTAR)
        pos = nxt
        if not knowledge.visited_mask[pos]:  # a revisit records and senses nothing
            knowledge.arrive(maze, pos)
        steps += 1

    final_coverage = coverage_percent(knowledge)
    log = EpisodeLog(
        config=cfg,
        outcome=SUCCESS if pos == target else STEP_LIMIT_EXCEEDED,
        total_steps=steps,
        final_coverage=final_coverage,
        switch_step=switch_step,
        switch_coverage=switch_coverage,
        trajectory=Trajectory(n, codes.translate(_LETTER_OF_CODE).decode("ascii")),
        decisions=decisions,
        counters=dict(
            walker_counts(codes),
            convergence=steps - walked,
            replans=replans,
            history_len=len(knowledge.sampled_history),
        ),
    )
    if learning:
        final = log.terminal_reward = terminal_reward(steps, limit, final_coverage, switch_coverage)
        log.terminal_state_index = discretize(
            final_coverage, manhattan(knowledge.cell(pos), maze.target), n
        )
        log.terminal_decision_reward = decision_reward(
            prev_snapshot, (steps, final_coverage), limit, switch_bonus=final.r_switching
        )
        if decisions:
            last = decisions[-1]
            q_update(q, last.state_index, last.action, final.total, None)
        log.q_values = q.values  # the table is this episode's own
    return log


_LETTERS = dict(zip(((0, 1), (1, 0), (0, -1), (-1, 0)), MOVES))  # by (dx, dy)


def _letter(a, b) -> str:
    try:
        (x0, y0), (x1, y1) = a, b
        return _LETTERS[x1 - x0, y1 - y0]
    except (KeyError, TypeError, ValueError):  # not a unit move, or not two (x, y) pairs
        raise ValueError(f"move from {a} to {b} is not a unit step") from None


def encode_moves(trajectory) -> str:
    """The move string of a list of ``(x, y)`` positions: one letter per step.

    Raises ValueError at the first step that is not a unit move.
    """
    return "".join(map(_letter, trajectory, trajectory[1:]))


def pack_moves(moves: str) -> str:
    """The version 4 form of a move string: a padding digit, then base64.

    The moves become their headings, 0-3, four to a byte with the first
    in the high bits; the last byte is filled with 0-3 padding moves of
    heading 0, and their count is the leading digit.
    """
    pad = -len(moves) % 4
    headings = (moves + MOVES[0] * pad).encode().translate(_HEADING_OF_LETTER)
    packed = 0
    for k in range(4):  # each byte's bits shift within the byte: a value stays below 64
        packed = packed << 2 | int.from_bytes(headings[k::4], "big")
    data = packed.to_bytes(len(headings) // 4, "big")
    return str(pad) + binascii.b2a_base64(data, newline=False).decode("ascii")


def unpack_moves(text: str) -> str:
    """The move string of a version 4 trajectory; ValueError unless ``pack_moves`` writes it so.

    Only the exact form is read: a bad padding digit, text that is not
    base64, padding bits that are not 0 and characters that base64
    decoding would skip are all rejected.
    """
    if text[:1] not in ("0", "1", "2", "3"):
        digit = text[:1]
        raise ValueError(f"a version 4 trajectory starts with its padding digit 0-3, not {digit!r}")
    try:
        data = binascii.a2b_base64(text[1:])
    except ValueError as exc:  # binascii.Error, or a character that is not ASCII
        raise ValueError(f"a version 4 trajectory is not base64: {exc}") from None
    moves = "".join(map(_QUADS.__getitem__, data))
    moves = moves[: len(moves) - int(text[0])]
    if pack_moves(moves) != text:
        raise ValueError("a version 4 trajectory is not in the packed form its moves write")
    return moves


def to_record(log: EpisodeLog) -> dict:
    """JSON-ready dict; one of these per line makes an episode record stream."""
    config = {key: getattr(log.config, key) for key in _CONFIG_KEYS}
    config["variant"] = log.config.variant.name
    record = {
        "schema_version": SCHEMA_VERSION,
        "config": config,
        "outcome": log.outcome,
        "total_steps": log.total_steps,
        "final_coverage": log.final_coverage,
        "role_switches": log.role_switches,
        "switch": (
            None
            if log.switch_step is None
            else {"step": log.switch_step, "coverage": log.switch_coverage}
        ),
        "decisions": [
            {"step": d.step, "state": d.state_index, "action": d.action, "reward": d.reward}
            for d in log.decisions
        ],
        "terminal": None,
        "trajectory": pack_moves(log.trajectory.moves),
        "counters": log.counters,
    }
    if log.terminal_reward is not None:
        record["terminal"] = {
            "state": log.terminal_state_index,
            "decision_reward": log.terminal_decision_reward,
            **asdict(log.terminal_reward),
        }
        record["q_values"] = {str(i): row for i, row in enumerate(log.q_values) if any(row)}
    return record


def record_to_json(log: EpisodeLog) -> str:
    return json.dumps(to_record(log), sort_keys=True, separators=(",", ":"))


def config_from_record(record: dict) -> EpisodeConfig:
    """The config an episode record was run with; ValueError if malformed."""
    cfg = record.get("config") if isinstance(record, dict) else None
    if not isinstance(cfg, dict):
        raise ValueError("record has no config object")
    missing = [key for key in _CONFIG_KEYS if key not in cfg]
    if missing:
        raise ValueError(f"config is missing {missing}")
    variant = cfg["variant"]
    if not isinstance(variant, str) or variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    _check_integers(cfg)  # a record holds the resolved step limit, never null
    values = {key: cfg[key] for key in _CONFIG_KEYS}  # an unknown key is ignored
    values["variant"] = VARIANTS[variant]
    return EpisodeConfig(**values)


def _schema_version(record: dict) -> int:
    """The record's schema version; a record without the key is version 1.

    A present version must be the int 2, 3 or 4: ``2.0`` and ``True`` are unknown.
    """
    if "schema_version" not in record:
        return 1
    version = record["schema_version"]
    if type(version) is not int or version not in (2, 3, SCHEMA_VERSION):
        raise ValueError(f"unknown schema_version {version!r}")
    return version


def moves_from_record(record: dict) -> str:
    """The move string of a version 1-4 record; ValueError if malformed.

    A version 1 trajectory, a list of ``[x, y]`` positions from (0, 0),
    goes through ``encode_moves``, and a version 4 one through
    ``unpack_moves``; versions 2 and 3 hold the move string. A
    trajectory of the wrong length is well formed; it differs from the
    episode's, which is for the caller to find.
    """
    trajectory = record.get("trajectory")
    version = _schema_version(record)
    if version == 1:
        if not isinstance(trajectory, list):
            raise ValueError("a version 1 trajectory must be a list of positions")
        if not trajectory or trajectory[0] != [0, 0]:
            raise ValueError("trajectory does not start at (0, 0)")
        return encode_moves(trajectory)
    if not isinstance(trajectory, str):
        raise ValueError(f"a version {version} trajectory must be a move string")
    if version == 4:
        return unpack_moves(trajectory)
    unknown = set(trajectory) - set(MOVES)
    if unknown:
        raise ValueError(f"unknown move letters {sorted(unknown)}")
    return trajectory


def replay_record(line: str) -> list:
    """Run a record line's episode again; the sorted names of the fields that differ.

    ValueError if the line is not a well-formed version 1-4 record, or is
    JSON nested too deep to parse. The trajectories are compared as move
    strings, and the fresh record's other fields are rendered in the
    logged record's version.
    """
    try:
        logged = json.loads(line)
    except RecursionError as exc:
        raise ValueError(f"record nested too deep: {exc}") from None
    cfg = config_from_record(logged)  # checked before the trajectory
    logged["trajectory"] = moves_from_record(logged)
    log = run_episode(cfg)
    fresh = to_record(log)
    fresh["trajectory"] = log.trajectory.moves
    version = fresh["schema_version"] = _schema_version(logged)
    if version < 3:  # dense Q-values, and version 2 had two counters
        if "q_values" in fresh:
            fresh["q_values"] = log.q_values
        fresh["counters"] = {key: log.counters[key] for key in ("replans", "history_len")}
    if version == 1:  # version 1 had neither field
        del fresh["schema_version"], fresh["counters"]
    absent = object()  # a field that only one side has differs, even if it is null
    return sorted(k for k in {*logged, *fresh} if logged.get(k, absent) != fresh.get(k, absent))

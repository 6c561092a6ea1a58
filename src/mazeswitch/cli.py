"""Command line front end: it parses flags, reads and writes files, and prints.

Subcommands::

    mazeswitch run       run a suite, write episode records and reports
    mazeswitch ablate    convergence ablation (none vs fixed vs learned)
    mazeswitch replay    re-execute logged episodes and diff the records
    mazeswitch gen-maze  emit a maze in the text format

``run`` and ``ablate`` accept ``--config FILE``, an INI-style key=value
file with a ``[suite]`` section whose keys are the subcommand's flag
names (``long = true`` sets ``run --long``). The section is parsed as
those flags, so a value of the wrong type, a key the subcommand has no
flag for, or a ``config`` key (files do not nest) is a usage error, and
flags on the command line override the file; ``SuiteConfig`` judges values.
"""

from __future__ import annotations

import argparse
import configparser
import json
import re
import sys
from pathlib import Path
from typing import NoReturn

from .bench import (
    ABLATION_VARIANTS,
    DEFAULT_SIZES,
    LONG_SIZES,
    SuiteConfig,
    ablation,
    format_ablation,
    format_report,
    run_suite,
    write_records,
    write_report_csv,
    write_report_json,
)
from .episode import VARIANT_ORDER, replay_record
from .grid import generate_maze, to_text
from .qlearn import dump_qtable_values

# The name of a ``qtables/`` dump: {n}x{n}_{variant}_seed{maze seed}.txt
_QTABLE_DUMP = re.compile(rf"(\d+)x\1_({'|'.join(VARIANT_ORDER)})_seed-?\d+\.txt")


def _parse_sizes(text: str) -> tuple:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad size list {text!r}")


def _parse_variants(text: str) -> tuple:
    """The names in a comma list, or all six for ``all``; ``SuiteConfig`` checks them."""
    return VARIANT_ORDER if text == "all" else tuple(filter(None, map(str.strip, text.split(","))))


def _parse_with_config(parser: argparse.ArgumentParser, argv: list) -> argparse.Namespace:
    """Parse ``argv``; with ``--config FILE``, parse again with the file's flags first.

    Each ``key = value`` of the ``[suite]`` section becomes ``--key=value``,
    or ``--key`` when a true value sets a switch such as ``--long``. The
    file's flags go before the command line's, so those win.
    """
    args = parser.parse_args(argv)
    if getattr(args, "config", None) is None:
        return args
    ini = configparser.ConfigParser(interpolation=None)  # a "%" is a plain character
    try:
        found = ini.read(args.config, encoding="utf-8")
    except configparser.Error as exc:  # no section header, a duplicate key, ...
        parser.error(f"config file {args.config}: {exc}")
    except UnicodeDecodeError as exc:
        parser.error(f"config file {args.config} is not UTF-8: {exc.reason} at byte {exc.start}")
    if not found:
        parser.error(f"config file not found: {args.config}")
    if not ini.has_section("suite"):
        parser.error(f"config file {args.config} has no [suite] section")
    section = ini["suite"]
    tokens = []
    for key, value in section.items():
        if key == "config":  # the command line's --config would win silently
            parser.error(f"config file {args.config}: a [suite] section cannot name a config file")
        if not hasattr(args, key):  # also keeps argparse from expanding a prefix
            parser.error(f"config file {args.config}: {args.command} has no --{key} flag")
        if not isinstance(getattr(args, key), bool):
            tokens.append(f"--{key}={value}")
            continue
        try:
            if section.getboolean(key):
                tokens.append(f"--{key}")
        except ValueError as exc:
            parser.error(f"config file {args.config}: {exc}")
    return parser.parse_args(argv[:1] + tokens + argv[1:])


def _fail(message: str) -> NoReturn:
    """Exit with status 2 and one ``mazeswitch: error:`` line on stderr."""
    print(f"mazeswitch: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _checked(build, *args, **kwargs):
    """``build(*args, **kwargs)``, or exit with status 2 and one line on bad values."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        _fail(str(exc))


def _run_suite(args, sizes, variants):
    """Check the suite config, create the ``--out`` directory, then run the suite.

    Returns ``(out, report, logs)``. ``out`` is None without ``--out``;
    an empty ``--out`` (also ``out =`` in a config file) means no output.
    """
    suite = _checked(
        SuiteConfig,
        sizes=sizes,
        mazes_per_size=args.mazes,
        variants=variants,
        base_seed=args.seed,
        jobs=args.jobs,
    )
    out = Path(args.out) if args.out else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    return (out, *run_suite(suite))


def _cmd_run(args) -> int:
    sizes = args.sizes
    if sizes is None:
        sizes = LONG_SIZES if args.long else DEFAULT_SIZES
    out, report, logs = _run_suite(args, sizes, args.variants)
    print(format_report(report))
    if out is not None:
        write_records(logs, out / "episodes.jsonl")
        write_report_csv(report, out / "report.csv")
        write_report_json(report, out / "report.json")
        _write_qtable_dumps(logs, out / "qtables")
        print(f"\nwrote {out / 'episodes.jsonl'}, {out / 'report.csv'}, {out / 'report.json'}")
    return 0


def _write_qtable_dumps(logs, directory: Path) -> None:
    """Final per-episode Q-tables of the learning variants, in text form.

    Dumps an earlier run left there are removed first, so the directory
    holds this run's dumps only; files not named like a dump stay.
    """
    if directory.is_dir():
        for path in directory.iterdir():
            if _QTABLE_DUMP.fullmatch(path.name) and path.is_file():
                path.unlink()
    learned = [log for log in logs if log.q_values is not None]
    if not learned:
        return
    directory.mkdir(parents=True, exist_ok=True)
    for log in learned:
        cfg = log.config
        name = f"{cfg.n}x{cfg.n}_{cfg.variant.name}_seed{cfg.maze_seed}.txt"
        (directory / name).write_text(dump_qtable_values(log.q_values))


def _cmd_ablate(args) -> int:
    sizes = args.sizes if args.sizes is not None else (args.size,)
    out, report, logs = _run_suite(args, sizes, ABLATION_VARIANTS)
    rows = ablation(report)
    print(format_ablation(rows))
    if out is not None:
        write_records(logs, out / "ablation_episodes.jsonl")
        (out / "ablation.json").write_text(json.dumps(rows, indent=2) + "\n")
        print(f"\nwrote {out / 'ablation_episodes.jsonl'}, {out / 'ablation.json'}")
    return 0


def _cmd_replay(args) -> int:
    path = Path(args.records)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        _fail(f"record file {path} is not UTF-8 text: {exc.reason} at byte {exc.start}")
    lines = text.removesuffix("\n").split("\n")  # only "\n" ends a line, as in read_records
    records = [(k, line) for k, line in enumerate(lines, start=1) if line.strip()]
    if not records:
        _fail(f"record file {path} holds no records")
    if args.line is not None:
        if not 1 <= args.line <= len(lines):
            _fail(f"--line must be in 1..{len(lines)}, got {args.line}")
        records = [(k, line) for k, line in records if k == args.line]
        if not records:
            _fail(f"line {args.line} of {path} is blank")
    failed = False
    for idx, line in records:
        try:
            diff_keys = replay_record(line)
        except ValueError as exc:  # malformed JSON, config or trajectory
            failed = True
            print(f"record {idx}: ERROR {exc}")
            continue
        failed |= bool(diff_keys)
        print(f"record {idx}: " + (f"MISMATCH in fields {diff_keys}" if diff_keys else "identical"))
    return 1 if failed else 0


def _cmd_gen_maze(args) -> int:
    maze = _checked(generate_maze, args.size, args.seed)
    text = to_text(maze)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mazeswitch",
        description="Deterministic maze-navigation benchmark with learned policy switching.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    suite_p = argparse.ArgumentParser(add_help=False)  # the flags ``run`` and ``ablate`` share
    suite_p.add_argument("--sizes", type=_parse_sizes, default=None, help="comma list, e.g. 16,32")
    suite_p.add_argument("--mazes", type=int, default=10, help="mazes per size (default 10)")
    suite_p.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    suite_p.add_argument("--jobs", type=int, default=1, help="parallel workers (default 1)")
    suite_p.add_argument("--out", default=None, help="output directory for records and reports")
    suite_p.add_argument("--config", default=None, help="INI file with a [suite] section")

    run_p = sub.add_parser("run", parents=[suite_p], help="run a benchmark suite")
    run_p.add_argument(
        "--variants", type=_parse_variants, default=VARIANT_ORDER, help="'all' or comma list"
    )
    run_p.add_argument("--long", action="store_true", help="include 128x128 mazes")
    run_p.set_defaults(func=_cmd_run)

    abl_p = sub.add_parser(
        "ablate", parents=[suite_p], help="convergence ablation (none vs fixed vs learned)"
    )
    abl_p.add_argument("--size", type=int, default=64, help="maze size if no --sizes (default 64)")
    abl_p.set_defaults(func=_cmd_ablate)

    rep_p = sub.add_parser("replay", help="re-execute logged episodes and diff")
    rep_p.add_argument("records", help="episode records file (one JSON object per line)")
    rep_p.add_argument("--line", type=int, default=None, help="replay only this line (1-based)")
    rep_p.set_defaults(func=_cmd_replay)

    gen_p = sub.add_parser("gen-maze", help="emit a maze in the text format")
    gen_p.add_argument("--size", type=int, required=True)
    gen_p.add_argument("--seed", type=int, required=True)
    gen_p.add_argument("--out", default=None, help="write to file instead of stdout")
    gen_p.set_defaults(func=_cmd_gen_maze)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_with_config(build_parser(), argv)
    try:
        return args.func(args)
    except OSError as exc:  # any file or directory a command cannot read or write
        _fail(f"{exc.filename}: {exc.strerror or exc}" if exc.filename else str(exc))


if __name__ == "__main__":
    sys.exit(main())

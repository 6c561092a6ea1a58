"""Command line front end.

Subcommands::

    mazeswitch run       run a suite, write episode records and reports
    mazeswitch ablate    convergence ablation (none vs fixed vs learned)
    mazeswitch replay    re-execute logged episodes and diff the records
    mazeswitch gen-maze  emit a maze in the text format

``run`` and ``ablate`` accept ``--config FILE``, an INI-style key=value
file with a ``[suite]`` section mirroring the flags (sizes, mazes,
variants, seed, jobs, out, long). Flags given on the command line
override the file.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
from pathlib import Path

from .bench import (
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
from .episode import VARIANT_ORDER, config_from_record, run_episode, to_record
from .grid import generate_maze, to_text
from .qlearn import dump_qtable_values


def _parse_sizes(text: str) -> tuple:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad size list {text!r}")


def _parse_variants(text: str) -> tuple:
    if text == "all":
        return VARIANT_ORDER
    names = tuple(part.strip() for part in text.split(",") if part.strip())
    for name in names:
        if name not in VARIANT_ORDER:
            raise argparse.ArgumentTypeError(
                f"unknown variant {name!r}; choose from {', '.join(VARIANT_ORDER)}"
            )
    return names


def _load_config_file(path: str) -> dict:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise SystemExit(f"config file not found: {path}")
    if not parser.has_section("suite"):
        raise SystemExit(f"config file {path} has no [suite] section")
    section = parser["suite"]
    values = {}
    if "sizes" in section:
        values["sizes"] = _parse_sizes(section["sizes"])
    if "mazes" in section:
        values["mazes"] = section.getint("mazes")
    if "variants" in section:
        values["variants"] = _parse_variants(section["variants"])
    if "seed" in section:
        values["seed"] = section.getint("seed")
    if "jobs" in section:
        values["jobs"] = section.getint("jobs")
    if "out" in section:
        values["out"] = section["out"]
    if "long" in section:
        values["long"] = section.getboolean("long")
    return values


def _merge_suite_options(args, fill_default_sizes: bool = True) -> dict:
    """File values first, then explicit flags on top."""
    merged = {
        "sizes": None,
        "mazes": 10,
        "variants": VARIANT_ORDER,
        "seed": 0,
        "jobs": 1,
        "out": None,
        "long": False,
    }
    if args.config:
        merged.update(_load_config_file(args.config))
    for key in merged:
        flag = getattr(args, key, None)
        if flag is not None and flag is not False:
            merged[key] = flag
    if merged["sizes"] is None and fill_default_sizes:
        merged["sizes"] = LONG_SIZES if merged["long"] else DEFAULT_SIZES
    return merged


def _suite_config(**kwargs) -> SuiteConfig:
    """Build the suite, or exit with status 2 and one line on bad values."""
    try:
        return SuiteConfig(**kwargs)
    except ValueError as exc:
        print(f"mazeswitch: error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def _cmd_run(args) -> int:
    opts = _merge_suite_options(args)
    suite = _suite_config(
        sizes=opts["sizes"],
        mazes_per_size=opts["mazes"],
        variants=opts["variants"],
        base_seed=opts["seed"],
        jobs=opts["jobs"],
    )
    report, logs = run_suite(suite)
    print(format_report(report))
    if opts["out"]:
        out = Path(opts["out"])
        out.mkdir(parents=True, exist_ok=True)
        write_records(logs, out / "episodes.jsonl")
        write_report_csv(report, out / "report.csv")
        write_report_json(report, out / "report.json")
        _write_qtable_dumps(logs, out / "qtables")
        print(f"\nwrote {out / 'episodes.jsonl'}, {out / 'report.csv'}, {out / 'report.json'}")
    return 0


def _write_qtable_dumps(logs, directory: Path) -> None:
    """Final per-episode Q-tables of the learning variants, in text form."""
    learned = [log for log in logs if log.q_values is not None]
    if not learned:
        return
    directory.mkdir(parents=True, exist_ok=True)
    for log in learned:
        cfg = log.config
        name = f"{cfg.n}x{cfg.n}_{cfg.variant.name}_seed{cfg.maze_seed}.txt"
        (directory / name).write_text(dump_qtable_values(log.q_values))


def _cmd_ablate(args) -> int:
    opts = _merge_suite_options(args, fill_default_sizes=False)
    sizes = opts["sizes"] if opts["sizes"] is not None else (args.size,)
    suite = _suite_config(
        sizes=sizes,
        mazes_per_size=opts["mazes"],
        variants=("spiral", "spiral_conv", "spiral_rl"),
        base_seed=opts["seed"],
        jobs=opts["jobs"],
    )
    rows, logs = ablation(suite)
    print(format_ablation(rows))
    if opts["out"]:
        out = Path(opts["out"])
        out.mkdir(parents=True, exist_ok=True)
        write_records(logs, out / "ablation_episodes.jsonl")
        (out / "ablation.json").write_text(json.dumps(rows, indent=2) + "\n")
        print(f"\nwrote {out / 'ablation_episodes.jsonl'}, {out / 'ablation.json'}")
    return 0


def _cmd_replay(args) -> int:
    path = Path(args.records)
    if not path.exists():
        raise SystemExit(f"no such record file: {path}")
    lines = list(
        enumerate(
            (line for line in path.read_text().splitlines() if line.strip()), start=1
        )
    )
    if args.line is not None:
        if not 1 <= args.line <= len(lines):
            raise SystemExit(f"--line must be in 1..{len(lines)}")
        lines = [lines[args.line - 1]]
    failures = 0
    for idx, line in lines:
        try:
            logged = json.loads(line)
            cfg = config_from_record(logged)
        except ValueError as exc:  # malformed JSON or config
            failures += 1
            print(f"record {idx}: ERROR {exc}")
            continue
        fresh = to_record(run_episode(cfg))
        if fresh == logged:
            print(f"record {idx}: identical")
            continue
        failures += 1
        diff_keys = sorted(
            key
            for key in set(logged) | set(fresh)
            if logged.get(key) != fresh.get(key)
        )
        print(f"record {idx}: MISMATCH in fields {diff_keys}")
    return 1 if failures else 0


def _cmd_gen_maze(args) -> int:
    maze = generate_maze(args.size, args.seed)
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

    run_p = sub.add_parser("run", help="run a benchmark suite")
    run_p.add_argument("--sizes", type=_parse_sizes, default=None, help="comma list, e.g. 16,32")
    run_p.add_argument("--mazes", type=int, default=None, help="mazes per size (default 10)")
    run_p.add_argument(
        "--variants", type=_parse_variants, default=None, help="'all' or comma list"
    )
    run_p.add_argument("--seed", type=int, default=None, help="base seed (default 0)")
    run_p.add_argument("--jobs", type=int, default=None, help="parallel workers (default 1)")
    run_p.add_argument("--out", default=None, help="output directory for records and reports")
    run_p.add_argument("--long", action="store_true", help="include 128x128 mazes")
    run_p.add_argument("--config", default=None, help="INI file with a [suite] section")
    run_p.set_defaults(func=_cmd_run)

    abl_p = sub.add_parser("ablate", help="convergence ablation (none vs fixed vs learned)")
    abl_p.add_argument("--size", type=int, default=64, help="maze size (default 64)")
    abl_p.add_argument("--sizes", type=_parse_sizes, default=None, help="comma list override")
    abl_p.add_argument("--mazes", type=int, default=None)
    abl_p.add_argument("--seed", type=int, default=None)
    abl_p.add_argument("--jobs", type=int, default=None)
    abl_p.add_argument("--out", default=None)
    abl_p.add_argument("--config", default=None)
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
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

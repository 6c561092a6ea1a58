import concurrent.futures
import csv
import hashlib
import io
import json
import math
import re
import statistics
from array import array
from dataclasses import asdict, replace
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

import mazeswitch.bench as bench
import mazeswitch.episode as episode
from mazeswitch.bench import (
    ABLATION_VARIANTS,
    CSV_COLUMNS,
    CSV_HEADER,
    RL_SEED_SALT,
    SuiteConfig,
    SuiteReport,
    ablation,
    episode_configs,
    read_records,
    read_report_csv,
    read_report_json,
    rl_seed_for,
    run_suite,
    write_records,
    write_report_csv,
    write_report_json,
)
from mazeswitch.episode import moves_from_record, record_to_json, to_record
from mazeswitch.grid import generate_maze
from conftest import edits, in_version_3_form


SMALL = SuiteConfig(sizes=(16,), mazes_per_size=3, base_seed=0)


@pytest.fixture(scope="module")
def small_suite():
    return run_suite(SMALL)


class TestMatrix:
    def test_cardinality(self, small_suite):
        report, logs = small_suite
        assert len(logs) == 1 * 3 * 6
        assert len(report.rows) == 6

    def test_every_cell_exactly_once(self):
        cfgs = episode_configs(SuiteConfig(sizes=(16, 32), mazes_per_size=2))
        keys = [(c.n, c.maze_seed, c.variant.name) for c in cfgs]
        assert len(keys) == len(set(keys)) == 2 * 2 * 6

    def test_maze_seed_schedule(self):
        cfgs = episode_configs(SuiteConfig(sizes=(16,), mazes_per_size=3, base_seed=100))
        assert sorted({c.maze_seed for c in cfgs}) == [100, 101, 102]

    def test_rl_seed_salt_shared_across_bases(self):
        suite = SuiteConfig(base_seed=77)
        assert rl_seed_for(suite, "spiral_rl") == 77 ^ RL_SEED_SALT
        assert rl_seed_for(suite, "spiral_rl") == rl_seed_for(suite, "sentinel_rl")
        assert rl_seed_for(suite, "spiral") == 0


class TestAggregation:
    def test_mean_matches_independent_recompute(self, small_suite):
        report, logs = small_suite
        for row in report.rows:
            steps = [
                log.total_steps
                for log in logs
                if log.config.n == row.size and log.config.variant.name == row.variant
            ]
            assert len(steps) == 3
            assert row.mean_steps == pytest.approx(sum(steps) / len(steps), abs=1e-9)
            assert row.min_steps == min(steps)
            assert row.max_steps == max(steps)

    def test_success_rate_range(self, small_suite):
        report, _ = small_suite
        for row in report.rows:
            assert 0.0 <= row.success_rate <= 100.0

    def test_threshold_histogram_conserves_decisions(self, small_suite):
        report, logs = small_suite
        for row in report.rows:
            if not row.variant.endswith("_rl"):
                assert row.threshold_hist == {}
                continue
            decisions = sum(
                len(log.decisions)
                for log in logs
                if log.config.n == row.size and log.config.variant.name == row.variant
            )
            assert sum(row.threshold_hist.values()) == decisions

    def test_switch_histogram_counts_switches(self, small_suite):
        report, logs = small_suite
        for row in report.rows:
            switches = sum(
                log.role_switches
                for log in logs
                if log.config.n == row.size and log.config.variant.name == row.variant
            )
            assert sum(row.switch_coverage_hist) == switches

    def test_provenance_echoes_config(self, small_suite):
        report, _ = small_suite
        assert report.provenance["config"] == asdict(SMALL)
        assert report.provenance["version"]


class TestStatistics:
    # The report's mean, median and stddev are exact or rounded once, so
    # they read the same under every Python the package supports.
    @given(st.lists(st.integers(0, 10**7), min_size=1, max_size=60))
    def test_stddev_is_the_correctly_rounded_root(self, steps):
        k = len(steps)
        variance = Fraction(k * sum(x * x for x in steps) - sum(steps) ** 2, k * k)
        root = bench._pstdev(steps)
        # The exact root lies between the midpoints to the neighbouring floats.
        below, above = math.nextafter(root, 0.0), math.nextafter(root, math.inf)
        assert ((Fraction(below) + Fraction(root)) / 2) ** 2 <= variance
        assert variance <= ((Fraction(root) + Fraction(above)) / 2) ** 2

    @given(st.lists(st.integers(0, 10**7), min_size=1, max_size=60))
    def test_mean_and_median_are_the_statistics_ones(self, steps):
        assert bench._median(steps) == statistics.median(steps)
        assert sum(steps) / len(steps) == statistics.fmean(steps)

    def test_report_bytes_are_pinned(self, tmp_path):
        # ``mazeswitch run --sizes 16,32 --mazes 3``. Python 3.10's
        # ``statistics.pstdev`` read 385.6088980070639 for 32/spiral.
        report, _ = run_suite(SuiteConfig(sizes=(16, 32), mazes_per_size=3))
        assert report.row(32, "spiral").stddev == 385.60889800706394
        write_report_csv(report, tmp_path / "report.csv")
        digest = hashlib.sha256((tmp_path / "report.csv").read_bytes()).hexdigest()
        assert digest == "5a2a17a4cf06ba84c0c04c4c4c5e4bbce9d45716b6a786ca07ee98215dc858fa"


class TestParallelism:
    def test_jobs_do_not_change_records(self):
        serial = run_suite(SuiteConfig(sizes=(16,), mazes_per_size=2, jobs=1))
        parallel = run_suite(SuiteConfig(sizes=(16,), mazes_per_size=2, jobs=2))
        assert [record_to_json(l) for l in serial[1]] == [
            record_to_json(l) for l in parallel[1]
        ]

    def test_pool_is_no_larger_than_the_suite(self, monkeypatch):
        # A task is one (n, maze_seed, base) group, so one maze with all
        # six variants makes two tasks and a pool of two workers.
        built = []

        class FakePool:  # records its size and runs the tasks in this process
            def __init__(self, max_workers):
                built.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        single = SuiteConfig(sizes=(16,), mazes_per_size=1, variants=("spiral",), jobs=500)
        run_suite(single)
        assert built == []
        six = SuiteConfig(sizes=(16,), mazes_per_size=1, jobs=500)
        pooled = run_suite(six)[1]
        assert built == [2]
        serial = run_suite(replace(six, jobs=1))[1]
        assert built == [2]
        assert [record_to_json(l) for l in pooled] == [record_to_json(l) for l in serial]

    def test_a_task_is_one_walk_group_and_logs_come_back_in_config_order(self, monkeypatch):
        tasks = []

        class FakePool:  # keeps the tasks and runs them in this process, last first
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                tasks.extend(items)
                return reversed([fn(task) for task in reversed(tasks)])

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        suite = SuiteConfig(
            sizes=(16, 32), mazes_per_size=2, variants=("sentinel_rl", "spiral", "sentinel"), jobs=2
        )
        _, logs = run_suite(suite)
        assert [[cfg.variant.name for cfg in task] for task in tasks] == [
            ["sentinel_rl", "sentinel"], ["spiral"]
        ] * 4
        assert [{(cfg.n, cfg.maze_seed, cfg.variant.base) for cfg in task} for task in tasks] == [
            {(n, seed, base)} for n in (16, 32) for seed in (0, 1) for base in ("sentinel", "spiral")
        ]
        assert [log.config for log in logs] == episode_configs(suite)


class TestMazeReuse:
    VARIANTS = ("spiral", "spiral_conv", "sentinel_rl")

    def test_serial_suite_carves_each_maze_once(self):
        generate_maze.cache_clear()
        run_suite(SuiteConfig(sizes=(16, 32), mazes_per_size=2, variants=self.VARIANTS))
        info = generate_maze.cache_info()
        assert (info.misses, info.hits) == (4, 4 * (len(self.VARIANTS) - 1))


class TestReplayTraffic:
    @pytest.mark.parametrize(
        "suite",
        (
            SuiteConfig(sizes=(16, 32), mazes_per_size=2),
            SuiteConfig(sizes=(64,), mazes_per_size=2, variants=ABLATION_VARIANTS),
        ),
        ids=("six-variants", "ablation-variants"),
    )
    def test_learned_variants_replay_the_walk_of_their_none_twin(self, suite, monkeypatch):
        # The benchmarks' replays come from this: in a suite that lists a
        # base's ``none`` variant first, each ``_conv`` and ``_rl`` episode
        # replays the one walk that its ``none`` twin stored, and each
        # ``none`` episode walks live.
        ran, found, walk_of = [], [], episode._walk_of

        def running(cfg):
            ran.append(cfg)
            return episode.run_episode(cfg)

        def finding(key, maze):
            found.append(walk_of(key, maze))
            return found[-1]

        monkeypatch.setattr(bench, "run_episode", running)
        monkeypatch.setattr(episode, "_walk_of", finding)
        episode._WALKS.clear()
        run_suite(suite)
        assert sorted(ran, key=episode_configs(suite).index) == episode_configs(suite)
        assert [walk is not None for walk in found] == [
            cfg.variant.convergence != "none" for cfg in ran
        ]
        walks = {}  # (n, maze_seed, base) -> the ids of the walks its episodes found
        for cfg, walk in zip(ran, found):
            if walk is not None:
                walks.setdefault((cfg.n, cfg.maze_seed, cfg.variant.base), set()).add(id(walk))
        assert all(len(ids) == 1 for ids in walks.values())


GOLDEN_SUITES = {
    "small-all-variants": SuiteConfig(sizes=(16, 32), mazes_per_size=10),
    "64-ablation-variants": SuiteConfig(
        sizes=(64,), mazes_per_size=10, variants=("spiral", "spiral_conv", "spiral_rl")
    ),
}


@cache
def golden_logs(name):
    """The episode logs of one golden suite, run once per test session."""
    return run_suite(GOLDEN_SUITES[name])[1]


def log_digest(logs):
    """sha256 over what each episode did, independent of the record format.

    Per episode: config, outcome, total steps, switch step and coverage,
    final coverage, the threshold decisions, the terminal reward, the
    final Q-values and every trajectory position.
    """
    h = hashlib.sha256()
    for log in logs:
        cfg = log.config
        t = log.terminal_reward
        head = {
            "config": [cfg.n, cfg.maze_seed, cfg.variant.name, cfg.rl_seed, cfg.step_limit],
            "outcome": log.outcome,
            "total_steps": log.total_steps,
            "switch": [log.switch_step, log.switch_coverage],
            "final_coverage": log.final_coverage,
            "decisions": [[d.step, d.state_index, d.action, d.reward] for d in log.decisions],
            "terminal": None
            if t is None
            else [
                log.terminal_state_index,
                log.terminal_decision_reward,
                t.r_steps,
                t.r_coverage,
                t.r_switching,
                t.total,
            ],
            "q_values": log.q_values,
        }
        h.update(json.dumps(head, sort_keys=True).encode())
        h.update(array("q", [c for cell in log.trajectory for c in cell]).tobytes())
    return h.hexdigest()


class TestGoldenRecords:
    """The exact record stream of two fixed suites, pinned by sha256.

    The values were measured once and must never be regenerated to make
    a change pass: a mismatch means episodes or record bytes changed.
    """

    @pytest.mark.parametrize(
        "name, digest",
        [
            (
                "small-all-variants",
                "f551ad9ed3e45a681b9af30b7f0ef93697cef4bf255d4a684b1919f5c47bbbeb",
            ),
            (
                "64-ablation-variants",
                "f1e5d84455f1ea9a61bb162b8acca152e6ecdfad181c11b8a5dd167e68d0b70e",
            ),
        ],
        ids=["small-all-variants", "64-ablation-variants"],
    )
    def test_record_stream_digest(self, name, digest, tmp_path):
        path = tmp_path / "episodes.jsonl"
        write_records(golden_logs(name), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "name, digest",
        [
            (
                "small-all-variants",
                "e4749fc726a39cb69d019b2b2462aab78275f69e96975b22ac8dbb25d14a68a3",
            ),
            (
                "64-ablation-variants",
                "6a1587d4887017899d5dc34b14620332687dd66558035e2cd1e07306a856fd0d",
            ),
        ],
        ids=["small-all-variants", "64-ablation-variants"],
    )
    def test_version_3_form_keeps_the_version_3_digest(self, name, digest, tmp_path):
        # Rewritten in version 3 form (the move string as it is), the
        # stream is byte for byte what the version 3 writer pinned.
        path = tmp_path / "episodes.jsonl"
        write_records(golden_logs(name), path)
        assert hashlib.sha256(in_version_3_form(path)).hexdigest() == digest

    @pytest.mark.parametrize(
        "name, digest",
        [
            (
                "small-all-variants",
                "262e820fbf9ac8f01c3ca01d127bb8c53fe08f60f2511adc8b59ad5dba451df9",
            ),
            (
                "64-ablation-variants",
                "d18ce20c8214264a09f3ad9582776f1721c950181b8bd5bb7b85b8a7b0fa05ca",
            ),
        ],
        ids=["small-all-variants", "64-ablation-variants"],
    )
    def test_version_2_form_keeps_the_version_2_digest(self, name, digest, tmp_path):
        # Rewritten in version 2 form (the move string as it is, two
        # counters, dense Q-values), the stream is byte for byte what the
        # version 2 writer pinned.
        path = tmp_path / "episodes.jsonl"
        write_records(golden_logs(name), path)
        lines = []
        for record in read_records(path):
            record["trajectory"] = moves_from_record(record)
            record["schema_version"] = 2
            record["counters"] = {k: record["counters"][k] for k in ("replans", "history_len")}
            if "q_values" in record:
                dense = [[0.0] * 5 for _ in range(50)]
                for key, row in record["q_values"].items():
                    dense[int(key)] = row
                record["q_values"] = dense
            lines.append(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")
        assert hashlib.sha256("".join(lines).encode()).hexdigest() == digest

    @pytest.mark.parametrize("name", list(GOLDEN_SUITES))
    def test_sparse_q_rows_fill_out_to_the_logged_table(self, name):
        # Only the rows that are not all 0.0 are written, keyed by state
        # index; 0.0 everywhere else gives back ``log.q_values``.
        learned = [log for log in golden_logs(name) if log.q_values is not None]
        assert learned
        single = 0
        for log in learned:
            rows = to_record(log)["q_values"]
            assert all(any(row) for row in rows.values())
            dense = [[0.0] * len(row) for row in log.q_values]
            for key, row in rows.items():
                dense[int(key)] = row
            assert dense == log.q_values
            single += sum(sum(v != 0.0 for v in row) == 1 for row in rows.values())
        assert single  # a row with one learned value is written, too


class TestGoldenLogs:
    """The episodes of the two golden suites, pinned apart from the record format.

    A change of record schema re-pins ``TestGoldenRecords`` but never
    these: a mismatch here means the episodes themselves changed.
    """

    @pytest.mark.parametrize(
        "name, digest",
        [
            ("small-all-variants", "09baf2cce760c400e522e15438185de0e05a60c848241544d8b075c5be64c4f0"),
            ("64-ablation-variants", "fcf18871a70ab0014db229bd7682cbe99fb7e6728aac4da9a259f8c0c909dcc3"),
        ],
        ids=["small-all-variants", "64-ablation-variants"],
    )
    def test_log_digest(self, name, digest):
        assert log_digest(golden_logs(name)) == digest


class TestAblation:
    def test_baseline_row_zero_and_deltas_consistent(self):
        report, logs = run_suite(SuiteConfig(sizes=(32,), mazes_per_size=4, variants=ABLATION_VARIANTS))
        rows = ablation(report)
        by_variant = {r["variant"]: r for r in rows}
        assert by_variant["spiral"]["delta_pct"] == 0.0
        # Recompute deltas from the raw episode logs.
        means = {}
        for vname in ("spiral", "spiral_conv", "spiral_rl"):
            steps = [l.total_steps for l in logs if l.config.variant.name == vname]
            means[vname] = sum(steps) / len(steps)
        for vname in ("spiral_conv", "spiral_rl"):
            expected = 100.0 * (means[vname] - means["spiral"]) / means["spiral"]
            assert by_variant[vname]["delta_pct"] == pytest.approx(expected, abs=0.1)

    def test_learned_delta_beats_fixed_delta_at_32(self):
        report, _ = run_suite(SuiteConfig(sizes=(32,), mazes_per_size=10, variants=ABLATION_VARIANTS))
        by_variant = {r["variant"]: r for r in ablation(report)}
        assert by_variant["spiral_rl"]["delta_pct"] < by_variant["spiral_conv"]["delta_pct"]

    def test_requires_the_three_spiral_variants(self, small_suite):
        report, _ = small_suite
        rows = [r for r in report.rows if r.variant != "spiral_conv"]
        with pytest.raises(ValueError, match="spiral_conv"):
            ablation(SuiteReport(rows=rows))

    def test_is_a_view_of_any_report_that_holds_the_spiral_variants(self, monkeypatch):
        suite = SuiteConfig(sizes=(16, 32), mazes_per_size=2, base_seed=3)
        full, _ = run_suite(suite)
        spiral_only, _ = run_suite(replace(suite, variants=ABLATION_VARIANTS))
        monkeypatch.setattr(bench, "run_suite", None)  # an ablation runs no suite
        rows = ablation(full)
        assert [(r["size"], r["variant"]) for r in rows] == [
            (n, v) for n in (16, 32) for v in ABLATION_VARIANTS
        ]
        assert rows == ablation(spiral_only)


class TestReportFiles:
    def test_csv_round_trip_exact(self, small_suite, tmp_path):
        report, _ = small_suite
        path = tmp_path / "report.csv"
        write_report_csv(report, path)
        rows = read_report_csv(path)
        assert len(rows) == len(report.rows)
        for loaded, row in zip(rows, report.rows):
            assert loaded["size"] == row.size
            assert loaded["variant"] == row.variant
            assert loaded["mean_steps"] == pytest.approx(row.mean_steps, abs=1e-9)
            assert loaded["median_steps"] == pytest.approx(row.median_steps, abs=1e-9)
            assert loaded["stddev"] == pytest.approx(row.stddev, abs=1e-9)
            assert loaded["success_rate"] == pytest.approx(row.success_rate, abs=1e-9)

    def test_csv_header_documented(self, small_suite, tmp_path):
        report, _ = small_suite
        path = tmp_path / "report.csv"
        write_report_csv(report, path)
        first = path.read_text().splitlines()[0]
        assert first == ",".join(CSV_HEADER)

    def test_empty_report_is_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_report_csv(SuiteReport(rows=[]), path)
        assert path.read_text().splitlines() == [",".join(CSV_HEADER)]

    def test_csv_with_another_header_is_rejected(self, tmp_path):
        path = tmp_path / "report.csv"
        path.write_text(",".join(reversed(CSV_HEADER)) + "\n")
        with pytest.raises(ValueError, match="unexpected CSV header"):
            read_report_csv(path)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("16,spiral", "a row must have 8 fields"),
            ("16,spiral,1,1,1,1,0,100,9", "a row must have 8 fields"),
            ("x,spiral,1.0,1.0,1,1,0.0,100.0", "invalid literal for int"),
            # Text the writer never writes: int() and float() would read each.
            ('"16\n",spiral,1.0,1.0,1,1,0.0,100.0', "invalid literal for int"),
            ('"16",spiral,1.0,1.0,1,1,0.0,100.0', "invalid literal for int"),
            ("016,spiral,1.0,1.0,1,1,0.0,100.0", "the report writes this row otherwise"),
            ("16,spiral,1,1.0,1,1,0.0,100.0", "the report writes this row otherwise"),
            ("16,spiral,1.0,1.0,1,1,nan,100.0", "a report value must be finite"),
            ("16,spiral,1.0,1.0,1,1,0.0,inf", "a report value must be finite"),
            ('16,"spi""ral",1.0,1.0,1,1,0.0,100.0', "the report writes this row otherwise"),
            ("16,spiral,1.0,1.0,1,1,0.0,100.0\n", "the report writes this row otherwise"),
        ],
        ids=[
            "short-row", "long-row", "bad-int", "quoted-size-and-line-end", "quoted-size",
            "leading-zero", "int-as-mean", "nan", "inf", "quoted-variant", "bare-line-end",
        ],
    )
    def test_csv_with_a_bad_row_names_its_line(self, tmp_path, row, message):
        path = tmp_path / "report.csv"
        good = "16,spiral,1.0,1.0,1,1,0.0,100.0"
        lines = [",".join(CSV_HEADER), good, row, good]
        path.write_bytes("".join(f"{line}\r\n" for line in lines).encode())
        with pytest.raises(ValueError, match=re.escape(f"{path}, line 3: {message}")):
            read_report_csv(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "line 1: unexpected CSV header"),
            (",".join(CSV_HEADER), "line 1: unexpected CSV header"),
            (",".join(CSV_HEADER) + "\r\n16,spiral,1.0,1.0,1,1,0.0,100.0", "line 2: the last line"),
            (",".join(CSV_HEADER) + "\r\n\r\n", "line 2: a row must have 8 fields"),
        ],
        ids=["empty", "header-without-line-end", "row-without-line-end", "blank-line"],
    )
    def test_csv_lines_end_as_written(self, tmp_path, text, message):
        path = tmp_path / "report.csv"
        path.write_bytes(text.encode())
        with pytest.raises(ValueError, match=re.escape(f"{path}, {message}")):
            read_report_csv(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[1]", "a report is a JSON object with a rows list, not [1]"),
            ('{"rows": 3}', "a report is a JSON object with a rows list, not {'rows': 3}"),
            ("{}", "a report is a JSON object with a rows list, not {}"),
            ('{"rows": [', "Expecting value"),
            ("[" * 100_000, "maximum recursion depth"),
        ],
        ids=["list", "rows-not-a-list", "no-rows", "cut-short", "too-deep"],
    )
    def test_json_that_is_not_a_report_is_rejected(self, tmp_path, text, message):
        path = tmp_path / "report.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            read_report_json(path)

    @pytest.mark.parametrize(
        "line, message",
        [
            (b"[1]", "a record is a JSON object, not [1]"),
            (b"3", "a record is a JSON object, not 3"),
            (b'{"a": ', "Expecting value"),
            (b"[" * 100_000, "maximum recursion depth"),
            (b'{"a": "\xff"}', "'utf-8' codec can't decode byte 0xff"),
        ],
        ids=["list", "number", "cut-short", "too-deep", "not-utf-8"],
    )
    def test_records_with_a_bad_line_name_it(self, tmp_path, line, message):
        path = tmp_path / "episodes.jsonl"
        path.write_bytes(b"{}\n\n" + line + b"\n{}\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}, line 3: {message}")):
            read_records(path)

    def test_row_of_a_missing_cell_raises(self, small_suite):
        report, _ = small_suite
        assert report.row(16, "spiral").variant == "spiral"
        with pytest.raises(KeyError, match="no row for size 32, variant spiral"):
            report.row(32, "spiral")

    def test_json_mirrors_report(self, small_suite, tmp_path):
        report, _ = small_suite
        path = tmp_path / "report.json"
        write_report_json(report, path)
        loaded = read_report_json(path)
        assert loaded == json.loads(json.dumps(asdict(report)))

    def test_records_round_trip(self, small_suite, tmp_path):
        _, logs = small_suite
        path = tmp_path / "episodes.jsonl"
        write_records(logs, path)
        records = read_records(path)
        assert len(records) == len(logs)
        assert [json.dumps(r, sort_keys=True, separators=(",", ":")) for r in records] == [
            record_to_json(l) for l in logs
        ]

    def test_io_errors_carry_path(self, tmp_path):
        missing = tmp_path / "nope" / "report.csv"
        with pytest.raises(OSError, match="nope"):
            write_report_csv(SuiteReport(rows=[]), missing)
        with pytest.raises(OSError, match="nope"):
            read_records(missing)


# Characters a mutation writes: the syntax of both formats, digits, a
# letter and the line ends that universal newlines split on.
MUTATION_CHARS = '{}[]",:.-+eE0123456789 \tx\n\r\\'


class TestReadersAreTotal:
    # Total readers: a mutated file either reads as values of the types
    # the reader documents (report.csv: the values it was written from),
    # or raises a ValueError that names the file, and the line where there
    # is one, within the deadline. Any other exception fails the property.
    @pytest.fixture(scope="class")
    def written(self, tmp_path_factory):
        """The records and report text of a small suite, a learning variant included."""
        out = tmp_path_factory.mktemp("written")
        report, logs = run_suite(
            SuiteConfig(sizes=(8,), mazes_per_size=1, variants=("spiral", "spiral_rl"))
        )
        write_records(logs, out / "episodes.jsonl")
        write_report_csv(report, out / "report.csv")
        write_report_json(report, out / "report.json")
        names = ("episodes.jsonl", "report.csv", "report.json")
        return {name: (out / name).read_bytes().decode() for name in names}

    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("mutated") / "output"

    @settings(max_examples=200, deadline=1000)
    @given(data=st.data())
    def test_a_mutated_record_stream_reads_or_is_rejected(self, written, path, data):
        path.write_bytes(data.draw(edits(written["episodes.jsonl"], MUTATION_CHARS)).encode())
        try:
            records = read_records(path)
        except ValueError as exc:
            assert str(exc).startswith(f"{path}, line "), exc
            return
        assert all(type(record) is dict for record in records)

    @settings(max_examples=200, deadline=1000)
    @given(data=st.data())
    def test_a_mutated_csv_reads_or_is_rejected(self, written, path, data):
        text = data.draw(edits(written["report.csv"], MUTATION_CHARS))
        path.write_bytes(text.encode())
        try:
            rows = read_report_csv(path)
        except ValueError as exc:
            assert str(exc).startswith(f"{path}, line "), exc
            return
        for row in rows:
            assert tuple(row) == CSV_HEADER
            assert all(type(row[k]) is kind for k, kind in CSV_COLUMNS.items())
        out = io.StringIO()
        csv.writer(out).writerows([CSV_HEADER, *(row.values() for row in rows)])
        assert out.getvalue() == text  # the rows write back as the text they were read from

    @settings(max_examples=200, deadline=1000)
    @given(data=st.data())
    def test_a_mutated_report_json_reads_or_is_rejected(self, written, path, data):
        # A report's own text, or the least one, so edits reach its outline too.
        text = data.draw(st.sampled_from((written["report.json"], '{"rows": []}\n')))
        path.write_bytes(data.draw(edits(text, MUTATION_CHARS)).encode())
        try:
            report = read_report_json(path)
        except ValueError as exc:
            assert str(exc).startswith(f"{path}: "), exc
            return
        assert type(report) is dict and type(report["rows"]) is list


class TestSuiteConfigValidation:
    def test_rejects_zero_mazes(self):
        with pytest.raises(ValueError):
            SuiteConfig(mazes_per_size=0)

    def test_rejects_unknown_variant(self):
        with pytest.raises(ValueError):
            SuiteConfig(variants=("warp",))

    def test_rejects_empty_variants(self):
        with pytest.raises(ValueError, match="variants"):
            SuiteConfig(variants=())

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"sizes": ()},
            {"sizes": (15,)},
            {"sizes": (16, 33)},
            {"sizes": (6,)},
            {"sizes": (0,)},
            {"sizes": (-8,)},
            {"jobs": 0},
            {"jobs": -3},
            {"sizes": (16, 16)},
            {"sizes": (16, 32, 16)},
            {"variants": ("spiral", "spiral")},
            {"variants": ("spiral", "sentinel_rl", "sentinel_rl")},
            {"sizes": (514,)},
            {"sizes": (16, 10**9)},
        ],
    )
    def test_rejects_bad_sizes_and_jobs(self, kwargs):
        # Repeated sizes or variants would run a cell more than once, and
        # a size above 512 could exhaust memory.
        with pytest.raises(ValueError):
            SuiteConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"sizes": (16.0,)}, "sizes must be int, not 16.0"),
            ({"sizes": (16, True)}, "sizes must be int, not True"),
            ({"sizes": ("16",)}, "sizes must be int, not '16'"),
            ({"mazes_per_size": 1.5}, "mazes_per_size must be int, not 1.5"),
            ({"mazes_per_size": True}, "mazes_per_size must be int, not True"),
            ({"base_seed": 0.5}, "base_seed must be int, not 0.5"),
            ({"base_seed": False}, "base_seed must be int, not False"),
            ({"jobs": 1.5}, "jobs must be int, not 1.5"),
            ({"jobs": True}, "jobs must be int, not True"),
            ({"variants": ("spiral", 3)}, "variants must be str, not 3"),
            ({"sizes": 16}, "sizes must be a tuple, not 16"),
            ({"variants": "spiral"}, "variants must be a tuple, not 'spiral'"),
        ],
        ids=[
            "float-size", "bool-size", "str-size", "float-mazes", "bool-mazes",
            "float-seed", "bool-seed", "float-jobs", "bool-jobs", "int-variant",
            "int-sizes", "str-variants",
        ],
    )
    def test_rejects_a_value_of_the_wrong_type(self, kwargs, message):
        # Unchecked, these failed only inside run_suite, or (jobs=1.5) ran;
        # an int ``sizes`` raised a bare TypeError, and a str ``variants``
        # was read as its letters.
        with pytest.raises(ValueError) as raised:
            SuiteConfig(**{"sizes": (16,), "mazes_per_size": 1, **kwargs})
        assert str(raised.value) == message

    def test_accepts_smallest_size_and_one_job(self):
        assert SuiteConfig(sizes=(8,), jobs=1).sizes == (8,)

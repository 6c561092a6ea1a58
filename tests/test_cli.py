import argparse
import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mazeswitch import cli, grid
from mazeswitch.bench import DEFAULT_SIZES, LONG_SIZES, SuiteReport
from mazeswitch.cli import main
from mazeswitch.episode import VARIANT_ORDER, moves_from_record, pack_moves
from mazeswitch.grid import from_text, generate_maze, to_text
from conftest import edits, in_version_3_form, layout_digest


DATA = Path(__file__).parent / "data"


def run_cli(args):
    return main(args)


class TestGenMaze:
    def test_stdout_matches_generator(self, capsys):
        assert run_cli(["gen-maze", "--size", "16", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert out == to_text(generate_maze(16, 1))
        loaded = from_text(out)
        assert loaded.n == 16 and loaded.seed == 1

    def test_file_output(self, tmp_path, capsys):
        path = tmp_path / "maze.txt"
        assert run_cli(["gen-maze", "--size", "16", "--seed", "2", "--out", str(path)]) == 0
        capsys.readouterr()
        assert layout_digest(from_text(path.read_text())) == layout_digest(generate_maze(16, 2))

    @pytest.mark.parametrize("size", ["7", "6"])
    def test_bad_size_is_one_line_and_exit_status_2(self, size, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["gen-maze", "--size", size, "--seed", "0"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("mazeswitch: error: ")

    def test_missing_out_directory_is_one_line(self, tmp_path, capsys):
        path = tmp_path / "missing_dir" / "x.txt"
        with pytest.raises(SystemExit) as exc:
            run_cli(["gen-maze", "--size", "16", "--seed", "1", "--out", str(path)])
        assert exc.value.code == 2
        _assert_one_error_line(capsys, "missing_dir")
        assert not path.parent.exists()


def _assert_one_error_line(capsys, *fragments):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("mazeswitch: error: ")
    for fragment in fragments:
        assert fragment in captured.err


class TestRun:
    def test_writes_records_and_reports(self, tmp_path, capsys):
        out = tmp_path / "results"
        code = run_cli(
            [
                "run",
                "--sizes",
                "16",
                "--mazes",
                "2",
                "--variants",
                "spiral,spiral_rl",
                "--seed",
                "0",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        capsys.readouterr()
        lines = (out / "episodes.jsonl").read_text().splitlines()
        assert len(lines) == 4
        for line in lines:
            record = json.loads(line)
            assert record["config"]["n"] == 16
        assert (out / "report.csv").exists()
        assert (out / "report.json").exists()

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        args = lambda d: [
            "run", "--sizes", "16", "--mazes", "2",
            "--variants", "spiral_rl", "--seed", "3", "--out", str(d),
        ]
        run_cli(args(tmp_path / "a"))
        run_cli(args(tmp_path / "b"))
        capsys.readouterr()
        assert (tmp_path / "a/episodes.jsonl").read_bytes() == (
            tmp_path / "b/episodes.jsonl"
        ).read_bytes()

    def test_config_file_and_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "suite.ini"
        cfg.write_text(
            "[suite]\nsizes = 16\nmazes = 2\nvariants = spiral\nseed = 5\njobs = 1\n"
        )
        out = tmp_path / "results"
        code = run_cli(
            ["run", "--config", str(cfg), "--mazes", "1", "--out", str(out)]
        )
        assert code == 0
        capsys.readouterr()
        records = [
            json.loads(line)
            for line in (out / "episodes.jsonl").read_text().splitlines()
        ]
        assert len(records) == 1  # flag --mazes 1 overrode the file's 2
        assert records[0]["config"]["maze_seed"] == 5  # seed came from the file

    def test_missing_config_file_errors(self, tmp_path, capsys):
        other = tmp_path / "other.ini"
        other.write_text("[other]\nmazes = 2\n")
        for path in ("/nonexistent.ini", str(other)):
            with pytest.raises(SystemExit) as exc:
                run_cli(["run", "--config", path])
            assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_long_flag_extends_default_sizes(self, tmp_path, monkeypatch, capsys):
        suites = []
        monkeypatch.setattr(
            cli, "run_suite", lambda suite: suites.append(suite) or (SuiteReport(rows=[]), [])
        )
        on, off = tmp_path / "on.ini", tmp_path / "off.ini"
        on.write_text("[suite]\nlong = true\n")
        off.write_text("[suite]\nlong = no\n")
        for argv in (["run"], ["run", "--long"], ["run", "--config", str(on)],
                     ["run", "--config", str(off)]):
            assert run_cli(argv) == 0
        capsys.readouterr()
        assert [s.sizes for s in suites] == [DEFAULT_SIZES, LONG_SIZES, LONG_SIZES, DEFAULT_SIZES]
        assert 128 in LONG_SIZES

    @pytest.mark.parametrize(
        "text, variants",
        [("all", VARIANT_ORDER), (" spiral , sentinel_rl,", ("spiral", "sentinel_rl"))],
        ids=["all", "comma-list"],
    )
    def test_variants_flag_names_the_suite_variants(self, text, variants, monkeypatch, capsys):
        suites = []
        monkeypatch.setattr(
            cli, "run_suite", lambda suite: suites.append(suite) or (SuiteReport(rows=[]), [])
        )
        assert run_cli(["run", "--sizes", "16", "--variants", text]) == 0
        capsys.readouterr()
        assert [s.variants for s in suites] == [variants]
        assert len(VARIANT_ORDER) == 6

    def test_qtable_dumps_written_for_learning_variants(self, tmp_path, capsys):
        out = tmp_path / "results"
        run_cli(
            ["run", "--sizes", "16", "--mazes", "2", "--variants", "spiral,spiral_rl",
             "--seed", "0", "--out", str(out)]
        )
        capsys.readouterr()
        dumps = sorted((out / "qtables").iterdir())
        assert [p.name for p in dumps] == [
            "16x16_spiral_rl_seed0.txt",
            "16x16_spiral_rl_seed1.txt",
        ]
        values = [[float(v) for v in line.split()] for line in dumps[0].read_text().splitlines()]
        assert len(values) == 50 and all(len(row) == 5 for row in values)

    def test_qtable_dumps_of_an_earlier_run_are_removed(self, tmp_path, capsys):
        out = tmp_path / "results"
        base = ["run", "--sizes", "16", "--out", str(out)]
        run_cli(base + ["--mazes", "3", "--variants", "spiral_rl", "--seed", "0"])
        kept = ["notes.txt", "16x16_spiral_rl_seed0.txt.bak", "16x8_spiral_rl_seed0.txt",
                "16x16_spiral_xx_seed0.txt"]
        for name in kept:
            (out / "qtables" / name).write_text("not a dump\n")
        run_cli(base + ["--mazes", "1", "--variants", "spiral_rl", "--seed", "5"])
        capsys.readouterr()
        names = sorted(p.name for p in (out / "qtables").iterdir())
        assert names == sorted(kept + ["16x16_spiral_rl_seed5.txt"])
        run_cli(base + ["--mazes", "1", "--variants", "spiral", "--seed", "5"])
        capsys.readouterr()
        assert sorted(p.name for p in (out / "qtables").iterdir()) == sorted(kept)


class TestReplay:
    def test_replay_identical(self, tmp_path, capsys):
        out = tmp_path / "results"
        run_cli(
            ["run", "--sizes", "16", "--mazes", "2", "--variants", "spiral_rl",
             "--seed", "0", "--out", str(out)]
        )
        capsys.readouterr()
        code = run_cli(["replay", str(out / "episodes.jsonl")])
        printed = capsys.readouterr().out
        assert code == 0
        assert printed.count("identical") == 2

    def test_replay_detects_tampering(self, tmp_path, capsys):
        out = tmp_path / "results"
        run_cli(
            ["run", "--sizes", "16", "--mazes", "1", "--variants", "spiral",
             "--seed", "0", "--out", str(out)]
        )
        capsys.readouterr()
        path = out / "episodes.jsonl"
        record = json.loads(path.read_text())
        record["total_steps"] += 1
        path.write_text(json.dumps(record, sort_keys=True) + "\n")
        code = run_cli(["replay", str(path)])
        printed = capsys.readouterr().out
        assert code == 1
        assert "MISMATCH" in printed
        assert "total_steps" in printed

    def test_line_selection(self, tmp_path, capsys):
        out = tmp_path / "results"
        run_cli(
            ["run", "--sizes", "16", "--mazes", "3", "--variants", "spiral",
             "--seed", "0", "--out", str(out)]
        )
        capsys.readouterr()
        code = run_cli(["replay", str(out / "episodes.jsonl"), "--line", "2"])
        printed = capsys.readouterr().out
        assert code == 0
        assert printed.strip() == "record 2: identical"


    def test_bad_lines_are_reported_and_the_rest_replay(self, tmp_path, capsys):
        out = tmp_path / "results"
        run_cli(
            ["run", "--sizes", "16", "--mazes", "2", "--variants", "spiral",
             "--seed", "0", "--out", str(out)]
        )
        capsys.readouterr()
        good = (out / "episodes.jsonl").read_text().splitlines()
        unknown = json.loads(good[0])
        unknown["config"]["variant"] = "zigzag"
        odd = json.loads(good[0])
        odd["config"]["n"] = 15
        path = tmp_path / "mixed.jsonl"
        path.write_text(
            "\n".join(
                [
                    good[0],
                    '{"config": {"n": 16',
                    json.dumps(unknown),
                    '{"config":{"n":16}}',
                    json.dumps(odd),
                    "[1, 2]",
                    good[1],
                ]
            )
            + "\n"
        )
        code = run_cli(["replay", str(path)])
        printed = capsys.readouterr().out.splitlines()
        assert code == 1
        assert printed[0] == "record 1: identical"
        assert printed[1].startswith("record 2: ERROR ")
        assert printed[2].startswith("record 3: ERROR unknown variant 'zigzag'")
        assert printed[3].startswith("record 4: ERROR config is missing ")
        assert "maze_seed" in printed[3]
        assert printed[4].startswith("record 5: ERROR maze size must be even")
        assert printed[5] == "record 6: ERROR record has no config object"
        assert printed[6] == "record 7: identical"
        assert len(printed) == 7

    def test_a_line_nested_too_deep_is_an_error(self, tmp_path, capsys):
        # json.loads raises RecursionError, not ValueError, on deep nesting.
        path = tmp_path / "deep.jsonl"
        path.write_text("[" * 100_000 + "\n")
        code = run_cli(["replay", str(path)])
        printed = capsys.readouterr().out.splitlines()
        assert code == 1
        assert len(printed) == 1 and printed[0].startswith("record 1: ERROR ")
        assert "nested too deep" in printed[0]

    def test_version_1_file_replays_identical(self, capsys):
        # Written by the version 1 writer: [x, y] positions, no schema_version.
        lines = (DATA / "episodes_v1.jsonl").read_text().splitlines()
        assert all("schema_version" not in json.loads(line) for line in lines)
        code = run_cli(["replay", str(DATA / "episodes_v1.jsonl")])
        assert code == 0
        assert capsys.readouterr().out.splitlines() == [
            f"record {k}: identical" for k in range(1, len(lines) + 1)
        ]

    def test_version_2_file_replays_identical(self, capsys):
        # Written by the version 2 writer: two counters, dense Q-values.
        lines = (DATA / "episodes_v2.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert [r["config"]["variant"] for r in records] == list(VARIANT_ORDER)
        assert all(r["schema_version"] == 2 for r in records)
        assert all(set(r["counters"]) == {"replans", "history_len"} for r in records)
        assert all(len(r["q_values"]) == 50 for r in records if "q_values" in r)
        code = run_cli(["replay", str(DATA / "episodes_v2.jsonl")])
        assert code == 0
        assert capsys.readouterr().out.splitlines() == [
            f"record {k}: identical" for k in range(1, len(lines) + 1)
        ]

    def test_version_3_file_replays_identical(self, capsys):
        # Written by the version 3 writer: the move string as it is, with
        # sparse Q-values and all nine counters.
        lines = (DATA / "episodes_v3.jsonl").read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert [r["config"]["variant"] for r in records] == list(VARIANT_ORDER)
        assert all(r["schema_version"] == 3 for r in records)
        assert all(set(r["trajectory"]) <= set("ESWN") for r in records)
        assert all(len(r["counters"]) == 9 for r in records)
        assert any(r["counters"]["replans"] for r in records)
        assert all(0 < len(r["q_values"]) < 50 for r in records if "q_values" in r)
        code = run_cli(["replay", str(DATA / "episodes_v3.jsonl")])
        assert code == 0
        assert capsys.readouterr().out.splitlines() == [
            f"record {k}: identical" for k in range(1, len(lines) + 1)
        ]

    def test_null_schema_version_is_an_error(self, tmp_path, capsys):
        first = json.loads((DATA / "episodes_v1.jsonl").read_text().splitlines()[0])
        path = tmp_path / "null.jsonl"
        path.write_text(json.dumps({**first, "schema_version": None}) + "\n")
        assert run_cli(["replay", str(path)]) == 1
        assert capsys.readouterr().out == "record 1: ERROR unknown schema_version None\n"

    @pytest.mark.parametrize("value", ["3", True], ids=["string", "bool"])
    def test_non_integer_config_value_is_an_error(self, value, tmp_path, capsys):
        record = json.loads((DATA / "episodes_v1.jsonl").read_text().splitlines()[0])
        record["config"]["maze_seed"] = value
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(record) + "\n")
        assert run_cli(["replay", str(path)]) == 1
        assert capsys.readouterr().out == (
            "record 1: ERROR config values must be integers: ['maze_seed']\n"
        )

    def test_a_field_only_one_record_has_is_named_even_if_null(self, tmp_path, capsys):
        first = json.loads((DATA / "episodes_v1.jsonl").read_text().splitlines()[0])
        assert first["switch"] is None
        del first["switch"]
        path = tmp_path / "no-switch.jsonl"
        path.write_text(json.dumps(first) + "\n" + json.dumps({**first, "q_values": None}) + "\n")
        assert run_cli(["replay", str(path)]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "record 1: MISMATCH in fields ['switch']",
            "record 2: MISMATCH in fields ['q_values', 'switch']",
        ]

    def test_tampered_move_string_is_a_trajectory_mismatch(self, tmp_path, capsys):
        out = tmp_path / "results"
        run_cli(
            ["run", "--sizes", "16", "--mazes", "1", "--variants", "spiral",
             "--seed", "0", "--out", str(out)]
        )
        capsys.readouterr()
        path = out / "episodes.jsonl"
        record = json.loads(path.read_text())
        moves = moves_from_record(record)
        k = next(k for k in range(len(moves) - 1) if moves[k] != moves[k + 1])
        record["trajectory"] = pack_moves(moves[:k] + moves[k + 1] + moves[k] + moves[k + 2 :])
        path.write_text(json.dumps(record) + "\n")
        code = run_cli(["replay", str(path)])
        assert code == 1
        assert capsys.readouterr().out == "record 1: MISMATCH in fields ['trajectory']\n"

    def test_malformed_trajectories_are_errors_and_the_rest_replay(self, tmp_path, capsys):
        out = tmp_path / "results"
        run_cli(
            ["run", "--sizes", "16", "--mazes", "1", "--variants", "spiral",
             "--seed", "0", "--out", str(out)]
        )
        capsys.readouterr()
        v4 = json.loads((out / "episodes.jsonl").read_text())
        v3 = json.loads((DATA / "episodes_v3.jsonl").read_text().splitlines()[0])
        v2 = json.loads((DATA / "episodes_v2.jsonl").read_text().splitlines()[0])
        v1 = json.loads((DATA / "episodes_v1.jsonl").read_text().splitlines()[0])

        def variant(record, **changes):
            return json.dumps({**record, **changes})

        jump = v1["trajectory"][:2] + [[9, 9]] + v1["trajectory"][3:]
        path = tmp_path / "mixed.jsonl"
        path.write_text(
            "\n".join(
                [
                    variant(v2, trajectory=42),
                    variant(v2, trajectory="ESXW"),
                    variant(v2, trajectory=v1["trajectory"]),
                    variant(v2, schema_version=5),
                    variant(v1, trajectory=jump),
                    variant(v1, trajectory="ES"),
                    variant(v1, trajectory=[[1, 0]] + v1["trajectory"][1:]),
                    variant(v2, trajectory=v2["trajectory"][:-1]),
                    json.dumps(v1),
                    json.dumps(v2),
                    variant(v4, trajectory=42),
                    json.dumps(v4),
                    variant(v2, schema_version=2.0),
                    variant(v3, schema_version=3.0),
                    variant(v3, trajectory=42),
                    json.dumps(v3),
                    variant(v4, schema_version=3),
                    variant(v3, schema_version=4),
                    variant(v4, trajectory=v4["trajectory"] + "\n"),
                    variant(v4, schema_version=4.0),
                ]
            )
            + "\n"
        )
        code = run_cli(["replay", str(path)])
        printed = capsys.readouterr().out.splitlines()
        assert code == 1
        assert printed == [
            "record 1: ERROR a version 2 trajectory must be a move string",
            "record 2: ERROR unknown move letters ['X']",
            "record 3: ERROR a version 2 trajectory must be a move string",
            "record 4: ERROR unknown schema_version 5",
            "record 5: ERROR move from [0, 1] to [9, 9] is not a unit step",
            "record 6: ERROR a version 1 trajectory must be a list of positions",
            "record 7: ERROR trajectory does not start at (0, 0)",
            "record 8: MISMATCH in fields ['trajectory']",
            "record 9: identical",
            "record 10: identical",
            "record 11: ERROR a version 4 trajectory must be a move string",
            "record 12: identical",
            "record 13: ERROR unknown schema_version 2.0",
            "record 14: ERROR unknown schema_version 3.0",
            "record 15: ERROR a version 3 trajectory must be a move string",
            "record 16: identical",
            f"record 17: ERROR unknown move letters {sorted(set(v4['trajectory']) - set('ESWN'))}",
            "record 18: ERROR a version 4 trajectory starts with its padding digit 0-3, "
            f"not {v3['trajectory'][0]!r}",
            "record 19: ERROR a version 4 trajectory is not in the packed form its moves write",
            "record 20: ERROR unknown schema_version 4.0",
        ]

    def test_only_errors_still_exit_nonzero(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        assert run_cli(["replay", str(path)]) == 1
        assert capsys.readouterr().out.startswith("record 1: ERROR ")

    @pytest.mark.parametrize("name", ["", "missing.jsonl"], ids=["directory", "missing"])
    def test_unreadable_path_is_one_line(self, name, tmp_path, capsys):
        path = tmp_path / name
        with pytest.raises(SystemExit) as exc:
            run_cli(["replay", str(path)])
        assert exc.value.code == 2
        _assert_one_error_line(capsys, f"{path}: ")

    @pytest.mark.parametrize("line", ["0", "3"])
    def test_line_out_of_range_is_one_line(self, line, tmp_path, capsys):
        out = tmp_path / "results"
        run_cli(
            ["run", "--sizes", "16", "--mazes", "2", "--variants", "spiral",
             "--seed", "0", "--out", str(out)]
        )
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            run_cli(["replay", str(out / "episodes.jsonl"), "--line", line])
        assert exc.value.code == 2
        _assert_one_error_line(capsys, "--line must be in 1..2")

    def test_records_are_numbered_by_file_line(self, tmp_path, capsys):
        out = tmp_path / "results"
        run_cli(
            ["run", "--sizes", "16", "--mazes", "1", "--variants", "spiral",
             "--seed", "0", "--out", str(out)]
        )
        capsys.readouterr()
        path = tmp_path / "spaced.jsonl"
        path.write_text("\nnot json\n  \n" + (out / "episodes.jsonl").read_text())
        assert run_cli(["replay", str(path)]) == 1
        printed = capsys.readouterr().out.splitlines()
        assert printed[0].startswith("record 2: ERROR ")
        assert printed[1:] == ["record 4: identical"]
        assert run_cli(["replay", str(path), "--line", "4"]) == 0
        assert capsys.readouterr().out == "record 4: identical\n"

    def test_only_a_newline_ends_a_record(self, tmp_path, capsys):
        # A raw U+2028 in a JSON string is legal JSON. Split at it, the
        # first record would print two ERROR lines and the second would
        # be numbered 3.
        out = tmp_path / "results"
        run_cli(
            ["run", "--sizes", "16", "--mazes", "2", "--variants", "spiral",
             "--seed", "0", "--out", str(out)]
        )
        capsys.readouterr()
        first, second = (out / "episodes.jsonl").read_text().split("\n")[:2]
        record = json.loads(first)
        record["config"]["note\u2028"] = 1  # a config key the fresh record lacks
        path = tmp_path / "separator.jsonl"
        path.write_text(json.dumps(record, ensure_ascii=False) + "\n" + second + "\n", "utf-8")
        assert "\u2028" in path.read_text("utf-8").split("\n")[0]
        assert run_cli(["replay", str(path)]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "record 1: MISMATCH in fields ['config']",
            "record 2: identical",
        ]
        assert run_cli(["replay", str(path), "--line", "2"]) == 0
        assert capsys.readouterr().out == "record 2: identical\n"
        with pytest.raises(SystemExit):
            run_cli(["replay", str(path), "--line", "3"])
        _assert_one_error_line(capsys, "--line must be in 1..2, got 3")

    @pytest.mark.parametrize(
        "line, message", [("3", "line 3 of "), ("5", "--line must be in 1..4, got 5")]
    )
    def test_blank_or_missing_file_line_is_one_line(self, line, message, tmp_path, capsys):
        path = tmp_path / "spaced.jsonl"
        path.write_text("\nnot json\n  \nnot json either\n")
        with pytest.raises(SystemExit) as exc:
            run_cli(["replay", str(path), "--line", line])
        assert exc.value.code == 2
        _assert_one_error_line(capsys, message)

    @pytest.mark.parametrize("text", ["", "\n  \n"], ids=["empty", "blank-lines"])
    def test_file_without_records_is_one_line(self, text, tmp_path, capsys):
        path = tmp_path / "episodes.jsonl"
        path.write_text(text)
        with pytest.raises(SystemExit) as exc:
            run_cli(["replay", str(path)])
        assert exc.value.code == 2
        _assert_one_error_line(capsys, str(path), "no records")

    def test_non_utf8_file_is_one_line(self, tmp_path, capsys):
        path = tmp_path / "episodes.jsonl"
        path.write_bytes(b'{"config": {}}\n\xff\xfe\n')
        with pytest.raises(SystemExit) as exc:
            run_cli(["replay", str(path)])
        assert exc.value.code == 2
        _assert_one_error_line(capsys, "UTF-8")


class TestAblate:
    def test_prints_table_and_writes_outputs(self, tmp_path, capsys):
        out = tmp_path / "abl"
        code = run_cli(
            ["ablate", "--size", "16", "--mazes", "2", "--seed", "0", "--out", str(out)]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "baseline" in printed
        rows = json.loads((out / "ablation.json").read_text())
        assert [r["variant"] for r in rows] == ["spiral", "spiral_conv", "spiral_rl"]
        assert rows[0]["delta_pct"] == 0.0

    def test_outputs_are_pinned(self, tmp_path, capsys):
        out = tmp_path / "abl"
        argv = ["ablate", "--sizes", "16,32", "--mazes", "3", "--seed", "4", "--out", str(out)]
        assert run_cli(argv) == 0
        digests = {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("ablation.json", "ablation_episodes.jsonl")
        }
        assert digests == {
            "ablation.json": "612d7cccf63dbec12dc86dfe619ab89a1c712e705d8a1d82f248cf57581d904d",
            "ablation_episodes.jsonl": "d44affcfac4aaa2dd837a52daac8902814e3e3048ceb239def114e02e2f394e6",
        }
        # Rewritten in version 3 form, the records are what the version 3 writer pinned.
        v3 = in_version_3_form(out / "ablation_episodes.jsonl")
        assert hashlib.sha256(v3).hexdigest() == (
            "47519b3c2ac7fbbfbc8a70ddede48fad928b58205a61362f7d798e44b0574e82"
        )

    def test_long_flag_is_not_accepted(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["ablate", "--size", "16", "--long"])
        assert exc.value.code == 2
        assert "--long" in capsys.readouterr().err


# A config file that sets every flag of ``run``, and what its mutations write.
GOOD_CONFIG = (
    "[suite]\nsizes = 16,32\nmazes = 2\nseed = 7\njobs = 1\n"
    "variants = spiral,spiral_rl\nlong = true\nout = results\n"
)
CONFIG_CHARS = "[]=:;#%()$ \t\n\r\x0b\f\u2028\x85\x00,-_.0123456789aelnorstuy\udcff\u00e9"


class TestSuiteArgumentErrors:
    @pytest.mark.parametrize("command", [["run"], ["ablate", "--size", "16"]])
    @pytest.mark.parametrize(
        "bad",
        [
            ["--jobs", "0"],
            ["--jobs", "-3"],
            ["--sizes", "15"],
            ["--sizes", "6"],
            ["--sizes", ","],
            ["--sizes", "16,16"],
            ["--sizes", "16,32,16"],
        ],
        ids=["jobs0", "jobs-3", "odd-size", "small-size", "no-sizes", "same-size", "size-repeated"],
    )
    def test_one_line_and_exit_status_2(self, command, bad, tmp_path, capsys):
        out = tmp_path / "results"
        with pytest.raises(SystemExit) as exc:
            run_cli(command + ["--mazes", "1", "--out", str(out)] + bad)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("mazeswitch: error: ")
        assert not out.exists()

    @pytest.mark.parametrize("command", [["run", "--sizes", "16"], ["ablate", "--size", "16"]])
    @pytest.mark.parametrize("where", ["existing-file", "under-a-file"])
    def test_unusable_out_stops_before_the_suite(self, command, where, tmp_path, monkeypatch, capsys):
        def no_suite(suite):
            raise AssertionError("a suite started")

        monkeypatch.setattr(cli, "run_suite", no_suite)
        monkeypatch.setattr(cli, "ablation", no_suite)
        blocker = tmp_path / "results"
        blocker.write_text("not a directory\n")
        out = blocker if where == "existing-file" else blocker / "sub"
        with pytest.raises(SystemExit) as exc:
            run_cli(command + ["--mazes", "1", "--out", str(out)])
        assert exc.value.code == 2
        _assert_one_error_line(capsys, str(out))
        assert blocker.read_text() == "not a directory\n"

    def test_empty_variants_is_one_line(self, tmp_path, monkeypatch, capsys):
        def no_suite(suite):
            raise AssertionError("a suite started")

        monkeypatch.setattr(cli, "run_suite", no_suite)
        out = tmp_path / "results"
        with pytest.raises(SystemExit) as exc:
            run_cli(["run", "--sizes", "16", "--mazes", "1", "--variants", ",", "--out", str(out)])
        assert exc.value.code == 2
        _assert_one_error_line(capsys, "variants")
        assert not out.exists()

    @pytest.mark.parametrize("where", ["flag", "config-file"])
    def test_unknown_variant_is_one_line(self, where, tmp_path, monkeypatch, capsys):
        def no_suite(suite):
            raise AssertionError("a suite started")

        monkeypatch.setattr(cli, "run_suite", no_suite)
        cfg = tmp_path / "suite.ini"
        cfg.write_text("[suite]\nsizes = 16\nmazes = 1\nvariants = spiral,bogus\n")
        argv = {
            "flag": ["run", "--sizes", "16", "--mazes", "1", "--variants", "bogus"],
            "config-file": ["run", "--config", str(cfg)],
        }[where]
        with pytest.raises(SystemExit) as exc:
            run_cli(argv)
        assert exc.value.code == 2
        _assert_one_error_line(capsys, "'bogus'", ", ".join(VARIANT_ORDER))

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--sizes", "1000000000", "--mazes", "1"],
            ["gen-maze", "--size", "1000000000", "--seed", "0"],
        ],
        ids=["run", "gen-maze"],
    )
    def test_oversize_is_one_line_before_any_maze(self, argv, monkeypatch, capsys):
        def no_maze(*args):
            raise AssertionError("a maze or a suite started")

        monkeypatch.setattr(cli, "run_suite", no_maze)
        monkeypatch.setattr(grid, "layout", no_maze)  # the first allocation of any maze
        with pytest.raises(SystemExit) as exc:
            run_cli(argv)
        assert exc.value.code == 2
        _assert_one_error_line(capsys, "maze size must be even", "got 1000000000")

    def test_non_integer_size_is_a_usage_error(self, monkeypatch, capsys):
        def no_suite(suite):
            raise AssertionError("a suite started")

        monkeypatch.setattr(cli, "run_suite", no_suite)
        with pytest.raises(SystemExit) as exc:
            run_cli(["run", "--sizes", "16,x", "--mazes", "1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --sizes: bad size list '16,x'" in captured.err

    def test_repeated_variant_is_one_line(self, tmp_path, monkeypatch, capsys):
        def no_suite(suite):
            raise AssertionError("a suite started")

        monkeypatch.setattr(cli, "run_suite", no_suite)
        out = tmp_path / "results"
        argv = ["run", "--sizes", "16", "--mazes", "1", "--variants", "spiral,spiral", "--out", str(out)]
        with pytest.raises(SystemExit) as exc:
            run_cli(argv)
        assert exc.value.code == 2
        _assert_one_error_line(capsys, "repeat", "spiral")
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, blocked, make",
        [
            (["run", "--variants", "spiral"], "episodes.jsonl", "directory"),
            (["run", "--variants", "spiral_rl"], "qtables", "file"),
            (["ablate", "--size", "16"], "ablation.json", "directory"),
        ],
        ids=["episodes-is-a-directory", "qtables-is-a-file", "ablation-is-a-directory"],
    )
    def test_write_after_the_suite_fails_in_one_line(self, command, blocked, make, tmp_path, capsys):
        out = tmp_path / "results"
        out.mkdir()
        path = out / blocked
        if make == "directory":
            path.mkdir()
        else:
            path.write_text("not a directory\n")
        with pytest.raises(SystemExit) as exc:
            run_cli(command + ["--sizes", "16", "--mazes", "1", "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("mazeswitch: error: ")
        assert str(path) in err

    @pytest.mark.parametrize("command", [["run", "--sizes", "16"], ["ablate", "--size", "16"]])
    @pytest.mark.parametrize("where", ["flag", "config-file"])
    def test_empty_out_writes_nothing(self, command, where, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "suite.ini"
        cfg.write_text("[suite]\nout =\n")
        extra = ["--out", ""] if where == "flag" else ["--config", str(cfg)]
        assert run_cli(command + ["--mazes", "1"] + extra) == 0
        assert "wrote" not in capsys.readouterr().out
        assert [p.name for p in tmp_path.iterdir()] == ["suite.ini"]

    @pytest.mark.parametrize(
        "command, line",
        [
            (["run"], "mazes = abc"),
            (["run"], "variants = spiral,bogus"),
            (["run"], "long = maybe"),
            (["run"], "colour = red"),
            (["run"], "maz = 2"),
            (["run"], "sizes = 32"),
            (["ablate", "--size", "16"], "long = true"),
            (["ablate", "--size", "16"], "variants = spiral"),
            (["run"], "config = c.ini"),
            (["ablate", "--size", "16"], "config = c.ini"),
            (["run"], "mazes = 1%"),  # was an InterpolationSyntaxError traceback
            (["run"], "variants = spiral\udcff"),  # a raw 0xff byte: was a UnicodeDecodeError
        ],
    )
    def test_bad_config_file_is_a_usage_error(self, command, line, tmp_path, monkeypatch, capsys):
        def no_suite(suite):
            raise AssertionError("a suite started")

        monkeypatch.setattr(cli, "run_suite", no_suite)
        monkeypatch.setattr(cli, "ablation", no_suite)
        cfg = tmp_path / "suite.ini"
        cfg.write_bytes(f"[suite]\nsizes = 16\n{line}\n".encode("utf-8", "surrogateescape"))
        with pytest.raises(SystemExit) as exc:
            run_cli(command + ["--config", str(cfg)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert ": error: " in captured.err

    @settings(max_examples=200, deadline=1000)
    @given(text=edits(GOOD_CONFIG, CONFIG_CHARS))
    def test_a_mutated_config_file_parses_or_is_a_usage_error(self, text, tmp_path_factory):
        # Total reader: any [suite] file either parses to the namespace of
        # a run, or exits with status 2 and one usage error, within the
        # deadline. Parsing starts no suite; any other exception fails.
        cfg = tmp_path_factory.mktemp("config") / "suite.ini"
        cfg.write_bytes(text.encode("utf-8", "surrogateescape"))  # "\udcff" is a raw 0xff
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                args = cli._parse_with_config(cli.build_parser(), ["run", "--config", str(cfg)])
        except SystemExit as exc:
            assert exc.code == 2 and out.getvalue() == ""
            assert ": error: " in err.getvalue()
            return
        assert isinstance(args, argparse.Namespace) and args.command == "run"
        assert out.getvalue() == err.getvalue() == ""

    def test_bad_jobs_from_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "suite.ini"
        cfg.write_text("[suite]\nsizes = 16\nmazes = 1\njobs = 0\n")
        with pytest.raises(SystemExit) as exc:
            run_cli(["run", "--config", str(cfg)])
        assert exc.value.code == 2
        assert "jobs" in capsys.readouterr().err

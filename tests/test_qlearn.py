import numpy as np
import pytest
from hypothesis import given, strategies as st

from mazeswitch.qlearn import (
    ALPHA,
    GAMMA,
    N_ACTIONS,
    N_STATES,
    POTENTIAL_OFFSET,
    QTable,
    THRESHOLDS,
    decision_reward,
    discretize,
    dump_qtable_values,
    q_update,
    select_action,
    switching_component,
    terminal_reward,
)


class TestDiscretize:
    def test_clamps_top_distance_bucket(self):
        assert discretize(0.0, 32, 16) == 0 * 5 + 4

    def test_clamps_top_coverage_bucket(self):
        assert discretize(100.0, 0, 16) == 9 * 5 + 0

    def test_hand_evaluated_interior_point(self):
        assert discretize(35.0, 10, 16) == 3 * 5 + 1

    def test_exhaustive_sweep_stays_in_fifty_states(self):
        n = 16
        seen = set()
        for c in range(101):
            for d in range(2 * n + 1):
                s = discretize(float(c), d, n)
                b_c, b_d = divmod(s, 5)
                assert 0 <= b_c <= 9 and 0 <= b_d <= 4
                seen.add(s)
        assert seen == set(range(N_STATES))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            discretize(-0.1, 0, 16)
        with pytest.raises(ValueError):
            discretize(100.1, 0, 16)
        with pytest.raises(ValueError):
            discretize(50.0, 33, 16)


class TestSelectAction:
    def test_zero_table_tie_breaks_to_lowest(self):
        q = QTable(rng_seed=1, epsilon=0.0)
        assert select_action(q, 0) == 20

    def test_argmax_row(self):
        q = QTable(rng_seed=1, epsilon=0.0)
        q.values[2 * 5 + 3] = [0, 0, 5, 0, 0]
        assert select_action(q, 2 * 5 + 3) == 40

    def test_uniform_when_always_exploring(self):
        q = QTable(rng_seed=123, epsilon=1.0)
        counts = {t: 0 for t in THRESHOLDS}
        for _ in range(10_000):
            counts[select_action(q, 0)] += 1
        for t in THRESHOLDS:
            assert abs(counts[t] - 2000) <= 150, counts

    def test_tie_break_lowest_on_random_tables(self):
        rng = np.random.default_rng(7)
        q = QTable(rng_seed=1, epsilon=0.0)
        for _ in range(200):
            table = np.round(rng.normal(size=(N_STATES, N_ACTIONS)), 1)
            q.values = table.tolist()
            s = int(rng.integers(10)) * 5 + int(rng.integers(5))
            row = table[s]
            expected = THRESHOLDS[min(i for i in range(N_ACTIONS) if row[i] == row.max())]
            assert select_action(q, s) == expected

    def test_seeded_stream_replays(self):
        a = QTable(rng_seed=42)
        b = QTable(rng_seed=42)
        s = 1 * 5 + 1
        assert [select_action(a, s) for _ in range(100)] == [
            select_action(b, s) for _ in range(100)
        ]


class TestQUpdate:
    def test_hand_case_terminal_fifty(self):
        q = QTable(rng_seed=0)
        q_update(q, 0, 20, 50.0, None)
        assert q.values[0][0] == pytest.approx(5.0)

    def test_hand_case_bootstrap(self):
        q = QTable(rng_seed=0)
        s, s_next = 0, 0 * 5 + 1
        q.values[s_next] = [10, 0, 0, 0, 0]
        q_update(q, s, 20, 0.0, s_next)
        assert q.values[s][0] == pytest.approx(0.9)

    def test_zero_reward_zero_table_fixed_point(self):
        q = QTable(rng_seed=0)
        s = 3 * 5 + 3
        q_update(q, s, 30, 0.0, s)
        assert (np.array(q.values) == 0).all()

    @given(
        b_c=st.integers(0, 9),
        b_d=st.integers(0, 4),
        action=st.sampled_from(THRESHOLDS),
        reward=st.floats(-100, 100),
    )
    def test_updates_exactly_one_cell(self, b_c, b_d, action, reward):
        q = QTable(rng_seed=0)
        q.values = np.arange(N_STATES * N_ACTIONS, dtype=float).reshape(
            N_STATES, N_ACTIONS
        ).tolist()
        before = np.array(q.values)
        s = b_c * 5 + b_d
        q_update(q, s, action, reward, 0)
        changed = np.argwhere(np.array(q.values) != before)
        expected_cell = [s, THRESHOLDS.index(action)]
        assert changed.tolist() in ([expected_cell], [])

    def test_positive_update_wins_argmax(self):
        for action in THRESHOLDS:
            q = QTable(rng_seed=0, epsilon=0.0)
            s = 5 * 5 + 2
            q_update(q, s, action, 10.0, None)
            assert select_action(q, s) == action

    def test_non_finite_reward_rejected(self):
        q = QTable(rng_seed=0)
        with pytest.raises(ValueError):
            q_update(q, 0, 20, float("nan"), None)
        with pytest.raises(ValueError):
            q_update(q, 0, 20, float("inf"), None)

    def test_table_shape(self):
        q = QTable(rng_seed=0)
        assert len(q.values) == 50 and all(len(row) == 5 for row in q.values)
        assert all(type(v) is float and v == 0.0 for row in q.values for v in row)
        assert (ALPHA, GAMMA, q.epsilon) == (0.1, 0.9, 0.1)


class TestTerminalReward:
    def test_balanced_success(self):
        r = terminal_reward(512, 1024, 50.0, 40.0)
        assert (r.r_steps, r.r_coverage, r.r_switching) == (25.0, 15.0, 10.0)
        assert r.total == 50.0

    def test_limit_hit_with_early_switch(self):
        r = terminal_reward(1024, 1024, 20.0, 15.0)
        assert (r.r_steps, r.r_coverage, r.r_switching) == (0.0, 6.0, -5.0)
        assert r.total == 1.0

    def test_degenerate_zero_steps(self):
        r = terminal_reward(0, 1024, 0.0, None)
        assert r.total == 50.0
        assert r.r_switching == 0.0

    def test_switch_timing_regions(self):
        # All five regions, boundaries included.
        assert switching_component(19.999) == -5.0
        assert switching_component(20.0) == 0.0
        assert switching_component(29.999) == 0.0
        assert switching_component(30.0) == 10.0
        assert switching_component(40.0) == 10.0
        assert switching_component(50.0) == 10.0
        assert switching_component(50.001) == 0.0
        assert switching_component(60.0) == 0.0
        assert switching_component(60.001) == -5.0

    def test_total_is_componentwise_sum(self):
        for args in ((100, 1000, 33.0, 44.0), (900, 1000, 10.0, None)):
            r = terminal_reward(*args)
            assert r.total == r.r_steps + r.r_coverage + r.r_switching

    def test_bad_limit_rejected(self):
        with pytest.raises(ValueError):
            terminal_reward(10, 0, 50.0, None)


class TestDecisionReward:
    def test_identical_snapshots_zero(self):
        assert decision_reward((100, 12.5), (100, 12.5), 1000) == 0.0

    def test_hand_evaluated_interval(self):
        assert decision_reward((0, 0.0), (50, 5.0), 1000) == pytest.approx(-1.0)

    def test_switch_bonus_added_once(self):
        base = decision_reward((0, 0.0), (50, 5.0), 1000)
        with_bonus = decision_reward((0, 0.0), (50, 5.0), 1000, switch_bonus=10.0)
        assert with_bonus == pytest.approx(base + 10.0)

    def test_intervals_telescope_to_terminal_total(self):
        # Chained interval rewards plus the offset equal the terminal
        # score, whatever the intermediate snapshots are.
        limit = 1024
        snaps = [(0, 0.0), (50, 4.0), (100, 9.5), (150, 12.0), (400, 30.0)]
        switch_cov = 30.0
        rewards = [
            decision_reward(a, b, limit) for a, b in zip(snaps, snaps[1:])
        ]
        rewards[-1] += 10.0  # switch fell in the last interval
        total = terminal_reward(400, limit, 30.0, switch_cov).total
        assert sum(rewards) + POTENTIAL_OFFSET == pytest.approx(total, abs=1e-9)


class TestDumpFormat:
    def test_round_trip_exact(self):
        q = QTable(rng_seed=3)
        rng = np.random.default_rng(1)
        q.values = rng.normal(size=(N_STATES, N_ACTIONS)).tolist()
        text = dump_qtable_values(q.values)
        assert [[float(v) for v in line.split()] for line in text.splitlines()] == q.values

    def test_dump_shape(self):
        lines = dump_qtable_values(QTable(rng_seed=0).values).splitlines()
        assert len(lines) == 50
        assert all(len(line.split()) == 5 for line in lines)

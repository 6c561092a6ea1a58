import pytest
from hypothesis import given, settings, strategies as st

from mazeswitch.rng import INCREMENT, MASK64, SplitMix64
from conftest import seed_with_output


def test_matches_published_reference_vectors():
    # First outputs for seed 0, from the original splitmix64.c.
    g = SplitMix64(0)
    assert g.next_u64() == 0xE220A8397B1DCDAF
    assert g.next_u64() == 0x6E789E6AA1B965F4
    assert g.next_u64() == 0x06C45D188009454F


def test_same_seed_same_stream():
    a = SplitMix64(123456789)
    b = SplitMix64(123456789)
    assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]


def test_random_unit_interval():
    g = SplitMix64(42)
    values = [g.random() for _ in range(1000)]
    assert all(0.0 <= v < 1.0 for v in values)


def test_randbelow_range_and_rejection():
    g = SplitMix64(7)
    for bound in (1, 2, 5, 17):
        assert all(0 <= g.randbelow(bound) < bound for _ in range(200))
    with pytest.raises(ValueError):
        g.randbelow(0)


# First 20 outputs of ``randbelow(bound)`` on SplitMix64(20261018), one
# fresh stream per bound. The carver's inline draws must equal bounds 1-4
# (``conftest.reference_walls`` carves with ``randbelow``), the Q-learner
# draws bound 5, and the last bound is one above 2**32.
RANDBELOW_PINS = {
    1: [0] * 20,
    2: [1, 1, 1, 0, 1, 1, 1, 0, 0, 1, 1, 1, 0, 0, 1, 1, 0, 1, 0, 0],
    3: [1, 1, 0, 0, 1, 1, 0, 2, 2, 2, 1, 2, 1, 2, 0, 2, 2, 2, 0, 0],
    4: [3, 3, 1, 2, 3, 1, 3, 2, 2, 3, 3, 1, 0, 0, 3, 1, 2, 1, 0, 0],
    5: [1, 2, 4, 1, 4, 3, 2, 3, 3, 3, 2, 3, 4, 3, 4, 3, 4, 2, 2, 0],
    (1 << 40) + 3: [
        910640165829, 310027934811, 842613020395, 929327442783, 350329343352,
        476878469753, 978167477460, 212808818220, 73710787337, 623127967027,
        836213198281, 1029040907661, 404697431637, 220152349959, 942141860089,
        247578192731, 1047929323706, 721853937080, 80477522746, 31072996142,
    ],
}


@pytest.mark.parametrize("bound", sorted(RANDBELOW_PINS))
def test_randbelow_stream_pinned(bound):
    g = SplitMix64(20261018)
    assert [g.randbelow(bound) for _ in range(20)] == RANDBELOW_PINS[bound]
    # No draw here was rejected, so each one took exactly one step, bound 1 too.
    ref = SplitMix64(20261018)
    for _ in range(20):
        ref.next_u64()
    assert g.state == ref.state


def test_randbelow_rejects_the_draw_above_its_limit():
    # 2**64 - 1 is the one output randbelow(3) rejects; it draws again.
    seed = seed_with_output(MASK64)
    ref = SplitMix64(seed)
    assert ref.next_u64() == MASK64
    second = ref.next_u64()
    g = SplitMix64(seed)
    assert g.randbelow(3) == second % 3
    assert g.state == ref.state
    assert SplitMix64(seed).randbelow(2) == 1  # bound 2 never rejects


def assert_block_is_the_next_outputs(seed, count):
    g, ref = SplitMix64(seed), SplitMix64(seed)
    assert list(g.block(count)) == [ref.next_u64() for _ in range(count)]
    assert g.state == ref.state


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(-(2**63), 2**64 - 1), count=st.integers(0, 600))
def test_a_block_is_the_next_outputs(seed, count):
    assert_block_is_the_next_outputs(seed, count)


@pytest.mark.parametrize(
    "seed, count",
    [
        (20261018, 65535),  # the tree of a 512 maze
        ((-3 * INCREMENT) & MASK64, 8),  # the third state wraps to 0
        ((MASK64 - 5 * INCREMENT) & MASK64, 8),  # the fifth state is 2**64 - 1
        (seed_with_output(MASK64, 4), 8),  # the fourth output has every bit set
        (7, 1024),  # one whole chunk of lanes
        (seed_with_output(MASK64, 1025), 1025),  # the second chunk's one output has every bit set
    ],
)
def test_a_block_is_the_next_outputs_at_the_edges(seed, count):
    assert_block_is_the_next_outputs(seed, count)

import pytest

from mazeswitch.rng import SplitMix64


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


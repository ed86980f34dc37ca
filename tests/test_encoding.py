import numpy as np
import pytest

from reca.encoding import (
    EncoderConfig,
    MappingSet,
    combine_overwrite,
    encode_initial,
    generate_mappings,
)


def mapping_from(maps, input_width, diffuse_length):
    return MappingSet(input_width, diffuse_length, np.asarray(maps))


def test_generate_full_width_map_is_permutation():
    ms = generate_mappings(EncoderConfig(4, 4, 1, seed=0))
    assert sorted(ms.maps[0].tolist()) == [0, 1, 2, 3]


def test_generate_shapes_and_bounds():
    ms = generate_mappings(EncoderConfig(4, 10, 2, seed=5))
    assert ms.maps.shape == (2, 4)
    for row in ms.maps:
        assert len(set(row.tolist())) == 4
        assert row.min() >= 0 and row.max() < 10


def test_generate_is_deterministic_in_seed():
    cfg = EncoderConfig(4, 40, 8, seed=123)
    assert np.array_equal(generate_mappings(cfg).maps, generate_mappings(cfg).maps)
    other = generate_mappings(EncoderConfig(4, 40, 8, seed=124))
    assert not np.array_equal(generate_mappings(cfg).maps, other.maps)


def test_generate_rejects_too_small_segment():
    with pytest.raises(ValueError):
        EncoderConfig(5, 4, 1, seed=0)


def test_encode_initial_all_zero_input():
    ms = generate_mappings(EncoderConfig(4, 10, 2, seed=1))
    state = encode_initial(np.zeros(4, dtype=np.uint8), ms)
    assert state.shape == (20,)
    assert not state.any()


def test_encode_initial_places_bits_at_mapped_positions():
    ms = mapping_from([[2, 0]], input_width=2, diffuse_length=4)
    state = encode_initial(np.array([1, 0], dtype=np.uint8), ms)
    assert state.tolist() == [0, 0, 1, 0]


def test_encode_initial_segment_budget():
    ms = generate_mappings(EncoderConfig(4, 10, 2, seed=9))
    state = encode_initial(np.ones(4, dtype=np.uint8), ms)
    assert state.shape == (20,)
    assert state[:10].sum() == 4 and state[10:].sum() == 4


def test_encode_initial_rejects_length_mismatch():
    ms = generate_mappings(EncoderConfig(4, 10, 2, seed=1))
    with pytest.raises(ValueError):
        encode_initial(np.zeros(3, dtype=np.uint8), ms)


def test_combine_overwrite_writes_zeros_too():
    ms = mapping_from([[2, 0]], input_width=2, diffuse_length=4)
    prev = np.array([1, 1, 1, 1], dtype=np.uint8)
    out = combine_overwrite(np.array([0, 0], dtype=np.uint8), prev, ms)
    assert out.tolist() == [0, 1, 0, 1]
    assert prev.tolist() == [1, 1, 1, 1]


def test_combine_overwrite_on_zeros_equals_encode_initial():
    rng = np.random.default_rng(11)
    ms = generate_mappings(EncoderConfig(4, 15, 3, seed=2))
    for _ in range(20):
        x = rng.integers(0, 2, size=4, dtype=np.uint8)
        zeros = np.zeros(ms.state_width, dtype=np.uint8)
        assert np.array_equal(combine_overwrite(x, zeros, ms), encode_initial(x, ms))


def test_combine_overwrite_idempotent_when_bits_match():
    rng = np.random.default_rng(12)
    ms = generate_mappings(EncoderConfig(4, 12, 2, seed=3))
    prev = rng.integers(0, 2, size=ms.state_width, dtype=np.uint8)
    x = np.array([prev[ms.maps[0][j]] for j in range(4)], dtype=np.uint8)
    # only valid if the two segments agree on the mapped bits; force that
    prev[ms.state_width // 2 + ms.maps[1]] = x
    assert np.array_equal(combine_overwrite(x, prev, ms), prev)


def test_combine_overwrite_never_touches_off_map_cells():
    rng = np.random.default_rng(13)
    ms = generate_mappings(EncoderConfig(4, 20, 2, seed=4))
    off_map = np.setdiff1d(np.arange(ms.state_width), ms.positions)
    for _ in range(10):
        prev = rng.integers(0, 2, size=ms.state_width, dtype=np.uint8)
        x = rng.integers(0, 2, size=4, dtype=np.uint8)
        out = combine_overwrite(x, prev, ms)
        assert np.array_equal(out[off_map], prev[off_map])


def test_combine_overwrite_rejects_width_mismatch():
    ms = generate_mappings(EncoderConfig(4, 10, 2, seed=1))
    with pytest.raises(ValueError):
        combine_overwrite(
            np.zeros(4, dtype=np.uint8), np.zeros(19, dtype=np.uint8), ms
        )


def test_encode_initial_is_injective():
    ms = generate_mappings(EncoderConfig(4, 10, 2, seed=6))
    seen = set()
    for value in range(16):
        x = np.array([(value >> j) & 1 for j in range(4)], dtype=np.uint8)
        seen.add(encode_initial(x, ms).tobytes())
    assert len(seen) == 16


def test_mapping_set_rejects_duplicate_positions():
    with pytest.raises(ValueError):
        mapping_from([[1, 1]], input_width=2, diffuse_length=4)

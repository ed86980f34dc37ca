import numpy as np
import pytest

from reca.encoding import MappingSet, generate_mappings
from reca.reservoir import ReservoirParams, run_sequences
from reference import naive_step


def layer(input_width, diffuse_length, mapping_count, seed):
    """A ReservoirParams of fixed rule and I; only what the mappings read varies."""
    return ReservoirParams(90, 1, mapping_count, diffuse_length, input_width, seed)


def mapping_from(maps, input_width, diffuse_length):
    return MappingSet(input_width, diffuse_length, np.asarray(maps))


def run(inputs, ms, rule=204):
    """``run_sequences`` features at I = 1, shape (n, T, R*L_d).

    Rule 204 copies every cell, so its features are the automaton just after
    each input was written: what the overwrite encoder made of it.
    """
    p = ReservoirParams(rule, 1, ms.count, ms.diffuse_length, ms.input_width, seed=0)
    features, _ = run_sequences(np.asarray(inputs, dtype=np.uint8), p, ms)
    return features


def test_generate_full_width_map_is_permutation():
    ms = generate_mappings(layer(4, 4, 1, seed=0))
    assert sorted(ms.maps[0].tolist()) == [0, 1, 2, 3]


def test_generate_shapes_and_bounds():
    ms = generate_mappings(layer(4, 10, 2, seed=5))
    assert ms.maps.shape == (2, 4)
    for row in ms.maps:
        assert len(set(row.tolist())) == 4
        assert row.min() >= 0 and row.max() < 10


def test_generate_is_deterministic_in_seed():
    params = layer(4, 40, 8, seed=123)
    assert np.array_equal(generate_mappings(params).maps, generate_mappings(params).maps)
    other = generate_mappings(layer(4, 40, 8, seed=124))
    assert not np.array_equal(generate_mappings(params).maps, other.maps)
    # the rule and I describe the reservoir, not the mappings
    same = generate_mappings(ReservoirParams(30, 3, 8, 40, 4, 123))
    assert np.array_equal(generate_mappings(params).maps, same.maps)


def test_generate_rejects_too_small_segment():
    with pytest.raises(ValueError):
        layer(5, 4, 1, seed=0)


def test_encode_initial_all_zero_input():
    ms = generate_mappings(layer(4, 10, 2, seed=1))
    state = run(np.zeros((1, 1, 4)), ms)[0, 0]
    assert state.shape == (20,)
    assert not state.any()


def test_encode_initial_places_bits_at_mapped_positions():
    ms = mapping_from([[2, 0]], input_width=2, diffuse_length=4)
    state = run([[[1, 0]]], ms)[0, 0]
    assert state.tolist() == [0, 0, 1, 0]


def test_encode_initial_segment_budget():
    ms = generate_mappings(layer(4, 10, 2, seed=9))
    state = run(np.ones((1, 1, 4)), ms)[0, 0]
    assert state.shape == (20,)
    assert state[:10].sum() == 4 and state[10:].sum() == 4


def test_combine_overwrite_writes_zeros_too():
    ms = mapping_from([[2, 0]], input_width=2, diffuse_length=4)
    states = run([[[1, 1], [0, 0]]], ms)[0]
    assert states[0].tolist() == [1, 0, 1, 0]
    assert states[1].tolist() == [0, 0, 0, 0]


def test_combine_overwrite_on_zeros_equals_encode_initial():
    # An input written after an all-zero step lands on a blank automaton,
    # exactly like the first input of a sequence.
    rng = np.random.default_rng(11)
    ms = generate_mappings(layer(4, 15, 3, seed=2))
    x = rng.integers(0, 2, size=(20, 1, 4), dtype=np.uint8)
    after_zeros = run(np.concatenate([np.zeros_like(x), x], axis=1), ms)[:, 1]
    assert np.array_equal(after_zeros, run(x, ms)[:, 0])


def test_combine_overwrite_idempotent_when_bits_match():
    # One mapping, so the written bits can all agree with the previous state.
    rng = np.random.default_rng(12)
    ms = generate_mappings(layer(4, 12, 1, seed=3))
    x = rng.integers(0, 2, size=(1, 1, 4), dtype=np.uint8)
    prev = run(x, ms, rule=30)[0, 0]
    same = prev[ms.positions][None, None]
    both = run(np.concatenate([x, same], axis=1), ms, rule=30)[0]
    assert np.array_equal(both[1], naive_step(prev, 30))


def test_combine_overwrite_never_touches_off_map_cells():
    rng = np.random.default_rng(13)
    ms = generate_mappings(layer(4, 20, 2, seed=4))
    x = rng.integers(0, 2, size=(10, 2, 4), dtype=np.uint8)
    features = run(x, ms, rule=30)
    for prev, x1, out in zip(features[:, 0], x[:, 1], features[:, 1]):
        written = prev.copy()
        written[ms.positions] = np.tile(x1, ms.count)
        assert np.array_equal(out, naive_step(written, 30))


def test_encode_initial_rejects_length_mismatch():
    ms = generate_mappings(layer(4, 10, 2, seed=1))
    with pytest.raises(ValueError):
        run(np.zeros((1, 1, 3)), ms)


def test_encode_initial_is_injective():
    ms = generate_mappings(layer(4, 10, 2, seed=6))
    x = np.array(
        [[[(value >> j) & 1 for j in range(4)]] for value in range(16)], dtype=np.uint8
    )
    assert len({state.tobytes() for state in run(x, ms)[:, 0]}) == 16


def test_mapping_set_rejects_duplicate_positions():
    with pytest.raises(ValueError):
        mapping_from([[1, 1]], input_width=2, diffuse_length=4)

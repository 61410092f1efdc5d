import numpy as np
import pytest

from expander_cs import rng
from expander_cs.graphs import BipartiteGraph, graph_to_json_text, random_left_regular
from expander_cs.rng import (Stream, _fisher_yates, _words, derive_seed, gaussians, mix64,
                             uniforms)


def test_scalar_vector_streams_agree():
    s = Stream(12345)
    words = [s.next_u64() for _ in range(100)]
    assert len(set(words)) == 100
    s2 = Stream(12345)
    u_scalar = [s2.uniform() for _ in range(100)]
    u_vector = uniforms(12345, 100)
    assert u_scalar == list(u_vector)
    assert all(0.0 <= u < 1.0 for u in u_scalar)


def test_gaussians_match_scalar_pairs():
    s = Stream(9)
    scalar = []
    for _ in range(10):
        a, b = s.gaussian_pair()
        scalar.extend([a, b])
    vector = gaussians(9, 20)
    # numpy's log1p, cos and sin follow its CPU dispatch: its AVX-512 loops
    # differ from math's by an ulp on some arguments, so equal to rounding
    np.testing.assert_allclose(vector, scalar, atol=1e-12)


def test_rows_of_many_seeds_are_the_one_seed_draws():
    seeds = [0, 1, 2**63, 2**64 - 1, *(derive_seed(6, k) for k in range(9))]
    for count in (0, 1, 2, 3, 8, 1535, 1536):
        for draw in (lambda s, c: _words(s, 0, c), uniforms, gaussians):
            rows = draw(seeds, count)
            assert rows.shape == (len(seeds), count)
            for row, seed in zip(rows, seeds):
                assert row.tobytes() == draw(seed, count).tobytes()
    assert gaussians([], 5).shape == (0, 5)


def test_determinism_and_seed_sensitivity():
    assert list(gaussians(4, 50)) == list(gaussians(4, 50))
    assert list(gaussians(4, 50)) != list(gaussians(5, 50))


def test_derive_seed_spreads():
    seeds = {derive_seed(0, i) for i in range(1000)}
    seeds |= {derive_seed(1, i) for i in range(1000)}
    assert len(seeds) == 2000


def test_mix64_reference_values():
    # splitmix64 with seed 0: first outputs of the reference sequence
    golden = 0x9E3779B97F4A7C15
    assert mix64(golden) == 0xE220A8397B1DCDAF
    assert mix64(2 * golden % 2**64) == 0x6E789E6AA1B965F4
    s = Stream(0)
    assert s.next_u64() == 0xE220A8397B1DCDAF
    assert s.next_u64() == 0x6E789E6AA1B965F4


def test_sample_without_replacement():
    s = Stream(3)
    for _ in range(200):
        k = 1 + s.below(6)
        out = s.sample_without_replacement(8, k)
        assert out == sorted(set(out)) and len(out) == k
        assert all(0 <= v < 8 for v in out)


def test_gaussian_moments():
    g = gaussians(123, 200000)
    assert abs(g.mean()) < 0.01
    assert abs(g.std() - 1.0) < 0.01


def _reference_sample(stream, n, k):
    """The list-based partial Fisher-Yates the dict-based draw replaced."""
    arr = list(range(n))
    for i in range(k):
        j = i + stream.below(n - i)
        arr[i], arr[j] = arr[j], arr[i]
    return sorted(arr[:k])


def test_draws_match_list_based_fisher_yates():
    pick = Stream(77)
    for _ in range(300):
        n = 1 + pick.below(40)
        k = pick.below(n + 1)
        count = 1 + pick.below(5)
        seed = pick.next_u64()
        ref, one, bulk = Stream(seed), Stream(seed), Stream(seed)
        want = [_reference_sample(ref, n, k) for _ in range(count)]
        assert [one.sample_without_replacement(n, k) for _ in range(count)] == want
        drawn = bulk.samples_without_replacement(n, k, count)
        assert drawn.dtype == np.int64 and drawn.shape == (count, k)
        assert drawn.tolist() == want
        # the stream goes on from the same position
        assert one.next_u64() == bulk.next_u64() == ref.next_u64()


def _one_block_draws(seed, n, k, count):
    """Every word of a bulk draw taken in one call, as the draw did before
    it worked a block at a time."""
    words = _words(seed, 0, count * k).tolist()
    return [_fisher_yates(n, words[c * k:(c + 1) * k]) for c in range(count)]


@pytest.mark.parametrize("p,d,n,seed", [(4096, 8, 1536, 3), (9000, 16, 64, 5),
                                        (20000, 4, 30, 11), (37, 25, 25, 2)])
def test_random_graph_files_are_those_of_one_block_draws(p, d, n, seed):
    # 4096*8 words fit one block; 9000*16 and 20000*4 words take three and
    # two blocks (the last one partial); a draw of all 25 of 25 is a permutation
    g = random_left_regular(p, d, n, seed)
    ref = BipartiteGraph(p, n, d, _one_block_draws(seed, n, d, p), g.provenance)
    assert graph_to_json_text(g) == graph_to_json_text(ref)


def test_bulk_draws_take_their_words_a_block_at_a_time(monkeypatch):
    calls = []
    words = rng._words
    monkeypatch.setattr(rng, "_words", lambda *a: calls.append(a[2]) or words(*a))
    for k, count in ((16, 9000), (7, 20000), (1 << 17, 2), (0, 5)):
        drawn = Stream(9).samples_without_replacement(max(k, 1) * 2, k, count)
        want = _one_block_draws(9, max(k, 1) * 2, k, count)
        assert drawn.tolist() == want
        # whole draws per block: at most _DRAW_WORDS words, or one draw of k > _DRAW_WORDS
        assert sum(calls) == k * count
        assert max(calls) <= max(rng._DRAW_WORDS, k)
        assert all(c % k == 0 for c in calls) if k else True
        calls.clear()

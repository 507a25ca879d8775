"""Sign-matching attention: representative signs, Hamming scoring, top-K
selection, the causal two-phase pick, and attention equivalences."""

import numpy as np
import pytest

from slimformer import (OpCounter, PlanError, Tensor, full_attention,
                        sign_distances, sign_match_attention, signmatch)
from slimformer.signmatch import causal_select, select_topk

from reference import ref_representative_sign, ref_score_keys


def representative(q):
    """The majority sign sign_distances compares keys with, read back from
    its distances: against the all-negative key, a key positive only in
    column j is one closer iff column j's sign is +1."""
    d = q.shape[-1]
    keys = -np.ones((d + 1, d))
    keys[np.arange(1, d + 1), np.arange(d)] = 1.0
    dist = sign_distances(q, keys)
    return np.where(dist[..., 1:] < dist[..., :1], 1, -1)


def queries(val):
    """One query row whose majority sign is the ±1 vector ``val``."""
    return np.asarray(val, dtype=float)[..., None, :]


class TestRepresentativeSign:
    def test_majority_count_example(self):
        q = np.array([[1.0, -2.0], [3.0, -4.0], [-5.0, 6.0]])
        np.testing.assert_array_equal(representative(q), [1, -1])

    def test_all_zero_counts_as_negative(self):
        np.testing.assert_array_equal(representative(np.zeros((4, 3))), [-1, -1, -1])

    def test_exact_tie_resolves_positive(self):
        q = np.array([[1.0], [-1.0]])
        np.testing.assert_array_equal(representative(q), [1])


class TestScoreKeys:
    def test_matching_pattern_distance_zero(self):
        key = np.array([[2.0, -0.5, 3.0]])
        np.testing.assert_array_equal(sign_distances(queries([1, -1, 1]), key), [0])

    def test_opposite_pattern_distance_d(self):
        key = np.array([[-2.0, 0.5, -3.0]])
        np.testing.assert_array_equal(sign_distances(queries([1, -1, 1]), key), [3])

    def test_zero_entries_count_as_negative_sign(self):
        key = np.array([[0.0, 0.0]])
        np.testing.assert_array_equal(sign_distances(queries([1, -1]), key), [1])

    def test_matches_brute_force_counter(self, rng):
        q, k = rng.normal(size=(10, 6)), rng.normal(size=(10, 6))
        got = sign_distances(q, k)
        val = [1 if sum(q[:, j] > 0) >= 5 else -1 for j in range(6)]
        for i in range(10):
            mism = sum(1 for j in range(6)
                       if (1 if k[i, j] > 0 else -1) != val[j])
            assert got[i] == mism

    def test_batched_matches_rows(self, rng):
        q = rng.normal(size=(2, 3, 10, 6))
        k = rng.normal(size=(2, 3, 10, 6))
        val = representative(q)
        dist = sign_distances(q, k)
        assert val.shape == (2, 3, 6) and dist.shape == (2, 3, 10)
        for b in range(2):
            for h in range(3):
                np.testing.assert_array_equal(val[b, h], representative(q[b, h]))
                np.testing.assert_array_equal(dist[b, h], sign_distances(q[b, h], k[b, h]))


class TestDistances:
    """sign_distances, the integer kernel sign_match_attention scores keys
    with, equals the ±1 reference ref_score_keys(k, ref_representative_sign(q))
    and counts each query entry once and each key entry once per stage."""

    @staticmethod
    def heads(gen, lead, n, d):
        """Entries in {-1, 0, 1} (zeros have sign -1; few values, many
        ties), laid out as split_heads views when there are leading axes."""
        x = gen.integers(-1, 2, size=lead[:1] + (n,) + lead[1:] + (d,)).astype(float)
        return np.moveaxis(x, len(lead[:1]), -2)

    @pytest.mark.parametrize("lead", [(), (2, 3)], ids=["rank2", "rank4"])
    def test_matches_reference_with_counts(self, lead):
        gen = np.random.default_rng(11)
        for d in (1, 2, 3, 5, 7, 8, 9, 12, 15, 16, 17, 24, 33):
            for n, n_k in ((1, 1), (2, 5), (4, 3), (7, 9), (16, 15), (255, 4), (256, 3)):
                q, k = self.heads(gen, lead, n, d), self.heads(gen, lead, n_k, d)
                q[..., 0] = np.arange(n) % 2 == 0         # half positive (+1 at even n)
                q[..., -1] = 1.0                          # all n positive
                k[..., -1] = 0.0                          # sign(0) = -1
                counter = OpCounter()
                dist = sign_distances(q, k, counter)
                ref = ref_score_keys(k, ref_representative_sign(q))
                assert dist.dtype == ref.dtype and np.array_equal(dist, ref), (d, n, n_k)
                assert counter == OpCounter(rep_sign=q.size, sign_extract=k.size,
                                            hamming=k.size)


class TestSelectTopK:
    def test_basic(self):
        assert select_topk([2, 0, 1], 2) == [1, 2]

    def test_stable_tie_break(self):
        assert select_topk([0, 0, 1], 1) == [0]

    def test_k_equals_n_sorted_by_distance_then_index(self):
        assert select_topk([3, 1, 2], 3) == [1, 2, 0]

    def test_k_too_large(self):
        with pytest.raises(PlanError):
            select_topk([1, 2], 3)

    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_batched_matches_rows(self, rng, k):
        dist = rng.integers(0, 3, size=(5, 8))
        dist[0] = 2  # all-equal distances
        got = select_topk(dist, k)
        assert got == [select_topk(row, k) for row in dist]


class TestCausalSelect:
    def test_equal_distances_two_phase(self):
        sel = causal_select(np.zeros(8, dtype=int), 8, 4)
        assert sorted(sel) == [0, 1, 2, 3]
        assert sel[0] in (0, 1)  # first pick comes from the earliest quarter

    def test_late_favoring_distances_still_pick_early(self):
        dist = np.array([9, 9, 0, 0, 0, 0, 0, 0])
        sel = causal_select(dist, 8, 4)
        assert any(i < 2 for i in sel)

    def test_k_too_large(self):
        with pytest.raises(PlanError):
            causal_select(np.zeros(4, dtype=int), 4, 5)

    @pytest.mark.parametrize("k", [1, 3, 5, 8])
    def test_batched_matches_rows(self, rng, k):
        dist = rng.integers(0, 3, size=(5, 8))
        dist[0] = 2  # all-equal distances
        got = causal_select(dist, 8, k)
        assert got == [causal_select(row, 8, k) for row in dist]
        assert all(len(set(row)) == k for row in got)

    def test_non_causal_dispatch_uses_plain_topk(self, rng):
        q = Tensor(rng.normal(size=(8, 4)))
        k = Tensor(rng.normal(size=(8, 4)))
        v = Tensor(rng.normal(size=(8, 4)))
        dist = sign_distances(q.data, k.data)
        expected_rows = sorted(select_topk(dist, 3))
        out = sign_match_attention(q, k, v, 3, causal=False)
        gathered = full_attention(q, Tensor(k.data[expected_rows]),
                                  Tensor(v.data[expected_rows]))
        np.testing.assert_array_equal(out.data, gathered.data)


class TestSignMatchAttention:
    def test_k_equals_n_exact_full_attention(self, rng):
        q = Tensor(rng.normal(size=(6, 4)))
        k = Tensor(rng.normal(size=(6, 4)))
        v = Tensor(rng.normal(size=(6, 4)))
        out = sign_match_attention(q, k, v, 6)
        full = full_attention(q, k, v)
        np.testing.assert_array_equal(out.data, full.data)

    def test_single_position(self, rng):
        q = Tensor(rng.normal(size=(1, 4)))
        k = Tensor(rng.normal(size=(1, 4)))
        v = Tensor(rng.normal(size=(1, 4)))
        out = sign_match_attention(q, k, v, 1)
        np.testing.assert_allclose(out.data, v.data, atol=1e-12)

    def test_gather_then_full_attention_oracle(self, rng):
        q = Tensor(rng.normal(size=(8, 4)))
        k = Tensor(rng.normal(size=(8, 4)))
        v = Tensor(rng.normal(size=(8, 4)))
        out = sign_match_attention(q, k, v, 4)
        rows = sorted(select_topk(sign_distances(q.data, k.data), 4))
        oracle = full_attention(q, Tensor(k.data[rows]), Tensor(v.data[rows]))
        np.testing.assert_array_equal(out.data, oracle.data)

    def test_causal_star_starvation_zeroes_rows(self, rng):
        # keys crafted so selection prefers late positions; early queries starve
        d = 4
        q = Tensor(np.ones((8, d)))
        kdata = -np.ones((8, d))
        kdata[6:] = 1.0  # only the last two keys match the representative sign
        k = Tensor(kdata)
        v = Tensor(rng.normal(size=(8, d)))
        counter = OpCounter()
        out = sign_match_attention(q, k, v, 2, causal=True, counter=counter)
        sel = sorted(causal_select(sign_distances(q.data, kdata), 8, 2))
        starved = [i for i in range(8) if all(j > i for j in sel)]
        assert counter.starved_queries == len(starved)
        for i in starved:
            np.testing.assert_array_equal(out.data[i], 0.0)

    def test_causal_k4_no_starvation_after_first_early_pick(self, rng):
        for trial in range(10):
            gen = np.random.default_rng(trial)
            q = Tensor(gen.normal(size=(16, 4)))
            k = Tensor(gen.normal(size=(16, 4)))
            sel = causal_select(sign_distances(q.data, k.data), 16, 4)
            first_early = min(i for i in sel if i < 4)
            assert all(any(j <= i for j in sel) for i in range(first_early, 16))

    def test_batched_matches_per_sequence(self, rng):
        q = rng.normal(size=(3, 8, 4))
        k = rng.normal(size=(3, 8, 4))
        v = rng.normal(size=(3, 8, 4))
        batched = sign_match_attention(Tensor(q), Tensor(k), Tensor(v), 4)
        for b in range(3):
            single = sign_match_attention(Tensor(q[b]), Tensor(k[b]), Tensor(v[b]), 4)
            np.testing.assert_allclose(batched.data[b], single.data, atol=1e-12)


class TestGatheredKeys:
    """The keys sign_match_attention gathers are, in ascending order, the
    ones select_topk / causal_select rank first, ties included."""

    @staticmethod
    def gathered(monkeypatch, dist, k, causal):
        seen = []
        gather = signmatch.gather_rows

        def recording(a, rows):
            seen.append(rows)
            return gather(a, rows)

        monkeypatch.setattr(signmatch, "sign_distances", lambda *args: dist)
        monkeypatch.setattr(signmatch, "gather_rows", recording)
        qkv = [Tensor(np.zeros(dist.shape + (2,))) for _ in range(3)]
        sign_match_attention(*qkv, k, causal)
        assert len(seen) == 2 and seen[0] is seen[1]  # keys and values: one index
        return seen[0][-1]

    @pytest.mark.parametrize("causal", [False, True], ids=["topk", "causal"])
    def test_every_n_and_k_matches_ranked_lists(self, monkeypatch, causal):
        gen = np.random.default_rng(5)
        for n in range(1, 41):
            dist = gen.integers(0, 4, size=(3, n))  # few values: many ties
            dist[0] = 1                             # all tied
            for k in range(1, n + 1):
                ranked = causal_select(dist, n, k) if causal else select_topk(dist, k)
                np.testing.assert_array_equal(self.gathered(monkeypatch, dist, k, causal),
                                              np.sort(ranked, axis=-1))


class TestLinearContract:
    def test_score_stage_count_formula(self):
        counter = OpCounter()
        gen = np.random.default_rng(0)
        q = Tensor(gen.normal(size=(8, 4)))
        k = Tensor(gen.normal(size=(8, 4)))
        v = Tensor(gen.normal(size=(8, 4)))
        sign_match_attention(q, k, v, 2, counter=counter)
        assert counter.score_stage == 8 * 4 + 8 * 4  # sign extraction + Hamming

    def test_count_doubles_with_n(self):
        def count(n):
            counter = OpCounter()
            gen = np.random.default_rng(1)
            q = Tensor(gen.normal(size=(n, 4)))
            k = Tensor(gen.normal(size=(n, 4)))
            v = Tensor(gen.normal(size=(n, 4)))
            sign_match_attention(q, k, v, 2, counter=counter)
            return counter.total

        assert count(16) == 2 * count(8)
        assert count(32) == 2 * count(16)

    def test_batched_counts_equal_sum_of_rows(self, rng):
        q = rng.normal(size=(4, 8, 4))
        k = rng.normal(size=(4, 8, 4))
        batched, rows = OpCounter(), OpCounter()
        sign_distances(q, k, batched)
        for b in range(4):
            sign_distances(q[b], k[b], rows)
        assert (batched.rep_sign, batched.sign_extract, batched.hamming) == \
               (rows.rep_sign, rows.sign_extract, rows.hamming) == (128, 128, 128)

        v = rng.normal(size=(4, 8, 4))
        batched, rows = OpCounter(), OpCounter()
        sign_match_attention(Tensor(q), Tensor(k), Tensor(v), 2, True, counter=batched)
        for b in range(4):
            sign_match_attention(Tensor(q[b]), Tensor(k[b]), Tensor(v[b]), 2, True,
                                 counter=rows)
        assert batched == rows


class TestPermutationCovariance:
    def test_k_equals_n_permutation_invariant_output(self, rng):
        q = Tensor(rng.normal(size=(6, 4)))
        kdata = rng.normal(size=(6, 4))
        vdata = rng.normal(size=(6, 4))
        perm = np.array([3, 1, 5, 0, 2, 4])
        out = sign_match_attention(q, Tensor(kdata), Tensor(vdata), 6)
        out_p = sign_match_attention(q, Tensor(kdata[perm]), Tensor(vdata[perm]), 6)
        np.testing.assert_allclose(out.data, out_p.data, atol=1e-12)

    def test_selection_depends_only_on_contents(self):
        # distinct distances by construction, so index tie-breaks never fire
        q = queries(np.ones(5))
        kdata = np.ones((5, 5))
        for i in range(5):
            kdata[i, :i] = -1.0  # key i has Hamming distance exactly i
        perm = np.array([4, 0, 3, 1, 2])
        sel = select_topk(sign_distances(q, kdata), 3)
        sel_p = select_topk(sign_distances(q, kdata[perm]), 3)
        assert sorted(perm[sel_p]) == sorted(sel) == [0, 1, 2]

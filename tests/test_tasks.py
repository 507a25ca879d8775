"""Synthetic task generation."""

import numpy as np
import pytest

from slimformer import ConfigError, TaskSpec, generate_task


class TestMajority:
    def test_label_is_modal_token(self):
        data = generate_task(TaskSpec("majority_classification", vocab_size=4,
                                      context_len=8, train_size=40, seed=1))
        for ds in (data.train, data.val):
            for row, label in zip(ds.tokens, ds.labels):
                assert label == np.bincount(row, minlength=4).argmax()

    def test_tokens_within_vocab(self):
        data = generate_task(TaskSpec("majority_classification", vocab_size=3,
                                      context_len=8, train_size=30, seed=2))
        assert data.train.tokens.max() < 3 and data.train.tokens.min() >= 0


class TestParity:
    def test_label_is_count_parity(self):
        data = generate_task(TaskSpec("parity_classification", vocab_size=4,
                                      context_len=8, train_size=40, seed=3))
        for row, label in zip(data.train.tokens, data.train.labels):
            assert label == (row == 1).sum() % 2


class TestCopy:
    def test_labels_are_shifted_inputs(self):
        spec = TaskSpec("copy", vocab_size=5, context_len=9, train_size=30, seed=4)
        data = generate_task(spec)
        m = 4
        for row, labels in zip(data.train.tokens, data.train.labels):
            assert row[m] == 4  # separator token
            np.testing.assert_array_equal(row[:m], row[m + 1:])
            np.testing.assert_array_equal(labels[m:8], row[m + 1:9])
            assert (labels[:m] == -1).all() and labels[8] == -1

    def test_even_context_rejected(self):
        with pytest.raises(ConfigError, match="odd context_len"):
            TaskSpec("copy", vocab_size=5, context_len=8, train_size=30)


class TestToyLm:
    def test_labels_are_next_tokens(self):
        data = generate_task(TaskSpec("toy_lm", vocab_size=6, context_len=8,
                                      train_size=30, seed=5))
        for row, labels in zip(data.train.tokens, data.train.labels):
            np.testing.assert_array_equal(labels[:7], row[1:])
            assert labels[7] == -1
            stride = (row[1] - row[0]) % 6
            assert stride in (1, 2)
            np.testing.assert_array_equal((row[:-1] + stride) % 6, row[1:])


class TestDeterminismAndSplit:
    def test_same_seed_identical_bytes(self):
        spec = TaskSpec("majority_classification", vocab_size=4, context_len=8,
                        train_size=50, seed=7)
        a, b = generate_task(spec), generate_task(spec)
        assert a.train.tokens.tobytes() == b.train.tokens.tobytes()
        assert a.val.labels.tobytes() == b.val.labels.tobytes()

    def test_split_fraction(self):
        data = generate_task(TaskSpec("majority_classification", vocab_size=4,
                                      context_len=8, train_size=100,
                                      val_fraction=0.10, seed=8))
        assert len(data.val) == 10 and len(data.train) == 90

    def test_too_small_to_split(self):
        with pytest.raises(ConfigError, match="too small"):
            generate_task(TaskSpec("majority_classification", vocab_size=4,
                                   context_len=8, train_size=1, seed=0))

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="kind must be one of"):
            TaskSpec("nonsense", vocab_size=4, context_len=8, train_size=10)

"""Routing-contract agreement suite: vectorized routing vs per-key ``stable_hash``.

The vectorized router (``shard_ids_for_keys``) hashes whole key arrays;
its fallback for keys with no array encoding hashes key by key through
``stable_hash``. The module contract is that both paths agree *key for
key* for every representable key type — if they ever drift, one key routes
to different shards depending on which batch carried it, and per-key
affinity silently breaks. This suite pins the contract over every key family the canonical
encoding spec names, over power-of-two and non-power-of-two shard counts,
plus regression tests for the trailing-NUL truncation bug (fixed-width
``S``/``U`` dtypes cannot represent trailing NULs, so the vectorized path
must never coerce keys through them lossily).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.service import SamplerService, shard_ids_for_keys, stable_hash
from repro.core import RTBS

SHARD_COUNTS = [1, 2, 8, 64, 3, 7, 12]  # powers of two and not


def reference(keys, num_shards):
    return [stable_hash(key) % num_shards for key in keys]


def assert_agreement(keys, num_shards):
    vectorized = shard_ids_for_keys(keys, num_shards)
    assert vectorized.dtype == np.int64
    assert vectorized.tolist() == reference(keys, num_shards)


@pytest.mark.parametrize("num_shards", SHARD_COUNTS)
class TestAgreement:
    def test_int64_extremes(self, num_shards):
        values = [0, 1, -1, 2**62, -(2**62), 2**63 - 1, -(2**63), 31337]
        assert_agreement(np.array(values, dtype=np.int64), num_shards)

    def test_uint64_above_2_63(self, num_shards):
        values = [0, 1, 2**63, 2**63 + 1, 2**64 - 1, 12345]
        arr = np.array(values, dtype=np.uint64)
        vectorized = shard_ids_for_keys(arr, num_shards)
        assert vectorized.tolist() == [
            stable_hash(int(value)) % num_shards for value in values
        ]

    def test_narrow_integer_dtypes_widen_consistently(self, num_shards):
        for dtype in (np.int8, np.uint8, np.int16, np.int32, np.uint32):
            arr = np.arange(-100 if np.issubdtype(dtype, np.signedinteger) else 0, 100).astype(dtype)
            vectorized = shard_ids_for_keys(arr, num_shards)
            assert vectorized.tolist() == [
                stable_hash(int(value)) % num_shards for value in arr
            ]

    def test_floats_nan_and_signed_zero(self, num_shards):
        values = [0.0, -0.0, 1.5, -1.5, np.inf, -np.inf, np.nan, 1e-308, 3.14]
        arr = np.array(values, dtype=np.float64)
        assert_agreement(arr, num_shards)
        if num_shards > 1:
            # +0.0 and -0.0 are different IEEE-754 bit patterns, hence
            # different keys; over many shard counts they must eventually
            # separate (they do for every count in this suite > 4).
            assert stable_hash(0.0) != stable_hash(-0.0)

    def test_bool_keys(self, num_shards):
        arr = np.array([True, False, True])
        vectorized = shard_ids_for_keys(arr, num_shards)
        assert vectorized.tolist() == [
            stable_hash(bool(value)) % num_shards for value in arr
        ]

    def test_mixed_width_unicode(self, num_shards):
        keys = ["a", "bb", "ccc", "", "héllo wörld", "日本語のキー", "a" * 100, "bb"]
        assert_agreement(keys, num_shards)
        assert_agreement(np.asarray(keys), num_shards)
        assert_agreement(np.array(keys, dtype=object), num_shards)

    def test_bytes_with_embedded_nuls(self, num_shards):
        keys = [b"a\x00b", b"ab", b"\x00leading", b"plain", b"a\x00\x00b"]
        assert_agreement(keys, num_shards)
        assert_agreement(np.array(keys, dtype=object), num_shards)

    def test_bytes_with_trailing_nuls(self, num_shards):
        # The regression case: S-dtype coercion would truncate the trailing
        # NULs and merge distinct keys; lists and object arrays must route
        # exactly as stable_hash does on the originals.
        keys = [b"user\x00", b"user", b"user\x00\x00", b"x\x00"]
        assert_agreement(keys, num_shards)
        assert_agreement(np.array(keys, dtype=object), num_shards)

    def test_strings_with_trailing_nuls(self, num_shards):
        keys = ["user\x00", "user", "tail\x00\x00", "embedded\x00mid"]
        assert_agreement(keys, num_shards)
        assert_agreement(np.array(keys, dtype=object), num_shards)

    def test_tuple_keys(self, num_shards):
        keys = [("user", 1), ("user", 2), (1.5, b"x"), (), (("nested",), 3)]
        assert_agreement(keys, num_shards)

    def test_large_mixed_sample_statistical_spread(self, num_shards):
        rng = np.random.default_rng(7)
        keys = rng.integers(-(2**40), 2**40, 5000)
        assert_agreement(keys, num_shards)


class TestFixedWidthArrayCaveat:
    """Caller-constructed S/U arrays: truncation happened before routing."""

    def test_s_dtype_arrays_route_on_element_values_consistently(self):
        # np.asarray destroyed the trailing-NUL distinction at construction
        # time (both elements store identically); the contract that *can*
        # hold — and must — is vectorized == per-element over the array.
        arr = np.asarray([b"user\x00", b"user"])
        assert arr.dtype.kind == "S"
        vectorized = shard_ids_for_keys(arr, 8)
        per_element = [stable_hash(bytes(key)) % 8 for key in arr]
        assert vectorized.tolist() == per_element
        # The lossless spellings of the same keys keep them distinct.
        as_list = shard_ids_for_keys([b"user\x00", b"user"], 8)
        assert as_list[0] != as_list[1] or stable_hash(b"user\x00") % 8 == stable_hash(b"user") % 8

    def test_exact_issue_repro(self):
        # Vectorized routing of the original keys must match stable_hash on
        # the original keys — shard_ids_for_keys may not funnel them through
        # a truncating S-dtype coercion.
        keys = [b"user\x00", b"user"]
        assert shard_ids_for_keys(keys, 8).tolist() == [
            stable_hash(b"user\x00") % 8,
            stable_hash(b"user") % 8,
        ]
        assert stable_hash(b"user\x00") != stable_hash(b"user")


def _rtbs_factory(rng):
    return RTBS(n=50, lambda_=0.1, rng=rng)


class TestIngestKeysMaterialization:
    """Regression: sized-less per-batch keys iterables must not crash ``len``."""

    def test_generator_keys_entries_are_materialized(self):
        batches = [np.arange(100), np.arange(100, 200)]
        key_lists = [[f"user-{value % 7}" for value in batch] for batch in batches]
        explicit = SamplerService(_rtbs_factory, num_shards=4, rng=3)
        explicit.ingest(batches, keys=[list(keys) for keys in key_lists])
        lazy = SamplerService(_rtbs_factory, num_shards=4, rng=3)
        lazy.ingest(batches, keys=[iter(keys) for keys in key_lists])
        assert lazy.sample_items() == explicit.sample_items()
        assert lazy.shard_samples() == explicit.shard_samples()

    def test_generator_keys_work_for_single_batch_ingest(self):
        service = SamplerService(_rtbs_factory, num_shards=4, rng=3)
        service.ingest_batch(np.arange(50), keys=(value % 5 for value in range(50)))
        assert len(service) == 50

    def test_non_iterable_keys_entry_raises_a_clear_error(self):
        service = SamplerService(_rtbs_factory, num_shards=4, rng=3)
        with pytest.raises(ValueError, match="keys must be a sequence"):
            service.ingest_batch(np.arange(10), keys=42)
        # The failed batch never advanced the clock.
        assert service.batches_seen == 0

    def test_mismatched_generator_length_still_names_the_problem(self):
        service = SamplerService(_rtbs_factory, num_shards=4, rng=3)
        with pytest.raises(ValueError, match="one routing key per item"):
            service.ingest_batch(np.arange(10), keys=iter([1, 2, 3]))

"""Seeded pure-read violations: reads that drain, create shards, or draw."""


class LeakyService:
    @property
    def active_shards(self):
        self._sync()
        return sorted(self._shards)

    def stats(self):
        self._executor.transport.drain()
        return {"batches_seen": self._batches_seen}

    def sample_items(self):
        sampler = self._get_or_create_shard(0)
        return sampler.sample_items()

    def shard_samples(self):
        self._sync()
        return {}

    def snapshot(self):
        jitter = self._rng.random()
        return {"jitter": jitter}

"""ExecutionPolicy: construction-time validation and merging.

The policy is the single way callers configure parallelism for
:func:`repro.core.batch.detect_many`, :func:`~repro.core.batch.embed_many`,
the file-batch functions and the experiment runner.
"""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.exec.policy import ExecutionPolicy


class TestValidation:
    def test_defaults_are_local_and_unbounded(self):
        policy = ExecutionPolicy()
        assert policy.scheduler == "local"
        assert policy.workers is None
        assert policy.addresses == ()

    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_must_be_positive(self, workers):
        with pytest.raises(ConfigurationError, match="workers"):
            ExecutionPolicy(workers=workers)

    def test_chunk_size_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="chunk_size"):
            ExecutionPolicy(chunk_size=0)

    def test_scheduler_name_must_be_non_empty(self):
        with pytest.raises(ConfigurationError, match="scheduler"):
            ExecutionPolicy(scheduler="")

    def test_local_scheduler_rejects_addresses(self):
        with pytest.raises(ConfigurationError, match="no worker addresses"):
            ExecutionPolicy(addresses=("unix:/tmp/w.sock",))

    def test_remote_scheduler_requires_addresses(self):
        with pytest.raises(ConfigurationError, match="at least one"):
            ExecutionPolicy(scheduler="remote")

    def test_addresses_are_stored_as_a_tuple(self):
        policy = ExecutionPolicy(
            scheduler="remote", addresses=["unix:/a.sock", "host:9"]
        )
        assert policy.addresses == ("unix:/a.sock", "host:9")

    def test_merged_revalidates(self):
        policy = ExecutionPolicy(workers=2)
        assert policy.merged(workers=4).workers == 4
        with pytest.raises(ConfigurationError):
            policy.merged(workers=0)

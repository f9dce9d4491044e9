"""CacheOracle: counter identities, corrupted state, injected faults."""

from __future__ import annotations

import pytest

from repro.cache.classify import ClassifyingCache
from repro.cache.config import CacheConfig
from repro.cache.hierarchy import CacheHierarchy
from repro.resilience.errors import VerificationError, classify_error
from repro.resilience.faults import FAULTS
from repro.verify.cache_oracle import CacheOracle


@pytest.fixture(autouse=True)
def clean_faults():
    FAULTS.reset()
    yield
    FAULTS.reset()


def make_hierarchy(tiny_cache) -> CacheHierarchy:
    l2 = CacheConfig("L2", size=512, line_size=32, associativity=2)
    return CacheHierarchy(tiny_cache, tiny_cache, l2)


class TestCleanRuns:
    def test_clean_hierarchy_passes_every_batch(self, tiny_cache):
        hierarchy = make_hierarchy(tiny_cache)
        oracle = CacheOracle(machine="m", program="p")
        hierarchy.attach(oracle)
        hierarchy.access_data(list(range(64)))
        hierarchy.access_data(list(range(64)))  # revisit: hits + capacity
        oracle.final_check(hierarchy)
        assert oracle.batches_checked == 2

    def test_structural_check_runs_on_schedule(self, tiny_cache):
        hierarchy = make_hierarchy(tiny_cache)
        oracle = CacheOracle(structural_every=2)
        hierarchy.attach(oracle)
        for line in range(4):
            hierarchy.access_data([line])
        assert oracle.batches_checked == 4


class TestCorruption:
    """Corrupted cache state must surface as a VerificationError."""

    def test_overfilled_set_detected(self, tiny_cache):
        cache = ClassifyingCache(tiny_cache)
        for line in range(8):
            cache.access(line)
        # Corrupt the LRU state: overfill set 0 beyond the associativity,
        # the kind of damage a buggy eviction path would cause.  Lines
        # that are multiples of num_sets map to set 0.
        for extra in (25, 26, 27):
            cache.real._sets[0][extra * tiny_cache.num_sets] = None
        oracle = CacheOracle()
        with pytest.raises(VerificationError) as excinfo:
            oracle.check_structure("L1D", cache)
        assert excinfo.value.invariant == "set-associative LRU structure"
        assert excinfo.value.level == "L1D"

    def test_misplaced_line_detected(self, tiny_cache):
        cache = ClassifyingCache(tiny_cache)
        cache.access(0)
        # Move the resident line into a set it does not map to.
        del cache.real._sets[0][0]
        cache.real._sets[1][0] = None
        with pytest.raises(VerificationError) as excinfo:
            CacheOracle().check_structure("L1D", cache)
        assert "maps to set" in str(excinfo.value)

    def test_corrupted_counter_breaks_classification_identity(self, tiny_cache):
        cache = ClassifyingCache(tiny_cache)
        for line in range(8):
            cache.access(line)
        cache.stats.conflict += 1  # bookkeeping corruption
        with pytest.raises(VerificationError) as excinfo:
            CacheOracle().check_level("L1D", cache)
        assert (
            excinfo.value.invariant
            == "compulsory + capacity + conflict == misses"
        )

    def test_counter_rollback_breaks_monotonicity(self, tiny_cache):
        cache = ClassifyingCache(tiny_cache)
        oracle = CacheOracle()
        for line in range(8):
            cache.access(line)
        oracle.check_level("L1D", cache)
        # Roll the level back self-consistently (every identity still
        # holds at the new values) — only the cross-batch monotonicity
        # check can catch a silent rewind like this.
        cache.stats.accesses -= 3
        cache.stats.misses -= 3
        cache.stats.compulsory -= 3
        for _ in range(3):
            cache._seen.pop()
        with pytest.raises(VerificationError) as excinfo:
            oracle.check_level("L1D", cache)
        assert excinfo.value.invariant == "monotonic counters"

    def test_inclusion_check_is_opt_in(self, tiny_cache):
        cache = ClassifyingCache(tiny_cache)
        for line in range(8):
            cache.access(line)
        cache.shadow_misses = cache.stats.misses + 5
        CacheOracle().check_level("L1D", cache)  # off by default: passes
        with pytest.raises(VerificationError) as excinfo:
            CacheOracle(check_inclusion=True).check_level("L1D", cache)
        assert excinfo.value.invariant == "LRU stack inclusion"

    def test_shadow_undercount_detected(self, tiny_cache):
        cache = ClassifyingCache(tiny_cache)
        for line in range(8):
            cache.access(line)
        cache.shadow_misses = cache.stats.compulsory - 1
        with pytest.raises(VerificationError) as excinfo:
            CacheOracle().check_level("L1D", cache)
        assert excinfo.value.invariant == "shadow misses >= compulsory + capacity"


class TestInjectedFault:
    def test_armed_oracle_fault_becomes_verification_error(self, tiny_cache):
        hierarchy = make_hierarchy(tiny_cache)
        hierarchy.attach(CacheOracle(machine="m", program="p"))
        FAULTS.arm("verify.oracle", mode="fail")
        with pytest.raises(VerificationError) as excinfo:
            hierarchy.access_data([0])
        error = excinfo.value
        assert error.invariant == "injected"
        assert error.site == "verify.oracle"
        assert classify_error(error) == "verification"

    def test_fault_consumed_after_firing(self, tiny_cache):
        hierarchy = make_hierarchy(tiny_cache)
        hierarchy.attach(CacheOracle())
        FAULTS.arm("verify.oracle", mode="fail", times=1)
        with pytest.raises(VerificationError):
            hierarchy.access_data([0])
        hierarchy.access_data([2])  # disarmed: clean batch passes

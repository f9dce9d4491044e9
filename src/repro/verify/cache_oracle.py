"""Cache invariant oracle: checks the simulator's own bookkeeping.

The paper's miss classification (Section 4, following Hill & Smith) is a
set of checkable identities.  :class:`CacheOracle` re-checks them after
every simulated access batch, per level:

* ``hits + misses == accesses`` (hits are derived, so equivalently
  ``0 <= misses <= accesses``), and every counter is non-negative;
* ``compulsory + capacity + conflict == misses`` — the classification
  partitions the misses exactly;
* ``compulsory == |lines ever touched|`` — a line's first reference, and
  only its first, is compulsory;
* counters are monotonically non-decreasing across batches;
* optionally, LRU stack inclusion: the fully-associative shadow of equal
  capacity misses at most ``misses + inclusion_slack`` times.  This is
  **not** a theorem for set-associative caches — a line can survive in
  its own quiet set while more than ``capacity`` distinct lines churn
  the rest of the cache, so the shadow can miss where the real cache
  hits.  The paper's own workloads exhibit it: the scaled R8000's
  direct-mapped L1 shows ~0.2% anti-inclusion on the threaded matmul
  (1,461 shadow misses vs 1,458 real misses at n=16).  The check is
  therefore **off by default** (``check_inclusion=False``) and exists
  for traces engineered to respect inclusion, e.g. single-set tests.

Structural checks (set occupancy <= associativity, lines stored in the
set they map to, shadow occupancy <= capacity) are O(cache size), so they
run on :meth:`final_check` and every ``structural_every`` batches rather
than on each batch.

A violation raises :class:`~repro.resilience.errors.VerificationError`
naming the cache level and the broken invariant, so a corrupted LRU
update surfaces as a structured error instead of a silently wrong table.
"""

from __future__ import annotations

from repro.cache.classify import ClassifyingCache
from repro.obs.telemetry import DISABLED
from repro.resilience.errors import FaultInjected, VerificationError
from repro.resilience.faults import fault_point


class CacheOracle:
    """Re-checks cache-counter invariants after every access batch.

    A hierarchy sidecar (``hierarchy.attach``): :meth:`on_batch` runs
    after every batch, :meth:`finish` once at the end of the run."""

    #: Observability handle; the simulator overwrites this with the run's
    #: telemetry so violations land in the event log as well as raising.
    obs = DISABLED

    def __init__(
        self,
        machine: str | None = None,
        program: str | None = None,
        check_inclusion: bool = False,
        inclusion_slack: int = 0,
        structural_every: int = 256,
    ) -> None:
        self.machine = machine
        self.program = program
        self.check_inclusion = check_inclusion
        self.inclusion_slack = inclusion_slack
        self.structural_every = structural_every
        self.batches_checked = 0
        self._previous: dict[str, dict[str, int]] = {}

    # ------------------------------------------------------------------
    def _fail(self, invariant: str, message: str, level: str) -> None:
        if self.obs.enabled:
            # Emit before raising so the violation is in the event log
            # even if the error aborts the run before any export hook.
            self.obs.instant(
                "verify.violation",
                oracle="cache",
                invariant=invariant,
                level=level,
                message=message,
            )
            self.obs.metrics.counter("verify.violations").inc()
        raise VerificationError(
            message,
            machine=self.machine,
            program=self.program,
            oracle="cache",
            invariant=invariant,
            level=level,
        )

    def check_level(self, name: str, cache: ClassifyingCache) -> None:
        """Check every per-level counter invariant for one cache level."""
        stats = cache.stats
        counters = stats.as_dict()
        for key, value in counters.items():
            if value < 0:
                self._fail(
                    "non-negative counters",
                    f"{name} {key} went negative: {value}",
                    name,
                )
        if stats.misses > stats.accesses:
            self._fail(
                "hits + misses == accesses",
                f"{name} misses ({stats.misses}) exceed accesses "
                f"({stats.accesses})",
                name,
            )
        classified = stats.compulsory + stats.capacity + stats.conflict
        if classified != stats.misses:
            self._fail(
                "compulsory + capacity + conflict == misses",
                f"{name} classification sums to {classified}, "
                f"but misses == {stats.misses}",
                name,
            )
        if stats.compulsory != cache.lines_ever_touched:
            self._fail(
                "compulsory == lines ever touched",
                f"{name} counted {stats.compulsory} compulsory misses over "
                f"{cache.lines_ever_touched} distinct lines",
                name,
            )
        if cache.shadow_misses < stats.compulsory + stats.capacity:
            self._fail(
                "shadow misses >= compulsory + capacity",
                f"{name} shadow missed {cache.shadow_misses} times, fewer "
                f"than its classified compulsory + capacity "
                f"({stats.compulsory} + {stats.capacity})",
                name,
            )
        if (
            self.check_inclusion
            and cache.shadow_misses > stats.misses + self.inclusion_slack
        ):
            self._fail(
                "LRU stack inclusion",
                f"fully-associative shadow of {name} missed "
                f"{cache.shadow_misses} times but the set-associative "
                f"cache of equal capacity missed only {stats.misses}",
                name,
            )
        previous = self._previous.get(name)
        if previous is not None:
            for key, value in counters.items():
                if value < previous[key]:
                    self._fail(
                        "monotonic counters",
                        f"{name} {key} decreased from {previous[key]} "
                        f"to {value}",
                        name,
                    )
        self._previous[name] = counters

    def check_structure(self, name: str, cache: ClassifyingCache) -> None:
        """O(cache size) structural audit of the LRU state itself."""
        for violation in cache.real.structural_violations():
            self._fail("set-associative LRU structure", f"{name}: {violation}", name)
        for violation in cache.shadow.structural_violations():
            self._fail("shadow LRU structure", f"{name} shadow: {violation}", name)

    # ------------------------------------------------------------------
    def on_batch(self, hierarchy, lines, counts, writes, l1_misses, l2_misses) -> None:
        """Called by the hierarchy after every simulated access batch."""
        self._fault_point()
        self.batches_checked += 1
        if self.obs.enabled:
            self.obs.metrics.counter("verify.cache_audits").inc()
        self.check_level("L1D", hierarchy.l1d)
        self.check_level("L2", hierarchy.l2)
        if self.structural_every and (
            self.batches_checked % self.structural_every == 0
        ):
            self.check_structure("L1D", hierarchy.l1d)
            self.check_structure("L2", hierarchy.l2)

    def final_check(self, hierarchy) -> None:
        """Full audit at end of run: counters plus structure."""
        self.check_level("L1D", hierarchy.l1d)
        self.check_level("L2", hierarchy.l2)
        self.check_structure("L1D", hierarchy.l1d)
        self.check_structure("L2", hierarchy.l2)

    def finish(self, hierarchy) -> None:
        """The end-of-run sidecar hook: :meth:`final_check` inside a
        ``verify.final_check`` span."""
        with self.obs.bus.span("verify.final_check"):
            self.final_check(hierarchy)

    def _fault_point(self) -> None:
        """The ``verify.oracle`` injection site.

        An armed ``fail``/``fail-hard`` fault is converted into a
        :class:`VerificationError`, modelling an oracle violation, so
        tests can prove the violation-reporting path end to end without
        corrupting real cache state.
        """
        try:
            fault_point(
                "verify.oracle", machine=self.machine, program=self.program
            )
        except FaultInjected as exc:
            raise VerificationError(
                f"injected oracle violation: {exc.message}",
                machine=self.machine,
                program=self.program,
                oracle="cache",
                invariant="injected",
                site="verify.oracle",
            ) from exc

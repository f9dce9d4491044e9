"""The chunked vectorized L1D replay against the dict kernel and the spec.

Random streams are stored as trace containers and replayed through
``Simulator.replay`` with a tiny chunk size, twice: on the vectorized
direct-mapped step, and with the dict kernel forced.  Both must leave
the same statistics, compulsory-miss history and read/write counts as
the naive reference model (``repro.cache.reference``) fed the same
batches.  The machine is scaled down to a 4-line direct-mapped L1D over
a 16-line 4-way L2, so a handful of lines produce every miss class at
both levels.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.cache.reference import ReferenceClassifyingCache
from repro.machine.presets import r8000
from repro.machine.spec import MachineSpec
from repro.sim import engine
from repro.sim.engine import Simulator
from repro.trace import replay as replay_module
from repro.trace.store import (
    StoredTrace,
    TraceCapture,
    cache_geometry,
    dedup_mask,
    shadow_hit_bits,
)

MACHINE = r8000(1024, l1_scale=128)
#: A line number past the int32 range: streams mixing it with small
#: lines span more than 2**31 line numbers.
WIDE = 1 << 40


def stored_trace(batches) -> StoredTrace:
    """An in-memory trace container holding ``batches`` verbatim, shadow
    bits computed exactly as :meth:`TraceStore.put` computes them."""
    capture = TraceCapture()
    for lines, counts, writes in batches:
        capture.on_access(lines, counts, writes)
    arrays = capture.arrays()
    arrays["shadow_hits"] = shadow_hit_bits(
        arrays["lines"][dedup_mask(arrays["lines"])], MACHINE.l1d.num_lines
    )
    header = {
        "machine": MACHINE.name,
        "program": "stream",
        **cache_geometry(MACHINE),
        "code_footprint": 0,
        "app_instructions": 0,
        "thread_instructions": 0,
        "forks": 0,
        "dispatches": 0,
        "sched": None,
    }
    return StoredTrace(path=Path("stream.rtr"), header=header, **arrays)


def replay(stored, chunk_lines: int, vectorized: bool):
    """Replay ``stored``; return the result and the hierarchy it used."""
    built = []
    build = MachineSpec.build_hierarchy

    def keep(self, *args):
        built.append(build(self, *args))
        return built[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "REPLAY_CHUNK_LINES", chunk_lines)
        patch.setattr(MachineSpec, "build_hierarchy", keep)
        if not vectorized:
            patch.setattr(replay_module, "fast_replay_supported", lambda *_: False)
        result = Simulator(MACHINE, verify=False).replay(stored)
    return result, built[0]


def reference(batches):
    l1 = ReferenceClassifyingCache(MACHINE.l1d)
    l2 = ReferenceClassifyingCache(MACHINE.l2)
    shift = MACHINE.l2.line_bits - MACHINE.l1d.line_bits
    for lines, counts, _ in batches:
        l2.process([line >> shift for line in l1.process(lines, counts)])
    return l1, l2


def check_replays(batches, chunk_lines: int) -> None:
    stored = stored_trace(batches)
    ref_l1, ref_l2 = reference(batches)
    writes = sum(w for _, _, w in batches)
    refs = sum(sum(counts) for _, counts, _ in batches)
    for vectorized in (True, False):
        result, hierarchy = replay(stored, chunk_lines, vectorized)
        # An empty stream has no shadow bits and takes the dict kernel.
        fast = vectorized and len(stored.lines) > 0
        assert result.replay_path == ("vectorized" if fast else "dict")
        assert hierarchy.l1d.stats == ref_l1.stats
        assert hierarchy.l2.stats == ref_l2.stats
        assert hierarchy.l1d._seen == ref_l1._seen
        assert hierarchy.l2._seen == ref_l2._seen
        assert result.stats.data_reads == refs - writes
        assert result.stats.data_writes == writes


#: With one-line chunks every non-empty batch is its own chunk.
EDGES = [
    ([0, 4], [1, 2], 1),  # set 0 holds 4 at the cut
    ([4, 4, 1], [3, 1, 1], 2),  # a duplicate run split across the cut
    ([], [], 0),  # an empty batch folds into the next chunk
    ([4], [2], 0),  # single entry: hits on set 0's carried line
    ([4], [1], 1),  # repeats the predecessor: empty after dedup
    ([WIDE + 2, 2], [1, 1], 0),  # first touches, span wider than int32
    ([0, 8, 12, 16, 0, 1], [1, 1, 1, 1, 1, 1], 3),  # capacity misses
    ([WIDE + 2, 6, 2], [1, 1, 1], 0),  # conflict misses
]

LINES = st.sampled_from(list(range(12)) + [WIDE + k for k in range(4)])


@st.composite
def batch(draw):
    entries = draw(st.lists(st.tuples(LINES, st.integers(1, 3)), max_size=6))
    lines = [line for line, _ in entries]
    counts = [count for _, count in entries]
    return lines, counts, draw(st.integers(0, sum(counts)))


@settings(max_examples=200, deadline=None)
@given(batches=st.lists(batch(), max_size=12), chunk_lines=st.integers(1, 6))
@example(batches=EDGES, chunk_lines=1)
@example(batches=EDGES, chunk_lines=3)
@example(batches=[([], [], 0), ([], [], 0)], chunk_lines=1)
def test_chunked_vectorized_replay_matches_dict_kernel_and_reference(
    batches, chunk_lines
):
    check_replays(batches, chunk_lines)


def test_edge_stream_exercises_every_miss_class():
    # The hand-built stream must really reach the cases it names.
    ref_l1, _ = reference(EDGES)
    assert ref_l1.stats.compulsory and ref_l1.stats.capacity and ref_l1.stats.conflict
    lines = stored_trace(EDGES).lines
    assert lines.max() - lines.min() > 2**31


@pytest.mark.parametrize("resize", [lambda bits: bits[:-1], lambda bits: np.append(bits, 0)])
def test_shadow_annotation_must_match_the_stream(resize):
    stored = stored_trace(EDGES)
    stored.shadow_hits = resize(stored.shadow_hits)
    with pytest.raises(ValueError, match="shadow annotation"):
        replay(stored, 3, vectorized=True)

"""Per-byte read counts folded from an access log, and whether an arena's
bytes are all zero, used only as test oracles.

An instrumented MemorySystem keeps one record of every access: its access
log. The read-once evidence (each device-written RX writeback byte is read
once per harvest) is that log's successful reads of one region, folded into
a count per byte with a difference array and one prefix sum, so the fold
costs O(records + size) and the packet path pays nothing for it.
"""

from itertools import accumulate


def read_counts(mem, region: int) -> list[int]:
    """How many successful reads covered each byte of region."""
    size = mem.arena(region).size
    diff = [0] * (size + 1)
    for rec in mem.access_log:
        if rec.ok and rec.region == region and rec.op == "read":
            diff[rec.offset] += 1
            diff[rec.offset + rec.length] -= 1
    return list(accumulate(diff[:size]))


def is_zero(arena) -> bool:
    """Whether every byte of arena is zero."""
    return arena.data[:] == bytes(arena.size)

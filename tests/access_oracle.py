"""The access recorder, the oracles folded from its records, and whether an
arena's bytes are all zero, used only by tests.

MemorySystem keeps no record of the accesses it allows. While recording()
is active, every MemorySystem built gets an access log: one AccessRecord
per access through read_at, write_at, unpack_at or pack_at (read and write
go through these), and one with ok=False per device access that _refuse
turns down. The recorder wraps those methods on the class from outside, so
it also checks the containment rule independently of them: every device
access they allow must name a region registered at that moment.

The read-once evidence (each device-written RX writeback byte is read once
per harvest) is a log's successful reads of one region, folded into a count
per byte with a difference array and one prefix sum, so the fold costs
O(records + size) and the packet path pays nothing for it.
"""

from contextlib import contextmanager
from itertools import accumulate
from typing import NamedTuple
from weakref import WeakKeyDictionary

from splitio.errors import DeviceAccessDenied
from splitio.mem import MemorySystem, Side

_DEVICE = Side.DEVICE


class AccessRecord(NamedTuple):
    """One recorded byte access. ok=False records a refused device attempt;
    refused attempts never touch memory."""

    side: Side
    op: str  # "read" or "write"
    region: int
    offset: int
    length: int
    ok: bool


class UnregisteredDeviceAccess(AssertionError):
    """An accessor let the device touch a region that is not registered."""


# the log of each MemorySystem built while recording, weakly keyed so a
# finished test's machines are freed
_logs: "WeakKeyDictionary[MemorySystem, list[AccessRecord]]" = WeakKeyDictionary()


def access_log(mem) -> list[AccessRecord]:
    """Every access to mem in order, from its construction on; mem must have
    been built while recording."""
    return _logs[mem]


def _allowed(mem, side, op, region, offset, length):
    if side is _DEVICE and region not in mem.registered:
        raise UnregisteredDeviceAccess(
            f"device {op} of {length} B at region {region}+{offset} allowed though not registered"
        )
    _logs[mem].append(AccessRecord(side, op, region, offset, length, True))


@contextmanager
def recording():
    """Log, and check, every access to each MemorySystem built in the block."""
    init = MemorySystem.__init__
    read_at, write_at = MemorySystem.read_at, MemorySystem.write_at
    unpack_at, pack_at = MemorySystem.unpack_at, MemorySystem.pack_at
    refuse = MemorySystem._refuse

    def recorded_init(mem):
        init(mem)
        _logs[mem] = []

    def recorded_read_at(mem, region, offset, length, side):
        data = read_at(mem, region, offset, length, side)
        _allowed(mem, side, "read", region, offset, length)
        return data

    def recorded_write_at(mem, region, offset, data, side):
        write_at(mem, region, offset, data, side)
        _allowed(mem, side, "write", region, offset, len(data))

    def recorded_unpack_at(mem, region, offset, fmt, side):
        values = unpack_at(mem, region, offset, fmt, side)
        _allowed(mem, side, "read", region, offset, fmt.size)
        return values

    def recorded_pack_at(mem, region, offset, fmt, side, *values):
        pack_at(mem, region, offset, fmt, side, *values)
        _allowed(mem, side, "write", region, offset, fmt.size)

    def recorded_refuse(mem, region, offset, length, op):
        try:
            refuse(mem, region, offset, length, op)
        except DeviceAccessDenied:
            # the accessor's other checks passed: a device access it denied
            _logs[mem].append(AccessRecord(_DEVICE, op, region, offset, length, False))
            raise

    patches = {
        "__init__": recorded_init,
        "read_at": recorded_read_at,
        "write_at": recorded_write_at,
        "unpack_at": recorded_unpack_at,
        "pack_at": recorded_pack_at,
        "_refuse": recorded_refuse,
    }
    saved = {name: vars(MemorySystem)[name] for name in patches}
    for name, method in patches.items():
        setattr(MemorySystem, name, method)
    try:
        yield
    finally:
        for name, method in saved.items():
            setattr(MemorySystem, name, method)


def read_counts(mem, region: int) -> list[int]:
    """How many successful reads covered each byte of region."""
    size = mem.arena(region).size
    diff = [0] * (size + 1)
    for rec in access_log(mem):
        if rec.ok and rec.region == region and rec.op == "read":
            diff[rec.offset] += 1
            diff[rec.offset + rec.length] -= 1
    return list(accumulate(diff[:size]))


def device_touched_regions(mem) -> set[int]:
    """Regions the device read or wrote (refused attempts excluded)."""
    return {rec.region for rec in access_log(mem) if rec.side is _DEVICE and rec.ok}


def is_zero(arena) -> bool:
    """Whether every byte of arena is zero."""
    return arena.data[:] == bytes(arena.size)

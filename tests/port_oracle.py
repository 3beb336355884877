"""Who holds each temporary buffer of a port, used only as a test oracle.

A port's temporary buffer is free in its pool, armed (its data room is
posted on the RX ring, which records every posted room) or in flight (the
port maps its TX slot to it until the completion is reclaimed).
"""


def check_temporaries(port) -> None:
    """The RX ring's posted slots are exactly those from tail to head, each
    holding a whole room of the temporary pool, and every temporary buffer is
    free, armed or in flight: one of the three, once."""
    ring, temporary = port.rx_ring, port.pools.temporary
    mask = ring.capacity - 1
    posted = {slot: room for slot, room in enumerate(ring._posted_rx) if room is not None}
    assert set(posted) == {(ring.tail + k) & mask for k in range(ring.occupancy())}
    armed = []
    for room in posted.values():
        index, rest = divmod(room.offset - temporary.data_base, temporary.data_room)
        assert room.region == temporary.data_region and rest == 0
        assert room.length == temporary.data_room and 0 <= index < temporary.count
        armed.append(index)
    in_flight = [buf.index for buf in port._tx_slot_temp.values()]
    assert sorted(armed + in_flight + temporary._free) == list(range(temporary.count))

"""Who holds each shared buffer of a port, used only as a test oracle.

A port's shared buffer is free in its pool, armed (its data room is posted
on the RX ring, which records every posted room) or in flight (the port
maps its TX slot to it until the completion is reclaimed).
"""


def check_shared_buffers(port) -> None:
    """The RX ring's posted slots are exactly those from tail to head, each
    holding a whole room of the shared pool, and every shared buffer is
    free, armed or in flight: one of the three, once."""
    ring, shared = port.rx_ring, port.pools.shared
    mask = ring.capacity - 1
    posted = {slot: room for slot, room in enumerate(ring._posted_rx) if room is not None}
    assert set(posted) == {(ring.tail + k) & mask for k in range(ring.occupancy())}
    armed = []
    for room in posted.values():
        index, rest = divmod(room.offset - shared.data_base, shared.data_room)
        assert room.region == shared.region and rest == 0
        assert room.length == shared.data_room and 0 <= index < shared.count
        armed.append(index)
    in_flight = [buf.index for buf in port._tx_staged.values()]
    assert sorted(armed + in_flight + shared._free) == list(range(shared.count))

"""Port-level model: a hypothesis state machine over one endpoint pair.

It interleaves the application's calls (alloc, tx_burst, rx_burst, free,
reclaim) with device steps and with the device misbehaving (forged RX
writebacks, replayed TX completions), and checks after every step that
buffers are conserved, that no RX slot is owned twice and that the device
never reached private memory. The access recorder checks every memory
access for the machine's lifetime. It extends the ring-level models in
test_ring.py to the whole port.
"""

from contextlib import ExitStack

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from access_oracle import device_touched_regions, recording
from port_oracle import check_shared_buffers
from splitio.devsim import LinkModel, LoopbackSystem
from splitio.errors import PoolExhausted
from splitio.pools import PoolConfig
from splitio.ring import RX_STATUS_ERROR, RX_STATUS_READY

SIDES = st.sampled_from("ab")
RING_CAPACITY = 4


class PortPairMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        # 12 buffers per pool: the 4 armed RX rooms and up to 4 in-flight TX
        # frames never exhaust the shared pool, while the shadow pool can
        # run dry when the application holds on to what it receives
        # the system is kept: each NIC reaches its peer through a weak proxy
        with ExitStack() as stack:
            stack.enter_context(recording())
            self.system = LoopbackSystem(
                PoolConfig(mbuf_count=12, mbuf_size=256),
                LinkModel(base_latency_ns=500),
                ring_capacity=RING_CAPACITY,
            )
            self._recorder = stack.pop_all()
        self.ends = {"a": self.system.a, "b": self.system.b}
        self.held = {"a": [], "b": []}
        self.now = 0
        self.serial = 0

    def teardown(self):
        self._recorder.close()

    # -- the application ------------------------------------------------------

    @rule(side=SIDES, count=st.integers(1, 3))
    def alloc(self, side, count):
        port = self.ends[side].port
        for _ in range(count):
            if port.pools.shadow.remaining() == 0:
                with pytest.raises(PoolExhausted):
                    port.alloc_tx_buffer()
                return
            buf = port.alloc_tx_buffer()
            buf.write_data(self.serial.to_bytes(4, "little") * 8)
            self.serial += 1
            self.held[side].append(buf)

    @rule(side=SIDES, count=st.integers(0, 5))
    def send(self, side, count):
        held = self.held[side]
        bufs = held[:count]
        accepted = self.ends[side].port.tx_burst(bufs)
        assert 0 <= accepted <= len(bufs)
        del held[:accepted]

    @rule(side=SIDES, max_count=st.integers(1, 8))
    def receive(self, side, max_count):
        got = self.ends[side].port.rx_burst(max_count)
        assert len(got) <= max_count
        self.held[side].extend(got)

    @rule(side=SIDES, pick=st.integers(0, 15))
    def free(self, side, pick):
        held = self.held[side]
        if held:
            self.ends[side].port.free_buffer(held.pop(pick % len(held)))

    @rule(side=SIDES)
    def reclaim(self, side):
        self.ends[side].port.reclaim_tx()

    # -- the device -----------------------------------------------------------

    @rule(dt=st.sampled_from([0, 1000, 2000]))
    def step(self, dt):
        # both devices at one instant, so a frame one sends can land at the
        # other within a step or two
        self.now += dt
        for end in self.ends.values():
            end.nic.step(self.now)

    @rule(
        side=SIDES,
        forge=st.booleans(),
        slot=st.integers(0, 2 * RING_CAPACITY - 1),
        length=st.integers(0, 400),
        error=st.booleans(),
    )
    def misbehave(self, side, forge, slot, length, error):
        """A forged RX writeback (any slot, any length, with or without the
        error bit) or a replayed TX completion; one rule for both keeps them
        from crowding out honest traffic."""
        port = self.ends[side].port
        slot %= RING_CAPACITY
        if forge:
            status = RX_STATUS_READY | (RX_STATUS_ERROR if error else 0)
            port.rx_ring.device_writeback_rx(slot, length=length, status_error=status)
        else:
            port.tx_ring.device_writeback_tx(slot)

    # -- after every step -----------------------------------------------------

    @invariant()
    def buffers_conserved(self):
        for side, end in self.ends.items():
            port, held = end.port, self.held[side]
            shadow, shared = port.pools.shadow, port.pools.shared
            assert len({buf.index for buf in held}) == len(held)
            assert shadow.remaining() + len(held) == shadow.count
            armed, in_flight = port.rx_ring.occupancy(), len(port._tx_staged)
            assert shared.remaining() + armed + in_flight == shared.count

    @invariant()
    def rx_slots_owned_once(self):
        for end in self.ends.values():
            check_shared_buffers(end.port)

    @invariant()
    def no_breach(self):
        for end in self.ends.values():
            mem = end.mem
            assert device_touched_regions(mem) <= mem.registered
            assert not [v for v in end.nic.violations if v["kind"].startswith("private_")]

PortPairMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=50, deadline=None
)
TestPortPair = PortPairMachine.TestCase

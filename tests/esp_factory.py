"""Look-aside ESP for run_adversary's loopback rig, keyed by one seed."""

from splitio.ipsec import OffloadMode, esp_paths, sa_keys


def lookaside_factory(seed):
    """A protect_factory that wires look-aside ESP from the SA key stream of
    seed, and the two keys the breach scan looks for."""

    def factory(system):
        return esp_paths(system.port_a, system.port_b, OffloadMode.LOOKASIDE, seed)

    key_ab, _, key_ba, _ = sa_keys(seed)
    return factory, [key_ab, key_ba]

"""Exception types shared across the package.

Every error raised by the public API derives from SplitioError, and its
message names the violated condition. A subclass exists only where some
caller reacts to it differently from the rest; every other refusal raises
SplitioError itself. The catchers:

* SplitioError: the CLI exits 1; SimNic._execute rejects the action.
* ConfigInvalid: the CLI exits 2 (flags, config file, plan, --out path).
* DeviceAccessDenied: the NIC's ring fetch and its DMA reject the access.
* OutOfBounds: the NIC's DMA rejects the access.
* RingFull: tx_burst frees the buffer it staged.
* PoolExhausted: tx_burst, rx_burst and the echo app's send stop short.
* AuthFail: esp_open counts the frame in auth_fail and refuses it.
"""


class SplitioError(Exception):
    pass


class ConfigInvalid(SplitioError):
    pass


class DeviceAccessDenied(SplitioError):
    """Device-side access to private or unregistered memory."""


class OutOfBounds(SplitioError):
    pass


class RingFull(SplitioError):
    pass


class PoolExhausted(SplitioError):
    pass


class AuthFail(SplitioError):
    """A received ESP frame failed verification: bad structure or bad tag."""

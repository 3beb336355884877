"""Exception types shared across the package.

Every error raised by the public API derives from SplitioError so callers can
catch the whole family with one clause. Names state the violated condition.
"""


class SplitioError(Exception):
    pass


# memory / shared-region lifecycle

class ZeroSize(SplitioError):
    pass


class NotShared(SplitioError):
    pass


class AlreadyTornDown(SplitioError):
    pass


class DeviceAccessDenied(SplitioError):
    """Device-side access to private or unregistered memory."""


class OutOfBounds(SplitioError):
    pass


class QuarantinedArena(SplitioError):
    """Arena left behind by a non-graceful port teardown; must be zeroed first."""


# descriptor rings

class BadCapacity(SplitioError):
    pass


class RingFull(SplitioError):
    pass


class AddressNotShared(SplitioError):
    pass


# buffer pools

class ArenaTooSmall(SplitioError):
    pass


class PoolExhausted(SplitioError):
    pass


class ForeignBuffer(SplitioError):
    pass


class OversizePacket(SplitioError):
    pass


# device simulator

class BadPlan(SplitioError):
    """Adversary plan file could not be parsed."""


# ipsec

class Oversize(SplitioError):
    pass


class SeqExhausted(SplitioError):
    pass


class AuthFail(SplitioError):
    pass


class Malformed(SplitioError):
    pass


class AlreadyAttached(SplitioError):
    pass


class BadSaConfig(SplitioError):
    pass


# overhead factors

class SameConfig(SplitioError):
    pass


class MissingBaseline(SplitioError):
    pass


class ZeroBaseline(SplitioError):
    pass


# bench

class ZeroArgument(SplitioError):
    pass


class EmptySamples(SplitioError):
    pass


class BadQuantile(SplitioError):
    pass


class ConfigInvalid(SplitioError):
    pass


class ReportIoError(SplitioError):
    pass


class EventBudgetExhausted(SplitioError):
    """The echo rig's event loop hit its safety budget with work still queued."""

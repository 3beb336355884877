"""Userspace packet I/O with a hard private/shared memory split.

The device side of the house (simulated here) can only ever see explicitly
shared arenas; applications only ever touch private shadow buffers. The
layers in between move each packet across that boundary with exactly one
copy per direction and optional ESP protection, and the bench layer prices
the whole arrangement against a factor-based overhead model.
"""

# unused here, but perfbench's tracer test checks that its patch of
# port_new reaches this binding too
from .pools import port_new  # noqa: F401

__version__ = "0.1.0"

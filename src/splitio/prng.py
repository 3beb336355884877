"""Splitmix64: the 64-bit-state generator used for link jitter and loss draws.

Reference algorithm (Steele, Lea, Flood 2014): state advances by the golden
gamma 0x9e3779b97f4a7c15; output is the finalizer with constants
0xbf58476d1ce4e5b9 / 0x94d049bb133111eb. Chosen because the whole generator is
a dozen lines, the state is a single u64, and an independent reimplementation
from this docstring reproduces the stream exactly, which the deterministic
replay tests rely on.
"""

from .errors import ConfigInvalid

MASK64 = 0xFFFFFFFFFFFFFFFF


class Splitmix64:
    def __init__(self, seed: int):
        if not 0 <= seed <= MASK64:
            # the state keeps 64 bits, so a wider seed would alias another
            raise ConfigInvalid(f"seed {seed} lies outside [0, 2^64)")
        self.state = seed

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def chance(self, probability: float) -> bool:
        """True with the given probability. probability 0 never fires, 1 always."""
        if probability <= 0.0:
            self.next_u64()
            return False
        if probability >= 1.0:
            self.next_u64()
            return True
        threshold = int(probability * 2.0 ** 64)
        return self.next_u64() < threshold

"""Reproducible uniform random number streams.

Every stochastic component of this package draws its randomness through a
RandomStream, so a run is a pure function of the integer seed it was given.
Streams are backed by numpy's PCG64 bit generator.  Independent sub-streams
are derived with SeedSequence.spawn, whose children are collision-resistant
by construction; sub-stream k of seed s is always child k of
SeedSequence(s), so the derivation is stable across runs and platforms.
"""

import numpy as np

_BLOCK = 4096


class RandomStream:
    """Buffered source of uniform(0, 1) doubles.

    The emitted sequence depends only on the seed material passed at
    construction; internal buffering is not observable.  A stream must be
    consumed from a single thread.
    """

    __slots__ = ("_gen", "_buf", "_pos")

    def __init__(self, seed):
        self._gen = np.random.Generator(np.random.PCG64(seed))
        self._buf = ()
        self._pos = 0

    def uniform(self) -> float:
        """Return the next uniform(0, 1) double."""
        if self._pos >= len(self._buf):
            # tolist() yields plain Python floats, which keeps the hot
            # per-variate path free of numpy scalar overhead
            self._buf = self._gen.random(_BLOCK).tolist()
            self._pos = 0
        u = self._buf[self._pos]
        self._pos += 1
        return u


def substreams(seed: int, n: int) -> list[RandomStream]:
    """Derive ``n`` independent streams from one integer seed."""
    return [RandomStream(child) for child in np.random.SeedSequence(seed).spawn(n)]

"""Reproducible uniform random number streams.

Every stochastic component of this package draws its randomness through a
RandomStream, so a run is a pure function of the integer seed it was given.
Streams are backed by numpy's PCG64 bit generator.  Independent sub-streams
are derived with SeedSequence.spawn, whose children are collision-resistant
by construction; sub-stream k of seed s is always child k of
SeedSequence(s), so the derivation is stable across runs and platforms.

A stream emits one sequence of doubles whether it is read one at a time
with :meth:`RandomStream.uniform` or in blocks with
:meth:`RandomStream.uniforms`, so how a caller splits its reads is not
observable.
"""

import numpy as np

__all__ = ["RandomStream", "substreams"]


class RandomStream:
    """Source of uniform(0, 1) doubles; consume it from a single thread."""

    __slots__ = ("_gen",)

    def __init__(self, seed):
        self._gen = np.random.Generator(np.random.PCG64(seed))

    def uniform(self) -> float:
        """Return the next uniform(0, 1) double."""
        return self._gen.random()

    def uniforms(self, n: int) -> np.ndarray:
        """Return the next ``n`` uniform(0, 1) doubles as a float64 array."""
        return self._gen.random(n)


def substreams(seed: int, n: int) -> list[RandomStream]:
    """Derive ``n`` independent streams from one integer seed."""
    return [RandomStream(child) for child in np.random.SeedSequence(seed).spawn(n)]

"""A scripted random stream for the samplers' rejection tests.

A ScriptedStream serves standard normals and standard exponentials from two
fixed arrays, each in order whatever block shapes it is asked for, and
permutations from a real generator. It is its own bit generator: its state
is how far it has read, so a sampler restarts it as it restarts any
generator, and the read counts say how much of each stream was consumed.
own_stream hands a sampler a generator, scripted or real, as one trial's
stream, so it draws from where that generator stands.
"""

from __future__ import annotations

import numpy as np

from quasirel.states import TrialStreams


class ScriptedStream:
    def __init__(self, normals=(), exponentials=(), seed=0):
        self.normals = np.asarray(normals, dtype=float).ravel()
        self.exponentials = np.asarray(exponentials, dtype=float).ravel()
        self.rng = np.random.default_rng(seed)
        self.normals_used = self.exponentials_used = 0

    @property
    def bit_generator(self) -> ScriptedStream:
        return self

    @property
    def state(self) -> tuple:
        return self.normals_used, self.exponentials_used, self.rng.bit_generator.state

    @state.setter
    def state(self, state: tuple) -> None:
        self.normals_used, self.exponentials_used, self.rng.bit_generator.state = state

    def standard_normal(self, size):
        n = int(np.prod(size))
        self.normals_used += n
        return self.normals[self.normals_used - n:self.normals_used].reshape(size).copy()

    def standard_exponential(self, size):
        n = int(np.prod(size))
        self.exponentials_used += n
        return self.exponentials[self.exponentials_used - n:self.exponentials_used].reshape(
            size).copy()

    def permutation(self, n: int) -> np.ndarray:
        return self.rng.permutation(n)


def own_stream(rng) -> TrialStreams:
    """A generator's own stream as a trial's, from where it stands."""
    return TrialStreams([rng.bit_generator.state], rng)

"""A scripted random stream for the samplers' rejection tests.

A ScriptedStream serves standard normals and standard exponentials from two
fixed arrays, each in order whatever block shapes it is asked for, as new
arrays or into given ones, and permutations and shuffles from a real
generator. It is its own bit generator: its state is how far it has read,
so a sampler restarts it as it restarts any generator, and the read counts
say how much of each stream was consumed. own_stream hands a sampler a
generator, scripted or real, as one trial's stream, so it draws from where
that generator stands. EndStates are keyed trial streams that note where
each trial's stream stands when a sampler leaves it.
"""

from __future__ import annotations

import numpy as np

from quasirel.states import TrialStreams, trial_streams


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

    def standard_normal(self, size=None, out=None):
        self.normals_used, values = self._serve(self.normals, self.normals_used, size, out)
        return values

    def standard_exponential(self, size=None, out=None):
        self.exponentials_used, values = self._serve(self.exponentials, self.exponentials_used,
                                                     size, out)
        return values

    @staticmethod
    def _serve(source, used, size, out) -> tuple:
        """The next block of source, in the shape of size or into out, and
        the read count after it."""
        shape = size if out is None else out.shape
        n = int(np.prod(shape))
        block = source[used:used + n].reshape(shape)
        if out is None:
            return used + n, block.copy()
        out[...] = block
        return used + n, out

    def permutation(self, n: int) -> np.ndarray:
        return self.rng.permutation(n)

    def shuffle(self, x: np.ndarray) -> None:
        self.rng.shuffle(x)


def own_stream(rng) -> TrialStreams:
    """A generator's own stream as a trial's, from where it stands."""
    return TrialStreams([rng.bit_generator.state], rng)


class EndStates(TrialStreams):
    """trial_streams(keys), noting each trial's state whenever the shared
    generator leaves that trial for another or the sampler returns."""

    def __init__(self, keys):
        streams = trial_streams(keys)
        super().__init__(streams.states, streams.rng)
        self.ends = {}
        self.current = None

    def restart(self, n: int):
        self._note()
        self.current = n
        return super().restart(n)

    def _note(self) -> None:
        if self.current is not None:
            self.ends[self.current] = self.rng.bit_generator.state

    def end_states(self) -> list:
        """Where each trial's stream stands after its last draws; called
        once the sampler has returned."""
        self._note()
        return [self.ends[n] for n in range(len(self))]

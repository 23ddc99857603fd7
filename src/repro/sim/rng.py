"""Named, reproducibly-seeded random streams.

Every stochastic component in the simulator (network latency, sensor noise,
peer selection, workload jitter, ...) draws from its own named stream.  A
stream's state depends only on ``(root_seed, stream_name)``, so adding a new
component or reordering calls in one component never perturbs the random
numbers seen by another -- a prerequisite for meaningful A/B comparisons
between power managers.

Stream ``name`` is the PCG64 generator seeded from
``SeedSequence(entropy=root_seed, spawn_key=(crc32(name),))``.  Building
one ``SeedSequence`` per stream costs ~12 us, which a 10 000-node
universe pays 30 000 times, so installers that know their stream names
up front call :meth:`RngRegistry.prepare`: it runs the same
``SeedSequence`` arithmetic for all the names at once in numpy and
hands each generator its precomputed state, bit for bit the state the
per-stream path derives (``tests/test_sim_rng.py`` checks both).
"""

from __future__ import annotations

import functools
import zlib
from typing import Any, Dict, Iterable

import numpy as np

# ``numpy.random`` loads on the first ``np.random`` attribute access (in
# :meth:`RngRegistry.stream`), never at import: a process that never
# draws, such as a warm cache replay, skips its import and ~2.5 MB RSS.

#: numpy's ``SeedSequence`` constants (``numpy/random/bit_generator.pyx``).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4


def stable_name_hash(name: str) -> int:
    """A process-stable 32-bit hash of ``name``.

    Python's builtin ``hash`` is salted per process, so it cannot be used to
    derive reproducible seeds; CRC-32 is stable everywhere.
    """
    return zlib.crc32(name.encode("utf-8")) & 0xFFFFFFFF


def spawn_states(seed: int, keys: np.ndarray[Any, Any]) -> np.ndarray[Any, Any]:
    """``SeedSequence(seed, spawn_key=(k,)).generate_state(4, np.uint64)``
    for every ``k`` in ``keys``, as one ``(len(keys), 4)`` array.

    ``seed`` must lie in ``[0, 2**32)`` and ``keys`` be ``uint32``: then
    the assembled entropy is the five words ``[seed, 0, 0, 0, k]``.  The
    pool mixing of the first four depends on the seed alone and runs
    once in Python integers; mixing in ``k`` and generating the eight
    output words run once per row in wrapping ``uint32`` arithmetic.
    """
    hash_a = _INIT_A

    def hashmix(value: Any) -> Any:
        nonlocal hash_a
        value = value ^ hash_a
        hash_a = (hash_a * _MULT_A) & _MASK32
        value = (value * hash_a) & _MASK32
        return value ^ (value >> _XSHIFT)

    def mix(x: Any, y: Any) -> Any:
        # Each product is reduced before the subtraction so that a Python
        # int minus a uint32 column stays in (wrapping) uint32.
        result = (((_MIX_MULT_L * x) & _MASK32) - ((_MIX_MULT_R * y) & _MASK32)) & _MASK32
        return result ^ (result >> _XSHIFT)

    pool = [hashmix(word) for word in (seed, 0, 0, 0)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    # The spawn key is the one entropy word past the pool: numpy mixes it
    # into every pool word.  From here on each value is a uint32 column.
    keys = np.asarray(keys, dtype=np.uint32)
    columns = [mix(word, hashmix(keys)) for word in pool]

    words = np.empty((len(keys), 2 * _POOL_SIZE), dtype=np.uint32)
    hash_b = _INIT_B
    for index in range(2 * _POOL_SIZE):
        value = columns[index % _POOL_SIZE] ^ np.uint32(hash_b)
        hash_b = (hash_b * _MULT_B) & _MASK32
        value = value * np.uint32(hash_b)
        words[:, index] = value ^ (value >> np.uint32(_XSHIFT))
    # numpy turns uint32 pairs into uint64 words with a native view too.
    return words.view(np.uint64)


@functools.lru_cache(maxsize=None)
def _prepared_seed() -> Any:
    """The one ``ISeedSequence`` every prepared PCG64 is seeded through.

    PCG64 keeps its seed object for ``spawn`` (which only a
    ``SeedSequence`` supports, and nothing here calls), so a seed object
    per stream -- holding a row view of the :func:`spawn_states` array --
    would live as long as its generator: 30 002 of each in a 10 000-node
    universe.  This one object hands each new PCG64 its precomputed state
    and then lets go of it (see :func:`_prepared_pcg64`).  Defined on
    first use so that importing this module does not import
    ``numpy.random``.
    """

    class PreparedSeed(np.random.bit_generator.ISeedSequence):
        def __init__(self) -> None:
            self.state: Any = None

        def generate_state(self, n_words: int, dtype: Any = np.uint32) -> np.ndarray[Any, Any]:
            if n_words != _POOL_SIZE or np.dtype(dtype) != np.uint64:
                raise ValueError("a prepared stream seeds PCG64 only (4 uint64 words)")
            if self.state is None:
                raise ValueError("a prepared seed is spent once its stream exists")
            state: np.ndarray[Any, Any] = self.state
            return state

    return PreparedSeed()


def _prepared_pcg64(state: np.ndarray[Any, Any]) -> Any:
    """A PCG64 seeded with a precomputed :func:`spawn_states` row."""
    seed = _prepared_seed()
    seed.state = state
    try:
        return np.random.PCG64(seed)
    finally:
        seed.state = None


class RngRegistry:
    """A factory of independent, named ``numpy`` random generators."""

    def __init__(self, seed: int = 0) -> None:
        if not isinstance(seed, (int, np.integer)):
            raise TypeError(f"seed must be an integer, got {seed!r}")
        self.seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}
        #: name -> PCG64 seed state from :meth:`prepare`, dropped on use.
        self._prepared: Dict[str, np.ndarray[Any, Any]] = {}

    def prepare(self, names: Iterable[str]) -> None:
        """Precompute the seeds of streams about to be created.

        Draws are unchanged; only the cost of a later :meth:`stream`
        call falls.  Names already created or prepared are skipped.
        Seeds outside ``[0, 2**32)`` assemble more entropy words than
        :func:`spawn_states` handles and keep the per-stream path.
        """
        if not 0 <= self.seed <= _MASK32:
            return
        fresh = [
            name for name in names if name not in self._streams and name not in self._prepared
        ]
        keys = np.fromiter(map(stable_name_hash, fresh), dtype=np.uint32, count=len(fresh))
        self._prepared.update(zip(fresh, spawn_states(self.seed, keys)))

    def stream(self, name: str) -> np.random.Generator:
        """The generator for ``name`` (created on first use, then cached)."""
        generator = self._streams.get(name)
        if generator is None:
            state = self._prepared.pop(name, None)
            if state is None:
                bit_generator = np.random.PCG64(
                    np.random.SeedSequence(
                        entropy=self.seed, spawn_key=(stable_name_hash(name),)
                    )
                )
            else:
                bit_generator = _prepared_pcg64(state)
            generator = np.random.Generator(bit_generator)
            self._streams[name] = generator
        return generator

    def spawn(self, sub_seed: int) -> "RngRegistry":
        """A registry whose streams are independent of this one's.

        Used to give each experiment repetition its own random universe
        while staying reproducible from the root seed.
        """
        return RngRegistry(seed=(self.seed * 1_000_003 + int(sub_seed)) & 0x7FFFFFFF)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngRegistry(seed={self.seed}, streams={sorted(self._streams)})"

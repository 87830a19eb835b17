"""The patterned magnetic medium: a matrix of heatable single-domain dots.

This is the physical substrate everything else sits on.  It enforces
exactly the physics of Sections 3 and 7 and nothing more:

* magnetic writes set the perpendicular magnetisation of *healthy*
  dots; on a heated dot they have no effect (there is no stable
  perpendicular state to write);
* magnetic reads of a healthy dot return the stored bit; of a heated
  dot they return "a more or less random result" (Fig 2, bottom);
* :meth:`heat_dot` destroys a dot irreversibly — **no method of this
  class can restore sharpness**, which is the physical root of the
  tamper evidence;
* optional collateral heating damages neighbouring dots through the
  thermal model, and an optional switching-field distribution makes a
  small population of dots unwritable (fabrication defects).

The class deliberately has no notion of blocks-with-meaning, hashes or
files; those live in :mod:`repro.device` and :mod:`repro.fs`.  It does
expose :meth:`image_heated` — the *forensic* capability of magnetic
imaging (Section 8) that sees which dots are destroyed without any
magnetic write, used by investigators and by the bulk-erase analysis.
"""

from __future__ import annotations

import functools
import zlib
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ..errors import DotAddressError
from ..physics.anisotropy import AnisotropyModel
from ..physics.annealing import DEFAULT_KINETICS, AnnealingKinetics
from ..physics.constants import DEFAULT_STACK, MultilayerStack
from ..physics.thermal import (
    DEFAULT_THERMAL,
    HeatPulse,
    ThermalParameters,
    default_pulse,
    temperature_at_distance_c,
)
from ..units import KB, celsius_to_kelvin
from .dot import HEATED_SHARPNESS_THRESHOLD, DotView
from .geometry import MediumGeometry

import math


@dataclass
class MediumConfig:
    """Physical configuration knobs of a medium instance.

    Attributes:
        stack: multilayer recipe.
        thermal: tip-heating parameters.
        kinetics: interface-mixing kinetics.
        pulse: heat pulse used by :meth:`PatternedMedium.heat_dot`
            (None = derive a just-sufficient pulse from the kinetics).
        collateral_heating: when True, heating a dot also anneals its
            matrix neighbours with the temperature the thermal model
            predicts at one pitch distance.  Off by default because the
            default layout is engineered safe (Section 7's heat-sink
            design); the collateral-heating test switches it on.
        switching_sigma: relative sigma of the lognormal switching
            field distribution (0 disables fabrication defects).
        write_field: available write field as a multiple of the nominal
            anisotropy field (dots needing more are unwritable).
        seed: RNG seed for heated-dot read noise and defects.
    """

    stack: MultilayerStack = field(default_factory=lambda: DEFAULT_STACK)
    thermal: ThermalParameters = field(default_factory=lambda: DEFAULT_THERMAL)
    kinetics: AnnealingKinetics = field(default_factory=lambda: DEFAULT_KINETICS)
    pulse: Optional[HeatPulse] = None
    collateral_heating: bool = False
    switching_sigma: float = 0.0
    write_field: float = 1.2
    seed: int = 2008


#: Process-wide cache of regenerated switching-field scales, keyed by
#: ``(seed, sigma, total_dots)``.  The array is a pure function of the
#: key and is only ever *read* (every consumer compares it against the
#: write field), so fleet workers — which receive media as compact
#: snapshots and would otherwise regenerate the same draw on every
#: pass — share one copy per distinct medium configuration.
_K_SCALE_CACHE: dict = {}
_K_SCALE_CACHE_MAX = 64


def _k_scale_for(seed: int, sigma: float, n: int) -> np.ndarray:
    key = (seed, sigma, n)
    arr = _K_SCALE_CACHE.get(key)
    if arr is None:
        arr = np.random.default_rng(seed).lognormal(
            mean=0.0, sigma=sigma, size=n).astype(np.float32)
        if len(_K_SCALE_CACHE) >= _K_SCALE_CACHE_MAX:
            _K_SCALE_CACHE.pop(next(iter(_K_SCALE_CACHE)))
        _K_SCALE_CACHE[key] = arr
    return arr


@functools.lru_cache(maxsize=None)
def _erb_outcome_tables(n_verifies: int) -> np.ndarray:
    """How many verification reads the scalar sequence makes for one
    heated dot, per byte of its ``n_verifies <= 8`` reads packed by
    :func:`_pack_reads`: up to and including the first failure, or
    all of them.  One table gather replaces an ``any`` and an
    ``argmax`` along a short axis.
    """
    passes = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None],
                           axis=1)[:, 8 - n_verifies:]
    fails = passes == 0
    first_fail = np.where(fails.any(axis=1), fails.argmax(axis=1),
                          n_verifies)
    verifies = np.minimum(first_fail + 1, n_verifies).astype(np.int64)
    verifies.setflags(write=False)  # shared by every caller
    return verifies


def _pack_reads(passes: np.ndarray) -> np.ndarray:
    """Each row of 0/1 ``passes`` (``width <= 8`` reads) as one byte
    holding its reads in the low ``width`` bits, first read highest.

    A row, zero-padded to ``size`` = 2, 4 or 8 bytes, is one
    little-endian word whose read ``i`` sits at bit ``8*i``; times
    ``sum(2**(9*j))`` it lands at bit ``8*(size-1) + size-1-i``, and no
    other product reaches those bits or carries into them, so a shift
    and a mask finish the pack.
    """
    n_rows, width = passes.shape
    size = next(size for size in (2, 4, 8) if size >= width)
    if size != width:
        padded = np.zeros((n_rows, size), dtype=np.uint8)
        padded[:, :width] = passes
        passes = padded
    word = np.dtype(f"<u{size}")
    packed = passes.view(word).reshape(n_rows) \
        * word.type(sum(1 << (9 * j) for j in range(size)))
    packed >>= word.type(8 * (size - 1) + size - width)
    return packed.astype(np.uint8) & np.uint8((1 << width) - 1)


class PatternedMedium:
    """A rectangular matrix of heatable magnetic dots.

    Args:
        geometry: dot-matrix shape and block mapping.
        config: physical parameters (defaults are the paper's).
    """

    def __init__(self, geometry: MediumGeometry,
                 config: Optional[MediumConfig] = None) -> None:
        self.geometry = geometry
        self.config = config or MediumConfig()
        n = geometry.total_dots
        # -1 = down (logical 0) everywhere after fabrication AC erase.
        self._mag = np.full(n, -1, dtype=np.int8)
        self._sharpness = np.ones(n, dtype=np.float32)
        self._rng = np.random.default_rng(self.config.seed)
        self._anisotropy = AnisotropyModel(stack=self.config.stack,
                                           dot=geometry.dot)
        if self.config.pulse is None:
            self.config.pulse = default_pulse(self.config.thermal,
                                              self.config.kinetics)
        if self.config.switching_sigma > 0.0:
            self._k_scale = self._rng.lognormal(
                mean=0.0, sigma=self.config.switching_sigma,
                size=n).astype(np.float32)
        else:
            self._k_scale = None
        # Operation counters (the timing model consumes these).
        self.counters = {"mrb": 0, "mwb": 0, "heat": 0}
        # See :attr:`mutation_epoch` and :meth:`cut_delta`.
        self._mut_epoch = 0
        self._dirty = np.zeros(geometry.total_blocks, dtype=bool)

    @property
    def mutation_epoch(self) -> int:
        """Monotone count of operations that may have changed a dot.

        The invariant: every operation that can change the
        magnetisation or sharpness arrays (``write_mag``,
        ``write_mag_span``, ``heat_dot``, ``heat_span``,
        ``bulk_erase`` — and the scalar electrical read, which writes
        each dot and restores it) bumps the epoch, and no read does.
        Two reads of the same dots under one epoch value therefore see
        the same stored state.  The remote session layer fingerprints
        it to decide whether a worker-pinned snapshot of this medium is
        still current, and ``SeroFS`` stamps its metadata cache with
        it.  Every bump also marks the blocks the operation may have
        changed dirty, which is what :meth:`cut_delta` ships.

        The epoch's companion invariant is ``_mag == 0`` exactly when a
        dot is heated.  Sharpness is compared with
        ``HEATED_SHARPNESS_THRESHOLD`` only in the two methods that
        establish it, the heat pulses (``_apply_pulse``,
        ``_heat_many``); every other method, the snapshot decode
        included, reads ``_mag == 0`` as "heated".
        """
        return self._mut_epoch

    @property
    def _k_scale(self) -> Optional[np.ndarray]:
        """Per-dot switching-field scale (None when defect-free).

        Materialised eagerly at construction (the draw must be the
        seeded RNG's first, so read-noise sequencing stays put) but
        *lazily* after unpickling: the snapshot omits the array — it
        regenerates bit-exactly from the config seed, via the
        process-wide :data:`_K_SCALE_CACHE` so repeated snapshot
        restores of the same medium pay the draw once — and a restored
        medium only pays anything if something actually consults it.
        """
        if self._k_scale_cache is None and \
                self.config.switching_sigma > 0.0:
            self._k_scale_cache = _k_scale_for(
                self.config.seed, self.config.switching_sigma,
                self.geometry.total_dots)
        return self._k_scale_cache

    @_k_scale.setter
    def _k_scale(self, value: Optional[np.ndarray]) -> None:
        self._k_scale_cache = value

    @property
    def resident_bytes(self) -> int:
        """Bytes the medium's two dot arrays hold in memory."""
        return self._mag.nbytes + self._sharpness.nbytes

    # -- classification ------------------------------------------------------

    def _check(self, index: int) -> None:
        if not 0 <= index < self.geometry.total_dots:
            raise DotAddressError(f"dot index {index} out of range")

    def is_heated(self, index: int) -> bool:
        """True when dot ``index`` has lost its perpendicular easy axis.

        NOTE: this is the *ground-truth* physical state.  Normal device
        operation must discover it through the erb protocol; direct
        calls model forensic magnetic imaging (Section 8).
        """
        self._check(index)
        return bool(self._mag[index] == 0)

    def is_writable(self, index: int) -> bool:
        """True when a magnetic write can switch dot ``index``.

        A dot is unwritable when heated, or when its switching field
        (scaled by the fabrication k-scale) exceeds the available
        write field.
        """
        self._check(index)
        if self._mag[index] == 0:
            return False
        if self._k_scale is not None:
            return bool(self._k_scale[index] <= self.config.write_field)
        return True

    def dot(self, index: int) -> DotView:
        """Snapshot view of one dot."""
        self._check(index)
        return DotView(index=index,
                       magnetization=int(self._mag[index]),
                       sharpness=float(self._sharpness[index]))

    # -- magnetic bit operations ---------------------------------------------

    def read_mag(self, index: int) -> int:
        """Magnetic read (mrb): the stored bit as 0/1.

        A heated dot has no out-of-plane remanence; the read channel
        thresholds noise and returns a coin flip, faithfully modelling
        Fig 2's "more or less random result".
        """
        self._check(index)
        self.counters["mrb"] += 1
        if self._mag[index] == 0:
            return int(self._rng.integers(0, 2))
        return 1 if self._mag[index] > 0 else 0

    def write_mag(self, index: int, bit: int) -> None:
        """Magnetic write (mwb): set the dot to ``bit`` (0 or 1).

        Writing a heated or defective dot silently does nothing — the
        field finds no stable perpendicular state to latch.  (The
        *device* layer detects this through verification; the physics
        cannot refuse a field pulse.)
        """
        self._check(index)
        if bit not in (0, 1):
            raise ValueError("bit must be 0 or 1")
        self.counters["mwb"] += 1
        self._mut_epoch += 1
        self._dirty[index // self.geometry.dots_per_block] = True
        if not self.is_writable(index):
            return
        self._mag[index] = 1 if bit else -1

    # -- the write-once operation ---------------------------------------------

    def heat_dot(self, index: int) -> None:
        """Electrical write (ewb): destroy dot ``index`` irreversibly.

        Applies the configured tip pulse: the contact temperature mixes
        the dot's interfaces (sharpness multiplies by the Arrhenius
        factor, which for the default pulse is ~0), and when
        ``collateral_heating`` is enabled the 4-neighbours receive the
        pulse attenuated to one pitch distance.
        """
        self._check(index)
        self.counters["heat"] += 1
        self._mut_epoch += 1
        dpb = self.geometry.dots_per_block
        self._dirty[index // dpb] = True
        pulse = self.config.pulse
        self._apply_pulse(index, pulse, distance=0.0)
        if self.config.collateral_heating:
            for neighbor in self.geometry.neighbors(index):
                self._dirty[neighbor // dpb] = True
                self._apply_pulse(neighbor, pulse,
                                  distance=self.geometry.dot.pitch_x)

    def _apply_pulse(self, index: int, pulse: HeatPulse,
                     distance: float) -> None:
        temp_c = temperature_at_distance_c(pulse.power_w, distance,
                                           self.config.thermal)
        rate = self.config.kinetics.mixing_rate(celsius_to_kelvin(temp_c))
        factor = math.exp(-rate * pulse.duration_s)
        self._sharpness[index] *= factor
        if self._sharpness[index] < HEATED_SHARPNESS_THRESHOLD:
            # no stable perpendicular state survives
            self._mag[index] = 0

    # -- bulk / forensic operations --------------------------------------------

    def bulk_erase(self) -> None:
        """Degauss the whole medium (Section 5.2's bulk-eraser attack).

        All *magnetic* information is cleared; the heated pattern — a
        structural, not magnetic, property — survives untouched, which
        is exactly why the attack leaves evidence.
        """
        np.copyto(self._mag, np.int8(-1), where=self._mag != 0)
        self._mut_epoch += 1
        self._dirty[:] = True

    def image_heated(self, indices: Optional[Sequence[int]] = None) -> np.ndarray:
        """Forensic magnetic imaging: the heated map as a bool array.

        Models Section 8's "magnetic imaging techniques": an
        investigator (not the normal read channel) can always see which
        dots are destroyed.
        """
        if indices is None:
            return self._mag == 0
        idx = np.asarray(list(indices), dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self.geometry.total_dots):
            raise DotAddressError("dot index out of range")
        return self._mag[idx] == 0

    def heated_count(self) -> int:
        """Number of destroyed dots on the whole medium."""
        return self._mag.size - int(np.count_nonzero(self._mag))

    def defect_map(self, start: int, end: int) -> np.ndarray:
        """Ground-truth fabrication-defect map for dots [start, end).

        True where a dot is unwritable (its switching field exceeds the
        available write field) but *not* heated — the distinction the
        format-time scan must draw.  Like :meth:`image_heated` this is
        a forensic/diagnostic capability, one whole-array pass over the
        snapshot state instead of per-dot ``is_writable``/``is_heated``
        calls.
        """
        if not (0 <= start <= end <= self.geometry.total_dots):
            raise DotAddressError("dot span out of range")
        if self._k_scale is None:
            return np.zeros(end - start, dtype=bool)
        span = slice(start, end)
        return (self._mag[span] != 0) & \
            (self._k_scale[span] > self.config.write_field)

    def sharpness_of(self, index: int) -> float:
        """Ground-truth interface sharpness of one dot (diagnostics)."""
        self._check(index)
        return float(self._sharpness[index])

    # -- vectorised block helpers (fast paths for the device layer) -----------

    def read_mag_span(self, start: int, end: int) -> np.ndarray:
        """Vectorised mrb over dots [start, end): returns a 0/1 array.

        Heated dots inside the span read as independent coin flips.
        Counts ``end - start`` mrb operations.
        """
        if not (0 <= start <= end <= self.geometry.total_dots):
            raise DotAddressError("dot span out of range")
        self.counters["mrb"] += end - start
        mag = self._mag[start:end]
        bits = (mag > 0).view(np.uint8)
        heated = mag == 0
        if heated.any():
            noise = self._rng.integers(0, 2, size=int(heated.sum()),
                                       dtype=np.uint8)
            bits[heated] = noise
        return bits

    def write_mag_span(self, start: int, bits: Sequence[int]) -> None:
        """Vectorised mwb: write ``bits`` at consecutive dots from
        ``start``.  Heated/defective dots silently keep their state."""
        arr = np.asarray(bits, dtype=np.int8)
        end = start + len(arr)
        if not (0 <= start <= end <= self.geometry.total_dots):
            raise DotAddressError("dot span out of range")
        # one reduction: negative int8 values read as >= 128 unsigned
        if arr.size and arr.view(np.uint8).max() > 1:
            raise ValueError("bits must be 0 or 1")
        self.counters["mwb"] += len(arr)
        self._mut_epoch += 1
        dpb = self.geometry.dots_per_block
        self._dirty[start // dpb:-(-end // dpb)] = True
        span = slice(start, end)
        writable = self._mag[span] != 0
        if self._k_scale is not None:
            writable &= self._k_scale[span] <= self.config.write_field
        target = arr + arr  # 0/1 -> -1/+1, on int8
        target -= 1
        if writable.all():
            # a plain store is several times cheaper than a masked one
            self._mag[span] = target
        else:
            # in-place masked store: the unwritable dots keep their state
            np.copyto(self._mag[span], target, where=writable)

    def heat_span(self, start: int, end: int,
                  pattern: Optional[Sequence[bool]] = None,
                  vectorized: bool = True) -> None:
        """Heat every dot in [start, end) where ``pattern`` is True
        (or all of them when ``pattern`` is None).

        By default the Arrhenius factor is batched over the whole
        pattern with numpy; ``vectorized=False`` heats dot by dot (the
        reference).  ``collateral_heating`` always takes the per-dot
        path because each heated dot must also pulse its matrix
        neighbours.
        """
        if not (0 <= start <= end <= self.geometry.total_dots):
            raise DotAddressError("dot span out of range")
        if pattern is None:
            idx = np.arange(start, end, dtype=np.int64)
        else:
            if len(pattern) != end - start:
                raise ValueError("pattern length must match span")
            idx = start + np.flatnonzero(np.asarray(pattern, dtype=bool))
        if self.config.collateral_heating or not vectorized:
            for index in idx:
                self.heat_dot(int(index))
            return
        self._heat_many(idx)

    def _heat_many(self, idx: np.ndarray) -> None:
        """Vectorised heat pulses at dot indices ``idx`` (no collateral).

        The pulse, and therefore the mixing rate and Arrhenius factor,
        is identical for every target dot, so the factor is computed
        once and applied as one array multiply instead of one
        ``math.exp`` per dot.
        """
        if idx.size == 0:
            return
        self.counters["heat"] += int(idx.size)
        self._mut_epoch += 1
        # heat_span passes ascending indices inside its span
        dpb = self.geometry.dots_per_block
        self._dirty[idx[0] // dpb:idx[-1] // dpb + 1] = True
        pulse = self.config.pulse
        temp_c = temperature_at_distance_c(pulse.power_w, 0.0,
                                           self.config.thermal)
        rate = self.config.kinetics.mixing_rate(celsius_to_kelvin(temp_c))
        factor = math.exp(-rate * pulse.duration_s)
        self._sharpness[idx] *= factor
        destroyed = idx[self._sharpness[idx] < HEATED_SHARPNESS_THRESHOLD]
        # no stable perpendicular state survives
        self._mag[destroyed] = 0

    # -- the electrical-read span engine ---------------------------------------

    def erb_span(self, start: int, end: int, rounds: int = 1) -> np.ndarray:
        """Vectorised erb over dots [start, end).

        Performs the paper's five-step invert/verify protocol (plus
        ``rounds - 1`` repeats) as whole-array operations and returns a
        bool array where True means the dot failed a verification
        (``"H"``).  Semantics match :meth:`repro.device.bitops.BitOps.erb`
        per dot: a heated dot escapes with probability
        ``(1/4)**rounds``, and the mrb/mwb counters advance exactly as
        the scalar sequence would, including the early exit at the
        first failed verification read.
        """
        if not (0 <= start <= end <= self.geometry.total_dots):
            raise DotAddressError("dot span out of range")
        return self._erb_many(slice(start, end), rounds)

    def erb_at(self, indices: Sequence[int], rounds: int = 1) -> np.ndarray:
        """Vectorised erb at (unique) scattered dot ``indices``."""
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self.geometry.total_dots):
            raise DotAddressError("dot index out of range")
        return self._erb_many(idx, rounds)

    def erb_spans(self, starts: Sequence[int], width: int,
                  rounds: int = 1) -> np.ndarray:
        """Vectorised erb over ``[s, s + width)`` for each of ``starts``.

        Returns a ``(len(starts), width)`` bool array.  Draws and
        counts exactly as :meth:`erb_at` over the concatenated spans,
        but gathers each span as a slice instead of through a per-dot
        index array.
        """
        starts = [int(s) for s in starts]
        if starts and (min(starts) < 0 or width < 0 or
                       max(starts) + width > self.geometry.total_dots):
            raise DotAddressError("dot span out of range")

        def gather(values: np.ndarray) -> np.ndarray:
            return np.concatenate([values[s:s + width] for s in starts]) \
                if starts else values[:0]

        k_scale = self._k_scale
        hit = self._erb_kernel(gather(self._mag),
                               None if k_scale is None else gather(k_scale),
                               rounds)
        return hit.reshape(len(starts), width)

    def _erb_many(self, idx, rounds: int) -> np.ndarray:
        """erb at ``idx``: a span ``slice`` or an array of dot indices."""
        k_scale = self._k_scale
        return self._erb_kernel(self._mag[idx],
                                None if k_scale is None else k_scale[idx],
                                rounds)

    def _erb_kernel(self, mag: np.ndarray, k_scale: Optional[np.ndarray],
                    rounds: int) -> np.ndarray:
        """erb over dots whose magnetisation (and switching scale, when
        the medium has one) are ``mag`` and ``k_scale``, in order."""
        if rounds < 1:
            raise ValueError("erb needs at least one verification round")
        heated = mag == 0
        n = int(heated.size)
        if n == 0:
            return np.zeros(0, dtype=bool)
        n_verifies = 2 * rounds
        n_heated = int(np.count_nonzero(heated))
        # A defective (unwritable, unheated) dot fails the very first
        # verification: the inverse write latches nothing and the
        # stored bit reads back unchanged.  So the verdict starts as
        # "unwritable", and a heated dot keeps its "H" unless every
        # one of its draws below passes (about 1 in 4**rounds does).
        if k_scale is None:
            hit = heated.copy()
            n_defective = 0
        else:
            hit = heated | ~(k_scale <= self.config.write_field)
            n_defective = int(np.count_nonzero(hit)) - n_heated
        # No physical write is needed: heated and defective dots never
        # latch a field pulse, and each writable dot's inverse write is
        # exactly undone by its restore write, so the net magnetisation
        # is provably unchanged ("the two inversions ensure that the
        # original magnetic data is restored", Section 3).
        # Counters: a dot whose first failure is verification v consumed
        # v+1 inverse/restore writes and 1 + (v+1) reads before the
        # scalar sequence returns "H"; a passing dot consumed the full
        # 2*rounds writes and 1 + 2*rounds reads.
        total_verifies = (n - n_heated - n_defective) * n_verifies \
            + n_defective
        if n_heated:
            # Every verification read of a heated dot is a coin flip
            # that matches the expected value with probability 1/2, so
            # the whole sequence passes with probability (1/4)**rounds.
            passes = self._rng.integers(
                0, 2, size=(n_heated, n_verifies), dtype=np.uint8)
            if n_verifies <= 8:
                packed = _pack_reads(passes)
                total_verifies += int(
                    np.bincount(packed, minlength=256)
                    @ _erb_outcome_tables(n_verifies))
                passed = packed == (1 << n_verifies) - 1
                hit[np.flatnonzero(heated)[passed]] = False
            else:
                fails = passes == 0
                any_fail = fails.any(axis=1)
                first_fail = np.where(any_fail, fails.argmax(axis=1),
                                      n_verifies)
                total_verifies += int(
                    np.minimum(first_fail + 1, n_verifies).sum())
                np.place(hit, heated, any_fail)
        self.counters["mrb"] += n + total_verifies
        self.counters["mwb"] += total_verifies
        return hit

    # -- snapshot transport ------------------------------------------------------

    def __getstate__(self) -> dict:
        """The header plus a :class:`MediumDelta` over every block, the
        one encoding of a medium's dots.

        The live RNG travels by value, so a restored medium continues
        the exact random sequence.  The fabrication k-scale does not
        travel: it is the seeded RNG's first draw and regenerates
        bit-exactly from the config (the anisotropy model is derived
        state too).
        """
        dpb = self.geometry.dots_per_block
        return {
            "geometry": self.geometry,
            "config": self.config,
            "rng": self._rng,
            "counters": self.counters,
            "mut_epoch": self._mut_epoch,
            "dots": MediumDelta(np.arange(self.geometry.total_blocks),
                                self._mag.reshape(-1, dpb),
                                self._sharpness.reshape(-1, dpb)),
        }

    def __setstate__(self, state: dict) -> None:
        self.geometry = state["geometry"]
        self.config = state["config"]
        dots = state["dots"]
        # the decoded arrays become the medium's own, not a copy of them
        self._mag = dots.mag.reshape(-1)
        self._sharpness = dots.sharpness.reshape(-1)
        self._rng = state["rng"]
        self.counters = state["counters"]
        self._mut_epoch = state["mut_epoch"]
        # a restored medium is in sync with the one it was taken from
        self._dirty = np.zeros(self.geometry.total_blocks, dtype=bool)
        self._anisotropy = AnisotropyModel(stack=self.config.stack,
                                           dot=self.geometry.dot)
        # regenerated lazily on first access: the construction-time
        # draw was the seeded generator's first sample, so a fresh
        # generator replays it bit-exactly (see the _k_scale property)
        self._k_scale = None

    # -- block deltas --------------------------------------------------------------

    def cut_delta(self) -> "MediumDelta":
        """The dots of every block changed since the last cut, and a
        clean slate.

        Every operation that bumps :attr:`mutation_epoch` marks the
        blocks it touched, so a cut holds exactly what a copy of this
        medium taken at the last cut (or at unpickling) lacks; applying
        it there with :meth:`apply_delta` makes the two arrays equal.
        The RNG, the counters and the epoch are not part of it.
        """
        blocks = np.flatnonzero(self._dirty)
        self._dirty[:] = False
        dpb = self.geometry.dots_per_block
        return MediumDelta(blocks=blocks,
                           mag=self._mag.reshape(-1, dpb)[blocks],
                           sharpness=self._sharpness.reshape(-1, dpb)[blocks])

    def mark_clean(self) -> None:
        """Drop the dirty marks without cutting them: a copy of this
        medium taken now needs no delta."""
        self._dirty[:] = False

    def apply_delta(self, delta: "MediumDelta") -> None:
        """Write a :meth:`cut_delta` of an equal medium in place.  The
        blocks are not marked: after the write this medium and the
        one the delta was cut from agree on them."""
        dpb = self.geometry.dots_per_block
        self._mag.reshape(-1, dpb)[delta.blocks] = delta.mag
        self._sharpness.reshape(-1, dpb)[delta.blocks] = delta.sharpness

    # -- statistics -------------------------------------------------------------

    def snapshot_states(self, start: int, end: int) -> List[str]:
        """Fig 2 state letters ('0'/'1'/'H') for dots [start, end)."""
        if not (0 <= start <= end <= self.geometry.total_dots):
            raise DotAddressError("dot span out of range")
        mag = self._mag[start:end]
        out = np.where(mag > 0, "1", "0")
        out[mag == 0] = "H"
        return out.tolist()


class MediumDelta:
    """Whole blocks of a medium's two arrays: a :meth:`PatternedMedium.
    cut_delta`, or every block of a pickled medium.

    ``blocks`` are the block numbers, ascending; ``mag`` and
    ``sharpness`` hold one row of ``dots_per_block`` values per block.
    This is the one place a medium's dots are encoded for travel.  A
    dot is 0, 1 or heated (Fig 2), and sharpness is exactly 1.0 on
    every dot no heat pulse touched, so the pickled form is one sign
    bit and one touched bit per dot, then whether each touched dot is
    heated, all three bitmaps deflated together; and the sharpness of
    the touched dots, one value when they are all alike, as they are
    when one pulse heated them.  Heated dots travel as bits, so the
    decode never re-derives them from sharpness.  A run of consecutive
    blocks (every block of a pickled medium, or none) travels as its
    first block and count.  A seal's blocks travel in well under a bit
    a dot instead of 5 bytes, and a sealed 1024-block medium in about
    21 kB.
    """

    __slots__ = ("blocks", "mag", "sharpness")

    def __init__(self, blocks: np.ndarray, mag: np.ndarray,
                 sharpness: np.ndarray) -> None:
        self.blocks = blocks
        self.mag = mag
        self.sharpness = sharpness

    def __getstate__(self) -> dict:
        mag = self.mag.ravel()
        sharpness = self.sharpness.ravel()
        touched = sharpness != np.float32(1.0)
        at = np.flatnonzero(touched)  # few: gather by index, not by mask
        vals = sharpness[at]
        # one pulse heats every dot it touches alike: one value travels
        uniform = bool(vals.size) and bool((vals == vals[0]).all())
        bits = np.concatenate((np.packbits(mag > 0), np.packbits(touched),
                               np.packbits(mag[at] == 0)))
        blocks = self.blocks
        if not blocks.size or blocks[-1] - blocks[0] == blocks.size - 1:
            # ascending and this dense: a run, (first, count)
            blocks = (int(blocks[0]) if blocks.size else 0, blocks.size)
        return {"blocks": blocks, "shape": self.mag.shape,
                "bits": zlib.compress(bits, 1),
                "sharp_vals": vals[:1] if uniform else vals}

    def __setstate__(self, state: dict) -> None:
        shape = state["shape"]
        n = shape[0] * shape[1]
        nbytes = -(-n // 8)
        bits = np.frombuffer(zlib.decompress(state["bits"]), dtype=np.uint8)
        mag = np.unpackbits(bits[:nbytes], count=n).view(np.int8)
        mag += mag  # 2 * bit - 1, in place on int8
        mag -= 1
        touched = np.flatnonzero(
            np.unpackbits(bits[nbytes:2 * nbytes], count=n).view(bool))
        heated = np.unpackbits(bits[2 * nbytes:],
                               count=touched.size).view(bool)
        mag[touched[heated]] = 0
        sharpness = np.ones(n, dtype=np.float32)
        sharpness[touched] = state["sharp_vals"]  # one value or one per dot
        blocks = state["blocks"]
        if isinstance(blocks, tuple):
            first, count = blocks
            blocks = np.arange(first, first + count)
        self.blocks = blocks
        self.mag = mag.reshape(shape)
        self.sharpness = sharpness.reshape(shape)

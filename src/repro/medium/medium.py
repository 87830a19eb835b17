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
        # See :attr:`mutation_epoch`.
        self._mut_epoch = 0

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
        it.
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
        return bool(self._sharpness[index] < HEATED_SHARPNESS_THRESHOLD)

    def is_writable(self, index: int) -> bool:
        """True when a magnetic write can switch dot ``index``.

        A dot is unwritable when heated, or when its switching field
        (scaled by the fabrication k-scale) exceeds the available
        write field.
        """
        self._check(index)
        if self._sharpness[index] < HEATED_SHARPNESS_THRESHOLD:
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
        if self._sharpness[index] < HEATED_SHARPNESS_THRESHOLD:
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
        pulse = self.config.pulse
        self._apply_pulse(index, pulse, distance=0.0)
        if self.config.collateral_heating:
            for neighbor in self.geometry.neighbors(index):
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
        healthy = self._sharpness >= HEATED_SHARPNESS_THRESHOLD
        self._mag[healthy] = -1
        self._mut_epoch += 1

    def image_heated(self, indices: Optional[Sequence[int]] = None) -> np.ndarray:
        """Forensic magnetic imaging: the heated map as a bool array.

        Models Section 8's "magnetic imaging techniques": an
        investigator (not the normal read channel) can always see which
        dots are destroyed.
        """
        if indices is None:
            return (self._sharpness < HEATED_SHARPNESS_THRESHOLD).copy()
        idx = np.asarray(list(indices), dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self.geometry.total_dots):
            raise DotAddressError("dot index out of range")
        return self._sharpness[idx] < HEATED_SHARPNESS_THRESHOLD

    def heated_count(self) -> int:
        """Number of destroyed dots on the whole medium."""
        return int((self._sharpness < HEATED_SHARPNESS_THRESHOLD).sum())

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
        span = slice(start, end)
        healthy = self._sharpness[span] >= HEATED_SHARPNESS_THRESHOLD
        if self._k_scale is None:
            return np.zeros(end - start, dtype=bool)
        return healthy & (self._k_scale[span] > self.config.write_field)

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
        bits = (mag > 0).astype(np.uint8)
        heated = self._sharpness[start:end] < HEATED_SHARPNESS_THRESHOLD
        if heated.any():
            noise = self._rng.integers(0, 2, size=int(heated.sum()),
                                       dtype=np.uint8)
            bits = bits.copy()
            bits[heated] = noise
        return bits

    def write_mag_span(self, start: int, bits: Sequence[int]) -> None:
        """Vectorised mwb: write ``bits`` at consecutive dots from
        ``start``.  Heated/defective dots silently keep their state."""
        arr = np.asarray(bits, dtype=np.int8)
        end = start + len(arr)
        if not (0 <= start <= end <= self.geometry.total_dots):
            raise DotAddressError("dot span out of range")
        if arr.size and (arr.min() < 0 or arr.max() > 1):
            raise ValueError("bits must be 0 or 1")
        self.counters["mwb"] += len(arr)
        self._mut_epoch += 1
        span = slice(start, end)
        writable = self._sharpness[span] >= HEATED_SHARPNESS_THRESHOLD
        if self._k_scale is not None:
            writable &= self._k_scale[span] <= self.config.write_field
        target = np.where(arr > 0, 1, -1).astype(np.int8)
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
        return self._erb_many(np.arange(start, end, dtype=np.int64), rounds)

    def erb_at(self, indices: Sequence[int], rounds: int = 1) -> np.ndarray:
        """Vectorised erb at (unique) scattered dot ``indices``."""
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self.geometry.total_dots):
            raise DotAddressError("dot index out of range")
        return self._erb_many(idx, rounds)

    def _erb_many(self, idx: np.ndarray, rounds: int) -> np.ndarray:
        if rounds < 1:
            raise ValueError("erb needs at least one verification round")
        n = int(idx.size)
        if n == 0:
            return np.zeros(0, dtype=bool)
        heated = self._sharpness[idx] < HEATED_SHARPNESS_THRESHOLD
        writable = ~heated
        if self._k_scale is not None:
            writable &= self._k_scale[idx] <= self.config.write_field
        n_verifies = 2 * rounds
        # Index of the first failed verification read per dot;
        # n_verifies means every verification passed ("U").
        fail_at = np.full(n, n_verifies, dtype=np.int64)
        # A defective (unwritable, unheated) dot fails the very first
        # verification: the inverse write latches nothing and the
        # stored bit reads back unchanged.
        fail_at[~heated & ~writable] = 0
        n_heated = int(heated.sum())
        if n_heated:
            # Every verification read of a heated dot is a coin flip
            # that matches the expected value with probability 1/2, so
            # the whole sequence passes with probability (1/4)**rounds.
            passes = self._rng.integers(
                0, 2, size=(n_heated, n_verifies), dtype=np.uint8)
            fails = passes == 0
            any_fail = fails.any(axis=1)
            first_fail = np.where(any_fail, fails.argmax(axis=1), n_verifies)
            fail_at[heated] = first_fail
        # No physical write is needed: heated and defective dots never
        # latch a field pulse, and each writable dot's inverse write is
        # exactly undone by its restore write, so the net magnetisation
        # is provably unchanged ("the two inversions ensure that the
        # original magnetic data is restored", Section 3).
        # Counters: a dot whose first failure is verification v consumed
        # v+1 inverse/restore writes and 1 + (v+1) reads before the
        # scalar sequence returns "H"; a passing dot consumed the full
        # 2*rounds writes and 1 + 2*rounds reads.
        verifies = np.minimum(fail_at + 1, n_verifies)
        total_verifies = int(verifies.sum())
        self.counters["mrb"] += n + total_verifies
        self.counters["mwb"] += total_verifies
        return fail_at < n_verifies

    # -- snapshot transport ------------------------------------------------------

    def __getstate__(self) -> dict:
        """Compact pickled form: the medium as a *snapshot*, not a dump.

        A fleet's rpc executor ships member state to workers when it
        pins them, so the pickled size is a real throughput knob.  Three observations make the snapshot ~10x smaller than
        the raw arrays:

        * magnetisation is ternary with an invariant — a dot's
          magnetisation is 0 exactly when it is heated below the
          sharpness threshold (nothing can write a heated dot) — so
          one packed sign bit per dot plus the sharpness map
          reconstructs it exactly;
        * sharpness is exactly 1.0 for every dot never touched by a
          heat pulse; only the touched entries need to travel — as a
          packed touched-dot bitmap (one bit per dot) plus their
          float32 values.  And because every dot is normally heated
          exactly once by the same pulse, those values are usually
          *one* repeated float, which then travels as a single scalar
          (media with collateral or repeated heating fall back to the
          full value array);
        * the fabrication k-scale is the *first* draw of the seeded
          RNG, so it regenerates bit-exactly from the config instead
          of travelling (the anisotropy model is likewise derived
          state).

        The live RNG travels by value, so a restored medium continues
        the exact random sequence — per-member results stay
        byte-identical to the serial pass.
        """
        touched = self._sharpness != np.float32(1.0)
        vals = self._sharpness[touched]
        uniform = bool(vals.size) and bool((vals == vals[0]).all())
        return {
            "geometry": self.geometry,
            "config": self.config,
            "rng": self._rng,
            "counters": self.counters,
            "mut_epoch": self._mut_epoch,
            "mag_bits": np.packbits(self._mag > 0),
            "touched_bits": np.packbits(touched),
            "sharp_vals": vals[:1] if uniform else vals,
            "sharp_uniform": uniform,
        }

    def __setstate__(self, state: dict) -> None:
        self.geometry = state["geometry"]
        self.config = state["config"]
        n = self.geometry.total_dots
        mag = np.where(
            np.unpackbits(state["mag_bits"], count=n).astype(bool),
            1, -1).astype(np.int8)
        sharpness = np.ones(n, dtype=np.float32)
        touched = np.unpackbits(state["touched_bits"], count=n).astype(bool)
        if state["sharp_uniform"]:
            sharpness[touched] = state["sharp_vals"][0]
        else:
            sharpness[touched] = state["sharp_vals"]
        mag[sharpness < HEATED_SHARPNESS_THRESHOLD] = 0
        self._mag = mag
        self._sharpness = sharpness
        self._rng = state["rng"]
        self.counters = state["counters"]
        self._mut_epoch = state.get("mut_epoch", 0)
        self._anisotropy = AnisotropyModel(stack=self.config.stack,
                                           dot=self.geometry.dot)
        # regenerated lazily on first access: the construction-time
        # draw was the seeded generator's first sample, so a fresh
        # generator replays it bit-exactly (see the _k_scale property)
        self._k_scale = None

    # -- statistics -------------------------------------------------------------

    def snapshot_states(self, start: int, end: int) -> List[str]:
        """Fig 2 state letters ('0'/'1'/'H') for dots [start, end)."""
        if not (0 <= start <= end <= self.geometry.total_dots):
            raise DotAddressError("dot span out of range")
        span = slice(start, end)
        out = np.where(self._mag[span] > 0, "1", "0")
        out[self._sharpness[span] < HEATED_SHARPNESS_THRESHOLD] = "H"
        return out.tolist()

"""Arrhenius interface-mixing kinetics (the heat / annealing process).

The write-once physics of the whole paper reduces to one irreversible
solid-state process: above a threshold temperature the Co and Pt atoms
at each interface interdiffuse, the interface anisotropy disappears and
the easy axis falls in plane (Section 7, Fig 7).  We model this with
first-order Arrhenius kinetics:

``ds/dt = -k(T) * s``  with  ``k(T) = k0 * exp(-Ea / (kB * T))``

where ``s`` is the interface *sharpness* (1 = as grown).  A second,
slower channel converts mixed material into fct CoPt grains (the Fig 9
crystallisation), which can never restore perpendicular anisotropy
because the grains' easy axes are tilted.

The default constants are calibrated so that a 30-minute anneal leaves
``K`` untouched up to 500 degC and destroys it above 600 degC, exactly
the shape of Fig 7.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Sequence, Union

import numpy as np

from ..units import KB, celsius_to_kelvin

EV = 1.602176634e-19


@dataclass(frozen=True)
class AnnealingKinetics:
    """Rate parameters for interface mixing and crystallisation.

    Attributes:
        mixing_ea: activation energy of interface interdiffusion [J].
        mixing_prefactor: Arrhenius attempt rate for mixing [1/s].
        crystallization_ea: activation energy of fct CoPt grain
            formation [J] (higher: grains only grow near 700 degC,
            matching "at 700 degC grains start to grow").
        crystallization_prefactor: attempt rate for crystallisation [1/s].
    """

    mixing_ea: float = 1.68 * EV
    mixing_prefactor: float = 2.4e6
    crystallization_ea: float = 2.05 * EV
    crystallization_prefactor: float = 1.1e7

    def mixing_rate(self, temperature_k: float) -> float:
        """Interface-mixing rate k(T) [1/s]."""
        if temperature_k <= 0:
            raise ValueError("temperature must be positive kelvin")
        return self.mixing_prefactor * math.exp(-self.mixing_ea / (KB * temperature_k))

    def crystallization_rate(self, temperature_k: float) -> float:
        """fct CoPt crystallisation rate [1/s]."""
        if temperature_k <= 0:
            raise ValueError("temperature must be positive kelvin")
        return self.crystallization_prefactor * math.exp(
            -self.crystallization_ea / (KB * temperature_k))


DEFAULT_KINETICS = AnnealingKinetics()


@dataclass
class FilmState:
    """Mutable microstructural state of (a region of) the film.

    Attributes:
        sharpness: interface sharpness in [0, 1]; 1 = as grown.
        crystalline_fraction: fraction converted to fct CoPt grains.
        thermal_history: list of (temperature_k, duration_s) applied.
    """

    sharpness: float = 1.0
    crystalline_fraction: float = 0.0
    thermal_history: List = field(default_factory=list)

    @property
    def is_destroyed(self) -> bool:
        """True once the interfaces are effectively gone (< 5% left).

        This is the physical meaning of a *heated* dot: the multilayer
        structure is irreversibly destroyed (Fig 8's vanished
        superlattice peak).
        """
        return self.sharpness < 0.05


def anneal(state: FilmState, temperature_c: float, duration_s: float,
           kinetics: AnnealingKinetics = DEFAULT_KINETICS) -> FilmState:
    """Apply an isothermal anneal to ``state`` in place and return it.

    The mixing ODE integrates exactly for an isothermal step:
    ``s -> s * exp(-k(T) * t)``.  Crystallisation follows
    Johnson-Mehl-Avrami with exponent 1 on the *mixed* fraction (grains
    nucleate from mixed material).  Both are one-way: nothing in this
    module can raise ``sharpness`` — that is the irreversibility the
    tamper evidence rests on.
    """
    if duration_s < 0:
        raise ValueError("anneal duration must be non-negative")
    temperature_k = celsius_to_kelvin(temperature_c)
    k_mix = kinetics.mixing_rate(temperature_k)
    state.sharpness *= math.exp(-k_mix * duration_s)
    k_cry = kinetics.crystallization_rate(temperature_k)
    mixed = 1.0 - state.sharpness
    growth = 1.0 - math.exp(-k_cry * duration_s)
    state.crystalline_fraction += (mixed - state.crystalline_fraction) * growth
    state.crystalline_fraction = min(max(state.crystalline_fraction, 0.0), 1.0)
    state.thermal_history.append((temperature_k, duration_s))
    return state


@dataclass
class FilmEnsemble:
    """Struct-of-arrays microstructure of N independent film samples.

    The array-native counterpart of :class:`FilmState` for the Fig 7/8/9
    sweeps: instead of annealing one ``FilmState`` per temperature point
    in a Python loop, a whole temperature grid anneals in a handful of
    whole-array operations.

    Attributes:
        sharpness: per-sample interface sharpness in [0, 1].
        crystalline_fraction: per-sample fct CoPt fraction.
        thermal_history: list of (temperatures_k, duration_s) steps
            applied to the ensemble; ``temperatures_k`` is a scalar
            (same for every sample) or a per-sample array.
    """

    sharpness: np.ndarray
    crystalline_fraction: np.ndarray
    thermal_history: List = field(default_factory=list)

    @classmethod
    def fresh(cls, n_samples: int) -> "FilmEnsemble":
        """N as-grown samples (sharpness 1, nothing crystallised)."""
        if n_samples < 0:
            raise ValueError("sample count must be non-negative")
        return cls(sharpness=np.ones(n_samples, dtype=float),
                   crystalline_fraction=np.zeros(n_samples, dtype=float))

    def __post_init__(self) -> None:
        self.sharpness = np.asarray(self.sharpness, dtype=float)
        self.crystalline_fraction = np.asarray(self.crystalline_fraction,
                                               dtype=float)
        if self.sharpness.shape != self.crystalline_fraction.shape:
            raise ValueError("ensemble arrays must have matching shapes")

    def __len__(self) -> int:
        return int(self.sharpness.size)

    @property
    def is_destroyed(self) -> np.ndarray:
        """Per-sample destroyed flag (< 5% interface left)."""
        return self.sharpness < 0.05

    def anneal(self, temperatures_c: Union[float, Sequence[float]],
               duration_s: float = 1800.0,
               kinetics: AnnealingKinetics = DEFAULT_KINETICS) -> "FilmEnsemble":
        """Isothermal anneal of every sample, in place; returns self.

        ``temperatures_c`` may be a scalar (every sample sees the same
        anneal) or one temperature per sample (the Fig 7 protocol).
        The kinetics are exactly :func:`anneal`'s, evaluated as array
        expressions: ``s -> s * exp(-k_mix(T) * t)`` and the JMA
        crystallisation step on the mixed fraction.
        """
        if duration_s < 0:
            raise ValueError("anneal duration must be non-negative")
        temps_c = np.asarray(temperatures_c, dtype=float)
        if temps_c.ndim not in (0, 1) or \
                (temps_c.ndim == 1 and temps_c.size != len(self)):
            raise ValueError(
                "temperatures must be a scalar or one per sample")
        temps_k = temps_c + 273.15
        if np.any(temps_k <= 0):
            raise ValueError("temperature must be positive kelvin")
        k_mix = kinetics.mixing_prefactor * np.exp(
            -kinetics.mixing_ea / (KB * temps_k))
        self.sharpness *= np.exp(-k_mix * duration_s)
        k_cry = kinetics.crystallization_prefactor * np.exp(
            -kinetics.crystallization_ea / (KB * temps_k))
        mixed = 1.0 - self.sharpness
        growth = 1.0 - np.exp(-k_cry * duration_s)
        self.crystalline_fraction += \
            (mixed - self.crystalline_fraction) * growth
        np.clip(self.crystalline_fraction, 0.0, 1.0,
                out=self.crystalline_fraction)
        self.thermal_history.append((temps_k, duration_s))
        return self

    def state(self, i: int) -> FilmState:
        """Snapshot of sample ``i`` as a scalar :class:`FilmState`."""
        history = []
        for temps_k, duration in self.thermal_history:
            t_k = float(temps_k[i]) if np.ndim(temps_k) else float(temps_k)
            history.append((t_k, duration))
        return FilmState(sharpness=float(self.sharpness[i]),
                         crystalline_fraction=float(
                             self.crystalline_fraction[i]),
                         thermal_history=history)

    def states(self) -> List[FilmState]:
        """All samples as scalar :class:`FilmState` snapshots."""
        return [self.state(i) for i in range(len(self))]


def anneal_series(temperatures_c: Sequence[float], duration_s: float = 1800.0,
                  kinetics: AnnealingKinetics = DEFAULT_KINETICS,
                  vectorized: bool = True) -> List[FilmState]:
    """Anneal one fresh sample per temperature (the Fig 7 protocol:
    "samples subjected to six different temperatures").

    By default the whole series anneals as one :class:`FilmEnsemble`
    pass; ``vectorized=False`` runs the per-sample loop, the reference
    path.
    """
    temps = list(temperatures_c)
    if vectorized:
        ensemble = FilmEnsemble.fresh(len(temps))
        ensemble.anneal(temps, duration_s, kinetics)
        return ensemble.states()
    samples = []
    for t_c in temps:
        sample = FilmState()
        anneal(sample, t_c, duration_s, kinetics)
        samples.append(sample)
    return samples


def destruction_temperature(kinetics: AnnealingKinetics = DEFAULT_KINETICS,
                            duration_s: float = 1800.0,
                            threshold: float = 0.05):
    """Lowest temperature [degC] whose anneal drives sharpness below
    ``threshold`` — i.e. the minimum usable heat-operation temperature.

    Solved analytically from ``exp(-k(T) t) = threshold``.  Accepts a
    scalar ``duration_s``/``threshold`` (returns a float) or arrays
    (returns the broadcast array), so whole duration sweeps evaluate in
    one pass.
    """
    duration = np.asarray(duration_s, dtype=float)
    thresh = np.asarray(threshold, dtype=float)
    needed_rate = -np.log(thresh) / duration
    t_kelvin = kinetics.mixing_ea / (
        KB * np.log(kinetics.mixing_prefactor / needed_rate))
    out = t_kelvin - 273.15
    if out.ndim == 0:
        return float(out)
    return out

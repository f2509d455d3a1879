"""Pluggable channel laws: one interface, every fading model.

Every fading model the Monte-Carlo replay can draw from is a law here:
:mod:`repro.sim`, :mod:`repro.experiments` and the CLI select one by
spec, and the success estimate under any law is
``simulate_schedule(problem, active, channel=spec).per_link_success``.
This module turns "which channel?" into data: a :class:`ChannelLaw`
bundles

- the deterministic mean-power matrix (shared
  :func:`~repro.channel.sampling.fading_means` path loss x transmit
  power),
- a trial sampler compatible with
  :func:`~repro.channel.sampling.iter_fading_trials`'s chunked
  RNG-stream contract (chunking along the trial axis never changes the
  drawn bits — see `Stream contract`_ below), and
- :meth:`ChannelLaw.success_probability`, the per-link success
  probability in closed form where one exists and ``None`` where the
  law is Monte-Carlo only: Rayleigh's Thm 3.1
  (:meth:`~repro.core.problem.FadingRLS.success_probabilities`) and
  the deterministic model's SINR indicator.

Laws register by name in :data:`CHANNEL_LAWS` and are selected by
**spec strings** — ``"rayleigh"``, ``"nakagami:m=2"``,
``"shadowing:sigma_db=6"``, ``"shadowing:sigma_db=4,static=true"``,
``"deterministic"`` — which are picklable, hashable, CLI-friendly, and
round-trip through :func:`get_channel_law` / :attr:`ChannelLaw.spec`.

Stream contract
---------------
Each law consumes its generator(s) element-wise in C order over the
``(T, K, K)`` index space, so drawing ``(t1, K, K)`` then ``(t2, K, K)``
concatenates to the same bits as one ``(t1 + t2, K, K)`` draw:

- ``rayleigh`` uses the single exponential stream of
  :mod:`repro.channel.sampling`'s layout contract;
- ``nakagami`` fills one gamma stream the same way;
- ``shadowing`` splits the root generator into **two** spawned
  sub-streams (shadow gains, then Rayleigh variates), each consumed in
  C order, so per-chunk interleaving cannot shift either stream.  At
  ``sigma_db = 0`` it skips the split and is the Rayleigh law's own
  draw — the ``shadowing-zero-recovers-rayleigh`` relation pins
  bit-level recovery;
- ``deterministic`` consumes no randomness at all.

Feasibility contract
--------------------
Schedulers keep the paper's Rayleigh/Cor. 3.1 feasibility test
regardless of the simulated law (see ``docs/CHANNELS.md``): for
Nakagami ``m >= 1`` the test is *conservative* (milder fading only
raises success probabilities), for shadowing it is the certified
baseline the composite is measured against.  The channel law changes
what the Monte-Carlo replay samples, never what the scheduler admits.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from typing import Any, Dict, Optional, Tuple, Type, Union

import numpy as np

from repro.channel.sampling import fading_means
from repro.utils.rng import spawn_rngs

LN10_OVER_10 = np.log(10.0) / 10.0


def _lognormal_factor(
    rng: np.random.Generator, sigma_db: float, shape: tuple, normalize: bool
) -> np.ndarray:
    """Sample the shadowing gain ``10^(G/10)``; unit mean if normalised."""
    if sigma_db == 0.0:
        return np.ones(shape)
    sigma_nat = sigma_db * LN10_OVER_10
    gains = np.exp(rng.normal(0.0, sigma_nat, size=shape))
    if normalize:
        gains /= np.exp(0.5 * sigma_nat**2)  # E[lognormal] correction
    return gains


@dataclass(frozen=True)
class ChannelLaw:
    """Base class of all channel laws (see the module docstring).

    Subclasses are frozen dataclasses whose fields are the law's
    parameters; :attr:`spec` serialises ``name`` + parameters into the
    canonical spec string and :func:`get_channel_law` parses it back.
    """

    #: Registry name; subclasses override.
    name = "abstract"

    # -- identity ----------------------------------------------------
    def params(self) -> Dict[str, Any]:
        """The law's parameters as an ordered field dict."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @property
    def spec(self) -> str:
        """Canonical spec string, e.g. ``"nakagami:m=2"``."""
        params = self.params()
        if not params:
            return self.name
        body = ",".join(f"{k}={_format_param(v)}" for k, v in params.items())
        return f"{self.name}:{body}"

    # -- closed form -------------------------------------------------
    def success_probability(self, problem, active) -> Optional[np.ndarray]:
        """Exact per-link success probabilities, or ``None`` (MC only).

        Returns a ``(K,)`` array over the sorted active set when the law
        admits a closed form under ``problem``'s parameters; whether a
        law has one is exactly whether this returns ``None``.
        """
        return None

    # -- sampling ----------------------------------------------------
    def start_stream(self, rng: np.random.Generator, means: np.ndarray):
        """Per-replay sampler state consumed by :meth:`sample_chunk`.

        The default state is the generator itself; laws needing several
        independent sub-streams (shadowing) or precomputed factors
        (static shadowing) override this.  Called once before the first
        chunk; the returned state is threaded through every chunk.
        """
        return rng

    def sample_chunk(self, state, means: np.ndarray, t_c: int) -> np.ndarray:
        """Draw one ``(t_c, K, K)`` chunk of instantaneous powers."""
        raise NotImplementedError


def _format_param(value: Any) -> str:
    """Spec-string rendering of one parameter value."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float) and value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value) if not isinstance(value, str) else value


def _finite_float(law: ChannelLaw, field_name: str) -> float:
    """Validate one real parameter and store it as a plain ``float``.

    Bools, non-numbers, NaN and infinities raise ``ValueError``: none of
    them has a spec string that parses back to an equal law.
    """
    value = getattr(law, field_name)
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ValueError(f"{field_name} must be a finite number, got {value!r}")
    object.__setattr__(law, field_name, float(value))
    return float(value)


def _closed_form_rayleigh(problem, active) -> np.ndarray:
    """Thm 3.1 per-link success over the sorted active set."""
    mask = problem.active_mask(active)
    idx = np.flatnonzero(mask)
    return problem.success_probabilities(idx)[idx]


@dataclass(frozen=True)
class RayleighLaw(ChannelLaw):
    """The paper's channel: exponential power around the mean (Eq. 5).

    Closed form: Thm 3.1.  The sampler is the stream layout of
    :mod:`repro.channel.sampling` (one exponential stream, C order,
    means scaled in after the draw) and the default law of every
    replay; :class:`ShadowingLaw` reuses it.
    """

    name = "rayleigh"

    def success_probability(self, problem, active) -> np.ndarray:
        """Thm 3.1 exactly (the paper's closed form)."""
        return _closed_form_rayleigh(problem, active)

    @staticmethod
    def unit_power(rng: np.random.Generator, t_c: int, k: int) -> np.ndarray:
        """``(t_c, K, K)`` unit-mean powers: Exp(1) variates in C order."""
        return rng.standard_exponential(size=(t_c, k, k))

    def sample_chunk(self, state, means: np.ndarray, t_c: int) -> np.ndarray:
        """One exponential stream in C order, means scaled in after."""
        z = self.unit_power(state, t_c, means.shape[0])
        z *= means[None, :, :]
        return z


_RAYLEIGH = RayleighLaw()


@dataclass(frozen=True)
class NakagamiLaw(ChannelLaw):
    """Nakagami-m fading: Gamma(``m``, mean/``m``) instantaneous power.

    ``m = 1`` is exactly Rayleigh *in distribution* (the gamma sampler
    consumes the stream differently, so agreement with the Rayleigh
    closed form is statistical, not bit-level — the
    ``nakagami-unit-closed-form`` relation pins it within Monte-Carlo
    bounds); larger ``m`` is milder fading, ``m -> inf`` approaches the
    deterministic model.
    """

    name = "nakagami"
    m: float = 1.0

    def __post_init__(self) -> None:
        if _finite_float(self, "m") <= 0:
            raise ValueError(f"m must be > 0, got {self.m}")

    def success_probability(self, problem, active) -> Optional[np.ndarray]:
        """Thm 3.1 at ``m = 1`` (Rayleigh in distribution); else MC only."""
        if self.m != 1.0:
            return None
        return _closed_form_rayleigh(problem, active)

    def sample_chunk(self, state, means: np.ndarray, t_c: int) -> np.ndarray:
        """One Gamma(m, mean/m) stream in C order."""
        k = means.shape[0]
        z = state.gamma(shape=self.m, scale=1.0 / self.m, size=(t_c, k, k))
        z *= means[None, :, :]
        return z


@dataclass(frozen=True)
class ShadowingLaw(ChannelLaw):
    """Suzuki composite: mean-corrected log-normal shadowing x Rayleigh.

    ``sigma_db`` is the shadowing spread in decibels; ``static=True``
    draws one obstacle field per replay (shared by all trials),
    ``static=False`` (default) redraws it per trial, marginalising over
    deployments.  The shadow and Rayleigh variates come from two
    independent sub-generators spawned from the replay seed so the
    chunked stream contract holds; ``sigma_db = 0`` bypasses the split
    and reproduces the Rayleigh bits exactly.
    """

    name = "shadowing"
    sigma_db: float = 6.0
    static: bool = False

    def __post_init__(self) -> None:
        if _finite_float(self, "sigma_db") < 0:
            raise ValueError(f"sigma_db must be >= 0, got {self.sigma_db}")
        if not isinstance(self.static, bool):
            raise ValueError(f"static must be true or false, got {self.static!r}")

    def success_probability(self, problem, active) -> Optional[np.ndarray]:
        """Thm 3.1 at ``sigma_db = 0`` (pure Rayleigh); else MC only."""
        if self.sigma_db != 0.0:
            return None
        return _closed_form_rayleigh(problem, active)

    def start_stream(self, rng: np.random.Generator, means: np.ndarray):
        """Split the replay seed into (shadow, Rayleigh) sub-streams.

        With ``static=True`` the shadow field is drawn here, once per
        replay; ``sigma_db = 0`` skips the split (exact Rayleigh bits).
        """
        if self.sigma_db == 0.0:
            return rng
        shadow_rng, ray_rng = spawn_rngs(rng, 2)
        if self.static:
            factor = _lognormal_factor(shadow_rng, self.sigma_db, means.shape, True)
            return (factor, ray_rng)
        return (shadow_rng, ray_rng)

    def sample_chunk(self, state, means: np.ndarray, t_c: int) -> np.ndarray:
        """Rayleigh chunk times the (per-trial or frozen) shadow factor."""
        if self.sigma_db == 0.0:
            return _RAYLEIGH.sample_chunk(state, means, t_c)
        k = means.shape[0]
        shadow_state, ray_rng = state
        z = RayleighLaw.unit_power(ray_rng, t_c, k)
        if self.static:
            z *= shadow_state[None, :, :]
        else:
            z *= _lognormal_factor(shadow_state, self.sigma_db, (t_c, k, k), True)
        z *= means[None, :, :]
        return z


@dataclass(frozen=True)
class DeterministicLaw(ChannelLaw):
    """No fading: every trial receives exactly the mean power.

    The classical physical (SINR) model the ApproxLogN / ApproxDiversity
    baselines assume.  Consumes no randomness; the closed form is the
    0/1 indicator of the deterministic SINR test.
    """

    name = "deterministic"

    def success_probability(self, problem, active) -> np.ndarray:
        """0/1 indicator of the deterministic SINR test per active link."""
        idx, means = fading_means(
            problem.distances(),
            problem.active_mask(active),
            problem.alpha,
            power=problem.tx_powers(),
        )
        if idx.size == 0:
            return np.zeros(0, dtype=float)
        signal = np.diag(means)
        interference = means.sum(axis=0) - signal + problem.noise
        with np.errstate(divide="ignore", invalid="ignore"):
            sinr = np.where(interference > 0, signal / interference, np.inf)
        return (sinr >= problem.gamma_th).astype(float)

    def sample_chunk(self, state, means: np.ndarray, t_c: int) -> np.ndarray:
        """Every trial is exactly the mean-power matrix."""
        return np.tile(means, (t_c, 1, 1))


#: Registered channel laws, name -> law class.
CHANNEL_LAWS: Dict[str, Type[ChannelLaw]] = {
    RayleighLaw.name: RayleighLaw,
    NakagamiLaw.name: NakagamiLaw,
    ShadowingLaw.name: ShadowingLaw,
    DeterministicLaw.name: DeterministicLaw,
}


def register_channel_law(cls: Type[ChannelLaw]) -> Type[ChannelLaw]:
    """Register a :class:`ChannelLaw` subclass under ``cls.name``.

    Usable as a class decorator; re-registration of an existing name
    raises (shadowing a law silently would corrupt recorded specs).
    """
    name = cls.name
    if name in CHANNEL_LAWS and CHANNEL_LAWS[name] is not cls:
        raise ValueError(f"channel law {name!r} is already registered")
    CHANNEL_LAWS[name] = cls
    return cls


def channel_law_names() -> Tuple[str, ...]:
    """Sorted registered law names (for CLI help and validation errors)."""
    return tuple(sorted(CHANNEL_LAWS))


def _parse_param(raw: str) -> Any:
    """One ``key=value`` value: bool words, else int-like, else float."""
    low = raw.strip().lower()
    if low in ("true", "yes", "on"):
        return True
    if low in ("false", "no", "off"):
        return False
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"cannot parse channel parameter value {raw!r}") from None


ChannelLike = Union[None, str, ChannelLaw]


def get_channel_law(spec: ChannelLike) -> ChannelLaw:
    """Resolve a law instance, name, or spec string to a law instance.

    ``None`` and ``"rayleigh"`` resolve to the default
    :class:`RayleighLaw`; ``"name:key=value,..."`` constructs the named
    law with the given parameters.  Raises ``ValueError`` for unknown
    names (the message lists the registered names), unknown or repeated
    parameters, and values the law rejects.
    """
    if spec is None:
        return RayleighLaw()
    if isinstance(spec, ChannelLaw):
        return spec
    text = str(spec).strip()
    name, _, body = text.partition(":")
    name = name.strip()
    cls = CHANNEL_LAWS.get(name)
    if cls is None:
        raise ValueError(
            f"unknown channel law {name!r}; registered laws: "
            f"{', '.join(channel_law_names())}"
        )
    kwargs: Dict[str, Any] = {}
    if body.strip():
        for item in body.split(","):
            key, sep, raw = item.partition("=")
            if not sep or not key.strip():
                raise ValueError(
                    f"bad channel spec {text!r}: expected name:key=value[,key=value...]"
                )
            key = key.strip()
            if key in kwargs:
                raise ValueError(f"bad channel spec {text!r}: repeated parameter {key!r}")
            kwargs[key] = _parse_param(raw)
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ValueError(f"bad parameters for channel law {name!r}: {exc}") from None

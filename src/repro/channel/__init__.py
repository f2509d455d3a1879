"""Channel models.

- :mod:`repro.channel.laws` — the pluggable :class:`ChannelLaw`
  interface and registry (``rayleigh`` | ``nakagami`` | ``shadowing`` |
  ``deterministic``) the simulator, experiments and CLI select from
  (see ``docs/CHANNELS.md``).  Every fading draw goes through a law,
  and :meth:`ChannelLaw.success_probability` is the one closed-form
  hook: Theorem 3.1 for Rayleigh fading (computed by
  :meth:`repro.core.problem.FadingRLS.success_probabilities`), the SINR
  indicator for the deterministic physical model, ``None`` where a law
  is Monte-Carlo only,
- :mod:`repro.channel.sampling` — the Eq. 4 mean-power matrix
  ``P * d^-alpha`` every law shares (:func:`fading_means`), and the
  batched and streaming (memory-bounded) Monte-Carlo draws consumed by
  :mod:`repro.sim`, parametrised by a channel law.
"""

from repro.channel.laws import (
    CHANNEL_LAWS,
    ChannelLaw,
    DeterministicLaw,
    NakagamiLaw,
    RayleighLaw,
    ShadowingLaw,
    channel_law_names,
    get_channel_law,
    register_channel_law,
)
from repro.channel.sampling import fading_means, iter_fading_trials, sample_fading_trials

__all__ = [
    "sample_fading_trials",
    "iter_fading_trials",
    "fading_means",
    # channel-law interface (docs/CHANNELS.md)
    "ChannelLaw",
    "RayleighLaw",
    "NakagamiLaw",
    "ShadowingLaw",
    "DeterministicLaw",
    "CHANNEL_LAWS",
    "get_channel_law",
    "register_channel_law",
    "channel_law_names",
]

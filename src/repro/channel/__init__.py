"""Channel models.

- :mod:`repro.channel.pathloss` — the log-distance mean power law
  ``P * d^-alpha`` shared by every law,
- :mod:`repro.channel.deterministic` — the classical physical (SINR)
  model used by the ApproxLogN / ApproxDiversity baselines,
- :mod:`repro.channel.rayleigh` — the Rayleigh-fading law's closed
  forms: the received-power CDF (Eq. 5) and the success probability of
  Theorem 3.1,
- :mod:`repro.channel.laws` — the pluggable :class:`ChannelLaw`
  interface and registry (``rayleigh`` | ``nakagami`` | ``shadowing`` |
  ``deterministic``) the simulator, experiments and CLI select from
  (see ``docs/CHANNELS.md``); every fading draw — Rayleigh,
  Nakagami-m, Suzuki shadowing — goes through it,
- :mod:`repro.channel.sampling` — batched and streaming (memory-bounded)
  Monte-Carlo draws consumed by :mod:`repro.sim`, parametrised by a
  channel law.
"""

from repro.channel.deterministic import deterministic_sinr, deterministic_success
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
from repro.channel.pathloss import mean_received_power, pathloss_matrix
from repro.channel.rayleigh import received_power_cdf, success_probability
from repro.channel.sampling import (
    DEFAULT_MAX_BYTES,
    fading_means,
    iter_fading_trials,
    sample_fading_trials,
    trial_chunk_size,
)

__all__ = [
    "mean_received_power",
    "pathloss_matrix",
    "deterministic_sinr",
    "deterministic_success",
    "received_power_cdf",
    "success_probability",
    "sample_fading_trials",
    "iter_fading_trials",
    "fading_means",
    "trial_chunk_size",
    "DEFAULT_MAX_BYTES",
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

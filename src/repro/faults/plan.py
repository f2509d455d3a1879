"""Fault plans: which unit fails, how, and for how many attempts.

A plan is pure data — a mapping from work-unit keys (the executor's
``unit_key`` strings) to fault specifications.  Everything is
deterministic: hand-written plans are explicit, and
:meth:`FaultPlan.from_seed` derives the faulted subset and kinds from a
root seed via :func:`repro.utils.rng.stable_seed`, so a chaos test can
regenerate the exact same adversity on every run.

Plans serialise to compact JSON (:meth:`FaultPlan.to_json`) because the
activation mechanism is an environment variable — see
:mod:`repro.faults.inject`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

from repro.utils.rng import stable_seed

#: Supported fault kinds:
#:
#: - ``crash``  — raise :class:`~repro.faults.inject.InjectedFault`;
#: - ``die``    — kill the worker process outright (``os._exit``),
#:   breaking the whole pool; downgraded to ``crash`` when injected in
#:   the coordinating parent process;
#: - ``hang``   — sleep ``seconds`` (tripping any per-unit timeout),
#:   then raise so serial execution also terminates;
#: - ``poison`` — return a :class:`~repro.faults.inject.PoisonResult`
#:   instead of running the unit (models corrupt worker output);
#: - ``oom``    — raise ``MemoryError``, as a worker that cannot
#:   allocate even one fading chunk would.
FAULT_KINDS: Tuple[str, ...] = ("crash", "die", "hang", "poison", "oom")


@dataclass(frozen=True)
class FaultSpec:
    """One unit's fault: ``kind`` armed for its first ``attempts`` tries.

    The injection predicate is ``attempt < attempts`` — attempt numbers
    are 0-based, so ``attempts=2`` fails the first two tries and lets
    the third through.  ``seconds`` only matters for ``hang``.
    """

    kind: str
    attempts: int = 1
    seconds: float = 5.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; choose from {FAULT_KINDS}")
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts}")
        if not self.seconds > 0:
            raise ValueError(f"seconds must be > 0, got {self.seconds}")

    def fires(self, attempt: int) -> bool:
        """Whether the fault is armed for 0-based try ``attempt``."""
        return attempt < self.attempts


@dataclass(frozen=True)
class FaultPlan:
    """Immutable mapping of work-unit keys to :class:`FaultSpec`\\ s."""

    faults: Mapping[str, FaultSpec]

    def __post_init__(self) -> None:
        fixed: Dict[str, FaultSpec] = {}
        for key, spec in dict(self.faults).items():
            if not isinstance(spec, FaultSpec):
                raise TypeError(f"plan entry {key!r} is not a FaultSpec: {spec!r}")
            fixed[str(key)] = spec
        object.__setattr__(self, "faults", fixed)

    def __len__(self) -> int:
        return len(self.faults)

    @property
    def is_empty(self) -> bool:
        return not self.faults

    def spec_for(self, key: str) -> Optional[FaultSpec]:
        """The fault armed for ``key``, or ``None``."""
        return self.faults.get(key)

    def to_json(self) -> str:
        """Compact, key-sorted JSON (the env-var wire format)."""
        return json.dumps(
            {
                key: {"kind": s.kind, "attempts": s.attempts, "seconds": s.seconds}
                for key, s in self.faults.items()
            },
            sort_keys=True,
            separators=(",", ":"),
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Inverse of :meth:`to_json`; raises ``ValueError`` on junk."""
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed fault plan JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ValueError(f"fault plan must be a JSON object, got {type(raw).__name__}")
        faults = {}
        for key, entry in raw.items():
            if not isinstance(entry, dict) or "kind" not in entry:
                raise ValueError(f"fault plan entry {key!r} is malformed: {entry!r}")
            faults[key] = FaultSpec(
                kind=entry["kind"],
                attempts=int(entry.get("attempts", 1)),
                seconds=float(entry.get("seconds", 5.0)),
            )
        return cls(faults)

    @classmethod
    def from_seed(
        cls,
        seed: int,
        keys: Iterable[str],
        *,
        rate: float = 0.25,
        kinds: Sequence[str] = ("crash", "poison", "oom"),
        attempts: int = 1,
        seconds: float = 5.0,
    ) -> "FaultPlan":
        """Derive a plan over ``keys``: each key faulted with ``rate``.

        Both the faulted subset and each fault's kind derive from
        ``stable_seed`` of ``(seed, key)``, so the plan depends only on
        the key set and the seed — never on iteration order or process.
        """
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {rate}")
        for kind in kinds:
            if kind not in FAULT_KINDS:
                raise ValueError(f"unknown fault kind {kind!r}; choose from {FAULT_KINDS}")
        faults: Dict[str, FaultSpec] = {}
        for key in keys:
            draw = stable_seed("fault-draw", key, root=seed) / float(1 << 63)
            if draw >= rate:
                continue
            kind = kinds[stable_seed("fault-kind", key, root=seed) % len(kinds)]
            faults[str(key)] = FaultSpec(kind=kind, attempts=attempts, seconds=seconds)
        return cls(faults)

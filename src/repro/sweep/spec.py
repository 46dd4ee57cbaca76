"""`JobSpec`: the declarative description of one simulated job.

A :class:`JobSpec` freezes everything that describes one job (app,
ntasks, cluster shape, seed, IPM config, noise, faults, …) into one
hashable, JSON-round-trippable value — *the* job description:

* ``run_job(spec)`` executes it (:func:`repro.cluster.jobs.run_job`
  takes nothing else);
* :meth:`JobSpec.content_hash` content-addresses it, which is what the
  sweep result cache keys on;
* :meth:`JobSpec.to_json` / :meth:`JobSpec.from_json` move it across
  process and CLI boundaries.

Determinism is the load-bearing property: the simulation is a pure
function of the spec, so ``spec -> JobReport`` is reproducible
byte-for-byte and caching/parallelism cannot change results.

The ``app`` field is normally a registry name (``"hpl"``, ``"square"``,
…; see :mod:`repro.sweep.registry`).  A bare ``app(env)`` callable is
accepted as the in-process escape hatch for workloads that are not
registered (tests, examples, ad-hoc programs) — such specs run, but
refuse to serialize or content-hash.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields, replace
from typing import Any, Callable, Mapping, Optional, Tuple, Union

from repro.core.ipm import IpmConfig
from repro.faults.plan import FaultPlan
from repro.simt.noise import NoiseConfig
from repro.sweep import codec

#: bumped when the execution semantics of a spec change incompatibly —
#: part of the content hash, so stale cache entries miss instead of
#: resurfacing results computed under old semantics.
SPEC_SCHEMA = 1

_JSONABLE = (str, int, float, bool, type(None))


def _freeze_param(name: str, value: Any) -> Any:
    """Normalize one app_params value to an immutable, encodable form."""
    if isinstance(value, _JSONABLE):
        return value
    if isinstance(value, (list, tuple)):
        return tuple(_freeze_param(name, v) for v in value)
    raise TypeError(
        f"app_params[{name!r}] must be JSON-primitive data, "
        f"got {type(value).__name__}"
    )


@dataclass(frozen=True)
class JobSpec:
    """Everything needed to (re)run one job, and nothing else."""

    #: registry name of the workload (canonical) or a raw ``app(env)``
    #: callable (in-process escape hatch: runnable, not serializable).
    app: Union[str, Callable[[Any], Any]]
    #: number of MPI ranks.
    ntasks: int
    #: workload parameters: config-field overrides plus the optional
    #: ``preset`` key (see :mod:`repro.sweep.registry`).  Stored as a
    #: name-sorted tuple of pairs so the spec stays hashable.
    app_params: Tuple[Tuple[str, Any], ...] = ()
    #: reported command line (banner/XML header).
    command: str = "./a.out"
    #: nodes in the fresh Dirac cluster (None sizes it from ntasks).
    n_nodes: Optional[int] = None
    ranks_per_node: int = 1
    seed: int = 0
    #: IPM monitoring configuration; None runs unmonitored.
    ipm: Optional[IpmConfig] = None
    #: OS-noise model; None disables noise.
    noise: Optional[NoiseConfig] = None
    #: fault plan; None (and ``ipm.faults`` unset) runs clean.
    faults: Optional[FaultPlan] = None
    #: attach the CUDA-profiler emulation to every rank.
    cuda_profile: bool = False

    def __post_init__(self) -> None:
        if not (isinstance(self.app, str) or callable(self.app)):
            raise TypeError(
                f"app must be a registry name or a callable: {self.app!r}"
            )
        if self.ntasks <= 0:
            raise ValueError(f"ntasks must be positive: {self.ntasks}")
        if self.ranks_per_node <= 0:
            raise ValueError(
                f"ranks_per_node must be positive: {self.ranks_per_node}"
            )
        if self.n_nodes is not None and self.n_nodes <= 0:
            raise ValueError(f"n_nodes must be positive: {self.n_nodes}")
        params = self.app_params
        if isinstance(params, Mapping):
            items = params.items()
        else:
            items = tuple(params)
        frozen = tuple(sorted(
            (str(k), _freeze_param(str(k), v)) for k, v in items
        ))
        names = [k for k, _ in frozen]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate app_params keys: {names}")
        object.__setattr__(self, "app_params", frozen)
        for name, cls in (("ipm", IpmConfig), ("noise", NoiseConfig),
                          ("faults", FaultPlan)):
            value = getattr(self, name)
            if value is not None and not isinstance(value, cls):
                raise TypeError(
                    f"{name} must be {cls.__name__} or None, "
                    f"got {type(value).__name__}"
                )

    # -- identity ---------------------------------------------------------

    @property
    def serializable(self) -> bool:
        """True when the spec can round-trip JSON (registry-named app)."""
        return isinstance(self.app, str)

    def params(self) -> dict:
        """The app_params as a plain dict (copy)."""
        return dict(self.app_params)

    def to_jsonable(self) -> dict:
        """Encode to plain JSON-able data (canonical field order)."""
        if not self.serializable:
            raise TypeError(
                "a JobSpec wrapping a raw callable cannot be serialized; "
                "register the workload (repro.sweep.registry.register_app) "
                "and name it by string instead"
            )
        out: dict = {"schema": SPEC_SCHEMA}
        for f in fields(self):
            out[f.name] = codec.encode(getattr(self, f.name))
        return out

    def to_json(self) -> str:
        """Canonical JSON text (stable key order and spacing)."""
        return json.dumps(self.to_jsonable(), sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def from_jsonable(cls, data: Mapping[str, Any]) -> "JobSpec":
        if not isinstance(data, Mapping):
            raise ValueError(f"a JobSpec must decode from an object: {data!r}")
        schema = data.get("schema", SPEC_SCHEMA)
        if schema != SPEC_SCHEMA:
            raise ValueError(
                f"unsupported JobSpec schema {schema!r} (expected {SPEC_SCHEMA})"
            )
        known = {f.name for f in fields(cls)}
        unknown = [k for k in data if k != "schema" and k not in known]
        if unknown:
            raise ValueError(f"unknown JobSpec fields: {sorted(unknown)}")
        if "app" not in data or "ntasks" not in data:
            raise ValueError("a JobSpec needs at least 'app' and 'ntasks'")
        kwargs = {k: codec.decode(v) for k, v in data.items() if k != "schema"}
        return cls(**kwargs)

    @classmethod
    def from_json(cls, text: str) -> "JobSpec":
        return cls.from_jsonable(json.loads(text))

    def content_hash(self) -> str:
        """SHA-256 over the canonical JSON — the cache/identity key.

        Equal specs hash equal; changing any field changes the hash.
        """
        digest = hashlib.sha256(self.to_json().encode("utf-8"))
        return digest.hexdigest()

    def replace(self, **changes: Any) -> "JobSpec":
        """A copy with ``changes`` applied (dataclasses.replace)."""
        return replace(self, **changes)

    def config_hash(self) -> str:
        """Seed- and fault-independent configuration identity.

        The :meth:`content_hash` of this spec with ``seed`` zeroed and
        every fault plan stripped (both ``faults`` and ``ipm.faults``).
        An ensemble over seeds shares one config hash — its members are
        samples of the same configuration — and a fault-perturbed run
        keeps the hash of its clean baseline, which is what lets the
        sweep differ match "the same config, now misbehaving" across
        two sweeps instead of treating it as a brand-new spec.
        """
        ipm = self.ipm
        if ipm is not None and ipm.faults is not None:
            ipm = replace(ipm, faults=None)
        return self.replace(seed=0, faults=None, ipm=ipm).content_hash()

    # -- execution --------------------------------------------------------

    def build_app(self) -> Callable[[Any], Any]:
        """Resolve the workload callable this spec names."""
        if callable(self.app):
            if self.app_params:
                raise TypeError(
                    "app_params require a registry-named app; a raw "
                    "callable already closes over its parameters"
                )
            return self.app
        from repro.sweep.registry import build_app

        return build_app(self.app, dict(self.app_params))

"""One typed boundary from user input to a :class:`~repro.run.sweep.SweepSpec`.

CLI ``sweep``, CLI ``submit`` and the job service all describe a sweep
as a :class:`SweepRequest`.  :meth:`SweepRequest.from_payload` checks a
wire payload's shape, :meth:`SweepRequest.from_args` builds the same
request from command-line arguments, and :meth:`SweepRequest.build`
turns either into a validated sweep: every axis value is typed by
:func:`~repro.config.system.field_value` and every grid point's config
is constructed once.  Every rejection is a :class:`~repro.errors.ReproError`
(a :class:`~repro.errors.ConfigError`, or a
:class:`~repro.errors.TopologyError` for a bad topology), never a bare
``TypeError`` mid-run.
"""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass
from pathlib import Path

from repro.config.parser import parse_config_text
from repro.config.presets import available_presets, get_preset
from repro.config.system import SystemConfig, _require, field_value
from repro.errors import ConfigError, TopologyError
from repro.run.sweep import FAILURE_POLICIES, Axis, SweepSpec, _split_field_path
from repro.topology.models import available_models, get_model
from repro.topology.topology import Topology

#: Job and topology names must stay path- and CSV-safe.
_NAME_RE = re.compile(r"[A-Za-z0-9_.-]{1,64}")

#: Field types are declared per section, so any config types a value.
_TYPES = SystemConfig()


@dataclass(frozen=True)
class SweepRequest:
    """What to sweep, and how: the wire form of a sweep.

    The wire payload is a JSON object::

        {
          "name": "channels",                  # optional, path-safe
          "preset": "scale_sim_v2_default",    # XOR "config_text": "..."
          "model": "resnet18",                 # XOR "topology_csv": "..."
          "scale": 8,                          # model divisor, default 1
          "topology_name": "resnet18",         # name for inline CSVs
          "axes": {"dram.channels": [1, 2]},   # or [{"field":..,"values":[..]}]
          "failure_policy": "degrade",         # default degrade
          "max_attempts": 3                    # optional, >= 1
        }

    Exactly one config source and one workload source are required.
    The payload round-trips through :meth:`to_payload`: the service
    journals it in a job's ``submitted`` event and rebuilds the sweep
    from it after a crash.
    """

    name: str = "job"
    preset: str | None = None
    config_text: str | None = None
    model: str | None = None
    topology_csv: str | None = None
    topology_name: str = "topology"
    scale: int = 1
    axes: tuple[tuple[str, tuple], ...] = ()
    failure_policy: str = "degrade"
    max_attempts: int | None = None

    def __post_init__(self) -> None:
        names = {"job name": self.name, "topology_name": self.topology_name}
        for label, name in names.items():
            _require(
                isinstance(name, str) and _NAME_RE.fullmatch(name),
                f"{label} must be 1-64 characters of [A-Za-z0-9_.-]",
            )
        for first, second, choices in (
            ("preset", "config_text", available_presets()),
            ("model", "topology_csv", available_models()),
        ):
            named, text = getattr(self, first), getattr(self, second)
            _require(
                (named is None) != (text is None),
                f"exactly one of {first!r} or {second!r} is required",
            )
            _require(
                named is None or named in choices,
                f"unknown {first} {named!r}; available: {', '.join(choices)}",
            )
            _require(text is None or isinstance(text, str), f"{second!r} must be a string")
        for label in ("scale", "max_attempts"):
            value = getattr(self, label)
            _require(
                (value is None and label == "max_attempts")
                or (isinstance(value, int) and not isinstance(value, bool) and value >= 1),
                f"{label} must be a positive integer, got {value!r}",
            )
        _require(
            self.failure_policy in FAILURE_POLICIES,
            f"failure_policy must be one of {FAILURE_POLICIES}, "
            f"got {self.failure_policy!r}",
        )

    @classmethod
    def from_payload(cls, payload: object) -> SweepRequest:
        """Check a wire payload's shape; raises :class:`ConfigError`."""
        if not isinstance(payload, dict):
            raise ConfigError("job payload must be a JSON object")
        unknown = sorted(set(payload) - {f.name for f in dataclasses.fields(cls)})
        if unknown:
            raise ConfigError(f"unknown job field(s): {', '.join(unknown)}")
        return cls(**{**payload, "axes": _wire_axes(payload.get("axes", []))})

    @classmethod
    def from_args(cls, args) -> SweepRequest:
        """The request a CLI ``sweep`` or ``submit`` invocation describes.

        File arguments are inlined (config text, topology CSV), so a
        server needs no filesystem shared with the client.  Each
        ``--set FIELD=V1,V2,...`` becomes one axis whose text values are
        typed by the field's declared type.
        """
        payload: dict = {
            "name": args.name,
            "scale": args.scale,
            "axes": [_set_axis(option) for option in args.axes],
            "failure_policy": args.failure_policy,
            "max_attempts": args.max_attempts,
        }
        if args.config:
            payload["config_text"] = _read_text(args.config, ConfigError, "config")
        else:
            payload["preset"] = args.preset
        if args.topology:
            payload["topology_csv"] = _read_text(args.topology, TopologyError, "topology")
            payload["topology_name"] = Path(args.topology).stem
        else:
            payload["model"] = args.model
        return cls.from_payload(payload)

    def to_payload(self) -> dict:
        """The canonical wire form (journaled; rebuilds this request)."""
        payload: dict = {"name": self.name}
        for key in ("preset", "config_text", "model", "topology_csv"):
            if getattr(self, key) is not None:
                payload[key] = getattr(self, key)
        if self.topology_csv is not None:
            payload["topology_name"] = self.topology_name
        if self.scale != 1:
            payload["scale"] = self.scale
        if self.axes:
            payload["axes"] = [
                {"field": field, "values": list(values)} for field, values in self.axes
            ]
        payload["failure_policy"] = self.failure_policy
        if self.max_attempts is not None:
            payload["max_attempts"] = self.max_attempts
        return payload

    def build(self) -> SweepSpec:
        """The validated :class:`SweepSpec` this request describes.

        Loads the config and the workload, types every axis value, and
        expands the grid once so every point's config is checked.
        """
        if self.preset is not None:
            config = get_preset(self.preset)
        else:
            config = parse_config_text(self.config_text)
        if self.model is not None:
            topology = get_model(self.model, scale=self.scale)
        else:
            topology = Topology.from_csv_text(self.topology_csv, self.topology_name)
        spec = SweepSpec(
            base=config,
            axes=[Axis(path, _typed(path, values)) for path, values in self.axes],
            topologies=[topology],
            name=self.name,
        )
        spec.expand()
        return spec


def _wire_axes(raw: object) -> tuple[tuple[str, tuple], ...]:
    """Accept ``{"f": [v]}`` or ``[{"field": f, "values": [v]}]`` forms."""
    if isinstance(raw, dict):
        raw = [{"field": field, "values": values} for field, values in raw.items()]
    _require(isinstance(raw, list), "axes must be an object or a list of axis objects")
    axes = []
    for item in raw:
        _require(
            isinstance(item, dict) and "field" in item and "values" in item,
            f"each axis needs 'field' and 'values', got {item!r}",
        )
        field, values = item["field"], item["values"]
        _require(
            isinstance(field, str) and field,
            f"axis field must be a non-empty string, got {field!r}",
        )
        _require(
            isinstance(values, list) and values,
            f"axis {field!r} needs a non-empty list of values",
        )
        _require(
            all(isinstance(value, (int, float, str, bool)) for value in values),
            f"axis {field!r} values must be scalars, got {values!r}",
        )
        axes.append((field, tuple(values)))
    return tuple(axes)


def _typed(path: str, values: tuple) -> tuple:
    section, name = _split_field_path(path)
    return tuple(field_value(getattr(_TYPES, section), name, v, path) for v in values)


def _set_axis(option: str) -> dict:
    """One ``--set FIELD=V1,V2,...`` option as a typed wire axis."""
    path, sep, values = option.partition("=")
    texts = [part for part in values.split(",") if part.strip()]
    _require(
        sep and texts,
        f"--set expects FIELD=V1,V2,... with at least one value, got {option!r}",
    )
    return {"field": path.strip(), "values": list(_typed(path.strip(), texts))}


def _read_text(path: str, error: type[Exception], what: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc


__all__ = ["SweepRequest"]

"""DRAM timing parameters and technology presets.

All timings are in memory-controller clock cycles; ``tck_ns`` converts
to wall time.  The presets carry the standard datasheet parameters for
each technology family, scaled from their usual speed grades.  They are
deliberately representative rather than bit-exact to any one part — the
experiments sweep *relative* behaviour (channels, queue sizes, row
locality), which these capture.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import DramError


@dataclass(frozen=True)
class DramTiming:
    """Timing and geometry of one DRAM channel."""

    name: str
    tck_ns: float  # clock period
    t_rcd: int  # ACT -> RD/WR
    t_rp: int  # PRE -> ACT
    t_cl: int  # RD -> data (CAS latency)
    t_cwl: int  # WR -> data
    t_ras: int  # ACT -> PRE minimum
    t_ccd: int  # RD -> RD (same bank group, min gap)
    t_wr: int  # write recovery
    t_burst: int  # data-bus cycles per 64B line transfer
    row_bytes: int  # row-buffer (page) size
    bus_bytes_per_cycle: int  # data bus width x rate

    def __post_init__(self) -> None:
        if self.tck_ns <= 0:
            raise DramError(f"{self.name}: tck_ns must be positive")
        for field_name in (
            "t_rcd",
            "t_rp",
            "t_cl",
            "t_cwl",
            "t_ras",
            "t_ccd",
            "t_wr",
            "t_burst",
            "row_bytes",
            "bus_bytes_per_cycle",
        ):
            value = getattr(self, field_name)
            if value < 1:
                raise DramError(f"{self.name}: {field_name} must be >= 1, got {value}")

    @property
    def row_miss_latency(self) -> int:
        """ACT + CAS latency for a read to a closed row."""
        return self.t_rcd + self.t_cl

    @property
    def row_conflict_latency(self) -> int:
        """PRE + ACT + CAS latency for a read conflicting with an open row."""
        return self.t_rp + self.t_rcd + self.t_cl

    @property
    def peak_bandwidth_gbps(self) -> float:
        """Peak per-channel bandwidth in GB/s."""
        return self.bus_bytes_per_cycle / self.tck_ns

    def cycles_from_ns(self, ns: float) -> int:
        """Convert nanoseconds to (ceiling) controller cycles."""
        if ns < 0:
            raise DramError(f"negative time {ns}")
        return int(-(-ns // self.tck_ns))


# One preset per technology the paper lists for Ramulator (Section II-C).
_PRESETS: dict[str, DramTiming] = {
    "ddr3": DramTiming(
        name="DDR3-1600",
        tck_ns=1.25,
        t_rcd=11,
        t_rp=11,
        t_cl=11,
        t_cwl=8,
        t_ras=28,
        t_ccd=4,
        t_wr=12,
        t_burst=4,
        row_bytes=8192,
        bus_bytes_per_cycle=16,
    ),
    "ddr4": DramTiming(
        name="DDR4-2400",
        tck_ns=0.833,
        t_rcd=16,
        t_rp=16,
        t_cl=16,
        t_cwl=12,
        t_ras=39,
        t_ccd=4,
        t_wr=18,
        t_burst=4,
        row_bytes=8192,
        bus_bytes_per_cycle=16,
    ),
    "lpddr4": DramTiming(
        name="LPDDR4-3200",
        tck_ns=0.625,
        t_rcd=29,
        t_rp=34,
        t_cl=28,
        t_cwl=14,
        t_ras=67,
        t_ccd=8,
        t_wr=28,
        t_burst=8,
        row_bytes=4096,
        bus_bytes_per_cycle=8,
    ),
    "gddr5": DramTiming(
        name="GDDR5-6000",
        tck_ns=0.667,
        t_rcd=18,
        t_rp=18,
        t_cl=18,
        t_cwl=6,
        t_ras=42,
        t_ccd=3,
        t_wr=18,
        t_burst=2,
        row_bytes=2048,
        bus_bytes_per_cycle=32,
    ),
    "hbm": DramTiming(
        name="HBM-1000",
        tck_ns=1.0,
        t_rcd=14,
        t_rp=14,
        t_cl=14,
        t_cwl=4,
        t_ras=34,
        t_ccd=2,
        t_wr=16,
        t_burst=4,
        row_bytes=2048,
        bus_bytes_per_cycle=16,
    ),
    "hbm2": DramTiming(
        name="HBM2-2000",
        tck_ns=0.5,
        t_rcd=16,
        t_rp=16,
        t_cl=16,
        t_cwl=4,
        t_ras=39,
        t_ccd=2,
        t_wr=18,
        t_burst=4,
        row_bytes=2048,
        bus_bytes_per_cycle=16,
    ),
    "wio2": DramTiming(
        name="WIO2-800",
        tck_ns=1.25,
        t_rcd=12,
        t_rp=12,
        t_cl=12,
        t_cwl=6,
        t_ras=30,
        t_ccd=2,
        t_wr=14,
        t_burst=4,
        row_bytes=4096,
        bus_bytes_per_cycle=16,
    ),
}


#: The per-cycle timing knobs the batched engines consume, in the order
#: :func:`timing_param_arrays` packs them.
BROADCAST_TIMING_FIELDS = (
    "t_rcd",
    "t_rp",
    "t_cl",
    "t_cwl",
    "t_ras",
    "t_ccd",
    "t_wr",
    "t_burst",
)


def timing_param_arrays(timings) -> dict:
    """Pack a sequence of :class:`DramTiming` into broadcast arrays.

    Returns one ``int64`` array per field in
    :data:`BROADCAST_TIMING_FIELDS`, each of length ``len(timings)`` —
    the per-participant parameter axis the vector pass
    (:mod:`repro.dram.vector_pass`) broadcasts against element data.
    """
    import numpy as np

    return {
        name: np.array([getattr(t, name) for t in timings], dtype=np.int64)
        for name in BROADCAST_TIMING_FIELDS
    }


def available_timing_presets() -> tuple[str, ...]:
    """Names of all DRAM technology presets."""
    return tuple(sorted(_PRESETS))


def get_timing_preset(technology: str) -> DramTiming:
    """Look up a technology preset (case-insensitive)."""
    key = technology.strip().lower()
    if key not in _PRESETS:
        raise DramError(
            f"unknown DRAM technology {technology!r}; "
            f"available: {', '.join(available_timing_presets())}"
        )
    return _PRESETS[key]

"""Physical address decomposition into channel/rank/bank/row/column.

The mapping string names the fields from most-significant to least-
significant, underscore-separated, using Ramulator's two-letter codes:
``ro`` (row), ``ba`` (bank), ``ra`` (rank), ``co`` (column), ``ch``
(channel).  The default ``ro_ba_ra_co_ch`` puts the channel bits lowest,
so consecutive 64B lines interleave across channels — the layout that
makes streaming workloads scale with channel count (paper Figure 9).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config.system import ADDRESS_FIELD_CODES
from repro.errors import DramError

LINE_BYTES = 64


@dataclass(frozen=True)
class DecodedAddress:
    """One 64B line's location in the DRAM hierarchy."""

    channel: int
    rank: int
    bank: int
    row: int
    column: int


class AddressMapper:
    """Decodes byte addresses according to a mapping string."""

    def __init__(
        self,
        mapping: str,
        channels: int,
        ranks: int,
        banks: int,
        row_bytes: int,
        capacity_bytes_per_channel: int,
    ) -> None:
        fields = tuple(mapping.strip().lower().split("_"))
        if sorted(fields) != sorted(ADDRESS_FIELD_CODES):
            raise DramError(
                f"mapping must be a permutation of {ADDRESS_FIELD_CODES}, got {mapping!r}"
            )
        if channels < 1 or ranks < 1 or banks < 1:
            raise DramError("channels/ranks/banks must all be >= 1")
        if row_bytes < LINE_BYTES or row_bytes % LINE_BYTES:
            raise DramError(f"row_bytes must be a multiple of {LINE_BYTES}")
        self.mapping = fields
        self.channels = channels
        self.ranks = ranks
        self.banks = banks
        self.columns = row_bytes // LINE_BYTES  # lines per row
        capacity_lines = capacity_bytes_per_channel * channels // LINE_BYTES
        denom = channels * ranks * banks * self.columns
        self.rows = max(1, capacity_lines // denom)
        self._sizes = {
            "ch": self.channels,
            "ra": self.ranks,
            "ba": self.banks,
            "co": self.columns,
            "ro": self.rows,
        }
        # Stride plan: field value = (line // stride) % size, with
        # ``stride`` the product of all less-significant field sizes —
        # the closed form of the divmod peel in :meth:`decode`, shared
        # with the engines' inline and vectorized decoders.
        self._strides: dict[str, int] = {}
        stride = 1
        for code in reversed(self.mapping):
            self._strides[code] = stride
            stride *= self._sizes[code]

    @property
    def field_sizes(self) -> dict[str, int]:
        """Field sizes by two-letter code (``ch``/``ra``/``ba``/``co``/``ro``)."""
        return dict(self._sizes)

    @property
    def field_strides(self) -> dict[str, int]:
        """Decode strides by two-letter code (see the stride plan above)."""
        return dict(self._strides)

    def decode(self, byte_address: int) -> DecodedAddress:
        """Decode a byte address into its line's DRAM coordinates."""
        if byte_address < 0:
            raise DramError(f"negative address {byte_address}")
        line = byte_address // LINE_BYTES
        values: dict[str, int] = {}
        # Fields are listed MSB-first; peel from the LSB side (reversed).
        for code in reversed(self.mapping):
            size = self._sizes[code]
            values[code] = line % size
            line //= size
        # Whatever overflows the row field wraps (modelling a smaller
        #-than-address-space device, as Ramulator does with its capacity
        # check disabled).
        values["ro"] = values["ro"] % self.rows
        return DecodedAddress(
            channel=values["ch"],
            rank=values["ra"],
            bank=values["ba"],
            row=values["ro"],
            column=values["co"],
        )

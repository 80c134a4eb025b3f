"""Topology container with SCALE-Sim-compatible CSV io.

Two CSV dialects are supported, auto-detected by header:

Convolution (SCALE-Sim classic, plus v3's ``SparsitySupport`` column)::

    Layer name, IFMAP Height, IFMAP Width, Filter Height, Filter Width,
    Channels, Num Filter, Strides, SparsitySupport,

GEMM (``mnk`` dialect)::

    Layer name, M, N, K, SparsitySupport,

The trailing comma SCALE-Sim topologies traditionally carry is tolerated.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from pathlib import Path

from repro.errors import TopologyError
from repro.topology.layer import ConvLayer, GemmLayer, Layer, SparsityRatio
from repro.utils.csvio import parse_csv_rows, read_csv_rows, write_csv

_CONV_HEADER = [
    "Layer name",
    "IFMAP Height",
    "IFMAP Width",
    "Filter Height",
    "Filter Width",
    "Channels",
    "Num Filter",
    "Strides",
    "SparsitySupport",
]

_GEMM_HEADER = ["Layer name", "M", "N", "K", "SparsitySupport"]


class Topology:
    """An ordered collection of layers forming one workload."""

    def __init__(self, name: str, layers: Iterable[Layer]) -> None:
        if not name:
            raise TopologyError("topology name must be non-empty")
        self.name = name
        self._layers: list[Layer] = list(layers)
        if not self._layers:
            raise TopologyError(f"topology {name!r} has no layers")
        seen: set[str] = set()
        for layer in self._layers:
            if layer.name in seen:
                raise TopologyError(f"duplicate layer name {layer.name!r} in {name!r}")
            seen.add(layer.name)

    def __len__(self) -> int:
        return len(self._layers)

    def __iter__(self) -> Iterator[Layer]:
        return iter(self._layers)

    def __getitem__(self, index: int) -> Layer:
        return self._layers[index]

    @property
    def layers(self) -> tuple[Layer, ...]:
        """The layers in execution order."""
        return tuple(self._layers)

    def layer_named(self, name: str) -> Layer:
        """Look a layer up by name."""
        for layer in self._layers:
            if layer.name == name:
                return layer
        raise TopologyError(f"no layer named {name!r} in topology {self.name!r}")

    def subset(self, names: Sequence[str], name: str | None = None) -> "Topology":
        """A new topology containing only the named layers, in given order."""
        return Topology(name or f"{self.name}_subset", [self.layer_named(n) for n in names])

    def first_layers(self, count: int, name: str | None = None) -> "Topology":
        """A new topology with only the first ``count`` layers."""
        if count < 1:
            raise TopologyError(f"count must be >= 1, got {count}")
        return Topology(name or f"{self.name}_first{count}", self._layers[:count])

    def with_sparsity(self, ratio: SparsityRatio | str) -> "Topology":
        """Copy with every layer assigned the same N:M sparsity ratio."""
        if isinstance(ratio, str):
            ratio = SparsityRatio.parse(ratio)
        new_layers: list[Layer] = []
        for layer in self._layers:
            if isinstance(layer, ConvLayer):
                new_layers.append(
                    ConvLayer(
                        name=layer.name,
                        ifmap_h=layer.ifmap_h,
                        ifmap_w=layer.ifmap_w,
                        filter_h=layer.filter_h,
                        filter_w=layer.filter_w,
                        channels=layer.channels,
                        num_filters=layer.num_filters,
                        stride_h=layer.stride_h,
                        stride_w=layer.stride_w,
                        sparsity=ratio,
                    )
                )
            else:
                new_layers.append(
                    GemmLayer(name=layer.name, m=layer.m, n=layer.n, k=layer.k, sparsity=ratio)
                )
        return Topology(self.name, new_layers)

    def total_macs(self) -> int:
        """Dense multiply-accumulate count across all layers."""
        return sum(layer.to_gemm().macs for layer in self._layers)

    # ------------------------------------------------------------------ CSV

    @classmethod
    def from_csv(cls, path: str | Path, name: str | None = None) -> "Topology":
        """Load a topology CSV (conv or GEMM dialect, auto-detected)."""
        path = Path(path)
        return cls._from_rows(read_csv_rows(path), name or path.stem, path)

    @classmethod
    def from_csv_text(cls, text: str, name: str) -> "Topology":
        """:meth:`from_csv` over CSV content already in memory."""
        rows = parse_csv_rows(text.splitlines())
        return cls._from_rows(rows, name, f"{name} (inline CSV)")

    @classmethod
    def _from_rows(cls, rows: list[list[str]], name: str, source: object) -> "Topology":
        if not rows:
            raise TopologyError(f"empty topology file: {source}")
        header = [cell.lower() for cell in rows[0] if cell]
        body = rows[1:]
        if len(header) >= 2 and header[1] == "m":
            return cls(name, [_parse_gemm_row(row, source) for row in body])
        return cls(name, [_parse_conv_row(row, source) for row in body])

    def to_csv(self, path: str | Path) -> Path:
        """Write this topology as a SCALE-Sim style CSV file."""
        if all(isinstance(layer, GemmLayer) for layer in self._layers):
            rows = [
                [layer.name, layer.m, layer.n, layer.k, str(layer.sparsity or "")]
                for layer in self._layers
                if isinstance(layer, GemmLayer)
            ]
            return write_csv(path, _GEMM_HEADER, rows)
        conv_rows: list[list[object]] = []
        for layer in self._layers:
            if not isinstance(layer, ConvLayer):
                raise TopologyError(
                    "mixed conv/GEMM topologies cannot be written to the conv CSV "
                    f"dialect (offending layer: {layer.name!r})"
                )
            conv_rows.append(
                [
                    layer.name,
                    layer.ifmap_h,
                    layer.ifmap_w,
                    layer.filter_h,
                    layer.filter_w,
                    layer.channels,
                    layer.num_filters,
                    layer.stride_h,
                    str(layer.sparsity or ""),
                ]
            )
        return write_csv(path, _CONV_HEADER, conv_rows)

    def __repr__(self) -> str:
        return f"Topology(name={self.name!r}, layers={len(self._layers)})"


def _parse_sparsity_cell(cells: list[str], index: int) -> SparsityRatio | None:
    if len(cells) <= index:
        return None
    raw = cells[index].strip()
    if not raw:
        return None
    return SparsityRatio.parse(raw)


def _int_cell(cells: list[str], index: int, field: str, path: object) -> int:
    try:
        return int(cells[index])
    except (IndexError, ValueError) as exc:
        raise TopologyError(f"{path}: bad {field} in row {cells!r}") from exc


def _parse_conv_row(cells: list[str], path: object) -> ConvLayer:
    if len(cells) < 8:
        raise TopologyError(f"{path}: conv row needs >= 8 cells, got {cells!r}")
    stride = _int_cell(cells, 7, "stride", path)
    return ConvLayer(
        name=cells[0],
        ifmap_h=_int_cell(cells, 1, "ifmap height", path),
        ifmap_w=_int_cell(cells, 2, "ifmap width", path),
        filter_h=_int_cell(cells, 3, "filter height", path),
        filter_w=_int_cell(cells, 4, "filter width", path),
        channels=_int_cell(cells, 5, "channels", path),
        num_filters=_int_cell(cells, 6, "num filters", path),
        stride_h=stride,
        stride_w=stride,
        sparsity=_parse_sparsity_cell(cells, 8),
    )


def _parse_gemm_row(cells: list[str], path: object) -> GemmLayer:
    if len(cells) < 4:
        raise TopologyError(f"{path}: GEMM row needs >= 4 cells, got {cells!r}")
    return GemmLayer(
        name=cells[0],
        m=_int_cell(cells, 1, "M", path),
        n=_int_cell(cells, 2, "N", path),
        k=_int_cell(cells, 3, "K", path),
        sparsity=_parse_sparsity_cell(cells, 4),
    )

"""Common value types shared across the library.

The central type here is :class:`DType`, the numeric element type of a
GEMM.  The paper's alignment rules are stated in *bytes* ("multiples of
128 bytes on A100"), so converting between element counts and byte
counts correctly is load-bearing for the whole model: a dimension of 64
FP16 elements is 128 bytes, but 64 FP32 elements is 256 bytes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Union

from repro.errors import ConfigError

Number = Union[int, float]


class DType(enum.Enum):
    """Numeric element types supported by the performance model.

    Values are (canonical name, bytes per element) — several types share
    a storage size (FP16/BF16, FP32/TF32), so the name keeps the enum
    members distinct.
    """

    FP64 = ("fp64", 8)
    FP32 = ("fp32", 4)
    # Stored as 32-bit, computed on tensor cores at reduced precision.
    TF32 = ("tf32", 4)
    FP16 = ("fp16", 2)
    BF16 = ("bf16", 2)
    INT8 = ("int8", 1)

    @property
    def bytes(self) -> int:
        """Size of one element in bytes."""
        return self.value[1]

    @property
    def bits(self) -> int:
        """Size of one element in bits."""
        return self.bytes * 8

    @property
    def is_half(self) -> bool:
        """True for 16-bit floating point types."""
        return self in (DType.FP16, DType.BF16)

    @classmethod
    def parse(cls, name: "str | DType") -> "DType":
        """Parse a dtype from a case-insensitive string like ``"fp16"``.

        Accepts an existing :class:`DType` unchanged, plus common aliases
        (``half`` for FP16, ``float`` / ``single`` for FP32, ``double``
        for FP64).
        """
        if isinstance(name, DType):
            return name
        key = str(name).strip().lower()
        aliases = {
            "half": "fp16",
            "float16": "fp16",
            "bfloat16": "bf16",
            "float": "fp32",
            "single": "fp32",
            "float32": "fp32",
            "double": "fp64",
            "float64": "fp64",
        }
        key = aliases.get(key, key)
        try:
            return cls[key.upper()]
        except KeyError:
            raise ConfigError(f"unknown dtype {name!r}") from None


@dataclass(frozen=True)
class TimeEstimate:
    """A latency estimate decomposed into its contributing terms.

    Attributes
    ----------
    total_s:
        End-to-end latency in seconds (the max of compute and memory
        terms plus fixed overhead, per the roofline composition used by
        the GEMM model).
    compute_s:
        Time the math pipes would need at the achievable (efficiency-
        degraded) compute rate, including quantization padding.
    memory_s:
        Time the memory system needs to move the kernel's traffic.
    overhead_s:
        Fixed per-kernel overhead (launch latency, epilogue).
    """

    total_s: float
    compute_s: float
    memory_s: float
    overhead_s: float = 0.0

    @property
    def bound(self) -> str:
        """``"compute"`` or ``"memory"`` depending on the dominant term."""
        return "compute" if self.compute_s >= self.memory_s else "memory"

    def __add__(self, other: "TimeEstimate") -> "TimeEstimate":
        return TimeEstimate(
            total_s=self.total_s + other.total_s,
            compute_s=self.compute_s + other.compute_s,
            memory_s=self.memory_s + other.memory_s,
            overhead_s=self.overhead_s + other.overhead_s,
        )


def teraflops(flops: float, seconds: float) -> float:
    """Convert a FLOP count and duration into TFLOP/s throughput."""
    if seconds <= 0:
        raise ValueError(f"duration must be positive, got {seconds}")
    return flops / seconds / 1e12

"""GPU simulator: SIMT executor, trace capture, replay engines, timing."""

from .cache import MemoryHierarchy, SectoredCache
from .coalescing import (
    SECTOR_BYTES,
    Transaction,
    coalesce,
    coalesce_arrays,
    count_sectors,
)
from .config import CacheGeometry, GPUConfig, small_config
from .dram import DRAMModel, account_rows
from .executor import WARP_SIZE, ExecutionContext, launch
from .isa import InstrClass, Opcode, TraceRecord
from .machine import Machine
from .replay import ENGINES, ReferenceEngine, ReplayEngine, VectorEngine
from .stats import KernelStats
from .timing import bottleneck, compute_cycles, finalize_timing, memory_cycles
from .trace import MemoryTrace, flatten_wave

__all__ = [
    "MemoryHierarchy",
    "SectoredCache",
    "SECTOR_BYTES",
    "Transaction",
    "coalesce",
    "coalesce_arrays",
    "count_sectors",
    "CacheGeometry",
    "GPUConfig",
    "small_config",
    "DRAMModel",
    "account_rows",
    "WARP_SIZE",
    "ExecutionContext",
    "launch",
    "InstrClass",
    "Opcode",
    "TraceRecord",
    "Machine",
    "ENGINES",
    "ReplayEngine",
    "ReferenceEngine",
    "VectorEngine",
    "KernelStats",
    "MemoryTrace",
    "flatten_wave",
    "bottleneck",
    "compute_cycles",
    "finalize_timing",
    "memory_cycles",
]

"""repro: a simulation-level reproduction of
"Judging a Type by Its Pointer: Optimizing GPU Virtual Functions"
(Zhang, Alawneh, Rogers; ASPLOS 2021).

Quick start::

    from repro import Machine, TypeDescriptor

    def speak(ctx, objs):
        ctx.alu(1)

    Dog = TypeDescriptor("Dog", fields=[("age", "u32")],
                         methods={"speak": speak})
    m = Machine("typepointer")
    dogs = m.new_objects(Dog, 1024)

    def kernel(ctx):
        ctx.vcall(dogs[ctx.tid], Dog, "speak")

    stats = m.launch(kernel, len(dogs))
    print(stats.summary())

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from .errors import (
    AllocatorError,
    DispatchError,
    DoubleFree,
    FrontendError,
    InvalidAddress,
    LaunchConfigError,
    LaunchError,
    MMUFault,
    OutOfMemory,
    ReproError,
    TypeSystemError,
    TypeTagOverflow,
    UnknownTechniqueError,
)
from . import techniques
from .frontend import abstract, device_class, kernel, virtual
from .gpu import (
    GPUConfig,
    InstrClass,
    KernelStats,
    Machine,
    small_config,
)
from .memory import (
    CudaHeapAllocator,
    Heap,
    MMU,
    MMUMode,
    SharedOAAllocator,
    SoaAllocator,
    TypePointerAllocator,
)
from .runtime import DeviceArray, ObjectProxy, SharedObjectSpace, TypeDescriptor, proxies

__version__ = "1.0.0"

__all__ = [
    "AllocatorError",
    "DispatchError",
    "DoubleFree",
    "FrontendError",
    "InvalidAddress",
    "LaunchConfigError",
    "LaunchError",
    "abstract",
    "device_class",
    "kernel",
    "virtual",
    "MMUFault",
    "OutOfMemory",
    "ReproError",
    "TypeSystemError",
    "TypeTagOverflow",
    "UnknownTechniqueError",
    "techniques",
    "GPUConfig",
    "InstrClass",
    "KernelStats",
    "Machine",
    "small_config",
    "CudaHeapAllocator",
    "Heap",
    "MMU",
    "MMUMode",
    "SharedOAAllocator",
    "SoaAllocator",
    "TypePointerAllocator",
    "DeviceArray",
    "ObjectProxy",
    "proxies",
    "SharedObjectSpace",
    "TypeDescriptor",
    "__version__",
]

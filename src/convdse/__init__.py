"""Design-space exploration toolkit for small convolutional networks:
a typed layer-graph IR, analytical cost metrics, parametric model
generators, grid sweeps with Pareto/saturation analysis, a weight
compression codec, and a naive reference executor as the semantic oracle.

The codec (``weights``, ``huffman``, ``compress``), the descriptor reader
and the reference executor are executed on first attribute access, so a
command that prices a generated family does not compile them. They are in
``sys.modules`` and are attributes of this package from the start, so
``import convdse.compress``, ``from convdse import compress`` and lookups in
``sys.modules`` all find them; their re-exported names resolve through the
module ``__getattr__``.
"""

import importlib.util
import sys
from typing import TYPE_CHECKING


def _register_lazy(name: str):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# Registered before the eager imports below, so that each precedes every
# eagerly loaded module in sys.modules: code that walks sys.modules and
# touches each module in turn (bench/tracing.py, which swaps functions by
# identity) executes these before it has swapped a function they import.
weights = _register_lazy("weights")
huffman = _register_lazy("huffman")
compress = _register_lazy("compress")
descriptor = _register_lazy("descriptor")
refexec = _register_lazy("refexec")

from .costs import (DEFAULT_PLATFORM, MetricsReport, PlatformSpec, layer_macs, layer_params,
                    model_macs, model_params, peak_activation_bytes, report)
from .explore import (ConstraintSet, DesignPoint, SweepError, attach_accuracy,
                      check_constraints, find_saturation, pareto_front, sweep)
from .graph import (ArchGraph, Concat, Conv, FullyConnected, GlobalAvgPool, GraphBuilder,
                    GraphError, Input, Pool, ReLU, ShapeError, Shuffle, TensorShape,
                    infer_shapes, lower_fc, validate)
from .zoo import (FireSpec, PoolPlacement, alexnet, fire_module, mobilenet_like,
                  place_downsampling, squeezenet, vgg19)

if TYPE_CHECKING:
    from .compress import (CompressedModel, CompressionReport, QuantizedTensor, compress_model,
                           compression_report, decode_model, encode, kmeans_quantize,
                           prune_magnitude, quantize_model)
    from .descriptor import DescriptorError, parse, serialize
    from .refexec import Tensor3D, count_macs_instrumented, run
    from .weights import WeightTensor, load_sdnw, read_sdnw, save_sdnw, write_sdnw

# re-exported name -> the first-use module that defines it; the same names
# as the TYPE_CHECKING imports above
_LAZY_NAMES = {
    **dict.fromkeys(("CompressedModel", "CompressionReport", "QuantizedTensor",
                     "compress_model", "compression_report", "decode_model", "encode",
                     "kmeans_quantize", "prune_magnitude", "quantize_model"), compress),
    **dict.fromkeys(("DescriptorError", "parse", "serialize"), descriptor),
    **dict.fromkeys(("Tensor3D", "count_macs_instrumented", "run"), refexec),
    **dict.fromkeys(("WeightTensor", "load_sdnw", "read_sdnw", "save_sdnw", "write_sdnw"),
                    weights),
}


def __getattr__(name: str):
    try:
        module = _LAZY_NAMES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(module, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY_NAMES})


__version__ = "0.1.0"

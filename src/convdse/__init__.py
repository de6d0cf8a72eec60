"""Design-space exploration toolkit for small convolutional networks:
a typed layer-graph IR, analytical cost metrics, parametric model
generators, grid sweeps with Pareto/saturation analysis, a weight
compression codec, and a naive reference executor as the semantic oracle.

Every module but the command line and the oracle suite is executed on
first attribute access, so ``import convdse`` executes none of them and a
command only those it reads. They are in ``sys.modules`` and are attributes
of this package from the start, so ``import convdse.compress``, ``from
convdse import compress`` and lookups in ``sys.modules`` all find them; the
re-exported names resolve through the module ``__getattr__``.
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


compress, costs, descriptor, explore, graph, huffman, refexec, settings, weights, zoo = map(
    _register_lazy, ("compress", "costs", "descriptor", "explore", "graph", "huffman",
                     "refexec", "settings", "weights", "zoo"))

if TYPE_CHECKING:
    from .compress import (CompressedModel, CompressionReport, QuantizedTensor, compress_model,
                           compression_report, decode_model, encode, kmeans_quantize,
                           prune_magnitude, quantize_model)
    from .costs import (DEFAULT_PLATFORM, MetricsReport, PlatformSpec, layer_macs, layer_params,
                        model_macs, model_params, peak_activation_bytes, report)
    from .descriptor import DescriptorError, parse, serialize
    from .explore import (ConstraintSet, DesignPoint, SweepError, attach_accuracy,
                          check_constraints, find_saturation, pareto_front, sweep)
    from .graph import (ArchGraph, Concat, Conv, FullyConnected, GlobalAvgPool, GraphBuilder,
                        GraphError, Input, Pool, ReLU, ShapeError, Shuffle, TensorShape,
                        infer_shapes, lower_fc, validate)
    from .refexec import Tensor3D, count_macs_instrumented, run
    from .weights import WeightTensor, load_sdnw, read_sdnw, save_sdnw, write_sdnw
    from .zoo import (FireSpec, PoolPlacement, alexnet, fire_module, mobilenet_like,
                      place_downsampling, squeezenet, vgg19)

# re-exported name -> its module: the names the TYPE_CHECKING block imports
_LAZY_NAMES = {name: module for module, names in [
    (compress, "CompressedModel CompressionReport QuantizedTensor compress_model "
               "compression_report decode_model encode kmeans_quantize prune_magnitude "
               "quantize_model"),
    (costs, "DEFAULT_PLATFORM MetricsReport PlatformSpec layer_macs layer_params model_macs "
            "model_params peak_activation_bytes report"),
    (descriptor, "DescriptorError parse serialize"),
    (explore, "ConstraintSet DesignPoint SweepError attach_accuracy check_constraints "
              "find_saturation pareto_front sweep"),
    (graph, "ArchGraph Concat Conv FullyConnected GlobalAvgPool GraphBuilder GraphError Input "
            "Pool ReLU ShapeError Shuffle TensorShape infer_shapes lower_fc validate"),
    (refexec, "Tensor3D count_macs_instrumented run"),
    (weights, "WeightTensor load_sdnw read_sdnw save_sdnw write_sdnw"),
    (zoo, "FireSpec PoolPlacement alexnet fire_module mobilenet_like place_downsampling "
          "squeezenet vgg19"),
] for name in names.split()}


def __getattr__(name: str):
    try:
        module = _LAZY_NAMES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(module, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY_NAMES})


__version__ = "0.1.0"

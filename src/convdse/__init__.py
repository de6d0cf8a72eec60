"""Design-space exploration toolkit for small convolutional networks:
a typed layer-graph IR, analytical cost metrics, parametric model
generators, grid sweeps with Pareto/saturation analysis, a weight
compression codec, and a naive reference executor as the semantic oracle.
"""

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

__version__ = "0.1.0"

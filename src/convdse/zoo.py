"""Parametric generators for the reference architecture families.

Each generator returns a plain ArchGraph; nothing here depends on the cost
model, so generators and evaluation stay independently testable. With the
default metaparameters every graph passes validation and shape inference,
but not every metaparameter cell does: a placement that pools too often
too early collapses a spatial dimension (``squeezenet`` with seven early
pools shrinks 1x1 to 0x0), which ``validate`` reports as a violation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .graph import ArchGraph, GraphBuilder, TensorShape, _require_positive, shared_spec


@dataclass(frozen=True)
class FireSpec:
    """Squeeze layer width plus the 1x1/3x3 split of the expand stage."""

    squeeze_1x1: int
    expand_1x1: int
    expand_3x3: int

    def __post_init__(self):
        _require_positive(self, "squeeze_1x1", self.squeeze_1x1)
        _require_positive(self, "expand_1x1 expand_3x3", self.expand_1x1, self.expand_3x3, least=0)
        if self.expand_1x1 + self.expand_3x3 < 1:
            raise ValueError("expand_1x1 + expand_3x3 must be >= 1")

    @property
    def p(self) -> float:
        """Fraction of expand filters that are 3x3."""
        return self.expand_3x3 / (self.expand_1x1 + self.expand_3x3)


#: Pool placement strategies, as place_downsampling implements them.
POOL_STRATEGIES = ("early", "even", "late")


@dataclass(frozen=True)
class PoolPlacement:
    """Where downsampling layers go along the body of a network."""

    strategy: str = "even"  # one of POOL_STRATEGIES
    pool_count: int = 3

    def __post_init__(self):
        if self.strategy not in POOL_STRATEGIES:
            raise ValueError(f"strategy must be {'/'.join(POOL_STRATEGIES)}, "
                             f"got {self.strategy!r}")
        _require_positive(self, "pool_count", self.pool_count)


def _round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


def place_downsampling(num_layers: int, placement: PoolPlacement) -> list[int]:
    """1-based positions (pool inserted after the layer at each position).

    early packs pools at the front, late at the back, and even spaces them
    at round(k*L/(P+1)), halves rounded up.
    """
    L, P = num_layers, placement.pool_count
    if P >= L:
        raise ValueError(f"pool_count must be < num_layers ({P} >= {L})")
    if placement.strategy == "early":
        return list(range(1, P + 1))
    if placement.strategy == "late":
        return list(range(L - P + 1, L + 1))
    # P < L spaces them at least 1 apart, the last at most L - 1
    return [_round_half_up(k * L / (P + 1)) for k in range(1, P + 1)]


def fire_module(builder: GraphBuilder, src: str, spec: FireSpec, name: str) -> str:
    """Append one fire module (squeeze 1x1, then parallel 1x1/3x3 expand
    branches concatenated channel-wise) and return its output node id.

    A zero-width branch degenerates to the other branch alone; the concat
    disappears since a single-input concat is not a valid node.
    """
    s = builder.conv(src, 1, spec.squeeze_1x1, name=f"{name}.squeeze1x1")
    s = builder.relu(s, name=f"{name}.squeeze_relu")
    branches = []
    if spec.expand_1x1 > 0:
        b = builder.conv(s, 1, spec.expand_1x1, name=f"{name}.expand1x1")
        branches.append(builder.relu(b, name=f"{name}.expand1x1_relu"))
    if spec.expand_3x3 > 0:
        b = builder.conv(s, 3, spec.expand_3x3, pad=1, name=f"{name}.expand3x3")
        branches.append(builder.relu(b, name=f"{name}.expand3x3_relu"))
    if len(branches) == 1:
        return branches[0]
    return builder.concat(branches, name=f"{name}.concat")


# Per-stage squeeze widths and total expand filters of the eight fire stages.
_FIRE_SQUEEZE = (16, 16, 32, 32, 48, 48, 64, 64)
_FIRE_EXPAND_TOTAL = (128, 128, 256, 256, 384, 384, 512, 512)
# Canonical downsampling over the nine macro-layers (stem + eight fires):
# after the stem, the third fire, and the seventh fire.
_CANONICAL_POOL_POSITIONS = (1, 4, 8)


def squeezenet(p: float = 0.5, pooling: Optional[PoolPlacement] = None) -> ArchGraph:
    """Eight fire modules between a 7x7 stem and a 1x1 classifier conv.

    ``p`` splits each stage's fixed expand budget E into e3 = round(p*E)
    3x3 filters and e1 = E - e3 1x1 filters. The default pool placement is
    the canonical one; pass a PoolPlacement to redistribute the pools over
    the nine macro-layer positions.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must be in (0, 1], got {p!r}")
    if pooling is None:
        positions = list(_CANONICAL_POOL_POSITIONS)
    else:
        positions = place_downsampling(1 + len(_FIRE_SQUEEZE), pooling)
    pool_after = set(positions)

    b = GraphBuilder(f"squeezenet(p={p:g})")
    x = b.input(TensorShape(227, 227, 3))
    x = b.conv(x, 7, 96, stride=2, name="conv1")
    x = b.relu(x, name="conv1_relu")
    position = 1
    if position in pool_after:
        x = b.maxpool(x, 3, 2, ceil_mode=True, name=f"pool{position}")
    for i, (s, e_total) in enumerate(zip(_FIRE_SQUEEZE, _FIRE_EXPAND_TOTAL), start=2):
        e3 = _round_half_up(p * e_total)
        spec = shared_spec(FireSpec, s, e_total - e3, e3)
        x = fire_module(b, x, spec, name=f"fire{i}")
        position += 1
        if position in pool_after:
            x = b.maxpool(x, 3, 2, ceil_mode=True, name=f"pool{position}")
    x = b.conv(x, 1, 1000, name="conv10")
    x = b.relu(x, name="conv10_relu")
    b.gap(x, name="gap")
    return b.build()


def alexnet() -> ArchGraph:
    """The classic five-conv / three-FC stack, with the original two-group
    convolutions on conv2/4/5 and local response normalization omitted
    (zero parameters and MACs under this cost convention)."""
    b = GraphBuilder("alexnet")
    x = b.input(TensorShape(227, 227, 3))
    x = b.conv(x, 11, 96, stride=4, name="conv1")
    x = b.relu(x, name="relu1")
    x = b.maxpool(x, 3, 2, name="pool1")
    x = b.conv(x, 5, 256, groups=2, pad=2, name="conv2")
    x = b.relu(x, name="relu2")
    x = b.maxpool(x, 3, 2, name="pool2")
    x = b.conv(x, 3, 384, pad=1, name="conv3")
    x = b.relu(x, name="relu3")
    x = b.conv(x, 3, 384, groups=2, pad=1, name="conv4")
    x = b.relu(x, name="relu4")
    x = b.conv(x, 3, 256, groups=2, pad=1, name="conv5")
    x = b.relu(x, name="relu5")
    x = b.maxpool(x, 3, 2, name="pool5")
    x = b.fc(x, 4096, name="fc6")
    x = b.relu(x, name="relu6")
    x = b.fc(x, 4096, name="fc7")
    x = b.relu(x, name="relu7")
    b.fc(x, 1000, name="fc8")
    return b.build()


_VGG19_STAGES = ((64, 2), (128, 2), (256, 4), (512, 4), (512, 4))


def vgg19() -> ArchGraph:
    """Sixteen 3x3 convolutions in five pooled stages plus three FC layers."""
    b = GraphBuilder("vgg19")
    x = b.input(TensorShape(224, 224, 3))
    for stage, (filters, repeats) in enumerate(_VGG19_STAGES, start=1):
        for i in range(1, repeats + 1):
            x = b.conv(x, 3, filters, pad=1, name=f"conv{stage}_{i}")
            x = b.relu(x, name=f"relu{stage}_{i}")
        x = b.maxpool(x, 2, 2, name=f"pool{stage}")
    x = b.fc(x, 4096, name="fc6")
    x = b.relu(x, name="relu6")
    x = b.fc(x, 4096, name="fc7")
    x = b.relu(x, name="relu7")
    b.fc(x, 1000, name="fc8")
    return b.build()


# (output channels, depthwise stride) of the thirteen separable blocks.
_MOBILENET_BLOCKS = ((64, 1), (128, 2), (128, 1), (256, 2), (256, 1), (512, 2),
                     (512, 1), (512, 1), (512, 1), (512, 1), (512, 1),
                     (1024, 2), (1024, 1))


def mobilenet_like(width_multiplier: float = 1.0) -> ArchGraph:
    """Depthwise-separable stack: a strided stem then thirteen blocks of
    [3x3 depthwise (g = C) + 1x1 pointwise], downsampling by stride instead
    of pooling, finished with global average pooling and a 1000-way FC."""
    if not 0.0 < width_multiplier <= 1.0:
        raise ValueError(f"width_multiplier must be in (0, 1], got {width_multiplier!r}")

    def scaled(c: int) -> int:
        return max(1, _round_half_up(c * width_multiplier))

    b = GraphBuilder(f"mobilenet(x{width_multiplier:g})")
    x = b.input(TensorShape(224, 224, 3))
    c = scaled(32)
    x = b.conv(x, 3, c, stride=2, pad=1, name="conv1")
    x = b.relu(x, name="conv1_relu")
    for i, (out_c, stride) in enumerate(_MOBILENET_BLOCKS, start=1):
        x = b.conv(x, 3, c, groups=c, stride=stride, pad=1, name=f"dw{i}")
        x = b.relu(x, name=f"dw{i}_relu")
        c = scaled(out_c)
        x = b.conv(x, 1, c, name=f"pw{i}")
        x = b.relu(x, name=f"pw{i}_relu")
    x = b.gap(x, name="gap")
    b.fc(x, 1000, name="fc")
    return b.build()

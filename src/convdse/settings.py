"""Typed settings read from outside the program: ``Field`` and its one check,
``check_record``, and the batch and codec settings the CLI reads as flags. No convdse
module or numpy is imported here: the CLI builds its flags without the cost model or codec.
"""

import math
import operator
import sys
from dataclasses import MISSING, dataclass
from numbers import Integral, Real
from typing import Optional


@dataclass(frozen=True)
class Field:
    """A typed setting read from outside the program, and its one check.
    ``kind``: int, float (an int too) or a tuple of choices; numpy scalars
    count, bools do not. ``bound``: an interval such as "[1, 8]" or "(0, inf)";
    with an infinite end, or none, NaN is not finite. A None default allows None."""

    name: str
    kind: type | tuple
    default: object = None
    bound: str = ""
    help: str = ""

    def __post_init__(self):
        lo, _, hi = self.bound[1:-1].partition(", ")
        object.__setattr__(self, "_ends", (
            float(lo or "-inf"), operator.le if self.bound[:1] == "[" else operator.lt,
            float(hi or "inf"), operator.le if self.bound[-1:] == "]" else operator.lt))

    def problem(self, value) -> Optional[str]:
        """What is wrong with ``value`` as this setting, or None."""
        if value is None and self.default is None:
            return None
        if isinstance(self.kind, tuple):
            return None if value in self.kind else f"must be one of {[*self.kind]}, got {value!r}"
        if isinstance(value, bool) or not isinstance(value, (int, float, Real)):
            return f"must be a number, got {value!r}"
        lo, above, hi, below = self._ends
        number = value.item() if hasattr(value, "item") else value
        # NaN, infinity, or an int no float holds (a numpy scalar compared as its Python number)
        if math.inf in (-lo, hi) and not abs(number) <= sys.float_info.max:
            return f"must be finite, got {value!r}"
        if self.kind is int and not isinstance(value, (int, Integral)):
            return f"must be an integer, got {value!r}"
        if above(lo, value) and below(value, hi):
            return None
        if self.bound == "(0, inf)":  # the words of the platform and constraint files
            return f"must be {'positive when set' if self.default is None else 'strictly positive'}"
        return f"must be in {self.bound}, got {value!r}"

    def check(self, value, error: type[Exception] = ValueError, label: Optional[str] = None):
        """Raise ``error``, naming ``label`` or else the field, at a ``problem``;
        else return ``value``, a number as a Python int or float by the kind."""
        if self.problem(value):
            raise error(f"{label or self.name} {self.problem(value)}")
        return value if value is None or isinstance(self.kind, tuple) else self.kind(value)


def check_record(record, fields: tuple[Field, ...], label: str,
                 error: type[Exception] = ValueError) -> dict:
    """Each field's value in ``record`` as ``Field.check`` hands it on, or its default; a
    non-object, an unknown or missing key or a refused value raises ``error`` naming ``label``."""
    if not isinstance(record, dict):
        raise error(f"{label}: top level must be an object")
    unknown = record.keys() - {f.name for f in fields}
    if unknown:
        raise error(f"{label}: unknown key(s) {sorted(unknown)} "
                    f"(allowed: {sorted(f.name for f in fields) or 'none'})")
    missing = [f.name for f in fields if f.default is MISSING and f.name not in record]
    if missing:
        raise error(f"{label}: missing key(s) {sorted(missing)}")
    return {f.name: f.check(record[f.name], error, f"{label}: {f.name}") if f.name in record
            else f.default for f in fields}


BATCH = Field("batch", int, 1, "(0, inf)", "batch size for weight-fetch amortization")
SPARSITY = Field("target_sparsity", float, 0.7, "[0, 1)", "fraction of weights to prune")
BITS = Field("bits", int, 6, "[1, 8]", "codebook index width in bits")
GAP_BITS = Field("rel_index_bits", int, 4, "[1, 16]", "relative-index field width in bits")

"""Everything read from outside the program: the text and JSON readers, ``Field`` and its
one check, ``check_record``, ``NumericConfig``, and the batch and codec settings the CLI
reads as flags. No convdse module or numpy is imported here: the CLI builds its flags, and
a descriptor is read, without the cost model or codec.
"""

import functools
import json
import math
import operator
import sys
from dataclasses import MISSING, dataclass, fields
from numbers import Integral, Real
from typing import ClassVar, Optional, get_args, get_type_hints


class InputFileError(ValueError):
    """A text input that is not UTF-8, or a JSON one that is not JSON, is
    nested too deeply for the parser or repeats a key in one object; the
    message names the file."""

    exit_code = 3


def read_text(path) -> str:
    """The text of the UTF-8 file at ``path``, line endings as written, so
    a CSV reader sees a quoted line break as it is; any other bytes raise
    ``InputFileError`` naming the file and the byte offset."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise InputFileError(f"{path}: not UTF-8 (byte {exc.object[exc.start]:#04x} "
                                 f"at offset {exc.start})") from None


def parse_json(text: str, source, error: type[ValueError], object_pairs_hook=None):
    """The document in JSON ``text``; a syntax error, or nesting past the
    parser's recursion limit, raises ``error`` naming ``source``. An
    ``object_pairs_hook`` builds each object, as in ``json.loads``."""
    try:
        return json.loads(text, object_pairs_hook=object_pairs_hook)
    except json.JSONDecodeError as exc:
        raise error(f"{source}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise error(f"{source}: JSON nested too deeply") from None


def load_json(path):
    """The document in the JSON file at ``path``; a refusal names the file,
    and a key given twice in one object is refused naming the key."""

    def unique_keys(pairs: list) -> dict:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            seen: set = set()
            key = next(k for k, _ in pairs if k in seen or seen.add(k))
            raise InputFileError(f"{path}: key {key!r} appears twice in one object")
        return obj

    return parse_json(read_text(path), path, InputFileError, unique_keys)


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


@functools.cache
def config_fields(cls) -> tuple[Field, ...]:
    """The fields of NumericConfig ``cls``: positive numbers, integers where annotated so."""
    hints = get_type_hints(cls)
    return tuple(Field(f.name, int if int in (hints[f.name], *get_args(hints[f.name])) else float,
                       f.default, "(0, inf)") for f in fields(cls))


class NumericConfig:
    """Base of a frozen dataclass of JSON numbers checked by ``config_fields``, named ``label``."""

    label: ClassVar[str]

    def __post_init__(self):
        cls = type(self)
        for name, value in check_record(vars(self), config_fields(cls), cls.__name__).items():
            object.__setattr__(self, name, value)

    @classmethod
    def load(cls, path):
        return cls(**check_record(load_json(path), config_fields(cls), f"{cls.label} {path}"))


BATCH = Field("batch", int, 1, "(0, inf)", "batch size for weight-fetch amortization")
SPARSITY = Field("target_sparsity", float, 0.7, "[0, 1)", "fraction of weights to prune")
BITS = Field("bits", int, 6, "[1, 8]", "codebook index width in bits")
GAP_BITS = Field("rel_index_bits", int, 4, "[1, 16]", "relative-index field width in bits")

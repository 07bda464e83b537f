"""JSON model files and deterministic output formatting for the CLI.

Model files carry either a transfer function ("tf": ascending num/den
coefficient lists) or a state-space quadruple ("ss": nested row-major lists,
A n x n, B n x 1, C 1 x n and D 1 x 1: one input and one output).
Serialization keeps 17 significant digits so values survive a round trip
through the printed form unchanged.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from json.encoder import encode_basestring_ascii as _quoted

import numpy as np

from .errors import InvalidInput
from .rational import Polynomial, RationalFunction
from .statespace import StateSpace


def _number_list(value, where: str) -> list[float]:
    if not isinstance(value, list) or not value:
        raise InvalidInput("%s must be a nonempty list of numbers" % where)
    out = []
    for i, x in enumerate(value):
        if isinstance(x, bool) or not isinstance(x, (int, float)):
            raise InvalidInput("%s[%d] is not a number" % (where, i))
        if not math.isfinite(x):
            raise InvalidInput("%s[%d] must be finite" % (where, i))
        out.append(float(x))
    return out


def _matrix(value, rows: int, cols: int, where: str) -> np.ndarray:
    if not isinstance(value, list):
        raise InvalidInput("%s must be a list of rows" % where)
    if len(value) != rows:
        raise InvalidInput("%s must have %d rows, got %d" % (where, rows, len(value)))
    # fast path: rows that are lists of plain ints and floats (type(True) is
    # bool, so bools stay out); anything else goes through the loop below,
    # which words the error or accepts number subclasses as before
    if set(map(type, value)) == {list} and set(
        map(type, itertools.chain.from_iterable(value))
    ) <= {int, float}:
        try:
            data = np.array(value, dtype=float)
        except ValueError:  # ragged rows
            data = None
        if data is not None and data.shape == (rows, cols) and np.isfinite(data).all():
            return data
    data = np.zeros((rows, cols))
    for i, row in enumerate(value):
        if not isinstance(row, list):
            raise InvalidInput("%s[%d] must be a list" % (where, i))
        if len(row) != cols:
            raise InvalidInput(
                "%s[%d] must have %d entries, got %d" % (where, i, cols, len(row))
            )
        for j, x in enumerate(row):
            if isinstance(x, bool) or not isinstance(x, (int, float)):
                raise InvalidInput("%s[%d][%d] is not a number" % (where, i, j))
            if not math.isfinite(x):
                raise InvalidInput("%s[%d][%d] must be finite" % (where, i, j))
            data[i, j] = float(x)
    return data


def parse_model_data(obj, where: str = "model"):
    """Validate a decoded model object; returns ("tf", RationalFunction) or
    ("ss", StateSpace)."""
    if not isinstance(obj, dict):
        raise InvalidInput("%s must be a JSON object" % where)
    kind = obj.get("kind")
    if kind == "tf":
        num = _number_list(obj.get("num"), where + ".num")
        den = _number_list(obj.get("den"), where + ".den")
        den_poly = Polynomial(den)
        if den_poly.is_zero:
            raise InvalidInput("%s.den must not be the zero polynomial" % where)
        return "tf", RationalFunction(Polynomial(num), den_poly)
    if kind == "ss":
        for field in ("A", "B", "C", "D"):
            if field not in obj:
                raise InvalidInput("%s.%s is required for kind 'ss'" % (where, field))
        n = len(obj["A"]) if isinstance(obj["A"], list) else 0
        A = _matrix(obj["A"], n, n, where + ".A")
        B = _matrix(obj["B"], n, 1, where + ".B")
        C = _matrix(obj["C"], 1, n, where + ".C")
        D = _matrix(obj["D"], 1, 1, where + ".D")
        return "ss", StateSpace(A, B, C, D)
    raise InvalidInput("%s.kind must be 'tf' or 'ss', got %r" % (where, kind))


def load_model(path: str):
    """Read a model file; returns (kind, system, sha256_hex_digest)."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InvalidInput("cannot read model file %s: %s" % (path, exc)) from exc
    digest = hashlib.sha256(raw).hexdigest()
    try:
        obj = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InvalidInput("model file %s is not valid JSON: %s" % (path, exc)) from exc
    kind, system = parse_model_data(obj, where=path)
    return kind, system, digest


def float_repr(x: float) -> str:
    """17-significant-digit decimal form; nonfinite values spelled out."""
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return "%.17g" % x


def json_text(obj, indent: int = 0) -> str:
    """Serialize to JSON with float_repr for every float.

    Dict insertion order is preserved; nonfinite floats become strings, since
    JSON has no literal for them; strings are quoted as json.dumps does.
    """
    pad = "  " * indent
    if isinstance(obj, (float, np.floating)):  # the types are disjoint: commonest first
        x = float(obj)
        if math.isfinite(x):
            return float_repr(x)
        return _quoted(float_repr(x))
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = []
        for k, v in obj.items():
            parts.append(pad + "  " + _quoted(str(k)) + ": " + json_text(v, indent + 1))
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ",\n".join(
            pad + "  " + json_text(v, indent + 1) for v in obj
        )
        return "[\n" + inner + "\n" + pad + "]"
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, str):
        return _quoted(obj)
    if isinstance(obj, np.ndarray):
        return json_text(obj.tolist(), indent)
    raise InvalidInput("cannot serialize %r" % type(obj))


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()

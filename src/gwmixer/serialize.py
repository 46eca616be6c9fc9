"""Byte-deterministic JSON emission.

The stdlib json module reprs floats (shortest round trip), which is
deterministic but not the fixed 17-significant-digit form the checkpoint
format pins down. This tiny emitter writes sorted keys and every float as
%.17g, so identical data always serializes to identical bytes. Artifacts are
written atomically.
"""

import json
import os

import numpy as np


def fmt_float(x) -> str:
    x = float(x)
    if not np.isfinite(x):
        raise ValueError(f"non-finite value {x!r} cannot be serialized")
    return format(x, ".17g")


def dumps_canonical(obj) -> str:
    out = []
    _emit(obj, out)
    return "".join(out)


def _emit(obj, out) -> None:
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind == "f" and obj.ndim:
            _emit_floats(obj, out)
        else:
            _emit(obj.tolist(), out)
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise TypeError(f"object keys must be strings, got {key!r}")
            if i:
                out.append(",")
            out.append(json.dumps(key))
            out.append(":")
            _emit(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _emit(item, out)
        out.append("]")
    elif isinstance(obj, bool) or obj is None:
        out.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(fmt_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _emit_floats(arr: np.ndarray, out) -> None:
    """A float array of one or more dimensions, as _emit writes the nested
    lists of arr.tolist(): one isfinite check for the whole array, then one
    format pass over each innermost row."""
    finite = np.isfinite(arr)
    if not finite.all():
        fmt_float(arr[~finite][0])  # raises, naming the first in row-major order
    out.append(_float_rows(arr.tolist(), arr.ndim))


def _float_rows(rows: list, ndim: int) -> str:
    if ndim == 1:
        return "[" + ",".join([format(x, ".17g") for x in rows]) + "]"
    return "[" + ",".join([_float_rows(row, ndim - 1) for row in rows]) + "]"


def write_text_atomic(path, text: str) -> None:
    """Write text to path so that a reader finds the previous file or the
    complete new one, never a part: the text goes to a temporary file in
    the same directory, is flushed to disk, and then replaces path. On
    failure the temporary file is removed and path is left as it was."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise

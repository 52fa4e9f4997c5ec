"""Machine-readable report output: schema-versioned JSON and CSV tables,
written atomically (write to a temp file, then rename)."""

import csv
import dataclasses
import datetime
import json
import os
import tempfile

import numpy as np

SCHEMA = "hardyspec-report/1"


def jsonable(obj):
    """Recursively convert result dataclasses, numpy scalars and arrays to
    JSON types.  A dataclass serializes field by field; a field's
    metadata {"key": name} renames it in the report, {"key": None} omits it."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = ((f.metadata.get("key", f.name), f.name)
                  for f in dataclasses.fields(obj))
        return {key: jsonable(getattr(obj, name))
                for key, name in fields if key is not None}
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, np.generic):     # a numpy scalar: its Python value
        return obj.item()
    return obj


def make_report(command, config, result, status):
    return {
        "schema": SCHEMA,
        "command": command,
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "config": jsonable(config),
        "result": jsonable(result),
        "status": status,
    }


def _atomic_write(path, text):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-report-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path, doc):
    # floats serialize with Python's shortest round-trip repr: lossless
    _atomic_write(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def write_csv(path, header, rows):
    import io
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(float(v)) if isinstance(v, (float, np.floating))
                         else v for v in row])
    _atomic_write(path, buf.getvalue())

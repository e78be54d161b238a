"""File formats: matrix and path literals, report JSON, the metrics CSV.

Matrices travel as {"dim", "re", "im"} with row-major nested lists
(rectangular blocks as {"rows", "cols", "re", "im"}); paths either carry
explicit samples or name a seeded family; JSON output is canonical
(sorted keys, two-space indent, trailing newline) so identical inputs
produce byte-identical files. Floats in CSV are printed with %.17g so a
round trip through text loses nothing.
"""

from __future__ import annotations

import dataclasses
import io
import json
from typing import TYPE_CHECKING

import numpy as np

from .errors import InputError, coerce_field, require_int
from .matcore import HermitianMatrix, _complex_array, _matrix_array
from .paths import OperatorPath, _declared_dim
from .specflow import SfCertificate

if TYPE_CHECKING:  # imported where used, so compute and report load only what they read
    from .graded import GradedOperator
    from .metrics import MetricReport
    from .opmodel import DiagonalModel

__all__ = [
    "matrix_to_obj",
    "matrix_from_obj",
    "block_to_obj",
    "block_from_obj",
    "path_to_obj",
    "path_from_obj",
    "graded_to_obj",
    "graded_from_obj",
    "model_from_obj",
    "certificate_to_obj",
    "metrics_csv",
    "dumps_json",
    "read_json",
    "write_text",
]


def matrix_to_obj(h) -> dict:
    """{"dim", "re", "im"} literal for a square complex matrix."""
    mat = _matrix_array(h, square=True)
    return {"dim": int(mat.shape[0]), **_array_to_parts(mat)}


def _array_to_parts(a: np.ndarray) -> dict:
    return {"re": np.real(a).tolist(), "im": np.imag(a).tolist()}


def _parts_to_array(obj: dict, shape: tuple[int, int], what: str) -> np.ndarray:
    if "re" not in obj or "im" not in obj:
        raise InputError(f"{what} literal needs numeric 're' and 'im' parts")
    re, im = _complex_array(obj["re"]), _complex_array(obj["im"])
    if re.imag.any() or im.imag.any():
        raise InputError(f"{what} literal needs real 're' and 'im' parts")
    if 0 in shape and re.size == im.size == 0:  # a block with no rows is written as []
        re, im = re.reshape(shape), im.reshape(shape)
    if re.shape != shape or im.shape != shape:
        raise InputError(
            f"{what} parts must have shape {shape}, got {re.shape} and {im.shape}"
        )
    return re + 1j * im


def matrix_from_obj(obj: dict) -> HermitianMatrix:
    return HermitianMatrix(_matrix_literal(obj))


def _matrix_literal(obj: dict) -> np.ndarray:
    """A matrix literal's structure, numbers and shape, read; not checked."""
    if not isinstance(obj, dict) or "dim" not in obj:
        raise InputError("matrix literal must be an object with a 'dim' field")
    n = coerce_field(obj["dim"], int, "dim")
    return _parts_to_array(obj, (n, n), "matrix")


def block_to_obj(a: np.ndarray) -> dict:
    """{"rows", "cols", "re", "im"} literal for a rectangular block."""
    a = _matrix_array(a)
    return {"rows": int(a.shape[0]), "cols": int(a.shape[1]), **_array_to_parts(a)}


def block_from_obj(obj: dict) -> np.ndarray:
    if not isinstance(obj, dict) or "rows" not in obj or "cols" not in obj:
        raise InputError("block literal must be an object with 'rows' and 'cols'")
    shape = tuple(coerce_field(obj[key], int, key) for key in ("rows", "cols"))
    return _parts_to_array(obj, shape, "block")


def _looks_like_matrix(value) -> bool:
    return isinstance(value, dict) and {"dim", "re", "im"} <= set(value)


def _revive_params(params: dict) -> dict:
    out = {}
    for key, value in params.items():
        out[key] = matrix_from_obj(value) if _looks_like_matrix(value) else value
    return out


def path_to_obj(path: OperatorPath, *, samples: int = 33) -> dict:
    """Sampled snapshot of a path (family paths round-trip exactly only
    when rebuilt from their family spec; this is the generic fallback)."""
    ts = np.linspace(0.0, 1.0, require_int(samples, "samples", 2))
    return {
        "dim": path.dim,
        "kind": "sampled",
        "samples": [matrix_to_obj(m) for m in path.matrices(ts)],
    }


def path_from_obj(obj: dict) -> OperatorPath:
    """A path from its literal. Every sample's literal is read before
    ``OperatorPath.from_samples`` compares their dims and checks the whole
    file by one stacked Hermitian check."""
    if not isinstance(obj, dict):
        raise InputError("path spec must be an object")
    kind = obj.get("kind")
    if kind == "sampled":
        samples = obj.get("samples")
        if not isinstance(samples, list) or len(samples) < 2:
            raise InputError("sampled path needs a list of at least 2 samples")
        path = OperatorPath.from_samples([_matrix_literal(s) for s in samples])
    elif kind == "family":
        from .generators import family_path

        spec = obj.get("family")
        if not isinstance(spec, dict) or "name" not in spec:
            raise InputError("family path needs a 'family' object with a 'name'")
        params = spec.get("params", {})
        if not isinstance(params, dict):
            raise InputError(f"family 'params' must be an object, got {params!r}")
        path = family_path(
            spec["name"],
            _revive_params(params),
            seed=spec.get("seed"),
            dim=obj.get("dim"),
        )
    else:
        raise InputError(f"path kind must be 'sampled' or 'family', got {kind!r}")
    return _declared_dim(path, obj["dim"]) if "dim" in obj else path


def graded_to_obj(g: GradedOperator) -> dict:
    return {"p": g.p, "q": g.q, "A": block_to_obj(g.block)}


def graded_from_obj(obj: dict) -> GradedOperator:
    from .graded import GradedOperator

    if not isinstance(obj, dict) or not {"p", "q", "A"} <= set(obj):
        raise InputError("graded spec needs 'p', 'q' and the block 'A'")
    p, q = (coerce_field(obj[key], int, key) for key in ("p", "q"))
    return GradedOperator(p, q, block_from_obj(obj["A"]))


def model_from_obj(obj: dict) -> tuple[DiagonalModel, list[str], list[int] | None]:
    """Diagonal-model spec {"N", "law", "family"?, "n"?} -> (model,
    families to tabulate, explicit index list or None for the default)."""
    from .opmodel import FAMILIES, DiagonalModel

    if not isinstance(obj, dict):
        raise InputError("model spec must be an object")
    model = DiagonalModel(
        coerce_field(obj.get("N", 64), int, "N"), obj.get("law", "linear")
    )
    fam = obj.get("family")
    if fam is None:
        families = list(FAMILIES)
    elif isinstance(fam, str):
        families = [fam]
    elif isinstance(fam, list):
        families = [str(f) for f in fam]
    else:
        raise InputError(f"'family' must be a name or a list of names, got {fam!r}")
    n = obj.get("n")
    if n is None:
        ns = None
    else:
        ns = [coerce_field(v, int, "n") for v in (n if isinstance(n, list) else [n])]
    return model, families, ns


def _fields_obj(record) -> dict:
    """A flat dataclass record as a JSON object, one key per field."""
    return {f.name: getattr(record, f.name) for f in dataclasses.fields(record)}


def certificate_to_obj(cert: SfCertificate) -> dict:
    return {
        "method": cert.method,
        "total": cert.total,
        "soundness": cert.soundness,
        "endpoint_gaps": list(cert.endpoint_gaps),
        "options": _fields_obj(cert.opts),
        "segments": [_fields_obj(seg) for seg in cert.segments],
    }


def _coerce(value):
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"not JSON-serializable: {type(value).__name__}")


def dumps_json(obj) -> str:
    """Canonical JSON: sorted keys, 2-space indent, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2, default=_coerce) + "\n"


def read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _cell(value) -> str:
    if value is None:
        return ""
    return "%.17g" % value if isinstance(value, float) else str(value)


def metrics_csv(rows: list[MetricReport]) -> str:
    """The separation table with residual columns; %.17g floats, empty
    cells where no closed form applies."""
    from .metrics import CSV_COLUMNS

    buf = io.StringIO()
    buf.write(",".join(CSV_COLUMNS) + "\n")
    for row in rows:
        buf.write(",".join(_cell(getattr(row, col)) for col in CSV_COLUMNS) + "\n")
    return buf.getvalue()

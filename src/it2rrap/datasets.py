"""Reading, writing and bundling benchmark problem files.

A problem file is line oriented.  Blank lines and ``#`` comments are
ignored.  The first significant line must be ``schema 1``.  Scalar keys
(``topology``, ``mission-hours``, ``subsystems``, the three limits and the
optional search-range overrides) take one value each.  One ``unit`` row per
sub-system carries its cost coefficients, weight and volume factor, numbered
consecutively from 1.  Each ``bounds`` row ties a weight pair to the
objective anchor values used when fuzzifying::

    bounds 1.0 0.5 r 0.6108074 0.8471696 c 209.480891 510.048771

Floats are written with ``repr`` so a dump/load cycle is value exact.
"""

from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Dict, Tuple

from .sysmodel import IdealBounds, SystemSpec, checked_weights

__all__ = [
    "BUNDLED_DATASETS",
    "Dataset",
    "bundled_dataset",
    "dump_dataset",
    "dumps_dataset",
    "load_dataset",
    "loads_dataset",
]

# Every scalar key, in the order files are written, with the type of its
# value.  Each names the SystemSpec field with dashes turned to
# underscores, except ``subsystems``, which the unit rows must match.
_SCALAR_KEYS = {
    "topology": str, "mission-hours": float, "subsystems": int,
    "weight-limit": float, "volume-limit": float, "cost-limit": float,
    "r-min": float, "r-max": float, "n-min": int, "n-max": int,
}
_OPTIONAL_KEYS = ("r-min", "r-max", "n-min", "n-max")
# the unit row labels, which are also the SystemSpec fields they fill
_UNIT_LABELS = ("alpha", "beta", "weight", "kappa")

# each is shipped as data/<name with underscores>.dat
BUNDLED_DATASETS = ("series-parallel", "parallel-series")


@dataclass(frozen=True)
class Dataset:
    """A problem instance plus its per-weight-pair objective anchors."""

    spec: SystemSpec
    bounds: Dict[Tuple[float, float], IdealBounds]

    def bounds_for(self, xi) -> IdealBounds:
        """Look up the anchors registered for the weight pair ``xi``."""
        key = (float(xi[0]), float(xi[1]))
        try:
            return self.bounds[key]
        except KeyError:
            known = "; ".join(f"{a:g},{b:g}" for a, b in self.bounds)
            raise ValueError(
                f"no anchors for weights {key[0]:g},{key[1]:g}"
                f" (available: {known})") from None

    @property
    def weight_pairs(self):
        return tuple(self.bounds)


def _fail(line_no: int, message: str):
    raise ValueError(f"line {line_no}: {message}")


def _parse_value(token: str, line_no: int, kind=float):
    """``token`` read as ``kind``: float, int or str."""
    try:
        return kind(token)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        _fail(line_no, f"expected {what}, got {token!r}")


def _parse_unit(tokens, line_no, units):
    if len(tokens) != 2 + 2 * len(_UNIT_LABELS):
        _fail(line_no, "unit rows take an index and four labelled values")
    index = _parse_value(tokens[1], line_no, int)
    if index != len(units) + 1:
        _fail(line_no, f"unit rows must be numbered consecutively,"
                       f" expected {len(units) + 1} got {index}")
    row = {}
    for pos, label in enumerate(_UNIT_LABELS):
        got = tokens[2 + 2 * pos]
        if got != label:
            _fail(line_no, f"expected label {label!r}, got {got!r}")
        row[label] = _parse_value(tokens[3 + 2 * pos], line_no)
    units.append(row)


def _parse_bounds(tokens, line_no, bounds):
    if len(tokens) != 9 or tokens[3] != "r" or tokens[6] != "c":
        _fail(line_no, "bounds rows read:"
                       " bounds XI1 XI2 r LEFT RIGHT c LEFT RIGHT")
    pair = [_parse_value(t, line_no) for t in tokens[1:3]]
    try:
        xi = checked_weights(pair)
    except ValueError as exc:
        _fail(line_no, str(exc))
    if xi in bounds:
        _fail(line_no, f"duplicate bounds for weights {xi[0]:g},{xi[1]:g}")
    r_left, r_right = (_parse_value(t, line_no) for t in tokens[4:6])
    c_left, c_right = (_parse_value(t, line_no) for t in tokens[7:9])
    if not r_left < r_right:
        _fail(line_no, "reliability anchors must satisfy left < right")
    if not c_left < c_right:
        _fail(line_no, "cost anchors must satisfy left < right")
    try:
        bounds[xi] = IdealBounds(r_left, r_right, c_left, c_right)
    except ValueError as exc:
        _fail(line_no, str(exc))


def loads_dataset(text: str) -> Dataset:
    """Parse a problem file from a string.

    Unknown or duplicated keys, malformed rows and inconsistent counts all
    raise ValueError naming the offending line.
    """
    scalars = {}
    units = []
    bounds = {}
    saw_schema = False
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        key = tokens[0]
        if not saw_schema:
            if key != "schema":
                _fail(line_no, "expected a schema declaration first")
            if tokens[1:] != ["1"]:
                _fail(line_no, f"unsupported schema {' '.join(tokens[1:])!r}")
            saw_schema = True
        elif key == "schema":
            _fail(line_no, "duplicate schema declaration")
        elif key == "unit":
            _parse_unit(tokens, line_no, units)
        elif key == "bounds":
            _parse_bounds(tokens, line_no, bounds)
        elif key in _SCALAR_KEYS:
            if key in scalars:
                _fail(line_no, f"duplicate key {key!r}")
            if len(tokens) != 2:
                _fail(line_no, f"key {key!r} takes exactly one value")
            scalars[key] = _parse_value(tokens[1], line_no, _SCALAR_KEYS[key])
        else:
            _fail(line_no, f"unknown key {key!r}")
    if not saw_schema:
        raise ValueError("empty problem file, expected a schema declaration")
    missing = [k for k in _SCALAR_KEYS
               if k not in scalars and k not in _OPTIONAL_KEYS]
    if missing:
        raise ValueError(f"missing required keys: {', '.join(missing)}")
    size = scalars.pop("subsystems")
    if len(units) != size:
        raise ValueError(f"expected {size} unit rows, found {len(units)}")
    if not bounds:
        raise ValueError("at least one bounds row is required")
    fields = {key.replace("-", "_"): value for key, value in scalars.items()}
    for label in _UNIT_LABELS:
        fields[label] = [u[label] for u in units]
    return Dataset(spec=SystemSpec(**fields), bounds=bounds)


def load_dataset(path) -> Dataset:
    """Parse the problem file at ``path``."""
    return loads_dataset(Path(path).read_text())


def dumps_dataset(dataset: Dataset) -> str:
    """Serialize a problem instance to the line format, value exact."""
    spec = dataset.spec
    lines = ["schema 1"]
    for key, kind in _SCALAR_KEYS.items():
        if key == "subsystems":
            value = spec.size
        else:
            value = getattr(spec, key.replace("-", "_"))
        # str() of a float is its repr, so the text reads back exactly
        lines.append(f"{key} {kind(value)}")
    for i in range(spec.size):
        cells = (f"{label} {float(getattr(spec, label)[i])!r}"
                 for label in _UNIT_LABELS)
        lines.append(f"unit {i + 1} {' '.join(cells)}")
    for (x1, x2), b in dataset.bounds.items():
        lines.append(
            f"bounds {float(x1)!r} {float(x2)!r}"
            f" r {b.r_left!r} {b.r_right!r} c {b.c_left!r} {b.c_right!r}")
    return "\n".join(lines) + "\n"


def dump_dataset(dataset: Dataset, path) -> None:
    """Write a problem instance to ``path``."""
    Path(path).write_text(dumps_dataset(dataset))


def bundled_dataset(name: str) -> Dataset:
    """Load one of the benchmark instances shipped with the package."""
    if name not in BUNDLED_DATASETS:
        known = ", ".join(BUNDLED_DATASETS)
        raise ValueError(f"unknown bundled dataset {name!r}"
                         f" (available: {known})")
    text = resources.files("it2rrap").joinpath(
        "data", name.replace("-", "_") + ".dat").read_text()
    return loads_dataset(text)

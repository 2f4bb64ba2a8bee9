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

_REQUIRED_KEYS = ("topology", "mission-hours", "subsystems",
                  "weight-limit", "volume-limit", "cost-limit")
_OPTIONAL_KEYS = ("r-min", "r-max", "n-min", "n-max")
_INT_KEYS = ("subsystems", "n-min", "n-max")
_UNIT_LABELS = ("alpha", "beta", "weight", "kappa")

BUNDLED_DATASETS = ("series-parallel", "parallel-series")
_BUNDLED_FILES = {
    "series-parallel": "series_parallel.dat",
    "parallel-series": "parallel_series.dat",
}


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


def _parse_float(token: str, line_no: int) -> float:
    try:
        return float(token)
    except ValueError:
        _fail(line_no, f"expected a number, got {token!r}")


def _parse_int(token: str, line_no: int) -> int:
    try:
        return int(token)
    except ValueError:
        _fail(line_no, f"expected an integer, got {token!r}")


def _parse_unit(tokens, line_no, units):
    if len(tokens) != 2 + 2 * len(_UNIT_LABELS):
        _fail(line_no, "unit rows take an index and four labelled values")
    index = _parse_int(tokens[1], line_no)
    if index != len(units) + 1:
        _fail(line_no, f"unit rows must be numbered consecutively,"
                       f" expected {len(units) + 1} got {index}")
    row = {}
    for pos, label in enumerate(_UNIT_LABELS):
        got = tokens[2 + 2 * pos]
        if got != label:
            _fail(line_no, f"expected label {label!r}, got {got!r}")
        row[label] = _parse_float(tokens[3 + 2 * pos], line_no)
    units.append(row)


def _parse_bounds(tokens, line_no, bounds):
    if len(tokens) != 9 or tokens[3] != "r" or tokens[6] != "c":
        _fail(line_no, "bounds rows read:"
                       " bounds XI1 XI2 r LEFT RIGHT c LEFT RIGHT")
    pair = [_parse_float(t, line_no) for t in tokens[1:3]]
    try:
        xi = checked_weights(pair)
    except ValueError as exc:
        _fail(line_no, str(exc))
    if xi in bounds:
        _fail(line_no, f"duplicate bounds for weights {xi[0]:g},{xi[1]:g}")
    r_left, r_right = (_parse_float(t, line_no) for t in tokens[4:6])
    c_left, c_right = (_parse_float(t, line_no) for t in tokens[7:9])
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
        elif key in _REQUIRED_KEYS or key in _OPTIONAL_KEYS:
            if key in scalars:
                _fail(line_no, f"duplicate key {key!r}")
            if len(tokens) != 2:
                _fail(line_no, f"key {key!r} takes exactly one value")
            if key == "topology":
                scalars[key] = tokens[1]
            elif key in _INT_KEYS:
                scalars[key] = _parse_int(tokens[1], line_no)
            else:
                scalars[key] = _parse_float(tokens[1], line_no)
        else:
            _fail(line_no, f"unknown key {key!r}")
    if not saw_schema:
        raise ValueError("empty problem file, expected a schema declaration")
    missing = [k for k in _REQUIRED_KEYS if k not in scalars]
    if missing:
        raise ValueError(f"missing required keys: {', '.join(missing)}")
    if len(units) != scalars["subsystems"]:
        raise ValueError(f"expected {scalars['subsystems']} unit rows,"
                         f" found {len(units)}")
    if not bounds:
        raise ValueError("at least one bounds row is required")
    extras = {opt.replace("-", "_"): scalars[opt]
              for opt in _OPTIONAL_KEYS if opt in scalars}
    spec = SystemSpec(
        topology=scalars["topology"],
        mission_hours=scalars["mission-hours"],
        alpha=[u["alpha"] for u in units],
        beta=[u["beta"] for u in units],
        weight=[u["weight"] for u in units],
        kappa=[u["kappa"] for u in units],
        weight_limit=scalars["weight-limit"],
        volume_limit=scalars["volume-limit"],
        cost_limit=scalars["cost-limit"],
        **extras,
    )
    return Dataset(spec=spec, bounds=bounds)


def load_dataset(path) -> Dataset:
    """Parse the problem file at ``path``."""
    return loads_dataset(Path(path).read_text())


def dumps_dataset(dataset: Dataset) -> str:
    """Serialize a problem instance to the line format, value exact."""
    spec = dataset.spec
    lines = [
        "schema 1",
        f"topology {spec.topology}",
        f"mission-hours {float(spec.mission_hours)!r}",
        f"subsystems {spec.size}",
        f"weight-limit {float(spec.weight_limit)!r}",
        f"volume-limit {float(spec.volume_limit)!r}",
        f"cost-limit {float(spec.cost_limit)!r}",
        f"r-min {float(spec.r_min)!r}",
        f"r-max {float(spec.r_max)!r}",
        f"n-min {int(spec.n_min)}",
        f"n-max {int(spec.n_max)}",
    ]
    for i in range(spec.size):
        lines.append(
            f"unit {i + 1}"
            f" alpha {float(spec.alpha[i])!r} beta {float(spec.beta[i])!r}"
            f" weight {float(spec.weight[i])!r}"
            f" kappa {float(spec.kappa[i])!r}")
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
    if name not in _BUNDLED_FILES:
        known = ", ".join(BUNDLED_DATASETS)
        raise ValueError(f"unknown bundled dataset {name!r}"
                         f" (available: {known})")
    text = resources.files("it2rrap").joinpath(
        "data", _BUNDLED_FILES[name]).read_text()
    return loads_dataset(text)

"""Command-line front end.

Subcommands: ``fidelity``, ``metric``, ``curvature``, ``surface``,
``verify``, ``oracle``. Single evaluations print flat ``key = value``
report documents; grids are written as CSV with 17-significant-digit
rendering. Exit status: 0 on success, 1 on verification failure, 2 on
input errors.
"""

import argparse
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import closed_form as cf
from . import core, curvature, fock, geometry, tolerances, verification
from .errors import ChartDomainError, GaussFisherError, ValidationError
from .states import MTS, STS, TS, FamilyPoint, family_cov


@dataclass(frozen=True)
class StateSpec:
    """Parsed state document: a family point plus optional mean offsets."""

    point: FamilyPoint
    mean: tuple = (0.0, 0.0, 0.0, 0.0)

    def to_state(self) -> core.TwoModeGaussian:
        return core.TwoModeGaussian(mean=np.array(self.mean), cov=family_cov(self.point))

    @property
    def displaced(self) -> bool:
        return any(v != 0.0 for v in self.mean)


def parse_state_document(text: str) -> StateSpec:
    """Parse a ``key = value`` state document.

    Keys: ``family`` (TS/MTS/STS), ``n1``, ``n2``, ``theta`` (MTS) or
    ``r`` (STS), ``phi``, and optionally ``mean`` with four
    comma-separated quadrature offsets. ``#`` starts a comment. A
    repeated key is an error.
    """
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        if key in entries:
            raise ValidationError(f"line {lineno}: repeated key {key!r}")
        entries[key] = value.strip()

    family = entries.pop("family", None)
    if family is None:
        raise ValidationError("state document is missing the 'family' key")
    family = family.upper()
    if family not in (TS, MTS, STS):
        raise ValidationError(f"unknown family {family!r} (expected TS, MTS or STS)")

    def take_float(key):
        if key not in entries:
            raise ValidationError(f"family {family} requires the {key!r} key")
        raw = entries.pop(key)
        try:
            return float(raw)
        except ValueError as exc:
            raise ValidationError(f"key {key!r}: {raw!r} is not a number") from exc

    n1, n2 = take_float("n1"), take_float("n2")
    if family == TS:
        point = FamilyPoint.ts(n1, n2)
    elif family == MTS:
        point = FamilyPoint.mts(n1, n2, take_float("theta"), take_float("phi"))
    else:
        point = FamilyPoint.sts(n1, n2, take_float("r"), take_float("phi"))

    mean = (0.0, 0.0, 0.0, 0.0)
    if "mean" in entries:
        parts = entries.pop("mean").replace(",", " ").split()
        if len(parts) != 4:
            raise ValidationError("'mean' must list four quadrature offsets")
        try:
            mean = tuple(float(p) for p in parts)
        except ValueError as exc:
            raise ValidationError("'mean' entries must be numbers") from exc
    if entries:
        raise ValidationError(f"unrecognized keys in state document: {sorted(entries)}")
    return StateSpec(point=point, mean=mean)


def _load_spec(path: str) -> StateSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read state document {path!r}: {exc}") from exc
    return parse_state_document(text)


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _emit_report(rows, out_path):
    text = "".join(f"{key} = {_fmt(value)}\n" for key, value in rows)
    _write(text, out_path)


def _write(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# --- subcommands ---------------------------------------------------------


def cmd_fidelity(args) -> int:
    spec_a = _load_spec(args.state_a)
    spec_b = _load_spec(args.state_b)
    breakdown = core.fidelity_two_mode(spec_a.to_state(), spec_b.to_state())
    dist = core.distances(min(breakdown.fidelity, 1.0))
    rows = [
        ("family_a", spec_a.point.tag),
        ("family_b", spec_b.point.tag),
        ("fidelity", breakdown.fidelity),
        ("overlap", breakdown.overlap),
        ("delta", breakdown.delta),
        ("gamma", breakdown.gamma),
        ("lambda", breakdown.lam),
        ("k_plus", breakdown.k_plus),
        ("k_minus", breakdown.k_minus),
        ("bures_distance", dist["bures"]),
        ("bures_angle", dist["angle"]),
    ]
    if spec_a.point.tag == spec_b.point.tag and not (spec_a.displaced or spec_b.displaced):
        closed = cf.fidelity_special(spec_a.point, spec_b.point)
        rows.append(("closed_form_fidelity", closed))
        rows.append(("closed_form_residual", abs(closed - breakdown.fidelity)))
    _emit_report(rows, args.out)
    return 0


def cmd_metric(args) -> int:
    if args.measurements < 1:
        raise ValidationError("number of measurements must be a positive integer")
    spec = _load_spec(args.state)
    if spec.point.tag == TS:
        raise ValidationError(
            "thermal points live on a 2d chart; the metric command covers "
            "the four-parameter MTS/STS charts"
        )
    diag = geometry.qfi_closed(spec.point)
    names = geometry.coord_names(spec.point.tag)
    rows = [("family", spec.point.tag)]
    rows += [(f"qfi_{name}", diag.h[name]) for name in names]
    rows += [(f"bures_{name}", diag.h[name] / 4.0) for name in names]
    rows.append(("measurements", args.measurements))
    for name in names:
        h = diag.h[name]
        rows.append((f"crb_{name}", math.inf if h == 0.0 else 1.0 / (args.measurements * h)))
    if any(diag.h[name] == 0.0 for name in names):
        rows.append(("crb_note", "infinite bounds mark unidentifiable parameters"))
    try:
        rows.append(("jeffreys_prior", geometry.jeffreys_prior(spec.point)))
    except ChartDomainError:
        rows.append(("jeffreys_prior", math.inf))
    if args.numeric:
        metric, diag_deviation, off_diagonal = verification.metric_deviation(spec.point)
        for i, name in enumerate(names):
            rows.append((f"numeric_bures_row_{name}",
                         ", ".join(repr(float(v)) for v in metric.matrix[i])))
        rows.append(("numeric_max_deviation", max(diag_deviation, off_diagonal)))
    _emit_report(rows, args.out)
    return 0


def cmd_curvature(args) -> int:
    family = args.family.upper()
    if family not in (MTS, STS):
        raise ValidationError("curvature is defined for the MTS and STS families")
    if not all(math.isfinite(v) for v in [args.n1, args.n2, *(args.device or [])]):
        raise ValidationError("n1, n2 and --device must be finite numbers")
    methods = ("closed", "pipeline", "warped") if args.method == "all" else (args.method,)
    rows = [("family", family), ("n1", args.n1), ("n2", args.n2), ("method", args.method)]
    values = {}
    warnings = []

    if "closed" in methods:
        values["closed"] = curvature.scalar_closed(family, args.n1, args.n2)
    if "warped" in methods:
        try:
            values["warped"] = curvature.scalar_warped(family, args.n1, args.n2)
        except ChartDomainError as exc:
            values["warped"] = None
            warnings.append(f"warped_unavailable: {exc}")
    if "pipeline" in methods:
        device = args.device or ([math.pi / 3.0, 0.0] if family == MTS else [0.5, 0.0])
        coordinate = device[0] if family == MTS else 2.0 * device[0]
        field = curvature.family_metric_field(family)
        try:
            report = curvature.scalar_curvature_pipeline(
                field, [args.n1, args.n2, coordinate, device[1]])
            values["pipeline"] = report.scalar_r
            rows.append(("pipeline_antisymmetry_residual",
                         report.residuals["antisymmetry"]))
        except ChartDomainError as exc:
            values["pipeline"] = None
            warnings.append(f"pipeline_unavailable: {exc}")

    for name in ("closed", "pipeline", "warped"):
        if name in values:
            value = values[name]
            rows.append((f"curvature_{name}", "unavailable" if value is None else value))
    finite = {k: v for k, v in values.items() if v is not None and math.isfinite(v)}
    if args.method == "all" and len(finite) >= 2:
        ref = finite.get("closed", 0.0)
        scale = abs(ref) if ref != 0.0 else 1.0
        pairs = [("pipeline", "closed"), ("warped", "closed"), ("pipeline", "warped")]
        residuals = [
            abs(finite[a] - finite[b]) / scale
            for a, b in pairs if a in finite and b in finite
        ]
        rows.append(("max_residual", max(residuals)))
    for i, warning in enumerate(warnings):
        rows.append((f"warning_{i}", warning))
    _emit_report(rows, args.out)
    return 0


_SADDLE2 = 2.0 * curvature.SADDLE_OCCUPANCY

_FIGURES = {
    "1": ("surface", MTS, (0.0, 5.0), 41),
    "2a": ("curve", (MTS, "symmetric"), (0.0, 5.0), 201),
    "2b": ("curve", (MTS, "perpendicular"), (0.0, 1.0), 201),
    "3": ("surface", STS, (0.0, 5.0), 41),
    "4a": ("curve", (STS, "symmetric"), (0.0, 5.0), 201),
    "4b": ("curve", (STS, "perpendicular"), (0.0, _SADDLE2), 201),
    "5": ("edges", None, (0.0, 5.0), 201),
}


def _grid_values(args, default_range, default_count):
    if args.values:
        try:
            values = [float(v) for v in args.values.split(",") if v.strip()]
        except ValueError as exc:
            raise ValidationError("--values must be a comma-separated number list") from exc
        if len(values) < 1:
            raise ValidationError("--values must contain at least one number")
        if not all(math.isfinite(v) for v in values):
            raise ValidationError("--values must be finite numbers")
        return values
    lo, hi = default_range
    if args.range:
        parts = args.range.split(":")
        if len(parts) != 2:
            raise ValidationError("--range must look like LO:HI")
        try:
            lo, hi = float(parts[0]), float(parts[1])
        except ValueError as exc:
            raise ValidationError("--range bounds must be numbers") from exc
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValidationError("--range bounds must be finite numbers")
    count = default_count if args.count is None else args.count
    if count < 2:
        raise ValidationError("grid needs at least 2 samples")
    if not lo < hi:
        raise ValidationError("--range needs LO < HI")
    return list(np.linspace(lo, hi, count))


def _g17(x: float) -> str:
    return f"{x:.17g}"


def cmd_surface(args) -> int:
    if args.figure not in _FIGURES:
        raise ValidationError(
            f"unknown figure {args.figure!r}; choose from {sorted(_FIGURES)}")
    kind, detail, default_range, default_count = _FIGURES[args.figure]
    values = _grid_values(args, default_range, default_count)
    lines = []
    if kind == "surface":
        lines.append("n1,n2,R")
        for n1 in values:
            for n2 in values:
                lines.append(",".join(
                    [_g17(n1), _g17(n2), _g17(curvature.scalar_closed(detail, n1, n2))]))
    elif kind == "curve":
        family, section = detail
        lines.append("n,R")
        for s in values:
            lines.append(",".join([_g17(s), _g17(curvature.section_curve(family, section, s))]))
    else:
        lines.append("n1,R_MT_edge,R_ST_edge")
        for s in values:
            lines.append(",".join([
                _g17(s),
                _g17(curvature.section_curve(MTS, "edge", s)),
                _g17(curvature.section_curve(STS, "edge", s)),
            ]))
    _write("\n".join(lines) + "\n", args.out)
    return 0


def cmd_verify(args) -> int:
    if args.seed < 0:
        raise ValidationError("--seed must be a non-negative integer")
    names = list(verification.SUITES) if args.suite == "all" else [args.suite]
    print(f"TOLERANCES {tolerances.describe()}")
    failures = 0
    for name in names:
        for result in verification.SUITES[name](args.seed):
            status = "PASS" if result.passed else "FAIL"
            print(f"{status} [{name}] {result.name}: {result.detail}")
            failures += 0 if result.passed else 1
    print(f"verify: {'OK' if failures == 0 else f'{failures} failure(s)'}")
    return 0 if failures == 0 else 1


def cmd_oracle(args) -> int:
    spec_a = _load_spec(args.state_a)
    spec_b = _load_spec(args.state_b)
    if spec_a.displaced or spec_b.displaced:
        raise ValidationError("the Fock oracle handles undisplaced states only")
    d = args.truncation
    if d is None:
        d = 40 if STS in (spec_a.point.tag, spec_b.point.tag) else 25
    rho_a = fock.family_dm(spec_a.point, d)
    rho_b = fock.family_dm(spec_b.point, d)
    uhlmann = fock.uhlmann_fidelity(rho_a, rho_b)
    general = core.fidelity_two_mode(spec_a.to_state(), spec_b.to_state())
    rows = [
        ("truncation", d),
        ("trace_deficit_a", rho_a.trace_deficit),
        ("trace_deficit_b", rho_b.trace_deficit),
        ("uhlmann_fidelity", uhlmann),
        ("general_fidelity", general.fidelity),
        ("fock_overlap", fock.overlap_fock(rho_a, rho_b)),
        ("general_overlap", general.overlap),
        ("fidelity_difference", abs(uhlmann - general.fidelity)),
    ]
    if spec_a.point.tag == spec_b.point.tag:
        closed = cf.fidelity_special(spec_a.point, spec_b.point)
        rows.append(("closed_form_fidelity", closed))
        rows.append(("closed_form_difference", abs(uhlmann - closed)))
    _emit_report(rows, args.out)
    return 0


# --- parser --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaussfisher",
        description="Fidelity, Fisher information and Bures curvature "
                    "for two-mode Gaussian states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fidelity", help="fidelity between two state documents")
    p.add_argument("state_a")
    p.add_argument("state_b")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_fidelity)

    p = sub.add_parser("metric", help="QFI/Bures metric at a family point")
    p.add_argument("state")
    p.add_argument("--numeric", action="store_true",
                   help="append the finite-difference Bures metric")
    p.add_argument("--measurements", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_metric)

    p = sub.add_parser("curvature", help="scalar curvature at (n1, n2)")
    p.add_argument("family", choices=["MTS", "STS", "mts", "sts"])
    p.add_argument("n1", type=float)
    p.add_argument("n2", type=float)
    p.add_argument("--method", choices=["closed", "pipeline", "warped", "all"],
                   default="closed")
    p.add_argument("--device", type=float, nargs=2, default=None,
                   metavar=("THETA_OR_R", "PHI"),
                   help="device point for the pipeline route")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_curvature)

    p = sub.add_parser("surface", help="CSV grid for one of the figures")
    p.add_argument("figure", help="one of 1, 2a, 2b, 3, 4a, 4b, 5")
    p.add_argument("--range", default=None, help="LO:HI sample range")
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--values", default=None,
                   help="comma-separated explicit sample values")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_surface)

    p = sub.add_parser("verify", help="run the seeded verification suites")
    p.add_argument("suite", choices=[*verification.SUITES, "all"])
    p.add_argument("--seed", type=int, default=1234)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="truncated-Fock fidelity cross-check")
    p.add_argument("state_a")
    p.add_argument("state_b")
    p.add_argument("--truncation", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GaussFisherError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

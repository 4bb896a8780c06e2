"""Command-line interface.

Subcommands:
    assemble     compress a symbol to a matrix file (JSON or CSV pair)
    norm         operator norm of a symbol's compression
    bound        closed-form norm bound from the symbol's L1/sup norms
    verify-nt    concentration inequality suite (includes equality cases)
    verify-lemma weighted-partition inequality suite (includes eps = 1 cases)
    sharpness    disc sharpness chain at a chosen center/radius
    approximate  discretization refinement with composite bounds
    norm-table   compression norms across a list of truncations

Every flag can also be supplied through --config (a JSON object keyed by flag
name with dashes replaced by underscores); explicit flags win. Outputs land
in --output-dir, else $FOCKLAB_OUTPUT_DIR, else the working directory.

Exit codes: 0 all checks hold, 1 at least one violation (reports are still
written), 2 configuration errors.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .experiments import (
    approximation_experiment,
    random_partition,
    random_region,
    sharpness_experiment,
    symbol_norm_bound,
    verify_concentration,
    verify_weighted_partition,
    WeightedPartition,
)
from .fock import coherent, random_unit
from .quadrature import AngularRule, ProductRule, RadialRule
from .regions import AnnularSector, Disc
from .reports import format_line, write_jsonl, write_summary_csv
from .symbols import RadialSymbol, SampledSymbol, SimpleSymbol
from .toeplitz import assemble, operator_norm


class ConfigError(Exception):
    pass


def load_symbol(path) -> object:
    """Read a symbol description: {"pieces": ...}, {"radial": ...} or
    {"sampled": {"radial_count", "angular_count", "linf", "values"}}."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read symbol file {path}: {exc}") from exc
    try:
        if "pieces" in data:
            return SimpleSymbol.from_json_dict(data)
        if "radial" in data:
            return RadialSymbol.from_json_dict(data)
        if "sampled" in data:
            spec = data["sampled"]
            rule = ProductRule(
                RadialRule.gauss_laguerre(int(spec["radial_count"])),
                AngularRule.uniform(int(spec["angular_count"])),
            )
            return SampledSymbol(rule, np.array(spec["values"], dtype=float),
                                 float(spec["linf"]))
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad symbol description in {path}: {exc}") from exc
    raise ConfigError(
        f"symbol file {path} must contain 'pieces', 'radial' or 'sampled'"
    )


def _resolve(args: argparse.Namespace, key: str, default=None, required: bool = False):
    """Explicit flag > config file entry > default."""
    val = getattr(args, key, None)
    if val is None and args.config_data:
        val = args.config_data.get(key)
    if val is None:
        val = default
    if required and val is None:
        raise ConfigError(f"missing required option --{key.replace('_', '-')}")
    return val


def _out_dir(args) -> Path:
    raw = _resolve(args, "output_dir", os.environ.get("FOCKLAB_OUTPUT_DIR", "."))
    path = Path(raw)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _stem(raw, ext: str) -> str:
    """--output takes a stem or a filename; drop a trailing extension that
    matches what the command is about to append."""
    raw = str(raw)
    return raw[: -len(ext)] if raw.endswith(ext) else raw


def _parse_int_list(raw, flag: str) -> list:
    if isinstance(raw, (list, tuple)):
        return [int(v) for v in raw]
    try:
        return [int(part) for part in str(raw).split(",") if part != ""]
    except ValueError as exc:
        raise ConfigError(f"--{flag} expects comma-separated integers, got {raw!r}") from exc


def _emit(reports, args, stem: str) -> int:
    out = _out_dir(args)
    write_jsonl(reports, out / f"{stem}_reports.jsonl")
    write_summary_csv(reports, out / f"{stem}_summary.csv")
    for report in reports:
        print(format_line(report))
    failures = sum(0 if r.holds else 1 for r in reports)
    print(f"{len(reports) - failures}/{len(reports)} checks hold")
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_assemble(args) -> int:
    symbol = load_symbol(_resolve(args, "symbol", required=True))
    truncation = int(_resolve(args, "truncation", required=True))
    fmt = _resolve(args, "format", "json")
    if fmt not in ("json", "csv"):
        raise ConfigError(f"--format must be json or csv, got {fmt!r}")
    matrix = assemble(symbol, truncation)
    out = _out_dir(args)
    stem = _stem(_resolve(args, "output", "matrix"), f".{fmt}")
    if fmt == "json":
        path = out / f"{stem}.json"
        path.write_text(matrix.to_json() + "\n", encoding="utf-8")
        print(f"wrote {path.name} (dimension {matrix.dimension})")
    else:
        real = out / f"{stem}_real.csv"
        imag = out / f"{stem}_imag.csv"
        matrix.write_csv(real, imag)
        print(f"wrote {real.name}, {imag.name} (dimension {matrix.dimension})")
    return 0


def _cmd_norm(args) -> int:
    symbol = load_symbol(_resolve(args, "symbol", required=True))
    truncation = int(_resolve(args, "truncation", required=True))
    method = _resolve(args, "method", "auto")
    matrix = assemble(symbol, truncation)
    try:
        norm = operator_norm(matrix, method=method)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    print(f"norm={norm:.12g} truncation={truncation}")
    stem = _resolve(args, "output")
    if stem is not None:
        path = _out_dir(args) / f"{_stem(stem, '.json')}.json"
        payload = {"norm": norm, "truncation": truncation, "method": method}
        path.write_text(json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {path.name}")
    return 0


def _cmd_bound(args) -> int:
    symbol = load_symbol(_resolve(args, "symbol", required=True))
    l1 = symbol.l1_norm()
    linf = symbol.linf_norm()
    bound = symbol_norm_bound(l1, linf)
    print(f"l1={l1:.12g} linf={linf:.12g} bound={bound:.12g}")
    stem = _resolve(args, "output")
    if stem is not None:
        path = _out_dir(args) / f"{_stem(stem, '.json')}.json"
        payload = {"l1": l1, "linf": linf, "bound": bound}
        path.write_text(json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {path.name}")
    return 0


def _with_meta(report, **extra):
    return dataclasses.replace(report, metadata={**report.metadata, **extra})


def _cmd_verify_nt(args) -> int:
    seed = int(_resolve(args, "seed", 0))
    cases = int(_resolve(args, "cases", 25))
    truncation = int(_resolve(args, "truncation", 48))
    rng = np.random.default_rng(seed)
    reports = []

    # Equality cases: the state concentrated at a disc center saturates the
    # inequality for that disc.
    for center, radius in (
        (0.0 + 0.0j, (1.0 / np.pi) ** 0.5),
        (0.7 + 0.3j, 0.6),
        (-0.4 + 1.1j, (2.0 / np.pi) ** 0.5),
    ):
        f = coherent(center, truncation)
        report = verify_concentration(f, Disc(center, radius))
        reports.append(_with_meta(report, equality=True, case="coherent-center"))

    for _ in range(cases):
        degree = int(rng.integers(5, 26))
        f = random_unit(rng, degree=degree, truncation=truncation)
        region = random_region(rng)
        reports.append(verify_concentration(f, region))

    return _emit(reports, args, "verify_nt")


def _cmd_verify_lemma(args) -> int:
    seed = int(_resolve(args, "seed", 0))
    cases = int(_resolve(args, "cases", 25))
    truncation = int(_resolve(args, "truncation", 48))
    rng = np.random.default_rng(seed)
    reports = []

    # Weight-one cases: with every weight 1 the lemma is plain concentration
    # on the union of the pieces.
    for radii, arcs in (((0.5, 1.3), 4), ((0.2, 0.9), 3)):
        edges = np.linspace(0.0, 2.0 * np.pi, arcs + 1)
        pieces = tuple(
            (AnnularSector(radii[0], radii[1], float(a), float(b)), 1.0)
            for a, b in zip(edges[:-1], edges[1:])
        )
        f = random_unit(rng, degree=12, truncation=truncation)
        report = verify_weighted_partition(f, WeightedPartition(pieces))
        reports.append(_with_meta(report, epsilon_one=True))

    for _ in range(cases):
        degree = int(rng.integers(5, 26))
        f = random_unit(rng, degree=degree, truncation=truncation)
        partition = random_partition(rng)
        reports.append(verify_weighted_partition(f, partition))

    return _emit(reports, args, "verify_lemma")


def _cmd_sharpness(args) -> int:
    raw_center = _resolve(args, "center", "0")
    try:
        center = complex(str(raw_center).replace(" ", ""))
    except ValueError as exc:
        raise ConfigError(f"--center must parse as a complex number, got {raw_center!r}") from exc
    radius = float(_resolve(args, "radius", required=True))
    truncation = int(_resolve(args, "truncation", 40))
    reports = sharpness_experiment(center, radius, truncation)
    return _emit(reports, args, "sharpness")


def _cmd_approximate(args) -> int:
    symbol = load_symbol(_resolve(args, "symbol", required=True))
    grids = _parse_int_list(_resolve(args, "grids", "8,16,32,64"), "grids")
    truncation = int(_resolve(args, "truncation", 40))
    if isinstance(symbol, SimpleSymbol):
        raise ConfigError("approximate expects a radial or sampled symbol")
    reports = approximation_experiment(symbol, grids, truncation)
    return _emit(reports, args, "approx")


def _cmd_norm_table(args) -> int:
    symbol = load_symbol(_resolve(args, "symbol", required=True))
    truncations = _parse_int_list(_resolve(args, "truncations", "20,40,60"), "truncations")
    if any(t < 1 for t in truncations):
        raise ConfigError("truncations must be positive")
    l1 = symbol.l1_norm()
    linf = symbol.linf_norm()
    bound = symbol_norm_bound(l1, linf)
    rows = []
    for n in truncations:
        rows.append((n, operator_norm(assemble(symbol, n))))
    out = _out_dir(args)
    stem = _stem(_resolve(args, "output", "norm_table"), ".csv")
    path = out / f"{stem}.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("truncation,norm,bound\n")
        for n, norm in rows:
            fh.write(f"{n},{norm:.17g},{bound:.17g}\n")
    for n, norm in rows:
        print(f"truncation={n} norm={norm:.12g} bound={bound:.12g}")
    print(f"wrote {path.name}")
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON file with default option values")
    sub.add_argument("--output-dir", dest="output_dir",
                     help="directory for output files (default: $FOCKLAB_OUTPUT_DIR or .)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="focklab",
        description="Concentration and Toeplitz-norm experiments on the Bargmann-Fock space",
    )
    parser.add_argument("--version", action="version", version=f"focklab {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("assemble", help="compress a symbol to a matrix file")
    p.add_argument("--symbol")
    p.add_argument("--truncation", type=int)
    p.add_argument("--format", choices=("json", "csv"))
    p.add_argument("--output", help="output file name or stem")
    _add_common(p)
    p.set_defaults(func=_cmd_assemble)

    p = subs.add_parser("norm", help="operator norm of a symbol's compression")
    p.add_argument("--symbol")
    p.add_argument("--truncation", type=int)
    p.add_argument("--method", choices=("auto", "jacobi"))
    p.add_argument("--output", help="output file name or stem")
    _add_common(p)
    p.set_defaults(func=_cmd_norm)

    p = subs.add_parser("bound", help="closed-form norm bound from L1/sup norms")
    p.add_argument("--symbol")
    p.add_argument("--output", help="output file name or stem")
    _add_common(p)
    p.set_defaults(func=_cmd_bound)

    p = subs.add_parser("verify-nt", help="concentration inequality suite")
    p.add_argument("--seed", type=int)
    p.add_argument("--cases", type=int)
    p.add_argument("--truncation", type=int)
    _add_common(p)
    p.set_defaults(func=_cmd_verify_nt)

    p = subs.add_parser("verify-lemma", help="weighted-partition inequality suite")
    p.add_argument("--seed", type=int)
    p.add_argument("--cases", type=int)
    p.add_argument("--truncation", type=int)
    _add_common(p)
    p.set_defaults(func=_cmd_verify_lemma)

    p = subs.add_parser("sharpness", help="disc sharpness chain")
    p.add_argument("--center")
    p.add_argument("--radius", type=float)
    p.add_argument("--truncation", type=int)
    _add_common(p)
    p.set_defaults(func=_cmd_sharpness)

    p = subs.add_parser("approximate", help="discretization refinement experiment")
    p.add_argument("--symbol")
    p.add_argument("--grids")
    p.add_argument("--truncation", type=int)
    _add_common(p)
    p.set_defaults(func=_cmd_approximate)

    p = subs.add_parser("norm-table", help="norms across truncations")
    p.add_argument("--symbol")
    p.add_argument("--truncations")
    p.add_argument("--output", help="output file name or stem")
    _add_common(p)
    p.set_defaults(func=_cmd_norm_table)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.config_data = {}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                args.config_data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read config {args.config}: {exc}", file=sys.stderr)
            return 2
        if not isinstance(args.config_data, dict):
            print(f"error: config {args.config} must be a JSON object", file=sys.stderr)
            return 2
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
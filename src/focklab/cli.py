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

Each option comes from its flag, else from --config (a JSON object keyed by
flag name with dashes replaced by underscores, each value read as the text of
its flag, so it passes the same checks), else from its default in `_COMMANDS`;
--output-dir then falls back to $FOCKLAB_OUTPUT_DIR and the working directory.
A config key that is no flag, a negative --cases, an empty integer list and a
symbol file without exactly one of 'pieces', 'radial' and 'sampled' are
configuration errors.

Exit codes: 0 all checks hold, 1 at least one violation (reports are still
written), 2 configuration errors. Errors and warnings go to stderr as
"error: <message>" and "warning: <message>", with no source location.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import warnings
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
    kinds = [key for key in ("pieces", "radial", "sampled")
             if isinstance(data, dict) and key in data]
    if len(kinds) != 1:
        raise ConfigError(
            f"symbol file {path} must contain exactly one of 'pieces', 'radial' "
            f"or 'sampled', found {kinds or 'none'}"
        )
    try:
        if kinds == ["pieces"]:
            return SimpleSymbol.from_json_dict(data)
        if kinds == ["radial"]:
            return RadialSymbol.from_json_dict(data)
        spec = data["sampled"]
        rule = ProductRule(
            RadialRule.gauss_laguerre(int(spec["radial_count"])),
            AngularRule(int(spec["angular_count"])),
        )
        return SampledSymbol(rule, np.array(spec["values"], dtype=float),
                             float(spec["linf"]))
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad symbol description in {path}: {exc}") from exc


def _out_dir(args) -> Path:
    path = Path(args.output_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _stem(raw: str, ext: str) -> str:
    """--output takes a stem or a filename; drop a trailing extension that
    matches what the command is about to append."""
    return raw[: -len(ext)] if raw.endswith(ext) else raw


def _parse_int_list(raw: str, flag: str) -> list:
    try:
        values = [int(part) for part in raw.split(",") if part != ""]
    except ValueError as exc:
        raise ConfigError(f"--{flag} expects comma-separated integers, got {raw!r}") from exc
    if not values:
        raise ConfigError(f"--{flag} expects at least one integer, got {raw!r}")
    return values


def _write_json(args, payload: dict) -> None:
    """Write payload to <--output>.json; without --output write nothing."""
    if args.output is None:
        return
    path = _out_dir(args) / f"{_stem(args.output, '.json')}.json"
    path.write_text(json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path.name}")


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
    matrix = assemble(load_symbol(args.symbol), args.truncation)
    out = _out_dir(args)
    stem = _stem(args.output, f".{args.format}")
    if args.format == "json":
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
    matrix = assemble(load_symbol(args.symbol), args.truncation)
    norm = operator_norm(matrix, method=args.method)
    print(f"norm={norm:.12g} truncation={args.truncation}")
    _write_json(args, {"norm": norm, "truncation": args.truncation, "method": args.method})
    return 0


def _cmd_bound(args) -> int:
    symbol = load_symbol(args.symbol)
    l1 = symbol.l1_norm()
    linf = symbol.linf_norm()
    bound = symbol_norm_bound(l1, linf)
    print(f"l1={l1:.12g} linf={linf:.12g} bound={bound:.12g}")
    _write_json(args, {"l1": l1, "linf": linf, "bound": bound})
    return 0


def _with_meta(report, **extra):
    return dataclasses.replace(report, metadata={**report.metadata, **extra})


_MAX_DEGREE = 25  # the largest degree of a suite's random functions


def _suite_rng(args, fixed_truncation: int) -> np.random.Generator:
    """The seeded generator of a verify suite. --cases must be non-negative,
    and --truncation must hold the suite's fixed cases (fixed_truncation
    basis elements) and, if there are random cases, degree _MAX_DEGREE."""
    if args.cases < 0:
        raise ConfigError(f"--cases must be non-negative, got {args.cases}")
    least = max(fixed_truncation, _MAX_DEGREE + 1) if args.cases else fixed_truncation
    if args.truncation < least:
        raise ConfigError(f"--truncation must be at least {least} for {args.command} "
                          f"with --cases {args.cases}, got {args.truncation}")
    return np.random.default_rng(args.seed)


def _random_cases(args, rng, reports: list, draw, verify, stem: str) -> int:
    """Append --cases reports of verify(f, draw(rng)), each on a random unit
    f, to a suite's fixed cases, then emit them all."""
    for _ in range(args.cases):
        degree = int(rng.integers(5, _MAX_DEGREE + 1))
        f = random_unit(rng, degree=degree, truncation=args.truncation)
        reports.append(verify(f, draw(rng)))
    return _emit(reports, args, stem)


def _cmd_verify_nt(args) -> int:
    # the coherent states below are unit to 1e-12 from 26 basis elements on
    rng = _suite_rng(args, 26)
    reports = []

    # Equality cases: the state concentrated at a disc center saturates the
    # inequality for that disc.
    for center, radius in (
        (0.0 + 0.0j, (1.0 / np.pi) ** 0.5),
        (0.7 + 0.3j, 0.6),
        (-0.4 + 1.1j, (2.0 / np.pi) ** 0.5),
    ):
        f = coherent(center, args.truncation)
        report = verify_concentration(f, Disc(center, radius))
        reports.append(_with_meta(report, equality=True, case="coherent-center"))

    return _random_cases(args, rng, reports, random_region, verify_concentration, "verify_nt")


def _cmd_verify_lemma(args) -> int:
    # the functions of degree 12 below need 13 basis elements
    rng = _suite_rng(args, 13)
    reports = []

    # Weight-one cases: with every weight 1 the lemma is plain concentration
    # on the union of the pieces.
    for radii, arcs in (((0.5, 1.3), 4), ((0.2, 0.9), 3)):
        edges = np.linspace(0.0, 2.0 * np.pi, arcs + 1)
        pieces = tuple(
            (AnnularSector(radii[0], radii[1], float(a), float(b)), 1.0)
            for a, b in zip(edges[:-1], edges[1:])
        )
        f = random_unit(rng, degree=12, truncation=args.truncation)
        report = verify_weighted_partition(f, WeightedPartition(pieces))
        reports.append(_with_meta(report, epsilon_one=True))

    return _random_cases(args, rng, reports, random_partition, verify_weighted_partition,
                         "verify_lemma")


def _cmd_sharpness(args) -> int:
    try:
        center = complex(args.center.replace(" ", ""))
    except ValueError as exc:
        raise ConfigError(f"--center must parse as a complex number, got {args.center!r}") from exc
    reports = sharpness_experiment(center, args.radius, args.truncation)
    return _emit(reports, args, "sharpness")


def _cmd_approximate(args) -> int:
    symbol = load_symbol(args.symbol)
    grids = _parse_int_list(args.grids, "grids")
    if isinstance(symbol, SimpleSymbol):
        raise ConfigError("approximate expects a radial or sampled symbol")
    reports = approximation_experiment(symbol, grids, args.truncation)
    return _emit(reports, args, "approx")


def _cmd_norm_table(args) -> int:
    symbol = load_symbol(args.symbol)
    truncations = _parse_int_list(args.truncations, "truncations")
    if any(t < 1 for t in truncations):
        raise ConfigError("truncations must be positive")
    l1 = symbol.l1_norm()
    linf = symbol.linf_norm()
    bound = symbol_norm_bound(l1, linf)
    rows = []
    for n in truncations:
        rows.append((n, operator_norm(assemble(symbol, n))))
    out = _out_dir(args)
    stem = _stem(args.output, ".csv")
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
# the table and the parser built from it


_REQUIRED = object()  # the default of an option that has none

_SUITE = {"seed": 0, "cases": 25, "truncation": 48}  # both verify suites

# Each subcommand: its --help line, its body, and {flag: default} for its own
# flags in --help order. Every subcommand also takes the _COMMON flags.
_COMMANDS = {
    "assemble": ("compress a symbol to a matrix file", _cmd_assemble, {
        "symbol": _REQUIRED, "truncation": _REQUIRED, "format": "json", "output": "matrix"}),
    "norm": ("operator norm of a symbol's compression", _cmd_norm, {
        "symbol": _REQUIRED, "truncation": _REQUIRED, "method": "auto", "output": None}),
    "bound": ("closed-form norm bound from L1/sup norms", _cmd_bound, {
        "symbol": _REQUIRED, "output": None}),
    "verify-nt": ("concentration inequality suite", _cmd_verify_nt, _SUITE),
    "verify-lemma": ("weighted-partition inequality suite", _cmd_verify_lemma, _SUITE),
    "sharpness": ("disc sharpness chain", _cmd_sharpness, {
        "center": "0", "radius": _REQUIRED, "truncation": 40}),
    "approximate": ("discretization refinement experiment", _cmd_approximate, {
        "symbol": _REQUIRED, "grids": "8,16,32,64", "truncation": 40}),
    "norm-table": ("norms across truncations", _cmd_norm_table, {
        "symbol": _REQUIRED, "truncations": "20,40,60", "output": "norm_table"}),
}
_COMMON = ("config", "output_dir")

# argparse options of every flag; a flag without a type is a string
_FLAGS = {
    "symbol": {},
    "truncation": {"type": int},
    "format": {"choices": ("json", "csv")},
    "method": {"choices": ("auto", "jacobi")},
    "output": {"help": "output file name or stem"},
    "seed": {"type": int},
    "cases": {"type": int},
    "center": {},
    "radius": {"type": float},
    "grids": {},
    "truncations": {},
    "config": {"help": "JSON file with default option values"},
    "output_dir": {"help": "directory for output files (default: $FOCKLAB_OUTPUT_DIR or .)"},
}


def _option(flag: str) -> str:
    return "--" + flag.replace("_", "-")


def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand in _COMMANDS. Flags have no argparse
    default, so an unset flag reads None until _parse fills it."""
    parser = argparse.ArgumentParser(
        prog="focklab",
        description="Concentration and Toeplitz-norm experiments on the Bargmann-Fock space",
    )
    parser.add_argument("--version", action="version", version=f"focklab {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (summary, _, defaults) in _COMMANDS.items():
        sub = subs.add_parser(name, help=summary)
        for flag in (*defaults, *_COMMON):
            sub.add_argument(_option(flag), **_FLAGS[flag])
    return parser


_PARSER = build_parser()


def _read_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    # keys of other subcommands stay allowed, so that one file serves several
    unknown = sorted(set(config) - set(_FLAGS))
    if unknown:
        raise ConfigError(f"config {path} has keys that are no flag: {', '.join(unknown)}")
    return config


def _config_text(value) -> str:
    """The command-line text of a --config value."""
    if isinstance(value, list):
        return ",".join(json.dumps(item) for item in value)
    return value if isinstance(value, str) else json.dumps(value)


def _attach_signed_values(argv: list) -> list:
    """argv with each `--flag VALUE` whose VALUE starts with '-' and reads as
    a number written `--flag=VALUE`: argparse takes such a VALUE for an
    option unless it is a plain negative real, so `--center -2+1j` would
    otherwise lack its argument."""
    out = []
    for token in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and token.startswith("-"):
            try:
                complex(token.replace(" ", ""))
            except ValueError:
                pass
            else:
                out[-1] += "=" + token
                continue
        out.append(token)
    return out


def _parse(argv: list) -> argparse.Namespace:
    """Flags, then --config entries, then the defaults of _COMMANDS.

    The config entries of the subcommand's unset flags (those that read None;
    other subcommands' flags are absent) are appended to argv as --flag=text
    and parsed again, so they pass the same checks as flags."""
    argv = _attach_signed_values(argv)
    args = _PARSER.parse_args(argv)
    if args.config is not None:
        given = [f"{_option(key)}={_config_text(value)}"
                 for key, value in _read_config(args.config).items()
                 if value is not None and getattr(args, key, 0) is None]
        args = _PARSER.parse_args([*argv, *given])
    for flag, default in _COMMANDS[args.command][2].items():
        if getattr(args, flag) is None:
            if default is _REQUIRED:
                raise ConfigError(f"missing required option {_option(flag)}")
            setattr(args, flag, default)
    if args.output_dir is None:
        args.output_dir = os.environ.get("FOCKLAB_OUTPUT_DIR", ".")
    return args


def main(argv=None) -> int:
    # catch_warnings restores showwarning on return; the filters stay the caller's
    with warnings.catch_warnings():
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            args = _parse(sys.argv[1:] if argv is None else list(argv))
            return _COMMANDS[args.command][1](args)
        except (ConfigError, ValueError, TypeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())

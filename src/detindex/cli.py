"""Batch command-line front end.

Reads a JSON manifest describing a singularity (variables, defining
matrix, rank bound t, 1-form coefficients, optional topological data),
dispatches one computation, and emits a byte-stable JSON report: sorted
keys, exact integers, the string "INFINITE" for the INFINITE sentinel,
and no floats anywhere.  Every value is computed over the rationals
under the one local order, which the report's provenance names.
Emitted reports embed the normalized manifest, so a report file can
itself be fed back as input and reproduces its output.

Exit codes: 0 success, 1 a manifest validation error (the message names
the offending field) or a usage error (argparse's message), 2 a
computation signalled an infinite value where a finite one was required,
or the oracle disagreed with the engine.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional

from .conversions import (
    chi_bar_hyperplane,
    chi_fiber,
    coeff_matrices,
    isolated_indices,
    ph_index,
    phn_from_radial,
    radial_from_phn,
    StrataIndexData,
)
from .determinantal import (
    DetSingularity,
    OneForm,
    chi_singular_stratum,
    classify,
    isolation_bound,
    minors,
)
from .form_indices import (
    algebra_ideal,
    gmvs_ideal,
    icis_ideal,
    omega_quotient_generators,
)
from .rings import LOCAL_ORDER, PolyParseError, RingContext, parse_poly
from .standard_bases import INFINITE, Ideal, colength, module_colength
from .truncation import (
    ORACLE_CEILING,
    ORACLE_START_CAP,
    stabilized_colength,
    stabilized_module_colength,
)


class InputError(ValueError):
    """An input the CLI refuses; the message starts with what is at fault:
    the manifest file, a manifest field or a command-line option."""

    def __init__(self, where: str, message: str):
        super().__init__("%s: %s" % (where, message))


class ManifestError(InputError):
    def __init__(self, field: str, message: str):
        super().__init__("manifest field '%s'" % field, message)


def _jsonable(value):
    if value is INFINITE:
        return "INFINITE"
    if isinstance(value, bool) or isinstance(value, int):
        return value
    if isinstance(value, str):
        return value
    if value is None:
        return None
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    raise TypeError("value %r is not representable in a report" % (value,))


def _dump(doc: dict) -> str:
    return json.dumps(_jsonable(doc), sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# manifest loading and validation

def load_manifest(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError("manifest file", str(exc)) from None
    except UnicodeDecodeError as exc:
        raise InputError("manifest file", "not valid UTF-8: %s" % exc) from None
    except ValueError as exc:  # bad syntax, or an integer too long to convert
        raise InputError("manifest file", "invalid JSON: %s" % exc) from None
    except RecursionError:
        raise InputError("manifest file", "JSON nested too deeply") from None
    if not isinstance(doc, dict):
        raise InputError("manifest file", "top-level value must be an object")
    if "manifest" in doc and "command" in doc:
        doc = doc["manifest"]  # a previously emitted report
        if not isinstance(doc, dict):
            raise ManifestError("manifest", "embedded manifest must be an object")
    return doc


def _require_string_list(manifest: dict, field: str) -> list:
    value = manifest.get(field)
    if not isinstance(value, list) or not value or not all(isinstance(s, str) for s in value):
        raise ManifestError(field, "must be a nonempty list of strings")
    return value


def _require_int(manifest: dict, field: str) -> int:
    value = manifest.get(field)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ManifestError(field, "must be an integer")
    return value


def _require_int_list(manifest: dict, field: str, length: Optional[int] = None) -> list:
    value = manifest.get(field)
    if not isinstance(value, list) or not all(isinstance(v, int) and not isinstance(v, bool) for v in value):
        raise ManifestError(field, "must be a list of integers")
    if length is not None and len(value) != length:
        raise ManifestError(field, "must have length %d" % length)
    return value


def _parse_polys(field: str, entries: list, ring: RingContext, row: str = "") -> list:
    """Parse a list of polynomial strings; an error names the field and
    the entry, as `entry [i]` (or `entry [row][i]` in a matrix)."""
    polys = []
    for i, entry in enumerate(entries):
        where = "entry %s[%d]" % (row, i)
        if not isinstance(entry, str):
            raise ManifestError(field, "%s must be a string" % where)
        try:
            polys.append(parse_poly(entry, ring))
        except PolyParseError as exc:
            raise ManifestError(field, "%s: %s" % (where, exc)) from None
    return polys


# The fields every report copies as given, each with its type check, in
# the order they are checked.  Their types are checked for every command;
# t and the ranges are checked where used.
_COPIED_FIELDS = {
    "type": functools.partial(_require_int_list, length=3),
    "radial": _require_int_list,
    "chi": _require_int_list,
    "N": _require_int,
    "chi_sing": _require_int,
}


class ManifestData:
    """Validated manifest: ring plus whatever optional blocks are present.
    `normalized` is the manifest that reports embed: each parsed field in
    its canonical form, the copied fields as given."""

    def __init__(self, manifest: dict):
        self.raw = manifest
        self.normalized = {}
        self.ring = None
        self.matrix = None
        self.t = None
        self.form = None
        self.ideal = None
        if "variables" in manifest:
            names = _require_string_list(manifest, "variables")
            try:
                self.ring = RingContext(tuple(names))
            except ValueError as exc:
                raise ManifestError("variables", str(exc)) from None
            self.normalized["variables"] = list(self.ring.variables)
        if "matrix" in manifest:
            if self.ring is None:
                raise ManifestError("variables", "required when a matrix is given")
            rows = manifest["matrix"]
            if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
                raise ManifestError("matrix", "must be a nonempty list of rows")
            width = len(rows[0])
            parsed = []
            for i, row in enumerate(rows):
                if len(row) != width:
                    raise ManifestError("matrix", "row %d has length %d, expected %d" % (i, len(row), width))
                parsed.append(_parse_polys("matrix", row, self.ring, "[%d]" % i))
            self.matrix = parsed
            if "t" not in manifest:
                raise ManifestError("t", "required when a matrix is given")
            t = _require_int(manifest, "t")
            if not 1 <= t <= min(len(rows), width):
                raise ManifestError("t", "need 1 <= t <= min(m, n) = %d" % min(len(rows), width))
            self.t = t
            self.normalized["matrix"] = [[p.render() for p in row] for row in parsed]
            self.normalized["t"] = t
        if "form" in manifest:
            if self.ring is None:
                raise ManifestError("variables", "required when a form is given")
            entries = _require_string_list(manifest, "form")
            if len(entries) != self.ring.nvars:
                raise ManifestError("form", "must list one coefficient per variable")
            self.form = OneForm(_parse_polys("form", entries, self.ring))
            self.normalized["form"] = [p.render() for p in self.form.coefficients]
        if "ideal" in manifest:
            if self.ring is None:
                raise ManifestError("variables", "required when an ideal is given")
            self.ideal = _parse_polys("ideal", _require_string_list(manifest, "ideal"), self.ring)
            self.normalized["ideal"] = [p.render() for p in self.ideal]
        for field, require in _COPIED_FIELDS.items():
            if field in manifest:
                if manifest[field] is not None:
                    require(manifest, field)
                self.normalized[field] = manifest[field]

    def singularity(self) -> DetSingularity:
        if self.matrix is None:
            raise ManifestError("matrix", "required for this command")
        try:
            return DetSingularity.create(self.ring, self.matrix, self.t)
        except ValueError as exc:
            raise ManifestError("matrix", str(exc)) from None

    def one_form(self) -> OneForm:
        if self.form is None:
            raise ManifestError("form", "required for this command")
        return self.form

    def type_triple(self):
        if self.matrix is not None:
            sing = self.singularity()
            return sing.m, sing.n, sing.t, sing.ambient_dim
        triple = self.raw.get("type")
        if triple is None:
            raise ManifestError("type", "required when no matrix is given")
        m, n, t = triple
        ambient = self.raw.get("N", self.ring.nvars if self.ring else None)
        if ambient is None:
            raise ManifestError("N", "required (integer) when no matrix is given")
        if ambient < 1:
            raise ManifestError("N", "must be at least 1")
        if not 1 <= t <= m <= n:
            raise ManifestError("type", "need 1 <= t <= m <= n")
        return m, n, t, ambient


# ---------------------------------------------------------------------------
# engine value and oracle cross-check

def _oracle_block(report, engine_value) -> dict:
    return {
        "value": report.value if report.stabilized else None,
        "stabilized": report.stabilized,
        "degree_cap": report.degree_cap,
        "agrees": report.agrees_with(engine_value),
    }


def _colength_command(args, result_key: str, finite_required: bool, *inputs):
    """Shared value path of the five colength commands.  The input is an
    Ideal or a module's (rank, generators); it fixes the engine and the
    oracle, which are looked up in this module when called.  With
    --oracle, the oracle re-derives the value and must agree.  Its report
    depends on H alone, so after an INFINITE value, which only a give-up
    can agree with, it runs the ceiling's round alone."""
    if args.oracle and args.degree_cap < 2:
        raise InputError("--degree-cap", "must be at least 2: the oracle compares two caps")
    if isinstance(inputs[0], Ideal):
        engine, oracle = colength, stabilized_colength
    else:
        engine, oracle = module_colength, stabilized_module_colength
    value = engine(*inputs)
    extras = {}
    exit_code = 2 if finite_required and value is INFINITE else 0
    if args.oracle:
        start = args.degree_cap if value is INFINITE else ORACLE_START_CAP
        rep = oracle(*inputs, ceiling=args.degree_cap, start=start)
        extras["oracle"] = _oracle_block(rep, value)
        if not rep.agrees_with(value):
            exit_code = 2
    return {result_key: value}, extras, exit_code


# ---------------------------------------------------------------------------
# commands

def _cmd_check(data: ManifestData, args):
    sing = data.singularity()
    cls = classify(sing)
    sing_colength = cls.sing_stratum_colength
    finite = None if sing_colength is None else sing_colength is not INFINITE
    result = {
        "type": [sing.m, sing.n, sing.t],
        "ambient_dim": sing.ambient_dim,
        "dim": sing.dim,
        "codim": sing.codim,
        "transposed": sing.transposed,
        "smoothable": cls.smoothable,
        "isolated": cls.isolated,
        "stratum_dims": list(cls.stratum_dims),
        "sing_stratum_colength_finite": finite,
    }
    if finite and sing.ambient_dim == isolation_bound(sing.m, sing.n, sing.t):
        result["chi_sing"] = sing_colength
    return result, {"transposed": sing.transposed}, 0


def _cmd_minors(data: ManifestData, args):
    sing = data.singularity()
    size = args.size if args.size is not None else sing.t
    try:
        polys = minors(sing.matrix, size)
    except ValueError as exc:
        raise InputError("--size", str(exc)) from None
    return {"size": size, "minors": [p.render() for p in polys]}, {}, 0


def _cmd_colength(data: ManifestData, args):
    if data.ideal is not None:
        gens = data.ideal
    else:
        gens = data.singularity().defining_minors()
    return _colength_command(args, "colength", False, Ideal(gens))


def _cmd_alg_index(data: ManifestData, args):
    ideal = algebra_ideal(data.singularity(), data.one_form())
    return _colength_command(args, "alg_index", True, ideal)


def _cmd_hom_index(data: ManifestData, args):
    rank, gens = omega_quotient_generators(data.singularity(), data.one_form())
    return _colength_command(args, "omega_quotient_dim", True, rank, gens)


def _cmd_icis(data: ManifestData, args):
    sing = data.singularity()
    if sing.m != 1 or sing.t != 1:
        raise ManifestError("matrix", "complete-intersection command needs a single-row matrix and t = 1")
    ideal = icis_ideal(sing.matrix[0], data.one_form())
    return _colength_command(args, "icis_index", True, ideal)


def _cmd_gmvs(data: ManifestData, args):
    sing, form = data.singularity(), data.one_form()
    try:
        ideal = gmvs_ideal(sing, form)
    except ValueError as exc:
        raise ManifestError("matrix", str(exc)) from None
    return _colength_command(args, "gmvs_index", True, ideal)


def _cmd_convert(data: ManifestData, args):
    m, n, t, ambient = data.type_triple()
    radial = _require_int_list(data.raw, "radial", t) if "radial" in data.raw else None
    chi = _require_int_list(data.raw, "chi", t) if "chi" in data.raw else None
    if radial is None:
        raise ManifestError("radial", "required for conversions")
    if chi is None:
        raise ManifestError("chi", "required for conversions")
    sid = StrataIndexData(m, n, t, ambient, tuple(radial), tuple(chi))
    chibar = [chi[i] - 1 for i in range(t)]
    phn_per = [
        phn_from_radial(radial[:j], chibar[:j], m, n, j, ambient) for j in range(1, t + 1)
    ]
    result = {
        "ph_index": {str(k): ph_index(sid, k) for k in (1, 2, 3)},
        "phn_index": phn_per[-1],
        "phn_per_stratum": phn_per,
        "radial_roundtrip": radial_from_phn(phn_per, m, n, t, ambient, chibar[-1]),
    }
    code = 0
    if ambient == isolation_bound(m, n, t):
        chi_sing = data.raw.get("chi_sing")
        if chi_sing is None and data.matrix is not None and t >= 2:
            try:
                chi_sing = chi_singular_stratum(data.singularity())
            except ValueError:
                chi_sing = None
                code = 2
        if chi_sing is not None:
            iso = {
                str(k): isolated_indices(m, n, t, ambient, radial[-1], chibar[-1], chi_sing, k)
                for k in (1, 2, 3)
            }
            result["isolated"] = {
                "chi_sing": chi_sing,
                "ph_index": {k: v[0] for k, v in iso.items()},
                "phn_index": iso["1"][1],
            }
    return result, {}, code


def _cmd_tables(data: Optional[ManifestData], args):
    if args.type is not None:
        try:
            m, n, t = (int(x) for x in args.type.split(","))
        except ValueError:
            raise InputError("--type", "expected m,n,t integers") from None
        if not 1 <= t <= m <= n:
            raise InputError("--type", "need 1 <= t <= m <= n")
        ambient = None
    else:
        if data is None:
            raise InputError("--type", "required when no manifest is given")
        m, n, t, ambient = data.type_triple()
    mats = coeff_matrices(m, n, t)
    result = {
        "type": [m, n, t],
        "nmat": [list(row) for row in mats.nmat],
        "mmat": [list(row) for row in mats.mmat],
        "chi_bar_hyperplane": chi_bar_hyperplane(m, n, t),
        "chi_fiber": {
            str(k): [chi_fiber(i, k, m, n, t) for i in range(1, t + 1)] for k in (1, 2, 3)
        },
    }
    return result, {}, 0


# command -> (handler, whether it is a colength command: only those
# take --oracle and --degree-cap)
_COMMANDS = {
    "check": (_cmd_check, False),
    "minors": (_cmd_minors, False),
    "colength": (_cmd_colength, True),
    "alg-index": (_cmd_alg_index, True),
    "hom-index": (_cmd_hom_index, True),
    "icis": (_cmd_icis, True),
    "gmvs": (_cmd_gmvs, True),
    "convert": (_cmd_convert, False),
    "tables": (_cmd_tables, False),
}


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors on exit code 1, the code of every other
    input error (argparse's own is 2, which here means an infinite value
    or an oracle mismatch)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process on first use."""
    parser = _Parser(
        prog="detindex",
        description="Indices of holomorphic 1-forms on determinantal singularities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, is_colength) in _COMMANDS.items():
        cmd = sub.add_parser(name)
        cmd.add_argument("manifest", nargs="?" if name == "tables" else None, help="path to a JSON manifest (or an emitted report)")
        if is_colength:
            cmd.add_argument("--oracle", action="store_true", help="re-derive the value by truncated linear algebra and assert agreement")
            cmd.add_argument("--degree-cap", type=int, default=ORACLE_CEILING, help="hard cap for the oracle's truncation degree (default %(default)s); after an INFINITE value the oracle runs one elimination at it, which at 64 takes 6-10 seconds and about 610 MB")
        cmd.add_argument("--output", help="write the report to this path instead of stdout")
        if name == "minors":
            cmd.add_argument("--size", type=int, default=None, help="minor size (default: the rank bound t)")
        if name == "tables":
            cmd.add_argument("--type", default=None, help="type triple m,n,t")
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler, _ = _COMMANDS[args.command]
    try:
        data = None
        if args.manifest is not None:  # only `tables` may go without one
            data = ManifestData(load_manifest(args.manifest))
        result, extras, code = handler(data, args)
        provenance = {
            "ordering": LOCAL_ORDER,
            "coefficient_field": "rationals",
        }
        provenance.update(extras)
        report = {
            "command": args.command,
            "result": result,
            "provenance": provenance,
        }
        if data is not None:
            report["manifest"] = data.normalized
        text = _dump(report)
        if args.output:
            try:
                with open(args.output, "w", encoding="utf-8") as fh:
                    fh.write(text)
            except OSError as exc:
                raise InputError("--output", str(exc)) from None
        else:
            sys.stdout.write(text)
        return code
    except InputError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1


if __name__ == "__main__":
    sys.exit(run())

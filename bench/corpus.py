"""Seeded corpus generator: manifests plus the expected outcome of each command.

The same (workload, seed) always writes byte-identical manifests.  A
different seed renames the variables among themselves, permutes matrix
rows and columns, scales the 1-form by a nonzero rational, and (for
`dense-colength`) draws a new linear form.  None of these changes a
reference value; the renaming changes the expected minors' spelling.
"""

import json
import os
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import references as ref

WORKLOADS = ("germ-session", "dense-colength", "oracle-verify")

_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*")

_VALUE_KEY = {
    "alg-index": "alg_index",
    "hom-index": "omega_quotient_dim",
    "colength": "colength",
    "icis": "icis_index",
    "gmvs": "gmvs_index",
}


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the report it must produce."""

    id: str
    name: str
    manifest: str
    exit_code: int
    result: dict
    oracle: Optional[dict] = None  # expected provenance["oracle"] block
    degree_cap: Optional[int] = None  # --degree-cap, when not the default

    @property
    def argv(self):
        argv = [self.name, self.manifest]
        if self.oracle is not None:
            argv.append("--oracle")
        if self.degree_cap is not None:
            argv += ["--degree-cap", str(self.degree_cap)]
        return argv


def _value_command(cid, name, manifest, value, oracle_cap=None, degree_cap=None):
    """A colength-style command.  It runs with `--oracle` when given
    `oracle_cap`, the cap where the oracle stabilizes on a finite value,
    or `degree_cap`, the cap where it gives up on an infinite one."""
    code = 2 if value == ref.INF else 0
    oracle = None
    if oracle_cap is not None or degree_cap is not None:
        stabilized = value != ref.INF
        oracle = {
            "agrees": True,
            "degree_cap": oracle_cap if stabilized else degree_cap,
            "stabilized": stabilized,
            "value": value if stabilized else None,
        }
    return Command(cid, name, manifest, code, {_VALUE_KEY[name]: value}, oracle, degree_cap)


def _scaled(expr, scale):
    if expr == "0" or scale == 1:
        return expr
    return "(%s)*(%s)" % (scale, expr)


def _permuted(rng, variables, matrix, form, t=2):
    """Manifest for the same germ and form in new coordinates: the
    variables renamed among themselves, rows and columns shuffled, the
    form scaled.

    Renaming keeps each variable's position in the term order.  A true
    reordering changes the engine's work and its run time (by half for
    the threefold's alg-index), so the seed would choose the cost of a
    run.  Returns the manifest and the renaming as a function on strings."""
    names = list(variables)
    rng.shuffle(names)
    rename = dict(zip(variables, names))

    def sub(expr):
        return _NAME.sub(lambda m: rename[m.group()], expr)

    rows = [list(row) for row in matrix]
    rng.shuffle(rows)
    cols = list(range(len(rows[0])))
    rng.shuffle(cols)
    scale = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
    return {
        "variables": names,
        "matrix": [[sub(row[j]) for j in cols] for row in rows],
        "t": t,
        "form": [_scaled(sub(c), scale) for c in form],
    }, sub


def _write(outdir, name, doc):
    path = os.path.join(outdir, name + ".json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def _germ_manifest(workload, seed, outdir, name):
    """Path of the germ's manifest and the seed's renaming of its variables."""
    variables, matrix, form = ref.GERMS[name][:3]
    rng = random.Random("%s:%d:%s" % (workload, seed, name))
    doc, rename = _permuted(rng, variables, matrix, form)
    return _write(outdir, name, doc), rename


# The threefold sits mid-session, so that the cheap commands after each
# germ are timed both before and after its long alg-index.
SESSION_ORDER = ("surface-du", "surface-k2", "surface-k3", "threefold", "surface-k4", "surface-k5")


def _germ_session(seed, outdir):
    paths = {}
    renames = {}
    for name in SESSION_ORDER:
        paths[name], renames[name] = _germ_manifest("germ-session", seed, outdir, name)
    rng = random.Random("germ-session:%d:tail" % seed)
    icis = ref.ICIS_A1
    icis_path = _write(outdir, "icis-a1", _permuted(rng, icis["variables"], [[icis["equation"]]], icis["form"], t=1)[0])
    curve = ref.SPACE_CURVE
    curve_path = _write(outdir, "space-curve", _permuted(rng, curve["variables"], curve["matrix"], curve["form"])[0])
    convert_path = _write(outdir, "convert-232", ref.CONVERT_MANIFEST)
    minors = [renames["surface-du"](m) for m in ref.SURFACE_MINORS]
    tail = [
        Command("tail.minors", "minors", paths["surface-du"], 0, {"minors": minors, "size": 2}),
        _value_command("tail.icis", "icis", icis_path, icis["value"]),
        _value_command("tail.gmvs", "gmvs", curve_path, curve["value"]),
        Command("tail.convert", "convert", convert_path, 0, ref.CONVERT_RESULT),
        Command("tail.tables", "tables", convert_path, 0, ref.TABLES_RESULT),
    ]
    commands = []
    for name in SESSION_ORDER:
        alg, hom = ref.GERMS[name][3:5]
        kind = "threefold" if name == "threefold" else "surface"
        commands += [
            Command(name + ".check", "check", paths[name], 0, ref.check_result(kind)),
            _value_command(name + ".alg", "alg-index", paths[name], alg),
            _value_command(name + ".hom", "hom-index", paths[name], hom),
        ] + tail
    return commands


def _dense_colength(seed, outdir):
    rng = random.Random("dense-colength:%d" % seed)
    coeffs = [rng.choice((-1, 1)) * rng.randint(1, 9) for _ in ref.SURFACE_VARS]
    linear = " + ".join("(%d)*%s" % (c, v) for c, v in zip(coeffs, ref.SURFACE_VARS))
    commands = []
    for k in ref.DENSE_DEGREES:
        ideal = ["(%s)^%d" % (linear, k)] + ["%s^%d" % (v, k) for v in ref.SURFACE_VARS]
        path = _write(outdir, "dense-k%d" % k, {"variables": list(ref.SURFACE_VARS), "ideal": ideal})
        commands.append(_value_command("dense-k%d" % k, "colength", path, ref.dense_colength(k)))
    return commands


def _oracle_verify(seed, outdir):
    commands = []
    for name, (_, _, _, alg, hom, caps) in ref.GERMS.items():
        path, _ = _germ_manifest("oracle-verify", seed, outdir, name)
        if caps is None:  # infinite: the oracle must give up at the cap
            commands += [
                _value_command(name + ".alg", "alg-index", path, alg, degree_cap=ref.INF_ORACLE_CAP),
                _value_command(name + ".hom", "hom-index", path, hom, degree_cap=ref.INF_ORACLE_CAP),
            ]
            continue
        if caps[0] is not None:
            commands.append(_value_command(name + ".alg", "alg-index", path, alg, oracle_cap=caps[0]))
        commands.append(_value_command(name + ".hom", "hom-index", path, hom, oracle_cap=caps[1]))
    return commands


_GENERATORS = {
    "germ-session": _germ_session,
    "dense-colength": _dense_colength,
    "oracle-verify": _oracle_verify,
}


def generate(workload, seed, outdir):
    """Write the workload's manifests into `outdir`; return its commands."""
    os.makedirs(outdir, exist_ok=True)
    return _GENERATORS[workload](seed, outdir)

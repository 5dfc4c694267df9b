"""Traced pass: `detindex.cli.run` with a span around every layer call.

For the traced pass only, the public functions that `detindex.cli` calls
are swapped, in `cli`'s namespace, for wrappers that time them; so are the
public `DetSingularity.create` and `DetSingularity.defining_minors`.  The
CLI then runs for real and writes the reports that the benchmark checks.
`colength` and `module_colength` are replayed through the public
functions they stand for: `standard_basis` or `module_standard_basis`,
then the staircase count of `StandardBasis.colength()`.  No private
function is wrapped and nothing under `src/` changes.

A span records its name, start, end, parent and command id.  Spans stay
in memory until `Tracer.dump`.  A layer's time is the sum of its spans'
self times (duration minus child spans), so the layers and the CLI's own
time add up to `cli.run_s`.
"""

import json
import math
import time
from collections import defaultdict
from contextlib import contextmanager

# Per-layer time metric -> span name.
SPAN_METRICS = {
    "standard_bases.ideal_complete_s": "standard_bases.ideal_complete",
    "standard_bases.module_complete_s": "standard_bases.module_complete",
    "standard_bases.staircase_s": "standard_bases.staircase",
    "truncation.oracle_s": "truncation.oracle",
    "form_indices.assemble_s": "form_indices.assemble",
    "determinantal.minors_s": "determinantal.minors",
    "determinantal.classify_s": "determinantal.classify",
    "rings.parse_s": "rings.parse",
    "conversions.s": "conversions",
    "cli.manifest_s": "cli.manifest",
    "cli.self_s": "cli.run",
}
# Counts, summed over the pass except the maxima.
COUNT_METRICS = (
    "standard_bases.basis_size",
    "standard_bases.basis_terms",
    "standard_bases.coeff_bits_max",
    "truncation.caps",
    "truncation.max_cap",
    "truncation.columns",
    "form_indices.gens",
    "form_indices.gen_terms",
    "form_indices.module_rank",
    "determinantal.minors_count",
    "rings.parse_calls",
    "rings.terms_parsed",
)


class Tracer:
    """Spans (name, start, end, parent, command id) and per-layer counts."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.command = None
        self.oracle_runs = 0
        self.oracle_stabilized = 0
        self._stack = []

    @contextmanager
    def span(self, name):
        record = {"id": len(self.spans), "name": name, "command": self.command,
                  "parent": self._stack[-1] if self._stack else None}
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def add(self, name, value):
        self.counts[name] += value

    def at_least(self, name, value):
        self.counts[name] = max(self.counts[name], value)

    def self_times(self):
        """Each span's duration minus the time its direct children cover."""
        child = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        return {s["id"]: s["end"] - s["start"] - child[s["id"]] for s in self.spans}

    def metrics(self):
        selfs = self.self_times()
        out = {}
        for metric, name in SPAN_METRICS.items():
            out[metric] = (sum((selfs[s["id"]] for s in self.spans if s["name"] == name), 0.0), "s")
        out.update({name: (self.counts[name], "count") for name in COUNT_METRICS})
        out["truncation.stabilized_ratio"] = (
            self.oracle_stabilized / self.oracle_runs if self.oracle_runs else 0.0, "ratio")
        out["cli.run_s"] = (sum((s["end"] - s["start"] for s in self.spans if s["name"] == "cli.run"), 0.0), "s")
        return out

    def dump(self, path):
        selfs = self.self_times()
        rows = [dict(s, self=selfs[s["id"]]) for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rows, "counts": dict(self.counts)}, fh, indent=1)


def _record_basis(tracer, size, polys):
    tracer.add("standard_bases.basis_size", size)
    for p in polys:
        tracer.add("standard_bases.basis_terms", len(p.terms))
        for c in p.terms.values():
            tracer.at_least("standard_bases.coeff_bits_max",
                            max(abs(c.numerator).bit_length(), c.denominator.bit_length()))


def _record_gens(tracer, size, polys):
    tracer.add("form_indices.gens", size)
    tracer.add("form_indices.gen_terms", sum(len(p.terms) for p in polys))


def _record_oracle(tracer, report, rank, nvars):
    caps = [cap for cap, _ in report.per_degree]
    tracer.add("truncation.caps", len(caps))
    tracer.at_least("truncation.max_cap", max(caps))
    tracer.add("truncation.columns", sum(rank * math.comb(nvars + cap - 1, nvars) for cap in caps))
    tracer.oracle_runs += 1
    tracer.oracle_stabilized += report.stabilized


def _replacements(tracer):
    """(owner, attribute, replacement) for every call the trace times, in
    the `detindex` modules imported last."""
    from detindex import (INFINITE, LOCAL_ORDER, DetSingularity, StandardBasis, cli,
                          module_standard_basis, standard_basis)

    def timed(name, fn, record=None):
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                out = fn(*args, **kwargs)
            if record is not None:
                record(out, *args)
            return out
        return wrapper

    def parsed(poly, *_):
        tracer.add("rings.parse_calls", 1)
        tracer.add("rings.terms_parsed", len(poly.terms))

    def ideal_gens(ideal, *_):
        _record_gens(tracer, len(ideal.generators), ideal.generators)

    def module_gens(presentation, *_):
        rank, gens = presentation
        _record_gens(tracer, len(gens), [p for g in gens for p in g.components])
        tracer.at_least("form_indices.module_rank", rank)

    def minors_made(polys, *_):
        tracer.add("determinantal.minors_count", len(polys))

    def ideal_oracle(report, ideal):
        _record_oracle(tracer, report, 1, ideal.ring.nvars)

    def module_oracle(report, rank, gens):
        _record_oracle(tracer, report, rank, gens[0].ring.nvars)

    def colength(ideal):
        with tracer.span("standard_bases.ideal_complete"):
            basis = standard_basis(ideal)
        with tracer.span("standard_bases.staircase"):
            value = basis.colength()
        _record_basis(tracer, len(basis.elements), basis.elements)
        return value

    def module_colength(rank, gens):
        with tracer.span("standard_bases.module_complete"):
            basis = module_standard_basis(rank, gens)
        with tracer.span("standard_bases.staircase"):
            # Position over term: an element leads in its first nonzero component.
            leads = [[] for _ in range(rank)]
            for element in basis:
                comp = next(i for i, p in enumerate(element.components) if p)
                leads[comp].append(element.components[comp].leading_monomial())
            counts = [StandardBasis(gens[0].ring, LOCAL_ORDER, (), tuple(lead)).colength()
                      for lead in leads]
            value = INFINITE if INFINITE in counts else sum(counts)
        _record_basis(tracer, len(basis), [p for element in basis for p in element.components])
        return value

    out = [
        (cli, "load_manifest", timed("cli.manifest", cli.load_manifest)),
        (cli, "ManifestData", timed("cli.manifest", cli.ManifestData)),
        (cli, "parse_poly", timed("rings.parse", cli.parse_poly, parsed)),
        (DetSingularity, "create", staticmethod(timed("determinantal.minors", DetSingularity.create))),
        (DetSingularity, "defining_minors",
         timed("determinantal.minors", DetSingularity.defining_minors, minors_made)),
        (cli, "minors", timed("determinantal.minors", cli.minors, minors_made)),
        (cli, "classify", timed("determinantal.classify", cli.classify)),
        (cli, "chi_singular_stratum", timed("determinantal.classify", cli.chi_singular_stratum)),
        (cli, "omega_quotient_generators",
         timed("form_indices.assemble", cli.omega_quotient_generators, module_gens)),
        (cli, "colength", colength),
        (cli, "module_colength", module_colength),
        (cli, "stabilized_colength", timed("truncation.oracle", cli.stabilized_colength, ideal_oracle)),
        (cli, "stabilized_module_colength",
         timed("truncation.oracle", cli.stabilized_module_colength, module_oracle)),
    ]
    for name in ("algebra_ideal", "icis_ideal", "gmvs_ideal"):
        out.append((cli, name, timed("form_indices.assemble", getattr(cli, name), ideal_gens)))
    for name in ("ph_index", "phn_from_radial", "radial_from_phn", "isolated_indices",
                 "coeff_matrices", "chi_fiber", "chi_bar_hyperplane"):
        out.append((cli, name, timed("conversions", getattr(cli, name))))
    return out


@contextmanager
def installed(tracer):
    """Swap in the timed calls for the duration of the block."""
    replacements = _replacements(tracer)
    originals = [(owner, name, vars(owner)[name]) for owner, name, _ in replacements]
    try:
        for owner, name, replacement in replacements:
            setattr(owner, name, replacement)
        yield
    finally:
        for owner, name, original in originals:
            setattr(owner, name, original)

"""Rule ``unit-suffix``: physical dataclass fields carry unit suffixes.

The chip/PDN/NoC/runtime models pass raw floats around; the only thing
standing between ``exec_time`` in seconds and ``exec_time`` in cycles
is the field name.  The codebase convention is an SI-unit suffix —
canonical ``_s`` ``_v`` ``_w`` ``_hz`` ``_j`` ``_b``, plus derived
suffixes for percent, temperature, RLC values, geometry, and cycle
counts.  Dimensionless quantities use a ratio-style suffix
(``_ratio``/``_scale``/``_fraction``/``_pct``) or a registered
exemption below.

Scope: ``float``-annotated fields of ``@dataclass`` classes in the
``chip``/``pdn``/``noc``/``runtime`` packages.  ``int`` fields are
treated as dimensionless counts/indices and private (``_``-prefixed)
accumulators are skipped.  New dimensionless vocabulary must be added
to :data:`EXEMPT_FIELDS` with a rationale — that review step is the
point of the rule.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.engine import ModuleInfo, Rule
from repro.analysis.findings import Finding
from repro.analysis.rules._util import is_dataclass_def

#: Packages (under ``repro``) whose dataclasses model physical state.
SCOPED_PACKAGES = frozenset({"chip", "pdn", "noc", "runtime"})

#: Canonical SI suffixes from the issue, then accepted derived units.
UNIT_SUFFIXES = (
    # canonical
    "_s",
    "_v",
    "_w",
    "_hz",
    "_j",
    "_b",
    # derived / scaled units in established use
    "_pct",
    "_c",
    "_f",
    "_h",
    "_ohm",
    "_nm",
    "_mm2",
    "_um2",
    "_cycles",
    "_flits",
    # dimensionless markers
    "_ratio",
    "_scale",
    "_fraction",
)

#: Registered exemptions: established domain vocabulary that is either
#: dimensionless or named *as* its unit.  Keyed by field name; the value
#: is the rationale shown nowhere but kept for reviewers.
EXEMPT_FIELDS = {
    # supply/threshold voltages named by long-standing convention (volts)
    "vdd": "supply voltage in volts; ubiquitous domain name",
    "vdd_nominal": "nominal supply voltage in volts",
    "vdd_ntc": "near-threshold supply voltage in volts",
    "vth": "threshold voltage in volts",
    # whole-word unit names on circuit primitives
    "ohms": "field name is the unit",
    "farads": "field name is the unit",
    "henries": "field name is the unit",
    "volts": "field name is the unit",
    # dimensionless model parameters
    "alpha": "velocity-saturation exponent (dimensionless)",
    "swing": "normalised waveform amplitude (dimensionless)",
    "sharpness": "waveform shape parameter (dimensionless)",
    "kappa2": "normalised 2-hop PSN coupling coefficient",
    "z_own_router": "normalised router self-impedance",
    "z_cross_router": "normalised router cross-impedance",
    "rate": "injection rate in flits/cycle (dimensionless)",
    "avg_hops": "hop count (dimensionless)",
    "max_rho": "link utilisation rho (dimensionless)",
    "residual": "fixed-point link-load change in flits/cycle, like rate",
    "buffer_occupancy": "fraction of buffer slots in use",
    "buffer_threshold": "occupancy fraction threshold",
    # TilePower components: watts, but the 4-field API predates the rule
    "core_dynamic": "watts; established TilePower API",
    "core_leakage": "watts; established TilePower API",
    "router_dynamic": "watts; established TilePower API",
    "router_leakage": "watts; established TilePower API",
}


class UnitSuffixRule(Rule):
    id = "unit-suffix"
    description = (
        "float dataclass fields in chip/pdn/noc/runtime need a unit "
        "suffix or a registered exemption"
    )

    def check_module(self, mod: ModuleInfo) -> Iterable[Finding]:
        parts = mod.package_parts
        if len(parts) < 2 or parts[1] not in SCOPED_PACKAGES:
            return
        for node in ast.walk(mod.tree):
            if not (isinstance(node, ast.ClassDef) and is_dataclass_def(node)):
                continue
            for stmt in node.body:
                if not (
                    isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                ):
                    continue
                name = stmt.target.id
                if ast.unparse(stmt.annotation) != "float":
                    continue
                if name.startswith("_"):
                    continue
                if name.endswith(UNIT_SUFFIXES) or name in EXEMPT_FIELDS:
                    continue
                yield Finding(
                    rule=self.id,
                    path=mod.rel,
                    line=stmt.lineno,
                    message=(
                        f"float field `{node.name}.{name}` has no unit "
                        "suffix; rename (e.g. `_s`, `_w`, `_pct`, "
                        "`_ratio`) or register an exemption in "
                        "repro/analysis/rules/unit_suffix.py"
                    ),
                )

"""The shared finding record every linter rule reports.

A :class:`Finding` is one rule violation at one source location. Rules only
*create* findings; rendering (text, JSON, SARIF, GitHub workflow commands)
and exit-code policy live here and in :mod:`repro.analysis.linter`, so all
rules behave identically.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location.

    Attributes
    ----------
    path:
        File the violation was found in (as given to the linter).
    line / column:
        1-based line and 0-based column of the offending node.
    rule:
        Rule code, e.g. ``"REP001"``.
    message:
        Human-readable description of what is wrong and what to do instead.
    """

    path: str
    line: int
    column: int
    rule: str
    message: str

    @classmethod
    def at(cls, path: str, node: Any, rule: str, message: str) -> "Finding":
        """A finding at ``node``'s position (1:0 when it has none)."""
        return cls(
            path=path,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0),
            rule=rule,
            message=message,
        )

    def render(self) -> str:
        """``path:line:col: REPxxx message`` — the classic linter line."""
        return f"{self.path}:{self.line}:{self.column}: {self.rule} {self.message}"


def render_text(findings: Iterable[Finding]) -> str:
    """Render findings one per line, sorted by location."""
    return "\n".join(f.render() for f in sorted(findings))


def render_json(findings: Iterable[Finding]) -> str:
    """Render findings as a JSON array (for CI annotation tooling)."""
    return json.dumps([asdict(f) for f in sorted(findings)], indent=2)


def summarize(findings: List[Finding]) -> str:
    """One-line tally: ``3 findings (REP001 x2, REP005 x1)``."""
    if not findings:
        return "no findings"
    counts: dict = {}
    for finding in findings:
        counts[finding.rule] = counts.get(finding.rule, 0) + 1
    parts = ", ".join(f"{rule} x{n}" for rule, n in sorted(counts.items()))
    noun = "finding" if len(findings) == 1 else "findings"
    return f"{len(findings)} {noun} ({parts})"


def rule_catalog() -> Dict[str, str]:
    """All known rule codes mapped to their one-line summaries.

    Combines the shallow AST rules (``REP001``..) with the deep dataflow
    family (``REP101``..), the concurrency family (``REP201``..) and the
    exactness/determinism family (``REP301``..). Imported lazily —
    :mod:`repro.analysis.linter` and :mod:`repro.analysis.flow` both
    import this module.
    """
    from repro.analysis.concurrency import THREAD_RULES
    from repro.analysis.exactness import EXACT_RULES
    from repro.analysis.flow import DEEP_RULES
    from repro.analysis.linter import ALL_RULES

    catalog = {rule.code: rule.summary for rule in ALL_RULES}
    catalog.update(DEEP_RULES)
    catalog.update(THREAD_RULES)
    catalog.update(EXACT_RULES)
    return catalog


def render_sarif(
    findings: Iterable[Finding],
    rules: Optional[Mapping[str, str]] = None,
) -> str:
    """Render findings as a SARIF 2.1.0 log (GitHub code scanning).

    Every rule that appears in ``rules`` (default: the full catalogue) is
    declared in the tool driver, so code-scanning shows rule metadata even
    for rules with no current findings.
    """
    findings = sorted(findings)
    if rules is None:
        rules = rule_catalog()
    rules = dict(rules)
    for finding in findings:  # never emit a result with an undeclared rule
        rules.setdefault(finding.rule, finding.rule)
    rule_ids = sorted(rules)
    index = {rule_id: k for k, rule_id in enumerate(rule_ids)}
    log = {
        "$schema": (
            "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
            "Schemata/sarif-schema-2.1.0.json"
        ),
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-tsv-lint",
                        "rules": [
                            {
                                "id": rule_id,
                                "shortDescription": {"text": rules[rule_id]},
                                "defaultConfiguration": {"level": "error"},
                            }
                            for rule_id in rule_ids
                        ],
                    }
                },
                "results": [
                    {
                        "ruleId": finding.rule,
                        "ruleIndex": index[finding.rule],
                        "level": "error",
                        "message": {"text": finding.message},
                        "locations": [
                            {
                                "physicalLocation": {
                                    "artifactLocation": {
                                        "uri": finding.path.replace("\\", "/"),
                                        "uriBaseId": "SRCROOT",
                                    },
                                    "region": {
                                        "startLine": finding.line,
                                        "startColumn": finding.column + 1,
                                    },
                                }
                            }
                        ],
                    }
                    for finding in findings
                ],
            }
        ],
    }
    return json.dumps(log, indent=2)


def render_github(findings: Iterable[Finding]) -> str:
    """Render findings as GitHub Actions workflow commands.

    One ``::error`` line per finding; GitHub turns these into inline PR
    annotations when printed from a workflow step. Newlines and the other
    characters meaningful to the command parser are escaped per the
    workflow-command spec.
    """

    def escape(value: str, *, property_value: bool = False) -> str:
        value = (
            value.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")
        )
        if property_value:
            value = value.replace(":", "%3A").replace(",", "%2C")
        return value

    lines = []
    for finding in sorted(findings):
        location = (
            f"file={escape(finding.path, property_value=True)},"
            f"line={finding.line},"
            f"col={finding.column + 1},"
            f"title={escape(finding.rule, property_value=True)}"
        )
        lines.append(f"::error {location}::{escape(finding.message)}")
    return "\n".join(lines)

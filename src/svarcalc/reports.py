"""Check reports: one verdict, optional witnesses, deterministic rendering.

The machine-readable rendering is canonical JSON (sorted keys, two-space
indent, trailing newline) and deliberately carries no timing, so identical
inputs produce byte-identical report files; wall-clock timing is printed on
the human console only.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Dict, List, Optional

PASS = "pass"
FAIL = "fail"
ERROR = "error"

EXIT_CODES = {PASS: 0, FAIL: 1, ERROR: 2}


def jsonify(value: Any) -> Any:
    """Convert witness payloads (tuples, Fractions) into JSON-safe values."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [jsonify(v) for v in value]
    if isinstance(value, dict):
        return {str(k): jsonify(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    return value


@dataclass
class Report:
    check: str
    verdict: str
    witnesses: List[Any] = field(default_factory=list)
    configuration: Dict[str, Any] = field(default_factory=dict)
    detail: Optional[Any] = None

    def exit_code(self) -> int:
        return EXIT_CODES[self.verdict]

    def to_json(self) -> str:
        data: Dict[str, Any] = {
            "format": "svarcalc-report/1",
            "check": self.check,
            "verdict": self.verdict,
            "witnesses": jsonify(self.witnesses),
            "configuration": jsonify(self.configuration),
        }
        if self.detail is not None:
            data["detail"] = jsonify(self.detail)
        return json.dumps(data, indent=2, sort_keys=True) + "\n"


def input_echo(path: str, doc) -> Dict[str, str]:
    """The path of an input and the sha256 of the bytes ``parse_document``
    read from it, so the echo names exactly what was checked."""
    return {"path": path, "sha256": doc.sha256}

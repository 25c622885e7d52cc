"""Machine-readable reports for property checks.

The JSON shape is fixed: {lemma, instances, failures: [{inputs, expected,
got}], seed}.  ``instances`` counts individual assertions made; a report
passes iff ``failures`` is empty.
"""

import json
from dataclasses import dataclass, field


@dataclass
class Failure:
    inputs: dict
    expected: str
    got: str

    def to_dict(self) -> dict:
        return {
            "inputs": {k: str(v) for k, v in self.inputs.items()},
            "expected": self.expected,
            "got": self.got,
        }


@dataclass
class PropertyReport:
    lemma: str
    instances: int = 0
    failures: list[Failure] = field(default_factory=list)
    seed: int | None = None

    @property
    def passed(self) -> bool:
        return not self.failures

    def record(self, count: int = 1) -> None:
        self.instances += count

    def fail(self, inputs: dict, expected: str, got: str) -> None:
        self.failures.append(Failure(inputs, expected, got))

    def to_dict(self) -> dict:
        return {
            "lemma": self.lemma,
            "instances": self.instances,
            "failures": [f.to_dict() for f in self.failures],
            "seed": self.seed,
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def summary(self) -> str:
        status = "pass" if self.passed else f"FAIL ({len(self.failures)} failures)"
        return f"{self.lemma}: {status} [{self.instances} checks]"

"""Golden-report gate: every built-in scenario's JSON report is byte-stable.

The digests live in ``golden.py``: SHA-256 sums of ``report_to_json(run_checks(...))``
for each built-in at seeds 0, 1 and 2. A refactor that claims to preserve
behaviour must leave all of them unchanged, both for the builder's own
bundle and for the bundle parsed back from its emitted document. ``EMITTED`` pins the SHA-256
of each built-in's emitted document, so the format's bytes are gated too.
"""

import json
from pathlib import Path

import pytest

from abrep import (
    BUILTIN_SCENARIOS,
    TrialSeed,
    emit_scenario,
    parse_scenario,
    report_to_json,
    run_checks,
)
from golden import EMITTED, GOLDEN, sha256


def _digest(bundle, seed: int) -> str:
    return sha256(report_to_json(run_checks(bundle, TrialSeed(seed))))


def test_golden_table_covers_every_builtin():
    assert set(GOLDEN) == set(EMITTED) == set(BUILTIN_SCENARIOS)


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
@pytest.mark.parametrize("path", ["builder", "document"])
def test_report_digest_unchanged(name, path):
    build = BUILTIN_SCENARIOS[name]
    for seed, expected in enumerate(GOLDEN[name]):
        bundle = build() if path == "builder" else parse_scenario(emit_scenario(build()))
        assert _digest(bundle, seed) == expected, f"{name} at seed {seed} ({path})"


def test_seed_zero_digests_match_benchmark_golden():
    recorded = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"
    bench = json.loads(recorded.read_text())
    assert bench == {name: digests[0] for name, digests in GOLDEN.items()}


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_emitted_document_digest_unchanged(name):
    assert sha256(emit_scenario(BUILTIN_SCENARIOS[name]())) == EMITTED[name]

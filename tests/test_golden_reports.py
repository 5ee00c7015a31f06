"""Golden-report gate: every built-in scenario's JSON report is byte-stable.

The digests below are SHA-256 sums of ``report_to_json(run_checks(...))``
for each built-in at seeds 0, 1 and 2. A refactor that claims to preserve
behaviour must leave all of them unchanged, both for the builder's own
bundle and for the bundle parsed back from its emitted document. ``EMITTED`` pins the SHA-256
of each built-in's emitted document, so the format's bytes are gated too.
"""

import hashlib
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

GOLDEN = {
    "voltage-adder": (
        "55a4dcb20faf8c33d8c5efc0c8d1503fe4d7aa1b8602f53a824a09f4d06b7402",
        "48561dc1227e6ccecde3bf3efd5818d68b208b5068f866754cbb715fb2419d1e",
        "e3cf28eb36b59c6282321029773b8b29088012dabf45490938478a3c7110de22",
    ),
    "voltage-adder-noisy": (
        "84caf922524aacd7293476a449848e65fd310ab58b071e0cacfbab7c0aa17daa",
        "08798ed22d3f355982e9e93147e60f030c9c602b0dc81e4ae5e8cafcc07bd7e0",
        "be0ccb45f47576473a7dfd69f63a84e6878682bbe2a48bef882a98cc843c1494",
    ),
    "voltage-adder-faulted": (
        "f2fb831a7ec65408742da12c12dc00bb1c937ef33d35e8c0c9d64c6a0a92cd67",
        "c949e973b7ca11ee3a843cea3566f5aefff0b655df82b6cd0dc4a09ea5a54ecd",
        "4dfa3db480a45e96c42e299bb90ea49ab29ba0b05266f9e3bc358bde7911536d",
    ),
    "refinement-stack": (
        "47c71a92dfb584cf218cae46226a017e2ccef6cd6c0c37a3c3a13e8cc0927eb8",
        "37dc69550204cdcf960a6f502ba85fa06245b13436e3972e4d8a5430b165abbf",
        "c11ef1b9d0157870e31a027402020aa0f6bb3f3becb049a8087e3cf46323b31e",
    ),
    "refinement-stack-miswired": (
        "97519092968236a766a3f8757903496c1d9544bfaedaefa0e546470a7ea73f53",
        "81e54b77899cb0fab9b09b544c5ba832f31cdc038f754aab4062fa03c1cd958b",
        "fd747fd400699c4c38e1db76ec55eb752a2bbe8bd218ba30c01bdea2d873f249",
    ),
    "swap-device": (
        "912c04b800cc0272da1c16b13d0447e59186a6c715b490200c553b938fe1dff8",
        "c8067baa43d9bc041f1fc0c1d0a0df9173fc4dfbfe07d51ef8f2f527d695d244",
        "1c94afacff30ad8faa1080b054625a924a509cc42a486227188dca8eb1910100",
    ),
    "social-machine": (
        "9e8e573f19dc386a722962f6fd52b610a2a7ee4de9a46fd3205cfe1920892de0",
        "c08f6b0bef5ac52519a9c45160f7a5157f7d4f906b697a033a17838ec6b72cb4",
        "e47c6a44f5f6f1037ecdc0bf2ac98bf39041692075cfc7d13e4cbf4fa5c5c6df",
    ),
    "xor-joint": (
        "b5a534977304002fdddfbe08d25fc4be5b1eea54d61a8f9db892bb4b4a25ce49",
        "7d7d2fa808a76dbaceb83fe6b9a6e862a01f2712b18a180df3aad3c02e7184fc",
        "246f26c30498fc54bc66d831cfd0fea15f4bf476c9e9f936b4514034369de0e3",
    ),
}

EMITTED = {
    "refinement-stack": "069866290ef0cc697c5f545cbf698a46f12989fadb6419cbaba02540190ca2f5",
    "refinement-stack-miswired": "9d2bd70e5625a3b370157748bf55a4c7f0e1841ae9e84f5a5c806991639cfadc",
    "social-machine": "a9087dbe63ee3e6093b5425dbeb7f99bbcb55cf31581c4cfbc087f1c8837e46a",
    "swap-device": "4ba6e9b8dc75a63faa76694aa7c26bf7098cdcc79ed0fe2169ffb55225ee39fb",
    "voltage-adder": "bfc88b3185b6731b3ec1f452e62f300f4127b42c309f3ca7ac274ecd57d192ad",
    "voltage-adder-faulted": "c3b895eaf6df5a24fe2319b9300c53b4bfabc63be67c46c40942acbea16c0f7b",
    "voltage-adder-noisy": "5e612af188c707262c150deaa5da2fec7a8edaa4c6afea6691317003f4597401",
    "xor-joint": "04ae8c809bee0cea9e05762f2ce9cd31bb2d1559ed91d63939fe57412c12c3fe",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _digest(bundle, seed: int) -> str:
    return _sha256(report_to_json(run_checks(bundle, TrialSeed(seed))))


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
    assert _sha256(emit_scenario(BUILTIN_SCENARIOS[name]())) == EMITTED[name]

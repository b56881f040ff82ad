"""The pinned verdict corpus: every case in tests/data/verdict_corpus.json,
recomputed, must reach the same verdicts with the same deciding eigenvalues.

Verdicts must match exactly and eigenvalues to 1e-12. Witness values come
from searches, and boundary radii sit within the tolerance band of the
domain's edge; a change of method may move either on purpose. They are held
to 1e-9, and a change that moves one regenerates the file with
tests/make_verdict_corpus.py.
"""

import json

import pytest

import make_verdict_corpus

with open(make_verdict_corpus.DEFAULT_OUT) as _fh:
    PINNED = json.load(_fh)

EIG_TOL = 1e-12
VALUE_TOL = 1e-9


@pytest.fixture(scope="module")
def recomputed():
    return {case["id"]: case for case in make_verdict_corpus.build_corpus()["cases"]}


def test_case_list_matches_generator(recomputed):
    assert [case["id"] for case in PINNED["cases"]] == list(recomputed)


@pytest.mark.parametrize("case", PINNED["cases"], ids=lambda case: case["id"])
def test_verdicts_and_eigenvalues_pinned(case, recomputed):
    got = recomputed[case["id"]]
    assert got["family"] == case["family"]
    assert set(got["checks"]) == set(case["checks"])
    for name, want in case["checks"].items():
        have = got["checks"][name]
        assert have.get("verdict") == want.get("verdict"), name
        if "eigenvalue" in want:
            assert abs(have["eigenvalue"] - want["eigenvalue"]) <= EIG_TOL, name
        for key in ("witness", "radius"):
            if want.get(key) is None:
                assert have.get(key) is None, name
            else:
                assert abs(have[key] - want[key]) <= VALUE_TOL, name

"""The pinned decoder and code corpus (tests/corpus): every case's digest and Z_p op count are unchanged."""

import json

from tests.corpus.regenerate import DIGESTS, cases, run_case


def test_corpus_digests_and_op_counts_unchanged():
    pinned = json.loads(DIGESTS.read_text())
    got, features = {}, set()
    for case_id, make in cases():
        record, got[case_id] = run_case(make)
        if "kind" in record:
            features.add(record["kind"] if record["witness"] is None else record["witness"][0])
            if any(record["folds"]):
                features.add("fold")
        elif "decisions" in record:
            features.update(d[1] for d in record["decisions"])
        else:
            features.add("code")
    assert list(got) == list(pinned)
    moved = [f"{case_id}: {got[case_id]} != {want}" for case_id, want in pinned.items() if got[case_id] != want]
    assert not moved, "\n".join(moved)
    # the corpus reaches lists, folds and each kind of invalid window, and
    # sequential decodes that commit, halt on a list, pick and fail after a
    # pick, and serialized codes
    assert features >= {
        "unique", "list", "fold", "stage", "divisibility", "inconsistent-known",
        "picked-first", "invalid-after-guess", "code",
    }

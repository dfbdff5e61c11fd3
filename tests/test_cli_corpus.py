"""The committed CLI output corpus replays byte for byte.

`tests/cli_corpus.json` holds every invocation with its exit code and the
sha256 of its stdout, stderr and written files;
`python tests/record_cli_corpus.py` re-records it.
"""

import json

from record_cli_corpus import CORPUS, corpus_workdir, invocations, run_entry


def test_the_corpus_lists_every_invocation():
    table = json.loads(CORPUS.read_text())
    assert [(e["id"], e["args"], e["inputs"]) for e in table] == \
        [(e["id"], e["args"], e["inputs"]) for e in invocations()]


def test_every_corpus_entry_replays_byte_for_byte():
    table = json.loads(CORPUS.read_text())
    changed = []
    with corpus_workdir() as workdir:
        for entry in table:
            got = run_entry(entry, workdir)
            want = {key: entry[key] for key in got}
            if got != want:
                changed.append((entry["id"], want, got))
    assert changed == []

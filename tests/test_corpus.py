from liecohom import corpus
from liecohom.verification import corpus_checks


def test_corpus_names():
    assert set(corpus.names()) == {
        "sl2c",
        "calabi-eckmann",
        "kodaira-secondary",
        "skt-nilmanifold",
        "iwasawa",
    }


def test_every_entry_loads_with_metric():
    for name in corpus.names():
        lf = corpus.get(name).load()
        assert lf.structure.name == name
        assert lf.metric is not None


def test_every_expectation_is_tagged():
    valid = {corpus.PUBLISHED, corpus.DERIVED, corpus.DIRECT}
    for entry in corpus.CORPUS.values():
        assert entry.expected, f"{entry.name} has no expectations"
        for key, expectation in entry.expected.items():
            assert expectation.source in valid, f"{entry.name}:{key} untagged"


def test_unknown_entry_raises():
    import pytest

    with pytest.raises(KeyError):
        corpus.get("nope")


def test_unknown_expectation_fails(monkeypatch):
    entry = corpus.get("iwasawa")
    monkeypatch.setitem(
        entry.expected, "closed_10_dims", corpus.Expectation(2, corpus.DERIVED)
    )
    failures = [r.name for r in corpus_checks("iwasawa") if not r.passed]
    assert failures == ["iwasawa: unknown expectation 'closed_10_dims'"]

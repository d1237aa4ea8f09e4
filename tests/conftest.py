import pytest
from hypothesis import settings

from tmkit import corpus, dsl

# CI selects this profile with --hypothesis-profile=ci: the same examples
# on every run, and a failure prints the blob that replays it. Local runs
# keep hypothesis's random default.
settings.register_profile("ci", derandomize=True, print_blob=True)


@pytest.fixture(scope="session")
def parsed_corpus():
    """name -> (static, events, behavior) for every shipped fixture."""
    return {name: dsl.parse(corpus.fixture_text(name))
            for name in corpus.FIXTURES}


@pytest.fixture(scope="session")
def beef(parsed_corpus):
    return parsed_corpus["beef"]


@pytest.fixture(scope="session")
def bank(parsed_corpus):
    return parsed_corpus["bank"]


@pytest.fixture(scope="session")
def human(parsed_corpus):
    return parsed_corpus["human"]


@pytest.fixture(scope="session")
def person(parsed_corpus):
    return parsed_corpus["person"]

"""Every ``BucketStack`` that a test builds is held, after the test, to the
reference rules of its rows (``oracles.assert_stack_matches_rules``) on the
regression laws; a table already checked is not checked again.  A test that
asks for ``built_stacks`` gets the list of the stacks it has built so far."""

import pytest
from oracles import assert_stack_matches_rules

from prophetlab import BucketStack
from prophetlab.experiments import regression_instances

LAWS = [d for _, base in regression_instances() for d in base]
_checked: set[tuple] = set()


@pytest.fixture(autouse=True)
def built_stacks(monkeypatch):
    built = []
    build = BucketStack.__init__

    def recording(self, pieces):
        build(self, pieces)
        built.append(self)

    monkeypatch.setattr(BucketStack, "__init__", recording)
    yield built
    for stack in built:
        key = (stack.edges.shape, stack.edges.tobytes(), stack.probs.tobytes())
        if key not in _checked:
            _checked.add(key)
            assert_stack_matches_rules(stack, LAWS)

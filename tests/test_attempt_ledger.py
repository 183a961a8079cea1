"""The attempt ledger's rules, as examples and as a hypothesis state machine.

:class:`repro.execution.ledger.AttemptLedger` is the one statement of the
retry rules that the supervisor and the lease registry both follow, so its
invariants are checked here over arbitrary interleavings of charge, refund,
fail, time out, complete (stale ones included) and abort:

* every item ends in exactly one terminal state, and keeps it;
* attempts never exceed the budget;
* a timeout or a refund never charges an attempt;
* the :class:`repro.execution.ExecutionReport` equals the ledger's sums.
"""

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.execution import AttemptLedger, ExecutionReport
from repro.execution.ledger import (
    FAILURE_STATUSES,
    PENDING,
    RUNNING,
    STATUS_ABORTED,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_TIMEOUT,
)

TERMINAL = (STATUS_OK,) + FAILURE_STATUSES


class TestAttemptLedgerExamples:
    def test_failures_re_pend_until_the_budget_is_spent(self):
        ledger = AttemptLedger(max_attempts=2, items=1)
        assert ledger.charge(0) == 1
        assert ledger.fail(0, "boom 1") is True
        assert ledger.states[0] == PENDING and ledger.retries[0] == 1
        assert ledger.charge(0) == 2
        assert ledger.fail(0, "boom 2") is False
        assert ledger.states[0] == STATUS_FAILED and ledger.errors[0] == "boom 2"
        assert ledger.report() == ExecutionReport(items=1, failures=1, retries=1)

    def test_a_timeout_on_the_last_attempt_ends_the_item_timeout(self):
        ledger = AttemptLedger(max_attempts=1, items=1)
        ledger.charge(0)
        assert ledger.last_attempt(0)
        assert ledger.fail(0, "too slow", timeout=True) is False
        assert ledger.states[0] == STATUS_TIMEOUT and ledger.attempts[0] == 1
        assert ledger.report() == ExecutionReport(items=1, failures=1, timeouts=1)

    def test_a_refund_hands_the_attempt_back_and_counts_nothing(self):
        ledger = AttemptLedger(max_attempts=1, items=1)
        ledger.charge(0)
        ledger.refund(0)
        assert ledger.states[0] == PENDING and ledger.attempts[0] == 0
        assert ledger.charge(0) == 1
        assert ledger.complete(0)
        assert ledger.report() == ExecutionReport(items=1, succeeded=1)

    def test_a_stale_completion_counts_the_retry_its_timeout_scheduled(self):
        # attempts − 1 would say 0 retries; the re-pend was one
        ledger = AttemptLedger(max_attempts=3, items=1)
        ledger.charge(0)
        ledger.fail(0, "lease expired", timeout=True)
        assert ledger.complete(0)  # the timed-out try reports after all
        assert ledger.attempts[0] == 1
        assert ledger.report() == ExecutionReport(
            items=1, succeeded=1, retries=1, timeouts=1)
        assert not ledger.complete(0)  # terminal: ignored

    def test_abort_ends_open_items_and_keeps_their_attempts(self):
        ledger = AttemptLedger(max_attempts=3, items=3, max_failures=0)
        ledger.charge(0)
        ledger.complete(0)
        ledger.charge(1)
        ledger.fail(1, "boom")  # re-pended, then aborted: one retry, 1 attempt
        ledger.charge(2)
        assert ledger.abort("shutdown") == [1, 2]
        assert ledger.states == [STATUS_OK, STATUS_ABORTED, STATUS_ABORTED]
        assert ledger.attempts == [1, 1, 1] and ledger.errors[1:] == ["shutdown"] * 2
        assert ledger.open == 0 and not ledger.over_failure_budget
        assert ledger.report() == ExecutionReport(
            items=3, succeeded=1, failures=2, retries=1)

    def test_the_failure_budget_and_its_default_abort_message(self):
        ledger = AttemptLedger(max_attempts=1, items=3, max_failures=1)
        for item in (0, 1):
            ledger.charge(item)
            ledger.fail(item, "boom")
        assert ledger.over_failure_budget
        assert ledger.abort() == [2]
        assert ledger.errors[2] == "aborted after 2 failures (max_failures=1)"

    @pytest.mark.parametrize("transition", ["refund", "fail"])
    def test_transitions_of_an_item_not_running_are_refused(self, transition):
        ledger = AttemptLedger(max_attempts=2, items=1)
        args = (0,) if transition == "refund" else (0, "boom")
        with pytest.raises(ValueError, match="not running"):
            getattr(ledger, transition)(*args)
        ledger.charge(0)
        with pytest.raises(ValueError, match="not pending"):
            ledger.charge(0)

    def test_max_attempts_is_validated(self):
        with pytest.raises(ValueError, match="max_attempts"):
            AttemptLedger(max_attempts=0)


class LedgerMachine(RuleBasedStateMachine):
    """Drive one ledger with arbitrary transitions against a plain model."""

    @initialize(max_attempts=st.integers(1, 3), items=st.integers(1, 5),
                max_failures=st.none() | st.integers(0, 3))
    def start(self, max_attempts, items, max_failures):
        self.ledger = AttemptLedger(max_attempts, items, max_failures)
        self.attempts = [0] * items
        self.retries = [0] * items
        self.timeouts = [0] * items
        self.ended = {}  # item -> the terminal state it first reached

    def _items(self, *states):
        return [item for item, state in enumerate(self.ledger.states) if state in states]

    def _note_terminal(self, item):
        state = self.ledger.states[item]
        if state in TERMINAL:
            self.ended.setdefault(item, state)

    @rule()
    def add(self):
        assert self.ledger.add() == len(self.attempts)
        self.attempts.append(0)
        self.retries.append(0)
        self.timeouts.append(0)

    @precondition(lambda self: self._items(PENDING))
    @rule(pick=st.integers(0, 10**6))
    def charge(self, pick):
        pending = self._items(PENDING)
        item = pending[pick % len(pending)]
        self.attempts[item] += 1
        assert self.ledger.charge(item) == self.attempts[item]

    @precondition(lambda self: self._items(RUNNING))
    @rule(pick=st.integers(0, 10**6))
    def refund(self, pick):
        running = self._items(RUNNING)
        item = running[pick % len(running)]
        self.ledger.refund(item)
        self.attempts[item] -= 1
        assert self.ledger.attempts[item] == self.attempts[item]  # never charges

    @precondition(lambda self: self._items(RUNNING))
    @rule(pick=st.integers(0, 10**6), timeout=st.booleans())
    def fail_or_time_out(self, pick, timeout):
        running = self._items(RUNNING)
        item = running[pick % len(running)]
        last = self.attempts[item] >= self.ledger.max_attempts
        assert self.ledger.last_attempt(item) == last
        re_pended = self.ledger.fail(item, "timeout" if timeout else "boom", timeout=timeout)
        assert re_pended == (not last)
        assert self.ledger.attempts[item] == self.attempts[item]  # never charges
        self.retries[item] += 0 if last else 1
        self.timeouts[item] += 1 if timeout else 0
        if last:
            assert self.ledger.states[item] == (STATUS_TIMEOUT if timeout else STATUS_FAILED)
        self._note_terminal(item)

    @rule(pick=st.integers(0, 10**6))
    def complete(self, pick):
        """Any item: a running one, a stale pending one, or a terminal one."""
        item = pick % len(self.ledger.states)
        was_open = self.ledger.is_open(item)
        assert self.ledger.complete(item) == was_open
        if was_open:
            assert self.ledger.states[item] == STATUS_OK
            assert self.ledger.errors[item] is None
        self._note_terminal(item)

    @rule(error=st.none() | st.just("shutdown"))
    def abort(self, error):
        open_items = self._items(PENDING, RUNNING)
        assert self.ledger.abort(error) == open_items
        for item in open_items:
            self._note_terminal(item)

    @invariant()
    def terminal_states_are_final(self):
        for item, state in self.ended.items():
            assert self.ledger.states[item] == state

    @invariant()
    def attempts_stay_within_the_budget(self):
        assert self.ledger.attempts == self.attempts
        assert all(0 <= count <= self.ledger.max_attempts for count in self.attempts)

    @invariant()
    def report_equals_the_ledger_sums(self):
        states = self.ledger.states
        succeeded = states.count(STATUS_OK)
        ended = sum(1 for state in states if state in TERMINAL)
        assert self.ledger.open == len(states) - ended
        assert self.ledger.report() == ExecutionReport(
            items=len(states),
            succeeded=succeeded,
            failures=ended - succeeded,
            retries=sum(self.retries),
            timeouts=sum(self.timeouts),
        )
        failed = sum(1 for state in states if state in (STATUS_FAILED, STATUS_TIMEOUT))
        budget = self.ledger.max_failures
        assert self.ledger.over_failure_budget == (budget is not None and failed > budget)

    def teardown(self):
        # Whatever is still open is aborted: then every item has exactly one
        # terminal state.
        if hasattr(self, "ledger"):
            self.ledger.abort()
            assert all(state in TERMINAL for state in self.ledger.states)
            assert self.ledger.open == 0


TestLedgerStateMachine = LedgerMachine.TestCase
TestLedgerStateMachine.settings = settings(
    max_examples=150, stateful_step_count=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

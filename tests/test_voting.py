"""The array voter and the safety scan: case by case, and against the frozen
scalar `vote` and `step_safety` of the reference runner (`oracles`)."""

from collections import namedtuple
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lockstepsim.cli import agreement_patterns
from lockstepsim.coupling import rendezvous_rounds
from lockstepsim.errors import ConfigError
from lockstepsim.fixedpoint import tensor_digests
from lockstepsim.voting import (
    ACTIONS,
    DEGRADED,
    DELIVER_OUTPUT,
    ENTER_SAFE_OFF,
    MISMATCH,
    OPERATIONAL,
    PASS,
    SAFE_OFF,
    SUPPRESS_OUTPUT,
    TIMEOUT,
    VERDICTS,
    Exact,
    Tolerance,
    VotingPolicy,
    agreement_labels,
    safety_scan,
    vote_rounds,
)
from oracles import (
    SafetySwitchState,
    Verdict,
    _Tensor,
    step_safety,
    tolerance_cliques,
    vote,
    vote_oracle_exact,
)


class TestVotingPolicy:
    def test_named_presets(self):
        assert VotingPolicy.named("1oo2") == VotingPolicy(1, 2)
        assert VotingPolicy.named("2oo2") == VotingPolicy(2, 2)
        assert VotingPolicy.named("2oo3") == VotingPolicy(2, 3)

    def test_parse_errors(self):
        with pytest.raises(ConfigError):
            VotingPolicy.named("3oo2")
        with pytest.raises(ConfigError):
            VotingPolicy.named("banana")
        with pytest.raises(ConfigError):
            VotingPolicy.named("2oo9")

    def test_required_agreement(self):
        assert VotingPolicy(1, 1).required_agreement == 1
        assert VotingPolicy(1, 2).required_agreement == 2
        assert VotingPolicy(2, 2).required_agreement == 2
        assert VotingPolicy(2, 3).required_agreement == 2
        assert VotingPolicy(1, 3).required_agreement == 2
        assert VotingPolicy(3, 4).required_agreement == 3


def outputs(rounds):
    """(digests, outputs) of a batch of rounds, each a list of one output
    per replica: a list of values, or an int for a one-element output."""
    out = np.array([[[v] if isinstance(v, int) else v for v in r] for r in rounds], dtype=np.int16)
    n, k, width = out.shape
    return tensor_digests((width,), out.reshape(n * k, width)).reshape(n, k), out


def labels_of(*values, comparator=Exact()):
    return agreement_labels(comparator, *outputs([values]))[0].tolist()


def decide(rounds, policy, comparator=Exact(), complete=None):
    """Per round: (variant, agreeing ids, agreed digest) of a pass, else
    (variant, groups of replica ids, None)."""
    digests, out = outputs(rounds)
    labels = agreement_labels(comparator, digests, out)
    if complete is None:
        complete = np.ones(len(rounds), dtype=bool)
    verdicts, best = vote_rounds(complete, labels, policy.required_agreement)
    results = []
    for row, d, verdict, g in zip(labels.tolist(), digests.tolist(), verdicts.tolist(), best.tolist()):
        groups = [tuple(i for i, label in enumerate(row) if label == h) for h in range(max(row, default=-1) + 1)]
        if VERDICTS[verdict] == PASS:
            results.append((PASS, groups[g], d[groups[g][0]]))
        else:
            results.append((VERDICTS[verdict], tuple(groups), None))
    return results


class TestAgreementLabels:
    def test_three_identical_one_group(self):
        assert labels_of(42, 42, 42) == [0, 0, 0]

    def test_two_values_two_groups(self):
        assert labels_of(5, 5, 9) == [0, 0, 1]

    def test_tolerance_greedy_pivot_rule(self):
        # eps of one raw unit: 0 and 1 agree with pivot 0; 2 does not
        assert labels_of(0, 1, 2, comparator=Tolerance(1 / 256)) == [0, 0, 1]
        # the clique view differs: {1,2} is also a valid clique, which is
        # exactly the non-transitivity gap the greedy pivot rule resolves
        cliques = tolerance_cliques([0, 1, 2], raw_eps=1)
        assert (0, 1) in cliques and (1, 2) in cliques

    def test_tolerance_compares_widened_values(self):
        # -32768 - 32767 wraps to 1 in int16 arithmetic; the rails are
        # 65535 raw units (~256.0) apart
        assert labels_of(-32768, 32767, comparator=Tolerance(0.01)) == [0, 1]
        assert labels_of(-32768, 32767, comparator=Tolerance(65535 / 256)) == [0, 0]

    def test_tolerance_bounds_every_element(self):
        tol = Tolerance(2 / 256)
        assert labels_of([0, 100], [2, 98], comparator=tol) == [0, 0]
        assert labels_of([0, 100], [2, 97], comparator=tol) == [0, 1]

    def test_scan_is_replica_id_ordered(self):
        # groups are numbered in the order their pivots (first members) come
        assert labels_of(9, 5, 5) == [0, 1, 1]
        assert labels_of(5, 9, 5, 7, 9) == [0, 1, 0, 2, 1]

    def test_rounds_are_independent(self):
        digests, out = outputs([[1, 1, 2], [3, 4, 4], [5, 6, 7]])
        assert agreement_labels(Exact(), digests, out).tolist() == [[0, 0, 1], [0, 1, 1], [0, 1, 2]]

    def test_no_outputs_no_groups(self):
        labels = agreement_labels(Exact(), np.zeros((3, 0), dtype=np.uint64))
        assert labels.shape == (3, 0)


class TestVoteRounds:
    def test_duplex_agreement_passes(self):
        [(variant, ids, digest)] = decide([[7, 7]], VotingPolicy.named("1oo2"))
        assert (variant, ids) == (PASS, (0, 1))
        assert digest == outputs([[7]])[0][0, 0]

    def test_duplex_disagreement_is_mismatch_not_pass(self):
        # the duplex voter is a comparator: a lone channel never wins
        [(variant, groups, _)] = decide([[7, 8]], VotingPolicy.named("1oo2"))
        assert variant == MISMATCH
        assert set(groups) == {(0,), (1,)}

    def test_2oo2_disagreement_mismatch(self):
        assert decide([[7, 8]], VotingPolicy.named("2oo2"))[0][0] == MISMATCH

    def test_2oo3_majority_masks_single_fault(self):
        [(variant, ids, digest)] = decide([[7, 7, 9]], VotingPolicy.named("2oo3"))
        assert (variant, ids) == (PASS, (0, 1))
        assert digest == outputs([[7]])[0][0, 0]

    def test_3oo4_split_pairs_mismatch(self):
        [(variant, groups, _)] = decide([[1, 1, 2, 2]], VotingPolicy(3, 4))
        assert variant == MISMATCH
        assert sorted(len(g) for g in groups) == [2, 2]

    def test_equal_size_tie_breaks_to_lowest_id(self):
        assert decide([[1, 1, 2, 2]], VotingPolicy(2, 4))[0][:2] == (PASS, (0, 1))
        assert decide([[2, 1, 1, 2]], VotingPolicy(2, 4))[0][:2] == (PASS, (0, 3))
        assert decide([[1, 2, 2, 1]], VotingPolicy(2, 4))[0][:2] == (PASS, (0, 3))

    def test_rendezvous_timeout_dominates(self):
        # agreeing values, but the rendezvous did not complete
        rounds = decide([[7, 7]], VotingPolicy.named("1oo2"), complete=np.array([False]))
        assert rounds[0][0] == TIMEOUT

    def test_zero_outputs_timeout_all_missing(self):
        # no output arrives: the rendezvous times out with every replica missing
        complete, _, _ = rendezvous_rounds(np.zeros((1, 3), np.int64), np.zeros((1, 3), bool), 10)
        assert not complete[0]
        verdicts, _ = vote_rounds(complete, np.zeros((1, 3), np.int64), 2)
        assert VERDICTS[verdicts[0]] == TIMEOUT

    def test_too_few_outputs_degraded(self):
        assert decide([[7]], VotingPolicy.named("1oo2"))[0][0] == DEGRADED

    def test_simplex_single_output_passes(self):
        assert decide([[7]], VotingPolicy(1, 1))[0][:2] == (PASS, (0,))

    def test_value_voting_ignores_timing(self):
        # permuting completion times inside the window never changes the verdict
        arrival = np.array([[100, 105], [105, 100]])
        complete, _, _ = rendezvous_rounds(arrival, np.ones((2, 2), bool), 10)
        first, swapped = decide([[7, 7], [7, 7]], VotingPolicy.named("1oo2"), complete=complete)
        assert first == swapped
        assert first[0] == PASS

    def test_exhaustive_oracle_equivalence(self):
        # every n <= 4, every labelling with <= 4 distinct values, every valid m
        for n in range(1, 5):
            rounds = [[(pattern // 4**i) % 4 for i in range(n)] for pattern in range(4**n)]
            for m in range(1, n + 1):
                for labels, got in zip(rounds, decide(rounds, VotingPolicy(m, n))):
                    want_variant, want_detail = vote_oracle_exact(labels, m, n)
                    assert got[0] == want_variant, (labels, m, n)
                    if want_variant == PASS:
                        assert got[1] == want_detail, (labels, m, n)
                    else:
                        assert frozenset(got[1]) == want_detail, (labels, m, n)


# -- against the frozen scalar vote --------------------------------------------

_Output = namedtuple("_Output", "replica_id output digest")


def frozen_vote(row, digests, policy, comparator):
    """The frozen scalar `vote` of one round's outputs, in `decide`'s form."""
    outs = [_Output(rid, _Tensor((len(v),), tuple(v)), d) for rid, (v, d) in enumerate(zip(row, digests))]
    v = vote(outs, policy, comparator)
    if v.variant == PASS:
        return (PASS, v.agreeing_ids, v.agreed.digest)
    return (v.variant, v.groups, None)


def assert_matches_frozen_vote(rounds, policy, comparator):
    digests, _ = outputs(rounds)
    rows = [[[v] if isinstance(v, int) else v for v in r] for r in rounds]
    for row, d, got in zip(rows, digests.tolist(), decide(rounds, policy, comparator)):
        assert got == frozen_vote(row, d, policy, comparator), (row, policy, comparator)


@pytest.mark.parametrize("n", range(1, 7))
def test_every_pattern_matches_the_frozen_vote(n):
    # every agreement pattern of n outputs, under every m, exact comparator
    patterns = [list(p) for p in agreement_patterns(n)]
    for m in range(1, n + 1):
        assert_matches_frozen_vote(patterns, VotingPolicy(m, n), Exact())



@pytest.mark.parametrize("n", range(1, 6))
def test_g_a_pass_selects_a_corrupted_value_only_when_corrupted_outputs_outvote_the_clean_ones(n):
    # The checker's claim, for every MooN with this n under Exact: over every
    # set of corrupted columns and every way their values collude, a pass
    # selects a corrupted value only if at least the required agreement of
    # corrupted outputs agree on it and their group is at least as large as
    # the clean one. So a lone corrupted column never wins once two
    # witnesses are required. A clean output holds 0, a corrupted one 1 +
    # its collusion label, each value standing in for its digest.
    rows = []
    for size in range(n + 1):
        for columns in combinations(range(n), size):
            for pattern in agreement_patterns(size):
                row = [0] * n
                for c, label in zip(columns, pattern):
                    row[c] = 1 + label
                rows.append(row)
    labels = agreement_labels(Exact(), np.array(rows, dtype=np.uint64)).tolist()
    for m in range(1, n + 1):
        required = VotingPolicy(m, n).required_agreement
        verdict, best = vote_rounds(np.ones(len(rows), dtype=bool), np.array(labels), required)
        for row, row_labels, v, b in zip(rows, labels, verdict.tolist(), best.tolist()):
            if VERDICTS[v] != PASS:
                continue
            (value,) = {x for x, g in zip(row, row_labels) if g == b}
            if value:
                assert row.count(value) >= max(required, row.count(0)), (row, m)


INT16_EDGES = [-32768, -32767, -256, -1, 0, 1, 255, 256, 32766, 32767]


@st.composite
def tolerance_rounds(draw):
    n = draw(st.integers(1, 6))
    width = draw(st.integers(1, 3))
    value = st.sampled_from(INT16_EDGES) | st.integers(-32768, 32767)
    base = [draw(value) for _ in range(width)]
    # outputs near one another, so that groups form, or anywhere in int16
    near = st.builds(lambda d: [max(-32768, min(32767, b + d)) for b in base], st.integers(-300, 300))
    rounds = [[draw(near | st.lists(value, min_size=width, max_size=width)) for _ in range(n)]
              for _ in range(draw(st.integers(1, 4)))]
    return rounds, VotingPolicy(draw(st.integers(1, n)), n), draw(st.sampled_from([0.0, 0.05, 1.0]))


@given(tolerance_rounds())
@settings(max_examples=300, deadline=None)
def test_tolerance_matches_the_frozen_vote(case):
    rounds, policy, eps = case
    assert_matches_frozen_vote(rounds, policy, Tolerance(eps))


# -- the safety switch ---------------------------------------------------------


def scan(faulty, threshold, count=0):
    action, counts = safety_scan(np.array(faulty, dtype=bool), threshold, count)
    return [ACTIONS[a] for a in action.tolist()], counts.tolist()


class TestSafetyScan:
    def test_pass_delivers_and_resets(self):
        assert scan([False], 3, count=2) == ([DELIVER_OUTPUT], [0])

    def test_immediate_trip_with_default_debounce(self):
        assert scan([True], 1) == ([ENTER_SAFE_OFF], [1])

    def test_debounce_three_hand_trace(self):
        actions, counts = scan([True, False, True, True, True], 3)
        assert actions == [SUPPRESS_OUTPUT, DELIVER_OUTPUT, SUPPRESS_OUTPUT, SUPPRESS_OUTPUT, ENTER_SAFE_OFF]
        assert counts == [1, 0, 1, 2, 3]

    def test_count_carries_into_the_next_run(self):
        # a timeout or degraded verdict counts like any other non-pass
        assert scan([True], 2, count=1) == ([ENTER_SAFE_OFF], [2])
        assert scan([True, True], 3, count=1)[0] == [SUPPRESS_OUTPUT, ENTER_SAFE_OFF]

    def test_safe_off_keeps_its_count_after_entry(self):
        actions, counts = scan([True, True, False, True], 2)
        assert actions == [SUPPRESS_OUTPUT, ENTER_SAFE_OFF, SUPPRESS_OUTPUT, SUPPRESS_OUTPUT]
        assert counts == [1, 2, 2, 2]

    def test_safe_off_is_absorbing(self):
        # SafeOff is a count at the threshold; a pass does not reset it
        assert scan([False, True, False], 3, 3) == ([SUPPRESS_OUTPUT] * 3, [3, 3, 3])


VARIANTS = {
    "pass": Verdict.passed(None, (0, 1)),
    "mismatch": Verdict.mismatch(((0,), (1,))),
    "timeout": Verdict.timeout((1,)),
    "degraded": Verdict.degraded("x"),
}


@given(
    st.integers(1, 5),
    st.lists(st.sampled_from(sorted(VARIANTS)), max_size=60),
    st.lists(st.integers(1, 20), max_size=8),
)
@settings(max_examples=200, deadline=None)
def test_scan_matches_the_frozen_step_in_any_chunking(threshold, variants, cuts):
    # the frozen step, one verdict at a time
    state, want = SafetySwitchState(debounce_threshold=threshold), []
    for name in variants:
        state, action = step_safety(state, VARIANTS[name])
        want.append((state.state, action, state.consecutive_fault_count))
    # the frozen switch is in SafeOff exactly when its count has reached
    # the threshold, so the count is its whole state
    assert all((s == SAFE_OFF) == (c >= threshold) for s, _, c in want)
    # the scan, over chunks of any size, carrying only the count across them
    got, at, count = [], 0, 0
    for size in cuts + [len(variants)]:
        chunk = variants[at:at + size]
        at += len(chunk)
        if not chunk:
            continue
        actions, counts = scan([v != "pass" for v in chunk], threshold, count)
        got += [(SAFE_OFF if c >= threshold else OPERATIONAL, action, c) for action, c in zip(actions, counts)]
        count = counts[-1]
    assert got == want
    # the switch is at rest, delivering, exactly when its count is 0 (the trace leaves that row's fields out)
    assert all((action == DELIVER_OUTPUT) == (c == 0) for _, action, c in got)
    # SafeOff is absorbing
    states = [s for s, _, _ in got]
    if SAFE_OFF in states:
        assert set(states[states.index(SAFE_OFF):]) == {SAFE_OFF}


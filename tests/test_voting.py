import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lockstepsim.coupling import Complete, Timeout
from lockstepsim.errors import ConfigError, ProtocolError
from lockstepsim.voting import (
    DEGRADED,
    DELIVER_OUTPUT,
    ENTER_SAFE_OFF,
    Exact,
    MISMATCH,
    OPERATIONAL,
    PASS,
    SAFE_OFF,
    SUPPRESS_OUTPUT,
    SafetySwitchState,
    TIMEOUT,
    Tolerance,
    Verdict,
    VotingPolicy,
    group_agreements,
    step_safety,
    vote,
)
from helpers import make_output
from oracles import tolerance_cliques, vote_oracle_exact


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


class TestGroupAgreements:
    def test_three_identical_one_group(self):
        outs = [make_output(i, 42) for i in range(3)]
        groups = group_agreements(outs, Exact())
        assert len(groups) == 1
        assert groups[0].replica_ids == (0, 1, 2)

    def test_two_values_two_groups(self):
        outs = [make_output(0, 5), make_output(1, 5), make_output(2, 9)]
        groups = group_agreements(outs, Exact())
        assert [g.replica_ids for g in groups] == [(0, 1), (2,)]

    def test_tolerance_greedy_pivot_rule(self):
        # eps of one raw unit: 0 and 1 agree with pivot 0; 2 does not
        eps = 1 / 256
        outs = [make_output(0, 0), make_output(1, 1), make_output(2, 2)]
        groups = group_agreements(outs, Tolerance(eps))
        assert [g.replica_ids for g in groups] == [(0, 1), (2,)]
        # the clique view differs: {1,2} is also a valid clique, which is
        # exactly the non-transitivity gap the greedy pivot rule resolves
        cliques = tolerance_cliques([0, 1, 2], raw_eps=1)
        assert (0, 1) in cliques and (1, 2) in cliques

    def test_tolerance_compares_widened_values(self):
        # -32768 - 32767 wraps to 1 in int16 arithmetic; the rails are
        # 65535 raw units (~256.0) apart
        rails = [make_output(0, -32768), make_output(1, 32767)]
        assert len(group_agreements(rails, Tolerance(0.01))) == 2
        assert len(group_agreements(rails, Tolerance(65535 / 256))) == 1

    def test_mismatched_shapes_protocol_error(self):
        with pytest.raises(ProtocolError):
            group_agreements([make_output(0, [1, 2]), make_output(1, [1])], Exact())

    def test_empty_outputs_protocol_error(self):
        with pytest.raises(ProtocolError):
            group_agreements([], Exact())

    def test_scan_is_replica_id_ordered(self):
        outs = [make_output(2, 9), make_output(0, 5), make_output(1, 5)]
        groups = group_agreements(outs, Exact())
        assert [g.replica_ids for g in groups] == [(0, 1), (2,)]
        assert groups[0].pivot.replica_id == 0


class TestVote:
    def test_duplex_agreement_passes(self):
        outs = [make_output(0, 7), make_output(1, 7)]
        v = vote(outs, VotingPolicy.named("1oo2"), Exact())
        assert v.variant == PASS
        assert v.agreeing_ids == (0, 1)
        assert v.agreed.digest == outs[0].digest

    def test_duplex_disagreement_is_mismatch_not_pass(self):
        # the duplex voter is a comparator: a lone channel never wins
        outs = [make_output(0, 7), make_output(1, 8)]
        v = vote(outs, VotingPolicy.named("1oo2"), Exact())
        assert v.variant == MISMATCH
        assert set(v.groups) == {(0,), (1,)}

    def test_2oo2_disagreement_mismatch(self):
        outs = [make_output(0, 7), make_output(1, 8)]
        assert vote(outs, VotingPolicy.named("2oo2"), Exact()).variant == MISMATCH

    def test_2oo3_majority_masks_single_fault(self):
        outs = [make_output(0, 7), make_output(1, 7), make_output(2, 9)]
        v = vote(outs, VotingPolicy.named("2oo3"), Exact())
        assert v.variant == PASS
        assert v.agreeing_ids == (0, 1)
        assert v.agreed.output.data.tolist() == [7]

    def test_3oo4_split_pairs_mismatch(self):
        outs = [make_output(0, 1), make_output(1, 1), make_output(2, 2), make_output(3, 2)]
        v = vote(outs, VotingPolicy(3, 4), Exact())
        assert v.variant == MISMATCH
        assert sorted(len(g) for g in v.groups) == [2, 2]

    def test_equal_size_tie_breaks_to_lowest_id(self):
        outs = [make_output(0, 1), make_output(1, 1), make_output(2, 2), make_output(3, 2)]
        v = vote(outs, VotingPolicy(2, 4), Exact())
        assert v.variant == PASS
        assert v.agreeing_ids == (0, 1)

    def test_rendezvous_timeout_dominates(self):
        outs = [make_output(0, 7)]
        v = vote(outs, VotingPolicy.named("1oo2"), Exact(), Timeout((0,), (1,)))
        assert v.variant == TIMEOUT
        assert v.missing_ids == (1,)

    def test_zero_outputs_timeout_all_missing(self):
        v = vote([], VotingPolicy.named("2oo3"), Exact())
        assert v.variant == TIMEOUT
        assert v.missing_ids == (0, 1, 2)

    def test_too_few_outputs_degraded(self):
        v = vote([make_output(0, 7)], VotingPolicy.named("1oo2"), Exact())
        assert v.variant == DEGRADED

    def test_simplex_single_output_passes(self):
        v = vote([make_output(0, 7)], VotingPolicy(1, 1), Exact())
        assert v.variant == PASS

    def test_value_voting_ignores_timing(self):
        # permuting completion times inside the window never changes the verdict
        outs = [make_output(0, 7), make_output(1, 7)]
        base = vote(outs, VotingPolicy.named("1oo2"), Exact(),
                    Complete(((0, 100), (1, 105)), 5))
        swapped = vote(outs, VotingPolicy.named("1oo2"), Exact(),
                       Complete(((1, 100), (0, 105)), 5))
        assert base.variant == swapped.variant == PASS
        assert base.agreed.digest == swapped.agreed.digest

    def test_exhaustive_oracle_equivalence(self):
        # every n <= 4, every labelling with <= 4 distinct values, every valid m
        for n in range(1, 5):
            for pattern in range(4**n):
                labels = [(pattern // 4**i) % 4 for i in range(n)]
                outs = [make_output(i, labels[i]) for i in range(n)]
                for m in range(1, n + 1):
                    policy = VotingPolicy(m, n)
                    got = vote(outs, policy, Exact())
                    want_variant, want_detail = vote_oracle_exact(labels, m, n)
                    assert got.variant == want_variant, (labels, m, n)
                    if want_variant == "pass":
                        assert got.agreeing_ids == want_detail, (labels, m, n)
                    else:
                        assert frozenset(got.groups) == want_detail, (labels, m, n)


class TestSafetySwitch:
    def test_pass_delivers_and_resets(self):
        st0 = SafetySwitchState(debounce_threshold=3, consecutive_fault_count=2)
        st1, action = step_safety(st0, Verdict.passed(None, (0, 1)))
        assert action == DELIVER_OUTPUT
        assert st1.state == OPERATIONAL
        assert st1.consecutive_fault_count == 0

    def test_immediate_trip_with_default_debounce(self):
        st0 = SafetySwitchState()
        st1, action = step_safety(st0, Verdict.mismatch(((0,), (1,))))
        assert action == ENTER_SAFE_OFF
        assert st1.state == SAFE_OFF

    def test_debounce_three_hand_trace(self):
        st = SafetySwitchState(debounce_threshold=3)
        seq = [
            Verdict.mismatch(((0,), (1,))),
            Verdict.passed(None, (0, 1)),
            Verdict.mismatch(((0,), (1,))),
            Verdict.mismatch(((0,), (1,))),
            Verdict.mismatch(((0,), (1,))),
        ]
        actions = []
        for v in seq:
            st, action = step_safety(st, v)
            actions.append(action)
        assert actions == [
            SUPPRESS_OUTPUT,
            DELIVER_OUTPUT,
            SUPPRESS_OUTPUT,
            SUPPRESS_OUTPUT,
            ENTER_SAFE_OFF,
        ]
        assert st.state == SAFE_OFF

    def test_timeout_counts_toward_debounce(self):
        st0 = SafetySwitchState(debounce_threshold=2)
        st1, a1 = step_safety(st0, Verdict.timeout((1,)))
        st2, a2 = step_safety(st1, Verdict.timeout((1,)))
        assert (a1, a2) == (SUPPRESS_OUTPUT, ENTER_SAFE_OFF)

    def test_degraded_counts_toward_debounce(self):
        st0 = SafetySwitchState()
        st1, action = step_safety(st0, Verdict.degraded("half the system gone"))
        assert st1.state == SAFE_OFF

    def test_safe_off_is_absorbing(self):
        st0 = SafetySwitchState(state=SAFE_OFF, consecutive_fault_count=1)
        for v in (Verdict.passed(None, (0,)), Verdict.mismatch(((0,),)), Verdict.timeout((0,))):
            st1, action = step_safety(st0, v)
            assert st1.state == SAFE_OFF
            assert action == SUPPRESS_OUTPUT

    @given(
        st.integers(1, 5),
        st.lists(st.sampled_from(["pass", "mismatch", "timeout", "degraded"]), max_size=60),
    )
    @settings(max_examples=200, deadline=None)
    def test_no_sequence_leaves_safe_off(self, threshold, variants):
        state = SafetySwitchState(debounce_threshold=threshold)
        tripped = False
        for name in variants:
            verdict = {
                "pass": Verdict.passed(None, (0, 1)),
                "mismatch": Verdict.mismatch(((0,), (1,))),
                "timeout": Verdict.timeout((1,)),
                "degraded": Verdict.degraded("x"),
            }[name]
            state, action = step_safety(state, verdict)
            if state.state == SAFE_OFF:
                tripped = True
            if tripped:
                assert state.state == SAFE_OFF
                assert action in (ENTER_SAFE_OFF, SUPPRESS_OUTPUT)

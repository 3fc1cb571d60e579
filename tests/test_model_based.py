"""Model-based tests: the preference graph against a brute-force model,
and paper-grounded invariants over full execution traces."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.crowdsky import crowdsky
from repro.core.parallel import parallel_dset, parallel_sl
from repro.core.preference import PreferenceGraph
from repro.questions import Preference
from repro.data.synthetic import Distribution, generate_synthetic
from repro.skyline.dominating import dominating_sets

L, R, E = Preference.LEFT, Preference.RIGHT, Preference.EQUAL

_N = 7


class _ClosureModel:
    """Brute-force reference: accepted answers + Floyd-Warshall closure."""

    def __init__(self, n):
        self.n = n
        # strict[u][v]: u preferred; equal via union-find by set merging.
        self.strict = np.zeros((n, n), dtype=bool)
        self.groups = [{i} for i in range(n)]

    def _group(self, x):
        for group in self.groups:
            if x in group:
                return group
        raise AssertionError

    def _close(self):
        for k in range(self.n):
            self.strict |= np.outer(
                self.strict[:, k], self.strict[k, :]
            )

    def relation(self, u, v):
        if self._group(u) is self._group(v):
            return E
        if self.strict[u, v]:
            return L
        if self.strict[v, u]:
            return R
        return None

    def add(self, u, v, answer):
        """Mirror PreferenceGraph.add_answer under KEEP_FIRST."""
        known = self.relation(u, v)
        if known is not None:
            return known is answer
        if answer is E:
            gu, gv = self._group(u), self._group(v)
            merged = gu | gv
            self.groups = [
                g for g in self.groups if g is not gu and g is not gv
            ]
            self.groups.append(merged)
            # Members of a class share all strict edges.
            members = sorted(merged)
            self.strict[np.ix_(members, range(self.n))] = self.strict[
                members
            ].any(axis=0)
            self.strict[np.ix_(range(self.n), members)] = self.strict[
                :, members
            ].any(axis=1)[:, None]
            self._close()
            return True
        src, dst = (u, v) if answer is L else (v, u)
        for a in sorted(self._group(src)):
            for b in sorted(self._group(dst)):
                self.strict[a, b] = True
        self._close()
        return True


class PreferenceGraphMachine(RuleBasedStateMachine):
    """Random answer sequences: graph and model must always agree."""

    def __init__(self):
        super().__init__()
        self.graph = PreferenceGraph(_N)
        self.model = _ClosureModel(_N)

    @rule(
        u=st.integers(0, _N - 1),
        v=st.integers(0, _N - 1),
        answer=st.sampled_from([L, R, E]),
    )
    def add_answer(self, u, v, answer):
        if u == v:
            return
        accepted_graph = self.graph.add_answer(u, v, answer)
        accepted_model = self.model.add(u, v, answer)
        assert accepted_graph == accepted_model

    @invariant()
    def relations_agree(self):
        for u in range(_N):
            for v in range(_N):
                if u != v:
                    assert self.graph.relation(u, v) == self.model.relation(
                        u, v
                    ), (u, v)


PreferenceGraphMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=20, deadline=None
)
TestPreferenceGraphModel = PreferenceGraphMachine.TestCase


class TestTraceInvariants:
    """Paper-grounded invariants over complete execution traces."""

    @pytest.mark.parametrize(
        "algorithm", [crowdsky, parallel_dset, parallel_sl]
    )
    @pytest.mark.parametrize("seed", [0, 1])
    def test_every_question_is_ds_justified(self, algorithm, seed):
        """Lemma 1 + §3.4: every asked pair is either a dominating-set
        question (one side dominates the other in AK) or a probe (both
        sides share membership in some tuple's dominating set)."""
        relation = generate_synthetic(
            70, 3, 1, Distribution.INDEPENDENT, seed=seed
        )
        ds = dominating_sets(relation.known_matrix())
        result = algorithm(relation)
        for _, question, _ in result.question_log:
            u, v = question.left, question.right
            is_ds_question = u in ds[v] or v in ds[u]
            shares_target = any(
                u in members and v in members for members in ds
            )
            assert is_ds_question or shares_target, (u, v)

    @pytest.mark.parametrize(
        "algorithm", [crowdsky, parallel_dset, parallel_sl]
    )
    def test_no_question_repeats(self, algorithm):
        relation = generate_synthetic(
            70, 3, 1, Distribution.INDEPENDENT, seed=3
        )
        result = algorithm(relation)
        keys = [question.key() for _, question, _ in result.question_log]
        assert len(keys) == len(set(keys))

    def test_serial_round_numbers_increase_by_one(self):
        relation = generate_synthetic(
            50, 3, 1, Distribution.INDEPENDENT, seed=4
        )
        result = crowdsky(relation)
        rounds = [entry[0] for entry in result.question_log]
        assert rounds == list(range(1, len(rounds) + 1))

    def test_parallel_round_numbers_non_decreasing(self):
        relation = generate_synthetic(
            50, 3, 1, Distribution.INDEPENDENT, seed=4
        )
        result = parallel_sl(relation)
        rounds = [entry[0] for entry in result.question_log]
        assert rounds == sorted(rounds)

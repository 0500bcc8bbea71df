import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lenscalc.errors import InvariantError, PreconditionError
from lenscalc.markov import (
    MarkovTriple,
    Mutation,
    QTriple,
    derive_q,
    enumerate_tree,
    is_markov,
    mutate,
    mutation_path,
    replay,
    verify_q,
)

DEPTH = 6
TREE = [t for t, _ in enumerate_tree(DEPTH)]


def enumerate_with_seen_set(depth):
    """The tree walk with a set of the triples seen so far: a child already
    seen is dropped, so a triple keeps its first word."""
    root = MarkovTriple(1, 1, 1)
    out, frontier, seen = [(root, "")], [(root, "")], {root}
    for _ in range(depth):
        nxt = []
        for t, word in frontier:
            for m in (Mutation.LEFT, Mutation.RIGHT):
                child = mutate(t, m)
                if child not in seen:
                    seen.add(child)
                    nxt.append((child, word + m.value))
        out.extend(nxt)
        frontier = nxt
    return out


def cond3_by_inverses(t, q):
    """(cond3_some, cond3_all) read with a modular inverse per ordering:
    q_i = +-3 p_j p_k^{-1} mod p_i, for (j, k) either way round."""
    some = every = True
    p1, p2, p3 = t.entries()
    for pi, qi, oj, ok in ((p1, q.q1, p2, p3), (p2, q.q2, p1, p3), (p3, q.q3, p1, p2)):
        if pi == 1:
            continue
        hits = []
        for pj, pk in ((oj, ok), (ok, oj)):
            val = 3 * pj * pow(pk, -1, pi) % pi
            hits += [qi % pi == val, qi % pi == -val % pi]
        some = some and any(hits)
        every = every and all(hits)
    return some, every


class TestEquation:
    def test_solutions(self):
        assert is_markov(1, 1, 1)
        assert is_markov(2, 5, 29)

    def test_non_solution(self):
        assert not is_markov(2, 3, 5)

    def test_positivity_required(self):
        with pytest.raises(PreconditionError):
            is_markov(0, 1, 1)

    def test_triple_constructor_validates(self):
        with pytest.raises(InvariantError):
            MarkovTriple(1, 2, 3)

    def test_triple_sorts(self):
        assert MarkovTriple(5, 1, 2).entries() == (1, 2, 5)


class TestMutation:
    def test_left_child(self):
        assert mutate(MarkovTriple(1, 2, 5), Mutation.LEFT).entries() == (2, 5, 29)

    def test_right_child(self):
        assert mutate(MarkovTriple(1, 2, 5), Mutation.RIGHT).entries() == (1, 5, 13)

    def test_stem_children_coincide(self):
        root = MarkovTriple(1, 1, 1)
        assert mutate(root, Mutation.LEFT) == mutate(root, Mutation.RIGHT)

    def test_parent_recovers_triple(self):
        for t in TREE:
            for m in Mutation:
                child = mutate(t, m)
                parent = MarkovTriple(
                    child.p1, child.p2, 3 * child.p1 * child.p2 - child.p3
                )
                assert parent == t

    @given(st.sampled_from(TREE), st.integers(0, 2))
    def test_coordinate_replacement_is_an_involution(self, t, i):
        p = list(t.entries())
        j, k = [a for a in range(3) if a != i]
        p[i] = 3 * p[j] * p[k] - p[i]
        p[i] = 3 * p[j] * p[k] - p[i]
        assert tuple(p) == t.entries()


class TestTree:
    def test_depth_zero(self):
        assert enumerate_tree(0) == [(MarkovTriple(1, 1, 1), "")]

    def test_negative_depth_rejected(self):
        with pytest.raises(PreconditionError):
            enumerate_tree(-1)

    def test_depth_four_count_and_leaves(self):
        rows = enumerate_tree(4)
        assert len(rows) == 9
        triples = {t.entries() for t, _ in rows}
        for leaf in [(5, 29, 433), (2, 29, 169), (5, 13, 194), (1, 13, 34)]:
            assert leaf in triples

    def test_all_rows_solve_the_equation(self):
        for t in TREE:
            assert is_markov(*t.entries())

    def test_words_replay(self):
        for t, word in enumerate_tree(DEPTH):
            assert replay(word) == t

    def test_distinct(self):
        assert len(set(TREE)) == len(TREE)

    @pytest.mark.parametrize("depth", range(13))
    def test_stem_rule_matches_the_seen_set_walk(self, depth):
        # only the stem's two mutations agree, so no other child repeats a triple
        rows = enumerate_tree(depth)
        assert rows == enumerate_with_seen_set(depth)
        assert len({t for t, _ in rows}) == len(rows) == (2 ** (depth - 1) + 1 if depth else 1)


class TestDeriveQ:
    def test_root(self):
        q = derive_q(MarkovTriple(1, 1, 1))
        assert q.entries() == (0, 3, 3)
        assert (q.bezout_x, q.bezout_y) == (1, 0)

    def test_one_two_five(self):
        assert derive_q(MarkovTriple(1, 2, 5)).entries() == (0, 15, 6)

    def test_two_five_twentynine(self):
        assert derive_q(MarkovTriple(2, 5, 29)).entries() == (-87, 261, -1254)

    def test_bezout_identity_sweep(self):
        for t in TREE:
            q = derive_q(t)
            assert t.p1 * q.bezout_x + t.p2 * q.bezout_y == 1
            assert 0 <= q.bezout_x and q.bezout_y <= 0

    def test_cross_identity_sweep(self):
        # p1*q2 + p2*q1 = 3*p3 for the derived coefficients
        for t in TREE:
            q = derive_q(t)
            assert t.p1 * q.q2 + t.p2 * q.q1 == 3 * t.p3


class TestVerifyQ:
    def test_sweep_passes(self):
        for t in TREE:
            rep = verify_q(t, derive_q(t))
            assert rep.cond1 and rep.cond2 and rep.cond3_some and rep.cond4
            assert rep.passed

    def test_perturbed_triple_fails(self):
        t = MarkovTriple(1, 1, 1)
        bad = QTriple(1, 3, 3, 1, 0)
        rep = verify_q(t, bad)
        assert not rep.passed

    def test_cond4_catches_positive_q1(self):
        t = MarkovTriple(2, 5, 29)
        q = derive_q(t)
        flipped = QTriple(-q.q1, q.q2, q.q3, q.bezout_x, q.bezout_y)
        assert not verify_q(t, flipped).cond4

    def test_cond3_matches_the_inverse_reading(self):
        # the derived q-triples and every q-triple in a box around them, so
        # that each reading comes out False as well as True
        outcomes = set()
        for t in TREE[:12]:
            q = derive_q(t)
            for d1 in range(-3, 4):
                for d2 in range(-3, 4):
                    for d3 in range(-3, 4):
                        near = QTriple(q.q1 + d1, q.q2 + d2, q.q3 + d3, 0, 0)
                        rep = verify_q(t, near)
                        got = (rep.cond3_some, rep.cond3_all)
                        assert got == cond3_by_inverses(t, near), (t, near)
                        outcomes.add(got)
        assert outcomes == {(True, True), (True, False), (False, False)}

    @given(
        st.sampled_from([t for t, _ in enumerate_tree(10)]),
        st.tuples(*[st.integers(-(10**60), 10**60)] * 3),
    )
    @settings(max_examples=200, deadline=None)
    def test_cond3_on_arbitrary_q_triples(self, t, qs):
        q = QTriple(*qs, 0, 0)
        rep = verify_q(t, q)
        assert (rep.cond3_some, rep.cond3_all) == cond3_by_inverses(t, q)

    def test_strict_reading_of_cond3_fails_somewhere(self):
        # the all-orderings reading of the congruence is not satisfiable
        # everywhere; the any-ordering reading is what the sweep uses
        assert not all(verify_q(t, derive_q(t)).cond3_all for t in TREE)


class TestMutationPath:
    def test_root_is_empty(self):
        assert mutation_path(MarkovTriple(1, 1, 1)) == ""

    def test_example_word(self):
        assert mutation_path(MarkovTriple(2, 5, 29)) == "LLL"

    def test_round_trip(self):
        for t, word in enumerate_tree(DEPTH):
            assert mutation_path(t) == word

    @settings(max_examples=30)
    @given(st.text(alphabet="LR", max_size=7))
    def test_replay_then_descend(self, word):
        t = replay(word)
        assert replay(mutation_path(t)) == t

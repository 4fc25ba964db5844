"""Closed-form oracles and the differential verifier."""

import gc
from fractions import Fraction

import pytest

from topoidx import generate_family, oracles
from topoidx.errors import ParamsOutOfStatedRange, UnsupportedEvaluation
from topoidx.exact import ExpPoly
from topoidx.functionals import VERTEX_TABLES, vertex_table
from topoidx.graph import Graph
from topoidx.oracles import (
    OracleEntry,
    _family_points,
    baseline_from_results,
    compare_to_baseline,
    _ENTRIES,
    load_baseline,
    oracle_eval,
    oracle_ids,
    run_verification,
)


class TestOracleEval:
    def test_wheel_value(self):
        assert oracle_eval("RL1/wheel", n=4) == 256

    def test_regular_zero(self):
        assert oracle_eval("RL4/regular", n=8, r=3) == 0

    def test_wheel_polynomial(self):
        assert oracle_eval("RL2exp/wheel", n=4) == ExpPoly({13: 4, 9: 4})

    def test_coinciding_exponents_merge(self):
        # At n=3 both displayed terms are x^27; coefficients must add.
        assert oracle_eval("RL1exp/wheel", n=3) == ExpPoly({27: 6})

    def test_out_of_stated_range(self):
        with pytest.raises(ParamsOutOfStatedRange):
            oracle_eval("RL1/path", n=2)
        with pytest.raises(ParamsOutOfStatedRange):
            oracle_eval("DRL1/kmn", m=1, n=3)
        with pytest.raises(ParamsOutOfStatedRange):
            oracle_eval("nope/nowhere")

    def test_every_entry_evaluates_at_default_point(self):
        defaults = {"n": 4, "r": 2, "m": 3, "p": 2, "q": 2}
        for oracle_id, entry in _ENTRIES.items():
            names, _ = next(_family_points(entry.family, 4, 4))
            params = {name: defaults[name] for name in names}
            if entry.family == "windmill":
                params = {"n": 4, "m": 3}
            if entry.family == "kmn":
                params = {"m": 2, "n": 4}
            value = entry.eval(**params)
            expected_type = ExpPoly if entry.index.endswith("exp") else Fraction
            assert type(value) is expected_type, oracle_id

    @pytest.mark.parametrize("text", ["3n^2|n-3", "n(n+1))", "3k^2", "-n", "n**2", "n<3",
                                      "", "n.5", "[n]", "abs(n)", "'n'", "|n, 3|",
                                      "2\U0001d45b"],
                             ids=["unbalanced-bar", "trailing-token", "unknown-letter",
                                  "unary-minus", "python-power", "comparison", "empty",
                                  "decimal-point", "list", "python-call", "string",
                                  "two-argument-bar", "non-ascii-letter"])
    def test_malformed_display_names_the_oracle(self, text):
        entry = OracleEntry("RL4/wheel", "wheel", "RL4", text, "n >= 3")
        with pytest.raises(ValueError, match="RL4/wheel"):
            entry.eval(n=4)

    @pytest.mark.parametrize("text, value", [
        ("|n| |n|", 16),
        ("|n - |m||", 1),
        ("(n)(m)", 12),
        ("2 3", 6),
        ("n^(0-1)", Fraction(1, 4)),
        ("|m^n - n^m| m^(n+1) n^(m+1)", 1057536),
        ("2^3^2", 512),  # ^ groups right to left
    ])
    def test_accepted_display_forms(self, text, value):
        entry = OracleEntry("RL4/kmn", "kmn", "RL4", text, "1 <= m <= n, n >= 2")
        assert entry.eval(m=3, n=4) == value

    def test_non_integral_polynomial_coefficient_is_an_error(self):
        # Truncating 3/2 to 1 would compare a polynomial nobody published.
        entry = OracleEntry("RL1exp/wheel", "wheel", "RL1exp", "(n/2) x^3", "n >= 3")
        with pytest.raises(UnsupportedEvaluation, match="3/2"):
            entry.eval(n=3)
        assert entry.eval(n=4) == ExpPoly({3: 2})


class TestVerification:
    def test_cycle_rl1_confirmed(self):
        results = run_verification(ids=["RL1/cycle"], lo=3, hi=10)
        assert len(results) == 8
        assert all(r.verdict == "CONFIRMED" for r in results)

    def test_nrl1_cycle_discrepancy_values(self):
        results = {dict(r.params)["n"]: r
                   for r in run_verification(ids=["NRL1/cycle"], lo=3, hi=10)}
        assert results[4].verdict == "DISCREPANT"
        assert results[4].oracle_value == "432/1"
        assert results[4].direct_value == "192/1"
        # Coincidental equality at n=3 only.
        assert results[3].verdict == "CONFIRMED"
        assert all(r.verdict == "DISCREPANT" for n, r in results.items() if n != 3)

    def test_rlkv1_cycle_discrepancy(self):
        (r,) = run_verification(ids=["RLKV1/cycle"], lo=3, hi=3)
        assert r.verdict == "DISCREPANT"
        assert (r.oracle_value, r.direct_value) == ("288/1", "144/1")

    def test_exponential_compared_term_by_term(self):
        results = run_verification(ids=["RL1exp/sunflower"], lo=3, hi=8)
        assert all(r.verdict == "CONFIRMED" for r in results)

    def test_domination_points_past_bound_skipped(self):
        # star(24) has 25 vertices; every star oracle is a domination index.
        assert run_verification(families=["star"], lo=24, hi=24) == []

    def test_only_the_refused_index_is_skipped(self):
        # complete(25) is past the domination solver's bound but not RL1's reach.
        results = run_verification(ids=["DRL1/complete", "RL1/complete"], lo=25, hi=25)
        assert [(r.oracle_id, r.params) for r in results] == [("RL1/complete", (("n", 25),))]
        assert results[0].verdict == "CONFIRMED"

    @pytest.mark.parametrize("family", ["complete", "cycle", "k1n", "knn", "path",
                                        "star", "sunflower", "wheel"])
    def test_one_parameter_grid(self, family):
        call = {"knn": lambda n: ("complete_bipartite", n, n),
                "k1n": lambda n: ("star", n)}.get(family, lambda n: (family, n))
        assert list(_family_points(family, 1, 5)) == [({"n": n}, call(n)) for n in (2, 3, 4, 5)]
        assert list(_family_points(family, 7, 9)) == [({"n": n}, call(n)) for n in (7, 8, 9)]

    def test_one_build_per_distinct_graph(self, monkeypatch):
        # K_{1,n} is star(n): the k1n and star oracles share its build.
        built = []

        def build(*spec):
            built.append(generate_family(*spec))
            return built[-1]

        monkeypatch.setattr(oracles, "generate_family", build)
        results = run_verification(families=["k1n", "star"], lo=3, hi=6)
        assert {r.oracle_id.split("/")[1] for r in results} == {"k1n", "star"}
        assert len(built) == len(set(built)) == 4
        assert set(built) == {generate_family("star", n) for n in range(3, 7)}

    def test_graphs_dropped_one_by_one(self, monkeypatch):
        # Each graph is built once and dropped after its last point; the
        # table cache keeps the tables of at most one graph.  Other tests'
        # graphs may still be alive, so count the graphs above those.
        def live_graphs():
            return sum(type(o) is Graph for o in gc.get_objects())

        specs, alive = [], []

        def build(*spec):
            specs.append(spec)
            alive.append(live_graphs() - before)
            return generate_family(*spec)

        monkeypatch.setattr(oracles, "generate_family", build)
        vertex_table.cache_clear()
        gc.collect()
        before = live_graphs()
        results = run_verification(families=["wheel", "cycle", "regular"], lo=3, hi=30)
        assert {r.oracle_id.split("/")[1] for r in results} == {"wheel", "cycle", "regular"}
        assert len(specs) == len(set(specs)) > 100
        assert max(alive) <= len(VERTEX_TABLES) + 1

    def test_two_parameter_grids(self):
        assert list(_family_points("regular", 5, 6)) == [
            ({"n": n, "r": r}, ("regular", n, r)) for n in (5, 6) for r in (2, 3, 4)]
        # kmn caps n at 6.
        assert list(_family_points("kmn", 5, 20)) == [
            ({"m": m, "n": n}, ("complete_bipartite", m, n))
            for n in (5, 6) for m in range(1, n + 1)]
        assert list(_family_points("kmn", 7, 20)) == []
        # double_star and windmill ignore the lower bound and cap the upper.
        assert list(_family_points("double_star", 9, 9)) == [
            ({"p": p, "q": q}, ("double_star", p, q)) for p in range(1, 5) for q in range(p, 5)]
        assert list(_family_points("double_star", 3, 3)) == [
            ({"p": p, "q": q}, ("double_star", p, q)) for p in range(1, 4) for q in range(p, 4)]
        assert list(_family_points("windmill", 5, 5)) == [
            ({"n": n, "m": m}, ("french_windmill", n, m)) for n in (3, 4, 5) for m in (3, 4)]
        assert list(_family_points("windmill", 3, 20)) == \
            list(_family_points("windmill", 5, 5))

    def test_results_sorted_and_deterministic(self):
        first = run_verification(families=["wheel"], lo=3, hi=6)
        second = run_verification(families=["wheel"], lo=3, hi=6)
        assert first == second
        assert first == sorted(first, key=lambda r: (r.oracle_id, r.params))


class TestBaseline:
    def test_shipped_baseline_matches_current_behavior(self):
        # Verdict stability: the default grid must reproduce the shipped
        # baseline exactly (no flapping verdicts, no unknown points).
        results = run_verification(lo=3, hi=10)
        deviations, unknown, stale = compare_to_baseline(results, load_baseline())
        assert deviations == []
        assert unknown == []
        assert stale == []

    def test_baseline_regenerates_identically(self):
        # The shipped baseline is written by `verify --range 2..10 --update-baseline`.
        results = run_verification(lo=2, hi=10)
        assert baseline_from_results(results) == load_baseline()

    def test_known_confirmations_and_discrepancies(self):
        baseline = load_baseline()
        assert baseline["RL1/wheel"]["default"] == "CONFIRMED"
        assert baseline["RL1exp/wheel"]["default"] == "CONFIRMED"
        assert baseline["RLKV1/wheel"]["default"] == "CONFIRMED"
        assert baseline["NRL1/cycle"]["default"] == "DISCREPANT"
        assert baseline["NRL1/cycle"]["exceptions"] == {"n=3": "CONFIRMED"}
        assert baseline["DRL1/star"]["default"] == "DISCREPANT"
        assert baseline["DRL1/windmill"]["default"] == "DISCREPANT"

    def test_every_oracle_covered(self):
        assert set(load_baseline()) == set(oracle_ids())

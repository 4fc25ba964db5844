"""Index registry and evaluation engine."""

import math
from fractions import Fraction as F

import pytest

from topoidx.errors import InverseUndefined, UnknownIndexName, UnsupportedEvaluation
from topoidx.exact import ExpPoly
from topoidx.functionals import vertex_table
from topoidx.graph import Graph, generate_family
from topoidx.indices import (
    Descriptor,
    all_index_names,
    describe,
    evaluate,
    lookup,
    registry_names,
)

from reference import edge_endpoint_values


class TestRegistry:
    def test_total_count(self):
        names = registry_names()
        assert len(names) == 448
        assert len(set(names)) == 448
        assert len(all_index_names()) == 462

    def test_names_round_trip(self):
        for name in registry_names():
            resolved, a = lookup(name)
            assert isinstance(resolved, Descriptor)
            assert resolved.name == name
            assert a is None

    def test_catalog_examples(self):
        assert lookup("HBRL_2")[0] == Descriptor("banhatti", 2, "hyper", "sum", "value")
        assert lookup("MIRRL_1")[0] == Descriptor("revan", 1, "inverse", "product", "value")
        assert lookup("rl1")[0] == Descriptor("plain", 1, "identity", "sum", "value")
        assert lookup("MHRLKV2exp")[0] == Descriptor("kv", 2, "hyper", "product", "exponential")

    def test_general_parameter(self):
        resolved, a = lookup("GRL1(a=3)")
        assert resolved.transform == "general"
        assert a == 3
        assert lookup("GTRL2(a=-2/3)")[1] == F(-2, 3)

    def test_special_names_and_aliases(self):
        assert lookup("RL5")[0] == "RL5"
        assert lookup("cso")[0] == "RL10"
        assert lookup("HRL")[0] == "HeronianRL"
        assert lookup("HRL1")[0] == Descriptor("plain", 1, "hyper", "sum", "value")

    def test_every_name_resolves_to_itself(self):
        for name in registry_names():
            for spelling in (name, name.lower(), "_".join(name)):
                resolved, a = lookup(spelling)
                assert resolved.name == name and a is None, spelling

    def test_every_alias_resolves(self):
        aliases = {
            "C1": "RL7", "C2": "RL8", "FC": "RL9", "CSO": "RL10", "CN": "RL11", "AC": "RL12",
            "FRL": "RL15", "SCL": "RL16", "NCL": "RL17",
            "HRL": "HeronianRL", "HERONIAN": "HeronianRL", "heronian_rl": "HeronianRL",
        }
        for alias, name in aliases.items():
            assert lookup(alias) == (name, None), alias
            assert lookup(alias.lower()) == (name, None), alias

    @pytest.mark.parametrize("name, message", [
        ("RLX9", "unknown index name 'RLX9' (did you mean 'RL9'?)"),
        ("HERONIANX", "unknown index name 'HERONIANX' (did you mean 'HERONIANRL'?)"),
        ("mirl5", "unknown index name 'mirl5' (did you mean 'MIRL4'?)"),
        ("C3", "unknown index name 'C3'"),
    ])
    def test_unknown_name_message(self, name, message):
        with pytest.raises(UnknownIndexName) as err:
            lookup(name)
        assert str(err.value) == message

    def test_unknown_name(self):
        with pytest.raises(UnknownIndexName):
            lookup("bogus")

    def test_unknown_name_suggests(self):
        with pytest.raises(UnknownIndexName) as err:
            lookup("RL1ex")
        assert err.value.suggestion == "RL1EXP"

    def test_describe(self):
        assert describe("MRL2") == ("MRL2", "plain", "2", "identity", "product", "value")
        assert describe("RL5")[0] == "RL5"


class TestCatalogValues:
    def test_plain_values(self):
        assert evaluate(generate_family("cycle", 3), "RL1") == 36
        assert evaluate(generate_family("path", 3), "RL1") == 14
        assert evaluate(generate_family("regular", 6, 3), "RL4") == 0
        assert evaluate(generate_family("wheel", 3), "RL1") == 162
        assert evaluate(generate_family("complete", 4), "RL1") == 162

    def test_other_sources(self):
        assert evaluate(generate_family("complete", 4), "BRL1") == 288
        assert evaluate(generate_family("wheel", 4), "RLKV1") == 58644
        assert evaluate(generate_family("wheel", 4), "NRL1") == 2656

    def test_exponential_form(self):
        poly = evaluate(generate_family("wheel", 4), "RL1exp")
        assert poly == ExpPoly({37: 4, 27: 4})

    def test_multiplicative(self):
        assert evaluate(generate_family("cycle", 3), "MRL1") == 12**3

    def test_engine_matches_direct_fold(self):
        # Independent re-derivation of RL2 on the 5-wheel from raw tables.
        g = generate_family("wheel", 5)
        expected = sum(
            a * a + b * b - a * b for _, _, a, b in edge_endpoint_values(g, "plain")
        )
        assert evaluate(g, "RL2") == expected

    def test_orientation_max_first(self):
        # Degrees (3, 2) on every edge of K_{2,3}: (3-2) + 6 per edge.
        g = generate_family("complete_bipartite", 2, 3)
        assert evaluate(g, "RL3") == 42

    def test_single_edge_product_equals_kernel(self):
        g = Graph(2, [(0, 1)])
        assert evaluate(g, "MRL1") == 3
        assert evaluate(g, "MRL1exp") == ExpPoly.monomial(3)

    def test_inverse_of_zero_kernel(self):
        with pytest.raises(InverseUndefined):
            evaluate(generate_family("cycle", 4), "IRL4")
        with pytest.raises(InverseUndefined):
            evaluate(generate_family("cycle", 4), "GRL4(a=-1)")

    def test_general_requires_parameter(self):
        with pytest.raises(UnsupportedEvaluation, match="power parameter"):
            evaluate(generate_family("cycle", 4), "GRL1")

    def test_general_transform(self):
        g = generate_family("cycle", 4)
        assert evaluate(g, "GRL1", a=2) == evaluate(g, "HRL1")
        assert evaluate(g, "GRL1", a=-1) == evaluate(g, "IRL1")
        assert evaluate(g, "GRL1(a=3)") == 4 * 12**3

    def test_general_fractional_is_float(self):
        g = generate_family("cycle", 4)
        value = evaluate(g, "GRL1", a=F(1, 2))
        assert isinstance(value, float)
        assert value == pytest.approx(4 * math.sqrt(12), rel=1e-9)
        with pytest.raises(UnsupportedEvaluation):
            evaluate(g, "GRL1exp", a=F(1, 2))

    def test_fractional_product_overflows_to_inf(self):
        # 1770 edges with t = sqrt(3 * 59^2): t**1770 would raise OverflowError.
        g = generate_family("complete", 60)
        assert evaluate(g, "MGRL1", a=F(1, 2)) == math.inf
        assert evaluate(g, "MGRL1", a=F(-1, 2)) == 0.0

    def test_zagreb_decomposition_spot(self):
        g = generate_family("wheel", 5)
        for source in ("plain", "banhatti", "revan", "temperature", "kv", "nbd", "domination"):
            v1 = evaluate(g, Descriptor(source, 1, "identity", "sum", "value"))
            v2 = evaluate(g, Descriptor(source, 2, "identity", "sum", "value"))
            sum_ab = sum(a * b for _, _, a, b in edge_endpoint_values(g, source))
            sum_sq = sum(a * a + b * b for _, _, a, b in edge_endpoint_values(g, source))
            assert v1 - v2 == 2 * sum_ab
            assert v1 + v2 == 2 * sum_sq

    def test_exponential_value_duality_spot(self):
        g = generate_family("wheel", 4)
        poly = evaluate(g, "RL1exp")
        assert poly.derivative_at_one() == evaluate(g, "RL1")
        assert poly.evaluate(1) == g.edge_count


class TestSpecials:
    def test_rl5_min_base(self):
        assert evaluate(generate_family("path", 3), "RL5") == 2

    def test_rl6(self):
        assert evaluate(generate_family("path", 3), "RL6") == 6

    @pytest.mark.parametrize("n", range(3, 7))
    def test_rl7_complete(self, n):
        assert evaluate(generate_family("complete", n), "RL7") == n * (n - 1)

    def test_rl8_complete(self):
        assert evaluate(generate_family("complete", 4), "RL8") == 6

    def test_rl9_rl12_path3(self):
        g = generate_family("path", 3)
        # closeness (2/3, 1, 2/3)
        assert evaluate(g, "RL9") == 2 * (F(4, 9) + 1)
        assert evaluate(g, "RL12") == 2 * F(1, 3)

    def test_rl10_float_on_complete(self):
        value = evaluate(generate_family("complete", 4), "RL10")
        assert isinstance(value, float)
        assert value == pytest.approx(6 * math.sqrt(2), rel=1e-9)

    def test_cl_indices_zero_on_regular(self):
        g = generate_family("regular", 8, 3)
        for name in ("RL13", "RL14", "RL15", "RL16", "RL17"):
            value = evaluate(g, name)
            assert value == 0 and not isinstance(value, float)

    def test_rl13_path4(self):
        assert evaluate(generate_family("path", 4), "RL13") == 6

    def test_heronian_cycle_exact(self):
        for n in range(3, 7):
            value = evaluate(generate_family("cycle", n), "HeronianRL")
            assert value == 6 * n and not isinstance(value, float)

    def test_heronian_path_is_float(self):
        value = evaluate(generate_family("path", 3), "HeronianRL")
        assert isinstance(value, float)
        assert value == pytest.approx(2 * (3 + math.sqrt(2)), rel=1e-9)

    def test_closeness_specials_share_one_table(self):
        vertex_table.cache_clear()
        g = generate_family("wheel", 5)
        for name in ("RL7", "RL8", "RL9", "RL10", "RL11", "RL12"):
            evaluate(g, name)
        assert vertex_table.cache_info().misses == 1

    def test_closeness_specials_need_connectivity(self):
        from topoidx.errors import DisconnectedGraph

        g = Graph(3, [(0, 1)])
        for name in ("RL7", "RL10", "RL12"):
            with pytest.raises(DisconnectedGraph):
                evaluate(g, name)

"""Stabilizer and Goeritz group presentations."""

from __future__ import annotations

import json
from itertools import count

import pytest
from hypothesis import given
from hypothesis import strategies as st

from goeritz.lens import LensSpace, S3
from goeritz.presentations import (
    AbelianGroup,
    AmalgamatedProduct,
    Commutator,
    ConnectedCaseStub,
    Cyclic,
    DirectSum,
    FreeProductOfParts,
    GroupPresentation,
    HNN,
    Power,
    StabilizerKind,
    abelianization,
    goeritz_presentation,
    heegaard_space_report,
    stabilizer_presentation,
)


class TestFlatten:
    def test_cyclic(self):
        assert Cyclic("alpha", 2).flatten() == (("alpha",), (Power("alpha", 2),))
        assert Cyclic("beta").flatten() == (("beta",), ())

    def test_direct_sum_cross_commutators(self):
        node = DirectSum((Cyclic("a", 2), Cyclic("b"), Cyclic("c", 3)))
        gens, rels = node.flatten()
        assert gens == ("a", "b", "c")
        assert rels == (
            Power("a", 2),
            Power("c", 3),
            Commutator("a", "b"),
            Commutator("a", "c"),
            Commutator("b", "c"),
        )

    def test_free_product_no_commutators(self):
        gens, rels = FreeProductOfParts((Cyclic("a", 2), Cyclic("b"))).flatten()
        assert gens == ("a", "b")
        assert rels == (Power("a", 2),)

    def test_duplicate_generator_rejected(self):
        with pytest.raises(ValueError):
            FreeProductOfParts((Cyclic("a"), Cyclic("a", 2))).flatten()

    def test_amalgam_dedupes_shared_factor(self):
        node = AmalgamatedProduct(
            DirectSum((Cyclic("a", 2), Cyclic("b", 2))),
            DirectSum((Cyclic("a", 2), Cyclic("c", 2))),
            over=("a",),
        )
        gens, rels = node.flatten()
        assert gens == ("a", "b", "c")
        assert rels.count(Power("a", 2)) == 1
        assert Commutator("a", "c") in rels

    def test_amalgam_checks_over(self):
        with pytest.raises(ValueError):
            AmalgamatedProduct(Cyclic("a", 2), Cyclic("b", 2), over=("a",)).flatten()

    def test_hnn(self):
        gens, rels = HNN(Cyclic("a", 2), over=("a",), stable="t").flatten()
        assert gens == ("a", "t")
        assert rels == (Power("a", 2), Commutator("a", "t"))
        with pytest.raises(ValueError):
            HNN(Cyclic("a", 2), over=("a",), stable="a").flatten()

    @pytest.mark.parametrize(
        "pres",
        [stabilizer_presentation(kind) for kind in StabilizerKind]
        + [goeritz_presentation(LensSpace(12, 5)), goeritz_presentation(LensSpace(23, 7))],
        ids=[kind.value for kind in StabilizerKind] + ["amalgam", "hnn"],
    )
    def test_flat_form_is_the_flattened_tree(self, pres):
        assert (pres.generators, pres.relators) == pres.structure.flatten()

    @pytest.mark.parametrize(
        "structure",
        [
            FreeProductOfParts((Cyclic("a"), Cyclic("a", 2))),
            HNN(Cyclic("a", 2), over=("a",), stable="a"),
        ],
        ids=["duplicate-free-factor", "clashing-stable-letter"],
    )
    def test_unflattenable_tree_rejected_at_construction(self, structure):
        with pytest.raises(ValueError):
            GroupPresentation(structure)


class TestStabilizers:
    def test_vertex(self):
        pres = stabilizer_presentation(StabilizerKind.Vertex)
        assert pres.generators == ("alpha", "beta", "gamma")
        assert pres.relators == (
            Power("alpha", 2),
            Power("gamma", 2),
            Commutator("alpha", "beta"),
            Commutator("alpha", "gamma"),
        )

    def test_pairs(self):
        ordered = stabilizer_presentation(StabilizerKind.OrderedPair)
        assert ordered.generators == ("alpha",)
        assert ordered.relators == (Power("alpha", 2),)
        rigid = stabilizer_presentation(StabilizerKind.UnorderedPairRigid)
        assert (rigid.generators, rigid.relators) == (ordered.generators, ordered.relators)
        swap = stabilizer_presentation(StabilizerKind.UnorderedPairSwappable)
        assert swap.generators == ("alpha", "sigma")
        assert Commutator("alpha", "sigma") in swap.relators

    def test_tree_of_trees_vertices(self):
        one = stabilizer_presentation(StabilizerKind.TTVertex_qSq1)
        assert one.generators == ("alpha", "beta", "gamma", "sigma1", "sigma2")
        assert [r for r in one.relators if isinstance(r, Power)] == [
            Power("alpha", 2),
            Power("gamma", 2),
            Power("sigma1", 2),
            Power("sigma2", 2),
        ]
        other = stabilizer_presentation(StabilizerKind.TTVertex_qSqNot1)
        assert other.generators == (
            "alpha",
            "beta1",
            "beta2",
            "gamma1",
            "gamma2",
            "sigma1",
            "sigma2",
        )

    def test_tree_of_trees_edges(self):
        union = stabilizer_presentation(StabilizerKind.TTEdgeUnion_qSq1)
        assert union.generators == ("alpha", "tau")
        assert union.relators == (
            Power("alpha", 2),
            Power("tau", 2),
            Commutator("alpha", "tau"),
        )
        edge = stabilizer_presentation(StabilizerKind.TTEdge)
        assert edge.generators == ("alpha",)

    def test_accepts_plain_strings(self):
        assert stabilizer_presentation("Vertex").generators == ("alpha", "beta", "gamma")


class TestGoeritzPresentation:
    def test_amalgam_case(self):
        pres = goeritz_presentation(LensSpace(12, 5))
        assert isinstance(pres, GroupPresentation)
        assert pres.generators == ("alpha", "beta", "gamma", "sigma1", "sigma2", "tau")
        torsion = [r for r in pres.relators if isinstance(r, Power)]
        assert torsion == [
            Power("alpha", 2),
            Power("gamma", 2),
            Power("sigma1", 2),
            Power("sigma2", 2),
            Power("tau", 2),
        ]
        commutators = [r for r in pres.relators if isinstance(r, Commutator)]
        assert set(commutators) == {
            Commutator("alpha", g) for g in pres.generators if g != "alpha"
        }
        assert isinstance(pres.structure, AmalgamatedProduct)

    def test_hnn_case(self):
        pres = goeritz_presentation(LensSpace(23, 7))
        assert isinstance(pres, GroupPresentation)
        assert len(pres.generators) == 8
        assert pres.generators[-1] == "upsilon"
        torsion = [r for r in pres.relators if isinstance(r, Power)]
        assert len(torsion) == 5
        assert pres.relators[-1] == Commutator("alpha", "upsilon")
        assert not any(
            isinstance(r, Power) and r.gen == "upsilon" for r in pres.relators
        )
        assert isinstance(pres.structure, HNN)

    def test_connected_case(self):
        stub = goeritz_presentation(LensSpace(7, 3))
        assert isinstance(stub, ConnectedCaseStub)
        assert stub.space == LensSpace(7, 3)

    def test_case_split_matches_q_squared(self):
        for p, q in [(12, 5), (24, 7), (21, 8), (17, 5), (29, 12), (23, 7)]:
            result = goeritz_presentation(LensSpace(p, q))
            assert isinstance(result, GroupPresentation)
            if q * q % p == 1:
                assert len(result.generators) == 6
            else:
                assert len(result.generators) == 8

    def test_text_and_gap_render(self):
        pres = goeritz_presentation(LensSpace(12, 5))
        text = pres.text()
        assert text.splitlines()[0] == (
            "generators: alpha, beta, gamma, sigma1, sigma2, tau"
        )
        assert "tau^2" in text.splitlines()
        assert "[alpha,tau]" in text.splitlines()
        gap = pres.gap()
        assert gap.startswith('F := FreeGroup( "alpha"')
        assert "alpha*tau*alpha^-1*tau^-1" in gap
        assert gap.endswith("];\n")

    def test_json_round_trips_through_serializer(self):
        pres = goeritz_presentation(LensSpace(23, 7))
        blob = json.dumps(pres.to_json())
        data = json.loads(blob)
        assert data["structure"]["kind"] == "hnn"
        assert data["structure"]["stable"] == "upsilon"
        assert data["generators"][0] == "alpha"


def _cyclic_json(gen, order=None):
    return {"kind": "cyclic", "gen": gen, "order": order}


class TestPinnedRenderings:
    """Whole renderings of the two Goeritz cases, so that every node kind's
    JSON and the GAP text are pinned, not only a few keys."""

    def test_amalgam_json(self):
        assert goeritz_presentation(LensSpace(12, 5)).to_json() == {
            "generators": ["alpha", "beta", "gamma", "sigma1", "sigma2", "tau"],
            "relators": [
                "alpha^2",
                "gamma^2",
                "sigma1^2",
                "sigma2^2",
                "[alpha,beta]",
                "[alpha,gamma]",
                "[alpha,sigma1]",
                "[alpha,sigma2]",
                "tau^2",
                "[alpha,tau]",
            ],
            "structure": {
                "kind": "amalgam",
                "left": {
                    "kind": "directSum",
                    "parts": [
                        _cyclic_json("alpha", 2),
                        {
                            "kind": "freeProduct",
                            "parts": [
                                _cyclic_json("beta"),
                                _cyclic_json("gamma", 2),
                                _cyclic_json("sigma1", 2),
                                _cyclic_json("sigma2", 2),
                            ],
                        },
                    ],
                },
                "right": {
                    "kind": "directSum",
                    "parts": [_cyclic_json("alpha", 2), _cyclic_json("tau", 2)],
                },
                "over": ["alpha"],
            },
        }

    def test_hnn_json(self):
        assert goeritz_presentation(LensSpace(23, 7)).to_json() == {
            "generators": [
                "alpha",
                "beta1",
                "beta2",
                "gamma1",
                "gamma2",
                "sigma1",
                "sigma2",
                "upsilon",
            ],
            "relators": [
                "alpha^2",
                "gamma1^2",
                "gamma2^2",
                "sigma1^2",
                "sigma2^2",
                "[alpha,beta1]",
                "[alpha,beta2]",
                "[alpha,gamma1]",
                "[alpha,gamma2]",
                "[alpha,sigma1]",
                "[alpha,sigma2]",
                "[alpha,upsilon]",
            ],
            "structure": {
                "kind": "hnn",
                "base": {
                    "kind": "directSum",
                    "parts": [
                        _cyclic_json("alpha", 2),
                        {
                            "kind": "freeProduct",
                            "parts": [
                                _cyclic_json("beta1"),
                                _cyclic_json("beta2"),
                                _cyclic_json("gamma1", 2),
                                _cyclic_json("gamma2", 2),
                                _cyclic_json("sigma1", 2),
                                _cyclic_json("sigma2", 2),
                            ],
                        },
                    ],
                },
                "over": ["alpha"],
                "stable": "upsilon",
            },
        }

    def test_hnn_gap(self):
        commutators = ", ".join(
            f"alpha*{g}*alpha^-1*{g}^-1"
            for g in ("beta1", "beta2", "gamma1", "gamma2", "sigma1", "sigma2", "upsilon")
        )
        assert goeritz_presentation(LensSpace(23, 7)).gap() == (
            'F := FreeGroup( "alpha", "beta1", "beta2", "gamma1", "gamma2",'
            ' "sigma1", "sigma2", "upsilon" );;\n'
            "AssignGeneratorVariables( F );;\n"
            "G := F / [ alpha^2, gamma1^2, gamma2^2, sigma1^2, sigma2^2, "
            + commutators
            + " ];\n"
        )


@st.composite
def cyclic_trees(draw, depth=3):
    """Trees of Cyclic factors of order 1..12 or free, under every node kind.
    Each amalgam shares one generator of its left side with a factor of
    its right side, so a generator may carry two powers."""
    names = (f"g{i}" for i in count())
    orders = st.none() | st.integers(min_value=1, max_value=12)

    def node(level):
        kinds = ["cyclic"] + ["sum", "free", "amalgam", "hnn"] * (level > 0)
        kind = draw(st.sampled_from(kinds))
        if kind == "cyclic":
            return Cyclic(next(names), draw(orders))
        if kind in ("sum", "free"):
            parts = tuple(node(level - 1) for _ in range(draw(st.integers(1, 3))))
            return (DirectSum if kind == "sum" else FreeProductOfParts)(parts)
        base = node(level - 1)
        shared = draw(st.sampled_from(base.flatten()[0]))
        if kind == "hnn":
            return HNN(base, over=(shared,), stable=next(names))
        join = draw(st.sampled_from([DirectSum, FreeProductOfParts]))
        right = join((Cyclic(shared, draw(orders)), node(level - 1)))
        return AmalgamatedProduct(base, right, over=(shared,))

    return node(depth)


def primary_decomposition(pres: GroupPresentation) -> AbelianGroup:
    """Reference abelianization.  A generator with power exponents ns
    spans Z/d, d the largest common divisor of ns found by trial, or Z
    when it has none.  Each d splits into prime powers, and the i-th
    largest invariant factor is the product of the i-th largest power of
    every prime."""
    exponents: dict[str, list[int]] = {g: [] for g in pres.generators}
    for rel in pres.relators:
        if isinstance(rel, Power):
            exponents[rel.gen].append(rel.exponent)
    by_prime: dict[int, list[int]] = {}
    for ns in exponents.values():
        if not ns:
            continue
        d = max(k for k in range(1, min(ns) + 1) if all(n % k == 0 for n in ns))
        prime = 2
        while d > 1:
            power = 1
            while d % prime == 0:
                d //= prime
                power *= prime
            if power > 1:
                by_prime.setdefault(prime, []).append(power)
            prime += 1
    ranked = [sorted(powers, reverse=True) for powers in by_prime.values()]
    factors = []
    for i in range(max(map(len, ranked), default=0)):
        factor = 1
        for powers in ranked:
            factor *= powers[i] if i < len(powers) else 1
        factors.append(factor)
    rank = sum(1 for ns in exponents.values() if not ns)
    return AbelianGroup(rank, tuple(reversed(factors)))


class TestAbelianization:
    def test_goeritz_cases(self):
        one = abelianization(goeritz_presentation(LensSpace(12, 5)))
        assert one == AbelianGroup(1, (2, 2, 2, 2, 2))
        assert str(one) == "(Z/2)^5 + Z"
        two = abelianization(goeritz_presentation(LensSpace(23, 7)))
        assert two == AbelianGroup(3, (2, 2, 2, 2, 2))
        assert str(two) == "(Z/2)^5 + Z^3"

    def test_small_groups(self):
        assert abelianization(stabilizer_presentation(StabilizerKind.OrderedPair)) == (
            AbelianGroup(0, (2,))
        )
        vertex = abelianization(stabilizer_presentation(StabilizerKind.Vertex))
        assert vertex == AbelianGroup(1, (2, 2))

    def test_torsion_chain_normalization(self):
        pres = GroupPresentation(DirectSum((Cyclic("a", 2), Cyclic("b", 3), Cyclic("c", 4))))
        group = abelianization(pres)
        assert group.rank == 0
        assert group.torsion == (2, 12)

    def test_two_powers_on_one_generator(self):
        pres = GroupPresentation(
            AmalgamatedProduct(Cyclic("a", 4), Cyclic("a", 6), over=("a",))
        )
        assert pres.relators == (Power("a", 4), Power("a", 6))
        assert abelianization(pres) == AbelianGroup(0, (2,))
        assert str(abelianization(pres)) == "Z/2"

    @given(st.data())
    def test_matches_primary_decomposition(self, data):
        pres = GroupPresentation(data.draw(cyclic_trees()))
        assert abelianization(pres) == primary_decomposition(pres)

    def test_str_forms(self):
        assert str(AbelianGroup(0, ())) == "0"
        assert str(AbelianGroup(2, ())) == "Z^2"
        assert str(AbelianGroup(0, (2,))) == "Z/2"
        assert str(AbelianGroup(1, (2, 4))) == "Z/2 + Z/4 + Z"
        assert str(AbelianGroup(0, (2, 4, 4))) == "Z/2 + (Z/4)^2"


class TestHeegaardReport:
    def test_forest_space(self):
        report = heegaard_space_report(LensSpace(12, 5))
        assert report["kernel"] == "Z+Z"
        assert report["quotient"]["kind"] == "presentation"
        assert report["conclusion"] == "finitely presented"
        assert report["smaleConditional"] is False

    def test_sphere(self):
        report = heegaard_space_report(S3)
        assert report["space"] == "S^3"
        assert report["kernel"] == "Z/2"
        assert report["quotient"]["kind"] == "stub"

    def test_smale_conditional_flag(self):
        report = heegaard_space_report(LensSpace(2, 1))
        assert report["kernel"] == "Z/2+Z/2"
        assert report["smaleConditional"] is True

    def test_connected_lens_space(self):
        report = heegaard_space_report(LensSpace(7, 3))
        assert report["quotient"]["kind"] == "stub"
        assert json.dumps(report)

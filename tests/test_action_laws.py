"""validate_action checks the group laws on generators; the oracle checks every pair."""

from fractions import Fraction
from functools import cache

import pytest

from builders import preset_names
from oracles import action_is_valid
from rootfold import catalog
from rootfold.exact_lattice import TorsionVector
from rootfold.gamma_action import GammaAction, validate_action

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given, settings = hypothesis.given, hypothesis.settings

ACTIONS = [name for name in preset_names() if "<" not in name] + [
    "gl3-pinned", "gl4-so-twist", "sl4-pinned", "pgl4-pinned", "gl2-product-swap",
    # the trivial group has no generators: only the pair (0, 0) checks its twist
    "gl2-trivial-z1", "gl2-trivial-z3", "gl2-trivial-z5"]


@cache
def catalog_action(name):
    return catalog.preset(name).action


def oracle_verdict(a):
    rd = a.base.datum
    return action_is_valid(a.group.table, [d.rows for d in a.diagram],
                           [t.fractions() for t in a.twist], rd.roots, rd.coroots)


@pytest.mark.parametrize("name", ACTIONS)
def test_catalog_actions_pass_both_checks(name):
    a = catalog_action(name)
    assert validate_action(a).ok
    assert oracle_verdict(a)


FRACTIONS = st.fractions(min_value=0, max_value=1, max_denominator=4)


@st.composite
def mutated_actions(draw):
    """A catalog action with diagram parts swapped, twists redrawn or a coboundary added."""
    a = catalog_action(draw(st.sampled_from(ACTIONS)))
    n, rank = a.group.size, a.base.datum.rank
    diagram, twist = list(a.diagram), list(a.twist)
    element = st.integers(0, n - 1)
    for kind in draw(st.lists(st.sampled_from(["swap", "twist", "coboundary"]),
                              min_size=1, max_size=2)):
        if kind == "swap":
            i, j = draw(element), draw(element)
            diagram[i], diagram[j] = diagram[j], diagram[i]
        elif kind == "twist":
            twist[draw(element)] = TorsionVector.from_fractions(
                draw(st.lists(FRACTIONS, min_size=rank, max_size=rank)))
        else:
            # t(x) + s - x.s is a cocycle whenever t is
            s = TorsionVector.from_fractions(
                draw(st.lists(FRACTIONS, min_size=rank, max_size=rank)))
            twist = [t + s + s.apply(a.coaction(x)).scale(-1) for x, t in enumerate(twist)]
    return GammaAction(a.group, a.base, diagram, twist)


@settings(max_examples=150, deadline=None)
@given(mutated_actions())
def test_generator_verdict_equals_the_all_pairs_oracle(a):
    expected = oracle_verdict(a)
    hypothesis.event(f"valid: {expected}")
    assert validate_action(a).ok == expected


def test_mutations_reach_both_verdicts():
    # one pair of non-identity parts swapped in S3 breaks the homomorphism;
    # a twist off the cocycle at one element breaks the cocycle law
    a = catalog_action("d4-full-s3")
    swapped = list(a.diagram)
    swapped[1], swapped[3] = swapped[3], swapped[1]
    broken = GammaAction(a.group, a.base, swapped)
    assert not oracle_verdict(broken) and not validate_action(broken).ok
    rank = a.base.datum.rank
    twist = [TorsionVector.zero(rank)] * a.group.size
    twist[2] = TorsionVector.from_fractions([Fraction(1, 3)] + [0] * (rank - 1))
    off = GammaAction(a.group, a.base, a.diagram, twist)
    assert not oracle_verdict(off) and not validate_action(off).ok

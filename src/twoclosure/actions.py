"""The action of a group on the right cosets of a subgroup.

Cosets are indexed from 0 in order of discovery, with coset 0 the
subgroup itself.  The image of each generator of the group is kept, in
the order of the group's generators, so the direct sum of several coset
actions is the concatenation of their generator images.

A coset Hx is keyed by the least tuple in S^x, where S is the H-orbit of
the tuple of G's base points; S^x holds the base's images under the
members of Hx, so it depends on the coset alone.  Only the identity of
G fixes its base, so an element is fixed by its base image, and two
cosets with the same least tuple share a member and are equal.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetExceededError, GroupError
from .group import PermGroup
from .perm import Permutation, gather

DEGREE_BUDGET = 10 ** 5


@dataclass(frozen=True)
class CosetAction:
    """The right-multiplication action of a group G on cosets of H.

    image is the permutation group induced on the cosets, and
    image_gens[i] is the image of G.generators[i].
    """

    image: PermGroup
    image_gens: list

    @property
    def degree(self):
        return self.image.degree


def coset_action(G, H, degree_budget=DEGREE_BUDGET):
    """The action of G on right cosets of H, found breadth first from H
    by moving each coset's base images with G's generators."""
    for h in H.generators:
        if not G.contains(h):
            raise GroupError("the point subgroup does not lie in the group")
    orbit = [tuple(G.chain.base())]
    seen = set(orbit)
    for t in orbit:
        for h in H.generators:
            u = gather(h.images, t)
            if u not in seen:
                seen.add(u)
                orbit.append(u)
    width = len(orbit[0])
    index = {min(orbit): 0}
    # each coset's tuples, concatenated, until its targets are known
    sets = [[p for t in orbit for p in t]]
    gen_targets = [[] for _ in G.generators]
    for k, images in enumerate(sets):
        for gi, g in enumerate(G.generators):
            moved = gather(g.images, images)
            found = index.setdefault(min(zip(*[iter(moved)] * width)),
                                     len(sets))
            if found == len(sets):
                if found >= degree_budget:
                    raise BudgetExceededError(
                        f"coset count exceeds degree budget {degree_budget}")
                sets.append(moved)
            gen_targets[gi].append(found)
        sets[k] = None
    image_gens = [Permutation(col) for col in gen_targets]
    return CosetAction(PermGroup(len(sets), image_gens, seed=G.seed),
                       image_gens)

"""The action of a group on the right cosets of a subgroup.

Cosets are indexed from 0 in order of discovery, with coset 0 the
subgroup itself.  The image of each generator of the group is kept, in
the order of the group's generators, so the direct sum of several coset
actions is the concatenation of their generator images.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetExceededError, GroupError
from .group import PermGroup, orbits_of
from .perm import Permutation

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
    """The action of G on right cosets of H.

    Cosets are found breadth first from H by right multiplication with
    G's generators.  A product y lands in the coset of a representative
    x exactly when y x^-1 lies in H; only the representatives whose
    inverses send each point into the same H-orbit as y^-1 does can
    qualify, so those are the only ones tested.
    """
    for h in H.generators:
        if not G.contains(h):
            raise GroupError("the point subgroup does not lie in the group")
    n = G.degree
    horbit_id = [0] * n
    for orb in orbits_of(H.generators, n):
        for p in orb:
            horbit_id[p] = orb[0]
    reps = [Permutation.identity(n)]
    inv_images = [tuple(range(n))]
    table = {tuple(horbit_id): [0]}
    gen_targets = [[] for _ in G.generators]
    k = 0
    while k < len(reps):
        rep = reps[k]
        for gi, g in enumerate(G.generators):
            y = rep * g
            y_inv_images = y.inverse().images
            sig = tuple(horbit_id[p] for p in y_inv_images)
            found = None
            for idx in table.get(sig, ()):
                z = Permutation(inv_images[idx][v] for v in y.images)
                if H.contains(z):
                    found = idx
                    break
            if found is None:
                found = len(reps)
                if found > degree_budget:
                    raise BudgetExceededError(
                        f"coset count exceeds degree budget {degree_budget}")
                reps.append(y)
                inv_images.append(y_inv_images)
                table.setdefault(sig, []).append(found)
            gen_targets[gi].append(found)
        k += 1
    image_gens = [Permutation(col) for col in gen_targets]
    return CosetAction(PermGroup(len(reps), image_gens, seed=G.seed),
                       image_gens)

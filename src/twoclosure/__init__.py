"""Exact 2-closure analysis for finite permutation groups."""

from .errors import (BudgetExceededError, DegreeMismatchError, GroupError,
                     MalformedPermutationError, NotTransitiveError,
                     ParseError, SectionObstructionError)
from .perm import Permutation
from .group import PermGroup, StabilizerChain, trivial_group
from .orbital import OrbitalPartition
from .closure import ClosureResult, closure_membership, two_closure
from .actions import CosetAction, coset_action
from .subgroups import SubgroupClassTable, subgroup_classes
from .basesize import BaseSizeReport, exact_base_size, qhat
from .totality import (ActionWitness, FactorizationWitness, TotalityBudget,
                       TotalityVerdict, assemble_action,
                       factorization_disproof, is_totally_two_closed,
                       representation_sweep, transitive_reduction_check,
                       two_transitive_disproof)

__version__ = "0.1.0"

"""Exact-arithmetic algebras of simply-laced root systems, the weight-2
lattice algebra they map onto, and the rank-24 lattice counting layer."""

from .algebra import AlgebraElement, DecompositionReport, StructureAlgebra
from .bplus import BPlusStructure, PhiMap, build_bplus, verify_theorem_3_1
from .niemeier import (F2QuadSpace, NiemeierEntry, Table2Row,
                       brute_force_lagrangians, catalog, catalog_entry,
                       lagrangian_extension_count, lemma_4_2_subalgebra,
                       table1_consistency, table2_consistency)
from .ratio import Q, q_parse, q_str
from .rootalgebra import (RootAlgebra, build_A, build_T,
                          coset_chain_decompose, delta, epsilon,
                          generalized_chain_decompose)
from .rootsys import RootSystem, SimpleType, build, parse_spec
from .verify import VerifyReport, run_target

__version__ = "0.1.0"

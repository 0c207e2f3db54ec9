"""Exact computations on synchronizing shift spaces.

The library turns the theory of synchronizing subshifts into checkable
computations: finite presentations and minimal covers, eventually
periodic points with a dyadic metric and bracket map, synchronizing
words and points, the bracket-iteration periodic point search, local
conjugacy germs, resolving factor maps, and integer-matrix invariant
reports.
"""

from synchrolab.conjugacy import (Germ, GroupoidArrow, compose_lcs_lcu,
                                  construct_germ, groupoid_sample,
                                  heteroclinic_bridge, rectangle_germs,
                                  ruelle_germ, sync_bridge, verify_germ)
from synchrolab.factor import (CoverMap, almost_one_to_one_check, degree_bound,
                               preimage_count)
from synchrolab.invariants import (IntMatrix, SmithForm, adjacency_matrix, bowen_franks,
                                   exact_sequence_report, smith_normal_form)
from synchrolab.oracles import OracleShift
from synchrolab.periodic import (PeriodicSet, enumerate_periodic, find_periodic_by_bracket,
                                 find_return, periodic_counts, periodic_density_check, zeta)
from synchrolab.points import (BiSeq, CylinderS, CylinderU, Dyadic, bracket,
                               decide_relation, distance, point_in_shift, shift_by,
                               splice)
from synchrolab.presentation import Presentation, determinize, trim
from synchrolab.shift import (Alphabet, PresentedShift, build_sft, build_sofic,
                              contains_word, fischer_cover, full_shift, product, word)
from synchrolab.specfile import SpecFile, emit_spec, load_spec, parse_point
from synchrolab.sync import (NonSyncReport, SyncVerdict, classify_point,
                             cylinder_representatives, is_sync_word, nonsync_subshift,
                             rectangle_check, sync_density_check, sync_radius)

__all__ = [name for name in dir() if not name.startswith("_")]

"""Satisfiability witnessing for multi-level syllogistic with singleton,
powerset and finiteness constraints."""

from .certificate import (PumpingCycle, PumpingEvent, WitnessCertificate,
                          check_certificate, is_pumping_event,
                          verify_certificate)
from .errors import (ArityError, CannotWarmUp, CardinalityDeficit,
                     CoverMissesVariable, FormulaSyntaxError, LimitExceeded,
                     MlsspfError, NoClosedCover, NoEvent, NoLocalTrash,
                     NotAWitness, NotTransitive, UnboundVariable)
from .hf import (EMPTY, HfSet, bool_op, from_json, in_pow_star, make_set,
                 order_key, pow_star, pow_star_size, powerset,
                 transitive_closure)
from .lang import (Formula, Literal, SatisfactionReport, eval_literal,
                   evaluate, parse)
from .msrefine import (ImitationWitness, MsOverlay, StartConfiguration,
                       check_segment_imitation, check_upward_premises,
                       check_weak_imitation, paste_segment, validate_overlay)
from .process import (FormativeProcess, grand_event, is_closed, local_trashes,
                      synthesize_process, validate_process)
from .pumping import (certify_witness, closed_cover, extend_certificate,
                      pump_rounds)
from .relations import (BlockBijection, imitates, literal_transfer_report,
                        transfer_assignment)
from .solver import (SAT_MODEL, SAT_WITNESSED, UNKNOWN, UNSAT_WITHIN_BUDGET,
                     DecideResult, SearchBudget, decide)
from .venn import (Assignment, ColoredBoard, canonical_board, color_board,
                   induced_board, transitivize, venn_partition)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

"""Dynamic task assignment with action-evolution Petri nets.

Model assignment problems as timed attributed Petri nets whose
transitions are either agent decisions or environment evolution, expand
marked nets into single-token form, read them out as typed assignment
graphs, and train node-selection policies on the resulting environments.
"""

from .net import (MarkedAEPN, Place, Token, Transition, Arc, Sampler, Guard,
                  Binding, AEPNError, NetValidationError, TagMismatchError,
                  StaleBindingError, LivelockError, TAG_ACTION, TAG_EVOLUTION,
                  build_net, load_net, save_net, net_to_json)
from .expand import ExpansionMap, expand, validate_expanded
from .graph import (AssignmentGraph, DecisionGraph, GraphNode, NodeProvenance,
                    NotExpandedError, A_TRANSITION, E_TRANSITION, compile_decision,
                    map_to_graph, validate_graph,
                    type_registry, edge_type_table, save_graph, load_graph,
                    export_dot)
from .env import (AssignmentEnv, VectorEnv, Observation, StepResult,
                  NotRepresentableError, action_node_ids, greedy_policy, random_policy,
                  vector_observation, vector_action_table, write_trace_csv)
from .problems import build_problem, PROBLEMS
from .ppo import (PPOConfig, RolloutBuffer, TransitionRecord, collect_rollouts,
                  compute_gae, ppo_update, train, evaluate)
from .reproduce import ResultsTable, TableRow, reproduce_table

__version__ = "0.1.0"

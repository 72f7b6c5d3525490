"""Slice-encoded framed tangle diagrams with rewriting and exact
link-invariant evaluation, plus the supporting combinatorics: simplex
category operators, alternating words and free products of monoids, and
set-level Segal completion."""

from .diagram import (
    AmbientDim,
    Diagram,
    DiagramError,
    Event,
    EventKind,
    Slice,
    cap,
    compose,
    cross_neg,
    cross_pos,
    cup,
    degree,
    elementary,
    from_text,
    mirror,
    self_writhe,
    tensor,
    to_text,
    trace_components,
    validate,
    writhe,
)
from .evaluate import (
    RigidDatum,
    bracket,
    bracket_state_sum,
    datum_from_text,
    datum_to_text,
    evaluate,
    jones_normalized,
    kauffman_datum,
    loop_value,
    trivial_datum,
    unit_datum,
    validate_datum,
)
from .rewrite import (
    Equality,
    Move,
    MoveKind,
    PlanarNormalForm,
    applicable_moves,
    apply_move,
    equal,
    expand,
    interchange_normal,
    normalize_planar,
    reduce_diagram,
)
from .rings import Laurent, Matrix

__version__ = "0.1.0"

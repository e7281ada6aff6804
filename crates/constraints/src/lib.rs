//! Medea's expressive placement-constraint language (paper §4).
//!
//! The crate implements the full constraint model:
//!
//! - [`TagExpr`]: conjunctions of container tags (`hb ∧ mem`);
//! - [`Cardinality`] intervals, whose extremes encode affinity
//!   (`[1, ∞]`) and anti-affinity (`[0, 0]`), and anything in between a
//!   generic cardinality constraint;
//! - [`PlacementConstraint`]: the paper's single generic constraint type
//!   `C = {subject_tag, tag_constraint, node_group}` with soft weights and
//!   DNF compound expressions;
//! - [`ConstraintManager`]: the central store of Fig. 6 with the §5.2
//!   operator-overrides-application conflict rule;
//! - violation evaluation ([`check_container`], [`evaluate_constraint`],
//!   [`violation_stats`]) implementing the §4.2 semantics
//!   `cmin ≤ γ_S(c_tag) ≤ cmax` with Eq. 8 violation extents.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod constraint;
mod expr;
mod manager;
mod parse;
mod violation;

pub use constraint::{
    Cardinality, PlacementConstraint, TagConstraint, TagConstraintExpr, HARD_WEIGHT,
};
pub use expr::{Arrival, TagExpr};
pub use manager::{
    validate_constraint, ConstraintError, ConstraintManager, ConstraintSource, StoredConstraint,
};
pub use parse::{parse_constraint, ParseError};
pub use violation::{
    check_container, evaluate_constraint, subject_extents, violation_stats, ConstraintReport,
    ContainerCheck, ViolationStats,
};

//! Test support that more than one test binary uses, kept once.
//!
//! * [`oracle`]: a naive single-threaded evaluator every parallel path's
//!   answer is held against, with its cardinality references;
//! * [`hash_reference`]: the reference the `Materialized` builders are held
//!   against;
//! * [`pinned`]: a hand-written plan costed and cut as given;
//! * [`wrong_joins`]: the join workload whose declared profiles are wrong;
//! * [`policies`]: scripted scheduling policies, the well-behaved ones that
//!   fix `x` and the rogue ones that hold every driver to one typed answer.
//!
//! The workspace names this crate only under `[dev-dependencies]`.

pub mod hash_reference;
pub mod oracle;
pub mod pinned;
pub mod policies;
pub mod wrong_joins;

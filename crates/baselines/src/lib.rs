//! # fj-baselines — the CardEst methods FactorJoin is evaluated against
//!
//! The §6.1 baselines that a recorded number (`BENCH_quality.json`, the
//! quality gate, the pipeline tests) uses, all behind the [`CardEst`]
//! trait so the end-to-end harness treats them uniformly. The paper's
//! other baselines (WJSample, MSCN, BayesCard/DeepDB/FLAT, U-Block) are
//! not implemented here.
//!
//! | paper name | here | category |
//! |---|---|---|
//! | PostgreSQL | [`PostgresLike`] | traditional (histogram + Selinger) |
//! | JoinHist | [`JoinHist`] | traditional (join histograms) — plus the Table 8 `with Bound` / `with Conditional` variants |
//! | PessEst | [`PessEst`] | bound-based (sketches on filtered tables) |
//! | TrueCard | [`TrueCard`] | oracle |
//! | FactorJoin | [`FactorJoinEst`] | this paper |

pub mod factorjoin_est;
pub mod joinhist;
pub mod pessest;
pub mod postgres;
pub mod traits;
pub mod truecard;

pub use factorjoin_est::FactorJoinEst;
pub use joinhist::{JoinHist, JoinHistConfig};
pub use pessest::PessEst;
pub use postgres::PostgresLike;
pub use traits::CardEst;
pub use truecard::TrueCard;

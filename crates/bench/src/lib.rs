//! # tsad-bench
//!
//! The reproduction harness: every table and figure of Wu & Keogh
//! (ICDE 2022) as a runnable experiment, plus the repository's bench
//! suites. The `repro` binary prints each experiment's table/figure;
//! `repro -- bench <suite>` writes a suite's `BENCH_<suite>.json` in the one
//! row format of [`gate`] (timed by [`harness`]), and `repro -- compare
//! BASE FRESH` gates a fresh document against the committed one.
//!
//! | suite | module | committed document |
//! |---|---|---|
//! | `kernels` | [`experiments::bench_json`] | `BENCH_kernels.json` |
//! | `fleet` | [`experiments::fleet`] | `BENCH_fleet.json` |
//! | `ingest` | [`experiments::ingest_bench`] | `BENCH_ingest.json` |
//! | `wal` | [`experiments::wal_bench`] | `BENCH_wal.json` |
//! | `catalog` | [`experiments::catalog`] | `BENCH_catalog.json` |
//! | `faults` | [`experiments::faults`] | `BENCH_faults.json` |
//!
//! | experiment | module | paper artifact |
//! |---|---|---|
//! | `table1`   | [`experiments::table1`]    | Table 1 (Yahoo one-liner solvability) |
//! | `fig1`–`fig3` | [`experiments::oneliners`] | one-liner demos (OMNI, NAB, Yahoo) |
//! | `fig4`–`fig7`, `fig9` | [`experiments::mislabels`] | mislabeled ground truth |
//! | `fig8`     | [`experiments::taxi`]      | NYC-taxi discord peaks |
//! | `fig10`    | [`experiments::position`]  | run-to-failure bias |
//! | `fig11`–`fig12` | [`experiments::ucr_figs`] | archive constructions |
//! | `fig13`    | [`experiments::fig13`]     | Telemanom vs Discord under noise |
//! | `density`  | [`experiments::density`]   | §2.3 statistics |
//! | `summary`  | [`experiments::summary`]   | §2.6 baselines + scoring disagreement |
//! | `contest`  | [`experiments::contest`]   | §3 archive contest |
//! | `invariances` | [`experiments::invariances`] | §4.2 invariance table |
//! | `protocols` | [`experiments::protocols`] | §4.4 scoring-protocol disagreement |
//! | `gallery` | [`experiments::gallery`] | the supplement's one-liner gallery |
//! | `triviality` | [`experiments::triviality_all`] | §2.2 solvability beyond Yahoo |
//! | `audit` | [`experiments::audit_exp`] | §2.6 audit verdict: benchmark vs archive |
//! | `stream` | [`experiments::stream`] | streaming engine: equivalence + replay tables |
//! | `catalog` | [`experiments::catalog`] | full detector registry × Yahoo triviality grid |

pub mod alloc_track;
pub mod gate;
pub mod harness;
pub mod minijson;

pub mod experiments {
    //! One module per paper artifact; see the crate-level table.
    pub mod audit_exp;
    #[cfg(test)]
    mod bench_compare;
    pub mod bench_json;
    pub mod catalog;
    pub mod contest;
    pub mod density;
    pub mod faults;
    pub mod fig13;
    pub mod fleet;
    pub mod gallery;
    pub mod ingest_bench;
    pub mod invariances;
    pub mod mislabels;
    pub mod oneliners;
    pub mod position;
    pub mod protocols;
    pub mod stream;
    pub mod summary;
    pub mod table1;
    pub mod taxi;
    pub mod triviality_all;
    pub mod ucr_figs;
    pub mod wal_bench;
}

/// The default seed used by the `repro` binary; every experiment is
/// deterministic given this value.
pub const DEFAULT_SEED: u64 = 42;

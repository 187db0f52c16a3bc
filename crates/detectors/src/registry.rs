//! The detector registry — one table every harness resolves from.
//!
//! Each entry carries a stable kebab-case id, a human display name, a
//! category and asymptotic cost class, a parameter schema with defaults,
//! the streaming story ([`StreamingSupport`]: a native port exists, or the
//! batch detector rides the sliding-chunk adapter), and a uniform
//! `build(&Params) -> Box<dyn Detector + Send + Sync>` constructor.
//!
//! Downstream consumers all read this one table:
//!
//! * `tsad-stream`'s `StreamRegistry` builds the *streaming* side of every
//!   entry (native ports for [`StreamingSupport::Native`], the batch
//!   adapter otherwise) and derives checkpoint name-fingerprints from the
//!   [`display`] constants here, so a rename cannot silently diverge from
//!   TSCK restore.
//! * The fleet spawns per-series detectors by id through
//!   `tsad-stream::RegistryFactory`.
//! * `repro -- detectors-md` renders `DETECTORS.md` from the table, and
//!   `repro -- bench catalog` runs every entry through the Table-1
//!   triviality experiment; CI fails when either drifts from the
//!   committed artifact.
//!
//! The catalog deliberately spans the paper's cast: the one-liners and
//! dumb baselines that *should* lose to real methods (§1, Table 1), the
//! discord family the paper recommends (§3), and the production-grade
//! detectors (SPOT, SR, Telemanom, SH-ESD, isolation forest,
//! OmniAnomaly-style NLL) whose published results the benchmark flaws
//! call into question.

use tsad_core::error::{CoreError, Result};

use crate::baselines::{
    GlobalZScore, MovingAvgResidual, NaiveLastPoint, QuantileBaseline, RandomDetector,
    SubsequenceKnn,
};
use crate::cusum::Cusum;
use crate::ensemble::{Ensemble, EnsembleCombine};
use crate::esd::ShEsd;
use crate::hotsax::{HotSaxConfig, HotSaxDetector};
use crate::iforest::SubsequenceIsolationForest;
use crate::matrix_profile::{DiscordDetector, OnlineDiscordDetector};
use crate::merlin::MerlinDetector;
use crate::multivariate::OmniScorer;
use crate::oneliner::{equation, Equation};
use crate::seasonal::SeasonalDetector;
use crate::spectral::SpectralResidual;
use crate::spot::Spot;
use crate::telemanom::Telemanom;
use crate::Detector;

/// Canonical display names.
///
/// These are the *single source* for every name-derived identifier:
/// `DETECTORS.md` rows, catalog report labels, and — critically — the
/// prefixes of `tsad-stream` checkpoint name-fingerprints. A streaming
/// `name()` string formats one of these constants, so renaming a detector
/// here changes the TSCK fingerprint *and* the registry in lockstep
/// instead of leaving a stale hand-maintained copy behind.
pub mod display {
    /// [`crate::baselines::NaiveLastPoint`].
    pub const NAIVE_LAST_POINT: &str = "naive last-point";
    /// [`crate::baselines::RandomDetector`].
    pub const RANDOM: &str = "random";
    /// [`crate::baselines::GlobalZScore`] (also the streaming port's
    /// fingerprint prefix).
    pub const GLOBAL_ZSCORE: &str = "global z-score";
    /// [`crate::baselines::MovingAvgResidual`] (streaming fingerprint
    /// prefix).
    pub const MOVING_AVG_RESIDUAL: &str = "moving-average residual";
    /// [`crate::baselines::QuantileBaseline`].
    pub const QUANTILE_BASELINE: &str = "quantile/IQR baseline";
    /// [`crate::baselines::SubsequenceKnn`].
    pub const SUBSEQUENCE_KNN: &str = "subsequence 1-NN";
    /// [`crate::cusum::Cusum`] (streaming fingerprint prefix).
    pub const CUSUM: &str = "CUSUM";
    /// [`crate::oneliner::OneLiner`] (streaming fingerprint prefix).
    pub const ONE_LINER: &str = "one-liner";
    /// [`crate::matrix_profile::DiscordDetector`].
    pub const DISCORD: &str = "discord (matrix profile)";
    /// [`crate::matrix_profile::OnlineDiscordDetector`] / the streaming
    /// left-profile port (streaming fingerprint prefix).
    pub const LEFT_DISCORD: &str = "left discord";
    /// [`crate::merlin::MerlinDetector`].
    pub const MERLIN: &str = "MERLIN";
    /// [`crate::hotsax::HotSaxDetector`].
    pub const HOT_SAX: &str = "HOT SAX";
    /// [`crate::telemanom::Telemanom`].
    pub const TELEMANOM: &str = "telemanom (AR + NDT)";
    /// [`crate::spectral::SpectralResidual`].
    pub const SPECTRAL_RESIDUAL: &str = "spectral residual";
    /// [`crate::seasonal::SeasonalDetector`].
    pub const SEASONAL: &str = "seasonal profile";
    /// [`crate::spot::Spot`] (streaming fingerprint prefix).
    pub const SPOT: &str = "SPOT (EVT tail)";
    /// [`crate::esd::ShEsd`].
    pub const SH_ESD: &str = "seasonal-hybrid ESD";
    /// [`crate::iforest::SubsequenceIsolationForest`].
    pub const IFOREST: &str = "subsequence isolation forest";
    /// [`crate::multivariate::OmniScorer`].
    pub const OMNI_NLL: &str = "OmniAnomaly-style NLL";
    /// [`crate::ensemble::Ensemble`] with mean voting.
    pub const VOTING_MEAN: &str = "voting ensemble (mean)";
    /// [`crate::ensemble::Ensemble`] with median voting.
    pub const VOTING_MEDIAN: &str = "voting ensemble (median)";
    /// The `tsad-stream` batch→streaming adapter's fingerprint prefix.
    pub const BATCH_ADAPTER: &str = "batch-adapter";
}

/// A parameter's default (and therefore its type).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ParamValue {
    /// Real-valued parameter.
    F64(f64),
    /// Non-negative integer parameter (window lengths, seeds, counts).
    Int(u64),
}

impl ParamValue {
    /// Human-readable type tag (used in `DETECTORS.md` and error
    /// messages).
    pub fn type_name(&self) -> &'static str {
        match self {
            ParamValue::F64(_) => "f64",
            ParamValue::Int(_) => "int",
        }
    }

    /// Renders the value (`0.98`, `21`).
    pub fn render(&self) -> String {
        match self {
            ParamValue::F64(v) => format!("{v}"),
            ParamValue::Int(v) => format!("{v}"),
        }
    }
}

/// One parameter in an entry's schema.
#[derive(Debug, Clone, Copy)]
pub struct ParamSpec {
    /// Parameter name (stable, snake_case).
    pub name: &'static str,
    /// One-line description.
    pub doc: &'static str,
    /// Default value; its variant fixes the parameter's type.
    pub default: ParamValue,
}

/// A bag of parameter overrides for [`DetectorEntry::build`].
///
/// Unset parameters take their schema defaults; set parameters are
/// validated (name and type) against the entry's schema at build time, so
/// a typo'd name or a float passed to an integer parameter is an error,
/// not a silent fallback.
#[derive(Debug, Clone, Default)]
pub struct Params {
    overrides: Vec<(String, ParamValue)>,
}

impl Params {
    /// An empty override bag (every parameter at its default).
    pub fn new() -> Self {
        Self::default()
    }

    /// Overrides a real-valued parameter.
    pub fn set_f64(mut self, name: &str, value: f64) -> Self {
        self.overrides
            .push((name.to_string(), ParamValue::F64(value)));
        self
    }

    /// Overrides an integer parameter.
    pub fn set_int(mut self, name: &str, value: u64) -> Self {
        self.overrides
            .push((name.to_string(), ParamValue::Int(value)));
        self
    }

    /// The overrides in insertion order.
    pub fn overrides(&self) -> &[(String, ParamValue)] {
        &self.overrides
    }
}

/// An entry's schema with overrides applied — what build functions read.
#[derive(Debug, Clone, Copy)]
pub struct Resolved<'a> {
    spec: &'static [ParamSpec],
    params: &'a Params,
}

impl Resolved<'_> {
    fn value(&self, name: &str) -> ParamValue {
        if let Some((_, v)) = self.params.overrides.iter().rev().find(|(n, _)| n == name) {
            return *v;
        }
        self.spec
            .iter()
            .find(|p| p.name == name)
            .map(|p| p.default)
            .expect("build functions only read parameters declared in their own schema")
    }

    /// Resolved value of a real parameter.
    pub fn f64(&self, name: &str) -> f64 {
        match self.value(name) {
            ParamValue::F64(v) => v,
            ParamValue::Int(v) => v as f64,
        }
    }

    /// Resolved value of an integer parameter as `usize`.
    pub fn usize(&self, name: &str) -> usize {
        match self.value(name) {
            ParamValue::Int(v) => v as usize,
            ParamValue::F64(v) => v as usize,
        }
    }

    /// Resolved value of an integer parameter as `u64` (seeds).
    pub fn u64(&self, name: &str) -> u64 {
        match self.value(name) {
            ParamValue::Int(v) => v,
            ParamValue::F64(v) => v as u64,
        }
    }
}

/// Broad algorithm family, for `DETECTORS.md` grouping and reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Category {
    /// Deliberately-dumb baselines (the paper's calibration floor).
    Baseline,
    /// The paper's Table-1 "one line of code" detectors.
    Triviality,
    /// Discord / nearest-neighbor distance methods.
    Distance,
    /// Sequential change detection.
    ChangeDetection,
    /// Forecast-then-threshold pipelines.
    Forecasting,
    /// Frequency-domain saliency.
    Spectral,
    /// Seasonal decomposition methods.
    Seasonal,
    /// Extreme-value / tail-probability methods.
    Tail,
    /// Multivariate consensus scorers.
    Multivariate,
    /// Ensembles over other detectors.
    Ensemble,
}

impl Category {
    /// Stable label used in docs and reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            Category::Baseline => "baseline",
            Category::Triviality => "one-liner",
            Category::Distance => "distance",
            Category::ChangeDetection => "change detection",
            Category::Forecasting => "forecasting",
            Category::Spectral => "spectral",
            Category::Seasonal => "seasonal",
            Category::Tail => "tail/EVT",
            Category::Multivariate => "multivariate",
            Category::Ensemble => "ensemble",
        }
    }
}

/// Asymptotic cost in the series length (per `score` call).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostClass {
    /// O(1) per point.
    Constant,
    /// O(n).
    Linear,
    /// O(n log n).
    Linearithmic,
    /// O(n²) (window-join methods).
    Quadratic,
}

impl CostClass {
    /// Stable label used in docs and reports.
    pub fn as_str(&self) -> &'static str {
        match self {
            CostClass::Constant => "O(1)/pt",
            CostClass::Linear => "O(n)",
            CostClass::Linearithmic => "O(n log n)",
            CostClass::Quadratic => "O(n²)",
        }
    }
}

/// How an entry runs in the streaming harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamingSupport {
    /// A hand-written incremental port exists in `tsad-stream`.
    Native,
    /// The batch detector runs behind `tsad-stream`'s sliding-chunk
    /// `BatchAdapter` with this chunk geometry: re-score the trailing
    /// `window` points every `every` pushes.
    Adapted {
        /// Trailing chunk length the batch detector re-scores.
        window: usize,
        /// Re-score cadence in pushed points.
        every: usize,
    },
}

impl StreamingSupport {
    /// Stable label used in docs and reports.
    pub fn label(&self) -> String {
        match self {
            StreamingSupport::Native => "native".to_string(),
            StreamingSupport::Adapted { window, every } => {
                format!("adapter (window={window}, every={every})")
            }
        }
    }
}

/// Default adapter chunk geometry for a cost class: costlier detectors
/// get a sparser re-score cadence so the amortized per-point work stays
/// bounded.
fn adapted_for(cost: CostClass) -> StreamingSupport {
    match cost {
        CostClass::Constant | CostClass::Linear => StreamingSupport::Adapted {
            window: 256,
            every: 64,
        },
        CostClass::Linearithmic => StreamingSupport::Adapted {
            window: 384,
            every: 96,
        },
        CostClass::Quadratic => StreamingSupport::Adapted {
            window: 256,
            every: 128,
        },
    }
}

/// Uniform build function: schema-resolved parameters in, boxed detector
/// out.
pub type BuildFn = fn(&Resolved<'_>) -> Result<Box<dyn Detector + Send + Sync>>;

/// One registered detector.
pub struct DetectorEntry {
    /// Stable kebab-case identifier (spawn-by-id key).
    pub id: &'static str,
    /// Human display name (one of the [`display`] constants).
    pub display: &'static str,
    /// One-line description for `DETECTORS.md`.
    pub summary: &'static str,
    /// Algorithm family.
    pub category: Category,
    /// Asymptotic cost class.
    pub cost: CostClass,
    /// Streaming story (native port vs. batch adapter geometry).
    pub streaming: StreamingSupport,
    /// Parameter schema with defaults.
    pub params: &'static [ParamSpec],
    build: BuildFn,
}

impl DetectorEntry {
    /// Builds the batch detector, validating every override against the
    /// schema (unknown names and type mismatches are errors).
    pub fn build(&self, params: &Params) -> Result<Box<dyn Detector + Send + Sync>> {
        let resolved = self.resolve(params)?;
        (self.build)(&resolved)
    }

    /// Validates `params` against the schema and returns the resolved
    /// view build functions read. Public so the streaming registry can
    /// resolve the *same* schema when constructing native ports.
    pub fn resolve<'a>(&self, params: &'a Params) -> Result<Resolved<'a>> {
        for (name, value) in &params.overrides {
            let Some(spec) = self.params.iter().find(|p| p.name == name.as_str()) else {
                return Err(CoreError::Unknown {
                    what: "parameter",
                    name: format!("{name}` for detector `{}", self.id),
                });
            };
            if spec.default.type_name() != value.type_name() {
                return Err(CoreError::BadParameter {
                    name: spec.name,
                    value: match value {
                        ParamValue::F64(v) => *v,
                        ParamValue::Int(v) => *v as f64,
                    },
                    expected: spec.default.type_name(),
                });
            }
        }
        Ok(Resolved {
            spec: self.params,
            params,
        })
    }
}

impl std::fmt::Debug for DetectorEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DetectorEntry")
            .field("id", &self.id)
            .field("display", &self.display)
            .field("category", &self.category)
            .field("cost", &self.cost)
            .field("streaming", &self.streaming)
            .finish_non_exhaustive()
    }
}

/// The registry: an ordered table of [`DetectorEntry`] values.
#[derive(Debug)]
pub struct DetectorRegistry {
    entries: Vec<DetectorEntry>,
}

const P_NONE: &[ParamSpec] = &[];

const P_SEED: &[ParamSpec] = &[ParamSpec {
    name: "seed",
    doc: "RNG seed",
    default: ParamValue::Int(7),
}];

const P_MOVAVG: &[ParamSpec] = &[ParamSpec {
    name: "window",
    doc: "moving-average window length",
    default: ParamValue::Int(21),
}];

const P_IQR: &[ParamSpec] = &[ParamSpec {
    name: "multiplier",
    doc: "Tukey whisker multiplier (threshold only; ranking-invariant)",
    default: ParamValue::F64(1.5),
}];

const P_KNN: &[ParamSpec] = &[ParamSpec {
    name: "window",
    doc: "subsequence length (train prefix must cover 2 windows)",
    default: ParamValue::Int(32),
}];

const P_CUSUM: &[ParamSpec] = &[
    ParamSpec {
        name: "allowance",
        doc: "slack k in train-prefix standard deviations",
        default: ParamValue::F64(0.5),
    },
    ParamSpec {
        name: "decay",
        doc: "per-step forgetting factor (1.0 = classical CUSUM)",
        default: ParamValue::F64(0.995),
    },
];

const P_ONELINER: &[ParamSpec] = &[
    ParamSpec {
        name: "k",
        doc: "moving-statistic window in equation (5)",
        default: ParamValue::Int(21),
    },
    ParamSpec {
        name: "c",
        doc: "movstd coefficient",
        default: ParamValue::F64(3.0),
    },
    ParamSpec {
        name: "b",
        doc: "constant offset",
        default: ParamValue::F64(0.0),
    },
];

const P_WINDOW64: &[ParamSpec] = &[ParamSpec {
    name: "window",
    doc: "subsequence length",
    default: ParamValue::Int(64),
}];

const P_WINDOW20: &[ParamSpec] = &[ParamSpec {
    name: "window",
    doc: "subsequence length",
    default: ParamValue::Int(20),
}];

const P_MERLIN: &[ParamSpec] = &[
    ParamSpec {
        name: "min_len",
        doc: "smallest discord length tried",
        default: ParamValue::Int(8),
    },
    ParamSpec {
        name: "max_len",
        doc: "largest discord length tried (inclusive)",
        default: ParamValue::Int(64),
    },
];

const P_HOTSAX: &[ParamSpec] = &[
    ParamSpec {
        name: "window",
        doc: "discord subsequence length",
        default: ParamValue::Int(64),
    },
    ParamSpec {
        name: "word_length",
        doc: "SAX word length (PAA segments)",
        default: ParamValue::Int(3),
    },
    ParamSpec {
        name: "alphabet",
        doc: "SAX alphabet size",
        default: ParamValue::Int(3),
    },
];

const P_TELEMANOM: &[ParamSpec] = &[
    ParamSpec {
        name: "order",
        doc: "AR order (the LSTM input-window stand-in)",
        default: ParamValue::Int(20),
    },
    ParamSpec {
        name: "smoothing_alpha",
        doc: "EWMA smoothing of the error signal",
        default: ParamValue::F64(0.05),
    },
    ParamSpec {
        name: "prune_p",
        doc: "Hundman et al. pruning parameter p",
        default: ParamValue::F64(0.13),
    },
];

const P_SPECTRAL: &[ParamSpec] = &[
    ParamSpec {
        name: "spectrum_window",
        doc: "log-amplitude spectrum averaging window",
        default: ParamValue::Int(3),
    },
    ParamSpec {
        name: "score_window",
        doc: "saliency-map normalization window",
        default: ParamValue::Int(21),
    },
];

const P_SEASONAL: &[ParamSpec] = &[
    ParamSpec {
        name: "period",
        doc: "seasonal period (0 = estimate from the data)",
        default: ParamValue::Int(0),
    },
    ParamSpec {
        name: "max_period",
        doc: "upper bound of the automatic period scan",
        default: ParamValue::Int(64),
    },
];

const P_SPOT: &[ParamSpec] = &[
    ParamSpec {
        name: "level",
        doc: "initial-threshold quantile of the calibration prefix",
        default: ParamValue::F64(0.98),
    },
    ParamSpec {
        name: "risk",
        doc: "target tail probability q beyond the alarm quantile",
        default: ParamValue::F64(1e-3),
    },
];

const P_SH_ESD: &[ParamSpec] = &[
    ParamSpec {
        name: "period",
        doc: "seasonal period (0 = estimate from the data)",
        default: ParamValue::Int(0),
    },
    ParamSpec {
        name: "max_period",
        doc: "upper bound of the automatic period scan",
        default: ParamValue::Int(64),
    },
    ParamSpec {
        name: "alpha",
        doc: "ESD significance level",
        default: ParamValue::F64(0.05),
    },
    ParamSpec {
        name: "max_frac",
        doc: "maximum fraction of points ESD may flag",
        default: ParamValue::F64(0.10),
    },
];

const P_IFOREST: &[ParamSpec] = &[
    ParamSpec {
        name: "window",
        doc: "subsequence length whose shape features are isolated",
        default: ParamValue::Int(32),
    },
    ParamSpec {
        name: "trees",
        doc: "number of isolation trees",
        default: ParamValue::Int(48),
    },
    ParamSpec {
        name: "sample",
        doc: "sub-sample size ψ per tree",
        default: ParamValue::Int(128),
    },
    ParamSpec {
        name: "seed",
        doc: "RNG seed (fixed seed ⇒ bitwise-deterministic scores)",
        default: ParamValue::Int(7),
    },
];

const P_OMNI: &[ParamSpec] = &[ParamSpec {
    name: "alpha",
    doc: "EWMA factor of the predictive Gaussian",
    default: ParamValue::F64(0.05),
}];

/// Member panel shared by both voting ensembles: three cheap detectors
/// with uncorrelated failure modes.
fn voting_members() -> Vec<Box<dyn Detector + Send + Sync>> {
    vec![
        Box::new(GlobalZScore),
        Box::new(MovingAvgResidual::new(21)),
        Box::new(QuantileBaseline::default()),
    ]
}

fn standard_entries() -> Vec<DetectorEntry> {
    vec![
        DetectorEntry {
            id: "naive-last-point",
            display: display::NAIVE_LAST_POINT,
            summary: "flags the final point; wins on run-to-failure benchmarks (§2.5)",
            category: Category::Baseline,
            cost: CostClass::Constant,
            streaming: adapted_for(CostClass::Constant),
            params: P_NONE,
            build: |_| Ok(Box::new(NaiveLastPoint)),
        },
        DetectorEntry {
            id: "random",
            display: display::RANDOM,
            summary: "seeded uniform scores; the calibration floor for every metric",
            category: Category::Baseline,
            cost: CostClass::Constant,
            streaming: adapted_for(CostClass::Constant),
            params: P_SEED,
            build: |p| Ok(Box::new(RandomDetector::new(p.u64("seed")))),
        },
        DetectorEntry {
            id: "global-zscore",
            display: display::GLOBAL_ZSCORE,
            summary: "|x − μ|/σ from the train prefix; solves magnitude-jump examples",
            category: Category::Baseline,
            cost: CostClass::Linear,
            streaming: StreamingSupport::Native,
            params: P_NONE,
            build: |_| Ok(Box::new(GlobalZScore)),
        },
        DetectorEntry {
            id: "moving-avg-residual",
            display: display::MOVING_AVG_RESIDUAL,
            summary: "|x − movmean|/movstd local z-score",
            category: Category::Baseline,
            cost: CostClass::Linear,
            streaming: StreamingSupport::Native,
            params: P_MOVAVG,
            build: |p| Ok(Box::new(MovingAvgResidual::new(p.usize("window")))),
        },
        DetectorEntry {
            id: "iqr-baseline",
            display: display::QUANTILE_BASELINE,
            summary: "distance beyond the train-prefix Tukey fences, in IQR units",
            category: Category::Baseline,
            cost: CostClass::Linearithmic,
            streaming: adapted_for(CostClass::Linearithmic),
            params: P_IQR,
            build: |p| {
                Ok(Box::new(QuantileBaseline {
                    multiplier: p.f64("multiplier"),
                }))
            },
        },
        DetectorEntry {
            id: "subsequence-knn",
            display: display::SUBSEQUENCE_KNN,
            summary: "z-normalized 1-NN distance from test windows to the train prefix",
            category: Category::Distance,
            cost: CostClass::Quadratic,
            streaming: adapted_for(CostClass::Quadratic),
            params: P_KNN,
            build: |p| Ok(Box::new(SubsequenceKnn::new(p.usize("window")))),
        },
        DetectorEntry {
            id: "cusum",
            display: display::CUSUM,
            summary: "Page's two-sided cumulative-sum level-shift detector",
            category: Category::ChangeDetection,
            cost: CostClass::Linear,
            streaming: StreamingSupport::Native,
            params: P_CUSUM,
            build: |p| {
                Ok(Box::new(Cusum {
                    allowance: p.f64("allowance"),
                    decay: p.f64("decay"),
                }))
            },
        },
        DetectorEntry {
            id: "oneliner",
            display: display::ONE_LINER,
            summary: "Table-1 equation (5): abs(diff) > c·movstd + b",
            category: Category::Triviality,
            cost: CostClass::Linear,
            streaming: StreamingSupport::Native,
            params: P_ONELINER,
            build: |p| {
                Ok(Box::new(equation(
                    Equation::Eq5,
                    p.usize("k"),
                    p.f64("c"),
                    p.f64("b"),
                )))
            },
        },
        DetectorEntry {
            id: "discord",
            display: display::DISCORD,
            summary: "STOMP self-join matrix profile; the paper's recommended method",
            category: Category::Distance,
            cost: CostClass::Quadratic,
            streaming: adapted_for(CostClass::Quadratic),
            params: P_WINDOW64,
            build: |p| Ok(Box::new(DiscordDetector::new(p.usize("window")))),
        },
        DetectorEntry {
            id: "left-discord",
            display: display::LEFT_DISCORD,
            summary: "left matrix profile: the honest online discord score",
            category: Category::Distance,
            cost: CostClass::Quadratic,
            streaming: StreamingSupport::Native,
            params: P_WINDOW20,
            build: |p| Ok(Box::new(OnlineDiscordDetector::new(p.usize("window")))),
        },
        DetectorEntry {
            id: "merlin",
            display: display::MERLIN,
            summary: "parameter-free arbitrary-length discord discovery (DRAG)",
            category: Category::Distance,
            cost: CostClass::Quadratic,
            streaming: adapted_for(CostClass::Quadratic),
            params: P_MERLIN,
            build: |p| {
                Ok(Box::new(MerlinDetector {
                    min_len: p.usize("min_len"),
                    max_len: p.usize("max_len"),
                }))
            },
        },
        DetectorEntry {
            id: "hotsax",
            display: display::HOT_SAX,
            summary: "SAX-ordered heuristic discord search",
            category: Category::Distance,
            cost: CostClass::Quadratic,
            streaming: adapted_for(CostClass::Quadratic),
            params: P_HOTSAX,
            build: |p| {
                Ok(Box::new(HotSaxDetector {
                    window: p.usize("window"),
                    config: HotSaxConfig {
                        word_length: p.usize("word_length"),
                        alphabet: p.usize("alphabet"),
                    },
                }))
            },
        },
        DetectorEntry {
            id: "telemanom",
            display: display::TELEMANOM,
            summary: "AR forecaster + Hundman et al. nonparametric dynamic thresholding",
            category: Category::Forecasting,
            cost: CostClass::Linear,
            streaming: adapted_for(CostClass::Linear),
            params: P_TELEMANOM,
            build: |p| {
                Ok(Box::new(Telemanom {
                    order: p.usize("order"),
                    smoothing_alpha: p.f64("smoothing_alpha"),
                    prune_p: p.f64("prune_p"),
                }))
            },
        },
        DetectorEntry {
            id: "spectral-residual",
            display: display::SPECTRAL_RESIDUAL,
            summary: "frequency-domain saliency (SR), the production KPI monitor",
            category: Category::Spectral,
            cost: CostClass::Linearithmic,
            streaming: adapted_for(CostClass::Linearithmic),
            params: P_SPECTRAL,
            build: |p| {
                Ok(Box::new(SpectralResidual {
                    spectrum_window: p.usize("spectrum_window"),
                    score_window: p.usize("score_window"),
                }))
            },
        },
        DetectorEntry {
            id: "seasonal",
            display: display::SEASONAL,
            summary: "per-phase seasonal profile with automatic period estimation",
            category: Category::Seasonal,
            cost: CostClass::Linear,
            streaming: adapted_for(CostClass::Linear),
            params: P_SEASONAL,
            build: |p| {
                let period = p.usize("period");
                Ok(Box::new(if period > 0 {
                    SeasonalDetector::with_period(period)
                } else {
                    SeasonalDetector::auto(2, p.usize("max_period").max(4))
                }))
            },
        },
        DetectorEntry {
            id: "spot",
            display: display::SPOT,
            summary: "streaming peaks-over-threshold with a GPD tail fit (EVT)",
            category: Category::Tail,
            cost: CostClass::Linear,
            streaming: StreamingSupport::Native,
            params: P_SPOT,
            build: |p| {
                Ok(Box::new(Spot {
                    level: p.f64("level"),
                    risk: p.f64("risk"),
                }))
            },
        },
        DetectorEntry {
            id: "sh-esd",
            display: display::SH_ESD,
            summary: "Twitter's seasonal-hybrid ESD on median/MAD residuals",
            category: Category::Seasonal,
            cost: CostClass::Linearithmic,
            streaming: adapted_for(CostClass::Linearithmic),
            params: P_SH_ESD,
            build: |p| {
                Ok(Box::new(ShEsd {
                    period: p.usize("period"),
                    max_period: p.usize("max_period"),
                    alpha: p.f64("alpha"),
                    max_frac: p.f64("max_frac"),
                }))
            },
        },
        DetectorEntry {
            id: "iforest",
            display: display::IFOREST,
            summary: "isolation forest over sliding-window shape features",
            category: Category::Ensemble,
            cost: CostClass::Linearithmic,
            streaming: adapted_for(CostClass::Linearithmic),
            params: P_IFOREST,
            build: |p| {
                Ok(Box::new(SubsequenceIsolationForest {
                    window: p.usize("window").max(2),
                    trees: p.usize("trees"),
                    sample: p.usize("sample"),
                    seed: p.u64("seed"),
                }))
            },
        },
        DetectorEntry {
            id: "omni-nll",
            display: display::OMNI_NLL,
            summary: "per-channel predictive Gaussian NLL with rank-consensus (SMD-shaped)",
            category: Category::Multivariate,
            cost: CostClass::Linear,
            streaming: adapted_for(CostClass::Linear),
            params: P_OMNI,
            build: |p| {
                Ok(Box::new(OmniScorer {
                    alpha: p.f64("alpha"),
                }))
            },
        },
        DetectorEntry {
            id: "voting-mean",
            display: display::VOTING_MEAN,
            summary: "mean vote over {z-score, moving-average, IQR} members",
            category: Category::Ensemble,
            cost: CostClass::Linearithmic,
            streaming: adapted_for(CostClass::Linearithmic),
            params: P_NONE,
            build: |_| {
                Ok(Box::new(Ensemble::voting(
                    voting_members(),
                    EnsembleCombine::Mean,
                )))
            },
        },
        DetectorEntry {
            id: "voting-median",
            display: display::VOTING_MEDIAN,
            summary: "median vote over {z-score, moving-average, IQR} members",
            category: Category::Ensemble,
            cost: CostClass::Linearithmic,
            streaming: adapted_for(CostClass::Linearithmic),
            params: P_NONE,
            build: |_| {
                Ok(Box::new(Ensemble::voting(
                    voting_members(),
                    EnsembleCombine::Median,
                )))
            },
        },
    ]
}

impl DetectorRegistry {
    /// The standard catalog, in stable documentation order.
    pub fn standard() -> Self {
        Self {
            entries: standard_entries(),
        }
    }

    /// All entries, in registration order.
    pub fn entries(&self) -> &[DetectorEntry] {
        &self.entries
    }

    /// Number of registered detectors.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the registry is empty (never, for [`Self::standard`]).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up an entry by id.
    pub fn get(&self, id: &str) -> Result<&DetectorEntry> {
        self.entries
            .iter()
            .find(|e| e.id == id)
            .ok_or_else(|| CoreError::Unknown {
                what: "detector",
                name: id.to_string(),
            })
    }

    /// Builds a detector by id with the given overrides.
    pub fn build(&self, id: &str, params: &Params) -> Result<Box<dyn Detector + Send + Sync>> {
        self.get(id)?.build(params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_registry_is_large_and_unique() {
        let reg = DetectorRegistry::standard();
        assert!(
            reg.len() >= 15,
            "catalog must list at least 15 detectors, has {}",
            reg.len()
        );
        let mut ids: Vec<&str> = reg.entries().iter().map(|e| e.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), reg.len(), "duplicate detector id");
        let mut displays: Vec<&str> = reg.entries().iter().map(|e| e.display).collect();
        displays.sort_unstable();
        displays.dedup();
        assert_eq!(displays.len(), reg.len(), "duplicate display name");
    }

    #[test]
    fn unknown_ids_and_parameters_error() {
        let reg = DetectorRegistry::standard();
        let err = reg
            .build("definitely-not-a-detector", &Params::new())
            .err()
            .expect("must fail");
        assert!(err.to_string().contains("unknown detector"), "{err}");
        let err = reg
            .build("cusum", &Params::new().set_f64("no_such_param", 1.0))
            .err()
            .expect("must fail");
        assert!(err.to_string().contains("unknown parameter"), "{err}");
        assert!(err.to_string().contains("cusum"), "{err}");
    }

    #[test]
    fn type_mismatched_overrides_error() {
        let reg = DetectorRegistry::standard();
        // "window" is an Int parameter; a F64 override must be rejected
        let err = reg
            .build(
                "moving-avg-residual",
                &Params::new().set_f64("window", 21.0),
            )
            .err()
            .expect("must fail");
        assert!(err.to_string().contains("window"), "{err}");
    }

    #[test]
    fn overrides_change_the_built_detector() {
        let reg = DetectorRegistry::standard();
        let ts = tsad_core::TimeSeries::new(
            "t",
            (0..300).map(|i| (i as f64 * 0.1).sin()).collect::<Vec<_>>(),
        )
        .unwrap();
        let a = reg
            .build("random", &Params::new().set_int("seed", 1))
            .unwrap()
            .score(&ts, 0)
            .unwrap();
        let b = reg
            .build("random", &Params::new().set_int("seed", 2))
            .unwrap()
            .score(&ts, 0)
            .unwrap();
        assert_ne!(a, b);
        // the last override of the same name wins
        let c = reg
            .build(
                "random",
                &Params::new().set_int("seed", 2).set_int("seed", 1),
            )
            .unwrap()
            .score(&ts, 0)
            .unwrap();
        assert_eq!(a, c);
    }

    #[test]
    fn every_entry_has_schema_defaults_of_declared_types() {
        for e in DetectorRegistry::standard().entries() {
            for p in e.params {
                assert!(!p.name.is_empty() && !p.doc.is_empty());
                // render must round-trip through the declared type tag
                match p.default {
                    ParamValue::F64(_) => assert_eq!(p.default.type_name(), "f64"),
                    ParamValue::Int(_) => assert_eq!(p.default.type_name(), "int"),
                }
            }
        }
    }
}

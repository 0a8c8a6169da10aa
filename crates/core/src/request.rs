//! The detection request: the **one** way to run a detection, over the
//! whole `{tool source} × {sequential/parallel/streamed} × {options}`
//! space.
//!
//! A [`DetectRequest`] names *what* to detect (its targets: the run's own
//! tool, other tools sharing the prepared module, or explicit detector
//! configurations), *how* (its [`DetectMode`]), and under which
//! [`EngineOptions`] (watchdog, budgets, fault injection). It
//! is executed by [`ExecutedRun::run`] / [`ExecutedRun::try_run`] against
//! a recorded trace, and by [`PreparedModule::try_run_streamed`] against
//! a binary chunk stream — the same request type a detection server
//! decodes straight off the wire.
//!
//! ```
//! use spinrace_core::{DetectRequest, Session, Tool};
//! use spinrace_tir::ModuleBuilder;
//!
//! let mut mb = ModuleBuilder::new("racy");
//! let g = mb.global("g", 1);
//! let w = mb.function("w", 1, |f| {
//!     let v = f.load(g.at(0));
//!     let v2 = f.add(v, 1);
//!     f.store(g.at(0), v2);
//!     f.ret(None);
//! });
//! mb.entry("main", |f| {
//!     let t1 = f.spawn(w, 0);
//!     let t2 = f.spawn(w, 1);
//!     f.join(t1);
//!     f.join(t2);
//!     f.ret(None);
//! });
//! let m = mb.finish().unwrap();
//!
//! let run = Session::for_module(&m)
//!     .prepare(Tool::HelgrindLib)
//!     .unwrap()
//!     .execute()
//!     .unwrap();
//!
//! // Sequential replay under the run's own tool…
//! let out = run.run(&DetectRequest::own()).into_single();
//! assert!(out.has_race_on("g"));
//!
//! // …and fanned out over two tools on the parallel engine, each
//! // target on its own worker pool — byte-identical per target.
//! let req = DetectRequest::tools(&[Tool::HelgrindLib, Tool::Drd]).parallel(4);
//! let outs = run.run(&req).into_vec();
//! assert_eq!(outs.len(), 2);
//! assert_eq!(outs[0].contexts, out.contexts);
//! ```
//!
//! [`ExecutedRun::run`]: crate::ExecutedRun::run
//! [`ExecutedRun::try_run`]: crate::ExecutedRun::try_run
//! [`PreparedModule::try_run_streamed`]: crate::PreparedModule::try_run_streamed

use crate::parallel::{Budget, EngineOptions, FaultPlan};
use crate::{AnalysisOutcome, Tool};
use spinrace_detector::DetectorConfig;
use std::time::Duration;

/// One detection target: which detector configuration (and label) a
/// request resolves against the prepared module it runs on.
#[derive(Clone, Copy, Debug)]
pub enum DetectTarget {
    /// The run's own tool, under the session's MSM flavour and cap.
    Own,
    /// Another tool's configuration and label. Only valid when that
    /// tool's preparation of the same source module yields the same
    /// fingerprint (the fingerprint-sharing contract: e.g. `Helgrind+
    /// lib` and `DRD` both run the unmodified module).
    Tool(Tool),
    /// An explicit detector configuration, labelled with the run's own
    /// tool.
    Config(DetectorConfig),
}

/// How a request replays the stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DetectMode {
    /// One in-order pass that feeds every target — the deterministic
    /// baseline.
    Sequential,
    /// The sharded parallel engine on `workers` threads (clamped to
    /// `1..=NUM_SHARDS`; at most one worker is the sequential pass),
    /// one target after another; bit-identical to
    /// [`DetectMode::Sequential`] at every width.
    Parallel {
        /// Worker thread count.
        workers: usize,
    },
    /// Chunk-streamed sequential replay — O(chunk) peak memory, used by
    /// [`PreparedModule::try_run_streamed`]. On an [`ExecutedRun`]
    /// (where the stream is already materialized) this degenerates to
    /// [`DetectMode::Sequential`].
    ///
    /// [`PreparedModule::try_run_streamed`]: crate::PreparedModule::try_run_streamed
    /// [`ExecutedRun`]: crate::ExecutedRun
    Streamed,
}

/// A detection request — see the [module docs](self) for an example.
#[derive(Clone, Debug)]
pub struct DetectRequest {
    targets: Vec<DetectTarget>,
    mode: DetectMode,
    options: EngineOptions,
}

impl Default for DetectRequest {
    /// [`DetectRequest::own`]: the run's own tool, sequentially, under
    /// default engine options.
    fn default() -> DetectRequest {
        DetectRequest::own()
    }
}

impl DetectRequest {
    fn with_targets(targets: Vec<DetectTarget>) -> DetectRequest {
        DetectRequest {
            targets,
            mode: DetectMode::Sequential,
            options: EngineOptions::default(),
        }
    }

    /// Detect under the run's own tool.
    pub fn own() -> DetectRequest {
        DetectRequest::with_targets(vec![DetectTarget::Own])
    }

    /// Detect under another tool's configuration and label (the
    /// fingerprint-sharing contract of [`DetectTarget::Tool`] applies).
    pub fn tool(tool: Tool) -> DetectRequest {
        DetectRequest::with_targets(vec![DetectTarget::Tool(tool)])
    }

    /// Fan out over several tools on one request.
    pub fn tools(tools: &[Tool]) -> DetectRequest {
        DetectRequest::with_targets(tools.iter().map(|&t| DetectTarget::Tool(t)).collect())
    }

    /// Detect under an explicit configuration, labelled with the run's
    /// own tool.
    pub fn config(cfg: DetectorConfig) -> DetectRequest {
        DetectRequest::with_targets(vec![DetectTarget::Config(cfg)])
    }

    /// Fan out over several explicit configurations.
    pub fn configs(cfgs: &[DetectorConfig]) -> DetectRequest {
        DetectRequest::with_targets(cfgs.iter().map(|&c| DetectTarget::Config(c)).collect())
    }

    /// Append one more target to the fan-out.
    pub fn and_target(mut self, target: DetectTarget) -> DetectRequest {
        self.targets.push(target);
        self
    }

    /// Replay sequentially (the default).
    pub fn sequential(mut self) -> DetectRequest {
        self.mode = DetectMode::Sequential;
        self
    }

    /// Replay on the parallel sharded engine with `workers` threads.
    pub fn parallel(mut self, workers: usize) -> DetectRequest {
        self.mode = DetectMode::Parallel { workers };
        self
    }

    /// Replay as a chunked stream (see [`DetectMode::Streamed`]).
    pub fn streamed(mut self) -> DetectRequest {
        self.mode = DetectMode::Streamed;
        self
    }

    /// Set resource budgets (event and shadow-byte ceilings).
    pub fn budget(mut self, budget: Budget) -> DetectRequest {
        self.options.budget = budget;
        self
    }

    /// Bound the whole detection by a wall-clock watchdog.
    pub fn watchdog(mut self, limit: Duration) -> DetectRequest {
        self.options.watchdog = Some(limit);
        self
    }

    /// Arm deterministic fault injection (tests/CI only).
    pub fn fault(mut self, fault: FaultPlan) -> DetectRequest {
        self.options.fault = Some(fault);
        self
    }

    /// Replace the engine options wholesale (watchdog, budgets, and
    /// fault plan at once).
    pub fn options(mut self, options: EngineOptions) -> DetectRequest {
        self.options = options;
        self
    }

    /// The request's targets, in fan-out order.
    pub fn targets(&self) -> &[DetectTarget] {
        &self.targets
    }

    /// The replay mode.
    pub fn mode(&self) -> DetectMode {
        self.mode
    }

    /// The engine options the replay runs under.
    pub fn engine_options(&self) -> EngineOptions {
        self.options
    }
}

/// The result of one [`DetectRequest`]: one [`AnalysisOutcome`] per
/// target, in request order.
#[derive(Clone, Debug)]
pub struct DetectOutcome {
    /// Per-target outcomes, ordered as the request's targets.
    pub outcomes: Vec<AnalysisOutcome>,
}

impl DetectOutcome {
    /// The single outcome of a one-target request.
    ///
    /// # Panics
    /// When the request had zero or several targets.
    pub fn into_single(self) -> AnalysisOutcome {
        assert_eq!(
            self.outcomes.len(),
            1,
            "into_single on a {}-target outcome",
            self.outcomes.len()
        );
        self.outcomes.into_iter().next().unwrap()
    }

    /// All outcomes, consuming the result.
    pub fn into_vec(self) -> Vec<AnalysisOutcome> {
        self.outcomes
    }

    /// Number of per-target outcomes.
    pub fn len(&self) -> usize {
        self.outcomes.len()
    }

    /// True when the request had no targets.
    pub fn is_empty(&self) -> bool {
        self.outcomes.is_empty()
    }

    /// Iterate the per-target outcomes.
    pub fn iter(&self) -> std::slice::Iter<'_, AnalysisOutcome> {
        self.outcomes.iter()
    }
}

impl IntoIterator for DetectOutcome {
    type Item = AnalysisOutcome;
    type IntoIter = std::vec::IntoIter<AnalysisOutcome>;

    fn into_iter(self) -> Self::IntoIter {
        self.outcomes.into_iter()
    }
}

//! The guarded sequential pass every replay runs through.
//!
//! [`GuardedPass`] feeds one event stream — a whole in-memory slice, or
//! one decoded chunk at a time — to one detector per request target, in
//! trace order, and enforces the request's
//! [`EngineOptions`](crate::EngineOptions) on the way: the event-budget
//! prefix, the watchdog deadline, and the shadow-byte budget (polled
//! every 4096 events and once at the end). [`Guard`] holds the two
//! polled limits; the parallel engine's workers poll the same guard, so
//! every [`EngineError::Watchdog`] and [`EngineError::BudgetExhausted`]
//! is built here, each kind of trip in exactly one place.

use crate::parallel::{BudgetResource, EngineError, EngineOptions, PartialMetrics};
use spinrace_detector::{AnyDetector, DetectorConfig, MergedDetection};
use spinrace_vm::{Event, EventSink};
use std::time::{Duration, Instant};

/// How often (in events) a guarded loop polls the watchdog, the shadow
/// budget and (in the worker pool) cancellation: every 4096 events.
pub(crate) const PERIODIC_MASK: usize = 0xFFF;

/// The limits a guarded loop polls between events: the watchdog
/// deadline and the shadow-byte budget. Started once per detection and
/// copied into every pass and pool worker of it, so a multi-target
/// detection runs under one deadline.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Guard {
    deadline: Option<(Instant, Duration)>,
    shadow_limit: Option<usize>,
}

impl Guard {
    /// Start the watchdog clock of one detection under `opts`.
    pub(crate) fn start(opts: &EngineOptions) -> Guard {
        Guard {
            deadline: opts.watchdog.map(|d| (Instant::now() + d, d)),
            shadow_limit: opts.budget.max_shadow_bytes,
        }
    }

    /// Fail with [`EngineError::Watchdog`] once the deadline has passed.
    pub(crate) fn watchdog(&self) -> Result<(), EngineError> {
        match self.deadline {
            Some((at, limit)) if Instant::now() >= at => Err(EngineError::Watchdog {
                limit_ms: limit.as_millis() as u64,
            }),
            _ => Ok(()),
        }
    }

    /// Fail with a shadow-byte [`EngineError::BudgetExhausted`] when the
    /// resident shadow memory `bytes()` reports exceeds the budget;
    /// `bytes` is not called when there is no shadow budget. `events`
    /// and `contexts` are the tripping detector's partial metrics.
    pub(crate) fn shadow_budget(
        &self,
        bytes: impl FnOnce() -> usize,
        events: u64,
        contexts: usize,
    ) -> Result<(), EngineError> {
        let Some(limit) = self.shadow_limit else {
            return Ok(());
        };
        let bytes = bytes();
        if bytes <= limit {
            return Ok(());
        }
        Err(EngineError::BudgetExhausted {
            resource: BudgetResource::ShadowBytes,
            limit: limit as u64,
            used: bytes as u64,
            partial: PartialMetrics {
                events_processed: events,
                contexts,
                shadow_bytes: bytes,
            },
        })
    }
}

/// One in-order pass over an event stream with one detector per request
/// target. [`feed`](Self::feed) takes the stream in pieces of any size;
/// [`finish`](Self::finish) runs the final shadow check and seals the
/// detections in target order.
pub(crate) struct GuardedPass {
    dets: Vec<AnyDetector>,
    guard: Guard,
    /// Events fed to every detector so far.
    events: u64,
    /// The events the budget affords when the stream is longer
    /// (`u64::MAX` otherwise).
    limit: u64,
    /// The stream's full length: the `used` figure of an event-budget
    /// error.
    total: u64,
}

impl GuardedPass {
    /// A pass over a `total`-event stream under `opts`' event budget and
    /// `guard`'s watchdog and shadow budget.
    pub(crate) fn new(
        cfgs: &[DetectorConfig],
        total: u64,
        opts: &EngineOptions,
        guard: Guard,
    ) -> GuardedPass {
        let limit = match opts.budget.max_events {
            Some(max) if max < total => max,
            _ => u64::MAX,
        };
        GuardedPass {
            dets: cfgs.iter().map(|&cfg| AnyDetector::new(cfg)).collect(),
            guard,
            events: 0,
            limit,
            total,
        }
    }

    /// Feed the next piece of the stream to every detector. The pieces
    /// between two poll points run as plain detector loops, so the
    /// guard costs nothing per event. Fails with the event budget the
    /// moment the affordable prefix has been fed (the first detector's
    /// partial metrics), or with whatever a poll trips.
    pub(crate) fn feed(&mut self, mut events: &[Event]) -> Result<(), EngineError> {
        loop {
            if self.events == self.limit {
                let (contexts, shadow_bytes) = self
                    .dets
                    .first()
                    .map_or((0, 0), |d| (d.racy_contexts(), d.shadow_resident_bytes()));
                return Err(EngineError::BudgetExhausted {
                    resource: BudgetResource::Events,
                    limit: self.limit,
                    used: self.total,
                    partial: PartialMetrics {
                        events_processed: self.limit,
                        contexts,
                        shadow_bytes,
                    },
                });
            }
            if events.is_empty() {
                return Ok(());
            }
            let phase = self.events as usize & PERIODIC_MASK;
            if phase == 0 {
                self.poll()?;
            }
            let until_poll = (PERIODIC_MASK + 1 - phase) as u64;
            let n = until_poll
                .min(self.limit - self.events)
                .min(events.len() as u64) as usize;
            let (now, rest) = events.split_at(n);
            for det in &mut self.dets {
                for ev in now {
                    det.on_event(ev);
                }
            }
            self.events += n as u64;
            events = rest;
        }
    }

    /// The watchdog, then every detector's shadow budget.
    fn poll(&self) -> Result<(), EngineError> {
        self.guard.watchdog()?;
        self.shadow_budgets()
    }

    fn shadow_budgets(&self) -> Result<(), EngineError> {
        for det in &self.dets {
            self.guard.shadow_budget(
                || det.shadow_resident_bytes(),
                self.events,
                det.racy_contexts(),
            )?;
        }
        Ok(())
    }

    /// The detectors, in target order.
    pub(crate) fn detectors(&self) -> &[AnyDetector] {
        &self.dets
    }

    /// Events fed to every detector so far.
    pub(crate) fn events(&self) -> u64 {
        self.events
    }

    /// End the pass: a last shadow check (the periodic poll samples
    /// every 4096 events, so a short stream that ends over budget is
    /// caught here), then the sealed detections in target order.
    pub(crate) fn finish(self) -> Result<Vec<MergedDetection>, EngineError> {
        self.shadow_budgets()?;
        Ok(self
            .dets
            .into_iter()
            .map(AnyDetector::into_detection)
            .collect())
    }
}

/// Replay a whole in-memory stream under every configuration in one
/// guarded pass; detections come back in configuration order.
pub(crate) fn replay_slice(
    cfgs: &[DetectorConfig],
    events: &[Event],
    opts: &EngineOptions,
    guard: Guard,
) -> Result<Vec<MergedDetection>, EngineError> {
    let mut pass = GuardedPass::new(cfgs, events.len() as u64, opts, guard);
    pass.feed(events)?;
    pass.finish()
}

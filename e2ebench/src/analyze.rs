//! `analyze-suite`: program → verdict → trace bytes, live, the way the
//! paper's experiments run. One operation is `Session::prepare(tool)` →
//! `execute_detecting()` → `encode_trace` for one drt case or PARSEC
//! program under one tool of the paper lineup, with no trace sharing
//! between tools.

use crate::harness::{serial_passes, timed_op, Phase};
use crate::probe::Item;
use crate::spans::{Ctx, Tracer};
use crate::Workload;
use spinrace_core::{AnalysisOutcome, Session, Tool};
use spinrace_detector::MsmMode;
use spinrace_suites::harness::{classify, DRT_CAP};
use spinrace_suites::{all_cases, all_programs, DrtCase, ParsecProgram};
use spinrace_synclib::LibStyle;
use spinrace_tir::Module;
use spinrace_tracefmt::encode_trace;
use std::time::Instant;

/// Table 1 of the paper as this repository reproduces it: false alarms
/// and missed races per tool of [`Tool::paper_lineup`], in lineup order.
pub const T1_PINS: [(usize, usize); 4] = [(32, 8), (8, 7), (8, 7), (13, 21)];

/// The PARSEC runs' context cap (the paper tables').
const PARSEC_CAP: usize = 1000;
/// Random schedules per PARSEC program, seeded from the workload seed
/// on, as the paper's tables average over five: one schedule's cost and
/// memory swing with the seed, five together much less.
const PARSEC_SCHEDULES: u64 = 5;

enum Program {
    Drt(DrtCase),
    /// A program under one random schedule seed.
    Parsec(ParsecProgram, Module, u64),
}

impl Program {
    fn module(&self) -> &Module {
        match self {
            Program::Drt(c) => &c.module,
            Program::Parsec(_, m, _) => m,
        }
    }
}

/// What one operation must reproduce.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Expect {
    contexts: usize,
    /// drt only: (expected race reported, false alarm).
    class: (bool, bool),
    trace_bytes: usize,
}

pub struct AnalyzeSuite {
    programs: Vec<Program>,
    /// Per `(program, tool)`, from the warm-up pass.
    expect: Vec<Expect>,
    /// Per lineup tool: did the warm-up pass reproduce its T1 pin?
    pins_ok: [bool; 4],
}

/// Build the suites, then warm up with one full pass that records each
/// operation's expected result and checks the T1 pins.
pub fn setup(seed: u64) -> Result<AnalyzeSuite, String> {
    let mut programs: Vec<Program> = all_cases().into_iter().map(Program::Drt).collect();
    for p in all_programs() {
        let m = (p.build)(p.threads, p.size);
        for k in 0..PARSEC_SCHEDULES {
            programs.push(Program::Parsec(p.clone(), m.clone(), seed.wrapping_add(k)));
        }
    }
    let mut w = AnalyzeSuite {
        programs,
        expect: Vec::new(),
        pins_ok: [true; 4],
    };
    let mut tally = [(0usize, 0usize); 4];
    for i in 0..w.ops() {
        let (_, out, bytes, _) = w.run(Ctx::off(), i)?;
        let class = match &w.programs[i / 4] {
            Program::Drt(case) => {
                let (detected, fa) = classify(case, &out);
                tally[i % 4].0 += usize::from(fa);
                tally[i % 4].1 += usize::from(case.racy && !detected);
                (detected, fa)
            }
            Program::Parsec(..) => (false, false),
        };
        w.expect.push(Expect {
            contexts: out.contexts,
            class,
            trace_bytes: bytes,
        });
    }
    for (t, (got, pin)) in tally.iter().zip(T1_PINS).enumerate() {
        w.pins_ok[t] = *got == pin;
        if *got != pin {
            eprintln!(
                "T1 pin mismatch for {}: false alarms/misses {got:?}, pinned {pin:?}",
                Tool::paper_lineup()[t]
            );
        }
    }
    Ok(w)
}

impl AnalyzeSuite {
    fn ops(&self) -> usize {
        self.programs.len() * 4
    }

    fn session<'a>(&self, p: &'a Program) -> (Session<'a>, LibStyle, MsmMode, usize) {
        match p {
            Program::Drt(case) => (
                Session::for_module(&case.module).cap(DRT_CAP),
                LibStyle::Textbook,
                MsmMode::Short,
                DRT_CAP,
            ),
            Program::Parsec(prog, m, seed) => {
                let s = Session::for_module(m).long_msm().seed(*seed);
                if prog.obscure_nolib {
                    (
                        s.obscure_nolib(),
                        LibStyle::Obscure,
                        MsmMode::Long,
                        PARSEC_CAP,
                    )
                } else {
                    (s, LibStyle::Textbook, MsmMode::Long, PARSEC_CAP)
                }
            }
        }
    }

    /// Operation `i`: program `i / 4` under lineup tool `i % 4`.
    fn run(&self, c: Ctx, i: usize) -> Result<(Instant, AnalysisOutcome, usize, u64), String> {
        let tool = Tool::paper_lineup()[i % 4];
        let (session, ..) = self.session(&self.programs[i / 4]);
        let prepared = c
            .time("op.prepare", |_| session.prepare(tool))
            .map_err(|e| format!("prepare: {e}"))?;
        let (run, out) = c
            .time("op.execute_detecting", |_| prepared.execute_detecting())
            .map_err(|e| format!("execute: {e}"))?;
        let verdict = Instant::now();
        let bytes = c.time("op.encode", |_| encode_trace(run.trace()));
        if bytes.is_empty() {
            return Err("empty trace encoding".into());
        }
        Ok((verdict, out, bytes.len(), run.trace().events.len() as u64))
    }

    fn op(&self, c: Ctx, i: usize) -> Result<(u64, Instant, bool), String> {
        let (verdict, out, bytes, events) = self.run(c, i)?;
        let want = self.expect[i];
        let ok = match &self.programs[i / 4] {
            Program::Drt(case) => {
                self.pins_ok[i % 4]
                    && classify(case, &out) == want.class
                    && out.contexts == want.contexts
                    && bytes == want.trace_bytes
            }
            Program::Parsec(..) => out.contexts == want.contexts && bytes == want.trace_bytes,
        };
        Ok((events, verdict, ok))
    }
}

impl Workload for AnalyzeSuite {
    fn phase(&self, seconds: f64, tracer: Option<&Tracer>) -> Phase {
        serial_passes(seconds, tracer, self.ops(), |ctx, i| {
            timed_op(ctx, |c| self.op(c, i))
        })
    }

    fn items(&self) -> Vec<Item<'_>> {
        let mut items = Vec::new();
        for p in &self.programs {
            let (session, style, msm, cap) = self.session(p);
            for tool in Tool::paper_lineup() {
                items.push(Item {
                    module: p.module(),
                    tool,
                    session,
                    style,
                    msm,
                    cap,
                    rebindable: matches!(p, Program::Parsec(..)),
                    file: None,
                    prepare_lineup: false,
                });
            }
        }
        items
    }
}

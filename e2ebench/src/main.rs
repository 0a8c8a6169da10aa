//! End-to-end benchmark of the SpinRace user paths.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <replay-zipf|analyze-suite|serve-mix> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Set-up builds the workload's inputs from the seed (and is repeated,
//! reporting the median as `setup_s`); then operations run back to back
//! for `--seconds`, each one timed and checked. `--trace 1` instead
//! splits the time in three: untraced operations, the same operations
//! with spans at their public call boundaries (the difference is the
//! tracing overhead), and the layer probe. The last stdout line is the
//! JSON result; see `e2ebench/README.md`.

mod analyze;
mod harness;
mod metrics;
mod net;
mod probe;
mod replay;
mod serve_mix;
mod spans;
mod stats;

use harness::Phase;
use probe::Item;
use spans::{Ctx, Tracer};
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

/// A workload after set-up.
pub trait Workload {
    /// Run operations back to back for `seconds`, timing and checking
    /// each; with a tracer, spans mark each operation's public calls.
    fn phase(&self, seconds: f64, tracer: Option<&Tracer>) -> Phase;
    /// The inputs the layer probe runs every layer on.
    fn items(&self) -> Vec<Item<'_>>;
}

const WORKLOADS: [&str; 3] = ["replay-zipf", "analyze-suite", "serve-mix"];
/// Set-ups per run: at least this many, and more until they have taken
/// [`SETUP_MIN_S`] in total, so that cheap set-ups still give a steady
/// median (`setup_s`).
const SETUP_REPS: usize = 5;
const SETUP_MIN_S: f64 = 2.0;
/// Inputs, outputs and span dumps, inside the checkout.
const WORK_DIR: &str = ".bench_work";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {WORKLOADS:?})"
        ));
    }
    let num = |flag: &str| -> Result<u64, String> {
        get(flag)?
            .parse()
            .map_err(|_| format!("{flag} expects a whole number"))
    };
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace expects 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed: num("--seed")?,
        seconds: seconds as f64,
        trace,
    })
}

fn setup(args: &Args, dir: &Path) -> Result<Box<dyn Workload>, String> {
    Ok(match args.workload.as_str() {
        "replay-zipf" => Box::new(replay::setup(args.seed, dir)?),
        "analyze-suite" => Box::new(analyze::setup(args.seed)?),
        _ => Box::new(serve_mix::setup(args.seed)?),
    })
}

/// Probe every input at least once, cycling until `seconds` elapse.
/// Returns `(cycles, probes, failures)`.
fn run_probes(
    w: &dyn Workload,
    tracer: &Tracer,
    seconds: f64,
) -> Result<(usize, usize, usize), String> {
    let server = spinrace_serve::serve("127.0.0.1:0", net::server_options())
        .map_err(|e| format!("serve: {e}"))?;
    let addr = server.addr().to_string();
    let items = w.items();
    let t0 = Instant::now();
    let (mut cycles, mut probes, mut failures) = (0, 0, 0);
    while cycles == 0 || t0.elapsed().as_secs_f64() < seconds {
        for (k, item) in items.iter().enumerate() {
            probes += 1;
            if let Err(e) = probe::probe(Ctx::root(Some(tracer), k as u64), item, &addr) {
                eprintln!("probe of input {k} failed: {e}");
                failures += 1;
            }
        }
        cycles += 1;
    }
    server.shutdown();
    Ok((cycles, probes, failures))
}

fn print_table(names: &[(&str, &str)], values: &[f64]) {
    for ((name, unit), v) in names.iter().zip(values) {
        println!("  {name:<32} {v:>16.6} {unit}");
    }
}

fn run() -> Result<String, String> {
    let args = parse_args()?;
    let dir = Path::new(WORK_DIR);
    std::fs::create_dir_all(dir).map_err(|e| format!("{WORK_DIR}: {e}"))?;

    let mut setups: Vec<f64> = Vec::new();
    let mut workload = None;
    while setups.len() < SETUP_REPS || setups.iter().sum::<f64>() < SETUP_MIN_S {
        drop(workload.take());
        let t0 = Instant::now();
        workload = Some(setup(&args, dir)?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let w = workload.expect("at least one set-up");
    println!(
        "{} seed {} ({} cores available)",
        args.workload,
        args.seed,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );

    if !args.trace {
        let a = w.phase(args.seconds, None);
        let (values, t) = metrics::end_to_end(&a, &setups);
        let each = a.pass.map_or(String::new(), |n| {
            format!(
                " ({} passes over {n}; each operation at its best)",
                a.samples.len() / n
            )
        });
        println!(
            "{} operations in {:.2} s{each}; op_ms_tail is p{} ({} samples beyond it)",
            a.samples.len(),
            a.wall_s,
            t.percentile,
            t.beyond
        );
        print_table(&metrics::END_TO_END, &values);
        let failed = a.failed();
        return Ok(metrics::result_line(
            failed == 0,
            a.samples.len(),
            failed,
            &metrics::END_TO_END,
            &values,
        ));
    }

    let third = args.seconds / 3.0;
    let a = w.phase(third, None);
    let ops = Tracer::default();
    let b = w.phase(third, Some(&ops));
    let probes = Tracer::default();
    let (cycles, probed, probe_failures) = run_probes(&*w, &probes, third)?;
    let dump = dir.join(format!("spans-{}.jsonl", args.workload));
    std::fs::write(&dump, ops.to_jsonl() + &probes.to_jsonl())
        .map_err(|e| format!("{}: {e}", dump.display()))?;
    let spans = ops.spans().len() + probes.spans().len();
    let values = metrics::per_layer(&probes, spans, cycles, probe_failures, &a, &b);
    println!(
        "{} untraced and {} traced operations, {probed} probes; spans in {}",
        a.samples.len(),
        b.samples.len(),
        dump.display()
    );
    print_table(&metrics::PER_LAYER, &values);
    let failed = a.failed() + b.failed() + probe_failures;
    Ok(metrics::result_line(
        failed == 0,
        a.samples.len() + b.samples.len() + probed,
        failed,
        &metrics::PER_LAYER,
        &values,
    ))
}

fn main() -> ExitCode {
    match run() {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

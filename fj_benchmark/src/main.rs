//! The repository benchmark. One run measures one workload:
//!
//! ```text
//! fj_benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! ```
//!
//! It prints a header, every metric as `name value unit`, and last one
//! JSON object `{correct, attempted, failed, metrics}`; the exit code is
//! non-zero when a check failed. See `README.md` for what the workloads
//! and metrics mean, and `BENCHMARK.json` for the bounds.

mod direct;
mod harness;
mod inputs;
mod layers;
mod lifecycle;
mod quality;
mod report;
mod stats;
mod sys;
mod tcp;
mod trace;

use harness::{Ctx, Measured};
use inputs::{Dataset, Sizing};
use report::{Metrics, ResultLine, END_TO_END, PER_LAYER};
use std::process::ExitCode;
use trace::Tracer;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["direct_stats", "direct_imdb", "tcp_mixed", "lifecycle"];

const DEFAULT_SEED: u64 = 2023;
const DEFAULT_SECONDS: f64 = 15.0;

#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

impl Args {
    pub fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            trace: false,
            smoke: false,
        };
        while let Some(flag) = argv.next() {
            let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => args.workload = value()?,
                "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
                }
                "--trace" => {
                    args.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other}")),
                    }
                }
                "--smoke" => args.smoke = true,
                other => return Err(format!("unknown argument {other}")),
            }
        }
        if !WORKLOADS.contains(&args.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {WORKLOADS:?}, not {:?}",
                args.workload
            ));
        }
        if !(args.seconds > 0.0 && args.seconds.is_finite()) {
            return Err(format!("--seconds must be positive, not {}", args.seconds));
        }
        if args.smoke {
            args.seconds = args.seconds.min(1.0);
        }
        Ok(args)
    }
}

/// Set-up, timed phase and checks of one workload.
fn measure(args: &Args, ctx: &Ctx, tracer: &mut Tracer) -> Measured {
    match args.workload.as_str() {
        "direct_stats" => direct::run(Dataset::Stats, ctx, tracer),
        "direct_imdb" => direct::run(Dataset::Imdb, ctx, tracer),
        "tcp_mixed" => tcp::run(ctx, tracer),
        "lifecycle" => lifecycle::run(ctx, tracer),
        other => unreachable!("workload {other} passed argument checking"),
    }
}

fn announce(args: &Args, measured: &Measured) {
    println!(
        "# workload={} seed={} seconds={} trace={} inputs_hash={:016x}",
        args.workload, args.seed, args.seconds, args.trace as u8, measured.inputs_hash
    );
}

/// An untraced run: the end-to-end metrics.
fn end_to_end(args: &Args, ctx: &Ctx) -> (Measured, Metrics) {
    // The reference cycles of a query workload run in three blocks spread
    // over the process; `lifecycle` measures its own cycles.
    let mut reference = lifecycle::Reference::new(args.workload != "lifecycle");
    reference.block(ctx);
    let mut measured = measure(args, ctx, &mut Tracer::new(false));
    announce(args, &measured);
    reference.block(ctx);
    let evals = inputs::eval_queries(&measured.catalog, measured.dataset, ctx.sizing);
    let quality = quality::measure(&measured.catalog, &measured.model, &evals);
    reference.block(ctx);
    let times = match measured.lifecycle {
        Some(times) => times,
        None => reference.finish(&mut measured.failures),
    };
    println!("# set-up repetitions: {:.3?} s", measured.setup_s);
    println!(
        "# oracle: {} sub-plans of {} pinned queries in {:.3} s",
        quality.subplans,
        evals.len(),
        quality.oracle_s
    );
    let failed = measured.failures.count.min(measured.attempted);
    let q = measured.query;
    let mut values = Metrics::default();
    for (name, value) in [
        ("setup_s", stats::median(&measured.setup_s)),
        ("subplans_per_s", q.subplans_per_s),
        ("latency_p50_us", q.latency_p50_us),
        ("latency_p95_us", q.latency_p95_us),
        ("cpu_us_per_query", q.cpu_us_per_query),
        (
            "ok_frac",
            (measured.attempted - failed) as f64 / measured.attempted as f64,
        ),
        ("qerr_p50", quality.qerr_p50),
        ("qerr_p95", quality.qerr_p95),
        ("underest_frac", quality.underest_frac),
        ("model_bytes", measured.model.model_bytes() as f64),
        ("fjm_bytes", measured.fjm_bytes as f64),
        ("peak_rss_mb", measured.peak_rss_mb),
        ("train_s", times.train_s),
        ("ttfe_s", times.ttfe_s),
        ("update_s", times.update_s),
    ] {
        values.set(name, value);
    }
    (measured, values)
}

/// A traced run: the per-layer metrics and the trace file.
fn per_layer(args: &Args, ctx: &Ctx) -> (Measured, Metrics) {
    let mut tracer = Tracer::new(false);
    let measured = measure(args, ctx, &mut tracer);
    announce(args, &measured);
    let mut values = Metrics::default();
    layers::run(&measured, ctx, &mut tracer, &mut values);
    let evals = inputs::eval_queries(&measured.catalog, measured.dataset, ctx.sizing);
    let quality = quality::measure(&measured.catalog, &measured.model, &evals);
    let c = measured.counters;
    for (name, value) in [
        ("service.cache_hit_frac", c.cache_hit_frac),
        ("service.cache_evictions_per_s", c.cache_evictions_per_s),
        ("service.queue_high_water", c.queue_high_water),
        ("service.shed", c.shed),
        ("service.rejected", c.rejected),
        ("service.expired", c.expired),
        ("service.errors", c.errors),
        ("service.worker_panics", c.worker_panics),
        ("registry.swaps", c.swaps),
        ("registry.epoch_visible_us", c.epoch_visible_us),
        ("bench.oracle_s", quality.oracle_s),
        ("bench.samples", measured.query.samples as f64),
        ("bench.window_cv", measured.query.window_cv),
        ("latency_p99_us", measured.query.latency_p99_us),
        ("trace.overhead_frac", measured.trace_overhead_frac),
    ] {
        values.set(name, value);
    }
    let path = sys::out_dir().join(format!("{}.trace.json", args.workload));
    tracer
        .write_json(&path, &args.workload)
        .expect("write the trace file");
    println!("# {} spans, trace in {}", tracer.len(), path.display());
    (measured, values)
}

/// One whole run: returns the result line and the failed checks.
pub fn run(args: &Args) -> (ResultLine, Vec<String>) {
    let sizing = if args.smoke {
        Sizing::SMOKE
    } else {
        Sizing::FULL
    };
    let scratch = sys::ScratchDir::create().expect("create fj_benchmark/out");
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        sizing: &sizing,
        scratch: &scratch,
    };
    let (declared, (measured, values)) = if args.trace {
        (PER_LAYER, per_layer(args, &ctx))
    } else {
        (END_TO_END, end_to_end(args, &ctx))
    };
    let failed = measured.failures.count.min(measured.attempted);
    (
        ResultLine::new(measured.attempted, failed, declared, &values),
        measured.failures.first,
    )
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("fj_benchmark: {why}");
            eprintln!(
                "usage: fj_benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--smoke]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    println!("{}", sys::header_line());
    let (result, failures) = run(&args);
    for failure in &failures {
        println!("FAILED {failure}");
    }
    print!("{}", result.table());
    println!("{}", result.to_json());
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        Args::parse(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn driver_arguments_parse() {
        let a = args(&[
            "--workload",
            "tcp_mixed",
            "--seed",
            "7",
            "--seconds",
            "15",
            "--trace",
            "1",
        ])
        .expect("parses");
        assert_eq!(
            a,
            Args {
                workload: "tcp_mixed".to_string(),
                seed: 7,
                seconds: 15.0,
                trace: true,
                smoke: false,
            }
        );
        assert_eq!(
            args(&["--workload", "lifecycle"]).expect("parses").seed,
            2023
        );
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seed", "1"]).is_err());
        assert!(args(&["--workload", "lifecycle", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "lifecycle", "--seconds", "0"]).is_err());
    }

    /// Runs `workload` in smoke mode, untraced and traced, and checks what
    /// a driver would: the declared metrics, all of them, and no failures.
    fn smoke(workload: &str) {
        for trace in ["0", "1"] {
            let a = args(&["--workload", workload, "--smoke", "--trace", trace]).expect("parses");
            let (result, failures) = run(&a);
            assert!(failures.is_empty(), "{workload}: {failures:?}");
            assert!(result.correct && result.attempted >= 1 && result.failed == 0);
            let declared = if a.trace { PER_LAYER } else { END_TO_END };
            let names: Vec<&str> = result.metrics.iter().map(|m| m.0.as_str()).collect();
            let want: Vec<&str> = declared.iter().map(|d| d.0).collect();
            assert_eq!(names, want);
            let parsed = ResultLine::parse(&result.to_json()).expect("result line parses");
            assert_eq!(parsed.metrics.len(), declared.len());
            if !a.trace {
                let value = |name: &str| {
                    result
                        .metrics
                        .iter()
                        .find(|m| m.0 == name)
                        .map(|m| m.1)
                        .expect("declared metric")
                };
                assert_eq!(value("ok_frac"), 1.0);
                for (name, _) in END_TO_END {
                    assert!(value(name) > 0.0, "{workload}: {name} is not positive");
                }
            }
        }
    }

    #[test]
    fn smoke_direct_stats() {
        smoke("direct_stats");
    }

    #[test]
    fn smoke_direct_imdb() {
        smoke("direct_imdb");
    }

    #[test]
    fn smoke_tcp_mixed() {
        smoke("tcp_mixed");
    }

    #[test]
    fn smoke_lifecycle() {
        smoke("lifecycle");
    }
}

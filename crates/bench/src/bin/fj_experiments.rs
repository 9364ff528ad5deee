//! `fj-experiments` — regenerates every table and figure of the paper.
//!
//! ```text
//! fj-experiments all                 # everything (slow)
//! fj-experiments table3 fig9        # selected experiments
//! FJ_SCALE=0.3 fj-experiments table4 # bigger data
//! FJ_QUERIES=40 fj-experiments all   # cap workload size
//! fj-experiments table3 --dataset-dir /data/stats   # real dump, not synthetic
//! ```

use fj_bench::experiments::{
    end_to_end, fig6, fig7, fig9, per_query, table2, table5, table6, table7, table8, ExpConfig,
};
use fj_bench::{quality, record, BenchKind};
use std::path::Path;

const KNOWN_IDS: &[&str] = &[
    "all", "table2", "table3", "table4", "table5", "table6", "table7", "table8", "fig6", "fig7",
    "fig8", "fig9", "fig10", "fig11",
];

/// The value following flag `name`, or usage-style exit 2 when it is missing.
fn flag_value(it: &mut std::slice::Iter<'_, String>, name: &str) -> String {
    it.next().cloned().unwrap_or_else(|| {
        eprintln!("error: {name} needs a value");
        std::process::exit(2);
    })
}

/// [`flag_value`] parsed as a number, or exit 2 when it is not one.
fn flag_number<T: std::str::FromStr>(it: &mut std::slice::Iter<'_, String>, name: &str) -> T {
    flag_value(it, name).parse().unwrap_or_else(|_| {
        eprintln!("error: {name} needs a number");
        std::process::exit(2);
    })
}

/// `bench-quality` subcommand: run the deterministic estimator sweep at
/// the pinned scale and write/check `BENCH_quality.json`.
///
/// ```text
/// fj-experiments bench-quality --write BENCH_quality.json --label my-change
/// fj-experiments bench-quality --check BENCH_quality.json [--threshold 1.1] [--queries 16]
/// ```
fn bench_quality(args: &[String]) -> ! {
    let mut write: Option<String> = None;
    let mut check: Option<String> = None;
    let mut label = "unlabelled".to_string();
    let mut threshold = quality::DEFAULT_THRESHOLD;
    let mut queries = quality::PINNED_QUERIES;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--write" => write = Some(flag_value(&mut it, "--write")),
            "--check" => check = Some(flag_value(&mut it, "--check")),
            "--label" => label = flag_value(&mut it, "--label"),
            "--threshold" => threshold = flag_number(&mut it, "--threshold"),
            "--queries" => queries = flag_number(&mut it, "--queries"),
            other => {
                eprintln!("error: unknown bench-quality flag {other:?}");
                std::process::exit(2);
            }
        }
    }
    let scale = std::env::var("FJ_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(quality::PINNED_SCALE);
    match (write, check) {
        (Some(path), None) => {
            let mut sample = quality::measure(&label, scale, queries);
            sample.bound = Some(quality::measure_bound(quality::BOUND_SCALE));
            println!("measured {}", quality::format_sample(&sample));
            quality::append_sample(Path::new(&path), &sample).unwrap_or_else(|e| {
                eprintln!("error: cannot write {path}: {e}");
                std::process::exit(1);
            });
            println!("recorded as new baseline in {path}");
            std::process::exit(0);
        }
        (None, Some(path)) => {
            let report = quality::check_against(Path::new(&path), threshold, queries)
                .unwrap_or_else(|e| {
                    eprintln!("error: cannot check against {path}: {e}");
                    std::process::exit(1);
                });
            println!("baseline {}", quality::format_sample(&report.baseline));
            println!("fresh    {}", quality::format_sample(&report.fresh));
            println!("{}", quality::format_deltas(&report));
            if report.ok {
                println!("OK: within threshold");
                std::process::exit(0);
            }
            eprintln!("FAIL: estimator-quality regression exceeds {threshold}× baseline");
            std::process::exit(1);
        }
        _ => {
            eprintln!(
                "usage: fj-experiments bench-quality (--write <json> [--label <l>] | \
                 --check <json> [--threshold <f>]) [--queries <n>]"
            );
            std::process::exit(2);
        }
    }
}

/// `record` subcommand: append one captured `fj_benchmark` run (stdin, or
/// the file named as the one positional argument) to a `BENCH_*.json`
/// trajectory — see [`fj_bench::record`].
fn record_run(args: &[String]) -> ! {
    let (mut out, mut label, mut input) = (None, "unlabelled".to_string(), None);
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out = Some(flag_value(&mut it, "--out")),
            "--label" => label = flag_value(&mut it, "--label"),
            path if !path.starts_with("--") && input.is_none() => input = Some(path),
            other => {
                eprintln!("error: unknown record argument {other:?}");
                std::process::exit(2);
            }
        }
    }
    let Some(out) = out else { usage() };
    let captured = match input {
        Some(path) => std::fs::read_to_string(path),
        None => std::io::read_to_string(std::io::stdin()),
    };
    let appended = captured
        .and_then(|text| record::entry(&label, &text))
        .and_then(|entry| record::append(Path::new(&out), entry));
    if let Err(e) = appended {
        eprintln!("error: nothing recorded in {out}: {e}");
        std::process::exit(1);
    }
    println!("recorded {label} in {out}");
    std::process::exit(0);
}

/// Prints the usage text and exits 2.
fn usage() -> ! {
    eprintln!(
        "usage: fj-experiments [{}] … [--dataset-dir <dir>]",
        KNOWN_IDS.join("|")
    );
    eprintln!("       fj-experiments bench-quality (--write <json> | --check <json>)");
    eprintln!("       fj-experiments record --out <json> [--label <l>] [<fj_benchmark stdout>]");
    eprintln!(
        "env: FJ_SCALE=<f64> (default 0.5), FJ_QUERIES=<n> (default full workload), \
         FJ_DATASET_DIR=<dir> (real dumps instead of synthetic data)"
    );
    std::process::exit(2);
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("bench-quality") => bench_quality(&args[1..]),
        Some("record") => record_run(&args[1..]),
        _ => {}
    }
    let mut cfg = ExpConfig::from_env();
    // `--dataset-dir <path>` anywhere in the argument list swaps synthetic
    // generation for the real dump loaded from <path> (see
    // fj_datagen::loader). Note a directory holds ONE dataset, so pair it
    // with that benchmark's experiment ids (e.g. table3, not all).
    if let Some(at) = args.iter().position(|a| a == "--dataset-dir") {
        if at + 1 >= args.len() {
            eprintln!("error: --dataset-dir needs a path");
            std::process::exit(2);
        }
        let dir = args.remove(at + 1);
        args.remove(at);
        cfg.dataset_dir = Some(Box::leak(dir.into_boxed_str()));
    }
    if args.is_empty() {
        usage();
    }
    if let Some(unknown) = args.iter().find(|a| !KNOWN_IDS.contains(&a.as_str())) {
        eprintln!("error: unknown experiment id {unknown:?}");
        usage();
    }
    println!(
        "# FactorJoin reproduction experiments (scale={}, queries={})",
        cfg.scale,
        cfg.queries
            .map(|q| q.to_string())
            .unwrap_or_else(|| "full".into())
    );
    let run_all = args.iter().any(|a| a == "all");
    let want = |id: &str| run_all || args.iter().any(|a| a == id);

    if want("table2") {
        table2(cfg);
    }
    if want("table3") {
        end_to_end(BenchKind::StatsCeb, cfg);
    }
    if want("table4") {
        end_to_end(BenchKind::ImdbJob, cfg);
    }
    if want("table5") {
        table5(cfg);
    }
    if want("table6") {
        table6(cfg);
    }
    if want("table7") {
        table7(cfg);
    }
    if want("table8") {
        table8(cfg);
    }
    if want("fig6") {
        fig6(cfg);
    }
    if want("fig7") {
        fig7(cfg);
    }
    if want("fig8") || want("fig10") {
        per_query(BenchKind::StatsCeb, cfg);
    }
    if want("fig9") {
        fig9(cfg);
    }
    if want("fig11") {
        per_query(BenchKind::ImdbJob, cfg);
    }
}

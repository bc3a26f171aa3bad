//! Long-run admission and explanation benchmark.
//!
//! ```text
//! cwf-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!               [--trace-out <file>] [--smoke]
//! cwf-perfbench --describe
//! ```
//!
//! Runs one workload (see `knobs.rs` and `layers.json`) in this process,
//! against the public API of `cwf-engine` and `cwf-core`, from one client in
//! a closed loop. Events come from the seed and are generated before timing.
//! Every output check that fails ends the run with exit code 1. The last
//! line of standard output is one JSON object: the end-to-end metrics with
//! `--trace 0`, their times scaled to a reference host speed (`speed.rs`),
//! and the raw per-layer metrics of one traced episode with `--trace 1`
//! (its spans go to `--trace-out`). `--smoke` cuts the workload
//! down to a size that runs in well under a second. `--describe` prints the
//! workload knobs and the layer map that `layers.json` records.

mod bench;
mod gen;
mod knobs;
mod speed;
mod stats;
mod system;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use cwf_core::EventSet;
use cwf_model::Pool;

use bench::Samples;
use knobs::{Deployment, Knobs, POOL_THREADS, STREAMS};
use speed::Gauge;
use stats::{result_json, Metric};
use trace::Tracer;

struct Args {
    workload: Knobs,
    smoke: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut trace_out = None;
    let mut smoke = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Knobs::by_name(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("bad seconds {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload: if smoke { workload.smoke() } else { workload },
        smoke,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        trace_out,
    })
}

/// The outcome of one run: the result line's fields.
struct Outcome {
    episodes: u64,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    /// Figures printed for the reader but not reported.
    notes: Vec<(&'static str, f64, &'static str)>,
}

/// Generates the workload's streams, and runs them untraced for
/// `seconds`, or once untraced and once traced. A smoke run first checks
/// that the program accepts every generated event.
fn run(args: &Args) -> Result<Outcome, String> {
    let knobs = &args.workload;
    let streams: Vec<gen::Stream> = (0..STREAMS)
        .map(|j| gen::generate(knobs, args.seed.wrapping_mul(STREAMS).wrapping_add(j)))
        .collect();
    if args.smoke {
        for stream in &streams {
            gen::self_check(stream, knobs.shards())?;
        }
    }
    let pool = Pool::with_threads(POOL_THREADS);
    if !args.trace {
        let s = bench::run_for(&streams, knobs, &pool, args.seconds)?;
        return Ok(Outcome {
            episodes: s.episodes,
            attempted: s.attempted,
            failed: s.failed,
            metrics: s.metrics(),
            notes: vec![
                (
                    "raw_admit_eps",
                    stats::median(&s.raw_eps),
                    "1/s at the host's speed",
                ),
                ("gauge_sample_us", s.sample_us, "us, median over the run"),
            ],
        });
    }
    // The first episode of a process runs on a cold heap; it is not
    // compared.
    // The gauge stays off: per-layer times are raw, and the overhead is a
    // ratio of two episodes run back to back.
    let mut gauge = Gauge::off();
    bench::episode(
        &streams[0],
        knobs,
        &pool,
        &mut gauge,
        &mut Samples::default(),
        None,
    )?;
    let mut plain = Samples::default();
    bench::episode(&streams[0], knobs, &pool, &mut gauge, &mut plain, None)?;
    let mut traced = Samples::default();
    let mut tracer = Tracer::new(knobs.deployment == Deployment::Run);
    bench::episode(
        &streams[0],
        knobs,
        &pool,
        &mut gauge,
        &mut traced,
        Some(&mut tracer),
    )?;
    if let Some(path) = &args.trace_out {
        tracer
            .write(path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(Outcome {
        episodes: plain.episodes + traced.episodes,
        attempted: plain.attempted + traced.attempted,
        failed: plain.failed + traced.failed,
        metrics: tracer.metrics(plain.admit_eps() / traced.admit_eps()),
        notes: Vec::new(),
    })
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("--describe") {
        print!("{}", knobs::describe());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage error: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(out) => {
            for m in &out.metrics {
                println!("{:<36} {:>16.6} {}", m.name, m.value, m.unit);
            }
            for (name, value, unit) in &out.notes {
                println!("{name:<36} {value:>16.6} {unit}");
            }
            println!(
                "{:<36} {:>16.6} (failed {} of {} operations, {} episodes)",
                "failed_frac",
                out.failed as f64 / out.attempted.max(1) as f64,
                out.failed,
                out.attempted,
                out.episodes
            );
            println!(
                "{}",
                result_json(true, out.attempted.max(1), out.failed, &out.metrics)
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{}: check failed: {e}", args.workload.name);
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(name: &str, trace: bool) -> Outcome {
        let args = Args {
            workload: Knobs::by_name(name).expect("workload").smoke(),
            smoke: true,
            seed: 7,
            seconds: 0.0,
            trace,
            trace_out: None,
        };
        run(&args).unwrap_or_else(|e| panic!("{name}: {e}"))
    }

    const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

    #[test]
    fn smoke_runs_pass_their_checks_and_report_every_metric() {
        for k in knobs::WORKLOADS {
            for trace in [false, true] {
                let out = smoke(k.name, trace);
                assert_eq!(out.failed, 0, "{}", k.name);
                assert!(out.attempted > 0);
                for m in &out.metrics {
                    assert!(m.value.is_finite(), "{} {}", k.name, m.name);
                    assert!(
                        BENCHMARK.contains(&format!("\"name\": \"{}\"", m.name)),
                        "{} is not declared in BENCHMARK.json",
                        m.name
                    );
                    if !trace {
                        assert!(m.value > 0.0, "{} {} is 0", k.name, m.name);
                    }
                }
            }
        }
    }

    #[test]
    fn layer_map_names_only_reported_metrics() {
        let out = smoke("explain_mix", true);
        for layer in &knobs::LAYERS {
            for name in layer.metrics {
                assert!(out.metrics.iter().any(|m| m.name == *name), "{name}");
            }
        }
    }

    #[test]
    fn benchmark_json_lists_the_gated_workloads() {
        for k in knobs::WORKLOADS {
            let listed = BENCHMARK.contains(&format!("\"name\": \"{}\"", k.name));
            assert_eq!(listed, k.gated, "{}", k.name);
        }
    }

    #[test]
    fn layers_json_matches_the_knobs() {
        assert_eq!(include_str!("../layers.json"), knobs::describe());
    }

    #[test]
    fn streams_depend_only_on_the_seed() {
        for k in knobs::WORKLOADS {
            let k = k.smoke();
            let (a, b) = (gen::generate(&k, 3), gen::generate(&k, 3));
            assert_eq!(a.events, b.events, "{}", k.name);
            assert_ne!(a.events, gen::generate(&k, 4).events, "{}", k.name);
        }
    }
}

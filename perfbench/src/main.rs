//! The lcpio benchmark: two workloads driven through the layers' public
//! functions, with every output checked.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload checkpoint|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the run prints every end-to-end metric; with
//! `--trace 1` a separate traced run prints the per-layer breakdown. The
//! last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value", "unit"}}}`.
//! `README.md` beside this crate defines every metric on every workload.

mod checkpoint;
mod inputs;
mod paper;
mod replay;
mod serve;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::time::Instant;

/// End-to-end metrics, printed by every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 11] = [
    ("setup_s", "s"),
    ("ok_frac", "frac"),
    ("peak_rss_mb", "MB"),
    ("dump_mb_s", "MB/s"),
    ("restart_mb_s", "MB/s"),
    ("restart_streamed_mb_s", "MB/s"),
    ("ratio", "x"),
    ("model_j_per_gb", "J/GB"),
    ("req_s", "1/s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
];

/// Per-layer metrics, printed by every workload with `--trace 1`. A layer
/// a workload bypasses reads 0.
pub const PER_LAYER: [(&str, &str); 30] = [
    ("sz.encode_s_per_mb", "s/MB"),
    ("sz.lossless_s_per_mb", "s/MB"),
    ("sz.lossless_saved_frac", "frac"),
    ("sz.decode_s_per_mb", "s/MB"),
    ("zfp.encode_s_per_mb", "s/MB"),
    ("zfp.decode_s_per_mb", "s/MB"),
    ("wire.feed_s_per_mb", "s/MB"),
    ("policy.plan_ms_per_chunk", "ms"),
    ("policy.zfp_share", "frac"),
    ("core.dump.compress_busy_s", "s"),
    ("core.dump.idle_frac", "frac"),
    ("core.restart.decode_busy_s", "s"),
    ("core.restart.idle_frac", "frac"),
    ("core.restart.peak_buffered_mb", "MB"),
    ("io.write_s", "s"),
    ("io.read_s", "s"),
    ("serve.service_ms_p50", "ms"),
    ("serve.service_ms_p99", "ms"),
    ("serve.wait_ms_p50", "ms"),
    ("serve.wait_ms_p99", "ms"),
    ("serve.shard_util", "frac"),
    ("serve.busy_rejected", "count"),
    ("core.sweep_s", "s"),
    ("fit.tables_s", "s"),
    ("json.write_s", "s"),
    ("json.parse_s", "s"),
    ("core.data_dump_s", "s"),
    ("unattributed_frac", "frac"),
    ("trace.overhead_frac", "frac"),
    ("host.ref_kernel_ms", "ms"),
];

/// The workloads, by name.
const WORKLOADS: [&str; 2] = ["checkpoint", "serve"];

/// Worker threads and client connections every workload uses.
pub const THREADS: usize = 2;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Only generate the workload's missing inputs (the child process of
    /// [`generate_in_child`]).
    pub generate: bool,
}

/// What a workload hands back: operation counts, the oracle's verdict and
/// the metrics of the requested kind (end-to-end or per-layer).
#[derive(Debug, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
}

fn parse_args() -> Result<Opts, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut generate = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got `{value}`");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(bad(&WORKLOADS.join(", "))),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" | "--generate" => {
                let on = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                };
                if flag == "--trace" {
                    trace = Some(on);
                } else {
                    generate = on;
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        generate,
    })
}

/// Generate the workload's missing inputs in a child process. Generating
/// leaves the allocator's heap grown, which made the first run of a seed
/// measure differently from later runs that found the inputs cached; a
/// child keeps the measuring process the same in both cases.
fn generate_in_child(opts: &Opts) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let status = std::process::Command::new(exe)
        .args(["--workload", &opts.workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if opts.trace { "1" } else { "0" }])
        .args(["--generate", "1"])
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("input generator: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("input generator failed: {status}"))
    }
}

/// Peak resident set of this process in MB, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// A fixed scalar kernel (a dependent xorshift and multiply-add chain)
/// timed in every run and printed beside the metrics, never used to
/// normalise them: a run on a slow host shows a slow kernel too, which
/// tells it apart from a regression. Five timings, in ms; the run takes
/// them before and after the workload and reports the median of all ten.
fn time_reference_kernel(times: &mut Vec<f64>) {
    for _ in 0..5 {
        let t0 = Instant::now();
        let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
        let mut acc = 0.0f64;
        for _ in 0..4_000_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            acc = acc * 0.999_999 + (x >> 11) as f64 * 1e-16;
        }
        std::hint::black_box(acc);
        times.push(t0.elapsed().as_secs_f64() * 1e3);
    }
}

fn json_line(out: &Outcome, table: &[(&str, &str)]) -> String {
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let v = out.metrics.get(name).copied().unwrap_or(0.0);
            // `{:?}` prints the shortest text that reads back as the same
            // f64: every digit measured, nothing rounded away.
            let v = if v.is_finite() {
                format!("{v:?}")
            } else {
                "null".to_string()
            };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn run() -> Result<bool, String> {
    let opts = parse_args()?;
    // Inputs and scratch files live beside this crate, inside the checkout.
    std::env::set_current_dir(env!("CARGO_MANIFEST_DIR"))
        .map_err(|e| format!("cannot enter the benchmark directory: {e}"))?;
    if opts.generate {
        match opts.workload.as_str() {
            "checkpoint" => checkpoint::generate(opts.seed)?,
            "serve" => serve::generate(opts.seed)?,
            other => unreachable!("parse_args accepts no workload `{other}`"),
        }
        return Ok(true);
    }
    generate_in_child(&opts)?;
    let mut ref_times = Vec::new();
    time_reference_kernel(&mut ref_times);
    spans::set_enabled(false);
    let mut out = match opts.workload.as_str() {
        "checkpoint" => checkpoint::run(&opts)?,
        "serve" => serve::run(&opts)?,
        other => unreachable!("parse_args accepts no workload `{other}`"),
    };
    time_reference_kernel(&mut ref_times);
    let ref_ms = stats::median(&ref_times);
    let table: &[(&str, &str)] = if opts.trace {
        out.metrics.insert("host.ref_kernel_ms", ref_ms);
        &PER_LAYER
    } else {
        out.metrics.insert("peak_rss_mb", peak_rss_mb());
        let attempted = out.attempted.max(1);
        out.metrics.insert(
            "ok_frac",
            (attempted - out.failed.min(attempted)) as f64 / attempted as f64,
        );
        &END_TO_END
    };
    // Every end-to-end metric is measured on every workload; a per-layer
    // metric of a layer the workload bypasses reads 0.
    if let Some((name, _)) = END_TO_END
        .iter()
        .find(|(n, _)| !opts.trace && !out.metrics.contains_key(n))
    {
        return Err(format!(
            "workload `{}` did not measure `{name}`",
            opts.workload
        ));
    }
    println!(
        "host: ref_kernel_ms={ref_ms:.3} available_parallelism={}",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    println!("{}", json_line(&out, table));
    Ok(out.correct)
}

fn main() {
    let code = match run() {
        Ok(true) => 0,
        Ok(false) => {
            eprintln!("perfbench: the output check failed");
            1
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc = serde_json::parse(&text).expect("BENCHMARK.json parses");
        let entries = doc
            .as_map()
            .expect("object")
            .iter()
            .find(|(k, _)| k == section);
        let list = entries.expect("section present").1.as_seq().expect("array");
        let text_of = |v: &serde::Value, key: &str| -> String {
            let field = v
                .as_map()
                .expect("metric object")
                .iter()
                .find(|(k, _)| k == key);
            match &field.expect("field present").1 {
                serde::Value::Str(s) => s.clone(),
                other => panic!("{key} is not a string: {other:?}"),
            }
        };
        list.iter()
            .map(|m| (text_of(m, "name"), text_of(m, "unit")))
            .collect()
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let owned = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), owned(&END_TO_END));
        assert_eq!(declared("per_layer"), owned(&PER_LAYER));
    }

    #[test]
    fn result_line_prints_every_metric_with_its_unit() {
        let mut out = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            ..Outcome::default()
        };
        out.metrics.insert("setup_s", 0.125);
        let line = json_line(&out, &END_TO_END[..2]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.125, \"unit\": \"s\"}, \
             \"ok_frac\": {\"value\": 0.0, \"unit\": \"frac\"}}}"
        );
    }
}

//! The paper's artifacts, regenerated once in the traced `checkpoint` run.
//!
//! The regeneration follows the CLI's `sweep -o`, `tables -i`, `tune -i`
//! and `dump` flow: the full sweep is written to a file as JSON, read back
//! with `serde_json::from_str` for Tables IV/V, read back again for the
//! Eqn-3 evaluation, and the Figure 6 data dump is run. It is the only
//! place the sweep driver, the model fits and the JSON shim do real work,
//! so it gives those layers their per-layer figures. It is not a workload
//! of its own: most of its time is the sweep file's parse, whose speed on
//! a shared host moved by half between sets of runs of the same code.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use lcpio_core::characteristics::{
    compression_power_curves, compression_runtime_curves, transit_power_curves,
    transit_runtime_curves,
};
use lcpio_core::datadump::{run_data_dump, DataDumpConfig, DumpRow};
use lcpio_core::experiment::{run_full_sweep, ExperimentConfig, SweepResult};
use lcpio_core::models::{compression_model_table, transit_model_table, ModelRow};
use lcpio_core::tuning::{evaluate_rule, TuningReport, TuningRule};

use crate::THREADS;

/// What one regeneration produced.
struct Artifacts {
    json: String,
    /// Whether the sweep `tables -i` read back serializes to `json` again.
    round_trip: bool,
    tables: (Vec<ModelRow>, Vec<ModelRow>),
    tuning: TuningReport,
    dump: Vec<DumpRow>,
}

fn secs<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

fn load(path: &Path) -> Result<SweepResult, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read sweep: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("parse sweep: {e}"))
}

/// Regenerate every artifact, adding each step's seconds to `times`
/// under its per-layer metric name.
fn regenerate(
    sweep_cfg: &ExperimentConfig,
    dump_cfg: &DataDumpConfig,
    path: &Path,
    times: &mut BTreeMap<&'static str, f64>,
) -> Result<Artifacts, String> {
    let mut add = |name, s| *times.entry(name).or_insert(0.0) += s;
    // Each CLI command runs in a process of its own, so what one command
    // built is dropped before the next starts.
    let json = {
        let (sweep, t) = secs(|| run_full_sweep(sweep_cfg));
        add("core.sweep_s", t);
        let (json, t) = secs(|| {
            let json = sweep.to_json();
            std::fs::write(path, &json).map(|()| json)
        });
        add("json.write_s", t);
        json.map_err(|e| format!("write sweep: {e}"))?
    };
    let (tables, round_trip) = {
        let (loaded, t) = secs(|| load(path));
        add("json.parse_s", t);
        let loaded = loaded?;
        let (tables, t) = secs(|| {
            (
                compression_model_table(&loaded.compression),
                transit_model_table(&loaded.transit),
            )
        });
        add("fit.tables_s", t);
        (tables, loaded.to_json() == json)
    };
    let tuning = {
        let (reloaded, t) = secs(|| load(path));
        add("json.parse_s", t);
        let reloaded = reloaded?;
        let (tuning, t) = secs(|| {
            evaluate_rule(
                TuningRule::PAPER,
                &compression_power_curves(&reloaded.compression),
                &compression_runtime_curves(&reloaded.compression),
                &transit_power_curves(&reloaded.transit),
                &transit_runtime_curves(&reloaded.transit),
            )
        });
        add("fit.tables_s", t);
        tuning
    };
    let (dump, t) = secs(|| run_data_dump(dump_cfg));
    add("core.data_dump_s", t);
    let dump = dump.map_err(|e| format!("data dump: {e}"))?.0;
    Ok(Artifacts {
        json,
        round_trip,
        tables,
        tuning,
        dump,
    })
}

/// The oracle: Table IV has five rows and Table V three, every fit and
/// every reported figure is finite, and the sweep file reads back to the
/// same JSON.
fn check(a: &Artifacts) -> Result<(), String> {
    let (t4, t5) = &a.tables;
    if t4.len() != 5 || t5.len() != 3 {
        return Err(format!(
            "Table IV has {} rows and Table V {}",
            t4.len(),
            t5.len()
        ));
    }
    for row in t4.iter().chain(t5) {
        let f = &row.fit;
        if ![f.a, f.b, f.c, f.gof.sse, f.gof.rmse, f.gof.r2]
            .iter()
            .all(|v| v.is_finite())
        {
            return Err(format!("fit `{}` is not finite", row.name));
        }
    }
    let t = &a.tuning;
    let tuning = [
        t.compression_power_savings,
        t.compression_runtime_increase,
        t.writing_power_savings,
        t.writing_runtime_increase,
    ];
    if !tuning.iter().all(|v| v.is_finite()) {
        return Err("the Eqn-3 evaluation is not finite".into());
    }
    if a.dump.len() != DataDumpConfig::paper().error_bounds.len()
        || !a
            .dump
            .iter()
            .all(|r| r.ratio.is_finite() && r.tuned.total_j().is_finite())
    {
        return Err("the Figure 6 rows are missing or not finite".into());
    }
    if !a.round_trip {
        return Err("the sweep file does not read back to the same JSON".into());
    }
    Ok(())
}

fn configs(seed: u64, quick: bool) -> (ExperimentConfig, DataDumpConfig) {
    let (base, dump) = if quick {
        (ExperimentConfig::quick(), DataDumpConfig::quick())
    } else {
        (ExperimentConfig::paper(), DataDumpConfig::paper())
    };
    (
        ExperimentConfig {
            seed,
            threads: THREADS,
            ..base
        },
        DataDumpConfig {
            seed,
            threads: THREADS,
            ..dump
        },
    )
}

/// Regenerate the paper's artifacts once, after an untimed warm-up on the
/// small test configuration, and check them. The sweep is then run once
/// more and must serialize to the same bytes. Returns the seconds of
/// `core.sweep_s`, `json.write_s`, `json.parse_s` (both reads),
/// `fit.tables_s` (Tables IV/V and Eqn 3) and `core.data_dump_s`.
pub fn replay(seed: u64, work: &Path) -> Result<BTreeMap<&'static str, f64>, String> {
    let (quick_sweep, quick_dump) = configs(seed, true);
    std::hint::black_box(run_full_sweep(&quick_sweep));
    run_data_dump(&quick_dump).map_err(|e| format!("warm-up dump: {e}"))?;

    std::fs::create_dir_all(work).map_err(|e| format!("work dir: {e}"))?;
    let path = work.join("sweep.json");
    let (sweep_cfg, dump_cfg) = configs(seed, false);
    let mut times = BTreeMap::new();
    let artifacts = regenerate(&sweep_cfg, &dump_cfg, &path, &mut times);
    let _ = std::fs::remove_file(&path);
    let artifacts = artifacts?;
    check(&artifacts)?;
    let again = run_full_sweep(&sweep_cfg).to_json();
    if again != artifacts.json {
        return Err("the same sweep serialized to different JSON twice".into());
    }
    eprintln!(
        "paper: regenerated in {:.2} s, sweep JSON {:.3} MB",
        times.values().sum::<f64>(),
        artifacts.json.len() as f64 / 1e6
    );
    Ok(times)
}

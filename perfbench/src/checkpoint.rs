//! `checkpoint`: one caller dumps three paper fields to files and restarts
//! each back, through both restart paths.
//!
//! This is the paper's subject, writes beside reads. Large chunks keep the
//! codec kernels, the LZSS pass, the pipeline queues and file I/O on the
//! blocking path; the planner (fixed policy) and the service are bypassed.
//! The traced run also regenerates the paper's artifacts once (see
//! [`paper::replay`]), which gives the sweep, fit and JSON layers their
//! per-layer figures.

use std::collections::BTreeMap;
use std::fs::File;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use lcpio_codec::BoundSpec;
use lcpio_core::pipeline::{
    run_restart, run_restart_streamed, run_streaming, scaled_overlap, scaled_restart, scan_stream,
    ChunkSink, ChunkSource, FileSink, FileSource, PipelineConfig, RestartConfig, RestartOutcome,
    StreamOutcome,
};
use lcpio_core::{Compressor, CostModel, PolicyKind, TuningRule};
use lcpio_datagen::Dataset;
use lcpio_powersim::{Chip, Machine};

use crate::inputs::Cache;
use crate::spans::{self, SpanId};
use crate::stats::{median, per_op_medians, percentile};
use crate::{paper, replay, Opts, Outcome, SETUP_REPS, THREADS};

/// Element-count divisor of the paper fields: 8.4 M (NYX), 10.5 M (CESM)
/// and 17.6 M (HACC) elements, 33–70 MB each — several times the host's
/// last-level cache, so the codecs stream from memory.
const SCALE: usize = 16;

/// Elements per chunk: large, so per-chunk overheads stay small.
const CHUNK_ELEMENTS: usize = 262_144;

/// Timed passes per run at least (the run goes on while time is left).
const MIN_PASSES: usize = 3;

/// Times each container is opened and indexed per field and pass, as a
/// restarting rank does before it reads.
const OPENS: usize = 256;

/// Operations per field and pass: the dump, both restarts and the opens.
const OPS_PER_FIELD: u64 = 3 + OPENS as u64;

/// Chunks per field the traced run replays stage by stage.
const REPLAY_CHUNKS: usize = 4;

struct FieldSpec {
    dataset: Dataset,
    eb: f64,
}

const FIELDS: [FieldSpec; 3] = [
    FieldSpec {
        dataset: Dataset::Nyx,
        eb: 1e-3,
    },
    FieldSpec {
        dataset: Dataset::CesmAtm,
        eb: 1e-4,
    },
    FieldSpec {
        dataset: Dataset::Hacc,
        eb: 1e-3,
    },
];

fn key(spec: &FieldSpec, seed: u64) -> String {
    format!("{}-s{SCALE}-{seed}", spec.dataset.name())
}

/// What one field's dump and two restarts did.
struct FieldRun {
    raw_bytes: u64,
    container_bytes: u64,
    dump_s: f64,
    restart_s: f64,
    streamed_s: f64,
    /// Seconds of all [`OPENS`] opens.
    open_s: f64,
    dump: StreamOutcome,
    restart: RestartOutcome,
    streamed: RestartOutcome,
}

/// A [`ChunkSink`] that records an `io.write` span around every write.
struct TracedSink {
    inner: FileSink,
    parent: Option<SpanId>,
    op: u64,
}

impl ChunkSink for TracedSink {
    fn write_header(&mut self, bytes: &[u8]) -> io::Result<()> {
        let _s = spans::child_of("io.write", self.parent, self.op);
        self.inner.write_header(bytes)
    }

    fn write_chunk(&mut self, seq: usize, bytes: &[u8]) -> io::Result<()> {
        let _s = spans::child_of("io.write", self.parent, self.op);
        self.inner.write_chunk(seq, bytes)
    }
}

/// A [`ChunkSource`] that records an `io.read` span around every read.
struct TracedSource {
    inner: FileSource,
    parent: Option<SpanId>,
    op: u64,
}

impl ChunkSource for TracedSource {
    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        let _s = spans::child_of("io.read", self.parent, self.op);
        self.inner.read_at(offset, buf)
    }
}

/// A forward-only reader that records an `io.read` span around every read.
struct TracedReader {
    inner: File,
    parent: Option<SpanId>,
    op: u64,
}

impl io::Read for TracedReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let _s = spans::child_of("io.read", self.parent, self.op);
        self.inner.read(buf)
    }
}

fn pipeline_config(eb: f64) -> PipelineConfig {
    PipelineConfig {
        compressor: Compressor::Sz,
        bound: BoundSpec::Absolute(eb),
        chunk_elements: CHUNK_ELEMENTS,
        compress_threads: THREADS,
        wire_format: true,
        policy: PolicyKind::Fixed,
        ..PipelineConfig::default()
    }
}

fn restart_config() -> RestartConfig {
    RestartConfig {
        workers: THREADS,
        ..RestartConfig::default()
    }
}

/// Dump `data` to `path`, then restart it both ways. Returns the run and
/// both restored arrays.
fn field_ops(
    data: &[f32],
    eb: f64,
    path: &Path,
    op: u64,
) -> Result<(FieldRun, Vec<f32>, Vec<f32>), String> {
    let _field = spans::span("checkpoint.field", op);

    let t0 = Instant::now();
    let dump = {
        let call = spans::span("core.run_streaming", op);
        let file = FileSink::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
        let mut sink = TracedSink {
            inner: file,
            parent: call.id(),
            op,
        };
        let outcome = run_streaming(data, &pipeline_config(eb), &mut sink)
            .map_err(|e| format!("dump: {e}"))?;
        let _commit = spans::child_of("io.write", call.id(), op);
        sink.inner.commit().map_err(|e| format!("commit: {e}"))?;
        outcome
    };
    let dump_s = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let (restored, restart) = {
        let call = spans::span("core.run_restart", op);
        let file = FileSource::open(path).map_err(|e| format!("open: {e}"))?;
        let source = TracedSource {
            inner: file,
            parent: call.id(),
            op,
        };
        run_restart(&source, &restart_config()).map_err(|e| format!("restart: {e}"))?
    };
    let restart_s = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let (streamed_data, streamed) = {
        let call = spans::span("core.run_restart_streamed", op);
        let file = File::open(path).map_err(|e| format!("open: {e}"))?;
        let mut reader = TracedReader {
            inner: file,
            parent: call.id(),
            op,
        };
        run_restart_streamed(&mut reader, &restart_config())
            .map_err(|e| format!("streamed restart: {e}"))?
    };
    let streamed_s = t0.elapsed().as_secs_f64();

    // Open the container and index its frames, the first step of every
    // restart, on its own.
    let t0 = Instant::now();
    let layouts = {
        let _call = spans::span("core.scan_stream", op);
        (0..OPENS)
            .map(|_| {
                let source = FileSource::open(path).map_err(|e| format!("open: {e}"))?;
                scan_stream(&source).map_err(|e| format!("scan: {e}"))
            })
            .collect::<Result<Vec<_>, String>>()?
    };
    let open_s = t0.elapsed().as_secs_f64();
    let chunks = data.len().div_ceil(CHUNK_ELEMENTS);
    if let Some(l) = layouts
        .iter()
        .find(|l| l.elements != data.len() || l.chunks() != chunks)
    {
        return Err(format!(
            "scan found {} elements in {} chunks, dumped {} in {chunks}",
            l.elements,
            l.chunks(),
            data.len()
        ));
    }

    let run = FieldRun {
        raw_bytes: dump.bytes_in,
        container_bytes: dump.bytes_out,
        dump_s,
        restart_s,
        streamed_s,
        open_s,
        dump,
        restart,
        streamed,
    };
    Ok((run, restored, streamed_data))
}

/// The oracle: both restart paths agree bit for bit, and every restored
/// element is within the bound of the original.
fn check(orig: &[f32], restored: &[f32], streamed: &[f32], eb: f64) -> Result<(), String> {
    if restored.len() != orig.len() || streamed.len() != orig.len() {
        return Err(format!(
            "restored {} / streamed {} elements, dumped {}",
            restored.len(),
            streamed.len(),
            orig.len()
        ));
    }
    if restored
        .iter()
        .zip(streamed)
        .any(|(a, b)| a.to_bits() != b.to_bits())
    {
        return Err("the two restart paths returned different arrays".into());
    }
    if let Some(i) = orig
        .iter()
        .zip(restored)
        .position(|(&a, &b)| (f64::from(a) - f64::from(b)).abs() > eb)
    {
        return Err(format!(
            "element {i}: |{} - {}| > {eb}",
            orig[i], restored[i]
        ));
    }
    Ok(())
}

/// One pass: every field dumped and restarted both ways, then checked.
struct Pass {
    fields: Vec<FieldRun>,
    failed: u64,
    errors: Vec<String>,
}

impl Pass {
    fn sum(&self, f: impl Fn(&FieldRun) -> f64) -> f64 {
        self.fields.iter().map(f).sum()
    }

    fn raw_mb(&self) -> f64 {
        self.sum(|r| r.raw_bytes as f64) / 1e6
    }

    fn op_secs(&self) -> f64 {
        self.sum(|r| r.dump_s + r.restart_s + r.streamed_s)
    }
}

fn pass(fields: &[Vec<f32>], work: &Path, next_op: &mut u64) -> Pass {
    let mut p = Pass {
        fields: Vec::new(),
        failed: 0,
        errors: Vec::new(),
    };
    for (spec, data) in FIELDS.iter().zip(fields) {
        *next_op += 1;
        let path = work.join(format!("{}.lcw", spec.dataset.name()));
        let result =
            field_ops(data, spec.eb, &path, *next_op).and_then(|(run, restored, streamed)| {
                check(data, &restored, &streamed, spec.eb).map(|()| run)
            });
        match result {
            Ok(run) => p.fields.push(run),
            Err(e) => {
                p.failed += OPS_PER_FIELD;
                p.errors.push(format!("{}: {e}", spec.dataset.name()));
            }
        }
        let _ = std::fs::remove_file(&path);
    }
    p
}

/// Modeled joules per raw GB of dumping and restarting every field at the
/// paper's Eqn-3 frequencies, priced from the codec statistics of a pass.
fn model_j_per_gb(p: &Pass) -> f64 {
    let machine = Machine::for_chip(Chip::Broadwell);
    let fmax = machine.cpu.f_max_ghz;
    let f_comp = machine
        .cpu
        .snap(TuningRule::PAPER.compression_fraction * fmax);
    let f_io = machine.cpu.snap(TuningRule::PAPER.writing_fraction * fmax);
    let cost = CostModel::default();
    let depth = PipelineConfig::default().queue_depth;
    let joules: f64 = p
        .fields
        .iter()
        .map(|r| {
            let bytes = r.raw_bytes as f64;
            let stats = &r.dump.stats;
            scaled_overlap(
                &machine,
                f_comp,
                f_io,
                &cost,
                Compressor::Sz,
                stats,
                bytes,
                depth,
            )
            .total_j()
                + scaled_restart(
                    &machine,
                    f_io,
                    f_comp,
                    &cost,
                    Compressor::Sz,
                    stats,
                    bytes,
                    depth,
                )
                .total_j()
        })
        .sum();
    joules / (p.raw_mb() / 1e3)
}

fn load_fields(cache: &Cache, seed: u64) -> Result<Vec<Vec<f32>>, String> {
    FIELDS
        .iter()
        .map(|f| cache.load(&key(f, seed)).map_err(|e| e.to_string()))
        .collect()
}

/// Generate any field missing from the cache, two at a time.
pub fn generate(seed: u64) -> Result<(), String> {
    let cache = Cache::new(Path::new(".cache"));
    let gen = |spec: &FieldSpec| {
        cache
            .ensure(&key(spec, seed), || spec.dataset.generate(SCALE, seed).data)
            .map_err(|e| format!("caching {}: {e}", spec.dataset.name()))
    };
    std::thread::scope(|s| {
        // NYX alone takes about as long as the other two together.
        let nyx = s.spawn(|| gen(&FIELDS[0]));
        let rest = gen(&FIELDS[1]).and_then(|()| gen(&FIELDS[2]));
        nyx.join().expect("generator thread").and(rest)
    })
}

pub fn run(o: &Opts) -> Result<Outcome, String> {
    let cache = Cache::new(Path::new(".cache"));
    let work = PathBuf::from(".work");
    std::fs::create_dir_all(&work).map_err(|e| format!("work dir: {e}"))?;

    // Set-up is loading and verifying the cached fields.
    let mut setup = Vec::new();
    let mut fields = Vec::new();
    for _ in 0..SETUP_REPS {
        drop(std::mem::take(&mut fields));
        let t0 = Instant::now();
        fields = load_fields(&cache, o.seed)?;
        setup.push(t0.elapsed().as_secs_f64());
    }

    let mut next_op = 0;
    let warm = pass(&fields, &work, &mut next_op);
    let mut out = Outcome {
        correct: warm.errors.is_empty(),
        ..Outcome::default()
    };
    for e in &warm.errors {
        eprintln!("checkpoint warm-up: {e}");
    }

    let mut passes: Vec<(Pass, bool)> = Vec::new();
    let t0 = Instant::now();
    while passes.len() < MIN_PASSES + usize::from(o.trace) || t0.elapsed().as_secs_f64() < o.seconds
    {
        // The traced run alternates traced and untraced passes; their
        // difference is the tracing overhead.
        let traced = o.trace && passes.len().is_multiple_of(2);
        spans::set_enabled(traced);
        let p = pass(&fields, &work, &mut next_op);
        spans::set_enabled(false);
        for e in &p.errors {
            eprintln!("checkpoint: {e}");
        }
        out.correct &= p.errors.is_empty();
        out.attempted += OPS_PER_FIELD * FIELDS.len() as u64;
        out.failed += p.failed;
        passes.push((p, traced));
    }
    let _ = std::fs::remove_dir_all(&work);
    let ok: Vec<&Pass> = passes
        .iter()
        .map(|(p, _)| p)
        .filter(|p| p.fields.len() == FIELDS.len())
        .collect();
    let first = *ok.first().ok_or("no pass completed")?;
    eprintln!(
        "checkpoint: {} passes of {:.1} MB, pass median {:.2} s",
        passes.len(),
        first.raw_mb(),
        median(&ok.iter().map(|p| p.op_secs()).collect::<Vec<_>>())
    );

    let per_pass = |f: &dyn Fn(&Pass) -> f64| median(&ok.iter().map(|p| f(p)).collect::<Vec<_>>());
    if !o.trace {
        let latencies = per_op_medians(
            &ok.iter()
                .map(|p| {
                    p.fields
                        .iter()
                        .flat_map(|r| [r.dump_s, r.restart_s, r.streamed_s])
                        .map(|s| s * 1e3)
                        .collect()
                })
                .collect::<Vec<_>>(),
        );
        out.metrics = BTreeMap::from([
            ("setup_s", median(&setup)),
            ("dump_mb_s", per_pass(&|p| p.raw_mb() / p.sum(|r| r.dump_s))),
            (
                "restart_mb_s",
                per_pass(&|p| p.raw_mb() / p.sum(|r| r.restart_s)),
            ),
            (
                "restart_streamed_mb_s",
                per_pass(&|p| p.raw_mb() / p.sum(|r| r.streamed_s)),
            ),
            (
                "ratio",
                first.sum(|r| r.raw_bytes as f64) / first.sum(|r| r.container_bytes as f64),
            ),
            ("model_j_per_gb", model_j_per_gb(first)),
            (
                "req_s",
                per_pass(&|p| (OPENS * p.fields.len()) as f64 / p.sum(|r| r.open_s)),
            ),
            ("p50_ms", percentile(&latencies, 0.50)),
            ("p99_ms", percentile(&latencies, 0.99)),
        ]);
        return Ok(out);
    }

    let traced: Vec<&Pass> = passes
        .iter()
        .filter(|(p, t)| *t && p.fields.len() == FIELDS.len())
        .map(|(p, _)| p)
        .collect();
    let untraced: Vec<&Pass> = passes
        .iter()
        .filter(|(p, t)| !*t && p.fields.len() == FIELDS.len())
        .map(|(p, _)| p)
        .collect();
    let time_of = |ps: &[&Pass]| median(&ps.iter().map(|p| p.op_secs()).collect::<Vec<_>>());
    let spans = spans::finish("checkpoint")?;
    let items: Vec<replay::Item> = FIELDS
        .iter()
        .zip(&fields)
        .flat_map(|(spec, data)| {
            data.chunks(CHUNK_ELEMENTS)
                .take(REPLAY_CHUNKS)
                .map(|c| replay::Item {
                    data: c,
                    eb: spec.eb,
                })
        })
        .collect();
    let replayed = replay::run(&items).map_err(|e| format!("replay: {e}"))?;
    let paper = paper::replay(o.seed, &work).map_err(|e| format!("paper: {e}"))?;
    let _ = std::fs::remove_dir_all(&work);
    let restart_busy = |r: &FieldRun| r.restart.decode_busy_s + r.streamed.decode_busy_s;
    let restart_wall = |r: &FieldRun| r.restart.wall_s + r.streamed.wall_s;
    let traced_passes = traced.len().max(1) as f64;
    out.metrics = replayed;
    out.metrics.extend(paper);
    out.metrics.extend([
        (
            "core.dump.compress_busy_s",
            per_pass(&|p| p.sum(|r| r.dump.compress_busy_s)),
        ),
        (
            "core.dump.idle_frac",
            per_pass(&|p| {
                1.0 - p.sum(|r| r.dump.compress_busy_s)
                    / (THREADS as f64 * p.sum(|r| r.dump.wall_s))
            }),
        ),
        (
            "core.restart.decode_busy_s",
            per_pass(&|p| p.sum(restart_busy)),
        ),
        (
            "core.restart.idle_frac",
            per_pass(&|p| 1.0 - p.sum(restart_busy) / (THREADS as f64 * p.sum(restart_wall))),
        ),
        (
            "core.restart.peak_buffered_mb",
            per_pass(&|p| {
                p.fields
                    .iter()
                    .map(|r| r.streamed.peak_buffered_bytes)
                    .max()
                    .unwrap_or(0) as f64
                    / 1e6
            }),
        ),
        (
            "io.write_s",
            spans::total_secs(&spans, "io.write") / traced_passes,
        ),
        (
            "io.read_s",
            spans::total_secs(&spans, "io.read") / traced_passes,
        ),
        (
            "unattributed_frac",
            spans::unattributed_frac(&spans, "checkpoint.field"),
        ),
        (
            "trace.overhead_frac",
            time_of(&traced) / time_of(&untraced) - 1.0,
        ),
    ]);
    Ok(out)
}

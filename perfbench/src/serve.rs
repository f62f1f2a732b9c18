//! `serve`: a closed loop of client connections against an in-process
//! server on a Unix socket.
//!
//! HPC ranks wait for each reply, so the loop is closed: a connection
//! sends its next request only when the previous one is answered. 64 KiB
//! requests make per-request costs dominate — planner sampling, shard
//! handoff, framing and codec set-up — the opposite of `checkpoint`. The
//! adaptive half of the compress requests brings in the planner and the
//! ZFP arms; dumps to files, file restarts and the sweep are bypassed.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use lcpio_codec::policy::CodecId;
use lcpio_codec::{registry, BoundSpec};
use lcpio_core::pipeline::{decode_stream, run_sequential, PipelineConfig, VecSink};
use lcpio_core::policy::interleaved_cesm_hacc;
use lcpio_core::{Compressor, PolicyKind};
use lcpio_serve::protocol::status;
use lcpio_serve::{Client, CompressOptions, Endpoint, Response, ServeConfig, Server};

use crate::inputs::Cache;
use crate::spans;
use crate::stats::{median, percentile, samples_beyond, tail_is_supported};
use crate::{replay, Opts, Outcome, SETUP_REPS, THREADS};

/// Elements per request chunk (64 KiB of `f32`).
const CHUNK_ELEMENTS: usize = 16 * 1024;

/// Distinct chunks the requests cycle through (alternating CESM, HACC).
/// Enough that a run's rates do not hang on how fast the few chunks its
/// seed drew happen to compress.
const DISTINCT: usize = 64;

/// Absolute error bound of every compress request.
const EB: f64 = 1e-3;

/// Requests per connection in one period of the op mix (k mod 3 and
/// k mod 7 repeat every 21 requests).
const PERIOD: usize = 21;

/// Segments the timed closed loop is split into. Every segment runs on a
/// freshly bound server with fresh connections, so the threads land anew
/// on the host's CPUs. The rates and latency percentiles are medians over
/// segments, so neither one unlucky placement nor a few seconds of
/// contention from other tenants of the host can set a run's figure.
const SEGMENTS: usize = 5;

/// Requests each connection sends in a segment at least, so that a
/// segment leaves ten samples beyond its p99 even when the host is slow.
const MIN_CONN_SAMPLES: usize = 550;

/// Times the traced run replays the distinct chunks stage by stage.
const REPLAY_REPEAT: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    Compress,
    /// Decompress of a single-chunk registry container.
    Decompress,
    /// Decompress of an `LCW1` streaming container (core's stream decoder).
    DecompressStream,
    Info,
}

impl Kind {
    fn span_name(self) -> &'static str {
        match self {
            Kind::Compress => "serve.compress",
            Kind::Decompress => "serve.decompress",
            Kind::DecompressStream => "serve.decompress_stream",
            Kind::Info => "serve.info",
        }
    }
}

/// One answered request, as the client saw it.
struct Sample {
    kind: Kind,
    /// Which of the distinct chunks the request carried.
    idx: usize,
    /// Whether a compress asked for the adaptive policy.
    adaptive: bool,
    client_us: f64,
    service_us: f64,
    status: u8,
    energy_uj: u64,
    /// Raw bytes sent (compress) or restored (decompress).
    raw_bytes: u64,
    payload_bytes: u64,
}

/// The request chunks and the containers the decompress share sends, with
/// the bytes a correct decompress response must carry.
struct Prepared {
    chunks: Vec<Vec<f32>>,
    registry: Vec<Vec<u8>>,
    stream: Vec<Vec<u8>>,
    registry_expect: Vec<Vec<u8>>,
    stream_expect: Vec<Vec<u8>>,
}

fn le_bytes(values: &[f32]) -> Vec<u8> {
    values.iter().flat_map(|v| v.to_le_bytes()).collect()
}

fn within(orig: &[f32], got: &[f32]) -> bool {
    orig.len() == got.len()
        && orig
            .iter()
            .zip(got)
            .all(|(&a, &b)| (f64::from(a) - f64::from(b)).abs() <= EB)
}

fn key(seed: u64) -> String {
    format!("serve-cesm-hacc-{CHUNK_ELEMENTS}x{DISTINCT}-{seed}")
}

/// Generate the request chunks if they are missing from the cache.
pub fn generate(seed: u64) -> Result<(), String> {
    let key = key(seed);
    Cache::new(Path::new(".cache"))
        .ensure(&key, || {
            interleaved_cesm_hacc(CHUNK_ELEMENTS, DISTINCT, seed)
        })
        .map_err(|e| format!("caching {key}: {e}"))
}

fn prepare(cache: &Cache, seed: u64) -> Result<Prepared, String> {
    let stream = cache.load(&key(seed)).map_err(|e| e.to_string())?;
    let chunks: Vec<Vec<f32>> = stream.chunks(CHUNK_ELEMENTS).map(<[f32]>::to_vec).collect();
    let sz = registry().by_name("sz").ok_or("sz codec not registered")?;
    let mut p = Prepared {
        chunks: Vec::new(),
        registry: Vec::new(),
        stream: Vec::new(),
        registry_expect: Vec::new(),
        stream_expect: Vec::new(),
    };
    for chunk in &chunks {
        let container = sz
            .compress(chunk, &[chunk.len()], BoundSpec::Absolute(EB))
            .map_err(|e| format!("pre-compress: {e}"))?
            .bytes;
        let (restored, _) = sz
            .decompress(&container, 1)
            .map_err(|e| format!("reference decode: {e}"))?;
        let cfg = PipelineConfig {
            compressor: Compressor::Sz,
            bound: BoundSpec::Absolute(EB),
            chunk_elements: CHUNK_ELEMENTS,
            compress_threads: 1,
            wire_format: true,
            ..PipelineConfig::default()
        };
        let mut sink = VecSink::default();
        run_sequential(chunk, &cfg, &mut sink).map_err(|e| format!("pre-compress stream: {e}"))?;
        let streamed =
            decode_stream(&sink.bytes).map_err(|e| format!("reference stream decode: {e}"))?;
        if !within(chunk, &restored) || !within(chunk, &streamed) {
            return Err("reference decode broke the error bound".into());
        }
        p.registry.push(container);
        p.registry_expect.push(le_bytes(&restored));
        p.stream.push(sink.bytes);
        p.stream_expect.push(le_bytes(&streamed));
    }
    p.chunks = chunks;
    Ok(p)
}

/// One connection's position in the op mix, which follows the service's
/// own load driver: request k is a decompress when k mod 3 = 2, else an
/// info when k mod 7 = 6, else a compress. Decompresses alternate between
/// registry and stream containers, compresses between the fixed and
/// adaptive policies. The position carries over from one segment's
/// connection to the next.
struct Mix {
    k: usize,
    decompresses: usize,
    compresses: usize,
}

impl Mix {
    fn new(conn: usize) -> Mix {
        Mix {
            k: conn,
            decompresses: 0,
            compresses: 0,
        }
    }

    fn next(&mut self) -> (Kind, usize, PolicyKind) {
        let k = self.k;
        self.k += THREADS;
        let idx = k % DISTINCT;
        if k % 3 == 2 {
            self.decompresses += 1;
            let kind = if self.decompresses.is_multiple_of(2) {
                Kind::Decompress
            } else {
                Kind::DecompressStream
            };
            (kind, idx, PolicyKind::Fixed)
        } else if k % 7 == 6 {
            (Kind::Info, idx, PolicyKind::Fixed)
        } else {
            self.compresses += 1;
            let policy = if self.compresses.is_multiple_of(2) {
                PolicyKind::Fixed
            } else {
                PolicyKind::Adaptive
            };
            (Kind::Compress, idx, policy)
        }
    }
}

struct Conn {
    client: Client,
    mix: Mix,
}

impl Conn {
    /// Send one request and check the answer. `Err` is a transport failure
    /// (the connection is unusable); a wrong answer is `Ok` with `false`.
    /// An answered compress hands back its container, which is checked
    /// after the timed loop (see [`check_compressed`]).
    fn request(&mut self, p: &Prepared) -> Result<(Sample, bool, Option<Vec<u8>>), String> {
        let (kind, idx, policy) = self.mix.next();
        let _s = spans::span(kind.span_name(), self.mix.k as u64);
        let chunk = &p.chunks[idx];
        let t0 = Instant::now();
        let resp: Response = match kind {
            Kind::Compress => {
                let opts = CompressOptions {
                    codec: Some(CodecId::Sz),
                    bound: Some(BoundSpec::Absolute(EB)),
                    policy: Some(policy),
                };
                self.client.compress(chunk, &[chunk.len()], opts)
            }
            Kind::Decompress => self.client.decompress(&p.registry[idx]),
            Kind::DecompressStream => self.client.decompress(&p.stream[idx]),
            Kind::Info => self.client.info(&p.registry[idx]),
        }
        .map_err(|e| e.to_string())?;
        let client_us = t0.elapsed().as_secs_f64() * 1e6;
        let ok = resp.status == status::OK;
        let correct = !ok
            || match kind {
                Kind::Compress => resp.codec.is_some(),
                Kind::Decompress => resp.payload == p.registry_expect[idx],
                Kind::DecompressStream => resp.payload == p.stream_expect[idx],
                Kind::Info => !resp.message.is_empty(),
            };
        let raw_bytes = match kind {
            Kind::Compress => chunk.len() as u64 * 4,
            Kind::Decompress | Kind::DecompressStream => resp.payload.len() as u64,
            Kind::Info => 0,
        };
        let sample = Sample {
            kind,
            idx,
            adaptive: policy == PolicyKind::Adaptive,
            client_us,
            service_us: resp.latency_us as f64,
            status: resp.status,
            energy_uj: resp.energy_uj,
            raw_bytes,
            payload_bytes: resp.payload.len() as u64,
        };
        let container = (ok && kind == Kind::Compress).then_some(resp.payload);
        Ok((sample, correct, container))
    }
}

/// What the connections observed over one phase of the loop.
#[derive(Default)]
struct Phase {
    samples: Vec<Sample>,
    /// Every distinct container a compress answered, with the chunk it
    /// was made from.
    compressed: Vec<(usize, Vec<u8>)>,
    wall_s: f64,
    /// Requests per second of connection time, summed over connections:
    /// each connection's count over its summed client-observed latency.
    /// The client's own bookkeeping and response checks fall outside it.
    req_s: f64,
    wrong: u64,
    errors: Vec<String>,
}

/// Run every connection in a closed loop until `stop` says so.
fn closed_loop(
    conns: &mut [Conn],
    p: &Prepared,
    stop: &(dyn Fn(usize, Instant) -> bool + Sync),
) -> Phase {
    let t0 = Instant::now();
    type Seen = (Vec<Sample>, Vec<(usize, Vec<u8>)>, u64, Option<String>);
    let per_conn: Vec<Seen> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|conn| {
                s.spawn(move || {
                    let _root = spans::span("serve.client", 0);
                    let (mut samples, mut compressed, mut wrong) = (Vec::new(), Vec::new(), 0);
                    while !stop(samples.len(), t0) {
                        match conn.request(p) {
                            Ok((sample, correct, container)) => {
                                wrong += u64::from(!correct);
                                if let Some(c) = container {
                                    remember(&mut compressed, sample.idx, c);
                                }
                                samples.push(sample);
                            }
                            Err(e) => return (samples, compressed, wrong, Some(e)),
                        }
                    }
                    (samples, compressed, wrong, None)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut phase = Phase {
        wall_s: t0.elapsed().as_secs_f64(),
        ..Phase::default()
    };
    for (samples, compressed, wrong, error) in per_conn {
        let busy_s: f64 = samples.iter().map(|s| s.client_us / 1e6).sum();
        if busy_s > 0.0 {
            phase.req_s += samples.len() as f64 / busy_s;
        }
        phase.samples.extend(samples);
        for (idx, c) in compressed {
            remember(&mut phase.compressed, idx, c);
        }
        phase.wrong += wrong;
        phase.errors.extend(error);
    }
    phase
}

/// Keep `container` unless an equal one made from the same chunk is kept.
fn remember(kept: &mut Vec<(usize, Vec<u8>)>, idx: usize, container: Vec<u8>) {
    if !kept.iter().any(|(i, c)| *i == idx && *c == container) {
        kept.push((idx, container));
    }
}

/// The compress oracle: every distinct container a compress answered
/// decodes to its chunk within the error bound.
fn check_compressed(p: &Prepared, compressed: &[(usize, Vec<u8>)]) -> bool {
    compressed.iter().all(
        |(idx, container)| match registry().decompress_auto(container, 1) {
            Ok((restored, _)) if within(&p.chunks[*idx], &restored) => true,
            Ok(_) => {
                eprintln!("serve: a compress of chunk {idx} broke the error bound");
                false
            }
            Err(e) => {
                eprintln!("serve: a compress of chunk {idx} does not decode: {e}");
                false
            }
        },
    )
}

/// Whether every request of `ph` got through and was answered right; the
/// transport errors are printed.
fn answered_right(ph: &Phase) -> bool {
    for e in &ph.errors {
        eprintln!("serve: {e}");
    }
    ph.errors.is_empty() && ph.wrong == 0
}

/// A fresh connection, checked with a ping.
fn connect(endpoint: &Endpoint) -> Result<Client, String> {
    let mut client = Client::connect(endpoint).map_err(|e| format!("connect: {e}"))?;
    match client.ping() {
        Ok(true) => Ok(client),
        Ok(false) => Err("ping refused".into()),
        Err(e) => Err(format!("ping: {e}")),
    }
}

/// Bind a server and connect one client per op-mix position.
fn start(mixes: Vec<Mix>) -> Result<(Server, Vec<Conn>), String> {
    std::fs::create_dir_all(".work").map_err(|e| format!("work dir: {e}"))?;
    let server = Server::bind(
        &Endpoint::Unix(Path::new(".work").join("serve.sock")),
        ServeConfig {
            workers: THREADS,
            ..ServeConfig::default()
        },
    )
    .map_err(|e| format!("bind: {e}"))?;
    let conns = mixes
        .into_iter()
        .map(|mix| {
            Ok(Conn {
                client: connect(server.endpoint())?,
                mix,
            })
        })
        .collect::<Result<_, String>>()?;
    Ok((server, conns))
}

/// Close the connections and drain the server; the op-mix positions are
/// handed back for the next server.
fn stop_server(server: Server, conns: Vec<Conn>) -> Vec<Mix> {
    let mixes = conns.into_iter().map(|c| c.mix).collect();
    server.shutdown();
    server.wait();
    mixes
}

fn sum_where(samples: &[&Sample], kind: Kind, f: impl Fn(&Sample) -> f64) -> f64 {
    samples
        .iter()
        .filter(|s| s.kind == kind && s.status == status::OK)
        .map(|s| f(s))
        .sum()
}

fn mb_per_s(samples: &[&Sample], kind: Kind) -> f64 {
    let mb = sum_where(samples, kind, |s| s.raw_bytes as f64) / 1e6;
    mb / (sum_where(samples, kind, |s| s.client_us) / 1e6)
}

pub fn run(o: &Opts) -> Result<Outcome, String> {
    let cache = Cache::new(Path::new(".cache"));

    // Set-up: load and check the chunks, pre-compress the decompress
    // share, bind the server, connect and ping. The last one is kept.
    let mut setup = Vec::new();
    let mut running = None;
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        if let Some((server, conns)) = running.take() {
            stop_server(server, conns);
        }
        let t0 = Instant::now();
        let p = prepare(&cache, o.seed)?;
        running = Some(start((0..THREADS).map(Mix::new).collect())?);
        setup.push(t0.elapsed().as_secs_f64());
        prepared = Some(p);
    }
    let (server, mut conns) = running.expect("at least one set-up");
    let p = prepared.expect("at least one set-up");

    // Warm-up: two op-mix periods per connection, checked, untimed.
    let warm = closed_loop(&mut conns, &p, &|n, _| n >= 2 * PERIOD);
    let mut out = Outcome {
        correct: answered_right(&warm) && check_compressed(&p, &warm.compressed),
        ..Outcome::default()
    };

    let (phases, checked) = segments(o, stop_server(server, conns), &p)?;
    let _ = std::fs::remove_dir_all(".work");
    out.correct &= checked;

    for (ph, _) in &phases {
        out.correct &= answered_right(ph) && check_compressed(&p, &ph.compressed);
        // A refused (BUSY) or failed request counts as failed.
        out.attempted += (ph.samples.len() + ph.errors.len()) as u64;
        out.failed +=
            (ph.samples.iter().filter(|s| s.status != status::OK).count() + ph.errors.len()) as u64;
    }
    let samples: Vec<&Sample> = phases.iter().flat_map(|(ph, _)| &ph.samples).collect();
    let wall: f64 = phases.iter().map(|(ph, _)| ph.wall_s).sum();
    eprintln!(
        "serve: {} requests over {wall:.2} s on {THREADS} connections, {SEGMENTS} segments",
        samples.len()
    );

    if !o.trace {
        let fewest = phases
            .iter()
            .map(|(ph, _)| ph.samples.len())
            .min()
            .unwrap_or(0);
        let beyond = samples_beyond(fewest, 0.99);
        if !tail_is_supported(fewest, 0.99) {
            return Err(format!(
                "a segment of {fewest} requests leaves {beyond} beyond p99, fewer than ten; \
                 run longer"
            ));
        }
        eprintln!("serve: p99 per segment over at least {fewest} samples, {beyond} beyond it");
        let per_segment: Vec<_> = phases.iter().map(|(ph, _)| segment_rates(ph)).collect();
        out.metrics = per_request_metrics(&samples);
        out.metrics.extend(per_segment[0].keys().map(|&k| {
            (
                k,
                median(&per_segment.iter().map(|m| m[k]).collect::<Vec<_>>()),
            )
        }));
        out.metrics.insert("setup_s", median(&setup));
        return Ok(out);
    }

    let rate = |traced: bool| {
        median(
            &phases
                .iter()
                .filter(|(_, t)| *t == traced)
                .map(|(ph, _)| ph.req_s)
                .collect::<Vec<_>>(),
        )
    };
    let service_ms: Vec<f64> = samples.iter().map(|s| s.service_us / 1e3).collect();
    let wait_ms: Vec<f64> = samples
        .iter()
        .map(|s| (s.client_us - s.service_us).max(0.0) / 1e3)
        .collect();
    let spans = spans::finish("serve")?;
    let items: Vec<replay::Item> = (0..REPLAY_REPEAT)
        .flat_map(|_| p.chunks.iter().map(|c| replay::Item { data: c, eb: EB }))
        .collect();
    out.metrics = replay::run(&items).map_err(|e| format!("replay: {e}"))?;
    out.metrics.extend([
        ("serve.service_ms_p50", percentile(&service_ms, 0.50)),
        ("serve.service_ms_p99", percentile(&service_ms, 0.99)),
        ("serve.wait_ms_p50", percentile(&wait_ms, 0.50)),
        ("serve.wait_ms_p99", percentile(&wait_ms, 0.99)),
        (
            "serve.shard_util",
            service_ms.iter().sum::<f64>() / 1e3 / (THREADS as f64 * wall),
        ),
        (
            "serve.busy_rejected",
            samples.iter().filter(|s| s.status == status::BUSY).count() as f64,
        ),
        (
            "unattributed_frac",
            spans::unattributed_frac(&spans, "serve.client"),
        ),
        ("trace.overhead_frac", rate(false) / rate(true) - 1.0),
    ]);
    Ok(out)
}

/// The timed closed loop, split into [`SEGMENTS`] equal segments, each on
/// a freshly bound server after an untimed, checked warm-up of one op-mix
/// period per connection. The traced run alternates traced and untraced
/// segments; their rates give the tracing overhead. Returns the segments
/// and whether every warm-up answer was right.
fn segments(
    o: &Opts,
    mut mixes: Vec<Mix>,
    p: &Prepared,
) -> Result<(Vec<(Phase, bool)>, bool), String> {
    let secs = o.seconds / SEGMENTS as f64;
    let mut phases = Vec::new();
    let mut checked = true;
    for seg in 0..SEGMENTS {
        let (server, mut conns) = start(mixes)?;
        let warm = closed_loop(&mut conns, p, &|n, _| n >= PERIOD);
        checked &= answered_right(&warm) && check_compressed(p, &warm.compressed);
        let traced = o.trace && seg.is_multiple_of(2);
        spans::set_enabled(traced);
        let ph = closed_loop(&mut conns, p, &|n, t0| {
            n >= MIN_CONN_SAMPLES && t0.elapsed().as_secs_f64() >= secs
        });
        spans::set_enabled(false);
        phases.push((ph, traced));
        mixes = stop_server(server, conns);
    }
    Ok((phases, checked))
}

/// One segment's rates and client-observed latency percentiles; the run
/// reports their median over segments.
fn segment_rates(ph: &Phase) -> BTreeMap<&'static str, f64> {
    let samples: Vec<&Sample> = ph.samples.iter().collect();
    let latencies: Vec<f64> = samples.iter().map(|s| s.client_us / 1e3).collect();
    BTreeMap::from([
        ("p50_ms", percentile(&latencies, 0.50)),
        ("p99_ms", percentile(&latencies, 0.99)),
        ("dump_mb_s", mb_per_s(&samples, Kind::Compress)),
        ("restart_mb_s", mb_per_s(&samples, Kind::Decompress)),
        (
            "restart_streamed_mb_s",
            mb_per_s(&samples, Kind::DecompressStream),
        ),
        ("req_s", ph.req_s),
    ])
}

/// The compression ratio and the modeled energy. They depend on what was
/// asked, not on how fast it was answered, so each distinct request (op,
/// chunk, policy) counts once: neither the share of requests one
/// connection got through nor where the run was cut off moves them.
fn per_request_metrics(samples: &[&Sample]) -> BTreeMap<&'static str, f64> {
    let mut distinct: BTreeMap<(Kind, usize, bool), &Sample> = BTreeMap::new();
    for s in samples.iter().filter(|s| s.status == status::OK) {
        distinct.entry((s.kind, s.idx, s.adaptive)).or_insert(s);
    }
    let distinct: Vec<&Sample> = distinct.into_values().collect();
    let joules: f64 = distinct.iter().map(|s| s.energy_uj as f64 * 1e-6).sum();
    let raw_gb: f64 = distinct.iter().map(|s| s.raw_bytes as f64).sum::<f64>() / 1e9;
    let compressed_raw = sum_where(&distinct, Kind::Compress, |s| s.raw_bytes as f64);
    let compressed_out = sum_where(&distinct, Kind::Compress, |s| s.payload_bytes as f64);
    BTreeMap::from([
        ("ratio", compressed_raw / compressed_out),
        ("model_j_per_gb", joules / raw_gb),
    ])
}

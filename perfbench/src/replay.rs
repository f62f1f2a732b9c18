//! Stage replay for the traced run.
//!
//! After a workload's traced passes, the stage functions its layers use
//! are called once more, serially on one thread, on the same chunks: SZ
//! encode, the LZSS pass on its own, SZ decode, ZFP encode and decode, the
//! wire envelope's push decoder, and the adaptive planner. Each stage's
//! time is reported per raw MB.
//!
//! Encodes go through the codec registry, as everywhere outside the codec
//! crates, so SZ is encoded with its LZSS pass on. The LZSS pass is then
//! re-run alone on the payload it saw, recovered from the stream, and
//! `sz.encode_s_per_mb` is the full encode less that pass: the two SZ
//! stages add up to the cost of a full SZ encode.

use std::collections::BTreeMap;
use std::time::Instant;

use lcpio_codec::policy::{ChunkPolicy, CodecId};
use lcpio_codec::{registry, BoundSpec};
use lcpio_core::pipeline::{run_sequential, PipelineConfig, VecSink};
use lcpio_core::{Compressor, CostModel, ParetoAdaptive};
use lcpio_powersim::Chip;
use lcpio_sz::header::{Reader, FLAG_LOSSLESS, MAGIC};
use lcpio_sz::lossless;
use lcpio_wire::StreamDecoder;

/// Slice size the push decoder is fed in, like a socket or pipe read.
const FEED_BYTES: usize = 64 * 1024;

/// Frames per replayed wire stream (the chunk is split this many ways).
const FRAMES_PER_STREAM: usize = 4;

/// One chunk to replay and the absolute error bound it is coded at.
pub struct Item<'a> {
    pub data: &'a [f32],
    pub eb: f64,
}

fn secs<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = std::hint::black_box(f());
    (out, t0.elapsed().as_secs_f64())
}

fn within(orig: &[f32], got: &[f32], eb: f64) -> bool {
    orig.len() == got.len()
        && orig
            .iter()
            .zip(got)
            .all(|(&a, &b)| (f64::from(a) - f64::from(b)).abs() <= eb)
}

/// The payload an SZ stream's LZSS pass saw: the stream body, inflated
/// when the pass was kept.
fn lossless_input(stream: &[u8]) -> Result<Vec<u8>, String> {
    let bad = |e| format!("sz stream envelope: {e}");
    let mut r = Reader::new(stream);
    if r.bytes(MAGIC.len()).map_err(bad)? != MAGIC {
        return Err("sz stream has a foreign magic".into());
    }
    let flags = r.u8().map_err(bad)?;
    let len = usize::try_from(r.u64().map_err(bad)?).map_err(|_| "sz body too long")?;
    let body = r.bytes(len).map_err(bad)?;
    if flags & FLAG_LOSSLESS == 0 {
        return Ok(body.to_vec());
    }
    lossless::decompress(body).map_err(|e| format!("lzss: {e}"))
}

/// Replay every stage over `items`; `Err` names the first stage whose
/// output failed its check.
pub fn run(items: &[Item]) -> Result<BTreeMap<&'static str, f64>, String> {
    let sz = registry().by_name("sz").ok_or("sz codec not registered")?;
    let zfp = registry()
        .by_name("zfp")
        .ok_or("zfp codec not registered")?;
    let (mut sz_enc, mut lzss, mut sz_dec, mut zfp_enc, mut zfp_dec) = (0.0, 0.0, 0.0, 0.0, 0.0);
    let (mut feed, mut plan) = (0.0, 0.0);
    let (mut lzss_seen, mut lzss_saved) = (0u64, 0u64);
    let (mut raw_bytes, mut zfp_plans) = (0usize, 0usize);
    for (seq, item) in items.iter().enumerate() {
        let data = item.data;
        let dims = [data.len()];
        raw_bytes += data.len() * 4;
        let bound = BoundSpec::Absolute(item.eb);

        for (codec, enc_s, dec_s) in [
            (sz, &mut sz_enc, &mut sz_dec),
            (zfp, &mut zfp_enc, &mut zfp_dec),
        ] {
            let (enc, t) = secs(|| codec.compress(data, &dims, bound));
            *enc_s += t;
            let enc = enc.map_err(|e| format!("{} encode: {e}", codec.name()))?;
            let (dec, t) = secs(|| codec.decompress(&enc.bytes, 1));
            *dec_s += t;
            let (dec, _) = dec.map_err(|e| format!("{} decode: {e}", codec.name()))?;
            if !within(data, &dec, item.eb) {
                return Err(format!("{} decode broke the error bound", codec.name()));
            }
            if codec.name() == "sz" {
                let payload = lossless_input(&enc.bytes)?;
                let (z, t) = secs(|| lossless::compress(&payload));
                lzss += t;
                lzss_seen += payload.len() as u64;
                lzss_saved += payload.len().saturating_sub(z.len()) as u64;
            }
        }

        let wire = wire_stream(data, item.eb)?;
        let (frames, t) = secs(|| {
            let mut decoder = StreamDecoder::new();
            let mut frames = 0;
            for slice in wire.chunks(FEED_BYTES) {
                frames += decoder.feed(slice)?.len();
            }
            decoder.finish().map(|()| frames)
        });
        feed += t;
        let frames = frames.map_err(|e| format!("wire feed: {e}"))?;
        if frames != data.len().div_ceil(frame_elements(data.len())) {
            return Err(format!("wire feed returned {frames} frames"));
        }

        let policy = ParetoAdaptive::new(Chip::Broadwell, bound, CostModel::default());
        let (p, t) = secs(|| policy.plan(data, seq));
        plan += t;
        zfp_plans += usize::from(p.codec == CodecId::Zfp);
    }
    let mb = raw_bytes as f64 / 1e6;
    let n = items.len().max(1) as f64;
    Ok(BTreeMap::from([
        ("sz.encode_s_per_mb", (sz_enc - lzss).max(0.0) / mb),
        ("sz.lossless_s_per_mb", lzss / mb),
        (
            "sz.lossless_saved_frac",
            lzss_saved as f64 / lzss_seen.max(1) as f64,
        ),
        ("sz.decode_s_per_mb", sz_dec / mb),
        ("zfp.encode_s_per_mb", zfp_enc / mb),
        ("zfp.decode_s_per_mb", zfp_dec / mb),
        ("wire.feed_s_per_mb", feed / mb),
        ("policy.plan_ms_per_chunk", plan * 1e3 / n),
        ("policy.zfp_share", zfp_plans as f64 / n),
    ]))
}

fn frame_elements(len: usize) -> usize {
    len.div_ceil(FRAMES_PER_STREAM).max(1)
}

/// The chunk as an `LCW1` stream container of a few frames, as the
/// checkpoint path writes it.
fn wire_stream(data: &[f32], eb: f64) -> Result<Vec<u8>, String> {
    let cfg = PipelineConfig {
        compressor: Compressor::Sz,
        bound: BoundSpec::Absolute(eb),
        chunk_elements: frame_elements(data.len()),
        compress_threads: 1,
        wire_format: true,
        ..PipelineConfig::default()
    };
    let mut sink = VecSink::default();
    run_sequential(data, &cfg, &mut sink).map_err(|e| format!("wire stream: {e}"))?;
    Ok(sink.bytes)
}

//! Generated inputs, cached beside the benchmark and checked on load.
//!
//! Generating the scale-16 paper fields costs tens of seconds, so each
//! input is generated once per (dataset, scale, seed) key and stored under
//! `perfbench/.cache/` as little-endian `f32` with a digest. Loading
//! re-computes the digest; a mismatch (a torn or edited file) regenerates
//! the input instead of measuring on corrupt data.

use std::io::{self, Read as _, Write as _};
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 8] = b"LCPBIN01";
const HEADER: usize = 24;

/// 64-bit digest of a byte string (word-wise multiply-rotate).
pub fn digest(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0x243F_6A88_85A3_08D3 ^ bytes.len() as u64;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let w = u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
        h = (h ^ w).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29);
    }
    for &b in words.remainder() {
        h = (h ^ u64::from(b))
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(29);
    }
    h ^ (h >> 32)
}

fn to_bytes(values: &[f32]) -> Vec<u8> {
    values.iter().flat_map(|v| v.to_le_bytes()).collect()
}

/// The on-disk cache of generated inputs.
pub struct Cache {
    dir: PathBuf,
}

impl Cache {
    /// A cache rooted at `dir` (created on first store).
    pub fn new(dir: &Path) -> Cache {
        Cache {
            dir: dir.to_path_buf(),
        }
    }

    fn path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.f32"))
    }

    /// Make sure `key` is cached with a valid digest, generating it with
    /// `generate` if it is missing or fails its check.
    pub fn ensure(&self, key: &str, generate: impl FnOnce() -> Vec<f32>) -> io::Result<()> {
        if self.load(key).is_ok() {
            return Ok(());
        }
        let values = generate();
        self.store(key, &values)
    }

    fn store(&self, key: &str, values: &[f32]) -> io::Result<()> {
        std::fs::create_dir_all(&self.dir)?;
        let bytes = to_bytes(values);
        let tmp = self.dir.join(format!("{key}.f32.part"));
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(MAGIC)?;
        f.write_all(&(values.len() as u64).to_le_bytes())?;
        f.write_all(&digest(&bytes).to_le_bytes())?;
        f.write_all(&bytes)?;
        f.sync_all()?;
        drop(f);
        std::fs::rename(&tmp, self.path(key))
    }

    /// Load `key`, verifying its length and digest.
    pub fn load(&self, key: &str) -> io::Result<Vec<f32>> {
        let mut bytes = Vec::new();
        std::fs::File::open(self.path(key))?.read_to_end(&mut bytes)?;
        let bad = |why: &str| io::Error::new(io::ErrorKind::InvalidData, format!("{key}: {why}"));
        if bytes.len() < HEADER || &bytes[..8] != MAGIC {
            return Err(bad("not a cached input"));
        }
        let len = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
        let want = u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes"));
        let body = &bytes[HEADER..];
        if len.checked_mul(4) != Some(body.len() as u64) {
            return Err(bad("length does not match the header"));
        }
        if digest(body) != want {
            return Err(bad("digest mismatch"));
        }
        Ok(body
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4-byte chunk")))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_and_corruption_is_detected() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(".cache")
            .join(format!("test-{}", std::process::id()));
        let cache = Cache::new(&dir);
        let values: Vec<f32> = (0..1000).map(|i| i as f32 * 0.5).collect();
        cache.ensure("k", || values.clone()).expect("store");
        assert_eq!(cache.load("k").expect("load"), values);

        // Flip one payload bit: the digest check rejects the file and
        // `ensure` regenerates it.
        let path = cache.path("k");
        let mut bytes = std::fs::read(&path).expect("read");
        bytes[HEADER + 5] ^= 1;
        std::fs::write(&path, &bytes).expect("write");
        assert!(cache.load("k").is_err());
        cache.ensure("k", || values.clone()).expect("regenerate");
        assert_eq!(cache.load("k").expect("reload"), values);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}

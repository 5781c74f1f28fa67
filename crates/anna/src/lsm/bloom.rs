//! Per-SSTable bloom filters for negative-lookup short-circuiting.
//!
//! Each SSTable carries a bloom filter over its key set; a cold read probes
//! the filter before touching the table's sparse index or entry block, so a
//! key absent from a run costs a few hash probes instead of a disk read.
//! Sizing follows the classic bits-per-key formulation (the engine exposes
//! `bloom_bits_per_key`; Monkey's argument is that ~10 bits/key ≈ 1% false
//! positives is the sweet spot for the hot upper levels). `bits_per_key = 0`
//! disables the filter — the configuration the recovery benchmark uses as
//! its baseline side.
//!
//! Probes use double hashing (`g_i(x) = h1(x) + i·h2(x)`) over one 64-bit
//! key digest, the standard trick that gets `k` independent-enough hash
//! functions from two.

use cloudburst_lattice::codec::{put_u32, ByteReader, CodecError};

/// A serializable bloom filter over byte-string keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bloom {
    bits: Vec<u8>,
    nbits: u32,
    hashes: u32,
}

/// 64-bit FNV-1a, finalized with a splitmix64 avalanche so short keys still
/// spread across the whole filter.
pub(crate) fn digest(key: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in key {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    // splitmix64 finalizer
    h = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

impl Bloom {
    /// A filter over the keys whose [`digest`]s are given, sized at
    /// `bits_per_key`. Zero bits per key (or no keys) yields an
    /// always-maybe filter of zero bytes. Taking digests rather than keys
    /// lets a writer that streams its keys keep eight bytes per key.
    pub(crate) fn from_digests(digests: &[u64], bits_per_key: usize) -> Self {
        if bits_per_key == 0 || digests.is_empty() {
            return Self {
                bits: Vec::new(),
                nbits: 0,
                hashes: 0,
            };
        }
        let nbits = (digests.len() * bits_per_key).max(64) as u32;
        // k = bits_per_key * ln 2, clamped to a sane range.
        let hashes = ((bits_per_key as f64 * 0.69) as u32).clamp(1, 16);
        let mut filter = Self {
            bits: vec![0u8; nbits.div_ceil(8) as usize],
            nbits,
            hashes,
        };
        for &d in digests {
            filter.insert(d);
        }
        filter
    }

    fn insert(&mut self, d: u64) {
        let h1 = (d >> 32) as u32;
        let h2 = d as u32 | 1; // odd step so probes cycle the whole filter
        for i in 0..self.hashes {
            let bit = (h1.wrapping_add(i.wrapping_mul(h2))) % self.nbits;
            self.bits[(bit / 8) as usize] |= 1 << (bit % 8);
        }
    }

    /// Whether `key` *may* be present. `false` is definitive.
    pub fn may_contain(&self, key: &[u8]) -> bool {
        if self.nbits == 0 {
            return true; // disabled filter: always maybe
        }
        let d = digest(key);
        let h1 = (d >> 32) as u32;
        let h2 = d as u32 | 1;
        for i in 0..self.hashes {
            let bit = (h1.wrapping_add(i.wrapping_mul(h2))) % self.nbits;
            if self.bits[(bit / 8) as usize] & (1 << (bit % 8)) == 0 {
                return false;
            }
        }
        true
    }

    /// Serialized size in bytes.
    pub fn encoded_len(&self) -> usize {
        12 + self.bits.len()
    }

    /// Serialize: `[u32 nbits][u32 hashes][u32 nbytes][bit bytes]`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        put_u32(out, self.nbits);
        put_u32(out, self.hashes);
        put_u32(out, self.bits.len() as u32);
        out.extend_from_slice(&self.bits);
    }

    /// Deserialize a filter written by [`Bloom::encode`].
    pub fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let nbits = r.u32()?;
        let hashes = r.u32()?;
        let nbytes = r.u32()? as usize;
        let mut bits = vec![0u8; 0];
        bits.reserve_exact(nbytes.min(r.remaining()));
        for _ in 0..nbytes {
            bits.push(r.u8()?);
        }
        Ok(Self {
            bits,
            nbits,
            hashes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(keys: &[Vec<u8>], bits_per_key: usize) -> Bloom {
        let digests: Vec<u64> = keys.iter().map(|k| digest(k)).collect();
        Bloom::from_digests(&digests, bits_per_key)
    }

    fn keys(n: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| format!("user:{i}:profile").into_bytes())
            .collect()
    }

    #[test]
    fn no_false_negatives() {
        let ks = keys(500);
        let bloom = build(&ks, 10);
        for k in &ks {
            assert!(bloom.may_contain(k), "inserted key reported absent");
        }
    }

    #[test]
    fn false_positive_rate_is_low() {
        let ks = keys(1000);
        let bloom = build(&ks, 10);
        let mut fp = 0;
        let probes = 2000;
        for i in 0..probes {
            if bloom.may_contain(format!("absent:{i}").as_bytes()) {
                fp += 1;
            }
        }
        // ~1% expected at 10 bits/key; 5% is a generous determinism-safe cap.
        assert!(
            fp < probes / 20,
            "false-positive rate too high: {fp}/{probes}"
        );
    }

    #[test]
    fn disabled_filter_always_maybe() {
        let ks = keys(10);
        let bloom = build(&ks, 0);
        assert!(bloom.may_contain(b"anything"));
        assert_eq!(bloom.encoded_len(), 12);
    }

    #[test]
    fn roundtrip() {
        let ks = keys(64);
        let bloom = build(&ks, 8);
        let mut buf = Vec::new();
        bloom.encode(&mut buf);
        assert_eq!(buf.len(), bloom.encoded_len());
        let decoded = Bloom::decode(&mut ByteReader::new(&buf)).unwrap();
        assert_eq!(decoded, bloom);
    }

    #[test]
    fn truncated_decode_errors() {
        let ks = keys(64);
        let bloom = build(&ks, 8);
        let mut buf = Vec::new();
        bloom.encode(&mut buf);
        for cut in 0..buf.len() {
            assert!(Bloom::decode(&mut ByteReader::new(&buf[..cut])).is_err());
        }
    }
}

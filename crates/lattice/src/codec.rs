//! Durable byte codec for [`Capsule`]s and the primitives the storage
//! engine's on-disk formats are built from.
//!
//! The LSM tier (`cloudburst_anna::lsm`) persists lattice state in WAL
//! records and SSTable blocks. Everything on disk is encoded through this
//! module: little-endian fixed-width integers, length-prefixed byte strings,
//! and a tagged [`Capsule`] encoding that round-trips every lattice kind.
//!
//! Decoding is **total**: every read is bounds-checked and returns
//! [`CodecError`] instead of panicking, because the decoder's input is
//! whatever survived a crash — torn tails, truncated buffers, and bit rot
//! included. Framing-level integrity (CRCs) lives with the file formats; the
//! [`crc32`] helper is here so WAL and SSTable guard their frames the same
//! way.

use std::collections::BTreeMap;

use bytes::Bytes;

use crate::capsule::Capsule;
use crate::causal::CausalLattice;
use crate::key::Key;
use crate::lww::LwwLattice;
use crate::set::SetLattice;
use crate::timestamp::Timestamp;
use crate::traits::Lattice;
use crate::vector_clock::VectorClock;

/// Why a decode failed. Decoders never panic on malformed input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the announced content did.
    Truncated,
    /// An unknown capsule/record tag byte.
    BadTag(u8),
    /// A string field was not valid UTF-8.
    BadUtf8,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Truncated => f.write_str("buffer truncated"),
            Self::BadTag(t) => write!(f, "unknown tag byte {t:#04x}"),
            Self::BadUtf8 => f.write_str("invalid utf-8 in string field"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Append a `u8`.
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Append a `u32`, little-endian.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u64`, little-endian.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a length-prefixed byte string (`u32` length + raw bytes).
pub fn put_bytes(out: &mut Vec<u8>, v: &[u8]) {
    put_u32(out, v.len() as u32);
    out.extend_from_slice(v);
}

/// Append a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, v: &str) {
    put_bytes(out, v.as_bytes());
}

/// A bounds-checked cursor over an encoded buffer.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Current offset from the start of the buffer.
    pub fn pos(&self) -> usize {
        self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a `u8`.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        let s = self.take(4)?;
        Ok(u32::from_le_bytes(s.try_into().expect("4-byte slice")))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        let s = self.take(8)?;
        Ok(u64::from_le_bytes(s.try_into().expect("8-byte slice")))
    }

    /// Read a length-prefixed byte string as a borrowed slice.
    pub fn byte_slice(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// Read a length-prefixed byte string as owned [`Bytes`].
    pub fn bytes(&mut self) -> Result<Bytes, CodecError> {
        Ok(Bytes::copy_from_slice(self.byte_slice()?))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, CodecError> {
        std::str::from_utf8(self.byte_slice()?).map_err(|_| CodecError::BadUtf8)
    }
}

/// CRC-32 (IEEE 802.3, the polynomial used by zip/zlib) over `data`.
/// Guards WAL frames and SSTable metadata blocks against torn writes and
/// bit rot; a failed check marks where a recovering reader must stop.
pub fn crc32(data: &[u8]) -> u32 {
    const TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut bit = 0;
            while bit < 8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                bit += 1;
            }
            table[i] = c;
            i += 1;
        }
        table
    };
    let mut crc = !0u32;
    for &b in data {
        crc = TABLE[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

const TAG_LWW: u8 = 0;
const TAG_CAUSAL: u8 = 1;
const TAG_SET: u8 = 2;

fn put_vector_clock(out: &mut Vec<u8>, vc: &VectorClock) {
    put_u32(out, vc.len() as u32);
    for (&id, &clock) in vc.iter() {
        put_u64(out, id);
        put_u64(out, clock);
    }
}

fn read_vector_clock(r: &mut ByteReader<'_>) -> Result<VectorClock, CodecError> {
    let n = r.u32()? as usize;
    let mut entries = Vec::with_capacity(n.min(r.remaining() / 16 + 1));
    for _ in 0..n {
        let id = r.u64()?;
        let clock = r.u64()?;
        entries.push((id, clock));
    }
    Ok(entries.into_iter().collect())
}

/// Encode a capsule: one tag byte plus the kind-specific body. The encoding
/// is canonical for a given lattice state (versions, dependency maps, and
/// set elements are written in their sorted in-memory order), so equal
/// capsules encode to equal bytes.
pub fn encode_capsule(capsule: &Capsule, out: &mut Vec<u8>) {
    match capsule {
        Capsule::Lww(l) => {
            put_u8(out, TAG_LWW);
            put_u64(out, l.timestamp.clock_micros);
            put_u64(out, l.timestamp.node);
            put_bytes(out, &l.value);
        }
        Capsule::Causal(c) => {
            put_u8(out, TAG_CAUSAL);
            let versions = c.versions();
            put_u32(out, versions.len() as u32);
            for v in versions {
                put_vector_clock(out, &v.vector_clock);
                put_u32(out, v.dependencies.len() as u32);
                for (key, vc) in &v.dependencies {
                    put_str(out, key.as_str());
                    put_vector_clock(out, vc);
                }
                put_bytes(out, &v.value);
            }
        }
        Capsule::Set(s) => {
            put_u8(out, TAG_SET);
            put_u32(out, s.len() as u32);
            for element in s.iter() {
                put_bytes(out, element);
            }
        }
    }
}

/// Decode one capsule from the reader, advancing it past the encoding.
///
/// Never panics: malformed or truncated input yields a [`CodecError`].
/// Decoding a causal capsule re-joins its versions through the lattice
/// merge, so the result is normalized exactly as the encoder's antichain
/// was — `decode(encode(c)) == c` for every kind.
pub fn decode_capsule(r: &mut ByteReader<'_>) -> Result<Capsule, CodecError> {
    match r.u8()? {
        TAG_LWW => {
            let clock_micros = r.u64()?;
            let node = r.u64()?;
            let value = r.bytes()?;
            Ok(Capsule::Lww(LwwLattice::new(
                Timestamp::new(clock_micros, node),
                value,
            )))
        }
        TAG_CAUSAL => {
            let n = r.u32()? as usize;
            let mut lattice = CausalLattice::default();
            for _ in 0..n {
                let vector_clock = read_vector_clock(r)?;
                let ndeps = r.u32()? as usize;
                let mut dependencies: BTreeMap<Key, VectorClock> = BTreeMap::new();
                for _ in 0..ndeps {
                    let key = Key::new(r.str()?);
                    let vc = read_vector_clock(r)?;
                    dependencies.insert(key, vc);
                }
                let value = r.bytes()?;
                // Stored versions form an antichain, so folding single-version
                // joins rebuilds the identical normalized state.
                lattice.join(CausalLattice::new(vector_clock, dependencies, value));
            }
            Ok(Capsule::Causal(lattice))
        }
        TAG_SET => {
            let n = r.u32()? as usize;
            let mut elements = Vec::with_capacity(n.min(r.remaining() / 4 + 1));
            for _ in 0..n {
                elements.push(r.bytes()?);
            }
            Ok(Capsule::Set(
                elements.into_iter().collect::<SetLattice<_>>(),
            ))
        }
        tag => Err(CodecError::BadTag(tag)),
    }
}

fn skip_vector_clock(r: &mut ByteReader<'_>) -> Result<(), CodecError> {
    let n = r.u32()? as usize;
    r.take(n.checked_mul(16).ok_or(CodecError::Truncated)?)?;
    Ok(())
}

/// Advance the reader past one encoded capsule without decoding it: the
/// walk [`decode_capsule`] makes, minus every allocation. Lets a reader
/// find where a capsule ends (to copy its bytes verbatim) for the price of
/// reading its length prefixes.
pub fn skip_capsule(r: &mut ByteReader<'_>) -> Result<(), CodecError> {
    match r.u8()? {
        TAG_LWW => {
            r.take(16)?;
            r.byte_slice()?;
        }
        TAG_CAUSAL => {
            for _ in 0..r.u32()? {
                skip_vector_clock(r)?;
                for _ in 0..r.u32()? {
                    r.str()?;
                    skip_vector_clock(r)?;
                }
                r.byte_slice()?;
            }
        }
        TAG_SET => {
            for _ in 0..r.u32()? {
                r.byte_slice()?;
            }
        }
        tag => return Err(CodecError::BadTag(tag)),
    }
    Ok(())
}

/// Convenience: encode `capsule` into a fresh buffer.
pub fn capsule_to_vec(capsule: &Capsule) -> Vec<u8> {
    let mut out = Vec::with_capacity(capsule.payload_len() + 32);
    encode_capsule(capsule, &mut out);
    out
}

/// Convenience: decode a capsule that must span the whole buffer.
pub fn capsule_from_slice(buf: &[u8]) -> Result<Capsule, CodecError> {
    let mut r = ByteReader::new(buf);
    let capsule = decode_capsule(&mut r)?;
    if r.remaining() != 0 {
        return Err(CodecError::Truncated);
    }
    Ok(capsule)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_capsules() -> Vec<Capsule> {
        let mut causal = Capsule::wrap_causal(
            VectorClock::singleton(1, 3),
            [(Key::new("dep-a"), VectorClock::singleton(7, 2))],
            Bytes::from_static(b"left"),
        );
        causal
            .try_join(Capsule::wrap_causal(
                VectorClock::singleton(2, 5),
                [(Key::new("dep-b"), VectorClock::singleton(8, 1))],
                Bytes::from_static(b"right"),
            ))
            .unwrap();
        let mut set = Capsule::wrap_set_element(Bytes::from_static(b"one"));
        set.try_join(Capsule::wrap_set_element(Bytes::from_static(b"two")))
            .unwrap();
        vec![
            Capsule::wrap_lww(Timestamp::new(42, 7), Bytes::from_static(b"hello")),
            Capsule::wrap_lww(Timestamp::ZERO, Bytes::new()),
            causal,
            Capsule::Causal(CausalLattice::default()),
            set,
            Capsule::Set(SetLattice::new()),
        ]
    }

    #[test]
    fn roundtrip_every_kind() {
        for capsule in sample_capsules() {
            let encoded = capsule_to_vec(&capsule);
            let decoded = capsule_from_slice(&encoded).expect("decode");
            assert_eq!(decoded, capsule);
        }
    }

    #[test]
    fn multi_version_causal_roundtrips_with_conflicts() {
        let mut c =
            Capsule::wrap_causal(VectorClock::singleton(1, 1), [], Bytes::from_static(b"a"));
        c.try_join(Capsule::wrap_causal(
            VectorClock::singleton(2, 1),
            [],
            Bytes::from_static(b"b"),
        ))
        .unwrap();
        let decoded = capsule_from_slice(&capsule_to_vec(&c)).unwrap();
        let Capsule::Causal(lat) = &decoded else {
            panic!("kind changed");
        };
        assert!(lat.has_conflicts(), "both concurrent versions must survive");
        assert_eq!(decoded, c);
    }

    #[test]
    fn truncation_errors_not_panics() {
        for capsule in sample_capsules() {
            let encoded = capsule_to_vec(&capsule);
            for cut in 0..encoded.len() {
                let err = capsule_from_slice(&encoded[..cut]);
                assert!(err.is_err(), "cut at {cut} must not decode");
            }
        }
    }

    #[test]
    fn skip_ends_where_decode_ends() {
        for capsule in sample_capsules() {
            let mut buf = capsule_to_vec(&capsule);
            let len = buf.len();
            buf.extend_from_slice(b"trailer");
            let mut r = ByteReader::new(&buf);
            skip_capsule(&mut r).expect("skip");
            assert_eq!(r.pos(), len);
            for cut in 0..len {
                assert!(skip_capsule(&mut ByteReader::new(&buf[..cut])).is_err());
            }
        }
        assert_eq!(
            skip_capsule(&mut ByteReader::new(&[9])),
            Err(CodecError::BadTag(9))
        );
    }

    #[test]
    fn bad_tag_is_rejected() {
        assert_eq!(capsule_from_slice(&[9]), Err(CodecError::BadTag(9)));
    }

    #[test]
    fn trailing_garbage_is_rejected_by_whole_buffer_decode() {
        let mut buf = capsule_to_vec(&sample_capsules()[0]);
        buf.push(0xAB);
        assert_eq!(capsule_from_slice(&buf), Err(CodecError::Truncated));
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn oversized_length_prefix_is_truncation_not_alloc() {
        // A length field claiming 4 GiB must fail cleanly, not allocate.
        let mut buf = vec![TAG_LWW];
        put_u64(&mut buf, 1);
        put_u64(&mut buf, 1);
        put_u32(&mut buf, u32::MAX);
        assert_eq!(capsule_from_slice(&buf), Err(CodecError::Truncated));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::collection::{btree_map, vec as pvec};
    use proptest::prelude::*;

    fn lww_capsule() -> impl Strategy<Value = Capsule> {
        (any::<u32>(), 0u64..4, pvec(any::<u8>(), 0..12)).prop_map(|(clock, node, v)| {
            Capsule::wrap_lww(Timestamp::new(u64::from(clock), node), v.into())
        })
    }

    fn causal_capsule() -> impl Strategy<Value = Capsule> {
        (
            btree_map(0u64..4, 1u64..5, 1..3),
            pvec(any::<u8>(), 0..6),
            btree_map(0u64..3, 1u64..3, 0..3),
            (btree_map(0u64..4, 1u64..5, 1..3), pvec(any::<u8>(), 0..6)),
        )
            .prop_map(|(vc1, v1, dep, (vc2, v2))| {
                let deps: Vec<(Key, VectorClock)> = if dep.is_empty() {
                    vec![]
                } else {
                    vec![(Key::new("dep"), dep.into_iter().collect())]
                };
                let mut c = Capsule::wrap_causal(vc1.into_iter().collect(), deps, v1.into());
                c.try_join(Capsule::wrap_causal(
                    vc2.into_iter().collect(),
                    [],
                    v2.into(),
                ))
                .expect("same kind");
                c
            })
    }

    fn set_capsule() -> impl Strategy<Value = Capsule> {
        pvec(pvec(any::<u8>(), 0..6), 0..5).prop_map(|elements| {
            Capsule::Set(
                elements
                    .into_iter()
                    .map(Bytes::from)
                    .collect::<SetLattice<_>>(),
            )
        })
    }

    proptest! {
        #[test]
        fn lww_roundtrip(c in lww_capsule()) {
            prop_assert_eq!(capsule_from_slice(&capsule_to_vec(&c)).unwrap(), c);
        }

        #[test]
        fn causal_roundtrip(c in causal_capsule()) {
            prop_assert_eq!(capsule_from_slice(&capsule_to_vec(&c)).unwrap(), c);
        }

        #[test]
        fn set_roundtrip(c in set_capsule()) {
            prop_assert_eq!(capsule_from_slice(&capsule_to_vec(&c)).unwrap(), c);
        }

        #[test]
        fn arbitrary_truncation_never_panics(c in causal_capsule(), cut in any::<u16>()) {
            let encoded = capsule_to_vec(&c);
            let cut = (cut as usize) % (encoded.len() + 1);
            // Either decodes (only at full length) or errors; never panics.
            match capsule_from_slice(&encoded[..cut]) {
                Ok(decoded) => prop_assert_eq!(decoded, c),
                Err(_) => prop_assert!(cut < encoded.len()),
            }
        }

        #[test]
        fn random_bytes_never_panic(buf in pvec(any::<u8>(), 0..64)) {
            let _ = capsule_from_slice(&buf);
        }

        #[test]
        fn skip_agrees_with_decode(buf in pvec(any::<u8>(), 0..64)) {
            let mut decoded = ByteReader::new(&buf);
            let mut skipped = ByteReader::new(&buf);
            let ok = decode_capsule(&mut decoded).is_ok();
            prop_assert_eq!(skip_capsule(&mut skipped).is_ok(), ok);
            if ok {
                prop_assert_eq!(skipped.pos(), decoded.pos());
            }
        }
    }
}

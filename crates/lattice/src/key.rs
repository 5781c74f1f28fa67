//! [`Key`]: the shared key type used across the whole system, and the maps
//! keyed by it.
//!
//! A key's hash is computed once, when the key is built: [`key_hash`], the
//! same 64-bit point Anna's consistent-hash ring places the key at. Every
//! consumer reads that one number — the ring walk, the VM cache's shard
//! pick, and every [`KeyMap`]/[`KeySet`], whose hasher passes it straight
//! through instead of rehashing the text.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::Arc;

/// FNV-1a 64-bit hash. Implemented locally to keep the dependency budget
/// (no external hashing crates); distribution quality comes from [`mix64`].
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The splitmix64 finalizer: a strong 64-bit bit mixer. FNV alone
/// distributes short structured inputs (e.g. ring vnode tokens) poorly;
/// finishing with a full avalanche mix fixes ring balance.
pub fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The workspace's one key hash: `mix64(fnv1a(text))`. It is a key's
/// position on Anna's ring and the hash every [`KeyMap`] buckets by.
pub fn key_hash(text: &str) -> u64 {
    mix64(fnv1a(text.as_bytes()))
}

/// A key in the Anna key-value store.
///
/// Keys are immutable strings shared across many components (storage nodes,
/// caches, schedulers, dependency sets). A `Key` carries its text behind an
/// `Arc`, so a clone is an atomic increment, and its [`key_hash`], computed
/// once at construction, so no consumer hashes the text again. Equality
/// checks the hash, then the pointer, then the text; ordering is
/// lexicographic on the text (equal text has equal hash, so the derived
/// order never reaches the second field).
#[derive(Clone, PartialOrd, Ord)]
pub struct Key {
    text: Arc<str>,
    hash: u64,
}

impl Key {
    /// Create a key from anything string-like.
    pub fn new(s: impl AsRef<str>) -> Self {
        let s = s.as_ref();
        Self {
            hash: key_hash(s),
            text: Arc::from(s),
        }
    }

    /// The key as a string slice.
    pub fn as_str(&self) -> &str {
        &self.text
    }

    /// The key's [`key_hash`]: its ring point and its map hash.
    pub fn hash(&self) -> u64 {
        self.hash
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && (Arc::ptr_eq(&self.text, &other.text) || self.text == other.text)
    }
}

impl Eq for Key {}

impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Key({:?})", &*self.text)
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.text)
    }
}

impl From<&str> for Key {
    fn from(s: &str) -> Self {
        Self::new(s)
    }
}

impl From<String> for Key {
    fn from(s: String) -> Self {
        Self::new(s)
    }
}

impl From<&String> for Key {
    fn from(s: &String) -> Self {
        Self::new(s)
    }
}

impl AsRef<str> for Key {
    fn as_ref(&self) -> &str {
        &self.text
    }
}

/// A [`Hasher`] that passes a [`Key`]'s precomputed hash through. `Key`'s
/// `Hash` writes exactly one `u64`, so that value is the bucket hash.
#[derive(Default)]
pub struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("KeyHasher hashes only Key, which writes one u64");
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

/// A `HashMap` keyed by [`Key`] that buckets by the key's own hash.
pub type KeyMap<V> = HashMap<Key, V, BuildHasherDefault<KeyHasher>>;

/// A `HashSet` of [`Key`]s that buckets by each key's own hash.
pub type KeySet = HashSet<Key, BuildHasherDefault<KeyHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_roundtrips() {
        let k = Key::new("user:42");
        assert_eq!(k.as_str(), "user:42");
        assert_eq!(k.to_string(), "user:42");
        assert_eq!(format!("{k:?}"), "Key(\"user:42\")");
    }

    #[test]
    fn key_clone_is_shared() {
        let k = Key::new("a");
        let k2 = k.clone();
        assert!(Arc::ptr_eq(&k.text, &k2.text));
        assert_eq!(k.hash(), k2.hash());
    }

    #[test]
    fn equal_text_gives_equal_key_hash_and_order() {
        let k1 = Key::new("user:same");
        let k2 = Key::new(String::from("user:same"));
        let k3: Key = "user:same".into();
        assert!(!Arc::ptr_eq(&k1.text, &k2.text), "no interning");
        assert_eq!(k1, k2);
        assert_eq!(k1, k3);
        assert_eq!(k1.hash(), k2.hash());
        assert_eq!(k1.hash(), key_hash("user:same"));
        assert_eq!(k1.cmp(&k2), std::cmp::Ordering::Equal);
        assert_ne!(k1, Key::new("user:other"));
    }

    #[test]
    fn key_map_finds_a_separately_built_key() {
        let mut m: KeyMap<u32> = KeyMap::default();
        m.insert(Key::new("x"), 1);
        assert_eq!(m.get(&Key::new("x")), Some(&1));
        assert_eq!(m.get(&Key::new("y")), None);
        let set: KeySet = ["a", "b", "a"].into_iter().map(Key::new).collect();
        assert_eq!(set.len(), 2);
        assert!(set.contains(&Key::new(String::from("b"))));
    }

    #[test]
    fn ordering_is_lexicographic() {
        assert!(Key::new("a") < Key::new("b"));
        assert!(Key::new("a:1") < Key::new("a:2"));
        assert!(Key::new("ab") < Key::new("b"));
    }
}

//! Seeded input generators. Every random choice a workload makes — operands,
//! operation mix, users, keys — is drawn here from `--seed`; the system under
//! test receives only the generated inputs. The closed loop consumes as many
//! operations as it has time for, so two runs of one seed issue the same
//! stream up to wherever each got; `input_digest` proves it.

use std::sync::Arc;

use cloudburst_apps::ZipfSampler;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The seed used when none is given.
pub const DEFAULT_SEED: u64 = 0xC10D_B075;

/// Operations hashed into the digest, per client.
const DIGEST_OPS: usize = 10_000;

/// Derive client `index`'s generator seed from the run seed.
pub fn client_seed(seed: u64, index: usize) -> u64 {
    seed ^ (index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// A deterministic stream of operations.
pub trait OpGen: Clone {
    type Op;
    fn next_op(&mut self) -> Self::Op;
    /// Canonical bytes of an operation, for the digest.
    fn encode(op: &Self::Op, out: &mut Vec<u8>);
}

/// FNV-1a over the first [`DIGEST_OPS`] operations of every client's stream
/// (generated from clones, so the live generators are not advanced).
pub fn input_digest<G: OpGen>(clients: &[G]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    let mut buf = Vec::new();
    for gen in clients {
        let mut gen = gen.clone();
        for _ in 0..DIGEST_OPS {
            buf.clear();
            G::encode(&gen.next_op(), &mut buf);
            for &b in &buf {
                hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
    }
    hash
}

// ---------------------------------------------------------------- chain ---

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainOp {
    /// `call_dag` with a direct response.
    Direct(i64),
    /// `call_dag_stored` + `future.get()`: the result is written to the KVS.
    Stored(i64),
}

/// One call in this many stores its result in the KVS instead of replying
/// directly (Figure 2's `store_in_kvs=True`), so the chain workloads have a
/// state-mutating operation to report beside the primary one.
pub const CHAIN_STORED_ONE_IN: u32 = 16;

#[derive(Debug, Clone)]
pub struct ChainGen {
    rng: StdRng,
}

impl ChainGen {
    pub fn new(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl OpGen for ChainGen {
    type Op = ChainOp;

    fn next_op(&mut self) -> ChainOp {
        // Small enough that (x + 1)^2 never overflows an i64.
        let x = self.rng.random_range(0..1_000_000i64);
        if self.rng.random_range(0..CHAIN_STORED_ONE_IN) == 0 {
            ChainOp::Stored(x)
        } else {
            ChainOp::Direct(x)
        }
    }

    fn encode(op: &ChainOp, out: &mut Vec<u8>) {
        let (tag, x) = match op {
            ChainOp::Direct(x) => (0u8, x),
            ChainOp::Stored(x) => (1u8, x),
        };
        out.push(tag);
        out.extend_from_slice(&x.to_le_bytes());
    }
}

// --------------------------------------------------------------- retwis ---

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RetwisOp {
    Timeline {
        user: usize,
    },
    /// `reply_to` indexes the seeded tweets.
    Post {
        user: usize,
        reply_to: Option<usize>,
    },
}

#[derive(Debug, Clone)]
pub struct RetwisGen {
    rng: StdRng,
    users: Arc<ZipfSampler>,
    seeded_tweets: usize,
}

impl RetwisGen {
    /// Figure 11's mix: Zipf-1.5 users, 90 % timelines, 10 % posts of which
    /// half reply to a seeded tweet.
    pub fn new(seed: u64, users: Arc<ZipfSampler>, seeded_tweets: usize) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
            users,
            seeded_tweets,
        }
    }
}

impl OpGen for RetwisGen {
    type Op = RetwisOp;

    fn next_op(&mut self) -> RetwisOp {
        let user = self.users.sample(&mut self.rng);
        if self.rng.random::<f64>() < 0.10 {
            let reply_to = (self.rng.random::<f64>() < 0.5 && self.seeded_tweets > 0)
                .then(|| self.rng.random_range(0..self.seeded_tweets));
            RetwisOp::Post { user, reply_to }
        } else {
            RetwisOp::Timeline { user }
        }
    }

    fn encode(op: &RetwisOp, out: &mut Vec<u8>) {
        match op {
            RetwisOp::Timeline { user } => {
                out.push(0);
                out.extend_from_slice(&(*user as u64).to_le_bytes());
            }
            RetwisOp::Post { user, reply_to } => {
                out.push(1);
                out.extend_from_slice(&(*user as u64).to_le_bytes());
                out.extend_from_slice(&reply_to.map_or(u64::MAX, |r| r as u64).to_le_bytes());
            }
        }
    }
}

// ------------------------------------------------------------------ kvs ---

/// Keys per `multi_put` — the shape of a cache's write-behind flush.
pub const KVS_BATCH: usize = 16;

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvsOp {
    Get(u32),
    MultiPut([u32; KVS_BATCH]),
}

/// Which of the two operation classes a KVS client issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvsRole {
    Reader,
    Writer,
}

#[derive(Debug, Clone)]
pub struct KvsGen {
    rng: StdRng,
    keys: Arc<ZipfSampler>,
    role: KvsRole,
}

impl KvsGen {
    /// A stream of `get`s (reader) or of `multi_put`s of [`KVS_BATCH`] keys
    /// (writer), all keys Zipf-drawn.
    pub fn new(seed: u64, keys: Arc<ZipfSampler>, role: KvsRole) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
            keys,
            role,
        }
    }
}

impl OpGen for KvsGen {
    type Op = KvsOp;

    fn next_op(&mut self) -> KvsOp {
        match self.role {
            KvsRole::Reader => KvsOp::Get(self.keys.sample(&mut self.rng) as u32),
            KvsRole::Writer => {
                let mut batch = [0u32; KVS_BATCH];
                for slot in &mut batch {
                    *slot = self.keys.sample(&mut self.rng) as u32;
                }
                KvsOp::MultiPut(batch)
            }
        }
    }

    fn encode(op: &KvsOp, out: &mut Vec<u8>) {
        match op {
            KvsOp::Get(k) => {
                out.push(0);
                out.extend_from_slice(&k.to_le_bytes());
            }
            KvsOp::MultiPut(batch) => {
                out.push(1);
                for k in batch {
                    out.extend_from_slice(&k.to_le_bytes());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_digest_other_seed_other_digest() {
        let chain = |seed| {
            let gens: Vec<ChainGen> = (0..2)
                .map(|i| ChainGen::new(client_seed(seed, i)))
                .collect();
            input_digest(&gens)
        };
        assert_eq!(chain(DEFAULT_SEED), chain(DEFAULT_SEED));
        assert_ne!(chain(DEFAULT_SEED), chain(DEFAULT_SEED + 1));

        let zipf = Arc::new(ZipfSampler::new(1000, 1.5));
        let retwis = |seed| {
            input_digest(&[RetwisGen::new(
                client_seed(seed, 0),
                Arc::clone(&zipf),
                5000,
            )])
        };
        assert_eq!(retwis(3), retwis(3));
        assert_ne!(retwis(3), retwis(4));

        let keys = Arc::new(ZipfSampler::new(4096, 0.99));
        let kvs = |seed| {
            input_digest(&[
                KvsGen::new(client_seed(seed, 0), Arc::clone(&keys), KvsRole::Reader),
                KvsGen::new(client_seed(seed, 1), Arc::clone(&keys), KvsRole::Writer),
            ])
        };
        assert_eq!(kvs(9), kvs(9));
        assert_ne!(kvs(9), kvs(10));
    }

    #[test]
    fn digest_does_not_advance_the_live_generator() {
        let mut gen = ChainGen::new(1);
        let mut twin = gen.clone();
        let _ = input_digest(&[gen.clone()]);
        assert_eq!(gen.next_op(), twin.next_op());
    }

    #[test]
    fn mixes_match_their_definitions() {
        let mut chain = ChainGen::new(5);
        let stored = (0..32_000)
            .filter(|_| matches!(chain.next_op(), ChainOp::Stored(_)))
            .count();
        assert!((1_700..2_300).contains(&stored), "stored {stored}");

        let zipf = Arc::new(ZipfSampler::new(1000, 1.5));
        let mut retwis = RetwisGen::new(5, zipf, 5000);
        let posts = (0..20_000)
            .filter(|_| matches!(retwis.next_op(), RetwisOp::Post { .. }))
            .count();
        assert!((1_700..2_300).contains(&posts), "posts {posts}");
    }
}

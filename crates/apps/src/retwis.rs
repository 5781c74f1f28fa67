//! Retwis (§6.3.2, Figures 11 & 12): the open-source Twitter clone, ported
//! to Cloudburst "as a set of six Cloudburst functions", plus a serverful
//! Redis deployment for comparison.
//!
//! Conversational threads exercise causal consistency: "it is confusing to
//! read the response to a post before you have read the post it refers to."
//! [`TimelineResult::anomalies`] counts exactly those violations — a
//! timeline containing a reply whose parent tweet is unreadable.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use cloudburst::codec;
use cloudburst::types::{Arg, InvocationResult};
use cloudburst_baselines::SimStorage;
use cloudburst_lattice::Key;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::workloads::ZipfSampler;

/// Retwis deployment parameters (§6.3.2's defaults).
#[derive(Debug, Clone, Copy)]
pub struct RetwisConfig {
    /// Number of users (paper: 1000).
    pub users: usize,
    /// Followees per user (paper: 50).
    pub follows_per_user: usize,
    /// Zipf skew of the follow graph (paper: 1.5).
    // lint: allow(L008): the benchmark's Retwis generator reads it to skew its user draws like the follow graph
    pub zipf: f64,
    /// Pre-populated tweets (paper: 5000).
    pub initial_tweets: usize,
    /// RNG seed.
    pub seed: u64,
}

/// Fraction of seeded tweets that reply to an earlier tweet (paper: half).
const REPLY_FRACTION: f64 = 0.5;

impl Default for RetwisConfig {
    fn default() -> Self {
        Self {
            users: 1000,
            follows_per_user: 50,
            zipf: 1.5,
            initial_tweets: 5000,
            seed: 0x007E_7715,
        }
    }
}

/// Result of one `GetTimeline` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimelineResult {
    /// Tweets rendered.
    pub tweets: usize,
    /// Causal anomalies: replies whose parent tweet was unreadable.
    pub anomalies: usize,
}

fn following_key(user: usize) -> Key {
    Key::new(format!("retwis/following/{user}"))
}
fn posts_key(user: usize) -> Key {
    Key::new(format!("retwis/posts/{user}"))
}
fn tweet_key(id: &str) -> Key {
    Key::new(format!("retwis/tweet/{id}"))
}
fn profile_key(user: usize) -> Key {
    Key::new(format!("retwis/user/{user}"))
}

/// The Retwis application.
#[derive(Debug, Clone)]
pub struct Retwis {
    config: RetwisConfig,
}

impl Retwis {
    /// A Retwis instance.
    pub fn new(config: RetwisConfig) -> Self {
        Self { config }
    }

    /// The configuration.
    pub fn config(&self) -> &RetwisConfig {
        &self.config
    }

    /// Register the six Cloudburst functions (the paper's port changed 44
    /// lines; ours registers six closures).
    pub fn register(client: &cloudburst::CloudburstClient) -> Result<(), cloudburst::ClientError> {
        // 1. RegisterUser
        client.register_function("retwis_register_user", |rt, args| {
            let user = codec::decode_i64(&args[0]).ok_or("bad user")? as usize;
            rt.put(&profile_key(user), args[1].clone());
            Ok(Bytes::new())
        })?;
        // 2. Follow
        client.register_function("retwis_follow", |rt, args| {
            let user = codec::decode_i64(&args[0]).ok_or("bad user")? as usize;
            let followee = codec::decode_i64(&args[1]).ok_or("bad followee")?;
            let key = following_key(user);
            let mut list = rt
                .get(&key)
                .and_then(|b| codec::decode_str(&b))
                .unwrap_or_default();
            if !list.is_empty() {
                list.push(',');
            }
            list.push_str(&followee.to_string());
            rt.put(&key, codec::encode_str(&list));
            Ok(Bytes::new())
        })?;
        // 3. Profile
        client.register_function("retwis_profile", |rt, args| {
            let user = codec::decode_i64(&args[0]).ok_or("bad user")? as usize;
            rt.get(&profile_key(user)).ok_or("no such user".into())
        })?;
        // 4. PostTweet: args = user, tweet_id, text, reply_to ("" if none)
        client.register_function("retwis_post", |rt, args| {
            let user = codec::decode_i64(&args[0]).ok_or("bad user")? as usize;
            let tweet_id = codec::decode_str(&args[1]).ok_or("bad id")?;
            let text = codec::decode_str(&args[2]).ok_or("bad text")?;
            let reply_to = codec::decode_str(&args[3]).unwrap_or_default();
            if !reply_to.is_empty() {
                // Read the parent: establishes the causal dependency
                // reply → parent that the causal protocols preserve.
                let _ = rt.get(&tweet_key(&reply_to));
            }
            rt.put(
                &tweet_key(&tweet_id),
                codec::encode_str(&format!("{user}|{reply_to}|{text}")),
            );
            // Append to the author's recent-posts list (keep last 10).
            let key = posts_key(user);
            let list = rt
                .get(&key)
                .and_then(|b| codec::decode_str(&b))
                .unwrap_or_default();
            let mut ids: Vec<&str> = list.split(',').filter(|s| !s.is_empty()).collect();
            ids.push(&tweet_id);
            let start = ids.len().saturating_sub(10);
            rt.put(&key, codec::encode_str(&ids[start..].join(",")));
            Ok(args[1].clone())
        })?;
        // 5. GetPosts
        client.register_function("retwis_get_posts", |rt, args| {
            let user = codec::decode_i64(&args[0]).ok_or("bad user")? as usize;
            Ok(rt.get(&posts_key(user)).unwrap_or_default())
        })?;
        // 6. GetTimeline: render followees' recent tweets; count causal
        // anomalies (reply visible, parent unreadable).
        client.register_function("retwis_timeline", |rt, args| {
            let user = codec::decode_i64(&args[0]).ok_or("bad user")? as usize;
            let following = rt
                .get(&following_key(user))
                .and_then(|b| codec::decode_str(&b))
                .unwrap_or_default();
            let mut tweets = 0usize;
            let mut anomalies = 0usize;
            for followee in following.split(',').filter(|s| !s.is_empty()).take(5) {
                let Ok(followee) = followee.parse::<usize>() else {
                    continue;
                };
                let posts = rt
                    .get(&posts_key(followee))
                    .and_then(|b| codec::decode_str(&b))
                    .unwrap_or_default();
                let recent: Vec<&str> = posts.split(',').filter(|s| !s.is_empty()).collect();
                let start = recent.len().saturating_sub(5);
                for id in &recent[start..] {
                    match rt.get(&tweet_key(id)).and_then(|b| codec::decode_str(&b)) {
                        Some(content) => {
                            tweets += 1;
                            let mut parts = content.splitn(3, '|');
                            let _author = parts.next();
                            let reply_to = parts.next().unwrap_or("");
                            if !reply_to.is_empty() {
                                // A reply: its parent must be readable.
                                if rt.get(&tweet_key(reply_to)).is_none() {
                                    anomalies += 1;
                                }
                            }
                        }
                        None => anomalies += 1, // listed tweet unreadable
                    }
                }
            }
            Ok(codec::encode_f64_slice(&[tweets as f64, anomalies as f64]))
        })?;
        Ok(())
    }

    /// Seed the social graph and initial tweets directly through the KVS
    /// (the paper pre-populates before measuring).
    pub fn seed(
        &self,
        client: &cloudburst::CloudburstClient,
    ) -> Result<Vec<String>, cloudburst::ClientError> {
        let cfg = &self.config;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let zipf = ZipfSampler::new(cfg.users, cfg.zipf);
        // Follow graph.
        for user in 0..cfg.users {
            client.put(
                profile_key(user),
                codec::encode_str(&format!("user-{user}")),
            )?;
            let mut followees = Vec::with_capacity(cfg.follows_per_user);
            while followees.len() < cfg.follows_per_user.min(cfg.users - 1) {
                let f = zipf.sample(&mut rng);
                if f != user && !followees.contains(&f) {
                    followees.push(f);
                }
            }
            let list = followees
                .iter()
                .map(usize::to_string)
                .collect::<Vec<_>>()
                .join(",");
            client.put(following_key(user), codec::encode_str(&list))?;
        }
        // Tweets: half replies to earlier tweets.
        let mut ids: Vec<String> = Vec::with_capacity(cfg.initial_tweets);
        let mut posts: std::collections::HashMap<usize, Vec<String>> =
            std::collections::HashMap::new();
        for n in 0..cfg.initial_tweets {
            let author = rng.random_range(0..cfg.users);
            let id = format!("seed-{n}");
            let reply_to = if !ids.is_empty() && rng.random::<f64>() < REPLY_FRACTION {
                ids[rng.random_range(0..ids.len())].clone()
            } else {
                String::new()
            };
            client.put(
                tweet_key(&id),
                codec::encode_str(&format!("{author}|{reply_to}|lorem ipsum #{n}")),
            )?;
            let user_posts = posts.entry(author).or_default();
            user_posts.push(id.clone());
            if user_posts.len() > 10 {
                user_posts.remove(0);
            }
            ids.push(id);
        }
        for (author, list) in posts {
            client.put(posts_key(author), codec::encode_str(&list.join(",")))?;
        }
        Ok(ids)
    }

    /// Post a tweet through the `retwis_post` function.
    pub fn post_tweet(
        client: &cloudburst::CloudburstClient,
        user: usize,
        tweet_id: &str,
        text: &str,
        reply_to: Option<&str>,
    ) -> Result<(), String> {
        let result = client
            .call_function(
                "retwis_post",
                vec![
                    Arg::value(codec::encode_i64(user as i64)),
                    Arg::value(codec::encode_str(tweet_id)),
                    Arg::value(codec::encode_str(text)),
                    Arg::value(codec::encode_str(reply_to.unwrap_or(""))),
                ],
            )
            .map_err(|e| e.to_string())?;
        match result {
            InvocationResult::Ok(_) => Ok(()),
            InvocationResult::Err(e) => Err(e),
        }
    }

    /// Fetch a user's timeline through the `retwis_timeline` function.
    pub fn get_timeline(
        client: &cloudburst::CloudburstClient,
        user: usize,
    ) -> Result<TimelineResult, String> {
        let result = client
            .call_function(
                "retwis_timeline",
                vec![Arg::value(codec::encode_i64(user as i64))],
            )
            .map_err(|e| e.to_string())?;
        match result {
            InvocationResult::Ok(bytes) => {
                let pair = codec::decode_f64_slice(&bytes).ok_or("bad timeline")?;
                Ok(TimelineResult {
                    tweets: pair[0] as usize,
                    anomalies: pair[1] as usize,
                })
            }
            InvocationResult::Err(e) => Err(e),
        }
    }
}

/// The serverful comparison: Retwis over (simulated) Redis, with the client
/// talking straight to web-server logic backed by Redis ops.
#[derive(Debug, Clone)]
pub struct RetwisRedis {
    storage: Arc<SimStorage>,
}

impl RetwisRedis {
    /// Deploy over a Redis instance.
    pub fn new(storage: Arc<SimStorage>) -> Self {
        Self { storage }
    }

    /// Seed graph + tweets (same shapes as the Cloudburst deployment).
    pub fn seed(&self, config: &RetwisConfig) {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let zipf = ZipfSampler::new(config.users, config.zipf);
        for user in 0..config.users {
            let mut followees = Vec::new();
            while followees.len() < config.follows_per_user.min(config.users - 1) {
                let f = zipf.sample(&mut rng);
                if f != user && !followees.contains(&f) {
                    followees.push(f);
                }
            }
            let list = followees
                .iter()
                .map(usize::to_string)
                .collect::<Vec<_>>()
                .join(",");
            self.storage
                .put(format!("following/{user}"), codec::encode_str(&list));
        }
        let mut ids: Vec<String> = Vec::new();
        let mut posts: std::collections::HashMap<usize, Vec<String>> =
            std::collections::HashMap::new();
        for n in 0..config.initial_tweets {
            let author = rng.random_range(0..config.users);
            let id = format!("seed-{n}");
            let reply_to = if !ids.is_empty() && rng.random::<f64>() < REPLY_FRACTION {
                ids[rng.random_range(0..ids.len())].clone()
            } else {
                String::new()
            };
            self.storage.put(
                format!("tweet/{id}"),
                codec::encode_str(&format!("{author}|{reply_to}|lorem ipsum #{n}")),
            );
            let user_posts = posts.entry(author).or_default();
            user_posts.push(id.clone());
            if user_posts.len() > 10 {
                user_posts.remove(0);
            }
            ids.push(id);
        }
        for (author, list) in posts {
            self.storage.put(
                format!("posts/{author}"),
                codec::encode_str(&list.join(",")),
            );
        }
    }

    /// PostTweet against Redis.
    pub fn post_tweet(&self, user: usize, tweet_id: &str, text: &str, reply_to: Option<&str>) {
        let reply = reply_to.unwrap_or("");
        if !reply.is_empty() {
            let _ = self.storage.get(&format!("tweet/{reply}"));
        }
        self.storage.put(
            format!("tweet/{tweet_id}"),
            codec::encode_str(&format!("{user}|{reply}|{text}")),
        );
        let list = self
            .storage
            .get(&format!("posts/{user}"))
            .and_then(|b| codec::decode_str(&b))
            .unwrap_or_default();
        let mut ids: Vec<&str> = list.split(',').filter(|s| !s.is_empty()).collect();
        ids.push(tweet_id);
        let start = ids.len().saturating_sub(10);
        self.storage.put(
            format!("posts/{user}"),
            codec::encode_str(&ids[start..].join(",")),
        );
    }

    /// GetTimeline against Redis; returns (duration, result).
    pub fn get_timeline(&self, user: usize) -> (Duration, TimelineResult) {
        #[expect(
            clippy::disallowed_methods,
            reason = "returned Duration is the measured request latency, the workload's output"
        )]
        let start = Instant::now();
        let following = self
            .storage
            .get(&format!("following/{user}"))
            .and_then(|b| codec::decode_str(&b))
            .unwrap_or_default();
        let mut tweets = 0;
        let mut anomalies = 0;
        for followee in following.split(',').filter(|s| !s.is_empty()).take(5) {
            let posts = self
                .storage
                .get(&format!("posts/{followee}"))
                .and_then(|b| codec::decode_str(&b))
                .unwrap_or_default();
            let recent: Vec<&str> = posts.split(',').filter(|s| !s.is_empty()).collect();
            let start = recent.len().saturating_sub(5);
            for id in &recent[start..] {
                match self
                    .storage
                    .get(&format!("tweet/{id}"))
                    .and_then(|b| codec::decode_str(&b))
                {
                    Some(content) => {
                        tweets += 1;
                        let reply_to = content.split('|').nth(1).unwrap_or("");
                        if !reply_to.is_empty()
                            && self.storage.get(&format!("tweet/{reply_to}")).is_none()
                        {
                            anomalies += 1;
                        }
                    }
                    None => anomalies += 1,
                }
            }
        }
        (start.elapsed(), TimelineResult { tweets, anomalies })
    }
}

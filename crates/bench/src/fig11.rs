//! Figures 11 & 12 (§6.3.2): Retwis latency on Cloudburst (LWW and causal
//! modes) vs serverful Redis, and causal-mode scaling.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cloudburst::cluster::CloudburstCluster;
use cloudburst::types::ConsistencyLevel;
use cloudburst_apps::retwis::{Retwis, RetwisConfig, RetwisRedis};
use cloudburst_apps::workloads::ZipfSampler;
use cloudburst_baselines::SimStorage;
use cloudburst_net::Network;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::harness::{LatencyStats, Profile};

/// One bar of Figure 11.
#[derive(Debug, Clone)]
pub struct Row {
    /// System label.
    pub system: &'static str,
    /// Request latency summary (paper ms).
    pub stats: LatencyStats,
    /// Fraction of timeline requests that observed a causal anomaly.
    pub anomaly_rate: f64,
}

/// One point of Figure 12.
#[derive(Debug, Clone)]
pub struct ScalePoint {
    /// Executor threads.
    pub threads: usize,
    /// Latency summary (paper ms).
    pub stats: LatencyStats,
    /// Requests per paper-second.
    pub throughput: f64,
    /// Anomaly rate observed.
    pub anomaly_rate: f64,
}

fn retwis_config(profile: &Profile) -> RetwisConfig {
    RetwisConfig {
        users: profile.retwis_users,
        follows_per_user: profile.retwis_follows,
        initial_tweets: profile.retwis_tweets,
        ..RetwisConfig::default()
    }
}

/// Drive the 90 % GetTimeline / 10 % PostTweet mix against a Cloudburst
/// deployment; returns (latencies, timeline-requests, anomalous-timelines).
fn drive_cloudburst(
    cluster: &CloudburstCluster,
    profile: &Profile,
    clients: usize,
    requests_per_client: usize,
    seed_ids: Arc<Vec<String>>,
) -> (Vec<Duration>, usize, usize) {
    let users = profile.retwis_users;
    let all_samples = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let timelines = Arc::new(AtomicUsize::new(0));
    let anomalous = Arc::new(AtomicUsize::new(0));
    let mut handles = Vec::new();
    for c in 0..clients {
        let client = cluster.client();
        let samples = Arc::clone(&all_samples);
        let timelines = Arc::clone(&timelines);
        let anomalous = Arc::clone(&anomalous);
        let seed_ids = Arc::clone(&seed_ids);
        handles.push(std::thread::spawn(move || {
            let zipf = ZipfSampler::new(users, 1.5);
            let mut rng = StdRng::seed_from_u64(0x0F0B_00AA + c as u64);
            let mut local = Vec::with_capacity(requests_per_client);
            for n in 0..requests_per_client {
                let user = zipf.sample(&mut rng);
                let t = Instant::now();
                if rng.random::<f64>() < 0.10 {
                    let id = format!("t-{c}-{n}");
                    let reply = if rng.random::<f64>() < 0.5 && !seed_ids.is_empty() {
                        Some(seed_ids[rng.random_range(0..seed_ids.len())].clone())
                    } else {
                        None
                    };
                    let _ =
                        Retwis::post_tweet(&client, user, &id, "benchmark tweet", reply.as_deref());
                } else if let Ok(tl) = Retwis::get_timeline(&client, user) {
                    timelines.fetch_add(1, Ordering::Relaxed);
                    if tl.anomalies > 0 {
                        anomalous.fetch_add(1, Ordering::Relaxed);
                    }
                }
                local.push(t.elapsed());
            }
            samples.lock().extend(local);
        }));
    }
    for h in handles {
        let _ = h.join();
    }
    let samples = all_samples.lock().clone();
    (
        samples,
        timelines.load(Ordering::Relaxed),
        anomalous.load(Ordering::Relaxed),
    )
}

/// Run the Figure 11 comparison.
pub fn run(profile: &Profile) -> Vec<Row> {
    let scale = profile.time_scale();
    let mut rows = Vec::new();
    for (label, level) in [
        ("Cloudburst (LWW)", ConsistencyLevel::Lww),
        (
            "Cloudburst (Causal)",
            ConsistencyLevel::DistributedSessionCausal,
        ),
    ] {
        let mut config = profile.cb_config(level, 2, 0x0F0B_0001);
        config.anna.replication = 2; // replica lag is the LWW anomaly source
        let cluster = CloudburstCluster::launch(config);
        let client = cluster.client();
        Retwis::register(&client).unwrap();
        let app = Retwis::new(retwis_config(profile));
        let ids = Arc::new(app.seed(&client).unwrap());
        let (samples, timelines, anomalous) = drive_cloudburst(
            &cluster,
            profile,
            profile.fig11_clients,
            profile.fig11_requests,
            ids,
        );
        rows.push(Row {
            system: label,
            stats: LatencyStats::from_durations(&samples, scale),
            anomaly_rate: anomalous as f64 / timelines.max(1) as f64,
        });
    }

    // Serverful Redis.
    {
        let net = Network::new(profile.net_config(0x0F0B_0002));
        let redis = Arc::new(RetwisRedis::new(SimStorage::redis(&net)));
        let config = retwis_config(profile);
        redis.seed(&config);
        let users = profile.retwis_users;
        let all: Arc<parking_lot::Mutex<Vec<Duration>>> =
            Arc::new(parking_lot::Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for c in 0..profile.fig11_clients {
            let redis = Arc::clone(&redis);
            let all = Arc::clone(&all);
            let requests = profile.fig11_requests;
            handles.push(std::thread::spawn(move || {
                let zipf = ZipfSampler::new(users, 1.5);
                let mut rng = StdRng::seed_from_u64(0x0F0B_00BB + c as u64);
                let mut local = Vec::with_capacity(requests);
                for n in 0..requests {
                    let user = zipf.sample(&mut rng);
                    let t = Instant::now();
                    if rng.random::<f64>() < 0.10 {
                        redis.post_tweet(user, &format!("r-{c}-{n}"), "tweet", None);
                    } else {
                        let _ = redis.get_timeline(user);
                    }
                    local.push(t.elapsed());
                }
                all.lock().extend(local);
            }));
        }
        for h in handles {
            let _ = h.join();
        }
        let samples = all.lock().clone();
        rows.push(Row {
            system: "Redis",
            stats: LatencyStats::from_durations(&samples, scale),
            anomaly_rate: 0.0,
        });
    }
    rows
}

/// Run the Figure 12 causal-mode scaling sweep.
pub fn run_scaling(profile: &Profile) -> Vec<ScalePoint> {
    let scale = profile.time_scale();
    let mut points = Vec::new();
    for &vms in profile.sweep_vms {
        let mut config =
            profile.cb_config(ConsistencyLevel::DistributedSessionCausal, vms, 0x0F0C_0001);
        config.anna.replication = 2;
        let cluster = CloudburstCluster::launch(config);
        let client = cluster.client();
        Retwis::register(&client).unwrap();
        let app = Retwis::new(retwis_config(profile));
        let ids = Arc::new(app.seed(&client).unwrap());
        let threads = cluster.executor_count();
        let clients = threads.max(1);
        let stop = Arc::new(AtomicBool::new(false));
        let completed = Arc::new(AtomicU64::new(0));
        let timelines = Arc::new(AtomicUsize::new(0));
        let anomalous = Arc::new(AtomicUsize::new(0));
        let all_samples = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let users = profile.retwis_users;
        let mut handles = Vec::new();
        for c in 0..clients {
            let client = cluster.client();
            let stop = Arc::clone(&stop);
            let completed = Arc::clone(&completed);
            let timelines = Arc::clone(&timelines);
            let anomalous = Arc::clone(&anomalous);
            let samples = Arc::clone(&all_samples);
            let ids = Arc::clone(&ids);
            handles.push(std::thread::spawn(move || {
                let zipf = ZipfSampler::new(users, 1.5);
                let mut rng = StdRng::seed_from_u64(0x0F0C_00AA + c as u64);
                let mut local = Vec::new();
                let mut n = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let user = zipf.sample(&mut rng);
                    let t = Instant::now();
                    if rng.random::<f64>() < 0.10 {
                        let id = format!("s-{c}-{n}");
                        let reply = if rng.random::<f64>() < 0.5 && !ids.is_empty() {
                            Some(ids[rng.random_range(0..ids.len())].clone())
                        } else {
                            None
                        };
                        let _ =
                            Retwis::post_tweet(&client, user, &id, "scale tweet", reply.as_deref());
                    } else if let Ok(tl) = Retwis::get_timeline(&client, user) {
                        timelines.fetch_add(1, Ordering::Relaxed);
                        if tl.anomalies > 0 {
                            anomalous.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    local.push(t.elapsed());
                    completed.fetch_add(1, Ordering::Relaxed);
                    n += 1;
                }
                samples.lock().extend(local);
            }));
        }
        let window = Duration::from_secs_f64(profile.sweep_secs);
        std::thread::sleep(window);
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            let _ = h.join();
        }
        let samples = all_samples.lock().clone();
        let paper_seconds = window.as_secs_f64() / profile.scale;
        points.push(ScalePoint {
            threads,
            stats: LatencyStats::from_durations(&samples, scale),
            throughput: completed.load(Ordering::Relaxed) as f64 / paper_seconds,
            anomaly_rate: anomalous.load(Ordering::Relaxed) as f64
                / timelines.load(Ordering::Relaxed).max(1) as f64,
        });
    }
    points
}

/// Print Figure 11.
pub fn print(rows: &[Row]) {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.system.to_string(),
                crate::harness::f1(r.stats.median_ms),
                crate::harness::f1(r.stats.p99_ms),
                format!("{:.1}%", r.anomaly_rate * 100.0),
                r.stats.samples.to_string(),
            ]
        })
        .collect();
    crate::harness::print_table(
        "Figure 11: Retwis request latency (paper ms)",
        &["system", "median", "p99", "anomalous timelines", "n"],
        &table,
    );
}

/// Print Figure 12.
pub fn print_scaling(points: &[ScalePoint]) {
    let table: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.threads.to_string(),
                crate::harness::f1(p.stats.median_ms),
                crate::harness::f1(p.stats.p99_ms),
                crate::harness::f1(p.throughput),
                format!("{:.1}%", p.anomaly_rate * 100.0),
            ]
        })
        .collect();
    crate::harness::print_table(
        "Figure 12: Retwis causal-mode scaling (latency paper ms; throughput req/paper-s)",
        &["threads", "median", "p99", "req/s", "anomalous"],
        &table,
    );
}

//! Integration tests of the evaluation applications against a live
//! Cloudburst cluster.

use std::time::Duration;

use bytes::Bytes;
use cloudburst::cluster::{CloudburstCluster, CloudburstConfig};
use cloudburst::types::ConsistencyLevel;
use cloudburst_apps::gossip::{
    register_gather, register_gossip, run_gather_cloudburst, run_gossip, GossipConfig,
};
use cloudburst_apps::prediction::PredictionPipeline;
use cloudburst_apps::retwis::{Retwis, RetwisConfig, RetwisRedis};
use cloudburst_baselines::SimStorage;
use cloudburst_net::{NetConfig, Network};

#[test]
fn gossip_converges_to_the_mean() {
    let cluster = CloudburstCluster::launch(CloudburstConfig {
        vms: 4,
        executors_per_vm: 3,
        ..CloudburstConfig::instant()
    });
    let client = cluster.client();
    register_gossip(&client).unwrap();
    let values: Vec<f64> = (0..10).map(|i| 10.0 + i as f64).collect(); // mean 14.5
    let result = run_gossip(
        &cluster,
        &values,
        GossipConfig {
            actors: 10,
            rounds: 40,
            run_id: 1,
            round_wait_ms: 2.0,
        },
    )
    .unwrap();
    assert_eq!(result.estimates.len(), 10);
    assert!(
        result.converged(0.05),
        "estimates {:?} vs mean {}",
        result.estimates,
        result.true_mean
    );
}

#[test]
fn gather_on_cloudburst_computes_exact_mean() {
    let cluster = CloudburstCluster::launch(CloudburstConfig::instant());
    let client = cluster.client();
    register_gather(&client).unwrap();
    let values = vec![1.0, 2.0, 3.0, 4.0];
    let result = run_gather_cloudburst(&client, &values, 7).unwrap();
    assert!((result.estimates[0] - 2.5).abs() < 1e-9);
}

#[test]
fn gather_on_lambda_storage_computes_exact_mean() {
    let net = Network::new(NetConfig {
        time_scale: cloudburst_net::TimeScale::new(0.001),
        default_latency: cloudburst_net::LatencyModel::Zero,
        seed: 4,
        ..NetConfig::default()
    });
    let lambda = cloudburst_baselines::SimLambda::new(&net);
    let redis = SimStorage::redis(&net);
    cloudburst_apps::gossip::deploy_gather_lambda(&lambda, std::sync::Arc::clone(&redis));
    let values = vec![2.0, 4.0, 6.0];
    let result = cloudburst_apps::gossip::run_gather_storage(&lambda, &redis, &values, 3).unwrap();
    assert!((result.estimates[0] - 4.0).abs() < 1e-9);
}

#[test]
fn prediction_pipeline_serves_on_cloudburst() {
    let cluster = CloudburstCluster::launch(CloudburstConfig::instant());
    let client = cluster.client();
    let pipeline = PredictionPipeline::new("model/v1", 64 * 1024);
    pipeline.seed_model(&client).unwrap();
    pipeline.register(&client).unwrap();
    let (latency, label) = pipeline
        .call(&client, Bytes::from(vec![1u8; 4096]))
        .unwrap();
    assert!(label.starts_with("class-"));
    assert!(latency > Duration::ZERO);
    // Deterministic: same image, same label.
    let (_, label2) = pipeline
        .call(&client, Bytes::from(vec![1u8; 4096]))
        .unwrap();
    assert_eq!(label, label2);
}

#[test]
fn retwis_end_to_end_on_cloudburst() {
    let cluster = CloudburstCluster::launch(CloudburstConfig::instant());
    let client = cluster.client();
    Retwis::register(&client).unwrap();
    let app = Retwis::new(RetwisConfig {
        users: 20,
        follows_per_user: 5,
        initial_tweets: 50,
        ..RetwisConfig::default()
    });
    app.seed(&client).unwrap();
    // Post a fresh tweet and a reply to it.
    Retwis::post_tweet(&client, 0, "t-100", "hello world", None).unwrap();
    Retwis::post_tweet(&client, 1, "t-101", "re: hello", Some("t-100")).unwrap();
    // Timelines render.
    let mut total_tweets = 0;
    for user in 0..20 {
        let tl = Retwis::get_timeline(&client, user).unwrap();
        total_tweets += tl.tweets;
    }
    assert!(total_tweets > 0, "timelines must contain seeded tweets");
}

#[test]
fn retwis_causal_mode_prevents_anomalies_on_quiescent_data() {
    let mut config = CloudburstConfig::instant();
    config.level = ConsistencyLevel::DistributedSessionCausal;
    let cluster = CloudburstCluster::launch(config);
    let client = cluster.client();
    Retwis::register(&client).unwrap();
    let app = Retwis::new(RetwisConfig {
        users: 10,
        follows_per_user: 3,
        initial_tweets: 30,
        ..RetwisConfig::default()
    });
    app.seed(&client).unwrap();
    for user in 0..10 {
        let tl = Retwis::get_timeline(&client, user).unwrap();
        assert_eq!(tl.anomalies, 0, "user {user} saw anomalies on static data");
    }
}

#[test]
fn retwis_redis_baseline_works() {
    let net = Network::new(NetConfig {
        time_scale: cloudburst_net::TimeScale::new(0.001),
        default_latency: cloudburst_net::LatencyModel::Zero,
        seed: 6,
        ..NetConfig::default()
    });
    let redis = RetwisRedis::new(SimStorage::redis(&net));
    let config = RetwisConfig {
        users: 20,
        follows_per_user: 5,
        initial_tweets: 50,
        ..RetwisConfig::default()
    };
    redis.seed(&config);
    redis.post_tweet(3, "t-x", "hi", None);
    redis.post_tweet(4, "t-y", "re: hi", Some("t-x"));
    let (latency, tl) = redis.get_timeline(0);
    assert!(latency > Duration::ZERO);
    assert_eq!(tl.anomalies, 0, "single-node Redis is strongly consistent");
}

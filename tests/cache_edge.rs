//! Integration tests across `semcom-cache` × `semcom-edge`: caching
//! economics and placement claims under event-driven workloads.

use semcom_cache::policy::{Gdsf, Lru, SemanticCost};
use semcom_cache::workload::Workload;
use semcom_edge::placement::{message_latency, MessageCost, Placement};
use semcom_edge::{FleetConfig, FleetSim, Topology};
use semcom_nn::rng::seeded_rng;

#[test]
fn hit_rate_is_monotone_in_capacity_for_every_policy() {
    let w = Workload::standard(4, 60, 0.9);
    let capacities = [500_000usize, 2_000_000, 8_000_000, 32_000_000];
    for name in ["lru", "gdsf", "semantic"] {
        let mut prev = -1.0;
        for &cap in &capacities {
            let mut rng = seeded_rng(1);
            let r = match name {
                "lru" => w.replay(cap, Lru::new(), 5_000, &mut rng),
                "gdsf" => w.replay(cap, Gdsf::new(), 5_000, &mut rng),
                _ => w.replay(cap, SemanticCost::new(), 5_000, &mut rng),
            };
            let hr = r.stats.hit_rate();
            assert!(
                hr >= prev - 0.02,
                "{name}: hit rate not monotone at {cap}: {prev} -> {hr}"
            );
            prev = hr;
        }
        assert!(prev > 0.9, "{name}: full-universe cache should mostly hit");
    }
}

#[test]
fn cost_aware_policies_cut_establishment_cost_under_pressure() {
    let w = Workload::standard(4, 100, 0.8);
    let cap = 3_000_000;
    let mut r1 = seeded_rng(2);
    let mut r2 = seeded_rng(2);
    let mut r3 = seeded_rng(2);
    let lru = w.replay(cap, Lru::new(), 10_000, &mut r1);
    let gdsf = w.replay(cap, Gdsf::new(), 10_000, &mut r2);
    let sem = w.replay(cap, SemanticCost::new(), 10_000, &mut r3);
    assert!(
        gdsf.total_miss_cost < lru.total_miss_cost,
        "gdsf {} vs lru {}",
        gdsf.total_miss_cost,
        lru.total_miss_cost
    );
    assert!(
        sem.total_miss_cost < lru.total_miss_cost,
        "semantic {} vs lru {}",
        sem.total_miss_cost,
        lru.total_miss_cost
    );
}

#[test]
fn edge_placement_dominates_cloud_for_cached_models() {
    let topo = Topology::default();
    for mops in [1.0, 10.0, 100.0, 1000.0] {
        let cost = MessageCost {
            encode_ops: mops * 1e6,
            decode_ops: mops * 1e6,
            ..MessageCost::default()
        };
        let edge = message_latency(&topo, Placement::Edge, &cost, true, 400_000).total();
        let cloud = message_latency(&topo, Placement::CloudOnly, &cost, true, 400_000).total();
        assert!(edge < cloud, "edge {edge} vs cloud {cloud} at {mops} Mops");
    }
}

#[test]
fn device_placement_only_wins_for_featherweight_codecs() {
    let topo = Topology::default();
    // Device wins when the codec is cheap and the compression saving is
    // large: it skips shipping the long raw text over the access link.
    let light = MessageCost {
        encode_ops: 1e5,
        decode_ops: 1e5,
        feature_bytes: 100,
        text_bytes: 20_000,
        ..MessageCost::default()
    };
    let heavy = MessageCost {
        encode_ops: 1e9,
        decode_ops: 1e9,
        ..MessageCost::default()
    };
    let edge_light = message_latency(&topo, Placement::Edge, &light, true, 0).total();
    let device_light = message_latency(&topo, Placement::DeviceOnly, &light, true, 0).total();
    let edge_heavy = message_latency(&topo, Placement::Edge, &heavy, true, 0).total();
    let device_heavy = message_latency(&topo, Placement::DeviceOnly, &heavy, true, 0).total();
    assert!(
        device_light < edge_light,
        "light codecs favor the device: {device_light} vs {edge_light}"
    );
    assert!(
        edge_heavy < device_heavy,
        "heavy codecs favor the edge: {edge_heavy} vs {device_heavy}"
    );
}

#[test]
fn event_sim_latency_tracks_hit_rate() {
    let mk = |cap: usize| {
        FleetSim::new(
            FleetConfig {
                n_edges: 1,
                n_requests: 2_000,
                arrival_rate_hz: 20.0,
                capacity_bytes: cap,
                ..FleetConfig::default()
            },
            Topology::default(),
        )
        .run(7)
    };
    let small = mk(500_000);
    let large = mk(16_000_000);
    assert!(large.hit_rate > small.hit_rate);
    assert!(large.latency.mean < small.latency.mean);
    assert!(large.fetch_time_total < small.fetch_time_total);
}

#[test]
fn kb_sizes_flow_into_cache_accounting() {
    use semcom_cache::ModelCache;
    use semcom_codec::{CodecConfig, KbScope, KnowledgeBase};
    use semcom_text::Domain;

    let kb = KnowledgeBase::new(
        CodecConfig::tiny(),
        50,
        20,
        KbScope::DomainGeneral(Domain::It),
        1,
    );
    let size = kb.size_bytes();
    let mut cache: ModelCache<u8, KnowledgeBase> =
        ModelCache::new(size * 2 + 1, Box::new(Lru::new()));
    cache.insert(0, kb.clone(), size, 1.0);
    cache.insert(1, kb.clone(), size, 1.0);
    assert_eq!(cache.len(), 2);
    // A third model exceeds the byte budget: one must go.
    cache.insert(2, kb, size, 1.0);
    assert_eq!(cache.len(), 2);
    assert!(cache.used_bytes() <= size * 2 + 1);
}

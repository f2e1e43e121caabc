//! Seeded inputs: cloud pools, request mixes and arrival schedules.
//!
//! Everything here is a pure function of the seed. The program under
//! test receives only what these functions generate.

use std::time::Duration;

use edgepc_data::{bunny_with_points, modelnet_like, scannet_like, DatasetConfig};
use edgepc_geom::rng::StdRng;
use edgepc_geom::PointCloud;
use edgepc_net::proto::{encode_request, RequestFrame};

use crate::subject::Def;

/// Scenes in the `scene_seg` pool, objects in the `object_cls` pool, and
/// clouds per plan key in the served pools.
pub const SCENES: usize = 8;
pub const OBJECTS: usize = 16;
pub const FIXED_CLOUDS: usize = 32;
pub const MIXED_CLOUDS: usize = 4;

/// Tenant-id space of the served workloads.
pub const TENANTS: u64 = 8;

/// The twelve cloud sizes of `stream_mixed`, most popular first; size
/// `i` is drawn with weight `1 / (i + 1)`.
pub const MIXED_SIZES: [usize; 12] = [256, 128, 512, 192, 384, 1024, 320, 640, 160, 768, 448, 896];
/// Share of `stream_mixed` requests that go to the PointNet++ model.
pub const MIXED_SEG_SHARE: f64 = 0.7;

/// splitmix64 finalizer, for deriving independent streams from one seed.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Seed of the `b`-th stream of kind `a` under `seed`; unlike an xor of
/// the three, no two (seed, a, b) triples share a stream.
pub fn derive(seed: u64, a: u64, b: u64) -> u64 {
    mix64(mix64(mix64(seed).wrapping_add(a)).wrapping_add(b))
}

/// W2-shaped pool: `SCENES` scannet-like 8192-point scenes.
pub fn scene_pool(seed: u64) -> (Def, Vec<PointCloud>) {
    let ds = scannet_like(&DatasetConfig {
        classes: 1,
        train_per_class: 1,
        test_per_class: SCENES,
        points_per_cloud: Some(8192),
        seed,
    });
    let classes = ds.num_classes.max(2);
    (
        Def::PaperSeg { classes },
        ds.test.into_iter().map(|s| s.cloud).collect(),
    )
}

/// W3-shaped pool: `OBJECTS` modelnet-like 1024-point objects.
pub fn object_pool(seed: u64) -> (Def, Vec<PointCloud>) {
    let ds = modelnet_like(&DatasetConfig {
        classes: OBJECTS,
        train_per_class: 0,
        test_per_class: 1,
        points_per_cloud: Some(1024),
        seed,
    });
    let classes = ds.num_classes.max(2);
    (
        Def::PaperCls { classes },
        ds.test.into_iter().map(|s| s.cloud).collect(),
    )
}

fn bunnies(points: usize, count: usize, seed: u64) -> Vec<PointCloud> {
    (0..count as u64)
        .map(|i| bunny_with_points(points, derive(seed, points as u64, i)))
        .collect()
}

/// A served workload's plan keys: `(model, clouds, weight)` each.
pub type Pools = Vec<(Def, Vec<PointCloud>, f64)>;

/// The one plan key of `stream_fixed`.
pub fn fixed_pools(seed: u64) -> Pools {
    vec![(Def::TinySeg, bunnies(256, FIXED_CLOUDS, seed), 1.0)]
}

/// The plan keys of `stream_mixed`: two models by twelve sizes, 24 keys
/// against a plan cache of 8 per shard.
pub fn mixed_pools(seed: u64) -> Pools {
    let harmonic: f64 = (1..=MIXED_SIZES.len()).map(|r| 1.0 / r as f64).sum();
    let mut out = Vec::new();
    for (def, share) in [
        (Def::TinySeg, MIXED_SEG_SHARE),
        (Def::TinyCls, 1.0 - MIXED_SEG_SHARE),
    ] {
        for (rank, &points) in MIXED_SIZES.iter().enumerate() {
            let weight = share / (rank + 1) as f64 / harmonic;
            let salt = derive(seed, 1, u64::from(def.served_index()));
            out.push((def, bunnies(points, MIXED_CLOUDS, salt), weight));
        }
    }
    out
}

/// What the load generator knows of one plan key: enough to draw a
/// request, put it on the wire and check the answer.
pub struct Wire {
    /// Index in the served model list.
    pub model: u16,
    /// Share of the workload's requests that use this key.
    pub weight: f64,
    pub clouds: Vec<PointCloud>,
    /// Reference logits per cloud.
    pub refs: Vec<Vec<f32>>,
}

/// One planned request: when it is due (from the phase start; zero in a
/// closed loop), which plan key and cloud it carries, and for whom.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Planned {
    pub due: Duration,
    pub subject: usize,
    pub cloud: usize,
    pub tenant: u64,
}

/// A seeded stream of requests drawn from the workload's mix.
pub struct RequestStream {
    rng: StdRng,
    /// Cumulative weights over the subjects.
    cumulative: Vec<f64>,
    clouds: Vec<usize>,
}

impl RequestStream {
    pub fn new(subjects: &[Wire], seed: u64) -> Self {
        let total: f64 = subjects.iter().map(|s| s.weight).sum();
        let mut acc = 0.0;
        RequestStream {
            rng: StdRng::seed_from_u64(seed),
            cumulative: subjects
                .iter()
                .map(|s| {
                    acc += s.weight / total;
                    acc
                })
                .collect(),
            clouds: subjects.iter().map(|s| s.clouds.len()).collect(),
        }
    }

    /// The next request, due `due` after the phase start.
    pub fn next(&mut self, due: Duration) -> Planned {
        let u = self.rng.next_f64();
        let subject = self
            .cumulative
            .iter()
            .position(|&c| u < c)
            .unwrap_or(self.cumulative.len() - 1);
        let cloud = (self.rng.next_u64() % self.clouds[subject] as u64) as usize;
        // Product of two uniforms skews the mix toward low tenant ids.
        let tenant = (self.rng.next_f64() * self.rng.next_f64() * TENANTS as f64) as u64;
        Planned {
            due,
            subject,
            cloud,
            tenant: tenant.min(TENANTS - 1),
        }
    }

    /// An open-loop phase: Poisson arrivals at `rate_rps` for `length`.
    pub fn poisson(&mut self, rate_rps: f64, length: Duration) -> Vec<Planned> {
        let mut at = 0.0;
        let mut out = Vec::new();
        loop {
            // Inverse-CDF exponential gap; 1 - u is in (0, 1].
            at += -(1.0 - self.rng.next_f64()).ln() / rate_rps;
            if at >= length.as_secs_f64() {
                return out;
            }
            out.push(self.next(Duration::from_secs_f64(at)));
        }
    }
}

/// The warm-up sequence: whole passes over the plan keys, most popular
/// first, each key twice in a row, until at least `requests` are
/// planned. The generator sends it a pair at a time; a pair is in flight
/// together on an otherwise idle server, so least-loaded routing gives
/// one to each shard, and both shards' plan caches (which keep the first
/// keys they see) fill with the same hot keys whatever the seed; only
/// the clouds are drawn.
pub fn warm_plan(subjects: &[Wire], seed: u64, requests: usize) -> Vec<Planned> {
    let mut order: Vec<usize> = (0..subjects.len()).collect();
    order.sort_by(|&a, &b| subjects[b].weight.total_cmp(&subjects[a].weight));
    let mut rng = StdRng::seed_from_u64(derive(seed, 0, 0));
    let mut plan = Vec::new();
    while plan.len() < requests {
        for &subject in &order {
            for _ in 0..2 {
                plan.push(Planned {
                    due: Duration::ZERO,
                    subject,
                    cloud: (rng.next_u64() % subjects[subject].clouds.len() as u64) as usize,
                    tenant: 0,
                });
            }
        }
    }
    plan
}

/// The wire frame of one planned request.
pub fn frame(seq: u64, planned: &Planned, subjects: &[Wire], deadline: Duration) -> Vec<u8> {
    let subject = &subjects[planned.subject];
    encode_request(&RequestFrame {
        seq,
        trace_id: 0,
        model: subject.model,
        tenant: planned.tenant,
        deadline_us: deadline.as_micros() as u64,
        points: subject.clouds[planned.cloud].points().to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS50: Duration = Duration::from_millis(50);

    fn subjects(seed: u64) -> Vec<Wire> {
        mixed_pools(seed)
            .into_iter()
            .map(|(def, clouds, weight)| Wire {
                model: def.served_index(),
                weight,
                clouds,
                refs: Vec::new(),
            })
            .collect()
    }

    #[test]
    fn same_seed_gives_the_same_schedule_and_frames() {
        let (a, b) = (subjects(11), subjects(11));
        let plan_a = RequestStream::new(&a, 5).poisson(400.0, Duration::from_secs(1));
        let plan_b = RequestStream::new(&b, 5).poisson(400.0, Duration::from_secs(1));
        assert_eq!(plan_a, plan_b);
        assert!(plan_a.len() > 300 && plan_a.len() < 500, "{}", plan_a.len());
        assert!(plan_a.windows(2).all(|w| w[0].due <= w[1].due));
        for (i, (pa, pb)) in plan_a.iter().zip(&plan_b).enumerate() {
            assert_eq!(frame(i as u64, pa, &a, MS50), frame(i as u64, pb, &b, MS50));
        }
        // Another seed changes both the clouds and the schedule.
        let c = subjects(12);
        let plan_c = RequestStream::new(&c, 6).poisson(400.0, Duration::from_secs(1));
        assert_ne!(plan_a, plan_c);
        assert_ne!(
            frame(0, &plan_a[0], &a, MS50),
            frame(0, &plan_a[0], &c, MS50)
        );
    }

    #[test]
    fn mixed_pool_has_24_keys_with_skewed_weights() {
        let pools = mixed_pools(3);
        assert_eq!(pools.len(), 24);
        let total: f64 = pools.iter().map(|p| p.2).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!(pools[0].2 > 4.0 * pools[11].2);
        assert!(pools.iter().all(|p| p.1.len() == MIXED_CLOUDS));
    }
}

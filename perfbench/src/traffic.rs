//! Seeded traffic: the inputs each tenant is asked to select for, the
//! frame bodies the generator sends, and the in-process reference
//! answers every reply is checked against.

use intune_binpacklib::{BinPacking, PackInputClass};
use intune_core::{Benchmark, FeatureVector};
use intune_daemon::protocol;
use intune_eval::{SuiteConfig, TestCase};
use intune_serve::{ModelArtifact, ServeOptions, VectorService};
use intune_sortlib::{PolySort, SortInputClass};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde_json::Value;

/// Feature vectors per frame (~4 KB `SelectBatch` frames).
pub const BATCH: usize = 8;
/// Inputs generated per tenant; the generator cycles through all of
/// them, cut into frames.
pub const INPUTS: usize = 1024;

/// The two served tenants, in registration order.
pub const TENANTS: [TestCase; 2] = [TestCase::Sort2, TestCase::Binpacking];

/// One tenant's generated inputs and frames.
pub struct TenantTraffic {
    /// `Benchmark::name()` — the daemon's tenant key.
    pub benchmark: String,
    /// Fully extracted features of each generated input.
    pub features: Vec<FeatureVector>,
    /// `Benchmark::encode_input` payload of each generated input.
    pub payloads: Vec<Value>,
    /// Input indices of each frame (`BATCH` per frame).
    pub frames: Vec<Vec<usize>>,
}

impl TenantTraffic {
    /// Generates `count` inputs of `case`'s traffic from `seed` (the
    /// served traffic has [`INPUTS`]): the suite's generator classes at
    /// CI-scale sizes, fresh values. Classes and sizes are
    /// fixed strata (input `i` takes class `i mod classes` and the
    /// `(i * phi) mod 1` quantile of the suite's size distribution), so
    /// every seed sends the same mix of input shapes and only the values
    /// and the grouping into frames change.
    pub fn generate(case: TestCase, seed: u64, count: usize) -> TenantTraffic {
        let cfg = SuiteConfig::ci();
        let mut rng = StdRng::seed_from_u64(
            seed ^ (case.name().len() as u64).wrapping_mul(0x1d8e_4e27_c47d_124f),
        );
        let quantile = |i: usize| (i as f64 * 0.618_033_988_749_895).fract();
        let (benchmark, features, payloads) = match case {
            TestCase::Sort2 => {
                let (lo, hi) = ((cfg.sort_n.0 as f64).ln(), (cfg.sort_n.1 as f64).ln());
                let classes = SortInputClass::all();
                let inputs: Vec<Vec<f64>> = (0..count)
                    .map(|i| {
                        let n = (lo + (hi - lo) * quantile(i)).exp().round() as usize;
                        classes[i % classes.len()].generate(n, &mut rng)
                    })
                    .collect();
                extract(&PolySort::new(cfg.sort_n.1), &inputs)
            }
            TestCase::Binpacking => {
                let (lo, hi) = cfg.pack_n;
                let classes = PackInputClass::all();
                let inputs: Vec<Vec<f64>> = (0..count)
                    .map(|i| {
                        let n = lo + ((hi - lo) as f64 * quantile(i)).round() as usize;
                        classes[i % classes.len()].generate(n, &mut rng)
                    })
                    .collect();
                extract(&BinPacking::new(cfg.pack_n.1), &inputs)
            }
            other => panic!("no traffic generator for {}", other.name()),
        };
        // Frames mix sizes evenly: rank the inputs by size, cut the
        // ranking into `BATCH` strata, shuffle each stratum with the
        // seed, and give frame `f` the `f`-th input of every stratum.
        let mut by_size: Vec<usize> = (0..count).collect();
        by_size.sort_by(|&a, &b| quantile(a).total_cmp(&quantile(b)));
        let per = count / BATCH;
        let mut strata: Vec<Vec<usize>> = by_size.chunks(per).map(<[usize]>::to_vec).collect();
        for stratum in &mut strata {
            stratum.shuffle(&mut rng);
        }
        let frames = (0..per)
            .map(|f| strata.iter().map(|stratum| stratum[f]).collect())
            .collect();
        TenantTraffic {
            benchmark,
            features,
            payloads,
            frames,
        }
    }

    /// The vectors of frame `f`.
    pub fn frame_features(&self, f: usize) -> Vec<FeatureVector> {
        self.frames[f]
            .iter()
            .map(|&i| self.features[i].clone())
            .collect()
    }

    /// Encoded `SelectBatch` request payloads of every frame.
    pub fn bodies(&self) -> Vec<String> {
        (0..self.frames.len())
            .map(|f| protocol::encode_select_batch(&self.frame_features(f)))
            .collect()
    }
}

fn extract<B: Benchmark>(b: &B, inputs: &[B::Input]) -> (String, Vec<FeatureVector>, Vec<Value>) {
    let features = inputs.iter().map(|i| b.extract_all(i)).collect();
    let payloads = inputs
        .iter()
        .map(|i| b.encode_input(i).unwrap_or(Value::Null))
        .collect();
    (b.name().to_string(), features, payloads)
}

/// Serving options used by the daemon and by every reference service:
/// the fallback policy can never engage (`drift_threshold` 1.0 is never
/// strictly exceeded), so an answer is a pure function of the artifact
/// and the vector and can be checked frame by frame.
pub fn serve_options() -> ServeOptions {
    ServeOptions {
        drift_threshold: 1.0,
        ..ServeOptions::default()
    }
}

/// The landmarks an in-process [`VectorService`] on `artifact` selects
/// for each frame of `traffic`.
pub fn reference(artifact: &ModelArtifact, traffic: &TenantTraffic) -> Vec<Vec<usize>> {
    let service = VectorService::new(artifact.clone(), serve_options())
        .expect("a freshly trained artifact is servable");
    (0..traffic.frames.len())
        .map(|f| {
            service
                .select_vector_batch(&traffic.frame_features(f))
                .expect("generated vectors fit the artifact")
                .iter()
                .map(|s| s.landmark)
                .collect()
        })
        .collect()
}

//! Property tests for recording durability: a segment truncated at any
//! byte offset recovers every complete frame and types the torn tail —
//! the datalog mirror of the journal's truncation property, run on real
//! recording frames through the shared `intune_core::seglog` reader.

use intune_core::seglog::{read_file, segment_path, SegmentRecord};
use intune_core::{FeatureDef, FeatureId, FeatureSample, FeatureVector};
use intune_datalog::recording::{FrameBody, RecordedFrame, RecordingOptions, RecordingWriter};
use proptest::prelude::*;

fn vector(x: f64) -> FeatureVector {
    let defs = [FeatureDef::new("a", 2), FeatureDef::new("b", 1)];
    let mut fv = FeatureVector::empty(&defs);
    for (property, def) in defs.iter().enumerate() {
        for level in 0..def.levels {
            fv.insert(
                FeatureId { property, level },
                FeatureSample::new(x + (property * 10 + level) as f64, 1.0),
            )
            .unwrap();
        }
    }
    fv
}

fn frame(i: usize) -> RecordedFrame {
    RecordedFrame {
        seq: 0, // assigned by the writer
        delta_micros: (i * 13) as u64,
        tenant: "prop".to_string(),
        conn: (i % 3) as u64,
        body: if i % 4 == 3 {
            FrameBody::Control {
                kind: "Stats".to_string(),
            }
        } else {
            FrameBody::Select {
                features: vec![vector(i as f64), vector(-(i as f64))],
                payloads: if i.is_multiple_of(2) {
                    vec![
                        serde_json::Value::Float(0.1 + i as f64),
                        serde_json::Value::Null,
                    ]
                } else {
                    vec![]
                },
                trace: (i.is_multiple_of(3))
                    .then(|| intune_core::TraceContext::root(i as u64 * 31 + 1)),
            }
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Recording crash tolerance: a segment truncated at **any** byte
    /// offset reloads every complete frame and reports the torn tail as
    /// a typed error — never a panic, and never a phantom frame.
    #[test]
    fn truncated_recording_segments_recover_every_complete_frame(
        frames in 1usize..12, cut_sel in 0usize..100_000,
    ) {
        let dir = std::env::temp_dir().join(format!(
            "intune-datalog-prop-{}-{frames}-{cut_sel}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        {
            // One segment holds everything: rotation is covered by unit
            // tests; truncation semantics are per-file.
            let mut w = RecordingWriter::open(&dir, RecordingOptions {
                segment_max_records: frames + 1,
            }).unwrap();
            for i in 0..frames {
                w.append(frame(i)).unwrap();
            }
        }
        let path = segment_path(&dir, RecordedFrame::PREFIX, 0);
        let bytes = std::fs::read(&path).unwrap();

        // Record the clean read and every frame's end offset.
        let clean = read_file::<RecordedFrame>(&path).unwrap();
        prop_assert!(clean.torn.is_none());
        prop_assert_eq!(clean.records.len(), frames);
        let mut boundaries = vec![0usize];
        {
            let mut at = 0usize;
            while at < bytes.len() {
                let len = u32::from_be_bytes([
                    bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3],
                ]) as usize;
                at += 4 + len;
                boundaries.push(at);
            }
        }

        let cut = cut_sel % (bytes.len() + 1);
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let scan = read_file::<RecordedFrame>(&path).unwrap();
        let complete = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
        prop_assert_eq!(
            scan.records.len(), complete,
            "cut at {} must keep exactly the complete prefix", cut
        );
        for (a, b) in scan.records.iter().zip(&clean.records) {
            prop_assert_eq!(a, b, "recovered frames are bit-faithful");
        }
        let on_boundary = boundaries.contains(&cut);
        prop_assert_eq!(
            scan.torn.is_none(), on_boundary,
            "torn tail iff the cut splits a frame (cut at {})", cut
        );
        if let Some(torn) = scan.torn {
            prop_assert!(
                matches!(torn, intune_core::Error::Artifact { .. }),
                "torn tail must be the typed artifact error, got {:?}", torn
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

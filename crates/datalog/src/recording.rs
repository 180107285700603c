//! The recording side of the datalog: a crash-tolerant capture of a
//! daemon's inbound request traffic.
//!
//! Every frame captures one decoded wire request — which tenant it was
//! addressed to, which client connection carried it, how long after the
//! previous recorded frame it arrived (a monotonic delta, so recordings
//! have no wall-clock in them), and the request body itself. A recording
//! is an [`intune_core::seglog`] log in the directory layout
//! (`datalog-00000000.seg`, …; schema `intune-datalog`, version 1);
//! framing, rotation, torn-tail recovery and durability are specified
//! there. This module adds the frame type, [`load_recording`], and the
//! [`RecorderSink`] that stamps the `delta_micros` clock.
//!
//! The frame schema lives in `crates/datalog/README.md`.

use intune_core::seglog::{self, Record, SegmentOptions, SegmentRecord, Sink, Writer};
use intune_core::{FeatureVector, Result};
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::ops::Deref;
use std::path::Path;
use std::time::Instant;

/// The decoded body of one recorded request frame.
///
/// The daemon records requests *after* decoding them, so a recording is
/// replayable without the wire parser: selection traffic carries the
/// exact feature vectors and payloads the daemon answered, and
/// everything else collapses to a named control marker (recorded so a
/// playback can account for the full session shape, skipped during
/// replay).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FrameBody {
    /// One selection request: fully-extracted feature vectors plus the
    /// optional raw-input payloads that rode along (empty when the
    /// client sent an untraced batch).
    Select {
        /// The served feature vectors, in request order.
        features: Vec<FeatureVector>,
        /// Parallel raw-input payloads (`Null` = none), or empty.
        payloads: Vec<Value>,
        /// The sampled trace context the request carried, when it was
        /// traced (absent = untraced; the field is elided on disk, so
        /// recordings without tracing are byte-identical to version 1
        /// captures and old recordings load with `None`).
        trace: Option<intune_core::TraceContext>,
    },
    /// A non-selection request (handshake, stats, artifact lifecycle),
    /// identified by its wire message name.
    Control {
        /// The request's wire message name (e.g. `"Hello"`, `"Promote"`).
        kind: String,
    },
}

impl FrameBody {
    /// The selection parts of this body, or `None` for control frames.
    pub fn select_parts(&self) -> Option<(&[FeatureVector], &[Value])> {
        match self {
            FrameBody::Select {
                features, payloads, ..
            } => Some((features, payloads)),
            FrameBody::Control { .. } => None,
        }
    }

    /// The sampled trace context this frame carried, if any.
    pub fn trace(&self) -> Option<&intune_core::TraceContext> {
        match self {
            FrameBody::Select { trace, .. } => trace.as_ref(),
            FrameBody::Control { .. } => None,
        }
    }
}

/// One inbound request, as persisted in the recording.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecordedFrame {
    /// Monotone sequence number, unique across all segments of one
    /// recording directory (assigned by the writer).
    pub seq: u64,
    /// Microseconds elapsed since the previous recorded frame (0 for
    /// the first frame after open) — a monotonic delta, so replay can
    /// reproduce the original pacing without trusting any wall clock.
    pub delta_micros: u64,
    /// Name of the tenant the request was addressed to.
    pub tenant: String,
    /// Daemon-assigned connection id (unique per accepted connection
    /// for the daemon's lifetime; never reused, unlike slab slots).
    pub conn: u64,
    /// The decoded request body.
    pub body: FrameBody,
}

impl Record for RecordedFrame {
    const SCHEMA: &'static str = "intune-datalog";
    const VERSION: u32 = 1;
    fn seq_mut(&mut self) -> Option<&mut u64> {
        Some(&mut self.seq)
    }
}

impl SegmentRecord for RecordedFrame {
    const PREFIX: &'static str = "datalog-";
}

/// Recording writer settings (the segment size).
pub type RecordingOptions = SegmentOptions;

/// The append side of a recording (`open`, `stage`, `flush`, `append`).
pub type RecordingWriter = Writer<RecordedFrame>;

/// A whole recording, loaded back into memory.
#[derive(Debug, Default)]
pub struct Recording {
    /// Every complete frame across all segments, in capture order.
    pub frames: Vec<RecordedFrame>,
    /// Segment files scanned.
    pub segments: u64,
    /// Segments whose tail was torn or corrupt (their complete prefix
    /// still contributes to `frames`).
    pub torn_segments: u64,
}

/// Loads every complete frame of the recording in `dir`, in capture
/// order. Torn tails are tolerated (counted, complete prefixes kept) —
/// a recording cut short by a crash still replays up to the tear.
///
/// # Errors
/// Returns [`intune_core::Error::Artifact`] when the directory or a
/// segment cannot be read at all.
pub fn load_recording(dir: &Path) -> Result<Recording> {
    let mut recording = Recording::default();
    for path in seglog::list_segments(dir, RecordedFrame::PREFIX)? {
        let scan = seglog::read_file::<RecordedFrame>(&path)?;
        recording.segments += 1;
        recording.torn_segments += u64::from(scan.torn.is_some());
        recording.frames.extend(scan.records);
    }
    Ok(recording)
}

/// The recorder as the daemon sees it: a shared, best-effort tap on the
/// request path (a [`Sink`], so `appended`, `dropped` and `last_error`
/// come from there). A frame that cannot be recorded — oversized, disk
/// failure — **never fails the serving path**.
#[derive(Debug)]
pub struct RecorderSink(Sink<RecordedFrame, Instant>);

impl Deref for RecorderSink {
    type Target = Sink<RecordedFrame, Instant>;
    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl RecorderSink {
    /// Opens (or resumes) the recording in `dir`; see [`Writer::open`].
    ///
    /// # Errors
    /// Returns [`intune_core::Error::Artifact`] on IO failure.
    pub fn open(dir: &Path, opts: RecordingOptions) -> Result<Self> {
        Ok(RecorderSink(Sink::new(
            RecordingWriter::open(dir, opts)?,
            Instant::now(),
        )))
    }

    /// Records one inbound request frame. Its `delta_micros` is measured
    /// from the previous frame's instant under the writer's lock, so
    /// deltas follow sequence order; the clock advances even for dropped
    /// frames, so the pacing of later frames stays truthful.
    pub fn record(&self, tenant: &str, conn: u64, body: FrameBody) {
        self.0.append(|last: &mut Instant| {
            let now = Instant::now();
            let delta_micros =
                u64::try_from(now.duration_since(*last).as_micros()).unwrap_or(u64::MAX);
            *last = now;
            Some(RecordedFrame {
                seq: 0, // assigned by the writer
                delta_micros,
                tenant: tenant.to_string(),
                conn,
                body,
            })
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use intune_core::{Error, FeatureDef, FeatureId, FeatureSample, TraceContext};
    use std::path::PathBuf;

    fn fv(x: f64) -> FeatureVector {
        let mut fv = FeatureVector::empty(&[FeatureDef::new("k", 1)]);
        let id = FeatureId {
            property: 0,
            level: 0,
        };
        fv.insert(id, FeatureSample::new(x, 1.0)).unwrap();
        fv
    }

    fn select(xs: &[f64], payloads: Vec<Value>, trace: Option<TraceContext>) -> FrameBody {
        FrameBody::Select {
            features: xs.iter().map(|&x| fv(x)).collect(),
            payloads,
            trace,
        }
    }

    fn control(kind: &str) -> FrameBody {
        FrameBody::Control {
            kind: kind.to_string(),
        }
    }

    fn select_frame(x: f64) -> RecordedFrame {
        RecordedFrame {
            seq: 999, // overwritten by the writer
            delta_micros: 7,
            tenant: "sort".to_string(),
            conn: (x as u64) % 3,
            body: select(&[x], vec![Value::Array(vec![Value::Float(x)])], None),
        }
    }

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "intune-datalog-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn writer(dir: &Path, segment_max_records: usize) -> RecordingWriter {
        RecordingWriter::open(
            dir,
            RecordingOptions {
                segment_max_records,
            },
        )
        .unwrap()
    }

    #[test]
    fn append_rotate_and_read_back_across_segments() {
        let dir = tmp("rotate");
        let mut w = writer(&dir, 4);
        for i in 0..10 {
            assert_eq!(w.append(select_frame(i as f64)).unwrap(), i);
        }
        assert_eq!(w.active_segment(), 2, "10 frames at 4/segment");
        let recording = load_recording(&dir).unwrap();
        assert_eq!((recording.segments, recording.torn_segments), (3, 0));
        assert_eq!(recording.frames.len(), 10);
        for (i, frame) in recording.frames.iter().enumerate() {
            assert_eq!(frame.seq, i as u64, "writer stamps sequence numbers");
            assert_eq!((frame.delta_micros, frame.tenant.as_str()), (7, "sort"));
            let (features, payloads) = frame.body.select_parts().expect("select frame");
            assert_eq!((features.len(), payloads.len()), (1, 1));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn control_frames_round_trip() {
        let dir = tmp("control");
        let mut frame = select_frame(4.0);
        frame.body = control("Hello");
        writer(&dir, 1024).append(frame).unwrap();
        let recording = load_recording(&dir).unwrap();
        assert_eq!(recording.frames.len(), 1);
        assert!(recording.frames[0].body.select_parts().is_none());
        assert_eq!(recording.frames[0].body, control("Hello"));
        assert_eq!(recording.frames[0].conn, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_resumes_sequence_and_appends_to_the_active_segment() {
        let dir = tmp("resume");
        let mut w = writer(&dir, 4);
        for i in 0..6 {
            w.append(select_frame(i as f64)).unwrap();
        }
        drop(w);
        let mut w = writer(&dir, 4);
        assert_eq!(w.next_seq(), 6, "sequence resumes after the last frame");
        assert_eq!(w.active_segment(), 1, "half-full segment is reused");
        w.append(select_frame(9.0)).unwrap();
        assert_eq!(load_recording(&dir).unwrap().segments, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_sealed_and_writing_continues_in_a_fresh_segment() {
        let dir = tmp("torn");
        let mut w = writer(&dir, 1024);
        for i in 0..3 {
            w.append(select_frame(i as f64)).unwrap();
        }
        drop(w);
        // Crash simulation: cut the active segment mid-frame.
        let path = seglog::segment_path(&dir, RecordedFrame::PREFIX, 0);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
        let scan = seglog::read_file::<RecordedFrame>(&path).unwrap();
        assert_eq!(scan.records.len(), 2, "complete frames survive");
        let torn = scan.torn.expect("torn tail typed");
        assert!(matches!(torn, Error::Artifact { .. }), "{torn:?}");

        let mut w = writer(&dir, 1024);
        assert_eq!(w.next_seq(), 2, "the torn frame's seq is reissued");
        assert_eq!(w.active_segment(), 1, "damaged segment is sealed");
        w.append(select_frame(8.0)).unwrap();
        // A torn recording still loads its complete prefix.
        let recording = load_recording(&dir).unwrap();
        assert_eq!((recording.frames.len(), recording.torn_segments), (3, 1));
        assert_eq!(recording.frames[2].seq, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sink_stamps_order_and_counts_appends() {
        let dir = tmp("sink");
        let sink = RecorderSink::open(&dir, RecordingOptions::default()).unwrap();
        sink.record("sort", 11, control("Hello"));
        sink.record("sort", 11, select(&[1.0], vec![], None));
        let traced = Some(TraceContext::root(0xfeed));
        let payloads = vec![Value::Null, Value::Int(4)];
        sink.record("cluster", 12, select(&[2.0, 3.0], payloads.clone(), traced));
        assert_eq!((sink.appended(), sink.dropped()), (3, 0));
        assert!(sink.last_error().is_none());

        let frames = load_recording(&dir).unwrap().frames;
        let seqs: Vec<u64> = frames.iter().map(|f| f.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2], "capture order is sequence order");
        assert_eq!((frames[2].tenant.as_str(), frames[2].conn), ("cluster", 12));
        let (features, got) = frames[2].body.select_parts().unwrap();
        assert_eq!((features.len(), got), (2, payloads.as_slice()));
        assert!(frames[1].body.trace().is_none());
        assert_eq!(
            frames[2].body.trace().map(|t| t.trace_id),
            Some(0xfeed),
            "a traced frame's context round-trips through the recording"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn oversized_frames_are_dropped_typed_and_never_poison_the_sink() {
        let dir = tmp("oversize");
        let sink = RecorderSink::open(&dir, RecordingOptions::default()).unwrap();
        // A payload whose encoded frame exceeds the 16 MiB record cap —
        // wire clients can ship these (the wire frame cap is 64 MiB), so
        // the recorder must drop the frame, not fail the serving path.
        let huge = Value::String("x".repeat(intune_core::codec::MAX_RECORD_BYTES + 1024));
        sink.record("sort", 1, select(&[1.0], vec![huge], None));
        assert_eq!(
            (sink.dropped(), sink.appended()),
            (1, 0),
            "the frame is lost"
        );
        let err = sink.last_error().expect("typed drop reason");
        assert!(err.to_string().contains("frame cap"), "{err}");

        // The sink (and its mutex) survive: later frames still record.
        sink.record("sort", 1, select(&[2.0], vec![], None));
        assert_eq!(sink.appended(), 1);
        let recording = load_recording(&dir).unwrap();
        assert_eq!((recording.frames.len(), recording.torn_segments), (1, 0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn foreign_files_in_the_recording_dir_are_ignored() {
        let dir = tmp("foreign");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("README.txt"), "not a segment").unwrap();
        std::fs::write(dir.join("datalog-xx.seg"), "bad index").unwrap();
        writer(&dir, 1024).append(select_frame(1.0)).unwrap();
        assert_eq!(load_recording(&dir).unwrap().segments, 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}

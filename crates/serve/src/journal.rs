//! The request journal: the crash-tolerant log of served selections.
//!
//! Every record captures one answered request — the served feature
//! vector, the chosen landmark, the drift/fallback outcome, the serving
//! artifact's revision, and (when the client shipped one) an opaque
//! raw-input payload. The journal is an [`intune_core::seglog`] log in
//! the directory layout (`journal-00000000.seg`, …; schema
//! `intune-request-journal`, version 1); framing, rotation, torn-tail
//! recovery and durability are specified there. This module adds the
//! record type and the serving integration: a [`JournalSink`] stages a
//! served batch and writes it with one syscall.
//!
//! The record schema lives in `crates/retrain/README.md`.

use crate::service::Selection;
use crate::trace::TraceSink;
use intune_core::seglog::{Record, SegmentOptions, SegmentRecord, Sink, Writer};
use intune_core::FeatureVector;
use serde::{Deserialize, Serialize};
use serde_json::Value;

/// One served selection, as persisted in the journal.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JournalRecord {
    /// Monotone sequence number, unique across all segments of one
    /// journal directory (assigned by the writer).
    pub seq: u64,
    /// Rollout revision of the artifact that answered.
    pub revision: u64,
    /// Index of the landmark actually served.
    pub landmark: u64,
    /// Whether the drift probe flagged the input out-of-distribution.
    pub out_of_distribution: bool,
    /// Whether the fallback policy overrode the classifier.
    pub fell_back: bool,
    /// The served (fully-extracted) feature vector.
    pub features: FeatureVector,
    /// Opaque raw-input payload shipped by the client for retraining
    /// (`Benchmark::encode_input`), or `None` for feature-only requests.
    pub payload: Option<Value>,
    /// Trace id of the sampled request that served this record, or
    /// `None` for untraced traffic. Elided from the encoding when absent,
    /// so journals written before tracing read back unchanged — and a
    /// retrain cycle can name exactly which traces fed it.
    pub trace_id: Option<u64>,
}

impl Record for JournalRecord {
    const SCHEMA: &'static str = "intune-request-journal";
    const VERSION: u32 = 1;
    fn seq_mut(&mut self) -> Option<&mut u64> {
        Some(&mut self.seq)
    }
}

impl SegmentRecord for JournalRecord {
    const PREFIX: &'static str = "journal-";
}

/// Journal writer settings (the segment size).
pub type JournalOptions = SegmentOptions;

/// The append side of the journal (`open`, `stage`, `flush`, `append`).
pub type JournalWriter = Writer<JournalRecord>;

/// The journal as a [`TraceSink`]: the bridge between the serving runtime
/// and the log. Each served batch is staged under the sink's lock and
/// written with **one write**; a record that cannot be journaled —
/// oversized payload, disk failure — **never fails the serving path**: it
/// is counted in `dropped` and its error kept in `last_error`.
pub type JournalSink = Sink<JournalRecord>;

impl TraceSink for JournalSink {
    fn record_batch(
        &self,
        revision: u64,
        features: &[FeatureVector],
        payloads: &[Value],
        selections: &[Selection],
        trace_id: Option<u64>,
    ) {
        self.append(|()| {
            features
                .iter()
                .zip(selections)
                .enumerate()
                .map(|(i, (fv, selection))| JournalRecord {
                    seq: 0, // assigned by the writer
                    revision,
                    landmark: selection.landmark as u64,
                    out_of_distribution: selection.out_of_distribution,
                    fell_back: selection.fell_back,
                    features: fv.clone(),
                    payload: payloads.get(i).filter(|v| !v.is_null()).cloned(),
                    trace_id,
                })
        });
    }

    fn appended(&self) -> u64 {
        Sink::appended(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use intune_core::seglog::{list_segments, read_file, segment_path};
    use intune_core::{Error, FeatureDef, FeatureId, FeatureSample};
    use std::path::{Path, PathBuf};

    fn record(seq: u64, kind: f64) -> JournalRecord {
        let mut fv = FeatureVector::empty(&[FeatureDef::new("kind", 1)]);
        let id = FeatureId {
            property: 0,
            level: 0,
        };
        fv.insert(id, FeatureSample::new(kind, 1.0)).unwrap();
        JournalRecord {
            seq,
            revision: 3,
            landmark: seq % 2,
            out_of_distribution: seq.is_multiple_of(3),
            fell_back: false,
            features: fv,
            payload: ((kind as u64).is_multiple_of(2))
                .then(|| Value::Array(vec![Value::Float(kind)])),
            trace_id: None,
        }
    }

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "intune-journal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn opts(segment_max_records: usize) -> JournalOptions {
        JournalOptions {
            segment_max_records,
        }
    }

    /// Every segment's records in order, and the number of torn segments.
    fn read_back(dir: &Path) -> (Vec<JournalRecord>, usize) {
        let mut records = Vec::new();
        let mut torn = 0;
        for segment in list_segments(dir, JournalRecord::PREFIX).unwrap() {
            let scan = read_file::<JournalRecord>(&segment).unwrap();
            records.extend(scan.records);
            torn += usize::from(scan.torn.is_some());
        }
        (records, torn)
    }

    fn selections(n: usize) -> Vec<Selection> {
        vec![
            Selection {
                landmark: 1,
                extraction_cost: 0.5,
                out_of_distribution: true,
                fell_back: false,
            };
            n
        ]
    }

    #[test]
    fn append_rotate_and_read_back_across_segments() {
        let dir = tmp("rotate");
        let mut w = JournalWriter::open(&dir, opts(4)).unwrap();
        for i in 0..10 {
            assert_eq!(w.append(record(999, i as f64)).unwrap(), i);
        }
        assert_eq!(w.active_segment(), 2, "10 records at 4/segment");
        assert_eq!(list_segments(&dir, JournalRecord::PREFIX).unwrap().len(), 3);
        let (all, torn) = read_back(&dir);
        assert_eq!(torn, 0);
        let seqs: Vec<u64> = all.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, (0..10).collect::<Vec<_>>(), "writer stamps seq");
        assert!(all.iter().all(|r| r.revision == 3));
        // Payload presence alternates by construction.
        assert!(all[0].payload.is_some());
        assert!(all[1].payload.is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_resumes_sequence_and_appends_to_the_active_segment() {
        let dir = tmp("resume");
        let mut w = JournalWriter::open(&dir, opts(4)).unwrap();
        for i in 0..6 {
            w.append(record(0, i as f64)).unwrap();
        }
        drop(w);
        let mut w = JournalWriter::open(&dir, opts(4)).unwrap();
        assert_eq!(w.next_seq(), 6, "sequence resumes after the last record");
        assert_eq!(w.active_segment(), 1, "half-full segment is reused");
        w.append(record(0, 9.0)).unwrap();
        let segments = list_segments(&dir, JournalRecord::PREFIX).unwrap();
        assert_eq!(segments.len(), 2, "no fresh segment was needed");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_sealed_and_writing_continues_in_a_fresh_segment() {
        let dir = tmp("torn");
        let mut w = JournalWriter::open(&dir, JournalOptions::default()).unwrap();
        for i in 0..3 {
            w.append(record(0, i as f64)).unwrap();
        }
        drop(w);
        // Crash simulation: cut the active segment mid-record.
        let path = segment_path(&dir, JournalRecord::PREFIX, 0);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
        let scan = read_file::<JournalRecord>(&path).unwrap();
        assert_eq!(scan.records.len(), 2, "complete records survive");
        let torn = scan.torn.expect("torn tail typed");
        assert!(matches!(torn, Error::Artifact { .. }), "{torn:?}");

        let mut w = JournalWriter::open(&dir, JournalOptions::default()).unwrap();
        assert_eq!(w.next_seq(), 2, "the torn record's seq is reissued");
        assert_eq!(w.active_segment(), 1, "damaged segment is sealed");
        w.append(record(0, 8.0)).unwrap();
        // The sealed segment still reads back its complete prefix.
        let (all, torn) = read_back(&dir);
        assert_eq!(all.iter().map(|r| r.seq).collect::<Vec<_>>(), [0, 1, 2]);
        assert_eq!(torn, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sink_counts_appends_and_null_payloads_become_none() {
        let dir = tmp("sink");
        let sink = JournalSink::open(&dir, JournalOptions::default()).unwrap();
        let fv = record(0, 1.0).features;
        let features = vec![fv.clone(), fv];
        let payloads = vec![Value::Array(vec![Value::Int(1)]), Value::Null];
        sink.record_batch(7, &features, &payloads, &selections(2), Some(0xbeef));
        // And a payload-free batch.
        sink.record_batch(7, &features, &[], &selections(2), None);
        assert_eq!(TraceSink::appended(&sink), 4);
        assert_eq!(sink.dropped(), 0);
        assert!(sink.last_error().is_none());

        let (all, _) = read_back(&dir);
        assert_eq!(all.len(), 4);
        assert!(all[0].payload.is_some());
        assert!(all[1].payload.is_none(), "Null payload elided");
        assert!(all[2].payload.is_none());
        assert_eq!((all[0].revision, all[0].landmark), (7, 1));
        assert!(all[0].out_of_distribution);
        assert_eq!(all[1].trace_id, Some(0xbeef), "trace id stamped per record");
        assert_eq!(all[2].trace_id, None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn oversized_payloads_are_dropped_typed_and_never_poison_the_sink() {
        let dir = tmp("oversize");
        let sink = JournalSink::open(&dir, JournalOptions::default()).unwrap();
        let fv = record(0, 1.0).features;
        // A payload whose encoded record exceeds the 16 MiB frame cap —
        // wire clients can ship these (the wire frame cap is 64 MiB), so
        // the sink must drop the record, not panic under its mutex and
        // take every later selection down with it.
        let huge = Value::String("x".repeat(intune_core::codec::MAX_RECORD_BYTES + 1024));
        let pair = [fv.clone(), fv.clone()];
        sink.record_batch(1, &pair, &[huge, Value::Null], &selections(2), None);
        assert_eq!(sink.dropped(), 1, "only the oversized record is lost");
        assert_eq!(sink.appended(), 1, "the rest of the batch lands");
        let err = sink.last_error().expect("typed drop reason");
        assert!(err.to_string().contains("frame cap"), "{err}");

        // The sink (and its mutex) survive: later batches still journal.
        sink.record_batch(1, &[fv], &[], &selections(1), None);
        assert_eq!(sink.appended(), 2);
        let (all, torn) = read_back(&dir);
        assert_eq!(torn, 0);
        let seqs: Vec<u64> = all.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, [0, 1], "the dropped record's seq is not used");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn foreign_files_in_the_journal_dir_are_ignored() {
        let dir = tmp("foreign");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("README.txt"), "not a segment").unwrap();
        std::fs::write(dir.join("journal-xx.seg"), "bad index").unwrap();
        let mut w = JournalWriter::open(&dir, JournalOptions::default()).unwrap();
        w.append(record(0, 1.0)).unwrap();
        assert_eq!(list_segments(&dir, JournalRecord::PREFIX).unwrap().len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}

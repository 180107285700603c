//! The workspace's one crash-tolerant append-only log.
//!
//! Four logs share this module: the request journal
//! (`intune_serve::journal`), the wire recording
//! (`intune_datalog::recording`), the lifecycle event log
//! (`intune_obs::events`) and the span log (`intune_obs::trace`). Each
//! owns only its record type (a [`Record`]) and its per-type logic; the
//! framing, the reader, the writer and the best-effort sink live here.
//!
//! ## Framing
//!
//! A log is a byte stream of [`codec::encode_record`] frames: a 4-byte
//! big-endian body length, then the compact checksummed envelope
//! `{"schema":…,"version":…,"checksum":"fnv1a64:…","payload":…}` whose
//! payload is the record. Bodies above [`codec::MAX_RECORD_BYTES`] are
//! refused when writing and read as corruption.
//!
//! ## Reading
//!
//! [`scan`] walks the frames from the start and stops at the first one
//! that is incomplete, fails its checksum, names another schema or
//! version, or is checksum-valid but does not deserialize as the record
//! type. Everything before that point comes back in [`Scan::records`];
//! [`Scan::consumed`] is the byte offset where it ends (the last good
//! record's end, never past a record that was not returned); the reason
//! the scan stopped is a typed [`Error::Artifact`] in [`Scan::torn`].
//! Truncation at any byte offset yields exactly the complete prefix —
//! never a panic, never a phantom record.
//!
//! ## Layouts and their recovery rules
//!
//! **Directory layout** (journal, recording): a directory of numbered
//! segments named `{prefix}{index:08}.seg` (`journal-00000000.seg`,
//! `datalog-00000001.seg`, …); files that do not parse as segment names
//! are ignored. The [`Writer`] appends to the highest-numbered segment,
//! `fdatasync`s a full segment and rotates to a fresh one every
//! [`SegmentOptions::segment_max_records`] records. On reopen it resumes
//! `seq` after the newest complete record and **seals a torn segment**:
//! the damaged file is left as it is (its complete prefix stays
//! readable) and writing continues in segment `index + 1`, so appends
//! never land behind garbage.
//!
//! **Single-file layout** (events, spans): one file. On reopen the
//! [`Writer`] **truncates the torn tail** at [`Scan::consumed`] and
//! appends from there, resuming `seq` after the last complete record.
//!
//! ## Durability
//!
//! [`Writer::stage`] encodes into memory and [`Writer::flush`] issues
//! one `write(2)` for everything staged. A flushed record survives a
//! process crash; a sealed (rotated-away) segment has also been
//! `fdatasync`ed, so it survives a power cut. The active segment and the
//! single-file logs are not synced per flush: these logs feed
//! retraining, replay and diagnosis, where losing the last records to a
//! power cut costs data, not correctness.
//!
//! ## Best-effort appends
//!
//! A [`Sink`] wraps a writer for the serving path: appends never fail
//! the caller. Records that cannot be encoded or written are counted in
//! [`Sink::dropped`] and the last failure is kept in
//! [`Sink::last_error`]; a panic elsewhere never wedges the log behind
//! a poisoned lock.

use crate::codec;
use crate::error::{Error, Result};
use serde::{Deserialize, Serialize};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// File-name suffix of every segment.
const SEGMENT_SUFFIX: &str = ".seg";

/// A record type kept in a log: its envelope schema and, when it has
/// one, its writer-assigned sequence number.
pub trait Record: Serialize + Deserialize {
    /// Envelope schema name.
    const SCHEMA: &'static str;
    /// Envelope schema version.
    const VERSION: u32;

    /// The record's sequence-number field, for record types that carry
    /// one: the writer stamps it, and reopening resumes after it.
    fn seq_mut(&mut self) -> Option<&mut u64> {
        None
    }
}

/// A record type kept in the directory layout.
pub trait SegmentRecord: Record {
    /// Segment file-name prefix (`"journal-"`, `"datalog-"`).
    const PREFIX: &'static str;
}

/// What [`scan`] recovered from a byte stream (see the module docs).
#[derive(Debug)]
pub struct Scan<T> {
    /// Every complete record, in append order.
    pub records: Vec<T>,
    /// Bytes the returned records occupy: the safe truncation point.
    pub consumed: usize,
    /// Why the scan stopped short of the end, if it did.
    pub torn: Option<Error>,
}

/// Reads the records of a log byte stream (see the module docs).
pub fn scan<T: Record>(bytes: &[u8]) -> Scan<T> {
    let raw = codec::scan_records(bytes, T::SCHEMA, T::VERSION);
    let mut records = Vec::with_capacity(raw.records.len());
    let mut consumed = 0usize;
    let mut torn = raw.torn;
    for value in raw.records {
        match serde_json::from_value::<T>(&value) {
            Ok(record) => records.push(record),
            Err(e) => {
                torn = Some(Error::artifact(format!(
                    "`{}` record at byte {consumed} has an unexpected shape: {e}",
                    T::SCHEMA
                )));
                break;
            }
        }
        // The codec verified this frame, so its length prefix is whole.
        let len = u32::from_be_bytes(bytes[consumed..consumed + 4].try_into().expect("4 bytes"));
        consumed += 4 + len as usize;
    }
    Scan {
        records,
        consumed,
        torn,
    }
}

/// Reads and scans one log file (a segment or a single-file log).
///
/// # Errors
/// Returns [`Error::Artifact`] when the file cannot be read. A torn tail
/// is not an error: it comes back in [`Scan::torn`].
pub fn read_file<T: Record>(path: &Path) -> Result<Scan<T>> {
    let bytes = std::fs::read(path)
        .map_err(|e| Error::artifact(format!("cannot read {}: {e}", path.display())))?;
    Ok(scan(&bytes))
}

/// Path of segment `index` inside `dir`.
pub fn segment_path(dir: &Path, prefix: &str, index: u64) -> PathBuf {
    dir.join(format!("{prefix}{index:08}{SEGMENT_SUFFIX}"))
}

/// Index parsed back out of a segment path (`None` for foreign files).
pub fn segment_index(path: &Path, prefix: &str) -> Option<u64> {
    path.file_name()?
        .to_str()?
        .strip_prefix(prefix)?
        .strip_suffix(SEGMENT_SUFFIX)?
        .parse()
        .ok()
}

/// Lists the segments in `dir`, ascending by index.
///
/// # Errors
/// Returns [`Error::Artifact`] when the directory cannot be read.
pub fn list_segments(dir: &Path, prefix: &str) -> Result<Vec<PathBuf>> {
    let listing_error =
        |e: std::io::Error| Error::artifact(format!("cannot list log dir {}: {e}", dir.display()));
    let mut segments = Vec::new();
    for entry in std::fs::read_dir(dir).map_err(listing_error)? {
        let path = entry.map_err(listing_error)?.path();
        if let Some(index) = segment_index(&path, prefix) {
            segments.push((index, path));
        }
    }
    segments.sort_unstable();
    Ok(segments.into_iter().map(|(_, path)| path).collect())
}

/// Directory-layout settings.
#[derive(Debug, Clone)]
pub struct SegmentOptions {
    /// Records per segment before the writer seals it and rotates.
    pub segment_max_records: usize,
}

impl Default for SegmentOptions {
    fn default() -> Self {
        SegmentOptions {
            segment_max_records: 1024,
        }
    }
}

/// Rotation state of a directory-layout writer.
#[derive(Debug)]
struct Rotation {
    dir: PathBuf,
    prefix: &'static str,
    max: usize,
    segment: u64,
    in_segment: usize,
}

/// The append side of a log, in either layout. Not thread-safe by
/// itself: the serving path wraps it in a [`Sink`].
#[derive(Debug)]
pub struct Writer<T> {
    /// The file being appended to (the active segment, or the log).
    path: PathBuf,
    file: File,
    /// `None` in the single-file layout.
    rotation: Option<Rotation>,
    next_seq: u64,
    /// Encoded-but-unwritten frames.
    pending: Vec<u8>,
    pending_records: u64,
    /// Records written since open: the ground truth of sink counters.
    durable: u64,
    record: PhantomData<fn(T)>,
}

impl<T: SegmentRecord> Writer<T> {
    /// Opens (or resumes) the directory-layout log in `dir`, creating the
    /// directory if needed: resumes `seq` after the newest complete
    /// record and seals a torn newest segment (see the module docs).
    ///
    /// # Errors
    /// Returns [`Error::Artifact`] on IO failure.
    pub fn open(dir: &Path, opts: SegmentOptions) -> Result<Self> {
        std::fs::create_dir_all(dir).map_err(|e| {
            Error::artifact(format!("cannot create log dir {}: {e}", dir.display()))
        })?;
        let max = opts.segment_max_records.max(1);
        let segments = list_segments(dir, T::PREFIX)?;
        // One backwards pass answers both resume questions: the newest
        // segment decides where appends go, and the newest segment with
        // a complete record fixes the next sequence number.
        let mut next_seq = 0;
        let (mut segment, mut in_segment) = (0, 0);
        for (i, path) in segments.iter().enumerate().rev() {
            let mut scan = read_file::<T>(path)?;
            if i == segments.len() - 1 {
                let index = segment_index(path, T::PREFIX).expect("listed segments parse");
                (segment, in_segment) = if scan.torn.is_none() && scan.records.len() < max {
                    (index, scan.records.len())
                } else {
                    (index + 1, 0)
                };
            }
            if let Some(last) = scan.records.last_mut() {
                next_seq = last.seq_mut().map_or(0, |seq| *seq + 1);
                break;
            }
        }
        // Appends to a reusable newest segment; creates any other.
        let path = segment_path(dir, T::PREFIX, segment);
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| Error::artifact(format!("cannot open segment {}: {e}", path.display())))?;
        let rotation = Rotation {
            dir: dir.to_path_buf(),
            prefix: T::PREFIX,
            max,
            segment,
            in_segment,
        };
        Ok(Writer::new(path, file, Some(rotation), next_seq))
    }
}

impl<T: Record> Writer<T> {
    fn new(path: PathBuf, file: File, rotation: Option<Rotation>, next_seq: u64) -> Self {
        Writer {
            path,
            file,
            rotation,
            next_seq,
            pending: Vec::new(),
            pending_records: 0,
            durable: 0,
            record: PhantomData,
        }
    }

    /// Opens (or creates) the single-file log at `path`, truncating a
    /// torn tail and resuming `seq` (see the module docs).
    ///
    /// # Errors
    /// Returns [`Error::Artifact`] when the file cannot be read, created
    /// or truncated.
    pub fn open_file(path: &Path) -> Result<Self> {
        let io_error = |what: &str, e: std::io::Error| {
            Error::artifact(format!("cannot {what} {}: {e}", path.display()))
        };
        let mut scan = match std::fs::read(path) {
            Ok(bytes) => scan::<T>(&bytes),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => scan::<T>(&[]),
            Err(e) => return Err(io_error("read", e)),
        };
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| io_error("open", e))?;
        // Append mode writes at EOF, which is now the last good record's end.
        file.set_len(scan.consumed as u64)
            .map_err(|e| io_error("truncate", e))?;
        let next_seq = scan
            .records
            .last_mut()
            .and_then(Record::seq_mut)
            .map_or(0, |seq| *seq + 1);
        Ok(Writer::new(path.to_path_buf(), file, None, next_seq))
    }

    /// The sequence number the next record will be stamped with.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Index of the segment being appended to (0 in the single-file
    /// layout).
    pub fn active_segment(&self) -> u64 {
        self.rotation.as_ref().map_or(0, |r| r.segment)
    }

    /// Stamps `record` with the next sequence number (returned) and
    /// encodes it into the pending buffer; when the active segment is
    /// full it is flushed, sealed and rotated first. Nothing reaches the
    /// file until [`Writer::flush`].
    ///
    /// # Errors
    /// Returns [`Error::Artifact`] on an unencodable (oversized) record or
    /// a failed rotation; the sequence number is not consumed then.
    pub fn stage(&mut self, mut record: T) -> Result<u64> {
        if self
            .rotation
            .as_ref()
            .is_some_and(|r| r.in_segment >= r.max)
        {
            self.rotate()?;
        }
        let seq = self.next_seq;
        if let Some(slot) = record.seq_mut() {
            *slot = seq;
        }
        let frame = codec::encode_record(T::SCHEMA, T::VERSION, serde_json::to_value(&record))?;
        self.pending.extend_from_slice(&frame);
        self.pending_records += 1;
        if let Some(r) = &mut self.rotation {
            r.in_segment += 1;
        }
        self.next_seq += 1;
        Ok(seq)
    }

    /// Flushes, seals (`fdatasync`) and leaves the full active segment
    /// for a fresh one: readers treat sealed segments as crash-stable,
    /// and this is the last moment the writer holds the file.
    fn rotate(&mut self) -> Result<()> {
        self.flush()?;
        self.file
            .sync_data()
            .map_err(|e| Error::artifact(format!("cannot sync {}: {e}", self.path.display())))?;
        let r = self.rotation.as_mut().expect("only directory logs rotate");
        r.segment += 1;
        r.in_segment = 0;
        self.path = segment_path(&r.dir, r.prefix, r.segment);
        self.file = File::create(&self.path).map_err(|e| {
            Error::artifact(format!("cannot rotate to {}: {e}", self.path.display()))
        })?;
        Ok(())
    }

    /// Writes every pending frame with one `write(2)`. On failure the
    /// pending records are lost; their sequence numbers stay used (gaps
    /// are legal, resuming only needs the maximum).
    ///
    /// # Errors
    /// Returns [`Error::Artifact`] on IO failure.
    pub fn flush(&mut self) -> Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let outcome = self
            .file
            .write_all(&self.pending)
            .map_err(|e| Error::artifact(format!("cannot append to {}: {e}", self.path.display())));
        if outcome.is_ok() {
            self.durable += self.pending_records;
        }
        self.pending.clear();
        self.pending_records = 0;
        outcome
    }

    /// Stages and flushes one record; see [`Writer::stage`].
    ///
    /// # Errors
    /// Returns [`Error::Artifact`] on encoding or IO failure.
    pub fn append(&mut self, record: T) -> Result<u64> {
        let seq = self.stage(record)?;
        self.flush()?;
        Ok(seq)
    }
}

/// A [`Writer`] shared by serving threads, best-effort (see the module
/// docs). `S` is per-log state advanced under the writer's lock, in the
/// same order as the sequence numbers it stamps.
#[derive(Debug)]
pub struct Sink<T, S = ()> {
    inner: Mutex<(Writer<T>, S)>,
    dropped: AtomicU64,
    last_error: Mutex<Option<Error>>,
}

impl<T: SegmentRecord> Sink<T> {
    /// Opens (or resumes) a directory-layout sink; see [`Writer::open`].
    ///
    /// # Errors
    /// Returns [`Error::Artifact`] on IO failure.
    pub fn open(dir: &Path, opts: SegmentOptions) -> Result<Self> {
        Ok(Sink::new(Writer::open(dir, opts)?, ()))
    }
}

impl<T: Record, S> Sink<T, S> {
    /// Wraps `writer`, with `state` for [`Sink::append`] closures.
    pub fn new(writer: Writer<T>, state: S) -> Self {
        Sink {
            inner: Mutex::new((writer, state)),
            dropped: AtomicU64::new(0),
            last_error: Mutex::new(None),
        }
    }

    /// Under the writer's lock, stages every record `records` yields and
    /// flushes them with one write. Never fails the caller: whatever did
    /// not reach the file counts into [`Sink::dropped`].
    pub fn append<I: IntoIterator<Item = T>>(&self, records: impl FnOnce(&mut S) -> I) {
        let mut inner = lock(&self.inner);
        let (writer, state) = &mut *inner;
        let before = writer.durable;
        let mut attempted = 0u64;
        let mut error = None;
        for record in records(state) {
            attempted += 1;
            // An unrecordable record costs itself, never the batch. A
            // failed rotation can also lose records staged before it;
            // `durable` counts exactly what landed.
            if let Err(e) = writer.stage(record) {
                error = Some(e);
            }
        }
        if let Err(e) = writer.flush() {
            error = Some(e);
        }
        let landed = writer.durable - before;
        drop(inner);
        self.dropped.fetch_add(attempted - landed, Ordering::AcqRel);
        if let Some(e) = error {
            *lock(&self.last_error) = Some(e);
        }
    }

    /// Records written since this sink opened.
    pub fn appended(&self) -> u64 {
        lock(&self.inner).0.durable
    }

    /// Records dropped because they could not be encoded or written.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Acquire)
    }

    /// The most recent append failure, if any.
    pub fn last_error(&self) -> Option<Error> {
        lock(&self.last_error).clone()
    }
}

/// Locks `mutex`, recovering from poisoning: a panic on one serving
/// thread must not wedge every later append.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScratchDir;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;
    use serde_json::Value;

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Note {
        seq: u64,
        text: String,
    }

    impl Record for Note {
        const SCHEMA: &'static str = "intune-seglog-test";
        const VERSION: u32 = 1;
        fn seq_mut(&mut self) -> Option<&mut u64> {
            Some(&mut self.seq)
        }
    }

    impl SegmentRecord for Note {
        const PREFIX: &'static str = "note-";
    }

    fn note(i: usize) -> Note {
        Note {
            seq: 0,
            text: format!("{}{i}", "x".repeat(i % 5)),
        }
    }

    #[derive(Debug, Clone, Copy)]
    enum Layout {
        Dir,
        File,
    }

    impl Layout {
        fn open(self, root: &Path, segment_max_records: usize) -> Writer<Note> {
            match self {
                Layout::Dir => Writer::open(
                    root,
                    SegmentOptions {
                        segment_max_records,
                    },
                ),
                Layout::File => Writer::open_file(&root.join("notes.log")),
            }
            .unwrap()
        }

        /// The file the first records land in.
        fn first_file(self, root: &Path) -> PathBuf {
            match self {
                Layout::Dir => segment_path(root, Note::PREFIX, 0),
                Layout::File => root.join("notes.log"),
            }
        }

        /// Every readable record in order, and how many files are torn.
        fn read_all(self, root: &Path) -> (Vec<Note>, usize) {
            let files = match self {
                Layout::Dir => list_segments(root, Note::PREFIX).unwrap(),
                Layout::File => vec![self.first_file(root)],
            };
            let mut records = Vec::new();
            let mut torn = 0;
            for file in files {
                let scan = read_file::<Note>(&file).unwrap();
                records.extend(scan.records);
                torn += usize::from(scan.torn.is_some());
            }
            (records, torn)
        }
    }

    fn seqs(records: &[Note]) -> Vec<u64> {
        records.iter().map(|n| n.seq).collect()
    }

    /// Cuts a freshly written log at any byte: the reader returns exactly
    /// the complete prefix and types the tail, and reopening applies the
    /// layout's recovery rule and resumes `seq` after the prefix.
    fn truncation_case(
        layout: Layout,
        records: usize,
        cut_sel: usize,
    ) -> std::result::Result<(), TestCaseError> {
        let tmp = ScratchDir::new("seglog-truncate");
        let root = tmp.path();
        let path = layout.first_file(root);
        let mut boundaries = vec![0usize];
        {
            // One segment holds everything: truncation acts per file.
            let mut w = layout.open(root, records + 1);
            for i in 0..records {
                w.append(note(i)).unwrap();
                boundaries.push(std::fs::metadata(&path).unwrap().len() as usize);
            }
        }
        let bytes = std::fs::read(&path).unwrap();
        let clean = scan::<Note>(&bytes);
        prop_assert!(clean.torn.is_none());
        prop_assert_eq!(clean.records.len(), records);

        let cut = cut_sel % (bytes.len() + 1);
        let cut_scan = scan::<Note>(&bytes[..cut]);
        let complete = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
        let on_boundary = boundaries.contains(&cut);
        prop_assert_eq!(
            &cut_scan.records[..],
            &clean.records[..complete],
            "cut at {}",
            cut
        );
        prop_assert_eq!(cut_scan.consumed, boundaries[complete], "cut at {}", cut);
        prop_assert_eq!(cut_scan.torn.is_none(), on_boundary, "cut at {}", cut);
        if let Some(torn) = cut_scan.torn {
            prop_assert!(matches!(torn, Error::Artifact { .. }), "{:?}", torn);
        }

        std::fs::write(&path, &bytes[..cut]).unwrap();
        let mut w = layout.open(root, records + 1);
        prop_assert_eq!(w.next_seq(), complete as u64);
        w.append(note(99)).unwrap();
        let (all, torn) = layout.read_all(root);
        prop_assert_eq!(seqs(&all), (0..=complete as u64).collect::<Vec<_>>());
        // A directory seals the torn segment (it stays torn on disk); a
        // single file is truncated clean.
        let expect_torn = matches!(layout, Layout::Dir) && !on_boundary;
        prop_assert_eq!(torn, usize::from(expect_torn), "cut at {}", cut);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn truncated_segment_recovers_every_complete_record(
            records in 1usize..12, cut_sel in 0usize..100_000,
        ) {
            truncation_case(Layout::Dir, records, cut_sel)?;
        }

        #[test]
        fn truncated_log_file_recovers_every_complete_record(
            records in 1usize..12, cut_sel in 0usize..100_000,
        ) {
            truncation_case(Layout::File, records, cut_sel)?;
        }
    }

    /// A checksum-valid record of the log's own schema that this build
    /// cannot read (a newer writer's shape) is a torn tail: `consumed`
    /// stops before it, and a reopened log never appends behind it.
    #[test]
    fn alien_record_ends_the_readable_log_in_both_layouts() {
        for layout in [Layout::Dir, Layout::File] {
            let tmp = ScratchDir::new("seglog-alien");
            let root = tmp.path();
            layout.open(root, 1024).append(note(0)).unwrap();
            let path = layout.first_file(root);
            let good = std::fs::read(&path).unwrap();
            let future = Value::Object(vec![("future".to_string(), Value::Int(1))]);
            let alien = codec::encode_record(Note::SCHEMA, Note::VERSION, future).unwrap();
            std::fs::write(&path, [good.as_slice(), &alien].concat()).unwrap();

            let scan = read_file::<Note>(&path).unwrap();
            assert_eq!(seqs(&scan.records), [0], "{layout:?}");
            assert_eq!(scan.consumed, good.len(), "{layout:?}");
            let torn = scan.torn.expect("alien record is torn");
            assert!(torn.to_string().contains("unexpected shape"), "{torn}");

            let sink = Sink::new(layout.open(root, 1024), ());
            sink.append(|()| [note(1), note(2)]);
            assert_eq!(sink.appended(), 2, "{layout:?}");
            let (all, _) = layout.read_all(root);
            assert_eq!(seqs(&all), [0, 1, 2], "{layout:?}: appends read back once");
        }
    }
}

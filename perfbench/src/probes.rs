//! Per-layer probes for the traced run: each times calls into one
//! layer's public functions from outside, on the workload's own frames.

use crate::traffic::{self, TenantTraffic};
use crate::{median, ratio, secs, Report, WorkDir};
use intune_daemon::protocol::{self, Request, Response, HEADER_BYTES};
use intune_datalog::{FrameBody, RecordedFrame, RecordingOptions, RecordingWriter};
use intune_obs::{EventKind, EventLog, Span, SpanLog};
use intune_serve::{ModelArtifact, VectorService};
use std::hint::black_box;
use std::time::Instant;

/// Passes over the frame pool per timed function.
const PASSES: usize = 5;

/// Times `f` once per frame per pass, returning per-call microseconds.
fn time_each<T>(frames: usize, mut f: impl FnMut(usize) -> T) -> Vec<f64> {
    let mut us = Vec::with_capacity(frames * PASSES);
    for _ in 0..PASSES {
        for i in 0..frames {
            let t = Instant::now();
            black_box(f(i));
            us.push(secs(t) * 1e6);
        }
    }
    us
}

/// Serve metrics over the workload's frames and, when `wire` (the frames
/// go over a socket), protocol, datalog and obs metrics over them too.
pub fn layers(
    report: &mut Report,
    artifacts: &[&ModelArtifact],
    traffic: &[TenantTraffic],
    work: &WorkDir,
    wire: bool,
) -> Result<(), String> {
    // Every frame of every tenant, flattened: (tenant, frame).
    let index: Vec<(usize, usize)> = (0..traffic.len())
        .flat_map(|t| (0..traffic[t].frames.len()).map(move |f| (t, f)))
        .collect();
    let services: Vec<VectorService> = artifacts
        .iter()
        .map(|a| VectorService::new((*a).clone(), traffic::serve_options()))
        .collect::<intune_core::Result<_>>()
        .map_err(|e| e.to_string())?;
    let features: Vec<_> = index
        .iter()
        .map(|&(t, f)| traffic[t].frame_features(f))
        .collect();

    // Serve: one in-process batch selection per frame.
    let select_us = time_each(index.len(), |i| {
        services[index[i].0].select_vector_batch(&features[i])
    });
    let (mut probed, mut ood, mut requests, mut fallbacks) = (0, 0, 0, 0);
    for s in &services {
        let st = s.stats();
        probed += st.probed;
        ood += st.ood;
        requests += st.requests;
        fallbacks += st.fallbacks;
    }
    report.metric("serve.select_us", median(&select_us), "us");
    report.metric("serve.ood_ratio", ratio(ood as f64, probed as f64), "ratio");
    report.metric(
        "serve.fallback_ratio",
        ratio(fallbacks as f64, requests as f64),
        "ratio",
    );
    if !wire {
        return Ok(());
    }

    // Protocol: the daemon's decode routes and its reply encode.
    let bodies: Vec<String> = traffic.iter().flat_map(TenantTraffic::bodies).collect();
    let replies: Vec<Response> = index
        .iter()
        .zip(&features)
        .map(|(&(t, _), fv)| Response::Selections {
            selections: services[t]
                .select_vector_batch(fv)
                .expect("generated vectors fit the artifact"),
        })
        .collect();
    let fast = bodies
        .iter()
        .filter(|b| protocol::decode_select_batch(b).is_some())
        .count();
    let decode_fast = time_each(bodies.len(), |i| protocol::decode_select_batch(&bodies[i]));
    let decode_general = time_each(bodies.len(), |i| {
        protocol::decode_message::<Request>(&bodies[i]).expect("own frames decode")
    });
    let encode = time_each(replies.len(), |i| protocol::encode_message(&replies[i]));
    let mean_len = |lens: &mut dyn Iterator<Item = usize>| {
        let (n, sum) = lens.fold((0usize, 0usize), |(n, s), l| (n + 1, s + l));
        ratio(sum as f64, n as f64) + HEADER_BYTES as f64
    };
    report.metric("protocol.encode_us", median(&encode), "us");
    report.metric("protocol.decode_fast_us", median(&decode_fast), "us");
    report.metric("protocol.decode_general_us", median(&decode_general), "us");
    report.metric(
        "protocol.fast_path_ratio",
        ratio(fast as f64, bodies.len() as f64),
        "ratio",
    );
    report.metric(
        "protocol.req_bytes",
        mean_len(&mut bodies.iter().map(String::len)),
        "B",
    );
    report.metric(
        "protocol.reply_bytes",
        mean_len(&mut replies.iter().map(|r| protocol::encode_message(r).len())),
        "B",
    );

    // Datalog: append every frame once, as the daemon's recorder would.
    let dir = work.path("datalog-probe");
    let mut writer =
        RecordingWriter::open(&dir, RecordingOptions::default()).map_err(|e| e.to_string())?;
    let mut append_us = Vec::with_capacity(index.len());
    for (&(t, _), fv) in index.iter().zip(&features) {
        let frame = RecordedFrame {
            seq: 0,
            delta_micros: 0,
            tenant: traffic[t].benchmark.clone(),
            conn: t as u64,
            body: FrameBody::Select {
                features: fv.clone(),
                payloads: Vec::new(),
                trace: None,
            },
        };
        let start = Instant::now();
        writer.append(frame).map_err(|e| e.to_string())?;
        append_us.push(secs(start) * 1e6);
    }
    drop(writer);
    report.metric("datalog.append_us", median(&append_us), "us");
    report.metric(
        "datalog.bytes_per_frame",
        ratio(crate::dir_bytes(&dir) as f64, index.len() as f64),
        "B",
    );
    std::fs::remove_dir_all(&dir).ok();
    obs_layer(report, work)
}

/// Events and spans appended per pass in the obs probe.
const OBS_RECORDS: usize = 50;

/// Obs: `EventLog::record` and `SpanLog::record`, each record read back.
fn obs_layer(report: &mut Report, work: &WorkDir) -> Result<(), String> {
    let dir = work.path("obs-probe");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let events_path = dir.join("events.log");
    let spans_path = dir.join("probe.spans.log");
    let events = EventLog::open(&events_path).map_err(|e| e.to_string())?;
    let spans = SpanLog::open(&spans_path).map_err(|e| e.to_string())?;
    let event_us = time_each(OBS_RECORDS, |i| {
        events.record("probe", 1, EventKind::TenantBound { conn: i as u64 })
    });
    let span_us = time_each(OBS_RECORDS, |i| {
        spans.record(&Span::new(1, i as u64 + 1, 0, "probe", "probe").lasting(1000))
    });
    let read_events = intune_obs::read_events(&events_path).map_err(|e| e.to_string())?;
    let read_spans = intune_obs::read_spans(&spans_path).map_err(|e| e.to_string())?;
    for (read, appended, torn) in [
        (
            read_events.events.len(),
            event_us.len(),
            read_events.torn.is_some(),
        ),
        (
            read_spans.spans.len(),
            span_us.len(),
            read_spans.torn.is_some(),
        ),
    ] {
        report.check(
            appended as u64,
            appended.abs_diff(read) as u64 + u64::from(torn),
        );
    }
    report.metric("obs.event_append_us", median(&event_us), "us");
    report.metric("obs.span_append_us", median(&span_us), "us");
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}

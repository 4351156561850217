//! Chrome trace export with causal flow arrows.
//!
//! The program's one chrome://tracing exporter: each flight event
//! renders as an `"X"` slice, and every pull that retrieved a staged piece
//! contributes an `"s"`/`"f"` flow pair: the `s` anchors inside the
//! producer's put slice, the `f` (binding-point `"e"`) inside the
//! consumer's pull slice — which nests inside its get — so
//! chrome://tracing and Perfetto draw an arrow from producer put to
//! consumer get. Flow ids are the pull's sequence number, unique per
//! run.
//!
//! Merged multi-process traces add two things: every slice lands on its
//! process lane (`pid` from [`Event::pid`], one lane per joiner), and
//! every stitched wire hop — a [`EventKind::NetRecv`] whose `parent`
//! points at the matching [`EventKind::NetSend`] — contributes a second
//! flow pair, so the arrow chain reads put → wire → pull → get across
//! process boundaries.

use std::collections::BTreeMap;

use insitu_telemetry::Json;

use crate::event::{Event, EventKind};

fn slice_json(e: &Event) -> Json {
    let mut args = Json::obj()
        .field("seq", e.seq)
        .field("var", e.var)
        .field("version", e.version)
        .field("bytes", e.bytes);
    if let Some(link) = e.link {
        args = args.field("link", link.slug());
    }
    if let Some(parent) = e.parent {
        args = args.field("parent", parent);
    }
    if let EventKind::Fault { kind } = e.kind {
        args = args.field("fault", kind);
    }
    Json::obj()
        .field("name", e.kind.name())
        .field("cat", "obs")
        .field("ph", "X")
        .field("ts", e.start_us)
        .field("dur", e.duration_us)
        .field("pid", e.pid as u64)
        .field("tid", e.track())
        .field("args", args)
}

/// The `"s"`/`"f"` pair drawing one arrow: it starts inside the `from`
/// slice (its last covered microsecond) and finishes at the start of
/// the `to` slice, whose seq is the flow id.
fn flow_pair(name: &str, from: &Event, to: &Event) -> [Json; 2] {
    let end = |head: Json, ts: u64, at: &Event| {
        head.field("id", to.seq)
            .field("ts", ts)
            .field("pid", at.pid as u64)
            .field("tid", at.track())
    };
    let head = Json::obj().field("name", name).field("cat", "obs.flow");
    let start_ts = from.start_us + from.duration_us.saturating_sub(1);
    [
        end(head.clone().field("ph", "s"), start_ts, from),
        end(head.field("ph", "f").field("bp", "e"), to.start_us, to),
    ]
}

/// Render flight events as chrome trace events: one `"X"` slice per
/// event plus `"s"`/`"f"` flow pairs joining producer puts to the pulls
/// that retrieved their pieces.
pub(crate) fn chrome_flow_events(events: &[Event]) -> Vec<Json> {
    let mut out: Vec<Json> = events.iter().map(slice_json).collect();

    // Producer puts indexed by piece key.
    let mut puts: BTreeMap<(u64, u64, u32, u64), &Event> = BTreeMap::new();
    for e in events {
        if matches!(e.kind, EventKind::Put { .. }) {
            if let Some(key) = e.piece_key() {
                puts.insert(key, e);
            }
        }
    }
    // Stitched wire hops: recv.parent names the send on the other
    // process (the merge's cross-process edge).
    let by_seq: BTreeMap<u64, &Event> = events.iter().map(|e| (e.seq, e)).collect();
    let coupling = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Pull { .. }))
        .filter_map(|e| Some(("coupling", *puts.get(&e.piece_key()?)?, e)));
    let wire = events
        .iter()
        .filter(|e| e.kind == EventKind::NetRecv)
        .filter_map(|e| Some(("wire", *by_seq.get(&e.parent?)?, e)))
        .filter(|(_, send, _)| send.kind == EventKind::NetSend);
    for (name, from, to) in coupling.chain(wire) {
        out.extend(flow_pair(name, from, to));
    }
    out
}

/// Chrome trace document: the flight events' slices and flow arrows,
/// plus how many events the bounded log refused.
pub fn chrome_trace_with_flows(events: &[Event], dropped_events: u64) -> Json {
    Json::obj()
        .field("traceEvents", chrome_flow_events(events))
        .field("displayTimeUnit", "ms")
        .field("droppedEvents", dropped_events)
}

/// Chrome trace document for a merged multi-process trace: one lane per
/// process, flow arrows across the stitched wire hops, and the merge's
/// degradation tallies recorded as top-level fields.
pub fn chrome_trace_merged(report: &crate::merge::MergeReport) -> Json {
    chrome_trace_with_flows(&report.events, report.dropped)
        .field("processes", report.processes as u64)
        .field("stitched", report.stitched)
        .field("unmatchedSends", report.unmatched_sends)
        .field("unmatchedRecvs", report.unmatched_recvs)
        .field("retriedWire", report.retried)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::LinkClass;

    fn coupled_events() -> Vec<Event> {
        vec![
            Event::new(1, EventKind::Put { indexed: false })
                .app(1)
                .var(3)
                .version(0)
                .src(2)
                .piece(7)
                .bytes(512)
                .window(0, 100),
            Event::new(2, EventKind::Get { cont: true })
                .app(2)
                .var(3)
                .version(0)
                .dst(5)
                .window(150, 400),
            Event::new(3, EventKind::Pull { wait_us: 10 })
                .parent(2)
                .var(3)
                .version(0)
                .src(2)
                .dst(5)
                .piece(7)
                .link(LinkClass::Rdma)
                .bytes(512)
                .window(200, 80),
        ]
    }

    #[test]
    fn pull_gets_flow_pair_to_put() {
        let events = coupled_events();
        let json = Json::Arr(chrome_flow_events(&events)).render();
        // One s/f pair with id 3 (the pull's seq).
        assert!(json.contains("\"ph\":\"s\",\"id\":3,\"ts\":99,\"pid\":0,\"tid\":2"));
        assert!(json.contains("\"ph\":\"f\",\"bp\":\"e\",\"id\":3,\"ts\":200,\"pid\":0,\"tid\":5"));
        // Slices for all three events.
        assert!(json.contains("obs.put_cont"));
        assert!(json.contains("obs.get_cont"));
        assert!(json.contains("obs.pull"));
    }

    #[test]
    fn unmatched_pull_has_no_flow() {
        let mut events = coupled_events();
        events.remove(0); // drop the put
        let flows: Vec<Json> = chrome_flow_events(&events);
        let text = Json::Arr(flows).render();
        assert!(!text.contains("\"ph\":\"s\""));
        assert!(!text.contains("\"ph\":\"f\""));
    }

    #[test]
    fn stitched_wire_hop_gets_flow_pair() {
        // A stitched merge output: send on pid 1, recv on pid 2 whose
        // parent names the send.
        let events = vec![
            Event::new(2, EventKind::NetSend)
                .var(3)
                .version(0)
                .src(2)
                .dst(5)
                .piece(7)
                .pid(1)
                .window(100, 40),
            Event::new(5, EventKind::NetRecv)
                .parent(2)
                .var(3)
                .version(0)
                .src(2)
                .dst(5)
                .piece(7)
                .pid(2)
                .window(140, 30),
        ];
        let json = Json::Arr(chrome_flow_events(&events)).render();
        assert!(json.contains("\"name\":\"wire\",\"cat\":\"obs.flow\",\"ph\":\"s\",\"id\":5,\"ts\":139,\"pid\":1,\"tid\":2"));
        assert!(json.contains("\"ph\":\"f\",\"bp\":\"e\",\"id\":5,\"ts\":140,\"pid\":2,\"tid\":5"));
        // Slices land on their process lanes.
        assert!(json.contains("\"name\":\"obs.net_send\",\"cat\":\"obs\",\"ph\":\"X\",\"ts\":100,\"dur\":40,\"pid\":1"));
    }

    #[test]
    fn merged_document_carries_degradation_tallies() {
        use crate::merge::{merge_traces, ProcessTrace};
        let traces = vec![ProcessTrace {
            node: 0,
            events: coupled_events(),
            dropped: 2,
            counters: Default::default(),
            complete: true,
        }];
        let doc = chrome_trace_merged(&merge_traces(traces));
        let text = doc.render();
        assert!(text.contains("\"droppedEvents\":2"));
        assert!(text.contains("\"processes\":1"));
        assert!(Json::parse(&text).is_ok());
    }

    #[test]
    fn merged_two_process_trace_extends_the_one_document() {
        use crate::merge::{merge_traces, ProcessTrace};
        let mut events = coupled_events();
        let consumer = events.split_off(1);
        let wire = |seq, kind| {
            Event::new(seq, kind)
                .var(3)
                .version(0)
                .src(2)
                .dst(5)
                .piece(7)
        };
        events.push(wire(2, EventKind::NetSend).window(100, 40));
        // A second send whose recv never arrived stays unmatched.
        events.push(wire(3, EventKind::NetSend).piece(8).window(150, 40));
        let mut consumer: Vec<Event> = consumer;
        consumer.push(wire(4, EventKind::NetRecv).window(160, 30));
        let trace = |node, events| ProcessTrace {
            node,
            events,
            dropped: node as u64,
            counters: Default::default(),
            complete: true,
        };
        let report = merge_traces(vec![trace(0, events), trace(1, consumer)]);
        let doc = Json::parse(&chrome_trace_merged(&report).render()).unwrap();
        let tally = |key: &str| doc.get(key).and_then(Json::as_u64);
        assert_eq!(doc.get("droppedSpans"), None);
        assert_eq!(tally("droppedEvents"), Some(1));
        assert_eq!(tally("processes"), Some(2));
        assert_eq!(tally("stitched"), Some(1));
        assert_eq!(tally("unmatchedSends"), Some(1));
        assert_eq!(tally("unmatchedRecvs"), Some(0));
        assert_eq!(tally("retriedWire"), Some(0));
        // Same events array as the single-process document: six slices,
        // one coupling pair and one wire pair.
        let plain = chrome_trace_with_flows(&report.events, report.dropped);
        assert_eq!(doc.get("traceEvents"), plain.get("traceEvents"));
        assert_eq!(doc.get("traceEvents").unwrap().as_arr().unwrap().len(), 10);
    }
}

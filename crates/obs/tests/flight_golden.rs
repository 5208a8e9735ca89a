//! Golden-file pin of the flight-recorder JSONL schema.
//!
//! The dump format is a contract consumed outside this crate (the
//! `blunt_trace` diagram renderer, CI artifact tooling, human `grep`), so
//! its byte-level shape is pinned here: a recorder fed a fixed event script
//! at fixed timestamps must serialize to exactly the committed golden file,
//! and the golden file must parse back into the same events and re-serialize
//! byte-identically. Regenerate intentionally with
//! `BLESS=1 cargo test -p blunt-obs --test flight_golden`.

use blunt_obs::flight::{encode_val, pack_msg, MSG_ACK, MSG_QUERY, MSG_UPDATE};
use blunt_obs::{FlightDump, FlightKind, FlightRecorder};

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/flight_dump.jsonl"
);

/// A fixed script exercising every event-kind family: op boundaries,
/// bus traffic, fault decisions, server lifecycle, monitor verdicts.
fn scripted_dump() -> FlightDump {
    let rec = FlightRecorder::new(64);
    let client = rec.register_current("client-3");
    client.record_at(10, FlightKind::OpStartWrite, 3, 7, encode_val(Some(42)));
    client.record_at(11, FlightKind::BusSend, 3, 0, pack_msg(MSG_QUERY, 1));
    client.record_at(12, FlightKind::FaultDrop, 3, 1, pack_msg(MSG_QUERY, 1));
    client.record_at(14, FlightKind::FaultDelay, 3, 2, 3);
    client.record_at(30, FlightKind::OpRetransmit, 3, 1, 0);
    client.record_at(44, FlightKind::BusDeliver, 3, 0, pack_msg(MSG_ACK, 1));
    client.record_at(45, FlightKind::OpCompleteWrite, 3, 7, encode_val(None));
    client.record_at(50, FlightKind::OpStartRead, 3, 8, encode_val(None));
    client.record_at(61, FlightKind::OpCompleteRead, 3, 8, encode_val(Some(42)));

    let server = rec.register_current("server-0");
    server.record_at(20, FlightKind::BusDeliver, 0, 3, pack_msg(MSG_UPDATE, 1));
    server.record_at(21, FlightKind::WalFlush, 0, 1, 0);
    server.record_at(22, FlightKind::ServerAck, 0, 3, 1);
    server.record_at(33, FlightKind::FaultCrashDrop, 0, 1, 4);
    server.record_at(34, FlightKind::FaultPartitionDrop, 0, 2, 1);
    server.record_at(35, FlightKind::ServerCrash, 0, 2, 0);
    server.record_at(40, FlightKind::ServerRecover, 0, 512, 0);

    let monitor = rec.register_current("monitor");
    monitor.record_at(46, FlightKind::MonitorCut, 7, 1, 0);
    monitor.record_at(62, FlightKind::MonitorViolation, 7, 1, 0);

    rec.dump()
}

#[test]
fn dump_serializes_to_the_committed_golden_file() {
    let jsonl = scripted_dump().to_jsonl();
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(GOLDEN, &jsonl).expect("bless golden file");
    }
    let golden = std::fs::read_to_string(GOLDEN).expect("golden file exists (BLESS=1 to create)");
    assert_eq!(
        jsonl, golden,
        "flight JSONL schema drifted from the golden file — if intentional, \
         re-bless with BLESS=1 and bump blunt_obs::SCHEMA_VERSION"
    );
}

#[test]
fn golden_file_round_trips_byte_identically() {
    let golden = std::fs::read_to_string(GOLDEN).expect("golden file exists");
    let parsed = FlightDump::parse(&golden).expect("golden parses");
    assert_eq!(parsed.events, scripted_dump().events);
    assert_eq!(
        parsed.to_jsonl(),
        golden,
        "parse → serialize must be the identity on the golden file"
    );
}

#[test]
fn events_interleave_across_rings_in_time_order() {
    let dump = scripted_dump();
    let times: Vec<u64> = dump.events.iter().map(|e| e.t_us).collect();
    let mut sorted = times.clone();
    sorted.sort_unstable();
    assert_eq!(times, sorted, "dump must be globally time-ordered");
    assert_eq!(dump.len(), 18);
    // The last-N window keeps the newest events.
    let tail = dump.last_n(3);
    assert_eq!(tail.len(), 3);
    assert_eq!(tail.events[2].kind, FlightKind::MonitorViolation);
}

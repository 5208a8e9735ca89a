//! Golden-file pin of the flight-dump space-time rendering: a committed
//! JSONL dump must parse and render to exactly the committed diagram, and
//! the render must be a pure function of the dump (parse → serialize →
//! re-parse → render is byte-identical). Regenerate intentionally with
//! `BLESS=1 cargo test -p blunt-trace --test flight_diagram`.

use blunt_obs::{json, FlightDump, Json};
use blunt_trace::{flight_space_time, DiagramOptions};

/// The events of the `blunt-obs` golden fixture
/// (`tests/golden/flight_dump.jsonl` there): one client op pair, bus traffic
/// with every fault family, a server crash/recovery, and two monitor
/// violations over 8 lanes.
const EVENTS: &str = "\
{\"type\":\"flight_event\",\"ring\":\"client-3\",\"seq\":0,\"t_us\":10,\"kind\":\"op_start_write\",\"pid\":3,\"a\":7,\"b\":42}
{\"type\":\"flight_event\",\"ring\":\"client-3\",\"seq\":1,\"t_us\":11,\"kind\":\"bus_send\",\"pid\":3,\"a\":0,\"b\":8}
{\"type\":\"flight_event\",\"ring\":\"client-3\",\"seq\":2,\"t_us\":12,\"kind\":\"fault_drop\",\"pid\":3,\"a\":1,\"b\":8}
{\"type\":\"flight_event\",\"ring\":\"client-3\",\"seq\":3,\"t_us\":14,\"kind\":\"fault_delay\",\"pid\":3,\"a\":2,\"b\":3}
{\"type\":\"flight_event\",\"ring\":\"server-0\",\"seq\":0,\"t_us\":20,\"kind\":\"bus_deliver\",\"pid\":0,\"a\":3,\"b\":10}
{\"type\":\"flight_event\",\"ring\":\"server-0\",\"seq\":1,\"t_us\":21,\"kind\":\"wal_flush\",\"pid\":0,\"a\":1,\"b\":0}
{\"type\":\"flight_event\",\"ring\":\"server-0\",\"seq\":2,\"t_us\":22,\"kind\":\"server_ack\",\"pid\":0,\"a\":3,\"b\":1}
{\"type\":\"flight_event\",\"ring\":\"client-3\",\"seq\":4,\"t_us\":30,\"kind\":\"op_retransmit\",\"pid\":3,\"a\":1,\"b\":0}
{\"type\":\"flight_event\",\"ring\":\"server-0\",\"seq\":3,\"t_us\":33,\"kind\":\"fault_crash_drop\",\"pid\":0,\"a\":1,\"b\":4}
{\"type\":\"flight_event\",\"ring\":\"server-0\",\"seq\":4,\"t_us\":34,\"kind\":\"fault_partition_drop\",\"pid\":0,\"a\":2,\"b\":1}
{\"type\":\"flight_event\",\"ring\":\"server-0\",\"seq\":5,\"t_us\":35,\"kind\":\"server_crash\",\"pid\":0,\"a\":2,\"b\":0}
{\"type\":\"flight_event\",\"ring\":\"server-0\",\"seq\":6,\"t_us\":40,\"kind\":\"server_recover\",\"pid\":0,\"a\":512,\"b\":0}
{\"type\":\"flight_event\",\"ring\":\"client-3\",\"seq\":5,\"t_us\":44,\"kind\":\"bus_deliver\",\"pid\":3,\"a\":0,\"b\":11}
{\"type\":\"flight_event\",\"ring\":\"client-3\",\"seq\":6,\"t_us\":45,\"kind\":\"op_complete_write\",\"pid\":3,\"a\":7,\"b\":18446744073709551615}
{\"type\":\"flight_event\",\"ring\":\"monitor\",\"seq\":0,\"t_us\":46,\"kind\":\"monitor_violation\",\"pid\":7,\"a\":0,\"b\":0}
{\"type\":\"flight_event\",\"ring\":\"client-3\",\"seq\":7,\"t_us\":50,\"kind\":\"op_start_read\",\"pid\":3,\"a\":8,\"b\":18446744073709551615}
{\"type\":\"flight_event\",\"ring\":\"client-3\",\"seq\":8,\"t_us\":61,\"kind\":\"op_complete_read\",\"pid\":3,\"a\":8,\"b\":42}
{\"type\":\"flight_event\",\"ring\":\"monitor\",\"seq\":1,\"t_us\":62,\"kind\":\"monitor_violation\",\"pid\":7,\"a\":1,\"b\":0}
";

/// The fixture parsed under the current `flight_dump` header.
fn dump() -> FlightDump {
    let header = json::doc("flight_dump", vec![("events".into(), Json::UInt(18))]);
    FlightDump::parse(&format!("{header}\n{EVENTS}")).expect("fixture parses")
}

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/flight_diagram.txt"
);

#[test]
fn dump_renders_to_the_committed_golden_diagram() {
    let dump = dump();
    let rendered = flight_space_time(&dump, 8, &DiagramOptions::default());
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(GOLDEN, &rendered).expect("bless golden diagram");
    }
    let golden = std::fs::read_to_string(GOLDEN).expect("golden file exists (BLESS=1 to create)");
    assert_eq!(
        rendered, golden,
        "flight rendering drifted from the golden diagram — re-bless if intentional"
    );
}

#[test]
fn round_trip_re_render_is_byte_identical() {
    let dump = dump();
    let direct = flight_space_time(&dump, 8, &DiagramOptions::default());
    let reparsed = FlightDump::parse(&dump.to_jsonl()).expect("round trip");
    assert_eq!(
        flight_space_time(&reparsed, 8, &DiagramOptions::default()),
        direct
    );
}

#[test]
fn rendering_names_the_interesting_events() {
    let dump = dump();
    let s = flight_space_time(&dump, 8, &DiagramOptions::default());
    for needle in [
        "call Write(42)",
        "ret ⊥",
        "call Read(⊥)",
        "ret 42",
        "p3→p0: query#1",
        "✂ drop →p1 query#1",
        "delay →p2 3ms",
        "recv update#1 ⟵p3",
        "wal flush (1 acks)",
        "ack →p3 sn=1",
        "retransmit sn=1",
        "✂ crash-drop →p1 w4",
        "✂ partition →p2 w1",
        "recovered in 512µs",
        "VIOLATION #0",
        "VIOLATION #1",
        "· t=10µs → t=62µs · 18 events",
    ] {
        assert!(s.contains(needle), "missing {needle:?} in:\n{s}");
    }
    assert!(s.contains('✗'), "crash marker in:\n{s}");
}

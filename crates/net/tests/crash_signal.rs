//! The driver puts a crash signal where the bus does: directly ahead of the
//! envelope that raised it, inside that server's `EnvBatch`.
//!
//! The test listens as server 0 of a one-server run and reads what a real
//! `NetClient` writes. The client's link into the server has crash window
//! 0 over link indices 0 and 1, so the third faulted envelope is the first
//! past the window: it raises the amnesia signal, which has to be the
//! entry just before it, behind the exempt entries that preceded it in the
//! batch.

use std::sync::Arc;
use std::time::Duration;

use blunt_abd::msg::AbdMsg;
use blunt_core::ids::{ObjId, Pid};
use blunt_net::frame::{Frame, FrameReader};
use blunt_net::{Addr, Envelope, FaultConfig, NetClient, NetClientCfg, Payload, Transport};
use blunt_obs::FlightRecorder;

/// Client pid 1 asks server 0; `sn` names the envelope.
fn query(sn: u32, exempt: bool) -> Envelope {
    Envelope::abd(Pid(1), Pid(0), AbdMsg::Query { obj: ObjId(0), sn }, exempt)
}

/// What an entry carries: its `sn`, or `None` for the crash signal.
fn sn_of(env: &Envelope) -> Option<u32> {
    match &env.msg {
        Payload::Abd(m) => Some(m.sn()),
        Payload::Crash { window } => {
            assert_eq!(*window, 0, "the only window the link crosses");
            assert!(env.exempt, "the amnesia signal is exempt");
            assert_eq!((env.src, env.dst), (Pid(0), Pid(0)));
            None
        }
        other => panic!("only queries and the signal are sent, got {other:?}"),
    }
}

#[test]
fn a_crash_signal_raised_mid_batch_is_the_entry_before_its_trigger() {
    let dir = std::env::temp_dir().join(format!("blunt-crash-signal-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("socket dir");
    let listen = Addr::parse(dir.join("s0.sock").to_str().expect("utf-8 path"));
    let listener = listen.listen().expect("bind UDS listener");

    let mut faults = FaultConfig::none();
    faults.crash_len = 2;
    faults.crash_period = 10;
    let cfg = NetClientCfg {
        seed: 1,
        faults,
        servers: vec![listen],
        clients: 1,
        signal_crashes: true,
    };
    let (client, _mailbox) =
        NetClient::connect(&cfg, Arc::new(FlightRecorder::new(256))).expect("valid faults");
    // Faulted 0 and 1 fall in the window; faulted 2 is past it.
    client.send_batch(vec![
        query(100, true),
        query(0, false),
        query(101, true),
        query(1, false),
        query(102, true),
        query(2, false),
        query(3, false),
    ]);

    let mut reader = FrameReader::new(listener.accept().expect("the client dials"));
    assert!(matches!(
        reader.read().expect("hello"),
        Some(Frame::Hello { .. })
    ));
    let Some(Frame::EnvBatch { entries }) = reader.read().expect("the batch") else {
        panic!("one send_batch is one EnvBatch per server");
    };
    let sns: Vec<Option<u32>> = entries.iter().map(|e| sn_of(&e.env)).collect();
    assert_eq!(
        sns,
        [Some(100), Some(101), Some(102), None, Some(2), Some(3)],
        "the signal goes directly ahead of its trigger, in the trigger's batch"
    );
    assert_eq!(client.stats().crash_events, 1);

    client.shutdown(Duration::ZERO);
    let _ = std::fs::remove_dir_all(&dir);
}

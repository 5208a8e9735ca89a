//! Regression test for dedup-window staleness across server recovery.
//!
//! The server's per-connection dedup window is volatile state: an amnesia
//! crash must wipe it along with the register cache and pending acks (the
//! driver connection's window lives in the `ServerInbox`, which reads the
//! socket on the calling thread).
//! Before the fix, the window survived [`Transport::on_crash`], so a
//! pre-crash client retransmitting an already-admitted tag was silently
//! dropped as a duplicate — starving recovery of exactly the retries it
//! depends on. This drives a real `NetServer` over a loopback UDS socket:
//! deliver a tagged frame, prove the duplicate is absorbed, crash the
//! transport, and prove the same tag is admitted again.

use std::sync::mpsc::RecvTimeoutError;
use std::sync::Arc;
use std::time::Duration;

use blunt_abd::msg::AbdMsg;
use blunt_core::ids::{ObjId, Pid};
use blunt_net::frame::{write_frame, Frame, DRIVER_NODE};
use blunt_net::{Addr, Envelope, Inbox, NetServer, NetServerCfg, Transport};
use blunt_obs::FlightRecorder;

#[test]
fn server_recovery_resets_the_dedup_window() {
    let dir = std::env::temp_dir().join(format!("blunt-dedup-reset-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("socket dir");
    let listen = Addr::parse(dir.join("s0.sock").to_str().expect("utf-8 path"));
    let cfg = NetServerCfg {
        listen: listen.clone(),
        me: Pid(0),
        servers: 1,
        peers: vec![listen.clone()],
    };
    let (server, mut mailbox) =
        NetServer::bind(&cfg, Arc::new(FlightRecorder::new(256))).expect("bind UDS listener");

    // Dial in as the driver and speak the frame protocol directly, so we
    // control the tags byte-for-byte.
    let mut stream = listen.connect_retry(Duration::from_secs(5)).expect("dial");
    write_frame(
        &mut stream,
        &Frame::Hello {
            node: DRIVER_NODE,
            t_us: 0,
        },
    )
    .expect("hello");
    let env = Envelope::abd(
        Pid(1),
        Pid(0),
        AbdMsg::Query {
            obj: ObjId(0),
            sn: 7,
        },
        false,
    );
    let tagged = Frame::Env {
        tag: 42,
        re: 0,
        env: env.clone(),
    };

    // First delivery of tag 42 is admitted into the mailbox.
    write_frame(&mut stream, &tagged).expect("send tagged frame");
    mailbox
        .recv_timeout(Duration::from_secs(5))
        .expect("first delivery admitted");

    // The same tag again is a duplicate: absorbed, never delivered.
    write_frame(&mut stream, &tagged).expect("resend tagged frame");
    assert_eq!(
        mailbox.recv_timeout(Duration::from_millis(300)),
        Err(RecvTimeoutError::Timeout),
        "a duplicate tag must be absorbed by the dedup window"
    );

    // An amnesia crash wipes the window: the pre-crash client's
    // retransmission of tag 42 must be admitted again, not dropped.
    let resets_before = blunt_obs::counter("net.rpc.dedup_resets").get();
    server.on_crash();
    write_frame(&mut stream, &tagged).expect("retransmit after crash");
    mailbox
        .recv_timeout(Duration::from_secs(5))
        .expect("post-crash retransmission admitted — dedup state must not survive the crash");
    assert!(
        blunt_obs::counter("net.rpc.dedup_resets").get() > resets_before,
        "the reset is observable as net.rpc.dedup_resets"
    );

    write_frame(&mut stream, &Frame::Shutdown).expect("shutdown");
    drop(stream);
}

//! Every reply reaches the driver's one inbox and names its client in
//! `dst`; the worker hands it over by that. The test listens as the one
//! server, reads the tag of a client's request off the wire, and answers
//! three times: once answering no request (`re = 0`), which is dropped and
//! counted as `net.rpc.tag_mismatch_drops`, and twice answering the
//! request, one for each client. Both of those reach the inbox, in wire
//! order, each with its own `dst` and the frame's tag as `reply_to`. This
//! file holds one test, so no other test shares that counter.

use std::sync::Arc;
use std::time::Duration;

use blunt_abd::msg::AbdMsg;
use blunt_core::ids::{ObjId, Pid};
use blunt_net::frame::{Frame, FrameReader, FrameWriter};
use blunt_net::{Addr, Envelope, FaultConfig, Inbox, NetClient, NetClientCfg, Payload, Transport};
use blunt_obs::FlightRecorder;

fn ack(dst: u32, sn: u32) -> Envelope {
    Envelope::abd(Pid(0), Pid(dst), AbdMsg::Ack { obj: ObjId(0), sn }, false)
}

#[test]
fn a_reply_reaches_the_mailbox_by_its_dst_and_one_answering_nothing_is_dropped() {
    let dir = std::env::temp_dir().join(format!("blunt-reply-mailbox-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("socket dir");
    let addr = Addr::parse(dir.join("s0.sock").to_str().expect("utf-8 path"));
    let listener = addr.listen().expect("bind UDS listener");
    let (net, mut mailbox) = NetClient::connect(
        &NetClientCfg {
            seed: 1,
            faults: FaultConfig::none(),
            servers: vec![addr],
            clients: 2,
            signal_crashes: false,
        },
        Arc::new(FlightRecorder::new(64)),
    )
    .expect("valid fault config");

    // Clients 1 and 2 behind one server; client 2 asks.
    net.send(Envelope::abd(
        Pid(2),
        Pid(0),
        AbdMsg::Query {
            obj: ObjId(0),
            sn: 1,
        },
        false,
    ));
    let stream = listener.accept().expect("the driver dials");
    let mut writer = FrameWriter::new(stream.try_clone().expect("clone stream"));
    let mut reader = FrameReader::new(stream);
    let request = loop {
        match reader.read().expect("driver connection") {
            Some(Frame::EnvBatch { entries }) => break entries[0].tag,
            Some(Frame::Hello { .. }) => {}
            other => panic!("expected the hello, then the request: {other:?}"),
        }
    };
    assert_ne!(request, 0, "a request always has a tag");

    let drops = blunt_obs::counter("net.rpc.tag_mismatch_drops");
    let before = drops.get();
    for (tag, re, dst, sn) in [(1, 0, 2, 1), (2, request, 1, 2), (3, request, 2, 3)] {
        writer
            .write(&Frame::Env {
                tag,
                re,
                env: ack(dst, sn),
            })
            .expect("reply");
    }
    // One connection is read in order: the drop precedes both deliveries.
    let mut got = Vec::new();
    for _ in 0..2 {
        let env = mailbox
            .recv_timeout(Duration::from_secs(5))
            .expect("a reply");
        let Payload::Abd(m) = env.msg else {
            panic!("only acks are sent here, got {:?}", env.msg);
        };
        got.push((env.dst.0, m.sn(), env.reply_to));
    }
    assert_eq!(got, [(1, 2, 2), (2, 3, 3)]);
    assert_eq!(drops.get() - before, 1);
    assert!(mailbox.try_recv().is_err(), "nothing else arrived");

    drop(writer);
    net.shutdown(mailbox, Duration::ZERO);
    let _ = std::fs::remove_dir_all(&dir);
}

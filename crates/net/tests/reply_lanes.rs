//! The driver routes a reply by the lane bits of its `re` tag alone. The
//! test listens as the one server, reads the tag of a client lane's
//! request off the wire, and answers three ways: with that tag, with no
//! lane (`re = 0`), and with a lane past the driver's client count. Only
//! the first reaches a lane; the other two are dropped and counted as
//! `net.rpc.tag_mismatch_drops`. This file holds one test, so no other
//! test shares that counter.

use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::time::Duration;

use blunt_abd::msg::AbdMsg;
use blunt_core::ids::{ObjId, Pid};
use blunt_net::frame::{Frame, FrameReader, FrameWriter};
use blunt_net::rpc::{lane_of, TagGen};
use blunt_net::{Addr, Envelope, FaultConfig, NetClient, NetClientCfg, Payload, Transport};
use blunt_obs::FlightRecorder;

fn ack(sn: u32) -> Envelope {
    Envelope::abd(Pid(0), Pid(2), AbdMsg::Ack { obj: ObjId(0), sn }, false)
}

fn sn_of(lane: &Receiver<Envelope>) -> u32 {
    let env = lane.recv_timeout(Duration::from_secs(5)).expect("a reply");
    match env.msg {
        Payload::Abd(m) => m.sn(),
        other => panic!("only acks are sent here, got {other:?}"),
    }
}

#[test]
fn a_reply_reaches_the_lane_its_tag_names_and_a_tag_naming_none_is_dropped() {
    let dir = std::env::temp_dir().join(format!("blunt-reply-lanes-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("socket dir");
    let addr = Addr::parse(dir.join("s0.sock").to_str().expect("utf-8 path"));
    let listener = addr.listen().expect("bind UDS listener");
    let (net, lanes) = NetClient::connect(
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

    // Client pid 2 is lane 1 behind one server.
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
    assert_eq!(lane_of(request), Some(1));

    let drops = blunt_obs::counter("net.rpc.tag_mismatch_drops");
    let before = drops.get();
    let past_the_lanes = TagGen::new().next_for(2);
    for (tag, re, sn) in [(1, 0, 1), (2, past_the_lanes, 2), (3, request, 3)] {
        writer
            .write(&Frame::Env {
                tag,
                re,
                env: ack(sn),
            })
            .expect("reply");
    }
    // One connection is read in order: both drops precede the delivery.
    assert_eq!(sn_of(&lanes[1]), 3);
    assert_eq!(drops.get() - before, 2);
    assert!(lanes[0].try_recv().is_err(), "lane 0 asked for nothing");

    drop(writer);
    net.shutdown(Duration::ZERO);
    let _ = std::fs::remove_dir_all(&dir);
}

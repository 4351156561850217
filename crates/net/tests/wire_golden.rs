//! Byte-level goldens for wire v7: one literal frame per kind, every
//! field non-default, pinned to the exact bytes `encode()` produces.
//! Round-trip tests pass a symmetric mistake (a swapped field order, a
//! changed width); these do not. A codec change that alters any byte
//! here is a wire-format change and needs a `WIRE_VERSION` bump.

use insitu_domain::BoundingBox;
use insitu_fabric::{LedgerSnapshot, Locality, TrafficClass};
use insitu_net::{Frame, NodeReport, RunState, RunSummary, WIRE_VERSION};
use insitu_obs::{Event, EventKind, LinkClass};

fn summary(run: u64, state: RunState) -> RunSummary {
    RunSummary {
        run,
        name: format!("run-{run}"),
        state,
        nodes: 3,
        detail: "queue position 2".into(),
        link_stalls: 4,
        health: vec![
            "link-stall: no pull progress for 2000ms".into(),
            "p99 drift".into(),
        ],
    }
}

/// One event of each of the 13 `EventKind` wire shapes; the optional
/// tags (`parent`, `bbox`, `src`, `dst`, `link`) alternate between
/// present and absent so both encodings of each are pinned.
fn events() -> Vec<Event> {
    let kinds = [
        EventKind::Put { indexed: false },
        EventKind::Put { indexed: true },
        EventKind::Get { cont: false },
        EventKind::Get { cont: true },
        EventKind::Schedule { hit: false },
        EventKind::Schedule { hit: true },
        EventKind::DhtLookup { cores: 5 },
        EventKind::Pull { wait_us: 1234 },
        EventKind::Fault { kind: "drop-pull" },
        EventKind::NetSend,
        EventKind::NetRecv,
        EventKind::SubPush,
        EventKind::SubDeliver,
    ];
    kinds
        .into_iter()
        .enumerate()
        .map(|(i, kind)| {
            let n = i as u64 + 1;
            let mut e = Event::new(100 + n, kind)
                .app(i as u32 + 1)
                .var(0x1000 + n)
                .version(n)
                .piece((n << 32) | 7)
                .pid(i as u32 % 3 + 1)
                .bytes(4096 * n)
                .window(10 * n, 3 * n);
            if i % 2 == 0 {
                e = e
                    .parent(100)
                    .bbox(BoundingBox::new(&[n, 2], &[n + 8, 9]))
                    .src(i as u32)
                    .link(LinkClass::Shm);
            } else {
                e = e.dst(i as u32 + 16);
                if i % 4 == 1 {
                    e = e.link(LinkClass::Rdma);
                }
            }
            e
        })
        .collect()
}

/// `(kind byte, frame, hex of the complete wire frame)` for every live
/// kind; kinds 4, 7, 26, 32, 33, 35 and 36 are retired.
fn goldens() -> Vec<(u8, Frame, &'static str)> {
    vec![
        (
            1,
            Frame::Hello {
                node: 3,
                peer_addr: "10.0.0.7:4100".into(),
                host: "boot-abc".into(),
            },
            "230000000701030000000d00000031302e302e302e373a343130300800000062\
             6f6f742d616263",
        ),
        (
            2,
            Frame::Welcome {
                nodes: 2,
                strategy: "data-centric".into(),
                get_timeout_ms: 30_000,
                dag: "app sim 4".into(),
                config: "grid 8 8".into(),
                peers: vec!["127.0.0.1:1".into(), "127.0.0.1:2".into()],
                hosts: vec!["h-a".into(), "h-b".into()],
            },
            "6b0000000702020000000c000000646174612d63656e74726963307500000000\
             0000090000006170702073696d2034080000006772696420382038020000000b\
             0000003132372e302e302e313a310b0000003132372e302e302e313a32020000\
             0003000000682d6103000000682d62",
        ),
        (
            3,
            Frame::Relay {
                to: 5,
                src: 9,
                tag: 0x0102_0304_0506_0708,
                payload: vec![0xde, 0xad, 0xbe, 0xef],
            },
            "1a00000007030500000009000000080706050403020104000000deadbeef",
        ),
        (
            5,
            Frame::PullRequest {
                name: 21,
                version: 22,
                piece: (7 << 32) | 2,
                from_node: 1,
            },
            "1e00000007051500000000000000160000000000000002000000070000000100\
             0000",
        ),
        (
            6,
            Frame::PullData {
                name: 31,
                version: 32,
                piece: (8 << 32) | 3,
                owner: 8,
                to_node: 1,
                data: vec![1, 2, 3, 4, 5],
            },
            "2b00000007061f00000000000000200000000000000003000000080000000800\
             000001000000050000000102030405",
        ),
        (
            8,
            Frame::DhtInsert {
                var: 51,
                version: 52,
                owner: 10,
                piece: 5,
                lbs: vec![0, 16, 32],
                ubs: vec![15, 31, 47],
            },
            "560000000708330000000000000034000000000000000a000000050000000000\
             0000030000000000000000000000100000000000000020000000000000000300\
             00000f000000000000001f000000000000002f00000000000000",
        ),
        (
            9,
            Frame::GetDone {
                var: 61,
                version: 62,
            },
            "1200000007093d000000000000003e00000000000000",
        ),
        (
            10,
            Frame::Evict {
                var: 71,
                version: 72,
            },
            "12000000070a47000000000000004800000000000000",
        ),
        (11, Frame::RunWave { wave: 81 }, "06000000070b51000000"),
        (
            12,
            Frame::Barrier { wave: 91, node: 4 },
            "0a000000070c5b00000004000000",
        ),
        (
            13,
            Frame::Report(NodeReport {
                node: 2,
                ledger: LedgerSnapshot::from_parts(
                    [1, 2, 3, 4],
                    [5, 6, 7, 8],
                    [
                        (1, TrafficClass::InterApp, Locality::Network, 900),
                        (2, TrafficClass::Dht, Locality::SharedMemory, 70),
                    ],
                ),
                verify_failures: 1,
                staged: 2,
                gets: 300,
                errors: vec!["task 3: timeout".into(), "task 5: verify".into()],
            }),
            "a7000000070d0200000001000000000000000200000000000000030000000000\
             0000040000000000000005000000000000000600000000000000070000000000\
             0000080000000000000002000000010000000001840300000000000002000000\
             02004600000000000000010000000000000002000000000000002c0100000000\
             0000020000000f0000007461736b20333a2074696d656f75740e000000746173\
             6b20353a20766572696679",
        ),
        (
            14,
            Frame::Shutdown {
                ok: true,
                reason: "done".into(),
            },
            "0b000000070e0104000000646f6e65",
        ),
        (
            15,
            Frame::Submit {
                name: "climate".into(),
                dag: "app atm 8".into(),
                config: "iters 3".into(),
                strategy: "round-robin".into(),
                get_timeout_ms: 5000,
                priority: 2,
            },
            "40000000070f07000000636c696d617465090000006170702061746d20380700\
             0000697465727320330b000000726f756e642d726f62696e8813000000000000\
             02000000",
        ),
        (
            16,
            Frame::Submitted {
                run: 17,
                queued_ahead: 3,
            },
            "0e0000000710110000000000000003000000",
        ),
        (
            17,
            Frame::Cancel { run: 18 },
            "0a00000007111200000000000000",
        ),
        (
            18,
            Frame::Status { run: 19 },
            "0a00000007121300000000000000",
        ),
        (19, Frame::ListRuns, "020000000713"),
        (
            20,
            Frame::RunStatus(summary(20, RunState::Running)),
            "71000000071414000000000000000600000072756e2d32300103000000100000\
             00717565756520706f736974696f6e2032040000000000000002000000270000\
             006c696e6b2d7374616c6c3a206e6f2070756c6c2070726f677265737320666f\
             7220323030306d7309000000703939206472696674",
        ),
        (
            21,
            Frame::RunList {
                runs: vec![summary(1, RunState::Done), summary(2, RunState::Cancelled)],
            },
            "e200000007150200000001000000000000000500000072756e2d310203000000\
             10000000717565756520706f736974696f6e2032040000000000000002000000\
             270000006c696e6b2d7374616c6c3a206e6f2070756c6c2070726f6772657373\
             20666f7220323030306d73090000007039392064726966740200000000000000\
             0500000072756e2d32040300000010000000717565756520706f736974696f6e\
             2032040000000000000002000000270000006c696e6b2d7374616c6c3a206e6f\
             2070756c6c2070726f677265737320666f7220323030306d7309000000703939\
             206472696674",
        ),
        (
            22,
            Frame::RunResult { run: 23 },
            "0a00000007161700000000000000",
        ),
        (
            23,
            Frame::RunReport {
                run: 24,
                state: RunState::Failed,
                ledger_json: "{\"l\":1}".into(),
                metrics_json: "{\"m\":2}".into(),
                profile_json: "{\"p\":3}".into(),
                errors: vec!["e1".into(), "e2".into()],
            },
            "3c0000000717180000000000000003070000007b226c223a317d070000007b22\
             6d223a327d070000007b2270223a337d02000000020000006531020000006532",
        ),
        (
            24,
            Frame::RpcErr {
                message: "unknown run 9".into(),
            },
            "1300000007180d000000756e6b6e6f776e2072756e2039",
        ),
        (
            25,
            Frame::Telemetry {
                node: 1,
                batch: 2,
                last: true,
                dropped_events: 3,
                dropped_spans: 4,
                counters: vec![("net.frames".into(), 55), ("cods.gets".into(), 66)],
                events: events(),
            },
            "9c05000007190100000002000000010300000000000000040000000000000002\
             0000000a0000006e65742e6672616d6573370000000000000009000000636f64\
             732e6765747342000000000000000d0000006500000000000000640000000000\
             0000000100000001100000000000000100000000000000010200000001000000\
             0000000002000000000000000200000009000000000000000900000000000000\
             01000000000001070000000100000000100000000000000a0000000000000003\
             0000000000000001000000660000000000000000000000000000000102000000\
             0210000000000000020000000000000000000111000000020700000002000000\
             0020000000000000140000000000000006000000000000000200000067000000\
             0000000064000000000000000203000000031000000000000003000000000000\
             00010200000003000000000000000200000000000000020000000b0000000000\
             0000090000000000000001020000000001070000000300000000300000000000\
             001e000000000000000900000000000000030000006800000000000000000000\
             0000000000030400000004100000000000000400000000000000000001130000\
             00000700000004000000004000000000000028000000000000000c0000000000\
             0000010000006900000000000000640000000000000004050000000510000000\
             0000000500000000000000010200000005000000000000000200000000000000\
             020000000d000000000000000900000000000000010400000000010700000005\
             000000005000000000000032000000000000000f00000000000000020000006a\
             0000000000000000000000000000000506000000061000000000000006000000\
             000000000000011500000002070000000600000000600000000000003c000000\
             000000001200000000000000030000006b000000000000006400000000000000\
             0605000000070000000710000000000000070000000000000001020000000700\
             0000000000000200000000000000020000000f00000000000000090000000000\
             0000010600000000010700000007000000007000000000000046000000000000\
             001500000000000000010000006c00000000000000000000000000000007d204\
             0000000000000800000008100000000000000800000000000000000001170000\
             0000070000000800000000800000000000005000000000000000180000000000\
             0000020000006d000000000000006400000000000000080900000064726f702d\
             70756c6c09000000091000000000000009000000000000000102000000090000\
             0000000000020000000000000002000000110000000000000009000000000000\
             0001080000000001070000000900000000900000000000005a00000000000000\
             1b00000000000000030000006e000000000000000000000000000000090a0000\
             000a100000000000000a000000000000000000011900000002070000000a0000\
             0000a000000000000064000000000000001e00000000000000010000006f0000\
             000000000064000000000000000a0b0000000b100000000000000b0000000000\
             000001020000000b000000000000000200000000000000020000001300000000\
             0000000900000000000000010a0000000001070000000b00000000b000000000\
             00006e0000000000000021000000000000000200000070000000000000000000\
             0000000000000b0c0000000c100000000000000c000000000000000000011b00\
             000000070000000c00000000c000000000000078000000000000002400000000\
             00000003000000710000000000000064000000000000000c0d0000000d100000\
             000000000d0000000000000001020000000d0000000000000002000000000000\
             000200000015000000000000000900000000000000010c000000000107000000\
             0d00000000d00000000000008200000000000000270000000000000001000000",
        ),
        (
            27,
            Frame::Watch {
                run: 28,
                interval_ms: 250,
                once: true,
            },
            "13000000071b1c00000000000000fa0000000000000001",
        ),
        (
            28,
            Frame::Progress {
                run: 29,
                state: RunState::Queued,
                done: true,
                wave: 1,
                waves: 2,
                pulls: 3,
                pull_bytes: 4,
                shm_wait_p50_us: 5,
                shm_wait_p99_us: 6,
                rdma_wait_p50_us: 7,
                rdma_wait_p99_us: 8,
                pulls_in_flight: 9,
                bytes_in_flight: 10,
                queue_depth: 11,
                sub_active: 12,
                sub_pushes: 13,
                sub_lagged: 14,
                link_stalls: 15,
                health: vec!["h1".into(), "h2".into()],
            },
            "8c000000071c1d00000000000000000101000000020000000300000000000000\
             0400000000000000050000000000000006000000000000000700000000000000\
             080000000000000009000000000000000a000000000000000b00000000000000\
             0c000000000000000d000000000000000e000000000000000f00000000000000\
             02000000020000006831020000006832",
        ),
        (
            29,
            Frame::ShmOffer {
                src_node: 1,
                dst_node: 2,
                segment: (1 << 32) | 2,
                path: "/dev/shm/insitu-1-2".into(),
                slots: 256,
                arena_bytes: 8 << 20,
            },
            "39000000071d01000000020000000200000001000000130000002f6465762f73\
             686d2f696e736974752d312d3200010000000000000000800000000000",
        ),
        (
            30,
            Frame::ShmAck {
                src_node: 1,
                dst_node: 2,
                segment: (1 << 32) | 2,
                seq: 77,
                attached: true,
            },
            "1b000000071e010000000200000002000000010000004d0000000000000001",
        ),
        (
            31,
            Frame::ShmDoorbell {
                src_node: 1,
                dst_node: 2,
                segment: (1 << 32) | 2,
                seq: 78,
            },
            "1a000000071f010000000200000002000000010000004e00000000000000",
        ),
        (
            34,
            Frame::SubPush {
                sub_id: 0xabcd,
                var: 33,
                version: 4,
                src: 2,
                subscriber: 6,
                lbs: vec![8, 16],
                ubs: vec![15, 31],
                data: vec![9, 8, 7, 6, 5, 4, 3, 2],
            },
            "560000000722cdab000000000000210000000000000004000000000000000200\
             0000060000000200000008000000000000001000000000000000020000000f00\
             0000000000001f00000000000000080000000908070605040302",
        ),
    ]
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn every_kind_encodes_to_its_pinned_bytes_and_decodes_back() {
    assert_eq!(WIRE_VERSION, 7, "goldens are wire v7");
    let goldens = goldens();
    let kinds: Vec<u8> = goldens.iter().map(|(kind, ..)| *kind).collect();
    let retired = [4, 7, 26, 32, 33, 35, 36];
    let live: Vec<u8> = (1..=34).filter(|k| !retired.contains(k)).collect();
    assert_eq!(kinds, live, "one golden per live kind");
    for (kind, frame, golden) in goldens {
        assert_eq!(frame.kind(), kind, "kind byte of {frame:?}");
        let wire = frame.encode();
        assert_eq!(hex(&wire), golden, "wire bytes of kind {kind}");
        assert_eq!(wire[4], WIRE_VERSION);
        assert_eq!(wire[5], kind);
        assert_eq!(
            Frame::decode(wire[4], wire[5], &wire[6..]).as_ref(),
            Ok(&frame),
            "decode of kind {kind}"
        );
    }
}

//! Seeded mutation fuzzer for the decoders that read bytes from outside
//! the process: wire frames (`Request`, `Response`), the journal
//! (`JournalRecord`, `CheckpointDoc`), and the constraint syntax every
//! wire `place` carries (`parse_constraint`).
//!
//! Every case starts from a valid encoding — one per message variant —
//! and damages it the way a hostile client or a torn disk would: flipped
//! bytes, truncation, stray brackets and quotes, digit runs past `u64`,
//! a slice copied elsewhere. Two properties must hold for every case:
//! `decode` returns instead of panicking, and whatever it accepts
//! re-encodes to a string that decodes to the same value. Cases come from
//! `medea-rand` with fixed seeds, so a failure reproduces from the seed
//! and case number it prints.

use std::fmt::Debug;
use std::panic::{catch_unwind, UnwindSafe};

use medea_constraints::{parse_constraint, PlacementConstraint};
use medea_journal::{
    CheckpointAlloc, CheckpointDoc, CheckpointGroup, CheckpointNode, CheckpointSpec, JournalOp,
    JournalRecord,
};
use medea_rand::rngs::StdRng;
use medea_rand::{RngExt, SeedableRng};
use medea_server::{ContainerSpec, Request, Response, StatusReply};

const SEEDS: [u64; 4] = [1, 2, 3, 0x5EED];
const CASES_PER_SEED: usize = 4_000;

/// One random edit of `bytes`.
fn mutate(rng: &mut StdRng, bytes: &mut Vec<u8>) {
    if bytes.is_empty() {
        bytes.push(b'{');
        return;
    }
    let at = rng.random_range(0..bytes.len());
    match rng.random_range(0..6u32) {
        0 => bytes[at] ^= 1 << rng.random_range(0..8u32),
        1 => bytes[at] = rng.random_range(0..256u32) as u8,
        2 => bytes.truncate(at),
        3 => {
            let stray = *rng.choose(b"[]{}\",:\\0-e.").expect("non-empty");
            let run = rng.random_range(1..40usize);
            bytes.splice(at..at, std::iter::repeat_n(stray, run));
        }
        4 => {
            // Widen the digit run at or after `at` past u64::MAX.
            if let Some(d) = bytes[at..].iter().position(u8::is_ascii_digit) {
                bytes.splice(at + d..at + d, *b"184467440737095516160");
            }
        }
        _ => {
            let len = rng.random_range(0..(bytes.len() - at).min(24) + 1);
            let slice = bytes[at..at + len].to_vec();
            let to = rng.random_range(0..bytes.len());
            bytes.splice(to..to, slice);
        }
    }
}

/// Runs the two properties over mutations of the encodings of `values`.
fn fuzz<T, E>(values: &[T], decode: fn(&str) -> Result<T, E>, encode: fn(&T) -> String)
where
    T: PartialEq + Debug + UnwindSafe,
    E: Debug + UnwindSafe,
{
    // Every starting point must itself decode, or the mutations would
    // only ever exercise the error paths.
    let corpus: Vec<String> = values.iter().map(encode).collect();
    for (text, value) in corpus.iter().zip(values) {
        assert_eq!(&decode(text).expect("corpus entry decodes"), value);
    }
    for seed in SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        for case in 0..CASES_PER_SEED {
            let mut bytes = rng.choose(&corpus).expect("non-empty").clone().into_bytes();
            for _ in 0..rng.random_range(1..4u32) {
                mutate(&mut rng, &mut bytes);
            }
            // The transports reject invalid UTF-8 before decoding.
            let Ok(text) = String::from_utf8(bytes) else {
                continue;
            };
            let Ok(result) = catch_unwind(|| decode(&text)) else {
                panic!("seed {seed} case {case}: decode panicked on {text:?}");
            };
            if let Ok(value) = result {
                let again = encode(&value);
                match decode(&again) {
                    Ok(back) => assert_eq!(
                        back, value,
                        "seed {seed} case {case}: {text:?} re-encoded as {again:?}"
                    ),
                    Err(e) => panic!(
                        "seed {seed} case {case}: {text:?} decoded, but its \
                         re-encoding {again:?} does not: {e:?}"
                    ),
                }
            }
        }
    }
}

#[test]
fn requests_survive_mutation() {
    let tenant = || "acme \"q\"\n".to_string();
    let values = [
        Request::Place {
            id: 1,
            tenant: tenant(),
            app: u64::MAX,
            containers: vec![
                ContainerSpec {
                    count: 3,
                    memory_mb: 2048,
                    vcores: 2,
                    tags: vec!["hb".to_string(), "mem\\cache".to_string()],
                },
                ContainerSpec {
                    count: 1,
                    memory_mb: 512,
                    vcores: 1,
                    tags: vec![],
                },
            ],
            constraints: vec!["{hb, {hb, 0, 1}, node}".to_string()],
        },
        Request::Release {
            id: 2,
            tenant: tenant(),
            app: 9,
        },
        Request::Scale {
            id: 3,
            tenant: tenant(),
            app: 9,
            replicas: 12,
        },
        Request::Upgrade {
            id: 4,
            tenant: tenant(),
            app: 9,
            version: 3,
        },
        Request::Query { id: 5, app: 9 },
        Request::Metrics { id: 6 },
        Request::Status { id: 7 },
        Request::Shutdown { id: 8 },
    ];
    fuzz(&values, Request::decode, Request::encode);
}

#[test]
fn responses_survive_mutation() {
    let values = [
        Response::Accepted {
            id: 1,
            app: 2,
            queue_depth: 3,
        },
        Response::Overloaded {
            id: 2,
            reason: "queue_full".to_string(),
            retry_after_ms: 50,
        },
        Response::Released { id: 3, app: 4 },
        Response::ScaleAck {
            id: 4,
            app: 4,
            replicas: 16,
        },
        Response::UpgradeAck {
            id: 5,
            app: 4,
            version: 2,
        },
        Response::AppStatus {
            id: 6,
            app: 5,
            phase: "placed".to_string(),
            nodes: vec![0, 7, u32::MAX],
            attempts: 2,
        },
        Response::Metrics {
            id: 7,
            body: "{\"series\":[{\"p50\":1.5}]}".to_string(),
        },
        Response::Status {
            id: 8,
            reply: StatusReply {
                deployed: 1,
                lost: 2,
                replaced: 1,
                unplaceable: 1,
                admitted: u64::MAX,
                ..StatusReply::default()
            },
        },
        Response::ShutdownAck { id: 9 },
        Response::Error {
            id: 0,
            code: "bad_json".to_string(),
            message: "trailing garbage at byte 3\t\u{1}".to_string(),
        },
    ];
    fuzz(&values, Response::decode, Response::encode);
}

#[test]
fn journal_records_survive_mutation() {
    let ops = [
        JournalOp::Place {
            container: u64::MAX,
            app: 3,
            node: 17,
            memory_mb: 2048,
            vcores: 4,
            long_running: true,
            tags: vec!["hbase".into(), "appid:3".into(), "we\"ird\\tag".into()],
        },
        JournalOp::Release { container: 5 },
        JournalOp::NodeTagAdd {
            node: 0,
            tag: "fault-domain".into(),
        },
        JournalOp::NodeTagRemove {
            node: 4,
            tag: "fault-domain".into(),
        },
        JournalOp::SetAvailable {
            node: 7,
            available: false,
        },
        JournalOp::RegisterGroup {
            group: "service-unit".into(),
            sets: vec![vec![0, 1], vec![2, 3], vec![]],
        },
        JournalOp::AppSpec {
            app: 42,
            replicas: 10,
            version: 3,
            budget: 2,
            retired: false,
        },
    ];
    let values: Vec<JournalRecord> = ops
        .into_iter()
        .zip(10u64..)
        .map(|(op, epoch)| JournalRecord { epoch, op })
        .collect();
    fuzz(&values, JournalRecord::decode, JournalRecord::encode);
}

#[test]
fn checkpoints_survive_mutation() {
    let doc = CheckpointDoc {
        epoch: 42,
        next_container: 7,
        nodes: (0..3)
            .map(|n| CheckpointNode {
                node: n,
                hostname: format!("host-{n:04}"),
                memory_mb: 16384,
                vcores: 16,
                static_tags: vec!["ssd".into()],
                tags: vec![("appid:1".into(), 2), ("ssd".into(), 1)],
                available: n != 1,
            })
            .collect(),
        groups: vec![CheckpointGroup {
            group: "rack".into(),
            sets: vec![vec![0, 1], vec![2]],
        }],
        allocs: (0..2)
            .map(|c| CheckpointAlloc {
                container: c,
                app: 1,
                node: 0,
                memory_mb: 1024,
                vcores: 1,
                long_running: c == 0,
                tags: vec!["hbase".into(), "appid:1".into()],
            })
            .collect(),
        specs: vec![CheckpointSpec {
            app: 1,
            replicas: 4,
            version: 2,
            budget: 1,
        }],
    };
    fuzz(&[doc], CheckpointDoc::decode, CheckpointDoc::encode);
}

#[test]
fn constraints_survive_mutation() {
    // The paper's §4.2 examples: affinity, anti-affinity, cardinality and
    // group cardinality.
    let values: Vec<PlacementConstraint> = [
        "{storm, {hb ∧ mem, 1, ∞}, node}",
        "{storm, {hb, 0, 0}, upgrade_domain}",
        "{storm, {spark, 0, 5}, rack}",
        "{spark, {spark, 3, 10}, rack}",
    ]
    .into_iter()
    .map(|text| parse_constraint(text).expect("paper example parses"))
    .collect();
    fuzz(&values, parse_constraint, PlacementConstraint::to_string);
}

//! The metric catalogue: README.md's `| Series | Type | Meaning |` tables
//! and the series the code registers are the same set, name for name and
//! type for type.
//!
//! Every handle struct resolves all of its series when a registry is
//! attached, so one simulator run and one served round on a shared
//! registry register everything the pipeline can emit.

use std::collections::BTreeMap;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use medea::prelude::*;
use medea::sim::{SimDriver, SimEvent};
use medea_obs::{MetricsRegistry, SeriesValue};
use medea_server::{
    write_frame, ContainerSpec, FrameReader, MedeaServer, Request, Response, ServerConfig,
    MAX_FRAME_BYTES,
};

fn cluster() -> ClusterState {
    ClusterState::homogeneous(8, Resources::new(16 * 1024, 16), 2)
}

/// One request/response round trip on `stream`.
fn call(stream: &mut TcpStream, reader: &mut FrameReader, req: &Request) -> Response {
    write_frame(stream, req.encode().as_bytes()).expect("send frame");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Some(payload) = reader.poll(stream).expect("connection stays up") {
            let text = std::str::from_utf8(&payload).expect("reply is UTF-8");
            return Response::decode(text).expect("reply decodes");
        }
        assert!(Instant::now() < deadline, "timed out waiting for a reply");
    }
}

/// Simulator smoke: one LRA placed by the ILP arm, heartbeats running.
fn sim_smoke(registry: &Arc<MetricsRegistry>) {
    let mut sim =
        SimDriver::new(cluster(), LraAlgorithm::Ilp, 1_000).with_metrics(Arc::clone(registry));
    sim.start_heartbeats();
    sim.schedule(
        0,
        SimEvent::SubmitLra(LraRequest::uniform(
            ApplicationId(1),
            2,
            Resources::new(1024, 1),
            vec![Tag::new("svc")],
            vec![],
        )),
    );
    sim.run_until(5_000);
    assert_eq!(sim.metrics().deployments.len(), 1);
}

/// One served round: a place over TCP, polled until the board says placed.
fn served_round(registry: &Arc<MetricsRegistry>) {
    let scheduler = MedeaScheduler::new(cluster(), LraAlgorithm::NodeCandidates, 10)
        .with_metrics(Arc::clone(registry));
    let handle = MedeaServer::start(scheduler, ServerConfig::default(), Arc::clone(registry))
        .expect("bind server");
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_millis(25)))
        .expect("read timeout");
    let mut reader = FrameReader::new(MAX_FRAME_BYTES);
    let place = Request::Place {
        id: 1,
        tenant: "catalogue".to_string(),
        app: 7,
        containers: vec![ContainerSpec {
            count: 2,
            memory_mb: 1024,
            vcores: 1,
            tags: vec!["svc".to_string()],
        }],
        constraints: vec![],
    };
    assert!(matches!(
        call(&mut stream, &mut reader, &place),
        Response::Accepted { .. }
    ));
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let status = call(&mut stream, &mut reader, &Request::Query { id: 2, app: 7 });
        if matches!(&status, Response::AppStatus { phase, .. } if phase == "placed") {
            break;
        }
        assert!(Instant::now() < deadline, "app never placed: {status:?}");
        std::thread::sleep(Duration::from_millis(5));
    }
    handle.shutdown(true);
}

/// `name → type` of every row of README's series tables. A table is the
/// run of `|` rows under a `| Series | Type | Meaning |` header.
fn documented() -> BTreeMap<String, String> {
    let mut rows = BTreeMap::new();
    let mut in_table = false;
    for line in include_str!("../README.md").lines() {
        if line.trim() == "| Series | Type | Meaning |" {
            in_table = true;
            continue;
        }
        if !line.starts_with('|') {
            in_table = false;
        }
        if !in_table || line.starts_with("|---") {
            continue;
        }
        let cells: Vec<&str> = line.split('|').map(str::trim).collect();
        let name = cells[1]
            .strip_prefix('`')
            .and_then(|c| c.strip_suffix('`'))
            .unwrap_or_else(|| panic!("series cell must be one `name`: {line}"));
        assert!(
            !name.contains(['`', ' ', '/']),
            "one series per row (no `a` / `b` shorthand): {line}"
        );
        let previous = rows.insert(name.to_string(), cells[2].to_string());
        assert!(previous.is_none(), "series documented twice: {name}");
    }
    rows
}

#[test]
fn readme_tables_and_registered_series_are_the_same_set() {
    let registry = MetricsRegistry::new();
    sim_smoke(&registry);
    served_round(&registry);
    let registered: BTreeMap<String, String> = registry
        .snapshot()
        .series
        .into_iter()
        .map(|s| {
            let kind = match s.value {
                SeriesValue::Counter(_) => "counter",
                SeriesValue::Gauge(_) => "gauge",
                SeriesValue::Histogram(_) => "histogram",
            };
            (s.name, kind.to_string())
        })
        .collect();
    let documented = documented();

    let undocumented: Vec<_> = registered
        .iter()
        .filter(|(name, _)| !documented.contains_key(*name))
        .collect();
    assert!(
        undocumented.is_empty(),
        "registered but missing from README.md's series tables: {undocumented:?}"
    );
    let unregistered: Vec<_> = documented
        .iter()
        .filter(|(name, _)| !registered.contains_key(*name))
        .collect();
    assert!(
        unregistered.is_empty(),
        "in README.md's series tables but never registered: {unregistered:?}"
    );
    assert_eq!(documented, registered, "a documented type is wrong");
}

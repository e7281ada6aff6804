//! `medea-serve` — run the Medea scheduler as a network daemon.
//!
//! ```text
//! medea-serve [--addr HOST:PORT] [--nodes N] [--mem-mb M] [--vcores V]
//!             [--racks R] [--interval T] [--batch-max N] [--batch-wait-ms MS]
//!             [--queue-capacity N] [--tenant-quota N]
//!             [--journal-dir PATH] [--checkpoint-every N]
//!             [--allow-remote-shutdown]
//! ```
//!
//! Builds a homogeneous cluster, optionally attaches a file-backed WAL
//! (restoring from it if one exists), and serves the wire protocol until
//! SIGINT-equivalent (a `shutdown` request) arrives, then drains.
//!
//! The wire protocol is unauthenticated; by default a `shutdown` request
//! is only honoured from loopback peers, so exposing `--addr` does not
//! hand every client a kill switch. Pass `--allow-remote-shutdown` to
//! lift that restriction on trusted networks.

use medea_cluster::{ClusterState, Resources};
use medea_core::{LraAlgorithm, MedeaScheduler};
use medea_journal::{FileStorage, Wal};
use medea_obs::MetricsRegistry;
use medea_server::{MedeaServer, ServerConfig};

/// The cluster to build, the journal, and the server's own config.
struct Opts {
    nodes: usize,
    mem_mb: u64,
    vcores: u32,
    racks: usize,
    interval: u64,
    journal_dir: Option<String>,
    checkpoint_every: u64,
    server: ServerConfig,
}

fn parse_opts() -> Result<Opts, String> {
    let mut opts = Opts {
        nodes: 256,
        mem_mb: 16 * 1024,
        vcores: 16,
        racks: 8,
        interval: 10,
        journal_dir: None,
        checkpoint_every: 64,
        server: ServerConfig {
            addr: "127.0.0.1:7654".to_string(),
            ..ServerConfig::default()
        },
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut val = || {
            args.next()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        let admission = &mut opts.server.admission;
        match flag.as_str() {
            "--addr" => opts.server.addr = val()?,
            "--nodes" => opts.nodes = num(&val()?)? as usize,
            "--mem-mb" => opts.mem_mb = num(&val()?)?,
            "--vcores" => opts.vcores = num(&val()?)? as u32,
            "--racks" => opts.racks = num(&val()?)? as usize,
            "--interval" => opts.interval = num(&val()?)?,
            "--batch-max" => admission.batch_max_size = num(&val()?)? as usize,
            "--batch-wait-ms" => admission.batch_max_wait_ms = num(&val()?)?,
            "--queue-capacity" => admission.queue_capacity = num(&val()?)? as usize,
            "--tenant-quota" => admission.tenant_quota = num(&val()?)? as usize,
            "--journal-dir" => opts.journal_dir = Some(val()?),
            "--checkpoint-every" => opts.checkpoint_every = num(&val()?)?,
            "--allow-remote-shutdown" => opts.server.allow_remote_shutdown = true,
            "--help" | "-h" => {
                println!(
                    "medea-serve: scheduler-as-a-service daemon\n\
                     flags: --addr --nodes --mem-mb --vcores --racks --interval\n\
                     \x20      --batch-max --batch-wait-ms --queue-capacity --tenant-quota\n\
                     \x20      --journal-dir --checkpoint-every --allow-remote-shutdown\n\
                     a batch closes at --batch-max requests, when the oldest has waited\n\
                     --batch-wait-ms (the upper bound, not the wait), or when arrivals\n\
                     pause for as long as the last scheduling round took"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(opts)
}

fn num(s: &str) -> Result<u64, String> {
    s.parse::<u64>().map_err(|e| format!("bad number {s}: {e}"))
}

fn fail(code: i32, message: String) -> ! {
    eprintln!("medea-serve: {message}");
    std::process::exit(code)
}

fn main() {
    let opts = parse_opts().unwrap_or_else(|e| fail(2, e));
    let state = ClusterState::homogeneous(
        opts.nodes,
        Resources::new(opts.mem_mb, opts.vcores),
        opts.racks.max(1),
    );
    let mut scheduler = MedeaScheduler::new(state, LraAlgorithm::Ilp, opts.interval);
    if let Some(dir) = &opts.journal_dir {
        let storage = FileStorage::open(dir)
            .unwrap_or_else(|e| fail(1, format!("cannot open journal dir {dir}: {e}")));
        if let Err(e) = scheduler.attach_journal(Wal::new(storage), opts.checkpoint_every) {
            fail(1, format!("cannot attach journal: {e}"));
        }
    }

    let (addr, admission) = (opts.server.addr.clone(), opts.server.admission.clone());
    let handle = MedeaServer::start(scheduler, opts.server, MetricsRegistry::new())
        .unwrap_or_else(|e| fail(1, format!("cannot bind {addr}: {e}")));
    let journaled = if opts.journal_dir.is_some() {
        ", journaled"
    } else {
        ""
    };
    println!(
        "medea-serve: listening on {} ({} nodes, batch<= {}, wait<= {}ms{journaled})",
        handle.addr(),
        opts.nodes,
        admission.batch_max_size,
        admission.batch_max_wait_ms,
    );

    // Serve until a wire-level `shutdown` request flips the drain flag;
    // then finish queued batches, checkpoint, and report.
    let report = handle.serve_until_shutdown();
    println!(
        "medea-serve: drained (complete: {}, deployed during drain: {}, \
         checkpointed: {}, shed: {}, admitted: {})",
        report.drain_complete,
        report.deployed_during_drain,
        report.checkpointed,
        report.shed_total,
        report.admitted_total,
    );
}

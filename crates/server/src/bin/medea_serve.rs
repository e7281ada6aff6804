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
use medea_server::{AdmissionConfig, MedeaServer, ServerConfig};

struct Opts {
    addr: String,
    nodes: usize,
    mem_mb: u64,
    vcores: u32,
    racks: usize,
    interval: u64,
    journal_dir: Option<String>,
    checkpoint_every: u64,
    admission: AdmissionConfig,
    allow_remote_shutdown: bool,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            addr: "127.0.0.1:7654".to_string(),
            nodes: 256,
            mem_mb: 16 * 1024,
            vcores: 16,
            racks: 8,
            interval: 10,
            journal_dir: None,
            checkpoint_every: 64,
            admission: AdmissionConfig::default(),
            allow_remote_shutdown: false,
        }
    }
}

fn parse_opts() -> Result<Opts, String> {
    let mut opts = Opts::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut val = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--addr" => opts.addr = val("--addr")?,
            "--nodes" => opts.nodes = num(&val("--nodes")?)? as usize,
            "--mem-mb" => opts.mem_mb = num(&val("--mem-mb")?)?,
            "--vcores" => opts.vcores = num(&val("--vcores")?)? as u32,
            "--racks" => opts.racks = num(&val("--racks")?)? as usize,
            "--interval" => opts.interval = num(&val("--interval")?)?,
            "--batch-max" => opts.admission.batch_max_size = num(&val("--batch-max")?)? as usize,
            "--batch-wait-ms" => opts.admission.batch_max_wait_ms = num(&val("--batch-wait-ms")?)?,
            "--queue-capacity" => {
                opts.admission.queue_capacity = num(&val("--queue-capacity")?)? as usize
            }
            "--tenant-quota" => {
                opts.admission.tenant_quota = num(&val("--tenant-quota")?)? as usize
            }
            "--journal-dir" => opts.journal_dir = Some(val("--journal-dir")?),
            "--checkpoint-every" => opts.checkpoint_every = num(&val("--checkpoint-every")?)?,
            "--allow-remote-shutdown" => opts.allow_remote_shutdown = true,
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

fn main() {
    let opts = match parse_opts() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("medea-serve: {e}");
            std::process::exit(2);
        }
    };

    let state = ClusterState::homogeneous(
        opts.nodes,
        Resources::new(opts.mem_mb, opts.vcores),
        opts.racks.max(1),
    );
    let mut scheduler = MedeaScheduler::new(state, LraAlgorithm::Ilp, opts.interval);
    if let Some(dir) = &opts.journal_dir {
        let storage = match FileStorage::open(dir) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("medea-serve: cannot open journal dir {dir}: {e}");
                std::process::exit(1);
            }
        };
        if let Err(e) = scheduler.attach_journal(Wal::new(storage), opts.checkpoint_every) {
            eprintln!("medea-serve: cannot attach journal: {e}");
            std::process::exit(1);
        }
    }

    let cfg = ServerConfig {
        addr: opts.addr.clone(),
        admission: opts.admission.clone(),
        allow_remote_shutdown: opts.allow_remote_shutdown,
        ..ServerConfig::default()
    };
    let registry = MetricsRegistry::new();
    let handle = match MedeaServer::start(scheduler, cfg, registry) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("medea-serve: cannot bind {}: {e}", opts.addr);
            std::process::exit(1);
        }
    };
    println!(
        "medea-serve: listening on {} ({} nodes, batch<= {}, wait<= {}ms{})",
        handle.addr(),
        opts.nodes,
        opts.admission.batch_max_size,
        opts.admission.batch_max_wait_ms,
        if opts.journal_dir.is_some() {
            ", journaled"
        } else {
            ""
        },
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

//! Request generation. Everything the server sees — app ids, tags,
//! container sizes, group and constraint order — is drawn from `--seed`
//! through `medea-rand`; the amount of work per request is fixed by the
//! workload, so two seeds load the server equally.

use medea_rand::rngs::StdRng;
use medea_rand::{RngExt, SeedableRng};
use medea_server::{ContainerSpec, Request};

/// One generated `place` request.
pub struct Place {
    pub app: u64,
    pub containers: usize,
    pub request: Request,
}

pub struct Gen {
    rng: StdRng,
    next_app: u64,
    next_id: u64,
    pub tenant: String,
}

impl Gen {
    pub fn new(seed: u64) -> Gen {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x4D45_4445_4131_3142);
        let next_app = rng.random_range(1_000_000..2_000_000u64);
        let tenant = format!("tenant{}", rng.random_range(0..1000u32));
        Gen {
            rng,
            next_app,
            next_id: 1 << 32,
            tenant,
        }
    }

    /// The generator's own rng (background fill shares the seed).
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    fn app(&mut self) -> u64 {
        self.next_app += self.rng.random_range(1..5u64);
        self.next_app
    }

    /// Request ids for generated frames; disjoint from the ids the
    /// clients assign to their own queries (those start at 1).
    fn id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    fn place(&mut self, app: u64, groups: Vec<ContainerSpec>, constraints: Vec<String>) -> Place {
        let containers = groups.iter().map(|g| g.count as usize).sum();
        Place {
            app,
            containers,
            request: Request::Place {
                id: self.id(),
                tenant: self.tenant.clone(),
                app,
                containers: groups,
                constraints,
            },
        }
    }

    /// `steady_tiny`: one unconstrained container.
    pub fn tiny(&mut self) -> Place {
        let app = self.app();
        let memory_mb = 256 * self.rng.random_range(1..5u64);
        let group = ContainerSpec {
            count: 1,
            memory_mb,
            vcores: 1,
            tags: vec![format!("tiny{}", app % 97)],
        };
        self.place(app, vec![group], Vec::new())
    }

    /// `burst_hbase`: the §7.1 HBase instance — 8 region servers plus
    /// master, thrift and secondary — with the paper's four constraints
    /// in its wire syntax. Group and constraint order are shuffled.
    pub fn hbase(&mut self) -> Place {
        let app = self.app();
        let group = |count, memory_mb, role: &str| ContainerSpec {
            count,
            memory_mb,
            vcores: 1,
            tags: vec!["hb".to_string(), role.to_string()],
        };
        let mut groups = vec![
            group(8, 2048, "hb_rs"),
            group(1, 1024, "hb_m"),
            group(1, 1024, "hb_thrift"),
            group(1, 1024, "hb_sec"),
        ];
        let mut constraints = vec![
            format!("{{hb_rs ∧ appid:{app}, {{hb_rs ∧ appid:{app}, 1, ∞}}, rack}}"),
            "{hb_rs, {hb_rs, 0, 1}, node}".to_string(),
            format!("{{hb_m ∧ appid:{app}, {{hb_thrift ∧ appid:{app}, 1, ∞}}, node}}"),
            format!("{{hb_m ∧ appid:{app}, {{hb_sec ∧ appid:{app}, 0, 0}}, node}}"),
        ];
        self.rng.shuffle(&mut groups);
        self.rng.shuffle(&mut constraints);
        self.place(app, groups, constraints)
    }

    /// `scale_sharded` / `churn_restart`: `n` identical containers that
    /// must all land on different nodes (intra-app node anti-affinity on
    /// a per-app tag).
    pub fn spread(&mut self, n: u32) -> Place {
        let app = self.app();
        let tag = format!("lra{app}");
        let group = ContainerSpec {
            count: n,
            memory_mb: 512 * self.rng.random_range(1..4u64),
            vcores: 1,
            tags: vec![tag.clone()],
        };
        let constraint = format!("{{{tag}, {{{tag}, 0, 0}}, node}}");
        self.place(app, vec![group], vec![constraint])
    }

    pub fn release(&mut self, app: u64) -> Request {
        Request::Release {
            id: self.id(),
            tenant: self.tenant.clone(),
            app,
        }
    }

    pub fn scale(&mut self, app: u64, replicas: u64) -> Request {
        Request::Scale {
            id: self.id(),
            tenant: self.tenant.clone(),
            app,
            replicas,
        }
    }
}

//! Seeded input generators. Every input a run feeds the program — the
//! `.scn` scenario text and the debug-session script — is a pure function
//! of the workload seed and the instance index, so the same seed always
//! yields the same inputs. No generated scenario sets a checkpoint
//! capture interval: the product's default capture policy applies.

use netsim::NodeId;
use scenario::TopologySpec;

/// splitmix64: tiny, dependency-free, and stable across platforms.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, salted so nearby seeds diverge at once.
    pub fn new(seed: u64, salt: u64) -> Self {
        let mut r = Rng(seed ^ salt.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi` (`hi > lo`).
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo)
    }

    /// Uniform index below `n` (`n > 0`).
    pub fn index(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Nodes of the generated Barabási–Albert graphs.
pub const OSPF_NODES: usize = 12;
/// Edges each new node attaches with in the Barabási–Albert generator.
pub const OSPF_BA_M: usize = 2;
/// Side of the RIP grid.
pub const RIP_GRID: usize = 6;

/// Instance `i` of the OSPF churn family: a seeded Barabási–Albert graph
/// under a partition that heals, a link flap, and a crash of the
/// highest-degree hub. Fault edges are drawn from the generated graph.
pub fn ospf_churn_scn(seed: u64, i: usize) -> String {
    let mut rng = Rng::new(seed, 0x05F0 + i as u64);
    let gseed = rng.range(1, 1_000_000);
    let g = TopologySpec::BarabasiAlbert {
        n: OSPF_NODES,
        m: OSPF_BA_M,
        seed: gseed,
    }
    .build();
    let n = g.node_count();
    let hub = (0..n)
        .max_by_key(|&v| (g.degree(NodeId(v as u32)), n - v))
        .expect("nonempty graph");
    let witness = loop {
        let w = rng.index(n);
        if w != hub {
            break w;
        }
    };
    let mut side: Vec<usize> = Vec::new();
    while side.len() < 3 {
        let v = rng.index(n);
        if v != hub && !side.contains(&v) {
            side.push(v);
        }
    }
    side.sort_unstable();
    let edges = g.edges();
    let flap = edges[rng.index(edges.len())];
    let part_at = rng.range(800, 1200);
    let heal = part_at + rng.range(400, 700);
    let flap_at = rng.range(2200, 2600);
    let down_for = rng.range(200, 400);
    let period = rng.range(600, 800);
    let crash_at = rng.range(4400, 4800);
    let side: Vec<String> = side.iter().map(|v| v.to_string()).collect();
    format!(
        "name bench-ospf-churn-{i}\n\
         description OSPF on a seeded BA graph: partition+heal, link flap, hub crash\n\
         topology ba {OSPF_NODES} {OSPF_BA_M} {gseed}\n\
         protocol ospf\n\
         seed {}\n\
         jitter 0.5\n\
         duration 6s\n\
         fault {part_at}ms partition {} heal {heal}ms\n\
         fault {flap_at}ms flap {} {} {down_for}ms {period}ms 2\n\
         fault {crash_at}ms node-down {hub}\n\
         probe ospf-reachable {witness}\n",
        rng.range(0, 1 << 32),
        side.join(" "),
        flap.a.0,
        flap.b.0,
    )
}

/// Instance `i` of the RIP search family: a 6×6 grid running RIP for 60
/// simulated seconds with one advertised prefix, a node crash, a flapping
/// link and a permanent link cut.
pub fn rip_farm_scn(seed: u64, i: usize) -> String {
    let mut rng = Rng::new(seed, 0x0719 + i as u64);
    let n = RIP_GRID * RIP_GRID;
    let g = TopologySpec::Grid {
        rows: RIP_GRID,
        cols: RIP_GRID,
        delay: netsim::SimDuration::from_millis(5),
    }
    .build();
    let mut distinct = |k: usize| {
        let mut vs: Vec<usize> = Vec::new();
        while vs.len() < k {
            let v = rng.index(n);
            if !vs.contains(&v) {
                vs.push(v);
            }
        }
        vs
    };
    let [origin, probe, crashed] = distinct(3)[..] else {
        unreachable!("three nodes drawn")
    };
    let prefix = rng.range(1, 250);
    let edges = g.edges();
    let flap = edges[rng.index(edges.len())];
    let cut = edges[rng.index(edges.len())];
    format!(
        "name bench-rip-farm-{i}\n\
         description RIP on a 6x6 grid: node crash, link flaps, link cut\n\
         topology grid {RIP_GRID} {RIP_GRID} 5ms\n\
         protocol rip destination-and-next-hop\n\
         seed {}\n\
         jitter 0.5\n\
         duration 60s\n\
         inject 100ms {origin} rip-connect {prefix}\n\
         fault {}ms node-down {crashed}\n\
         fault {}ms flap {} {} 2s 5s 2\n\
         fault {}ms link-down {} {}\n\
         probe rip-route {probe} {prefix}\n",
        rng.range(0, 1 << 32),
        rng.range(15_000, 25_000),
        rng.range(30_000, 35_000),
        flap.a.0,
        flap.b.0,
        rng.range(48_000, 52_000),
        cut.a.0,
        cut.b.0,
    )
}

/// Commands in one block of a debug script.
pub const BLOCK_COMMANDS: usize = 20;

/// A seeded debug-session script: an opening `run`, then `blocks` blocks
/// of [`BLOCK_COMMANDS`] commands, then `clear` and a final `run` whose
/// logs the caller checks against a replay. Every block holds the same
/// mix — six `goto P`, four `rstep k`, three `step k`, one `stepg`, one
/// `break group G` + `rcont` + `clear`, two `inspect N` and one `where` —
/// in a seeded order, so the mix never varies with the seed.
///
/// `events` is the recording's delivered-event count and `groups` its
/// highest group, so every `goto` target lies inside the recording.
pub fn debug_script(
    seed: u64,
    i: usize,
    events: u64,
    groups: u64,
    nodes: usize,
    blocks: usize,
) -> Vec<String> {
    const MIX: [u8; 18] = [0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 3, 4, 5, 5, 6];
    let mut rng = Rng::new(seed, 0xDEB6 + i as u64);
    let mut out = vec!["run".to_string()];
    for _ in 0..blocks {
        let mut block = MIX;
        for k in (1..block.len()).rev() {
            block.swap(k, rng.index(k + 1));
        }
        for cmd in block {
            match cmd {
                0 => out.push(format!("goto {}", rng.range(0, events + 1))),
                1 => out.push(format!("rstep {}", rng.range(1, 17))),
                2 => out.push(format!("step {}", rng.range(1, 17))),
                3 => out.push("stepg".to_string()),
                4 => {
                    out.push(format!("break group {}", rng.range(1, groups.max(1) + 1)));
                    out.push("rcont".to_string());
                    out.push("clear".to_string());
                }
                5 => out.push(format!("inspect {}", rng.index(nodes))),
                _ => out.push("where".to_string()),
            }
        }
    }
    out.push("clear".to_string());
    out.push("run".to_string());
    out
}

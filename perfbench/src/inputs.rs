//! Seeded workload inputs: the `sweep_variants` scenario list and the
//! `serve_mixed` request schedules. Everything here is a pure function
//! of the seed, so one seed always yields byte-identical inputs; the
//! program under test only ever sees the generated JSON.

use techlib::spec::{InterposerKind, InterposerSpec};

/// SplitMix64: a tiny, well-mixed generator that is stable across
/// platforms and toolchains (the benchmark must not depend on a
/// library's RNG stream).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Technologies whose interposer routes in well under a thermal solve
/// (Silicon 3D has no interposer at all): the sweep and the daemon
/// traffic stay on them, leaving APX and Shinko to `paper_cold`.
pub const CHEAP_TECHS: [(&str, InterposerKind); 3] = [
    ("glass3d", InterposerKind::Glass3D),
    ("silicon25d", InterposerKind::Silicon25D),
    ("silicon3d", InterposerKind::Silicon3D),
];

/// One sweep knob: its override key (the first two change the routed
/// layout, the last two act downstream of it) and how a seeded draw `u`
/// in `[0, 1)` maps the paper value to the override (text, so the parsed
/// value is exactly what is printed).
struct Knob {
    key: &'static str,
    value: fn(&InterposerSpec, f64) -> String,
}

const KNOBS: [Knob; 4] = [
    Knob {
        key: "microbump_pitch_um",
        value: |s, u| format!("{:.1}", s.microbump_pitch_um * (1.0 + 0.25 * u)),
    },
    Knob {
        key: "die_to_die_spacing_um",
        value: |s, u| format!("{:.0}", s.die_to_die_spacing_um * (1.0 + u)),
    },
    Knob {
        key: "loss_tangent",
        value: |s, u| format!("{:.6}", s.loss_tangent * (0.5 + 1.5 * u)),
    },
    Knob {
        key: "metal_thickness_um",
        value: |s, u| format!("{:.2}", s.metal_thickness_um * (0.75 + 0.75 * u)),
    },
];

/// Scenarios per sweep: every cheap technology gets every knob once.
pub const SWEEP_SCENARIOS: usize = CHEAP_TECHS.len() * KNOBS.len();

/// The `sweep_variants` batch as a `codesign sweep` scenario file: each
/// cheap technology with each knob once, at seeded values, in seeded
/// order. The composition (and so the amount of work) is fixed; the
/// seed moves the values.
pub fn sweep_json(seed: u64) -> String {
    let mut rng = Rng::new(seed, 1);
    let mut entries = Vec::with_capacity(SWEEP_SCENARIOS);
    for (label, kind) in CHEAP_TECHS {
        let spec = InterposerSpec::for_kind(kind);
        for knob in &KNOBS {
            let value = (knob.value)(&spec, rng.unit());
            entries.push((label, knob.key, value));
        }
    }
    rng.shuffle(&mut entries);
    let body: Vec<String> = entries
        .iter()
        .enumerate()
        .map(|(i, (tech, key, value))| {
            format!(
                "{{\"name\":\"v{i:02}-{tech}-{key}\",\"tech\":\"{tech}\",\
                 \"overrides\":{{\"{key}\":{value}}}}}"
            )
        })
        .collect();
    format!("[{}]", body.join(","))
}

/// Request bodies the daemon's pool holds after warm-up: the paper
/// point of every cheap technology, plus one two-scenario request.
pub const REPEATED_BODIES: [&str; 4] = [
    r#"[{"name":"paper-glass3d","tech":"glass3d"}]"#,
    r#"[{"name":"paper-silicon25d","tech":"silicon25d"}]"#,
    r#"[{"name":"paper-silicon3d","tech":"silicon3d"}]"#,
    r#"[{"name":"thick-glass3d","tech":"glass3d","overrides":{"metal_thickness_um":5.0}},{"name":"paper-silicon3d","tech":"silicon3d"}]"#,
];

/// One in this many requests carries a loss tangent the daemon has
/// never seen.
pub const NOVEL_EVERY: usize = 20;

/// Technologies the novel requests study: the two whose uncached
/// reference is cheapest to recompute.
const NOVEL_TECHS: [&str; 2] = ["glass3d", "silicon3d"];

/// One scheduled request of a rate phase.
#[derive(Debug, Clone, PartialEq)]
pub struct Scheduled {
    /// Due time, seconds after the phase starts.
    pub due_s: f64,
    /// Carries a loss tangent no earlier request of the run used.
    pub novel: bool,
    /// The request body.
    pub body: String,
}

/// The open-loop schedule of one rate phase: `n` requests at `rate` per
/// second, request `i` due at a seeded instant within `[i, i + 1) / rate`
/// (the jitter keeps the schedule from beating against any fixed period
/// inside the daemon, such as its accept poll), in blocks of [`NOVEL_EVERY`] with the same
/// make-up — one novel request (a fresh loss tangent, numbered from
/// `novel_base` so no value repeats within a run, on the novel
/// technologies in turn) and the repeated bodies in turn — shuffled
/// within the block by the seed. Every phase thus carries the same mix;
/// the seed moves the order and the loss tangents.
pub fn schedule(seed: u64, phase: u64, rate: f64, n: usize, novel_base: usize) -> Vec<Scheduled> {
    let mut rng = Rng::new(seed, 100 + phase);
    let tech_offset = rng.below(NOVEL_TECHS.len());
    let body_offset = rng.below(REPEATED_BODIES.len());
    let mut kinds: Vec<Option<usize>> = Vec::with_capacity(n + NOVEL_EVERY);
    let mut repeated = body_offset;
    while kinds.len() < n {
        let mut block: Vec<Option<usize>> = (1..NOVEL_EVERY)
            .map(|_| {
                repeated += 1;
                Some(repeated % REPEATED_BODIES.len())
            })
            .collect();
        block.push(None);
        rng.shuffle(&mut block);
        kinds.extend(block);
    }
    kinds.truncate(n);
    let mut novel = novel_base;
    kinds
        .into_iter()
        .enumerate()
        .map(|(i, kind)| {
            let due_s = (i as f64 + rng.unit()) / rate;
            match kind {
                Some(which) => Scheduled {
                    due_s,
                    novel: false,
                    body: REPEATED_BODIES[which].to_string(),
                },
                None => {
                    let tech = NOVEL_TECHS[(tech_offset + novel) % NOVEL_TECHS.len()];
                    novel += 1;
                    Scheduled {
                        due_s,
                        novel: true,
                        body: novel_body(seed, tech, novel),
                    }
                }
            }
        })
        .collect()
}

/// A one-scenario request whose loss tangent is unique to (`seed`,
/// `index`) and differs from every paper value.
fn novel_body(seed: u64, tech: &str, index: usize) -> String {
    let loss_tangent = 0.0025 + 1e-5 * (seed % 100) as f64 + 1e-8 * index as f64;
    format!(
        "[{{\"name\":\"lt-{index}\",\"tech\":\"{tech}\",\
         \"overrides\":{{\"loss_tangent\":{loss_tangent:.8}}}}}]"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_gives_byte_identical_inputs() {
        assert_eq!(sweep_json(7), sweep_json(7));
        assert_ne!(sweep_json(7), sweep_json(8));
        assert_eq!(schedule(7, 2, 50.0, 120, 0), schedule(7, 2, 50.0, 120, 0));
        assert_ne!(schedule(7, 2, 50.0, 120, 0), schedule(8, 2, 50.0, 120, 0));
        assert_ne!(schedule(7, 2, 50.0, 120, 0), schedule(7, 3, 50.0, 120, 0));
    }

    #[test]
    fn the_sweep_parses_and_keeps_its_composition() {
        let scenarios = codesign::scenario::scenarios_from_json(&sweep_json(3)).unwrap();
        assert_eq!(scenarios.len(), SWEEP_SCENARIOS);
        for (_, kind) in CHEAP_TECHS {
            assert_eq!(scenarios.iter().filter(|s| s.tech() == kind).count(), 4);
        }
    }

    #[test]
    fn schedules_keep_their_rate_and_a_fixed_novel_share() {
        let plan = schedule(11, 0, 40.0, 200, 5);
        assert_eq!(plan.len(), 200);
        for (i, request) in plan.iter().enumerate() {
            let slot = request.due_s * 40.0 - i as f64;
            assert!(
                (0.0..1.0).contains(&slot),
                "request {i} due at {}",
                request.due_s
            );
        }
        let novel: Vec<&Scheduled> = plan.iter().filter(|r| r.novel).collect();
        assert_eq!(novel.len(), 200 / NOVEL_EVERY);
        let mut bodies: Vec<&str> = novel.iter().map(|r| r.body.as_str()).collect();
        bodies.sort_unstable();
        bodies.dedup();
        assert_eq!(
            bodies.len(),
            novel.len(),
            "novel loss tangents never repeat"
        );
        for request in &plan {
            codesign::scenario::scenarios_from_json(&request.body).unwrap();
        }
    }
}

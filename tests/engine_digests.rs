//! Pins the exact behaviour of every adaptive organisation.
//!
//! Each organisation runs a phase-changing stream on two geometries and
//! is reduced to three FNV-1a digests:
//!
//! - `access`: every access's hit flag, evicted block and dirty bit;
//! - `state`: the end state — statistics, shadow statistics, imitation,
//!   exclusive-miss and aliasing totals, Figure-7 samples,
//!   `timeline_probe()`, the label and the selector accessors;
//! - `events`: the decision-event sequence, every event recorded.
//!
//! A refactor of the engines that is meant to keep their behaviour must
//! leave every digest unchanged. Run
//! `cargo test --test engine_digests -- --nocapture` to print the
//! current digests when a mismatch needs diagnosing.

use ac_telemetry::{DecisionEvent, Recorder, SpanRecord, TimelineProbe};
use adaptive_cache::{
    AdaptiveCache, AdaptiveConfig, Component, DipCache, DipConfig, HistoryKind, MultiAdaptiveCache,
    MultiConfig, SbarCache, SbarConfig, SharedPsel,
};
use cache_sim::{
    AccessOutcome, BlockAddr, CacheModel, Geometry, Lfu, Lru, PolicyKind, ReplacementPolicy,
    TagMode,
};
use std::cell::Cell;
use std::sync::{Arc, Once};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over the little-endian bytes of `word`.
fn fnv(h: u64, word: u64) -> u64 {
    word.to_le_bytes()
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3))
}

/// A running FNV-1a digest.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(FNV_OFFSET)
    }

    fn word(&mut self, w: u64) {
        self.0 = fnv(self.0, w);
    }

    fn words(&mut self, ws: impl IntoIterator<Item = u64>) {
        for w in ws {
            self.word(w);
        }
    }

    fn text(&mut self, s: &str) {
        self.word(s.len() as u64);
        self.words(s.bytes().map(u64::from));
    }

    fn outcome(&mut self, out: AccessOutcome) {
        self.word(u64::from(out.hit));
        match out.eviction {
            Some(ev) => self.words([1, ev.block.raw(), u64::from(ev.dirty)]),
            None => self.word(0),
        }
    }

    fn probe(&mut self, p: TimelineProbe) {
        self.words([
            p.accesses,
            p.hits,
            p.misses,
            p.shadow_a_misses,
            p.shadow_b_misses,
            p.shadow_a_hits,
            p.shadow_b_hits,
            p.excl_a_misses,
            p.excl_b_misses,
            p.imitations_a,
            p.imitations_b,
            p.aliasing_fallbacks,
            p.leader_votes,
            p.psel.map_or(u64::MAX, u64::from),
        ]);
    }

    /// What every organisation reports through [`CacheModel`].
    fn model(&mut self, m: &dyn CacheModel) {
        let s = m.stats();
        self.words([
            s.accesses,
            s.hits,
            s.misses,
            s.read_misses,
            s.write_misses,
            s.evictions,
            s.writebacks,
        ]);
        self.text(&m.label());
        self.probe(m.timeline_probe());
    }

    fn pair(&mut self, (a, b): (u64, u64)) {
        self.words([a, b]);
    }
}

fn comp(c: Component) -> u64 {
    match c {
        Component::A => 0,
        Component::B => 1,
    }
}

/// Folds one decision event, field by field, into the digest `h`.
fn event_digest(h: u64, e: DecisionEvent) -> u64 {
    let mut d = Digest(h);
    d.text(e.kind());
    match e {
        DecisionEvent::Imitation {
            set,
            component,
            case,
        } => {
            d.word(set.into());
            d.text(component.as_str());
            d.text(case.as_str());
        }
        DecisionEvent::HistoryUpdate {
            set,
            a_missed,
            b_missed,
        } => d.words([set.into(), a_missed.into(), b_missed.into()]),
        DecisionEvent::LeaderVote {
            set,
            slot,
            psel,
            global,
        } => {
            d.words([set.into(), slot.into(), psel.into()]);
            d.text(global.as_str());
        }
        DecisionEvent::DuelVote {
            set,
            bip_leader,
            psel,
        } => d.words([set.into(), bip_leader.into(), psel.into()]),
    }
    d.0
}

thread_local! {
    /// Digest of the decision events emitted on this thread.
    static EVENTS: Cell<u64> = const { Cell::new(FNV_OFFSET) };
}

/// Records every decision event (sample rate 1) into a per-thread
/// digest. Per thread, because the tests of this binary run in parallel
/// and each must see only the events its own caches emit.
struct EventDigest;

impl Recorder for EventDigest {
    fn counter_add(&self, _: &'static str, _: &str, _: u64) {}
    fn gauge_set(&self, _: &'static str, _: &str, _: f64) {}
    fn span_record(&self, _: SpanRecord) {}
    fn decision(&self, event: DecisionEvent) {
        EVENTS.with(|h| h.set(event_digest(h.get(), event)));
    }
    fn events_enabled(&self) -> bool {
        true
    }
}

/// Installs [`EventDigest`] once per process and resets this thread's
/// event digest.
fn start_events() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        assert!(
            ac_telemetry::set_recorder(Box::new(EventDigest)).is_ok(),
            "this binary installs the only recorder"
        );
    });
    EVENTS.with(|h| h.set(FNV_OFFSET));
}

fn take_events() -> u64 {
    EVENTS.with(|h| h.replace(FNV_OFFSET))
}

/// Accesses per run.
const ACCESSES: u64 = 300_000;

/// The unit tests' phases, scaled to a cache of `cap` blocks (they are
/// written for 1024): hot blocks in bursts of three interleaved with a
/// long scan (LFU-friendly), then a shifting hot window (LRU-friendly).
/// One access in eight goes to a random block instead, so exclusive
/// misses train the histories both ways and the history variants part.
/// One access in four is a write.
fn stream(cap: u64) -> impl Iterator<Item = (BlockAddr, bool)> {
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    (0..ACCESSES).map(move |i| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let group = i / 4;
        let b = if x.is_multiple_of(8) {
            cap * 40 + (x >> 8) % (cap * 2)
        } else if i < ACCESSES / 2 {
            if i % 4 < 3 {
                group % (cap * 3 / 4)
            } else {
                cap + group % (cap * 8)
            }
        } else {
            cap * 20 + (i / 16_000) * (cap * 2) + (i * 7919) % (cap * 4)
        };
        let write = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 62 == 0;
        (BlockAddr::new(b), write)
    })
}

/// The paper's L2 and a 16-set 4-way cache.
fn geometries() -> [(&'static str, Geometry); 2] {
    [
        ("l2", Geometry::new(512 * 1024, 64, 8).unwrap()),
        ("small", Geometry::new(4096, 64, 4).unwrap()),
    ]
}

fn capacity(g: &Geometry) -> u64 {
    (g.num_sets() * g.associativity()) as u64
}

/// `(access, state, events)` digests of one run.
type Digests = (u64, u64, u64);

/// Drives `m` over [`stream`], then hashes its end state with `state`.
fn run<M: CacheModel>(mut m: M, state: impl FnOnce(&mut M, &mut Digest)) -> Digests {
    start_events();
    let mut access = Digest::new();
    for (block, write) in stream(capacity(m.geometry())) {
        access.outcome(m.access(block, write));
    }
    let events = take_events();
    let mut end = Digest::new();
    end.model(&m);
    state(&mut m, &mut end);
    (access.0, end.0, events)
}

fn adaptive_state<A: ReplacementPolicy, B: ReplacementPolicy>(
    c: &mut AdaptiveCache<A, B>,
    h: &mut Digest,
) {
    h.pair(c.shadow_stats(Component::A));
    h.pair(c.shadow_stats(Component::B));
    h.pair(c.imitation_totals());
    h.pair(c.exclusive_miss_totals());
    h.word(c.aliasing_fallbacks());
    for set in 0..c.geometry().num_sets() {
        h.word(comp(c.set_winner(set)));
    }
    for s in c.take_imitation_samples() {
        h.words([s.imitated_a, s.imitated_b]);
    }
}

fn sbar_state(c: &mut SbarCache, h: &mut Digest) {
    h.pair(c.shadow_stats(Component::A));
    h.pair(c.shadow_stats(Component::B));
    h.pair(c.imitation_totals());
    h.pair(c.exclusive_miss_totals());
    h.words([
        c.aliasing_fallbacks(),
        c.leader_votes(),
        c.policy_switches(),
    ]);
    h.words([u64::from(c.psel()), comp(c.global_winner())]);
    for set in 0..c.geometry().num_sets() {
        h.word(u64::from(c.is_leader(set)));
    }
}

/// Four `with_leaders` shards of `geom` sharing one selector, split by
/// the low set bits like the sharded front end.
struct Shards {
    geom: Geometry,
    local: Geometry,
    shards: Vec<SbarCache>,
}

const SHARDS: usize = 4;

impl Shards {
    fn new(geom: Geometry, config: SbarConfig, seed: u64) -> Self {
        let sets = geom.num_sets();
        let local = Geometry::new(geom.size_bytes() / SHARDS, 64, geom.associativity()).unwrap();
        let psel = Arc::new(SharedPsel::new(config.psel_bits));
        let mut leaders = vec![Vec::new(); SHARDS];
        for set in adaptive_cache::default_leader_sets(sets, config.leader_sets) {
            leaders[set % SHARDS].push(set / SHARDS);
        }
        let shards = (0..SHARDS)
            .map(|i| {
                let seed = seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                SbarCache::with_leaders(local, config, seed, &leaders[i], Arc::clone(&psel))
            })
            .collect();
        Shards {
            geom,
            local,
            shards,
        }
    }

    fn run(mut self) -> Digests {
        start_events();
        let mut access = Digest::new();
        for (block, write) in stream(capacity(&self.geom)) {
            let set = self.geom.set_index(block);
            let shard = set % SHARDS;
            let local = self
                .local
                .block_from_parts(self.geom.tag(block), set / SHARDS);
            access.word(shard as u64);
            access.outcome(self.shards[shard].access(local, write));
        }
        let events = take_events();
        let mut end = Digest::new();
        for shard in &mut self.shards {
            end.model(&*shard);
            sbar_state(shard, &mut end);
        }
        (access.0, end.0, events)
    }
}

fn multi_state(c: &mut MultiAdaptiveCache, h: &mut Digest) {
    h.words(c.imitation_counts().iter().copied());
    h.words(c.shadow_misses());
    h.word(c.aliasing_fallbacks());
}

fn dip_state(c: &mut DipCache, h: &mut Digest) {
    h.words([
        u64::from(c.bip_selected()),
        u64::from(c.psel()),
        c.duel_votes(),
        c.policy_switches(),
    ]);
}

/// Compares `got` with `want` by name, printing every row so one run
/// shows the whole table.
fn check(got: &[(String, Digests)], want: &[(&str, Digests)]) {
    let mut wrong = Vec::new();
    for (name, d) in got {
        println!(
            "(\"{name}\", (0x{:016x}, 0x{:016x}, 0x{:016x})),",
            d.0, d.1, d.2
        );
        match want.iter().find(|(n, _)| n == name) {
            Some((_, w)) if w == d => {}
            Some((_, w)) => {
                let parts = ["access", "state", "events"];
                let diff: Vec<_> = [(w.0, d.0), (w.1, d.1), (w.2, d.2)]
                    .iter()
                    .zip(parts)
                    .filter(|((w, d), _)| w != d)
                    .map(|(_, p)| p)
                    .collect();
                wrong.push(format!("{name}: {diff:?}"));
            }
            None => wrong.push(format!("{name}: no pinned digest")),
        }
    }
    assert_eq!(got.len(), want.len(), "organisation count changed");
    assert!(wrong.is_empty(), "engines drifted: {wrong:?}");
}

#[test]
fn adaptive_cache_is_pinned() {
    let shadow = |mode: TagMode| AdaptiveConfig::paper_full_tags().shadow_tag_mode(mode);
    let configs = [
        ("full", AdaptiveConfig::paper_full_tags()),
        ("8bit", AdaptiveConfig::paper_default()),
        ("xor8", shadow(TagMode::PartialXor { bits: 8 })),
        ("1bit", shadow(TagMode::PartialLow { bits: 1 })),
        (
            "lru_shortcut",
            AdaptiveConfig::paper_full_tags().with_lru_shortcut(),
        ),
        (
            "counters",
            AdaptiveConfig::paper_full_tags().history_kind(HistoryKind::Counters),
        ),
        (
            "saturating4",
            AdaptiveConfig::paper_full_tags().history_kind(HistoryKind::Saturating { bits: 4 }),
        ),
    ];
    let mut got = Vec::new();
    for (g, geom) in geometries() {
        for (name, config) in configs {
            let d = run(AdaptiveCache::new(geom, config, 0xD16E), adaptive_state);
            got.push((format!("adaptive/{name}/{g}"), d));
        }
        let custom = AdaptiveCache::with_custom_policies(
            geom,
            Lru,
            Lfu::paper_default(),
            TagMode::Full,
            HistoryKind::paper_default(),
            0xD16E,
        );
        got.push((format!("adaptive/custom/{g}"), run(custom, adaptive_state)));
    }
    check(&got, ADAPTIVE);
}

#[test]
fn sbar_cache_is_pinned() {
    let mut got = Vec::new();
    for (g, geom) in geometries() {
        for (name, config) in [
            ("paper", SbarConfig::paper_default()),
            ("partial", SbarConfig::paper_partial_tags()),
        ] {
            let d = run(SbarCache::new(geom, config, 0x5BA2), sbar_state);
            got.push((format!("sbar/{name}/{g}"), d));
        }
        let shards = Shards::new(geom, SbarConfig::paper_default(), 0x5BA2);
        got.push((format!("sbar/shards/{g}"), shards.run()));
    }
    check(&got, SBAR);
}

#[test]
fn multi_and_dip_are_pinned() {
    let mut got = Vec::new();
    for (g, geom) in geometries() {
        for (name, config) in [
            ("five", MultiConfig::paper_five_policy()),
            (
                "lru_lfu",
                MultiConfig::with_policies(vec![PolicyKind::Lru, PolicyKind::LFU5]),
            ),
        ] {
            let d = run(MultiAdaptiveCache::new(geom, config, 0x3017), multi_state);
            got.push((format!("multi/{name}/{g}"), d));
        }
        // The paper's 32 leaders per policy need 64 sets; the 16-set
        // cache duels 4 per policy.
        let config = match g {
            "l2" => DipConfig::paper_default(),
            _ => DipConfig {
                leaders_per_policy: 4,
                ..DipConfig::paper_default()
            },
        };
        got.push((
            format!("dip/{g}"),
            run(DipCache::new(geom, config, 0xD1B), dip_state),
        ));
    }
    check(&got, MULTI_DIP);
}

#[rustfmt::skip]
const ADAPTIVE: &[(&str, Digests)] = &[
    ("adaptive/full/l2", (0xb2a20873b08a9ebd, 0x7c801966d489a675, 0xc87ed93ee496a4b8)),
    ("adaptive/8bit/l2", (0xb2a20873b08a9ebd, 0x461ec95352754ded, 0xc87ed93ee496a4b8)),
    ("adaptive/xor8/l2", (0xb2a20873b08a9ebd, 0x461ec95352754ded, 0xc87ed93ee496a4b8)),
    ("adaptive/1bit/l2", (0x3d2da77c736c6548, 0xb60799bfeb541081, 0x42e10f0b67c960c7)),
    ("adaptive/lru_shortcut/l2", (0x87ca13affd0a4f17, 0x36c31cb3d89b1af0, 0x5981934570e364fb)),
    ("adaptive/counters/l2", (0xb3acf43a24535482, 0x582b415a106ef018, 0x39f105e6e0c7dd6f)),
    ("adaptive/saturating4/l2", (0x7eb08b81c6e7e488, 0xf61abf1920a893c9, 0xe0763e10d4f4abe7)),
    ("adaptive/custom/l2", (0xb2a20873b08a9ebd, 0x7c801966d489a675, 0xc87ed93ee496a4b8)),
    ("adaptive/full/small", (0x25c5f4bbb70debce, 0x01bf2f3fb1335fed, 0x88c91c35351003a2)),
    ("adaptive/8bit/small", (0x25c5f4bbb70debce, 0x0ab6d36d19f529e5, 0x88c91c35351003a2)),
    ("adaptive/xor8/small", (0x25c5f4bbb70debce, 0x0ab6d36d19f529e5, 0x88c91c35351003a2)),
    ("adaptive/1bit/small", (0xe39f99606a3c041d, 0xe1853685c4a02a81, 0x61a553123440e326)),
    ("adaptive/lru_shortcut/small", (0xf718a3db8f10fc0e, 0x01bf2f3fb1335fed, 0xbc9a36094faeeec2)),
    ("adaptive/counters/small", (0x2053f0b4bddc0917, 0x385429a6840d81d8, 0xa353b9a3c4ec0129)),
    ("adaptive/saturating4/small", (0x898163e8296d4693, 0xc17d8ac3e7a9e3b8, 0x0c3f9cf6fe96ed41)),
    ("adaptive/custom/small", (0x25c5f4bbb70debce, 0x01bf2f3fb1335fed, 0x88c91c35351003a2)),
];

#[rustfmt::skip]
const SBAR: &[(&str, Digests)] = &[
    ("sbar/paper/l2", (0xe8b98a388de8af1b, 0x0a9a7aad4c0d0f6e, 0xd0bd534335159497)),
    ("sbar/partial/l2", (0xe8b98a388de8af1b, 0x0a9a7aad4c0d0f6e, 0xd0bd534335159497)),
    ("sbar/shards/l2", (0xe469faa8887b9ebc, 0xd019c416e1d98a60, 0x2c0d471915ea03d7)),
    ("sbar/paper/small", (0x25c5f4bbb70debce, 0x198ca431444b89cf, 0x8458239c434d11e4)),
    ("sbar/partial/small", (0x25c5f4bbb70debce, 0x198ca431444b89cf, 0x8458239c434d11e4)),
    ("sbar/shards/small", (0xbecd56544111da6f, 0x88dcd24c5c9fc5aa, 0xab26e0a5e1487a0d)),
];

#[rustfmt::skip]
const MULTI_DIP: &[(&str, Digests)] = &[
    ("multi/five/l2", (0x80cba085f2c27b3e, 0xe2aca14ca871c53b, 0xcbf29ce484222325)),
    ("multi/lru_lfu/l2", (0xb3acf43a24535482, 0xe4874eab0c32409a, 0xcbf29ce484222325)),
    ("dip/l2", (0x762a9a789735729b, 0x6a8823e9dd9d248c, 0x93ff2ed02403034b)),
    ("multi/five/small", (0x6a8c093402e8aff6, 0x4b01fefb3eedb7b2, 0xcbf29ce484222325)),
    ("multi/lru_lfu/small", (0x5ff15945252f3251, 0x4eff8ebf49c4fc47, 0xcbf29ce484222325)),
    ("dip/small", (0x8f99975fc61f9258, 0x925d31e829ae3af1, 0xc34abd6e950b80eb)),
];

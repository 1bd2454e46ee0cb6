//! The structured decision-event stream.
//!
//! Events are tiny `Copy` values so that emitting one from a cache's
//! replacement path costs a couple of stores; all allocation happens in
//! the recorder, and only for the sampled subset.

use crate::json::push_str_escaped;

/// Schema version stamped on every `events.jsonl` line. Bumped to 2
/// when the field itself was introduced (version-1 lines carry none).
/// Dropping the `switch_lag` kind kept it at 2: every line still
/// written has the shape it had, and a reader of older runs skips the
/// kinds it does not know.
pub const EVENTS_SCHEMA_VERSION: u32 = 2;

/// One of the two component policies of an adaptive organisation
/// (mirrors `adaptive_cache::Component` without depending on it — this
/// crate sits below the simulation crates).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Comp {
    /// Component policy A.
    A,
    /// Component policy B.
    B,
}

impl Comp {
    /// Stable wire name (`"A"` / `"B"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Comp::A => "A",
            Comp::B => "B",
        }
    }
}

/// Which branch of Algorithm 1 chose the victim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictionCase {
    /// Case 1: the imitated component also missed and its victim was
    /// still resident — the very same block was evicted.
    SameVictim,
    /// Case 2: a block not present in the imitated component's (shadow)
    /// cache was evicted, converging the contents towards it.
    NotInShadow,
    /// The Section 3.3 shortcut: imitating an LRU component by evicting
    /// the least-recent real block directly.
    LruShortcut,
    /// Case 3 (partial tags only): aliasing hid every candidate and an
    /// arbitrary block was evicted.
    AliasFallback,
    /// SBAR follower set: the globally selected policy's own metadata
    /// chose the victim (no shadow structures involved).
    Follower,
}

impl EvictionCase {
    /// Stable wire name (`snake_case`).
    pub fn as_str(self) -> &'static str {
        match self {
            EvictionCase::SameVictim => "same_victim",
            EvictionCase::NotInShadow => "not_in_shadow",
            EvictionCase::LruShortcut => "lru_shortcut",
            EvictionCase::AliasFallback => "alias_fallback",
            EvictionCase::Follower => "follower",
        }
    }
}

/// One adaptive-cache decision, as emitted by the simulation crates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionEvent {
    /// Algorithm 1 ran in `set` and imitated `component`, taking `case`.
    Imitation {
        /// The cache set the replacement happened in.
        set: u32,
        /// The component policy imitated.
        component: Comp,
        /// The branch of Algorithm 1 that chose the victim.
        case: EvictionCase,
    },
    /// A per-set miss history absorbed an *exclusive* miss (exactly one
    /// component missed — ties in either direction do not train).
    HistoryUpdate {
        /// The cache set whose history was updated.
        set: u32,
        /// Whether component A missed this reference.
        a_missed: bool,
        /// Whether component B missed this reference.
        b_missed: bool,
    },
    /// An SBAR leader set cast a vote: exactly one component missed and
    /// the global selector moved.
    LeaderVote {
        /// The leader set that voted.
        set: u32,
        /// The leader's slot index.
        slot: u32,
        /// The selector value after the vote.
        psel: u32,
        /// The component the selector favours after the vote.
        global: Comp,
    },
    /// A DIP leader set missed and trained the duel counter.
    DuelVote {
        /// The leader set that missed.
        set: u32,
        /// True for a BIP leader, false for an LRU-insertion leader.
        bip_leader: bool,
        /// The duel counter after the update.
        psel: u32,
    },
}

impl DecisionEvent {
    /// Stable wire name of the event kind.
    pub fn kind(&self) -> &'static str {
        match self {
            DecisionEvent::Imitation { .. } => "imitation",
            DecisionEvent::HistoryUpdate { .. } => "history_update",
            DecisionEvent::LeaderVote { .. } => "leader_vote",
            DecisionEvent::DuelVote { .. } => "duel_vote",
        }
    }
}

/// A recorded (sampled) event: the decision plus stream metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventRecord {
    /// Position in the *unsampled* stream (so consumers can recover the
    /// effective sampling density).
    pub seq: u64,
    /// Microseconds since the process telemetry epoch.
    pub t_us: u64,
    /// The decision itself.
    pub event: DecisionEvent,
}

impl EventRecord {
    /// The event as one JSONL line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut s = String::with_capacity(96);
        s.push_str("{\"schema_version\":");
        s.push_str(&EVENTS_SCHEMA_VERSION.to_string());
        s.push_str(",\"seq\":");
        s.push_str(&self.seq.to_string());
        s.push_str(",\"t_us\":");
        s.push_str(&self.t_us.to_string());
        s.push_str(",\"kind\":");
        push_str_escaped(&mut s, self.event.kind());
        match self.event {
            DecisionEvent::Imitation {
                set,
                component,
                case,
            } => {
                s.push_str(&format!(
                    ",\"set\":{set},\"component\":\"{}\",\"case\":\"{}\"",
                    component.as_str(),
                    case.as_str()
                ));
            }
            DecisionEvent::HistoryUpdate {
                set,
                a_missed,
                b_missed,
            } => {
                s.push_str(&format!(
                    ",\"set\":{set},\"a_missed\":{a_missed},\"b_missed\":{b_missed}"
                ));
            }
            DecisionEvent::LeaderVote {
                set,
                slot,
                psel,
                global,
            } => {
                s.push_str(&format!(
                    ",\"set\":{set},\"slot\":{slot},\"psel\":{psel},\"global\":\"{}\"",
                    global.as_str()
                ));
            }
            DecisionEvent::DuelVote {
                set,
                bip_leader,
                psel,
            } => {
                s.push_str(&format!(
                    ",\"set\":{set},\"bip_leader\":{bip_leader},\"psel\":{psel}"
                ));
            }
        }
        s.push('}');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_lines_are_well_formed() {
        let r = EventRecord {
            seq: 9,
            t_us: 1234,
            event: DecisionEvent::Imitation {
                set: 3,
                component: Comp::B,
                case: EvictionCase::NotInShadow,
            },
        };
        assert_eq!(
            r.to_json_line(),
            "{\"schema_version\":2,\"seq\":9,\"t_us\":1234,\"kind\":\"imitation\",\
             \"set\":3,\"component\":\"B\",\"case\":\"not_in_shadow\"}"
        );
    }

    #[test]
    fn kinds_are_stable() {
        assert_eq!(
            DecisionEvent::HistoryUpdate {
                set: 0,
                a_missed: true,
                b_missed: false
            }
            .kind(),
            "history_update"
        );
        assert_eq!(EvictionCase::AliasFallback.as_str(), "alias_fallback");
        assert_eq!(Comp::A.as_str(), "A");
    }
}

//! Property tests for write-ahead journal replay (`testbed::faults`).
//!
//! The recovery contract the crash layer relies on, stated as
//! properties over random journals of plain and commit records, for
//! both views of a journal that its one reader, `Journal::replay`,
//! gives from one read — the records (every record's tag and effect,
//! handed to the application's fold) and the replies it returns (the
//! commit records' `((caller, call-id), reply)`, restored into the
//! supervisor's reply cache):
//!
//! * **Roundtrip** — every appended `(tag, effect)` and every committed
//!   reply comes back verbatim, in order, through any handle on the
//!   same file.
//! * **Idempotent recovery** — folding the journal into a state or a
//!   reply cache is a pure function of the records: recovering twice
//!   (or from a fresh handle, as a restarted process does) yields the
//!   identical state.
//! * **Prefix consistency** — a crash can leave any prefix of the
//!   journal as the durable truth. Replaying a prefix and then the
//!   remaining suffix must land in exactly the state the full journal
//!   yields, and nothing a prefix asserts (a committed reply, a key's
//!   presence at that point) is contradicted by the full log.

use std::collections::HashMap;

use gridsec_testbed::faults::Journal;
use gridsec_testbed::os::{FileMode, SimOs, ROOT_UID};
use gridsec_util::check::{check, Gen};

const PATH: &str = "/var/journal/props.wal";

fn fresh_journal() -> (SimOs, Journal) {
    let os = SimOs::new();
    os.add_host("h");
    let j = Journal::open(os.clone(), "h", PATH, ROOT_UID);
    (os, j)
}

/// A request's name and reply, as a commit record carries them.
type Committed = ((String, u64), Vec<u8>);

/// One generated write: a plain record, or — with `commit` set — the
/// commit record of a request, carrying its reply beside the effect.
#[derive(Clone, Debug, PartialEq)]
struct Write {
    tag: String,
    effect: Vec<u8>,
    commit: Option<Committed>,
}

impl Write {
    fn to(&self, j: &Journal) {
        match &self.commit {
            None => j.append(&self.tag, &self.effect),
            Some(((from, id), reply)) => j.commit(&self.tag, from, *id, reply, &self.effect),
        }
        .unwrap();
    }
}

/// Half the writes commit, under a fresh `(caller, call-id)` each: an
/// at-most-once server executes — and so commits — a request once.
fn maybe_commit(g: &mut Gen, next_id: &mut u64) -> Option<Committed> {
    if !g.bool() {
        return None;
    }
    *next_id += 1;
    let caller = ["alice", "bob", ""][g.pick(3)].to_string();
    Some(((caller, *next_id), g.bytes(0..16)))
}

/// Both views of `j` from one `replay`: every record's `(tag, effect)`
/// and the commit records' replies.
fn views(j: &Journal) -> (Vec<(String, Vec<u8>)>, Vec<Committed>) {
    let mut records = Vec::new();
    let replies = j.replay(|tag, effect| records.push((tag.to_string(), effect.to_vec())));
    (records, replies)
}

fn write_all(j: &Journal, writes: &[Write]) {
    for w in writes {
        w.to(j);
    }
}

fn expected_records(writes: &[Write]) -> Vec<(String, Vec<u8>)> {
    writes
        .iter()
        .map(|w| (w.tag.clone(), w.effect.clone()))
        .collect()
}

fn expected_replies(writes: &[Write]) -> Vec<Committed> {
    writes.iter().filter_map(|w| w.commit.clone()).collect()
}

/// Random record stream: `set` and `del` ops over a small key space
/// (small so overwrites and deletes actually collide), plus opaque
/// `blob` records the fold ignores; any of them may be a commit.
fn random_records(g: &mut Gen) -> Vec<Write> {
    let mut next_id = 0;
    g.vec(0..40, |g| {
        let (tag, effect) = match g.pick(3) {
            0 => {
                let key = format!("k{}", g.u8_in(0..8));
                let val = g.bytes(0..12);
                let mut body = vec![key.len() as u8];
                body.extend_from_slice(key.as_bytes());
                body.extend_from_slice(&val);
                ("set", body)
            }
            1 => {
                let key = format!("k{}", g.u8_in(0..8));
                let mut body = vec![key.len() as u8];
                body.extend_from_slice(key.as_bytes());
                ("del", body)
            }
            _ => ("blob", g.bytes(0..20)),
        };
        Write {
            tag: tag.to_string(),
            effect,
            commit: maybe_commit(g, &mut next_id),
        }
    })
}

/// The recovery fold: a key-value state, applied record by record.
fn fold(
    mut state: HashMap<String, Vec<u8>>,
    records: &[(String, Vec<u8>)],
) -> HashMap<String, Vec<u8>> {
    for (tag, body) in records {
        let Some(&klen) = body.first() else { continue };
        let klen = klen as usize;
        if body.len() < 1 + klen {
            continue;
        }
        let key = String::from_utf8_lossy(&body[1..1 + klen]).into_owned();
        match tag.as_str() {
            "set" => {
                state.insert(key, body[1 + klen..].to_vec());
            }
            "del" => {
                state.remove(&key);
            }
            _ => {}
        }
    }
    state
}

/// The supervisor's fold: a reply cache restored from commit records.
fn cache(
    mut table: HashMap<(String, u64), Vec<u8>>,
    replies: &[Committed],
) -> HashMap<(String, u64), Vec<u8>> {
    table.extend(replies.iter().cloned());
    table
}

#[test]
fn journal_roundtrips_random_records() {
    check("journal_roundtrips_random_records", 100, |g| {
        let (os, j) = fresh_journal();
        let mut next_id = 0;
        let writes: Vec<Write> = g.vec(0..25, |g| Write {
            tag: g.string("abcdefgh", 1..6),
            effect: g.bytes(0..30),
            commit: maybe_commit(g, &mut next_id),
        });
        write_all(&j, &writes);
        let j2 = Journal::open(os, "h", PATH, ROOT_UID);
        for j in [&j, &j2] {
            let (records, replies) = views(j);
            assert_eq!(records, expected_records(&writes));
            assert_eq!(replies, expected_replies(&writes));
            assert_eq!(records.len(), writes.len());
        }
    });
}

#[test]
fn recovery_is_idempotent_and_handle_independent() {
    check("recovery_is_idempotent_and_handle_independent", 100, |g| {
        let (os, j) = fresh_journal();
        write_all(&j, &random_records(g));
        let (records, replies) = views(&j);
        let once = fold(HashMap::new(), &records);
        let twice = fold(HashMap::new(), &views(&j).0);
        assert_eq!(once, twice, "recovery must be a pure fold");
        let table = cache(HashMap::new(), &replies);
        assert_eq!(table, cache(HashMap::new(), &views(&j).1));
        // A restarted process opens its own handle on the same file.
        let j2 = Journal::open(os, "h", PATH, ROOT_UID);
        let (records2, replies2) = views(&j2);
        assert_eq!(fold(HashMap::new(), &records2), once);
        assert_eq!(cache(HashMap::new(), &replies2), table);
        // Replaying on top of an already-recovered state (a recovery
        // interrupted and rerun) converges to the same state: every
        // record's effect is either absolute (set/del) or ignored, and
        // a committed reply is keyed by its request.
        assert_eq!(fold(once.clone(), &records), once);
        assert_eq!(cache(table.clone(), &replies), table);
    });
}

#[test]
fn prefix_plus_suffix_equals_full_journal() {
    check("prefix_plus_suffix_equals_full_journal", 100, |g| {
        let (_os, j) = fresh_journal();
        let writes = random_records(g);
        write_all(&j, &writes);
        let (records, replies) = views(&j);
        let full = fold(HashMap::new(), &records);
        let cut = g.usize_in(0..records.len() + 1);
        let prefix_state = fold(HashMap::new(), &records[..cut]);
        // Crash after `cut` records, recover, then the remaining
        // appends arrive: exactly the full-journal state.
        assert_eq!(fold(prefix_state, &records[cut..]), full);
        let committed = expected_replies(&writes[..cut]).len();
        let prefix_table = cache(HashMap::new(), &replies[..committed]);
        assert_eq!(
            cache(prefix_table, &replies[committed..]),
            cache(HashMap::new(), &replies)
        );
    });
}

#[test]
fn prefix_never_contradicts_full_journal_for_append_only_records() {
    // A crash can tear the file anywhere, even inside a commit record's
    // request header. Whatever parses from the torn file must be a
    // prefix of the full journal in both views: a reply visible after
    // the tear survives, unchanged, in the full log.
    check(
        "prefix_never_contradicts_full_journal_for_append_only_records",
        100,
        |g| {
            let (os, j) = fresh_journal();
            write_all(&j, &random_records(g));
            let bytes = os.read_file("h", PATH, ROOT_UID).unwrap_or_default();
            let tear = g.usize_in(0..bytes.len() + 1);
            os.write_file(
                "h",
                "/var/journal/torn.wal",
                ROOT_UID,
                FileMode::private(),
                bytes[..tear].to_vec(),
            )
            .unwrap();
            let torn = Journal::open(os.clone(), "h", "/var/journal/torn.wal", ROOT_UID);
            let ((records, replies), (torn_records, torn_replies)) = (views(&j), views(&torn));
            assert_eq!(torn_records[..], records[..torn_records.len()]);
            assert_eq!(torn_replies[..], replies[..torn_replies.len()]);
            let full = cache(HashMap::new(), &replies);
            for (key, reply) in torn_replies {
                assert_eq!(
                    full.get(&key),
                    Some(&reply),
                    "a reply visible in a prefix must survive, unchanged, in the full journal"
                );
            }
        },
    );
}

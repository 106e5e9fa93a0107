//! The attestation kernel's keystore (paper §4.1): one record per session.
//!
//! The system designer initialises each TNIC device during bootstrapping with
//! a unique identifier and one shared secret key per session, stored in static
//! on-chip memory. The keys never leave the device; the untrusted host only
//! refers to them by [`SessionId`]. Algorithm 1 gives a session one key, one
//! send counter and one receive counter; the keystore keeps all three in one
//! packed [`Session`] record, the records in one `Vec` sorted by session id,
//! so each `Attest()` or `Verify()` makes one binary search. A device holds
//! a handful of sessions to a few hundred, installed at bootstrap and on a
//! lazy connect, so the sorted array is both the smallest table and one
//! with no hashing on a lookup.

use crate::counters::Counters;
use crate::error::DeviceError;
use crate::types::SessionId;
use tnic_crypto::hmac::HmacSha256Key;

/// One session as Algorithm 1 keeps it on the card: its id, the shared key
/// (`keys[c_id]`) and its [`Counters`] (`send_cnts[c_id]`,
/// `recv_cnts[c_id]`).
///
/// What the HMAC unit reads is the *prepared* key (the hash state after the
/// key's ipad and opad blocks). A record holds the raw key until the
/// session's first MAC and only the prepared key from then on, in one
/// field: nothing is prepared at install, so a session that never MACs
/// costs 32 B of key and no hashing. A re-install puts the new raw key in
/// place of either and keeps both counters.
/// `Debug` prints the counters only: the prepared key forges what the key
/// forges.
#[derive(Clone)]
pub(crate) struct Session {
    id: SessionId,
    key: Key,
    /// The session's send and receive counters.
    pub(crate) counters: Counters,
}

/// A session key, raw until its first use and prepared from then on.
#[derive(Clone)]
enum Key {
    Raw([u8; 32]),
    Prepared(HmacSha256Key),
}

impl Session {
    /// The prepared key, made on first use.
    pub(crate) fn prepared(&mut self) -> &HmacSha256Key {
        if let Key::Raw(raw) = &self.key {
            self.key = Key::Prepared(HmacSha256Key::new(raw));
        }
        match &self.key {
            Key::Prepared(key) => key,
            Key::Raw(_) => unreachable!("the key was prepared above"),
        }
    }

    /// Whether the key is held prepared.
    #[cfg(test)]
    pub(crate) fn is_prepared(&self) -> bool {
        matches!(self.key, Key::Prepared(_))
    }
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("counters", &self.counters)
            .finish_non_exhaustive()
    }
}

/// The installed sessions, one [`Session`] record each, sorted by session
/// id. `Debug` prints the records (counters only) as a map by session.
#[derive(Clone, Default)]
pub(crate) struct SessionTable {
    sessions: Vec<Session>,
}

impl std::fmt::Debug for SessionTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map()
            .entries(self.sessions.iter().map(|record| (record.id, record)))
            .finish()
    }
}

impl SessionTable {
    /// Where `session`'s record is, or where it would go.
    fn find(&self, session: SessionId) -> Result<usize, usize> {
        self.sessions
            .binary_search_by_key(&session, |record| record.id)
    }

    /// Installs the key for `session`, or replaces it: the prepared form of
    /// the old key is dropped and the session's counters carry on.
    pub(crate) fn install(&mut self, session: SessionId, key: [u8; 32]) {
        match self.find(session) {
            Ok(at) => self.sessions[at].key = Key::Raw(key),
            Err(at) => self.sessions.insert(
                at,
                Session {
                    id: session,
                    key: Key::Raw(key),
                    counters: Counters::default(),
                },
            ),
        }
    }

    /// Returns `true` if a key is installed for `session`.
    pub(crate) fn contains(&self, session: SessionId) -> bool {
        self.find(session).is_ok()
    }

    /// The record of `session`; an unknown session creates nothing.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::UnknownSession`] if no key is installed.
    pub(crate) fn get_mut(&mut self, session: SessionId) -> Result<&mut Session, DeviceError> {
        match self.find(session) {
            Ok(at) => Ok(&mut self.sessions[at]),
            Err(_) => Err(DeviceError::UnknownSession(session)),
        }
    }

    /// The record of an installed `session`.
    #[cfg(test)]
    pub(crate) fn get(&self, session: SessionId) -> &Session {
        &self.sessions[self.find(session).expect("session installed")]
    }

    /// The number of installed sessions.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.sessions.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnic_crypto::hmac::hmac_sha256;

    /// Whether a MAC started from what the table hands out for `session` is
    /// the MAC under `key`.
    fn macs_under(table: &mut SessionTable, session: SessionId, key: &[u8; 32]) -> bool {
        let record = table.get_mut(session).expect("key installed");
        let mut mac = record.prepared().start();
        mac.update(b"probe");
        mac.finalize() == hmac_sha256(key, b"probe")
    }

    #[test]
    fn install_and_lookup() {
        let mut table = SessionTable::default();
        assert_eq!(table.len(), 0);
        assert_eq!(
            table.get_mut(SessionId(1)).err(),
            Some(DeviceError::UnknownSession(SessionId(1)))
        );
        table.install(SessionId(1), [7u8; 32]);
        assert!(table.contains(SessionId(1)));
        assert!(macs_under(&mut table, SessionId(1), &[7u8; 32]));
        assert_eq!(table.len(), 1);
    }

    #[test]
    fn reinstall_replaces_key() {
        let mut table = SessionTable::default();
        table.install(SessionId(2), [1u8; 32]);
        let counters = &mut table.get_mut(SessionId(2)).unwrap().counters;
        assert_eq!(counters.next_send(), 0);
        assert!(counters.check_and_advance_recv(0));
        table.install(SessionId(2), [2u8; 32]);
        assert!(macs_under(&mut table, SessionId(2), &[2u8; 32]));
        assert_eq!(table.len(), 1);
        // Both counters survive the re-key.
        let counters = table.get(SessionId(2)).counters;
        assert_eq!((counters.send(), counters.expected_recv()), (1, 1));
    }

    #[test]
    fn a_used_key_is_forgotten_when_replaced() {
        let (old, new, newer) = ([1u8; 32], [2u8; 32], [3u8; 32]);
        let mut table = SessionTable::default();
        table.install(SessionId(2), old);
        table.install(SessionId(3), old);
        // Use both sessions, so both keys are held prepared.
        assert!(macs_under(&mut table, SessionId(2), &old));
        assert!(macs_under(&mut table, SessionId(3), &old));
        table.install(SessionId(2), new);
        assert!(!table.get(SessionId(2)).is_prepared());
        assert!(macs_under(&mut table, SessionId(2), &new));
        assert!(!macs_under(&mut table, SessionId(2), &old));
        table.install(SessionId(2), newer);
        assert!(macs_under(&mut table, SessionId(2), &newer));
        // The neighbouring session kept its key throughout.
        assert!(table.get(SessionId(3)).is_prepared());
        assert!(macs_under(&mut table, SessionId(3), &old));
    }

    #[test]
    fn unknown_session_leaves_nothing_behind() {
        let mut table = SessionTable::default();
        assert!(table.get_mut(SessionId(9)).is_err());
        assert!(!table.contains(SessionId(9)));
        assert_eq!(table.len(), 0);
        table.install(SessionId(9), [5u8; 32]);
        assert!(!table.get(SessionId(9)).is_prepared());
        assert!(macs_under(&mut table, SessionId(9), &[5u8; 32]));
    }

    /// The table against a `BTreeMap` of `(key, prepared, send, recv)` by
    /// session: a seeded run of installs (fresh and re-installs), MACs,
    /// counter steps and lookups of present and absent ids. Only even ids
    /// are installed, so an odd id is absent between present neighbours.
    /// After each operation every id agrees on presence, counters and
    /// whether the key is held prepared, and `Debug` prints the model's
    /// map, counters only.
    #[test]
    fn session_table_matches_a_btreemap_under_random_installs_and_lookups() {
        use std::collections::BTreeMap;
        use tnic_sim::rng::DetRng;
        const IDS: u64 = 16;
        let mut table = SessionTable::default();
        let mut model: BTreeMap<SessionId, ([u8; 32], bool, u64, u64)> = BTreeMap::new();
        let mut rng = DetRng::new(0x5e55_1075);
        for step in 0..3_000 {
            let id = SessionId(rng.next_below(IDS) as u32);
            match (rng.next_below(4), model.get_mut(&id)) {
                (0, _) if id.0.is_multiple_of(2) => {
                    let key = [rng.next_below(256) as u8; 32];
                    table.install(id, key);
                    let record = model.entry(id).or_insert((key, false, 0, 0));
                    (record.0, record.1) = (key, false);
                }
                (1, Some(record)) => {
                    assert!(macs_under(&mut table, id, &record.0), "step {step}");
                    record.1 = true;
                }
                (2, Some(record)) => {
                    let counters = &mut table.get_mut(id).unwrap().counters;
                    assert_eq!(counters.next_send(), record.2);
                    assert!(counters.check_and_advance_recv(record.3));
                    (record.2, record.3) = (record.2 + 1, record.3 + 1);
                }
                (_, None) => {
                    assert_eq!(
                        table.get_mut(id).err(),
                        Some(DeviceError::UnknownSession(id)),
                        "step {step}"
                    );
                }
                _ => assert!(table.get_mut(id).is_ok()),
            }
            assert_eq!(table.len(), model.len(), "step {step}");
            for id in (0..IDS as u32 + 1).map(SessionId) {
                assert_eq!(table.contains(id), model.contains_key(&id), "step {step}");
                if let Some(&(_, prepared, send, recv)) = model.get(&id) {
                    let record = table.get(id);
                    assert_eq!(record.is_prepared(), prepared, "step {step}");
                    let counters = record.counters;
                    assert_eq!((counters.send(), counters.expected_recv()), (send, recv));
                }
            }
            let printed: Vec<String> = model
                .iter()
                .map(|(id, &(_, _, send, recv))| {
                    format!(
                        "{id:?}: Session {{ counters: Counters {{ send_cnt: {send}, recv_cnt: {recv} }}, .. }}"
                    )
                })
                .collect();
            assert_eq!(format!("{table:?}"), format!("{{{}}}", printed.join(", ")));
        }
        assert_eq!(
            model.len(),
            IDS as usize / 2,
            "the run installs every even id"
        );
    }
}

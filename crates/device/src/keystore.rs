//! The attestation kernel's keystore (paper §4.1): one record per session.
//!
//! The system designer initialises each TNIC device during bootstrapping with
//! a unique identifier and one shared secret key per session, stored in static
//! on-chip memory. The keys never leave the device; the untrusted host only
//! refers to them by [`SessionId`]. Algorithm 1 gives a session one key, one
//! send counter and one receive counter; the keystore keeps all three in one
//! [`Session`] record, in one table, so each `Attest()` or `Verify()` makes
//! one lookup.

use crate::counters::Counters;
use crate::error::DeviceError;
use crate::types::SessionId;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use tnic_crypto::hmac::HmacSha256Key;

/// One session as Algorithm 1 keeps it on the card: the shared key
/// (`keys[c_id]`) and its [`Counters`] (`send_cnts[c_id]`,
/// `recv_cnts[c_id]`).
///
/// What the HMAC unit reads is the *prepared* key (the hash state after the
/// key's ipad and opad blocks), made on the session's first MAC and kept
/// until the key is re-installed: nothing is prepared at install, so a
/// session that never MACs costs 32 B of key and no hashing. A re-install
/// replaces the key, drops the prepared form and keeps both counters.
/// `Debug` prints the counters only: the prepared key forges what the key
/// forges.
#[derive(Clone, Default)]
pub(crate) struct Session {
    key: [u8; 32],
    prepared: Option<HmacSha256Key>,
    /// The session's send and receive counters.
    pub(crate) counters: Counters,
}

impl Session {
    /// The prepared key, made on first use.
    pub(crate) fn prepared(&mut self) -> &HmacSha256Key {
        self.prepared
            .get_or_insert_with(|| HmacSha256Key::new(&self.key))
    }

    /// Whether the key is held prepared.
    #[cfg(test)]
    pub(crate) fn is_prepared(&self) -> bool {
        self.prepared.is_some()
    }
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("counters", &self.counters)
            .finish_non_exhaustive()
    }
}

/// A fixed integer hash of a [`SessionId`]: one multiplication by an odd
/// constant (Fibonacci hashing), with no per-process seed. That is safe
/// here because the table holds only the sessions the cluster installed,
/// so nobody outside chooses the keys that share its buckets; an id read
/// off the wire that is not installed only misses.
#[derive(Default)]
struct SessionHasher(u64);

impl Hasher for SessionHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u32(u32::from(byte));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.0 = (self.0 ^ u64::from(n)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The installed sessions, one [`Session`] record each. `Debug` prints the
/// records (counters only) by session.
#[derive(Clone, Default)]
pub(crate) struct SessionTable {
    sessions: HashMap<SessionId, Session, BuildHasherDefault<SessionHasher>>,
}

impl std::fmt::Debug for SessionTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.sessions.fmt(f)
    }
}

impl SessionTable {
    /// Installs the key for `session`, or replaces it: the prepared form of
    /// the old key is dropped and the session's counters carry on.
    pub(crate) fn install(&mut self, session: SessionId, key: [u8; 32]) {
        let record = self.sessions.entry(session).or_default();
        record.key = key;
        record.prepared = None;
    }

    /// Returns `true` if a key is installed for `session`.
    pub(crate) fn contains(&self, session: SessionId) -> bool {
        self.sessions.contains_key(&session)
    }

    /// The record of `session`; an unknown session creates nothing.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::UnknownSession`] if no key is installed.
    pub(crate) fn get_mut(&mut self, session: SessionId) -> Result<&mut Session, DeviceError> {
        self.sessions
            .get_mut(&session)
            .ok_or(DeviceError::UnknownSession(session))
    }

    /// The record of an installed `session`.
    #[cfg(test)]
    pub(crate) fn get(&self, session: SessionId) -> &Session {
        &self.sessions[&session]
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
}

//! The attestation kernel's key store (paper §4.1).
//!
//! The system designer initialises each TNIC device during bootstrapping with
//! a unique identifier and one shared secret key per session, stored in static
//! on-chip memory. The keys never leave the device; the untrusted host only
//! refers to them by [`SessionId`].
//!
//! What the HMAC unit reads is the *prepared* key
//! ([`HmacSha256Key`]: the hash state after the key's ipad and opad blocks),
//! so a MAC does not re-derive both blocks from the raw key.
//! [`Keystore::prepared`] is the one lookup the attestation kernel uses.
//! It prepares a session's key the first time that session is used on this
//! store and keeps the result until the session is re-[`install`]ed or
//! [`remove`]d; a hit allocates nothing. Nothing is prepared at `install`:
//! an accountability deployment installs every shard co-member's log key in
//! every audit kernel (~125 k keys at n = 1000) and uses a few thousand of
//! them, so eager preparation would cost set-up time and 64 B per key for
//! keys that never MAC anything. The prepared form is as secret as the key
//! and lives and dies with it.
//!
//! [`install`]: Keystore::install
//! [`remove`]: Keystore::remove

use crate::error::DeviceError;
use crate::types::SessionId;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use tnic_crypto::hmac::HmacSha256Key;

/// Per-session symmetric keys held in (simulated) on-chip static memory.
#[derive(Clone, Default)]
pub struct Keystore {
    keys: HashMap<SessionId, [u8; 32]>,
    /// Prepared forms of the keys in `keys` that have been used, filled by
    /// [`Keystore::prepared`]; never holds a session `keys` does not.
    prepared: HashMap<SessionId, HmacSha256Key>,
}

impl std::fmt::Debug for Keystore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Key material, raw or prepared, must never be printed.
        f.debug_struct("Keystore")
            .field("sessions", &self.keys.len())
            .finish()
    }
}

impl Keystore {
    /// Creates an empty key store.
    #[must_use]
    pub fn new() -> Self {
        Keystore::default()
    }

    /// Installs (or replaces) the key for `session`.
    pub fn install(&mut self, session: SessionId, key: [u8; 32]) {
        self.keys.insert(session, key);
        self.prepared.remove(&session);
    }

    /// Removes the key for `session`, returning `true` if one was present.
    pub fn remove(&mut self, session: SessionId) -> bool {
        self.prepared.remove(&session);
        self.keys.remove(&session).is_some()
    }

    /// The prepared key for `session`, ready to start a MAC; prepared on the
    /// session's first use and kept until the key is replaced or removed.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::UnknownSession`] if no key is installed.
    pub fn prepared(&mut self, session: SessionId) -> Result<&HmacSha256Key, DeviceError> {
        match self.prepared.entry(session) {
            Entry::Occupied(hit) => Ok(hit.into_mut()),
            Entry::Vacant(slot) => {
                let key = self
                    .keys
                    .get(&session)
                    .ok_or(DeviceError::UnknownSession(session))?;
                Ok(slot.insert(HmacSha256Key::new(key)))
            }
        }
    }

    /// Returns `true` if a key is installed for `session`.
    #[must_use]
    pub fn contains(&self, session: SessionId) -> bool {
        self.keys.contains_key(&session)
    }

    /// Number of installed session keys.
    #[must_use]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Returns `true` if no keys are installed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The sessions with installed keys, in unspecified order.
    #[must_use]
    pub fn sessions(&self) -> Vec<SessionId> {
        self.keys.keys().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnic_crypto::hmac::hmac_sha256;

    /// Whether a MAC started from what the store hands out for `session` is
    /// the MAC under `key`.
    fn macs_under(ks: &mut Keystore, session: SessionId, key: &[u8; 32]) -> bool {
        let mut mac = ks.prepared(session).expect("key installed").start();
        mac.update(b"probe");
        mac.finalize() == hmac_sha256(key, b"probe")
    }

    #[test]
    fn install_lookup_remove() {
        let mut ks = Keystore::new();
        assert!(ks.is_empty());
        ks.install(SessionId(1), [7u8; 32]);
        assert!(ks.contains(SessionId(1)));
        assert!(macs_under(&mut ks, SessionId(1), &[7u8; 32]));
        assert_eq!(ks.len(), 1);
        assert!(ks.remove(SessionId(1)));
        assert!(!ks.remove(SessionId(1)));
        assert_eq!(
            ks.prepared(SessionId(1)).err(),
            Some(DeviceError::UnknownSession(SessionId(1)))
        );
    }

    #[test]
    fn reinstall_replaces_key() {
        let mut ks = Keystore::new();
        ks.install(SessionId(2), [1u8; 32]);
        ks.install(SessionId(2), [2u8; 32]);
        assert!(macs_under(&mut ks, SessionId(2), &[2u8; 32]));
        assert_eq!(ks.len(), 1);
    }

    #[test]
    fn a_used_key_is_forgotten_when_replaced_or_removed() {
        let (old, new, newer) = ([1u8; 32], [2u8; 32], [3u8; 32]);
        let mut ks = Keystore::new();
        ks.install(SessionId(2), old);
        ks.install(SessionId(3), old);
        // Use both sessions, so both keys are held prepared.
        assert!(macs_under(&mut ks, SessionId(2), &old));
        assert!(macs_under(&mut ks, SessionId(3), &old));
        ks.install(SessionId(2), new);
        assert!(macs_under(&mut ks, SessionId(2), &new));
        assert!(!macs_under(&mut ks, SessionId(2), &old));
        assert!(ks.remove(SessionId(2)));
        assert!(ks.prepared(SessionId(2)).is_err());
        ks.install(SessionId(2), newer);
        assert!(macs_under(&mut ks, SessionId(2), &newer));
        // The neighbouring session kept its key throughout.
        assert!(macs_under(&mut ks, SessionId(3), &old));
    }

    #[test]
    fn unknown_session_leaves_nothing_behind() {
        let mut ks = Keystore::new();
        assert!(ks.prepared(SessionId(9)).is_err());
        assert!(!ks.contains(SessionId(9)));
        assert!(ks.is_empty());
        ks.install(SessionId(9), [5u8; 32]);
        assert!(macs_under(&mut ks, SessionId(9), &[5u8; 32]));
    }

    #[test]
    fn debug_never_prints_keys() {
        let mut ks = Keystore::new();
        ks.install(SessionId(3), [0xAB; 32]);
        let unused = format!("{ks:?}");
        assert!(macs_under(&mut ks, SessionId(3), &[0xAB; 32]));
        // Raw or prepared, used or not: the session count and nothing else.
        assert_eq!(unused, "Keystore { sessions: 1 }");
        assert_eq!(format!("{ks:?}"), unused);
    }

    #[test]
    fn sessions_lists_installed() {
        let mut ks = Keystore::new();
        ks.install(SessionId(1), [0u8; 32]);
        ks.install(SessionId(9), [0u8; 32]);
        let mut s = ks.sessions();
        s.sort();
        assert_eq!(s, vec![SessionId(1), SessionId(9)]);
    }
}

//! API-key authentication and tier authorization.
//!
//! Keys live in a TSV keyfile (`--api-keys`): one `key<TAB>client<TAB>
//! tier` line per key, `#` comments and blank lines ignored. The file is
//! parsed strictly — a malformed line, an unknown tier or a duplicate
//! key rejects the whole file — so a typo cannot silently lock clients
//! out. At startup a bad keyfile refuses to serve; on reload (SIGHUP,
//! [`AuthLayer::reload`]) a bad file keeps the previous key set.
//!
//! Without a keyfile every caller is the anonymous client at the
//! standard tier. With one, a missing or unknown key is `401` and a key
//! in the `blocked` tier is `403` — authentication and authorization as
//! separate verdicts, both with structured JSON errors.

use super::middleware::{Rejection, RequestContext, Tier};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::RwLock;

/// One resolved key: who it belongs to and what it may do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct KeyEntry {
    pub client: String,
    pub tier: Tier,
}

/// The authn/authz layer of the gateway, checked first.
pub(crate) struct AuthLayer {
    /// `None`: anonymous mode (no keyfile configured).
    path: Option<PathBuf>,
    keys: RwLock<HashMap<String, KeyEntry>>,
}

/// Parses keyfile text into a key table.
///
/// # Errors
/// The first malformed line (missing columns, empty fields, unknown
/// tier, duplicate key), with its 1-based line number.
pub(crate) fn parse_keyfile(text: &str) -> Result<HashMap<String, KeyEntry>, String> {
    let mut keys = HashMap::new();
    for (idx, line) in text.lines().enumerate() {
        let line_no = idx + 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut columns = line.split('\t');
        let (Some(key), Some(client), Some(tier)) =
            (columns.next(), columns.next(), columns.next())
        else {
            return Err(format!(
                "keyfile line {line_no}: expected `key<TAB>client<TAB>tier`, got `{line}`"
            ));
        };
        if columns.next().is_some() {
            return Err(format!("keyfile line {line_no}: more than three columns"));
        }
        let (key, client, tier_name) = (key.trim(), client.trim(), tier.trim());
        if key.is_empty() || client.is_empty() {
            return Err(format!("keyfile line {line_no}: empty key or client"));
        }
        let tier = Tier::parse(tier_name).map_err(|e| format!("keyfile line {line_no}: {e}"))?;
        let entry = KeyEntry { client: client.to_string(), tier };
        if keys.insert(key.to_string(), entry).is_some() {
            return Err(format!("keyfile line {line_no}: duplicate key"));
        }
    }
    Ok(keys)
}

impl AuthLayer {
    /// An auth layer over `path` (read and validated immediately), or an
    /// anonymous-mode layer when no keyfile is configured.
    ///
    /// # Errors
    /// Unreadable or malformed keyfile — startup must fail loudly rather
    /// than serve with an empty key set.
    pub(crate) fn open(path: Option<&Path>) -> Result<AuthLayer, String> {
        let keys = match path {
            None => HashMap::new(),
            Some(path) => {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read keyfile {}: {e}", path.display()))?;
                parse_keyfile(&text)?
            }
        };
        Ok(AuthLayer { path: path.map(Path::to_path_buf), keys: RwLock::new(keys) })
    }

    /// Whether a keyfile is configured (anonymous mode otherwise).
    pub(crate) fn requires_key(&self) -> bool {
        self.path.is_some()
    }

    /// Re-reads the keyfile (the SIGHUP path). On any error the previous
    /// key set stays in force.
    ///
    /// # Errors
    /// Unreadable or malformed keyfile (the message names the problem);
    /// also an error in anonymous mode, where there is nothing to reload.
    pub(crate) fn reload(&self) -> Result<usize, String> {
        let Some(path) = &self.path else {
            return Err("no --api-keys file configured".to_string());
        };
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read keyfile {}: {e}", path.display()))?;
        let keys = parse_keyfile(&text)?;
        let count = keys.len();
        *self.keys.write().expect("keyfile lock") = keys;
        Ok(count)
    }

    /// Resolves a presented key. `None` = unknown.
    pub(crate) fn resolve(&self, key: &str) -> Option<KeyEntry> {
        self.keys.read().expect("keyfile lock").get(key).cloned()
    }

    /// How many keys are currently loaded (for /metrics).
    pub(crate) fn key_count(&self) -> usize {
        self.keys.read().expect("keyfile lock").len()
    }

    /// Resolves the presented key into the request's client and tier.
    ///
    /// # Errors
    /// `401` for a missing or unknown key, `403` for a blocked client.
    pub(crate) fn check(&self, ctx: &mut RequestContext) -> Result<(), Rejection> {
        if !self.requires_key() {
            // Anonymous mode: everyone is one standard-tier client, so
            // the rate limiter still has a bucket to meter.
            ctx.client = "anonymous".to_string();
            ctx.tier = Tier::Standard;
            ctx.record("auth", "allow");
            return Ok(());
        }
        let Some(key) = ctx.api_key.as_deref() else {
            ctx.record("auth", "reject");
            return Err(Rejection {
                status: 401,
                message: "missing API key (send `Authorization: Bearer <key>` or `X-Api-Key`)"
                    .to_string(),
                retry_after: None,
            });
        };
        let Some(entry) = self.resolve(key) else {
            ctx.record("auth", "reject");
            return Err(Rejection {
                status: 401,
                message: "unknown API key".to_string(),
                retry_after: None,
            });
        };
        ctx.client = entry.client;
        ctx.tier = entry.tier;
        if entry.tier == Tier::Blocked {
            ctx.record("auth", "reject");
            return Err(Rejection {
                status: 403,
                message: format!("client `{}` is blocked", ctx.client),
                retry_after: None,
            });
        }
        ctx.record("auth", "allow");
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEYFILE: &str = "\
# comment, then a blank line

k-free\talice\tfree
k-std\tbob\tstandard
k-unl\tcarol\tunlimited
k-blk\tmallory\tblocked
";

    #[test]
    fn parses_tiers_comments_and_blanks() {
        let keys = parse_keyfile(KEYFILE).unwrap();
        assert_eq!(keys.len(), 4);
        assert_eq!(keys["k-free"], KeyEntry { client: "alice".to_string(), tier: Tier::Free });
        assert_eq!(keys["k-blk"].tier, Tier::Blocked);
    }

    #[test]
    fn rejects_malformed_lines() {
        for (text, fragment) in [
            ("just-a-key\n", "expected `key<TAB>client<TAB>tier`"),
            ("k\tclient\tgold\n", "unknown tier `gold`"),
            ("k\tclient\tfree\textra\n", "more than three columns"),
            ("\tclient\tfree\n", "empty key or client"),
            ("k\ta\tfree\nk\tb\tfree\n", "duplicate key"),
        ] {
            let err = parse_keyfile(text).unwrap_err();
            assert!(err.contains(fragment), "{text:?} -> {err}");
        }
        // Errors carry the offending line number.
        assert!(parse_keyfile("k\ta\tfree\nbad\n").unwrap_err().contains("line 2"));
    }

    #[test]
    fn anonymous_mode_allows_without_a_key() {
        let auth = AuthLayer::open(None).unwrap();
        let mut ctx = RequestContext::new(None, true);
        assert!(auth.check(&mut ctx).is_ok());
        assert_eq!(ctx.client, "anonymous");
        assert_eq!(ctx.tier, Tier::Standard);
    }

    #[test]
    fn keyed_mode_authenticates_and_authorizes() {
        let dir = std::env::temp_dir().join(format!("simap-auth-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("keys.tsv");
        std::fs::write(&path, KEYFILE).unwrap();
        let auth = AuthLayer::open(Some(&path)).unwrap();

        // No key -> 401.
        let mut ctx = RequestContext::new(None, true);
        assert_eq!(auth.check(&mut ctx).unwrap_err().status, 401);
        // Unknown key -> 401.
        let mut ctx = RequestContext::new(Some("nope".to_string()), true);
        let r = auth.check(&mut ctx).unwrap_err();
        assert_eq!((r.status, r.message.as_str()), (401, "unknown API key"));
        // Valid key -> resolved identity.
        let mut ctx = RequestContext::new(Some("k-free".to_string()), true);
        assert!(auth.check(&mut ctx).is_ok());
        assert_eq!((ctx.client.as_str(), ctx.tier), ("alice", Tier::Free));
        // Blocked tier -> 403 (authn ok, authz denied).
        let mut ctx = RequestContext::new(Some("k-blk".to_string()), true);
        let r = auth.check(&mut ctx).unwrap_err();
        assert_eq!(r.status, 403);
        assert!(r.message.contains("mallory"), "{}", r.message);

        // Reload picks up edits; a broken file keeps the old table.
        std::fs::write(&path, "k-new\tdave\tstandard\n").unwrap();
        assert_eq!(auth.reload().unwrap(), 1);
        assert!(auth.resolve("k-free").is_none());
        assert_eq!(auth.resolve("k-new").unwrap().client, "dave");
        std::fs::write(&path, "corrupt file\n").unwrap();
        assert!(auth.reload().is_err());
        assert_eq!(auth.resolve("k-new").unwrap().client, "dave", "old table survives");

        std::fs::remove_dir_all(&dir).unwrap();
    }
}

//! The FN registry: operation key → operation module.
//!
//! §4.1: "we pre-write the required operation modules on the data plane and
//! use the operation key to match these operation modules" — this registry
//! is that match table. Its contents are what the bootstrap mechanism of
//! §2.3 advertises to hosts, and per-AS registries may differ
//! (heterogeneous configuration, §2.4).

use crate::ops;
use crate::FieldOp;
use dip_wire::triple::FnKey;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A set of installed operation modules.
///
/// ```
/// use dip_fnops::FnRegistry;
/// use dip_wire::triple::FnKey;
///
/// let mut registry = FnRegistry::standard();
/// assert!(registry.supports(FnKey::Fib));
/// assert_eq!(registry.len(), 12); // Table 1 + F_pass
///
/// // §5: services change by upgrading FNs, not hardware.
/// registry.uninstall(FnKey::Pass);
/// assert!(!registry.supports(FnKey::Pass));
/// ```
#[derive(Clone)]
pub struct FnRegistry {
    ops: BTreeMap<u16, Arc<dyn FieldOp>>,
}

impl FnRegistry {
    /// An empty registry (a DIP-capable node with no functions yet).
    pub fn empty() -> Self {
        FnRegistry { ops: BTreeMap::new() }
    }

    /// The standard registry: all eleven Table-1 operations plus `F_pass`.
    pub fn standard() -> Self {
        let mut r = FnRegistry::empty();
        r.install(Arc::new(ops::Match32Op));
        r.install(Arc::new(ops::Match128Op));
        r.install(Arc::new(ops::SourceOp));
        r.install(Arc::new(ops::FibOp));
        r.install(Arc::new(ops::PitOp));
        r.install(Arc::new(ops::ParmOp));
        r.install(Arc::new(ops::MacOp));
        r.install(Arc::new(ops::MarkOp));
        r.install(Arc::new(ops::VerOp));
        r.install(Arc::new(ops::DagOp));
        r.install(Arc::new(ops::IntentOp));
        r.install(Arc::new(ops::PassOp));
        r
    }

    /// A registry with only the given keys from the standard set — models
    /// an AS with a partial FN configuration (§2.4).
    pub fn with_keys(keys: &[FnKey]) -> Self {
        let std = FnRegistry::standard();
        let mut r = FnRegistry::empty();
        for k in keys {
            if let Some(op) = std.ops.get(&k.to_wire()) {
                r.ops.insert(k.to_wire(), Arc::clone(op));
            }
        }
        r
    }

    /// Installs (or upgrades — "the network providers can now support new
    /// services by only upgrading FNs", §5) an operation module.
    pub fn install(&mut self, op: Arc<dyn FieldOp>) {
        self.ops.insert(op.key().to_wire(), op);
    }

    /// Removes an operation module.
    pub fn uninstall(&mut self, key: FnKey) -> bool {
        self.ops.remove(&key.to_wire()).is_some()
    }

    /// Looks up the module for a key.
    pub fn get(&self, key: FnKey) -> Option<&Arc<dyn FieldOp>> {
        self.ops.get(&key.to_wire())
    }

    /// Whether a key is supported.
    pub fn supports(&self, key: FnKey) -> bool {
        self.ops.contains_key(&key.to_wire())
    }

    /// All supported keys, ascending — the payload of a bootstrap FN-offer
    /// (§2.3).
    pub fn supported_keys(&self) -> Vec<FnKey> {
        self.ops.keys().map(|&k| FnKey::from_wire(k)).collect()
    }

    /// Number of installed modules.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether no modules are installed.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

impl std::fmt::Debug for FnRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FnRegistry").field("keys", &self.supported_keys()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_has_all_table1_keys_plus_pass() {
        let r = FnRegistry::standard();
        for k in FnKey::table1() {
            assert!(r.supports(k), "missing {k:?}");
        }
        assert!(r.supports(FnKey::Pass));
        assert_eq!(r.len(), 12);
    }

    #[test]
    fn keys_map_to_matching_modules() {
        let r = FnRegistry::standard();
        for k in FnKey::table1() {
            assert_eq!(r.get(k).unwrap().key(), k);
        }
    }

    #[test]
    fn partial_registry() {
        let r = FnRegistry::with_keys(&[FnKey::Match32, FnKey::Source]);
        assert_eq!(r.len(), 2);
        assert!(r.supports(FnKey::Match32));
        assert!(!r.supports(FnKey::Mac));
        assert_eq!(r.supported_keys(), vec![FnKey::Match32, FnKey::Source]);
    }

    #[test]
    fn uninstall_models_policy_withdrawal() {
        let mut r = FnRegistry::standard();
        assert!(r.uninstall(FnKey::Pass));
        assert!(!r.supports(FnKey::Pass));
        assert!(!r.uninstall(FnKey::Pass));
    }

    #[test]
    fn unknown_keys_unsupported() {
        let r = FnRegistry::standard();
        assert!(!r.supports(FnKey::Other(0x123)));
        assert!(r.get(FnKey::Other(0x123)).is_none());
    }
}

//! Pure structured baseline: every query resolves through the Kademlia-style
//! keyword-index DHT.
//!
//! Where the unstructured protocols express policy through overlay forwarding
//! and response caching, this protocol expresses *no* overlay policy at all:
//! queries never flood, peers never answer from overlay-side storage, and no
//! response index is maintained. The engine instead routes each query as an
//! iterative XOR-metric lookup over the DHT subsystem (see
//! [`locaware_overlay::dht`] and the engine's DHT module), and every shared
//! file's keywords are published to — and republished on — the `k` closest
//! index nodes. Provider selection is random: the DHT key space is oblivious
//! to physical locality, which is exactly the contrast with Locaware the
//! structured-vs-unstructured comparison measures.

use locaware_overlay::{ForwardDecision, PeerId};

use crate::config::ProtocolKind;
use crate::group::{GroupId, GroupScheme};
use crate::peer::PeerState;
use crate::provider::SelectionPolicy;

use super::{LocalMatch, PeerView, Protocol, QueryContext, ResponseContext};

/// The pure DHT index protocol.
#[derive(Debug, Clone, Copy, Default)]
pub struct DhtIndex;

impl DhtIndex {
    /// Creates the DHT index policy.
    pub fn new() -> Self {
        DhtIndex
    }
}

impl Protocol for DhtIndex {
    fn kind(&self) -> ProtocolKind {
        ProtocolKind::DhtIndex
    }

    fn selection_policy(&self) -> SelectionPolicy {
        // The key space carries no locality signal, so selection cannot
        // either — the location-oblivious structured baseline.
        SelectionPolicy::Random
    }

    fn dht_resolves_rank(&self, _rank: usize, _catalog_len: usize) -> bool {
        true
    }

    fn forward_targets_into(
        &self,
        _view: &PeerView<'_>,
        _query: &QueryContext<'_>,
        _exclude: Option<PeerId>,
        out: &mut Vec<PeerId>,
    ) -> ForwardDecision {
        // Queries travel the DHT, never the unstructured overlay.
        out.clear();
        ForwardDecision::NotForwarded
    }

    fn local_match(&self, _view: &PeerView<'_>, _query: &QueryContext<'_>) -> Option<LocalMatch> {
        // Hits come from DHT record stores, handled by the engine's lookup
        // path; the overlay-side matching rule never fires.
        None
    }

    fn cache_response(
        &self,
        _state: &mut PeerState,
        _gid: GroupId,
        _scheme: &GroupScheme,
        _response: &ResponseContext<'_>,
    ) {
        // No response index: the DHT record store is the only index.
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::Fixture;
    use super::*;
    use locaware_workload::FileId;

    #[test]
    fn expresses_no_overlay_policy() {
        let mut fx = Fixture::new(4);
        let protocol = DhtIndex::new();
        let query = fx.query(&[0, 1], None);

        let mut targets = Vec::new();
        let decision =
            protocol.forward_targets_into(&fx.view(0), &query.context(), None, &mut targets);
        assert!(targets.is_empty());
        assert_eq!(decision, ForwardDecision::NotForwarded);

        // Even a peer storing a satisfying file does not answer overlay-side.
        fx.share(0, FileId(0));
        assert!(protocol.local_match(&fx.view(0), &query.context()).is_none());
    }

    #[test]
    fn policy_flags() {
        let protocol = DhtIndex::new();
        assert_eq!(protocol.kind(), ProtocolKind::DhtIndex);
        assert_eq!(protocol.selection_policy(), SelectionPolicy::Random);
        assert!(!protocol.uses_bloom_sync());
        assert!(protocol.dht_resolves_rank(0, 100));
        assert!(protocol.dht_resolves_rank(99, 100));
        assert_eq!(protocol.max_providers_per_file(), 1);
    }
}

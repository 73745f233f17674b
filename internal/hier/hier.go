// Package hier is the hierarchical aggregation tier of the FL stack: a
// federation of one root and N edge aggregators that lifts the round
// engine from "one server, one cohort" to fleet scale.
//
// There is one round engine, internal/fl, and both tiers are
// configurations of it. Each edge aggregator runs the complete round
// protocol against its shard of clients — selection and attestation,
// cohort sampling, round deadlines, quarantine and probation, codec
// negotiation, secure-aggregation masking — by driving an fl.Server in
// hierarchical partial mode (fl.ServerConfig.Partials): instead of
// applying each round's weighted mean locally, the edge's StepRound
// returns the shard's un-normalised partial aggregate as the PartialUp
// itself, shard accounting filled in, and the edge forwards it upstream
// as a single frame with its telemetry delta attached. The root is an fl.Server whose peers are
// edges (fl.ServerConfig.EdgePeers): on the same round skeleton that
// serves devices it broadcasts the global model once per round
// (ShardDown, encode-once per negotiated codec), folds the shard
// partials, normalises once over the whole fleet, applies the update
// and journals it. Root is a vocabulary adapter over that engine's own
// session driver: RootConfig and Hooks rename MinClients, RoundDeadline
// and the peer hooks as MinShards, ShardDeadline and the shard hooks,
// Root.Run is srv.Run with the peer floor reported as
// ErrNotEnoughShards, and a crashed root recovers with fl.Recover over
// the same engine configuration. A recovered edge rejoins a running
// root through fl.ServerConfig.Rejoin, which Run polls before every
// round of an edge-peer session.
// Because the peer kind is the engine's and not the root's, an Edge
// whose shard server itself has edge peers is a mid-tier aggregator,
// and trees of any depth compose with no further code.
//
// The fan-in consequence is the point: the root handles O(shards)
// connections, frames, and folds per round instead of O(fleet), and a
// round's wall time is bounded by the slowest shard rather than the
// slowest client of the whole fleet (each shard drops its own
// stragglers against its own deadline).
//
// # Exact composition
//
// Partial sums compose exactly at the root:
//
//   - Plain rounds forward Σ wᵢuᵢ as full-precision f64 tensors
//     (wire.Fields.ExactViews — never the lossy session codec) plus the
//     summed weight Σ wᵢ. The root adds the shard sums and divides
//     once by the fleet weight: for the simulator's dyadic updates
//     every addition is exact in float64, so the hierarchical
//     aggregate is bit-identical to flat FedAvg over the same fleet
//     (asserted by the flsim multi-tier scenarios).
//
//   - Secure-aggregation rounds forward the shard's ring sums in
//     ℤ/2⁶⁴. The pairwise mask graph is scoped per shard — each edge
//     distributes only its own cohort roster, so masks cancel (or are
//     reconciled from survivor shares) entirely within the shard — and
//     fixed-point sums are additive in the ring, so the root simply
//     adds the level vectors and dequantises once. Ring arithmetic is
//     exact by construction; the masked hierarchical aggregate equals
//     flat masked aggregation bit for bit. Shard scoping also cuts
//     mask expansion from O(fleet²·model) to O(shards·(fleet/shards)²·
//     model) — the hierarchy makes large-cohort secagg cheap as a side
//     effect.
//
// Protected (sealed) tensors are supported in plain mode — the edge
// unseals and folds them exactly like a flat trusted server — but not
// under secure aggregation, where sealed halves need the root's
// enclave (fl.ErrPartialProtected).
//
// # Degradation
//
// A shard whose round fails (too few responders, reconciliation
// failure, release floor) forwards the accounting-only PartialUp
// StepRound returns with the error — Count 0, nothing folded — and
// stays in the session; a shard
// that misses the root's ShardDeadline is dropped for the round; an
// edge whose transport dies, or whose partial fails validation
// (fl.ErrBadPartial — nothing of it is folded or counted), is removed.
// The root's round succeeds while at least MinShards partials fold, so
// one bad shard degrades coverage instead of killing the fleet.
package hier

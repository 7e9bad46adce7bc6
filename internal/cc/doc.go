// Package cc implements a deterministic simulator for the Congested Clique
// model of distributed computing, the substrate assumed by Censor-Hillel,
// Dory, Korhonen and Leitersdorf, "Fast Approximate Shortest Paths in the
// Congested Clique" (PODC 2019).
//
// # Model
//
// A Congested Clique consists of n nodes on a fully connected network.
// Computation proceeds in synchronous rounds; in each round every ordered
// pair of nodes may exchange one message of O(log n) bits. A message in this
// simulator is a Msg: a fixed struct of four 64-bit words plus a small kind
// tag, which is the standard "constant number of O(log n)-bit fields"
// discipline (graph weights are bounded by n^c, so every field is O(log n)
// bits).
//
// # Execution
//
// Each node runs a node program (a Go function receiving a *Node) on its own
// goroutine. All communication happens through collective operations: every
// node must invoke the same collective in the same order (the algorithms in
// the paper are globally synchronous, so this matches their structure). The
// engine validates the model's bandwidth constraint - at most one message per
// ordered pair per round for Sync and Broadcast - and accounts rounds.
//
// Collectives execute in shards (Config.Workers; see DESIGN.md §5):
// because the model is round-synchronous, the engine holds every node's
// request before executing a collective, so delivery can be partitioned by
// destination (and gathering by sender) into shards that run as the rows
// of one pool.RunEach pass, the row pass the direct kernels use. Each
// collective has one body; Workers=1 runs it as a single shard on the
// coordinator goroutine. Every worker count yields identical results and
// identical deterministic Stats, whatever width the pass takes beside
// other passes, with wall-clock per collective kind reported in
// Stats.CollectiveTime.
//
// # Round accounting
//
// Two kinds of rounds are accounted separately (see Stats):
//
//   - simulated rounds: barrier steps actually executed (Sync, Broadcast);
//   - charged rounds: rounds charged by primitives the paper itself uses as
//     black boxes with cited bounds - Lenzen's routing and sorting [43] and
//     the deterministic hitting set of [52]. The engine implements their
//     semantics (real data movement, validated preconditions) and charges
//     rounds by the cited bound, tagged by primitive name.
//
// # Determinism
//
// Node programs are expected to be deterministic. Message delivery order is
// normalized (inboxes sorted by sender) and global sorts break ties by
// sender and submission index, so two runs of one program produce
// identical transcripts and Stats.
package cc

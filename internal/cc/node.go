package cc

// Node is the handle a node program uses to communicate. All methods that
// move data are collectives: every node must call the same method (with a
// consistent tag) in the same order, mirroring the globally synchronous
// structure of the paper's algorithms. A violated model constraint (e.g.
// two messages on one link in one round) aborts the whole run with an error
// returned from Run.
type Node struct {
	// ID is this node's identifier in [0, N).
	ID int
	// N is the clique size.
	N int

	eng *engine
}

func (nd *Node) do(r *request) response {
	r.node = nd.ID
	nd.eng.reqs <- r
	resp := <-nd.eng.resps[nd.ID]
	if resp.err != nil {
		// Unwind the node program; runNode converts this back to an error.
		panic(abortSignal{err: resp.err})
	}
	return resp
}

// Sync performs one synchronous round. Each packet goes to a distinct
// destination (one message per link per round, the model's bandwidth
// constraint). It returns the messages received this round, sorted by
// sender. Passing nil participates in the round without sending.
func (nd *Node) Sync(out []Packet) []Msg {
	return nd.do(&request{kind: reqSync, packets: out}).msgs
}

// BroadcastVal performs one broadcast round in which every node announces
// one word. The returned slice is indexed by sender and shared read-only
// between all nodes; callers must not mutate it.
func (nd *Node) BroadcastVal(x int64) []int64 {
	return nd.do(&request{kind: reqBcast, bval: x}).vals
}

// Route delivers an arbitrary addressed message set using the semantics of
// Lenzen's routing scheme [43]; see the package documentation for the round
// charge. Received messages are sorted by (sender, submission order).
func (nd *Node) Route(out []Packet) []Msg {
	return nd.do(&request{kind: reqRoute, packets: out}).msgs
}

// SortResult is the outcome of a global Sort at one node.
type SortResult struct {
	// Recs is this node's batch of the global sorted order.
	Recs []Rec
	// Start is the global rank of Recs[0]; Recs[i] has global rank Start+i.
	Start int
	// BatchSize is the global batch size (every node's batch has this
	// size, except possibly truncated tail batches).
	BatchSize int
	// Total is the global number of records.
	Total int
}

// Rank returns the global rank of Recs[i].
func (sr *SortResult) Rank(i int) int { return sr.Start + i }

// Sort globally sorts the union of all nodes' records by (Key, sender,
// submission index) using the semantics of Lenzen's sorting scheme [43] and
// returns this node's batch of the sorted order together with its position.
func (nd *Node) Sort(recs []Rec) SortResult {
	resp := nd.do(&request{kind: reqSort, recs: recs})
	start := nd.ID * resp.batchSize
	if start > resp.total {
		start = resp.total
	}
	return SortResult{Recs: resp.recs, Start: start, BatchSize: resp.batchSize, Total: resp.total}
}

// Charge charges rounds for a primitive with a cited round bound that is
// used as a black box (e.g. Lemma 4's hitting set, [52]). All nodes must
// agree on tag and amount.
func (nd *Node) Charge(tag string, rounds int) {
	nd.do(&request{kind: reqCharge, tag: tag, rounds: rounds})
}

// Phase labels the following rounds for the per-phase breakdown in Stats.
// It is a collective (all nodes must call it with the same label) and
// costs no rounds.
func (nd *Node) Phase(label string) {
	nd.do(&request{kind: reqPhase, tag: label})
}

package core

import (
	"fmt"
	"sync"
	"time"

	"lowfive/internal/grid"
	"lowfive/internal/rpc"
	"lowfive/mpi"
)

// One redirect per owner per layout. Step 1 of Algorithm 3 asks the owners
// of the common-decomposition blocks a read touches which producers hold
// data for it. An owner answers with all its entries of the dataset, and
// those are fixed by the file's index build. Each build carries a layout id
// that all producers agree in Algorithm 1's exchange and that a file reused
// under the build keeps (see index.go); each metadata answer carries it. A
// time loop writes a new file every step, usually with the same
// decomposition, so the consumer keeps its records on the VOL, not on the
// open file: one per (intercomm, dataset path), tagged with the id it was
// fetched under. An open whose metadata shows the same id reads through the
// record, its reads going straight to their data streams; another id
// replaces it. The id names a build, not its contents: after any new
// exchange (a changed layout, also one changed back, a Reindex, a Rejoin or
// restarted producers) the consumer asks the owners once more for every
// dataset of the file. Each owner is thus asked once per dataset per
// build, every read filters the cached entries itself with the filter the
// owners used to apply, and the table holds at most one record per
// (intercomm, dataset path), however many steps run.

// redirectKey names a redirect record: one dataset path served over one
// intercommunicator.
type redirectKey struct {
	ic   *mpi.Intercomm
	path string
}

// redirect is one dataset's redirect record for one layout id.
type redirect struct {
	path string
	id   uint64             // the layout id it was fetched under
	dc   grid.Decomposition // the common decomposition over the producers
	rank int

	// mu guards the answers, which concurrent reads may fetch. It is not
	// held across a fetch: two reads missing the same owner at once both
	// ask it, and both calls are counted on both sides.
	mu      sync.Mutex
	answers []redirectAnswer // per owner block, valid where fetched is set
	fetched []bool
}

func newRedirect(node *Node, path string, producers int, id uint64) *redirect {
	dims := node.Space.Dims()
	return &redirect{
		path:    path,
		id:      id,
		dc:      grid.CommonDecomposition(dims, producers),
		rank:    len(dims),
		answers: make([]redirectAnswer, producers),
		fetched: make([]bool, producers),
	}
}

// order is the producer list of a read with bounding box bb: the sources of
// the owners' cached entries whose boxes intersect bb, owners in order, each
// source once, at its first sighting. That is the list the owners built
// when they filtered for each read, so streams keep their order, and so
// does the overwriting where writes overlap.
func (rd *redirect) order(owners []int, bb grid.Box) []int {
	rd.mu.Lock()
	defer rd.mu.Unlock()
	// The seen set is a bitset on the stack up to 64 producers, so a read
	// allocates nothing here but its list.
	var small [1]uint64
	seen := small[:]
	if n := len(rd.answers); n > 64 {
		seen = make([]uint64, (n+63)/64)
	}
	var order []int
	for _, o := range owners {
		a := rd.answers[o]
		for i := 0; i < a.len(); i++ {
			src, hit := a.match(i, bb)
			if hit && seen[src/64]&(1<<(src%64)) == 0 {
				seen[src/64] |= 1 << (src % 64)
				order = append(order, src)
			}
		}
	}
	return order
}

// missing returns the owners among owners not asked yet.
func (rd *redirect) missing(owners []int) []int {
	rd.mu.Lock()
	defer rd.mu.Unlock()
	var out []int
	for _, o := range owners {
		if !rd.fetched[o] {
			out = append(out, o)
		}
	}
	return out
}

// store caches owner block o's answer.
func (rd *redirect) store(o int, a redirectAnswer) {
	rd.mu.Lock()
	rd.answers[o], rd.fetched[o] = a, true
	rd.mu.Unlock()
}

// redirectFor returns the redirect record of dataset node, at path, of a
// file read over ic, given the layout id of the file's metadata answer. The
// VOL's record is reused while its id matches and replaced when it does not;
// a reader still holding a replaced record finishes on it, which is correct
// for the file it opened.
func (v *DistMetadataVOL) redirectFor(ic *mpi.Intercomm, node *Node, path string, id uint64) *redirect {
	k := redirectKey{ic: ic, path: path}
	v.qmu.Lock()
	defer v.qmu.Unlock()
	rd := v.redirects[k]
	if rd == nil || rd.id != id {
		if v.redirects == nil {
			v.redirects = map[redirectKey]*redirect{}
		}
		rd = newRedirect(node, path, ic.RemoteSize(), id)
		v.redirects[k] = rd
	}
	return rd
}

// queryOwners is step 1 of Algorithm 3: the producer ranks holding data for
// a read with bounding box bb, a box of the dataset's rank (h5 checks a
// read's file space against the dataset before it gets here). Owners of the intersecting blocks that this
// file has not asked yet are asked now, with replica failover; the rest
// answer from the cache.
func (v *DistMetadataVOL) queryOwners(client *rpc.Client, ic *mpi.Intercomm, file string, rd *redirect, bb grid.Box) (order []int, boxWait time.Duration, err error) {
	owners := rd.dc.Intersecting(bb)
	if missing := rd.missing(owners); len(missing) > 0 {
		t0 := time.Now()
		err = v.fetchOwners(client, ic, file, rd, missing, bb)
		boxWait = time.Since(t0)
		if err != nil {
			return nil, boxWait, err
		}
	}
	return rd.order(owners, bb), boxWait, nil
}

// fetchOwners asks each of owners for its entries of the dataset and keeps
// the answers in the record. Every replica of a block holds all of the
// block's entries, so an answer from a replica fills the record as the
// owner's would.
func (v *DistMetadataVOL) fetchOwners(client *rpc.Client, ic *mpi.Intercomm, file string, rd *redirect, owners []int, bb grid.Box) error {
	n := ic.RemoteSize()
	repl := 1
	if v.ReplicationFactor > repl {
		repl = v.ReplicationFactor
	}
	if repl > n {
		repl = n
	}
	boxReq := encodeBoxesReq(file, rd.path, bb)
	var resps [][]byte
	var err error
	if v.hedging() {
		// Each owner's query races it against its healthiest replica (all
		// replicas hold the same index entries), with EWMA-driven demotion
		// of a straggling owner — so one slow or partitioned rank costs a
		// hedge delay, not a full timeout ladder.
		resps = make([][]byte, len(owners))
		for i, o := range owners {
			if resps[i], err = v.hedgedCall(client, ic, o, repl, n, boxReq); err != nil {
				return err
			}
		}
	} else if resps, err = client.CallAll(owners, boxReq); err != nil {
		if repl <= 1 {
			return err
		}
		if resps == nil {
			resps = make([][]byte, len(owners))
		}
		for i := range owners {
			if resps[i] != nil {
				continue
			}
			if resps[i], err = v.callReplicas(client, owners[i], repl, n, boxReq); err != nil {
				return err
			}
		}
	}
	v.qmu.Lock()
	v.qstats.BoxQueries += int64(len(owners))
	v.qmu.Unlock()
	for i, resp := range resps {
		a, err := decodeBoxesResp(resp, rd.rank, n)
		if err != nil {
			return fmt.Errorf("lowfive: redirect query to owner %d: %w", owners[i], err)
		}
		rd.store(owners[i], a)
	}
	return nil
}

// Package fleet is the front tier that turns N napel-serve replicas
// into one logical service: a consistent-hash ring keyed on each
// request's bytes shards requests so each replica's LRU cache sees a
// disjoint keyspace — N caches become one cache N× the size — while
// per-replica circuit breakers, budget-split failover and hedged
// requests keep one slow or failing replica from dragging the fleet
// down. The gate forwards every body whole and never decodes one, so
// only internal/serve and its clients know the wire format. cmd/napel-gate is the binary
// front end; RollingReload drives fleet-wide hot-installs gated per
// replica by /readyz.
package fleet

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"napel/internal/xhash"
)

// DefaultVNodes is the per-replica virtual-node count. 128 tokens per
// replica keeps the largest/smallest shard share within ~2× of each
// other for small fleets, which is what bounds worst-case cache skew.
const DefaultVNodes = 128

// point is one virtual node: a position on the 64-bit ring owned by a
// replica.
type point struct {
	hash    uint64
	replica int32
}

// Ring is an immutable consistent-hash ring over replica names.
// Immutability is the concurrency story: the gate swaps whole rings
// atomically when membership changes, so a router never observes a
// half-updated ring.
type Ring struct {
	replicas []string
	points   []point
	share    []float64
}

// NewRing hashes vnodes tokens per replica onto the 64-bit ring.
// vnodes <= 0 takes DefaultVNodes. An empty replica list yields an
// empty ring whose Shard returns -1.
func NewRing(replicas []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	r := &Ring{
		replicas: append([]string(nil), replicas...),
		points:   make([]point, 0, len(replicas)*vnodes),
		share:    make([]float64, len(replicas)),
	}
	var buf [8]byte
	for i, rep := range r.replicas {
		for v := 0; v < vnodes; v++ {
			h := fnv.New64a()
			h.Write([]byte(rep))
			h.Write([]byte{0})
			binary.LittleEndian.PutUint64(buf[:], uint64(v))
			h.Write(buf[:])
			r.points = append(r.points, point{hash: mix64(h.Sum64()), replica: int32(i)})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		// Colliding tokens tie-break on owner so the ring is a pure
		// function of its membership, not of input order.
		return r.points[a].replica < r.points[b].replica
	})
	// Each point owns the arc from its predecessor (exclusive) to itself
	// (inclusive); summing arcs per replica gives the exact fraction of
	// the keyspace each replica serves — the shard-balance gauge.
	if len(r.points) > 0 {
		prev := r.points[len(r.points)-1].hash
		for _, p := range r.points {
			arc := p.hash - prev // wraps correctly in uint64 arithmetic
			r.share[p.replica] += float64(arc) / math.MaxUint64
			prev = p.hash
		}
	}
	return r
}

// routeKey is the gate's ring key for one request body, a batch too:
// xhash.Sum64 over its bytes, trimmed of surrounding whitespace. The
// hash is seedless, so every gate, and a gate after its restart, routes
// a body to the same replica, and it mixes well enough to need no
// finalizer. No model version enters it: a promotion keeps every key's
// owner, and each replica's cache tells versions apart. Keys are the
// gate's alone; nothing stores one.
func routeKey(b []byte) uint64 {
	return xhash.Sum64(bytes.TrimSpace(b))
}

// Key folds a model version and a feature-vector hash into a ring key,
// routing by decoded feature identity. The gate routes on bytes
// (routeKey) instead; Key remains for code modelling the decode-based
// scheme, such as the benchmark's replay of the gate's layers.
func Key(modelVersion string, featHash uint64) uint64 {
	h := fnv.New64a()
	h.Write([]byte(modelVersion))
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], featHash)
	h.Write(buf[:])
	return mix64(h.Sum64())
}

// mix64 is the splitmix64 finalizer. FNV alone clusters nearby inputs
// (replica names differing in one digit, small vnode indices) into
// nearby ring positions, which skews shard shares badly; the finalizer
// restores avalanche so token positions are uniform.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Len returns the replica count.
func (r *Ring) Len() int { return len(r.replicas) }

// Replicas returns the replica names in construction order.
func (r *Ring) Replicas() []string { return r.replicas }

// Share returns the fraction of the keyspace replica i owns.
func (r *Ring) Share(i int) float64 { return r.share[i] }

// Shard returns the index of the replica owning key: the owner of the
// first ring point at or clockwise of key. -1 on an empty ring.
func (r *Ring) Shard(key uint64) int {
	i := r.search(key)
	if i < 0 {
		return -1
	}
	return int(r.points[i].replica)
}

func (r *Ring) search(key uint64) int {
	if len(r.points) == 0 {
		return -1
	}
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= key })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// Successors returns up to n distinct replica indices starting with
// key's owner and continuing clockwise — the failover and hedging
// order. Walking the ring (rather than, say, owner+1 mod N) keeps the
// fallback assignment consistent too: every key that fails over from a
// dead replica lands on the same successor a ring without that replica
// would have chosen.
func (r *Ring) Successors(key uint64, n int) []int {
	i := r.search(key)
	if i < 0 || n <= 0 {
		return nil
	}
	if n > len(r.replicas) {
		n = len(r.replicas)
	}
	out := make([]int, 0, n)
	seen := make([]bool, len(r.replicas))
	for walked := 0; walked < len(r.points) && len(out) < n; walked++ {
		p := r.points[(i+walked)%len(r.points)]
		if !seen[p.replica] {
			seen[p.replica] = true
			out = append(out, int(p.replica))
		}
	}
	return out
}

// String summarizes the ring for logs and the /v1/fleet status body.
func (r *Ring) String() string {
	return fmt.Sprintf("ring{replicas=%d points=%d}", len(r.replicas), len(r.points))
}

package fleet

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// ring is the consistent-hash placement structure: every shard contributes
// virtualNodes points on a 64-bit circle (hashKey of "name#i"), and a node
// ID lands on the first point clockwise of its own hash. Placement depends
// only on the shard *names* — points sort by (hash, name), so shuffling
// the topology's shard order, re-addressing a shard, or rebuilding the
// ring from scratch never moves a key, and removing a shard moves exactly
// the keys that shard owned.
type ring struct {
	points []ringPoint
	shards int
}

// ringPoint is one virtual node. name is the owning shard's stable
// identity (the sort tie-break on the astronomically rare hash collision);
// shard indexes the topology's shard list for O(1) routing.
type ringPoint struct {
	hash  uint64
	name  string
	shard int
}

// hashKey positions a string on the circle: FNV-64a, then a 64-bit
// avalanche finaliser (MurmurHash3's fmix64). Deterministic across
// processes and platforms, with no seed to drift. FNV alone moves the high
// bits — the ones that pick a ring arc — only through its last few
// multiplies, so keys that differ in a trailing digit (cn0001, cn0002, …,
// what real clusters name their nodes) land side by side and one shard
// ends up primary for all of them. The finaliser is a bijection that
// spreads every input bit over the whole word, so it adds no collisions and
// sequential names scatter like random ones.
func hashKey(s string) uint64 {
	f := fnv.New64a()
	_, _ = f.Write([]byte(s))
	h := f.Sum64()
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// newRing validates the shard list and builds the sorted point set.
func newRing(shards []Shard, vnodes int) (*ring, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("fleet: topology has no shards")
	}
	seen := make(map[string]bool, len(shards))
	for _, sh := range shards {
		if sh.Name == "" {
			return nil, fmt.Errorf("fleet: shard with empty name (addr %q)", sh.Addr)
		}
		if seen[sh.Name] {
			return nil, fmt.Errorf("fleet: duplicate shard name %q", sh.Name)
		}
		seen[sh.Name] = true
	}
	if vnodes < 1 {
		vnodes = 1
	}
	r := &ring{points: make([]ringPoint, 0, len(shards)*vnodes), shards: len(shards)}
	for i, sh := range shards {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:  hashKey(fmt.Sprintf("%s#%d", sh.Name, v)),
				name:  sh.Name,
				shard: i,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		return a.name < b.name
	})
	return r, nil
}

// successor finds the first ring point at or clockwise of key's hash.
func (r *ring) successor(key string) int {
	h := hashKey(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// owner returns the index of the shard owning key.
func (r *ring) owner(key string) int {
	return r.points[r.successor(key)].shard
}

// owners returns the n distinct shards holding key's replicas: the owner
// first, then the next distinct shards clockwise (n is clamped to the
// shard count). The clockwise walk is what gives failover its locality:
// removing a shard promotes exactly its keys' first followers.
func (r *ring) owners(key string, n int) []int {
	if n > r.shards {
		n = r.shards
	}
	if n < 1 {
		n = 1
	}
	out := make([]int, 0, n)
	start := r.successor(key)
	for i := 0; len(out) < n && i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		dup := false
		for _, s := range out {
			if s == p.shard {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, p.shard)
		}
	}
	return out
}

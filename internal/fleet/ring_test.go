package fleet

import (
	"fmt"
	"testing"
)

func mustRing(t testing.TB, shards []Shard, vnodes int) *ring {
	t.Helper()
	r, err := newRing(shards, vnodes)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func shardList(names ...string) []Shard {
	out := make([]Shard, len(names))
	for i, n := range names {
		out[i] = Shard{Name: n, Addr: "addr-" + n}
	}
	return out
}

func TestRingDeterminism(t *testing.T) {
	shards := shardList("alpha", "beta", "gamma")
	a := mustRing(t, shards, 64)
	b := mustRing(t, shards, 64)
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("node-%d", i)
		if a.owner(key) != b.owner(key) {
			t.Fatalf("rebuild moved %s: %d vs %d", key, a.owner(key), b.owner(key))
		}
	}
}

func TestRingOrderIndependence(t *testing.T) {
	fwd := mustRing(t, shardList("alpha", "beta", "gamma"), 64)
	rev := mustRing(t, shardList("gamma", "beta", "alpha"), 64)
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("node-%d", i)
		a := fwd.points[fwd.successor(key)].name
		b := rev.points[rev.successor(key)].name
		if a != b {
			t.Fatalf("topology order moved %s: %s vs %s", key, a, b)
		}
	}
}

func TestRingRemoveShardMovesOnlyItsKeys(t *testing.T) {
	names := []string{"alpha", "beta", "gamma", "delta"}
	full := mustRing(t, shardList(names...), 64)
	for _, removed := range names {
		var rest []string
		for _, n := range names {
			if n != removed {
				rest = append(rest, n)
			}
		}
		smaller := mustRing(t, shardList(rest...), 64)
		for i := 0; i < 500; i++ {
			key := fmt.Sprintf("node-%d", i)
			before := full.points[full.successor(key)].name
			after := smaller.points[smaller.successor(key)].name
			if before != removed && before != after {
				t.Fatalf("removing %s moved %s from %s to %s", removed, key, before, after)
			}
			if before == removed {
				// The displaced key must land on its first follower — the
				// failover locality replication relies on.
				owners := full.owners(key, 2)
				follower := shardList(names...)[owners[1]].Name
				if after != follower {
					t.Fatalf("removing %s sent %s to %s, expected follower %s", removed, key, after, follower)
				}
			}
		}
	}
}

func TestRingOwners(t *testing.T) {
	r := mustRing(t, shardList("alpha", "beta", "gamma"), 64)
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("node-%d", i)
		owners := r.owners(key, 2)
		if len(owners) != 2 || owners[0] == owners[1] {
			t.Fatalf("owners(%s, 2) = %v", key, owners)
		}
		if owners[0] != r.owner(key) {
			t.Fatalf("primary of %s diverges: %v vs %d", key, owners, r.owner(key))
		}
		all := r.owners(key, 99)
		if len(all) != 3 {
			t.Fatalf("owners clamped wrong: %v", all)
		}
		one := r.owners(key, 0)
		if len(one) != 1 || one[0] != r.owner(key) {
			t.Fatalf("owners(%s, 0) = %v", key, one)
		}
	}
}

func TestRingSpread(t *testing.T) {
	r := mustRing(t, shardList("alpha", "beta", "gamma", "delta"), virtualNodes)
	counts := make([]int, 4)
	const keys = 4000
	for i := 0; i < keys; i++ {
		counts[r.owner(fmt.Sprintf("node-%d", i))]++
	}
	for i, c := range counts {
		if c < keys/4/2 || c > keys/4*2 {
			t.Fatalf("shard %d owns %d of %d keys — distribution badly skewed: %v", i, c, keys, counts)
		}
	}

	// Sequential names — cn0001, cn0002, …, what real clusters and the
	// benchmark use — on the topologies the tools build (shard-0 … shard-N):
	// bare FNV-64a made one of three shards primary for all 64 of them and
	// left another empty. Placement is deterministic, so this grid either
	// holds or it does not.
	for shards := 2; shards <= 8; shards++ {
		names := make([]string, shards)
		for i := range names {
			names[i] = fmt.Sprintf("shard-%d", i)
		}
		r := mustRing(t, shardList(names...), virtualNodes)
		for _, n := range []int{64, 100, 256, 1000} {
			checkSequentialBalance(t, r, shards, n)
		}
	}
}

// checkSequentialBalance is the balance law for sequential node names: of
// cn0001 … cnNNNN no shard is left without a primary and none is primary
// for more than twice its fair share.
func checkSequentialBalance(t testing.TB, r *ring, shards, n int) {
	t.Helper()
	counts := make([]int, shards)
	for i := 1; i <= n; i++ {
		counts[r.owner(fmt.Sprintf("cn%04d", i))]++
	}
	for i, c := range counts {
		if c == 0 || c*shards > 2*n {
			t.Fatalf("%d sequential names over %d shards: shard %d is primary for %d (fair share %d): %v", n, shards, i, c, n/shards, counts)
		}
	}
}

// FuzzRingPlacement fuzzes the placement invariants routing depends on:
// rebuild determinism, topology-order independence, remove-a-shard moving
// only that shard's keys (each displaced key landing on its first
// follower), and — whatever the shards are called — the balance law for
// sequential node names at the default virtual-node count.
func FuzzRingPlacement(f *testing.F) {
	f.Add([]byte("abc"), "node-1", byte(8))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7}, "compute-17.rack2", byte(64))
	f.Add([]byte("z"), "", byte(1))
	f.Add([]byte("\xff\xfe\x00duplicated\x00"), "node\x00weird", byte(255))
	f.Fuzz(func(t *testing.T, raw []byte, key string, vb byte) {
		// Derive up to 8 distinct shard names from the raw bytes.
		seen := map[string]bool{}
		var names []string
		for _, b := range raw {
			n := fmt.Sprintf("shard-%02x", b%32)
			if !seen[n] {
				seen[n] = true
				names = append(names, n)
			}
			if len(names) == 8 {
				break
			}
		}
		if len(names) == 0 {
			names = []string{"shard-solo"}
		}
		vnodes := int(vb%64) + 1

		a := mustRing(t, shardList(names...), vnodes)
		b := mustRing(t, shardList(names...), vnodes)
		if an, bn := a.points[a.successor(key)].name, b.points[b.successor(key)].name; an != bn {
			t.Fatalf("rebuild moved %q: %s vs %s", key, an, bn)
		}

		// Reversed topology input: same owner names for the key and for a
		// family of derived keys.
		rev := make([]string, len(names))
		for i, n := range names {
			rev[len(names)-1-i] = n
		}
		c := mustRing(t, shardList(rev...), vnodes)
		for i := 0; i < 16; i++ {
			k := fmt.Sprintf("%s#%d", key, i)
			if an, cn := a.points[a.successor(k)].name, c.points[c.successor(k)].name; an != cn {
				t.Fatalf("topology order moved %q: %s vs %s", k, an, cn)
			}
		}

		if len(names) < 2 {
			return
		}
		// Balance is a statistical property, so the fuzzed law keeps a wide
		// margin: with 64 points a shard's arc varies by ~12 % of its fair
		// share, and at 256 names per shard sampling adds ~6 %, which puts
		// "twice the fair share" seven deviations out. (At exactly 64 names
		// about one random topology in a hundred crosses it by sampling
		// noise alone; TestRingSpread pins that size on fixed topologies.)
		checkSequentialBalance(t, mustRing(t, shardList(names...), virtualNodes), len(names), 256*len(names))

		// Remove the key's owner: the key lands on its first follower.
		// Remove any other shard: the key does not move.
		ownerName := a.points[a.successor(key)].name
		followerIdx := a.owners(key, 2)[1]
		followerName := names[followerIdx]
		for _, removed := range names {
			var rest []string
			for _, n := range names {
				if n != removed {
					rest = append(rest, n)
				}
			}
			d := mustRing(t, shardList(rest...), vnodes)
			got := d.points[d.successor(key)].name
			if removed == ownerName {
				if got != followerName {
					t.Fatalf("removing owner %s sent %q to %s, expected follower %s", removed, key, got, followerName)
				}
			} else if got != ownerName {
				t.Fatalf("removing %s moved %q from %s to %s", removed, key, ownerName, got)
			}
		}
	})
}
